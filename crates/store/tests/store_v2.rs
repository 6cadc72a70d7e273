//! v2 store behavior: writer election and read-only degradation, v1
//! read-compat and transparent upgrade, LFU eviction under a byte
//! budget, byte-accounted compaction triggers, reader refresh across
//! appends and compactions, and IO fault storms on the storage path.

use paqoc_device::{IoFaultInjector, PulseEstimate};
use paqoc_store::{
    crc32, inspect, record_len, PulseStore, StoreOptions, StoreRole, FORMAT_VERSION, HEADER_LEN,
};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paqoc-store-v2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(paqoc_store::lock_path(&path));
    path
}

fn est(latency_ns: f64) -> PulseEstimate {
    PulseEstimate {
        latency_ns,
        latency_dt: (latency_ns / 0.125).ceil() as u64,
        fidelity: 0.999,
        cost_units: 1.5,
    }
}

const FP: u64 = 0xF00D;

// ---------------------------------------------------------------- lock

#[test]
fn second_handle_degrades_to_readonly_and_recovers_the_lock() {
    let path = tmp("lock.pqps");
    let mut writer = PulseStore::open(&path, FP).expect("open writer");
    assert_eq!(writer.role(), StoreRole::Writer);
    writer.put("cx", est(14.0)).expect("put");
    writer.sync().expect("sync");

    // Second handle on the same path: degraded, not failed.
    let mut reader = PulseStore::open(&path, FP).expect("open reader");
    assert_eq!(reader.role(), StoreRole::ReadOnly);
    assert_eq!(reader.get("cx"), Some(est(14.0)));

    // Writes on the degraded handle are counted and dropped.
    reader.put("dropped", est(1.0)).expect("readonly put is ok");
    assert_eq!(reader.readonly_drops(), 1);
    assert!(reader.get("dropped").is_none());
    reader.sync().expect("readonly sync is a no-op");

    // Releasing the writer frees the role for the next opener.
    drop(writer);
    let next = PulseStore::open(&path, FP).expect("reopen");
    assert_eq!(next.role(), StoreRole::Writer);
    assert_eq!(next.get("cx"), Some(est(14.0)));
}

#[test]
fn requested_readonly_never_takes_the_lock() {
    let path = tmp("ro-req.pqps");
    {
        let mut w = PulseStore::open(&path, FP).expect("open");
        w.put("k", est(2.0)).expect("put");
    }
    let ro = PulseStore::open_with(
        &path,
        FP,
        StoreOptions {
            read_only: true,
            ..StoreOptions::default()
        },
    )
    .expect("open read-only");
    assert_eq!(ro.role(), StoreRole::ReadOnly);
    assert_eq!(ro.get("k"), Some(est(2.0)));
    // The lock is free: a writer can still open alongside.
    let w = PulseStore::open(&path, FP).expect("writer");
    assert_eq!(w.role(), StoreRole::Writer);
}

#[test]
fn readonly_open_is_journaled() {
    paqoc_telemetry::set_enabled(true);
    let path = tmp("ro-journal.pqps");
    let _writer = PulseStore::open(&path, FP).expect("writer");
    let _reader = PulseStore::open(&path, FP).expect("reader");
    let snap = paqoc_telemetry::snapshot();
    let ours = snap.events.iter().any(|e| {
        e.name == "store.readonly"
            && e.fields.iter().any(|(k, v)| {
                k == "path"
                    && matches!(v, paqoc_telemetry::FieldValue::Str(s)
                        if s == &path.display().to_string())
            })
    });
    assert!(
        ours,
        "expected a store.readonly event for {}",
        path.display()
    );
    assert!(*snap.counters.get("store.readonly").unwrap_or(&0) >= 1);
}

// ------------------------------------------------------------- refresh

#[test]
fn reader_refresh_picks_up_appends_incrementally() {
    let path = tmp("refresh-append.pqps");
    let mut writer = PulseStore::open(&path, FP).expect("writer");
    writer.put("a", est(1.0)).expect("put");
    writer.sync().expect("sync");

    let mut reader = PulseStore::open(&path, FP).expect("reader");
    assert_eq!(reader.len(), 1);

    writer.put("b", est(2.0)).expect("put");
    writer.put("c", est(3.0)).expect("put");
    writer.sync().expect("sync");

    let seen = reader.refresh().expect("refresh");
    assert_eq!(seen, 2, "delta scan sees exactly the two appends");
    assert_eq!(reader.get("b"), Some(est(2.0)));
    assert_eq!(reader.get("c"), Some(est(3.0)));
    assert_eq!(reader.refresh().expect("idle refresh"), 0);
}

#[test]
fn reader_survives_concurrent_compaction() {
    let path = tmp("refresh-compact.pqps");
    let mut writer = PulseStore::open(&path, FP).expect("writer");
    for i in 0..8 {
        writer
            .put(&format!("k{i}"), est(1.0 + i as f64))
            .expect("put");
    }
    // Overwrites create dead bytes for the compaction to reclaim.
    for i in 0..8 {
        writer
            .put(&format!("k{i}"), est(10.0 + i as f64))
            .expect("put");
    }
    writer.sync().expect("sync");

    let mut reader = PulseStore::open(&path, FP).expect("reader");
    assert_eq!(reader.len(), 8);

    writer.compact().expect("compact");
    writer.put("post", est(99.0)).expect("put after compact");
    writer.sync().expect("sync");

    // The inode changed under the reader; refresh reloads the snapshot.
    reader.refresh().expect("refresh");
    assert_eq!(reader.len(), 9);
    for i in 0..8 {
        assert_eq!(reader.get(&format!("k{i}")), Some(est(10.0 + i as f64)));
    }
    assert_eq!(reader.get("post"), Some(est(99.0)));
}

#[test]
fn reader_waits_out_a_partial_tail_frame() {
    let path = tmp("refresh-torn.pqps");
    let mut writer = PulseStore::open(&path, FP).expect("writer");
    writer.put("a", est(1.0)).expect("put");
    writer.sync().expect("sync");

    let mut reader = PulseStore::open(&path, FP).expect("reader");
    assert_eq!(reader.len(), 1);

    // Simulate an append caught mid-write: a record prefix at the tail.
    let full = paqoc_store::encode_record("b", &est(2.0));
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("open");
    use std::io::Write as _;
    f.write_all(&full[..full.len() / 2]).expect("partial");
    drop(f);

    assert_eq!(reader.refresh().expect("refresh"), 0);
    assert_eq!(reader.len(), 1, "partial frame must not load");
    assert_eq!(
        reader.recovery().torn_tail_bytes,
        0,
        "a live reader treats a partial tail as in-flight, not damage"
    );

    // The rest of the record lands; the reader resumes from its offset.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("open");
    f.write_all(&full[full.len() / 2..]).expect("rest");
    drop(f);
    assert_eq!(reader.refresh().expect("refresh"), 1);
    assert_eq!(reader.get("b"), Some(est(2.0)));
}

#[test]
fn reader_opened_before_the_file_exists_catches_up() {
    let path = tmp("refresh-late.pqps");
    let mut reader = PulseStore::open_with(
        &path,
        FP,
        StoreOptions {
            read_only: true,
            ..StoreOptions::default()
        },
    )
    .expect("reader on missing file");
    assert!(reader.is_empty());

    let mut writer = PulseStore::open(&path, FP).expect("writer");
    writer.put("late", est(4.0)).expect("put");
    writer.sync().expect("sync");

    reader.refresh().expect("refresh");
    assert_eq!(reader.get("late"), Some(est(4.0)));
}

// ------------------------------------------------------- v1 compat

fn write_v1_store(path: &std::path::Path, records: &[(&str, PulseEstimate)]) {
    let mut bytes = Vec::new();
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(b"PQPS");
    header[4..8].copy_from_slice(&1u32.to_le_bytes());
    header[8..16].copy_from_slice(&FP.to_le_bytes());
    let crc = crc32(&header[0..16]);
    header[16..20].copy_from_slice(&crc.to_le_bytes());
    bytes.extend_from_slice(&header);
    for (key, est) in records {
        // v1 payload: key_len | key | latency_ns | latency_dt | fidelity
        // | cost_units — no generational tail.
        let mut payload = Vec::new();
        payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
        payload.extend_from_slice(key.as_bytes());
        payload.extend_from_slice(&est.latency_ns.to_bits().to_le_bytes());
        payload.extend_from_slice(&est.latency_dt.to_le_bytes());
        payload.extend_from_slice(&est.fidelity.to_bits().to_le_bytes());
        payload.extend_from_slice(&est.cost_units.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
    }
    std::fs::write(path, bytes).expect("write v1 file");
}

#[test]
fn v1_store_opens_transparently_and_upgrades_to_v2() {
    let path = tmp("v1-upgrade.pqps");
    write_v1_store(&path, &[("cx", est(14.0)), ("h", est(5.0))]);

    let ins = inspect(&path).expect("inspect v1");
    assert!(ins.header_ok);
    assert_eq!(ins.version, 1);
    assert_eq!(ins.live_records, 2);

    let store = PulseStore::open(&path, FP).expect("open v1 under v2 code");
    assert_eq!(store.len(), 2, "all v1 records readable");
    assert_eq!(store.get("cx"), Some(est(14.0)));
    assert_eq!(store.get("h"), Some(est(5.0)));
    assert_eq!(store.peek("cx").expect("cx").hits, 0);
    assert_eq!(store.recovery().upgraded, Some(1));
    assert!(
        !store.recovery().recovered(),
        "an upgrade is not damage recovery"
    );
    drop(store);

    // The writer rewrote the file as v2 on open.
    let ins = inspect(&path).expect("inspect upgraded");
    assert_eq!(ins.version, FORMAT_VERSION);
    assert_eq!(ins.live_records, 2);
    assert!(ins.clean());

    // And a second open is a plain clean v2 open.
    let store = PulseStore::open(&path, FP).expect("reopen");
    assert_eq!(store.recovery().upgraded, None);
    assert_eq!(store.len(), 2);
}

#[test]
fn v1_store_with_torn_tail_still_recovers() {
    let path = tmp("v1-torn.pqps");
    write_v1_store(&path, &[("cx", est(14.0)), ("h", est(5.0))]);
    // Tear the last record mid-payload.
    let len = std::fs::metadata(&path).expect("meta").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open");
    f.set_len(len - 7).expect("truncate");
    drop(f);

    let store = PulseStore::open(&path, FP).expect("open");
    assert_eq!(store.len(), 1);
    assert_eq!(store.get("cx"), Some(est(14.0)));
    assert!(store.recovery().recovered());
    assert_eq!(store.recovery().upgraded, Some(1));
}

// ------------------------------------------------- eviction + budget

#[test]
fn lfu_eviction_keeps_hot_records_and_fits_the_budget() {
    paqoc_telemetry::set_enabled(true);
    let path = tmp("evict.pqps");
    // Budget: header + 6 records of our fixed key shape.
    let key = |i: usize| format!("key-{i:02}");
    let per_record = record_len(&key(0)) as u64;
    let max_bytes = HEADER_LEN as u64 + 6 * per_record;
    let mut store =
        PulseStore::open_with(&path, FP, StoreOptions::with_max_bytes(max_bytes)).expect("open");
    for i in 0..10 {
        store.put(&key(i), est(1.0 + i as f64)).expect("put");
    }
    // Heat up keys 0..6 (key 0 hottest); keys 6..10 never hit.
    for i in 0..6 {
        for _ in 0..(10 - i) {
            store.hit(&key(i));
        }
    }
    let report = store.maintain().expect("maintain");
    assert_eq!(report.evicted, 4, "evict exactly down to the budget");
    assert!(report.compacted);

    // The cold records went, lowest hit count first.
    for i in 0..6 {
        assert!(store.contains(&key(i)), "hot {} must survive", key(i));
    }
    for i in 6..10 {
        assert!(!store.contains(&key(i)), "cold {} must be evicted", key(i));
    }
    let disk = std::fs::metadata(&path).expect("meta").len();
    assert!(
        disk <= max_bytes,
        "compacted file ({disk} B) must fit the budget ({max_bytes} B)"
    );
    assert_eq!(store.evictions(), 4);

    // Evictions and the compaction trigger are journaled.
    let snap = paqoc_telemetry::snapshot();
    let evict_events = snap
        .events
        .iter()
        .filter(|e| e.name == "store.evict")
        .count();
    assert!(evict_events >= 4, "expected >=4 store.evict events");
    let compact_reason = snap.events.iter().any(|e| {
        e.name == "store.compact"
            && e.fields.iter().any(|(k, v)| {
                k == "reason" && matches!(v, paqoc_telemetry::FieldValue::Str(s) if s == "evict")
            })
    });
    assert!(compact_reason, "store.compact must carry reason=evict");
}

#[test]
fn eviction_tie_breaks_on_oldest_access_then_key() {
    let path = tmp("evict-tie.pqps");
    let key = |i: usize| format!("tie-{i}");
    let per_record = record_len(&key(0)) as u64;
    let max_bytes = HEADER_LEN as u64 + 2 * per_record;
    let mut store =
        PulseStore::open_with(&path, FP, StoreOptions::with_max_bytes(max_bytes)).expect("open");
    for i in 0..4 {
        store.put(&key(i), est(1.0 + i as f64)).expect("put");
    }
    // All get exactly one hit; access order 3, 2, 1, 0 — so 3 is the
    // *oldest* access and must go first on the tie.
    for i in (0..4).rev() {
        store.hit(&key(i));
    }
    store.maintain().expect("maintain");
    assert!(store.contains(&key(1)) && store.contains(&key(0)));
    assert!(!store.contains(&key(3)) && !store.contains(&key(2)));
}

#[test]
fn reopened_store_remembers_hits_for_eviction() {
    let path = tmp("evict-reopen.pqps");
    let key = |i: usize| format!("persist-{i}");
    {
        let mut store = PulseStore::open(&path, FP).expect("open");
        for i in 0..4 {
            store.put(&key(i), est(1.0)).expect("put");
        }
        store.hit(&key(0));
        store.hit(&key(0));
        store.hit(&key(2));
        store.hit(&key(2));
        store.compact().expect("compact persists metadata");
    }
    let per_record = record_len(&key(0)) as u64;
    let max_bytes = HEADER_LEN as u64 + 2 * per_record;
    let mut store =
        PulseStore::open_with(&path, FP, StoreOptions::with_max_bytes(max_bytes)).expect("reopen");
    store.maintain().expect("maintain");
    assert!(
        store.contains(&key(0)) && store.contains(&key(2)),
        "hot keys survive reopen"
    );
    assert!(!store.contains(&key(1)) && !store.contains(&key(3)));
}

// --------------------------------------------- byte-based compaction

#[test]
fn should_compact_counts_bytes_not_records() {
    let path = tmp("compact-bytes.pqps");
    let mut store = PulseStore::open(&path, FP).expect("open");
    store.put("k", est(0.5)).expect("put");
    let per = record_len("k") as u64;

    // Overwrite more than the old >64-records threshold: with only
    // ~60 dead bytes per overwrite we are still far under the byte
    // floor, so compaction must NOT trigger.
    for i in 0..65 {
        store.put("k", est(1.0 + i as f64)).expect("put");
    }
    assert!(store.dead_bytes() < paqoc_store::COMPACT_DEAD_BYTES_FLOOR);
    assert!(
        !store.should_compact(),
        "65 tiny overwrites ({} dead bytes) must not trigger compaction",
        store.dead_bytes()
    );

    // Push past the byte floor; dead >> live now.
    let need = (paqoc_store::COMPACT_DEAD_BYTES_FLOOR / per) + 2;
    for i in 0..need {
        store.put("k", est(100.0 + i as f64)).expect("put");
    }
    assert!(store.should_compact());
    let report = store.maintain().expect("maintain");
    assert!(report.compacted);
    assert_eq!(store.dead_bytes(), 0);
    assert_eq!(
        std::fs::metadata(&path).expect("meta").len() as usize,
        HEADER_LEN + record_len("k")
    );
}

#[test]
fn dead_byte_compaction_reason_is_journaled() {
    paqoc_telemetry::set_enabled(true);
    let path = tmp("compact-reason.pqps");
    let mut store = PulseStore::open(&path, FP).expect("open");
    let rounds = paqoc_store::COMPACT_DEAD_BYTES_FLOOR / record_len("r") as u64 + 2;
    for i in 0..=rounds {
        store.put("r", est(1.0 + i as f64)).expect("put");
    }
    let dead_before = store.dead_bytes();
    assert!(store.should_compact());
    store.maintain().expect("maintain");
    let snap = paqoc_telemetry::snapshot();
    let ours = snap.events.iter().any(|e| {
        e.name == "store.compact"
            && e.fields.iter().any(|(k, v)| {
                k == "reason"
                    && matches!(v, paqoc_telemetry::FieldValue::Str(s) if s == "dead-bytes")
            })
            && e.fields.iter().any(|(k, v)| {
                k == "dead_bytes"
                    && matches!(v, paqoc_telemetry::FieldValue::U64(d) if *d == dead_before)
            })
    });
    assert!(
        ours,
        "expected store.compact with reason=dead-bytes and the dead byte count"
    );
}

// ----------------------------------------------------------- IO faults

#[test]
fn injected_short_write_fails_the_put_and_repairs_the_tail() {
    let path = tmp("short-write.pqps");
    let injector = Arc::new(IoFaultInjector::new(7, 0.0, 0.0, 1.0));
    let mut store = PulseStore::open_with(
        &path,
        FP,
        StoreOptions {
            io_faults: Some(Arc::clone(&injector)),
            ..StoreOptions::default()
        },
    )
    .expect("open");
    let err = store
        .put("torn", est(3.0))
        .expect_err("short write must fail the put");
    assert_eq!(err.op, "append");
    assert!(store.get("torn").is_none(), "failed put must not be served");
    assert_eq!(injector.counts().short_writes, 1);
    // The live writer truncated the torn prefix back out of the file.
    assert_eq!(
        std::fs::metadata(&path).expect("meta").len() as usize,
        HEADER_LEN
    );
    drop(store);
    let store = PulseStore::open(&path, FP).expect("reopen");
    assert!(
        !store.recovery().recovered(),
        "repaired tail leaves a clean file"
    );
}

#[test]
fn injected_sync_failure_surfaces_as_store_error() {
    let path = tmp("sync-fault.pqps");
    let injector = Arc::new(IoFaultInjector::new(3, 1.0, 0.0, 0.0));
    let mut store = PulseStore::open_with(
        &path,
        FP,
        StoreOptions {
            io_faults: Some(injector),
            ..StoreOptions::default()
        },
    )
    .expect("open survives: open path only syncs on scrub");
    store.put("k", est(1.0)).expect("append is not synced");
    let err = store.sync().expect_err("injected fsync failure");
    assert_eq!(err.op, "sync");
}

#[test]
fn injected_rename_failure_leaves_the_old_file_intact() {
    let path = tmp("rename-fault.pqps");
    {
        let mut store = PulseStore::open(&path, FP).expect("open");
        store.put("keep", est(9.0)).expect("put");
        store.sync().expect("sync");
    }
    let injector = Arc::new(IoFaultInjector::new(5, 0.0, 1.0, 0.0));
    let mut store = PulseStore::open_with(
        &path,
        FP,
        StoreOptions {
            io_faults: Some(injector),
            ..StoreOptions::default()
        },
    )
    .expect("open: clean file needs no scrub");
    let err = store.compact().expect_err("injected rename failure");
    assert_eq!(err.op, "compact");
    drop(store);
    let store = PulseStore::open(&path, FP).expect("reopen");
    assert_eq!(store.get("keep"), Some(est(9.0)), "old file must survive");
}

#[test]
fn io_fault_storm_never_corrupts_what_a_clean_reopen_serves() {
    for seed in 0..8u64 {
        let path = tmp(&format!("storm-{seed}.pqps"));
        let injector = Arc::new(IoFaultInjector::new(seed, 0.3, 0.3, 0.3));
        let mut store = PulseStore::open_with(
            &path,
            FP,
            StoreOptions {
                io_faults: Some(injector),
                max_bytes: Some(HEADER_LEN as u64 + 40 * record_len("storm-00") as u64),
                ..StoreOptions::default()
            },
        )
        .expect("open");
        let mut accepted = Vec::new();
        for i in 0..64 {
            let key = format!("storm-{i:02}");
            if store.put(&key, est(1.0 + i as f64)).is_ok() {
                accepted.push((key.clone(), est(1.0 + i as f64)));
            }
            let _ = store.hit(&key);
            if i % 7 == 0 {
                let _ = store.sync();
            }
            if i % 13 == 0 {
                let _ = store.maintain();
            }
        }
        drop(store);

        // A clean reopen serves only well-formed records that were
        // actually accepted, and scrubs to a clean second open.
        let store = PulseStore::open(&path, FP).expect("reopen");
        for (key, e) in store.iter() {
            assert!(e.is_well_formed(), "seed {seed}: malformed estimate served");
            let expected = accepted.iter().find(|(k, _)| k == key);
            assert!(
                expected.is_some(),
                "seed {seed}: served {key:?} which was never accepted"
            );
            assert_eq!(*e, expected.expect("checked").1, "seed {seed}: wrong value");
        }
        drop(store);
        let store = PulseStore::open(&path, FP).expect("second reopen");
        assert!(
            !store.recovery().recovered(),
            "seed {seed}: corruption survived a scrub"
        );
    }
}

// ---------------------------------------------------------- merge

#[test]
fn merge_adds_missing_records_and_keeps_destination_authority() {
    let path_a = tmp("merge-a.pqps");
    let path_b = tmp("merge-b.pqps");
    {
        let mut a = PulseStore::open(&path_a, FP).expect("open a");
        a.put("shared", est(1.0)).expect("put");
        a.put("only-a", est(2.0)).expect("put");
        a.sync().expect("sync");
    }
    {
        let mut b = PulseStore::open(&path_b, FP).expect("open b");
        b.put("shared", est(99.0)).expect("put");
        b.put("only-b", est(3.0)).expect("put");
        b.sync().expect("sync");
    }
    let mut a = PulseStore::open(&path_a, FP).expect("reopen a");
    let report = a.merge_from_file(&path_b).expect("merge");
    assert_eq!(report.added, 1);
    assert_eq!(report.skipped, 1);
    assert_eq!(a.len(), 3);
    assert_eq!(
        a.get("shared"),
        Some(est(1.0)),
        "destination wins conflicts"
    );
    assert_eq!(a.get("only-b"), Some(est(3.0)));

    // Merging a foreign-fingerprint source is refused.
    let path_c = tmp("merge-c.pqps");
    {
        let mut c = PulseStore::open(&path_c, FP + 1).expect("open c");
        c.put("foreign", est(4.0)).expect("put");
        c.sync().expect("sync");
    }
    let err = a.merge_from_file(&path_c).expect_err("foreign merge");
    assert_eq!(err.op, "merge");
}

// --------------------------------------------------------- inspection

#[test]
fn inspect_reports_damage_without_touching_the_file() {
    let path = tmp("inspect.pqps");
    {
        let mut s = PulseStore::open(&path, FP).expect("open");
        s.put("a", est(1.0)).expect("put");
        s.put("a", est(2.0)).expect("overwrite");
        s.put("b", est(3.0)).expect("put");
        s.sync().expect("sync");
    }
    let before = std::fs::read(&path).expect("read");
    let ins = inspect(&path).expect("inspect");
    assert!(ins.header_ok);
    assert_eq!(ins.version, FORMAT_VERSION);
    assert_eq!(ins.fingerprint, FP);
    assert_eq!(ins.records_scanned, 3);
    assert_eq!(ins.live_records, 2);
    assert_eq!(ins.dead_bytes, record_len("a") as u64);
    assert!(ins.clean());
    assert_eq!(
        std::fs::read(&path).expect("read"),
        before,
        "inspect is read-only"
    );

    // Torn tail shows up as damage.
    let len = std::fs::metadata(&path).expect("meta").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open");
    f.set_len(len - 3).expect("truncate");
    drop(f);
    let ins = inspect(&path).expect("inspect damaged");
    assert!(!ins.clean());
    assert!(ins.torn_tail_bytes > 0);
}
