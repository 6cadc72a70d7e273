//! Corruption-injection acceptance suite for the persistent pulse store.
//!
//! Every test here manufactures a real on-disk failure with the
//! byte-level injectors below — torn tails, flipped bits, stale
//! fingerprints, mid-write crashes, garbage length prefixes, seeded
//! random fuzz — and asserts the store's published recovery contract:
//! open never panics, corrupt records are quarantined (never served),
//! recovery is journaled, and corruption never survives a second open.
//!
//! The injectors know nothing about the record format; offsets are
//! computed from the store's published layout constants (`HEADER_LEN`,
//! `record_len`), so these tests double as a check that the documented
//! layout matches the bytes actually written.

use paqoc_device::PulseEstimate;
use paqoc_math::Rng;
use paqoc_store::{
    encode_record, record_len, PulseStore, RejectReason, FORMAT_VERSION, HEADER_LEN,
};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Flips one bit: bit `bit` (0–7) of the byte at `offset`.
///
/// # Panics
///
/// Panics if `offset` is past the end of the file (a test bug, not a
/// runtime condition).
fn flip_bit(path: &Path, offset: u64, bit: u8) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let i = offset as usize;
    assert!(
        i < bytes.len(),
        "flip_bit offset {i} past EOF {}",
        bytes.len()
    );
    bytes[i] ^= 1 << (bit & 7);
    std::fs::write(path, bytes)
}

/// Flips `count` bits at seeded-random positions anywhere after byte
/// `skip` (pass the header length to spare the header, or 0 to allow
/// hitting it too). Returns the `(offset, bit)` pairs flipped so a test
/// can report exactly what it injected.
///
/// # Panics
///
/// Panics when the file has no bytes after `skip` to corrupt.
fn flip_random_bits(
    path: &Path,
    count: usize,
    seed: u64,
    skip: u64,
) -> std::io::Result<Vec<(u64, u8)>> {
    let mut bytes = std::fs::read(path)?;
    let skip = skip as usize;
    assert!(
        bytes.len() > skip,
        "file has only {} bytes, nothing after skip={skip}",
        bytes.len()
    );
    let mut rng = Rng::seed_from_u64(seed);
    let mut flipped = Vec::with_capacity(count);
    for _ in 0..count {
        let offset = skip + (rng.next_u64() as usize) % (bytes.len() - skip);
        let bit = (rng.next_u64() % 8) as u8;
        bytes[offset] ^= 1 << bit;
        flipped.push((offset as u64, bit));
    }
    std::fs::write(path, bytes)?;
    Ok(flipped)
}

/// Truncates the last `tail_bytes` bytes off the file — a crash after a
/// partial append, as seen by the next reader.
fn truncate_tail(path: &Path, tail_bytes: u64) -> std::io::Result<()> {
    let len = std::fs::metadata(path)?.len();
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(len.saturating_sub(tail_bytes))
}

/// Appends raw bytes — used to simulate a crash *mid-write*: append a
/// prefix of a valid record (its framing header but only part of its
/// payload) and the file looks exactly as it would after power loss
/// between two `write` calls.
fn append_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
    file.write_all(bytes)
}

/// Overwrites bytes in place at `offset` — used to plant a stale or
/// foreign device fingerprint in a header, or to rewrite a length
/// prefix with garbage.
///
/// # Panics
///
/// Panics when the write would extend past EOF (overwrite means
/// overwrite, not grow).
fn overwrite_bytes(path: &Path, offset: u64, replacement: &[u8]) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let start = offset as usize;
    assert!(
        start + replacement.len() <= bytes.len(),
        "overwrite [{start}, {}) past EOF {}",
        start + replacement.len(),
        bytes.len()
    );
    bytes[start..start + replacement.len()].copy_from_slice(replacement);
    std::fs::write(path, bytes)
}

/// A fingerprint standing in for `Device::fingerprint()`; any nonzero
/// u64 works — the store treats it as an opaque token.
const FP: u64 = 0xD15E_A5ED_0000_0001;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paqoc-store-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn est(latency_dt: u64) -> PulseEstimate {
    PulseEstimate {
        latency_ns: latency_dt as f64 * 0.222,
        latency_dt,
        fidelity: 0.999,
        cost_units: latency_dt as f64,
    }
}

/// Three fixed keys, in the order they are appended by `seed_store`.
const KEYS: [&str; 3] = ["cx:q0-q1", "apa:cp+cp:q1-q2-q3", "rx:q4"];

/// Byte offset where record `i` of a freshly seeded store begins.
fn record_offset(i: usize) -> u64 {
    (HEADER_LEN + KEYS[..i].iter().map(|k| record_len(k)).sum::<usize>()) as u64
}

fn seed_store(path: &Path) -> u64 {
    let mut store = PulseStore::open(path, FP).expect("seed open");
    for (i, key) in KEYS.iter().enumerate() {
        store.put(key, est(100 + i as u64)).expect("seed put");
    }
    store.sync().expect("seed sync");
    assert!(!store.recovery().recovered(), "seed store must be clean");
    std::fs::metadata(path).expect("seed metadata").len()
}

/// Reopening after recovery must find a clean file: corruption never
/// survives a second open.
fn assert_scrubbed(path: &Path) {
    let store = PulseStore::open(path, FP).expect("reopen after recovery");
    assert!(
        !store.recovery().recovered(),
        "second open still sees damage: {:?}",
        store.recovery()
    );
}

#[test]
fn torn_tail_is_truncated_and_earlier_records_survive() {
    let path = tmp("torn_tail.db");
    seed_store(&path);
    // Chop the last record in half: a crash mid-append.
    truncate_tail(&path, (record_len(KEYS[2]) / 2) as u64).expect("truncate");

    let store = PulseStore::open(&path, FP).expect("open torn");
    assert!(store.recovery().recovered());
    assert!(store.recovery().torn_tail_bytes > 0);
    assert_eq!(store.recovery().rejected, None);
    assert_eq!(store.get(KEYS[0]), Some(est(100)));
    assert_eq!(store.get(KEYS[1]), Some(est(101)));
    assert_eq!(store.get(KEYS[2]), None, "torn record must not be served");
    drop(store);
    assert_scrubbed(&path);
}

#[test]
fn flipped_payload_bit_quarantines_only_that_record() {
    let path = tmp("bit_flip.db");
    seed_store(&path);
    // Flip a bit inside the middle record's payload (past its 8-byte
    // len+crc framing), leaving its neighbours untouched.
    flip_bit(&path, record_offset(1) + 8 + 2, 5).expect("flip");

    let store = PulseStore::open(&path, FP).expect("open flipped");
    assert!(store.recovery().recovered());
    assert_eq!(store.recovery().quarantined, 1);
    assert_eq!(store.get(KEYS[0]), Some(est(100)));
    assert_eq!(
        store.get(KEYS[1]),
        None,
        "corrupt record must not be served"
    );
    assert_eq!(
        store.get(KEYS[2]),
        Some(est(102)),
        "later records still load"
    );
    drop(store);
    assert_scrubbed(&path);
}

#[test]
fn stale_fingerprint_rejects_the_whole_file() {
    let path = tmp("stale_fp.db");
    seed_store(&path);
    // Plant a foreign device fingerprint at its header offset (byte 8)
    // and fix up the header CRC so only the fingerprint check can trip.
    let other: u64 = FP ^ 0xFFFF;
    overwrite_bytes(&path, 8, &other.to_le_bytes()).expect("plant fingerprint");
    let bytes = std::fs::read(&path).expect("read");
    let crc = paqoc_store::crc32(&bytes[..16]);
    overwrite_bytes(&path, 16, &crc.to_le_bytes()).expect("fix header crc");

    let store = PulseStore::open(&path, FP).expect("open stale");
    assert_eq!(
        store.recovery().rejected,
        Some(RejectReason::Fingerprint {
            found: other,
            expected: FP
        })
    );
    assert!(store.is_empty(), "foreign pulses must never be served");
    drop(store);
    assert_scrubbed(&path);
}

#[test]
fn unknown_format_version_rejects_the_whole_file() {
    let path = tmp("version.db");
    seed_store(&path);
    overwrite_bytes(&path, 4, &(FORMAT_VERSION + 9).to_le_bytes()).expect("plant version");
    let bytes = std::fs::read(&path).expect("read");
    let crc = paqoc_store::crc32(&bytes[..16]);
    overwrite_bytes(&path, 16, &crc.to_le_bytes()).expect("fix header crc");

    let store = PulseStore::open(&path, FP).expect("open versioned");
    assert_eq!(
        store.recovery().rejected,
        Some(RejectReason::Version {
            found: FORMAT_VERSION + 9
        })
    );
    assert!(store.is_empty());
    drop(store);
    assert_scrubbed(&path);
}

#[test]
fn corrupt_header_crc_rejects_the_whole_file() {
    let path = tmp("bad_header.db");
    seed_store(&path);
    flip_bit(&path, 17, 3).expect("flip header crc");

    let store = PulseStore::open(&path, FP).expect("open bad header");
    assert_eq!(store.recovery().rejected, Some(RejectReason::BadHeader));
    assert!(store.is_empty());
    drop(store);
    assert_scrubbed(&path);
}

#[test]
fn mid_write_crash_leaves_a_loadable_store() {
    let path = tmp("mid_write.db");
    seed_store(&path);
    // Simulate power loss between two write calls: the framing header
    // and part of the payload of a 4th record make it to disk.
    let record = encode_record("cz:q5-q6", &est(500));
    append_bytes(&path, &record[..record.len() - 7]).expect("partial append");

    let store = PulseStore::open(&path, FP).expect("open mid-write");
    assert!(store.recovery().recovered());
    assert!(store.recovery().torn_tail_bytes > 0);
    assert_eq!(store.len(), 3, "all complete records survive");
    assert_eq!(store.get("cz:q5-q6"), None);
    drop(store);
    assert_scrubbed(&path);
}

#[test]
fn garbage_length_prefix_cannot_swallow_the_file() {
    let path = tmp("bad_len.db");
    seed_store(&path);
    // Rewrite record 1's length prefix with an enormous value; a naive
    // loader would try to read 4 GiB and treat records 1 and 2 as one.
    overwrite_bytes(&path, record_offset(1), &u32::MAX.to_le_bytes()).expect("plant len");

    let store = PulseStore::open(&path, FP).expect("open bad len");
    assert!(store.recovery().recovered());
    assert_eq!(
        store.get(KEYS[0]),
        Some(est(100)),
        "record before the damage survives"
    );
    assert_eq!(store.get(KEYS[1]), None);
    drop(store);
    assert_scrubbed(&path);
}

#[test]
fn duplicate_keys_resolve_last_wins_across_reopen() {
    let path = tmp("dup.db");
    seed_store(&path);
    // Append two more records for an existing key straight to the file,
    // bypassing put()'s in-memory dedup.
    append_bytes(&path, &encode_record(KEYS[0], &est(777))).expect("dup 1");
    append_bytes(&path, &encode_record(KEYS[0], &est(888))).expect("dup 2");

    let store = PulseStore::open(&path, FP).expect("open dup");
    assert_eq!(store.get(KEYS[0]), Some(est(888)), "last append wins");
    assert_eq!(store.len(), 3);
}

#[test]
fn ill_formed_estimate_on_disk_is_quarantined() {
    let path = tmp("nan.db");
    seed_store(&path);
    let poisoned = PulseEstimate {
        latency_ns: f64::NAN,
        latency_dt: 1,
        fidelity: 2.0,
        cost_units: -3.0,
    };
    append_bytes(&path, &encode_record("nan:q0", &poisoned)).expect("append poisoned");

    let store = PulseStore::open(&path, FP).expect("open poisoned");
    assert!(store.recovery().recovered());
    assert_eq!(store.recovery().quarantined, 1);
    assert_eq!(
        store.get("nan:q0"),
        None,
        "NaN estimates must never be served"
    );
    assert_eq!(store.len(), 3);
    drop(store);
    assert_scrubbed(&path);
}

#[test]
fn recovery_is_journaled_as_a_store_recovered_event() {
    paqoc_telemetry::set_enabled(true);
    let path = tmp("journaled.db");
    seed_store(&path);
    truncate_tail(&path, 5).expect("truncate");

    let store = PulseStore::open(&path, FP).expect("open");
    assert!(store.recovery().recovered());
    let snap = paqoc_telemetry::snapshot();
    let ours = snap.events.iter().any(|e| {
        e.name == "store.recovered"
            && e.fields.iter().any(|(k, v)| {
                k == "path"
                    && matches!(v, paqoc_telemetry::FieldValue::Str(s)
                        if s == &path.display().to_string())
            })
    });
    assert!(
        ours,
        "expected a store.recovered event for {}",
        path.display()
    );
    assert!(*snap.counters.get("store.recovered").unwrap_or(&0) >= 1);
}

/// Seeded fuzz: random bit flips anywhere in the file (header included)
/// must never panic the loader, and everything it does serve must be a
/// well-formed estimate with an uncorrupted key.
#[test]
fn random_bit_flips_never_panic_and_never_serve_garbage() {
    for seed in 0..32u64 {
        let path = tmp(&format!("fuzz_{seed}.db"));
        seed_store(&path);
        let flips = flip_random_bits(&path, 1 + (seed as usize % 4), seed, 0).expect("flip");

        let store = PulseStore::open(&path, FP)
            .unwrap_or_else(|e| panic!("seed {seed} (flips {flips:?}): open failed: {e}"));
        for (key, e) in store.iter() {
            assert!(
                KEYS.contains(&key),
                "seed {seed}: served a key that was never written: {key:?}"
            );
            assert!(
                e.is_well_formed(),
                "seed {seed}: served an ill-formed estimate for {key:?}: {e:?}"
            );
        }
        drop(store);
        assert_scrubbed(&path);
    }
}

/// A store that recovered keeps accepting appends afterwards — recovery
/// must hand back a fully functional append handle, not a read-only
/// husk.
#[test]
fn store_accepts_new_pulses_after_recovery() {
    let path = tmp("append_after.db");
    seed_store(&path);
    truncate_tail(&path, 3).expect("truncate");

    let mut store = PulseStore::open(&path, FP).expect("open");
    assert!(store.recovery().recovered());
    store.put("new:q7", est(900)).expect("put after recovery");
    store.sync().expect("sync after recovery");
    drop(store);

    let store = PulseStore::open(&path, FP).expect("reopen");
    assert!(!store.recovery().recovered());
    assert_eq!(store.get("new:q7"), Some(est(900)));
}

/// A fresh file holding `0123456789abcdef`, for the injectors' own
/// tests.
fn sixteen_bytes(name: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, b"0123456789abcdef").expect("seed file");
    path
}

#[test]
fn flip_bit_changes_exactly_one_bit() {
    let path = sixteen_bytes("flip.bin");
    flip_bit(&path, 3, 0).expect("flip");
    let bytes = std::fs::read(&path).expect("read");
    assert_eq!(bytes[3], b'3' ^ 1);
    assert_eq!(&bytes[..3], b"012");
    assert_eq!(&bytes[4..], b"456789abcdef");
}

#[test]
fn flip_random_bits_is_seeded_and_spares_the_skip_region() {
    let a = sixteen_bytes("rand_a.bin");
    let b = sixteen_bytes("rand_b.bin");
    let fa = flip_random_bits(&a, 8, 42, 4).expect("flip a");
    let fb = flip_random_bits(&b, 8, 42, 4).expect("flip b");
    assert_eq!(fa, fb, "same seed, same flips");
    assert!(fa.iter().all(|&(off, _)| off >= 4));
    assert_eq!(
        std::fs::read(&a).expect("read"),
        std::fs::read(&b).expect("read")
    );
    assert_eq!(&std::fs::read(&a).expect("read")[..4], b"0123");
}

#[test]
fn truncate_append_overwrite_do_what_they_say() {
    let path = sixteen_bytes("edit.bin");
    truncate_tail(&path, 6).expect("truncate");
    assert_eq!(std::fs::read(&path).expect("read"), b"0123456789");
    append_bytes(&path, b"XY").expect("append");
    assert_eq!(std::fs::read(&path).expect("read"), b"0123456789XY");
    overwrite_bytes(&path, 1, b"..").expect("overwrite");
    assert_eq!(std::fs::read(&path).expect("read"), b"0..3456789XY");
}

#[test]
fn truncating_more_than_the_file_empties_it() {
    let path = sixteen_bytes("over_truncate.bin");
    truncate_tail(&path, 1000).expect("truncate");
    assert!(std::fs::read(&path).expect("read").is_empty());
}
