//! Backend-namespace isolation through the persistent pulse store and
//! the shared pulse table: a calibration-snapshot drift must rotate the
//! store *namespace* (not the file), two backends sharing one store
//! path must never serve each other's pulses, and an abandoned
//! namespace must be LFU-evictable under a byte budget while the live
//! one stays warm. On the legacy grid and on a namespaced backend alike,
//! concurrent compiles pooled on a store-backed table must leave a
//! clean store that a second table serves without generating a pulse.

use paqoc::backend::{Backend, HEAVY_HEX_DEFAULT_CAL};
use paqoc::core::{try_compile, try_compile_batch, CompilationResult, PipelineOptions};
use paqoc::device::{decode_fingerprint, is_namespaced, AnalyticModel, Device, FingerprintKind};
use paqoc::exec::{AnalyticFactory, PulseSourceFactory, SharedPulseTable};
use paqoc::store::{PulseStore, StoreOptions};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

fn tmp_db(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paqoc-backend-iso-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(format!("{}.lock", path.display()));
    path
}

/// A drifted copy of the shipped heavy-hex snapshot: one T1 changed, as
/// a recalibration would.
fn drifted_snapshot() -> String {
    let drifted = HEAVY_HEX_DEFAULT_CAL.replacen("\"t1_us\": 1", "\"t1_us\": 9", 1);
    assert_ne!(drifted, HEAVY_HEX_DEFAULT_CAL, "drift must change the text");
    drifted
}

fn test_circuit() -> paqoc::circuit::Circuit {
    (paqoc::workloads::benchmark("mod5d2_64")
        .expect("table-I benchmark")
        .build)()
}

/// Calibration drift rotates the namespace, not the file: after a
/// recalibration, the same circuit compiles cold (zero cross-hits into
/// the stale snapshot's pulses) while the old snapshot's namespace
/// remains intact and warm in the same store file.
#[test]
fn calibration_drift_rotates_namespace_without_clobbering() {
    let db = tmp_db("drift.pqps");
    let circuit = test_circuit();

    let backend_a = Backend::heavy_hex_from_snapshot_str(HEAVY_HEX_DEFAULT_CAL).expect("shipped");
    let backend_b = Backend::heavy_hex_from_snapshot_str(&drifted_snapshot()).expect("drifted");
    let dev_a = backend_a.device();
    let dev_b = backend_b.device();
    assert_ne!(
        dev_a.fingerprint(),
        dev_b.fingerprint(),
        "a drifted snapshot must rotate the fingerprint"
    );
    let (
        FingerprintKind::Namespaced {
            ns_id: na,
            cal_id: ca,
        },
        FingerprintKind::Namespaced {
            ns_id: nb,
            cal_id: cb,
        },
    ) = (
        decode_fingerprint(dev_a.fingerprint()),
        decode_fingerprint(dev_b.fingerprint()),
    )
    else {
        panic!("heavy-hex fingerprints must be namespaced");
    };
    assert_eq!(na, nb, "same backend family, same namespace id");
    assert_ne!(ca, cb, "drift must rotate the calibration id");

    let opts = PipelineOptions {
        pulse_db: Some(db.clone()),
        ..PipelineOptions::m_inf()
    };

    // Cold A, then warm A: the store works for snapshot A.
    let mut source = AnalyticModel::new();
    let cold_a = try_compile(&circuit, &dev_a, &mut source, &opts).expect("cold A");
    assert!(cold_a.stats.pulses_generated > 0);
    let warm_a = try_compile(&circuit, &dev_a, &mut source, &opts).expect("warm A");
    assert_eq!(warm_a.stats.pulses_generated, 0, "A must be warm");
    assert!(warm_a.stats.store_hits > 0);

    // Cold B against the SAME file: zero cross-hits from A's namespace.
    let cold_b = try_compile(&circuit, &dev_b, &mut source, &opts).expect("cold B");
    assert!(
        cold_b.stats.pulses_generated > 0,
        "drifted snapshot must not reuse stale pulses"
    );
    assert_eq!(
        cold_b.stats.store_hits, 0,
        "zero cross-namespace store hits on the cold drifted pass"
    );

    // A is STILL warm afterwards: B's open cohabited, it did not rotate
    // the file out from under A.
    let warm_a2 = try_compile(&circuit, &dev_a, &mut source, &opts).expect("warm A after B");
    assert_eq!(
        warm_a2.stats.pulses_generated, 0,
        "cohabitation must not clobber the old namespace"
    );
    // And B is warm in the same file too.
    let warm_b = try_compile(&circuit, &dev_b, &mut source, &opts).expect("warm B");
    assert_eq!(warm_b.stats.pulses_generated, 0);
    assert!(warm_b.stats.store_hits > 0);
}

/// An abandoned namespace is reclaimable: under a `max_bytes` budget,
/// LFU eviction drops the stale snapshot's records (fewer hits) while
/// the live snapshot's stay resident and warm.
#[test]
fn stale_namespace_is_lfu_evicted_under_byte_budget() {
    let db = tmp_db("evict.pqps");
    let circuit = test_circuit();
    let backend_a = Backend::heavy_hex_from_snapshot_str(HEAVY_HEX_DEFAULT_CAL).expect("shipped");
    let backend_b = Backend::heavy_hex_from_snapshot_str(&drifted_snapshot()).expect("drifted");
    let dev_a = backend_a.device();
    let dev_b = backend_b.device();
    let opts = PipelineOptions {
        pulse_db: Some(db.clone()),
        ..PipelineOptions::m_inf()
    };
    let mut source = AnalyticModel::new();
    try_compile(&circuit, &dev_a, &mut source, &opts).expect("cold A");
    try_compile(&circuit, &dev_b, &mut source, &opts).expect("cold B");

    // Drive eviction directly: make B's records clearly hotter, then
    // maintain under a budget that cannot hold both namespaces.
    let prefix_a = format!("{:016x}/", dev_a.fingerprint());
    let prefix_b = format!("{:016x}/", dev_b.fingerprint());
    let (budget, count_a, count_b) = {
        let mut store = PulseStore::open_with(&db, dev_b.fingerprint(), StoreOptions::default())
            .expect("open for hit-warming");
        let a_count = store
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix_a))
            .count();
        let b_keys: Vec<String> = store
            .iter()
            .map(|(k, _)| k.to_string())
            .filter(|k| k.starts_with(&prefix_b))
            .collect();
        assert!(a_count > 0, "A's namespace must be populated");
        assert!(!b_keys.is_empty(), "B's namespace must be populated");
        for _ in 0..10 {
            for k in &b_keys {
                store.hit(k).expect("hit B record");
            }
        }
        store.sync().expect("sync hit counts");
        // Each namespace is roughly half the live bytes; 60% forces a
        // chunk of the cold half out while the hot one fits whole.
        (store.live_bytes() * 6 / 10, a_count, b_keys.len())
    };
    {
        let mut store = PulseStore::open_with(
            &db,
            dev_b.fingerprint(),
            StoreOptions::with_max_bytes(budget),
        )
        .expect("reopen with byte budget");
        let report = store.maintain().expect("maintain");
        assert!(report.evicted > 0, "the budget must force evictions");
        let (mut live_a, mut live_b) = (0usize, 0usize);
        for (k, _) in store.iter() {
            if k.starts_with(&prefix_a) {
                live_a += 1;
            } else if k.starts_with(&prefix_b) {
                live_b += 1;
            }
        }
        // LFU order is the isolation property: every eviction came out
        // of the cold namespace; the hot one survived whole.
        assert!(
            live_a < count_a,
            "evictions must reclaim the cold namespace ({live_a} of {count_a} left)"
        );
        assert_eq!(
            live_b, count_b,
            "the hot namespace must survive eviction untouched"
        );
        store.sync().expect("sync evictions");
    }

    // Behavioral check through the pipeline: A is cold again, B warm.
    let recold_a = try_compile(&circuit, &dev_a, &mut source, &opts).expect("re-cold A");
    assert!(
        recold_a.stats.pulses_generated > 0,
        "evicted namespace must compile cold"
    );
    let warm_b = try_compile(&circuit, &dev_b, &mut source, &opts).expect("warm B");
    assert_eq!(warm_b.stats.pulses_generated, 0, "B must still be warm");
}

/// Two different backends batched through ONE `SharedPulseTable` never
/// serve each other's pulses: composite keys are fingerprint-prefixed,
/// so each backend's second pass warm-hits only its own entries.
#[test]
fn shared_table_isolates_backends_in_batch_mode() {
    let circuit = test_circuit();
    let dev_hh = Backend::heavy_hex().device();
    let dev_tc = Backend::tunable_coupler(0.5).device();
    let table = Arc::new(SharedPulseTable::new());
    let opts = PipelineOptions {
        shared_table: Some(table.clone()),
        ..PipelineOptions::m_inf()
    };
    let factory: Arc<dyn PulseSourceFactory> = Arc::new(AnalyticFactory);

    let cold_hh =
        try_compile_batch(&circuit, &dev_hh, factory.clone(), &opts).expect("cold heavy-hex");
    assert!(cold_hh.stats.pulses_generated > 0);
    let after_hh = table.len();
    assert!(after_hh > 0, "heavy-hex pulses land in the shared table");

    // The other backend compiles the SAME circuit against the SAME
    // table and still has to generate everything itself.
    let cold_tc =
        try_compile_batch(&circuit, &dev_tc, factory.clone(), &opts).expect("cold tunable-coupler");
    assert!(
        cold_tc.stats.pulses_generated > 0,
        "tunable-coupler must not be served heavy-hex pulses"
    );
    assert!(
        table.len() > after_hh,
        "tunable-coupler entries are additional, not shared"
    );

    // Both warm-hit their own namespaces on rerun.
    let warm_hh = try_compile_batch(&circuit, &dev_hh, factory.clone(), &opts).expect("warm hh");
    assert_eq!(warm_hh.stats.pulses_generated, 0);
    let warm_tc = try_compile_batch(&circuit, &dev_tc, factory, &opts).expect("warm tc");
    assert_eq!(warm_tc.stats.pulses_generated, 0);
}

/// Compiles three Table-I programs concurrently on scoped threads
/// started together, pooled on one fresh store-backed
/// `SharedPulseTable` over `db`, and drops the table (releasing the
/// store) before returning.
fn compile_pooled_on_store(device: &Device, db: &Path) -> Vec<(&'static str, CompilationResult)> {
    let opts = PipelineOptions {
        pulse_db: Some(db.to_path_buf()),
        shared_table: Some(Arc::new(SharedPulseTable::new())),
        threads: Some(1),
        ..PipelineOptions::m_inf()
    };
    let programs = ["mod5d2_64", "rd32_270", "bv"];
    let start = Barrier::new(programs.len());
    std::thread::scope(|s| {
        let workers: Vec<_> = programs
            .into_iter()
            .map(|name| {
                let (opts, start) = (&opts, &start);
                s.spawn(move || {
                    start.wait();
                    let circuit = (paqoc::workloads::benchmark(name).expect(name).build)();
                    let factory: Arc<dyn PulseSourceFactory> = Arc::new(AnalyticFactory);
                    let result = try_compile_batch(&circuit, device, factory, opts)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    (name, result)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("compile thread"))
            .collect()
    })
}

/// Cold then warm against one store file, each pass on a new table: the
/// warm pass generates nothing and reads the store, and the file stays
/// clean. Heavy-hex runs the same contract through its namespaced
/// fingerprint.
#[test]
fn pooled_store_goes_cold_to_warm_on_grid_and_heavy_hex() {
    for backend in ["transmon-grid", "heavy-hex"] {
        let device = paqoc::backend::resolve(backend)
            .expect("registered")
            .device();
        assert_eq!(
            is_namespaced(device.fingerprint()),
            backend == "heavy-hex",
            "{backend}: only snapshot backends carry a namespaced fingerprint"
        );
        let db = tmp_db(&format!("cold-warm-{backend}.pqps"));

        let cold = compile_pooled_on_store(&device, &db);
        assert!(
            cold.iter().any(|(_, r)| r.stats.pulses_generated > 0),
            "{backend}: the cold pass generated nothing"
        );
        let ins = paqoc::store::inspect(&db).expect("readable store");
        assert!(ins.clean(), "{backend}: store after the cold pass: {ins:?}");

        let warm = compile_pooled_on_store(&device, &db);
        for (program, r) in &warm {
            assert_eq!(
                r.stats.pulses_generated, 0,
                "{backend}/{program}: the warm pass generated pulses"
            );
        }
        // Per-program store hits depend on the schedule: a program may be
        // served from a shard a sibling compile already filled.
        let store_hits: usize = warm.iter().map(|(_, r)| r.stats.store_hits).sum();
        assert!(
            store_hits >= 1,
            "{backend}: the warm pass never read the store"
        );
        let ins = paqoc::store::inspect(&db).expect("readable store");
        assert!(ins.clean(), "{backend}: store after the warm pass: {ins:?}");
    }
}
