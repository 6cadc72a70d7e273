//! One pulse cache for every compile path: the sequential `try_compile`
//! resolves its pulses through `PipelineOptions::shared_table` exactly
//! as `try_compile_batch` does, so sequential and batch compiles pooled
//! on one cache share its pulses, its store handle and its quarantine.

use paqoc::core::{try_compile, try_compile_batch, PipelineOptions};
use paqoc::device::{AnalyticModel, Device, FaultConfig};
use paqoc::exec::{
    AnalyticFactory, Claim, FaultyAnalyticFactory, PulseSourceFactory, SharedPulseTable,
};
use paqoc::store::{PulseStore, StoreOptions};
use paqoc::workloads::benchmark;
use std::sync::Arc;

fn circuit(name: &str) -> paqoc::circuit::Circuit {
    (benchmark(name).expect(name).build)()
}

#[test]
fn pooled_sequential_compiles_generate_each_pulse_once() {
    let device = Device::grid5x5();
    let program = circuit("mod5d2_64");
    let cache = Arc::new(SharedPulseTable::new());
    let opts = PipelineOptions {
        shared_table: Some(cache.clone()),
        ..PipelineOptions::m_inf()
    };
    let first = try_compile(&program, &device, &mut AnalyticModel::new(), &opts).expect("first");
    let second = try_compile(&program, &device, &mut AnalyticModel::new(), &opts).expect("second");
    assert!(first.stats.pulses_generated > 0);
    assert_eq!(
        second.stats.pulses_generated, 0,
        "the second compile regenerated pulses the first left in the cache"
    );
    assert_eq!(
        second.stats.cache_hits,
        first.stats.pulses_generated + first.stats.cache_hits,
        "every lookup of the second compile is a hit"
    );
    assert_eq!(second.latency_dt, first.latency_dt);
    assert_eq!(second.pulse_table, first.pulse_table);
    assert_eq!(cache.snapshot(), first.pulse_table);
}

#[test]
fn sequential_compile_attaches_its_store_to_the_shared_cache() {
    let dir = std::env::temp_dir().join(format!("paqoc-shared-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let db = dir.join("attach.pqps");
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(paqoc::store::lock_path(&db));

    let device = Device::grid5x5();
    let cache = Arc::new(SharedPulseTable::new());
    let opts = PipelineOptions {
        pulse_db: Some(db.clone()),
        shared_table: Some(cache.clone()),
        ..PipelineOptions::m0()
    };
    let r = try_compile(&circuit("bv"), &device, &mut AnalyticModel::new(), &opts).expect("bv");
    assert!(cache.has_store(), "the store belongs to the shared cache");
    assert!(
        r.degradations.is_empty(),
        "the compile opened the store as its writer: {:?}",
        r.degradations
    );
    let reader = PulseStore::open_with(
        &db,
        device.fingerprint(),
        StoreOptions {
            read_only: true,
            ..StoreOptions::default()
        },
    )
    .expect("reopen the store read-only");
    assert_eq!(
        reader.len(),
        r.stats.pulses_generated,
        "the end-of-compile sync persisted every generated pulse"
    );
    drop(reader);
    drop(cache);
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(paqoc::store::lock_path(&db));
}

/// A key another compile holds in flight for the whole batch compile:
/// the prefetch cannot resolve it, so the attach sweep generates it and
/// publishes it, and the compile reads the same as one on a private
/// table.
#[test]
fn a_key_held_in_flight_elsewhere_compiles_as_on_a_private_table() {
    let device = Device::grid5x5();
    let program = circuit("bv");
    let factory: Arc<dyn PulseSourceFactory> = Arc::new(AnalyticFactory);
    let private = try_compile_batch(&program, &device, factory.clone(), &PipelineOptions::m0())
        .expect("private");
    let (held, _) = private.pulse_table.first().expect("bv resolves pulses");
    for threads in [1, 2] {
        let cache = Arc::new(SharedPulseTable::new());
        assert_eq!(cache.claim(held), Claim::Claimed);
        let opts = PipelineOptions {
            threads: Some(threads),
            shared_table: Some(cache.clone()),
            ..PipelineOptions::m0()
        };
        let pooled = try_compile_batch(&program, &device, factory.clone(), &opts).expect("pooled");
        assert_eq!(pooled.latency_dt, private.latency_dt, "threads {threads}");
        assert_eq!(
            pooled.esp.to_bits(),
            private.esp.to_bits(),
            "threads {threads}"
        );
        assert_eq!(
            pooled.num_groups(),
            private.num_groups(),
            "threads {threads}"
        );
        assert_eq!(
            pooled.stats.pulses_generated, private.stats.pulses_generated,
            "threads {threads}"
        );
        assert_eq!(
            pooled.stats.cache_hits, private.stats.cache_hits,
            "threads {threads}"
        );
        assert!(
            cache.get(held).is_some(),
            "the sweep published the held key"
        );
    }
}

#[test]
fn key_quarantined_by_a_batch_worker_is_never_cached_by_a_later_sequential_compile() {
    let device = Device::grid5x5();
    let program = circuit("bv");
    let cache = Arc::new(SharedPulseTable::new());
    let opts = PipelineOptions {
        threads: Some(2),
        shared_table: Some(cache.clone()),
        ..PipelineOptions::m0()
    };
    // Every generation panics: each key the batch compile touches ends
    // up quarantined in the cache, and nothing is cached.
    let storm: Arc<dyn PulseSourceFactory> =
        Arc::new(FaultyAnalyticFactory::new(FaultConfig::panic_storm(3, 1.0)));
    let stormy = try_compile_batch(&program, &device, storm, &opts).expect("storm degrades");
    assert!(stormy.stats.source_panics > 0);
    assert!(cache.is_empty());

    // A clean source regenerates the quarantined keys but caches none.
    let later = try_compile(&program, &device, &mut AnalyticModel::new(), &opts).expect("clean");
    assert!(later.degradations.is_empty(), "{:?}", later.degradations);
    assert!(later.stats.pulses_generated > 0);
    assert_eq!(
        later.stats.cache_hits, 0,
        "a quarantined key was served from a cache"
    );
    assert!(later.pulse_table.is_empty());
    assert!(
        cache.is_empty(),
        "a quarantined key entered the shared cache"
    );
}
