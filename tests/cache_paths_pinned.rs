//! Pinned outputs of every pulse-cache path.
//!
//! Compiles the serve quick corpus at M=0 and M=inf along each way a
//! compile can resolve its pulses — sequential with a clean, panicking
//! or non-converging source; batch at one and two threads with a clean
//! or panicking factory; sequential and pooled-batch compiles against a
//! persistent store, cold then warm — and compares one line per
//! (path, config, program) with `tests/data/cache_paths_pinned.txt`.
//!
//! Each line pins the deterministic outputs bit for bit: the schedule
//! latency, the ESP bits, the group count, every `CompileStats` field
//! (`cost_units` by bits), the generator report, `partial`, the
//! degradations, and an FNV-1a digest of the sorted pulse table. A
//! refactor of the cache must leave every line unchanged. When a change
//! is meant to move an output, the failure message prints the complete
//! new dump to paste into the data file.

use paqoc::core::{
    try_compile, try_compile_batch, CompilationResult, Degradation, PipelineOptions,
};
use paqoc::device::{AnalyticModel, Device, FaultConfig, FaultySource, PulseSource};
use paqoc::exec::{AnalyticFactory, FaultyAnalyticFactory, PulseSourceFactory, SharedPulseTable};
use paqoc::serve::client::QUICK_CORPUS;
use paqoc::workloads::benchmark;
use std::path::PathBuf;
use std::sync::Arc;

const PINNED: &str = include_str!("data/cache_paths_pinned.txt");

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn table_digest(r: &CompilationResult) -> u64 {
    let mut h = Fnv::new();
    for (key, est) in &r.pulse_table {
        h.bytes(key.as_bytes());
        h.bytes(&[0]);
        h.u64(est.latency_ns.to_bits());
        h.u64(est.latency_dt);
        h.u64(est.fidelity.to_bits());
        h.u64(est.cost_units.to_bits());
    }
    h.0
}

fn degradation_kind(d: &Degradation) -> &'static str {
    match d {
        Degradation::MergeRolledBack { .. } => "rollback",
        Degradation::EstimatorFallback { .. } => "estimator",
        Degradation::DeadlineHit { .. } => "deadline",
        Degradation::SourcePanic { .. } => "panic",
        Degradation::StoreUnavailable { .. } => "store-unavailable",
        Degradation::StoreReadOnly { .. } => "store-read-only",
    }
}

fn line(path: &str, config: &str, program: &str, r: &CompilationResult) -> String {
    let s = r.stats;
    let g = r.report;
    let mut degradations = Fnv::new();
    for d in &r.degradations {
        degradations.bytes(d.to_string().as_bytes());
        degradations.bytes(&[0]);
    }
    let kinds: Vec<&str> = r.degradations.iter().map(degradation_kind).collect();
    format!(
        "{path} {config} {program} dt={} esp={:016x} groups={} gen={} hits={} store_hits={} \
         cost={:016x} retries={} panics={} report={}/{}/{}/{}/{}/{} partial={} \
         degradations=[{}]:{:016x} table={}:{:016x}",
        r.latency_dt,
        r.esp.to_bits(),
        r.num_groups(),
        s.pulses_generated,
        s.cache_hits,
        s.store_hits,
        s.cost_units.to_bits(),
        s.retries,
        s.source_panics,
        g.preprocess_merges,
        g.criticality_merges,
        g.rejected_merges,
        g.iterations,
        g.fallbacks,
        g.estimator_fallbacks,
        r.partial,
        kinds.join(","),
        degradations.0,
        r.pulse_table.len(),
        table_digest(r),
    )
}

fn configs() -> [(&'static str, PipelineOptions); 2] {
    [
        ("m0", PipelineOptions::m0()),
        ("minf", PipelineOptions::m_inf()),
    ]
}

fn tmp_db(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paqoc-cache-pinned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(paqoc::store::lock_path(&path));
    path
}

/// Sequential compiles of the corpus, each with a fresh source from
/// `source`.
fn sequential(
    out: &mut Vec<String>,
    path: &str,
    opts: impl Fn(&PipelineOptions) -> PipelineOptions,
    source: impl Fn() -> Box<dyn PulseSource>,
) {
    let device = Device::grid5x5();
    for (config, base) in configs() {
        let opts = opts(&base);
        for program in QUICK_CORPUS {
            let circuit = (benchmark(program).expect(program).build)();
            let r = try_compile(&circuit, &device, source().as_mut(), &opts)
                .unwrap_or_else(|e| panic!("{path} {config} {program}: {e}"));
            out.push(line(path, config, program, &r));
        }
    }
}

/// Batch compiles of the corpus through `factory`.
fn batch(
    out: &mut Vec<String>,
    path: &str,
    opts: impl Fn(&PipelineOptions) -> PipelineOptions,
    factory: Arc<dyn PulseSourceFactory>,
) {
    let device = Device::grid5x5();
    for (config, base) in configs() {
        let opts = opts(&base);
        for program in QUICK_CORPUS {
            let circuit = (benchmark(program).expect(program).build)();
            let r = try_compile_batch(&circuit, &device, factory.clone(), &opts)
                .unwrap_or_else(|e| panic!("{path} {config} {program}: {e}"));
            out.push(line(path, config, program, &r));
        }
    }
}

fn dump() -> Vec<String> {
    let mut out = Vec::new();
    let analytic = || Box::new(AnalyticModel::new()) as Box<dyn PulseSource>;
    sequential(&mut out, "seq", Clone::clone, analytic);
    sequential(&mut out, "seq-panic", Clone::clone, || {
        Box::new(FaultySource::new(
            AnalyticModel::new(),
            FaultConfig::panic_storm(11, 0.2),
        ))
    });
    sequential(&mut out, "seq-converge", Clone::clone, || {
        Box::new(FaultySource::new(
            AnalyticModel::new(),
            FaultConfig::convergence_storm(5, 0.5),
        ))
    });
    let panicking: Arc<dyn PulseSourceFactory> = Arc::new(FaultyAnalyticFactory::new(
        FaultConfig::panic_storm(11, 0.2),
    ));
    for threads in [1, 2] {
        let with_threads = |base: &PipelineOptions| PipelineOptions {
            threads: Some(threads),
            ..base.clone()
        };
        batch(
            &mut out,
            &format!("batch-t{threads}"),
            with_threads,
            Arc::new(AnalyticFactory),
        );
        batch(
            &mut out,
            &format!("batch-panic-t{threads}"),
            with_threads,
            panicking.clone(),
        );
    }

    // Sequential compiles against one store per config: later programs
    // of the cold pass already read what earlier ones wrote.
    let seq_dbs = [tmp_db("seq-m0.pqps"), tmp_db("seq-minf.pqps")];
    for pass in ["cold", "warm"] {
        for ((config, base), db) in configs().into_iter().zip(&seq_dbs) {
            let opts = PipelineOptions {
                pulse_db: Some(db.clone()),
                ..base
            };
            let device = Device::grid5x5();
            for program in QUICK_CORPUS {
                let circuit = (benchmark(program).expect(program).build)();
                let r = try_compile(&circuit, &device, &mut AnalyticModel::new(), &opts)
                    .unwrap_or_else(|e| panic!("seq-store-{pass} {config} {program}: {e}"));
                out.push(line(&format!("seq-store-{pass}"), config, program, &r));
            }
        }
    }

    // Batch compiles pooled on one shared table per pass and config;
    // the warm pass pools on a new table over the same store.
    let pool_dbs = [tmp_db("pool-m0.pqps"), tmp_db("pool-minf.pqps")];
    for pass in ["cold", "warm"] {
        for ((config, base), db) in configs().into_iter().zip(&pool_dbs) {
            let opts = PipelineOptions {
                pulse_db: Some(db.clone()),
                threads: Some(1),
                shared_table: Some(Arc::new(SharedPulseTable::new())),
                ..base
            };
            let device = Device::grid5x5();
            for program in QUICK_CORPUS {
                let circuit = (benchmark(program).expect(program).build)();
                let r = try_compile_batch(&circuit, &device, Arc::new(AnalyticFactory), &opts)
                    .unwrap_or_else(|e| panic!("pool-store-{pass} {config} {program}: {e}"));
                out.push(line(&format!("pool-store-{pass}"), config, program, &r));
            }
        }
    }
    for db in seq_dbs.iter().chain(&pool_dbs) {
        let _ = std::fs::remove_file(db);
        let _ = std::fs::remove_file(paqoc::store::lock_path(db));
    }
    out
}

#[test]
fn every_cache_path_matches_its_pinned_outputs() {
    let actual = dump();
    let pinned: Vec<&str> = PINNED.lines().collect();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(&pinned)
        .filter(|(a, p)| a.as_str() != **p)
        .map(|(a, p)| format!("  pinned: {p}\n  actual: {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && actual.len() == pinned.len(),
        "{} of {} lines differ ({} pinned):\n{}\n\ncomplete dump:\n{}",
        mismatches.len(),
        actual.len(),
        pinned.len(),
        mismatches.join("\n"),
        actual.join("\n"),
    );
}

/// The pinned set is only a guard if it reaches the rare arms: caught
/// panics, retries, store hits, rollbacks and estimator fallbacks.
#[test]
fn pinned_outputs_cover_every_ladder_rung() {
    let field = |name: &str| {
        PINNED.lines().any(|l| {
            l.split(' ')
                .find_map(|f| f.strip_prefix(name))
                .is_some_and(|v| v != "0")
        })
    };
    assert!(field("panics="), "no pinned source panic");
    assert!(field("retries="), "no pinned retry");
    assert!(field("store_hits="), "no pinned store hit");
    assert!(PINNED.contains("rollback"), "no pinned MergeRolledBack");
    assert!(PINNED.contains("estimator"), "no pinned EstimatorFallback");
}
