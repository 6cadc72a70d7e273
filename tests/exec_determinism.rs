//! The executor's determinism contract, end to end: compiling with
//! `threads = 1` and `threads = 8` must produce byte-identical pulse
//! tables and identical results for every Table-I benchmark, the
//! `threads = 1` results must match the outputs pinned in
//! `tests/data/table1_minf.txt`, and compiles running at once on
//! separate threads must match compiles run one at a time.
//!
//! This is the property that makes the parallel executor safe to turn
//! on by default — parallelism is an implementation detail, never
//! observable in the output. It holds because each batch job runs on a
//! fresh source seeded by its composite key (`paqoc::exec::job_seed`),
//! with no cross-thread warm starting, so every pulse is a pure
//! function of `(key, group, device, options)` regardless of schedule.

use paqoc::core::{try_compile_batch, CompilationResult, PipelineOptions};
use paqoc::device::Device;
use paqoc::exec::{AnalyticFactory, PulseSourceFactory};
use paqoc::workloads::all_benchmarks;
use std::sync::{Arc, Barrier};

/// Pinned outputs of every Table-I program at M=inf: a header row of
/// column names, then one row per program.
const TABLE1_MINF: &str = include_str!("data/table1_minf.txt");

fn compile_with_threads(name: &str, threads: usize) -> CompilationResult {
    let device = Device::grid5x5();
    let circuit = (all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect(name)
        .build)();
    let opts = PipelineOptions {
        threads: Some(threads),
        ..PipelineOptions::m_inf()
    };
    let factory: Arc<dyn PulseSourceFactory> = Arc::new(AnalyticFactory);
    try_compile_batch(&circuit, &device, factory, &opts).expect(name)
}

/// Every stable (non-wall-clock) field of the result must match, and
/// the pulse-table dump — sorted `(composite key, estimate)` pairs —
/// must be equal entry for entry, f64 bits included (`PulseEstimate`'s
/// `PartialEq` compares the raw floats).
fn assert_identical(name: &str, a: &CompilationResult, b: &CompilationResult) {
    assert_eq!(a.latency_dt, b.latency_dt, "{name}: latency_dt");
    assert_eq!(a.latency_ns, b.latency_ns, "{name}: latency_ns bits");
    assert_eq!(a.esp, b.esp, "{name}: esp bits");
    assert_eq!(a.stats, b.stats, "{name}: compile stats");
    assert_eq!(a.report, b.report, "{name}: generator report");
    assert_eq!(a.num_groups(), b.num_groups(), "{name}: group count");
    assert_eq!(a.physical.len(), b.physical.len(), "{name}: physical gates");
    assert_eq!(a.partial, b.partial, "{name}: partial");
    assert_eq!(
        a.degradations.len(),
        b.degradations.len(),
        "{name}: degradations"
    );
    assert_eq!(
        a.pulse_table.len(),
        b.pulse_table.len(),
        "{name}: pulse table size"
    );
    for ((ka, ea), (kb, eb)) in a.pulse_table.iter().zip(&b.pulse_table) {
        assert_eq!(ka, kb, "{name}: pulse table keys diverge");
        assert_eq!(ea, eb, "{name}: pulse for {ka} diverges");
    }
}

/// The pinned count columns of a result, by their names in
/// `tests/data/table1_minf.txt`.
fn count_columns(r: &CompilationResult) -> [(&'static str, usize); 11] {
    [
        ("latency_dt", r.latency_dt as usize),
        ("physical_gates", r.physical.len()),
        ("num_groups", r.num_groups()),
        ("pulses_generated", r.stats.pulses_generated),
        ("cache_hits", r.stats.cache_hits),
        ("store_hits", r.stats.store_hits),
        ("search_iterations", r.report.iterations),
        ("preprocess_merges", r.report.preprocess_merges),
        ("criticality_merges", r.report.criticality_merges),
        ("rejected_merges", r.report.rejected_merges),
        ("degradations", r.degradations.len()),
    ]
}

/// The pinned float columns of a result, by their names in
/// `tests/data/table1_minf.txt`.
fn float_columns(r: &CompilationResult) -> [(&'static str, f64); 4] {
    let lookups = r.stats.cache_hits + r.stats.pulses_generated;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        r.stats.cache_hits as f64 / lookups as f64
    };
    [
        ("esp", r.esp),
        ("latency_ns", r.latency_ns),
        ("cost_units", r.stats.cost_units),
        ("pulse_table_hit_rate", hit_rate),
    ]
}

/// The pinned rows, each as `(column name, cell)` pairs.
fn pinned_rows() -> Vec<Vec<(&'static str, &'static str)>> {
    let mut lines = TABLE1_MINF
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty());
    let header: Vec<&str> = lines
        .next()
        .expect("header row")
        .split_whitespace()
        .collect();
    lines
        .map(|l| header.iter().copied().zip(l.split_whitespace()).collect())
        .collect()
}

/// Counts must equal the pinned row exactly and floats bit for bit
/// (the file holds shortest round-trip decimals).
fn assert_matches_pinned(row: &[(&str, &str)], r: &CompilationResult) {
    let cell = |column: &str| {
        row.iter()
            .find(|(c, _)| *c == column)
            .unwrap_or_else(|| panic!("no pinned column {column}"))
            .1
    };
    let name = cell("name");
    for (column, got) in count_columns(r) {
        let want: usize = cell(column).parse().expect(column);
        assert_eq!(got, want, "{name}: {column}");
    }
    for (column, got) in float_columns(r) {
        let want: f64 = cell(column).parse().expect(column);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{name}: {column} {got} vs pinned {want}"
        );
    }
}

#[test]
fn all_benchmarks_are_bit_identical_across_thread_counts() {
    let pinned = pinned_rows();
    let benchmarks = all_benchmarks();
    assert_eq!(pinned.len(), benchmarks.len(), "one pinned row per program");
    for b in benchmarks {
        let sequential = compile_with_threads(b.name, 1);
        let parallel = compile_with_threads(b.name, 8);
        assert!(
            !sequential.pulse_table.is_empty(),
            "{}: empty pulse table",
            b.name
        );
        assert_identical(b.name, &sequential, &parallel);
        let row = pinned
            .iter()
            .find(|row| row.contains(&("name", b.name)))
            .unwrap_or_else(|| panic!("{}: no pinned row", b.name));
        assert_matches_pinned(row, &sequential);
    }
}

/// Four compiles at once, each on a private cache with a one-thread
/// executor, must match the same compiles run one at a time: sharing
/// the process (telemetry, allocator, scheduler) never reaches a pulse.
#[test]
fn concurrent_compiles_match_one_at_a_time_compiles() {
    const PROGRAMS: [&str; 3] = ["mod5d2_64", "rd32_270", "bv"];
    let alone: Vec<CompilationResult> = PROGRAMS
        .iter()
        .map(|name| compile_with_threads(name, 1))
        .collect();
    // Thread 3 compiles the first program again, so two compiles of one
    // program also overlap. The barrier starts all four together.
    let start = Barrier::new(4);
    let together: Vec<CompilationResult> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    compile_with_threads(PROGRAMS[i % PROGRAMS.len()], 1)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("compile thread"))
            .collect()
    });
    for (i, concurrent) in together.iter().enumerate() {
        let k = i % PROGRAMS.len();
        assert_identical(PROGRAMS[k], &alone[k], concurrent);
    }
}

#[test]
fn repeated_parallel_compiles_are_self_consistent() {
    // Same thread count twice: catches nondeterminism that a 1-vs-8
    // comparison could mask if both runs drifted the same way.
    let first = compile_with_threads("qaoa", 8);
    let second = compile_with_threads("qaoa", 8);
    assert_identical("qaoa", &first, &second);
}

/// The flight recorder samples gauges and process resources on its own
/// thread while batches run; with it live (and telemetry enabled, so
/// the workers check their generations for stalls too) the determinism
/// contract must be untouched — observability writes to the journal,
/// never to pulses.
#[test]
fn determinism_holds_with_flight_recorder_running() {
    paqoc::telemetry::set_enabled(true);
    let recorder = paqoc::exec::FlightRecorder::start(std::time::Duration::from_millis(1));
    assert!(recorder.is_running());

    let sequential = compile_with_threads("qaoa", 1);
    let parallel = compile_with_threads("qaoa", 8);
    assert_identical("qaoa", &sequential, &parallel);

    // The recorder must actually have been sampling during the runs.
    assert!(recorder.samples() > 0, "recorder never sampled");
    drop(recorder);
}
