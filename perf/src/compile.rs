//! The two compile workloads, both closed loops over cold compiles
//! (fresh pulse table and source each time, no store):
//!
//! * `table1-minf` — all 17 Table-I programs through the sequential
//!   `try_compile` with the analytic source, M=inf: every phase runs,
//!   and mining plus APA grouping do most of their work here.
//! * `grape-small` — `simon` and `bb84` through `try_compile_batch` with
//!   GRAPE on 2 executor threads, M=inf: the only workload whose wall
//!   time numeric kernels and executor parallelism decide.
//!
//! Each pass compiles every program once, in a seeded order. Passes
//! repeat until the measuring time is used up, so each program's time
//! is the median of several compiles.

use crate::oracle::{self, Columns, Expected};
use crate::speed::SpeedProbe;
use crate::timed::{SourceClock, Timed, TimedFactory};
use crate::workloads::{
    bless, medians_by, peak_rss_mb, put, quality_metrics, ratio, secs_since, set_tracing, shuffle,
    time_metrics, transmon_grid, Metrics, Report, RunConfig, Trace, Workload, SETUP_REPS,
};
use paqoc_circuit::{decompose, Basis, Circuit};
use paqoc_core::{
    try_compile, try_compile_batch, CompilationResult, CompileError, PipelineOptions,
};
use paqoc_device::{AnalyticModel, Device};
use paqoc_exec::PulseSourceFactory;
use paqoc_grape::GrapeFactory;
use paqoc_mapping::try_sabre_map;
use paqoc_math::Rng;
use paqoc_mining::{mine_frequent_subcircuits, select_apa_basis, MinerOptions};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Executor width of `grape-small`: one worker per core of the 2-core target.
const GRAPE_THREADS: usize = 2;

/// Share of `core.compile_ms` the timed phases must cover for a traced
/// `table1-minf` run to be valid.
const MIN_COVERAGE: f64 = 0.95;

/// What a compile workload runs.
struct Spec {
    programs: Vec<&'static str>,
    /// Compiled once per set-up repetition, untimed by the loop.
    warmup: &'static str,
    grape: bool,
}

impl Spec {
    fn of(workload: Workload) -> Spec {
        if workload == Workload::GrapeSmall {
            Spec {
                programs: vec!["simon", "bb84"],
                warmup: "bb84",
                grape: true,
            }
        } else {
            Spec {
                programs: paqoc_workloads::all_benchmarks()
                    .iter()
                    .map(|b| b.name)
                    .collect(),
                warmup: "qft",
                grape: false,
            }
        }
    }

    fn threads(&self) -> usize {
        if self.grape {
            GRAPE_THREADS
        } else {
            1
        }
    }

    /// The set-up: builds every circuit and compiles the warm-up program.
    fn set_up(
        &self,
        device: &Device,
        opts: &PipelineOptions,
    ) -> Result<Vec<(&'static str, Circuit)>, String> {
        let circuits: Vec<(&'static str, Circuit)> = self
            .programs
            .iter()
            .map(|&p| match paqoc_workloads::benchmark(p) {
                Some(b) => Ok((b.name, (b.build)())),
                None => Err(format!("no Table-I program named {p}")),
            })
            .collect::<Result<_, _>>()?;
        let (_, warm) = circuits
            .iter()
            .find(|(p, _)| *p == self.warmup)
            .ok_or("warm-up program is not in the workload")?;
        self.compile(warm, device, opts, None)
            .map_err(|e| format!("warm-up compile of {}: {e}", self.warmup))?;
        Ok(circuits)
    }

    /// One cold compile. With a clock, the pulse source is [`Timed`].
    fn compile(
        &self,
        circuit: &Circuit,
        device: &Device,
        opts: &PipelineOptions,
        clock: Option<&Arc<SourceClock>>,
    ) -> Result<CompilationResult, CompileError> {
        if self.grape {
            let factory: Arc<dyn PulseSourceFactory> = match clock {
                Some(c) => Arc::new(TimedFactory::new(GrapeFactory::fast(), c.clone())),
                None => Arc::new(GrapeFactory::fast()),
            };
            return try_compile_batch(circuit, device, factory, opts);
        }
        match clock {
            Some(c) => {
                let mut source = Timed::new(Box::new(AnalyticModel::new()), c.clone());
                try_compile(circuit, device, &mut source, opts)
            }
            None => try_compile(circuit, device, &mut AnalyticModel::new(), opts),
        }
    }
}

/// One compile of the timed loop.
struct Job {
    program: &'static str,
    /// Wall time of the compile, ms.
    wall_ms: f64,
    traced: bool,
    /// Stable output columns; `None` when the compile failed.
    columns: Option<Columns>,
    cache_hits: f64,
    pulses_generated: f64,
    store_hits: f64,
    problems: Vec<String>,
}

impl Job {
    fn new(
        program: &'static str,
        wall_ms: f64,
        traced: bool,
        result: Result<CompilationResult, CompileError>,
        max_qubits: usize,
    ) -> Job {
        let mut job = Job {
            program,
            wall_ms,
            traced,
            columns: None,
            cache_hits: 0.0,
            pulses_generated: 0.0,
            store_hits: 0.0,
            problems: Vec::new(),
        };
        match result {
            Ok(r) => {
                job.problems = oracle::check_result(program, &r, max_qubits);
                if r.partial || !r.degradations.is_empty() {
                    job.problems.push(format!(
                        "{program}: degraded result (partial: {}, {} concessions)",
                        r.partial,
                        r.degradations.len()
                    ));
                }
                job.cache_hits = r.stats.cache_hits as f64;
                job.pulses_generated = r.stats.pulses_generated as f64;
                job.store_hits = r.stats.store_hits as f64;
                job.columns = Some(oracle::columns_of(&r));
            }
            Err(e) => job.problems.push(format!("{program}: compile failed: {e}")),
        }
        job
    }
}

/// Layer times taken by calling each layer's public entry point with
/// the pipeline's options, outside the compile being timed.
#[derive(Default)]
struct Outside {
    lower_ms: f64,
    map_ms: f64,
    mine_ms: f64,
    swaps: f64,
    patterns: f64,
}

/// Runs lowering, mapping and mining as the pipeline does and returns
/// their times plus the mapped gate count.
fn outside_layers(
    circuit: &Circuit,
    device: &Device,
    opts: &PipelineOptions,
) -> Result<(Outside, usize), String> {
    let ms = |t: Instant| secs_since(t) * 1e3;
    let t = Instant::now();
    let lowered = decompose(circuit, Basis::Extended);
    let lower_ms = ms(t);
    let t = Instant::now();
    let mapped =
        try_sabre_map(&lowered, device.topology(), &opts.sabre).map_err(|e| e.to_string())?;
    let physical = decompose(&mapped.circuit, Basis::Extended);
    let map_ms = ms(t);
    let t = Instant::now();
    let miner = MinerOptions {
        max_qubits: opts.generator.max_qubits,
        ..opts.miner
    };
    let patterns = mine_frequent_subcircuits(&physical, &miner);
    std::hint::black_box(select_apa_basis(&patterns, opts.apa_budget, physical.len()));
    let mine_ms = ms(t);
    let outside = Outside {
        lower_ms,
        map_ms,
        mine_ms,
        swaps: mapped.swaps_inserted as f64,
        patterns: patterns.len() as f64,
    };
    Ok((outside, physical.len()))
}

/// Runs `table1-minf` or `grape-small`.
pub fn run(workload: Workload, cfg: &RunConfig) -> Result<Report, String> {
    let spec = Spec::of(workload);
    let device = transmon_grid()?;
    let opts = PipelineOptions {
        threads: Some(spec.threads()),
        ..PipelineOptions::m_inf()
    };

    let mut speed = SpeedProbe::new(spec.threads());
    SpeedProbe::spin();

    // Set-up: build every circuit and compile the warm-up program once;
    // repeated, and reported as the median.
    let mut setup = Vec::new();
    let mut circuits: Vec<(&'static str, Circuit)> = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        circuits = spec.set_up(&device, &opts)?;
        setup.push(secs_since(t));
        speed.sample();
    }
    let setup_scale = speed.scale().ok_or("no speed sample in set-up")?;

    // The timed loop. A traced run alternates untraced and traced passes
    // so the tracing overhead is measured in the same process.
    let clock = Arc::new(SourceClock::default());
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut jobs: Vec<Job> = Vec::new();
    let mut outside = Outside::default();
    let mut problems: Vec<String> = Vec::new();
    let min_passes = if cfg.trace { 2 } else { 1 };
    let budget = Duration::from_secs_f64(cfg.seconds);
    paqoc_telemetry::reset();
    let started = Instant::now();
    let mut pass = 0;
    while pass < min_passes || started.elapsed() < budget {
        let traced = cfg.trace && pass % 2 == 1;
        set_tracing(traced);
        let mut order: Vec<usize> = (0..circuits.len()).collect();
        shuffle(&mut order, &mut rng);
        for i in order {
            let (program, circuit) = &circuits[i];
            let t = Instant::now();
            let result = spec.compile(circuit, &device, &opts, traced.then_some(&clock));
            let wall_ms = secs_since(t) * 1e3;
            speed.sample();
            let job = Job::new(program, wall_ms, traced, result, opts.generator.max_qubits);
            if traced {
                match outside_layers(circuit, &device, &opts) {
                    Ok((o, physical)) => {
                        let compiled = job.columns.as_ref().map(|c| c["physical_gates"]);
                        if compiled.is_some_and(|n| n != physical as f64) {
                            problems.push(format!(
                                "{program}: mapped {physical} gates outside the pipeline, {compiled:?} inside"
                            ));
                        }
                        outside.lower_ms += o.lower_ms;
                        outside.map_ms += o.map_ms;
                        outside.mine_ms += o.mine_ms;
                        outside.swaps += o.swaps;
                        outside.patterns += o.patterns;
                    }
                    Err(e) => {
                        problems.push(format!("{program}: mapping outside the pipeline: {e}"))
                    }
                }
            }
            jobs.push(job);
        }
        pass += 1;
    }
    set_tracing(false);
    let trace = cfg.trace.then(Trace::take);

    // The oracle, after the loop and outside every timing.
    let per_gate = per_gate_schedules(&spec, &circuits, &device)?;
    let firsts = oracle::firsts(
        jobs.iter()
            .filter_map(|j| Some((j.program, j.columns.as_ref()?))),
    );
    let expected: Expected = if cfg.bless {
        firsts.clone()
    } else {
        oracle::parse(workload.expected_text())?
    };
    for job in &mut jobs {
        if let Some(c) = &job.columns {
            let diffs = oracle::compare(job.program, c, &expected);
            job.problems.extend(diffs);
            let latency = c["latency_dt"] as u64;
            job.problems.extend(oracle::check_latency(
                job.program,
                latency,
                per_gate[job.program],
            ));
        }
    }

    let mut metrics = Metrics::new();
    let mut wall = Metrics::new();
    let untraced: Vec<(&'static str, f64)> = jobs
        .iter()
        .filter(|j| !j.traced)
        .map(|j| (j.program, j.wall_ms))
        .collect();
    time_metrics(&untraced, &setup, &mut wall);
    if let Some(scale) = speed.scale() {
        let scaled: Vec<(&'static str, f64)> =
            untraced.iter().map(|&(p, ms)| (p, ms * scale)).collect();
        let setup: Vec<f64> = setup.iter().map(|s| s * setup_scale).collect();
        time_metrics(&scaled, &setup, &mut metrics);
    }
    quality_metrics(&firsts, &mut metrics);
    put(&mut metrics, "peak_rss_mb", peak_rss_mb());

    if let Some(trace) = &trace {
        let traced: Vec<&Job> = jobs.iter().filter(|j| j.traced).collect();
        let n = traced.len() as f64;
        let compile_ms: f64 = traced.iter().map(|j| j.wall_ms).sum();
        let group_ms = trace.span_ms("group");
        let generate_ms = trace.span_ms("generate");
        let source_ms = clock.ns() as f64 / 1e6;
        let threads = spec.threads() as f64;
        let coverage = ratio(
            outside.lower_ms + outside.map_ms + outside.mine_ms + group_ms + generate_ms,
            compile_ms,
        );
        let (source_ms_name, source_calls_name) = if spec.grape {
            ("grape.generate_ms", "grape.generate_calls")
        } else {
            ("device.estimate_ms", "device.estimate_calls")
        };
        let sum = |f: fn(&Job) -> f64| traced.iter().map(|j| f(j)).sum::<f64>();
        let hits = sum(|j| j.cache_hits);
        let generated = sum(|j| j.pulses_generated);
        let traced_samples: Vec<(&'static str, f64)> =
            traced.iter().map(|j| (j.program, j.wall_ms)).collect();
        let untraced_total: f64 = medians_by(&untraced).values().sum();
        let traced_total: f64 = medians_by(&traced_samples).values().sum();

        trace.pipeline_metrics(n, &mut metrics);
        for (name, value) in [
            ("circuit.lower_ms", ratio(outside.lower_ms, n)),
            ("mapping.map_ms", ratio(outside.map_ms, n)),
            ("mapping.swaps", ratio(outside.swaps, n)),
            ("mining.mine_ms", ratio(outside.mine_ms, n)),
            ("mining.patterns", ratio(outside.patterns, n)),
            ("core.compile_ms", ratio(compile_ms, n)),
            (
                "core.search_ms",
                ratio((generate_ms - source_ms / threads).max(0.0), n),
            ),
            ("core.phase_coverage", coverage),
            (source_ms_name, ratio(source_ms, n)),
            (source_calls_name, ratio(clock.calls() as f64, n)),
            ("exec.busy_share", ratio(source_ms, threads * generate_ms)),
            ("table.hit_rate", ratio(hits, hits + generated)),
            ("table.pulses_generated", ratio(generated, n)),
            ("table.store_hits", ratio(sum(|j| j.store_hits), n)),
            (
                "telemetry.overhead_share",
                ratio(traced_total, untraced_total) - 1.0,
            ),
        ] {
            metrics.insert(name, value);
        }
        if workload == Workload::Table1Minf && coverage < MIN_COVERAGE {
            problems.push(format!(
                "phases cover {:.1}% of the compile time, below {:.0}%",
                coverage * 100.0,
                MIN_COVERAGE * 100.0
            ));
        }
    }

    let failed = jobs.iter().filter(|j| !j.problems.is_empty()).count();
    if cfg.bless && failed == 0 && problems.is_empty() {
        bless(workload, &oracle::render(&expected))?;
    }
    problems.extend(jobs.iter().flat_map(|j| j.problems.iter().cloned()));
    Ok(Report {
        attempted: jobs.len() as u64,
        failed: failed as u64,
        problems,
        metrics,
        wall,
        reference_unit_ms: speed.unit_ms(),
    })
}

/// Each program's latency with no merging at all (M=0, generator off)
/// on the workload's own compile path: the bound every compiled
/// schedule must meet.
fn per_gate_schedules(
    spec: &Spec,
    circuits: &[(&'static str, Circuit)],
    device: &Device,
) -> Result<BTreeMap<&'static str, u64>, String> {
    let opts = PipelineOptions {
        enable_generator: false,
        threads: Some(spec.threads()),
        ..PipelineOptions::m0()
    };
    circuits
        .iter()
        .map(|(p, c)| {
            spec.compile(c, device, &opts, None)
                .map(|r| (*p, r.latency_dt))
                .map_err(|e| format!("per-gate schedule of {p}: {e}"))
        })
        .collect()
}
