//! The benchmark's workloads and what every run reports.
//!
//! | workload      | loop                          | stresses                                   |
//! |---------------|-------------------------------|--------------------------------------------|
//! | `table1-minf` | closed, 1 thread, 17 programs | mining, APA grouping, Algorithm 1          |
//! | `grape-small` | closed, 2 executor threads    | GRAPE numerics and executor parallelism    |
//! | `serve-m0`    | open, 6 req/s Poisson         | resident service: queueing, warm table     |
//!
//! The two compile workloads start cold every time (fresh pulse table,
//! no store); the serve workload runs against a store warmed in set-up.
//! A gain on one path that costs the other therefore shows up.

use crate::{compile, serve};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order. Every
/// run without `--trace` reports all of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("job_s_total", "s"),
    ("job_ms_geomean", "ms"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("pulse_latency_dt_geomean", "dt"),
    ("esp_geomean", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order. A
/// traced run reports all of them; a layer its workload never reaches
/// reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("circuit.lower_ms", "ms"),
    ("mapping.map_ms", "ms"),
    ("mapping.swaps", "count"),
    ("mining.mine_ms", "ms"),
    ("mining.patterns", "count"),
    ("core.compile_ms", "ms"),
    ("core.apa_group_ms", "ms"),
    ("core.apa_accepted", "count"),
    ("core.search_ms", "ms"),
    ("core.search_iterations", "count"),
    ("core.candidate_yield", "fraction"),
    ("core.phase_coverage", "fraction"),
    ("device.estimate_ms", "ms"),
    ("device.estimate_calls", "count"),
    ("grape.generate_ms", "ms"),
    ("grape.generate_calls", "count"),
    ("grape.gradient_ms", "ms"),
    ("grape.propagation_ms", "ms"),
    ("mathkit.eig_ms", "ms"),
    ("mathkit.matmul_ms", "ms"),
    ("mathkit.expm_ms", "ms"),
    ("mathkit.solve_ms", "ms"),
    ("exec.busy_share", "fraction"),
    ("table.hit_rate", "fraction"),
    ("table.pulses_generated", "count"),
    ("table.store_hits", "count"),
    ("store.open_ms", "ms"),
    ("store.records", "count"),
    ("serve.queue_ms_p90", "ms"),
    ("serve.compile_ms_p50", "ms"),
    ("serve.compile_ms_p90", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.slo_share", "fraction"),
    ("loadgen.lag_ms_p90", "ms"),
    ("telemetry.overhead_share", "fraction"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Settings of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Fixes program order, arrivals and the program/tenant draw.
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Traced run: telemetry and kernel probes armed, sources timed.
    pub trace: bool,
    /// Write the observed columns as the new expected file instead of
    /// comparing against it.
    pub bless: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (compiles or requests) in the timed loop.
    pub attempted: u64,
    /// Operations that failed: an error, a degraded or partial result,
    /// a non-`ok` reply, a transport error or an output mismatch.
    pub failed: u64,
    /// Every failure and failed check, readable.
    pub problems: Vec<String>,
    /// End-to-end and per-layer values (see [`END_TO_END`], [`PER_LAYER`]).
    pub metrics: Metrics,
    /// The end-to-end time metrics again, unscaled wall time.
    pub wall: Metrics,
    /// Median time of the speed reference unit in this run, ms.
    pub reference_unit_ms: Option<f64>,
}

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All 17 Table-I programs, sequential `try_compile`, M=inf.
    Table1Minf,
    /// `simon` and `bb84` through GRAPE on the batch executor, M=inf.
    GrapeSmall,
    /// Open-loop requests against a warm, store-backed server, M=0.
    ServeM0,
}

impl Workload {
    /// Every workload, in the order a full run executes them.
    pub const ALL: [Workload; 3] = [
        Workload::Table1Minf,
        Workload::GrapeSmall,
        Workload::ServeM0,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Minf => "table1-minf",
            Workload::GrapeSmall => "grape-small",
            Workload::ServeM0 => "serve-m0",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed expected columns of this workload.
    pub fn expected_text(self) -> &'static str {
        match self {
            Workload::Table1Minf => include_str!("../expected/table1-minf.json"),
            Workload::GrapeSmall => include_str!("../expected/grape-small.json"),
            Workload::ServeM0 => include_str!("../expected/serve-m0.json"),
        }
    }

    /// Runs the workload. `Err` means it could not run at all (set-up
    /// failed); failures inside the timed loop are counted in the report.
    pub fn run(self, cfg: &RunConfig) -> Result<Report, String> {
        match self {
            Workload::Table1Minf | Workload::GrapeSmall => compile::run(self, cfg),
            Workload::ServeM0 => serve::run(cfg),
        }
    }
}

/// Arms (or disarms) telemetry and kernel probes together.
pub fn set_tracing(on: bool) {
    paqoc_telemetry::set_enabled(on);
    paqoc_telemetry::set_kernel_probes(Some(on));
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut paqoc_math::Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Seconds since `t`, as measured.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The device every workload compiles for.
pub fn transmon_grid() -> Result<paqoc_device::Device, String> {
    paqoc_backend::resolve("transmon-grid")
        .map(|b| b.device())
        .map_err(|e| format!("backend transmon-grid: {e}"))
}

/// Writes `text` as the committed expected file of `workload`.
pub fn bless(workload: Workload, text: &str) -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.json", workload.name()));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// The median of `samples` per key.
pub fn medians_by<K: Ord + Copy>(samples: &[(K, f64)]) -> BTreeMap<K, f64> {
    let mut groups: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for &(k, v) in samples {
        groups.entry(k).or_default().push(v);
    }
    groups
        .into_iter()
        .filter_map(|(k, vs)| crate::stats::median(&vs).map(|m| (k, m)))
        .collect()
}

/// The end-to-end time metrics from `(program, ms)` job samples and
/// set-up times in seconds. Each program first gets its median job time,
/// so every program counts once in the sum and the geometric mean. The
/// p50 and p90 run over every job, in which every program appears
/// equally often: the p50 borrows from the programs on either side of
/// the middle, which keeps it steadier than any one program's median,
/// and the p90 sees the tail. The set-up time is the median of its
/// repetitions.
pub fn time_metrics(samples: &[(&'static str, f64)], setup_s: &[f64], metrics: &mut Metrics) {
    use crate::stats::{geomean, median, middle, percentile};
    let medians: Vec<f64> = medians_by(samples).into_values().collect();
    let jobs: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    metrics.insert("job_s_total", medians.iter().sum::<f64>() / 1e3);
    put(metrics, "job_ms_geomean", geomean(&medians));
    put(metrics, "job_ms_p50", middle(&jobs));
    put(metrics, "job_ms_p90", percentile(&jobs, 90));
    put(metrics, "setup_s", median(setup_s));
}

/// The deterministic pulse-quality metrics: geometric means over
/// programs of the compiled latency and the ESP.
pub fn quality_metrics(firsts: &crate::oracle::Expected, metrics: &mut Metrics) {
    let column = |name: &str| -> Vec<f64> { firsts.values().map(|c| c[name]).collect() };
    put(
        metrics,
        "pulse_latency_dt_geomean",
        crate::stats::geomean(&column("latency_dt")),
    );
    put(
        metrics,
        "esp_geomean",
        crate::stats::geomean(&column("esp")),
    );
}

/// Inserts `value` when present; an absent value stays absent and is
/// reported as unavailable.
pub fn put(metrics: &mut Metrics, name: &'static str, value: Option<f64>) {
    if let Some(v) = value {
        metrics.insert(name, v);
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Totals read from a telemetry snapshot.
pub struct Trace(paqoc_telemetry::Snapshot);

impl Trace {
    /// Snapshots everything recorded since the last reset.
    pub fn take() -> Trace {
        Trace(paqoc_telemetry::snapshot())
    }

    /// Summed duration of every span named `name`, ms.
    pub fn span_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .0
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// A counter's total.
    pub fn counter(&self, name: &str) -> f64 {
        self.0.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Inclusive time in one kernel probe, ms.
    pub fn kernel_ms(&self, name: &str) -> f64 {
        self.0
            .kernels
            .get(name)
            .map_or(0.0, |k| k.total_ns as f64 / 1e6)
    }

    /// Metrics read from the pipeline's own spans, counters and kernel
    /// probes, per operation.
    pub fn pipeline_metrics(&self, ops: f64, metrics: &mut Metrics) {
        metrics.insert("core.apa_group_ms", ratio(self.span_ms("group"), ops));
        metrics.insert(
            "core.apa_accepted",
            ratio(self.counter("apa.accepted"), ops),
        );
        metrics.insert(
            "core.search_iterations",
            ratio(self.counter("generator.iterations"), ops),
        );
        metrics.insert(
            "core.candidate_yield",
            ratio(
                self.counter("generator.merges_committed"),
                self.counter("generator.candidates_evaluated"),
            ),
        );
        for (metric, kernel) in [
            ("mathkit.eig_ms", "mathkit.eig"),
            ("mathkit.matmul_ms", "mathkit.matmul"),
            ("mathkit.expm_ms", "mathkit.expm"),
            ("mathkit.solve_ms", "mathkit.solve"),
            ("grape.gradient_ms", "grape.gradient"),
            ("grape.propagation_ms", "grape.propagation"),
        ] {
            metrics.insert(metric, ratio(self.kernel_ms(kernel), ops));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let text = include_str!("../../BENCHMARK.json");
        let v = paqoc_telemetry::json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_arr())
                .expect("array")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|x| x.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn expected_files_parse_and_name_every_program() {
        for w in Workload::ALL {
            let e = crate::oracle::parse(w.expected_text()).expect("expected file parses");
            assert!(!e.is_empty(), "{}", w.name());
        }
        let table1 = crate::oracle::parse(Workload::Table1Minf.expected_text()).expect("parses");
        assert_eq!(table1.len(), paqoc_workloads::all_benchmarks().len());
    }

    #[test]
    fn time_metrics_weigh_each_program_once() {
        let samples = [("a", 10.0), ("a", 30.0), ("a", 20.0), ("b", 1000.0)];
        assert_eq!(
            medians_by(&samples),
            BTreeMap::from([("a", 20.0), ("b", 1000.0)])
        );
        let mut m = Metrics::new();
        time_metrics(&samples, &[0.3, 0.1, 0.2], &mut m);
        assert_eq!(m["job_s_total"], 1.02);
        assert!((m["job_ms_geomean"] - (20.0f64 * 1000.0).sqrt()).abs() < 1e-9);
        assert_eq!(m["job_ms_p50"], 25.0, "the middle of every job");
        assert_eq!(m["job_ms_p90"], 1000.0, "the tail over every job");
        assert_eq!(m["setup_s"], 0.2);
    }
}
