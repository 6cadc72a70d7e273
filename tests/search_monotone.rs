//! Algorithm 1 against its own claim: the circuit latency never rises
//! from one merge iteration to the next. Read from the
//! `search.iteration` decision events of every Table-I program at M=inf
//! and M=0.
//!
//! The same compiles also pin the search's outputs and counters: one
//! line per (config, program) is compared with
//! `tests/data/search_pinned.txt`. Each line holds the schedule latency,
//! the ESP bits, the group count, the generator report and this
//! compile's totals of the `generator.*` counters, `group.contractions`
//! and `apa.accepted` — what perf's `core.candidate_yield` and
//! `core.search_iterations` are read from. A refactor of the search must
//! leave every line unchanged; when a change is meant to move one, the
//! failure message prints the complete new dump.
//!
//! Telemetry state is process-global, so this lives in its own test
//! binary.

use paqoc::core::{try_compile, CompilationResult, PipelineOptions};
use paqoc::device::{AnalyticModel, Device};
use paqoc::telemetry::{self, FieldValue, Snapshot};
use paqoc::workloads::all_benchmarks;

const PINNED: &str = include_str!("data/search_pinned.txt");

/// The counters each pinned line carries, in line order.
const COUNTERS: [&str; 9] = [
    "generator.iterations",
    "generator.candidates_evaluated",
    "generator.pruned_qubit_cap",
    "generator.pruned_case3",
    "generator.merges_committed",
    "generator.merges_rejected",
    "generator.preprocess_merges",
    "group.contractions",
    "apa.accepted",
];

fn line(config: &str, program: &str, r: &CompilationResult, snap: &Snapshot) -> String {
    let g = r.report;
    let counters: Vec<String> = COUNTERS
        .iter()
        .map(|name| format!("{name}={}", snap.counters.get(*name).copied().unwrap_or(0)))
        .collect();
    format!(
        "{config} {program} dt={} esp={:016x} groups={} report={}/{}/{}/{}/{}/{} {}",
        r.latency_dt,
        r.esp.to_bits(),
        r.num_groups(),
        g.preprocess_merges,
        g.criticality_merges,
        g.rejected_merges,
        g.iterations,
        g.fallbacks,
        g.estimator_fallbacks,
        counters.join(" "),
    )
}

#[test]
fn search_span_never_rises_between_iterations() {
    let device = Device::grid5x5();
    let mut steps = 0;
    let mut dump: Vec<String> = Vec::new();
    telemetry::set_enabled(true);
    for (config, opts) in [
        ("M=inf", PipelineOptions::m_inf()),
        ("M=0", PipelineOptions::m0()),
    ] {
        let tol = opts.generator.tolerance_ns;
        for b in all_benchmarks() {
            telemetry::reset();
            let result = try_compile(&(b.build)(), &device, &mut AnalyticModel::new(), &opts)
                .unwrap_or_else(|e| panic!("{} {config}: {e}", b.name));
            let snap = telemetry::snapshot();
            assert_eq!(snap.events_dropped, 0, "{} {config}", b.name);
            dump.push(line(config, b.name, &result, &snap));
            let spans: Vec<f64> = snap
                .events
                .iter()
                .filter(|e| e.name == "search.iteration")
                .map(|e| match e.fields.iter().find(|(k, _)| k == "span_ns") {
                    Some((_, FieldValue::F64(v))) => *v,
                    other => panic!("{} {config}: span_ns field {other:?}", b.name),
                })
                .collect();
            assert_eq!(
                spans.len(),
                result.report.iterations,
                "{} {config}: one event per iteration",
                b.name
            );
            steps += spans.len().saturating_sub(1);
            for (i, w) in spans.windows(2).enumerate() {
                assert!(
                    w[1] <= w[0] + tol,
                    "{} {config}: span rose from {} to {} ns after iteration {}",
                    b.name,
                    w[0],
                    w[1],
                    i + 1
                );
            }
        }
    }
    telemetry::set_enabled(false);
    assert!(steps > 1000, "only {steps} iteration steps checked");

    let pinned: Vec<&str> = PINNED.lines().collect();
    let mismatches: Vec<String> = dump
        .iter()
        .zip(&pinned)
        .filter(|(a, p)| a.as_str() != **p)
        .map(|(a, p)| format!("  pinned: {p}\n  actual: {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && dump.len() == pinned.len(),
        "{} of {} lines differ ({} pinned):\n{}\n\ncomplete dump:\n{}",
        mismatches.len(),
        dump.len(),
        pinned.len(),
        mismatches.join("\n"),
        dump.join("\n"),
    );
}
