//! Algorithm 1 against its own claim: the circuit latency never rises
//! from one merge iteration to the next. Read from the
//! `search.iteration` decision events of every Table-I program at M=inf
//! and M=0.
//!
//! Telemetry state is process-global, so this lives in its own test
//! binary.

use paqoc::core::{try_compile, PipelineOptions};
use paqoc::device::{AnalyticModel, Device};
use paqoc::telemetry::{self, FieldValue};
use paqoc::workloads::all_benchmarks;

#[test]
fn search_span_never_rises_between_iterations() {
    let device = Device::grid5x5();
    let mut steps = 0;
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
}
