//! End-to-end telemetry integration: a real compilation must emit the
//! documented phase spans and counters, and the telemetry view must
//! agree with the pipeline's own accounting.
//!
//! Telemetry state is process-global, so this lives in its own test
//! binary (integration tests each get their own process) and runs the
//! pipeline exactly once up front.

use paqoc::circuit::Circuit;
use paqoc::core::{try_compile, PipelineOptions};
use paqoc::device::{AnalyticModel, Device};
use paqoc::telemetry;

fn qaoa_like() -> Circuit {
    let mut c = Circuit::new(4);
    for _ in 0..2 {
        for (a, b) in [(0usize, 1usize), (1, 2), (2, 3)] {
            c.cp(a, b, 0.7);
        }
        for q in 0..4 {
            c.rx(q, 0.35);
        }
    }
    c
}

#[test]
fn compile_emits_phase_spans_and_matching_counters() {
    telemetry::set_enabled(true);
    telemetry::reset();
    let device = Device::grid5x5();
    let mut source = AnalyticModel::new();
    let result = try_compile(
        &qaoa_like(),
        &device,
        &mut source,
        &PipelineOptions::m_inf(),
    )
    .expect("compile");
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);

    // The documented span taxonomy, all nested under `compile`.
    let compile_span = snap.spans_named("compile");
    assert_eq!(compile_span.len(), 1);
    let root = compile_span[0];
    assert_eq!(root.parent, None);
    for phase in ["lower", "map", "mine", "group", "generate"] {
        let spans = snap.spans_named(phase);
        assert_eq!(spans.len(), 1, "expected exactly one `{phase}` span");
        assert_eq!(
            spans[0].parent,
            Some(root.id),
            "`{phase}` nests under compile"
        );
        assert!(root.duration_ns >= spans[0].duration_ns);
    }

    // The phase spans cover most of the compile span.
    let phase_total: u64 = ["lower", "map", "mine", "group", "generate"]
        .iter()
        .map(|p| snap.spans_named(p)[0].duration_ns)
        .sum();
    assert!(phase_total <= root.duration_ns);

    // Telemetry's pulse-table counters agree with CompileStats.
    let sum_prefix = |prefix: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    };
    assert_eq!(
        sum_prefix("table.cache_hit.") as usize,
        result.stats.cache_hits,
        "telemetry cache hits must equal CompileStats::cache_hits"
    );
    assert_eq!(
        sum_prefix("table.cache_miss.") as usize,
        result.stats.pulses_generated,
        "every miss generates exactly one pulse"
    );

    // The generator loop reported its work through both channels too.
    assert_eq!(
        snap.counters
            .get("generator.iterations")
            .copied()
            .unwrap_or(0) as usize,
        result.report.iterations
    );
    assert_eq!(
        snap.counters
            .get("generator.preprocess_merges")
            .copied()
            .unwrap_or(0) as usize,
        result.report.preprocess_merges
    );

    // An M=inf run on a QAOA-like circuit accepts APA occurrences.
    assert!(snap.counters.get("apa.accepted").copied().unwrap_or(0) > 0);

    // The event journal carries the criticality search's decisions:
    // exactly one `search.iteration` event per counted merge iteration.
    let iteration_events: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.name == "search.iteration")
        .collect();
    assert_eq!(
        iteration_events.len(),
        result.report.iterations,
        "one decision event per merge iteration"
    );
    // The search's two phases are spans of their own inside `generate`,
    // and its decision events nest under the criticality loop's span.
    let generate_span = snap.spans_named("generate")[0];
    let search_spans = ["search.preprocess", "search.criticality"].map(|name| {
        let spans = snap.spans_named(name);
        assert_eq!(spans.len(), 1, "expected exactly one `{name}` span");
        assert_eq!(
            spans[0].parent,
            Some(generate_span.id),
            "`{name}` nests under generate"
        );
        spans[0]
    });
    let search_ns: u64 = search_spans.iter().map(|s| s.duration_ns).sum();
    assert!(search_ns <= generate_span.duration_ns);
    let criticality_span = search_spans[1];
    for e in &iteration_events {
        assert_eq!(
            e.span,
            Some(criticality_span.id),
            "search events nest under the search.criticality span"
        );
    }
    // Committed merges in the journal agree with the report.
    let committed: u64 = iteration_events
        .iter()
        .map(|e| {
            e.fields
                .iter()
                .find(|(k, _)| k == "committed")
                .and_then(|(_, v)| match v {
                    telemetry::FieldValue::U64(n) => Some(*n),
                    _ => None,
                })
                .expect("committed field present")
        })
        .sum();
    assert_eq!(committed as usize, result.report.criticality_merges);

    // Every pulse attachment journals predicted vs realized latency, and
    // with the analytic model as the pulse source the estimator must be
    // conservative: realized latency never exceeds the prediction by
    // more than float noise (well under one device cycle).
    let err = &snap.histograms["search.predicted_latency_error_ns"];
    assert_eq!(
        err.count as usize,
        snap.events
            .iter()
            .filter(|e| e.name == "pulse.attach")
            .count()
    );
    assert!(
        err.max <= 1.0,
        "estimator must be conservative: max realized-minus-predicted \
         was {} ns",
        err.max
    );
    assert!(err.p99() <= 1.0, "p99 error {} ns", err.p99());

    // And the JSONL export of this real run round-trips line by line.
    let jsonl = snap.to_jsonl();
    let mut event_lines = 0usize;
    for line in jsonl.lines() {
        let v = telemetry::json::parse(line).expect("every exported line parses");
        if v.get("type").and_then(telemetry::json::Value::as_str) == Some("event") {
            event_lines += 1;
        }
    }
    assert_eq!(event_lines, snap.events.len());

    // The Chrome-trace view of the same run parses and names the phases.
    let trace = snap.to_chrome_trace();
    let doc = telemetry::json::parse(&trace).expect("chrome trace parses");
    let Some(telemetry::json::Value::Arr(tev)) = doc.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    for phase in ["compile", "lower", "map", "mine", "group", "generate"] {
        assert!(
            tev.iter().any(|e| {
                e.get("name").and_then(telemetry::json::Value::as_str) == Some(phase)
                    && e.get("ph").and_then(telemetry::json::Value::as_str) == Some("X")
            }),
            "phase `{phase}` missing from the chrome trace"
        );
    }
}
