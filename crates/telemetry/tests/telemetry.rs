//! Behavioural tests of the global collector. The registry is
//! process-wide, so every test serializes on one lock and resets the
//! state it depends on.

use paqoc_telemetry::json::{parse, Value};
use paqoc_telemetry::{
    add_gauge, counter, event, gauge, observe, reset, set_enabled, set_gauge, snapshot, span,
    FieldValue, Snapshot, EVENT_CAPACITY, METRICS_SAMPLE_EVENT,
};
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

/// Locks out other tests, enables collection, and clears the registry.
fn fresh() -> std::sync::MutexGuard<'static, ()> {
    let guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    set_enabled(true);
    reset();
    guard
}

#[test]
fn spans_nest_and_record_in_completion_order() {
    let _lock = fresh();
    {
        let _compile = span("compile");
        {
            let _mine = span("mine");
        }
        {
            let _generate = span("generate");
        }
    }
    let snap = snapshot();
    set_enabled(false);

    // Children complete before the parent.
    let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["mine", "generate", "compile"]);

    let compile = snap.spans_named("compile")[0];
    let mine = snap.spans_named("mine")[0];
    let generate = snap.spans_named("generate")[0];
    assert_eq!(compile.parent, None);
    assert_eq!(mine.parent, Some(compile.id));
    assert_eq!(generate.parent, Some(compile.id));
    // Sibling ordering by start time: mine entered first.
    let kids = snap.children_of(compile.id);
    assert_eq!(kids[0].name, "mine");
    assert_eq!(kids[1].name, "generate");
    // A parent's wall time covers its children.
    assert!(compile.duration_ns >= mine.duration_ns + generate.duration_ns);
}

#[test]
fn counters_aggregate_across_threads() {
    let _lock = fresh();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..1000 {
                    counter("stress.increments", 1);
                }
                observe("stress.values", 2.5);
            });
        }
    });
    let snap = snapshot();
    set_enabled(false);
    assert_eq!(snap.counters["stress.increments"], 8000);
    let h = &snap.histograms["stress.values"];
    assert_eq!(h.count, 8);
    assert!((h.sum - 20.0).abs() < 1e-12);
    assert_eq!(h.min, 2.5);
    assert_eq!(h.max, 2.5);
}

#[test]
fn spans_on_different_threads_do_not_adopt_each_other() {
    let _lock = fresh();
    let _outer = span("outer");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _worker = span("worker");
        });
    });
    drop(_outer);
    let snap = snapshot();
    set_enabled(false);
    let worker = snap.spans_named("worker")[0];
    assert_eq!(worker.parent, None, "span stacks are per-thread");
    let outer = snap.spans_named("outer")[0];
    assert_ne!(worker.thread, outer.thread);
}

#[test]
fn jsonl_lines_parse_back_to_the_snapshot() {
    let _lock = fresh();
    {
        let _a = span("alpha \"quoted\"\n");
        counter("beta.count", 7);
        observe("gamma.hist", 1.5);
        observe("gamma.hist", 2.5);
    }
    let snap = snapshot();
    set_enabled(false);

    let jsonl = snap.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 4);
    let parsed: Vec<Value> = lines
        .iter()
        .map(|l| parse(l).expect("every JSONL line parses"))
        .collect();

    let meta_line = &parsed[0];
    assert_eq!(
        meta_line.get("type").and_then(Value::as_str),
        Some("trace_meta")
    );
    assert_eq!(
        meta_line.get("trace_schema").and_then(Value::as_num),
        Some(paqoc_telemetry::TRACE_SCHEMA as f64)
    );

    let span_line = &parsed[1];
    assert_eq!(span_line.get("type").and_then(Value::as_str), Some("span"));
    assert_eq!(
        span_line.get("name").and_then(Value::as_str),
        Some("alpha \"quoted\"\n"),
        "escaping must round-trip"
    );
    assert_eq!(
        span_line.get("duration_ns").and_then(Value::as_num),
        Some(snap.spans[0].duration_ns as f64)
    );

    let counter_line = &parsed[2];
    assert_eq!(
        counter_line.get("name").and_then(Value::as_str),
        Some("beta.count")
    );
    assert_eq!(counter_line.get("value").and_then(Value::as_num), Some(7.0));

    let hist_line = &parsed[3];
    assert_eq!(hist_line.get("count").and_then(Value::as_num), Some(2.0));
    assert_eq!(hist_line.get("sum").and_then(Value::as_num), Some(4.0));
    assert_eq!(hist_line.get("min").and_then(Value::as_num), Some(1.5));
    assert_eq!(hist_line.get("max").and_then(Value::as_num), Some(2.5));
}

#[test]
fn disabled_collector_records_nothing() {
    let _lock = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    set_enabled(true);
    reset();
    set_enabled(false);
    {
        let _s = span("ghost");
        counter("ghost.count", 1);
        observe("ghost.hist", 1.0);
        event("ghost.event", &[("k", FieldValue::from(1u64))]);
        paqoc_telemetry::event!("ghost.macro_event", k = 2u64);
    }
    let snap = snapshot();
    assert!(snap.spans.is_empty(), "{:?}", snap.spans);
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.events.is_empty(), "{:?}", snap.events);
}

#[test]
fn report_renders_tree_counters_and_histograms() {
    let _lock = fresh();
    {
        let _c = span("compile");
        let _m = span("mine");
        counter("miner.patterns_found", 4);
        observe("table.group_qubits", 2.0);
    }
    let snap = snapshot();
    set_enabled(false);
    let report = snap.render_report();
    assert!(report.contains("compile"));
    assert!(
        report.contains("  mine"),
        "children are indented:\n{report}"
    );
    assert!(report.contains("miner.patterns_found"));
    assert!(report.contains("table.group_qubits"));
    assert!(report.contains('%'));
}

#[test]
fn events_carry_typed_fields_and_link_to_the_enclosing_span() {
    let _lock = fresh();
    {
        let _search = span("search");
        paqoc_telemetry::event!(
            "search.iteration",
            iter = 3u64,
            gain = -12.5f64,
            committed = true,
            reason = "top_k",
        );
    }
    event("orphan", &[]);
    let snap = snapshot();
    set_enabled(false);

    assert_eq!(snap.events.len(), 2);
    let e = &snap.events[0];
    assert_eq!(e.name, "search.iteration");
    assert_eq!(e.span, Some(snap.spans_named("search")[0].id));
    assert_eq!(e.fields[0], ("iter".to_string(), FieldValue::U64(3)));
    assert_eq!(e.fields[1], ("gain".to_string(), FieldValue::F64(-12.5)));
    assert_eq!(
        e.fields[2],
        ("committed".to_string(), FieldValue::Bool(true))
    );
    assert_eq!(
        e.fields[3],
        ("reason".to_string(), FieldValue::Str("top_k".to_string()))
    );

    let orphan = &snap.events[1];
    assert_eq!(orphan.span, None, "no enclosing span after the guard drops");
    assert!(orphan.seq > e.seq, "sequence numbers are monotone");
    assert!(orphan.ts_ns >= e.ts_ns, "timestamps are monotone");
    assert_eq!(snap.events_dropped, 0);
}

#[test]
fn event_journal_evicts_oldest_at_capacity() {
    let _lock = fresh();
    let extra = 10usize;
    for i in 0..EVENT_CAPACITY + extra {
        event("flood", &[("i", FieldValue::from(i as u64))]);
    }
    let snap = snapshot();
    set_enabled(false);
    assert_eq!(snap.events.len(), EVENT_CAPACITY);
    assert_eq!(snap.events_dropped, extra as u64);
    assert_eq!(
        snap.events[0].fields[0].1,
        FieldValue::U64(extra as u64),
        "the oldest events are the ones evicted"
    );
}

#[test]
fn reset_clears_per_thread_span_stacks() {
    let _lock = fresh();
    // A guard leaked across a reset must not leave a stale parent id on
    // this thread's stack, and must not record a span on drop.
    let stale = span("stale");
    reset();
    drop(stale);
    {
        let _fresh_span = span("fresh");
    }
    let snap = snapshot();
    set_enabled(false);
    let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["fresh"], "the pre-reset span must not be recorded");
    assert_eq!(
        snap.spans_named("fresh")[0].parent,
        None,
        "reset must clear the per-thread span stack"
    );
}

#[test]
fn gauges_set_add_and_land_in_every_export() {
    let _lock = fresh();
    set_gauge("exec.queue_depth", 17.0);
    assert_eq!(add_gauge("exec.queue_depth", -2.0), 15.0);
    assert_eq!(add_gauge("exec.workers_busy", 3.0), 3.0);
    assert_eq!(gauge("exec.queue_depth"), Some(15.0));
    let snap = snapshot();
    set_enabled(false);

    assert_eq!(snap.gauges["exec.queue_depth"], 15.0);
    assert_eq!(snap.gauges["exec.workers_busy"], 3.0);

    // JSONL: a typed gauge line that parses back.
    let jsonl = snap.to_jsonl();
    let line = jsonl
        .lines()
        .find(|l| l.contains("\"type\":\"gauge\"") && l.contains("exec.queue_depth"))
        .expect("gauge line present");
    let v = parse(line).expect("gauge line parses");
    assert_eq!(v.get("value").and_then(Value::as_num), Some(15.0));

    // Chrome: a final ph:"C" sample per gauge.
    let trace = parse(&snap.to_chrome_trace()).expect("chrome trace parses");
    let Some(Value::Arr(events)) = trace.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    let sample = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("exec.workers_busy"))
        .expect("gauge counter sample present");
    assert_eq!(sample.get("ph").and_then(Value::as_str), Some("C"));
    assert_eq!(
        sample
            .get("args")
            .and_then(|a| a.get("value"))
            .and_then(Value::as_num),
        Some(3.0)
    );

    // Human-readable report shows the level.
    assert!(snap.render_report().contains("exec.queue_depth"));
}

/// Regression mirror of `reset_clears_per_thread_span_stacks`: the
/// gauge map lives outside the main registry behind its own lock, so
/// `reset()` must wipe it explicitly — a stale level surviving a reset
/// would poison every later flight-recorder sample.
#[test]
fn reset_clears_the_gauge_map() {
    let _lock = fresh();
    set_gauge("stale.level", 42.0);
    add_gauge("stale.accum", 7.0);
    assert_eq!(gauge("stale.level"), Some(42.0));
    reset();
    assert_eq!(gauge("stale.level"), None, "reset must clear gauges");
    assert_eq!(
        add_gauge("stale.accum", 1.0),
        1.0,
        "post-reset adds start from zero, not the stale level"
    );
    let snap = snapshot();
    set_enabled(false);
    assert_eq!(snap.gauges.len(), 1);
    assert_eq!(snap.gauges["stale.accum"], 1.0);
}

/// Flight-recorder samples (`metrics.sample` events) render as counter
/// timelines in the Chrome export: one ph:"C" event per numeric field
/// per sample, named by the field — not as instant events.
#[test]
fn metrics_sample_events_become_counter_timelines() {
    let _lock = fresh();
    for tick in 0..3u64 {
        event(
            METRICS_SAMPLE_EVENT,
            &[
                ("rss_bytes", FieldValue::U64(1000 + tick)),
                ("exec.queue_depth", FieldValue::F64(5.0 - tick as f64)),
                ("host", FieldValue::Str("ignored".to_string())),
            ],
        );
    }
    let snap = snapshot();
    set_enabled(false);
    let trace = parse(&snap.to_chrome_trace()).expect("chrome trace parses");
    let Some(Value::Arr(events)) = trace.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    let series: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("exec.queue_depth"))
        .collect();
    assert_eq!(series.len(), 3, "one counter event per sample");
    assert!(series
        .iter()
        .all(|e| e.get("ph").and_then(Value::as_str) == Some("C")));
    let values: Vec<f64> = series
        .iter()
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("value"))
                .and_then(Value::as_num)
        })
        .collect();
    assert_eq!(values, vec![5.0, 4.0, 3.0]);
    assert_eq!(
        events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("rss_bytes"))
            .count(),
        3
    );
    assert!(
        !events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some(METRICS_SAMPLE_EVENT)),
        "samples must not also render as instant events"
    );
    // The JSONL journal still carries the raw sample events.
    assert_eq!(
        snap.to_jsonl().matches(METRICS_SAMPLE_EVENT).count(),
        3,
        "journal keeps the raw records"
    );
}

#[test]
fn histogram_quantiles_track_a_known_distribution() {
    let _lock = fresh();
    for i in 1..=1000 {
        observe("latency", f64::from(i));
    }
    observe("signed", -40.0);
    observe("signed", 0.0);
    observe("signed", 40.0);
    let snap = snapshot();
    set_enabled(false);

    // The sketch guarantees ≤ ~9% relative error per bucket.
    let h = &snap.histograms["latency"];
    assert!((h.p50() - 500.0).abs() / 500.0 < 0.10, "p50 = {}", h.p50());
    assert!((h.p90() - 900.0).abs() / 900.0 < 0.10, "p90 = {}", h.p90());
    assert!((h.p99() - 990.0).abs() / 990.0 < 0.10, "p99 = {}", h.p99());
    assert!(h.quantile(0.0) >= h.min && h.quantile(1.0) <= h.max);

    // Negative and zero observations land on the correct side of zero.
    let s = &snap.histograms["signed"];
    assert!(
        (s.quantile(0.0) + 40.0).abs() / 40.0 < 0.10,
        "{}",
        s.quantile(0.0)
    );
    assert_eq!(s.p50(), 0.0);
    assert!(
        (s.quantile(1.0) - 40.0).abs() / 40.0 < 0.10,
        "{}",
        s.quantile(1.0)
    );
}

#[test]
fn jsonl_includes_events_and_drop_marker() {
    let _lock = fresh();
    event(
        "decision \"quoted\"\\",
        &[
            ("text", FieldValue::from("line\nbreak")),
            ("nan", FieldValue::from(f64::NAN)),
        ],
    );
    let snap = snapshot();
    set_enabled(false);
    let jsonl = snap.to_jsonl();
    let line = jsonl
        .lines()
        .find(|l| l.contains("\"type\":\"event\""))
        .expect("event line present");
    let v = parse(line).expect("event line parses");
    assert_eq!(
        v.get("name").and_then(Value::as_str),
        Some("decision \"quoted\"\\")
    );
    let fields = v.get("fields").expect("fields object");
    assert_eq!(
        fields.get("text").and_then(Value::as_str),
        Some("line\nbreak")
    );
    assert!(
        matches!(fields.get("nan"), Some(Value::Null)),
        "non-finite floats serialize as null"
    );
}

#[test]
fn chrome_trace_escapes_names_and_parses() {
    let _lock = fresh();
    {
        let _s = span("phase \"x\"\\\n");
        event("note\t", &[("msg", FieldValue::from("say \"hi\"\\"))]);
    }
    let snap = snapshot();
    set_enabled(false);
    let trace = snap.to_chrome_trace();
    let v = parse(&trace).expect("chrome trace is valid JSON");
    let Some(Value::Arr(events)) = v.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert!(events
        .iter()
        .any(|e| e.get("name").and_then(Value::as_str) == Some("phase \"x\"\\\n")));
    let note = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("note\t"))
        .expect("instant event present");
    assert_eq!(note.get("ph").and_then(Value::as_str), Some("i"));
    assert_eq!(
        note.get("args")
            .and_then(|a| a.get("msg"))
            .and_then(Value::as_str),
        Some("say \"hi\"\\")
    );
}

#[test]
fn chrome_trace_timestamps_are_monotone() {
    let _lock = fresh();
    for i in 0..5 {
        let _s = span("step");
        event("tick", &[("i", FieldValue::from(i as u64))]);
    }
    counter("steps", 5);
    let snap = snapshot();
    set_enabled(false);
    let v = parse(&snap.to_chrome_trace()).expect("chrome trace parses");
    let Some(Value::Arr(events)) = v.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    let ts: Vec<f64> = events
        .iter()
        .filter_map(|e| e.get("ts").and_then(Value::as_num))
        .collect();
    assert!(ts.len() >= 11, "5 spans + 5 instants + 1 counter");
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "trace events must be sorted by timestamp: {ts:?}"
    );
}

#[test]
fn macros_expand_to_the_collector_calls() {
    let _lock = fresh();
    {
        let _s = paqoc_telemetry::span!("macro_span");
        paqoc_telemetry::counter!("macro.default_delta");
        paqoc_telemetry::counter!("macro.explicit_delta", 5);
    }
    let snap = snapshot();
    set_enabled(false);
    assert_eq!(snap.spans_named("macro_span").len(), 1);
    assert_eq!(snap.counters["macro.default_delta"], 1);
    assert_eq!(snap.counters["macro.explicit_delta"], 5);
}

#[test]
fn kernel_probes_attribute_counts_dims_and_allocs() {
    let _lock = fresh();
    {
        let _s = span("compile");
        {
            paqoc_telemetry::kernel_probe!("test.expm", 4);
            {
                paqoc_telemetry::kernel_probe!("test.matmul", 4);
            }
            {
                paqoc_telemetry::kernel_probe!("test.matmul", 4);
            }
            paqoc_telemetry::kernel_alloc("test.expm", 9, 9 * 256);
        }
        {
            paqoc_telemetry::kernel_probe!("test.matmul", 8);
        }
    }
    let snap = snapshot();
    set_enabled(false);

    let expm = &snap.kernels["test.expm"];
    assert_eq!(expm.calls, 1);
    assert_eq!(expm.allocs, 9);
    assert_eq!(expm.alloc_bytes, 9 * 256);

    let matmul = &snap.kernels["test.matmul"];
    assert_eq!(matmul.calls, 3);
    assert_eq!(matmul.by_dim[&4].calls, 2);
    assert_eq!(matmul.by_dim[&8].calls, 1);
    assert_eq!(matmul.by_dim[&4].hist.count, 2, "per-dim latency sketch");

    // The 4×4 matmuls ran inside the expm probe; the 8×8 one did not.
    let nested = snap
        .kernel_sites
        .iter()
        .find(|s| s.name == "test.matmul" && s.dim == 4)
        .expect("nested matmul site");
    assert_eq!(nested.parent, Some(("test.expm".to_string(), 4)));
    let top = snap
        .kernel_sites
        .iter()
        .find(|s| s.name == "test.matmul" && s.dim == 8)
        .expect("top-level matmul site");
    assert_eq!(top.parent, None);

    // Self-time: expm total minus the nested matmul time, exactly.
    assert_eq!(
        expm.total_ns - expm.self_ns,
        matmul.by_dim[&4].total_ns,
        "nested kernel time subtracts from the parent's self time"
    );

    // Every probe ran under the compile span.
    let span_id = snap.spans_named("compile")[0].id;
    assert!(snap.kernel_sites.iter().all(|s| s.span == Some(span_id)));
}

#[test]
fn reset_clears_kernel_probe_state() {
    let _lock = fresh();
    {
        paqoc_telemetry::kernel_probe!("stale.kernel", 4);
    }
    paqoc_telemetry::kernel_alloc("stale.kernel", 1, 1024);
    assert!(
        snapshot().kernels.contains_key("stale.kernel"),
        "probe recorded before the reset"
    );
    // A guard held across a reset belongs to the wiped epoch: it must
    // record nothing (mirroring the span-stack generation guarantee).
    let held = paqoc_telemetry::kernel_enter("stale.held", 2);
    reset();
    drop(held);
    {
        paqoc_telemetry::kernel_probe!("fresh.kernel", 2);
    }
    let snap = snapshot();
    set_enabled(false);
    assert!(
        !snap.kernels.contains_key("stale.kernel"),
        "reset must clear kernel counters, histograms and alloc gauges"
    );
    assert!(
        !snap.kernels.contains_key("stale.held"),
        "a probe spanning a reset records nothing"
    );
    assert_eq!(
        snap.kernels["fresh.kernel"].calls, 1,
        "post-reset counts start from zero"
    );
    assert!(snap.kernel_sites.iter().all(|s| s.name == "fresh.kernel"));
}

#[test]
fn collapsed_stacks_fold_spans_and_kernels() {
    use paqoc_telemetry::{KernelSite, Snapshot, SpanRecord};
    // Synthetic snapshot: deterministic durations, hostile names.
    let spans = vec![
        SpanRecord {
            id: 1,
            parent: None,
            name: "compile".into(),
            thread: 0,
            start_ns: 0,
            duration_ns: 10_000_000,
        },
        SpanRecord {
            id: 2,
            parent: Some(1),
            name: "grape; evil\tname".into(),
            thread: 0,
            start_ns: 0,
            duration_ns: 8_000_000,
        },
    ];
    let kernel_sites = vec![
        KernelSite {
            span: Some(2),
            parent: None,
            name: "expm".into(),
            dim: 4,
            calls: 10,
            total_ns: 3_000_000,
        },
        KernelSite {
            span: Some(2),
            parent: Some(("expm".to_string(), 4)),
            name: "matmul".into(),
            dim: 4,
            calls: 30,
            total_ns: 2_000_000,
        },
    ];
    let snap = Snapshot {
        spans,
        kernel_sites,
        ..Default::default()
    };
    let out = snap.to_collapsed_stacks();
    let lines: Vec<&str> = out.lines().collect();
    // Span self-times: compile 10ms − 8ms child; the grape span sheds
    // its 3ms of top-level kernel time. Hostile `;`/whitespace become
    // `_` so they cannot forge frames.
    assert!(lines.contains(&"compile 2000"), "lines: {lines:?}");
    assert!(lines.contains(&"compile;grape__evil_name 5000"));
    // Kernel self-times nest under the span path and the parent probe.
    assert!(lines.contains(&"compile;grape__evil_name;expm(4x4) 1000"));
    assert!(lines.contains(&"compile;grape__evil_name;expm(4x4);matmul(4x4) 2000"));
    assert_eq!(lines.len(), 4);
    // Structural invariant: exactly one space per line, integer value.
    for line in &lines {
        let (path, value) = line.rsplit_once(' ').expect("frame/value separator");
        assert!(!path.contains(' '), "no whitespace inside frames: {line}");
        value.parse::<u64>().expect("integer self-microseconds");
    }
}

#[test]
fn chrome_trace_renders_kernel_counter_track() {
    let _lock = fresh();
    {
        let _s = span("compile");
        paqoc_telemetry::kernel_probe!("evil\"kernel;name", 4);
    }
    paqoc_telemetry::kernel_alloc("evil\"kernel;name", 2, 512);
    let snap = snapshot();
    set_enabled(false);

    let chrome = snap.to_chrome_trace();
    let doc = parse(&chrome).expect("chrome trace with kernel track parses");
    assert_eq!(
        doc.get("paqocTraceSchema").and_then(Value::as_num),
        Some(paqoc_telemetry::TRACE_SCHEMA as f64)
    );
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents array");
    };
    let kernel_events: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("cat").and_then(Value::as_str) == Some("kernel"))
        .collect();
    // One per-dimension sample plus one allocation sample.
    assert_eq!(kernel_events.len(), 2);
    let dim_sample = kernel_events
        .iter()
        .find(|e| e.get("args").and_then(|a| a.get("dim")).is_some())
        .expect("per-dim kernel counter");
    let args = dim_sample.get("args").expect("args");
    assert_eq!(
        args.get("kernel").and_then(Value::as_str),
        Some("evil\"kernel;name"),
        "the raw kernel name rides in args, JSON-escaped"
    );
    assert_eq!(args.get("dim").and_then(Value::as_num), Some(4.0));
    assert_eq!(args.get("calls").and_then(Value::as_num), Some(1.0));
    let alloc_sample = kernel_events
        .iter()
        .find(|e| e.get("args").and_then(|a| a.get("allocs")).is_some())
        .expect("alloc kernel counter");
    let args = alloc_sample.get("args").expect("args");
    assert_eq!(args.get("allocs").and_then(Value::as_num), Some(2.0));
    assert_eq!(args.get("alloc_bytes").and_then(Value::as_num), Some(512.0));
}

/// The JSONL trace is the serialized snapshot: reading it back and
/// writing again gives the same text, and the kernel aggregates read
/// back are the recorded ones.
#[test]
fn jsonl_reads_back_into_the_snapshot_it_was_written_from() {
    let _lock = fresh();
    {
        let outer = span("compile \"q\"");
        let _mine = span("mine");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _worker = paqoc_telemetry::span_with_parent("worker", outer.id());
                let _job = span("job");
                paqoc_telemetry::kernel_probe!("test.matmul", 8);
            });
        });
        {
            paqoc_telemetry::kernel_probe!("test.expm", 4);
            for _ in 0..3 {
                paqoc_telemetry::kernel_probe!("test.matmul", 4);
            }
            paqoc_telemetry::kernel_alloc("test.expm", 9, 9 * 256);
        }
        paqoc_telemetry::kernel_alloc("test.alloc_only", 2, 64);
    }
    counter("roundtrip.count", 7);
    set_gauge("roundtrip.level", -2.5);
    set_gauge("roundtrip.nan", f64::NAN);
    for v in [-40.0, -0.5, 0.0, 1e-9, 3.0, 1e12] {
        observe("roundtrip.signed", v);
    }
    observe("roundtrip.with_nan", 2.0);
    observe("roundtrip.with_nan", f64::NAN);
    event(
        "every kind",
        &[
            ("u", FieldValue::U64(3)),
            ("i", FieldValue::I64(-4)),
            ("f", FieldValue::F64(2.5)),
            ("integral", FieldValue::F64(6.0)),
            ("nan", FieldValue::F64(f64::NAN)),
            ("b", FieldValue::Bool(true)),
            ("s", FieldValue::Str("a\"b\nc".to_string())),
        ],
    );
    for i in 0..EVENT_CAPACITY + 3 {
        event("flood", &[("i", FieldValue::from(i))]);
    }
    let snap = snapshot();
    set_enabled(false);
    assert_eq!(
        snap.events_dropped, 4,
        "the flood evicted the oldest events"
    );

    let text = snap.to_jsonl();
    let back = Snapshot::from_jsonl(&text).expect("the trace reads back");
    assert_eq!(back.to_jsonl(), text, "writing the read-back snapshot");
    assert_eq!(back.spans, snap.spans);
    assert_eq!(back.counters, snap.counters);
    assert_eq!(back.kernel_sites, snap.kernel_sites);
    assert_eq!(
        back.histograms["roundtrip.signed"],
        snap.histograms["roundtrip.signed"]
    );
    let (with_nan, recorded) = (
        &back.histograms["roundtrip.with_nan"],
        &snap.histograms["roundtrip.with_nan"],
    );
    assert!(with_nan.sum.is_nan() && recorded.sum.is_nan());
    assert_eq!(
        (
            with_nan.count,
            with_nan.min,
            with_nan.max,
            with_nan.p50(),
            with_nan.p99()
        ),
        (
            recorded.count,
            recorded.min,
            recorded.max,
            recorded.p50(),
            recorded.p99()
        )
    );
    assert!(back.gauges["roundtrip.nan"].is_nan());
    assert_eq!(back.events.len(), EVENT_CAPACITY);
    assert_eq!(back.events_dropped, snap.events_dropped);

    assert_eq!(
        back.kernels.keys().collect::<Vec<_>>(),
        snap.kernels.keys().collect::<Vec<_>>()
    );
    for (name, k) in &snap.kernels {
        let b = &back.kernels[name];
        assert_eq!(
            (b.calls, b.total_ns, b.self_ns, b.allocs, b.alloc_bytes),
            (k.calls, k.total_ns, k.self_ns, k.allocs, k.alloc_bytes),
            "kernel {name}"
        );
        assert_eq!(
            b.by_dim.keys().collect::<Vec<_>>(),
            k.by_dim.keys().collect::<Vec<_>>()
        );
        for (dim, d) in &k.by_dim {
            let bd = &b.by_dim[dim];
            assert_eq!(
                (bd.calls, bd.total_ns, bd.self_ns),
                (d.calls, d.total_ns, d.self_ns)
            );
            assert_eq!(
                [bd.hist.p50(), bd.hist.p90(), bd.hist.p99()],
                [d.hist.p50(), d.hist.p90(), d.hist.p99()],
                "kernel {name} at {dim}x{dim}"
            );
        }
    }
    assert!(snap.kernels["test.expm"].self_ns < snap.kernels["test.expm"].total_ns);
    assert_eq!(snap.kernels["test.alloc_only"].allocs, 2);

    // Only a JSONL trace of this schema reads back.
    let schema = format!("\"trace_schema\":{}", paqoc_telemetry::TRACE_SCHEMA);
    for (refused, what) in [
        (snap.to_chrome_trace(), "a Chrome export"),
        (
            text.replacen(&schema, "\"trace_schema\":1", 1),
            "another schema",
        ),
        (String::new(), "an empty file"),
    ] {
        let err = Snapshot::from_jsonl(&refused).expect_err(what);
        assert!(err.contains("PAQOC_TRACE=<path>.jsonl"), "{what}: {err}");
    }
}
