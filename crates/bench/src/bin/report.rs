//! Offline flight-recorder analysis.
//!
//! `report` post-processes `PAQOC_TRACE` journal dumps (JSON Lines or
//! Chrome trace format) without re-running anything:
//!
//! * `report jobs TRACE [--top N]` — the N slowest executor jobs, from
//!   `exec.job` journal events (their `wall_us` field).
//! * `report phases TRACE` — per-phase wall/self time aggregated over
//!   the span tree, plus the critical path (the longest root-to-leaf
//!   span chain).
//! * `report workers TRACE` — per-worker utilization table from
//!   `exec.worker` events (busy/idle split, job counts) and a stall
//!   summary from `exec.stall` events.
//! * `report hotspots TRACE [--top N] [--baseline TRACE]` — ranks the
//!   numeric kernels (`mathkit.expm`, `grape.gradient`, …) by
//!   self-time from the trace's kernel-probe records, with per-matrix-
//!   dimension breakdowns (calls, p50/p90/p99) and an optional
//!   CURRENT-vs-BASELINE self-time diff.
//! * `report flame TRACE` — folds the span tree and kernel call sites
//!   into collapsed-stack lines (`frame;frame value`, value =
//!   self-microseconds) for inferno / speedscope / flamegraph.pl.
//!   Kernel sites ride only in JSONL traces; Chrome exports fold spans
//!   alone.
//!
//! Schema gating: traces written by a *newer* revision (JSONL
//! `trace_meta.trace_schema`, Chrome `paqocTraceSchema`) are rejected
//! with a clear message and a non-zero exit instead of being silently
//! misread.

use paqoc_telemetry::json::{self, Value};
use paqoc_telemetry::{KernelSite, Snapshot, SpanRecord, TRACE_SCHEMA};
use std::collections::BTreeMap;

/// A span record, unified across the JSONL and Chrome-trace formats.
struct SpanRec {
    id: u64,
    parent: Option<u64>,
    name: String,
    duration_ns: u64,
}

/// A journal event with its typed fields flattened to parsed JSON.
struct EventRec {
    name: String,
    fields: BTreeMap<String, Value>,
}

/// Per-(kernel, dimension) aggregate parsed back out of a trace.
#[derive(Clone, Copy, Default)]
struct KernelDimRow {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
}

/// Per-kernel aggregate parsed back out of a trace.
#[derive(Clone, Default)]
struct KernelRow {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

struct Trace {
    spans: Vec<SpanRec>,
    events: Vec<EventRec>,
    /// Kernel call sites (JSONL traces only; feeds `report flame`).
    kernel_sites: Vec<KernelSite>,
    /// Per-(kernel, dim) rows, from `kernel_dim` lines or Chrome
    /// kernel counter tracks.
    kernel_dims: BTreeMap<(String, u64), KernelDimRow>,
    /// Per-kernel totals, from `kernel_total` lines or summed Chrome
    /// counter tracks.
    kernel_totals: BTreeMap<String, KernelRow>,
}

fn num_u64(v: Option<&Value>) -> Option<u64> {
    v.and_then(Value::as_num)
        .filter(|n| n.is_finite() && *n >= 0.0)
        .map(|n| n as u64)
}

/// Loads a trace dump, auto-detecting the format: a single JSON object
/// with `traceEvents` is Chrome trace format, anything else is treated
/// as the JSONL journal export.
fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if let Ok(doc) = json::parse(text.trim()) {
        if let Some(Value::Arr(events)) = doc.get("traceEvents") {
            if let Some(v) = num_u64(doc.get("paqocTraceSchema")) {
                if v > TRACE_SCHEMA {
                    return Err(format!(
                        "{path}: trace schema v{v} is newer than this report understands \
                         (max v{TRACE_SCHEMA}) — rebuild report from the matching revision"
                    ));
                }
            }
            return Ok(from_chrome(events));
        }
    }
    from_jsonl(&text)
}

fn from_chrome(events: &[Value]) -> Trace {
    let mut spans = Vec::new();
    let mut journal = Vec::new();
    let mut kernel_dims: BTreeMap<(String, u64), KernelDimRow> = BTreeMap::new();
    let mut kernel_totals: BTreeMap<String, KernelRow> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        // Timestamps are microseconds with fractional nanoseconds.
        let ts_to_ns = |key: &str| -> u64 {
            e.get(key)
                .and_then(Value::as_num)
                .filter(|n| n.is_finite() && *n >= 0.0)
                .map(|us| (us * 1_000.0).round() as u64)
                .unwrap_or(0)
        };
        let name = e.get("name").and_then(Value::as_str).unwrap_or("");
        match ph {
            "X" => spans.push(SpanRec {
                id: num_u64(e.get("args").and_then(|a| a.get("id"))).unwrap_or(0),
                parent: num_u64(e.get("args").and_then(|a| a.get("parent"))),
                name: name.to_string(),
                duration_ns: ts_to_ns("dur"),
            }),
            "i" => {
                let fields = match e.get("args") {
                    Some(Value::Obj(map)) => map.clone(),
                    _ => BTreeMap::new(),
                };
                journal.push(EventRec {
                    name: name.to_string(),
                    fields,
                });
            }
            // The kernel counter tracks carry the raw (unsanitized)
            // kernel name in args, so hostile display names round-trip.
            "C" if e.get("cat").and_then(Value::as_str) == Some("kernel") => {
                let args = e.get("args");
                let get = |k: &str| num_u64(args.and_then(|a| a.get(k))).unwrap_or(0);
                let Some(kernel) = args.and_then(|a| a.get("kernel")).and_then(Value::as_str)
                else {
                    continue;
                };
                if args.and_then(|a| a.get("dim")).is_some() {
                    let row = kernel_dims
                        .entry((kernel.to_string(), get("dim")))
                        .or_default();
                    row.calls += get("calls");
                    row.total_ns += get("total_ns");
                    row.self_ns += get("self_ns");
                    let tot = kernel_totals.entry(kernel.to_string()).or_default();
                    tot.calls += get("calls");
                    tot.total_ns += get("total_ns");
                    tot.self_ns += get("self_ns");
                } else {
                    let tot = kernel_totals.entry(kernel.to_string()).or_default();
                    tot.allocs += get("allocs");
                    tot.alloc_bytes += get("alloc_bytes");
                }
            }
            _ => {}
        }
    }
    Trace {
        spans,
        events: journal,
        kernel_sites: Vec::new(),
        kernel_dims,
        kernel_totals,
    }
}

fn from_jsonl(text: &str) -> Result<Trace, String> {
    let mut spans = Vec::new();
    let mut journal = Vec::new();
    let mut kernel_sites = Vec::new();
    let mut kernel_dims: BTreeMap<(String, u64), KernelDimRow> = BTreeMap::new();
    let mut kernel_totals: BTreeMap<String, KernelRow> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match v.get("type").and_then(Value::as_str) {
            Some("span") => spans.push(SpanRec {
                id: num_u64(v.get("id")).unwrap_or(0),
                parent: num_u64(v.get("parent")),
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                duration_ns: num_u64(v.get("duration_ns")).unwrap_or(0),
            }),
            Some("event") => {
                let fields = match v.get("fields") {
                    Some(Value::Obj(map)) => map.clone(),
                    _ => BTreeMap::new(),
                };
                journal.push(EventRec {
                    name: v
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    fields,
                });
            }
            Some("trace_meta") => {
                if let Some(schema) = num_u64(v.get("trace_schema")) {
                    if schema > TRACE_SCHEMA {
                        return Err(format!(
                            "trace schema v{schema} is newer than this report understands \
                             (max v{TRACE_SCHEMA}) — rebuild report from the matching revision"
                        ));
                    }
                }
            }
            Some("kernel") => {
                let name = v.get("name").and_then(Value::as_str).unwrap_or("");
                let parent = v.get("parent").and_then(Value::as_str).map(|p| {
                    (
                        p.to_string(),
                        num_u64(v.get("parent_dim")).unwrap_or(0) as u32,
                    )
                });
                kernel_sites.push(KernelSite {
                    span: num_u64(v.get("span")),
                    parent,
                    name: name.to_string(),
                    dim: num_u64(v.get("dim")).unwrap_or(0) as u32,
                    calls: num_u64(v.get("calls")).unwrap_or(0),
                    total_ns: num_u64(v.get("total_ns")).unwrap_or(0),
                });
            }
            Some("kernel_dim") => {
                let name = v.get("name").and_then(Value::as_str).unwrap_or("");
                let key = (name.to_string(), num_u64(v.get("dim")).unwrap_or(0));
                let row = kernel_dims.entry(key).or_default();
                row.calls += num_u64(v.get("calls")).unwrap_or(0);
                row.total_ns += num_u64(v.get("total_ns")).unwrap_or(0);
                row.self_ns += num_u64(v.get("self_ns")).unwrap_or(0);
                row.p50_ns = row.p50_ns.max(num_u64(v.get("p50_ns")).unwrap_or(0));
                row.p90_ns = row.p90_ns.max(num_u64(v.get("p90_ns")).unwrap_or(0));
                row.p99_ns = row.p99_ns.max(num_u64(v.get("p99_ns")).unwrap_or(0));
            }
            Some("kernel_total") => {
                let name = v.get("name").and_then(Value::as_str).unwrap_or("");
                let row = kernel_totals.entry(name.to_string()).or_default();
                row.calls += num_u64(v.get("calls")).unwrap_or(0);
                row.total_ns += num_u64(v.get("total_ns")).unwrap_or(0);
                row.self_ns += num_u64(v.get("self_ns")).unwrap_or(0);
                row.allocs += num_u64(v.get("allocs")).unwrap_or(0);
                row.alloc_bytes += num_u64(v.get("alloc_bytes")).unwrap_or(0);
            }
            _ => {}
        }
    }
    Ok(Trace {
        spans,
        events: journal,
        kernel_sites,
        kernel_dims,
        kernel_totals,
    })
}

/// `report jobs`: the slowest executor jobs by their `wall_us` field.
fn cmd_jobs(trace: &Trace, top: usize) {
    let mut jobs: Vec<&EventRec> = trace
        .events
        .iter()
        .filter(|e| e.name == "exec.job" && e.fields.contains_key("wall_us"))
        .collect();
    if jobs.is_empty() {
        println!("report: no exec.job events with wall_us in this trace");
        println!("(run with telemetry enabled, e.g. PAQOC_TRACE=trace.jsonl profile qaoa)");
        return;
    }
    jobs.sort_by(|a, b| {
        let wa = num_u64(a.fields.get("wall_us")).unwrap_or(0);
        let wb = num_u64(b.fields.get("wall_us")).unwrap_or(0);
        wb.cmp(&wa)
    });
    println!(
        "{:>4} {:>12} {:>8} {:>6} {:>14} {:<12}",
        "#", "wall_ms", "worker", "arity", "priority", "outcome"
    );
    for (rank, e) in jobs.iter().take(top).enumerate() {
        let wall_us = num_u64(e.fields.get("wall_us")).unwrap_or(0);
        println!(
            "{:>4} {:>12.3} {:>8} {:>6} {:>14.1} {:<12}",
            rank + 1,
            wall_us as f64 / 1_000.0,
            num_u64(e.fields.get("worker")).unwrap_or(0),
            num_u64(e.fields.get("arity")).unwrap_or(0),
            e.fields
                .get("priority")
                .and_then(Value::as_num)
                .unwrap_or(0.0),
            e.fields
                .get("outcome")
                .and_then(Value::as_str)
                .unwrap_or("?"),
        );
    }
    println!("({} exec.job events total)", jobs.len());
}

/// `report phases`: per-span-name totals with self time (duration minus
/// direct children), plus the longest root-to-leaf chain.
fn cmd_phases(trace: &Trace) {
    if trace.spans.is_empty() {
        println!("report: no spans in this trace (is tracing enabled?)");
        return;
    }
    // Sum of each parent's direct children, for self-time.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &trace.spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.duration_ns;
        }
    }
    let known: std::collections::HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
    let mut agg: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    let mut root_total = 0u64;
    for s in &trace.spans {
        let self_ns = s
            .duration_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let entry = agg.entry(s.name.as_str()).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += s.duration_ns;
        entry.2 += self_ns;
        if s.parent.is_none_or(|p| !known.contains(&p)) {
            root_total += s.duration_ns;
        }
    }
    let mut rows: Vec<(&str, usize, u64, u64)> =
        agg.into_iter().map(|(k, v)| (k, v.0, v.1, v.2)).collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    println!(
        "{:<32} {:>8} {:>12} {:>12} {:>7}",
        "phase", "count", "total_ms", "self_ms", "self%"
    );
    for (name, count, total, self_ns) in &rows {
        let share = if root_total == 0 {
            0.0
        } else {
            100.0 * *self_ns as f64 / root_total as f64
        };
        println!(
            "{:<32} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            count,
            *total as f64 / 1e6,
            *self_ns as f64 / 1e6,
            share
        );
    }

    // Critical path: from the longest root, repeatedly descend into the
    // longest direct child.
    let mut current = trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none_or(|p| !known.contains(&p)))
        .max_by_key(|s| s.duration_ns);
    println!("\ncritical path (longest child chain):");
    let mut depth = 0;
    while let Some(span) = current {
        println!(
            "{:indent$}{} — {:.3} ms",
            "",
            span.name,
            span.duration_ns as f64 / 1e6,
            indent = depth * 2
        );
        depth += 1;
        current = trace
            .spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .max_by_key(|s| s.duration_ns);
    }
}

/// `report workers`: per-worker utilization aggregated over every
/// `exec.worker` event (one per worker per batch), plus stalls.
fn cmd_workers(trace: &Trace) {
    #[derive(Default)]
    struct Acc {
        batches: usize,
        jobs: u64,
        busy_us: u64,
        idle_us: u64,
        wall_us: u64,
    }
    let mut per_worker: BTreeMap<u64, Acc> = BTreeMap::new();
    for e in trace.events.iter().filter(|e| e.name == "exec.worker") {
        let get = |k: &str| num_u64(e.fields.get(k)).unwrap_or(0);
        let acc = per_worker.entry(get("worker")).or_default();
        acc.batches += 1;
        acc.jobs += get("jobs");
        acc.busy_us += get("busy_us");
        acc.idle_us += get("idle_us");
        acc.wall_us += get("wall_us");
    }
    if per_worker.is_empty() {
        println!("report: no exec.worker events in this trace");
        return;
    }
    println!(
        "{:>6} {:>8} {:>6} {:>12} {:>12} {:>12} {:>6}",
        "worker", "batches", "jobs", "busy_ms", "idle_ms", "wall_ms", "util"
    );
    for (worker, acc) in &per_worker {
        let util = if acc.wall_us == 0 {
            0.0
        } else {
            100.0 * acc.busy_us as f64 / acc.wall_us as f64
        };
        println!(
            "{:>6} {:>8} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>5.1}%",
            worker,
            acc.batches,
            acc.jobs,
            acc.busy_us as f64 / 1e3,
            acc.idle_us as f64 / 1e3,
            acc.wall_us as f64 / 1e3,
            util
        );
    }
    let stalls: Vec<&EventRec> = trace
        .events
        .iter()
        .filter(|e| e.name == "exec.stall")
        .collect();
    println!("\nstalls flagged: {}", stalls.len());
    for e in stalls.iter().take(10) {
        println!(
            "  worker {} key {} — {} ms elapsed vs {} ms budget",
            num_u64(e.fields.get("worker")).unwrap_or(0),
            e.fields.get("key").and_then(Value::as_str).unwrap_or("?"),
            num_u64(e.fields.get("elapsed_ms")).unwrap_or(0),
            num_u64(e.fields.get("budget_ms")).unwrap_or(0),
        );
    }
}

/// `report hotspots`: kernels ranked by self-time, with per-dimension
/// breakdowns and an optional baseline-trace diff.
fn cmd_hotspots(trace: &Trace, baseline: Option<&Trace>, top: usize) {
    if trace.kernel_totals.is_empty() {
        println!("report: no kernel-probe data in this trace");
        println!("(run with tracing enabled, e.g. PAQOC_TRACE=trace.jsonl, which arms the probes)");
        return;
    }
    let mut rows: Vec<(&String, &KernelRow)> = trace.kernel_totals.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let total_self: u64 = rows.iter().map(|(_, r)| r.self_ns).sum();
    println!(
        "{:<24} {:>10} {:>11} {:>11} {:>6} {:>8} {:>10}{}",
        "kernel",
        "calls",
        "self_ms",
        "total_ms",
        "self%",
        "allocs",
        "alloc_kb",
        if baseline.is_some() {
            format!("  {:>11} {:>8}", "base_ms", "delta")
        } else {
            String::new()
        }
    );
    for (name, row) in rows.iter().take(top) {
        let share = if total_self == 0 {
            0.0
        } else {
            100.0 * row.self_ns as f64 / total_self as f64
        };
        let diff = baseline
            .map(|b| match b.kernel_totals.get(*name) {
                Some(base) if base.self_ns > 0 => {
                    let rel = (row.self_ns as f64 - base.self_ns as f64) / base.self_ns as f64;
                    format!(
                        "  {:>11.3} {:>+7.1}%",
                        base.self_ns as f64 / 1e6,
                        rel * 100.0
                    )
                }
                _ => format!("  {:>11} {:>8}", "-", "new"),
            })
            .unwrap_or_default();
        println!(
            "{:<24} {:>10} {:>11.3} {:>11.3} {:>5.1}% {:>8} {:>10.1}{diff}",
            name,
            row.calls,
            row.self_ns as f64 / 1e6,
            row.total_ns as f64 / 1e6,
            share,
            row.allocs,
            row.alloc_bytes as f64 / 1024.0,
        );
        for ((dim_name, dim), d) in &trace.kernel_dims {
            if dim_name != *name {
                continue;
            }
            println!(
                "  {:<22} {:>10} {:>11.3} {:>11.3}        p50/p90/p99 {:.1}/{:.1}/{:.1} us",
                format!("{dim}x{dim}"),
                d.calls,
                d.self_ns as f64 / 1e6,
                d.total_ns as f64 / 1e6,
                d.p50_ns as f64 / 1e3,
                d.p90_ns as f64 / 1e3,
                d.p99_ns as f64 / 1e3,
            );
        }
    }
    if let Some(b) = baseline {
        for (name, base) in &b.kernel_totals {
            if !trace.kernel_totals.contains_key(name) {
                println!(
                    "{:<24} gone (baseline self {:.3} ms)",
                    name,
                    base.self_ns as f64 / 1e6
                );
            }
        }
    }
    println!(
        "({} kernel(s), {:.3} ms total self time)",
        rows.len(),
        total_self as f64 / 1e6
    );
}

/// `report flame`: collapsed-stack export of the span tree plus kernel
/// call sites, for inferno / speedscope / flamegraph.pl.
fn cmd_flame(trace: &Trace) {
    let snap = Snapshot {
        spans: trace
            .spans
            .iter()
            .map(|s| SpanRecord {
                id: s.id,
                parent: s.parent,
                name: s.name.clone(),
                thread: 0,
                start_ns: 0,
                duration_ns: s.duration_ns,
            })
            .collect(),
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
        histograms: BTreeMap::new(),
        events: Vec::new(),
        events_dropped: 0,
        kernel_sites: trace.kernel_sites.clone(),
        kernels: BTreeMap::new(),
    };
    let folded = snap.to_collapsed_stacks();
    if folded.is_empty() {
        eprintln!(
            "report: nothing to fold — no spans or kernel sites in this trace \
             (kernel sites ride only in JSONL exports)"
        );
        return;
    }
    print!("{folded}");
}

fn usage() -> ! {
    eprintln!(
        "usage: report jobs TRACE [--top N]\n\
         \x20      report phases TRACE\n\
         \x20      report workers TRACE\n\
         \x20      report hotspots TRACE [--top N] [--baseline TRACE]\n\
         \x20      report flame TRACE"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
    };
    match cmd.as_str() {
        "jobs" | "phases" | "workers" | "hotspots" | "flame" => {
            let Some(path) = args.get(1) else { usage() };
            let mut top = 10usize;
            let mut baseline: Option<String> = None;
            let mut rest = args[2..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--top" => match rest.next().and_then(|v| v.parse::<usize>().ok()) {
                        Some(n) if n > 0 => top = n,
                        _ => usage(),
                    },
                    "--baseline" if cmd == "hotspots" => match rest.next() {
                        Some(p) => baseline = Some(p.clone()),
                        None => usage(),
                    },
                    _ => usage(),
                }
            }
            let load = |p: &str| match load_trace(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("report: {e}");
                    std::process::exit(1);
                }
            };
            let trace = load(path);
            match cmd.as_str() {
                "jobs" => cmd_jobs(&trace, top),
                "phases" => cmd_phases(&trace),
                "hotspots" => {
                    let base = baseline.as_deref().map(load);
                    cmd_hotspots(&trace, base.as_ref(), top);
                }
                "flame" => cmd_flame(&trace),
                _ => cmd_workers(&trace),
            }
        }
        _ => usage(),
    }
}
