//! Offline flight-recorder analysis.
//!
//! `report` post-processes the JSONL traces `PAQOC_TRACE=<path>.jsonl`
//! dumps without re-running anything. It reads each one back into the
//! [`Snapshot`] it was written from ([`Snapshot::from_jsonl`]) and
//! renders every view from that:
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
//!   self-time, with per-matrix-dimension breakdowns (calls,
//!   p50/p90/p99 from each dimension's latency sketch) and an optional
//!   CURRENT-vs-BASELINE self-time diff.
//! * `report flame TRACE` — folds the span tree and kernel call sites
//!   into collapsed-stack lines (`frame;frame value`, value =
//!   self-microseconds) for inferno / speedscope / flamegraph.pl.
//!
//! A trace of another schema, or a Chrome export (`PAQOC_TRACE=
//! <path>.json`, which is for Perfetto), is refused with a message
//! saying how to record a readable one, and a non-zero exit.

use paqoc_telemetry::{EventRecord, FieldValue, KernelStats, Snapshot};
use std::collections::BTreeMap;

fn load_trace(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Snapshot::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

/// The event field `key`, if the event has it.
fn field<'a>(e: &'a EventRecord, key: &str) -> Option<&'a FieldValue> {
    e.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The event field `key` as a whole non-negative number (a fraction
/// truncates).
fn field_u64(e: &EventRecord, key: &str) -> Option<u64> {
    match field(e, key)? {
        FieldValue::U64(n) => Some(*n),
        FieldValue::I64(n) => u64::try_from(*n).ok(),
        FieldValue::F64(x) if x.is_finite() && *x >= 0.0 => Some(*x as u64),
        _ => None,
    }
}

/// The event field `key` as a finite number.
fn field_f64(e: &EventRecord, key: &str) -> Option<f64> {
    match field(e, key)? {
        FieldValue::U64(n) => Some(*n as f64),
        FieldValue::I64(n) => Some(*n as f64),
        FieldValue::F64(x) if x.is_finite() => Some(*x),
        _ => None,
    }
}

/// The event field `key` as a string.
fn field_str<'a>(e: &'a EventRecord, key: &str) -> Option<&'a str> {
    match field(e, key)? {
        FieldValue::Str(s) => Some(s),
        _ => None,
    }
}

/// `report jobs`: the slowest executor jobs by their `wall_us` field.
fn cmd_jobs(snap: &Snapshot, top: usize) {
    let mut jobs: Vec<&EventRecord> = snap
        .events
        .iter()
        .filter(|e| e.name == "exec.job" && field(e, "wall_us").is_some())
        .collect();
    if jobs.is_empty() {
        println!("report: no exec.job events with wall_us in this trace");
        println!("(run with telemetry enabled, e.g. PAQOC_TRACE=trace.jsonl profile qaoa)");
        return;
    }
    jobs.sort_by_key(|e| std::cmp::Reverse(field_u64(e, "wall_us").unwrap_or(0)));
    println!(
        "{:>4} {:>12} {:>8} {:>6} {:>14} {:<12}",
        "#", "wall_ms", "worker", "arity", "priority", "outcome"
    );
    for (rank, e) in jobs.iter().take(top).enumerate() {
        let wall_us = field_u64(e, "wall_us").unwrap_or(0);
        println!(
            "{:>4} {:>12.3} {:>8} {:>6} {:>14.1} {:<12}",
            rank + 1,
            wall_us as f64 / 1_000.0,
            field_u64(e, "worker").unwrap_or(0),
            field_u64(e, "arity").unwrap_or(0),
            field_f64(e, "priority").unwrap_or(0.0),
            field_str(e, "outcome").unwrap_or("?"),
        );
    }
    println!("({} exec.job events total)", jobs.len());
}

/// `report phases`: per-span-name totals with self time (duration minus
/// direct children), plus the longest root-to-leaf chain.
fn cmd_phases(snap: &Snapshot) {
    if snap.spans.is_empty() {
        println!("report: no spans in this trace (is tracing enabled?)");
        return;
    }
    // Sum of each parent's direct children, for self-time.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &snap.spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0) += s.duration_ns;
        }
    }
    let known: std::collections::HashSet<u64> = snap.spans.iter().map(|s| s.id).collect();
    let mut agg: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    let mut root_total = 0u64;
    for s in &snap.spans {
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
    let mut current = snap
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
        current = snap
            .spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .max_by_key(|s| s.duration_ns);
    }
}

/// `report workers`: per-worker utilization aggregated over every
/// `exec.worker` event (one per worker per batch), plus stalls.
fn cmd_workers(snap: &Snapshot) {
    #[derive(Default)]
    struct Acc {
        batches: usize,
        jobs: u64,
        busy_us: u64,
        idle_us: u64,
        wall_us: u64,
    }
    let mut per_worker: BTreeMap<u64, Acc> = BTreeMap::new();
    for e in snap.events.iter().filter(|e| e.name == "exec.worker") {
        let get = |k: &str| field_u64(e, k).unwrap_or(0);
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
    let stalls: Vec<&EventRecord> = snap
        .events
        .iter()
        .filter(|e| e.name == "exec.stall")
        .collect();
    println!("\nstalls flagged: {}", stalls.len());
    for e in stalls.iter().take(10) {
        println!(
            "  worker {} key {} — {} ms elapsed vs {} ms budget",
            field_u64(e, "worker").unwrap_or(0),
            field_str(e, "key").unwrap_or("?"),
            field_u64(e, "elapsed_ms").unwrap_or(0),
            field_u64(e, "budget_ms").unwrap_or(0),
        );
    }
}

/// `report hotspots`: kernels ranked by self-time, with per-dimension
/// breakdowns and an optional baseline-trace diff.
fn cmd_hotspots(snap: &Snapshot, baseline: Option<&Snapshot>, top: usize) {
    if snap.kernels.is_empty() {
        println!("report: no kernel-probe data in this trace");
        println!("(run with tracing enabled, e.g. PAQOC_TRACE=trace.jsonl, which arms the probes)");
        return;
    }
    let mut rows: Vec<(&String, &KernelStats)> = snap.kernels.iter().collect();
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
            .map(|b| match b.kernels.get(*name) {
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
        for (dim, d) in &row.by_dim {
            // Truncated to whole nanoseconds: the figures `hotspots`
            // has always printed.
            let [p50, p90, p99] = [d.hist.p50(), d.hist.p90(), d.hist.p99()].map(|ns| {
                if ns.is_finite() && ns >= 0.0 {
                    ns as u64
                } else {
                    0
                }
            });
            println!(
                "  {:<22} {:>10} {:>11.3} {:>11.3}        p50/p90/p99 {:.1}/{:.1}/{:.1} us",
                format!("{dim}x{dim}"),
                d.calls,
                d.self_ns as f64 / 1e6,
                d.total_ns as f64 / 1e6,
                p50 as f64 / 1e3,
                p90 as f64 / 1e3,
                p99 as f64 / 1e3,
            );
        }
    }
    if let Some(b) = baseline {
        for (name, base) in &b.kernels {
            if !snap.kernels.contains_key(name) {
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
fn cmd_flame(snap: &Snapshot) {
    let folded = snap.to_collapsed_stacks();
    if folded.is_empty() {
        eprintln!("report: nothing to fold — no spans or kernel sites in this trace");
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
            let snap = load(path);
            match cmd.as_str() {
                "jobs" => cmd_jobs(&snap, top),
                "phases" => cmd_phases(&snap),
                "hotspots" => {
                    let base = baseline.as_deref().map(load);
                    cmd_hotspots(&snap, base.as_ref(), top);
                }
                "flame" => cmd_flame(&snap),
                _ => cmd_workers(&snap),
            }
        }
        _ => usage(),
    }
}
