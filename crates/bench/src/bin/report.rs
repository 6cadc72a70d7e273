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
//! * `report ledger [BENCH_perf.json] [--entry NAME]` — reads the
//!   benchmark ledger instead of a trace, and prints per row, workload
//!   and end-to-end metric the parent and change medians, the relative
//!   change, the parent's quartile spread (`p75 − p25` over the median,
//!   or the recorded `parent_quartile_spread`), the pairs in which the
//!   change read better, and `unresolved` where the row marks it. A
//!   file that is not a ledger is refused with a non-zero exit.
//!
//! Every view writes through one buffered lock of stdout. A reader that
//! closes the pipe early (`report … | head`) ends the report quietly with
//! status 0; any other write error exits 1.
//!
//! A trace of another schema, or a Chrome export (`PAQOC_TRACE=
//! <path>.json`, which is for Perfetto), is refused with a message
//! saying how to record a readable one, and a non-zero exit.

use paqoc_telemetry::json::{self, Value};
use paqoc_telemetry::{EventRecord, FieldValue, KernelStats, Snapshot};
use std::collections::BTreeMap;
use std::io::{self, BufWriter, ErrorKind, Write};

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
fn cmd_jobs(out: &mut impl Write, snap: &Snapshot, top: usize) -> io::Result<()> {
    let mut jobs: Vec<&EventRecord> = snap
        .events
        .iter()
        .filter(|e| e.name == "exec.job" && field(e, "wall_us").is_some())
        .collect();
    if jobs.is_empty() {
        writeln!(out, "report: no exec.job events with wall_us in this trace")?;
        writeln!(
            out,
            "(run with telemetry enabled, e.g. PAQOC_TRACE=trace.jsonl profile qaoa)"
        )?;
        return Ok(());
    }
    jobs.sort_by_key(|e| std::cmp::Reverse(field_u64(e, "wall_us").unwrap_or(0)));
    writeln!(
        out,
        "{:>4} {:>12} {:>8} {:>6} {:>14} {:<12}",
        "#", "wall_ms", "worker", "arity", "priority", "outcome"
    )?;
    for (rank, e) in jobs.iter().take(top).enumerate() {
        let wall_us = field_u64(e, "wall_us").unwrap_or(0);
        writeln!(
            out,
            "{:>4} {:>12.3} {:>8} {:>6} {:>14.1} {:<12}",
            rank + 1,
            wall_us as f64 / 1_000.0,
            field_u64(e, "worker").unwrap_or(0),
            field_u64(e, "arity").unwrap_or(0),
            field_f64(e, "priority").unwrap_or(0.0),
            field_str(e, "outcome").unwrap_or("?"),
        )?;
    }
    writeln!(out, "({} exec.job events total)", jobs.len())?;
    Ok(())
}

/// `report phases`: per-span-name totals with self time (duration minus
/// direct children), plus the longest root-to-leaf chain.
fn cmd_phases(out: &mut impl Write, snap: &Snapshot) -> io::Result<()> {
    if snap.spans.is_empty() {
        writeln!(out, "report: no spans in this trace (is tracing enabled?)")?;
        return Ok(());
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
    writeln!(
        out,
        "{:<32} {:>8} {:>12} {:>12} {:>7}",
        "phase", "count", "total_ms", "self_ms", "self%"
    )?;
    for (name, count, total, self_ns) in &rows {
        let share = if root_total == 0 {
            0.0
        } else {
            100.0 * *self_ns as f64 / root_total as f64
        };
        writeln!(
            out,
            "{:<32} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            count,
            *total as f64 / 1e6,
            *self_ns as f64 / 1e6,
            share
        )?;
    }

    // Critical path: from the longest root, repeatedly descend into the
    // longest direct child.
    let mut current = snap
        .spans
        .iter()
        .filter(|s| s.parent.is_none_or(|p| !known.contains(&p)))
        .max_by_key(|s| s.duration_ns);
    writeln!(out, "\ncritical path (longest child chain):")?;
    let mut depth = 0;
    while let Some(span) = current {
        writeln!(
            out,
            "{:indent$}{} — {:.3} ms",
            "",
            span.name,
            span.duration_ns as f64 / 1e6,
            indent = depth * 2
        )?;
        depth += 1;
        current = snap
            .spans
            .iter()
            .filter(|s| s.parent == Some(span.id))
            .max_by_key(|s| s.duration_ns);
    }
    Ok(())
}

/// `report workers`: per-worker utilization aggregated over every
/// `exec.worker` event (one per worker per batch), plus stalls.
fn cmd_workers(out: &mut impl Write, snap: &Snapshot) -> io::Result<()> {
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
        writeln!(out, "report: no exec.worker events in this trace")?;
        return Ok(());
    }
    writeln!(
        out,
        "{:>6} {:>8} {:>6} {:>12} {:>12} {:>12} {:>6}",
        "worker", "batches", "jobs", "busy_ms", "idle_ms", "wall_ms", "util"
    )?;
    for (worker, acc) in &per_worker {
        let util = if acc.wall_us == 0 {
            0.0
        } else {
            100.0 * acc.busy_us as f64 / acc.wall_us as f64
        };
        writeln!(
            out,
            "{:>6} {:>8} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>5.1}%",
            worker,
            acc.batches,
            acc.jobs,
            acc.busy_us as f64 / 1e3,
            acc.idle_us as f64 / 1e3,
            acc.wall_us as f64 / 1e3,
            util
        )?;
    }
    let stalls: Vec<&EventRecord> = snap
        .events
        .iter()
        .filter(|e| e.name == "exec.stall")
        .collect();
    writeln!(out, "\nstalls flagged: {}", stalls.len())?;
    for e in stalls.iter().take(10) {
        writeln!(
            out,
            "  worker {} key {} — {} ms elapsed vs {} ms budget",
            field_u64(e, "worker").unwrap_or(0),
            field_str(e, "key").unwrap_or("?"),
            field_u64(e, "elapsed_ms").unwrap_or(0),
            field_u64(e, "budget_ms").unwrap_or(0),
        )?;
    }
    Ok(())
}

/// `report hotspots`: kernels ranked by self-time, with per-dimension
/// breakdowns and an optional baseline-trace diff.
fn cmd_hotspots(
    out: &mut impl Write,
    snap: &Snapshot,
    baseline: Option<&Snapshot>,
    top: usize,
) -> io::Result<()> {
    if snap.kernels.is_empty() {
        writeln!(out, "report: no kernel-probe data in this trace")?;
        writeln!(
            out,
            "(run with tracing enabled, e.g. PAQOC_TRACE=trace.jsonl, which arms the probes)"
        )?;
        return Ok(());
    }
    let mut rows: Vec<(&String, &KernelStats)> = snap.kernels.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let total_self: u64 = rows.iter().map(|(_, r)| r.self_ns).sum();
    writeln!(
        out,
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
    )?;
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
        writeln!(
            out,
            "{:<24} {:>10} {:>11.3} {:>11.3} {:>5.1}% {:>8} {:>10.1}{diff}",
            name,
            row.calls,
            row.self_ns as f64 / 1e6,
            row.total_ns as f64 / 1e6,
            share,
            row.allocs,
            row.alloc_bytes as f64 / 1024.0,
        )?;
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
            writeln!(
                out,
                "  {:<22} {:>10} {:>11.3} {:>11.3}        p50/p90/p99 {:.1}/{:.1}/{:.1} us",
                format!("{dim}x{dim}"),
                d.calls,
                d.self_ns as f64 / 1e6,
                d.total_ns as f64 / 1e6,
                p50 as f64 / 1e3,
                p90 as f64 / 1e3,
                p99 as f64 / 1e3,
            )?;
        }
    }
    if let Some(b) = baseline {
        for (name, base) in &b.kernels {
            if !snap.kernels.contains_key(name) {
                writeln!(
                    out,
                    "{:<24} gone (baseline self {:.3} ms)",
                    name,
                    base.self_ns as f64 / 1e6
                )?;
            }
        }
    }
    writeln!(
        out,
        "({} kernel(s), {:.3} ms total self time)",
        rows.len(),
        total_self as f64 / 1e6
    )?;
    Ok(())
}

/// `report flame`: collapsed-stack export of the span tree plus kernel
/// call sites, for inferno / speedscope / flamegraph.pl.
fn cmd_flame(out: &mut impl Write, snap: &Snapshot) -> io::Result<()> {
    let folded = snap.to_collapsed_stacks();
    if folded.is_empty() {
        eprintln!("report: nothing to fold — no spans or kernel sites in this trace");
        return Ok(());
    }
    write!(out, "{folded}")?;
    Ok(())
}

/// Reads the ledger at `path` (`BENCH_perf.json`'s format) and renders
/// the rows named `entry`, or every row, for `report ledger`: per row a
/// header, then per workload and end-to-end metric the parent and change
/// medians, the relative change, the parent's quartile spread (`p75 −
/// p25` over its median, or the recorded `parent_quartile_spread`),
/// `change_better_pairs` out of the workload's pairs, and `unresolved`
/// where the row marks it. Fails on a file that is not a ledger: no
/// `rows` array, a row without a string `entry`, `commit` and `parent`
/// or without `workloads`, or an end-to-end metric without numeric parent
/// and change medians.
fn load_ledger(path: &str, entry: Option<&str>) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let malformed = |what: String| format!("{path}: not a ledger: {what}");
    let rows = doc.get("rows").and_then(Value::as_arr);
    let rows = rows.ok_or_else(|| malformed("no \"rows\" array".into()))?;
    let num = |v: Option<&Value>, key: &str| v?.get(key)?.as_num();
    let mut lines = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let text = |key: &str| row.get(key).and_then(Value::as_str);
        let (Some(name), Some(commit), Some(parent)) =
            (text("entry"), text("commit"), text("parent"))
        else {
            return Err(malformed(format!(
                "row {i} lacks a string entry, commit or parent"
            )));
        };
        let Some(Value::Obj(workloads)) = row.get("workloads") else {
            return Err(malformed(format!("row {name:?} has no workloads")));
        };
        let shown = entry.is_none_or(|e| e == name);
        if shown {
            if !lines.is_empty() {
                lines.push(String::new());
            }
            lines.push(format!("{name} ({commit} over {parent})"));
            lines.push(format!(
                "{:<12} {:<26} {:>12} {:>12} {:>8} {:>8} {:>7}",
                "workload", "metric", "parent", "change", "change%", "spread%", "better"
            ));
        }
        for (workload, w) in workloads {
            let Some(Value::Obj(end_to_end)) = w.get("end_to_end") else {
                return Err(malformed(format!("{name:?} {workload} has no end_to_end")));
            };
            for (metric, m) in end_to_end {
                let (Some(base), Some(change)) = (
                    num(m.get("parent"), "median"),
                    num(m.get("change"), "median"),
                ) else {
                    return Err(malformed(format!(
                        "{name:?} {workload} {metric} lacks a parent or change median"
                    )));
                };
                let quartiles = num(m.get("parent"), "p75").zip(num(m.get("parent"), "p25"));
                let spread = match quartiles {
                    Some((p75, p25)) => Some((p75 - p25) / base),
                    None => num(Some(m), "parent_quartile_spread"),
                };
                let better = match (num(Some(m), "change_better_pairs"), num(Some(w), "pairs")) {
                    (Some(b), Some(pairs)) => format!("{b}/{pairs}"),
                    (Some(b), None) => format!("{b}"),
                    _ => "-".into(),
                };
                let unresolved = m.get("unresolved").and_then(Value::as_bool) == Some(true);
                if shown {
                    lines.push(format!(
                        "{workload:<12} {metric:<26} {base:>12} {change:>12} {:>+8.1} {:>8} {better:>7}{}",
                        100.0 * (change - base) / base,
                        spread.map_or("-".into(), |s| format!("{:.1}", 100.0 * s)),
                        if unresolved { "  unresolved" } else { "" },
                    ));
                }
            }
        }
    }
    match entry {
        Some(e) if lines.is_empty() => Err(format!("{path}: no row named {e:?}")),
        _ => Ok(lines),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: report jobs TRACE [--top N]\n\
         \x20      report phases TRACE\n\
         \x20      report workers TRACE\n\
         \x20      report hotspots TRACE [--top N] [--baseline TRACE]\n\
         \x20      report flame TRACE\n\
         \x20      report ledger [BENCH_perf.json] [--entry NAME]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    // A reader that stops early (`report … | head`) closes the pipe: that
    // ends the report quietly. Any other write error is a failure.
    match run(&args, &mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("report: cannot write the report: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}

/// Parses the command line and writes the chosen view to `out`. Exits
/// with status 2 on a usage error and 1 on an unreadable input.
fn run(args: &[String], out: &mut impl Write) -> io::Result<()> {
    let Some(cmd) = args.first() else {
        usage();
    };
    match cmd.as_str() {
        "ledger" => {
            let mut path = "BENCH_perf.json";
            let mut entry: Option<&str> = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--entry" => match rest.next() {
                        Some(name) => entry = Some(name),
                        None => usage(),
                    },
                    flag if flag.starts_with("--") => usage(),
                    file => path = file,
                }
            }
            match load_ledger(path, entry) {
                Ok(lines) => lines.iter().try_for_each(|line| writeln!(out, "{line}")),
                Err(e) => {
                    eprintln!("report: {e}");
                    std::process::exit(1);
                }
            }
        }
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
                "jobs" => cmd_jobs(out, &snap, top),
                "phases" => cmd_phases(out, &snap),
                "hotspots" => {
                    let base = baseline.as_deref().map(load);
                    cmd_hotspots(out, &snap, base.as_ref(), top)
                }
                "flame" => cmd_flame(out, &snap),
                _ => cmd_workers(out, &snap),
            }
        }
        _ => usage(),
    }
}
