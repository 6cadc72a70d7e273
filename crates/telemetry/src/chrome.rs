//! Chrome-trace / Perfetto export: serializes a [`Snapshot`] into the
//! Trace Event Format (JSON object with a `traceEvents` array) that
//! `chrome://tracing` and <https://ui.perfetto.dev> load directly.
//!
//! Mapping: every span becomes a complete event (`ph:"X"`) on its
//! thread's track, every journal event an instant event (`ph:"i"`,
//! thread scope) with its typed fields as `args`, and every counter and
//! gauge a final counter sample (`ph:"C"`). Flight-recorder samples —
//! journal events named [`METRICS_SAMPLE_EVENT`] — are special-cased:
//! each numeric field becomes its own timestamped counter event, so
//! Perfetto renders live metric timelines (queue depth, RSS, CPU ms)
//! alongside the span slices instead of a wall of instant arrows.
//! Timestamps are microseconds since the telemetry epoch, and the
//! emitted array is sorted by timestamp so the file is monotonic — some
//! viewers reject out-of-order traces. This is an export for viewers;
//! the JSONL trace ([`Snapshot::to_jsonl`]) is the one that reads back.

use crate::json::{fields, Value};
use crate::report::field_to_json;
use crate::{FieldValue, Snapshot, METRICS_SAMPLE_EVENT, TRACE_SCHEMA};

/// Nanoseconds as the format's microseconds.
fn micros(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// A counter sample (`ph:"C"`) on the process track.
fn counter_event(ts_ns: u64, cat: &str, name: &str, args: Value) -> (u64, Value) {
    let event = fields!("ph": "C", "pid": 0u64, "tid": 0u64, "ts": micros(ts_ns), "cat": cat,
        "name": name, "args": args);
    (ts_ns, Value::object(event))
}

impl Snapshot {
    /// Serializes the snapshot as Chrome-trace JSON. The returned
    /// document is a single JSON object; write it to a `.json` file and
    /// open it in `chrome://tracing` or Perfetto. It is built as a
    /// [`Value`], like the JSONL export, and events appear in
    /// non-decreasing timestamp order.
    pub fn to_chrome_trace(&self) -> String {
        let mut events: Vec<(u64, Value)> = Vec::with_capacity(
            self.spans.len() + self.events.len() + self.counters.len() + self.gauges.len(),
        );
        for s in &self.spans {
            let args = Value::object(fields!("id": s.id, "parent": s.parent));
            let event = fields!("ph": "X", "pid": 0u64, "tid": s.thread, "ts": micros(s.start_ns),
                "dur": micros(s.duration_ns), "cat": "span", "name": s.name.as_str(),
                "args": args);
            events.push((s.start_ns, Value::object(event)));
        }
        for e in &self.events {
            // Flight-recorder samples become counter timelines: one
            // counter event per numeric field, named by the field, so
            // each metric draws as its own graph track.
            if e.name == METRICS_SAMPLE_EVENT {
                for (k, v) in &e.fields {
                    let value = match v {
                        FieldValue::U64(n) => *n as f64,
                        FieldValue::I64(n) => *n as f64,
                        FieldValue::F64(x) if x.is_finite() => *x,
                        _ => continue,
                    };
                    let args = Value::object(fields!("value": value));
                    events.push(counter_event(e.ts_ns, "metric", k, args));
                }
                continue;
            }
            let fields = e.fields.iter().map(|(k, v)| (k.clone(), field_to_json(v)));
            let seq = ("seq".to_string(), e.seq.into());
            let args = Value::Obj([seq].into_iter().chain(fields).collect());
            let event = fields!("ph": "i", "s": "t", "pid": 0u64, "tid": e.thread,
                "ts": micros(e.ts_ns), "cat": "event", "name": e.name.as_str(), "args": args);
            events.push((e.ts_ns, Value::object(event)));
        }
        // Counter totals and gauge levels as one sample each, stamped
        // after everything else so they read as the run's final state.
        let last_ts = events.iter().map(|e| e.0).max().unwrap_or(0);
        for (name, &value) in &self.counters {
            let args = Value::object(fields!("value": value));
            events.push(counter_event(last_ts, "counter", name, args));
        }
        for (name, &value) in &self.gauges {
            if value.is_finite() {
                let args = Value::object(fields!("value": value));
                events.push(counter_event(last_ts, "gauge", name, args));
            }
        }
        // Kernel-probe totals as a counter track: one final sample per
        // (kernel, dimension) plus an allocation sample per kernel. The
        // kernel name and dimension ride in args (not just the display
        // name), so readers recover them even for hostile names.
        for (name, k) in &self.kernels {
            for (dim, d) in &k.by_dim {
                let args = fields!("kernel": name.as_str(), "dim": u64::from(*dim),
                    "calls": d.calls, "total_ns": d.total_ns, "self_ns": d.self_ns);
                let track = format!("kernel.{name}.{dim}x{dim}");
                events.push(counter_event(
                    last_ts,
                    "kernel",
                    &track,
                    Value::object(args),
                ));
            }
            if k.allocs > 0 {
                let args = fields!("kernel": name.as_str(), "allocs": k.allocs,
                    "alloc_bytes": k.alloc_bytes);
                let track = format!("kernel.{name}.alloc");
                events.push(counter_event(
                    last_ts,
                    "kernel",
                    &track,
                    Value::object(args),
                ));
            }
        }
        events.sort_by_key(|e| e.0);

        // Thread-name metadata first (ph:"M" carries no timestamp
        // semantics, so it does not break monotonicity).
        let mut threads: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.thread)
            .chain(self.events.iter().map(|e| e.thread))
            .collect();
        threads.sort_unstable();
        threads.dedup();
        let metadata = threads.into_iter().map(|t| {
            let args = Value::object(fields!("name": format!("paqoc-{t}").as_str()));
            Value::object(
                fields!("ph": "M", "pid": 0u64, "tid": t, "name": "thread_name",
                "args": args),
            )
        });
        let trace_events = metadata.chain(events.into_iter().map(|e| e.1)).collect();
        let trace = fields!("displayTimeUnit": "ns", "paqocTraceSchema": TRACE_SCHEMA,
            "traceEvents": Value::Arr(trace_events));
        Value::object(trace).to_json()
    }
}
