//! The JSONL trace — [`Snapshot::to_jsonl`] and its inverse
//! [`Snapshot::from_jsonl`] — and the human-readable span-tree /
//! counter-table report printed by the `profile` bench bin.

use crate::json::{self, fields, Value};
use crate::kernel::aggregate;
use crate::{
    EventRecord, FieldValue, Histogram, KernelSite, Snapshot, SpanRecord, SKETCH_BUCKETS,
    TRACE_SCHEMA,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

impl Snapshot {
    /// Serializes the snapshot as JSON Lines, one object per line with
    /// its kind in `type`:
    ///
    /// * `trace_meta` — the header, carrying [`TRACE_SCHEMA`];
    /// * `span` — one per span, in completion order;
    /// * `counter`, `gauge`, `histogram` — one per name; a histogram
    ///   line carries `count`, `sum`, `min`, `max`, the `zero` count and
    ///   the sketch's non-empty buckets as `[index, count]` pairs
    ///   (`neg`, `pos`);
    /// * `kernel` — one per kernel-probe call site;
    /// * `kernel_hist` — one latency sketch per (kernel, dimension);
    /// * `kernel_alloc` — one allocation total per kernel, when it is
    ///   not zero;
    /// * `event` — one per journal event, its fields as an object;
    /// * `events_dropped` — when the ring buffer evicted anything.
    ///
    /// Each line holds recorded state only — nothing a reader can
    /// derive, such as percentiles or per-kernel totals — and
    /// [`Snapshot::from_jsonl`] reads it back.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let meta = fields!("type": "trace_meta", "trace_schema": TRACE_SCHEMA);
        push_line(&mut out, meta);
        for s in &self.spans {
            let line = fields!("type": "span", "id": s.id, "parent": s.parent,
                "name": s.name.as_str(), "thread": s.thread, "start_ns": s.start_ns,
                "duration_ns": s.duration_ns);
            push_line(&mut out, line);
        }
        for (name, &value) in &self.counters {
            let line = fields!("type": "counter", "name": name.as_str(), "value": value);
            push_line(&mut out, line);
        }
        for (name, &value) in &self.gauges {
            let line = fields!("type": "gauge", "name": name.as_str(), "value": value);
            push_line(&mut out, line);
        }
        for (name, h) in &self.histograms {
            let key = fields!("type": "histogram", "name": name.as_str());
            push_line(&mut out, key.into_iter().chain(sketch_fields(h)));
        }
        for site in &self.kernel_sites {
            let (parent, parent_dim) = site.parent.as_ref().map(|(n, d)| (n.as_str(), *d)).unzip();
            let line = fields!("type": "kernel", "name": site.name.as_str(),
                "dim": u64::from(site.dim), "span": site.span, "parent": parent,
                "parent_dim": parent_dim.map(u64::from), "calls": site.calls,
                "total_ns": site.total_ns);
            push_line(&mut out, line);
        }
        for (name, k) in &self.kernels {
            for (&dim, d) in &k.by_dim {
                let key = fields!("type": "kernel_hist", "name": name.as_str(),
                    "dim": u64::from(dim));
                push_line(&mut out, key.into_iter().chain(sketch_fields(&d.hist)));
            }
            if k.allocs != 0 || k.alloc_bytes != 0 {
                let line = fields!("type": "kernel_alloc", "name": name.as_str(),
                    "allocs": k.allocs, "alloc_bytes": k.alloc_bytes);
                push_line(&mut out, line);
            }
        }
        for e in &self.events {
            let payload = e.fields.iter().map(|(k, v)| (k.clone(), field_to_json(v)));
            let line = fields!("type": "event", "seq": e.seq, "ts_ns": e.ts_ns,
                "thread": e.thread, "span": e.span, "name": e.name.as_str(),
                "fields": Value::Obj(payload.collect()));
            push_line(&mut out, line);
        }
        if self.events_dropped > 0 {
            let line = fields!("type": "events_dropped", "value": self.events_dropped);
            push_line(&mut out, line);
        }
        out
    }

    /// Reads a [`Snapshot::to_jsonl`] trace back into the snapshot it
    /// was written from, deriving [`Snapshot::kernels`] from the kernel
    /// lines exactly as [`crate::snapshot`] does. Writing, reading and
    /// writing again gives the same bytes.
    ///
    /// JSON cannot carry everything a snapshot holds, so some values
    /// come back changed:
    ///
    /// * integers above 2⁵³ come back rounded to the nearest `f64`;
    /// * non-finite floats are written as `null` and read back as NaN;
    /// * an integral number does not say whether it was an integer
    ///   field or a float field, so an event field that held `3.0`
    ///   comes back as [`FieldValue::U64`] (`-3.0` as
    ///   [`FieldValue::I64`]);
    /// * an event's fields are a JSON object, so they come back sorted
    ///   by name, and a repeated name keeps its last value.
    ///
    /// The fixed point holds anyway, because the writer prints each
    /// case the same way. No recorded field comes near 2⁵³: every `u64`
    /// is a count, an index, a size or a duration in nanoseconds.
    ///
    /// The first line must be a `trace_meta` header stamped with this
    /// revision's [`TRACE_SCHEMA`]; anything else (a Chrome export, a
    /// trace of another schema) is refused, and so is a line this
    /// schema does not define. The error names the line at fault.
    pub fn from_jsonl(text: &str) -> Result<Snapshot, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let header = lines.next().and_then(|(_, line)| json::parse(line).ok());
        let schema = match &header {
            Some(v) if v.get("type").and_then(Value::as_str) == Some("trace_meta") => {
                v.get("trace_schema").unwrap_or(&Value::Null).to_json()
            }
            _ => "none (no trace_meta header: a Chrome export?)".to_string(),
        };
        if schema != TRACE_SCHEMA.to_string() {
            return Err(format!(
                "trace schema {schema}, but this revision reads JSONL traces of schema \
                 {TRACE_SCHEMA}; record the trace again with PAQOC_TRACE=<path>.jsonl at \
                 this revision"
            ));
        }
        let mut snap = Snapshot::default();
        let (mut sketches, mut allocs) = (BTreeMap::new(), BTreeMap::new());
        for (i, line) in lines {
            json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|v| Line(&v).read_into(&mut snap, &mut sketches, &mut allocs))
                .map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        snap.kernels = aggregate(&snap.kernel_sites, sketches, allocs);
        Ok(snap)
    }

    /// Event names with their record counts, most frequent first (ties
    /// by name); the journal's table of contents.
    pub fn event_counts(&self) -> Vec<(String, u64)> {
        let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
        for e in &self.events {
            *by_name.entry(e.name.as_str()).or_insert(0) += 1;
        }
        let mut counts: Vec<(String, u64)> = by_name
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts
    }

    /// Renders the span tree (with per-phase wall time and the share of
    /// the root span) and the counter/histogram tables as plain text —
    /// the offline stand-in for the paper's Fig. 14 cost breakdown.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out.push_str("── span tree ──────────────────────────────────────────────\n");
        if self.spans.is_empty() {
            out.push_str("(no spans recorded — is tracing enabled?)\n");
        }
        let roots = self.root_spans();
        let total_ns: u64 = roots.iter().map(|s| s.duration_ns).sum();
        for root in &roots {
            self.render_span(&mut out, root, 0, total_ns);
        }
        if !self.counters.is_empty() {
            out.push_str("── counters ───────────────────────────────────────────────\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<44} {value:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("── gauges (final levels) ──────────────────────────────────\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "{name:<44} {value:>12.2}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("── histograms ─────────────────────────────────────────────\n");
            let _ = writeln!(
                out,
                "{:<32} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "mean", "min", "p50", "p90", "p99", "max"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<32} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                    name,
                    h.count,
                    h.mean(),
                    h.min,
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max
                );
            }
        }
        if !self.kernels.is_empty() {
            out.push_str("── kernel hotspots (self time) ────────────────────────────\n");
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12} {:>12} {:>10} {:>10}",
                "kernel", "calls", "self ms", "total ms", "allocs", "alloc KB"
            );
            let mut ranked: Vec<(&String, &crate::KernelStats)> = self.kernels.iter().collect();
            ranked.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
            for (name, k) in ranked {
                let _ = writeln!(
                    out,
                    "{:<28} {:>10} {:>12.3} {:>12.3} {:>10} {:>10.1}",
                    name,
                    k.calls,
                    k.self_ns as f64 / 1e6,
                    k.total_ns as f64 / 1e6,
                    k.allocs,
                    k.alloc_bytes as f64 / 1024.0
                );
            }
        }
        if !self.events.is_empty() {
            out.push_str("── event journal (top 10 by count) ────────────────────────\n");
            for (name, count) in self.event_counts().into_iter().take(10) {
                let _ = writeln!(out, "{name:<44} {count:>12}");
            }
            let _ = writeln!(
                out,
                "{:<44} {:>12}",
                "(total events)",
                self.events.len() as u64 + self.events_dropped
            );
            if self.events_dropped > 0 {
                let _ = writeln!(out, "{:<44} {:>12}", "(dropped)", self.events_dropped);
            }
        }
        out
    }

    /// Spans with no recorded parent, in start order.
    pub fn root_spans(&self) -> Vec<&SpanRecord> {
        let mut roots: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| {
                s.parent
                    .is_none_or(|p| !self.spans.iter().any(|c| c.id == p))
            })
            .collect();
        roots.sort_by_key(|s| (s.start_ns, s.id));
        roots
    }

    /// Direct children of `parent`, in start order.
    pub fn children_of(&self, parent: u64) -> Vec<&SpanRecord> {
        let mut kids: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect();
        kids.sort_by_key(|s| (s.start_ns, s.id));
        kids
    }

    /// Every recorded span with the given name, in start order.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        let mut found: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.name == name).collect();
        found.sort_by_key(|s| (s.start_ns, s.id));
        found
    }

    fn render_span(&self, out: &mut String, span: &SpanRecord, depth: usize, total_ns: u64) {
        let ms = span.duration_ns as f64 / 1e6;
        let share = if total_ns == 0 {
            0.0
        } else {
            100.0 * span.duration_ns as f64 / total_ns as f64
        };
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", span.name);
        let _ = writeln!(out, "{label:<40} {ms:>12.3} ms {share:>6.1}%");
        for child in self.children_of(span.id) {
            self.render_span(out, child, depth + 1, total_ns);
        }
    }
}

/// Appends one JSONL line: the object of `fields`.
fn push_line<'a>(out: &mut String, fields: impl IntoIterator<Item = (&'a str, Value)>) {
    Value::object(fields).write_json(out);
    out.push('\n');
}

/// A histogram's recorded state, as fields of its trace line.
fn sketch_fields(h: &Histogram) -> [(&'static str, Value); 7] {
    let buckets = |counts: &[u32; SKETCH_BUCKETS]| {
        let pairs = counts.iter().enumerate().filter(|(_, &c)| c > 0);
        let pair =
            |(i, &c): (usize, &u32)| Value::Arr(vec![(i as u64).into(), u64::from(c).into()]);
        Value::Arr(pairs.map(pair).collect())
    };
    fields!("count": h.count, "sum": h.sum, "min": h.min, "max": h.max, "zero": h.zero,
        "neg": buckets(&h.neg), "pos": buckets(&h.pos))
}

/// An event field as JSON, for both exporters: numbers as numbers
/// (non-finite ones become `null`), the rest as themselves.
pub(crate) fn field_to_json(v: &FieldValue) -> Value {
    match v {
        FieldValue::U64(n) => (*n).into(),
        FieldValue::I64(n) => Value::Num(*n as f64),
        FieldValue::F64(x) => (*x).into(),
        FieldValue::Bool(b) => Value::Bool(*b),
        FieldValue::Str(s) => s.as_str().into(),
    }
}

/// The inverse of [`field_to_json`], as far as JSON allows (see
/// [`Snapshot::from_jsonl`]): an integral number below 2⁵³ in magnitude
/// is an integer, `null` is NaN.
fn field_from_json(v: &Value) -> Option<FieldValue> {
    Some(match v {
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 => {
            if *n >= 0.0 {
                FieldValue::U64(*n as u64)
            } else {
                FieldValue::I64(*n as i64)
            }
        }
        Value::Num(x) => FieldValue::F64(*x),
        Value::Null => FieldValue::F64(f64::NAN),
        Value::Bool(b) => FieldValue::Bool(*b),
        Value::Str(s) => FieldValue::Str(s.clone()),
        Value::Arr(_) | Value::Obj(_) => return None,
    })
}

/// `v` as an unsigned integer, when it is one.
fn uint(v: &Value) -> Option<u64> {
    let n = v.as_num().filter(|n| *n >= 0.0 && n.fract() == 0.0);
    n.map(|n| n as u64)
}

/// One parsed trace line, with typed access to its fields.
struct Line<'a>(&'a Value);

impl Line<'_> {
    fn get(&self, key: &str) -> Result<&Value, String> {
        self.0.get(key).ok_or_else(|| format!("no `{key}` field"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        uint(self.get(key)?).ok_or_else(|| format!("`{key}` is not an unsigned integer"))
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?).map_err(|_| format!("`{key}` is out of range"))
    }

    /// `None` for `null`.
    fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key)? {
            Value::Null => Ok(None),
            _ => self.u64(key).map(Some),
        }
    }

    /// NaN for `null`, which is how a non-finite value was written.
    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            Value::Null => Ok(f64::NAN),
            v => v.as_num().ok_or_else(|| format!("`{key}` is not a number")),
        }
    }

    fn string(&self, key: &str) -> Result<String, String> {
        let s = self.get(key)?.as_str();
        s.map(str::to_string)
            .ok_or_else(|| format!("`{key}` is not a string"))
    }

    fn sketch(&self) -> Result<Histogram, String> {
        let mut h = Histogram {
            count: self.u64("count")?,
            sum: self.f64("sum")?,
            min: self.f64("min")?,
            max: self.f64("max")?,
            zero: self.u64("zero")?,
            ..Histogram::default()
        };
        for (key, counts) in [("neg", &mut h.neg), ("pos", &mut h.pos)] {
            let bad = || format!("`{key}` is not a list of [index, count] pairs");
            for pair in self.get(key)?.as_arr().ok_or_else(bad)? {
                let Some([i, c]) = pair.as_arr() else {
                    return Err(bad());
                };
                let slot = uint(i).and_then(|i| counts.get_mut(i as usize));
                let count = uint(c).and_then(|c| u32::try_from(c).ok());
                *slot.ok_or_else(bad)? = count.ok_or_else(bad)?;
            }
        }
        Ok(h)
    }

    /// Adds this line's record to `snap`, or its kernel sketch or
    /// allocation total to those [`aggregate`] folds in.
    fn read_into(
        &self,
        snap: &mut Snapshot,
        sketches: &mut BTreeMap<(String, u32), Histogram>,
        allocs: &mut BTreeMap<String, (u64, u64)>,
    ) -> Result<(), String> {
        match self.string("type")?.as_str() {
            "span" => snap.spans.push(SpanRecord {
                id: self.u64("id")?,
                parent: self.opt_u64("parent")?,
                name: self.string("name")?,
                thread: self.u64("thread")?,
                start_ns: self.u64("start_ns")?,
                duration_ns: self.u64("duration_ns")?,
            }),
            "counter" => drop(
                snap.counters
                    .insert(self.string("name")?, self.u64("value")?),
            ),
            "gauge" => drop(snap.gauges.insert(self.string("name")?, self.f64("value")?)),
            "histogram" => drop(snap.histograms.insert(self.string("name")?, self.sketch()?)),
            "kernel" => snap.kernel_sites.push(KernelSite {
                span: self.opt_u64("span")?,
                parent: match self.get("parent")? {
                    Value::Null => None,
                    _ => Some((self.string("parent")?, self.u32("parent_dim")?)),
                },
                name: self.string("name")?,
                dim: self.u32("dim")?,
                calls: self.u64("calls")?,
                total_ns: self.u64("total_ns")?,
            }),
            "kernel_hist" => {
                sketches.insert((self.string("name")?, self.u32("dim")?), self.sketch()?);
            }
            "kernel_alloc" => {
                let total = (self.u64("allocs")?, self.u64("alloc_bytes")?);
                allocs.insert(self.string("name")?, total);
            }
            "event" => {
                let Value::Obj(payload) = self.get("fields")? else {
                    return Err("`fields` is not an object".to_string());
                };
                let fields = payload
                    .iter()
                    .map(|(k, v)| Some((k.clone(), field_from_json(v)?)));
                snap.events.push(EventRecord {
                    seq: self.u64("seq")?,
                    ts_ns: self.u64("ts_ns")?,
                    thread: self.u64("thread")?,
                    span: self.opt_u64("span")?,
                    name: self.string("name")?,
                    fields: fields
                        .collect::<Option<_>>()
                        .ok_or("an event field is not a scalar")?,
                });
            }
            "events_dropped" => snap.events_dropped = self.u64("value")?,
            other => return Err(format!("unknown line type {other:?}")),
        }
        Ok(())
    }
}
