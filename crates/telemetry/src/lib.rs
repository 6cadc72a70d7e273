//! # paqoc-telemetry
//!
//! Hand-rolled, zero-dependency tracing and metrics for the PAQOC
//! compilation stack. The paper's evaluation is a compilation-cost /
//! latency trade-off (Figs. 10–14); this crate makes that cost visible:
//!
//! * **Spans** — RAII scoped timers ([`span()`]) that nest (`compile` >
//!   `mine` > …) and record wall time into a global thread-safe registry;
//! * **Counters and histograms** — [`counter()`] / [`observe`] for the
//!   quantities the paper reasons about (merge candidates pruned, pulse
//!   table hits, GRAPE iterations, SABRE swaps, …); histograms carry a
//!   fixed-size log-bucket sketch, so [`Histogram::quantile`] answers
//!   p50/p90/p99 without storing samples;
//! * **Gauges** — [`set_gauge`] / [`add_gauge`] for instantaneous
//!   levels (queue depth, live workers, RSS); last-write-wins, sampled
//!   periodically by the executor's flight recorder and rendered as
//!   Perfetto counter timelines;
//! * **Process resources** — a zero-dependency `/proc` reader
//!   ([`resources::sample`]) exposing CPU time and RSS on Linux,
//!   gracefully `None` elsewhere;
//! * **Events** — a structured decision journal ([`event()`]): named
//!   records with typed fields ([`FieldValue`]), stamped with time,
//!   thread and enclosing span, ring-buffered so unbounded workloads
//!   keep the newest [`EVENT_CAPACITY`] records;
//! * **Exports** — a JSONL trace ([`Snapshot::to_jsonl`]) that reads
//!   back into the snapshot it was written from
//!   ([`Snapshot::from_jsonl`]), a Chrome-trace / Perfetto JSON
//!   ([`Snapshot::to_chrome_trace`], open it in `chrome://tracing` or
//!   <https://ui.perfetto.dev>; an export, not read back) and a
//!   human-readable span-tree + counter-table report
//!   ([`Snapshot::render_report`]). Both JSON exports serialize
//!   through [`json::Value`].
//!
//! Collection is off by default and costs a single relaxed atomic load
//! per instrumentation site when disabled. It is switched on
//! programmatically ([`set_enabled`]) or by setting the `PAQOC_TRACE`
//! environment variable (any value but `0`/`false`/empty; a value with a
//! path shape additionally names a dump file for [`write_env_trace`] —
//! `.jsonl` gets the JSONL trace, `.json` the Chrome-trace export).
//!
//! ## Example
//!
//! ```
//! paqoc_telemetry::set_enabled(true);
//! paqoc_telemetry::reset();
//! {
//!     let _outer = paqoc_telemetry::span("compile");
//!     let _inner = paqoc_telemetry::span("mine");
//!     paqoc_telemetry::counter("miner.patterns_found", 3);
//! }
//! let snap = paqoc_telemetry::snapshot();
//! assert_eq!(snap.counters["miner.patterns_found"], 3);
//! assert_eq!(snap.spans.len(), 2);
//! paqoc_telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod flame;
pub mod json;
mod kernel;
mod report;
pub mod resources;

pub use kernel::{
    kernel_alloc, kernel_enter, kernel_flush, kernel_probes_enabled, kernel_thread_totals,
    set_kernel_probes, KernelDimStats, KernelProbe, KernelSite, KernelStats,
};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The environment variable that switches tracing on.
pub const ENV_VAR: &str = "PAQOC_TRACE";

/// Journal-event name reserved for flight-recorder metric samples.
/// Events with this name carry one numeric field per sampled quantity
/// (process CPU/RSS plus every live gauge); the Chrome-trace exporter
/// renders each field as a counter-timeline series (`"ph":"C"`) instead
/// of an instant event, so Perfetto draws metric graphs alongside the
/// span slices.
pub const METRICS_SAMPLE_EVENT: &str = "metrics.sample";

// Tri-state so the env var is consulted exactly once, lazily, and the
// steady-state check stays a single relaxed atomic load.
const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);
// Bumped by `reset()`: per-thread span stacks compare their cached
// generation against this and self-clear when stale, so a reset wipes
// parent links on *every* thread without touching foreign thread-locals.
static RESET_GENERATION: AtomicU64 = AtomicU64::new(0);

/// Ring-buffer capacity of the event journal. When a run records more
/// events than this, the oldest are dropped (counted in
/// [`Snapshot::events_dropped`]).
pub const EVENT_CAPACITY: usize = 65_536;

/// Version of the exported trace formats (JSONL `trace_meta` line,
/// Chrome-trace `paqocTraceSchema` key). Any change to a line type
/// bumps it, and [`Snapshot::from_jsonl`] reads this version only.
pub const TRACE_SCHEMA: u64 = 2;

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Gauges live outside the main registry behind their own lock: they
/// are sampled by the flight-recorder thread at a fixed cadence, and a
/// separate stripe keeps that sampling from contending with span/event
/// recording on the hot compile path.
fn gauge_map() -> &'static Mutex<BTreeMap<String, f64>> {
    static GAUGES: OnceLock<Mutex<BTreeMap<String, f64>>> = OnceLock::new();
    GAUGES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Per-thread span stack, tagged with the reset generation it belongs
/// to. Accessors call [`SpanStack::sync`] first, which clears the stack
/// when a [`reset`] happened since the thread last touched it — a scope
/// that unwound across a reset can therefore never leave a stale parent
/// id behind.
#[derive(Default)]
struct SpanStack {
    generation: u64,
    ids: Vec<u64>,
}

impl SpanStack {
    fn sync(&mut self) {
        let generation = RESET_GENERATION.load(Ordering::Relaxed);
        if self.generation != generation {
            self.generation = generation;
            self.ids.clear();
        }
    }
}

thread_local! {
    static SPAN_STACK: RefCell<SpanStack> = RefCell::new(SpanStack::default());
    static THREAD_INDEX: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// Id of the innermost live span on this thread, if any.
fn current_span_id() -> Option<u64> {
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.sync();
        stack.ids.last().copied()
    })
}

fn thread_index() -> u64 {
    THREAD_INDEX.with(|slot| match slot.get() {
        Some(i) => i,
        None => {
            let i = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            slot.set(Some(i));
            i
        }
    })
}

/// `true` when collection is on. Cost when off: one relaxed atomic load
/// (after the first call, which consults `PAQOC_TRACE` once).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = env_value().is_some();
    // A concurrent set_enabled wins: only replace the uninit state.
    let target = if on { STATE_ON } else { STATE_OFF };
    let _ = STATE.compare_exchange(STATE_UNINIT, target, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// The truthy value of `PAQOC_TRACE`, if any.
fn env_value() -> Option<String> {
    match std::env::var(ENV_VAR) {
        Ok(v) if !v.is_empty() && v != "0" && v.to_lowercase() != "false" => Some(v),
        _ => None,
    }
}

/// The JSONL dump path named by `PAQOC_TRACE`, when its value looks like
/// a file path (`trace.jsonl`, `/tmp/run1.jsonl`, …) rather than a bare
/// boolean flag.
pub fn env_trace_path() -> Option<std::path::PathBuf> {
    let v = env_value()?;
    if v.contains('/') || v.ends_with(".jsonl") || v.ends_with(".json") {
        Some(std::path::PathBuf::from(v))
    } else {
        None
    }
}

/// Turns collection on or off programmatically (overrides `PAQOC_TRACE`).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Discards every recorded span, counter, histogram, gauge and event,
/// and invalidates every thread's span stack (each stack self-clears on
/// its next use, so parent ids from before the reset cannot leak into
/// spans recorded after it).
pub fn reset() {
    RESET_GENERATION.fetch_add(1, Ordering::Relaxed);
    let mut reg = registry().lock().expect("telemetry registry poisoned");
    *reg = Registry::default();
    drop(reg);
    // Gauges live outside the registry (see `gauge_map`), so they need
    // their own wipe — a stale `exec.jobs_pending` surviving a reset
    // would corrupt every later flight-recorder sample.
    gauge_map()
        .lock()
        .expect("telemetry gauge map poisoned")
        .clear();
    // Kernel-probe state also lives outside the registry (thread-local
    // tables + a dedicated store stripe): wipe the store, and let each
    // thread's table self-clear against the bumped generation.
    kernel::clear_store();
}

/// One completed span: a named scope with wall-clock timing and its
/// position in the span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique id (process-wide, monotonically assigned at entry).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The span's name (e.g. `compile`, `mine`).
    pub name: String,
    /// Small per-process index of the recording thread.
    pub thread: u64,
    /// Entry time, nanoseconds since the process's telemetry epoch.
    pub start_ns: u64,
    /// Wall time between entry and exit, nanoseconds.
    pub duration_ns: u64,
}

/// Log-bucket sketch geometry: buckets cover magnitudes from
/// [`SKETCH_MIN`] upward, 4 per doubling (relative quantile error
/// ≤ ~9%), in two mirrored arrays for positive and negative values plus
/// a near-zero bucket. 256 buckets × 4/doubling spans 64 doublings:
/// 2⁻²⁰ ≈ 9.5e-7 up to 2⁴⁴ ≈ 1.8e13, wide enough for nanosecond
/// latencies, iteration counts and cost units alike; magnitudes beyond
/// either end clamp into the boundary buckets (exact extremes are still
/// reported through `min`/`max`).
const SKETCH_BUCKETS: usize = 256;
const SKETCH_PER_DOUBLING: f64 = 4.0;
const SKETCH_MIN: f64 = 1.0 / (1u64 << 20) as f64;

fn sketch_index(magnitude: f64) -> usize {
    let idx = (magnitude / SKETCH_MIN).log2() * SKETCH_PER_DOUBLING;
    if idx < 0.0 {
        0
    } else {
        (idx as usize).min(SKETCH_BUCKETS - 1)
    }
}

/// Geometric midpoint of sketch bucket `i` (a magnitude).
fn sketch_value(i: usize) -> f64 {
    SKETCH_MIN * ((i as f64 + 0.5) / SKETCH_PER_DOUBLING).exp2()
}

/// Aggregate of the values fed to [`observe`] under one name: exact
/// count/sum/min/max plus a fixed-size log-bucket sketch answering
/// percentile queries ([`Histogram::quantile`]) without storing samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Observations with `|v| < SKETCH_MIN` (including exact zeros).
    zero: u64,
    /// Log-bucket counts of negative observations, by magnitude.
    neg: Box<[u32; SKETCH_BUCKETS]>,
    /// Log-bucket counts of positive observations, by magnitude.
    pos: Box<[u32; SKETCH_BUCKETS]>,
}

impl Histogram {
    /// Records one observation. This is what [`observe`] calls on the
    /// global store; it is public so callers holding their own
    /// `Histogram` (per-thread latency sketches in the load generator)
    /// can feed it directly and [`Histogram::merge`] the results.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v.abs() < SKETCH_MIN || !v.is_finite() {
            self.zero += 1;
        } else {
            let buckets = if v < 0.0 {
                &mut self.neg
            } else {
                &mut self.pos
            };
            let i = sketch_index(v.abs());
            buckets[i] = buckets[i].saturating_add(1);
        }
    }

    /// Folds another histogram into this one: counts, sums and sketch
    /// buckets add; min/max widen. Used to merge per-thread kernel
    /// latency sketches into the global store.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.zero += other.zero;
        for i in 0..SKETCH_BUCKETS {
            self.neg[i] = self.neg[i].saturating_add(other.neg[i]);
            self.pos[i] = self.pos[i].saturating_add(other.pos[i]);
        }
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) from the log-bucket sketch:
    /// exact rank selection over buckets, bucket midpoint as the value,
    /// with relative error bounded by the bucket width (≤ ~9%). Returns
    /// 0 when empty; the result is clamped into `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        // Ascending value order: most-negative magnitude first.
        for i in (0..SKETCH_BUCKETS).rev() {
            seen += u64::from(self.neg[i]);
            if seen > rank {
                return (-sketch_value(i)).clamp(self.min, self.max);
            }
        }
        seen += self.zero;
        if seen > rank {
            return 0.0f64.clamp(self.min, self.max);
        }
        for i in 0..SKETCH_BUCKETS {
            seen += u64::from(self.pos[i]);
            if seen > rank {
                return sketch_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile (see [`Histogram::quantile`]).
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile (see [`Histogram::quantile`]).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            zero: 0,
            neg: Box::new([0; SKETCH_BUCKETS]),
            pos: Box::new([0; SKETCH_BUCKETS]),
        }
    }
}

/// A typed value attached to an [`event()`] field.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One journal entry: a named decision record with typed fields,
/// stamped with time, thread and the enclosing span.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Process-wide sequence number (monotonic within a reset epoch).
    pub seq: u64,
    /// Nanoseconds since the telemetry epoch.
    pub ts_ns: u64,
    /// Small per-process index of the recording thread.
    pub thread: u64,
    /// Id of the innermost live span on the recording thread, if any.
    pub span: Option<u64>,
    /// Event name (dotted taxonomy, e.g. `search.merge_commit`).
    pub name: String,
    /// Typed payload, in call order.
    pub fields: Vec<(String, FieldValue)>,
}

#[derive(Default)]
struct Registry {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    events: std::collections::VecDeque<EventRecord>,
    events_dropped: u64,
    next_event_seq: u64,
}

/// An immutable copy of everything recorded so far. Spans appear in
/// completion order (children before their parents); events in record
/// order.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Completed spans.
    pub spans: Vec<SpanRecord>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name (instantaneous values at snapshot time).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// The event journal, oldest retained record first.
    pub events: Vec<EventRecord>,
    /// Events evicted from the ring buffer ([`EVENT_CAPACITY`]).
    pub events_dropped: u64,
    /// Kernel-probe call sites (span × parent kernel × kernel × dim),
    /// deterministically sorted.
    pub kernel_sites: Vec<KernelSite>,
    /// Per-kernel aggregates (calls, ns, self-time, allocation
    /// counters, per-dimension breakdowns) by kernel name.
    pub kernels: BTreeMap<String, KernelStats>,
}

/// Copies the current telemetry state out of the global registry.
/// Flushes the calling thread's kernel-probe table first; foreign
/// threads flush theirs at exit (worker pools) or via [`kernel_flush`].
pub fn snapshot() -> Snapshot {
    kernel_flush();
    let (kernel_sites, kernels) = kernel::snapshot_kernels();
    let reg = registry().lock().expect("telemetry registry poisoned");
    Snapshot {
        spans: reg.spans.clone(),
        counters: reg.counters.clone(),
        gauges: gauges(),
        histograms: reg.histograms.clone(),
        events: reg.events.iter().cloned().collect(),
        events_dropped: reg.events_dropped,
        kernel_sites,
        kernels,
    }
}

/// RAII guard returned by [`span()`]; records the span when dropped.
#[must_use = "a span measures the scope it lives in — bind it to a variable"]
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
}

/// Opens a named span. The returned guard records wall time from this
/// call until it is dropped; spans opened while another guard is live on
/// the same thread become its children. No-op (and allocation-free) when
/// collection is disabled.
pub fn span(name: impl Into<String>) -> SpanGuard {
    open_span(name, None)
}

/// Opens a named span whose parent is set *explicitly* instead of being
/// taken from this thread's span stack. This is the cross-thread linkage
/// primitive: a worker thread opens its root span with the id of the
/// submitting thread's batch span ([`SpanGuard::id`]), so the merged
/// journal keeps one connected span tree across the whole worker pool.
/// Spans opened on the worker thread while this guard is live nest under
/// it normally. With `parent = None` this is exactly [`span()`].
pub fn span_with_parent(name: impl Into<String>, parent: Option<u64>) -> SpanGuard {
    open_span(name, parent)
}

fn open_span(name: impl Into<String>, explicit_parent: Option<u64>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    let _ = epoch(); // pin the epoch no later than the first span's start
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.sync();
        let parent = explicit_parent.or_else(|| stack.ids.last().copied());
        stack.ids.push(id);
        parent
    });
    SpanGuard {
        live: Some(LiveSpan {
            id,
            parent,
            name: name.into(),
            start: Instant::now(),
        }),
    }
}

impl SpanGuard {
    /// Id of this span, for linking child spans opened on *other*
    /// threads via [`span_with_parent`]. `None` when collection was
    /// disabled at open time (the guard records nothing).
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let duration_ns = live.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let start_ns = live
            .start
            .duration_since(epoch())
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        // If a `reset()` happened while this guard was live, its stack
        // entry is already gone (generation bump) and the span belongs
        // to the wiped epoch: clean up and record nothing.
        let stale = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.sync();
            // Guards normally drop in LIFO order; tolerate manual
            // out-of-order drops by removing this id wherever it is.
            match stack.ids.iter().rposition(|&s| s == live.id) {
                Some(pos) => {
                    stack.ids.remove(pos);
                    false
                }
                None => true,
            }
        });
        if stale {
            return;
        }
        let record = SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            thread: thread_index(),
            start_ns,
            duration_ns,
        };
        let mut reg = registry().lock().expect("telemetry registry poisoned");
        reg.spans.push(record);
    }
}

/// Adds `delta` to the named counter. No-op when collection is disabled.
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock().expect("telemetry registry poisoned");
    *reg.counters.entry(name.to_string()).or_insert(0) += delta;
}

/// Records one value into the named histogram. No-op when disabled.
pub fn observe(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock().expect("telemetry registry poisoned");
    reg.histograms
        .entry(name.to_string())
        .or_default()
        .record(value);
}

/// Sets the named gauge to `value`. Gauges are *last-write-wins*
/// instantaneous levels (queue depth, live workers, RSS) — the
/// complement to monotone [`counter()`]s — sampled periodically by the
/// flight recorder and exported as Chrome-trace counter timelines.
/// No-op when collection is disabled.
pub fn set_gauge(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut map = gauge_map().lock().expect("telemetry gauge map poisoned");
    map.insert(name.to_string(), value);
}

/// Adds `delta` (possibly negative) to the named gauge, creating it at
/// zero first, and returns the new level. No-op (returning 0) when
/// collection is disabled.
pub fn add_gauge(name: &str, delta: f64) -> f64 {
    if !enabled() {
        return 0.0;
    }
    let mut map = gauge_map().lock().expect("telemetry gauge map poisoned");
    let slot = map.entry(name.to_string()).or_insert(0.0);
    *slot += delta;
    *slot
}

/// Current level of the named gauge, if it has ever been set.
pub fn gauge(name: &str) -> Option<f64> {
    gauge_map()
        .lock()
        .expect("telemetry gauge map poisoned")
        .get(name)
        .copied()
}

/// A copy of every gauge's current level — what the flight recorder
/// folds into each `metrics.sample` journal event.
pub fn gauges() -> BTreeMap<String, f64> {
    gauge_map()
        .lock()
        .expect("telemetry gauge map poisoned")
        .clone()
}

/// Records one journal event with typed fields. No-op (one relaxed
/// atomic load, no allocation beyond what the caller already built)
/// when collection is disabled — hot paths with expensive field values
/// should gate on [`enabled`] before building them.
///
/// The record is stamped with the current time, thread index and
/// innermost live span, and pushed into a ring buffer of
/// [`EVENT_CAPACITY`] records (oldest evicted first, eviction counted).
///
/// ```
/// use paqoc_telemetry::FieldValue;
/// paqoc_telemetry::set_enabled(true);
/// paqoc_telemetry::reset();
/// paqoc_telemetry::event(
///     "search.merge_commit",
///     &[("gates", FieldValue::U64(3)), ("gain_ns", FieldValue::F64(12.5))],
/// );
/// let snap = paqoc_telemetry::snapshot();
/// assert_eq!(snap.events[0].name, "search.merge_commit");
/// paqoc_telemetry::set_enabled(false);
/// ```
pub fn event(name: &str, fields: &[(&str, FieldValue)]) {
    if !enabled() {
        return;
    }
    let _ = epoch();
    let ts_ns = epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let record_span = current_span_id();
    let thread = thread_index();
    let mut reg = registry().lock().expect("telemetry registry poisoned");
    let seq = reg.next_event_seq;
    reg.next_event_seq += 1;
    if reg.events.len() >= EVENT_CAPACITY {
        reg.events.pop_front();
        reg.events_dropped += 1;
    }
    reg.events.push_back(EventRecord {
        seq,
        ts_ns,
        thread,
        span: record_span,
        name: name.to_string(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    });
}

/// Writes the current snapshot to the path named by `PAQOC_TRACE`, if
/// it names one, and returns that path. A `.json` path gets the
/// Chrome-trace export ([`Snapshot::to_chrome_trace`], loadable in
/// `chrome://tracing` / Perfetto); anything else gets the JSONL trace.
pub fn write_env_trace() -> std::io::Result<Option<std::path::PathBuf>> {
    let Some(path) = env_trace_path() else {
        return Ok(None);
    };
    let snap = snapshot();
    let body = if path.extension().is_some_and(|e| e == "json") {
        snap.to_chrome_trace()
    } else {
        snap.to_jsonl()
    };
    std::fs::write(&path, body)?;
    Ok(Some(path))
}

/// Opens a span; sugar for [`span()`]. `span!("mine")` must be bound
/// (`let _s = span!("mine");`) to measure the enclosing scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Records a journal event; sugar for [`event()`].
/// `event!("name", key = value, …)` converts each value with
/// [`FieldValue::from`] — and only builds the field slice when
/// collection is enabled, so string/format values cost nothing on the
/// disabled path beyond the one relaxed atomic load.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::event(
                $name,
                &[$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

/// Sets a gauge level; sugar for [`set_gauge`].
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        $crate::set_gauge($name, $value)
    };
}

/// Adds to a counter; sugar for [`counter()`]. Defaults to a delta of 1.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter($name, 1)
    };
    ($name:expr, $delta:expr) => {
        $crate::counter($name, $delta)
    };
}
