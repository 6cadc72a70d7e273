//! Kernel-level probes: near-zero-overhead scoped timers for the numeric
//! hot loops (`expm`, complex `matmul`, gradient inner products) that
//! dominate GRAPE wall time.
//!
//! Spans are too coarse for kernel attribution — a single GRAPE call
//! runs tens of thousands of matrix products, and opening a span per
//! product would drown the registry lock. Kernel probes instead
//! accumulate into *thread-local* tables (no lock, no allocation on the
//! steady path) keyed by kernel name, matrix dimension, the innermost
//! live span, and the enclosing kernel probe (one nesting level, so
//! `matmul` time under `expm` is separable from `matmul` called
//! directly). The thread-local tables are merged into a global store
//! when a thread exits, when the owning thread takes a [`snapshot`],
//! or on an explicit [`kernel_flush`].
//!
//! Recorded per kernel: call counts, nanosecond totals, a per-dimension
//! latency [`Histogram`] (2×2 … 16×16 and beyond, keyed by the actual
//! dimension), and scratch-allocation counters ([`kernel_alloc`]) so
//! allocation churn in the Padé path is measurable.
//!
//! Probes are armed whenever tracing is on ([`crate::enabled`]), and can
//! be forced on or off from code with [`set_kernel_probes`] — which is
//! what the probe-overhead gate in `verify.sh` uses to compare
//! probes-on against probes-off runs of the same workload. A forced
//! state costs a single relaxed atomic load per site; following the
//! tracing switch adds [`crate::enabled`]'s load.
//!
//! [`snapshot`]: crate::snapshot

use crate::{current_span_id, enabled, Histogram, RESET_GENERATION};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// Follow [`crate::enabled`] unless forced; the steady-state check is
// one relaxed load.
const KSTATE_FOLLOW: u8 = 0;
const KSTATE_ON: u8 = 1;
const KSTATE_OFF: u8 = 2;

static KERNEL_STATE: AtomicU8 = AtomicU8::new(KSTATE_FOLLOW);

/// `true` when kernel probes are armed. Cost: one relaxed atomic load,
/// plus the [`crate::enabled`] load when not forced.
#[inline]
pub fn kernel_probes_enabled() -> bool {
    match KERNEL_STATE.load(Ordering::Relaxed) {
        KSTATE_ON => true,
        KSTATE_OFF => false,
        _ => enabled(),
    }
}

/// Forces kernel probes on (`Some(true)`), off (`Some(false)`), or back
/// to following [`crate::enabled`] (`None`).
pub fn set_kernel_probes(mode: Option<bool>) {
    let state = match mode {
        Some(true) => KSTATE_ON,
        Some(false) => KSTATE_OFF,
        None => KSTATE_FOLLOW,
    };
    KERNEL_STATE.store(state, Ordering::Relaxed);
}

/// Site key: (innermost span id or 0, parent kernel name or "", parent
/// kernel dim, kernel name, kernel dim). The single parent level keeps
/// `matmul`-under-`expm` separable from direct `matmul` calls without
/// storing full probe paths.
type SiteKey = (u64, &'static str, u32, &'static str, u32);

#[derive(Default, Clone, Copy)]
struct CallAgg {
    calls: u64,
    ns: u64,
}

#[derive(Default, Clone, Copy)]
struct AllocAgg {
    allocs: u64,
    bytes: u64,
}

/// Thread-local probe accumulation, generation-tagged like `SpanStack`:
/// a [`crate::reset`] since the last touch wipes it un-flushed, so
/// pre-reset samples can never leak into the post-reset store.
struct KernelTls {
    generation: u64,
    stack: Vec<(&'static str, u32)>,
    sites: HashMap<SiteKey, CallAgg>,
    hists: HashMap<(&'static str, u32), Histogram>,
    allocs: HashMap<&'static str, AllocAgg>,
}

impl KernelTls {
    fn sync(&mut self) {
        let generation = RESET_GENERATION.load(Ordering::Relaxed);
        if self.generation != generation {
            self.generation = generation;
            self.stack.clear();
            self.sites.clear();
            self.hists.clear();
            self.allocs.clear();
        }
    }

    fn flush_into_store(&mut self) {
        self.sync();
        if self.sites.is_empty() && self.hists.is_empty() && self.allocs.is_empty() {
            return;
        }
        let mut store = kernel_store().lock().expect("kernel store poisoned");
        // The store carries its own generation tag: a flush racing a
        // reset on another thread must not resurrect wiped samples.
        if store.generation != self.generation {
            if store.generation > self.generation {
                self.stack.clear();
                self.sites.clear();
                self.hists.clear();
                self.allocs.clear();
                return;
            }
            store.generation = self.generation;
            store.sites.clear();
            store.hists.clear();
            store.allocs.clear();
        }
        for (key, agg) in self.sites.drain() {
            let slot = store.sites.entry(key).or_default();
            slot.calls += agg.calls;
            slot.ns += agg.ns;
        }
        for (key, hist) in self.hists.drain() {
            store.hists.entry(key).or_default().merge(&hist);
        }
        for (name, agg) in self.allocs.drain() {
            let slot = store.allocs.entry(name).or_default();
            slot.allocs += agg.allocs;
            slot.bytes += agg.bytes;
        }
    }
}

impl Drop for KernelTls {
    fn drop(&mut self) {
        // Thread exit: merge what this thread accumulated. Worker-pool
        // threads die before their batch returns, so batch callers see
        // complete kernel data without any explicit flush.
        self.flush_into_store();
    }
}

thread_local! {
    static KERNEL_TLS: RefCell<KernelTls> = RefCell::new(KernelTls {
        generation: RESET_GENERATION.load(Ordering::Relaxed),
        stack: Vec::new(),
        sites: HashMap::new(),
        hists: HashMap::new(),
        allocs: HashMap::new(),
    });
}

#[derive(Default)]
struct KernelStoreState {
    generation: u64,
    sites: BTreeMap<SiteKey, CallAgg>,
    hists: BTreeMap<(&'static str, u32), Histogram>,
    allocs: BTreeMap<&'static str, AllocAgg>,
}

/// The merged cross-thread kernel store lives behind its own lock, like
/// the gauge map: probes never touch it on the hot path (thread-local
/// accumulation only), so flushes cannot contend with span recording.
fn kernel_store() -> &'static Mutex<KernelStoreState> {
    static STORE: OnceLock<Mutex<KernelStoreState>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(KernelStoreState::default()))
}

/// RAII guard returned by [`kernel_enter`]; records the kernel call when
/// dropped. Inert (and free) when probes are disarmed.
#[must_use = "a kernel probe measures the scope it lives in — bind it to a variable"]
pub struct KernelProbe {
    live: Option<LiveProbe>,
}

struct LiveProbe {
    name: &'static str,
    dim: u32,
    span: u64,
    parent_name: &'static str,
    parent_dim: u32,
    start: Instant,
}

/// Opens a kernel probe: a scoped timer attributed to the innermost
/// live span and the enclosing kernel probe on this thread. Prefer the
/// [`kernel_probe!`](crate::kernel_probe) macro. `dim` is the matrix
/// dimension (histograms are bucketed per dimension).
pub fn kernel_enter(name: &'static str, dim: usize) -> KernelProbe {
    if !kernel_probes_enabled() {
        return KernelProbe { live: None };
    }
    let span = current_span_id().unwrap_or(0);
    let dim = dim.min(u32::MAX as usize) as u32;
    let (parent_name, parent_dim) = KERNEL_TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        tls.sync();
        let parent = tls.stack.last().copied().unwrap_or(("", 0));
        tls.stack.push((name, dim));
        parent
    });
    KernelProbe {
        live: Some(LiveProbe {
            name,
            dim,
            span,
            parent_name,
            parent_dim,
            start: Instant::now(),
        }),
    }
}

impl Drop for KernelProbe {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let ns = live.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        // try_with: a probe dropped during thread teardown (after the
        // TLS table was destroyed) records nothing rather than aborting.
        let _ = KERNEL_TLS.try_with(|tls| {
            let mut tls = tls.borrow_mut();
            tls.sync();
            // A reset while this probe was live cleared the stack: the
            // sample belongs to the wiped epoch, record nothing.
            let Some(pos) = tls
                .stack
                .iter()
                .rposition(|&(n, d)| n == live.name && d == live.dim)
            else {
                return;
            };
            tls.stack.remove(pos);
            let key = (
                live.span,
                live.parent_name,
                live.parent_dim,
                live.name,
                live.dim,
            );
            let agg = tls.sites.entry(key).or_default();
            agg.calls += 1;
            agg.ns += ns;
            tls.hists
                .entry((live.name, live.dim))
                .or_default()
                .record(ns as f64);
        });
    }
}

/// Counts `count` scratch allocations totalling `bytes` bytes against
/// the named kernel. Thread-local, lock-free; no-op when probes are
/// disarmed. These counters make allocation churn (e.g. the nine Padé
/// scratch matrices `expm` allocates per call) measurable, so scratch
/// reuse shows up as a falling byte count rather than a guess.
pub fn kernel_alloc(name: &'static str, count: u64, bytes: u64) {
    if !kernel_probes_enabled() {
        return;
    }
    KERNEL_TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        tls.sync();
        let agg = tls.allocs.entry(name).or_default();
        agg.allocs += count;
        agg.bytes += bytes;
    });
}

/// Merges this thread's accumulated kernel samples into the global
/// store. Called automatically at thread exit and by
/// [`crate::snapshot`] (for the snapshotting thread); call it manually
/// only when another thread needs this thread's samples mid-flight.
pub fn kernel_flush() {
    let _ = KERNEL_TLS.try_with(|tls| tls.borrow_mut().flush_into_store());
}

/// This thread's un-flushed per-kernel running totals, as
/// `name → (calls, total_ns)`. Monotone between flushes, so two reads
/// count what this thread ran in between, without touching any lock or
/// seeing other threads' calls.
pub fn kernel_thread_totals() -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let _ = KERNEL_TLS.try_with(|tls| {
        let mut tls = tls.borrow_mut();
        tls.sync();
        for (&(_, _, _, name, _), agg) in &tls.sites {
            let slot = totals.entry(name).or_insert((0, 0));
            slot.0 += agg.calls;
            slot.1 += agg.ns;
        }
    });
    totals
}

/// Wipes the global kernel store (called from [`crate::reset`] after the
/// generation bump, so thread-local tables self-clear too).
pub(crate) fn clear_store() {
    let mut store = kernel_store().lock().expect("kernel store poisoned");
    store.generation = RESET_GENERATION.load(Ordering::Relaxed);
    store.sites.clear();
    store.hists.clear();
    store.allocs.clear();
}

/// One aggregated kernel call site: a (span, parent kernel, kernel,
/// dimension) cell of the attribution table.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelSite {
    /// Innermost live span at probe entry, if any.
    pub span: Option<u64>,
    /// Enclosing kernel probe (name, dim) at entry, if any.
    pub parent: Option<(String, u32)>,
    /// Kernel name (e.g. `mathkit.matmul`).
    pub name: String,
    /// Matrix dimension.
    pub dim: u32,
    /// Number of calls recorded at this site.
    pub calls: u64,
    /// Total nanoseconds across those calls (inclusive of nested
    /// kernels).
    pub total_ns: u64,
}

/// Per-dimension aggregate of one kernel.
#[derive(Clone, Debug, Default)]
pub struct KernelDimStats {
    /// Calls at this dimension.
    pub calls: u64,
    /// Total nanoseconds at this dimension (inclusive of nested
    /// kernels).
    pub total_ns: u64,
    /// Self nanoseconds: total minus time spent in kernels probed
    /// *inside* this one at this dimension.
    pub self_ns: u64,
    /// Latency sketch of individual calls (nanoseconds).
    pub hist: Histogram,
}

/// Cross-dimension aggregate of one kernel.
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// Total calls.
    pub calls: u64,
    /// Total nanoseconds (inclusive of nested kernels).
    pub total_ns: u64,
    /// Self nanoseconds: total minus time spent in nested kernel
    /// probes.
    pub self_ns: u64,
    /// Scratch bytes allocated ([`kernel_alloc`]).
    pub alloc_bytes: u64,
    /// Scratch allocation count ([`kernel_alloc`]).
    pub allocs: u64,
    /// Per-dimension breakdown.
    pub by_dim: BTreeMap<u32, KernelDimStats>,
}

/// Builds the snapshot views from the global store: the sorted site
/// list, and the per-kernel aggregates [`aggregate`] derives from it and
/// the store's sketches and allocation totals. The caller flushed its
/// own TLS first.
pub(crate) fn snapshot_kernels() -> (Vec<KernelSite>, BTreeMap<String, KernelStats>) {
    let store = kernel_store().lock().expect("kernel store poisoned");
    let mut sites: Vec<KernelSite> = store
        .sites
        .iter()
        .map(
            |(&(span, parent_name, parent_dim, name, dim), agg)| KernelSite {
                span: (span != 0).then_some(span),
                parent: (!parent_name.is_empty()).then(|| (parent_name.to_string(), parent_dim)),
                name: name.to_string(),
                dim,
                calls: agg.calls,
                total_ns: agg.ns,
            },
        )
        .collect();
    sites.sort_by(|a, b| {
        (&a.name, a.dim, a.span, &a.parent).cmp(&(&b.name, b.dim, b.span, &b.parent))
    });
    let sketches = store
        .hists
        .iter()
        .map(|(&(name, dim), hist)| ((name.to_string(), dim), hist.clone()))
        .collect();
    let allocs = store
        .allocs
        .iter()
        .map(|(&name, agg)| (name.to_string(), (agg.allocs, agg.bytes)))
        .collect();
    drop(store);
    let kernels = aggregate(&sites, sketches, allocs);
    (sites, kernels)
}

/// Derives the per-kernel aggregates — calls, total and self time, the
/// per-dimension breakdowns with their latency sketches, allocation
/// totals — from the call sites, one latency sketch per (kernel,
/// dimension) and one `(allocs, bytes)` total per kernel.
/// [`crate::snapshot`] and [`crate::Snapshot::from_jsonl`] both derive
/// [`crate::Snapshot::kernels`] here, so a trace read back aggregates
/// exactly as the recorded one did.
pub(crate) fn aggregate(
    sites: &[KernelSite],
    mut sketches: BTreeMap<(String, u32), Histogram>,
    allocs: BTreeMap<String, (u64, u64)>,
) -> BTreeMap<String, KernelStats> {
    // Nested-kernel time per (name, dim): what self-time subtracts.
    let mut child_ns: BTreeMap<(&str, u32), u64> = BTreeMap::new();
    let mut kernels: BTreeMap<String, KernelStats> = BTreeMap::new();
    for site in sites {
        if let Some((parent, parent_dim)) = &site.parent {
            *child_ns.entry((parent.as_str(), *parent_dim)).or_insert(0) += site.total_ns;
        }
        let k = kernels.entry(site.name.clone()).or_default();
        k.calls += site.calls;
        k.total_ns += site.total_ns;
        let d = k.by_dim.entry(site.dim).or_default();
        d.calls += site.calls;
        d.total_ns += site.total_ns;
    }
    for (name, k) in kernels.iter_mut() {
        let mut nested = 0u64;
        for (dim, d) in k.by_dim.iter_mut() {
            if let Some(hist) = sketches.remove(&(name.clone(), *dim)) {
                d.hist = hist;
            }
            let child = child_ns.get(&(name.as_str(), *dim)).copied().unwrap_or(0);
            d.self_ns = d.total_ns.saturating_sub(child);
            nested += child;
        }
        k.self_ns = k.total_ns.saturating_sub(nested);
    }
    for (name, (allocs, bytes)) in allocs {
        let k = kernels.entry(name).or_default();
        k.alloc_bytes += bytes;
        k.allocs += allocs;
    }
    kernels
}

/// Opens a kernel probe; sugar for [`kernel_enter`]. The guard is bound
/// to a hidden local, so the probe measures the rest of the enclosing
/// scope:
///
/// ```
/// # fn matmul_inner() {}
/// pub fn matmul(n: usize) {
///     paqoc_telemetry::kernel_probe!("mathkit.matmul", n);
///     matmul_inner(); // timed
/// }
/// ```
#[macro_export]
macro_rules! kernel_probe {
    ($name:expr, $dim:expr) => {
        let _kernel_probe_guard = $crate::kernel_enter($name, $dim);
    };
}
