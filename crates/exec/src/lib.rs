//! # paqoc-exec
//!
//! A zero-dependency, std-`thread` work-stealing executor that turns
//! pulse generation — the serial bottleneck of the whole pipeline —
//! into explicit [`PulseJob`] batches run across a configurable worker
//! pool. AccQOC observes that pulse-DB construction is embarrassingly
//! parallel across subcircuits, and PAQOC's per-iteration candidate set
//! (top-k disjoint merge candidates) is exactly such an independent job
//! batch; this crate supplies the machinery without dragging in an
//! async runtime or a threadpool dependency.
//!
//! The pieces:
//!
//! * [`SharedPulseTable`] — the one pulse cache every compile resolves
//!   through: sharded and lock-striped, with per-key in-flight dedup,
//!   cache-wide quarantine, persistent-store read-through and
//!   single-writer write-behind ([`shared_table`]).
//! * [`PulseSourceFactory`] — `Send`-able per-job source construction,
//!   seeded by [`job_seed`] of the key so results are bit-identical
//!   regardless of thread count or schedule ([`factory`]).
//! * [`run_batch`] — the work-stealing pool itself, with shared
//!   deadline/cost budgets, `catch_unwind` panic isolation and key
//!   quarantine ([`executor`]).
//! * [`parallel_map`] — order-preserving parallel map used by the
//!   bench harness to compile the 17-benchmark suite concurrently.
//! * [`FairQueue`] — bounded multi-tenant fair-share admission queue
//!   with reject-not-buffer overload behaviour and a drain lifecycle,
//!   the scheduling core of the resident service ([`fair_queue`]).
//! * [`FlightRecorder`] — opt-in background metrics sampler
//!   (`PAQOC_METRICS_MS`) snapshotting gauges and process CPU/RSS into
//!   the event journal, strictly off the job-execution path
//!   ([`recorder`]).
//!
//! Thread count resolves as: explicit option → `PAQOC_THREADS` env →
//! `std::thread::available_parallelism()`, clamped to
//! `1..=`[`MAX_THREADS`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod factory;
pub mod fair_queue;
pub mod recorder;
pub mod shared_table;

pub use fair_queue::{FairQueue, Pop, PushError, QueueConfig};

pub use executor::{
    run_batch, stall_budget, BatchReport, ExecOptions, JobStatus, PulseJob, SkipReason,
    WorkerStats, STALL_BUDGET_FLOOR,
};
pub use factory::{job_seed, AnalyticFactory, FaultyAnalyticFactory, PulseSourceFactory};
pub use recorder::{interval_from_env, FlightRecorder, METRICS_ENV};
pub use shared_table::{Claim, Provenance, SharedPulseTable, StoreHealth, DEFAULT_SHARDS};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hard ceiling on worker counts, protecting against a typo'd
/// `PAQOC_THREADS=4000` spawning thousands of OS threads.
pub const MAX_THREADS: usize = 64;

/// Parses the `PAQOC_THREADS` environment knob (positive integer).
pub fn threads_from_env() -> Option<usize> {
    std::env::var("PAQOC_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
}

/// Resolves the worker count: `requested` → `PAQOC_THREADS` →
/// available hardware parallelism, clamped to `1..=`[`MAX_THREADS`].
pub fn effective_threads(requested: Option<usize>) -> usize {
    requested
        .or_else(threads_from_env)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, MAX_THREADS)
}

/// Order-preserving parallel map: applies `f(index, item)` to every
/// item on up to `threads` std workers and returns results in input
/// order. Items are claimed by an atomic cursor, so the work balances
/// without a queue; with `threads == 1` this degenerates to a plain
/// in-order loop, which is what the determinism smoke compares against.
///
/// A panicking `f` poisons only that worker; the affected item's slot
/// is reported via `None` in the panic-tolerant variant
/// [`try_parallel_map`]. `parallel_map` itself propagates the panic
/// after all workers stop.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let results = try_parallel_map(items, threads, &f);
    if results.iter().any(Option::is_none) {
        panic!("parallel_map worker panicked");
    }
    results.into_iter().flatten().collect()
}

/// Like [`parallel_map`], but a panicking `f` yields `None` for its
/// item instead of aborting the whole map.
pub fn try_parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<Option<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, MAX_THREADS).min(n.max(1));
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let Some(item) = slots[i].lock().ok().and_then(|mut s| s.take()) else {
                    continue;
                };
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, item)));
                if let (Ok(r), Ok(mut slot)) = (result, out[i].lock()) {
                    *slot = Some(r);
                }
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_at_any_width() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 3, 8] {
            let out = parallel_map(items.clone(), threads, |i, x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_parallel_map_isolates_panics() {
        let out = try_parallel_map((0..10).collect::<Vec<usize>>(), 4, |_, x| {
            assert!(x != 5, "boom");
            x
        });
        assert_eq!(out.iter().filter(|r| r.is_none()).count(), 1);
        assert!(out[5].is_none());
        assert_eq!(out[4], Some(4));
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(Some(0)), 1);
        assert_eq!(effective_threads(Some(3)), 3);
        assert_eq!(effective_threads(Some(100_000)), MAX_THREADS);
    }
}
