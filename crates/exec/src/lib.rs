//! # paqoc-exec
//!
//! A zero-dependency, std-`thread` executor that turns pulse
//! generation — the serial bottleneck of the whole pipeline — into
//! explicit [`PulseJob`] batches run across a configurable worker pool. AccQOC observes that pulse-DB construction is embarrassingly
//! parallel across subcircuits, and PAQOC's per-iteration candidate set
//! (top-k disjoint merge candidates) is exactly such an independent job
//! batch; this crate supplies the machinery without dragging in an
//! async runtime or a threadpool dependency.
//!
//! The pieces:
//!
//! * [`SharedPulseTable`] — the one pulse cache every compile resolves
//!   through, behind one lock: per-key in-flight dedup, cache-wide
//!   quarantine, persistent-store read-through and single-writer
//!   write-behind ([`shared_table`]).
//! * [`PulseSourceFactory`] — `Send`-able per-job source construction,
//!   seeded by [`job_seed`] of the key so results are bit-identical
//!   regardless of thread count or schedule ([`factory`]).
//! * [`run_batch`] — the worker pool itself: workers take jobs
//!   highest priority first from one atomic cursor, with a shared
//!   deadline, `catch_unwind` panic isolation and key quarantine, and
//!   it returns each job's final [`JobStatus`]; with telemetry on, the
//!   `exec.job` and `exec.worker` journal events are the record of its
//!   outcomes, worker time and (against [`stall_budget`]) stalls
//!   ([`executor`]).
//! * [`FairQueue`] — bounded multi-tenant fair-share admission queue
//!   with reject-not-buffer overload behaviour, a pop that blocks until
//!   work or drain arrives, and a drain lifecycle: the scheduling core
//!   of the resident service ([`fair_queue`]).
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

pub use fair_queue::{FairQueue, PushError, QueueConfig};

pub use executor::{
    panic_message, run_batch, stall_budget, ExecOptions, JobStatus, PulseJob, SkipReason,
    STALL_BUDGET_FLOOR,
};
pub use factory::{job_seed, AnalyticFactory, FaultyAnalyticFactory, PulseSourceFactory};
pub use recorder::{interval_from_env, FlightRecorder, METRICS_ENV};
pub use shared_table::{Claim, Provenance, SharedPulseTable};

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(Some(0)), 1);
        assert_eq!(effective_threads(Some(3)), 3);
        assert_eq!(effective_threads(Some(100_000)), MAX_THREADS);
    }
}
