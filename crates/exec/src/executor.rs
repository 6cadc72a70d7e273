//! The priority-ordered batch executor.
//!
//! [`run_batch`] takes a set of [`PulseJob`]s — independent gate groups
//! whose pulses the attach phase (or a benchmark sweep) will need — and
//! generates them across `threads` std workers. Jobs are sorted by
//! descending priority (predicted latency: the biggest pulse first,
//! mirroring the paper's top-k ordering), and every worker takes the
//! next job of that order from one shared atomic cursor, so long GRAPE
//! runs start early and a free worker always takes the most important
//! job left. It returns one final [`JobStatus`] per job, in input order.
//!
//! Determinism: each generation uses a fresh source from the
//! [`PulseSourceFactory`], seeded by [`job_seed`] of the key, with no
//! warm start — the pulse is a pure function of the job, so `threads=1`
//! and `threads=N` produce bit-identical tables. Deadline runs are the
//! documented exception: which jobs get skipped depends on the
//! schedule, exactly as the deadline behaves in the sequential
//! pipeline.
//!
//! Isolation: every generation runs under `catch_unwind`; a panic
//! quarantines the key in the [`SharedPulseTable`] (so a deterministic
//! crash fires once, not once per retry or worker) and the batch keeps
//! going. The deadline is shared: once it passes, no worker starts a
//! new generation.
//!
//! Accounting: with telemetry on, the journal is the one record of what
//! a batch did. Each job writes one `exec.job` event (key, outcome,
//! wall time, a panic's message) and each worker one `exec.worker`
//! event (busy, idle, wall time) when its loop ends. Stalls are read from
//! the `exec.job` events against [`stall_budget`] (`report workers`).

use crate::factory::{job_seed, PulseSourceFactory};
use crate::shared_table::{Claim, Provenance, SharedPulseTable};
use paqoc_circuit::Instruction;
use paqoc_device::{Device, PulseEstimate};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One unit of pulse-generation work.
#[derive(Clone, Debug)]
pub struct PulseJob {
    /// Cache key (the caller's `composite_key`); opaque to the
    /// executor, which claims and seeds by it.
    pub key: String,
    /// The gate group to realize (earlier instructions applied first).
    pub group: Vec<Instruction>,
    /// Scheduling priority — the predicted latency delta of the merge
    /// candidate this pulse serves. Higher runs earlier.
    pub priority: f64,
    /// Fidelity target passed to the source.
    pub target_fidelity: f64,
}

impl PulseJob {
    /// Number of distinct qubits the group touches.
    pub fn qubits(&self) -> usize {
        self.group
            .iter()
            .flat_map(|inst| inst.qubits().iter().copied())
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// Why a job was skipped without attempting generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// The shared deadline passed before the job started.
    Deadline,
    /// The key is quarantined from an earlier panic.
    Quarantined,
    /// Another worker or compile holds the key in flight.
    InFlight,
}

/// Per-job outcome, aligned with the input job order.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// This worker generated the pulse.
    Generated(PulseEstimate),
    /// The pulse already existed (shard or persistent store).
    Hit(PulseEstimate, Provenance),
    /// Generation failed cleanly (typed source error); retriable.
    Failed(String),
    /// The source panicked; the key is now quarantined.
    Panicked(String),
    /// Not attempted (see [`SkipReason`]).
    Skipped(SkipReason),
}

/// Batch execution knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Worker count (min 1). See [`effective_threads`](crate::effective_threads).
    pub threads: usize,
    /// Shared wall-clock deadline: jobs not started by then are skipped.
    pub deadline: Option<Instant>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            deadline: None,
        }
    }
}

/// Floor of the stall budget: generations faster than this are never
/// flagged, however small their predicted latency.
pub const STALL_BUDGET_FLOOR: Duration = Duration::from_millis(25);

/// Wall-clock allowance per nanosecond of predicted latency when
/// deriving a stall budget: bigger merge candidates get proportionally
/// more time before their generation counts as a stall.
const STALL_BUDGET_WALL_PER_PREDICTED_NS: f64 = 10_000.0;

/// How long a generation attempt of a job with this `priority` (its
/// predicted latency) may take before it counts as a stall:
/// [`STALL_BUDGET_FLOOR`] + the predicted latency scaled by a wall-time
/// allowance. Purely observational — nothing is cancelled; `report
/// workers` flags each `exec.job` attempt whose `wall_us` reaches it.
pub fn stall_budget(priority: f64) -> Duration {
    let scaled_ns = (priority.max(0.0) * STALL_BUDGET_WALL_PER_PREDICTED_NS).min(1e15);
    STALL_BUDGET_FLOOR + Duration::from_nanos(scaled_ns as u64)
}

/// Runs `jobs` across `opts.threads` workers against the shared
/// `table`, highest priority first, and returns each job's final status
/// in input-job order. Pulses land in the table (and its write-behind
/// buffer — call [`SharedPulseTable::sync`] afterwards to persist).
pub fn run_batch(
    jobs: &[PulseJob],
    device: &Device,
    factory: &dyn PulseSourceFactory,
    table: &SharedPulseTable,
    opts: &ExecOptions,
) -> Vec<JobStatus> {
    let batch_span = paqoc_telemetry::span("exec.batch");
    let batch_id = batch_span.id();
    let threads = opts
        .threads
        .clamp(1, crate::MAX_THREADS)
        .min(jobs.len().max(1));

    // Priority-descending schedule, index-tie-broken so the order (and
    // with it the threads=1 run) is fully deterministic. Workers take
    // `order[cursor++]` until the cursor runs past the end.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[b]
            .priority
            .partial_cmp(&jobs[a].priority)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let cursor = AtomicUsize::new(0);

    // Queue-depth gauges for the flight recorder, gated on telemetry
    // being enabled; they never touch the pulses, so the threads=1 ≡
    // threads=N determinism contract is unaffected.
    if paqoc_telemetry::enabled() {
        paqoc_telemetry::add_gauge("exec.jobs_pending", jobs.len() as f64);
    }

    let done: Vec<Vec<(usize, JobStatus)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                let (order, cursor) = (&order, &cursor);
                scope.spawn(move || {
                    worker(
                        me, jobs, order, cursor, device, factory, table, opts, batch_id,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let mut statuses = vec![JobStatus::Skipped(SkipReason::Deadline); jobs.len()];
    for (idx, status) in done.into_iter().flatten() {
        statuses[idx] = status;
    }
    statuses
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

#[allow(clippy::too_many_arguments)]
fn worker(
    me: usize,
    jobs: &[PulseJob],
    order: &[usize],
    cursor: &AtomicUsize,
    device: &Device,
    factory: &dyn PulseSourceFactory,
    table: &SharedPulseTable,
    opts: &ExecOptions,
    batch_id: Option<u64>,
) -> Vec<(usize, JobStatus)> {
    // Worker spans run on this thread's own span stack but are linked
    // to the batch span, so the merged journal keeps the tree intact:
    // every kernel call a job makes is recorded under the compile that
    // started the batch.
    let _span = paqoc_telemetry::span_with_parent("exec.worker", batch_id);
    let metrics_on = paqoc_telemetry::enabled();
    let worker_start = Instant::now();
    let mut busy_ns = 0;
    let mut done = Vec::new();

    // `Relaxed` suffices: the cursor publishes no data (`order` is
    // fixed before the workers start), and the atomic add alone hands
    // each position out once.
    while let Some(&idx) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
        if metrics_on {
            paqoc_telemetry::add_gauge("exec.jobs_pending", -1.0);
            paqoc_telemetry::add_gauge("exec.workers_busy", 1.0);
        }
        let job = &jobs[idx];
        let started = Instant::now();
        let status = run_one(job, device, factory, table, opts);
        let wall_ns = elapsed_ns(started);
        busy_ns += wall_ns;
        if metrics_on {
            paqoc_telemetry::add_gauge("exec.workers_busy", -1.0);
            let mut fields = vec![
                ("worker", me.into()),
                ("key", job.key.as_str().into()),
                ("arity", job.qubits().into()),
                ("outcome", status_label(&status).into()),
                ("priority", job.priority.into()),
                ("wall_us", (wall_ns / 1_000).into()),
            ];
            if let JobStatus::Panicked(message) = &status {
                fields.push(("message", message.as_str().into()));
            }
            paqoc_telemetry::event("exec.job", &fields);
        }
        done.push((idx, status));
    }
    if metrics_on {
        // Everything outside a job (taking one, and finding none left)
        // is idle, so busy + idle = wall.
        let wall_ns = elapsed_ns(worker_start);
        paqoc_telemetry::event!(
            "exec.worker",
            worker = me as u64,
            jobs = done.len() as u64,
            busy_us = busy_ns / 1_000,
            idle_us = wall_ns.saturating_sub(busy_ns) / 1_000,
            wall_us = wall_ns / 1_000,
        );
    }
    done
}

/// Executes one taken job: the shared deadline gate, then the claim
/// protocol and (on a successful claim) the actual generation.
fn run_one(
    job: &PulseJob,
    device: &Device,
    factory: &dyn PulseSourceFactory,
    table: &SharedPulseTable,
    opts: &ExecOptions,
) -> JobStatus {
    if opts.deadline.is_some_and(|d| Instant::now() >= d) {
        return JobStatus::Skipped(SkipReason::Deadline);
    }
    match table.claim(&job.key) {
        Claim::Hit(est, prov) => JobStatus::Hit(est, prov),
        Claim::Quarantined => JobStatus::Skipped(SkipReason::Quarantined),
        Claim::InFlight => JobStatus::Skipped(SkipReason::InFlight),
        Claim::Claimed => {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut source = factory.make(job_seed(&job.key));
                source.try_generate(&job.group, device, job.target_fidelity, None)
            }));
            match outcome {
                Ok(Ok(est)) => {
                    table.complete(&job.key, est);
                    JobStatus::Generated(est)
                }
                Ok(Err(err)) => {
                    table.abandon(&job.key);
                    JobStatus::Failed(err.to_string())
                }
                Err(payload) => {
                    table.quarantine(&job.key);
                    JobStatus::Panicked(panic_message(payload.as_ref()))
                }
            }
        }
    }
}

fn status_label(status: &JobStatus) -> &'static str {
    match status {
        JobStatus::Generated(_) => "generated",
        JobStatus::Hit(_, Provenance::Store) => "store_hit",
        JobStatus::Hit(_, _) => "shard_hit",
        JobStatus::Failed(_) => "failed",
        JobStatus::Panicked(_) => "panicked",
        JobStatus::Skipped(SkipReason::Deadline) => "skipped_deadline",
        JobStatus::Skipped(SkipReason::Quarantined) => "skipped_quarantined",
        JobStatus::Skipped(SkipReason::InFlight) => "skipped_in_flight",
    }
}

/// Best-effort string form of a panic payload: its `&str` or `String`
/// message, or `<non-string panic payload>` for any other type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
