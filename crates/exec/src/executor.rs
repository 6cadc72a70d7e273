//! The priority-ordered batch executor.
//!
//! [`run_batch`] takes a set of [`PulseJob`]s — independent gate groups
//! whose pulses the attach phase (or a benchmark sweep) will need — and
//! generates them across `threads` std workers. Jobs are sorted by
//! descending priority (predicted latency: the biggest pulse first,
//! mirroring the paper's top-k ordering), and every worker takes the
//! next job of that order from one shared atomic cursor, so long GRAPE
//! runs start early and a free worker always takes the most important
//! job left.
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
    /// executor, which shards, dedups and seeds by it.
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
}

/// Per-job outcome, aligned with the input job order.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// This worker generated the pulse.
    Generated(PulseEstimate),
    /// The pulse already existed (shard or persistent store).
    Hit(PulseEstimate, Provenance),
    /// Another worker generated it first; this is the dedup path.
    Deduped(PulseEstimate),
    /// Generation failed cleanly (typed source error); retriable.
    Failed(String),
    /// The source panicked; the key is now quarantined.
    Panicked(String),
    /// Not attempted (see [`SkipReason`]).
    Skipped(SkipReason),
}

impl JobStatus {
    /// The usable pulse, when the job produced or found one.
    pub fn estimate(&self) -> Option<PulseEstimate> {
        match self {
            JobStatus::Generated(est) | JobStatus::Deduped(est) | JobStatus::Hit(est, _) => {
                Some(*est)
            }
            _ => None,
        }
    }
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

/// How long a worker may spend generating one job before the
/// generation counts as a stall and, with telemetry on, is journaled as
/// an `exec.stall` event when it ends: [`STALL_BUDGET_FLOOR`] + the
/// job's predicted latency scaled by a wall-time allowance. Purely
/// observational — nothing is cancelled; the budget bounds silence,
/// not work.
pub fn stall_budget(job: &PulseJob) -> Duration {
    let scaled_ns = (job.priority.max(0.0) * STALL_BUDGET_WALL_PER_PREDICTED_NS).min(1e15);
    STALL_BUDGET_FLOOR + Duration::from_nanos(scaled_ns as u64)
}

/// Per-worker utilization accounting for one batch: where this worker's
/// wall time went, split into busy (executing jobs, dedup checks
/// included) and idle (taking a job from the shared cursor, or finding
/// none left). The executor guarantees `busy + idle ≈ wall` — the
/// remainder is per-iteration bookkeeping measured in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the batch pool.
    pub worker: usize,
    /// Jobs this worker took (all outcomes, dedups and skips included).
    pub jobs: usize,
    /// Nanoseconds spent executing jobs.
    pub busy_ns: u64,
    /// Nanoseconds spent taking jobs or finding none left.
    pub idle_ns: u64,
    /// Total wall time of this worker's run loop.
    pub wall_ns: u64,
}

impl WorkerStats {
    /// Busy share of this worker's wall time, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }
}

/// What a batch did, with per-job statuses in input order.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// One status per input job, same order.
    pub statuses: Vec<JobStatus>,
    /// Pulses generated by workers in this batch.
    pub generated: usize,
    /// Jobs resolved from a shard already holding the pulse.
    pub shard_hits: usize,
    /// Jobs resolved by persistent-store read-through.
    pub store_hits: usize,
    /// Jobs that raced an in-flight generation and reused its result.
    pub dedup_hits: usize,
    /// Clean generation failures.
    pub failures: usize,
    /// Panicking generations (keys now quarantined).
    pub panics: usize,
    /// Jobs skipped for deadline or quarantine.
    pub skipped: usize,
    /// Cost units spent by this batch's generations.
    pub cost_spent_units: f64,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Per-worker utilization accounting, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Generations that ran at least their [`stall_budget`] (one
    /// `exec.stall` journal event each, written when the generation
    /// ends). Zero when telemetry is disabled.
    pub stalls: usize,
}

impl BatchReport {
    fn tally(&mut self) {
        for status in &self.statuses {
            match status {
                JobStatus::Generated(est) => {
                    self.generated += 1;
                    self.cost_spent_units += est.cost_units;
                }
                JobStatus::Hit(_, Provenance::Store) => self.store_hits += 1,
                JobStatus::Hit(_, _) => self.shard_hits += 1,
                JobStatus::Deduped(_) => self.dedup_hits += 1,
                JobStatus::Failed(_) => self.failures += 1,
                JobStatus::Panicked(_) => self.panics += 1,
                JobStatus::Skipped(_) => self.skipped += 1,
            }
        }
    }
}

struct WorkerYield {
    done: Vec<(usize, JobStatus)>,
    /// Jobs that hit the in-flight dedup path, resolved after the join.
    pending: Vec<usize>,
    /// This worker's utilization accounting.
    stats: WorkerStats,
    /// Stalls this worker flagged (see [`BatchReport::stalls`]).
    stalls: usize,
}

/// Runs `jobs` across `opts.threads` workers against the shared
/// `table`, highest priority first. Statuses come back in input-job
/// order; pulses land in the table (and its write-behind buffer — call
/// [`SharedPulseTable::sync`] afterwards to persist).
pub fn run_batch(
    jobs: &[PulseJob],
    device: &Device,
    factory: &dyn PulseSourceFactory,
    table: &SharedPulseTable,
    opts: &ExecOptions,
) -> BatchReport {
    let start = Instant::now();
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

    let yields: Vec<WorkerYield> = std::thread::scope(|scope| {
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
            .map(|h| {
                h.join().unwrap_or_else(|_| WorkerYield {
                    done: Vec::new(),
                    pending: Vec::new(),
                    stats: WorkerStats::default(),
                    stalls: 0,
                })
            })
            .collect()
    });

    // Stitch worker results back into input order, then resolve the
    // dedup losers now that every in-flight generation has settled.
    let mut statuses = vec![JobStatus::Skipped(SkipReason::Deadline); jobs.len()];
    let mut pending = Vec::new();
    let mut workers = Vec::with_capacity(yields.len());
    let mut stalls = 0;
    for y in yields {
        for (idx, status) in y.done {
            statuses[idx] = status;
        }
        pending.extend(y.pending);
        workers.push(y.stats);
        stalls += y.stalls;
    }
    workers.sort_by_key(|w| w.worker);
    for idx in pending {
        let key = &jobs[idx].key;
        statuses[idx] = if let Some(est) = table.get(key) {
            JobStatus::Deduped(est)
        } else if table.is_quarantined(key) {
            JobStatus::Skipped(SkipReason::Quarantined)
        } else {
            JobStatus::Failed("deduped onto a generation that failed".to_string())
        };
    }

    let mut report = BatchReport {
        statuses,
        wall: start.elapsed(),
        workers,
        stalls,
        ..BatchReport::default()
    };
    report.tally();
    if paqoc_telemetry::enabled() {
        for w in &report.workers {
            paqoc_telemetry::observe("exec.worker.utilization", w.utilization());
            paqoc_telemetry::observe("exec.worker.busy_ms", w.busy_ns as f64 / 1e6);
            paqoc_telemetry::event!(
                "exec.worker",
                worker = w.worker as u64,
                jobs = w.jobs as u64,
                busy_us = w.busy_ns / 1_000,
                idle_us = w.idle_ns / 1_000,
                wall_us = w.wall_ns / 1_000,
                utilization = w.utilization(),
            );
        }
        paqoc_telemetry::event!(
            "exec.batch",
            jobs = jobs.len() as u64,
            threads = threads as u64,
            generated = report.generated as u64,
            shard_hits = report.shard_hits as u64,
            store_hits = report.store_hits as u64,
            dedup_hits = report.dedup_hits as u64,
            failures = report.failures as u64,
            panics = report.panics as u64,
            skipped = report.skipped as u64,
            stalls = report.stalls as u64,
            cost_units = report.cost_spent_units,
            wall_us = report.wall.as_micros() as u64,
        );
    }
    report
}

/// How one pulled job resolved inside the worker loop.
enum Disposition {
    Done(JobStatus),
    /// In-flight dedup: resolved after the batch joins.
    Pending,
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
) -> WorkerYield {
    // Worker spans run on this thread's own span stack but are linked
    // to the batch span, so the merged journal keeps the tree intact:
    // every kernel call a job makes is recorded under the compile that
    // started the batch.
    let _span = paqoc_telemetry::span_with_parent("exec.worker", batch_id);
    let metrics_on = paqoc_telemetry::enabled();
    let worker_start = Instant::now();
    let mut stats = WorkerStats {
        worker: me,
        ..WorkerStats::default()
    };
    let mut done = Vec::new();
    let mut pending = Vec::new();
    let mut stalls = 0;

    loop {
        // Taking a job, and finding none left, count as idle — so
        // busy + idle covers the loop. `Relaxed` suffices: the cursor
        // publishes no data (`order` is fixed before the workers start),
        // and the atomic add alone hands each position out once.
        let acquire_start = Instant::now();
        let next = order.get(cursor.fetch_add(1, Ordering::Relaxed)).copied();
        stats.idle_ns += elapsed_ns(acquire_start);
        let Some(idx) = next else {
            break;
        };
        if metrics_on {
            paqoc_telemetry::add_gauge("exec.jobs_pending", -1.0);
            paqoc_telemetry::add_gauge("exec.workers_busy", 1.0);
        }
        let busy_start = Instant::now();
        let disposition = run_one(me, &jobs[idx], device, factory, table, opts, &mut stalls);
        let busy_ns = elapsed_ns(busy_start);
        stats.busy_ns += busy_ns;
        stats.jobs += 1;
        if metrics_on {
            paqoc_telemetry::add_gauge("exec.workers_busy", -1.0);
        }
        match disposition {
            Disposition::Done(status) => {
                if metrics_on {
                    paqoc_telemetry::event!(
                        "exec.job",
                        worker = me as u64,
                        arity = jobs[idx].qubits() as u64,
                        outcome = status_label(&status),
                        priority = jobs[idx].priority,
                        wall_us = busy_ns / 1_000,
                    );
                }
                done.push((idx, status));
            }
            Disposition::Pending => pending.push(idx),
        }
    }
    stats.wall_ns = elapsed_ns(worker_start);
    WorkerYield {
        done,
        pending,
        stats,
        stalls,
    }
}

/// Executes one taken job: the shared deadline gate, then the claim
/// protocol and (on a successful claim) the actual generation. A
/// generation that ran at least its [`stall_budget`] is counted in
/// `stalls` and, with telemetry on, journaled as an `exec.stall` event.
fn run_one(
    me: usize,
    job: &PulseJob,
    device: &Device,
    factory: &dyn PulseSourceFactory,
    table: &SharedPulseTable,
    opts: &ExecOptions,
    stalls: &mut usize,
) -> Disposition {
    if opts.deadline.is_some_and(|d| Instant::now() >= d) {
        return Disposition::Done(JobStatus::Skipped(SkipReason::Deadline));
    }
    let status = match table.claim(&job.key) {
        Claim::Hit(est, prov) => JobStatus::Hit(est, prov),
        Claim::Quarantined => JobStatus::Skipped(SkipReason::Quarantined),
        Claim::InFlight => {
            paqoc_telemetry::counter("exec.dedup", 1);
            paqoc_telemetry::event!(
                "exec.dedup",
                worker = me as u64,
                arity = job.qubits() as u64,
                key = job.key.as_str(),
            );
            return Disposition::Pending;
        }
        Claim::Claimed => {
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut source = factory.make(job_seed(&job.key));
                source.try_generate(&job.group, device, job.target_fidelity, None)
            }));
            let elapsed = started.elapsed();
            let budget = stall_budget(job);
            if elapsed >= budget && paqoc_telemetry::enabled() {
                *stalls += 1;
                paqoc_telemetry::counter("exec.stall", 1);
                paqoc_telemetry::event!(
                    "exec.stall",
                    worker = me as u64,
                    key = job.key.as_str(),
                    arity = job.qubits() as u64,
                    priority = job.priority,
                    elapsed_ms = elapsed.as_millis() as u64,
                    budget_ms = budget.as_millis() as u64,
                );
            }
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
                    let message = panic_message(payload.as_ref());
                    paqoc_telemetry::counter("exec.panic", 1);
                    paqoc_telemetry::event!(
                        "exec.panic",
                        worker = me as u64,
                        key = job.key.as_str(),
                        message = message.as_str(),
                    );
                    JobStatus::Panicked(message)
                }
            }
        }
    };
    Disposition::Done(status)
}

fn status_label(status: &JobStatus) -> &'static str {
    match status {
        JobStatus::Generated(_) => "generated",
        JobStatus::Hit(_, Provenance::Store) => "store_hit",
        JobStatus::Hit(_, _) => "shard_hit",
        JobStatus::Deduped(_) => "dedup",
        JobStatus::Failed(_) => "failed",
        JobStatus::Panicked(_) => "panicked",
        JobStatus::Skipped(SkipReason::Deadline) => "skipped_deadline",
        JobStatus::Skipped(SkipReason::Quarantined) => "skipped_quarantined",
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
