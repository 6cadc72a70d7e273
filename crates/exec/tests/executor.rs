//! Contention, isolation, deadline and scheduling acceptance tests for
//! the executor.
//!
//! The heart of the suite is the dedup contract: N workers racing one
//! key must produce **exactly one** generation — the rest take the
//! in-flight dedup path (journaled as `exec.dedup`) — and that must
//! hold even when the one generation panics (`panic_storm`), where the
//! key quarantines instead of retrying per worker.

use paqoc_circuit::{GateKind, Instruction};
use paqoc_device::{AnalyticModel, Device, FaultConfig, PulseEstimate, PulseSource};
use paqoc_exec::{
    job_seed, run_batch, AnalyticFactory, ExecOptions, FaultyAnalyticFactory, JobStatus,
    Provenance, PulseJob, PulseSourceFactory, SharedPulseTable, SkipReason,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const STALL_EVENT: &str = "exec.stall";

fn cx_group(a: usize, b: usize) -> Vec<Instruction> {
    vec![Instruction::new(GateKind::Cx, vec![a, b], vec![])]
}

fn job(key: &str, group: Vec<Instruction>, priority: f64) -> PulseJob {
    PulseJob {
        key: key.to_string(),
        group,
        priority,
        target_fidelity: 0.999,
    }
}

/// N workers racing the same key: exactly one generation; every racer
/// resolves through dedup (or a shard hit if it arrived after the
/// winner published); `exec.dedup` lands in the journal.
#[test]
fn racing_workers_dedup_to_one_generation() {
    paqoc_telemetry::set_enabled(true);
    let before = paqoc_telemetry::snapshot()
        .counters
        .get("exec.dedup")
        .copied()
        .unwrap_or(0);

    let table = SharedPulseTable::new();
    // A 50 ms stall guarantees the racers arrive while the winner is
    // still in flight, so the dedup path actually exercises.
    let factory = FaultyAnalyticFactory::new(FaultConfig::stalling(Duration::from_millis(50)));
    let jobs: Vec<PulseJob> = (0..8)
        .map(|i| job("shared-key", cx_group(0, 1), i as f64))
        .collect();
    let report = run_batch(
        &jobs,
        &Device::grid5x5(),
        &factory,
        &table,
        &ExecOptions {
            threads: 8,
            ..ExecOptions::default()
        },
    );

    assert_eq!(report.generated, 1, "exactly one generation for one key");
    assert_eq!(report.panics, 0);
    assert_eq!(report.failures, 0);
    assert_eq!(report.dedup_hits + report.shard_hits, 7);
    assert!(report.dedup_hits >= 1, "stalled winner must force dedup");
    let est = report.statuses[0]
        .estimate()
        .or_else(|| report.statuses.iter().find_map(JobStatus::estimate))
        .expect("winner produced a pulse");
    for status in &report.statuses {
        assert_eq!(status.estimate(), Some(est), "all racers see one pulse");
    }
    assert_eq!(table.len(), 1);

    let snap = paqoc_telemetry::snapshot();
    let after = snap.counters.get("exec.dedup").copied().unwrap_or(0);
    assert!(
        after >= before + report.dedup_hits as u64,
        "dedup counter must advance"
    );
    assert!(
        snap.events.iter().any(|e| e.name == "exec.dedup"
            && e.fields.iter().any(|(k, _)| k == "worker")
            && e.fields.iter().any(|(k, _)| k == "key")),
        "dedup must be journaled with worker and key fields"
    );
}

/// Under `panic_storm` the racing workers still cause exactly one
/// generation attempt: the panic quarantines the key before the claim
/// drops, so racers resolve to quarantine skips, never to retries.
#[test]
fn panic_storm_contention_quarantines_once() {
    let table = SharedPulseTable::new();
    let cfg = FaultConfig {
        stall: Duration::from_millis(50),
        ..FaultConfig::panic_storm(7, 1.0)
    };
    let factory = FaultyAnalyticFactory::new(cfg);
    let jobs: Vec<PulseJob> = (0..8)
        .map(|_| job("doomed-key", cx_group(0, 1), 1.0))
        .collect();
    let report = run_batch(
        &jobs,
        &Device::grid5x5(),
        &factory,
        &table,
        &ExecOptions {
            threads: 8,
            ..ExecOptions::default()
        },
    );

    assert_eq!(
        report.panics, 1,
        "the storm fires once, not once per worker"
    );
    assert_eq!(report.generated, 0);
    assert_eq!(
        report.skipped, 7,
        "every racer resolves to a quarantine skip: {:?}",
        report.statuses
    );
    assert!(report.statuses.iter().all(|s| matches!(
        s,
        JobStatus::Panicked(_) | JobStatus::Skipped(SkipReason::Quarantined)
    )));
    assert!(table.is_quarantined("doomed-key"));
    assert!(table.get("doomed-key").is_none(), "no pulse was cached");

    // A fresh batch on the same key skips entirely — zero attempts.
    let again = run_batch(
        &jobs[..2],
        &Device::grid5x5(),
        &factory,
        &table,
        &ExecOptions::default(),
    );
    assert_eq!(again.panics, 0);
    assert_eq!(again.generated, 0);
    assert_eq!(again.skipped, 2);
}

/// Pulses, statuses and the table snapshot are bit-identical across
/// thread counts, including which keys fail: faults are seeded per key,
/// not per schedule.
#[test]
fn batch_results_are_identical_across_thread_counts() {
    let device = Device::grid5x5();
    let pairs = [(0, 1), (1, 2), (5, 6), (6, 7), (10, 11), (12, 13), (2, 7)];
    let jobs: Vec<PulseJob> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| job(&format!("k{a}-{b}"), cx_group(a, b), i as f64))
        .collect();
    let cfg = FaultConfig::convergence_storm(42, 0.4);
    let run = |threads: usize| {
        let table = SharedPulseTable::new();
        let report = run_batch(
            &jobs,
            &device,
            &FaultyAnalyticFactory::new(cfg),
            &table,
            &ExecOptions {
                threads,
                ..ExecOptions::default()
            },
        );
        (report, table.snapshot())
    };
    let (r1, snap1) = run(1);
    let (r8, snap8) = run(8);
    assert_eq!(snap1, snap8, "cached pulses must not depend on threads");
    assert_eq!(r1.generated, r8.generated);
    assert_eq!(r1.failures, r8.failures);
    assert!(r1.failures > 0, "the storm must actually fail some keys");
    for (a, b) in r1.statuses.iter().zip(&r8.statuses) {
        assert_eq!(a, b, "per-job statuses must match across thread counts");
    }
}

/// The order in which a batch's sources were made, by job index.
#[derive(Default)]
struct StartLog {
    started: Mutex<Vec<usize>>,
    grew: Condvar,
}

/// Logs the job each source is made for (by its seed). The `held` job's
/// source keeps its worker until every job has started, so the other
/// jobs run on the other worker in whatever order the executor hands
/// them out.
struct RecordingFactory {
    /// `job_seed` of each job's key, by job index.
    seeds: Vec<u64>,
    held: usize,
    log: Arc<StartLog>,
}

impl PulseSourceFactory for RecordingFactory {
    fn make(&self, seed: u64) -> Box<dyn PulseSource + Send> {
        let idx = self
            .seeds
            .iter()
            .position(|&s| s == seed)
            .expect("every seed belongs to a job");
        self.log.started.lock().expect("start log").push(idx);
        self.log.grew.notify_all();
        if idx == self.held {
            Box::new(HeldSource {
                log: Arc::clone(&self.log),
                jobs: self.seeds.len(),
            })
        } else {
            Box::new(AnalyticModel::new())
        }
    }
}

/// Waits until `jobs` sources have been made (at most 5 s, so a wrong
/// schedule fails instead of hanging), then answers as the analytic
/// model does.
struct HeldSource {
    log: Arc<StartLog>,
    jobs: usize,
}

impl PulseSource for HeldSource {
    fn generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        let started = self.log.started.lock().expect("start log");
        let wait = Duration::from_secs(5);
        drop(
            self.log
                .grew
                .wait_timeout_while(started, wait, |s| s.len() < self.jobs)
                .expect("start log"),
        );
        AnalyticModel::new().generate(group, device, target_fidelity, warm_start)
    }

    fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64 {
        AnalyticModel::new().typical_latency_ns(num_qubits, device)
    }

    fn name(&self) -> &'static str {
        "held"
    }
}

/// A free worker takes the most important job left: while one worker
/// is held by the top-priority job, the other starts the remaining five
/// in priority order.
#[test]
fn a_free_worker_takes_the_most_important_job_left() {
    let device = Device::grid5x5();
    // Job i has priority 6 - i: input order is priority order.
    let jobs: Vec<PulseJob> = (0..6)
        .map(|i| job(&format!("p{i}"), cx_group(i, i + 1), (6 - i) as f64))
        .collect();
    let log = Arc::new(StartLog::default());
    let factory = RecordingFactory {
        seeds: jobs.iter().map(|j| job_seed(&j.key)).collect(),
        held: 0,
        log: Arc::clone(&log),
    };
    let report = run_batch(
        &jobs,
        &device,
        &factory,
        &SharedPulseTable::new(),
        &ExecOptions {
            threads: 2,
            ..ExecOptions::default()
        },
    );
    assert_eq!(report.generated, 6);
    let started = log.started.lock().expect("start log").clone();
    let rest: Vec<usize> = started.into_iter().filter(|&i| i != 0).collect();
    assert_eq!(
        rest,
        [1, 2, 3, 4, 5],
        "jobs must start highest priority first"
    );
}

/// Stalled workers cannot sail past a shared deadline: jobs not started
/// by the deadline are skipped, while work already begun completes.
#[test]
fn stall_fault_interacts_with_shared_deadline() {
    let device = Device::grid5x5();
    let factory = FaultyAnalyticFactory::new(FaultConfig::stalling(Duration::from_millis(50)));
    let jobs: Vec<PulseJob> = (0..6)
        .map(|i| job(&format!("d{i}"), cx_group(i, i + 1), 0.0))
        .collect();

    // Already-passed deadline: nothing starts.
    let table = SharedPulseTable::new();
    let expired = run_batch(
        &jobs,
        &device,
        &factory,
        &table,
        &ExecOptions {
            threads: 2,
            deadline: Some(Instant::now()),
        },
    );
    assert_eq!(expired.generated, 0);
    assert!(expired
        .statuses
        .iter()
        .all(|s| *s == JobStatus::Skipped(SkipReason::Deadline)));

    // A deadline shorter than the stalled batch: the first generation
    // completes (deadlines don't abort in-flight work, matching the
    // sequential pipeline), later jobs are skipped.
    let table = SharedPulseTable::new();
    let partial = run_batch(
        &jobs,
        &device,
        &factory,
        &table,
        &ExecOptions {
            threads: 1,
            deadline: Some(Instant::now() + Duration::from_millis(60)),
        },
    );
    assert!(
        partial.generated >= 1,
        "work begun before the deadline runs"
    );
    assert!(
        partial.skipped >= 1,
        "a 300 ms stalled batch cannot fit a 60 ms deadline: {:?}",
        partial.statuses
    );
}

/// Per-worker accounting must cover the worker's whole run loop: every
/// job is attributed to exactly one worker, and each worker's
/// `busy + idle` accounts for its wall time up to per-iteration
/// bookkeeping.
#[test]
fn worker_accounting_covers_wall_time() {
    let device = Device::grid5x5();
    // A 20 ms stall per generation makes busy time dominate, so the
    // utilization assertion is meaningful rather than noise-bound.
    let factory = FaultyAnalyticFactory::new(FaultConfig::stalling(Duration::from_millis(20)));
    let jobs: Vec<PulseJob> = (0..8)
        .map(|i| job(&format!("u{i}"), cx_group(i, i + 1), 0.0))
        .collect();
    let report = run_batch(
        &jobs,
        &device,
        &factory,
        &SharedPulseTable::new(),
        &ExecOptions {
            threads: 4,
            ..ExecOptions::default()
        },
    );

    assert_eq!(report.workers.len(), 4, "one stats row per worker");
    for (i, w) in report.workers.iter().enumerate() {
        assert_eq!(w.worker, i, "rows sorted by worker index");
        let accounted = w.busy_ns + w.idle_ns;
        assert!(
            accounted <= w.wall_ns,
            "worker {i}: accounted {accounted} ns exceeds wall {} ns",
            w.wall_ns
        );
        assert!(
            w.wall_ns - accounted < 10_000_000,
            "worker {i}: {} ns of wall time unaccounted (busy+idle must ≈ wall)",
            w.wall_ns - accounted
        );
        let util = w.utilization();
        assert!((0.0..=1.0).contains(&util));
        if w.jobs > 0 {
            assert!(
                w.busy_ns >= 15_000_000,
                "worker {i} ran {} stalled jobs but was busy only {} ns",
                w.jobs,
                w.busy_ns
            );
        }
    }
    let taken: usize = report.workers.iter().map(|w| w.jobs).sum();
    assert_eq!(taken, jobs.len(), "every job taken exactly once");
}

/// Each stalled generation is flagged exactly once: a 75 ms injected
/// stall blows through the derived 25 ms floor budget, producing one
/// `exec.stall` journal event per job when its generation ends.
#[test]
fn each_stalled_generation_is_flagged_exactly_once() {
    paqoc_telemetry::set_enabled(true);
    let device = Device::grid5x5();
    let factory = FaultyAnalyticFactory::new(FaultConfig::stalling(Duration::from_millis(75)));
    // Unique keys so concurrent tests sharing the global journal can't
    // collide with the per-key assertions below.
    let keys = ["wdog-a", "wdog-b", "wdog-c"];
    let jobs: Vec<PulseJob> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| job(k, cx_group(i, i + 1), 0.0))
        .collect();
    let report = run_batch(
        &jobs,
        &device,
        &factory,
        &SharedPulseTable::new(),
        &ExecOptions {
            threads: 3,
            ..ExecOptions::default()
        },
    );

    assert_eq!(report.generated, 3, "stalled jobs still complete");
    assert_eq!(
        report.stalls, 3,
        "every 75 ms stall must trip the 25 ms floor budget"
    );
    let snap = paqoc_telemetry::snapshot();
    for key in keys {
        let flagged = snap
            .events
            .iter()
            .filter(|e| {
                e.name == STALL_EVENT
                    && e.fields.iter().any(
                        |(k, v)| matches!(v, paqoc_telemetry::FieldValue::Str(s) if k == "key" && s == key),
                    )
            })
            .count();
        assert_eq!(flagged, 1, "job {key} must be flagged exactly once");
    }
    assert!(
        snap.events.iter().any(|e| {
            e.name == STALL_EVENT
                && e.fields.iter().any(|(k, _)| k == "budget_ms")
                && e.fields.iter().any(|(k, _)| k == "elapsed_ms")
        }),
        "stall events carry budget and elapsed fields"
    );

    // A fast generation is not a stall.
    let quiet = run_batch(
        &jobs,
        &device,
        &AnalyticFactory,
        &SharedPulseTable::new(),
        &ExecOptions {
            threads: 3,
            ..ExecOptions::default()
        },
    );
    assert_eq!(quiet.generated, 3);
    assert_eq!(quiet.stalls, 0, "a fast generation is not a stall");
}

/// A traced batch ends when its workers do: nothing it starts outlives
/// them. Three analytic jobs on two threads take well under a
/// millisecond of generation, so the fastest of five traced batches
/// must finish in under 5 ms.
#[test]
fn a_traced_batch_ends_with_its_workers() {
    paqoc_telemetry::set_enabled(true);
    let device = Device::grid5x5();
    let fastest = (0..5)
        .map(|round| {
            let jobs: Vec<PulseJob> = (0..3)
                .map(|i| job(&format!("traced-{round}-{i}"), cx_group(i, i + 1), 0.0))
                .collect();
            let table = SharedPulseTable::new();
            let start = Instant::now();
            let report = run_batch(
                &jobs,
                &device,
                &AnalyticFactory,
                &table,
                &ExecOptions {
                    threads: 2,
                    ..ExecOptions::default()
                },
            );
            let wall = start.elapsed();
            assert_eq!(report.generated, 3);
            wall
        })
        .min()
        .expect("five batches ran");
    assert!(
        fastest < Duration::from_millis(5),
        "the fastest traced batch took {fastest:?}"
    );
}

/// Store-backed tables resolve cross-process hits with store
/// provenance, and write-behind persists batch results on sync.
#[test]
fn batch_write_behind_round_trips_through_store() {
    let dir = std::env::temp_dir().join(format!("paqoc_exec_batch_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("batch.pqps");
    let _ = std::fs::remove_file(&path);
    let device = Device::grid5x5();
    let jobs: Vec<PulseJob> = (0..4)
        .map(|i| job(&format!("s{i}"), cx_group(i, i + 1), 0.0))
        .collect();

    let table = SharedPulseTable::new()
        .with_store(paqoc_store::PulseStore::open(&path, device.fingerprint()).expect("open"));
    let cold = run_batch(
        &jobs,
        &device,
        &AnalyticFactory,
        &table,
        &ExecOptions::default(),
    );
    assert_eq!(cold.generated, 4);
    assert_eq!(table.sync().expect("sync"), 4);

    let table2 = SharedPulseTable::new()
        .with_store(paqoc_store::PulseStore::open(&path, device.fingerprint()).expect("reopen"));
    let warm = run_batch(
        &jobs,
        &device,
        &AnalyticFactory,
        &table2,
        &ExecOptions::default(),
    );
    assert_eq!(warm.generated, 0, "warm run must not regenerate");
    assert_eq!(warm.store_hits, 4);
    assert!(warm
        .statuses
        .iter()
        .all(|s| matches!(s, JobStatus::Hit(_, Provenance::Store))));
    let _ = std::fs::remove_file(&path);
}
