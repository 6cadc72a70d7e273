//! Contention, isolation, deadline and scheduling acceptance tests for
//! the executor.
//!
//! The heart of the suite is the one-claim contract: N workers racing
//! one key must produce **exactly one** generation — the rest find the
//! key in flight and are skipped (journaled as `exec.job` events with
//! outcome `skipped_in_flight`), or find the pulse — and that must hold
//! even when the one generation panics (`panic_storm`), where the key
//! quarantines instead of retrying per worker.

use paqoc_circuit::{GateKind, Instruction};
use paqoc_device::{AnalyticModel, Device, FaultConfig, PulseEstimate, PulseSource};
use paqoc_exec::{
    job_seed, run_batch, AnalyticFactory, ExecOptions, FaultyAnalyticFactory, JobStatus,
    Provenance, PulseJob, PulseSourceFactory, SharedPulseTable, SkipReason,
};
use paqoc_telemetry::{EventRecord, FieldValue};
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

fn count(statuses: &[JobStatus], matches: impl Fn(&JobStatus) -> bool) -> usize {
    statuses.iter().filter(|s| matches(s)).count()
}

fn generated(statuses: &[JobStatus]) -> usize {
    count(statuses, |s| matches!(s, JobStatus::Generated(_)))
}

/// The event field `key`; panics when the event lacks it.
fn field<'a>(e: &'a EventRecord, key: &str) -> &'a FieldValue {
    e.fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("{} has no {key} field", e.name))
}

fn field_u64(e: &EventRecord, key: &str) -> u64 {
    match field(e, key) {
        FieldValue::U64(n) => *n,
        other => panic!("{}.{key} is {other:?}", e.name),
    }
}

fn field_str<'a>(e: &'a EventRecord, key: &str) -> &'a str {
    match field(e, key) {
        FieldValue::Str(s) => s,
        other => panic!("{}.{key} is {other:?}", e.name),
    }
}

/// N workers racing the same key: exactly one generation; every racer
/// is skipped as in flight (or hits the shard if it arrived after the
/// winner published), and each skip is journaled with its key.
#[test]
fn racing_workers_make_one_generation() {
    paqoc_telemetry::set_enabled(true);
    let table = SharedPulseTable::new();
    // A 50 ms stall guarantees the racers arrive while the winner is
    // still in flight, so the in-flight path actually exercises.
    let factory = FaultyAnalyticFactory::new(FaultConfig::stalling(Duration::from_millis(50)));
    let jobs: Vec<PulseJob> = (0..8)
        .map(|i| job("shared-key", cx_group(0, 1), i as f64))
        .collect();
    let statuses = run_batch(
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
        generated(&statuses),
        1,
        "exactly one generation for one key"
    );
    let est = table.get("shared-key").expect("winner produced a pulse");
    assert!(statuses.contains(&JobStatus::Generated(est)));
    let in_flight = count(&statuses, |s| {
        *s == JobStatus::Skipped(SkipReason::InFlight)
    });
    let hits = count(&statuses, |s| *s == JobStatus::Hit(est, Provenance::Shard));
    assert_eq!(in_flight + hits, 7, "{statuses:?}");
    assert!(
        in_flight >= 1,
        "a stalled winner must hold the key in flight"
    );
    assert_eq!(table.len(), 1);

    let snap = paqoc_telemetry::snapshot();
    let journaled = snap
        .events
        .iter()
        .filter(|e| {
            e.name == "exec.job"
                && field_str(e, "key") == "shared-key"
                && field_str(e, "outcome") == "skipped_in_flight"
        })
        .count();
    assert_eq!(journaled, in_flight, "one exec.job record per skip");
}

/// Under `panic_storm` the racing workers still cause exactly one
/// generation attempt: the panic quarantines the key before the claim
/// drops, so racers resolve to quarantine skips, never to retries. The
/// panic leaves one record, its job's `exec.job` event with the message.
#[test]
fn panic_storm_contention_quarantines_once() {
    paqoc_telemetry::set_enabled(true);
    let table = SharedPulseTable::new();
    let cfg = FaultConfig {
        stall: Duration::from_millis(50),
        ..FaultConfig::panic_storm(7, 1.0)
    };
    let factory = FaultyAnalyticFactory::new(cfg);
    let jobs: Vec<PulseJob> = (0..8)
        .map(|_| job("doomed-key", cx_group(0, 1), 1.0))
        .collect();
    let statuses = run_batch(
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
        count(&statuses, |s| matches!(s, JobStatus::Panicked(_))),
        1,
        "the storm fires once, not once per worker"
    );
    assert_eq!(
        count(&statuses, |s| matches!(
            s,
            JobStatus::Skipped(SkipReason::InFlight | SkipReason::Quarantined)
        )),
        7,
        "every racer is skipped, in flight or quarantined: {statuses:?}"
    );
    assert!(table.is_quarantined("doomed-key"));
    assert!(table.get("doomed-key").is_none(), "no pulse was cached");
    let snap = paqoc_telemetry::snapshot();
    let panicked: Vec<&EventRecord> = snap
        .events
        .iter()
        .filter(|e| {
            e.name == "exec.job"
                && field_str(e, "key") == "doomed-key"
                && field_str(e, "outcome") == "panicked"
        })
        .collect();
    assert_eq!(panicked.len(), 1, "one record per panic");
    assert_eq!(
        field_str(panicked[0], "message"),
        "injected pulse-source panic"
    );
    assert!(!snap.counters.contains_key("exec.panic"));
    assert!(snap.events.iter().all(|e| e.name != "exec.panic"));

    // A fresh batch on the same key skips entirely — zero attempts.
    let again = run_batch(
        &jobs[..2],
        &Device::grid5x5(),
        &factory,
        &table,
        &ExecOptions::default(),
    );
    assert_eq!(again, vec![JobStatus::Skipped(SkipReason::Quarantined); 2]);
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
        let statuses = run_batch(
            &jobs,
            &device,
            &FaultyAnalyticFactory::new(cfg),
            &table,
            &ExecOptions {
                threads,
                ..ExecOptions::default()
            },
        );
        (statuses, table.snapshot())
    };
    let (r1, snap1) = run(1);
    let (r8, snap8) = run(8);
    assert_eq!(snap1, snap8, "cached pulses must not depend on threads");
    assert!(
        count(&r1, |s| matches!(s, JobStatus::Failed(_))) > 0,
        "the storm must actually fail some keys"
    );
    assert_eq!(r1, r8, "per-job statuses must match across thread counts");
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
    let statuses = run_batch(
        &jobs,
        &device,
        &factory,
        &SharedPulseTable::new(),
        &ExecOptions {
            threads: 2,
            ..ExecOptions::default()
        },
    );
    assert_eq!(generated(&statuses), 6);
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
    assert!(expired
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
        generated(&partial) >= 1,
        "work begun before the deadline runs"
    );
    assert!(
        partial.contains(&JobStatus::Skipped(SkipReason::Deadline)),
        "a 300 ms stalled batch cannot fit a 60 ms deadline: {partial:?}"
    );
}

/// Each worker's one `exec.worker` record covers its run loop: its job
/// count and busy time are those of the `exec.job` records written on
/// its span, busy + idle is its wall time, and that wall time lies
/// within its span.
#[test]
fn worker_records_cover_their_jobs() {
    paqoc_telemetry::set_enabled(true);
    let device = Device::grid5x5();
    // A 20 ms stall per generation makes busy time dominate, so the
    // busy-time assertion is meaningful rather than noise-bound.
    let factory = FaultyAnalyticFactory::new(FaultConfig::stalling(Duration::from_millis(20)));
    let keys: Vec<String> = (0..8).map(|i| format!("u{i}")).collect();
    let jobs: Vec<PulseJob> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| job(key, cx_group(i, i + 1), 0.0))
        .collect();
    let statuses = run_batch(
        &jobs,
        &device,
        &factory,
        &SharedPulseTable::new(),
        &ExecOptions {
            threads: 4,
            ..ExecOptions::default()
        },
    );
    assert_eq!(generated(&statuses), 8);

    // Other tests share the journal: find this batch by its job keys,
    // then its workers as the spans under the same batch span.
    let snap = paqoc_telemetry::snapshot();
    let job_records: Vec<&EventRecord> = snap
        .events
        .iter()
        .filter(|e| e.name == "exec.job" && keys.iter().any(|k| field_str(e, "key") == k))
        .collect();
    assert_eq!(job_records.len(), 8, "one exec.job record per job");
    let job_spans: BTreeSet<Option<u64>> = job_records.iter().map(|e| e.span).collect();
    let batch: BTreeSet<Option<u64>> = snap
        .spans
        .iter()
        .filter(|s| job_spans.contains(&Some(s.id)))
        .map(|s| s.parent)
        .collect();
    assert_eq!(batch.len(), 1, "every job ran under one batch span");
    let batch = batch.into_iter().next().flatten();
    assert!(batch.is_some());
    let workers: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name == "exec.worker" && s.parent == batch)
        .collect();
    assert_eq!(workers.len(), 4, "one worker span per thread");

    for span in workers {
        let records: Vec<&EventRecord> = snap
            .events
            .iter()
            .filter(|e| e.name == "exec.worker" && e.span == Some(span.id))
            .collect();
        assert_eq!(records.len(), 1, "one exec.worker record per worker");
        let w = records[0];
        let mine: Vec<&EventRecord> = job_records
            .iter()
            .copied()
            .filter(|e| e.span == Some(span.id))
            .collect();
        assert_eq!(field_u64(w, "jobs"), mine.len() as u64);
        // Each value is rounded down to a microsecond on its own.
        let jobs_us: u64 = mine.iter().map(|e| field_u64(e, "wall_us")).sum();
        let (busy, idle, wall) = (
            field_u64(w, "busy_us"),
            field_u64(w, "idle_us"),
            field_u64(w, "wall_us"),
        );
        assert!(
            (jobs_us..=jobs_us + mine.len() as u64).contains(&busy),
            "busy {busy} µs against {jobs_us} µs of jobs"
        );
        assert!(
            (busy + idle..=busy + idle + 1).contains(&wall),
            "busy {busy} + idle {idle} µs against wall {wall} µs"
        );
        assert!(wall * 1_000 <= span.duration_ns);
        assert!(busy >= 15_000 * mine.len() as u64, "{mine:?}");
    }
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
            let statuses = run_batch(
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
            assert_eq!(generated(&statuses), 3);
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
    assert_eq!(generated(&cold), 4);
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
    assert!(
        warm.iter()
            .all(|s| matches!(s, JobStatus::Hit(_, Provenance::Store))),
        "warm run must not regenerate: {warm:?}"
    );
    let _ = std::fs::remove_file(&path);
}
