//! `report workers` reads stalls from the journal: each `exec.job`
//! generation attempt whose `wall_us` reached
//! `paqoc_exec::stall_budget` of its priority is listed once, with its
//! key, elapsed time and budget.

use paqoc_circuit::{GateKind, Instruction};
use paqoc_device::{Device, FaultConfig};
use paqoc_exec::{
    run_batch, AnalyticFactory, ExecOptions, FaultyAnalyticFactory, JobStatus, PulseJob,
    PulseSourceFactory, SharedPulseTable,
};
use std::path::Path;
use std::process::Command;
use std::time::Duration;

const KEYS: [&str; 3] = ["stall-a", "stall-b", "stall-c"];

/// Records a 2-worker batch of 3 jobs made by `factory` into a fresh
/// trace at `path`, and returns what `report workers` prints over it.
fn report_workers(factory: &dyn PulseSourceFactory, path: &Path) -> String {
    paqoc_telemetry::reset();
    let jobs: Vec<PulseJob> = KEYS
        .iter()
        .enumerate()
        .map(|(i, key)| PulseJob {
            key: key.to_string(),
            group: vec![Instruction::new(GateKind::Cx, vec![i, i + 1], vec![])],
            priority: 0.0,
            target_fidelity: 0.999,
        })
        .collect();
    let statuses = run_batch(
        &jobs,
        &Device::grid5x5(),
        factory,
        &SharedPulseTable::new(),
        &ExecOptions {
            threads: 2,
            ..ExecOptions::default()
        },
    );
    assert!(
        statuses
            .iter()
            .all(|s| matches!(s, JobStatus::Generated(_))),
        "{statuses:?}"
    );
    std::fs::write(path, paqoc_telemetry::snapshot().to_jsonl()).expect("write the trace");
    let output = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("workers")
        .arg(path)
        .output()
        .expect("run report");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("report prints UTF-8")
}

#[test]
fn report_workers_lists_each_stalled_generation_once() {
    paqoc_telemetry::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("paqoc_report_workers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");

    // A 75 ms stall overruns the 25 ms budget of a priority-0 job.
    let stalling = FaultyAnalyticFactory::new(FaultConfig::stalling(Duration::from_millis(75)));
    let stalled = report_workers(&stalling, &dir.join("stalled.jsonl"));
    assert!(stalled.contains("\nstalls flagged: 3\n"), "{stalled}");
    for key in KEYS {
        let lines: Vec<&str> = stalled
            .lines()
            .filter(|l| l.contains(&format!(" key {key} ")))
            .collect();
        assert_eq!(lines.len(), 1, "{key} is listed once:\n{stalled}");
        let (elapsed, budget) = lines[0]
            .split_once(" — ")
            .and_then(|(_, rest)| rest.split_once(" ms elapsed vs "))
            .expect("a stall line gives elapsed time and budget");
        let elapsed: f64 = elapsed.parse().expect("elapsed milliseconds");
        assert!(elapsed >= 75.0, "{}", lines[0]);
        assert_eq!(budget, "25.000 ms budget", "{}", lines[0]);
    }

    let fast = report_workers(&AnalyticFactory, &dir.join("fast.jsonl"));
    assert!(fast.contains("\nstalls flagged: 0\n"), "{fast}");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
