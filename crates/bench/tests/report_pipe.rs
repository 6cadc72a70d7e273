//! `report` ends quietly when its reader goes away, and fails on any
//! other write error.
//!
//! Each view runs with stdout piped and the read end dropped right after
//! the spawn, so the report's first write meets a closed pipe. It must
//! exit 0 without a panic. The same view written to `/dev/full` fails
//! with a non-zero exit.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A small JSONL trace with a span tree, a counter and a kernel probe:
/// enough for every trace view to have something to print.
fn write_trace(path: &Path) {
    paqoc_telemetry::set_enabled(true);
    {
        let _compile = paqoc_telemetry::span("compile");
        let _group = paqoc_telemetry::span("group");
        paqoc_telemetry::counter("report_pipe.counter", 3);
        paqoc_telemetry::kernel_probe!("test.kernel", 8);
    }
    std::fs::write(path, paqoc_telemetry::snapshot().to_jsonl()).expect("write the trace");
}

/// Every view's arguments: the trace views over `trace`, and the ledger
/// view over the committed ledger.
fn views(trace: &Path) -> Vec<Vec<String>> {
    let trace = trace.display().to_string();
    let ledger = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json");
    let mut views: Vec<Vec<String>> = ["jobs", "phases", "workers", "hotspots", "flame"]
        .iter()
        .map(|view| vec![view.to_string(), trace.clone()])
        .collect();
    views.push(vec!["ledger".into(), ledger.display().to_string()]);
    views
}

#[test]
fn a_closed_pipe_ends_the_report_quietly() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("paqoc_report_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let trace = dir.join("trace.jsonl");
    write_trace(&trace);
    for args in views(&trace) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn report");
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("wait for report");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");

        // The same view has output to write: a full device fails it.
        if Path::new("/dev/full").exists() {
            let full = File::create("/dev/full").expect("open /dev/full");
            let output = Command::new(env!("CARGO_BIN_EXE_report"))
                .args(&args)
                .stdout(full)
                .output()
                .expect("run report");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
