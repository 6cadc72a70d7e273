//! `profile` counts every pulse-table hit in its telemetry, whichever
//! path found it: a hit from the persistent store on a warm run, and the
//! batch prefetch's generations and hits. Its own check that telemetry
//! and `CompileStats` agree on cache hits then holds on every path, and
//! the batch path prints the sequential path's hit line.

use std::path::Path;
use std::process::Command;

/// Runs `profile bv m0` with `args`, on the pulse store `db` if given;
/// requires exit 0 and returns the printed `pulse-table cache:` line.
fn hit_line(args: &[&str], db: Option<&Path>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_profile"));
    cmd.args(["bv", "m0"]).args(args);
    for var in ["PAQOC_PULSE_DB", "PAQOC_TRACE", "PAQOC_METRICS_MS"] {
        cmd.env_remove(var);
    }
    if let Some(db) = db {
        cmd.env("PAQOC_PULSE_DB", db);
    }
    let output = cmd.output().expect("run profile");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "profile bv m0 {args:?} (store {db:?}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
        .lines()
        .find(|l| l.starts_with("pulse-table cache: "))
        .unwrap_or_else(|| panic!("no hit line:\n{stdout}"))
        .to_string()
}

#[test]
fn warm_store_and_batch_runs_agree_with_their_compile_stats() {
    let dir = std::env::temp_dir().join(format!("paqoc_profile_hits_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let db = dir.join("pulses.db");

    let cold = hit_line(&[], Some(&db));
    let warm = hit_line(&[], Some(&db));
    let batch = hit_line(&["--batch"], None);
    std::fs::remove_dir_all(&dir).ok();

    // The warm run finds every pulse the cold run generated in the
    // store, so every lookup is a hit.
    let (hits, lookups) = cold
        .trim_start_matches("pulse-table cache: ")
        .split_once(" hits")
        .and_then(|(ratio, _)| ratio.split_once('/'))
        .unwrap_or_else(|| panic!("unreadable hit line {cold:?}"));
    assert_ne!(hits, lookups, "a cold run generates: {cold}");
    assert!(
        warm.starts_with(&format!("pulse-table cache: {lookups}/{lookups} hits")),
        "{warm}"
    );
    assert_eq!(
        batch, cold,
        "the batch path counts what the sequential path counts"
    );
}
