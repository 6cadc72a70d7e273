//! Kernel time has one record: the trace's kernel sites. A batch
//! compile's workers open their `exec.worker` span under the batch
//! span, so every kernel call the compile causes, on whichever thread,
//! is recorded under its `compile` span, and the per-kernel totals of
//! [`paqoc::telemetry::snapshot`] do not depend on how many workers
//! split the jobs.
//!
//! Kernel probes and the kernel store are process-global, so this lives
//! in its own test binary and its tests hold one lock.

use paqoc::core::{try_compile_batch, CompilationResult, PipelineOptions};
use paqoc::device::Device;
use paqoc::exec::{AnalyticFactory, PulseSourceFactory};
use paqoc::telemetry::{self, Snapshot};
use paqoc::workloads::benchmark;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Serializes the tests: each switches probes or tracing and resets the
/// global store.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Resets telemetry, compiles `bv` at M=inf through the batch executor
/// on `threads` workers, and returns the result with the snapshot of
/// what the compile recorded.
fn compile_bv(threads: usize) -> (CompilationResult, Snapshot) {
    let circuit = (benchmark("bv").expect("bv").build)();
    let opts = PipelineOptions {
        threads: Some(threads),
        ..PipelineOptions::m_inf()
    };
    let factory: Arc<dyn PulseSourceFactory> = Arc::new(AnalyticFactory);
    telemetry::reset();
    let result = try_compile_batch(&circuit, &Device::grid5x5(), factory, &opts).expect("bv");
    (result, telemetry::snapshot())
}

fn kernel_calls(snap: &Snapshot) -> BTreeMap<&str, u64> {
    snap.kernels
        .iter()
        .map(|(name, k)| (name.as_str(), k.calls))
        .collect()
}

/// The same jobs run the same kernels, so the call counts are the same
/// whether one worker did everything or four split it; the times are
/// wall-clock and only their presence is asserted. Armed probes change
/// no output.
#[test]
fn kernel_calls_do_not_depend_on_the_worker_count() {
    let _global = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_kernel_probes(Some(true));
    let (sequential, one) = compile_bv(1);
    let (parallel, four) = compile_bv(4);
    telemetry::set_kernel_probes(None);

    assert_eq!(sequential.latency_dt, parallel.latency_dt);
    assert_eq!(sequential.esp.to_bits(), parallel.esp.to_bits());
    assert_eq!(sequential.stats, parallel.stats);
    assert_eq!(sequential.pulse_table, parallel.pulse_table);

    assert_eq!(
        kernel_calls(&one),
        kernel_calls(&four),
        "kernel call counts must not depend on the worker count"
    );
    // The analytic latency model computes Weyl invariants, so these
    // kernels must show up with real work attributed.
    for kernel in ["mathkit.matmul", "mathkit.eig"] {
        let stats = one.kernels.get(kernel);
        assert!(
            stats.is_some_and(|k| k.calls > 0 && k.total_ns > 0),
            "{kernel}: expected calls with time attributed"
        );
    }
}

/// Every kernel site of a traced 2-worker batch compile hangs under the
/// `compile` span, including the calls the workers made on their own
/// threads.
#[test]
fn every_kernel_site_of_a_batch_compile_is_under_its_compile_span() {
    let _global = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let (_, snap) = compile_bv(2);
    telemetry::set_enabled(false);

    let compile = snap.spans_named("compile");
    assert_eq!(compile.len(), 1, "one compile span");
    let compile_id = compile[0].id;
    let parents: BTreeMap<u64, Option<u64>> = snap.spans.iter().map(|s| (s.id, s.parent)).collect();
    let under_compile = |mut id: u64| loop {
        if id == compile_id {
            return true;
        }
        match parents.get(&id) {
            Some(&Some(parent)) => id = parent,
            _ => return false,
        }
    };

    assert!(
        !snap.kernel_sites.is_empty(),
        "a traced compile records kernels"
    );
    for site in &snap.kernel_sites {
        assert!(
            site.span.is_some_and(under_compile),
            "{} ({}x{}) at span {:?} is not under the compile span",
            site.name,
            site.dim,
            site.dim,
            site.span
        );
    }
    let workers: Vec<u64> = snap
        .spans_named("exec.worker")
        .iter()
        .map(|s| s.id)
        .collect();
    assert!(!workers.is_empty(), "a batch compile opens worker spans");
    let on_workers: u64 = snap
        .kernel_sites
        .iter()
        .filter(|site| site.span.is_some_and(|id| workers.contains(&id)))
        .map(|site| site.calls)
        .sum();
    assert!(on_workers > 0, "no kernel call sat on an exec.worker span");
}
