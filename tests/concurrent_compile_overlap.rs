//! Batch compiles overlap on real cores. The 17 Table-I programs,
//! compiled by 4 scoped threads at once (`try_compile_batch` with
//! `AnalyticFactory` at M=inf, each compile on a one-thread executor),
//! must keep at least two compiles running on average: the sum of the
//! per-compile wall times divided by the elapsed time is at least 2.0.
//!
//! The test has a binary of its own so that no sibling test competes
//! for the cores. Below 4 cores the ratio says nothing about the code,
//! so the test prints that it skipped and passes.

use paqoc::core::{try_compile_batch, PipelineOptions};
use paqoc::device::Device;
use paqoc::exec::{AnalyticFactory, PulseSourceFactory};
use paqoc::workloads::all_benchmarks;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const THREADS: usize = 4;
const MIN_OVERLAP: f64 = 2.0;

#[test]
fn four_compile_threads_overlap_at_least_twofold() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < THREADS {
        println!("compile overlap gate skipped ({cores} core(s) < {THREADS})");
        return;
    }
    let device = Device::grid5x5();
    let opts = PipelineOptions {
        threads: Some(1),
        ..PipelineOptions::m_inf()
    };
    let programs = all_benchmarks();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let busy_seconds: f64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut busy = 0.0;
                    while let Some(b) = programs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let circuit = (b.build)();
                        let factory: Arc<dyn PulseSourceFactory> = Arc::new(AnalyticFactory);
                        let result = try_compile_batch(&circuit, &device, factory, &opts)
                            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
                        busy += result.wall_seconds;
                    }
                    busy
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("compile thread"))
            .sum()
    });
    let overlap = busy_seconds / started.elapsed().as_secs_f64();
    println!("compile overlap {overlap:.2} on {THREADS} threads ({cores} cores)");
    assert!(
        overlap >= MIN_OVERLAP,
        "compile overlap {overlap:.2} < {MIN_OVERLAP} on {THREADS} threads ({cores} cores)"
    );
}
