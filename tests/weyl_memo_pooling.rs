//! A pulse cache pools the free estimator's Weyl decompositions, and the
//! pool is transparent and scoped: what other compiles decomposed on a
//! `SharedPulseTable` changes no output of a compile on it, a pass that
//! repeats an earlier one decomposes nothing, and a new table starts
//! empty.
//!
//! Decompositions are counted by the caller thread's `mathkit.eig`
//! kernel probe (one eigensolve per decomposition, whether the free
//! estimator or the pulse source makes it). Probes are process-global,
//! so this lives in its own test binary, and each test arms them and
//! leaves them armed.

use paqoc::core::{try_compile, CompilationResult, PipelineOptions};
use paqoc::device::{AnalyticModel, Device};
use paqoc::exec::SharedPulseTable;
use paqoc::serve::client::QUICK_CORPUS;
use paqoc::telemetry;
use paqoc::workloads::benchmark;
use std::sync::Arc;

/// What a compile produced: latency, ESP bits, and each group's
/// instruction indices and latency bits.
type Outcome = (u64, u64, Vec<(Vec<usize>, u64)>);

fn outcome(r: &CompilationResult) -> Outcome {
    let groups = r
        .grouped
        .group_ids()
        .into_iter()
        .map(|id| {
            let g = r.grouped.group(id);
            (g.indices.clone(), g.latency_ns.to_bits())
        })
        .collect();
    (r.latency_dt, r.esp.to_bits(), groups)
}

fn eig_calls() -> u64 {
    telemetry::kernel_thread_totals()
        .get("mathkit.eig")
        .map_or(0, |&(calls, _)| calls)
}

/// Compiles `program` at M=0 for `device` on `table` and returns its
/// outcome and the decompositions this thread made for it.
fn compile(program: &str, device: &Device, table: &Arc<SharedPulseTable>) -> (Outcome, u64) {
    let circuit = (benchmark(program).expect(program).build)();
    let opts = PipelineOptions {
        shared_table: Some(table.clone()),
        ..PipelineOptions::m0()
    };
    let start = eig_calls();
    let r = try_compile(&circuit, device, &mut AnalyticModel::new(), &opts).expect(program);
    (outcome(&r), eig_calls() - start)
}

/// One pass over the corpus: outcomes, and the decompositions made.
fn pass(device: &Device, table: &Arc<SharedPulseTable>) -> (Vec<Outcome>, u64) {
    let runs: Vec<(Outcome, u64)> = QUICK_CORPUS
        .iter()
        .map(|p| compile(p, device, table))
        .collect();
    let decomposed = runs.iter().map(|(_, n)| n).sum();
    (runs.into_iter().map(|(o, _)| o).collect(), decomposed)
}

/// Two passes over the corpus for `device` on a table of its own.
fn reference(device: &Device) -> [(Vec<Outcome>, u64); 2] {
    let table = Arc::new(SharedPulseTable::new());
    let first = pass(device, &table);
    [first, pass(device, &table)]
}

/// Pooled pulses change outputs (a pulse one program generated serves
/// the next), but pooled decompositions must not. So each run below is
/// compared with the same passes on a table of its own, and a second
/// device warms the memo: its pulses are filed under its own
/// fingerprint, so they never serve the grid's compiles, but Weyl inputs
/// are device-free, so its decompositions do.
#[test]
fn pooled_decompositions_change_no_output() {
    telemetry::set_kernel_probes(Some(true));
    let (grid, line) = (Device::grid5x5(), Device::line(25));
    let grid_alone = reference(&grid);
    let line_alone = reference(&line);
    assert!(grid_alone[0].1 > 0);
    assert_eq!(grid_alone[1].1, 0, "a repeated pass decomposed again");

    // One thread: the line's passes, then the grid's, on one table.
    let table = Arc::new(SharedPulseTable::new());
    assert_eq!(pass(&line, &table).0, line_alone[0].0);
    let first = pass(&grid, &table);
    assert_eq!(first.0, grid_alone[0].0);
    assert!(
        first.1 < grid_alone[0].1,
        "the line's decompositions served none of the grid's"
    );
    let second = pass(&grid, &table);
    assert_eq!(second.0, grid_alone[1].0);
    assert_eq!(second.1, 0);

    // Two threads, one per device, on one table; both second passes
    // start once both first passes are done.
    let table = Arc::new(SharedPulseTable::new());
    let barrier = std::sync::Barrier::new(2);
    let runs: Vec<[(Vec<Outcome>, u64); 2]> = std::thread::scope(|scope| {
        let workers: Vec<_> = [&grid, &line]
            .map(|device| {
                let (table, barrier) = (&table, &barrier);
                scope.spawn(move || {
                    let first = pass(device, table);
                    barrier.wait();
                    [first, pass(device, table)]
                })
            })
            .into_iter()
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .collect()
    });
    for (run, alone) in runs.iter().zip([&grid_alone, &line_alone]) {
        assert_eq!(run[0].0, alone[0].0);
        assert_eq!(run[1].0, alone[1].0);
        assert_eq!(run[1].1, 0, "a repeated pass decomposed again");
    }
}

#[test]
fn a_new_table_starts_cold() {
    telemetry::set_kernel_probes(Some(true));
    let device = Device::grid5x5();
    let [a, b] = [(); 2].map(|()| {
        let table = Arc::new(SharedPulseTable::new());
        assert!(table.weyl_memo().is_empty());
        compile("mod5d2_64", &device, &table)
    });
    assert_eq!(a.0, b.0);
    assert!(a.1 > 0);
    assert_eq!(a.1, b.1, "a new table decomposes as the first did");
}
