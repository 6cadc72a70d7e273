//! Ablation study over PAQOC's design knobs (DESIGN.md §7):
//! top-k merges per iteration, the customized-gate qubit cap maxN,
//! criticality pruning on/off, and preprocessing on/off.

use paqoc_core::{try_compile, PaqocOptions, PipelineOptions};
use paqoc_device::{AnalyticModel, Device};
use paqoc_workloads::benchmark;

fn run(name: &str, gen: PaqocOptions) -> (u64, f64, usize) {
    let c = (benchmark(name).expect(name).build)();
    let device = Device::grid5x5();
    let mut src = AnalyticModel::new();
    let opts = PipelineOptions {
        generator: gen,
        ..PipelineOptions::m0()
    };
    let r = try_compile(&c, &device, &mut src, &opts).expect("compile");
    (r.latency_dt, r.stats.cost_units, r.stats.pulses_generated)
}

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "qaoa".into());
    println!("=== Ablations on {bench} (latency dt / cost units / pulses) ===");
    let base = PaqocOptions::default();

    for k in [1usize, 2, 4, 8] {
        let (l, c, p) = run(&bench, PaqocOptions { top_k: k, ..base });
        println!("top_k={k:<2}                  : {l:>8} dt {c:>10.1} cu {p:>5} pulses");
    }
    for maxn in [2usize, 3, 4] {
        let (l, c, p) = run(
            &bench,
            PaqocOptions {
                max_qubits: maxn,
                ..base
            },
        );
        println!("maxN={maxn:<3}                 : {l:>8} dt {c:>10.1} cu {p:>5} pulses");
    }
    for crit in [true, false] {
        let (l, c, p) = run(
            &bench,
            PaqocOptions {
                criticality_pruning: crit,
                ..base
            },
        );
        println!("criticality_pruning={crit:<5}: {l:>8} dt {c:>10.1} cu {p:>5} pulses");
    }
    for pre in [true, false] {
        let (l, c, p) = run(
            &bench,
            PaqocOptions {
                preprocess: pre,
                ..base
            },
        );
        println!("preprocess={pre:<5}         : {l:>8} dt {c:>10.1} cu {p:>5} pulses");
    }
}
