//! Quickstart: compile a small circuit to pulses with PAQOC and print
//! the customized gates the framework built.
//!
//! Run with: `cargo run --release --example quickstart`

use paqoc::circuit::Circuit;
use paqoc::core::{try_compile, PipelineOptions};
use paqoc::device::{AnalyticModel, Device};

fn main() {
    // A GHZ-preparation circuit with a few phase kicks.
    let mut circuit = Circuit::new(4);
    circuit.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
    circuit.rz(3, 0.7).cx(2, 3).cx(1, 2).cx(0, 1).h(0);

    let device = Device::grid5x5();
    let mut source = AnalyticModel::new();

    let result =
        try_compile(&circuit, &device, &mut source, &PipelineOptions::m0()).expect("compile");

    println!("physical gates      : {}", result.physical.len());
    println!("customized gates    : {}", result.num_groups());
    println!(
        "circuit latency     : {} dt ({:.1} ns)",
        result.latency_dt, result.latency_ns
    );
    println!("estimated success   : {:.2}%", result.esp * 100.0);
    println!("pulses generated    : {}", result.stats.pulses_generated);
    println!("pulse-table hits    : {}", result.stats.cache_hits);
    println!();
    println!("final gate groups (topological order):");
    for id in result.grouped.topological_order() {
        let g = result.grouped.group(id);
        let labels: Vec<String> = g.instructions.iter().map(|i| i.label()).collect();
        println!(
            "  [{:>6.1} ns on qubits {:?}] {}",
            g.latency_ns,
            g.qubits,
            labels.join(" · ")
        );
    }
}
