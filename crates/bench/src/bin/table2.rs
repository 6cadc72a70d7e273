//! Regenerates Table II: whole-circuit fidelity from *pulse simulation*
//! (the paper uses QuTiP; we re-propagate every generated pulse through
//! the Schrödinger equation and compose the realized unitaries).
//!
//! Real GRAPE pulse generation for every distinct customized gate is
//! expensive, so by default the two smallest benchmarks (simon, bb84)
//! run with full GRAPE + pulse simulation, and the remaining four Table
//! II benchmarks report the analytic ESP column for all five configs.
//! Pass `--full` to pulse-simulate everything (slow).

use paqoc_bench::{evaluate_all_configs, CONFIG_NAMES};
use paqoc_circuit::{combined_unitary, Circuit};
use paqoc_core::{try_compile, PipelineOptions};
use paqoc_device::{Device, PulseSource};
use paqoc_grape::{circuit_pulse_fidelity, propagate, GrapeSource, ScheduledUnitary};
use paqoc_workloads::benchmark;
use std::collections::BTreeSet;

/// Compiles with PAQOC(M=0) using real GRAPE pulses and pulse-simulates
/// the whole schedule against the routed physical circuit's unitary.
///
/// Routing happens on a line device of the same width so the register
/// stays small enough to simulate while every two-qubit gate sits on a
/// real coupler (GRAPE cannot drive interaction between uncoupled
/// qubits).
fn pulse_simulated_fidelity(circuit: &Circuit, _device: &Device) -> f64 {
    let device = Device::line(circuit.num_qubits());
    let mut grape = GrapeSource::fast();
    let opts = PipelineOptions::m0();
    let r = try_compile(circuit, &device, &mut grape, &opts).expect("compile");

    let ideal = r.physical.unitary();
    let mut schedule = Vec::new();
    for id in r.grouped.topological_order() {
        let group = r.grouped.group(id);
        let qubits: Vec<usize> = group
            .instructions
            .iter()
            .flat_map(|i| i.qubits().iter().copied())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        // The pulse table may have satisfied this group from a
        // canonically equivalent (qubit-permuted) entry, in which case
        // the GRAPE source never saw this exact signature — generate it
        // now (a cache hit when it was seen, a real run otherwise).
        let _ = grape.generate(&group.instructions, &device, 0.99, None);
        let pulse = grape
            .cached_pulse(&group.instructions)
            .expect("pulse generated on demand")
            .clone();
        let controls = device.controls_for(&qubits);
        let realized = propagate(&pulse, &controls);
        // Sanity: the realized pulse matches the group's unitary.
        let target = combined_unitary(&group.instructions, &qubits);
        let f = paqoc_math::trace_fidelity(&target, &realized);
        assert!(f > 0.95, "pulse drifted from its target: {f}");
        schedule.push(ScheduledUnitary {
            unitary: realized,
            qubits,
        });
    }
    circuit_pulse_fidelity(&schedule, &ideal, circuit.num_qubits())
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let device = Device::grid5x5();
    let names = [
        "4gt10-v1_81",
        "decod24-v1_41",
        "hwb4_49",
        "rd32_270",
        "bb84",
        "simon",
    ];

    println!("=== Table II: quality of execution (larger is better) ===");
    println!("\n-- ESP under all five configurations (analytic source) --");
    print!("{:<15}", "benchmark");
    for n in CONFIG_NAMES {
        print!("{n:>16}");
    }
    println!();
    for name in names {
        let c = (benchmark(name).expect(name).build)();
        let o = evaluate_all_configs(&c, &device);
        print!("{name:<15}");
        for cfg in o.iter().take(5) {
            print!("{:>15.2}%", cfg.esp * 100.0);
        }
        println!();
    }

    println!("\n-- Schrödinger pulse simulation (real GRAPE, paqoc M=0) --");
    let simulated: Vec<&str> = if full {
        names.to_vec()
    } else {
        vec!["simon", "bb84"]
    };
    for name in simulated {
        let c = (benchmark(name).expect(name).build)();
        if c.num_qubits() > 10 {
            println!("{name:<15} skipped (register too large to simulate)");
            continue;
        }
        let f = pulse_simulated_fidelity(&c, &device);
        println!(
            "{name:<15} pulse-simulated circuit fidelity = {:.2}%",
            f * 100.0
        );
    }
}
