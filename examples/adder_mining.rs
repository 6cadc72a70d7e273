//! Frequent-subcircuit mining on the Cuccaro adder: the miner rediscovers
//! the MAJ/UMA building blocks (paper Table III) from the routed netlist
//! without being told anything about adders.
//!
//! Run with: `cargo run --release --example adder_mining`

use paqoc::circuit::{decompose, Basis};
use paqoc::device::Device;
use paqoc::mapping::{try_sabre_map, SabreOptions};
use paqoc::mining::{mine_frequent_subcircuits, select_apa_basis, ApaBudget, MinerOptions};
use paqoc::workloads::benchmark;

fn main() {
    let adder = (benchmark("adder").expect("adder is registered").build)();
    let device = Device::grid5x5();

    let lowered = decompose(&adder, Basis::Extended);
    let mapped =
        try_sabre_map(&lowered, device.topology(), &SabreOptions::default()).expect("routable");
    let physical = decompose(&mapped.circuit, Basis::Extended);
    println!(
        "logical {} gates -> physical {} gates ({} SWAPs inserted by SABRE)",
        adder.len(),
        physical.len(),
        mapped.swaps_inserted
    );

    let patterns = mine_frequent_subcircuits(&physical, &MinerOptions::default());
    println!("\ntop mined patterns (by circuit coverage):");
    for p in patterns.iter().take(5) {
        println!(
            "  {:>3} occurrences × {} gates on {} qubits: {}",
            p.support(),
            p.num_gates,
            p.num_qubits,
            p.code
        );
    }

    let cover = select_apa_basis(&patterns, ApaBudget::Tuned, physical.len());
    println!(
        "\nAPA(M=tuned) selection: {} APA-basis gates covering {}/{} gates",
        cover.num_apa_gates(),
        cover.covered_gates,
        physical.len()
    );
}
