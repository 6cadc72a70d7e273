//! Regenerates Table III: the most and second-most frequent subcircuits
//! PAQOC's miner finds in bv, adder, qft, qaoa and supre — the paper's
//! qualitative claims: SWAP chains for bv/qft, MAJ/UMA fragments for
//! adder, the CPHASE skeleton for qaoa, input-dependent mixes for supre.

use paqoc_circuit::{decompose, Basis};
use paqoc_device::Device;
use paqoc_mapping::{try_sabre_map, SabreOptions};
use paqoc_mining::{mine_frequent_subcircuits, MinerOptions};
use paqoc_workloads::benchmark;

fn main() {
    let device = Device::grid5x5();
    println!("=== Table III: most frequent subcircuits found by the miner ===");
    for name in ["bv", "adder", "qft", "qaoa", "supre"] {
        let c = (benchmark(name).expect(name).build)();
        let lowered = decompose(&c, Basis::Extended);
        let mapped =
            try_sabre_map(&lowered, device.topology(), &SabreOptions::default()).expect("routable");
        let physical = decompose(&mapped.circuit, Basis::Extended);
        let patterns = mine_frequent_subcircuits(&physical, &MinerOptions::default());
        println!(
            "\n{name} ({} physical gates, {} swaps inserted):",
            physical.len(),
            mapped.swaps_inserted
        );
        for (rank, p) in patterns.iter().take(3).enumerate() {
            println!(
                "  #{} ({} gates, {} qubits, support {}, coverage {}):",
                rank + 1,
                p.num_gates,
                p.num_qubits,
                p.support(),
                p.coverage()
            );
            println!("      {}", p.code);
        }
    }
}
