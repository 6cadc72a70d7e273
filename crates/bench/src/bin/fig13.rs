//! Regenerates Fig. 13: how depth-limited AccQOC grouping interacts
//! with the CPHASE pattern in qaoa. Depth-3 blocks happen to capture
//! the 2-CX+RZ CPHASE skeleton; depth-5 blocks cut it differently.
//! PAQOC's miner finds the CPHASE pattern automatically without any
//! depth parameter.

use paqoc_accqoc::partition_fixed;
use paqoc_circuit::{decompose, Basis};
use paqoc_core::{try_compile, PipelineOptions};
use paqoc_device::{AnalyticModel, Device};
use paqoc_workloads::benchmark;

fn main() {
    let qaoa = (benchmark("qaoa").expect("qaoa exists").build)();
    let device = Device::grid5x5();
    let physical = decompose(&qaoa, Basis::Ibm);

    println!("=== Fig. 13: gate grouping of the qaoa CPHASE pattern ===");
    for depth in [3usize, 5] {
        let p = partition_fixed(&physical, 3, depth);
        // Count blocks that capture the CPHASE core (cx·rz·cx on one
        // qubit pair) in full — the grouping the paper's Fig. 13 shows
        // depth limits finding or missing.
        let cphase_blocks = p
            .blocks
            .iter()
            .filter(|b| {
                let names: Vec<&str> = b
                    .iter()
                    .map(|&i| physical.instructions()[i].gate().name())
                    .collect();
                names.windows(3).any(|w| w == ["cx", "rz", "cx"])
            })
            .count();
        println!(
            "accqoc n3d{depth}: {} blocks, {} of them contain a full CPHASE core",
            p.blocks.len(),
            cphase_blocks
        );
    }

    let mut src = AnalyticModel::new();
    let r = try_compile(
        &qaoa,
        &device,
        &mut src,
        &PipelineOptions {
            skip_mapping: true,
            ..PipelineOptions::m_inf()
        },
    )
    .expect("compile");
    println!(
        "paqoc miner   : {} APA-basis gates selected, covering {} gates",
        r.apa.num_apa_gates(),
        r.apa.covered_gates
    );
    for sel in &r.apa.selections {
        println!(
            "  APA gate ({} gates, {} qubits, {} uses): {}",
            sel.num_gates,
            sel.num_qubits,
            sel.occurrences.len(),
            sel.code
        );
    }
}
