//! The paper's flagship scenario: a parameterized QAOA circuit compiled
//! with all three PAQOC modes (M = 0 / tuned / inf) and the AccQOC
//! baseline, showing the latency/compile-cost tradeoff and the mined
//! CPHASE APA-basis gates.
//!
//! Run with: `cargo run --release --example qaoa_pipeline`

use paqoc::accqoc::{compile_accqoc, AccqocOptions};
use paqoc::core::{try_compile, PipelineOptions};
use paqoc::device::{AnalyticModel, Device};
use paqoc::workloads::benchmark;

fn main() {
    let qaoa = (benchmark("qaoa").expect("qaoa is registered").build)();
    let device = Device::grid5x5();

    println!(
        "{:<16} {:>12} {:>10} {:>12} {:>8}",
        "config", "latency(dt)", "ESP", "cost(units)", "pulses"
    );

    let mut src = AnalyticModel::new();
    let acc = compile_accqoc(&qaoa, &device, &mut src, &AccqocOptions::n3d3());
    println!(
        "{:<16} {:>12} {:>9.2}% {:>12.1} {:>8}",
        "accqoc_n3d3",
        acc.latency_dt,
        acc.esp * 100.0,
        acc.stats.cost_units,
        acc.stats.pulses_generated
    );

    for (name, opts) in [
        ("paqoc(M=0)", PipelineOptions::m0()),
        ("paqoc(M=tuned)", PipelineOptions::m_tuned()),
        ("paqoc(M=inf)", PipelineOptions::m_inf()),
    ] {
        let mut src = AnalyticModel::new();
        let r = try_compile(&qaoa, &device, &mut src, &opts).expect("compile");
        println!(
            "{:<16} {:>12} {:>9.2}% {:>12.1} {:>8}",
            name,
            r.latency_dt,
            r.esp * 100.0,
            r.stats.cost_units,
            r.stats.pulses_generated
        );
        if !r.apa.selections.is_empty() && name == "paqoc(M=inf)" {
            println!("\nAPA-basis gates mined from the routed QAOA circuit:");
            for sel in &r.apa.selections {
                println!(
                    "  {} gates × {} uses: {}",
                    sel.num_gates,
                    sel.occurrences.len(),
                    sel.code
                );
            }
        }
    }
}
