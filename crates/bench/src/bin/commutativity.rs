//! The paper's stated future work (§VII), quantified: how much circuit
//! latency headroom does commutativity-aware scheduling (CLS-style)
//! add on top of the strict dependence DAG?
//!
//! For every benchmark we compare the critical path of the routed
//! physical circuit under (a) the strict per-qubit dependence DAG and
//! (b) the commutation-aware DAG, with per-gate pulse latencies from
//! the analytic model — an upper bound on what plugging commutativity
//! into the merge loop could recover.

use paqoc_circuit::{decompose, Basis, DependencyDag};
use paqoc_device::{AnalyticModel, Device, PulseSource};
use paqoc_mapping::{try_sabre_map, SabreOptions};
use paqoc_workloads::all_benchmarks;

fn main() {
    let device = Device::grid5x5();
    let mut model = AnalyticModel::new();
    println!("=== Commutativity-aware scheduling headroom (future work, paper §VII) ===");
    println!(
        "{:<15} {:>10} {:>14} {:>14} {:>8}",
        "benchmark", "#gates", "strict(dt)", "commute(dt)", "ratio"
    );
    let mut sum = 0.0;
    let mut n = 0usize;
    for b in all_benchmarks() {
        let c = (b.build)();
        let lowered = decompose(&c, Basis::Extended);
        let mapped =
            try_sabre_map(&lowered, device.topology(), &SabreOptions::default()).expect("routable");
        let physical = decompose(&mapped.circuit, Basis::Extended);
        let weights: Vec<f64> = physical
            .iter()
            .map(|i| {
                model
                    .generate(std::slice::from_ref(i), &device, 0.999, None)
                    .latency_ns
            })
            .collect();
        let strict = DependencyDag::from_circuit(&physical).makespan(&weights);
        let relaxed = DependencyDag::from_circuit_commutation_aware(&physical).makespan(&weights);
        let ratio = relaxed / strict;
        sum += ratio;
        n += 1;
        println!(
            "{:<15} {:>10} {:>14} {:>14} {:>8.3}",
            b.name,
            physical.len(),
            device.spec().ns_to_dt(strict),
            device.spec().ns_to_dt(relaxed),
            ratio
        );
        assert!(relaxed <= strict + 1e-9, "relaxation can only shorten");
    }
    println!("\naverage commute/strict ratio: {:.3}", sum / n as f64);
}
