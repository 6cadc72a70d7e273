//! # paqoc-bench
//!
//! The evaluation harness: shared machinery for regenerating every
//! table and figure of the PAQOC paper. Each `src/bin/figNN.rs` /
//! `src/bin/tableN.rs` binary prints the same rows or series the paper
//! reports; this library holds the five compilation configurations
//! (`accqoc_n3d3`, `accqoc_n3d5`, `paqoc(M=0)`, `paqoc(M=tuned)`,
//! `paqoc(M=inf)`) and the result plumbing they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use paqoc_accqoc::{compile_accqoc, AccqocOptions};
use paqoc_circuit::Circuit;
use paqoc_core::{try_compile, PipelineOptions};
use paqoc_device::{AnalyticModel, Device};

/// The five evaluation configurations, in the paper's legend order.
pub const CONFIG_NAMES: [&str; 5] = [
    "accqoc_n3d3",
    "accqoc_n3d5",
    "paqoc(M=0)",
    "paqoc(M=tuned)",
    "paqoc(M=inf)",
];

/// One configuration's compilation outcome, normalized-friendly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfigOutcome {
    /// Whole-circuit pulse latency in device cycles.
    pub latency_dt: u64,
    /// ESP (paper Eq. 2).
    pub esp: f64,
    /// Synthetic compile cost (GRAPE work units).
    pub cost_units: f64,
    /// Pulses actually generated.
    pub pulses_generated: usize,
    /// Wall-clock seconds of the compilation.
    pub wall_seconds: f64,
    /// Final number of customized gates / blocks.
    pub num_groups: usize,
}

/// Runs one benchmark circuit through all five configurations with the
/// analytic pulse source (deterministic, laptop-fast).
pub fn evaluate_all_configs(circuit: &Circuit, device: &Device) -> [ConfigOutcome; 5] {
    let accqoc = |opts: AccqocOptions| {
        let mut src = AnalyticModel::new();
        let r = compile_accqoc(circuit, device, &mut src, &opts);
        ConfigOutcome {
            latency_dt: r.latency_dt,
            esp: r.esp,
            cost_units: r.stats.cost_units,
            pulses_generated: r.stats.pulses_generated,
            wall_seconds: r.wall_seconds,
            num_groups: r.blocks.len(),
        }
    };
    let paqoc = |opts: PipelineOptions| {
        let mut src = AnalyticModel::new();
        let r = try_compile(circuit, device, &mut src, &opts).expect("compile");
        ConfigOutcome {
            latency_dt: r.latency_dt,
            esp: r.esp,
            cost_units: r.stats.cost_units,
            pulses_generated: r.stats.pulses_generated,
            wall_seconds: r.wall_seconds,
            num_groups: r.num_groups(),
        }
    };
    [
        accqoc(AccqocOptions::n3d3()),
        accqoc(AccqocOptions::n3d5()),
        paqoc(PipelineOptions::m0()),
        paqoc(PipelineOptions::m_tuned()),
        paqoc(PipelineOptions::m_inf()),
    ]
}

/// Prints a normalized table: `value(config) / value(accqoc_n3d3)`,
/// plus the per-configuration average row.
pub fn print_normalized<F: Fn(&ConfigOutcome) -> f64>(
    title: &str,
    rows: &[(String, [ConfigOutcome; 5])],
    metric: F,
    lower_is_better: bool,
) {
    println!(
        "\n=== {title} (normalized to accqoc_n3d3, {} is better) ===",
        if lower_is_better { "lower" } else { "higher" }
    );
    print!("{:<15}", "benchmark");
    for name in CONFIG_NAMES {
        print!("{name:>16}");
    }
    println!();
    let mut sums = [0.0f64; 5];
    for (name, outcomes) in rows {
        let baseline = metric(&outcomes[0]).max(1e-12);
        print!("{name:<15}");
        for (k, o) in outcomes.iter().enumerate() {
            let v = metric(o) / baseline;
            sums[k] += v;
            print!("{v:>16.3}");
        }
        println!();
    }
    print!("{:<15}", "average");
    for s in sums {
        print!("{:>16.3}", s / rows.len() as f64);
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_configs_run_on_a_small_benchmark() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(2, 0.4).cx(0, 1);
        let device = Device::grid5x5();
        let outcomes = evaluate_all_configs(&c, &device);
        for o in &outcomes {
            assert!(o.latency_dt > 0);
            assert!(o.esp > 0.0 && o.esp <= 1.0);
            assert!(o.num_groups > 0);
        }
        // PAQOC M=0 never loses to the accqoc_n3d3 baseline on latency.
        assert!(outcomes[2].latency_dt <= outcomes[0].latency_dt);
    }
}
