//! # paqoc-accqoc
//!
//! The AccQOC baseline (Cheng, Deng, Qian — ISCA 2020) as extended by
//! the PAQOC paper's evaluation: the circuit is partitioned into
//! fixed-size subcircuits (at most `max_qubits` qubits, at most `depth`
//! layers each — the paper's `accqoc_n3d3` and `accqoc_n3d5` variants),
//! each subcircuit's pulse is generated with QOC, and a pulse database
//! with a similarity graph decides generation order: a minimum spanning
//! tree over pairwise unitary distances so that every new pulse is
//! warm-started from its most similar already-generated neighbour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mst;
mod partition;

pub use mst::{similarity_mst, MstEdge};
pub use partition::{partition_fixed, FixedPartition};

use paqoc_circuit::{combined_unitary, decompose, Basis, Circuit};
use paqoc_core::{group_key, CompileStats};
use paqoc_device::{Device, PulseSource};
use paqoc_mapping::{try_sabre_map, SabreOptions};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// AccQOC configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccqocOptions {
    /// Maximum qubits per subcircuit (the paper's extension uses 3).
    pub max_qubits: usize,
    /// Maximum depth (layers) per subcircuit: 3 for `n3d3`, 5 for `n3d5`.
    pub depth: usize,
    /// Pulse fidelity target.
    pub target_fidelity: f64,
    /// Skip SABRE mapping when the input is already physical.
    pub skip_mapping: bool,
    /// SABRE knobs.
    pub sabre: SabreOptions,
}

impl AccqocOptions {
    /// The paper's `accqoc_n3d3` baseline.
    pub fn n3d3() -> Self {
        AccqocOptions {
            max_qubits: 3,
            depth: 3,
            target_fidelity: 0.999,
            skip_mapping: false,
            sabre: SabreOptions::default(),
        }
    }

    /// The paper's `accqoc_n3d5` baseline.
    pub fn n3d5() -> Self {
        AccqocOptions {
            depth: 5,
            ..AccqocOptions::n3d3()
        }
    }
}

/// The outcome of an AccQOC compilation.
#[derive(Debug)]
pub struct AccqocResult {
    /// The physical circuit that was partitioned.
    pub physical: Circuit,
    /// Instruction-index sets of the fixed-size subcircuits, in order.
    pub blocks: Vec<Vec<usize>>,
    /// Whole-circuit latency (critical path over blocks), ns.
    pub latency_ns: f64,
    /// Whole-circuit latency in device cycles.
    pub latency_dt: u64,
    /// ESP: product of per-block pulse fidelities.
    pub esp: f64,
    /// Pulse-generation accounting.
    pub stats: CompileStats,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
}

/// Compiles a circuit with the AccQOC baseline.
///
/// # Panics
///
/// Panics if mapping is enabled and the circuit does not fit the device.
pub fn compile_accqoc(
    logical: &Circuit,
    device: &Device,
    source: &mut dyn PulseSource,
    opts: &AccqocOptions,
) -> AccqocResult {
    let start = Instant::now();
    let _compile_span = paqoc_telemetry::span("accqoc");
    let lowered = decompose(logical, Basis::Extended);
    let physical = if opts.skip_mapping {
        lowered
    } else {
        let _s = paqoc_telemetry::span("map");
        let mapped = try_sabre_map(&lowered, device.topology(), &opts.sabre)
            .expect("the circuit fits the device");
        decompose(&mapped.circuit, Basis::Extended)
    };

    let partition = partition_fixed(&physical, opts.max_qubits, opts.depth);
    paqoc_telemetry::counter("accqoc.blocks", partition.blocks.len() as u64);

    // Group blocks by canonical key; generate one pulse per distinct
    // shape, ordered along the similarity MST so each generation warm
    // starts from its closest neighbour (AccQOC's central trick).
    let mut distinct: Vec<(String, Vec<usize>)> = Vec::new();
    let mut key_of_block: Vec<String> = Vec::new();
    {
        let mut seen: HashMap<String, usize> = HashMap::new();
        for block in &partition.blocks {
            let insts: Vec<_> = block
                .iter()
                .map(|&i| physical.instructions()[i].clone())
                .collect();
            let key = group_key(&insts);
            key_of_block.push(key.clone());
            seen.entry(key.clone()).or_insert_with(|| {
                distinct.push((key, block.clone()));
                distinct.len() - 1
            });
        }
    }

    // Pairwise unitary distances between distinct shapes → MST order.
    let unitaries: Vec<paqoc_math::Matrix> = distinct
        .iter()
        .map(|(_, block)| {
            let insts: Vec<_> = block
                .iter()
                .map(|&i| physical.instructions()[i].clone())
                .collect();
            let qubits: Vec<usize> = insts
                .iter()
                .flat_map(|i| i.qubits().iter().copied())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            combined_unitary(&insts, &qubits)
        })
        .collect();
    let order = similarity_mst(&unitaries);

    let mut stats = CompileStats::default();
    let mut pulse_of_key: HashMap<String, paqoc_device::PulseEstimate> = HashMap::new();
    let generate_span = paqoc_telemetry::span("generate");
    for &(idx, parent_dist) in &order {
        let (key, block) = &distinct[idx];
        let insts: Vec<_> = block
            .iter()
            .map(|&i| physical.instructions()[i].clone())
            .collect();
        // The MST root is generated cold; every other pulse warm-starts
        // from its tree parent, converging faster the closer it is.
        let est = source.generate(&insts, device, opts.target_fidelity, parent_dist);
        stats.pulses_generated += 1;
        stats.cost_units += est.cost_units;
        pulse_of_key.insert(key.clone(), est);
    }
    drop(generate_span);
    stats.cache_hits = partition.blocks.len().saturating_sub(distinct.len());
    paqoc_telemetry::counter("accqoc.distinct_shapes", distinct.len() as u64);
    paqoc_telemetry::counter("accqoc.block_reuses", stats.cache_hits as u64);

    // Latency: list-schedule the blocks on their qubits (blocks arrive
    // in a valid topological order from the layered partitioner).
    let num_qubits = physical.num_qubits();
    let mut ready_at = vec![0.0f64; num_qubits];
    let mut esp = 1.0f64;
    for (b, block) in partition.blocks.iter().enumerate() {
        let est = pulse_of_key[&key_of_block[b]];
        let qubits: BTreeSet<usize> = block
            .iter()
            .flat_map(|&i| physical.instructions()[i].qubits().iter().copied())
            .collect();
        let start_t = qubits.iter().map(|&q| ready_at[q]).fold(0.0f64, f64::max);
        let end_t = start_t + est.latency_ns;
        for &q in &qubits {
            ready_at[q] = end_t;
        }
        esp *= est.fidelity;
    }
    let latency_ns = ready_at.iter().copied().fold(0.0, f64::max);

    AccqocResult {
        latency_ns,
        latency_dt: device.spec().ns_to_dt(latency_ns),
        esp,
        stats,
        blocks: partition.blocks,
        physical,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_device::AnalyticModel;

    fn sample() -> Circuit {
        let mut c = Circuit::new(4);
        for _ in 0..3 {
            for (a, b) in [(0usize, 1usize), (1, 2), (2, 3)] {
                c.cp(a, b, 0.7);
            }
            for q in 0..4 {
                c.rx(q, 0.35);
            }
        }
        c
    }

    #[test]
    fn blocks_cover_every_instruction_exactly_once() {
        let device = Device::grid5x5();
        let mut src = AnalyticModel::new();
        let r = compile_accqoc(&sample(), &device, &mut src, &AccqocOptions::n3d3());
        let mut seen = vec![false; r.physical.len()];
        for block in &r.blocks {
            for &i in block {
                assert!(!seen[i], "instruction {i} in two blocks");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every instruction partitioned");
    }

    #[test]
    fn deeper_blocks_usually_help_latency() {
        let device = Device::grid5x5();
        let mut s3 = AnalyticModel::new();
        let d3 = compile_accqoc(&sample(), &device, &mut s3, &AccqocOptions::n3d3());
        let mut s5 = AnalyticModel::new();
        let d5 = compile_accqoc(&sample(), &device, &mut s5, &AccqocOptions::n3d5());
        // The paper: d5 is better "for most of the time" — allow slack.
        assert!(
            d5.latency_ns <= d3.latency_ns * 1.15,
            "d5 {} vs d3 {}",
            d5.latency_ns,
            d3.latency_ns
        );
    }

    #[test]
    fn distinct_shapes_are_generated_once() {
        let device = Device::grid5x5();
        let mut src = AnalyticModel::new();
        let r = compile_accqoc(&sample(), &device, &mut src, &AccqocOptions::n3d3());
        assert!(
            r.stats.pulses_generated < r.blocks.len(),
            "{} generated for {} blocks",
            r.stats.pulses_generated,
            r.blocks.len()
        );
        assert!(r.esp > 0.0 && r.esp < 1.0);
        assert!(r.latency_dt > 0);
    }
}
