//! End-to-end integration tests spanning the whole workspace:
//! workloads → lowering → SABRE → mining → criticality merging → pulses,
//! against the AccQOC baseline.

use paqoc::accqoc::{compile_accqoc, AccqocOptions};
use paqoc::circuit::Circuit;
use paqoc::core::{try_compile, PipelineOptions};
use paqoc::device::{AnalyticModel, Device};
use paqoc::workloads::benchmark;

fn build(name: &str) -> Circuit {
    (benchmark(name).expect(name).build)()
}

#[test]
fn paqoc_beats_accqoc_on_every_tested_benchmark() {
    let device = Device::grid5x5();
    for name in ["rd32_270", "simon", "qaoa", "bb84"] {
        let c = build(name);
        let mut s1 = AnalyticModel::new();
        let acc = compile_accqoc(&c, &device, &mut s1, &AccqocOptions::n3d3());
        let mut s2 = AnalyticModel::new();
        let pq = try_compile(&c, &device, &mut s2, &PipelineOptions::m0()).expect("compile");
        assert!(
            pq.latency_dt <= acc.latency_dt,
            "{name}: paqoc {} dt vs accqoc {} dt",
            pq.latency_dt,
            acc.latency_dt
        );
        assert!(
            pq.esp >= acc.esp,
            "{name}: paqoc ESP {} vs accqoc ESP {} (the paper's constraint)",
            pq.esp,
            acc.esp
        );
    }
}

#[test]
fn compilation_is_deterministic_end_to_end() {
    let device = Device::grid5x5();
    let c = build("simon");
    let run = || {
        let mut s = AnalyticModel::new();
        let r = try_compile(&c, &device, &mut s, &PipelineOptions::m_tuned()).expect("compile");
        (r.latency_dt, r.num_groups(), r.stats.pulses_generated)
    };
    assert_eq!(run(), run());
}

#[test]
fn final_grouping_partitions_the_physical_circuit() {
    let device = Device::grid5x5();
    let c = build("rd32_270");
    let mut s = AnalyticModel::new();
    let r = try_compile(&c, &device, &mut s, &PipelineOptions::m_inf()).expect("compile");
    let total: usize = r
        .grouped
        .group_ids()
        .into_iter()
        .map(|id| r.grouped.group(id).instructions.len())
        .sum();
    assert_eq!(total, r.physical.len(), "no gate lost or duplicated");
}

#[test]
fn every_group_respects_the_qubit_cap() {
    let device = Device::grid5x5();
    let c = build("qaoa");
    let mut s = AnalyticModel::new();
    let r = try_compile(&c, &device, &mut s, &PipelineOptions::m0()).expect("compile");
    for id in r.grouped.group_ids() {
        assert!(r.grouped.group(id).qubits.len() <= 3);
    }
}

#[test]
fn every_group_has_a_pulse_attached() {
    let device = Device::grid5x5();
    let c = build("simon");
    let mut s = AnalyticModel::new();
    let r = try_compile(&c, &device, &mut s, &PipelineOptions::m0()).expect("compile");
    for id in r.grouped.group_ids() {
        let g = r.grouped.group(id);
        assert!(g.latency_ns > 0.0);
        assert!(g.fidelity > 0.99 && g.fidelity <= 1.0);
    }
}

#[test]
fn apa_budgets_trade_compile_cost_for_latency() {
    // On a pattern-rich workload: inf spends less compile cost than m0,
    // at no more than a modest latency premium.
    let device = Device::grid5x5();
    let c = build("qaoa");
    let mut s = AnalyticModel::new();
    let m0 = try_compile(&c, &device, &mut s, &PipelineOptions::m0()).expect("compile");
    let mut s = AnalyticModel::new();
    let mi = try_compile(&c, &device, &mut s, &PipelineOptions::m_inf()).expect("compile");
    assert!(mi.stats.cost_units < m0.stats.cost_units);
    assert!((mi.latency_dt as f64) < m0.latency_dt as f64 * 1.1);
    assert!(mi.apa.num_apa_gates() > 0);
}

#[test]
fn disabled_generator_still_produces_a_valid_schedule() {
    let device = Device::grid5x5();
    let c = build("bb84");
    let mut s = AnalyticModel::new();
    let r = try_compile(
        &c,
        &device,
        &mut s,
        &PipelineOptions {
            enable_generator: false,
            ..PipelineOptions::m_inf()
        },
    )
    .expect("compile");
    assert!(r.latency_dt > 0);
    assert_eq!(
        r.grouped
            .group_ids()
            .into_iter()
            .map(|id| r.grouped.group(id).instructions.len())
            .sum::<usize>(),
        r.physical.len()
    );
}
