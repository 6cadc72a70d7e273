//! Cross-crate validation of the real GRAPE path: the analytic model's
//! predictions against actual optimized pulses, and whole-schedule
//! pulse simulation.

use paqoc::circuit::{combined_unitary, Circuit, GateKind, Instruction};
use paqoc::core::{try_compile, PipelineOptions};
use paqoc::device::{AnalyticModel, Device, PulseSource};
use paqoc::grape::{propagate, GrapeSource};
use paqoc::math::trace_fidelity;
use std::collections::BTreeSet;

#[test]
fn grape_compiles_a_small_circuit_end_to_end() {
    let device = Device::line(2);
    let mut grape = GrapeSource::fast();
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1).rz(1, 0.4);
    let r = try_compile(
        &c,
        &device,
        &mut grape,
        &PipelineOptions {
            skip_mapping: true,
            ..PipelineOptions::m0()
        },
    )
    .expect("compile");
    assert!(r.latency_dt > 0);
    assert!(r.esp > 0.95, "esp {}", r.esp);

    // Every group's cached pulse must re-propagate onto its unitary.
    for id in r.grouped.group_ids() {
        let g = r.grouped.group(id);
        let qubits: Vec<usize> = g
            .instructions
            .iter()
            .flat_map(|i| i.qubits().iter().copied())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let pulse = grape
            .cached_pulse(&g.instructions)
            .expect("pulse cached during compile");
        let controls = device.controls_for(&qubits);
        let realized = propagate(pulse, &controls);
        let target = combined_unitary(&g.instructions, &qubits);
        let f = trace_fidelity(&target, &realized);
        assert!(f > 0.98, "group pulse fidelity {f}");
    }
}

#[test]
fn analytic_model_tracks_grape_durations() {
    // The surrogate should land within 2× of real GRAPE on basic gates
    // (it is a *model*; exactness is not required, monotonicity is).
    let device = Device::line(2);
    let mut grape = GrapeSource::fast();
    let mut model = AnalyticModel::new();
    let cases: Vec<Vec<Instruction>> = vec![
        vec![Instruction::new(GateKind::X, vec![0], vec![])],
        vec![Instruction::new(GateKind::H, vec![0], vec![])],
        vec![Instruction::new(GateKind::Cx, vec![0, 1], vec![])],
        vec![
            Instruction::new(GateKind::H, vec![0], vec![]),
            Instruction::new(GateKind::Cx, vec![0, 1], vec![]),
        ],
    ];
    let mut g_prev = 0.0f64;
    let mut m_prev = 0.0f64;
    for group in &cases {
        let g = grape.generate(group, &device, 0.99, None).latency_ns;
        let m = model.generate(group, &device, 0.99, None).latency_ns;
        let ratio = m / g;
        assert!(
            (0.5..2.0).contains(&ratio),
            "model {m:.1} ns vs grape {g:.1} ns (ratio {ratio:.2})"
        );
        // Both orderings agree (monotone in difficulty for this list).
        assert!(g >= g_prev * 0.8, "grape ordering");
        assert!(m >= m_prev * 0.8, "model ordering");
        g_prev = g;
        m_prev = m;
    }
}
