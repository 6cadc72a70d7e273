//! Pulse re-propagation and whole-circuit pulse simulation.
//!
//! This is the workspace's substitute for the paper's QuTiP pulse
//! simulation (Table II): every generated pulse is independently
//! propagated through the Schrödinger equation of its control system,
//! the realized small unitaries are embedded into the full register, and
//! the product is compared against the ideal circuit unitary.

use crate::optimizer::{Pulse, Stepper};
use paqoc_circuit::embed_unitary;
use paqoc_device::ControlSet;
use paqoc_math::{trace_fidelity, Matrix, SplitMatrix};

/// Propagates a pulse through its control system, returning the realized
/// unitary `U = Π_j exp(-i·2π·dt·H_j)`.
///
/// Each step's propagator comes from the optimizer's own step routine,
/// in split buffers reused across steps; only the result is converted.
///
/// # Panics
///
/// Panics if the pulse channel count disagrees with the control set.
pub fn propagate(pulse: &Pulse, controls: &ControlSet) -> Matrix {
    let dim = controls.dim();
    let mut stepper = Stepper::new(controls, pulse.step_ns);
    let mut u = SplitMatrix::identity(dim);
    let mut step = SplitMatrix::zeros(dim);
    let mut next = SplitMatrix::zeros(dim);
    for row in &pulse.amplitudes {
        assert_eq!(
            row.len(),
            controls.channels.len(),
            "pulse channels must match the control system"
        );
        stepper.propagator_into(row, &mut step);
        step.matmul_into(&u, &mut next);
        std::mem::swap(&mut u, &mut next);
    }
    Matrix::from(&u)
}

/// One scheduled pulse: the realized small unitary and the physical
/// qubits it acts on (in the local-frame order used to build it).
#[derive(Clone, Debug)]
pub struct ScheduledUnitary {
    /// The realized (propagated) unitary of the pulse.
    pub unitary: Matrix,
    /// Physical qubits, position = local index (bit) in `unitary`.
    pub qubits: Vec<usize>,
}

/// Composes realized pulse unitaries over the full register and computes
/// the process fidelity against the ideal whole-circuit unitary.
///
/// `num_qubits` is the register width; keep it ≤ ~10 (dimension `2^n`),
/// matching the paper's observation that pulse simulation is only
/// feasible for a few benchmarks.
///
/// # Panics
///
/// Panics if `ideal` has the wrong dimension or a pulse qubit is out of
/// range.
pub fn circuit_pulse_fidelity(
    schedule: &[ScheduledUnitary],
    ideal: &Matrix,
    num_qubits: usize,
) -> f64 {
    let dim = 1usize << num_qubits;
    assert_eq!(ideal.rows(), dim, "ideal unitary dimension mismatch");
    let mut total = Matrix::identity(dim);
    for item in schedule {
        // `embed_unitary` treats the first listed qubit as the most
        // significant gate bit, while ScheduledUnitary uses position =
        // local bit index (LSB first); reverse to convert.
        let reversed: Vec<usize> = item.qubits.iter().rev().copied().collect();
        let embedded = embed_unitary(&item.unitary, &reversed, num_qubits);
        total = embedded.matmul(&total);
    }
    trace_fidelity(ideal, &total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize, GrapeOptions};
    use paqoc_circuit::{Circuit, GateKind};
    use paqoc_device::{transmon_xy_controls, HardwareSpec};

    #[test]
    fn zero_pulse_is_identity() {
        let controls = transmon_xy_controls(1, &[], &HardwareSpec::transmon_xy());
        let pulse = Pulse {
            step_ns: 0.5,
            channel_names: vec!["x[0]".into(), "y[0]".into()],
            amplitudes: vec![vec![0.0, 0.0]; 8],
        };
        let u = propagate(&pulse, &controls);
        assert!(u.max_diff(&Matrix::identity(2)) < 1e-12);
    }

    #[test]
    fn constant_x_drive_rotates() {
        // α_x = 0.1 GHz for 5 ns → θ = 2π·0.1·5·(1/2-factor…): the
        // generator is σx/2, so θ = 2π·0.1·5 = π: an X gate (up to phase).
        let controls = transmon_xy_controls(1, &[], &HardwareSpec::transmon_xy());
        let pulse = Pulse {
            step_ns: 0.5,
            channel_names: vec!["x[0]".into(), "y[0]".into()],
            amplitudes: vec![vec![0.1, 0.0]; 10],
        };
        let u = propagate(&pulse, &controls);
        let f = trace_fidelity(&GateKind::X.unitary(&[]), &u);
        assert!(f > 1.0 - 1e-9, "fidelity {f}");
    }

    #[test]
    fn propagation_is_unitary() {
        let controls = transmon_xy_controls(2, &[(0, 1)], &HardwareSpec::transmon_xy());
        let pulse = Pulse {
            step_ns: 0.5,
            channel_names: controls.channels.iter().map(|c| c.name.clone()).collect(),
            amplitudes: vec![vec![0.05, -0.02, 0.01, 0.03, 0.015]; 12],
        };
        assert!(propagate(&pulse, &controls).is_unitary(1e-9));
    }

    #[test]
    fn scheduled_pulses_reproduce_a_bell_circuit() {
        let spec = HardwareSpec::transmon_xy();
        let c1 = transmon_xy_controls(1, &[], &spec);
        let c2 = transmon_xy_controls(2, &[(0, 1)], &spec);

        let h = optimize(
            &GateKind::H.unitary(&[]),
            &c1,
            12,
            &GrapeOptions::default(),
            None,
        );
        let cx_opts = GrapeOptions {
            max_iters: 600,
            ..GrapeOptions::default()
        };
        let cx = optimize(&GateKind::Cx.unitary(&[]), &c2, 32, &cx_opts, None);

        let mut ideal = Circuit::new(2);
        ideal.h(0).cx(0, 1);

        // The CX target uses gate convention (first qubit = MSB = control
        // = qubit 0); ScheduledUnitary wants LSB-first qubit order, so
        // the qubit list is [target, control] = [1, 0].
        let schedule = vec![
            ScheduledUnitary {
                unitary: propagate(&h.pulse, &c1),
                qubits: vec![0],
            },
            ScheduledUnitary {
                unitary: propagate(&cx.pulse, &c2),
                qubits: vec![1, 0],
            },
        ];
        let f = circuit_pulse_fidelity(&schedule, &ideal.unitary(), 2);
        assert!(f > 0.99, "circuit pulse fidelity {f}");
    }
}
