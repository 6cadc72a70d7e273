//! Pulse-schedule extraction.
//!
//! Lowers a compiled [`GroupedCircuit`] to a flat, channel-addressed
//! pulse program: each customized-gate group becomes one waveform in
//! the pulse library plus one `play` instruction per control channel it
//! touches, started at the group's critical-path offset (`cp_before`,
//! quantized to device cycles). This is the exchange format the
//! OpenPulse exporter serializes.

use paqoc_core::{CompilationResult, GroupedCircuit};
use paqoc_device::Device;

/// One waveform in the pulse library.
#[derive(Clone, Debug, PartialEq)]
pub struct PulseDef {
    /// Library name, unique within a program.
    pub name: String,
    /// Complex samples, one per device cycle.
    pub samples: Vec<(f64, f64)>,
}

/// One `play` instruction: a library waveform on a channel at a time.
#[derive(Clone, Debug, PartialEq)]
pub struct PlayInst {
    /// Pulse-library name.
    pub pulse: String,
    /// Channel name: `d{q}` drives qubit `q`, `u{k}` is the control
    /// channel of the `k`-th coupler in the topology's edge list.
    pub channel: String,
    /// Start time in device cycles.
    pub t0_dt: u64,
}

/// One experiment (a compiled circuit's schedule).
#[derive(Clone, Debug, PartialEq)]
pub struct Experiment {
    /// Experiment name (the benchmark name).
    pub name: String,
    /// Instructions in deterministic order (group topological order,
    /// channels sorted within a group).
    pub instructions: Vec<PlayInst>,
}

/// A complete pulse program: identity + library + experiments.
#[derive(Clone, Debug, PartialEq)]
pub struct PulseProgram {
    /// Deterministic program id.
    pub qobj_id: String,
    /// Backend registry name.
    pub backend_name: String,
    /// The device fingerprint the program was compiled against.
    pub fingerprint: u64,
    /// Calibration-snapshot digest, `None` for legacy devices.
    pub calibration_id: Option<u16>,
    /// Device cycle time, nanoseconds.
    pub dt_ns: f64,
    /// The pulse library, sorted by name.
    pub pulses: Vec<PulseDef>,
    /// The experiments.
    pub experiments: Vec<Experiment>,
}

/// Envelope length cap, cycles. Long groups are represented by a
/// decimated envelope — the exchange format is a schedule skeleton for
/// cross-tool interop, not a full AWG waveform dump.
pub const MAX_ENVELOPE_SAMPLES: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// JSON's number grammar cannot distinguish `-0.0` from `0.0` (the
/// writer prints integer-valued floats without a sign), so envelopes
/// never carry a negative zero, and neither do exported samples.
pub(crate) fn scrub_zero(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x
    }
}

/// Deterministic envelope for a group: a raised-cosine ramp with a
/// phase seeded from the pulse name and device fingerprint. Purely a
/// function of its inputs — two exports of the same compile are
/// byte-identical.
fn synthesize_envelope(
    name: &str,
    fingerprint: u64,
    duration_dt: u64,
    max_amp: f64,
) -> Vec<(f64, f64)> {
    let n = (duration_dt.max(4) as usize).min(MAX_ENVELOPE_SAMPLES);
    let seed = fnv1a(
        fnv1a(FNV_OFFSET, name.as_bytes()),
        &fingerprint.to_le_bytes(),
    );
    let phase0 = (seed >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU;
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let x = (i as f64 + 0.5) / n as f64;
        let window = 0.5 * (1.0 - (std::f64::consts::TAU * x).cos());
        let phase = phase0 + std::f64::consts::PI * x;
        let amp = max_amp * window;
        samples.push((scrub_zero(amp * phase.cos()), scrub_zero(amp * phase.sin())));
    }
    samples
}

/// Lowers a compilation result to a [`PulseProgram`] on `device`,
/// named after the device's backend ([`Device::backend_name`]).
///
/// An untagged device exports as backend `"transmon-grid"` only when it
/// is `Device::grid5x5()`, the paper's grid; any other untagged device
/// (one built with `Device::new`, such as `Device::line(3)`) exports as
/// `"custom"`, with its own fingerprint. Build the device through a
/// `Backend` constructor to name another target.
///
/// Deterministic: group topological order fixes instruction order, and
/// envelopes are pure functions of (pulse name, fingerprint, duration).
///
/// # Panics
///
/// Panics if `result` was not compiled for `device` (the group qubits
/// index channels of the device's topology).
pub fn lower_to_program(
    experiment_name: &str,
    result: &CompilationResult,
    device: &Device,
) -> PulseProgram {
    let grouped = &result.grouped;
    let dt_ns = device.spec().dt_ns;
    let (pulses, instructions) = lower_groups(grouped, device, dt_ns);
    PulseProgram {
        qobj_id: format!(
            "{}-{}-{:016x}",
            device.backend_name(),
            experiment_name,
            device.fingerprint()
        ),
        backend_name: device.backend_name().to_string(),
        fingerprint: device.fingerprint(),
        calibration_id: device.tag().map(|t| t.cal_id),
        dt_ns,
        pulses,
        experiments: vec![Experiment {
            name: experiment_name.to_string(),
            instructions,
        }],
    }
}

fn lower_groups(
    grouped: &GroupedCircuit,
    device: &Device,
    dt_ns: f64,
) -> (Vec<PulseDef>, Vec<PlayInst>) {
    let order = grouped.topological_order();
    let cp_before = grouped.cp_before();
    let topology = device.topology();
    let mut pulses = Vec::new();
    let mut instructions = Vec::new();
    for &gid in &order {
        let group = grouped.group(gid);
        let mut label: Vec<&str> = group
            .instructions
            .iter()
            .take(3)
            .map(|inst| inst.gate().name())
            .collect();
        if group.instructions.len() > 3 {
            label.push("etc");
        }
        let name = format!("g{gid}_{}", label.join("_"));
        let t0_dt = (cp_before[gid] / dt_ns).round() as u64;
        let duration_dt = device.spec().ns_to_dt(group.latency_ns);
        let qubits: Vec<usize> = group.qubits.iter().copied().collect();
        let max_amp = qubits
            .iter()
            .map(|&q| device.single_qubit_limit_for(q))
            .fold(0.0f64, f64::max);
        pulses.push(PulseDef {
            name: name.clone(),
            samples: synthesize_envelope(&name, device.fingerprint(), duration_dt, max_amp),
        });
        let mut channels: Vec<String> = qubits.iter().map(|&q| format!("d{q}")).collect();
        for (k, &(a, b)) in topology.edges().iter().enumerate() {
            if qubits.contains(&a) && qubits.contains(&b) {
                channels.push(format!("u{k}"));
            }
        }
        channels.sort();
        for channel in channels {
            instructions.push(PlayInst {
                pulse: name.clone(),
                channel,
                t0_dt,
            });
        }
    }
    pulses.sort_by(|a, b| a.name.cmp(&b.name));
    pulses.dedup_by(|a, b| a.name == b.name);
    (pulses, instructions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::Circuit;
    use paqoc_core::{try_compile, PipelineOptions};
    use paqoc_device::AnalyticModel;

    fn tiny_program() -> PulseProgram {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).x(2).cx(1, 2);
        let device = Device::grid5x5();
        let mut source = AnalyticModel::new();
        let result =
            try_compile(&c, &device, &mut source, &PipelineOptions::m0()).expect("compile");
        lower_to_program("tiny", &result, &device)
    }

    #[test]
    fn lowering_is_deterministic_and_consistent() {
        let a = tiny_program();
        let b = tiny_program();
        assert_eq!(a, b, "same compile → identical program");
        assert!(!a.pulses.is_empty());
        let exp = &a.experiments[0];
        assert!(!exp.instructions.is_empty());
        // Every instruction references a library pulse.
        for inst in &exp.instructions {
            assert!(
                a.pulses.iter().any(|p| p.name == inst.pulse),
                "dangling pulse reference {:?}",
                inst.pulse
            );
            assert!(inst.channel.starts_with('d') || inst.channel.starts_with('u'));
        }
    }

    #[test]
    fn envelopes_are_bounded_and_scrubbed() {
        let p = tiny_program();
        for pulse in &p.pulses {
            assert!(pulse.samples.len() <= MAX_ENVELOPE_SAMPLES);
            assert!(pulse.samples.len() >= 4);
            for &(re, im) in &pulse.samples {
                assert!(re.is_finite() && im.is_finite());
                assert_ne!(re.to_bits(), (-0.0f64).to_bits(), "-0.0 never exported");
                assert_ne!(im.to_bits(), (-0.0f64).to_bits());
            }
        }
    }

    #[test]
    fn an_untagged_line_does_not_export_as_the_grid() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let device = Device::line(3);
        let mut source = AnalyticModel::new();
        let result =
            try_compile(&c, &device, &mut source, &PipelineOptions::m0()).expect("compile");
        let program = lower_to_program("line", &result, &device);
        assert_eq!(program.backend_name, "custom");
        assert!(!program.qobj_id.starts_with("transmon-grid"));
        assert_eq!(program.fingerprint, device.fingerprint());
    }

    #[test]
    fn start_times_follow_the_critical_path() {
        let p = tiny_program();
        let first = p.experiments[0].instructions.first().expect("nonempty");
        assert_eq!(first.t0_dt, 0, "some group starts at t = 0");
        let max_t0 = p.experiments[0]
            .instructions
            .iter()
            .map(|i| i.t0_dt)
            .max()
            .expect("nonempty");
        assert!(max_t0 > 0, "a dependent group starts later");
    }
}
