//! OpenPulse export/import roundtrip over the whole Table-I corpus on
//! every registered backend: the re-imported program must be
//! sample-exact (bit-identical envelopes modulo `-0.0` normalization),
//! and export must be a byte-level fixed point of import ∘ export. A
//! seeded property test additionally roundtrips hand-built programs
//! with hostile pulse/channel/experiment names and adversarial sample
//! magnitudes.

use paqoc::backend::{
    export, import, lower_to_program, resolve, sample_exact_eq, Experiment, PlayInst, PulseDef,
    PulseProgram, BACKEND_NAMES,
};
use paqoc::core::{try_compile, PipelineOptions};
use paqoc::device::AnalyticModel;
use paqoc::math::{Rng, StableHasher};
use paqoc::workloads::all_benchmarks;

/// FNV-1a over every exported program's text, per backend, in
/// `all_benchmarks` order. Nothing else pins a heavy-hex or
/// tunable-coupler compile, so these catch any change to what a
/// calibrated backend exports: channel names, envelopes, identity.
/// A change that means to move one updates the value here and says so.
const EXPORT_PINS: [(&str, u64); 3] = [
    ("transmon-grid", 0x2a21_5b2d_3e5e_2151),
    ("heavy-hex", 0xf784_c724_f078_d65e),
    ("tunable-coupler", 0x1196_b988_62ac_fb80),
];

/// Every benchmark that fits the backend roundtrips sample-exact, on
/// all three backends. (The tunable-coupler model has 16 qubits, so the
/// larger Table-I circuits are skipped there — but at least the small
/// ones must run on EVERY backend.) Each backend's exports must hash to
/// its [`EXPORT_PINS`] value.
#[test]
fn all_benchmarks_roundtrip_sample_exact_on_every_backend() {
    let opts = PipelineOptions::m_inf();
    let mut hashes = Vec::new();
    for name in BACKEND_NAMES {
        let device = resolve(name).expect(name).device();
        let mut ran = 0usize;
        let mut hash = StableHasher::new();
        for b in all_benchmarks() {
            let circuit = (b.build)();
            if circuit.num_qubits() > device.topology().num_qubits() {
                continue;
            }
            let mut source = AnalyticModel::new();
            let result = try_compile(&circuit, &device, &mut source, &opts)
                .unwrap_or_else(|e| panic!("{name}/{}: compile failed: {e}", b.name));
            let program = lower_to_program(b.name, &result, &device);
            let wire = export(&program);
            hash.write(wire.as_bytes());
            let back =
                import(&wire).unwrap_or_else(|e| panic!("{name}/{}: import failed: {e}", b.name));
            assert!(
                sample_exact_eq(&program, &back),
                "{name}/{}: reimport is not sample-exact",
                b.name
            );
            assert_eq!(back.backend_name, name);
            assert_eq!(back.fingerprint, device.fingerprint());
            // export ∘ import ∘ export is a byte-level fixed point.
            assert_eq!(
                export(&back),
                wire,
                "{name}/{}: export is not a fixed point",
                b.name
            );
            ran += 1;
        }
        assert!(
            ran >= 3,
            "backend {name} must run at least the small benchmarks, ran {ran}"
        );
        hashes.push((name, hash.finish()));
    }
    assert_eq!(
        hashes,
        EXPORT_PINS,
        "exported programs changed; new pins: {}",
        hashes
            .iter()
            .map(|(name, h)| format!("(\"{name}\", {h:#018x})"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// Name pools for the hostile-program generator: quotes, backslashes,
/// newlines, NUL-adjacent controls, RTL text, emoji, and JSON-special
/// tokens — everything the hand-rolled writer must escape correctly.
const HOSTILE_NAMES: [&str; 8] = [
    "控制-π/2 🎛",
    "a\"b\\c",
    "line\nbreak\ttab",
    "‏rtl-؄text",
    "null\u{0}byte",
    "{\"looks\":\"like json\"}",
    " leading and trailing ",
    "d0", // collides with a default drive-channel name
];

fn hostile_sample(rng: &mut Rng) -> (f64, f64) {
    // Adversarial magnitudes: subnormals, tiny exponents, exact zeros
    // (including a -0.0 the exporter must scrub), and plain values.
    let pick = |rng: &mut Rng| -> f64 {
        match rng.random_range(0u32..=5) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE,
            3 => 1e-300 * (rng.random::<f64>() - 0.5),
            4 => (rng.random::<f64>() - 0.5) * 2.0,
            _ => -(rng.random::<f64>()) * 1e12,
        }
    };
    (pick(rng), pick(rng))
}

fn hostile_program(rng: &mut Rng, seed_tag: u64) -> PulseProgram {
    let n_pulses = rng.random_range(1usize..=4);
    let pulses: Vec<PulseDef> = (0..n_pulses)
        .map(|i| PulseDef {
            // Unique per index: pulse names must be unique in a program.
            name: format!(
                "{}#{i}",
                HOSTILE_NAMES[rng.random_range(0usize..=HOSTILE_NAMES.len() - 1)]
            ),
            samples: (0..rng.random_range(1usize..=16))
                .map(|_| hostile_sample(rng))
                .collect(),
        })
        .collect();
    let instructions: Vec<PlayInst> = (0..rng.random_range(1usize..=8))
        .map(|_| PlayInst {
            pulse: pulses[rng.random_range(0usize..=pulses.len() - 1)]
                .name
                .clone(),
            channel: HOSTILE_NAMES[rng.random_range(0usize..=HOSTILE_NAMES.len() - 1)].to_string(),
            t0_dt: rng.random_range(0u64..=1 << 40),
        })
        .collect();
    PulseProgram {
        qobj_id: format!("hostile-{seed_tag}"),
        backend_name: HOSTILE_NAMES[rng.random_range(0usize..=HOSTILE_NAMES.len() - 1)].to_string(),
        fingerprint: rng.random::<u64>(),
        calibration_id: if rng.random::<f64>() < 0.5 {
            Some(rng.random_range(0u64..=u16::MAX as u64) as u16)
        } else {
            None
        },
        dt_ns: 0.5 + rng.random::<f64>(),
        pulses,
        experiments: vec![Experiment {
            name: HOSTILE_NAMES[rng.random_range(0usize..=HOSTILE_NAMES.len() - 1)].to_string(),
            instructions,
        }],
    }
}

/// Seeded property test: 200 hostile programs roundtrip sample-exact
/// and reach the byte fixed point, whatever the names and magnitudes.
#[test]
fn hostile_programs_roundtrip_sample_exact() {
    let mut rng = Rng::seed_from_u64(0x0BE5_CA1E);
    for case in 0..200u64 {
        let program = hostile_program(&mut rng, case);
        let wire = export(&program);
        let back = import(&wire).unwrap_or_else(|e| panic!("case {case}: import failed: {e}"));
        assert!(
            sample_exact_eq(&program, &back),
            "case {case}: not sample-exact\n{wire}"
        );
        assert_eq!(back.qobj_id, program.qobj_id, "case {case}");
        assert_eq!(back.backend_name, program.backend_name, "case {case}");
        assert_eq!(back.fingerprint, program.fingerprint, "case {case}");
        assert_eq!(back.calibration_id, program.calibration_id, "case {case}");
        assert_eq!(
            export(&back),
            wire,
            "case {case}: export is not a fixed point"
        );
    }
}
