//! OpenPulse-compatible JSON export and strict re-import.
//!
//! The wire format is a pulse-qobj-shaped document on the repo's own
//! JSON dialect (`paqoc_telemetry::json`):
//!
//! ```json
//! {
//!   "qobj_id": "heavy-hex-bv-b5…",
//!   "type": "PULSE",
//!   "schema_version": "1.0",
//!   "backend": {"name": "heavy-hex", "fingerprint": "b5…", "calibration_id": 4660},
//!   "config": {
//!     "dt_ns": 0.125,
//!     "pulse_library": [{"name": "g0_cx", "samples": [[0.01, -0.02], …]}, …]
//!   },
//!   "experiments": [
//!     {"header": {"name": "bv"},
//!      "instructions": [{"name": "g0_cx", "ch": "d0", "t0": 0}, …]}
//!   ]
//! }
//! ```
//!
//! Export is lossless for every finite sample except `-0.0`, which the
//! number grammar cannot carry; [`export`] scrubs it to `+0.0` so
//! export → [`import`] → [`export`] is a byte-level fixed point.
//! [`import`] is strict: missing fields, wrong types, dangling pulse
//! references, non-finite samples, or a malformed fingerprint are typed
//! [`ImportError`]s, never defaults.

use crate::schedule::{scrub_zero, Experiment, PlayInst, PulseDef, PulseProgram};
use paqoc_telemetry::json::{parse, Value};

/// The exporter's schema tag.
pub const SCHEMA_VERSION: &str = "1.0";

/// Why a document failed to import.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImportError {
    /// What was wrong, with enough context to locate it.
    pub message: String,
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "openpulse import rejected: {}", self.message)
    }
}

impl std::error::Error for ImportError {}

fn fail(message: impl Into<String>) -> ImportError {
    ImportError {
        message: message.into(),
    }
}

/// Serializes a program to the OpenPulse JSON document.
pub fn export(program: &PulseProgram) -> String {
    let pulse_library: Vec<Value> = program
        .pulses
        .iter()
        .map(|p| {
            let samples: Vec<Value> = p
                .samples
                .iter()
                .map(|&(re, im)| {
                    Value::Arr(vec![Value::Num(scrub_zero(re)), Value::Num(scrub_zero(im))])
                })
                .collect();
            Value::object([
                ("name", Value::Str(p.name.clone())),
                ("samples", Value::Arr(samples)),
            ])
        })
        .collect();
    let experiments: Vec<Value> = program
        .experiments
        .iter()
        .map(|e| {
            let instructions: Vec<Value> = e
                .instructions
                .iter()
                .map(|i| {
                    Value::object([
                        ("name", Value::Str(i.pulse.clone())),
                        ("ch", Value::Str(i.channel.clone())),
                        ("t0", Value::Num(i.t0_dt as f64)),
                    ])
                })
                .collect();
            Value::object([
                (
                    "header",
                    Value::object([("name", Value::Str(e.name.clone()))]),
                ),
                ("instructions", Value::Arr(instructions)),
            ])
        })
        .collect();
    let calibration_id = match program.calibration_id {
        Some(id) => Value::Num(id as f64),
        None => Value::Null,
    };
    let doc = Value::object([
        ("qobj_id", Value::Str(program.qobj_id.clone())),
        ("type", Value::Str("PULSE".to_string())),
        ("schema_version", Value::Str(SCHEMA_VERSION.to_string())),
        (
            "backend",
            Value::object([
                ("name", Value::Str(program.backend_name.clone())),
                (
                    "fingerprint",
                    Value::Str(format!("{:016x}", program.fingerprint)),
                ),
                ("calibration_id", calibration_id),
            ]),
        ),
        (
            "config",
            Value::object([
                ("dt_ns", Value::Num(program.dt_ns)),
                ("pulse_library", Value::Arr(pulse_library)),
            ]),
        ),
        ("experiments", Value::Arr(experiments)),
    ]);
    doc.to_json()
}

fn need<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, ImportError> {
    v.get(key)
        .ok_or_else(|| fail(format!("{ctx}: missing field {key:?}")))
}

fn need_str(v: &Value, key: &str, ctx: &str) -> Result<String, ImportError> {
    need(v, key, ctx)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| fail(format!("{ctx}: field {key:?} is not a string")))
}

fn need_finite(v: &Value, key: &str, ctx: &str) -> Result<f64, ImportError> {
    let n = need(v, key, ctx)?
        .as_num()
        .ok_or_else(|| fail(format!("{ctx}: field {key:?} is not a number")))?;
    if !n.is_finite() {
        return Err(fail(format!("{ctx}: field {key:?} is not finite")));
    }
    Ok(n)
}

fn need_u64(v: &Value, key: &str, ctx: &str) -> Result<u64, ImportError> {
    let n = need_finite(v, key, ctx)?;
    if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
        return Err(fail(format!(
            "{ctx}: field {key:?} = {n} is not an unsigned integer"
        )));
    }
    Ok(n as u64)
}

fn need_arr<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a [Value], ImportError> {
    need(v, key, ctx)?
        .as_arr()
        .ok_or_else(|| fail(format!("{ctx}: field {key:?} is not an array")))
}

/// Parses an OpenPulse document back into a [`PulseProgram`].
///
/// # Errors
///
/// Returns [`ImportError`] on any deviation from the exported schema.
pub fn import(text: &str) -> Result<PulseProgram, ImportError> {
    let doc = parse(text).map_err(|e| fail(format!("invalid JSON: {e}")))?;
    let ty = need_str(&doc, "type", "document")?;
    if ty != "PULSE" {
        return Err(fail(format!("document type {ty:?} is not \"PULSE\"")));
    }
    let schema = need_str(&doc, "schema_version", "document")?;
    if schema != SCHEMA_VERSION {
        return Err(fail(format!("unsupported schema_version {schema:?}")));
    }
    let qobj_id = need_str(&doc, "qobj_id", "document")?;

    let backend = need(&doc, "backend", "document")?;
    let backend_name = need_str(backend, "name", "backend")?;
    let fp_hex = need_str(backend, "fingerprint", "backend")?;
    if fp_hex.len() != 16 {
        return Err(fail(format!(
            "backend: fingerprint {fp_hex:?} is not 16 hex digits"
        )));
    }
    let fingerprint = u64::from_str_radix(&fp_hex, 16)
        .map_err(|_| fail(format!("backend: fingerprint {fp_hex:?} is not hex")))?;
    let calibration_id = match need(backend, "calibration_id", "backend")? {
        Value::Null => None,
        v => {
            let n = v
                .as_num()
                .ok_or_else(|| fail("backend: calibration_id is neither null nor a number"))?;
            if n < 0.0 || n.fract() != 0.0 || n > u16::MAX as f64 {
                return Err(fail(format!(
                    "backend: calibration_id {n} does not fit in 16 bits"
                )));
            }
            Some(n as u16)
        }
    };

    let config = need(&doc, "config", "document")?;
    let dt_ns = need_finite(config, "dt_ns", "config")?;
    if dt_ns <= 0.0 {
        return Err(fail(format!("config: dt_ns = {dt_ns} is not positive")));
    }
    let mut pulses = Vec::new();
    let mut names = std::collections::BTreeSet::new();
    for (i, p) in need_arr(config, "pulse_library", "config")?
        .iter()
        .enumerate()
    {
        let ctx = format!("pulse_library[{i}]");
        let name = need_str(p, "name", &ctx)?;
        if !names.insert(name.clone()) {
            return Err(fail(format!("{ctx}: duplicate pulse name {name:?}")));
        }
        let mut samples = Vec::new();
        for (j, s) in need_arr(p, "samples", &ctx)?.iter().enumerate() {
            let pair = s
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| fail(format!("{ctx}: samples[{j}] is not an [re, im] pair")))?;
            let comp = |v: &Value, part: &str| {
                let n = v
                    .as_num()
                    .ok_or_else(|| fail(format!("{ctx}: samples[{j}].{part} is not a number")))?;
                if !n.is_finite() {
                    return Err(fail(format!("{ctx}: samples[{j}].{part} is not finite")));
                }
                Ok(n)
            };
            samples.push((comp(&pair[0], "re")?, comp(&pair[1], "im")?));
        }
        pulses.push(PulseDef { name, samples });
    }

    let mut experiments = Vec::new();
    for (i, e) in need_arr(&doc, "experiments", "document")?
        .iter()
        .enumerate()
    {
        let ctx = format!("experiments[{i}]");
        let header = need(e, "header", &ctx)?;
        let name = need_str(header, "name", &ctx)?;
        let mut instructions = Vec::new();
        for (j, inst) in need_arr(e, "instructions", &ctx)?.iter().enumerate() {
            let ictx = format!("{ctx}.instructions[{j}]");
            let pulse = need_str(inst, "name", &ictx)?;
            if !names.contains(&pulse) {
                return Err(fail(format!("{ictx}: dangling pulse reference {pulse:?}")));
            }
            instructions.push(PlayInst {
                pulse,
                channel: need_str(inst, "ch", &ictx)?,
                t0_dt: need_u64(inst, "t0", &ictx)?,
            });
        }
        experiments.push(Experiment { name, instructions });
    }

    Ok(PulseProgram {
        qobj_id,
        backend_name,
        fingerprint,
        calibration_id,
        dt_ns,
        pulses,
        experiments,
    })
}

/// Bit-exact equality of two programs, sample by sample, modulo the
/// `-0.0` → `+0.0` normalization the wire format imposes.
pub fn sample_exact_eq(a: &PulseProgram, b: &PulseProgram) -> bool {
    let norm = |p: &PulseProgram| {
        let mut p = p.clone();
        for pulse in &mut p.pulses {
            for s in &mut pulse.samples {
                s.0 = scrub_zero(s.0);
                s.1 = scrub_zero(s.1);
            }
        }
        p
    };
    let (a, b) = (norm(a), norm(b));
    if (
        &a.qobj_id,
        &a.backend_name,
        a.fingerprint,
        a.calibration_id,
        a.dt_ns.to_bits(),
        &a.experiments,
    ) != (
        &b.qobj_id,
        &b.backend_name,
        b.fingerprint,
        b.calibration_id,
        b.dt_ns.to_bits(),
        &b.experiments,
    ) {
        return false;
    }
    a.pulses.len() == b.pulses.len()
        && a.pulses.iter().zip(&b.pulses).all(|(pa, pb)| {
            pa.name == pb.name
                && pa.samples.len() == pb.samples.len()
                && pa.samples.iter().zip(&pb.samples).all(|(sa, sb)| {
                    sa.0.to_bits() == sb.0.to_bits() && sa.1.to_bits() == sb.1.to_bits()
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hostile_program() -> PulseProgram {
        PulseProgram {
            qobj_id: "id with \"quotes\" and \\ backslashes".to_string(),
            backend_name: "heavy-hex".to_string(),
            fingerprint: 0xb510_2345_6789_abcd,
            calibration_id: Some(0x1234),
            dt_ns: 0.125,
            pulses: vec![
                PulseDef {
                    name: "g0_cx\n\t\"π\"".to_string(),
                    samples: vec![(0.25, -0.125), (1.0, 0.0), (-0.0, 1e-300)],
                },
                PulseDef {
                    name: "控制-π/2 🎛".to_string(),
                    samples: vec![(f64::MIN_POSITIVE, -f64::EPSILON)],
                },
            ],
            experiments: vec![Experiment {
                name: "bench \"x\" <&>".to_string(),
                instructions: vec![
                    PlayInst {
                        pulse: "g0_cx\n\t\"π\"".to_string(),
                        channel: "d0".to_string(),
                        t0_dt: 0,
                    },
                    PlayInst {
                        pulse: "控制-π/2 🎛".to_string(),
                        channel: "u12".to_string(),
                        t0_dt: 987_654,
                    },
                ],
            }],
        }
    }

    #[test]
    fn hostile_names_and_extreme_samples_roundtrip() {
        let program = hostile_program();
        let text = export(&program);
        let back = import(&text).expect("import");
        assert!(sample_exact_eq(&program, &back));
        // And the wire form is a fixed point.
        assert_eq!(text, export(&back));
    }

    #[test]
    fn negative_zero_is_scrubbed_not_corrupted() {
        let program = hostile_program();
        let back = import(&export(&program)).expect("import");
        let s = back.pulses[0].samples[2];
        assert_eq!(s.0.to_bits(), 0.0f64.to_bits(), "-0.0 → +0.0 on the wire");
        assert_eq!(s.1, 1e-300, "tiny magnitudes survive exactly");
    }

    #[test]
    fn import_rejects_structural_damage() {
        let good = export(&hostile_program());
        for (mutation, what) in [
            (good.replace("\"PULSE\"", "\"QASM\""), "not \"PULSE\""),
            (good.replace("\"1.0\"", "\"9.9\""), "schema_version"),
            (good.replace("987654", "-1"), "unsigned integer"),
            (good.replace("\"d0\"", "0"), "not a string"),
            (
                good.replace("b51023456789abcd", "xyz3456789abcdef"),
                "not hex",
            ),
        ] {
            let e = import(&mutation).expect_err(what);
            assert!(e.message.contains(what), "{what}: {e}");
        }
        // A dangling pulse reference (rename in the library only).
        let dangling = good.replacen("控制", "失控", 1);
        assert!(import(&dangling).is_err());
    }

    #[test]
    fn missing_calibration_id_roundtrips_as_null() {
        let mut program = hostile_program();
        program.calibration_id = None;
        let back = import(&export(&program)).expect("import");
        assert_eq!(back.calibration_id, None);
    }
}
