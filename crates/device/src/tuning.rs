//! Per-qubit / per-coupler calibration overlays.
//!
//! A [`crate::HardwareSpec`] describes a device whose qubits are all
//! identical — the paper's idealized 5×5 grid. Real lattices drift: each
//! qubit has its own frequency, anharmonicity, decoherence times and
//! drive strength, and each coupler its own effective rate. A
//! [`DeviceTuning`] carries that snapshot on top of the spec; the
//! [`crate::Device`] consults it through `single_qubit_limit_for` /
//! `coupler_limit` so the analytic model and GRAPE both see per-site
//! limits. An untuned device (`tuning = None`) answers every per-site
//! query with the exact spec-level value — the legacy code path is
//! bit-identical.

use paqoc_math::StableHasher;
use std::collections::BTreeMap;

/// Calibration of one qubit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QubitCal {
    /// Qubit transition frequency, GHz.
    pub frequency_ghz: f64,
    /// Anharmonicity, GHz (negative for transmons).
    pub anharmonicity_ghz: f64,
    /// Relaxation time, µs.
    pub t1_us: f64,
    /// Dephasing time, µs.
    pub t2_us: f64,
    /// Multiplier on the spec's single-qubit amplitude limit.
    pub drive_scale: f64,
}

impl Default for QubitCal {
    fn default() -> Self {
        QubitCal {
            frequency_ghz: 5.0,
            anharmonicity_ghz: -0.33,
            t1_us: 100.0,
            t2_us: 80.0,
            drive_scale: 1.0,
        }
    }
}

/// A calibration snapshot: one [`QubitCal`] per qubit plus per-coupler
/// rate multipliers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceTuning {
    /// Per-qubit calibration, indexed by physical qubit.
    pub qubits: Vec<QubitCal>,
    /// Multiplier on the spec's `mu_max` per coupler, keyed by the
    /// normalized `(min, max)` endpoint pair. Missing edges scale by 1.
    pub coupler_scale: BTreeMap<(usize, usize), f64>,
}

impl DeviceTuning {
    /// A neutral snapshot (every scale 1, default qubit values).
    pub fn identity(num_qubits: usize) -> Self {
        DeviceTuning {
            qubits: vec![QubitCal::default(); num_qubits],
            coupler_scale: BTreeMap::new(),
        }
    }

    /// Calibration of qubit `q`; defaults when the snapshot is short.
    pub fn qubit(&self, q: usize) -> QubitCal {
        self.qubits.get(q).copied().unwrap_or_default()
    }

    /// Rate multiplier of the coupler between `a` and `b` (1 when the
    /// snapshot carries no entry for the pair).
    pub fn coupler(&self, a: usize, b: usize) -> f64 {
        let key = (a.min(b), a.max(b));
        self.coupler_scale.get(&key).copied().unwrap_or(1.0)
    }

    /// FNV-1a hash of the full snapshot (every f64 by exact bit
    /// pattern), feeding the fingerprint's calibration digest: any
    /// drifted field rotates the namespace.
    pub fn content_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write(&(self.qubits.len() as u64).to_le_bytes());
        for q in &self.qubits {
            for field in [
                q.frequency_ghz,
                q.anharmonicity_ghz,
                q.t1_us,
                q.t2_us,
                q.drive_scale,
            ] {
                h.write(&field.to_bits().to_le_bytes());
            }
        }
        for (&(a, b), &scale) in &self.coupler_scale {
            h.write(&(a as u64).to_le_bytes());
            h.write(&(b as u64).to_le_bytes());
            h.write(&scale.to_bits().to_le_bytes());
        }
        h.finish()
    }

    /// The snapshot's 16-bit digest (the fingerprint `cal_id` field).
    pub fn cal_id(&self) -> u16 {
        let h = self.content_hash();
        (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) as u16
    }
}

/// Identity of the backend a device was built by, carried on the device
/// so every layer (store namespacing, serve routing, pulse export) can
/// ask `device.backend_name()` instead of assuming the paper grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendTag {
    /// Registry name, e.g. `"heavy-hex"`.
    pub name: String,
    /// Namespace id packed into the fingerprint (see
    /// [`crate::fingerprint`]).
    pub ns_id: u8,
    /// Calibration digest packed into the fingerprint.
    pub cal_id: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untuned_queries_default_sanely() {
        let t = DeviceTuning::identity(3);
        assert_eq!(t.qubit(0).drive_scale, 1.0);
        assert_eq!(t.qubit(99).drive_scale, 1.0, "out of range → defaults");
        assert_eq!(t.coupler(0, 1), 1.0);
        assert_eq!(t.coupler(1, 0), 1.0, "endpoint order is normalized");
    }

    #[test]
    fn content_hash_sees_every_field() {
        let base = DeviceTuning::identity(2);
        let mut drift = base.clone();
        drift.qubits[1].t1_us = 99.0;
        assert_ne!(base.content_hash(), drift.content_hash());
        assert_ne!(base.cal_id(), drift.cal_id());
        let mut coupler = base.clone();
        coupler.coupler_scale.insert((0, 1), 0.9);
        assert_ne!(base.content_hash(), coupler.content_hash());
    }

    #[test]
    fn coupler_scale_lookup_normalizes_endpoints() {
        let mut t = DeviceTuning::identity(2);
        t.coupler_scale.insert((0, 1), 0.5);
        assert_eq!(t.coupler(1, 0), 0.5);
        assert_eq!(t.coupler(0, 1), 0.5);
    }
}
