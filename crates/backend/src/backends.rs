//! The three shipped device targets.

use crate::snapshot::{parse_snapshot, CalError};
use crate::traits::{Backend, HasCalibration, HasChannels, HasSpec, HasTopology};
use paqoc_device::{DeviceTuning, Topology, NS_HEAVY_HEX, NS_TUNABLE_COUPLER};

/// The default heavy-hex calibration snapshot, shipped with the crate.
pub const HEAVY_HEX_DEFAULT_CAL: &str = include_str!("../data/heavy_hex_cal.json");

/// The paper's idealized 5×5 transmon grid.
///
/// Deliberately the *legacy* device: no calibration, no namespace tag.
/// Its [`Backend::device`] is bit-identical to `Device::grid5x5()` —
/// same fingerprint, same store files, same compile outputs — so adopting
/// the backend registry is not a migration for existing users.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransmonGridBackend;

impl HasTopology for TransmonGridBackend {
    fn topology(&self) -> Topology {
        Topology::grid(5, 5)
    }
}
impl HasSpec for TransmonGridBackend {}
impl HasCalibration for TransmonGridBackend {}
impl HasChannels for TransmonGridBackend {}
impl Backend for TransmonGridBackend {
    fn name(&self) -> &'static str {
        "transmon-grid"
    }
    fn ns_id(&self) -> Option<u8> {
        None
    }
    fn description(&self) -> &'static str {
        "idealized 5x5 transmon grid (the paper's device)"
    }
}

/// An IBM-style heavy-hex lattice with per-qubit calibration loaded
/// from a `paqoc-cal-1` snapshot file.
#[derive(Clone, Debug)]
pub struct HeavyHexBackend {
    tuning: DeviceTuning,
}

impl HeavyHexBackend {
    /// Hexagon rows/cols of the shipped lattice (33 qubits).
    pub const ROWS: usize = 2;
    /// See [`Self::ROWS`].
    pub const COLS: usize = 2;

    /// The backend with the shipped default snapshot.
    ///
    /// # Panics
    ///
    /// Never in practice: the embedded snapshot is validated by test.
    pub fn shipped() -> Self {
        Self::from_snapshot_str(HEAVY_HEX_DEFAULT_CAL).expect("shipped snapshot is valid")
    }

    /// The backend with a caller-supplied snapshot document.
    ///
    /// # Errors
    ///
    /// Returns [`CalError`] when the snapshot is malformed or does not
    /// cover the 33-qubit lattice.
    pub fn from_snapshot_str(text: &str) -> Result<Self, CalError> {
        let num_qubits = Topology::heavy_hex(Self::ROWS, Self::COLS).num_qubits();
        let tuning = parse_snapshot(text, num_qubits)?;
        Ok(HeavyHexBackend { tuning })
    }

    /// The backend with a snapshot read from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CalError`] when the file is unreadable or malformed.
    pub fn from_snapshot_file(path: &std::path::Path) -> Result<Self, CalError> {
        let text = std::fs::read_to_string(path).map_err(|e| CalError {
            message: format!("{}: {e}", path.display()),
        })?;
        Self::from_snapshot_str(&text)
    }
}

impl HasTopology for HeavyHexBackend {
    fn topology(&self) -> Topology {
        Topology::heavy_hex(Self::ROWS, Self::COLS)
    }
}
impl HasSpec for HeavyHexBackend {}
impl HasCalibration for HeavyHexBackend {
    fn calibration(&self) -> Option<DeviceTuning> {
        Some(self.tuning.clone())
    }
}
impl HasChannels for HeavyHexBackend {}
impl Backend for HeavyHexBackend {
    fn name(&self) -> &'static str {
        "heavy-hex"
    }
    fn ns_id(&self) -> Option<u8> {
        Some(NS_HEAVY_HEX)
    }
    fn description(&self) -> &'static str {
        "IBM-style 33-qubit heavy-hex lattice with per-qubit calibration"
    }
}

/// A tunable-coupler grid: every two-qubit channel's strength is a
/// deterministic function of a single flux parameter, modeling a
/// flux-biased coupler between fixed-frequency transmons.
#[derive(Clone, Debug)]
pub struct TunableCouplerBackend {
    flux: f64,
    tuning: DeviceTuning,
}

impl TunableCouplerBackend {
    /// Grid side of the tunable-coupler lattice.
    pub const SIDE: usize = 4;

    /// The backend at flux bias `flux` ∈ \[0, 1\].
    ///
    /// Coupler `k` (in topology edge order) gets scale
    /// `0.55 + 0.45·cos(flux·π·(k+1)/num_edges)` — each coupler sits at
    /// a different point of its flux-tuning curve, so the two-qubit
    /// channels are genuinely parametric: changing `flux` re-scales
    /// every coupler differently and rotates the namespace.
    ///
    /// # Panics
    ///
    /// Panics when `flux` is not finite or outside \[0, 1\].
    pub fn at_flux(flux: f64) -> Self {
        assert!(
            flux.is_finite() && (0.0..=1.0).contains(&flux),
            "flux bias {flux} outside [0, 1]"
        );
        let topology = Topology::grid(Self::SIDE, Self::SIDE);
        let mut tuning = DeviceTuning::identity(topology.num_qubits());
        let num_edges = topology.edges().len();
        for (k, &(a, b)) in topology.edges().iter().enumerate() {
            let theta = flux * std::f64::consts::PI * (k + 1) as f64 / num_edges as f64;
            let scale = 0.55 + 0.45 * theta.cos();
            tuning.coupler_scale.insert((a.min(b), a.max(b)), scale);
        }
        TunableCouplerBackend { flux, tuning }
    }

    /// The flux bias this backend was built at.
    pub fn flux(&self) -> f64 {
        self.flux
    }
}

impl Default for TunableCouplerBackend {
    fn default() -> Self {
        Self::at_flux(0.5)
    }
}

impl HasTopology for TunableCouplerBackend {
    fn topology(&self) -> Topology {
        Topology::grid(Self::SIDE, Self::SIDE)
    }
}
impl HasSpec for TunableCouplerBackend {}
impl HasCalibration for TunableCouplerBackend {
    fn calibration(&self) -> Option<DeviceTuning> {
        Some(self.tuning.clone())
    }
}
impl HasChannels for TunableCouplerBackend {}
impl Backend for TunableCouplerBackend {
    fn name(&self) -> &'static str {
        "tunable-coupler"
    }
    fn ns_id(&self) -> Option<u8> {
        Some(NS_TUNABLE_COUPLER)
    }
    fn description(&self) -> &'static str {
        "4x4 grid of fixed-frequency transmons with flux-tunable couplers"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_device::{decode_fingerprint, Device, FingerprintKind};

    #[test]
    fn transmon_grid_backend_is_bit_identical_to_grid5x5() {
        let via_backend = TransmonGridBackend.device();
        let legacy = Device::grid5x5();
        assert_eq!(via_backend.fingerprint(), legacy.fingerprint());
        assert_eq!(via_backend.backend_name(), "transmon-grid");
        assert_eq!(
            decode_fingerprint(via_backend.fingerprint()),
            FingerprintKind::Legacy
        );
        // The control sets — what GRAPE and the analytic model actually
        // consume — agree too.
        let a = via_backend.controls_for(&[0, 1]);
        let b = legacy.controls_for(&[0, 1]);
        assert_eq!(a.channels.len(), b.channels.len());
        for (ca, cb) in a.channels.iter().zip(&b.channels) {
            assert_eq!(ca.max_amp.to_bits(), cb.max_amp.to_bits());
        }
    }

    /// Every pulse store and shared-table key starts with the device
    /// fingerprint, so a drift here orphans every existing store for
    /// that backend. A change that means to move one updates the value
    /// here and says so.
    #[test]
    fn backend_fingerprints_are_pinned() {
        for (name, want) in [
            ("transmon-grid", 0x9182_8249_684c_0a3e_u64),
            ("heavy-hex", 0xb513_8980_ebdf_b558),
            ("tunable-coupler", 0xb52c_5c14_fd87_ae46),
        ] {
            let got = crate::resolve(name)
                .expect("registered")
                .device()
                .fingerprint();
            assert_eq!(
                got, want,
                "{name}: fingerprint {got:#018x}, pinned {want:#018x}"
            );
        }
        assert_eq!(Device::grid5x5().fingerprint(), 0x9182_8249_684c_0a3e);
    }

    #[test]
    fn shipped_heavy_hex_snapshot_is_valid_and_namespaced() {
        let backend = HeavyHexBackend::shipped();
        let device = backend.device();
        assert_eq!(device.topology().num_qubits(), 33);
        assert_eq!(device.backend_name(), "heavy-hex");
        match decode_fingerprint(device.fingerprint()) {
            FingerprintKind::Namespaced { ns_id, cal_id } => {
                assert_eq!(ns_id, NS_HEAVY_HEX);
                assert_eq!(Some(cal_id), backend.calibration_id());
            }
            k => panic!("expected namespaced fingerprint, got {k:?}"),
        }
    }

    #[test]
    fn heavy_hex_snapshot_drift_rotates_the_fingerprint() {
        let base = HeavyHexBackend::shipped().device();
        let drifted = HEAVY_HEX_DEFAULT_CAL.replacen("\"t1_us\": 1", "\"t1_us\": 2", 1);
        assert_ne!(drifted, HEAVY_HEX_DEFAULT_CAL, "the replace must bite");
        let drifted = HeavyHexBackend::from_snapshot_str(&drifted)
            .expect("still valid")
            .device();
        assert_ne!(base.fingerprint(), drifted.fingerprint());
        assert!(paqoc_device::is_namespaced(drifted.fingerprint()));
    }

    #[test]
    fn tunable_coupler_flux_is_parametric() {
        let a = TunableCouplerBackend::at_flux(0.25).device();
        let b = TunableCouplerBackend::at_flux(0.75).device();
        assert_ne!(a.fingerprint(), b.fingerprint(), "flux is part of identity");
        // Different couplers sit at different points of the tuning
        // curve even within one device.
        let t = TunableCouplerBackend::at_flux(0.5);
        let edges = t.topology();
        let edges = edges.edges();
        let first = t.tuning.coupler(edges[0].0, edges[0].1);
        let last = t
            .tuning
            .coupler(edges[edges.len() - 1].0, edges[edges.len() - 1].1);
        assert_ne!(first, last);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn tunable_coupler_rejects_wild_flux() {
        let _ = TunableCouplerBackend::at_flux(1.5);
    }
}
