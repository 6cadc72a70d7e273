//! The backend type and the three shipped targets.

use crate::snapshot::{parse_snapshot, CalError};
use paqoc_device::{
    Device, DeviceTuning, HardwareSpec, Topology, NS_HEAVY_HEX, NS_TUNABLE_COUPLER,
};

/// The default heavy-hex calibration snapshot, shipped with the crate.
pub const HEAVY_HEX_DEFAULT_CAL: &str = include_str!("../data/heavy_hex_cal.json");

/// Hexagon rows and columns of the shipped heavy-hex lattice (33 qubits).
const HEAVY_HEX_ROWS: usize = 2;
const HEAVY_HEX_COLS: usize = 2;

/// Grid side of the tunable-coupler lattice.
const TUNABLE_COUPLER_SIDE: usize = 4;

/// A device target: a one-line description plus the [`Device`] it
/// names.
///
/// Identity lives on the device alone. Its `BackendTag` holds the
/// registry name, the fingerprint namespace id and the calibration
/// digest, and [`Backend::name`] reads it. A calibrated backend builds
/// its device with `Device::with_tuning`, so its fingerprint is
/// namespaced; the paper grid is `Device::grid5x5()` itself, untagged,
/// with its legacy fingerprint, store files and outputs.
#[derive(Clone, Debug)]
pub struct Backend {
    description: &'static str,
    device: Device,
}

impl Backend {
    /// The paper's idealized 5×5 transmon grid, `Device::grid5x5()`: no
    /// calibration, no namespace tag.
    pub fn transmon_grid() -> Self {
        Backend {
            description: "idealized 5x5 transmon grid (the paper's device)",
            device: Device::grid5x5(),
        }
    }

    /// An IBM-style heavy-hex lattice with the shipped calibration
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Never in practice: the embedded snapshot is validated by test.
    pub fn heavy_hex() -> Self {
        Self::heavy_hex_from_snapshot_str(HEAVY_HEX_DEFAULT_CAL).expect("shipped snapshot is valid")
    }

    /// The heavy-hex lattice with a caller-supplied `paqoc-cal-1`
    /// snapshot document.
    ///
    /// # Errors
    ///
    /// Returns [`CalError`] when the snapshot is malformed or does not
    /// cover the 33-qubit lattice.
    pub fn heavy_hex_from_snapshot_str(text: &str) -> Result<Self, CalError> {
        let topology = Topology::heavy_hex(HEAVY_HEX_ROWS, HEAVY_HEX_COLS);
        let tuning = parse_snapshot(text, topology.num_qubits())?;
        Ok(Backend {
            description: "IBM-style 33-qubit heavy-hex lattice with per-qubit calibration",
            device: Device::with_tuning(
                topology,
                HardwareSpec::transmon_xy(),
                tuning,
                "heavy-hex",
                NS_HEAVY_HEX,
            ),
        })
    }

    /// The heavy-hex lattice with a snapshot read from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CalError`] when the file is unreadable or malformed.
    pub fn heavy_hex_from_snapshot_file(path: &std::path::Path) -> Result<Self, CalError> {
        let text = std::fs::read_to_string(path).map_err(|e| CalError {
            message: format!("{}: {e}", path.display()),
        })?;
        Self::heavy_hex_from_snapshot_str(&text)
    }

    /// A 4×4 grid of fixed-frequency transmons whose couplers are flux
    /// biased at `flux` ∈ \[0, 1\].
    ///
    /// Coupler `k` (in topology edge order) gets scale
    /// `0.55 + 0.45·cos(flux·π·(k+1)/num_edges)` — each coupler sits at
    /// a different point of its flux-tuning curve, so the two-qubit
    /// channels are genuinely parametric: changing `flux` re-scales
    /// every coupler differently and rotates the namespace. The
    /// registry builds it at flux 0.5.
    ///
    /// # Panics
    ///
    /// Panics when `flux` is not finite or outside \[0, 1\].
    pub fn tunable_coupler(flux: f64) -> Self {
        assert!(
            flux.is_finite() && (0.0..=1.0).contains(&flux),
            "flux bias {flux} outside [0, 1]"
        );
        let topology = Topology::grid(TUNABLE_COUPLER_SIDE, TUNABLE_COUPLER_SIDE);
        let mut tuning = DeviceTuning::identity(topology.num_qubits());
        let num_edges = topology.edges().len();
        for (k, &(a, b)) in topology.edges().iter().enumerate() {
            let theta = flux * std::f64::consts::PI * (k + 1) as f64 / num_edges as f64;
            let scale = 0.55 + 0.45 * theta.cos();
            tuning.coupler_scale.insert((a.min(b), a.max(b)), scale);
        }
        Backend {
            description: "4x4 grid of fixed-frequency transmons with flux-tunable couplers",
            device: Device::with_tuning(
                topology,
                HardwareSpec::transmon_xy(),
                tuning,
                "tunable-coupler",
                NS_TUNABLE_COUPLER,
            ),
        }
    }

    /// Registry name, e.g. `"heavy-hex"`: the device's
    /// [`Device::backend_name`].
    pub fn name(&self) -> &str {
        self.device.backend_name()
    }

    /// One-line human description for CLI listings.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The device this backend models.
    pub fn device(&self) -> Device {
        self.device.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_device::{decode_fingerprint, FingerprintKind};

    #[test]
    fn transmon_grid_backend_is_bit_identical_to_grid5x5() {
        let via_backend = Backend::transmon_grid().device();
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
        let device = Backend::heavy_hex().device();
        assert_eq!(device.topology().num_qubits(), 33);
        assert_eq!(device.backend_name(), "heavy-hex");
        let tag = device.tag().expect("a calibrated device is tagged");
        match decode_fingerprint(device.fingerprint()) {
            FingerprintKind::Namespaced { ns_id, cal_id } => {
                assert_eq!(ns_id, NS_HEAVY_HEX);
                assert_eq!((ns_id, cal_id), (tag.ns_id, tag.cal_id));
            }
            k => panic!("expected namespaced fingerprint, got {k:?}"),
        }
    }

    #[test]
    fn heavy_hex_snapshot_drift_rotates_the_fingerprint() {
        let base = Backend::heavy_hex().device();
        let drifted = HEAVY_HEX_DEFAULT_CAL.replacen("\"t1_us\": 1", "\"t1_us\": 2", 1);
        assert_ne!(drifted, HEAVY_HEX_DEFAULT_CAL, "the replace must bite");
        let drifted = Backend::heavy_hex_from_snapshot_str(&drifted)
            .expect("still valid")
            .device();
        assert_ne!(base.fingerprint(), drifted.fingerprint());
        assert!(paqoc_device::is_namespaced(drifted.fingerprint()));
    }

    #[test]
    fn tunable_coupler_flux_is_parametric() {
        let a = Backend::tunable_coupler(0.25).device();
        let b = Backend::tunable_coupler(0.75).device();
        assert_ne!(a.fingerprint(), b.fingerprint(), "flux is part of identity");
        // Different couplers sit at different points of the tuning
        // curve even within one device.
        let device = Backend::tunable_coupler(0.5).device();
        let edges = device.topology().edges();
        let (first, last) = (edges[0], edges[edges.len() - 1]);
        assert_ne!(
            device.coupler_limit(first.0, first.1),
            device.coupler_limit(last.0, last.1)
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn tunable_coupler_rejects_wild_flux() {
        let _ = Backend::tunable_coupler(1.5);
    }
}
