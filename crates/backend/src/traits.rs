//! The backend trait family: one small trait per concern.
//!
//! Mirrors the repo's `Gate` idiom — a backend is not one fat object
//! but the intersection of four narrow capabilities, each of which can
//! be reasoned about (and defaulted) independently:
//!
//! * [`HasTopology`] — the coupling lattice.
//! * [`HasSpec`] — the Hamiltonian-level control limits.
//! * [`HasCalibration`] — the per-qubit / per-coupler overlay, if any.
//! * [`HasChannels`] — the control-channel naming scheme.
//!
//! [`Backend`] composes them and owns the one derived operation that
//! must be consistent across the stack: building the [`Device`] whose
//! fingerprint namespaces every pulse store and cache key downstream.

use paqoc_device::{Device, DeviceTuning, HardwareSpec, Topology};

/// Concern 1: the coupling lattice.
pub trait HasTopology {
    /// The backend's qubit-coupling graph.
    fn topology(&self) -> Topology;
}

/// Concern 2: the Hamiltonian-level control limits.
pub trait HasSpec {
    /// The control-field limits shared by every qubit before
    /// calibration scaling. Defaults to the paper's transmon-XY spec.
    fn spec(&self) -> HardwareSpec {
        HardwareSpec::transmon_xy()
    }
}

/// Concern 3: the calibration overlay.
pub trait HasCalibration {
    /// The per-qubit / per-coupler calibration snapshot, or `None` for
    /// an idealized (spec-only) device.
    fn calibration(&self) -> Option<DeviceTuning> {
        None
    }

    /// The 16-bit digest of the active snapshot, `None` when
    /// uncalibrated. A drifted snapshot changes this, which rotates the
    /// device fingerprint and with it every store namespace.
    fn calibration_id(&self) -> Option<u16> {
        self.calibration().map(|t| t.cal_id())
    }
}

/// Concern 4: control-channel naming.
///
/// The default scheme matches OpenPulse convention: `d{q}` for the
/// drive channel of qubit `q`, `u{k}` for the control channel of the
/// `k`-th coupler in the topology's edge list.
pub trait HasChannels {
    /// Drive-channel name of qubit `q`.
    fn drive_channel(&self, q: usize) -> String {
        format!("d{q}")
    }

    /// Control-channel name of the `k`-th coupler edge.
    fn coupler_channel(&self, k: usize) -> String {
        format!("u{k}")
    }
}

/// A pluggable device target.
///
/// Implementors provide identity ([`Backend::name`], [`Backend::ns_id`])
/// on top of the four concern traits; [`Backend::device`] derives the
/// device — tagged and namespace-fingerprinted when the backend is
/// calibrated, bit-identical to the legacy constructor when it is not.
pub trait Backend: HasTopology + HasSpec + HasCalibration + HasChannels {
    /// Registry name, e.g. `"heavy-hex"`.
    fn name(&self) -> &'static str;

    /// Fingerprint namespace id (see `paqoc_device::fingerprint`), or
    /// `None` for a legacy untagged device. The paper grid returns
    /// `None` so its fingerprint — and with it every store file, cache
    /// key and pinned output — stays byte-identical.
    fn ns_id(&self) -> Option<u8>;

    /// One-line human description for CLI listings.
    fn description(&self) -> &'static str {
        ""
    }

    /// Builds the device this backend models.
    fn device(&self) -> Device {
        match (self.ns_id(), self.calibration()) {
            (Some(ns), Some(tuning)) => {
                Device::with_tuning(self.topology(), self.spec(), tuning, self.name(), ns)
            }
            // Uncalibrated or legacy: the untagged constructor, so the
            // fingerprint is the raw topology+spec hash.
            _ => Device::new(self.topology(), self.spec()),
        }
    }
}
