//! Control-Hamiltonian construction for gate groups.
//!
//! The paper's Eq. (1): `H(t) = H₀ + Σ_k α_k(t)·H_k`. For the transmon
//! XY platform in the rotating frame the drift vanishes and the control
//! set is `{σx/2, σy/2}` per qubit plus `(σx⊗σx + σy⊗σy)/2` per coupler,
//! with the paper's amplitude limits. GRAPE optimizes the `α_k(t)`.

use crate::fingerprint::encode_namespaced;
use crate::spec::HardwareSpec;
use crate::topology::Topology;
use crate::tuning::{BackendTag, DeviceTuning};
use paqoc_math::{Matrix, StableHasher, C64};

/// One controllable term `α(t)·H` of the device Hamiltonian.
#[derive(Clone, Debug)]
pub struct ControlChannel {
    /// Human-readable channel name, e.g. `"x[0]"` or `"xy[0,2]"`.
    pub name: String,
    /// The Hermitian generator (dimensionless; the physical Hamiltonian
    /// is `2π·α(GHz)·operator` with time in ns).
    pub operator: Matrix,
    /// Amplitude bound `|α| ≤ max_amp` in GHz.
    pub max_amp: f64,
}

/// The drift plus control channels for a (sub)system of qubits.
#[derive(Clone, Debug)]
pub struct ControlSet {
    /// Number of qubits in the subsystem.
    pub num_qubits: usize,
    /// Drift Hamiltonian `H₀` (zero in the rotating frame).
    pub drift: Matrix,
    /// The control channels.
    pub channels: Vec<ControlChannel>,
}

impl ControlSet {
    /// Hilbert-space dimension `2^n`.
    pub fn dim(&self) -> usize {
        1 << self.num_qubits
    }
}

fn pauli_x() -> Matrix {
    Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]])
}

fn pauli_y() -> Matrix {
    Matrix::from_rows(&[&[C64::ZERO, -C64::I], &[C64::I, C64::ZERO]])
}

/// Embeds a single-qubit operator at position `q` of `n` qubits
/// (qubit 0 = least significant bit).
fn embed1(op: &Matrix, q: usize, n: usize) -> Matrix {
    let mut m = Matrix::identity(1);
    // Build I ⊗ … ⊗ op ⊗ … ⊗ I with the most significant qubit first.
    for k in (0..n).rev() {
        let factor = if k == q {
            op.clone()
        } else {
            Matrix::identity(2)
        };
        m = m.kron(&factor);
    }
    m
}

/// Builds the transmon-XY control set for `num_qubits` local qubits with
/// the given internal coupling `edges` (local indices).
///
/// # Panics
///
/// Panics if an edge endpoint is out of range.
pub fn transmon_xy_controls(
    num_qubits: usize,
    edges: &[(usize, usize)],
    spec: &HardwareSpec,
) -> ControlSet {
    let dim = 1 << num_qubits;
    let x = pauli_x();
    let y = pauli_y();
    let mut channels = Vec::new();
    for q in 0..num_qubits {
        channels.push(ControlChannel {
            name: format!("x[{q}]"),
            operator: embed1(&x, q, num_qubits).scaled(C64::real(0.5)),
            max_amp: spec.single_qubit_limit(),
        });
        channels.push(ControlChannel {
            name: format!("y[{q}]"),
            operator: embed1(&y, q, num_qubits).scaled(C64::real(0.5)),
            max_amp: spec.single_qubit_limit(),
        });
    }
    for &(a, b) in edges {
        assert!(
            a < num_qubits && b < num_qubits,
            "edge ({a},{b}) out of range"
        );
        let xx = embed1(&x, a, num_qubits).matmul(&embed1(&x, b, num_qubits));
        let yy = embed1(&y, a, num_qubits).matmul(&embed1(&y, b, num_qubits));
        channels.push(ControlChannel {
            name: format!("xy[{a},{b}]"),
            operator: (&xx + &yy).scaled(C64::real(0.5)),
            max_amp: spec.mu_max,
        });
    }
    ControlSet {
        num_qubits,
        drift: Matrix::zeros(dim, dim),
        channels,
    }
}

/// A simulated quantum device: coupling topology plus control limits.
///
/// # Examples
///
/// ```
/// use paqoc_device::Device;
/// let dev = Device::grid5x5();
/// assert_eq!(dev.topology().num_qubits(), 25);
/// let controls = dev.controls_for(&[0, 1]);
/// // 2 qubits × (x, y) + 1 coupler = 5 channels
/// assert_eq!(controls.channels.len(), 5);
/// ```
#[derive(Clone, Debug)]
pub struct Device {
    topology: Topology,
    spec: HardwareSpec,
    /// Cached [`Device::fingerprint`], computed once at construction:
    /// the pulse table asks for it on every hot-path key build, and
    /// re-hashing the full edge list there is measurable.
    fingerprint: u64,
    /// Per-qubit / per-coupler calibration overlay. `None` means every
    /// per-site query answers the spec-level value exactly (the legacy
    /// bit-identical path).
    tuning: Option<DeviceTuning>,
    /// Identity of the backend that built this device; `None` for
    /// devices built directly from topology + spec (the paper grid).
    tag: Option<BackendTag>,
}

/// The fingerprint of [`Device::grid5x5`], the untagged paper grid.
const GRID5X5_FINGERPRINT: u64 = 0x9182_8249_684c_0a3e;

fn compute_fingerprint(topology: &Topology, spec: &HardwareSpec) -> u64 {
    let mut h = StableHasher::new();
    h.write(&(topology.num_qubits() as u64).to_le_bytes());
    for &(a, b) in topology.edges() {
        h.write(&(a as u64).to_le_bytes());
        h.write(&(b as u64).to_le_bytes());
    }
    for field in [
        spec.mu_max,
        spec.single_qubit_factor,
        spec.dt_ns,
        spec.t1_us,
        spec.t2_us,
    ] {
        h.write(&field.to_bits().to_le_bytes());
    }
    h.finish()
}

impl Device {
    /// Creates a device from a topology and hardware spec.
    pub fn new(topology: Topology, spec: HardwareSpec) -> Self {
        let fingerprint = compute_fingerprint(&topology, &spec);
        Device {
            topology,
            spec,
            fingerprint,
            tuning: None,
            tag: None,
        }
    }

    /// Creates a calibrated device owned by a named backend.
    ///
    /// The fingerprint becomes backend-namespaced (see
    /// [`crate::fingerprint`]): the namespace id and the snapshot's
    /// 16-bit digest are packed into the top bits, and the payload folds
    /// the topology + spec + calibration hash. Any drifted calibration
    /// field rotates the fingerprint — and with it every composite
    /// cache/store key — so stale pulses are never served.
    pub fn with_tuning(
        topology: Topology,
        spec: HardwareSpec,
        tuning: DeviceTuning,
        backend_name: &str,
        ns_id: u8,
    ) -> Self {
        let base = compute_fingerprint(&topology, &spec);
        // Fold the calibration into the device hash so two snapshots
        // with equal cal_id digests still differ in the payload bits.
        let device_hash = base ^ tuning.content_hash().rotate_left(17);
        let cal_id = tuning.cal_id();
        let fingerprint = encode_namespaced(ns_id, cal_id, device_hash);
        Device {
            topology,
            spec,
            fingerprint,
            tuning: Some(tuning),
            tag: Some(BackendTag {
                name: backend_name.to_string(),
                ns_id,
                cal_id,
            }),
        }
    }

    /// The paper's evaluation platform: 5×5 grid, transmon-XY limits.
    pub fn grid5x5() -> Self {
        Device::new(Topology::grid(5, 5), HardwareSpec::transmon_xy())
    }

    /// A small line device, convenient for tests and examples.
    pub fn line(n: usize) -> Self {
        Device::new(Topology::line(n), HardwareSpec::transmon_xy())
    }

    /// The coupling topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The control-field limits.
    pub fn spec(&self) -> &HardwareSpec {
        &self.spec
    }

    /// A stable 64-bit fingerprint of everything that determines pulse
    /// shapes on this device: the coupling topology and every
    /// [`HardwareSpec`] field (by exact f64 bit pattern).
    ///
    /// Two devices with equal fingerprints produce identical pulses for
    /// identical gate groups, so the fingerprint is the cache-safety key
    /// for both the in-process pulse table and the persistent pulse
    /// store: a store written under a different fingerprint must be
    /// rejected, not reused. FNV-1a is used because the workspace is
    /// dependency-free and the input is tiny and attacker-free.
    ///
    /// Computed once at construction and served from a field, so
    /// per-lookup cache-key builds pay a load, not an edge-list hash.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The calibration overlay, when this device carries one.
    pub fn tuning(&self) -> Option<&DeviceTuning> {
        self.tuning.as_ref()
    }

    /// The backend identity tag, when this device was built by a
    /// registered backend.
    pub fn tag(&self) -> Option<&BackendTag> {
        self.tag.as_ref()
    }

    /// Name of the backend that owns this device. An untagged device
    /// answers `"transmon-grid"`, the paper's platform, only when its
    /// fingerprint is that of [`Device::grid5x5`]; any other untagged
    /// device — such as [`Device::line`] — answers `"custom"`.
    pub fn backend_name(&self) -> &str {
        match &self.tag {
            Some(tag) => &tag.name,
            None if self.fingerprint == GRID5X5_FINGERPRINT => "transmon-grid",
            None => "custom",
        }
    }

    /// Single-qubit drive limit of qubit `q`, GHz. Equals
    /// `spec().single_qubit_limit()` exactly on untuned devices.
    pub fn single_qubit_limit_for(&self, q: usize) -> f64 {
        match &self.tuning {
            None => self.spec.single_qubit_limit(),
            Some(t) => self.spec.single_qubit_limit() * t.qubit(q).drive_scale,
        }
    }

    /// Coupler amplitude limit between `a` and `b`, GHz. Equals
    /// `spec().mu_max` exactly on untuned devices.
    pub fn coupler_limit(&self, a: usize, b: usize) -> f64 {
        match &self.tuning {
            None => self.spec.mu_max,
            Some(t) => self.spec.mu_max * t.coupler(a, b),
        }
    }

    /// Maximum angular rotation rate of qubit `q`'s drive, rad/ns.
    /// Delegates to `spec().single_qubit_rate()` on untuned devices so
    /// the legacy arithmetic is reproduced bit-for-bit.
    pub fn single_qubit_rate_for(&self, q: usize) -> f64 {
        match &self.tuning {
            None => self.spec.single_qubit_rate(),
            Some(_) => 2.0 * std::f64::consts::PI * self.single_qubit_limit_for(q),
        }
    }

    /// Maximum nonlocal-content rate of the coupler between `a` and
    /// `b`, rad/ns. Delegates to `spec().coupler_rate()` on untuned
    /// devices so the legacy arithmetic is reproduced bit-for-bit.
    pub fn coupler_rate_between(&self, a: usize, b: usize) -> f64 {
        match &self.tuning {
            None => self.spec.coupler_rate(),
            Some(_) => 2.0 * std::f64::consts::PI * self.coupler_limit(a, b),
        }
    }

    /// Builds the control set for a group of *physical* qubits, relabeled
    /// to local indices `0..k` in the order given. Couplers are included
    /// for every topology edge internal to the group. On a calibrated
    /// device each channel's `max_amp` carries its qubit's / coupler's
    /// own limit; untuned devices take the legacy path untouched.
    pub fn controls_for(&self, qubits: &[usize]) -> ControlSet {
        let local = |q: usize| qubits.iter().position(|&p| p == q).expect("internal");
        let physical_edges = self.topology.induced_edges(qubits);
        let edges: Vec<(usize, usize)> = physical_edges
            .iter()
            .map(|&(a, b)| (local(a), local(b)))
            .collect();
        let mut set = transmon_xy_controls(qubits.len(), &edges, &self.spec);
        if self.tuning.is_some() {
            // Per-site limits: x[i]/y[i] channels appear in qubit order
            // (two per qubit), then one xy channel per induced edge.
            let mut it = set.channels.iter_mut();
            for &q in qubits {
                for _ in 0..2 {
                    if let Some(ch) = it.next() {
                        ch.max_amp = self.single_qubit_limit_for(q);
                    }
                }
            }
            for (ch, &(a, b)) in it.zip(physical_edges.iter()) {
                ch.max_amp = self.coupler_limit(a, b);
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_are_hermitian_with_paper_limits() {
        let spec = HardwareSpec::transmon_xy();
        let set = transmon_xy_controls(2, &[(0, 1)], &spec);
        assert_eq!(set.channels.len(), 5);
        for ch in &set.channels {
            assert!(ch.operator.is_hermitian(1e-12), "{}", ch.name);
        }
        assert!((set.channels[0].max_amp - 0.1).abs() < 1e-12);
        assert!((set.channels[4].max_amp - 0.02).abs() < 1e-12);
        assert_eq!(set.channels[4].name, "xy[0,1]");
    }

    #[test]
    fn drift_is_zero_in_rotating_frame() {
        let set = transmon_xy_controls(1, &[], &HardwareSpec::transmon_xy());
        assert!(set.drift.max_abs() < 1e-15);
        assert_eq!(set.dim(), 2);
    }

    #[test]
    fn xy_coupler_swaps_single_excitations() {
        // (XX+YY)/2 maps |01⟩ ↔ |10⟩ and annihilates |00⟩, |11⟩.
        let set = transmon_xy_controls(2, &[(0, 1)], &HardwareSpec::transmon_xy());
        let xy = &set.channels[4].operator;
        assert!((xy[(1, 2)].re - 1.0).abs() < 1e-12);
        assert!((xy[(2, 1)].re - 1.0).abs() < 1e-12);
        assert!(xy[(0, 0)].abs() < 1e-12);
        assert!(xy[(3, 3)].abs() < 1e-12);
    }

    #[test]
    fn controls_for_uses_induced_coupling() {
        let dev = Device::grid5x5();
        // Qubits 0,1,2 are a connected row: two couplers.
        let row = dev.controls_for(&[0, 1, 2]);
        assert_eq!(
            row.channels
                .iter()
                .filter(|c| c.name.starts_with("xy"))
                .count(),
            2
        );
        // Qubits 0 and 2 are not adjacent: no coupler.
        let gap = dev.controls_for(&[0, 2]);
        assert_eq!(
            gap.channels
                .iter()
                .filter(|c| c.name.starts_with("xy"))
                .count(),
            0
        );
    }

    #[test]
    fn fingerprint_separates_topology_and_spec_changes() {
        let base = Device::grid5x5();
        assert_eq!(base.fingerprint(), Device::grid5x5().fingerprint());
        assert_ne!(base.fingerprint(), Device::line(25).fingerprint());
        let mut spec = HardwareSpec::transmon_xy();
        spec.mu_max = 0.021;
        let tweaked = Device::new(Topology::grid(5, 5), spec);
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn tuned_device_namespaces_fingerprint_and_patches_limits() {
        use crate::fingerprint::{decode_fingerprint, FingerprintKind};
        use crate::tuning::DeviceTuning;
        let mut tuning = DeviceTuning::identity(25);
        tuning.qubits[1].drive_scale = 0.5;
        tuning.coupler_scale.insert((0, 1), 0.75);
        let dev = Device::with_tuning(
            Topology::grid(5, 5),
            HardwareSpec::transmon_xy(),
            tuning,
            "heavy-hex",
            crate::fingerprint::NS_HEAVY_HEX,
        );
        assert_eq!(dev.backend_name(), "heavy-hex");
        match decode_fingerprint(dev.fingerprint()) {
            FingerprintKind::Namespaced { ns_id, cal_id } => {
                assert_eq!(ns_id, crate::fingerprint::NS_HEAVY_HEX);
                assert_eq!(cal_id, dev.tag().expect("tag").cal_id);
            }
            FingerprintKind::Legacy => panic!("tuned device must namespace its fingerprint"),
        }
        // Per-site limits flow into the control channels.
        let set = dev.controls_for(&[0, 1]);
        let amp = |name: &str| {
            set.channels
                .iter()
                .find(|c| c.name == name)
                .expect(name)
                .max_amp
        };
        assert!((amp("x[0]") - 0.1).abs() < 1e-12);
        assert!((amp("x[1]") - 0.05).abs() < 1e-12, "drive_scale 0.5");
        assert!((amp("xy[0,1]") - 0.015).abs() < 1e-12, "coupler_scale 0.75");
        // And into the analytic rates.
        assert!(dev.single_qubit_rate_for(1) < dev.single_qubit_rate_for(0));
        assert!(dev.coupler_rate_between(0, 1) < dev.spec().coupler_rate());
    }

    #[test]
    fn only_the_paper_grid_names_itself_transmon_grid_untagged() {
        assert_eq!(Device::grid5x5().fingerprint(), GRID5X5_FINGERPRINT);
        assert_eq!(
            Device::new(Topology::grid(5, 5), HardwareSpec::transmon_xy()).backend_name(),
            "transmon-grid"
        );
        assert_eq!(Device::line(3).backend_name(), "custom");
        assert_eq!(Device::line(25).backend_name(), "custom");
        let mut spec = HardwareSpec::transmon_xy();
        spec.mu_max = 0.021;
        assert_eq!(
            Device::new(Topology::grid(5, 5), spec).backend_name(),
            "custom"
        );
    }

    #[test]
    fn untuned_device_keeps_legacy_fingerprint_and_rates() {
        let dev = Device::grid5x5();
        assert!(dev.tuning().is_none() && dev.tag().is_none());
        assert_eq!(dev.backend_name(), "transmon-grid");
        assert!(!crate::fingerprint::is_namespaced(dev.fingerprint()));
        // Per-site queries must be the spec values bit-for-bit.
        assert_eq!(
            dev.single_qubit_rate_for(7).to_bits(),
            dev.spec().single_qubit_rate().to_bits()
        );
        assert_eq!(
            dev.coupler_rate_between(0, 1).to_bits(),
            dev.spec().coupler_rate().to_bits()
        );
        assert_eq!(
            dev.coupler_limit(3, 4).to_bits(),
            dev.spec().mu_max.to_bits()
        );
    }

    #[test]
    fn calibration_drift_rotates_the_fingerprint() {
        use crate::tuning::DeviceTuning;
        let make = |t1: f64| {
            let mut tuning = DeviceTuning::identity(25);
            tuning.qubits[0].t1_us = t1;
            Device::with_tuning(
                Topology::grid(5, 5),
                HardwareSpec::transmon_xy(),
                tuning,
                "heavy-hex",
                crate::fingerprint::NS_HEAVY_HEX,
            )
        };
        let (a, b) = (make(100.0), make(93.0));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), make(100.0).fingerprint(), "deterministic");
    }

    #[test]
    fn local_relabeling_follows_group_order() {
        let dev = Device::grid5x5();
        // Group [5, 0]: physical edge (0,5) becomes local (1,0) → "xy[1,0]"
        // normalized in construction order.
        let set = dev.controls_for(&[5, 0]);
        let names: Vec<&str> = set.channels.iter().map(|c| c.name.as_str()).collect();
        assert!(
            names.contains(&"xy[1,0]") || names.contains(&"xy[0,1]"),
            "{names:?}"
        );
    }
}
