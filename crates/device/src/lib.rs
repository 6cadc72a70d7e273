//! # paqoc-device
//!
//! The simulated hardware model of the PAQOC reproduction: coupling
//! [`Topology`] presets (including the paper's 5×5 grid), the transmon
//! XY-interaction control Hamiltonians with the paper's field limits
//! ([`HardwareSpec`], [`transmon_xy_controls`]), and the analytic
//! time-optimal latency surrogate ([`AnalyticModel`]) behind the
//! [`PulseSource`] abstraction shared with the real GRAPE optimizer.
//!
//! ## Example
//!
//! ```
//! use paqoc_device::{AnalyticModel, Device, PulseSource};
//! use paqoc_circuit::{GateKind, Instruction};
//!
//! let dev = Device::grid5x5();
//! let mut model = AnalyticModel::new();
//! let cx = Instruction::new(GateKind::Cx, vec![0, 1], vec![]);
//! let pulse = model.generate(&[cx], &dev, 0.999, None);
//! assert!(pulse.latency_dt > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod faults;
pub mod fingerprint;
mod hamiltonian;
mod io_faults;
mod latency;
mod spec;
mod topology;
mod tuning;

pub use faults::{FaultConfig, FaultCounts, FaultySource, STALL_CAP};
pub use fingerprint::{
    decode_fingerprint, encode_namespaced, is_namespaced, namespace_name, FingerprintKind,
    NAMESPACE_MAGIC, NS_HEAVY_HEX, NS_TUNABLE_COUPLER,
};
pub use hamiltonian::{transmon_xy_controls, ControlChannel, ControlSet, Device};
pub use io_faults::{IoFaultCounts, IoFaultInjector};
pub use latency::{
    validate_estimate, AnalyticModel, LoweredGroup, PulseEstimate, PulseGenError, PulseSource,
    WeylMemo,
};
pub use spec::HardwareSpec;
pub use topology::Topology;
pub use tuning::{BackendTag, DeviceTuning, QubitCal};
