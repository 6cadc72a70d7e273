//! # paqoc-backend
//!
//! Pluggable device targets for the PAQOC pipeline.
//!
//! A [`Backend`] is a registry description plus the
//! `paqoc_device::Device` it names: coupling topology, Hamiltonian-level
//! control limits and, on a calibrated target, a per-qubit /
//! per-coupler calibration snapshot. The device's `BackendTag` is the
//! one holder of the backend's name, namespace id and calibration
//! digest. Three targets ship:
//!
//! * `transmon-grid` — the paper's idealized 5×5 lattice, bit-identical
//!   to `Device::grid5x5()` (legacy fingerprint, untouched stores).
//! * `heavy-hex` — an IBM-style 33-qubit heavy-hex lattice calibrated
//!   from a JSON snapshot ([`HEAVY_HEX_DEFAULT_CAL`], overridable).
//! * `tunable-coupler` — a 4×4 grid with flux-parametric two-qubit
//!   channels.
//!
//! Calibrated backends build namespace-fingerprinted devices (see
//! `paqoc_device::fingerprint`), which isolates their pulse stores and
//! cache keys from each other and from the legacy grid. The crate also
//! lowers compiled circuits to channel-addressed pulse programs
//! ([`lower_to_program`]) and (de)serializes them as OpenPulse-style
//! JSON ([`export`] / [`import`]) for cross-tool exchange; the
//! `paqoc-export` binary drives both ends.
//!
//! ## Example
//!
//! ```
//! use paqoc_backend::{resolve, export, import, lower_to_program, sample_exact_eq};
//! use paqoc_circuit::Circuit;
//! use paqoc_core::{try_compile, PipelineOptions};
//! use paqoc_device::AnalyticModel;
//!
//! let backend = resolve("heavy-hex").expect("registered");
//! let device = backend.device();
//! let mut circuit = Circuit::new(2);
//! circuit.h(0).cx(0, 1);
//! let mut source = AnalyticModel::new();
//! let result = try_compile(&circuit, &device, &mut source, &PipelineOptions::m0())
//!     .expect("a Bell pair fits heavy-hex");
//! let program = lower_to_program("bell", &result, &device);
//! let wire = export(&program);
//! assert!(sample_exact_eq(&program, &import(&wire).expect("strict")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backends;
mod openpulse;
mod registry;
mod schedule;
mod snapshot;

pub use backends::{Backend, HEAVY_HEX_DEFAULT_CAL};
pub use openpulse::{export, import, sample_exact_eq, ImportError, SCHEMA_VERSION};
pub use registry::{resolve, resolve_with_cal, BackendError, BACKEND_NAMES};
pub use schedule::{
    lower_to_program, Experiment, PlayInst, PulseDef, PulseProgram, MAX_ENVELOPE_SAMPLES,
};
pub use snapshot::{parse_snapshot, CalError};
