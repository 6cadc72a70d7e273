//! # paqoc-core
//!
//! PAQOC itself: the grouped-circuit DAG with criticality analysis
//! ([`GroupedCircuit`]), the canonical-keyed [`PulseTable`], the
//! criticality-aware customized-gates generator implementing the paper's
//! Algorithm 1 (tuned by [`PaqocOptions`]), and the end-to-end
//! [`try_compile`] pipeline (lower → SABRE map → mine APA basis → merge →
//! pulses) with the paper's `M ∈ {0, tuned, inf}` presets.
//!
//! The generator picks the final grouping on free analytic estimates,
//! then generates each group's pulse once. A pulse that will not
//! generate walks a three-rung ladder — retry, roll the merge back,
//! keep the estimate — so a compile under source failure degrades
//! instead of failing; only `PipelineOptions::deadline` can cut it
//! short, and then it finishes partial.
//!
//! Every compile, sequential or batch, resolves its pulses through one
//! cache, the executor's [`paqoc_exec::SharedPulseTable`]: the
//! `PipelineOptions::shared_table` a caller pools compiles on, or a
//! private one. The compile's free analytic estimator also reads and
//! feeds that cache's Weyl memo, so pooled compiles pool their
//! decompositions too. A [`PulseTable`] is one compile's view of the
//! cache. Keys are
//! fingerprint-prefixed ([`composite_key`]), generation is panic-
//! isolated (a crashing [`paqoc_device::PulseSource`] degrades instead
//! of aborting — [`Degradation::SourcePanic`]) with cache-wide
//! quarantine, and the cache is optionally backed by the crash-safe
//! persistent store in `paqoc-store` (set `PipelineOptions::pulse_db`
//! or the `PAQOC_PULSE_DB` environment variable; see
//! [`attach_pulse_store`]).
//!
//! ## Example
//!
//! ```
//! use paqoc_circuit::Circuit;
//! use paqoc_core::{try_compile, PipelineOptions};
//! use paqoc_device::{AnalyticModel, Device};
//!
//! let mut qaoa = Circuit::new(3);
//! qaoa.cp(0, 1, 0.7).cp(1, 2, 0.7).rx(0, 0.4).rx(1, 0.4).rx(2, 0.4);
//! let device = Device::grid5x5();
//! let mut source = AnalyticModel::new();
//! let result = try_compile(&qaoa, &device, &mut source, &PipelineOptions::m0())
//!     .expect("3 qubits fit the grid");
//! assert!(result.latency_dt > 0);
//! assert!(result.esp > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#[cfg(test)]
mod acceptance_tests;
mod error;
mod generator;
mod group;
mod pipeline;
mod search;
#[cfg(test)]
mod search_tests;
mod table;

pub use error::{CompileError, Degradation};
pub use generator::{GeneratorReport, PaqocOptions};
pub use group::{Group, GroupKind, GroupedCircuit};
pub use pipeline::{
    attach_pulse_store, partition_is_acyclic, try_compile, try_compile_batch, CompilationResult,
    PipelineOptions,
};
pub use table::{composite_key, group_key, CompileStats, KeyPrefix, PulseTable};
