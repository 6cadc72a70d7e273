//! # paqoc
//!
//! A reproduction of **PAQOC** — *"A Pulse Generation Framework with
//! Augmented Program-aware Basis Gates and Criticality Analysis"*
//! (HPCA 2023) — as a Rust workspace. This facade crate re-exports the
//! member crates:
//!
//! * [`math`] — complex linear algebra (matrices, `expm`, Weyl
//!   coordinates, fidelities);
//! * [`circuit`] — the circuit IR, dependence DAG, basis lowering, QASM;
//! * [`device`] — topologies, transmon-XY control Hamiltonians, the
//!   analytic latency model behind [`device::PulseSource`];
//! * [`grape`] — the real GRAPE optimizer, minimum-duration search and
//!   pulse simulation;
//! * [`mapping`] — SABRE qubit mapping/routing;
//! * [`mining`] — frequent-subcircuit mining and APA-basis selection;
//! * [`core`] — PAQOC itself: criticality-aware customized gates,
//!   the pulse table and the end-to-end [`core::try_compile`] pipeline;
//! * [`accqoc`] — the AccQOC baseline;
//! * [`workloads`] — the seventeen Table-I benchmarks and the
//!   150-circuit observation corpus;
//! * [`telemetry`] — zero-dependency phase spans, pipeline counters and
//!   JSONL traces (enable with the `PAQOC_TRACE` environment variable
//!   or [`telemetry::set_enabled`]);
//! * [`store`] — the crash-safe persistent pulse store behind
//!   `PAQOC_PULSE_DB` / `PipelineOptions::pulse_db`: CRC-guarded
//!   append-only records, device-fingerprinted headers, torn-tail and
//!   corruption recovery;
//! * [`exec`] — the parallel batch-compilation executor: a std-thread
//!   pool taking explicit pulse jobs highest priority first, the sharded
//!   [`exec::SharedPulseTable`] with in-flight dedup and store
//!   read-through, and the per-job-seeded source factories that make
//!   `threads = 1` and `threads = N` bit-identical (knob:
//!   `PAQOC_THREADS` / `PipelineOptions::threads`, entry:
//!   [`core::try_compile_batch`]);
//! * [`serve`] — the fault-tolerant resident compilation service: the
//!   `paqoc-serve` daemon (per-tenant admission control, deadline
//!   propagation, overload shedding, graceful SIGTERM drain, warm
//!   store-backed restarts) and the `paqoc-load` client/load-generator
//!   speaking a length-prefixed JSON protocol over TCP or unix
//!   sockets.
//!
//! ## Quickstart
//!
//! ```
//! use paqoc::circuit::Circuit;
//! use paqoc::core::{try_compile, PipelineOptions};
//! use paqoc::device::{AnalyticModel, Device};
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let device = Device::grid5x5();
//! let mut source = AnalyticModel::new();
//! let result = try_compile(&bell, &device, &mut source, &PipelineOptions::m0())
//!     .expect("a Bell pair fits the grid");
//! println!("latency: {} dt, ESP: {:.4}", result.latency_dt, result.esp);
//! # assert!(result.latency_dt > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use paqoc_accqoc as accqoc;
pub use paqoc_backend as backend;
pub use paqoc_circuit as circuit;
pub use paqoc_core as core;
pub use paqoc_device as device;
pub use paqoc_exec as exec;
pub use paqoc_grape as grape;
pub use paqoc_mapping as mapping;
pub use paqoc_math as math;
pub use paqoc_mining as mining;
pub use paqoc_serve as serve;
pub use paqoc_store as store;
pub use paqoc_telemetry as telemetry;
pub use paqoc_workloads as workloads;
