//! # paqoc-mapping
//!
//! SABRE qubit mapping and routing ([`try_sabre_map`]), the heuristic the
//! paper's evaluation uses to place every logical benchmark onto the 5×5
//! grid. The routed output is the *physical circuit* that feeds PAQOC's
//! frequent-subcircuit miner — the inserted SWAP chains are precisely the
//! recurring patterns Table III discovers.
//!
//! ## Example
//!
//! ```
//! use paqoc_circuit::Circuit;
//! use paqoc_device::Topology;
//! use paqoc_mapping::{try_sabre_map, SabreOptions};
//!
//! let mut c = Circuit::new(4);
//! c.h(0).cx(0, 3);
//! let mapped = try_sabre_map(&c, &Topology::grid(2, 2), &SabreOptions::default())
//!     .expect("4 qubits fit a 2x2 grid");
//! assert_eq!(mapped.circuit.len(), c.len() + mapped.swaps_inserted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sabre;

pub use sabre::{try_sabre_map, MapError, MappedCircuit, SabreOptions};
