//! # paqoc-mining
//!
//! PAQOC's frequent-subcircuits miner: the labeled circuit graph with
//! control/target edge roles ([`CircuitGraph`]), DAG [`Reachability`]
//! with convexity queries, canonical pattern codes ([`canonical_code`]),
//! the level-wise pattern grower ([`mine_frequent_subcircuits`]) and the
//! coverage-greedy APA-basis selection ([`select_apa_basis`]) with the
//! paper's `M ∈ {0, k, tuned, inf}` budgets.
//!
//! ## Example
//!
//! ```
//! use paqoc_circuit::Circuit;
//! use paqoc_mining::{mine_frequent_subcircuits, select_apa_basis, ApaBudget, MinerOptions};
//!
//! let mut c = Circuit::new(3);
//! c.cx(0, 1).cx(1, 0).cx(0, 1); // SWAP skeleton ×2
//! c.cx(1, 2).cx(2, 1).cx(1, 2);
//! let patterns = mine_frequent_subcircuits(&c, &MinerOptions::default());
//! let cover = select_apa_basis(&patterns, ApaBudget::Unlimited, c.len());
//! assert_eq!(cover.num_apa_gates(), 1); // one APA gate: the SWAP
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod graph;
mod miner;
#[cfg(test)]
mod reference_tests;
mod select;

pub use canon::canonical_code;
pub use graph::{CircuitGraph, LabeledEdge, Reachability};
pub use miner::{mine_frequent_subcircuits, MinerOptions, Pattern};
pub use select::{select_apa_basis, ApaBudget, ApaCover, ApaSelection};
