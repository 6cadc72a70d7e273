//! # paqoc-circuit
//!
//! The quantum-circuit intermediate representation of the PAQOC
//! reproduction: a gate vocabulary with optional symbolic rotation
//! parameters ([`GateKind`], [`Angle`]), the [`Circuit`] container, the
//! gate-dependence [`DependencyDag`] that routing and partitioning walk,
//! lowering to a hardware universal basis
//! ([`decompose`]), and an OpenQASM 2 subset ([`parse_qasm`],
//! [`to_qasm`]).
//!
//! ## Example
//!
//! ```
//! use paqoc_circuit::{decompose, Basis, Circuit, DependencyDag};
//!
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).ccx(0, 1, 2);
//! let physical = decompose(&c, Basis::Ibm);
//! let dag = DependencyDag::from_circuit(&physical);
//! assert_eq!(dag.len(), physical.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod dag;
mod decompose;
mod gate;
mod qasm;

pub use circuit::{
    apply_fixed, apply_gate_to_state, combined_unitary, combined_unitary_fixed, embed_unitary,
    Circuit, Instruction,
};
pub use dag::{instructions_commute, DependencyDag};
pub use decompose::{decompose, Basis};
pub use gate::{Angle, GateKind};
pub use qasm::{parse_qasm, to_qasm, ParseQasmError};
