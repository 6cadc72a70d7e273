//! # paqoc-math
//!
//! From-scratch complex linear algebra sized for few-qubit quantum optimal
//! control: a [`C64`] scalar type, dense [`Matrix`] kernels (product,
//! Kronecker, adjoint), the matrix exponential [`expm`], small-matrix
//! [`eigenvalues`], Weyl-chamber canonical coordinates of two-qubit gates
//! ([`weyl_coordinates`]), fidelity metrics and Haar-random unitaries.
//!
//! GRAPE's kernels run on [`SplitMatrix`], a square matrix stored as one
//! array of real parts and one of imaginary parts, so their complex
//! multiply-adds vectorize on the baseline target. They write into caller
//! buffers and allocate nothing: the product
//! ([`SplitMatrix::matmul_into`]), the pivoted linear solve
//! ([`SplitMatrix::solve_into`]) and the Padé exponential ([`expm_into`]
//! with an [`ExpmScratch`]). Each returns the bits the interleaved form
//! of the same scalar operations returns: [`expm`] converts a [`Matrix`]
//! in and out of the split kernel, and [`Matrix::matmul_into`] keeps its
//! own loop for the analytic path's small products.
//!
//! This crate is the numeric substrate of the PAQOC reproduction; every
//! other crate builds on it and nothing here knows about circuits or
//! pulses.
//!
//! ## Example
//!
//! ```
//! use paqoc_math::{expm, trace_fidelity, C64, Matrix};
//!
//! // A π/2 X rotation generated from its Hamiltonian…
//! let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
//! let u = expm(&x.scaled(C64::new(0.0, -std::f64::consts::FRAC_PI_4)));
//! // …is a √X gate up to global phase.
//! assert!(u.is_unitary(1e-12));
//! assert!(trace_fidelity(&u, &u) > 0.999_999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod eig;
mod expm;
mod fidelity;
mod hash;
mod kernels;
mod matrix;
mod random;
mod rng;
mod weyl;

pub use complex::C64;
pub use eig::{char_poly, eigenvalues, poly_roots};
pub use expm::{expm, expm_into, propagator, ExpmScratch};
pub use fidelity::{
    average_gate_fidelity, gate_success_rate, phase_aligned_distance, trace_fidelity,
};
pub use hash::{FastHash, FastHasher};
pub use kernels::matmul_fixed;
pub use matrix::{nan_max, Matrix, SplitMatrix};
pub use random::{ginibre, random_unitary, random_unitary_seeded, stable_jitter, StableHasher};
pub use rng::{Rng, Sample, SampleRange};
pub use weyl::{det, weyl_coordinates, WeylCoordinates};

#[cfg(test)]
mod testing {
    /// Runs `f` on a worker thread and fails the test if it has not
    /// returned within 10 s, so a hang regression fails instead of
    /// stalling the suite. A hung worker cannot be joined; it ends with
    /// the test process.
    pub(crate) fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(value) => {
                worker.join().expect("the worker exits after sending");
                value
            }
            Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
                worker
                    .join()
                    .expect_err("a worker that sent nothing panicked"),
            ),
            Err(RecvTimeoutError::Timeout) => panic!("did not return within 10 s"),
        }
    }
}
