//! Gate-fidelity metrics used across the pulse-generation stack.
//!
//! All metrics are *global-phase insensitive*: QOC is free to realize a
//! target up to `e^{iφ}`, and the paper's ESP (Eq. 2) treats the per-gate
//! error term the same way.

use crate::complex::C64;
use crate::matrix::Matrix;

/// Phase-insensitive process (trace) fidelity `|Tr(U†V)|² / d²`.
///
/// Equals 1 exactly when `V = e^{iφ}U`, and decreases smoothly with
/// distance. This is the objective GRAPE maximizes. NaN when either
/// operand holds a non-finite entry, so a unitary that propagated to NaN
/// or ∞ never reads as perfect: the overlap `Tr(U†V)` skips no zero
/// term, so even a NaN facing a zero entry reaches it.
///
/// # Panics
///
/// Panics if the matrices are not square or differ in shape.
///
/// # Examples
///
/// ```
/// use paqoc_math::{trace_fidelity, Matrix, C64};
/// let u = Matrix::identity(2);
/// let v = u.scaled(C64::cis(1.0)); // global phase only
/// assert!((trace_fidelity(&u, &v) - 1.0).abs() < 1e-12);
/// ```
pub fn trace_fidelity(u: &Matrix, v: &Matrix) -> f64 {
    assert!(u.is_square(), "trace_fidelity requires square matrices");
    assert_eq!(u.rows(), v.rows(), "trace_fidelity shape mismatch");
    assert_eq!(u.cols(), v.cols(), "trace_fidelity shape mismatch");
    let d = u.rows() as f64;
    let overlap = overlap(u, v);
    if !overlap.is_finite() {
        return f64::NAN;
    }
    (overlap.norm_sqr() / (d * d)).min(1.0)
}

/// Average gate fidelity `(d·F_pro + 1)/(d + 1)` derived from the process
/// fidelity [`trace_fidelity`].
pub fn average_gate_fidelity(u: &Matrix, v: &Matrix) -> f64 {
    let d = u.rows() as f64;
    (d * trace_fidelity(u, v) + 1.0) / (d + 1.0)
}

/// Phase-aligned operator distance `min_φ ‖U − e^{iφ}V‖_F / √d`.
///
/// This is the paper's `|U − H(t)|` error term, normalized so that it lies
/// in `[0, 2]` independent of dimension. The optimal phase is
/// `φ = arg Tr(U†V)`. NaN when either operand holds a non-finite entry
/// or `Tr(U†V)` is not finite (`f64::max` would read it as distance 0).
///
/// # Panics
///
/// Panics if the matrices are not square or differ in shape.
pub fn phase_aligned_distance(u: &Matrix, v: &Matrix) -> f64 {
    assert!(
        u.is_square(),
        "phase_aligned_distance requires square matrices"
    );
    assert_eq!(u.rows(), v.rows(), "phase_aligned_distance shape mismatch");
    let d = u.rows() as f64;
    let overlap = overlap(u, v);
    if !overlap.is_finite() {
        return f64::NAN;
    }
    // ‖U − e^{iφ}V‖_F² = 2d − 2·Re(e^{-iφ}·Tr(U†V)); minimized at φ = arg overlap.
    let sq = (2.0 * d - 2.0 * overlap.abs()).max(0.0);
    (sq / d).sqrt()
}

/// `Tr(U†V) = Σᵢ Σₖ conj(U[k,i])·V[k,i]`, in O(d²) and without a
/// product matrix.
///
/// Each diagonal entry accumulates from `+0` in increasing `k` and the
/// entries are summed in increasing `i`, the order of
/// `u.dagger().matmul(v).trace()`, so finite inputs give its bits. Unlike
/// that product it does not skip `U†`'s zero entries: an accumulator
/// that starts at `+0` is never `-0`, so adding a zero term leaves its
/// bits unchanged, and `0·∞` is NaN. Every entry of both operands meets
/// exactly one term, so a non-finite entry always makes the overlap
/// non-finite.
fn overlap(u: &Matrix, v: &Matrix) -> C64 {
    let d = u.rows();
    (0..d)
        .map(|i| (0..d).fold(C64::ZERO, |acc, k| acc.mul_add(u[(k, i)].conj(), v[(k, i)])))
        .sum()
}

/// Per-gate success rate `1 − ε` used by the ESP product (paper Eq. 2),
/// with `ε` the [`phase_aligned_distance`] clamped to `[0, 1]`; NaN where
/// that distance is.
pub fn gate_success_rate(u: &Matrix, v: &Matrix) -> f64 {
    (1.0 - phase_aligned_distance(u, v)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{random_unitary_seeded, Rng};

    fn h_gate() -> Matrix {
        let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        Matrix::from_rows(&[&[s, s], &[s, -s]])
    }

    #[test]
    fn identical_gates_have_unit_fidelity() {
        let h = h_gate();
        assert!((trace_fidelity(&h, &h) - 1.0).abs() < 1e-14);
        assert!(phase_aligned_distance(&h, &h) < 1e-7);
        assert!((gate_success_rate(&h, &h) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn global_phase_is_ignored() {
        let h = h_gate();
        let phased = h.scaled(C64::cis(2.1));
        assert!((trace_fidelity(&h, &phased) - 1.0).abs() < 1e-12);
        assert!(phase_aligned_distance(&h, &phased) < 1e-7);
    }

    #[test]
    fn orthogonal_gates_have_zero_fidelity() {
        // Tr(Z†X) = 0 → process fidelity 0.
        let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let z = Matrix::diag(&[C64::ONE, C64::real(-1.0)]);
        assert!(trace_fidelity(&x, &z) < 1e-14);
        // Average gate fidelity bottoms out at 1/(d+1).
        assert!((average_gate_fidelity(&x, &z) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distance_grows_monotonically_with_rotation_error() {
        // Rz(θ) vs identity: distance increases with θ on [0, π].
        let dist = |theta: f64| {
            let rz = Matrix::diag(&[C64::cis(-theta / 2.0), C64::cis(theta / 2.0)]);
            phase_aligned_distance(&Matrix::identity(2), &rz)
        };
        let mut last = 0.0;
        for k in 1..=8 {
            let d = dist(k as f64 * std::f64::consts::PI / 8.0);
            assert!(d > last, "distance must grow with angle");
            last = d;
        }
    }

    #[test]
    fn a_non_finite_overlap_is_never_a_perfect_gate() {
        let h = h_gate();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for part in [C64::real(bad), C64::new(0.5, bad)] {
                // On the diagonal against the identity, and off it
                // against a dense gate: either way it reaches the trace.
                let mut on_diagonal = Matrix::identity(2);
                on_diagonal[(1, 1)] = part;
                let mut off_diagonal = h.clone();
                off_diagonal[(0, 1)] = part;
                for (u, v) in [
                    (Matrix::identity(2), on_diagonal),
                    (h.clone(), off_diagonal),
                ] {
                    let what = format!("{part} in {v:?}");
                    assert!(trace_fidelity(&u, &v).is_nan(), "{what}");
                    assert!(average_gate_fidelity(&u, &v).is_nan(), "{what}");
                    assert!(phase_aligned_distance(&u, &v).is_nan(), "{what}");
                    assert!(gate_success_rate(&u, &v).is_nan(), "{what}");
                }
            }
        }
        // A NaN facing only zeros of the other operand must still
        // poison the metrics, from either operand.
        let mut hidden = Matrix::identity(2);
        hidden[(0, 1)] = C64::real(f64::NAN);
        for (u, v) in [
            (Matrix::identity(2), hidden.clone()),
            (hidden, Matrix::identity(2)),
        ] {
            assert!(trace_fidelity(&u, &v).is_nan(), "{u:?} vs {v:?}");
            assert!(phase_aligned_distance(&u, &v).is_nan(), "{u:?} vs {v:?}");
            assert!(gate_success_rate(&u, &v).is_nan(), "{u:?} vs {v:?}");
        }
        // Positive, so `total_cmp` minima never pick it over a finite
        // distance.
        let mut v = Matrix::identity(2);
        v[(0, 0)] = C64::real(f64::NAN);
        let distance = phase_aligned_distance(&Matrix::identity(2), &v);
        assert_eq!(
            [distance, 0.5].into_iter().min_by(f64::total_cmp),
            Some(0.5)
        );
    }

    /// The overlap's bits must be those of the product it replaced,
    /// `u.dagger().matmul(v).trace()`, which skips `U†`'s zero entries.
    #[test]
    fn overlap_matches_the_product_trace_bit_for_bit() {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        // Signed zeros and exact ±1, ±i, so that skipped zero terms,
        // exact cancellations and `-0` products all occur.
        let palette = [
            C64::ZERO,
            C64::new(-0.0, 0.0),
            C64::new(0.0, -0.0),
            C64::new(-0.0, -0.0),
            C64::ONE,
            C64::real(-1.0),
            C64::new(0.0, 1.0),
            C64::new(-0.0, -1.0),
            C64::new(s, -0.0),
            C64::new(-s, s),
        ];
        let mut rng = Rng::seed_from_u64(21);
        let mut sparse = |d: usize| {
            let mut m = Matrix::zeros(d, d);
            for i in 0..d {
                for j in 0..d {
                    m[(i, j)] = if rng.random::<bool>() {
                        palette[rng.random_range(0..palette.len())]
                    } else {
                        C64::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))
                    };
                }
            }
            m
        };
        let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let z = Matrix::diag(&[C64::ONE, C64::real(-1.0)]);
        let mut pairs = vec![
            (x.clone(), z.clone()),
            (z.clone(), x.clone()),
            (x.clone(), x.scaled(C64::real(-1.0))),
            (h_gate(), z.scaled(C64::new(0.0, -1.0))),
        ];
        for d in [1, 2, 3, 4, 8] {
            for seed in 0..24 {
                let (a, b) = (random_unitary_seeded(d, seed), sparse(d));
                let (c, e) = (random_unitary_seeded(d, seed + 100), sparse(d));
                pairs.extend([
                    (a.clone(), c.clone()),
                    (a.clone(), b.clone()),
                    (b.clone(), a.clone()),
                    (b.clone(), e.clone()),
                    (b.clone(), b.scaled(C64::real(-1.0))),
                    (e, c),
                ]);
            }
        }
        for (u, v) in &pairs {
            let want = u.dagger().matmul(v).trace();
            let got = overlap(u, v);
            assert_eq!(
                (got.re.to_bits(), got.im.to_bits()),
                (want.re.to_bits(), want.im.to_bits()),
                "{u:?} vs {v:?}: {got} != {want}"
            );
        }
    }

    #[test]
    fn fidelity_and_distance_are_consistent() {
        // F close to 1 ⇔ distance close to 0.
        let h = h_gate();
        let almost = {
            let eps = 1e-3;
            let rz = Matrix::diag(&[C64::cis(-eps), C64::cis(eps)]);
            h.matmul(&rz)
        };
        let f = trace_fidelity(&h, &almost);
        let d = phase_aligned_distance(&h, &almost);
        assert!(f > 0.999_99);
        assert!(d < 2e-3);
    }
}
