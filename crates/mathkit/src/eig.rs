//! Eigenvalues for small complex matrices.
//!
//! The workspace only needs eigenvalues of matrices up to 8×8 (two- and
//! three-qubit invariants), so we use the characteristic polynomial via
//! Faddeev–LeVerrier plus Durand–Kerner (Weierstrass) simultaneous root
//! iteration. This combination is numerically fine at these sizes and
//! avoids pulling in a full QR eigensolver.

use crate::complex::C64;
use crate::matrix::Matrix;

/// Computes the monic characteristic polynomial of a square matrix.
///
/// Returns coefficients `[c₀ = 1, c₁, …, c_n]` such that
/// `p(λ) = Σ c_k λ^{n-k}`.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn char_poly(a: &Matrix) -> Vec<C64> {
    assert!(a.is_square(), "char_poly requires a square matrix");
    let n = a.rows();
    // Faddeev–LeVerrier clones the running power matrix each step;
    // count that scratch (the matmuls count their own).
    paqoc_telemetry::kernel_alloc(
        "mathkit.eig",
        n as u64,
        (n * n * n * std::mem::size_of::<C64>()) as u64,
    );
    let mut coeffs = vec![C64::ONE];
    let mut m = a.clone();
    for k in 1..=n {
        let ck = m.trace() * (-1.0 / k as f64);
        coeffs.push(ck);
        if k < n {
            let mut shifted = m.clone();
            for i in 0..n {
                shifted[(i, i)] += ck;
            }
            m = a.matmul(&shifted);
        }
    }
    coeffs
}

/// Finds all roots of a monic complex polynomial by Durand–Kerner iteration.
///
/// `coeffs` are `[c₀, …, c_n]` with `c₀ = 1` (the function normalizes
/// otherwise). Returns `n` roots with multiplicity.
///
/// Each iteration makes two kinds of comparison: `|denom| < 1e-300`
/// (coincident iterates, nudged apart) and `max |step| < 1e-14`
/// (converged). Both are decided on squared magnitudes, without
/// `hypot`, and fall back to `hypot` where a square could decide
/// otherwise:
///
/// * `|denom|² > 1e-280`, finite, means "not coincident"; any other
///   square takes `denom.abs() < 1e-300`.
/// * The largest `|step|²` of the iteration decides `< 1e-28` when it is
///   finite, at least `1e-290` and outside a relative band of `±1e-6`
///   around `1e-28`; otherwise the largest `step.abs()` of the
///   iteration is compared with `1e-14`.
///
/// Where squares are normal, `re² + im²` rounds to within a few ulps of
/// the square of `hypot(re, im)`, so a square outside the band decides
/// as `hypot` does: every iteration, and every root, is bit for bit what
/// comparing `hypot` values gives. An iteration that nudged a root never
/// stops.
///
/// # Panics
///
/// Panics if the polynomial has degree zero or the leading coefficient
/// vanishes.
pub fn poly_roots(coeffs: &[C64]) -> Vec<C64> {
    assert!(coeffs.len() >= 2, "polynomial must have degree >= 1");
    let lead = coeffs[0];
    assert!(lead.abs() > 1e-300, "leading coefficient must be nonzero");
    let monic: Vec<C64> = coeffs.iter().map(|&c| c / lead).collect();
    let n = monic.len() - 1;

    let eval = |z: C64| -> C64 {
        let mut acc = C64::ZERO;
        for &c in &monic {
            acc = acc * z + c;
        }
        acc
    };

    // Initial guesses: points on a circle whose radius bounds the roots
    // (Cauchy bound), with an irrational angle offset to break symmetry.
    let radius = 1.0 + monic[1..].iter().map(|c| c.abs()).fold(0.0f64, f64::max);
    let mut roots: Vec<C64> = (0..n)
        .map(|k| {
            C64::from_polar(
                radius.min(4.0),
                0.4 + 2.0 * std::f64::consts::PI * k as f64 / n as f64,
            )
        })
        .collect();

    let mut steps = vec![C64::ZERO; n];
    for _ in 0..300 {
        // The largest `|step|²`; a NaN square sticks, so a non-finite
        // step always reaches the exact test.
        let mut max_sq = 0.0f64;
        let mut nudged = false;
        for i in 0..n {
            let zi = roots[i];
            let mut denom = C64::ONE;
            for (j, &zj) in roots.iter().enumerate() {
                if j != i {
                    denom *= zi - zj;
                }
            }
            if is_below_1e_300(denom) {
                // Coincident iterates: nudge and continue.
                roots[i] = zi + C64::new(1e-8, 1e-8);
                nudged = true;
                continue;
            }
            let step = eval(zi) / denom;
            roots[i] = zi - step;
            steps[i] = step;
            let sq = step.norm_sqr();
            if sq > max_sq || sq.is_nan() {
                max_sq = sq;
            }
        }
        if !nudged && is_converged(&steps, max_sq) {
            break;
        }
    }
    polish_clusters(&mut roots);
    refine_multiple_roots(&monic, &mut roots);
    roots
}

/// `z.abs() < 1e-300`, answered "no" without `hypot` when `|z|²` is
/// finite and above `1e-280`, that is when `|z|` exceeds about `1e-140`.
fn is_below_1e_300(z: C64) -> bool {
    let q = z.norm_sqr();
    if q.is_finite() && q > 1e-280 {
        return false;
    }
    z.abs() < 1e-300
}

/// `max |step| < 1e-14` over one iteration's `steps`, decided on their
/// largest square `max_sq` where that cannot differ from comparing
/// `hypot` values (see [`poly_roots`]).
fn is_converged(steps: &[C64], max_sq: f64) -> bool {
    const TOL_SQ: f64 = 1e-28;
    if max_sq.is_finite() && max_sq >= 1e-290 && (max_sq - TOL_SQ).abs() > 1e-6 * TOL_SQ {
        return max_sq < TOL_SQ;
    }
    steps.iter().map(|s| s.abs()).fold(0.0f64, f64::max) < 1e-14
}

/// Replaces clusters of nearby iterates with their centroid.
///
/// Durand–Kerner converges only linearly to a root of multiplicity `m`,
/// leaving the `m` iterates spread on a circle of radius `~ε^{1/m}` around
/// the true root — but their *mean* cancels the first-order error and is
/// accurate to near machine precision. Roots closer than `5·10⁻⁴` are
/// treated as one cluster, which is far below any eigenvalue separation
/// that matters for the latency model built on these spectra.
fn polish_clusters(roots: &mut [C64]) {
    let n = roots.len();
    let mut assigned = vec![usize::MAX; n];
    let mut next_cluster = 0;
    for i in 0..n {
        if assigned[i] != usize::MAX {
            continue;
        }
        assigned[i] = next_cluster;
        for j in (i + 1)..n {
            if assigned[j] == usize::MAX {
                let scale = 1.0 + roots[i].abs();
                if (roots[i] - roots[j]).abs() < 5e-4 * scale {
                    assigned[j] = next_cluster;
                }
            }
        }
        next_cluster += 1;
    }
    for c in 0..next_cluster {
        let members: Vec<usize> = (0..n).filter(|&k| assigned[k] == c).collect();
        if members.len() > 1 {
            let centroid = members.iter().map(|&k| roots[k]).sum::<C64>() / members.len() as f64;
            for &k in &members {
                roots[k] = centroid;
            }
        }
    }
}

/// Sharpens clustered (multiple) roots of the monic polynomial `monic`.
///
/// A root of multiplicity `m` of `p` is a *simple* root of `p^{(m-1)}`,
/// where plain Newton converges quadratically without the cancellation
/// noise that stalls iteration on `p` itself.
fn refine_multiple_roots(monic: &[C64], roots: &mut [C64]) {
    let n = roots.len();
    let mut i = 0;
    while i < n {
        // Clustered roots were snapped to an identical centroid above.
        // A NaN root equals nothing, itself included: count it as one
        // root, so the scan still advances.
        let m = roots[i..].iter().filter(|r| **r == roots[i]).count().max(1);
        if m > 1 {
            // Differentiate m-1 times.
            let mut p: Vec<C64> = monic.to_vec();
            for _ in 0..(m - 1) {
                let deg = p.len() - 1;
                p = p[..deg]
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| c * (deg - k) as f64)
                    .collect();
            }
            // Newton on the derivative polynomial.
            let mut z = roots[i];
            for _ in 0..60 {
                let (mut val, mut der) = (C64::ZERO, C64::ZERO);
                for &c in &p {
                    der = der * z + val;
                    val = val * z + c;
                }
                if der.abs() < 1e-300 {
                    break;
                }
                let step = val / der;
                z -= step;
                if step.abs() < 1e-15 * (1.0 + z.abs()) {
                    break;
                }
            }
            let target = roots[i];
            for r in roots.iter_mut() {
                if *r == target {
                    *r = z;
                }
            }
        }
        i += m;
    }
}

/// Computes the eigenvalues (with multiplicity, unordered) of a small
/// square complex matrix.
///
/// # Panics
///
/// Panics if `a` is not square.
///
/// # Examples
///
/// ```
/// use paqoc_math::{eigenvalues, C64, Matrix};
/// let z = Matrix::diag(&[C64::ONE, C64::real(-1.0)]);
/// let mut evs: Vec<f64> = eigenvalues(&z).iter().map(|e| e.re).collect();
/// evs.sort_by(f64::total_cmp);
/// assert!((evs[0] + 1.0).abs() < 1e-9 && (evs[1] - 1.0).abs() < 1e-9);
/// ```
pub fn eigenvalues(a: &Matrix) -> Vec<C64> {
    paqoc_telemetry::kernel_probe!("mathkit.eig", a.rows());
    poly_roots(&char_poly(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::within_watchdog;

    fn sorted_re(mut v: Vec<C64>) -> Vec<C64> {
        v.sort_by(|a, b| a.re.total_cmp(&b.re).then(a.im.total_cmp(&b.im)));
        v
    }

    #[test]
    fn char_poly_of_identity() {
        // p(λ) = (λ-1)² = λ² - 2λ + 1
        let p = char_poly(&Matrix::identity(2));
        assert!((p[0] - C64::ONE).abs() < 1e-12);
        assert!((p[1] - C64::real(-2.0)).abs() < 1e-12);
        assert!((p[2] - C64::ONE).abs() < 1e-12);
    }

    #[test]
    fn roots_of_quadratic() {
        // λ² - 3λ + 2 = (λ-1)(λ-2)
        let roots = sorted_re(poly_roots(&[C64::ONE, C64::real(-3.0), C64::real(2.0)]));
        assert!((roots[0] - C64::ONE).abs() < 1e-9);
        assert!((roots[1] - C64::real(2.0)).abs() < 1e-9);
    }

    #[test]
    fn roots_of_unity_quartic() {
        // λ⁴ - 1 = 0 → {1, -1, i, -i}
        let roots = poly_roots(&[C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO, C64::real(-1.0)]);
        for r in &roots {
            assert!((r.abs() - 1.0).abs() < 1e-8);
            // each root^4 == 1
            let r4 = *r * *r * *r * *r;
            assert!((r4 - C64::ONE).abs() < 1e-7);
        }
    }

    #[test]
    fn eigenvalues_of_pauli_x() {
        let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let evs = sorted_re(eigenvalues(&x));
        assert!((evs[0] - C64::real(-1.0)).abs() < 1e-9);
        assert!((evs[1] - C64::ONE).abs() < 1e-9);
    }

    #[test]
    fn eigenvalues_of_unitary_lie_on_circle() {
        // A fixed 4×4 unitary: CX gate.
        let mut cx = Matrix::identity(4);
        cx[(2, 2)] = C64::ZERO;
        cx[(3, 3)] = C64::ZERO;
        cx[(2, 3)] = C64::ONE;
        cx[(3, 2)] = C64::ONE;
        for ev in eigenvalues(&cx) {
            assert!((ev.abs() - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn eigenvalues_with_multiplicity() {
        let d = Matrix::diag(&[C64::real(2.0), C64::real(2.0), C64::real(5.0)]);
        let evs = sorted_re(eigenvalues(&d));
        assert!((evs[0] - C64::real(2.0)).abs() < 1e-7);
        assert!((evs[1] - C64::real(2.0)).abs() < 1e-7);
        assert!((evs[2] - C64::real(5.0)).abs() < 1e-7);
    }

    fn with_nan_entry() -> Matrix {
        let mut m = Matrix::identity(4);
        m[(1, 2)] = C64::new(f64::NAN, 0.0);
        m
    }

    #[test]
    fn eigenvalues_of_a_matrix_with_a_nan_entry_terminate() {
        let evs = within_watchdog(|| eigenvalues(&with_nan_entry()));
        assert_eq!(evs.len(), 4);
    }

    #[test]
    fn weyl_coordinates_of_a_matrix_with_a_nan_entry_terminate() {
        within_watchdog(|| crate::weyl_coordinates(&with_nan_entry()));
    }

    #[test]
    fn poly_roots_with_nan_coefficients_terminate() {
        let coeffs = [C64::ONE, C64::new(f64::NAN, 0.0), C64::ONE, C64::ZERO];
        let roots = within_watchdog(move || poly_roots(&coeffs));
        assert_eq!(roots.len(), 3);
    }
}
