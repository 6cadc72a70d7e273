//! Matrix exponential via Padé approximation with scaling and squaring.
//!
//! This is the inner kernel of GRAPE time-slice propagation: every slice
//! computes `exp(-i·dt·H)` for a small Hermitian `H`. We use the classic
//! Higham [13/13] scaling-and-squaring scheme, simplified to a fixed [6/6]
//! Padé with norm-based scaling, which is more than accurate enough for
//! the step norms this workspace produces (`‖A‖ ≲ 1`). The kernel runs on
//! [`SplitMatrix`]; [`expm`] converts a [`Matrix`] in and out.

use crate::complex::C64;
use crate::matrix::{Matrix, SplitMatrix};

/// Padé [6/6] numerator coefficients for `exp`.
const PADE6: [f64; 7] = [
    1.0,
    1.0 / 2.0,
    5.0 / 44.0,
    1.0 / 66.0,
    1.0 / 792.0,
    1.0 / 15840.0,
    1.0 / 665280.0,
];

/// Scratch buffers of [`expm_into`] for one dimension: the scaled input,
/// the Padé powers and terms, the elimination copy of the denominator and
/// the squaring buffer.
///
/// Build one per dimension and reuse it across calls; `expm_into` then
/// allocates nothing.
#[derive(Clone, Debug)]
pub struct ExpmScratch {
    a_scaled: SplitMatrix,
    a2: SplitMatrix,
    a4: SplitMatrix,
    a6: SplitMatrix,
    v: SplitMatrix,
    u_inner: SplitMatrix,
    u: SplitMatrix,
    lu: SplitMatrix,
    square: SplitMatrix,
}

/// Number of `n×n` matrices an [`ExpmScratch`] holds.
const SCRATCH_MATRICES: usize = 9;

impl ExpmScratch {
    /// Allocates scratch for `n×n` exponentials.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        let z = || SplitMatrix::zeros(n);
        ExpmScratch {
            a_scaled: z(),
            a2: z(),
            a4: z(),
            a6: z(),
            v: z(),
            u_inner: z(),
            u: z(),
            lu: z(),
            square: z(),
        }
    }
}

/// Computes the matrix exponential `e^A` of a square complex matrix.
///
/// Uses a [6/6] Padé approximant with scaling and squaring; the number of
/// squarings `s` is the smallest with `‖A‖₁ ≤ 0.5·2^s`. When `2^s` is not
/// a finite `f64` (a one-norm above about `2^1022`, or an infinite one)
/// every entry of the result is NaN. Splits `a`, runs [`expm_into`] in
/// fresh scratch and joins the result, so it returns the bits `expm_into`
/// returns.
///
/// # Panics
///
/// Panics if `a` is not square or the internal linear solve fails (which
/// cannot happen for finite input, as the Padé denominator is nonsingular
/// for `‖A‖ < ln 2` after scaling).
///
/// # Examples
///
/// ```
/// use paqoc_math::{expm, C64, Matrix};
/// // exp(iθX) = cos(θ)·I + i·sin(θ)·X
/// let theta = 0.3;
/// let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
/// let u = expm(&x.scaled(C64::I * theta));
/// assert!((u[(0, 0)].re - theta.cos()).abs() < 1e-12);
/// assert!((u[(0, 1)].im - theta.sin()).abs() < 1e-12);
/// ```
pub fn expm(a: &Matrix) -> Matrix {
    assert!(a.is_square(), "expm requires a square matrix");
    let n = a.rows();
    // The scratch matrices, the split input and output and the result:
    // counted so a caller that could hold an `ExpmScratch` sees what this
    // call costs.
    paqoc_telemetry::kernel_alloc(
        "mathkit.expm",
        SCRATCH_MATRICES as u64 + 3,
        ((SCRATCH_MATRICES + 3) * n * n * std::mem::size_of::<C64>()) as u64,
    );
    let mut scratch = ExpmScratch::new(n);
    let mut out = SplitMatrix::zeros(n);
    expm_into(&SplitMatrix::from(a), &mut out, &mut scratch);
    Matrix::from(&out)
}

/// Computes `e^A` into `out`, using `scratch` for every intermediate.
///
/// The Padé terms come from [`SplitMatrix::matmul_into`] and
/// [`SplitMatrix::axpy`], and the Padé quotient from
/// [`SplitMatrix::solve_into`]; each entry is computed in the scalar
/// order the [`Matrix`] kernels use.
///
/// The squaring count is `0` when `‖A‖₁ ≤ 0.5` and `⌈log₂(‖A‖₁ / 0.5)⌉`
/// otherwise. It is decided on a one-norm estimate from squared moduli,
/// and only an estimate within a relative `1e-9` of a threshold
/// `0.5·2^k`, or one that is not finite, takes the exact
/// [`Matrix::one_norm`]; the two give the same count. A column whose
/// one-norm is NaN does not count. When `2^s` overflows (a one-norm above
/// about `2^1022`, or an infinite one) nothing is squared and `out` is
/// filled with NaN.
///
/// # Panics
///
/// Panics if `out` or `scratch` has another dimension than `a`, or if the
/// Padé solve fails (see [`expm`]).
///
/// # Examples
///
/// ```
/// use paqoc_math::{expm, expm_into, C64, ExpmScratch, Matrix, SplitMatrix};
/// let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
/// let a = x.scaled(C64::new(0.0, -0.4));
/// let mut scratch = ExpmScratch::new(2);
/// let mut u = SplitMatrix::zeros(2);
/// expm_into(&SplitMatrix::from(&a), &mut u, &mut scratch);
/// assert_eq!(Matrix::from(&u), expm(&a));
/// ```
pub fn expm_into(a: &SplitMatrix, out: &mut SplitMatrix, scratch: &mut ExpmScratch) {
    let n = a.dim();
    assert_eq!(scratch.a2.dim(), n, "expm scratch dimension must match");
    assert_eq!(out.dim(), n, "expm output must be {n}×{n}");
    paqoc_telemetry::kernel_probe!("mathkit.expm", n);
    let Some(squarings) = squaring_count(a) else {
        for part in out.parts_mut() {
            part.fill(f64::NAN);
        }
        return;
    };
    let scale = 1.0 / f64::powi(2.0, squarings as i32);
    let s = scratch;
    a.scaled_into(C64::real(scale), &mut s.a_scaled);

    // Horner-style evaluation of even/odd power series:
    //   N = Σ c_k A^k split into U (odd) and V (even) so that
    //   exp(A) ≈ (V - U)^{-1} (V + U).
    s.a_scaled.matmul_into(&s.a_scaled, &mut s.a2);
    s.a2.matmul_into(&s.a2, &mut s.a4);
    s.a2.matmul_into(&s.a4, &mut s.a6);

    // V = c0 I + c2 A² + c4 A⁴ + c6 A⁶ (even part)
    scaled_identity_into(PADE6[0], &mut s.v);
    s.v.axpy(C64::real(PADE6[2]), &s.a2);
    s.v.axpy(C64::real(PADE6[4]), &s.a4);
    s.v.axpy(C64::real(PADE6[6]), &s.a6);

    // U = A (c1 I + c3 A² + c5 A⁴) (odd part)
    scaled_identity_into(PADE6[1], &mut s.u_inner);
    s.u_inner.axpy(C64::real(PADE6[3]), &s.a2);
    s.u_inner.axpy(C64::real(PADE6[5]), &s.a4);
    s.a_scaled.matmul_into(&s.u_inner, &mut s.u);

    // V becomes the denominator V − U and U the numerator V + U, part by
    // part as `C64`'s `-` and `+` compute them.
    for (v, u) in s.v.parts_mut().into_iter().zip(s.u.parts_mut()) {
        for (v, u) in v.iter_mut().zip(u) {
            let (vv, uu) = (*v, *u);
            *v = vv - uu;
            *u = vv + uu;
        }
    }
    let solved = s.v.solve_into(&s.u, out, &mut s.lu);
    assert!(solved, "Padé denominator is nonsingular after scaling");

    for _ in 0..squarings {
        let result: &SplitMatrix = out;
        result.matmul_into(result, &mut s.square);
        std::mem::swap(out, &mut s.square);
    }
}

/// Relative distance from a squaring threshold within which the one-norm
/// estimate of [`squaring_count`] does not decide the count.
const NORM_BAND: f64 = 1e-9;

/// The squaring count of [`expm_into`]: `0` when `‖A‖₁ ≤ 0.5`, otherwise
/// `⌈log₂(‖A‖₁ / 0.5)⌉`, the smallest `s` with `‖A‖₁ ≤ 0.5·2^s`. `None`
/// when `2^s` is not a finite `f64` (a one-norm above about `2^1022`, or
/// an infinite one).
///
/// The count is decided on an estimate of the one-norm: each column sums
/// `sqrt(re² + im²)` instead of `hypot(re, im)`. Where every square is a
/// finite number each term lies within a few ulps of `hypot`, or within
/// `1e-160` of it where a square underflows, so an estimate outside a
/// relative [`NORM_BAND`] of every threshold `0.5·2^k` gives the count the
/// exact norm gives. Otherwise, and when a column's estimate is not
/// finite, the count comes from [`Matrix::one_norm`]'s rule, whose
/// maximum skips a NaN column.
fn squaring_count(a: &SplitMatrix) -> Option<u32> {
    let norm = match one_norm_on_squares(a) {
        Some(estimate) if !near_a_threshold(estimate) => estimate,
        _ => a.one_norm(),
    };
    if norm <= 0.5 {
        return Some(0);
    }
    let squarings = (norm / 0.5).log2().ceil();
    (squarings < f64::MAX_EXP as f64).then_some(squarings as u32)
}

/// Columns whose one-norm estimates [`one_norm_on_squares`] sums side by
/// side.
const NORM_COLUMNS: usize = 8;

/// The largest column sum of `sqrt(re² + im²)`, each column summed in row
/// order as [`Matrix::one_norm`] sums it; `None` when any column's sum
/// is not finite. Up to [`NORM_COLUMNS`] columns are summed at once, row
/// by row.
fn one_norm_on_squares(a: &SplitMatrix) -> Option<f64> {
    let (n, [re, im]) = (a.dim(), a.parts());
    let mut best = 0.0f64;
    for first in (0..n).step_by(NORM_COLUMNS) {
        let width = NORM_COLUMNS.min(n - first);
        let mut sums = [0.0f64; NORM_COLUMNS];
        for (row_re, row_im) in re.chunks_exact(n).zip(im.chunks_exact(n)) {
            let row = row_re[first..].iter().zip(&row_im[first..]);
            for (sum, (&x, &y)) in sums[..width].iter_mut().zip(row) {
                *sum += C64::new(x, y).norm_sqr().sqrt();
            }
        }
        for &sum in &sums[..width] {
            if !sum.is_finite() {
                return None;
            }
            best = best.max(sum);
        }
    }
    Some(best)
}

/// `true` when a finite `norm` lies within a relative [`NORM_BAND`] of a
/// squaring threshold `0.5·2^k`, `k ≥ 0`.
fn near_a_threshold(norm: f64) -> bool {
    if norm < 0.5 * (1.0 - NORM_BAND) {
        return false;
    }
    // The powers of two around a positive normal `norm`: `below`, its
    // mantissa cleared, and `2·below`.
    let below = f64::from_bits(norm.to_bits() & !((1u64 << 52) - 1));
    norm - below <= NORM_BAND * below || 2.0 * below - norm <= NORM_BAND * 2.0 * below
}

/// Writes `I·c` into `m`, entry by entry as `Matrix::identity(n).scaled(c)`
/// computes it: `e·(c + 0i)` for each identity entry `e`.
fn scaled_identity_into(c: f64, m: &mut SplitMatrix) {
    let n = m.dim();
    let [re, im] = m.parts_mut();
    let rows = re.chunks_exact_mut(n).zip(im.chunks_exact_mut(n));
    for (i, (row_re, row_im)) in rows.enumerate() {
        for (j, (re, im)) in row_re.iter_mut().zip(row_im).enumerate() {
            let e = (if i == j { C64::ONE } else { C64::ZERO }) * C64::real(c);
            (*re, *im) = (e.re, e.im);
        }
    }
}

/// Computes `exp(-i·t·H)` — the unitary propagator of a Hamiltonian `H`
/// over time `t`.
///
/// # Panics
///
/// Panics if `h` is not square.
pub fn propagator(h: &Matrix, t: f64) -> Matrix {
    expm(&h.scaled(C64::new(0.0, -t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::reference;
    use crate::testing::within_watchdog;

    /// `expm` as it was before `expm_into`, over the reference `matmul`
    /// and `solve` bodies: the oracle of the bit-identity tests.
    fn reference_expm(a: &Matrix) -> Matrix {
        let norm = a.one_norm();
        let squarings = if norm <= 0.5 {
            0
        } else {
            (norm / 0.5).log2().ceil() as u32
        };
        let scale = 1.0 / f64::powi(2.0, squarings as i32);
        let a_scaled = a.scaled(C64::real(scale));
        let n = a.rows();
        let a2 = reference::matmul(&a_scaled, &a_scaled);
        let a4 = reference::matmul(&a2, &a2);
        let a6 = reference::matmul(&a2, &a4);
        let mut v = Matrix::identity(n).scaled(C64::real(PADE6[0]));
        v.axpy(C64::real(PADE6[2]), &a2);
        v.axpy(C64::real(PADE6[4]), &a4);
        v.axpy(C64::real(PADE6[6]), &a6);
        let mut u_inner = Matrix::identity(n).scaled(C64::real(PADE6[1]));
        u_inner.axpy(C64::real(PADE6[3]), &a2);
        u_inner.axpy(C64::real(PADE6[5]), &a4);
        let u = reference::matmul(&a_scaled, &u_inner);
        let denom = &v - &u;
        let numer = &v + &u;
        let mut result = reference::solve(&denom, &numer).expect("nonsingular");
        for _ in 0..squarings {
            result = reference::matmul(&result, &result);
        }
        result
    }

    #[test]
    fn expm_into_matches_the_reference_bit_for_bit() {
        let mut rng = crate::Rng::seed_from_u64(0xe4_0001);
        for n in [1, 2, 3, 4, 8, 16] {
            // One scratch per dimension, reused across calls whose norms
            // take 0 to several squarings.
            let mut scratch = ExpmScratch::new(n);
            let mut out = SplitMatrix::from(&reference::sample(n, n, &mut rng));
            for scale in [0.01, 0.1, 0.5, 2.0, 9.0] {
                let a = reference::sample(n, n, &mut rng).scaled(C64::real(scale));
                let want = reference::bits(&reference_expm(&a));
                expm_into(&SplitMatrix::from(&a), &mut out, &mut scratch);
                let got = reference::bits(&Matrix::from(&out));
                assert_eq!(got, want, "n = {n}, scale {scale}");
                assert_eq!(reference::bits(&expm(&a)), want, "n = {n}, scale {scale}");
            }
        }
    }

    #[test]
    fn expm_into_matches_the_reference_on_step_propagators() {
        // The inputs GRAPE feeds it: −i·2π·dt·H for a Hermitian H.
        let mut rng = crate::Rng::seed_from_u64(0xe4_0002);
        for n in [2, 4, 8, 16] {
            let mut scratch = ExpmScratch::new(n);
            let mut out = SplitMatrix::zeros(n);
            for _ in 0..6 {
                let g = reference::sample(n, n, &mut rng);
                let h = (&g + &g.dagger()).scaled(C64::real(0.05));
                let a = h.scaled(C64::new(0.0, -std::f64::consts::PI));
                expm_into(&SplitMatrix::from(&a), &mut out, &mut scratch);
                let got = reference::bits(&Matrix::from(&out));
                assert_eq!(got, reference::bits(&reference_expm(&a)));
            }
        }
    }

    #[test]
    fn a_count_whose_power_of_two_overflows_fills_nan_and_returns() {
        let inf = C64::real(f64::INFINITY);
        let cases = [
            // ⌈log₂ ∞⌉ saturated to u32::MAX squarings: it never returned.
            Matrix::from_rows(&[&[C64::ZERO, inf], &[C64::ZERO, C64::ZERO]]),
            // `norm / 0.5` overflows to ∞ the same way.
            Matrix::diag(&[C64::real(1e308), C64::ZERO]),
            // 1024 squarings: `2^1024` overflowed, the scale became 0 and
            // the identity came back.
            Matrix::diag(&[C64::real(8e307), C64::ZERO]),
        ];
        for a in cases {
            assert_eq!(squaring_count(&SplitMatrix::from(&a)), None, "{a:?}");
            let e = within_watchdog(move || expm(&a));
            let all_nan = e.as_slice().iter().all(|z| z.re.is_nan() && z.im.is_nan());
            assert!(all_nan, "{e:?}");
        }
    }

    #[test]
    fn the_largest_finite_count_keeps_its_bits() {
        // ‖A‖₁ = 2^1022: 1023 squarings and a scale of 2^-1023. One ulp
        // above, `log₂` still rounds to 1023.
        for bits in [0x7fd0_0000_0000_0000, 0x7fd0_0000_0000_0001] {
            let a = Matrix::diag(&[C64::real(f64::from_bits(bits)), C64::ZERO]);
            assert_eq!(squaring_count(&SplitMatrix::from(&a)), Some(1023));
            assert_eq!(
                reference::bits(&expm(&a)),
                reference::bits(&reference_expm(&a))
            );
        }
    }

    #[test]
    fn a_nan_column_does_not_count_toward_the_squarings() {
        // `f64::max` skips the NaN column's sum: the count is the other
        // column's, 3 for a norm of 3.
        for nan in [C64::new(f64::NAN, 0.0), C64::new(1.0, f64::NAN)] {
            let a = Matrix::from_rows(&[&[nan, C64::ZERO], &[C64::real(0.1), C64::real(3.0)]]);
            assert_eq!(squaring_count(&SplitMatrix::from(&a)), Some(3));
            let e = within_watchdog(move || (expm(&a), reference_expm(&a)));
            assert_eq!(reference::bits(&e.0), reference::bits(&e.1));
        }
    }

    fn pauli_z() -> Matrix {
        Matrix::diag(&[C64::ONE, C64::real(-1.0)])
    }

    #[test]
    fn exp_of_zero_is_identity() {
        let z = Matrix::zeros(3, 3);
        assert!(expm(&z).max_diff(&Matrix::identity(3)) < 1e-14);
    }

    #[test]
    fn exp_of_diagonal_matches_scalar_exp() {
        let d = Matrix::diag(&[C64::new(0.2, 0.3), C64::new(-1.0, 0.5)]);
        let e = expm(&d);
        assert!((e[(0, 0)] - C64::new(0.2, 0.3).exp()).abs() < 1e-12);
        assert!((e[(1, 1)] - C64::new(-1.0, 0.5).exp()).abs() < 1e-12);
        assert!(e[(0, 1)].abs() < 1e-14);
    }

    #[test]
    fn exp_of_large_norm_uses_squaring() {
        // diag with norm ≈ 8 forces multiple squarings.
        let d = Matrix::diag(&[C64::real(8.0), C64::real(-8.0)]);
        let e = expm(&d);
        assert!((e[(0, 0)].re - 8.0f64.exp()).abs() / 8.0f64.exp() < 1e-10);
        assert!((e[(1, 1)].re - (-8.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn propagator_of_hermitian_is_unitary() {
        // H = Z + 0.5 X is Hermitian.
        let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let mut h = pauli_z();
        h.axpy(C64::real(0.5), &x);
        let u = propagator(&h, 1.7);
        assert!(u.is_unitary(1e-10));
    }

    #[test]
    fn propagator_composes_additively_in_time() {
        let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
        let u1 = propagator(&x, 0.4);
        let u2 = propagator(&x, 0.6);
        let u_total = propagator(&x, 1.0);
        assert!(u2.matmul(&u1).max_diff(&u_total) < 1e-10);
    }

    #[test]
    fn exp_z_rotation_matches_closed_form() {
        // exp(-iθZ/2) = diag(e^{-iθ/2}, e^{iθ/2})
        let theta = 0.9;
        let u = propagator(&pauli_z().scaled(C64::real(0.5)), theta);
        assert!((u[(0, 0)] - C64::cis(-theta / 2.0)).abs() < 1e-12);
        assert!((u[(1, 1)] - C64::cis(theta / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn exp_commuting_sum_factorizes() {
        // Z and Z² commute trivially; exp(A+B) = exp(A)exp(B) for commuting A,B.
        let a = pauli_z().scaled(C64::new(0.0, 0.3));
        let b = pauli_z().scaled(C64::new(0.1, 0.0));
        let lhs = expm(&(&a + &b));
        let rhs = expm(&a).matmul(&expm(&b));
        assert!(lhs.max_diff(&rhs) < 1e-11);
    }
}
