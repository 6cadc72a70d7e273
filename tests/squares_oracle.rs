//! `paqoc_math::expm_into` and `SplitMatrix::solve_into` (GRAPE's split
//! kernels) against copies of the rules they decided by `hypot` before: `expm`'s squaring count from the
//! exact one-norm and `⌈log₂(‖A‖₁ / 0.5)⌉`, and the elimination's partial
//! pivot as the first entry of largest `hypot` in each column. Outputs are
//! compared bit for bit, every NaN as one value, on two sets:
//!
//! * GRAPE's own exponents `−i·2π·dt·H(α)`, for seeded amplitudes up to
//!   each channel's limit on the 1-, 2- and 3-qubit transmon line, and the
//!   systems `(I − A/2)·X = I + A/2` of the same exponents;
//! * hand-built matrices: one-norms at and a few ulps around the
//!   thresholds 0.5, 1, 2 and 4, some of whose `hypot` sums and sums of
//!   `sqrt(re² + im²)` fall on opposite sides of a threshold; pivot
//!   candidates whose squares order them otherwise than `hypot` does, tie
//!   where `hypot` does not, or lie one ulp apart; subnormal, zero and
//!   negative-zero entries; squares that overflow; ±∞ and NaN.
//!
//! The reference copies the old `expm` and elimination over `Matrix`
//! indexing and the unchanged product, so it shares no code with the
//! rules it checks. Its squaring count keeps the overflow guard `expm`
//! gained (a count whose `2^s` is not finite fills NaN), since the old
//! count never returned there. It also counts how often each set lands
//! where the new rules fall back to `hypot`, so a set that stopped
//! reaching a fallback fails instead of passing vacuously.

use paqoc::device::{transmon_xy_controls, HardwareSpec};
use paqoc::grape::GrapeOptions;
use paqoc::math::{expm_into, ExpmScratch, Matrix, Rng, SplitMatrix, C64};

/// `expm`'s squaring count and elimination as they were before they were
/// decided on squared moduli.
mod reference {
    use paqoc::math::{Matrix, C64};

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

    /// How often the inputs reached a decision the new rules take with
    /// `hypot`.
    #[derive(Debug, Default)]
    pub struct Coverage {
        /// Exponentials taken.
        pub expms: usize,
        /// Exponentials squared at least once.
        pub squared: usize,
        /// Exponentials whose `2^s` overflows: filled with NaN.
        pub overflowing_counts: usize,
        /// Exponentials with a column whose sum of `sqrt(re² + im²)` is
        /// not finite.
        pub non_finite_estimates: usize,
        /// Exponentials whose largest such column sum lies within a
        /// relative `1e-9` of a threshold `0.5·2^k`.
        pub near_thresholds: usize,
        /// Pivot columns searched.
        pub columns: usize,
        /// Pivot columns with a candidate whose `re² + im²` is not finite.
        pub non_finite_squares: usize,
        /// Pivot columns where a candidate's square lies within a relative
        /// `1e-9` of the running largest square.
        pub close_squares: usize,
        /// Pivot columns whose largest square lies below `1e-290`.
        pub small_pivots: usize,
    }

    /// The induced 1-norm, each modulus by `hypot`, a NaN column skipped.
    fn one_norm(a: &Matrix) -> f64 {
        let mut best = 0.0f64;
        for j in 0..a.cols() {
            let s: f64 = (0..a.rows()).map(|i| a[(i, j)].abs()).sum();
            best = best.max(s);
        }
        best
    }

    /// Records where the one-norm estimate on squares would not decide.
    fn cover_estimate(a: &Matrix, coverage: &mut Coverage) {
        let mut estimate = 0.0f64;
        for j in 0..a.cols() {
            let s: f64 = (0..a.rows()).map(|i| a[(i, j)].norm_sqr().sqrt()).sum();
            if !s.is_finite() {
                coverage.non_finite_estimates += 1;
                return;
            }
            estimate = estimate.max(s);
        }
        let mut threshold = 0.5f64;
        while threshold.is_finite() {
            if (estimate - threshold).abs() <= 1e-9 * threshold {
                coverage.near_thresholds += 1;
                return;
            }
            threshold *= 2.0;
        }
    }

    /// The number of squarings, `None` when `2^s` overflows.
    fn squaring_count(a: &Matrix, coverage: &mut Coverage) -> Option<u32> {
        cover_estimate(a, coverage);
        let norm = one_norm(a);
        let squarings = if norm <= 0.5 {
            0
        } else {
            (norm / 0.5).log2().ceil() as u32
        };
        if squarings >= 1024 {
            coverage.overflowing_counts += 1;
            return None;
        }
        coverage.squared += usize::from(squarings > 0);
        Some(squarings)
    }

    pub fn expm(a: &Matrix, coverage: &mut Coverage) -> Matrix {
        coverage.expms += 1;
        let n = a.rows();
        let Some(squarings) = squaring_count(a, coverage) else {
            return Matrix::from_flat(vec![C64::new(f64::NAN, f64::NAN); n * n]);
        };
        let scale = 1.0 / f64::powi(2.0, squarings as i32);
        let a_scaled = a.scaled(C64::real(scale));
        let a2 = a_scaled.matmul(&a_scaled);
        let a4 = a2.matmul(&a2);
        let a6 = a2.matmul(&a4);
        let mut v = Matrix::identity(n).scaled(C64::real(PADE6[0]));
        v.axpy(C64::real(PADE6[2]), &a2);
        v.axpy(C64::real(PADE6[4]), &a4);
        v.axpy(C64::real(PADE6[6]), &a6);
        let mut u_inner = Matrix::identity(n).scaled(C64::real(PADE6[1]));
        u_inner.axpy(C64::real(PADE6[3]), &a2);
        u_inner.axpy(C64::real(PADE6[5]), &a4);
        let u = a_scaled.matmul(&u_inner);
        let mut result = solve(&(&v - &u), &(&v + &u), coverage).expect("nonsingular");
        for _ in 0..squarings {
            result = result.matmul(&result);
        }
        result
    }

    /// Records where the pivot search on squares would not decide.
    fn cover_pivot(column: &[C64], coverage: &mut Coverage) {
        coverage.columns += 1;
        let squares: Vec<f64> = column.iter().map(|z| z.norm_sqr()).collect();
        if squares.iter().any(|q| !q.is_finite()) {
            coverage.non_finite_squares += 1;
            return;
        }
        let mut largest = squares[0];
        let mut close = false;
        for &q in &squares[1..] {
            close |= (q - largest).abs() <= 1e-9 * q.max(largest);
            largest = largest.max(q);
        }
        coverage.close_squares += usize::from(close);
        coverage.small_pivots += usize::from(largest < 1e-290);
    }

    pub fn solve(lhs: &Matrix, b: &Matrix, coverage: &mut Coverage) -> Option<Matrix> {
        let n = lhs.rows();
        let m = b.cols();
        let mut a = lhs.clone();
        let mut x = b.clone();
        for col in 0..n {
            let column: Vec<C64> = (col..n).map(|r| a[(r, col)]).collect();
            cover_pivot(&column, coverage);
            let mut piv = col;
            let mut piv_mag = a[(col, col)].abs();
            for r in (col + 1)..n {
                let mag = a[(r, col)].abs();
                if mag > piv_mag {
                    piv = r;
                    piv_mag = mag;
                }
            }
            if piv_mag < 1e-300 {
                return None;
            }
            if piv != col {
                for j in 0..n {
                    let t = a[(col, j)];
                    a[(col, j)] = a[(piv, j)];
                    a[(piv, j)] = t;
                }
                for j in 0..m {
                    let t = x[(col, j)];
                    x[(col, j)] = x[(piv, j)];
                    x[(piv, j)] = t;
                }
            }
            let inv = a[(col, col)].recip();
            for r in (col + 1)..n {
                let f = a[(r, col)] * inv;
                if f.re == 0.0 && f.im == 0.0 {
                    continue;
                }
                for j in col..n {
                    let v = a[(col, j)];
                    a[(r, j)] = a[(r, j)].mul_add(-f, v);
                }
                for j in 0..m {
                    let v = x[(col, j)];
                    x[(r, j)] = x[(r, j)].mul_add(-f, v);
                }
            }
        }
        for col in (0..n).rev() {
            let inv = a[(col, col)].recip();
            for j in 0..m {
                let mut acc = x[(col, j)];
                for k in (col + 1)..n {
                    acc = acc.mul_add(-a[(col, k)], x[(k, j)]);
                }
                x[(col, j)] = acc * inv;
            }
        }
        Some(x)
    }
}

/// Every entry's bits, with every NaN one value: which NaN an operation
/// yields is not specified.
fn bits(m: &Matrix) -> Vec<(u64, u64)> {
    let bits = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
    m.as_slice()
        .iter()
        .map(|z| (bits(z.re), bits(z.im)))
        .collect()
}

/// Requires `expm_into` to give the reference's bits for `a`.
fn check_expm(a: &Matrix, coverage: &mut reference::Coverage, what: &str) {
    let n = a.rows();
    let want = bits(&reference::expm(a, coverage));
    let (mut out, mut scratch) = (SplitMatrix::zeros(n), ExpmScratch::new(n));
    expm_into(&SplitMatrix::from(a), &mut out, &mut scratch);
    assert_eq!(bits(&Matrix::from(&out)), want, "{what}: expm of {a:?}");
}

/// The `rows×cols` top-left block of `m`, zero where `m` has no entry.
fn block(m: &Matrix, rows: usize, cols: usize) -> Matrix {
    let mut out = Matrix::zeros(rows, cols);
    for i in 0..rows.min(m.rows()) {
        for j in 0..cols.min(m.cols()) {
            out[(i, j)] = m[(i, j)];
        }
    }
    out
}

/// Requires `solve_into` to give the reference's verdict and bits for
/// `a·X = b`. A `b` with fewer columns than `a` is solved as the leading
/// columns of `[b | 0]`: the elimination forms each column of `X` from
/// the same column of `B` alone.
fn check_solve(a: &Matrix, b: &Matrix, coverage: &mut reference::Coverage, what: &str) {
    let want = reference::solve(a, b, coverage).map(|x| bits(&x));
    let n = a.rows();
    let (mut x, mut lu) = (SplitMatrix::zeros(n), SplitMatrix::zeros(n));
    let padded = SplitMatrix::from(&block(b, n, n));
    let solved = SplitMatrix::from(a).solve_into(&padded, &mut x, &mut lu);
    let got = solved.then(|| bits(&block(&Matrix::from(&x), n, b.cols())));
    assert_eq!(got, want, "{what}: {a:?} \\ {b:?}");
}

/// `−i·2π·dt·H(α)` on the `n`-qubit transmon line for seeded amplitudes
/// up to each channel's limit, with GRAPE's default step.
fn grape_exponents(n: usize, count: usize, rng: &mut Rng) -> Vec<Matrix> {
    let edges: Vec<(usize, usize)> = (1..n).map(|q| (q - 1, q)).collect();
    let controls = transmon_xy_controls(n, &edges, &HardwareSpec::transmon_xy());
    let rotation = C64::new(
        0.0,
        -2.0 * std::f64::consts::PI * GrapeOptions::default().step_ns,
    );
    (0..count)
        .map(|_| {
            let mut h = controls.drift.clone();
            for ch in &controls.channels {
                let amp = ch.max_amp * (2.0 * rng.random::<f64>() - 1.0);
                h.axpy(C64::real(amp), &ch.operator);
            }
            h.scaled(rotation)
        })
        .collect()
}

#[test]
fn grape_step_exponents_keep_their_bits() {
    let mut rng = Rng::seed_from_u64(0x5a_0a7e);
    let mut coverage = reference::Coverage::default();
    for n in 1..=3 {
        let d = 1 << n;
        let identity = Matrix::identity(d);
        for (k, a) in grape_exponents(n, 1500, &mut rng).iter().enumerate() {
            let what = format!("{n} qubits, exponent {k}");
            check_expm(a, &mut coverage, &what);
            let half = a.scaled(C64::real(0.5));
            let (lhs, rhs) = (&identity - &half, &identity + &half);
            check_solve(&lhs, &rhs, &mut coverage, &what);
            // One right-hand column, as the first column of a square
            // right-hand side.
            let mut column = Matrix::zeros(d, 1);
            for i in 0..d {
                column[(i, 0)] = rhs[(i, 0)];
            }
            check_solve(&lhs, &column, &mut coverage, &what);
        }
    }
    assert_eq!(coverage.expms, 4500, "{coverage:?}");
    // The d = 8 exponents cross the first threshold.
    assert!(coverage.squared > 0, "{coverage:?}");
    assert!(coverage.squared < coverage.expms, "{coverage:?}");
}

fn c(re: u64, im: u64) -> C64 {
    C64::new(f64::from_bits(re), f64::from_bits(im))
}

/// `x` moved by `k` ulps (for positive `x`).
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(k))
}

#[test]
fn hand_built_norms_keep_their_squaring_counts() {
    let mut matrices = Vec::new();
    let thresholds = [0.5, 1.0, 2.0, 4.0];
    // Real one-norms at each threshold and up to three ulps on either
    // side, alone, on an 8×8 diagonal and summed from a column's entries.
    for t in thresholds {
        for k in -3..=3 {
            let x = ulps(t, k);
            matrices.push(Matrix::diag(&[C64::real(x)]));
            let mut d = vec![C64::real(0.01); 8];
            d[5] = C64::real(-x);
            matrices.push(Matrix::diag(&d));
            let quarter = x / 4.0;
            matrices.push(Matrix::from_rows(&[
                &[C64::real(quarter), C64::new(0.0, 0.1)],
                &[C64::new(0.0, -3.0 * quarter), C64::real(0.2)],
            ]));
        }
    }
    // A complex entry whose `hypot` is one ulp above the threshold while
    // `sqrt(re² + im²)` rounds to it: the exact count is one more.
    let straddles = [
        c(0x3fd779b7cc7d5739, 0x3fd5bf0f4a343da7),
        c(0x3fe6f44cfeac6685, 0x3fe64bb5c21cd4db),
        c(0x3ffffbbce5d8e321, 0x3fb08386646fa465),
        c(0x40054dbe61844971, 0x4007e0bc77fc407d),
    ];
    for (z, t) in straddles.into_iter().zip(thresholds) {
        assert_eq!(z.abs(), ulps(t, 1));
        assert_eq!(z.norm_sqr().sqrt(), t);
        matrices.push(Matrix::diag(&[z]));
        let mut d = vec![C64::new(0.001, -0.002); 8];
        d[2] = z;
        matrices.push(Matrix::diag(&d));
    }
    // Subnormal, zero and negative-zero entries beside a threshold, and
    // alone.
    let tiny = [
        C64::new(5e-324, -0.0),
        C64::new(-0.0, 0.0),
        C64::new(1e-310, -1e-310),
        C64::new(1e-160, 1e-160),
    ];
    matrices.push(Matrix::from_rows(&[
        &[C64::real(0.5), tiny[0]],
        &[tiny[1], tiny[2]],
    ]));
    matrices.push(Matrix::from_rows(&[
        &[tiny[3], tiny[0]],
        &[tiny[2], tiny[1]],
    ]));
    matrices.push(Matrix::from_rows(&[
        &[tiny[3], tiny[1]],
        &[C64::real(ulps(1.0, -1)), tiny[0]],
    ]));
    // Squares that overflow while the one-norm stays finite: hundreds of
    // squarings.
    matrices.push(Matrix::diag(&[C64::real(1e200)]));
    matrices.push(Matrix::from_rows(&[
        &[C64::new(1e160, -1e160), C64::ZERO],
        &[C64::real(0.3), C64::new(0.0, 2.0)],
    ]));
    // ±∞ and NaN: an infinite one-norm, a NaN column beside a finite one,
    // a column that is both (`hypot(∞, NaN)` is ∞), a lone NaN.
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    matrices.push(Matrix::from_rows(&[
        &[C64::ZERO, C64::real(inf)],
        &[C64::ZERO, C64::ZERO],
    ]));
    matrices.push(Matrix::diag(&[C64::real(-inf), C64::real(0.7)]));
    matrices.push(Matrix::from_rows(&[
        &[C64::new(nan, 0.0), C64::ZERO],
        &[C64::real(0.1), C64::real(3.0)],
    ]));
    matrices.push(Matrix::from_rows(&[
        &[C64::new(inf, nan), C64::ZERO],
        &[C64::real(0.1), C64::real(3.0)],
    ]));
    matrices.push(Matrix::diag(&[C64::new(0.2, nan)]));
    // One-norms whose `2^s` overflows.
    matrices.push(Matrix::diag(&[C64::real(8e307), C64::ZERO]));

    let mut coverage = reference::Coverage::default();
    for (k, a) in matrices.iter().enumerate() {
        check_expm(a, &mut coverage, &format!("hand-built {k}"));
    }
    assert!(coverage.near_thresholds >= 80, "{coverage:?}");
    assert!(coverage.non_finite_estimates >= 7, "{coverage:?}");
    assert!(coverage.overflowing_counts >= 3, "{coverage:?}");
}

#[test]
fn hand_built_pivots_keep_their_bits() {
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    // `re² + im²` of the second is one ulp above the first's.
    let one_ulp = [C64::ONE, C64::new(1.0, 1.5e-8)];
    assert_eq!(one_ulp[1].norm_sqr(), ulps(1.0, 1));
    let columns: Vec<Vec<C64>> = vec![
        // The squares put the second first; `hypot` keeps the first.
        vec![
            c(0x3fb6b82b2b4ea0dc, 0x3fefdfacede9a5f3),
            c(0x3fac914eaca6c289, 0x3feff33d05d03c8f),
        ],
        // Equal `hypot`, the second's square larger: the first stays.
        vec![
            c(0x3fda4a27941554da, 0x3fed2cf190e223f9),
            c(0x3fe218094e6163aa, 0x3fea64b5409fc436),
        ],
        // Equal squares, the second's `hypot` larger: the second wins.
        vec![
            c(0x3fa5af9a8e2f5ac6, 0x3feff8a608936a79),
            c(0x3fefda7324be2328, 0x3fb87bb24b1afe7a),
        ],
        // Exact ties both ways.
        vec![C64::new(3.0, 4.0), C64::real(5.0), C64::new(0.0, -5.0)],
        one_ulp.to_vec(),
        vec![one_ulp[1], one_ulp[0]],
        // Squares that underflow: `hypot` decides, and clears 1e-300.
        vec![C64::real(1e-200), C64::new(-2e-200, -0.0)],
        vec![C64::real(1e-150), C64::new(1e-155, 1e-155)],
        // A clear pivot beside subnormal squares.
        vec![
            C64::new(3e-160, -0.0),
            C64::real(1e-140),
            C64::new(-1e-310, 0.0),
        ],
        // Singular to working precision, and exactly.
        vec![C64::new(5e-324, 0.0), C64::new(-0.0, 1e-301)],
        vec![C64::new(-0.0, -0.0), C64::ZERO],
        // Squares that overflow.
        vec![C64::real(1e200), C64::real(-2e200)],
        vec![C64::new(1e160, 1e160), C64::real(1.5e160)],
        // ±∞ and NaN: `hypot(∞, NaN)` is ∞; a NaN never wins.
        vec![C64::ONE, C64::new(inf, nan)],
        vec![C64::new(nan, 0.0), C64::ONE],
        vec![C64::ONE, C64::new(nan, 1.0), C64::real(2.0)],
        vec![C64::new(0.5, -inf), C64::ONE],
    ];

    let mut rng = Rng::seed_from_u64(0x91_7075);
    let mut coverage = reference::Coverage::default();
    for (k, column) in columns.iter().enumerate() {
        // The column first in a well-conditioned matrix, at each size the
        // elimination specialises and at a runtime size.
        for n in [2, 3, 4, 8] {
            if column.len() > n {
                continue;
            }
            let mut a = Matrix::identity(n);
            for i in 0..n {
                for j in 1..n {
                    a[(i, j)] +=
                        C64::new(rng.random::<f64>() - 0.5, rng.random::<f64>() - 0.5).scale(0.2);
                }
                a[(i, 0)] = column.get(i).copied().unwrap_or(C64::ZERO);
            }
            let square = Matrix::from_flat((0..n * n).map(|i| C64::real(i as f64 - 1.5)).collect());
            let mut rhs_column = Matrix::zeros(n, 1);
            for i in 0..n {
                rhs_column[(i, 0)] = C64::new(1.0, i as f64);
            }
            let what = format!("column {k}, n = {n}");
            check_solve(&a, &square, &mut coverage, &what);
            check_solve(&a, &rhs_column, &mut coverage, &what);
        }
    }
    assert!(coverage.close_squares >= 8, "{coverage:?}");
    assert!(coverage.small_pivots >= 8, "{coverage:?}");
    assert!(coverage.non_finite_squares >= 8, "{coverage:?}");
}
