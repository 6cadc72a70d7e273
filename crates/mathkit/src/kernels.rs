//! Slice-level loops behind [`Matrix::matmul_into`] and
//! [`Matrix::solve_into`].
//!
//! Each operation has exactly one scalar operation order. It runs either
//! over a runtime dimension or, for the dimensions GRAPE works at
//! (d = 2, 4, 8), over `[[C64; N]; N]` views whose size lives in the type,
//! so the compiler can drop the bounds checks and unroll the inner loops.
//! Both forms perform the same `C64` operations in the same order, so they
//! return the same bits; the choice is made from the matrix dimension
//! alone.
//!
//! [`Matrix::matmul_into`]: crate::Matrix::matmul_into
//! [`Matrix::solve_into`]: crate::Matrix::solve_into

use crate::complex::C64;

/// Views a row-major `N×N` buffer as `N` fixed-size rows.
fn square<const N: usize>(s: &[C64]) -> &[[C64; N]; N] {
    let (rows, _) = s.as_chunks::<N>();
    rows.try_into().expect("buffer holds exactly N×N entries")
}

/// Mutable form of [`square`].
fn square_mut<const N: usize>(s: &mut [C64]) -> &mut [[C64; N]; N] {
    let (rows, _) = s.as_chunks_mut::<N>();
    rows.try_into().expect("buffer holds exactly N×N entries")
}

/// `true` when `z` is exactly zero (either sign): the products the
/// kernels skip.
#[inline]
fn is_zero(z: C64) -> bool {
    z.re == 0.0 && z.im == 0.0
}

/// `out += a · b` for row-major `a` (`n×m`) and `b` (`m×p`); `out`
/// comes in as `+0` everywhere, so it leaves as the product.
///
/// i-k-j loop order: streams over the output row and the rhs row, which
/// is the cache-friendly order for row-major data. Zero entries of `a` are
/// skipped; each output entry accumulates from `+0` in increasing `k`.
pub(crate) fn matmul(n: usize, m: usize, p: usize, a: &[C64], b: &[C64], out: &mut [C64]) {
    if n == m && m == p {
        match n {
            2 => return matmul_square::<2>(a, b, out),
            4 => return matmul_square::<4>(a, b, out),
            8 => return matmul_square::<8>(a, b, out),
            _ => {}
        }
    }
    for (out_row, a_row) in out.chunks_exact_mut(p).zip(a.chunks_exact(m)) {
        for (&x, rhs_row) in a_row.iter().zip(b.chunks_exact(p)) {
            if is_zero(x) {
                continue;
            }
            for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                *o = o.mul_add(x, r);
            }
        }
    }
}

fn matmul_square<const N: usize>(a: &[C64], b: &[C64], out: &mut [C64]) {
    matmul_arrays(square::<N>(a), square::<N>(b), square_mut::<N>(out));
}

/// The product `a · b` of two `N×N` matrices held in fixed-size arrays,
/// with the loop and scalar order of [`Matrix::matmul`]: zero entries of
/// `a` are skipped and every output entry accumulates from `+0` in
/// increasing inner index. So it returns the bits `Matrix::matmul`
/// returns for the same entries, without a heap buffer or a kernel
/// probe.
///
/// [`Matrix::matmul`]: crate::Matrix::matmul
pub fn matmul_fixed<const N: usize>(a: &[[C64; N]; N], b: &[[C64; N]; N]) -> [[C64; N]; N] {
    let mut out = [[C64::ZERO; N]; N];
    matmul_arrays(a, b, &mut out);
    out
}

/// `out += a · b` over fixed-size rows: the one loop behind
/// [`matmul_square`] and [`matmul_fixed`].
fn matmul_arrays<const N: usize>(a: &[[C64; N]; N], b: &[[C64; N]; N], out: &mut [[C64; N]; N]) {
    for (out_row, a_row) in out.iter_mut().zip(a) {
        for (&x, rhs_row) in a_row.iter().zip(b) {
            if is_zero(x) {
                continue;
            }
            for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                *o = o.mul_add(x, r);
            }
        }
    }
}

/// Relative distance within which two pivot candidates' squared moduli
/// do not decide between them.
const PIVOT_BAND: f64 = 1e-9;

/// The least a column's largest square must be for the pivot search to
/// decide on squares: its root, above `1e-145`, clears the `1e-300`
/// singularity test, and a square this large is a normal number.
const PIVOT_MIN_SQ: f64 = 1e-290;

/// The partial pivot of one column, given its entries from the diagonal
/// down: the offset of the first entry of largest modulus, or `None`
/// when that modulus is below `1e-300` (singular to working precision).
///
/// Decided on squared moduli, without `hypot`, when every square is
/// finite, the largest is at least [`PIVOT_MIN_SQ`] and no candidate's
/// square lies within a relative [`PIVOT_BAND`] of the running pivot's.
/// Then every other square lies clearly below the chosen one, so the
/// `hypot` values order the same way: `re² + im²` lies within a few ulps
/// of `hypot(re, im)²`, or within `1e-323` of it where a square
/// underflows. Any other column is decided by [`hypot_pivot`].
fn pivot(column: impl Iterator<Item = C64> + Clone) -> Option<usize> {
    let mut squares = column.clone().map(C64::norm_sqr).enumerate();
    let (_, mut piv_sq) = squares.next().expect("a pivot column is never empty");
    let mut piv = 0;
    let mut decided = piv_sq.is_finite();
    for (r, sq) in squares {
        decided &= sq.is_finite() && (sq - piv_sq).abs() > PIVOT_BAND * sq.max(piv_sq);
        if sq > piv_sq {
            piv = r;
            piv_sq = sq;
        }
    }
    if decided && piv_sq >= PIVOT_MIN_SQ {
        return Some(piv);
    }
    hypot_pivot(column)
}

/// [`pivot`] decided by comparing `hypot` values, as the elimination
/// always did. A NaN modulus never replaces the running pivot, and a NaN
/// pivot is not singular.
fn hypot_pivot(column: impl Iterator<Item = C64>) -> Option<usize> {
    let mut mags = column.map(C64::abs).enumerate();
    let (_, mut piv_mag) = mags.next().expect("a pivot column is never empty");
    let mut piv = 0;
    for (r, mag) in mags {
        if mag > piv_mag {
            piv = r;
            piv_mag = mag;
        }
    }
    if piv_mag < 1e-300 {
        None
    } else {
        Some(piv)
    }
}

/// Solves `A·X = B` in place by Gaussian elimination with partial
/// pivoting: `a` (`n×n`) is destroyed and `x` (`n×m`) goes in as `B` and
/// comes out as `X`. Returns `false` when a pivot falls below `1e-300`
/// (singular to working precision); `a` and `x` then hold partial work.
/// Both loop forms pick their pivots through [`pivot`].
pub(crate) fn solve(n: usize, m: usize, a: &mut [C64], x: &mut [C64]) -> bool {
    if n == m {
        match n {
            2 => return solve_square::<2>(a, x),
            4 => return solve_square::<4>(a, x),
            8 => return solve_square::<8>(a, x),
            _ => {}
        }
    }
    for col in 0..n {
        let Some(offset) = pivot((col..n).map(|r| a[r * n + col])) else {
            return false;
        };
        let piv = col + offset;
        if piv != col {
            for j in 0..n {
                a.swap(col * n + j, piv * n + j);
            }
            for j in 0..m {
                x.swap(col * m + j, piv * m + j);
            }
        }
        let inv = a[col * n + col].recip();
        for r in (col + 1)..n {
            let f = a[r * n + col] * inv;
            if is_zero(f) {
                continue;
            }
            for j in col..n {
                let v = a[col * n + j];
                a[r * n + j] = a[r * n + j].mul_add(-f, v);
            }
            for j in 0..m {
                let v = x[col * m + j];
                x[r * m + j] = x[r * m + j].mul_add(-f, v);
            }
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let inv = a[col * n + col].recip();
        for j in 0..m {
            let mut acc = x[col * m + j];
            for k in (col + 1)..n {
                acc = acc.mul_add(-a[col * n + k], x[k * m + j]);
            }
            x[col * m + j] = acc * inv;
        }
    }
    true
}

fn solve_square<const N: usize>(a: &mut [C64], x: &mut [C64]) -> bool {
    let (a, x) = (square_mut::<N>(a), square_mut::<N>(x));
    for col in 0..N {
        let Some(offset) = pivot(a[col..].iter().map(|row| row[col])) else {
            return false;
        };
        let piv = col + offset;
        if piv != col {
            a.swap(col, piv);
            x.swap(col, piv);
        }
        let inv = a[col][col].recip();
        let (a_piv, x_piv) = (a[col], x[col]);
        for r in (col + 1)..N {
            let f = a[r][col] * inv;
            if is_zero(f) {
                continue;
            }
            for j in col..N {
                a[r][j] = a[r][j].mul_add(-f, a_piv[j]);
            }
            for (v, &p) in x[r].iter_mut().zip(&x_piv) {
                *v = v.mul_add(-f, p);
            }
        }
    }
    // Back substitution: row `col` of X from the finished rows below it.
    for col in (0..N).rev() {
        let inv = a[col][col].recip();
        let (head, below) = x.split_at_mut(col + 1);
        for (j, v) in head[col].iter_mut().enumerate() {
            let mut acc = *v;
            for (&a_ck, x_k) in a[col][col + 1..].iter().zip(below.iter()) {
                acc = acc.mul_add(-a_ck, x_k[j]);
            }
            *v = acc * inv;
        }
    }
    true
}
