//! Slice-level loops behind [`Matrix::matmul_into`],
//! [`SplitMatrix::matmul_into`] and [`SplitMatrix::solve_into`].
//!
//! Each operation has exactly one scalar operation order. The product has
//! one loop per storage layout: interleaved `C64` entries for [`Matrix`]
//! and separate real and imaginary arrays for [`SplitMatrix`], whose
//! multiply-adds the compiler vectorizes on the baseline target. Each
//! loop runs either over a runtime dimension or, for the dimensions GRAPE
//! works at (d = 2, 4, 8), with the dimension fixed at compile time, so
//! the compiler can drop the bounds checks and unroll the inner loops.
//! Both forms perform the same operations in the same order, so they
//! return the same bits; the choice is made from the matrix dimension
//! alone.
//!
//! [`Matrix`]: crate::Matrix
//! [`Matrix::matmul_into`]: crate::Matrix::matmul_into
//! [`SplitMatrix`]: crate::SplitMatrix
//! [`SplitMatrix::matmul_into`]: crate::SplitMatrix::matmul_into
//! [`SplitMatrix::solve_into`]: crate::SplitMatrix::solve_into

use crate::complex::C64;

/// Views a row-major `N×N` buffer as `N` fixed-size rows.
fn square<T, const N: usize>(s: &[T]) -> &[[T; N]; N] {
    let (rows, _) = s.as_chunks::<N>();
    rows.try_into().expect("buffer holds exactly N×N entries")
}

/// Mutable form of [`square`].
fn square_mut<T, const N: usize>(s: &mut [T]) -> &mut [[T; N]; N] {
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
    matmul_arrays::<N>(square(a), square(b), square_mut(out));
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
/// down, for [`split_solve`]: the offset of the first entry of largest modulus, or `None`
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

/// The real and imaginary parts of a row-major matrix.
pub(crate) type Parts<'a> = [&'a [f64]; 2];

/// Mutable [`Parts`].
pub(crate) type PartsMut<'a> = [&'a mut [f64]; 2];

/// `o = o.mul_add(x, v)` entry by entry on split rows: per entry
/// `(o.re + x.re·v.re) − x.im·v.im` and `(o.im + x.re·v.im) + x.im·v.re`,
/// which the compiler computes for two entries at a time.
#[inline(always)]
fn mul_add_row([o_re, o_im]: PartsMut, x: C64, [v_re, v_im]: Parts) {
    let rows = o_re
        .iter_mut()
        .zip(o_im.iter_mut())
        .zip(v_re.iter().zip(v_im));
    for ((re, im), (&vr, &vi)) in rows {
        let o = C64::new(*re, *im).mul_add(x, C64::new(vr, vi));
        (*re, *im) = (o.re, o.im);
    }
}

/// `out = a · b` for split row-major `n×n` matrices.
///
/// The loop and scalar order of [`matmul`]: a left entry whose two parts
/// are both zero (either sign) is skipped, and each output entry
/// accumulates from `+0` in increasing inner index.
pub(crate) fn split_matmul(n: usize, a: Parts, b: Parts, out: PartsMut) {
    match n {
        2 => split_matmul_square::<2>(a, b, out),
        4 => split_matmul_square::<4>(a, b, out),
        8 => split_matmul_square::<8>(a, b, out),
        _ => {
            let [out_re, out_im] = out;
            let out_rows = out_re.chunks_exact_mut(n).zip(out_im.chunks_exact_mut(n));
            let lhs_rows = a[0].chunks_exact(n).zip(a[1].chunks_exact(n));
            for ((row_re, row_im), (lhs_re, lhs_im)) in out_rows.zip(lhs_rows) {
                row_re.fill(0.0);
                row_im.fill(0.0);
                let rhs_rows = b[0].chunks_exact(n).zip(b[1].chunks_exact(n));
                for ((&re, &im), rhs) in lhs_re.iter().zip(lhs_im).zip(rhs_rows) {
                    if re != 0.0 || im != 0.0 {
                        mul_add_row([row_re, row_im], C64::new(re, im), [rhs.0, rhs.1]);
                    }
                }
            }
        }
    }
}

/// [`split_matmul`] at the dimension `N`, over fixed-size rows; each
/// output row accumulates in a local array, which the compiler keeps in
/// registers.
fn split_matmul_square<const N: usize>(a: Parts, b: Parts, [out_re, out_im]: PartsMut) {
    let ([a_re, a_im], [b_re, b_im]) = (a.map(square::<f64, N>), b.map(square::<f64, N>));
    let out_rows = square_mut::<f64, N>(out_re)
        .iter_mut()
        .zip(square_mut::<f64, N>(out_im));
    for ((row_re, row_im), (lhs_re, lhs_im)) in out_rows.zip(a_re.iter().zip(a_im)) {
        let [mut acc_re, mut acc_im] = [[0.0; N]; 2];
        for ((&re, &im), rhs) in lhs_re.iter().zip(lhs_im).zip(b_re.iter().zip(b_im)) {
            if re != 0.0 || im != 0.0 {
                mul_add_row([&mut acc_re, &mut acc_im], C64::new(re, im), [rhs.0, rhs.1]);
            }
        }
        (*row_re, *row_im) = (acc_re, acc_im);
    }
}

/// Swaps rows `i < j` of a row-major matrix with rows of length `n`.
fn swap_rows(s: &mut [f64], n: usize, i: usize, j: usize) {
    let (head, tail) = s.split_at_mut(j * n);
    head[i * n..][..n].swap_with_slice(&mut tail[..n]);
}

/// Solves `A·X = B` in place by Gaussian elimination with partial
/// pivoting, for split row-major `n×n` matrices: `a` is destroyed and
/// `x` goes in as `B` and comes out as `X`. Returns `false` when
/// [`pivot`] finds a column singular to working precision; `a` and `x`
/// then hold partial work.
///
/// Each entry of `X` gets the scalar operations the elimination has
/// always performed, in the same order:
///
/// * Step `col` picks its pivot by [`pivot`], swaps it into row `col`,
///   takes `inv = 1/a[col][col]`, and subtracts `f = a[r][col]·inv` times
///   the pivot row from each row `r` below it, skipping a row whose `f`
///   is zero. The update runs over the whole row, so its loop has a fixed
///   length; the entries left of column `col` it also writes are never
///   read again.
/// * Row `col` does not change after step `col`, so `inv` is the
///   reciprocal back-substitution used to recompute: the step stores it
///   in the diagonal entry, which nothing else reads again.
/// * Back-substitution forms row `col` of `X` as
///   `(x[col][j] − Σ_k a[col][k]·x[k][j])·inv`, each sum a multiply-add
///   chain in increasing `k`; the `n` chains of a row run side by side.
pub(crate) fn split_solve(n: usize, a: PartsMut, x: PartsMut) -> bool {
    match n {
        2 => split_solve_square::<2>(a, x),
        4 => split_solve_square::<4>(a, x),
        8 => split_solve_square::<8>(a, x),
        _ => split_solve_runtime(n, a, x),
    }
}

/// [`split_solve`] at the dimension `N`, over fixed-size rows: the pivot
/// row is copied into registers before the rows below it are updated,
/// and back-substitution accumulates each row in a local array.
fn split_solve_square<const N: usize>([a_re, a_im]: PartsMut, [x_re, x_im]: PartsMut) -> bool {
    let [a_re, a_im, x_re, x_im] = [a_re, a_im, x_re, x_im].map(square_mut::<f64, N>);
    for col in 0..N {
        let column = (col..N).map(|r| C64::new(a_re[r][col], a_im[r][col]));
        let Some(offset) = pivot(column) else {
            return false;
        };
        if offset != 0 {
            for part in [&mut *a_re, &mut *a_im, &mut *x_re, &mut *x_im] {
                part.swap(col, col + offset);
            }
        }
        let inv = C64::new(a_re[col][col], a_im[col][col]).recip();
        let (a_pivot, x_pivot) = ([a_re[col], a_im[col]], [x_re[col], x_im[col]]);
        for r in col + 1..N {
            let f = C64::new(a_re[r][col], a_im[r][col]) * inv;
            if is_zero(f) {
                continue;
            }
            mul_add_row([&mut a_re[r], &mut a_im[r]], -f, [&a_pivot[0], &a_pivot[1]]);
            mul_add_row([&mut x_re[r], &mut x_im[r]], -f, [&x_pivot[0], &x_pivot[1]]);
        }
        (a_re[col][col], a_im[col][col]) = (inv.re, inv.im);
    }
    for col in (0..N).rev() {
        let (mut acc_re, mut acc_im) = (x_re[col], x_im[col]);
        for k in col + 1..N {
            let a_ck = C64::new(a_re[col][k], a_im[col][k]);
            mul_add_row([&mut acc_re, &mut acc_im], -a_ck, [&x_re[k], &x_im[k]]);
        }
        let inv = C64::new(a_re[col][col], a_im[col][col]);
        for (j, (&re, &im)) in acc_re.iter().zip(&acc_im).enumerate() {
            let v = C64::new(re, im) * inv;
            (x_re[col][j], x_im[col][j]) = (v.re, v.im);
        }
    }
    true
}

/// [`split_solve`] at a dimension read at run time, over the row slices
/// of the split arrays.
fn split_solve_runtime(n: usize, [a_re, a_im]: PartsMut, [x_re, x_im]: PartsMut) -> bool {
    for col in 0..n {
        let column = (col..n).map(|r| C64::new(a_re[r * n + col], a_im[r * n + col]));
        let Some(offset) = pivot(column) else {
            return false;
        };
        if offset != 0 {
            for part in [&mut *a_re, &mut *a_im, &mut *x_re, &mut *x_im] {
                swap_rows(part, n, col, col + offset);
            }
        }
        let diagonal = col * n + col;
        let inv = C64::new(a_re[diagonal], a_im[diagonal]).recip();
        let split = (col + 1) * n;
        let (a_head_re, a_below_re) = a_re.split_at_mut(split);
        let (a_head_im, a_below_im) = a_im.split_at_mut(split);
        let (x_head_re, x_below_re) = x_re.split_at_mut(split);
        let (x_head_im, x_below_im) = x_im.split_at_mut(split);
        let a_pivot = [&a_head_re[col * n..], &a_head_im[col * n..]];
        let x_pivot = [&x_head_re[col * n..], &x_head_im[col * n..]];
        let a_rows = a_below_re
            .chunks_exact_mut(n)
            .zip(a_below_im.chunks_exact_mut(n));
        let x_rows = x_below_re
            .chunks_exact_mut(n)
            .zip(x_below_im.chunks_exact_mut(n));
        for ((a_row_re, a_row_im), (x_row_re, x_row_im)) in a_rows.zip(x_rows) {
            let f = C64::new(a_row_re[col], a_row_im[col]) * inv;
            if is_zero(f) {
                continue;
            }
            mul_add_row([a_row_re, a_row_im], -f, a_pivot);
            mul_add_row([x_row_re, x_row_im], -f, x_pivot);
        }
        a_re[diagonal] = inv.re;
        a_im[diagonal] = inv.im;
    }
    // Back substitution: row `col` of X from the finished rows below it.
    for col in (0..n).rev() {
        let split = (col + 1) * n;
        let (x_head_re, x_below_re) = x_re.split_at_mut(split);
        let (x_head_im, x_below_im) = x_im.split_at_mut(split);
        let (acc_re, acc_im) = (&mut x_head_re[col * n..], &mut x_head_im[col * n..]);
        let below = x_below_re.chunks_exact(n).zip(x_below_im.chunks_exact(n));
        for (k, (x_k_re, x_k_im)) in (col + 1..n).zip(below) {
            let a_ck = C64::new(a_re[col * n + k], a_im[col * n + k]);
            mul_add_row([&mut *acc_re, &mut *acc_im], -a_ck, [x_k_re, x_k_im]);
        }
        let inv = C64::new(a_re[col * n + col], a_im[col * n + col]);
        for (re, im) in acc_re.iter_mut().zip(acc_im.iter_mut()) {
            let v = C64::new(*re, *im) * inv;
            (*re, *im) = (v.re, v.im);
        }
    }
    true
}
