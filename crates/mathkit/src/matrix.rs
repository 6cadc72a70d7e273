//! Dense complex matrices sized for few-qubit unitaries.
//!
//! Row-major storage; all hot paths (`matmul`, `kron`, `dagger`) are written
//! against flat slices so the optimizer can vectorize them. Dimensions in
//! this workspace are small powers of two (2–32), so `O(n³)` kernels are
//! entirely adequate and cache-friendly.

use crate::complex::C64;
use crate::kernels;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use paqoc_math::{C64, Matrix};
/// let x = Matrix::from_rows(&[
///     &[C64::ZERO, C64::ONE],
///     &[C64::ONE, C64::ZERO],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert_eq!(&x * &x, Matrix::identity(2));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// A `rows × cols` matrix whose storage is reserved but holds no
    /// entries yet: only for an allocating wrapper that hands it straight
    /// to an `_into` kernel, which writes every entry.
    fn unfilled(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: Vec::with_capacity(rows * cols),
        }
    }

    /// Replaces the entries with `entries`, which must number
    /// `rows × cols`. Reuses the storage when it is large enough.
    fn overwrite(&mut self, entries: impl Iterator<Item = C64>) {
        self.data.clear();
        self.data.extend(entries);
        debug_assert_eq!(self.data.len(), self.rows * self.cols);
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or have inconsistent lengths.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a square matrix from a flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a perfect square.
    pub fn from_flat(data: Vec<C64>) -> Self {
        let n = (data.len() as f64).sqrt().round() as usize;
        assert_eq!(n * n, data.len(), "flat data must form a square matrix");
        Matrix {
            rows: n,
            cols: n,
            data,
        }
    }

    /// Builds a diagonal matrix from the given entries.
    pub fn diag(entries: &[C64]) -> Self {
        let mut m = Matrix::zeros(entries.len(), entries.len());
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Flat row-major view of the entries.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable flat row-major view of the entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Conjugate transpose `A†`.
    pub fn dagger(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Matrix {
        let data = self.data.iter().map(|z| z.conj()).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Matrix trace.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Scales every entry by a complex factor.
    pub fn scaled(&self, s: C64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// In-place `self += other * s`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, s: C64, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "axpy shape mismatch");
        assert_eq!(self.cols, other.cols, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = a.mul_add(*b, s);
        }
    }

    /// Matrix product `self · rhs`.
    ///
    /// Allocates the result; [`Matrix::matmul_into`] is the same kernel
    /// writing into a caller buffer.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        paqoc_telemetry::kernel_alloc(
            "mathkit.matmul",
            1,
            (self.rows * rhs.cols * std::mem::size_of::<C64>()) as u64,
        );
        let mut out = Matrix::unfilled(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self · rhs`, written into `out` (overwritten).
    ///
    /// Zero entries of `self` are skipped, and every output entry
    /// accumulates from `+0` in increasing inner index, so the result is
    /// bit-for-bit that of [`Matrix::matmul`]. Square products at
    /// dimension 2, 4 or 8 run a loop specialised to that size.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or `out` is not
    /// `self.rows() × rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul inner dimensions must agree ({}×{} · {}×{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert!(
            out.rows == self.rows && out.cols == rhs.cols,
            "matmul output must be {}×{}, got {}×{}",
            self.rows,
            rhs.cols,
            out.rows,
            out.cols
        );
        paqoc_telemetry::kernel_probe!("mathkit.matmul", self.rows);
        out.overwrite(std::iter::repeat_n(C64::ZERO, self.rows * rhs.cols));
        kernels::matmul(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a.re == 0.0 && a.im == 0.0 {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Induced 1-norm (maximum absolute column sum), each modulus by
    /// `hypot`; a column whose sum is NaN is skipped. Computed on a
    /// [`SplitMatrix`] copy, by the rule [`crate::expm`] falls back on.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn one_norm(&self) -> f64 {
        SplitMatrix::from(self).one_norm()
    }

    /// Largest entry magnitude; NaN when an entry is NaN.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, nan_max)
    }

    /// `true` when `‖A†A − I‖_max ≤ tol`; `false` when an entry of
    /// `A†A` is NaN.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let p = self.dagger().matmul(self);
        let mut dev = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                let expect = if i == j { C64::ONE } else { C64::ZERO };
                dev = nan_max(dev, (p[(i, j)] - expect).abs());
            }
        }
        dev <= tol
    }

    /// `true` when `‖A − A†‖_max ≤ tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..=i {
                if (self[(i, j)] - self[(j, i)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum entry-wise distance to another matrix; NaN when an
    /// entry-wise distance is NaN, so `max_diff(..) < tol` fails on it.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows, "max_diff shape mismatch");
        assert_eq!(self.cols, other.cols, "max_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, nan_max)
    }

    /// Applies `self` to a state vector.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.cols()`.
    pub fn apply(&self, state: &[C64]) -> Vec<C64> {
        assert_eq!(state.len(), self.cols, "state length must equal cols");
        let mut out = vec![C64::ZERO; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = C64::ZERO;
            for (a, s) in row.iter().zip(state) {
                acc = acc.mul_add(*a, *s);
            }
            *o = acc;
        }
        out
    }
}

/// `f64::max` that keeps a NaN instead of returning the other operand,
/// so a fold over entries cannot skip one. Equal to `f64::max` when
/// neither operand is NaN.
pub fn nan_max(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}×{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>24}", format!("{}", self[(i, j)]))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "add shape mismatch");
        assert_eq!(self.cols, rhs.cols, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a + *b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "sub shape mismatch");
        assert_eq!(self.cols, rhs.cols, "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| *a - *b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scaled(C64::real(-1.0))
    }
}

/// A square complex matrix in split storage: one row-major array of real
/// parts and one of imaginary parts, so that the compiler vectorizes its
/// complex multiply-adds on the baseline target without lane shuffles.
/// GRAPE's kernels run on it. Each kernel evaluates every entry in the
/// scalar order `C64` uses, so a result converted to a [`Matrix`] has
/// the bits of the same computation on `Matrix`. A method given a second
/// matrix of another dimension panics.
///
/// # Examples
///
/// ```
/// use paqoc_math::{C64, Matrix, SplitMatrix};
/// let x = Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]]);
/// let split = SplitMatrix::from(&x);
/// let mut square = SplitMatrix::zeros(2);
/// split.matmul_into(&split, &mut square);
/// assert_eq!(Matrix::from(&square), x.matmul(&x));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SplitMatrix {
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitMatrix {
    /// The `n×n` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix dimensions must be nonzero");
        SplitMatrix {
            n,
            re: vec![0.0; n * n],
            im: vec![0.0; n * n],
        }
    }

    /// The `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = SplitMatrix::zeros(n);
        m.re.iter_mut().step_by(n + 1).for_each(|d| *d = 1.0);
        m
    }

    /// The dimension `n` of this `n×n` matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The row-major real and imaginary parts.
    #[inline]
    pub fn parts(&self) -> [&[f64]; 2] {
        [&self.re, &self.im]
    }

    /// Mutable row-major real and imaginary parts.
    #[inline]
    pub fn parts_mut(&mut self) -> [&mut [f64]; 2] {
        [&mut self.re, &mut self.im]
    }

    fn assert_dim(&self, other: &SplitMatrix, what: &str) {
        assert_eq!(self.n, other.n, "{what}: dimensions must agree");
    }

    /// Overwrites `self` with the entries of `other`, without allocating.
    pub fn copy_from(&mut self, other: &SplitMatrix) {
        self.assert_dim(other, "copy_from");
        self.re.copy_from_slice(&other.re);
        self.im.copy_from_slice(&other.im);
    }

    /// Matrix trace, summed as [`Matrix::trace`] sums it: a `C64` fold
    /// from zero down the diagonal.
    pub fn trace(&self) -> C64 {
        (0..self.n).fold(C64::ZERO, |acc, i| {
            let d = i * (self.n + 1);
            acc + C64::new(self.re[d], self.im[d])
        })
    }

    /// Induced 1-norm (maximum absolute column sum), each modulus by
    /// `hypot` and each column summed in row order; a column whose sum is
    /// NaN is skipped. [`crate::expm`] reads it only where its estimate on
    /// squared moduli lies near a squaring threshold or is not finite.
    pub(crate) fn one_norm(&self) -> f64 {
        let n = self.n;
        let mut best = 0.0f64;
        for j in 0..n {
            let s: f64 = (0..n)
                .map(|i| self.re[i * n + j].hypot(self.im[i * n + j]))
                .sum();
            best = best.max(s);
        }
        best
    }

    /// Writes `self · s` into `out`, each entry as `C64`'s product
    /// computes it.
    pub fn scaled_into(&self, s: C64, out: &mut SplitMatrix) {
        self.assert_dim(out, "scaled_into");
        let entries = self.re.iter().zip(&self.im);
        for ((o_re, o_im), (&re, &im)) in out.re.iter_mut().zip(&mut out.im).zip(entries) {
            let z = C64::new(re, im) * s;
            (*o_re, *o_im) = (z.re, z.im);
        }
    }

    /// In-place `self += other · s`, each entry as `C64::mul_add`
    /// computes it.
    pub fn axpy(&mut self, s: C64, other: &SplitMatrix) {
        self.assert_dim(other, "axpy");
        let entries = other.re.iter().zip(&other.im);
        for ((re, im), (&o_re, &o_im)) in self.re.iter_mut().zip(&mut self.im).zip(entries) {
            let z = C64::new(*re, *im).mul_add(C64::new(o_re, o_im), s);
            (*re, *im) = (z.re, z.im);
        }
    }

    /// Matrix product `self · rhs`, written into `out` (overwritten),
    /// with the bits of [`Matrix::matmul_into`]: a left entry whose two
    /// parts are both zero is skipped, and every output entry accumulates
    /// from `+0` in increasing inner index. Dimensions 2, 4 and 8 run a
    /// loop specialised to that size.
    pub fn matmul_into(&self, rhs: &SplitMatrix, out: &mut SplitMatrix) {
        self.assert_dim(rhs, "matmul");
        self.assert_dim(out, "matmul output");
        paqoc_telemetry::kernel_probe!("mathkit.matmul", self.n);
        kernels::split_matmul(self.n, self.parts(), rhs.parts(), out.parts_mut());
    }

    /// Solves `A·X = B` by Gaussian elimination with partial pivoting:
    /// `x` receives `X` and `lu` is overwritten with working state.
    /// Returns `false` when the system is singular to working precision;
    /// `x` then holds partial work. Each entry of `X` gets the scalar
    /// operations the elimination of [`crate::expm`] has always performed,
    /// in the same order; dimensions 2, 4 and 8 run a loop specialised to
    /// that size.
    #[must_use = "a singular system leaves `x` holding partial work"]
    pub fn solve_into(&self, b: &SplitMatrix, x: &mut SplitMatrix, lu: &mut SplitMatrix) -> bool {
        self.assert_dim(b, "solve");
        self.assert_dim(x, "solve output");
        self.assert_dim(lu, "solve scratch");
        paqoc_telemetry::kernel_probe!("mathkit.solve", self.n);
        lu.copy_from(self);
        x.copy_from(b);
        kernels::split_solve(self.n, lu.parts_mut(), x.parts_mut())
    }
}

impl From<&Matrix> for SplitMatrix {
    /// Splits a square matrix into its real and imaginary parts; panics
    /// if `m` is not square.
    fn from(m: &Matrix) -> Self {
        assert!(m.is_square(), "a split matrix is square");
        SplitMatrix {
            n: m.rows,
            re: m.data.iter().map(|z| z.re).collect(),
            im: m.data.iter().map(|z| z.im).collect(),
        }
    }
}

impl From<&SplitMatrix> for Matrix {
    fn from(m: &SplitMatrix) -> Self {
        Matrix {
            rows: m.n,
            cols: m.n,
            data: m
                .re
                .iter()
                .zip(&m.im)
                .map(|(&re, &im)| C64::new(re, im))
                .collect(),
        }
    }
}

/// The allocating `matmul` and `solve` bodies as they were before the
/// `_into` and split kernels, kept as oracles for the bit-identity tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        assert_eq!(lhs.cols, rhs.rows);
        let mut out = Matrix::zeros(lhs.rows, rhs.cols);
        let n = rhs.cols;
        for i in 0..lhs.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for k in 0..lhs.cols {
                let a = lhs.data[i * lhs.cols + k];
                if a.re == 0.0 && a.im == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * n..(k + 1) * n];
                for j in 0..n {
                    out_row[j] = out_row[j].mul_add(a, rhs_row[j]);
                }
            }
        }
        out
    }

    pub(crate) fn solve(lhs: &Matrix, b: &Matrix) -> Option<Matrix> {
        let n = lhs.rows;
        let m = b.cols;
        let mut a = lhs.clone();
        let mut x = b.clone();
        for col in 0..n {
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
                    a.data.swap(col * n + j, piv * n + j);
                }
                for j in 0..m {
                    x.data.swap(col * m + j, piv * m + j);
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

    /// Every entry's bit pattern, for exact comparisons, with every NaN
    /// one value: which NaN an operation yields is not specified.
    pub(crate) fn bits(m: &Matrix) -> Vec<(u64, u64)> {
        let bits = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
        m.data.iter().map(|z| (bits(z.re), bits(z.im))).collect()
    }

    /// A seeded `rows×cols` matrix whose entries mix exact zeros of both
    /// signs (the products the kernels skip) with values of both signs.
    pub(crate) fn sample(rows: usize, cols: usize, rng: &mut crate::Rng) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for z in &mut m.data {
            let mut part = || match rng.random_range(0..6u32) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.random::<f64>() * 4.0 - 2.0,
            };
            *z = C64::new(part(), part());
        }
        m
    }

    /// [`sample`], and when `hostile` about one part in eight then
    /// replaced by +∞, −∞ or NaN.
    pub(crate) fn sample_with(
        rows: usize,
        cols: usize,
        hostile: bool,
        rng: &mut crate::Rng,
    ) -> Matrix {
        let mut m = sample(rows, cols, rng);
        if hostile {
            for z in &mut m.data {
                for part in [&mut z.re, &mut z.im] {
                    match rng.random_range(0..24u32) {
                        0 => *part = f64::INFINITY,
                        1 => *part = f64::NEG_INFINITY,
                        2 => *part = f64::NAN,
                        _ => {}
                    }
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x_gate() -> Matrix {
        Matrix::from_rows(&[&[C64::ZERO, C64::ONE], &[C64::ONE, C64::ZERO]])
    }

    #[test]
    fn a_nan_entry_is_never_folded_away() {
        let nan = C64::real(f64::NAN);
        let all_nan = Matrix::from_rows(&[&[nan, nan], &[nan, nan]]);
        assert!(
            !all_nan.is_unitary(1e-10),
            "an all-NaN matrix is not unitary"
        );
        assert!(all_nan.max_abs().is_nan());
        assert!(all_nan.max_diff(&Matrix::identity(2)).is_nan());
        assert!(Matrix::identity(2).max_diff(&all_nan).is_nan());
        // One NaN among finite entries, first or last in the fold.
        for at in [(0, 0), (1, 1)] {
            let mut one_nan = Matrix::identity(2);
            one_nan[at] = C64::new(0.0, f64::NAN);
            assert!(!one_nan.is_unitary(1e-10), "NaN at {at:?}");
            assert!(one_nan.max_abs().is_nan(), "NaN at {at:?}");
            assert!(
                one_nan.max_diff(&Matrix::identity(2)).is_nan(),
                "NaN at {at:?}"
            );
        }
        // Finite inputs keep their values.
        let h = h_gate();
        assert!(h.is_unitary(1e-12));
        assert_eq!(
            h.max_abs().to_bits(),
            std::f64::consts::FRAC_1_SQRT_2.to_bits()
        );
        assert_eq!(h.max_diff(&h).to_bits(), 0.0f64.to_bits());
        let inf = Matrix::diag(&[C64::ONE, C64::real(f64::INFINITY)]);
        assert_eq!(inf.max_abs(), f64::INFINITY);
    }

    fn h_gate() -> Matrix {
        let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        Matrix::from_rows(&[&[s, s], &[s, -s]])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let h = h_gate();
        let i2 = Matrix::identity(2);
        assert!(h.matmul(&i2).max_diff(&h) < 1e-15);
        assert!(i2.matmul(&h).max_diff(&h) < 1e-15);
    }

    #[test]
    fn x_is_self_inverse() {
        let x = x_gate();
        assert!(x.matmul(&x).max_diff(&Matrix::identity(2)) < 1e-15);
    }

    #[test]
    fn hadamard_is_unitary_and_hermitian() {
        let h = h_gate();
        assert!(h.is_unitary(1e-12));
        assert!(h.is_hermitian(1e-12));
    }

    #[test]
    fn dagger_reverses_products() {
        let h = h_gate();
        let x = x_gate();
        let lhs = h.matmul(&x).dagger();
        let rhs = x.dagger().matmul(&h.dagger());
        assert!(lhs.max_diff(&rhs) < 1e-14);
    }

    #[test]
    fn kron_shapes_and_identity() {
        let i2 = Matrix::identity(2);
        let k = i2.kron(&i2);
        assert_eq!(k.rows(), 4);
        assert!(k.max_diff(&Matrix::identity(4)) < 1e-15);
    }

    #[test]
    fn kron_of_x_and_identity() {
        let x = x_gate();
        let k = x.kron(&Matrix::identity(2));
        // X⊗I maps |00> -> |10>, i.e. column 0 has a 1 at row 2.
        assert_eq!(k[(2, 0)], C64::ONE);
        assert_eq!(k[(0, 0)], C64::ZERO);
        assert!(k.is_unitary(1e-12));
    }

    #[test]
    fn trace_of_identity() {
        assert_eq!(Matrix::identity(5).trace(), C64::real(5.0));
    }

    /// `a \\ b` by the split solve, `None` when it reports a singular
    /// system.
    fn split_solve(a: &Matrix, b: &Matrix) -> Option<Matrix> {
        let n = a.rows();
        let (mut x, mut lu) = (SplitMatrix::zeros(n), SplitMatrix::zeros(n));
        let ok = SplitMatrix::from(a).solve_into(&SplitMatrix::from(b), &mut x, &mut lu);
        ok.then(|| Matrix::from(&x))
    }

    #[test]
    fn solve_recovers_rhs() {
        // A = H (unitary, well conditioned); X should satisfy H X = B.
        let h = h_gate();
        let b = x_gate();
        let x = split_solve(&h, &b).expect("H is invertible");
        assert!(h.matmul(&x).max_diff(&b) < 1e-12);
    }

    #[test]
    fn solve_detects_singularity() {
        let singular = Matrix::from_rows(&[&[C64::ONE, C64::ONE], &[C64::ONE, C64::ONE]]);
        assert!(split_solve(&singular, &Matrix::identity(2)).is_none());
    }

    #[test]
    fn apply_matches_matmul_column() {
        let h = h_gate();
        let state = vec![C64::ONE, C64::ZERO];
        let out = h.apply(&state);
        assert!((out[0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-14);
        assert!((out[1].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-14);
    }

    #[test]
    fn norms_agree_on_identity() {
        let i4 = Matrix::identity(4);
        assert!((i4.frobenius_norm() - 2.0).abs() < 1e-14);
        assert!((i4.one_norm() - 1.0).abs() < 1e-14);
        assert!((i4.max_abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn axpy_accumulates() {
        let mut m = Matrix::identity(2);
        m.axpy(C64::real(2.0), &x_gate());
        assert_eq!(m[(0, 1)], C64::real(2.0));
        assert_eq!(m[(0, 0)], C64::ONE);
    }

    #[test]
    #[should_panic(expected = "matmul inner dimensions")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_matches_the_reference_bit_for_bit() {
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0001);
        let square = [1, 2, 3, 4, 5, 8, 16].map(|n| (n, n, n));
        let rect = [
            (2, 3, 5),
            (1, 4, 1),
            (4, 1, 4),
            (8, 4, 8),
            (3, 8, 2),
            (16, 2, 3),
        ];
        for (n, m, p) in square.into_iter().chain(rect) {
            for _ in 0..8 {
                let a = reference::sample(n, m, &mut rng);
                let b = reference::sample(m, p, &mut rng);
                let want = reference::bits(&reference::matmul(&a, &b));
                // A dirty output buffer must not leak into the result.
                let mut out = reference::sample(n, p, &mut rng);
                a.matmul_into(&b, &mut out);
                assert_eq!(reference::bits(&out), want, "{n}×{m} · {m}×{p}");
                assert_eq!(reference::bits(&a.matmul(&b)), want, "{n}×{m} · {m}×{p}");
            }
        }
    }

    #[test]
    fn matmul_fixed_matches_the_reference_bit_for_bit() {
        fn check<const N: usize>(rng: &mut crate::Rng) {
            let a = reference::sample(N, N, rng);
            let b = reference::sample(N, N, rng);
            let rows = |m: &Matrix| -> [[C64; N]; N] {
                std::array::from_fn(|i| std::array::from_fn(|j| m[(i, j)]))
            };
            let out = crate::matmul_fixed(&rows(&a), &rows(&b));
            let flat = Matrix::from_flat(out.iter().flatten().copied().collect());
            assert_eq!(
                reference::bits(&flat),
                reference::bits(&reference::matmul(&a, &b)),
                "N = {N}"
            );
        }
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0005);
        for _ in 0..16 {
            check::<1>(&mut rng);
            check::<2>(&mut rng);
            check::<4>(&mut rng);
            check::<8>(&mut rng);
        }
    }

    #[test]
    fn matmul_into_propagates_non_finite_entries_like_the_reference() {
        // Rust leaves the sign and payload of a NaN that arithmetic makes
        // unspecified, and the optimizer may commute operands, which
        // changes which NaN propagates. So a NaN entry is compared as
        // NaN, and every other entry, ±inf included, by bits.
        let bits = |m: &Matrix| -> Vec<(u64, u64)> {
            let canonical = |x: f64| {
                if x.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            };
            m.data
                .iter()
                .map(|z| (canonical(z.re), canonical(z.im)))
                .collect()
        };
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0002);
        for n in [2, 3, 4, 8] {
            let mut a = reference::sample(n, n, &mut rng);
            let mut b = reference::sample(n, n, &mut rng);
            a[(0, n - 1)] = C64::new(f64::NAN, 0.0);
            b[(n - 1, 0)] = C64::new(f64::INFINITY, -0.0);
            let want = bits(&reference::matmul(&a, &b));
            assert!(want.iter().any(|&(re, _)| f64::from_bits(re).is_nan()));
            assert_eq!(bits(&a.matmul(&b)), want, "n = {n}");
        }
    }

    /// The dimensions the split kernels are checked at: the three they
    /// specialise, and runtime sizes on either side.
    const SPLIT_DIMS: [usize; 7] = [1, 2, 3, 4, 5, 8, 16];

    #[test]
    fn split_matmul_into_matches_the_reference_bit_for_bit() {
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0011);
        for n in SPLIT_DIMS {
            for round in 0..12 {
                // Every third pair also holds ±∞ and NaN entries.
                let hostile = round % 3 == 2;
                let a = reference::sample_with(n, n, hostile, &mut rng);
                let b = reference::sample_with(n, n, hostile, &mut rng);
                let want = reference::bits(&reference::matmul(&a, &b));
                // A dirty output buffer must not leak into the result.
                let mut out = SplitMatrix::from(&reference::sample(n, n, &mut rng));
                SplitMatrix::from(&a).matmul_into(&SplitMatrix::from(&b), &mut out);
                assert_eq!(reference::bits(&Matrix::from(&out)), want, "n = {n}");
            }
        }
    }

    #[test]
    fn split_matmul_into_propagates_non_finite_entries_like_the_reference() {
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0012);
        for n in SPLIT_DIMS {
            let mut a = reference::sample(n, n, &mut rng);
            let mut b = reference::sample(n, n, &mut rng);
            a[(0, n - 1)] = C64::new(f64::NAN, 0.0);
            b[(n - 1, 0)] = C64::new(f64::INFINITY, -0.0);
            let want = reference::bits(&reference::matmul(&a, &b));
            assert!(want.iter().any(|&(re, _)| f64::from_bits(re).is_nan()));
            let mut out = SplitMatrix::zeros(n);
            SplitMatrix::from(&a).matmul_into(&SplitMatrix::from(&b), &mut out);
            assert_eq!(reference::bits(&Matrix::from(&out)), want, "n = {n}");
        }
    }

    #[test]
    fn split_solve_into_matches_the_reference_bit_for_bit() {
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0013);
        for n in SPLIT_DIMS {
            for round in 0..12 {
                let hostile = round % 3 == 2;
                let a = reference::sample_with(n, n, hostile, &mut rng);
                let b = reference::sample_with(n, n, hostile, &mut rng);
                let want = reference::solve(&a, &b).map(|x| reference::bits(&x));
                // Dirty buffers must not leak into the result.
                let mut x = SplitMatrix::from(&reference::sample(n, n, &mut rng));
                let mut lu = SplitMatrix::from(&reference::sample(n, n, &mut rng));
                let ok = SplitMatrix::from(&a).solve_into(&SplitMatrix::from(&b), &mut x, &mut lu);
                let got = ok.then(|| reference::bits(&Matrix::from(&x)));
                assert_eq!(got, want, "{n}×{n}, round {round}");
            }
        }
    }

    #[test]
    fn split_solve_into_reports_singular_systems_like_the_reference() {
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0014);
        for n in SPLIT_DIMS {
            // A zero last pivot, and random entries beside a zero row or a
            // zero column.
            let mut systems = vec![Matrix::identity(n)];
            systems[0][(n - 1, n - 1)] = C64::ZERO;
            for zero_row in [true, false] {
                let mut a = reference::sample(n, n, &mut rng);
                for k in 0..n {
                    let at = if zero_row { (n / 2, k) } else { (k, n / 2) };
                    a[at] = C64::new(-0.0, 0.0);
                }
                systems.push(a);
            }
            let b = reference::sample(n, n, &mut rng);
            for a in &systems {
                assert!(reference::solve(a, &b).is_none(), "{a:?}");
                assert!(split_solve(a, &b).is_none(), "{a:?}");
            }
        }
    }

    #[test]
    fn split_elementwise_kernels_match_matrix_bit_for_bit() {
        let mut rng = crate::Rng::seed_from_u64(0x5eed_0004);
        for n in SPLIT_DIMS {
            let a = reference::sample_with(n, n, true, &mut rng);
            let b = reference::sample_with(n, n, true, &mut rng);
            let split = SplitMatrix::from(&a);
            assert_eq!(reference::bits(&Matrix::from(&split)), reference::bits(&a));
            assert_eq!(
                SplitMatrix::identity(n),
                SplitMatrix::from(&Matrix::identity(n))
            );
            let trace = |z: C64| reference::bits(&Matrix::diag(&[z]));
            assert_eq!(trace(split.trace()), trace(a.trace()), "n = {n}");
            for s in [
                C64::new(0.0, -3.1),
                C64::real(0.25),
                C64::new(-0.0, f64::INFINITY),
            ] {
                let mut out = SplitMatrix::from(&reference::sample(n, n, &mut rng));
                split.scaled_into(s, &mut out);
                let want = reference::bits(&a.scaled(s));
                assert_eq!(
                    reference::bits(&Matrix::from(&out)),
                    want,
                    "n = {n}, s = {s:?}"
                );
                let mut acc = SplitMatrix::from(&b);
                acc.axpy(s, &split);
                let mut want = b.clone();
                want.axpy(s, &a);
                let want = reference::bits(&want);
                assert_eq!(
                    reference::bits(&Matrix::from(&acc)),
                    want,
                    "n = {n}, s = {s:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "matmul output must be")]
    fn matmul_into_rejects_a_wrong_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        a.matmul_into(&b, &mut Matrix::zeros(2, 3));
    }
}
