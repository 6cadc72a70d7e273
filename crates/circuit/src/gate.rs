//! The gate vocabulary: every named operation a circuit may contain.
//!
//! Gates are *descriptions*; their numeric semantics live in
//! [`GateKind::unitary`]. Rotation angles carry an optional symbolic tag
//! ([`Angle`]) so that parameterized circuits keep structural identity for
//! the frequent-subcircuit miner ("rz(a)" matches "rz(a)" but not
//! "rz(b)"), exactly as the paper's node-labeling scheme requires.

use paqoc_math::{Matrix, C64};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
use std::fmt;

/// A rotation angle: a concrete value plus an optional symbolic label.
///
/// The numeric `value` drives pulse generation; the `symbol`, when
/// present, drives structural labels so parameterized circuits mine
/// correctly.
///
/// # Examples
///
/// ```
/// use paqoc_circuit::Angle;
/// let a = Angle::sym("gamma", 0.7);
/// assert_eq!(a.label(), "gamma");
/// assert_eq!(Angle::new(0.5).label(), "0.5000");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Angle {
    /// Concrete numeric value in radians.
    pub value: f64,
    /// Optional symbolic name (e.g. `"gamma"` for a variational parameter).
    pub symbol: Option<String>,
}

impl Angle {
    /// A concrete, unnamed angle.
    pub fn new(value: f64) -> Self {
        Angle {
            value,
            symbol: None,
        }
    }

    /// A symbolic angle with a concrete fallback value.
    pub fn sym(symbol: impl Into<String>, value: f64) -> Self {
        Angle {
            value,
            symbol: Some(symbol.into()),
        }
    }

    /// The mining label: the symbol when present, else the value to 4
    /// decimal places (enough to separate distinct constants, coarse
    /// enough to identify recurring ones across float noise).
    pub fn label(&self) -> String {
        let mut out = String::new();
        self.write_label(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes [`label`](Self::label)'s text to `w` without building a
    /// `String`.
    pub fn write_label(&self, w: &mut impl fmt::Write) -> fmt::Result {
        match &self.symbol {
            Some(s) => w.write_str(s),
            None => write!(w, "{:.4}", self.value),
        }
    }

    /// Derives a scaled angle, preserving symbolic identity
    /// (`gamma → gamma*0.5`). Used by decomposition passes.
    pub fn scaled(&self, factor: f64) -> Angle {
        Angle {
            value: self.value * factor,
            symbol: self.symbol.as_ref().map(|s| format!("{s}*{factor}")),
        }
    }
}

impl From<f64> for Angle {
    fn from(value: f64) -> Self {
        Angle::new(value)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The named gate set supported by the IR.
///
/// One-, two- and three-qubit gates; parameterized kinds state how many
/// [`Angle`] parameters they take via [`GateKind::num_params`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are the documentation (standard gate names)
pub enum GateKind {
    Id,
    X,
    Y,
    Z,
    H,
    S,
    Sdg,
    T,
    Tdg,
    Sx,
    Sxdg,
    Rx,
    Ry,
    Rz,
    /// Phase gate `P(θ) = diag(1, e^{iθ})` (a.k.a. U1).
    Phase,
    U2,
    U3,
    Cx,
    Cy,
    Cz,
    Ch,
    /// Controlled-phase gate (a.k.a. CU1 / CPHASE).
    CPhase,
    Crz,
    Rxx,
    Ryy,
    Rzz,
    Swap,
    ISwap,
    /// Toffoli.
    Ccx,
    Ccz,
    /// Fredkin.
    Cswap,
}

impl GateKind {
    /// Lower-case QASM-style mnemonic.
    pub fn name(self) -> &'static str {
        use GateKind::*;
        match self {
            Id => "id",
            X => "x",
            Y => "y",
            Z => "z",
            H => "h",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            Sx => "sx",
            Sxdg => "sxdg",
            Rx => "rx",
            Ry => "ry",
            Rz => "rz",
            Phase => "p",
            U2 => "u2",
            U3 => "u3",
            Cx => "cx",
            Cy => "cy",
            Cz => "cz",
            Ch => "ch",
            CPhase => "cp",
            Crz => "crz",
            Rxx => "rxx",
            Ryy => "ryy",
            Rzz => "rzz",
            Swap => "swap",
            ISwap => "iswap",
            Ccx => "ccx",
            Ccz => "ccz",
            Cswap => "cswap",
        }
    }

    /// Parses a QASM-style mnemonic.
    pub fn from_name(name: &str) -> Option<GateKind> {
        use GateKind::*;
        Some(match name {
            "id" => Id,
            "x" => X,
            "y" => Y,
            "z" => Z,
            "h" => H,
            "s" => S,
            "sdg" => Sdg,
            "t" => T,
            "tdg" => Tdg,
            "sx" => Sx,
            "sxdg" => Sxdg,
            "rx" => Rx,
            "ry" => Ry,
            "rz" => Rz,
            "p" | "u1" => Phase,
            "u2" => U2,
            "u3" | "u" => U3,
            "cx" | "cnot" => Cx,
            "cy" => Cy,
            "cz" => Cz,
            "ch" => Ch,
            "cp" | "cu1" => CPhase,
            "crz" => Crz,
            "rxx" => Rxx,
            "ryy" => Ryy,
            "rzz" => Rzz,
            "swap" => Swap,
            "iswap" => ISwap,
            "ccx" | "toffoli" => Ccx,
            "ccz" => Ccz,
            "cswap" | "fredkin" => Cswap,
            _ => return None,
        })
    }

    /// Number of qubits the gate acts on.
    pub fn num_qubits(self) -> usize {
        use GateKind::*;
        match self {
            Id | X | Y | Z | H | S | Sdg | T | Tdg | Sx | Sxdg | Rx | Ry | Rz | Phase | U2 | U3 => {
                1
            }
            Cx | Cy | Cz | Ch | CPhase | Crz | Rxx | Ryy | Rzz | Swap | ISwap => 2,
            Ccx | Ccz | Cswap => 3,
        }
    }

    /// Number of angle parameters the gate takes.
    pub fn num_params(self) -> usize {
        use GateKind::*;
        match self {
            Rx | Ry | Rz | Phase | CPhase | Crz | Rxx | Ryy | Rzz => 1,
            U2 => 2,
            U3 => 3,
            _ => 0,
        }
    }

    /// `true` when the gate has an asymmetric control/target role (so the
    /// miner must label shared-qubit edges with the role indices).
    pub fn has_control_roles(self) -> bool {
        use GateKind::*;
        matches!(self, Cx | Cy | Cz | Ch | CPhase | Crz | Ccx | Ccz | Cswap)
    }

    /// `true` when the gate is symmetric under exchange of its qubits
    /// (its unitary is invariant under the qubit swap permutation).
    pub fn is_symmetric(self) -> bool {
        use GateKind::*;
        matches!(self, Cz | CPhase | Rxx | Ryy | Rzz | Swap | ISwap | Ccz)
    }

    /// The gate's unitary for the given parameters.
    ///
    /// Convention: the first listed qubit is the most-significant bit of
    /// the matrix index, so `Cx` is the textbook
    /// `|0⟩⟨0|⊗I + |1⟩⟨1|⊗X` block matrix.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn unitary(self, params: &[Angle]) -> Matrix {
        use GateKind::*;
        assert_eq!(
            params.len(),
            self.num_params(),
            "{} takes {} parameter(s)",
            self.name(),
            self.num_params()
        );
        let p = |i: usize| params[i].value;
        match self {
            Id | X | Sx | Rz | Cx => {
                let d = 1 << self.num_qubits();
                let mut m = Matrix::zeros(d, d);
                self.basis_entries(params, |i, j, z| m[(i, j)] = z);
                m
            }
            Y => Matrix::from_rows(&[&[C64::ZERO, -C64::I], &[C64::I, C64::ZERO]]),
            Z => Matrix::diag(&[C64::ONE, C64::real(-1.0)]),
            H => {
                let s = std::f64::consts::FRAC_1_SQRT_2;
                m2(&[s, s, s, -s])
            }
            S => Matrix::diag(&[C64::ONE, C64::I]),
            Sdg => Matrix::diag(&[C64::ONE, -C64::I]),
            T => Matrix::diag(&[C64::ONE, C64::cis(FRAC_PI_4)]),
            Tdg => Matrix::diag(&[C64::ONE, C64::cis(-FRAC_PI_4)]),
            Sxdg => {
                let a = C64::new(0.5, -0.5);
                let b = C64::new(0.5, 0.5);
                Matrix::from_rows(&[&[a, b], &[b, a]])
            }
            Rx => rot(p(0), Axis::X),
            Ry => rot(p(0), Axis::Y),
            Phase => Matrix::diag(&[C64::ONE, C64::cis(p(0))]),
            U2 => u3_matrix(FRAC_PI_2, p(0), p(1)),
            U3 => u3_matrix(p(0), p(1), p(2)),
            Cy => controlled(&Y.unitary(&[])),
            Cz => controlled(&Z.unitary(&[])),
            Ch => controlled(&H.unitary(&[])),
            CPhase => Matrix::diag(&[C64::ONE, C64::ONE, C64::ONE, C64::cis(p(0))]),
            Crz => controlled(&rot(p(0), Axis::Z)),
            Rxx => two_axis_rotation(p(0), Axis::X),
            Ryy => two_axis_rotation(p(0), Axis::Y),
            Rzz => Matrix::diag(&[
                C64::cis(-p(0) / 2.0),
                C64::cis(p(0) / 2.0),
                C64::cis(p(0) / 2.0),
                C64::cis(-p(0) / 2.0),
            ]),
            Swap => {
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = C64::ONE;
                m[(1, 2)] = C64::ONE;
                m[(2, 1)] = C64::ONE;
                m[(3, 3)] = C64::ONE;
                m
            }
            ISwap => {
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = C64::ONE;
                m[(1, 2)] = C64::I;
                m[(2, 1)] = C64::I;
                m[(3, 3)] = C64::ONE;
                m
            }
            Ccx => controlled_n(&X.unitary(&[]), 2),
            Ccz => controlled_n(&Z.unitary(&[]), 2),
            Cswap => controlled(&Swap.unitary(&[])),
        }
    }

    /// Writes the nonzero entries of an IBM-basis kind's unitary (`id`,
    /// `x`, `sx`, `rz`, `cx`) through `set(row, col, value)` and returns
    /// `true`; every other entry is `+0`. Writes nothing and returns
    /// `false` for any other kind. [`unitary`](Self::unitary) builds these
    /// kinds from it, and so does [`Instruction::unitary_fixed`] without
    /// a heap buffer.
    ///
    /// [`Instruction::unitary_fixed`]: crate::Instruction::unitary_fixed
    pub(crate) fn basis_entries(
        self,
        params: &[Angle],
        mut set: impl FnMut(usize, usize, C64),
    ) -> bool {
        use GateKind::*;
        match self {
            Id => {
                set(0, 0, C64::ONE);
                set(1, 1, C64::ONE);
            }
            X => {
                set(0, 1, C64::ONE);
                set(1, 0, C64::ONE);
            }
            Sx => {
                let (a, b) = (C64::new(0.5, 0.5), C64::new(0.5, -0.5));
                set(0, 0, a);
                set(0, 1, b);
                set(1, 0, b);
                set(1, 1, a);
            }
            Rz => {
                let theta = params[0].value;
                set(0, 0, C64::cis(-theta / 2.0));
                set(1, 1, C64::cis(theta / 2.0));
            }
            Cx => {
                set(0, 0, C64::ONE);
                set(1, 1, C64::ONE);
                set(2, 3, C64::ONE);
                set(3, 2, C64::ONE);
            }
            _ => return false,
        }
        true
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

enum Axis {
    X,
    Y,
    Z,
}

/// Builds a real 2×2 matrix from row-major entries.
fn m2(v: &[f64; 4]) -> Matrix {
    Matrix::from_rows(&[
        &[C64::real(v[0]), C64::real(v[1])],
        &[C64::real(v[2]), C64::real(v[3])],
    ])
}

/// Single-qubit rotation `exp(-iθσ/2)` around the given axis.
fn rot(theta: f64, axis: Axis) -> Matrix {
    let c = C64::real((theta / 2.0).cos());
    let s = (theta / 2.0).sin();
    match axis {
        Axis::X => Matrix::from_rows(&[&[c, C64::new(0.0, -s)], &[C64::new(0.0, -s), c]]),
        Axis::Y => Matrix::from_rows(&[&[c, C64::real(-s)], &[C64::real(s), c]]),
        Axis::Z => Matrix::diag(&[C64::cis(-theta / 2.0), C64::cis(theta / 2.0)]),
    }
}

/// `U3(θ, φ, λ)` in the OpenQASM convention.
fn u3_matrix(theta: f64, phi: f64, lambda: f64) -> Matrix {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    Matrix::from_rows(&[
        &[C64::real(c), -C64::cis(lambda) * s],
        &[C64::cis(phi) * s, C64::cis(phi + lambda) * c],
    ])
}

/// Promotes a `d×d` unitary to its singly-controlled `2d×2d` version,
/// control as the most-significant bit.
fn controlled(u: &Matrix) -> Matrix {
    let d = u.rows();
    let mut m = Matrix::identity(2 * d);
    for i in 0..d {
        for j in 0..d {
            m[(d + i, d + j)] = u[(i, j)];
        }
    }
    m
}

/// `n`-controlled version of a unitary (controls as most-significant bits).
fn controlled_n(u: &Matrix, n_controls: usize) -> Matrix {
    let mut m = u.clone();
    for _ in 0..n_controls {
        m = controlled(&m);
    }
    m
}

/// Two-qubit rotation `exp(-iθ σ⊗σ / 2)` for X or Y axes.
fn two_axis_rotation(theta: f64, axis: Axis) -> Matrix {
    let sigma = match axis {
        Axis::X => GateKind::X.unitary(&[]),
        Axis::Y => GateKind::Y.unitary(&[]),
        Axis::Z => GateKind::Z.unitary(&[]),
    };
    let gen = sigma.kron(&sigma).scaled(C64::new(0.0, -theta / 2.0));
    paqoc_math::expm(&gen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_math::trace_fidelity;

    /// The IBM-basis kinds built from [`GateKind::basis_entries`] are the
    /// matrices the general constructions built, bit for bit.
    #[test]
    fn basis_entries_build_the_general_constructions() {
        let bits = |m: &Matrix| -> Vec<(u64, u64)> {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let (a, b) = (C64::new(0.5, 0.5), C64::new(0.5, -0.5));
        let x = m2(&[0.0, 1.0, 1.0, 0.0]);
        let cases = [
            (GateKind::Id, Matrix::identity(2)),
            (GateKind::X, x.clone()),
            (GateKind::Sx, Matrix::from_rows(&[&[a, b], &[b, a]])),
            (GateKind::Cx, controlled(&x)),
        ];
        for (kind, want) in cases {
            assert_eq!(bits(&kind.unitary(&[])), bits(&want), "{kind}");
        }
        for theta in [0.0, -0.0, 0.7, -1.1, 3.0, 1e-9, -12.5, std::f64::consts::PI] {
            assert_eq!(
                bits(&GateKind::Rz.unitary(&[Angle::new(theta)])),
                bits(&rot(theta, Axis::Z)),
                "rz({theta})"
            );
        }
    }

    #[test]
    fn every_kind_roundtrips_through_name() {
        use GateKind::*;
        for k in [
            Id, X, Y, Z, H, S, Sdg, T, Tdg, Sx, Sxdg, Rx, Ry, Rz, Phase, U2, U3, Cx, Cy, Cz, Ch,
            CPhase, Crz, Rxx, Ryy, Rzz, Swap, ISwap, Ccx, Ccz, Cswap,
        ] {
            assert_eq!(GateKind::from_name(k.name()), Some(k), "{k:?}");
        }
        assert_eq!(GateKind::from_name("nope"), None);
    }

    #[test]
    fn all_unitaries_are_unitary() {
        use GateKind::*;
        let th = [Angle::new(0.713)];
        let th2 = [Angle::new(0.713), Angle::new(1.2)];
        let th3 = [Angle::new(0.713), Angle::new(1.2), Angle::new(-0.4)];
        let cases: Vec<(GateKind, &[Angle])> = vec![
            (Id, &[]),
            (X, &[]),
            (Y, &[]),
            (Z, &[]),
            (H, &[]),
            (S, &[]),
            (Sdg, &[]),
            (T, &[]),
            (Tdg, &[]),
            (Sx, &[]),
            (Sxdg, &[]),
            (Rx, &th),
            (Ry, &th),
            (Rz, &th),
            (Phase, &th),
            (U2, &th2),
            (U3, &th3),
            (Cx, &[]),
            (Cy, &[]),
            (Cz, &[]),
            (Ch, &[]),
            (CPhase, &th),
            (Crz, &th),
            (Rxx, &th),
            (Ryy, &th),
            (Rzz, &th),
            (Swap, &[]),
            (ISwap, &[]),
            (Ccx, &[]),
            (Ccz, &[]),
            (Cswap, &[]),
        ];
        for (k, p) in cases {
            let u = k.unitary(p);
            assert_eq!(u.rows(), 1 << k.num_qubits(), "{k:?} dimension");
            assert!(u.is_unitary(1e-10), "{k:?} must be unitary");
        }
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = GateKind::Sx.unitary(&[]);
        let x = GateKind::X.unitary(&[]);
        assert!(sx.matmul(&sx).max_diff(&x) < 1e-12);
    }

    #[test]
    fn s_is_t_squared() {
        let t = GateKind::T.unitary(&[]);
        let s = GateKind::S.unitary(&[]);
        assert!(t.matmul(&t).max_diff(&s) < 1e-12);
    }

    #[test]
    fn daggers_cancel() {
        let s = GateKind::S.unitary(&[]);
        let sdg = GateKind::Sdg.unitary(&[]);
        assert!(s.matmul(&sdg).max_diff(&Matrix::identity(2)) < 1e-12);
        let sx = GateKind::Sx.unitary(&[]);
        let sxdg = GateKind::Sxdg.unitary(&[]);
        assert!(sx.matmul(&sxdg).max_diff(&Matrix::identity(2)) < 1e-12);
    }

    #[test]
    fn rz_matches_phase_up_to_global_phase() {
        let theta = 1.234;
        let rz = GateKind::Rz.unitary(&[Angle::new(theta)]);
        let p = GateKind::Phase.unitary(&[Angle::new(theta)]);
        assert!(trace_fidelity(&rz, &p) > 1.0 - 1e-12);
    }

    #[test]
    fn cx_matrix_is_textbook() {
        let cx = GateKind::Cx.unitary(&[]);
        assert_eq!(cx[(0, 0)], C64::ONE);
        assert_eq!(cx[(1, 1)], C64::ONE);
        assert_eq!(cx[(2, 3)], C64::ONE);
        assert_eq!(cx[(3, 2)], C64::ONE);
        assert_eq!(cx[(2, 2)], C64::ZERO);
    }

    #[test]
    fn cphase_is_symmetric_in_qubits() {
        // diag gate: swapping qubits leaves it unchanged.
        let cp = GateKind::CPhase.unitary(&[Angle::new(0.9)]);
        let swap = GateKind::Swap.unitary(&[]);
        let swapped = swap.matmul(&cp).matmul(&swap);
        assert!(swapped.max_diff(&cp) < 1e-12);
        assert!(GateKind::CPhase.is_symmetric());
        assert!(!GateKind::Cx.is_symmetric());
    }

    #[test]
    fn ccx_flips_target_only_when_both_controls_set() {
        let ccx = GateKind::Ccx.unitary(&[]);
        // |110⟩ (index 6) ↔ |111⟩ (index 7)
        assert_eq!(ccx[(7, 6)], C64::ONE);
        assert_eq!(ccx[(6, 7)], C64::ONE);
        // |100⟩ stays
        assert_eq!(ccx[(4, 4)], C64::ONE);
    }

    #[test]
    fn u3_special_cases() {
        // U3(π/2, 0, π) = H up to global phase.
        let u = GateKind::U3.unitary(&[
            Angle::new(FRAC_PI_2),
            Angle::new(0.0),
            Angle::new(std::f64::consts::PI),
        ]);
        let h = GateKind::H.unitary(&[]);
        assert!(trace_fidelity(&u, &h) > 1.0 - 1e-12);
    }

    #[test]
    fn rzz_equals_cx_rz_cx() {
        // RZZ(θ) = CX·(I⊗RZ(θ))·CX up to global phase.
        let theta = 0.77;
        let cx = GateKind::Cx.unitary(&[]);
        let rz = Matrix::identity(2).kron(&GateKind::Rz.unitary(&[Angle::new(theta)]));
        let composed = cx.matmul(&rz).matmul(&cx);
        let rzz = GateKind::Rzz.unitary(&[Angle::new(theta)]);
        assert!(trace_fidelity(&composed, &rzz) > 1.0 - 1e-10);
    }

    #[test]
    fn angle_labels() {
        assert_eq!(Angle::new(FRAC_PI_2).label(), "1.5708");
        assert_eq!(Angle::sym("g", 1.0).label(), "g");
        assert_eq!(Angle::sym("g", 1.0).scaled(0.5).label(), "g*0.5");
        assert!((Angle::sym("g", 1.0).scaled(0.5).value - 0.5).abs() < 1e-15);
    }
}
