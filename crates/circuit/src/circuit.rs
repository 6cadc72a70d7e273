//! The circuit container: an ordered list of gate applications.

use crate::gate::{Angle, GateKind};
use paqoc_math::{Matrix, C64};
use std::fmt;

/// One gate applied to specific qubits.
///
/// # Examples
///
/// ```
/// use paqoc_circuit::{GateKind, Instruction};
/// let inst = Instruction::new(GateKind::Cx, vec![0, 1], vec![]);
/// assert_eq!(inst.label(), "cx");
/// assert_eq!(inst.qubits(), &[0, 1]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Instruction {
    gate: GateKind,
    qubits: Vec<usize>,
    params: Vec<Angle>,
}

impl Instruction {
    /// Creates an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the qubit or parameter count does not match the gate
    /// kind, or if a qubit repeats.
    pub fn new(gate: GateKind, qubits: Vec<usize>, params: Vec<Angle>) -> Self {
        assert_eq!(
            qubits.len(),
            gate.num_qubits(),
            "{} acts on {} qubit(s)",
            gate.name(),
            gate.num_qubits()
        );
        assert_eq!(
            params.len(),
            gate.num_params(),
            "{} takes {} parameter(s)",
            gate.name(),
            gate.num_params()
        );
        for (i, q) in qubits.iter().enumerate() {
            assert!(
                !qubits[..i].contains(q),
                "duplicate qubit {q} in {}",
                gate.name()
            );
        }
        Instruction {
            gate,
            qubits,
            params,
        }
    }

    /// The gate kind.
    pub fn gate(&self) -> GateKind {
        self.gate
    }

    /// The qubits the gate acts on, in gate order (first = most
    /// significant bit of the gate unitary; controls come first for
    /// controlled kinds).
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// The angle parameters.
    pub fn params(&self) -> &[Angle] {
        &self.params
    }

    /// The structural label used by the miner: gate name plus symbolic
    /// parameter labels, e.g. `"rz(gamma)"` or `"cx"`.
    pub fn label(&self) -> String {
        if self.params.is_empty() {
            return self.gate.name().to_string();
        }
        let mut out = String::new();
        self.write_label(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes [`label`](Self::label)'s text to `w` without building a
    /// `String`.
    pub fn write_label(&self, w: &mut impl fmt::Write) -> fmt::Result {
        w.write_str(self.gate.name())?;
        if !self.params.is_empty() {
            w.write_char('(')?;
            for (i, p) in self.params.iter().enumerate() {
                if i > 0 {
                    w.write_char(',')?;
                }
                p.write_label(w)?;
            }
            w.write_char(')')?;
        }
        Ok(())
    }

    /// The gate's unitary on its own qubits (dimension `2^k`).
    pub fn unitary(&self) -> Matrix {
        self.gate.unitary(&self.params)
    }

    /// [`unitary`](Self::unitary) in a fixed-size array, `K = 2^k` for
    /// the gate's `k` qubits: the same entries, bit for bit. The IBM
    /// basis kinds (`id`, `x`, `sx`, `rz`, `cx`) are written in place by
    /// the entry writer `unitary` builds them with; every other kind is
    /// copied from [`unitary`](Self::unitary).
    ///
    /// # Panics
    ///
    /// Panics if `K` is not `2^k`.
    pub fn unitary_fixed<const K: usize>(&self) -> [[C64; K]; K] {
        assert_eq!(
            K,
            1 << self.qubits.len(),
            "{} needs a {}×{} array",
            self.gate.name(),
            1 << self.qubits.len(),
            1 << self.qubits.len()
        );
        let mut u = [[C64::ZERO; K]; K];
        if !self.gate.basis_entries(&self.params, |i, j, z| u[i][j] = z) {
            u.as_flattened_mut()
                .copy_from_slice(self.unitary().as_slice());
        }
        u
    }

    /// Rewrites qubit indices through a mapping (e.g. logical→physical).
    ///
    /// # Panics
    ///
    /// Panics if a qubit is missing from the mapping domain.
    pub fn remapped(&self, map: impl Fn(usize) -> usize) -> Instruction {
        Instruction {
            gate: self.gate,
            qubits: self.qubits.iter().map(|&q| map(q)).collect(),
            params: self.params.clone(),
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qs: Vec<String> = self.qubits.iter().map(|q| format!("q[{q}]")).collect();
        write!(f, "{} {}", self.label(), qs.join(","))
    }
}

/// An ordered quantum circuit over `num_qubits` qubits.
///
/// # Examples
///
/// ```
/// use paqoc_circuit::Circuit;
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.two_qubit_gate_count(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            instructions: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` when the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction list.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Appends an instruction.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range.
    pub fn push(&mut self, inst: Instruction) -> &mut Self {
        for &q in inst.qubits() {
            assert!(
                q < self.num_qubits,
                "qubit {q} out of range for {}-qubit circuit",
                self.num_qubits
            );
        }
        self.instructions.push(inst);
        self
    }

    /// Appends a gate by kind.
    ///
    /// # Panics
    ///
    /// Panics on qubit/parameter arity mismatch or out-of-range qubits.
    pub fn apply(
        &mut self,
        gate: GateKind,
        qubits: impl Into<Vec<usize>>,
        params: impl Into<Vec<Angle>>,
    ) -> &mut Self {
        self.push(Instruction::new(gate, qubits.into(), params.into()))
    }

    /// Appends every instruction of `other` (qubit counts must agree).
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than `self`.
    pub fn extend_from(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot extend a {}-qubit circuit from a {}-qubit one",
            self.num_qubits,
            other.num_qubits
        );
        for inst in other.iter() {
            self.push(inst.clone());
        }
        self
    }

    /// Counts gates acting on exactly `k` qubits.
    pub fn gate_count_by_arity(&self, k: usize) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate().num_qubits() == k)
            .count()
    }

    /// Number of single-qubit gates.
    pub fn one_qubit_gate_count(&self) -> usize {
        self.gate_count_by_arity(1)
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gate_count_by_arity(2)
    }

    /// Circuit depth (longest chain of qubit-sharing instructions).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut max = 0;
        for inst in &self.instructions {
            let l = inst.qubits().iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in inst.qubits() {
                level[q] = l;
            }
            max = max.max(l);
        }
        max
    }

    /// Builds the circuit's full `2^n × 2^n` unitary.
    ///
    /// Intended for small `n` (tests, pulse targets, pulse simulation);
    /// memory is `O(4^n)`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 12` (guardrail against accidental blowup).
    pub fn unitary(&self) -> Matrix {
        assert!(
            self.num_qubits <= 12,
            "full unitary limited to 12 qubits ({} requested)",
            self.num_qubits
        );
        let mut u = Matrix::identity(1 << self.num_qubits);
        for inst in &self.instructions {
            let g = embed_unitary(&inst.unitary(), inst.qubits(), self.num_qubits);
            u = g.matmul(&u);
        }
        u
    }

    /// Builds only the instructions in `indices` (in the given order) as a
    /// circuit over the same qubit register.
    pub fn subcircuit(&self, indices: &[usize]) -> Circuit {
        let mut c = Circuit::new(self.num_qubits);
        for &i in indices {
            c.push(self.instructions[i].clone());
        }
        c
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} gates):",
            self.num_qubits,
            self.len()
        )?;
        for inst in &self.instructions {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

/// Convenience gate-application methods mirroring the QASM mnemonics.
macro_rules! gate_methods {
    ($( $(#[$doc:meta])* $fn_name:ident => $kind:ident ( $($q:ident),+ $(; $($a:ident),+)? ) ),+ $(,)?) => {
        impl Circuit {
            $(
                $(#[$doc])*
                pub fn $fn_name(&mut self $(, $q: usize)+ $($(, $a: impl Into<Angle>)+)?) -> &mut Self {
                    self.apply(
                        GateKind::$kind,
                        vec![$($q),+],
                        vec![$($($a.into()),+)?],
                    )
                }
            )+
        }
    };
}

gate_methods! {
    /// Applies an X (NOT) gate.
    x => X(q),
    /// Applies a Y gate.
    y => Y(q),
    /// Applies a Z gate.
    z => Z(q),
    /// Applies a Hadamard gate.
    h => H(q),
    /// Applies an S gate.
    s => S(q),
    /// Applies an S† gate.
    sdg => Sdg(q),
    /// Applies a T gate.
    t => T(q),
    /// Applies a T† gate.
    tdg => Tdg(q),
    /// Applies a √X gate.
    sx => Sx(q),
    /// Applies an X rotation.
    rx => Rx(q; theta),
    /// Applies a Y rotation.
    ry => Ry(q; theta),
    /// Applies a Z rotation.
    rz => Rz(q; theta),
    /// Applies a phase gate `P(θ)`.
    p => Phase(q; theta),
    /// Applies a CNOT with `c` as control and `t` as target.
    cx => Cx(c, t),
    /// Applies a controlled-Y.
    cy => Cy(c, t),
    /// Applies a controlled-Z.
    cz => Cz(c, t),
    /// Applies a controlled-H.
    ch => Ch(c, t),
    /// Applies a controlled-phase gate.
    cp => CPhase(c, t; theta),
    /// Applies a controlled-RZ.
    crz => Crz(c, t; theta),
    /// Applies an XX rotation.
    rxx => Rxx(a, b; theta),
    /// Applies a ZZ rotation.
    rzz => Rzz(a, b; theta),
    /// Applies a SWAP.
    swap => Swap(a, b),
    /// Applies an iSWAP.
    iswap => ISwap(a, b),
    /// Applies a Toffoli with controls `c1`, `c2` and target `t`.
    ccx => Ccx(c1, c2, t),
    /// Applies a doubly-controlled Z.
    ccz => Ccz(c1, c2, t),
    /// Applies a Fredkin (controlled-SWAP).
    cswap => Cswap(c, a, b),
}

/// The product unitary of a gate sequence, expressed on the local qubit
/// frame `qubits` (first element = least significant bit... more
/// precisely, local index = position in `qubits`, and local index 0 is
/// bit 0 of the matrix index).
///
/// Earlier instructions are applied first. Every instruction qubit must
/// appear in `qubits`.
///
/// # Panics
///
/// Panics if an instruction touches a qubit outside `qubits`.
///
/// # Examples
///
/// ```
/// use paqoc_circuit::{combined_unitary, GateKind, Instruction};
/// let cx = Instruction::new(GateKind::Cx, vec![4, 7], vec![]);
/// let u = combined_unitary(&[cx], &[4, 7]);
/// assert_eq!(u.rows(), 4);
/// ```
pub fn combined_unitary(group: &[Instruction], qubits: &[usize]) -> Matrix {
    let n = qubits.len();
    let local = |q: usize| {
        qubits
            .iter()
            .position(|&p| p == q)
            .unwrap_or_else(|| panic!("qubit {q} not in group frame {qubits:?}"))
    };
    let mut u = Matrix::identity(1 << n);
    for inst in group {
        let locals: Vec<usize> = inst.qubits().iter().map(|&q| local(q)).collect();
        let g = embed_unitary(&inst.unitary(), &locals, n);
        u = g.matmul(&u);
    }
    u
}

/// [`combined_unitary`] in a fixed-size array, `N = 2^n` for the `n`
/// qubits of the frame: the same entries, bit for bit, without a heap
/// buffer. Each instruction is embedded as [`embed_unitary`] embeds it
/// and multiplied on the left with [`paqoc_math::matmul_fixed`], whose
/// scalar order is [`Matrix::matmul`]'s.
///
/// # Panics
///
/// Panics if `N` is not `2^n` or an instruction touches a qubit outside
/// `qubits`.
pub fn combined_unitary_fixed<'a, const N: usize>(
    group: impl IntoIterator<Item = &'a Instruction>,
    qubits: &[usize],
) -> [[C64; N]; N] {
    let mut u: [[C64; N]; N] = std::array::from_fn(|i| {
        let mut row = [C64::ZERO; N];
        row[i] = C64::ONE;
        row
    });
    for inst in group {
        u = apply_fixed(&u, inst, qubits);
    }
    u
}

/// One step of [`combined_unitary_fixed`]: `inst`, embedded in the frame
/// `qubits`, times `u`.
///
/// # Panics
///
/// Panics if `N` is not `2^n` for the frame, `inst` has more than three
/// qubits, or touches a qubit outside `qubits`.
pub fn apply_fixed<const N: usize>(
    u: &[[C64; N]; N],
    inst: &Instruction,
    qubits: &[usize],
) -> [[C64; N]; N] {
    assert_eq!(
        N,
        1 << qubits.len(),
        "frame {qubits:?} needs a {N}×{N} array"
    );
    let mut locals = [0usize; 3];
    let k = inst.qubits().len();
    assert!(k <= 3, "{} has more than three qubits", inst.gate());
    for (slot, &q) in locals.iter_mut().zip(inst.qubits()) {
        *slot = qubits
            .iter()
            .position(|&p| p == q)
            .unwrap_or_else(|| panic!("qubit {q} not in group frame {qubits:?}"));
    }
    let g: [[C64; N]; N] = match k {
        1 => embed_fixed(&inst.unitary_fixed::<2>(), &locals[..1]),
        2 => embed_fixed(&inst.unitary_fixed::<4>(), &locals[..2]),
        _ => embed_fixed(&inst.unitary_fixed::<8>(), &locals[..3]),
    };
    paqoc_math::matmul_fixed(&g, u)
}

/// [`embed_unitary`] between fixed-size arrays, through the same loop.
#[inline]
fn embed_fixed<const K: usize, const N: usize>(
    gate: &[[C64; K]; K],
    qubits: &[usize],
) -> [[C64; N]; N] {
    let mut out = [[C64::ZERO; N]; N];
    embed_slices(
        gate.as_flattened(),
        qubits,
        N.trailing_zeros() as usize,
        out.as_flattened_mut(),
    );
    out
}

/// Embeds a `2^k`-dimensional gate unitary acting on `qubits` into the
/// full `2^n`-dimensional register space.
///
/// Convention: register qubit `q` is bit `q` of the basis-state index
/// (qubit 0 = least significant); within the gate, the *first listed*
/// qubit is the most significant bit of the gate-matrix index.
///
/// # Panics
///
/// Panics if a qubit index repeats or exceeds `n`.
pub fn embed_unitary(gate: &Matrix, qubits: &[usize], n: usize) -> Matrix {
    assert_eq!(
        gate.rows(),
        1 << qubits.len(),
        "gate dimension must be 2^(#qubits)"
    );
    let dim = 1usize << n;
    let mut out = Matrix::zeros(dim, dim);
    embed_slices(gate.as_slice(), qubits, n, out.as_mut_slice());
    out
}

/// The loop of [`embed_unitary`] and `embed_fixed` over row-major
/// slices: `gate` is `2^k × 2^k` for the `k` listed qubits, and `out`,
/// `2^n × 2^n` and all `+0`, receives each nonzero gate entry.
///
/// # Panics
///
/// Panics if a qubit index repeats or exceeds `n`.
#[inline]
fn embed_slices(gate: &[C64], qubits: &[usize], n: usize, out: &mut [C64]) {
    let k = qubits.len();
    for (i, &q) in qubits.iter().enumerate() {
        assert!(q < n, "qubit {q} out of range");
        assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
    }
    let dim = 1usize << n;
    // For each full-space column c: decompose into (gate sub-index, rest),
    // then distribute gate column entries into rows r that share `rest`.
    for c in 0..dim {
        let mut gc = 0usize;
        for (pos, &q) in qubits.iter().enumerate() {
            let bit = (c >> q) & 1;
            // first listed qubit = most significant gate bit
            gc |= bit << (k - 1 - pos);
        }
        let rest = {
            let mut r = c;
            for &q in qubits {
                r &= !(1usize << q);
            }
            r
        };
        for gr in 0..(1 << k) {
            let amp = gate[(gr << k) + gc];
            if amp.re == 0.0 && amp.im == 0.0 {
                continue;
            }
            let mut r = rest;
            for (pos, &q) in qubits.iter().enumerate() {
                let bit = (gr >> (k - 1 - pos)) & 1;
                r |= bit << q;
            }
            out[r * dim + c] = amp;
        }
    }
}

/// Applies a gate unitary directly to a full-register state vector,
/// without materializing the embedded matrix. Used by the pulse
/// simulator for circuits too large for `Circuit::unitary`.
///
/// # Panics
///
/// Panics if `state.len() != 2^n` for some `n ≥ max(qubits)+1`, if the
/// gate dimension disagrees with `qubits.len()`, or on duplicate qubits.
pub fn apply_gate_to_state(gate: &Matrix, qubits: &[usize], state: &mut [C64]) {
    let k = qubits.len();
    assert_eq!(gate.rows(), 1 << k, "gate dimension must be 2^(#qubits)");
    assert!(state.len().is_power_of_two(), "state must have 2^n entries");
    let dim = state.len();
    for (i, &q) in qubits.iter().enumerate() {
        assert!((1usize << q) < dim, "qubit {q} out of range for state");
        assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
    }
    let sub = 1usize << k;
    let mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
    let mut scratch = vec![C64::ZERO; sub];
    // Enumerate every assignment of the non-gate qubits.
    let mut rest = 0usize;
    loop {
        // Gather amplitudes of the gate subspace at this `rest`.
        for (gi, s) in scratch.iter_mut().enumerate() {
            let mut idx = rest;
            for (pos, &q) in qubits.iter().enumerate() {
                let bit = (gi >> (k - 1 - pos)) & 1;
                idx |= bit << q;
            }
            *s = state[idx];
        }
        let transformed = gate.apply(&scratch);
        for (gi, t) in transformed.iter().enumerate() {
            let mut idx = rest;
            for (pos, &q) in qubits.iter().enumerate() {
                let bit = (gi >> (k - 1 - pos)) & 1;
                idx |= bit << q;
            }
            state[idx] = *t;
        }
        // Next `rest`: increment skipping the masked bits, wrapping at dim.
        rest = (rest | mask).wrapping_add(1) & (dim - 1) & !mask;
        if rest == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_math::{trace_fidelity, Rng};

    /// Every gate kind with seeded angles of both signs (including `-0`),
    /// on qubits drawn from `frame`.
    fn random_instruction(rng: &mut Rng, frame: &[usize]) -> Instruction {
        use GateKind::*;
        const KINDS: [GateKind; 31] = [
            Id, X, Y, Z, H, S, Sdg, T, Tdg, Sx, Sxdg, Rx, Ry, Rz, Phase, U2, U3, Cx, Cy, Cz, Ch,
            CPhase, Crz, Rxx, Ryy, Rzz, Swap, ISwap, Ccx, Ccz, Cswap,
        ];
        loop {
            let kind = KINDS[rng.random_range(0..KINDS.len())];
            if kind.num_qubits() > frame.len() {
                continue;
            }
            let mut qubits: Vec<usize> = Vec::new();
            while qubits.len() < kind.num_qubits() {
                let q = frame[rng.random_range(0..frame.len())];
                if !qubits.contains(&q) {
                    qubits.push(q);
                }
            }
            let params = (0..kind.num_params())
                .map(|_| match rng.random_range(0..4u32) {
                    0 => Angle::new(-0.0),
                    1 => Angle::sym("gamma", 0.7),
                    _ => Angle::new(rng.random::<f64>() * 8.0 - 4.0),
                })
                .collect();
            return Instruction::new(kind, qubits, params);
        }
    }

    fn flat_bits<const N: usize>(u: &[[C64; N]; N]) -> Vec<(u64, u64)> {
        u.iter()
            .flatten()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    fn matrix_bits(m: &Matrix) -> Vec<(u64, u64)> {
        m.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    #[test]
    fn fixed_unitaries_match_the_matrix_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(0xf1ed);
        for _ in 0..600 {
            let inst = random_instruction(&mut rng, &[0, 1, 2]);
            let want = matrix_bits(&inst.unitary());
            let got = match inst.qubits().len() {
                1 => flat_bits(&inst.unitary_fixed::<2>()),
                2 => flat_bits(&inst.unitary_fixed::<4>()),
                _ => flat_bits(&inst.unitary_fixed::<8>()),
            };
            assert_eq!(got, want, "{inst}");
        }
    }

    #[test]
    fn fixed_combined_unitaries_match_the_matrix_bit_for_bit() {
        fn check<const N: usize>(rng: &mut Rng, frame: &[usize]) {
            let group: Vec<Instruction> = (0..rng.random_range(0..=12usize))
                .map(|_| random_instruction(rng, frame))
                .collect();
            assert_eq!(
                flat_bits(&combined_unitary_fixed::<N>(&group, frame)),
                matrix_bits(&combined_unitary(&group, frame)),
                "{group:?} in {frame:?}"
            );
        }
        let mut rng = Rng::seed_from_u64(0xc0b1);
        for _ in 0..200 {
            check::<2>(&mut rng, &[7]);
            check::<4>(&mut rng, &[3, 9]);
            check::<4>(&mut rng, &[9, 3]);
            check::<8>(&mut rng, &[4, 1, 6]);
        }
    }

    #[test]
    fn streamed_labels_match_label() {
        let mut rng = Rng::seed_from_u64(0x1abe);
        for _ in 0..200 {
            let inst = random_instruction(&mut rng, &[0, 1, 2]);
            let mut streamed = String::new();
            inst.write_label(&mut streamed).expect("String sink");
            assert_eq!(streamed, inst.label());
        }
        let inst = Instruction::new(
            GateKind::U3,
            vec![0],
            vec![Angle::sym("a", 1.0), Angle::new(-0.0), Angle::new(1.23456)],
        );
        assert_eq!(inst.label(), "u3(a,-0.0000,1.2346)");
    }

    #[test]
    fn builder_methods_chain() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(2, 0.5).ccx(0, 1, 2);
        assert_eq!(c.len(), 4);
        assert_eq!(c.one_qubit_gate_count(), 2);
        assert_eq!(c.two_qubit_gate_count(), 1);
        assert_eq!(c.gate_count_by_arity(3), 1);
    }

    #[test]
    fn depth_tracks_qubit_sharing() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // parallel layer
        assert_eq!(c.depth(), 1);
        c.cx(0, 1); // second layer
        c.cx(1, 2); // third layer
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn bell_circuit_unitary() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let u = c.unitary();
        // |00> -> (|00> + |11>)/√2
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((u[(0, 0)].re - s).abs() < 1e-12);
        assert!((u[(3, 0)].re - s).abs() < 1e-12);
        assert!(u[(1, 0)].abs() < 1e-12);
        assert!(u[(2, 0)].abs() < 1e-12);
    }

    #[test]
    fn embed_respects_qubit_order() {
        // CX with control 1 and target 0 on a 2-qubit register:
        // flips bit 0 when bit 1 is set: |10>(2) -> |11>(3).
        let cx = GateKind::Cx.unitary(&[]);
        let e = embed_unitary(&cx, &[1, 0], 2);
        assert_eq!(e[(3, 2)], C64::ONE);
        assert_eq!(e[(2, 3)], C64::ONE);
        assert_eq!(e[(0, 0)], C64::ONE);
        assert_eq!(e[(1, 1)], C64::ONE);
    }

    #[test]
    fn embed_matches_kron_for_adjacent_gate() {
        // Gate on qubit 1 of 2 total: embed = U ⊗ I (qubit 1 is the high bit).
        let h = GateKind::H.unitary(&[]);
        let e = embed_unitary(&h, &[1], 2);
        let k = h.kron(&Matrix::identity(2));
        assert!(e.max_diff(&k) < 1e-14);
    }

    #[test]
    fn swap_embedding_is_permutation() {
        let sw = GateKind::Swap.unitary(&[]);
        let e = embed_unitary(&sw, &[0, 2], 3);
        // |001>(1) <-> |100>(4)
        assert_eq!(e[(4, 1)], C64::ONE);
        assert_eq!(e[(1, 4)], C64::ONE);
        // |010>(2) fixed
        assert_eq!(e[(2, 2)], C64::ONE);
    }

    #[test]
    fn apply_gate_to_state_matches_embedding() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 2).rz(1, 0.3).ccx(2, 1, 0);
        let u = c.unitary();
        // Column 5 of U = action on basis state |101>.
        let mut state = vec![C64::ZERO; 8];
        state[5] = C64::ONE;
        for inst in c.iter() {
            apply_gate_to_state(&inst.unitary(), inst.qubits(), &mut state);
        }
        for r in 0..8 {
            assert!((state[r] - u[(r, 5)]).abs() < 1e-12, "row {r}");
        }
    }

    #[test]
    fn unitary_of_composed_circuits_multiplies() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.rz(1, 0.9).cx(1, 0);
        let mut ab = a.clone();
        ab.extend_from(&b);
        let expected = b.unitary().matmul(&a.unitary());
        assert!(trace_fidelity(&ab.unitary(), &expected) > 1.0 - 1e-12);
    }

    #[test]
    fn subcircuit_picks_indices() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).x(1);
        let sub = c.subcircuit(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.instructions()[0].gate(), GateKind::H);
        assert_eq!(sub.instructions()[1].gate(), GateKind::X);
    }

    #[test]
    fn remapped_instruction_moves_qubits() {
        let inst = Instruction::new(GateKind::Cx, vec![0, 1], vec![]);
        let moved = inst.remapped(|q| q + 3);
        assert_eq!(moved.qubits(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn duplicate_qubits_rejected() {
        Instruction::new(GateKind::Cx, vec![1, 1], vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubits_rejected() {
        let mut c = Circuit::new(2);
        c.h(5);
    }

    #[test]
    fn labels_include_symbolic_params() {
        let mut c = Circuit::new(1);
        c.apply(GateKind::Rz, vec![0], vec![Angle::sym("gamma", 0.5)]);
        assert_eq!(c.instructions()[0].label(), "rz(gamma)");
    }
}
