//! Canonical codes for subcircuit instances.
//!
//! Two instances are the same *pattern* exactly when their induced
//! labeled sub-DAGs are isomorphic, including how gates share qubits.
//! The canonical code linearizes the instance by a deterministic
//! greedy-minimal topological order (branching on ties and keeping the
//! lexicographically smallest emission), relabeling qubits by first
//! appearance — so isomorphic instances, wherever they sit in the
//! circuit and on whichever physical qubits, produce identical codes.
//!
//! The codes are persisted: the pulse table and the pulse store key by
//! them, so the string a given instance produces is a format contract.

use crate::graph::CircuitGraph;
use std::fmt::Write;

/// Computes the canonical code of an instance (a set of node indices).
///
/// The instance must be non-empty; it need not be convex (convexity is
/// the grower's concern). Cost is exponential only in the number of
/// *tied* symmetric nodes, which is tiny for the ≤ 8-gate patterns mined
/// here.
///
/// # Panics
///
/// Panics if `nodes` is empty.
pub fn canonical_code(graph: &CircuitGraph, nodes: &[usize]) -> String {
    assert!(!nodes.is_empty(), "instance must contain at least one gate");
    let mut nodes = nodes.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    Canonicalizer::default().code(graph, &nodes).to_owned()
}

/// The search behind [`canonical_code`], kept between calls so that a
/// caller computing many codes reuses its buffers.
///
/// The search backtracks over one mutable emission state: emitting a
/// node pushes its token onto `code` and its fresh qubits onto
/// `qubits`; returning truncates both back.
#[derive(Debug, Default)]
pub(crate) struct Canonicalizer {
    /// Instance-internal successors of each local node, one per edge.
    succs: Vec<Vec<usize>>,
    /// Instance-internal predecessor edges of each node not yet emitted.
    waiting: Vec<usize>,
    emitted: Vec<bool>,
    num_emitted: usize,
    /// Physical qubits in canonical-id order (`qubits[id]`).
    qubits: Vec<usize>,
    /// The code of the emitted prefix.
    code: String,
    /// The tokens of every open search level's ready nodes, back to back.
    tokens: String,
    /// `(local node, token start, token end)` for the entries of `tokens`.
    ready: Vec<(usize, usize, usize)>,
    /// The smallest complete code so far (empty before the first).
    best: String,
}

impl Canonicalizer {
    /// The canonical code of `nodes`, which must be sorted, deduplicated
    /// and non-empty.
    pub(crate) fn code(&mut self, graph: &CircuitGraph, nodes: &[usize]) -> &str {
        debug_assert!(!nodes.is_empty() && nodes.windows(2).all(|w| w[0] < w[1]));
        let k = nodes.len();
        if self.succs.len() < k {
            self.succs.resize_with(k, Vec::new);
        }
        self.succs[..k].iter_mut().for_each(Vec::clear);
        self.waiting.clear();
        self.waiting.resize(k, 0);
        for (li, &v) in nodes.iter().enumerate() {
            for e in graph.in_edges(v) {
                if let Ok(lp) = nodes.binary_search(&e.from) {
                    self.succs[lp].push(li);
                    self.waiting[li] += 1;
                }
            }
        }
        self.emitted.clear();
        self.emitted.resize(k, false);
        self.num_emitted = 0;
        self.qubits.clear();
        self.code.clear();
        self.best.clear();
        self.search(graph, nodes);
        &self.best
    }

    fn search(&mut self, graph: &CircuitGraph, nodes: &[usize]) {
        if self.num_emitted == nodes.len() {
            if self.best.is_empty() || self.code < self.best {
                self.best.clone_from(&self.code);
            }
            return;
        }
        // Prune: a prefix already worse than the best completed code can
        // never win (every code has the same number of ';'-separated
        // tokens). Comparing bytes orders UTF-8 strings as `str` does.
        let (code, best) = (self.code.as_bytes(), self.best.as_bytes());
        if !best.is_empty()
            && !code.is_empty()
            && code.len() <= best.len()
            && code > &best[..code.len()]
        {
            return;
        }

        // Ready nodes (all instance-internal predecessors emitted) and
        // their tokens under the current qubit relabelling.
        let (level, level_tokens) = (self.ready.len(), self.tokens.len());
        for (li, &v) in nodes.iter().enumerate() {
            if !self.emitted[li] && self.waiting[li] == 0 {
                let start = self.tokens.len();
                write_token(&mut self.tokens, graph, v, &self.qubits);
                self.ready.push((li, start, self.tokens.len()));
            }
        }

        // Greedy-minimal: emit only the nodes whose token is minimal.
        let tokens = self.tokens.as_bytes();
        let (_, min_start, min_end) = self.ready[level..]
            .iter()
            .copied()
            .min_by(|a, b| tokens[a.1..a.2].cmp(&tokens[b.1..b.2]))
            .expect("DAG always has a ready node");
        for i in level..self.ready.len() {
            let (li, start, end) = self.ready[i];
            if self.tokens.as_bytes()[start..end] != self.tokens.as_bytes()[min_start..min_end] {
                continue;
            }
            let (code_len, num_qubits) = (self.code.len(), self.qubits.len());
            if code_len > 0 {
                self.code.push(';');
            }
            self.code.push_str(&self.tokens[start..end]);
            for &q in graph.qubits(nodes[li]) {
                if !self.qubits.contains(&q) {
                    self.qubits.push(q);
                }
            }
            self.emitted[li] = true;
            self.num_emitted += 1;
            for &s in &self.succs[li] {
                self.waiting[s] -= 1;
            }
            self.search(graph, nodes);
            for &s in &self.succs[li] {
                self.waiting[s] += 1;
            }
            self.num_emitted -= 1;
            self.emitted[li] = false;
            self.qubits.truncate(num_qubits);
            self.code.truncate(code_len);
        }
        self.ready.truncate(level);
        self.tokens.truncate(level_tokens);
    }
}

/// Appends the emission token of node `v`: gate label plus canonical
/// qubit ids, with qubits not yet in `qubits` numbered on in operand
/// order (a gate never repeats a qubit).
fn write_token(out: &mut String, graph: &CircuitGraph, v: usize, qubits: &[usize]) {
    out.push_str(graph.label(v));
    out.push('(');
    let mut next_id = qubits.len();
    for (i, q) in graph.qubits(v).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let id = qubits.iter().position(|x| x == q).unwrap_or_else(|| {
            next_id += 1;
            next_id - 1
        });
        if id < 10 {
            out.push(char::from(b'0' + id as u8));
        } else {
            write!(out, "{id}").expect("writing to a String cannot fail");
        }
    }
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::Circuit;

    fn code_of(c: &Circuit, nodes: &[usize]) -> String {
        canonical_code(&CircuitGraph::from_circuit(c), nodes)
    }

    #[test]
    fn identical_shapes_share_codes_across_qubits() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).rz(1, 0.7); // instance A on qubits 0,1
        c.cx(2, 3).rz(3, 0.7); // instance B on qubits 2,3
        let a = code_of(&c, &[0, 1]);
        let b = code_of(&c, &[2, 3]);
        assert_eq!(a, b);
        assert_eq!(a, "cx(0,1);rz(0.7000)(1)");
    }

    #[test]
    fn control_vs_target_sharing_is_distinguished() {
        // The paper's Fig. 5 disambiguation: rz on the target vs on the
        // control of the following cx.
        let mut on_target = Circuit::new(2);
        on_target.rz(1, 0.7).cx(0, 1);
        let mut on_control = Circuit::new(2);
        on_control.rz(0, 0.7).cx(0, 1);
        let a = code_of(&on_target, &[0, 1]);
        let b = code_of(&on_control, &[0, 1]);
        assert_ne!(a, b);
    }

    #[test]
    fn code_is_invariant_to_emission_ties() {
        // Two independent H gates feeding a CX: either H may come first;
        // the canonical code must not depend on node indices.
        let mut c1 = Circuit::new(2);
        c1.h(0).h(1).cx(0, 1);
        let mut c2 = Circuit::new(2);
        c2.h(1).h(0).cx(0, 1);
        assert_eq!(code_of(&c1, &[0, 1, 2]), code_of(&c2, &[0, 1, 2]));
    }

    #[test]
    fn different_angles_make_different_patterns() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.5).rz(0, 0.9);
        let a = code_of(&c, &[0]);
        let b = code_of(&c, &[1]);
        assert_ne!(a, b);
    }

    #[test]
    fn symbolic_angles_unify_parameterized_instances() {
        use paqoc_circuit::{Angle, GateKind};
        let mut c = Circuit::new(2);
        c.apply(GateKind::Rz, vec![0], vec![Angle::sym("g", 0.3)]);
        c.apply(GateKind::Rz, vec![1], vec![Angle::sym("g", 1.9)]);
        // Different numeric values, same symbol: same pattern.
        assert_eq!(code_of(&c, &[0]), code_of(&c, &[1]));
    }

    #[test]
    fn swap_decomposition_has_a_stable_code() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0).cx(0, 1);
        let code = code_of(&c, &[0, 1, 2]);
        assert_eq!(code, "cx(0,1);cx(1,0);cx(0,1)");
    }

    #[test]
    fn direction_of_dependence_matters() {
        // cx then rz ≠ rz then cx on the same qubit pair.
        let mut forward = Circuit::new(2);
        forward.cx(0, 1).rz(1, 0.7);
        let mut backward = Circuit::new(2);
        backward.rz(1, 0.7).cx(0, 1);
        assert_ne!(code_of(&forward, &[0, 1]), code_of(&backward, &[0, 1]));
    }

    #[test]
    fn non_ascii_symbols_never_panic_and_ignore_qubit_labels() {
        // The prefix prune compares at byte offsets that can fall inside
        // a multi-byte symbol, e.g. on rz(γ) q2; rz(γ) q0; h q2; cx q2,q0.
        use paqoc_circuit::{Angle, GateKind};
        use paqoc_math::Rng;
        let mut rng = Rng::seed_from_u64(0x7A3A);
        for _ in 0..20_000 {
            let n = rng.random_range(2..=3usize);
            let mut gates = Vec::new();
            for _ in 0..rng.random_range(2..=6usize) {
                let a = rng.random_range(0..n);
                let b = (a + rng.random_range(1..n)) % n;
                gates.push(match rng.random_range(0..3u32) {
                    0 => (GateKind::Rz, vec![a], vec![Angle::sym("γ", rng.random())]),
                    1 => (GateKind::H, vec![a], vec![]),
                    _ => (GateKind::Cx, vec![a, b], vec![]),
                });
            }
            let mut relabel: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                relabel.swap(i, rng.random_range(0..=i));
            }
            let (mut c, mut moved) = (Circuit::new(n), Circuit::new(n));
            for (kind, qs, ps) in gates {
                moved.apply(
                    kind,
                    qs.iter().map(|&q| relabel[q]).collect::<Vec<_>>(),
                    ps.clone(),
                );
                c.apply(kind, qs, ps);
            }
            let nodes: Vec<usize> = (0..c.len()).collect();
            assert_eq!(code_of(&c, &nodes), code_of(&moved, &nodes), "{c:?}");
        }
    }

    #[test]
    fn a_reused_canonicalizer_matches_fresh_calls() {
        // Large instance first, so later calls run in oversized buffers.
        let mut c = Circuit::new(3);
        c.h(0).h(1).cx(0, 1).ccx(0, 1, 2).rz(2, 0.3).cx(2, 0).h(1);
        let g = CircuitGraph::from_circuit(&c);
        let mut canon = Canonicalizer::default();
        for nodes in [
            &[0, 1, 2, 3, 4, 5, 6][..],
            &[0, 2],
            &[1],
            &[3, 4, 5],
            &[2, 3, 6],
        ] {
            assert_eq!(
                canon.code(&g, nodes),
                canonical_code(&g, nodes),
                "{nodes:?}"
            );
        }
    }
}
