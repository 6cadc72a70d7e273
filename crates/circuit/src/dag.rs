//! The gate-dependence DAG of a circuit.
//!
//! Nodes are instruction indices of a [`Circuit`]; there is an edge
//! `a → b` when `b` is the next instruction using one of `a`'s qubits.
//! SABRE and AccQOC's partitioner walk its edges, and [`makespan`]
//! gives a circuit's latency under externally supplied node weights
//! (gate latencies). Algorithm 1's criticality analysis runs on the
//! grouped circuit (`paqoc_core::GroupedCircuit`), not on this graph.
//!
//! [`makespan`]: DependencyDag::makespan

use crate::circuit::{combined_unitary, Circuit, Instruction};
use paqoc_math::nan_max;
use std::collections::VecDeque;

/// `true` when two instructions commute (their order is irrelevant).
///
/// Disjoint-qubit gates always commute; gates sharing qubits are tested
/// numerically on their joint support (`‖AB − BA‖ ≤ 10⁻⁹`), which covers
/// every special case (diagonal gates, shared controls, …) uniformly.
/// Pairs spanning more than three qubits conservatively report `false`.
///
/// # Examples
///
/// ```
/// use paqoc_circuit::{instructions_commute, GateKind, Instruction};
/// let cz1 = Instruction::new(GateKind::Cz, vec![0, 1], vec![]);
/// let cz2 = Instruction::new(GateKind::Cz, vec![1, 2], vec![]);
/// assert!(instructions_commute(&cz1, &cz2)); // diagonal gates commute
/// let cx = Instruction::new(GateKind::Cx, vec![0, 1], vec![]);
/// let h = Instruction::new(GateKind::H, vec![1], vec![]);
/// assert!(!instructions_commute(&cx, &h)); // H on the target does not
/// ```
pub fn instructions_commute(a: &Instruction, b: &Instruction) -> bool {
    let shared = a.qubits().iter().any(|q| b.qubits().contains(q));
    if !shared {
        return true;
    }
    let mut qubits: Vec<usize> = a.qubits().to_vec();
    for &q in b.qubits() {
        if !qubits.contains(&q) {
            qubits.push(q);
        }
    }
    if qubits.len() > 3 {
        return false; // conservative: never claim commutation blindly
    }
    qubits.sort_unstable();
    let ua = combined_unitary(std::slice::from_ref(a), &qubits);
    let ub = combined_unitary(std::slice::from_ref(b), &qubits);
    ua.matmul(&ub).max_diff(&ub.matmul(&ua)) < 1e-9
}

/// The dependence DAG of a circuit.
///
/// # Examples
///
/// ```
/// use paqoc_circuit::{Circuit, DependencyDag};
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2);
/// let dag = DependencyDag::from_circuit(&c);
/// assert_eq!(dag.succs(0), &[1]);
/// assert_eq!(dag.succs(1), &[2]);
/// let span = dag.makespan(&[1.0, 2.0, 2.0]);
/// assert!((span - 5.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct DependencyDag {
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl DependencyDag {
    /// Builds the dependence DAG of a circuit from per-qubit last-use
    /// chains (duplicate edges collapsed).
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        let mut last_use: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
        for (i, inst) in circuit.iter().enumerate() {
            for &q in inst.qubits() {
                if let Some(p) = last_use[q] {
                    if !succs[p].contains(&i) {
                        succs[p].push(i);
                        preds[i].push(p);
                    }
                }
                last_use[q] = Some(i);
            }
        }
        DependencyDag { preds, succs }
    }

    /// Builds the *commutation-aware* dependence DAG (the CLS-style
    /// relaxation the paper lists as future work): a gate only depends
    /// on the prior gates it does **not** commute with, so e.g. a chain
    /// of CZ/RZ gates sharing one qubit becomes an antichain the
    /// scheduler may reorder or parallelize freely.
    ///
    /// Per shared qubit, the full history is scanned (bounded by
    /// `scan_cap` = 32 for O(n) behaviour on pathological chains; a
    /// truncated scan adds a barrier edge to stay conservative).
    pub fn from_circuit_commutation_aware(circuit: &Circuit) -> Self {
        const SCAN_CAP: usize = 32;
        let n = circuit.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        let mut history: Vec<Vec<usize>> = vec![Vec::new(); circuit.num_qubits()];
        let insts = circuit.instructions();
        for (i, inst) in insts.iter().enumerate() {
            let add_edge = |p: usize, preds: &mut Vec<Vec<usize>>, succs: &mut Vec<Vec<usize>>| {
                if !succs[p].contains(&i) {
                    succs[p].push(i);
                    preds[i].push(p);
                }
            };
            for &q in inst.qubits() {
                for (scanned, &p) in history[q].iter().rev().enumerate() {
                    if scanned >= SCAN_CAP {
                        // Conservative barrier on truncation.
                        add_edge(p, &mut preds, &mut succs);
                        break;
                    }
                    if !instructions_commute(&insts[p], inst) {
                        add_edge(p, &mut preds, &mut succs);
                    }
                }
                history[q].push(i);
            }
        }
        DependencyDag { preds, succs }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// `true` when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Predecessors of node `i`.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Successors of node `i`.
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// A topological order (Kahn's algorithm).
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (impossible for graphs built
    /// by [`DependencyDag::from_circuit`]).
    pub fn topological_order(&self) -> Vec<usize> {
        let n = self.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.preds[i].len()).collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &s in &self.succs[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        assert_eq!(order.len(), n, "dependence graph must be acyclic");
        order
    }

    /// `CP(X)` of the paper: the longest weighted path *after* node `x`
    /// finishes, excluding `x`'s own weight. Returned for every node; a
    /// NaN weight makes every path through it NaN.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.len()`.
    pub fn cp_after(&self, weights: &[f64]) -> Vec<f64> {
        assert_eq!(weights.len(), self.len(), "one weight per node");
        let order = self.topological_order();
        let mut cp = vec![0.0f64; self.len()];
        for &i in order.iter().rev() {
            let mut best = 0.0f64;
            for &s in &self.succs[i] {
                best = nan_max(best, weights[s] + cp[s]);
            }
            cp[i] = best;
        }
        cp
    }

    /// Total circuit latency: the weight of the heaviest path. A
    /// non-finite path total is returned, not dropped: a NaN weight
    /// gives NaN, an infinite one infinity.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.len()`.
    pub fn makespan(&self, weights: &[f64]) -> f64 {
        let cp_after = self.cp_after(weights);
        // Only source-level paths matter, but the max over all nodes
        // equals the max over sources since cp grows along edges.
        (0..self.len())
            .map(|i| weights[i] + cp_after[i])
            .fold(0.0, nan_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    /// h(0); cx(0,1); x(2); cx(1,2)
    fn sample() -> (Circuit, DependencyDag) {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).x(2).cx(1, 2);
        let dag = DependencyDag::from_circuit(&c);
        (c, dag)
    }

    #[test]
    fn edges_follow_qubit_chains() {
        let (_, dag) = sample();
        assert_eq!(dag.succs(0), &[1]); // h(0) -> cx(0,1)
        assert_eq!(dag.succs(1), &[3]); // cx(0,1) -> cx(1,2)
        assert_eq!(dag.succs(2), &[3]); // x(2) -> cx(1,2)
        assert_eq!(dag.preds(3), &[1, 2]);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        // Two consecutive CX on the same pair share both qubits: one edge.
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        let dag = DependencyDag::from_circuit(&c);
        assert_eq!(dag.succs(0), &[1]);
        assert_eq!(dag.preds(1), &[0]);
    }

    #[test]
    fn topological_order_is_valid() {
        let (_, dag) = sample();
        let order = dag.topological_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (rank, &i) in order.iter().enumerate() {
                p[i] = rank;
            }
            p
        };
        for i in 0..dag.len() {
            for &s in dag.succs(i) {
                assert!(pos[i] < pos[s]);
            }
        }
    }

    #[test]
    fn cp_after_excludes_own_weight() {
        let (_, dag) = sample();
        let w = [1.0, 2.0, 3.0, 4.0];
        let cp = dag.cp_after(&w);
        assert!((cp[3] - 0.0).abs() < 1e-12);
        assert!((cp[1] - 4.0).abs() < 1e-12); // cx(0,1) -> cx(1,2)
        assert!((cp[0] - 6.0).abs() < 1e-12); // h -> cx -> cx
        assert!((cp[2] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_is_heaviest_path() {
        let (_, dag) = sample();
        let w = [1.0, 2.0, 3.0, 4.0];
        // paths: h->cx01->cx12 = 7; x2->cx12 = 7 → 7
        assert!((dag.makespan(&w) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn commutation_detection_matches_algebra() {
        use crate::circuit::Instruction;
        use crate::gate::GateKind;
        let rz = |q: usize| Instruction::new(GateKind::Rz, vec![q], vec![0.7.into()]);
        let cz = |a: usize, b: usize| Instruction::new(GateKind::Cz, vec![a, b], vec![]);
        let cx = |a: usize, b: usize| Instruction::new(GateKind::Cx, vec![a, b], vec![]);
        let h = |q: usize| Instruction::new(GateKind::H, vec![q], vec![]);
        // Diagonal gates commute with each other.
        assert!(crate::dag::instructions_commute(&rz(0), &cz(0, 1)));
        assert!(crate::dag::instructions_commute(&cz(0, 1), &cz(1, 2)));
        // CX commutes with RZ on its control, not its target.
        assert!(crate::dag::instructions_commute(&cx(0, 1), &rz(0)));
        assert!(!crate::dag::instructions_commute(&cx(0, 1), &rz(1)));
        // Two CX sharing a control commute; sharing control/target do not.
        assert!(crate::dag::instructions_commute(&cx(0, 1), &cx(0, 2)));
        assert!(!crate::dag::instructions_commute(&cx(0, 1), &cx(1, 2)));
        // H never commutes with a CX touching the same wire.
        assert!(!crate::dag::instructions_commute(&cx(0, 1), &h(0)));
    }

    #[test]
    fn commutation_aware_dag_drops_false_dependences() {
        // cz(0,1); cz(1,2); cz(0,2): pairwise commuting — the standard
        // DAG chains them; the commutation-aware DAG is an antichain.
        let mut c = Circuit::new(3);
        c.cz(0, 1).cz(1, 2).cz(0, 2);
        let strict = DependencyDag::from_circuit(&c);
        let relaxed = DependencyDag::from_circuit_commutation_aware(&c);
        assert!(strict.makespan(&[1.0, 1.0, 1.0]) > 2.5);
        assert!((relaxed.makespan(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        for i in 0..3 {
            assert!(relaxed.preds(i).is_empty());
        }
    }

    #[test]
    fn commutation_aware_dag_keeps_true_dependences() {
        // h(0); cx(0,1): genuinely ordered.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let relaxed = DependencyDag::from_circuit_commutation_aware(&c);
        assert_eq!(relaxed.preds(1), &[0]);
        // And non-adjacent non-commuting pairs are caught through a
        // commuting middle gate: rz(0); h? use: z-basis chain.
        let mut c2 = Circuit::new(2);
        c2.z(0).rz(0, 0.4).h(0);
        let r2 = DependencyDag::from_circuit_commutation_aware(&c2);
        // h must depend on BOTH z and rz (it commutes with neither),
        // even though z and rz commute with each other.
        assert!(r2.preds(2).contains(&0));
        assert!(r2.preds(2).contains(&1));
        assert!(r2.preds(1).is_empty(), "z and rz commute");
    }

    #[test]
    fn non_finite_path_totals_are_kept() {
        // h(0); x(0): a two-node chain.
        let mut c = Circuit::new(1);
        c.h(0).x(0);
        let dag = DependencyDag::from_circuit(&c);
        assert!(dag.makespan(&[1.0, f64::NAN]).is_nan());
        assert!(dag.makespan(&[f64::NAN, 1.0]).is_nan());
        assert!(dag.cp_after(&[1.0, f64::NAN])[0].is_nan());
        assert_eq!(dag.makespan(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(dag.makespan(&[1.0, 2.0]), 3.0);
    }

    #[test]
    fn empty_circuit_has_zero_makespan() {
        let c = Circuit::new(2);
        let dag = DependencyDag::from_circuit(&c);
        assert!(dag.is_empty());
        assert_eq!(dag.makespan(&[]), 0.0);
    }
}
