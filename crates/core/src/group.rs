//! The grouped circuit: a mutable DAG of customized-gate groups.
//!
//! PAQOC's search operates on *groups* of consecutive basis gates. The
//! structure starts with one group per instruction (plus pre-formed APA
//! groups) and contracts pairs as the criticality-aware generator merges
//! them. All of the paper's critical-path quantities (`CP(X)`, slack,
//! critical membership) are computed over this DAG with per-group pulse
//! latencies as node weights.

use paqoc_circuit::Instruction;
use std::collections::BTreeSet;

/// How a group came to exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupKind {
    /// A single original basis gate.
    Single,
    /// An occurrence of an APA-basis gate (pattern index into the cover).
    Apa(usize),
    /// A customized gate built by the criticality-aware generator.
    Customized,
}

/// One customized-gate group.
#[derive(Clone, Debug)]
pub struct Group {
    /// Instructions in original circuit order.
    pub instructions: Vec<Instruction>,
    /// Original circuit indices of `instructions`, aligned entry by
    /// entry. Kept so a failed group can be rolled back: the generator
    /// rebuilds the grouped circuit from these indices with the failed
    /// merge split into singletons.
    pub indices: Vec<usize>,
    /// Union of qubits touched.
    pub qubits: BTreeSet<usize>,
    /// Pulse latency in nanoseconds (updated as pulses are generated).
    pub latency_ns: f64,
    /// Fidelity of the group's pulse.
    pub fidelity: f64,
    /// Provenance.
    pub kind: GroupKind,
}

/// A mutable DAG of groups supporting contraction.
#[derive(Clone, Debug)]
pub struct GroupedCircuit {
    groups: Vec<Option<Group>>,
    preds: Vec<BTreeSet<usize>>,
    succs: Vec<BTreeSet<usize>>,
    num_qubits: usize,
}

impl GroupedCircuit {
    /// Builds the grouped circuit from instructions and a partition.
    ///
    /// `partition` lists disjoint instruction-index sets, each becoming
    /// one group (with the given kind); instructions not covered become
    /// singleton groups. Sets must be *convex* in the dependence DAG
    /// (guaranteed by the miner) — edges are derived from per-qubit
    /// last-use chains over the partition.
    ///
    /// # Panics
    ///
    /// Panics if partition sets overlap or index out of range.
    pub fn new(
        instructions: &[Instruction],
        num_qubits: usize,
        partition: &[(Vec<usize>, GroupKind)],
    ) -> Self {
        let n = instructions.len();
        let mut owner: Vec<Option<usize>> = vec![None; n];
        let mut groups: Vec<Option<Group>> = Vec::new();
        for (set, kind) in partition {
            let gid = groups.len();
            let mut insts = Vec::new();
            let mut qubits = BTreeSet::new();
            let mut sorted = set.clone();
            sorted.sort_unstable();
            for &i in &sorted {
                assert!(i < n, "instruction index {i} out of range");
                assert!(owner[i].is_none(), "instruction {i} in two groups");
                owner[i] = Some(gid);
                insts.push(instructions[i].clone());
                qubits.extend(instructions[i].qubits().iter().copied());
            }
            groups.push(Some(Group {
                instructions: insts,
                indices: sorted,
                qubits,
                latency_ns: 0.0,
                fidelity: 1.0,
                kind: *kind,
            }));
        }
        for (i, inst) in instructions.iter().enumerate() {
            if owner[i].is_none() {
                let gid = groups.len();
                owner[i] = Some(gid);
                groups.push(Some(Group {
                    instructions: vec![inst.clone()],
                    indices: vec![i],
                    qubits: inst.qubits().iter().copied().collect(),
                    latency_ns: 0.0,
                    fidelity: 1.0,
                    kind: GroupKind::Single,
                }));
            }
        }

        let g = groups.len();
        let mut preds = vec![BTreeSet::new(); g];
        let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); g];
        let mut last_use: Vec<Option<usize>> = vec![None; num_qubits];
        for (i, inst) in instructions.iter().enumerate() {
            let gid = owner[i].expect("assigned above");
            for &q in inst.qubits() {
                if let Some(p) = last_use[q] {
                    if p != gid {
                        succs[p].insert(gid);
                        preds[gid].insert(p);
                    }
                }
                last_use[q] = Some(gid);
            }
        }
        GroupedCircuit {
            groups,
            preds,
            succs,
            num_qubits,
        }
    }

    /// Number of qubits of the underlying circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Live group ids in ascending order.
    pub fn group_ids(&self) -> Vec<usize> {
        (0..self.groups.len())
            .filter(|&i| self.groups[i].is_some())
            .collect()
    }

    /// Number of live groups.
    pub fn len(&self) -> usize {
        self.groups.iter().filter(|g| g.is_some()).count()
    }

    /// `true` when no live groups remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable access to a group, or `None` if `id` is dead or out of
    /// range.
    pub fn try_group(&self, id: usize) -> Option<&Group> {
        self.groups.get(id).and_then(Option::as_ref)
    }

    /// Mutable access to a group, or `None` if `id` is dead or out of
    /// range.
    pub fn try_group_mut(&mut self, id: usize) -> Option<&mut Group> {
        self.groups.get_mut(id).and_then(Option::as_mut)
    }

    /// Immutable access to a live group.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead or out of range. Callers holding ids from
    /// [`GroupedCircuit::group_ids`] satisfy the invariant by
    /// construction; use [`GroupedCircuit::try_group`] otherwise.
    pub fn group(&self, id: usize) -> &Group {
        self.try_group(id).expect("group is live")
    }

    /// Mutable access to a live group.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dead or out of range. Callers holding ids from
    /// [`GroupedCircuit::group_ids`] satisfy the invariant by
    /// construction; use [`GroupedCircuit::try_group_mut`] otherwise.
    pub fn group_mut(&mut self, id: usize) -> &mut Group {
        self.try_group_mut(id).expect("group is live")
    }

    /// Predecessors of a live group.
    pub fn preds(&self, id: usize) -> &BTreeSet<usize> {
        &self.preds[id]
    }

    /// Successors of a live group.
    pub fn succs(&self, id: usize) -> &BTreeSet<usize> {
        &self.succs[id]
    }

    /// `true` when a path `from ⇝ to` exists over live groups.
    pub fn has_path(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = vec![false; self.groups.len()];
        seen[from] = true;
        while let Some(v) = stack.pop() {
            for &s in &self.succs[v] {
                if s == to {
                    return true;
                }
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// `true` when contracting `a` and `b` keeps the DAG acyclic:
    /// no path between them other than a possible direct edge.
    pub fn contractible(&self, a: usize, b: usize) -> bool {
        if a == b || self.groups[a].is_none() || self.groups[b].is_none() {
            return false;
        }
        !self.has_intermediate_path(a, b) && !self.has_intermediate_path(b, a)
    }

    fn has_intermediate_path(&self, from: usize, to: usize) -> bool {
        let mut seen = vec![false; self.groups.len()];
        let mut stack: Vec<usize> = self.succs[from]
            .iter()
            .copied()
            .filter(|&s| s != to)
            .collect();
        for &s in &stack {
            seen[s] = true;
        }
        while let Some(v) = stack.pop() {
            for &s in &self.succs[v] {
                if s == to {
                    return true;
                }
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Contracts groups `a` and `b` into a new group, returning its id.
    ///
    /// The new group's instructions keep original circuit order (both
    /// inputs hold instructions from a single source circuit, so sorting
    /// is unnecessary — `a`'s and `b`'s runs are interleaved by taking
    /// the earlier-starting run first; since both sets are convex and
    /// contractible, simple concatenation in DAG order is valid).
    /// Latency and fidelity are reset to zero pending pulse generation.
    ///
    /// # Panics
    ///
    /// Panics if the pair is not contractible.
    pub fn merge(&mut self, a: usize, b: usize) -> usize {
        assert!(self.contractible(a, b), "({a},{b}) is not contractible");
        // Counts every contraction including trial merges on cloned
        // DAGs — the search's total structural work, which the
        // committed-merge counters alone understate.
        paqoc_telemetry::counter("group.contractions", 1);
        // Order: if b ⇝ a, b's instructions come first.
        let (first, second) = if self.has_path(b, a) { (b, a) } else { (a, b) };
        let ga = self.groups[first].take().expect("live");
        let gb = self.groups[second].take().expect("live");

        let mut instructions = ga.instructions;
        instructions.extend(gb.instructions);
        let mut indices = ga.indices;
        indices.extend(gb.indices);
        let mut qubits = ga.qubits;
        qubits.extend(gb.qubits.iter().copied());

        let new_id = self.groups.len();
        self.groups.push(Some(Group {
            instructions,
            indices,
            qubits,
            latency_ns: 0.0,
            fidelity: 1.0,
            kind: GroupKind::Customized,
        }));

        let mut new_preds = BTreeSet::new();
        let mut new_succs = BTreeSet::new();
        for &old in &[first, second] {
            for &p in &self.preds[old].clone() {
                if p != first && p != second {
                    self.succs[p].remove(&old);
                    self.succs[p].insert(new_id);
                    new_preds.insert(p);
                }
            }
            for &s in &self.succs[old].clone() {
                if s != first && s != second {
                    self.preds[s].remove(&old);
                    self.preds[s].insert(new_id);
                    new_succs.insert(s);
                }
            }
            self.preds[old].clear();
            self.succs[old].clear();
        }
        self.preds.push(new_preds);
        self.succs.push(new_succs);
        new_id
    }

    /// A topological order of the live groups.
    pub fn topological_order(&self) -> Vec<usize> {
        let ids = self.group_ids();
        let mut indeg: Vec<usize> = vec![0; self.groups.len()];
        for &id in &ids {
            indeg[id] = self.preds[id].len();
        }
        let mut queue: Vec<usize> = ids.iter().copied().filter(|&i| indeg[i] == 0).collect();
        queue.sort_unstable();
        let mut order = Vec::with_capacity(ids.len());
        let mut qi = 0;
        while qi < queue.len() {
            let v = queue[qi];
            qi += 1;
            order.push(v);
            for &s in &self.succs[v] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        assert_eq!(order.len(), ids.len(), "group DAG must stay acyclic");
        order
    }

    /// Longest path *after* each group (paper's `CP(X)`, excluding the
    /// group's own latency), keyed by group id; dead ids hold 0.
    pub fn cp_after(&self) -> Vec<f64> {
        let order = self.topological_order();
        let mut cp = vec![0.0f64; self.groups.len()];
        for &v in order.iter().rev() {
            let mut best = 0.0f64;
            for &s in &self.succs[v] {
                best = best.max(self.group(s).latency_ns + cp[s]);
            }
            cp[v] = best;
        }
        cp
    }

    /// Longest path *before* each group starts.
    pub fn cp_before(&self) -> Vec<f64> {
        let order = self.topological_order();
        let mut cp = vec![0.0f64; self.groups.len()];
        for &v in &order {
            let mut best = 0.0f64;
            for &p in &self.preds[v] {
                best = best.max(self.group(p).latency_ns + cp[p]);
            }
            cp[v] = best;
        }
        cp
    }

    /// Whole-circuit latency in ns: the heaviest path through the DAG.
    pub fn makespan_ns(&self) -> f64 {
        self.makespan_from(&self.cp_after())
    }

    /// [`makespan_ns`](Self::makespan_ns) from an already computed
    /// [`cp_after`](Self::cp_after).
    pub(crate) fn makespan_from(&self, after: &[f64]) -> f64 {
        self.group_ids()
            .into_iter()
            .map(|id| self.group(id).latency_ns + after[id])
            .fold(0.0, f64::max)
    }

    /// Group ids on at least one critical path (within `tol` ns).
    pub fn critical_groups(&self, tol: f64) -> Vec<usize> {
        let before = self.cp_before();
        let after = self.cp_after();
        let span = self.makespan_from(&after);
        self.group_ids()
            .into_iter()
            .filter(|&id| self.is_critical(id, &before, &after, span, tol))
            .collect()
    }

    /// `true` when group `id` lies on a path within `tol` ns of `span`,
    /// given this DAG's [`cp_before`](Self::cp_before) and
    /// [`cp_after`](Self::cp_after).
    pub(crate) fn is_critical(
        &self,
        id: usize,
        before: &[f64],
        after: &[f64],
        span: f64,
        tol: f64,
    ) -> bool {
        before[id] + self.group(id).latency_ns + after[id] >= span - tol
    }

    /// ESP (paper Eq. 2): the product of per-group pulse success rates.
    pub fn esp(&self) -> f64 {
        self.group_ids()
            .into_iter()
            .map(|id| self.group(id).fidelity)
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::Circuit;

    /// h(0); cx(0,1); x(2); cx(1,2)
    fn sample() -> GroupedCircuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).x(2).cx(1, 2);
        GroupedCircuit::new(c.instructions(), 3, &[])
    }

    #[test]
    fn singleton_groups_mirror_the_circuit_dag() {
        let g = sample();
        assert_eq!(g.len(), 4);
        assert!(g.succs(0).contains(&1));
        assert!(g.succs(1).contains(&3));
        assert!(g.succs(2).contains(&3));
        assert!(g.preds(3).contains(&1) && g.preds(3).contains(&2));
    }

    #[test]
    fn partition_builds_apa_groups() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0).cx(0, 1).h(0);
        let g = GroupedCircuit::new(c.instructions(), 2, &[(vec![0, 1, 2], GroupKind::Apa(0))]);
        assert_eq!(g.len(), 2);
        let apa = g.group(0);
        assert_eq!(apa.instructions.len(), 3);
        assert_eq!(apa.kind, GroupKind::Apa(0));
        // h depends on the APA group via qubit 0.
        assert!(g.succs(0).contains(&1));
    }

    #[test]
    fn merge_rewires_edges() {
        let mut g = sample();
        // Merge h(0) and cx(0,1): direct edge, contractible.
        assert!(g.contractible(0, 1));
        let m = g.merge(0, 1);
        assert_eq!(g.len(), 3);
        assert!(g.succs(m).contains(&3));
        assert!(g.preds(3).contains(&m) && g.preds(3).contains(&2));
        assert_eq!(g.group(m).instructions.len(), 2);
        assert_eq!(g.group(m).kind, GroupKind::Customized);
        assert_eq!(g.group(m).qubits.len(), 2);
    }

    #[test]
    fn merge_keeps_instruction_order() {
        let mut g = sample();
        let m = g.merge(1, 0); // arguments reversed: h still comes first
        let labels: Vec<String> = g.group(m).instructions.iter().map(|i| i.label()).collect();
        assert_eq!(labels, vec!["h", "cx"]);
    }

    #[test]
    fn non_contractible_pairs_are_detected() {
        let g = sample();
        // h(0) ⇝ cx(1,2) via cx(0,1): intermediate path.
        assert!(!g.contractible(0, 3));
        // independent h(0) and x(2) are contractible.
        assert!(g.contractible(0, 2));
    }

    #[test]
    fn makespan_and_critical_groups() {
        let mut g = sample();
        for (id, w) in [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)] {
            g.group_mut(id).latency_ns = w;
        }
        assert!((g.makespan_ns() - 7.0).abs() < 1e-12);
        let crit = g.critical_groups(1e-9);
        assert_eq!(crit, vec![0, 1, 2, 3]);
        g.group_mut(2).latency_ns = 0.5;
        assert_eq!(g.critical_groups(1e-9), vec![0, 1, 3]);
    }

    #[test]
    fn merging_shorter_groups_reduces_makespan() {
        let mut g = sample();
        for (id, w) in [(0, 1.0), (1, 2.0), (2, 0.5), (3, 4.0)] {
            g.group_mut(id).latency_ns = w;
        }
        let before = g.makespan_ns();
        let m = g.merge(0, 1);
        g.group_mut(m).latency_ns = 2.2; // merged pulse shorter than 3.0
        assert!(g.makespan_ns() < before);
    }

    #[test]
    fn esp_multiplies_group_fidelities() {
        let mut g = sample();
        for id in g.group_ids() {
            g.group_mut(id).fidelity = 0.99;
        }
        assert!((g.esp() - 0.99f64.powi(4)).abs() < 1e-12);
    }

    #[test]
    fn merging_independent_groups_creates_one_node() {
        let mut g = sample();
        let m = g.merge(0, 2); // h(0) and x(2): independent
        assert_eq!(g.group(m).qubits.len(), 2);
        // New group inherits both successor edges.
        assert!(g.succs(m).contains(&1));
        assert!(g.succs(m).contains(&3));
    }

    #[test]
    #[should_panic(expected = "not contractible")]
    fn merging_blocked_pair_panics() {
        let mut g = sample();
        g.merge(0, 3);
    }
}
