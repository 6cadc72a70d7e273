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

    /// One past the largest id ever minted: every live id is below it,
    /// and the next merge mints exactly this id.
    pub(crate) fn id_bound(&self) -> usize {
        self.groups.len()
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
        // Counts every contraction including the search's trial spans
        // ([`contracted_makespan`](Self::contracted_makespan)) — its
        // total structural work, which the committed-merge counters
        // alone understate.
        paqoc_telemetry::counter("group.contractions", 1);
        self.contract(a, b)
    }

    /// [`merge`](Self::merge) of a pair the caller has proved
    /// contractible, without counting a contraction: the commit of a
    /// trial that [`contracted_makespan`](Self::contracted_makespan)
    /// already counted, or a merge the caller counts itself. Every caller
    /// checks contractibility in release builds too: `merge` and the
    /// preprocessing's `contract_edge` assert it, and Algorithm 1 skips a
    /// pair [`contractible`](Self::contractible) rejects.
    pub(crate) fn contract(&mut self, a: usize, b: usize) -> usize {
        debug_assert!(self.contractible(a, b), "({a},{b}) is not contractible");
        // Order: if b ⇝ a, b's instructions come first. A contractible
        // pair has no path between its members but a direct edge.
        let (first, second) = if self.succs[b].contains(&a) {
            (b, a)
        } else {
            (a, b)
        };
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
        // Taking a member's sets leaves them empty, as a dead group's
        // are; the rewiring below changes only other groups' sets.
        for &old in &[first, second] {
            for p in std::mem::take(&mut self.preds[old]) {
                if p != first && p != second {
                    self.succs[p].remove(&old);
                    self.succs[p].insert(new_id);
                    new_preds.insert(p);
                }
            }
            for s in std::mem::take(&mut self.succs[old]) {
                if s != first && s != second {
                    self.preds[s].remove(&old);
                    self.preds[s].insert(new_id);
                    new_succs.insert(s);
                }
            }
        }
        self.preds.push(new_preds);
        self.succs.push(new_succs);
        new_id
    }

    /// A topological order of the live groups.
    pub fn topological_order(&self) -> Vec<usize> {
        let mut w = Windows::default();
        self.order_into(&mut w);
        w.order
    }

    /// [`topological_order`](Self::topological_order) into the reusable
    /// buffers of `w`.
    fn order_into(&self, w: &mut Windows) {
        kahn_into(
            self.groups.len(),
            (0..self.groups.len()).filter(|&v| self.groups[v].is_some()),
            |v| self.preds[v].len(),
            |v| self.succs[v].iter().copied(),
            &mut w.indeg,
            &mut w.order,
        );
        assert_eq!(w.order.len(), self.len(), "group DAG must stay acyclic");
    }

    /// Longest path *after* each group (paper's `CP(X)`, excluding the
    /// group's own latency), keyed by group id; dead ids hold 0.
    pub fn cp_after(&self) -> Vec<f64> {
        let mut w = Windows::default();
        self.windows_into(&mut w);
        w.after
    }

    /// Longest path *before* each group starts.
    pub fn cp_before(&self) -> Vec<f64> {
        let mut w = Windows::default();
        self.windows_into(&mut w);
        w.before
    }

    /// Whole-circuit latency in ns: the heaviest path through the DAG.
    pub fn makespan_ns(&self) -> f64 {
        self.windows_into(&mut Windows::default())
    }

    /// Both windows of every live group ([`cp_before`](Self::cp_before)
    /// and [`cp_after`](Self::cp_after)) from one topological order, in
    /// the reusable buffers of `w`; returns the makespan. Each window is
    /// a max over the same neighbours whatever the order, so any
    /// topological order gives the same bits. Entries of ids that died
    /// since the buffers were last filled are stale.
    pub(crate) fn windows_into(&self, w: &mut Windows) -> f64 {
        let n = self.groups.len();
        w.before.resize(n, 0.0);
        w.after.resize(n, 0.0);
        self.order_into(w);
        for &v in &w.order {
            let mut best = 0.0f64;
            for &p in &self.preds[v] {
                best = best.max(self.group(p).latency_ns + w.before[p]);
            }
            w.before[v] = best;
        }
        let mut span = 0.0f64;
        for &v in w.order.iter().rev() {
            let mut best = 0.0f64;
            for &s in &self.succs[v] {
                best = best.max(self.group(s).latency_ns + w.after[s]);
            }
            w.after[v] = best;
            span = span.max(self.group(v).latency_ns + best);
        }
        span
    }

    /// The makespan after contracting the contractible pair `a`, `b`
    /// into one group of latency `lat` — bit for bit what a clone, a
    /// [`merge`](Self::merge) and [`makespan_ns`](Self::makespan_ns)
    /// give — without cloning or contracting anything.
    ///
    /// `b` is read as `a`, so `a` stands for the merged node (an edge
    /// into both counts twice in Kahn's in-degrees and is released
    /// twice). One Kahn pass orders the contracted DAG, and one backward
    /// pass runs the `cp_after` recurrence over that order: `cp[v] = max
    /// over succs (lat[s] + cp[s])`, `span = max (lat[v] + cp[v])`. A
    /// max of the same values is the same float in any order, so the
    /// result matches the rebuilt DAG's. Counts one `group.contractions`,
    /// like the trial merge it replaces.
    pub(crate) fn contracted_makespan(
        &self,
        a: usize,
        b: usize,
        lat: f64,
        scratch: &mut SpanScratch,
    ) -> f64 {
        debug_assert!(self.contractible(a, b), "({a},{b}) is not contractible");
        paqoc_telemetry::counter("group.contractions", 1);
        let weight = |x: usize| {
            if x == a {
                lat
            } else {
                self.group(x).latency_ns
            }
        };
        let edges = |v: usize, adj| contracted_adj(adj, v, a, b);
        let SpanScratch { indeg, order, cp } = scratch;
        kahn_into(
            self.groups.len(),
            (0..self.groups.len()).filter(|&v| self.groups[v].is_some() && v != b),
            |v| edges(v, &self.preds).count(),
            |v| edges(v, &self.succs),
            indeg,
            order,
        );
        debug_assert_eq!(
            order.len() + 1,
            self.len(),
            "contraction kept the DAG acyclic"
        );
        cp.clear();
        cp.resize(self.groups.len(), 0.0);
        let mut span = 0.0f64;
        for &v in order.iter().rev() {
            let mut best = 0.0f64;
            for s in edges(v, &self.succs) {
                best = best.max(weight(s) + cp[s]);
            }
            cp[v] = best;
            span = span.max(weight(v) + best);
        }
        span
    }

    /// Group ids on at least one critical path (within `tol` ns).
    pub fn critical_groups(&self, tol: f64) -> Vec<usize> {
        let mut w = Windows::default();
        let span = self.windows_into(&mut w);
        self.group_ids()
            .into_iter()
            .filter(|&id| self.is_critical(id, &w.before, &w.after, span, tol))
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

/// Buffers of [`GroupedCircuit::windows_into`]: a topological order of
/// the live groups and both windows by id.
#[derive(Debug, Default)]
pub(crate) struct Windows {
    pub(crate) order: Vec<usize>,
    indeg: Vec<usize>,
    pub(crate) before: Vec<f64>,
    pub(crate) after: Vec<f64>,
}

/// Reusable buffers of [`GroupedCircuit::contracted_makespan`].
#[derive(Debug, Default)]
pub(crate) struct SpanScratch {
    indeg: Vec<usize>,
    order: Vec<usize>,
    cp: Vec<f64>,
}

/// Kahn's sort into `order` of the ids `nodes` yields (all below
/// `bound`), sources in that order: `in_degree(v)` counts `v`'s incoming
/// edges and `succs(v)` lists their other ends, one entry per edge.
/// `indeg` is scratch. A node on a cycle stays out of `order`.
fn kahn_into<S: Iterator<Item = usize>>(
    bound: usize,
    nodes: impl Iterator<Item = usize>,
    in_degree: impl Fn(usize) -> usize,
    succs: impl Fn(usize) -> S,
    indeg: &mut Vec<usize>,
    order: &mut Vec<usize>,
) {
    indeg.resize(bound, 0);
    order.clear();
    for v in nodes {
        indeg[v] = in_degree(v);
        if indeg[v] == 0 {
            order.push(v);
        }
    }
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for s in succs(v) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                order.push(s);
            }
        }
    }
}

/// Neighbours of `v` in `adj` with `b` read as `a`: the merged node `a`
/// has the union of both members' neighbours, and the edge between them
/// is dropped.
fn contracted_adj(
    adj: &[BTreeSet<usize>],
    v: usize,
    a: usize,
    b: usize,
) -> impl Iterator<Item = usize> + '_ {
    adj[v]
        .iter()
        .chain((v == a).then(|| &adj[b]).into_iter().flatten())
        .map(move |&y| if y == b { a } else { y })
        .filter(move |&y| y != v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search_tests::reference_windows;
    use paqoc_circuit::Circuit;
    use paqoc_math::Rng;

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

    /// A random circuit's grouped DAG after a few random contractions,
    /// with random latencies: direct edges, siblings and diamonds
    /// (shared predecessor and shared successor) all occur.
    fn random_grouped(rng: &mut Rng, max_gates: usize) -> GroupedCircuit {
        let nq: usize = rng.random_range(2..=6usize);
        let mut c = Circuit::new(nq);
        for _ in 0..rng.random_range(4..=max_gates) {
            let a: usize = rng.random_range(0..nq);
            if rng.random::<f64>() < 0.5 {
                c.cx(a, (a + rng.random_range(1..nq)) % nq);
            } else {
                c.h(a);
            }
        }
        let mut g = GroupedCircuit::new(c.instructions(), nq, &[]);
        for _ in 0..rng.random_range(0..=4usize) {
            let ids = g.group_ids();
            let a = ids[rng.random_range(0..ids.len())];
            let b = ids[rng.random_range(0..ids.len())];
            if g.contractible(a, b) {
                g.merge(a, b);
            }
        }
        for id in g.group_ids() {
            g.group_mut(id).latency_ns = rng.random::<f64>() * 97.0;
        }
        g
    }

    #[test]
    fn contracted_makespan_matches_clone_merge_makespan() {
        let mut rng = Rng::seed_from_u64(0xc0de);
        let (mut direct, mut siblings, mut diamonds) = (0, 0, 0);
        // One scratch for every trial: stale buffers must not leak in.
        let mut scratch = SpanScratch::default();
        for _ in 0..150 {
            let g = random_grouped(&mut rng, 30);
            let ids = g.group_ids();
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    if !g.contractible(a, b) {
                        continue;
                    }
                    // `contract` orders a contractible pair by its
                    // direct edge: no other path joins the members.
                    assert_eq!(g.has_path(b, a), g.succs(b).contains(&a), "({a},{b})");
                    let lat = rng.random::<f64>() * 97.0;
                    let mut trial = g.clone();
                    let m = trial.merge(a, b);
                    trial.group_mut(m).latency_ns = lat;
                    assert_eq!(
                        g.contracted_makespan(a, b, lat, &mut scratch).to_bits(),
                        reference_windows(&trial).2.to_bits(),
                        "pair ({a},{b})"
                    );
                    let shared_pred = g.preds(a).intersection(g.preds(b)).next().is_some();
                    let shared_succ = g.succs(a).intersection(g.succs(b)).next().is_some();
                    if g.succs(a).contains(&b) || g.succs(b).contains(&a) {
                        direct += 1;
                    } else if shared_pred && shared_succ {
                        diamonds += 1;
                    } else if shared_pred || shared_succ {
                        siblings += 1;
                    }
                }
            }
        }
        assert!(
            direct > 100 && siblings > 100 && diamonds > 30,
            "direct {direct}, siblings {siblings}, diamonds {diamonds}"
        );
    }

    /// `reach[x][y]`: a path `x ⇝ y` of at least one edge, by closing
    /// the successor relation under transitivity (Warshall).
    fn reachability(g: &GroupedCircuit) -> Vec<Vec<bool>> {
        let n = g.groups.len();
        let mut reach: Vec<Vec<bool>> = (0..n)
            .map(|x| (0..n).map(|y| g.succs(x).contains(&y)).collect())
            .collect();
        for k in 0..n {
            let via_k = reach[k].clone();
            for row in reach.iter_mut().filter(|row| row[k]) {
                for (r, &v) in row.iter_mut().zip(&via_k) {
                    *r |= v;
                }
            }
        }
        reach
    }

    #[test]
    fn non_contractible_pairs_stay_so_under_other_contractions() {
        let mut rng = Rng::seed_from_u64(0xb10c);
        let mut rechecked = 0;
        for _ in 0..60 {
            let mut g = random_grouped(&mut rng, 18);
            let mut blocked: BTreeSet<(usize, usize)> = BTreeSet::new();
            loop {
                let ids = g.group_ids();
                let reach = reachability(&g);
                // Brute force: some third live group lies on a path
                // between the two, in either direction.
                let blocked_now = |a: usize, b: usize| {
                    ids.iter().any(|&x| {
                        x != a
                            && x != b
                            && ((reach[a][x] && reach[x][b]) || (reach[b][x] && reach[x][a]))
                    })
                };
                for &(a, b) in &blocked {
                    if g.try_group(a).is_some() && g.try_group(b).is_some() {
                        assert!(blocked_now(a, b), "({a},{b}) became contractible");
                        rechecked += 1;
                    }
                }
                let mut open: Vec<(usize, usize)> = Vec::new();
                for (i, &a) in ids.iter().enumerate() {
                    for &b in &ids[i + 1..] {
                        assert_eq!(g.contractible(a, b), !blocked_now(a, b), "({a},{b})");
                        if blocked_now(a, b) {
                            blocked.insert((a, b));
                        } else {
                            open.push((a, b));
                        }
                    }
                }
                if open.is_empty() {
                    break;
                }
                let (a, b) = open[rng.random_range(0..open.len())];
                g.merge(a, b);
            }
        }
        assert!(rechecked > 1000, "only {rechecked} rechecks");
    }
}
