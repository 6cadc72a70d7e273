//! The grouped circuit: a mutable DAG of customized-gate groups.
//!
//! PAQOC's search operates on *groups* of consecutive basis gates. The
//! structure starts with one group per instruction (plus pre-formed APA
//! groups) and contracts pairs as the criticality-aware generator merges
//! them. All of the paper's critical-path quantities (`CP(X)`, slack,
//! critical membership) are computed over this DAG with per-group pulse
//! latencies as node weights. Neighbours are sorted flat lists, and
//! [`KeptOrder`] keeps a topological order across contractions, so no
//! trial sorts the DAG.

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
    /// Each group's neighbours, ascending: at most one per qubit and side.
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
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
        let mut preds = vec![Vec::new(); g];
        let mut succs = vec![Vec::new(); g];
        let mut last_use: Vec<Option<usize>> = vec![None; num_qubits];
        for (i, inst) in instructions.iter().enumerate() {
            let gid = owner[i].expect("assigned above");
            for &q in inst.qubits() {
                if let Some(p) = last_use[q] {
                    if p != gid {
                        succs[p].push(gid);
                        preds[gid].push(p);
                    }
                }
                last_use[q] = Some(gid);
            }
        }
        for adj in preds.iter_mut().chain(&mut succs) {
            adj.sort_unstable();
            adj.dedup();
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

    /// Predecessors of a live group, ascending.
    pub fn preds(&self, id: usize) -> &[usize] {
        &self.preds[id]
    }

    /// Successors of a live group, ascending.
    pub fn succs(&self, id: usize) -> &[usize] {
        &self.succs[id]
    }

    /// `true` when a path `from ⇝ to` exists over live groups.
    pub fn has_path(&self, from: usize, to: usize) -> bool {
        from == to || self.succs[from].contains(&to) || self.detour(from, to)
    }

    /// `true` when contracting `a` and `b` keeps the DAG acyclic:
    /// no path between them other than a possible direct edge.
    pub fn contractible(&self, a: usize, b: usize) -> bool {
        let live = |v: usize| self.try_group(v).is_some();
        a != b && live(a) && live(b) && !self.detour(a, b) && !self.detour(b, a)
    }

    /// `true` when a path `from ⇝ x ⇝ to` runs through a third group.
    fn detour(&self, from: usize, to: usize) -> bool {
        let succs = |v: usize| self.succs[v].iter().copied();
        Marks::default().detour(self.groups.len(), (from, to), |_| true, succs)
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
        // Counts every contraction including the search's trial spans,
        // which contract nothing — its total structural work, which the
        // committed-merge counters alone understate.
        paqoc_telemetry::counter("group.contractions", 1);
        self.contract(a, b)
    }

    /// [`merge`](Self::merge) of a pair the caller has proved
    /// contractible, without counting a contraction: the search counts
    /// each of its trials once, and a commit does not count again. The
    /// search asserts or checks contractibility in release builds too.
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

        let mut new_preds = Vec::new();
        let mut new_succs = Vec::new();
        // Taking a member's lists leaves them empty, as a dead group's
        // are; the rewiring below changes only other groups' lists.
        for old in [first, second] {
            for p in std::mem::take(&mut self.preds[old]) {
                if p != first && p != second {
                    rewire(&mut self.succs[p], old, new_id);
                    new_preds.push(p);
                }
            }
            for s in std::mem::take(&mut self.succs[old]) {
                if s != first && s != second {
                    rewire(&mut self.preds[s], old, new_id);
                    new_succs.push(s);
                }
            }
        }
        for adj in [&mut new_preds, &mut new_succs] {
            adj.sort_unstable();
            adj.dedup();
        }
        self.preds.push(new_preds);
        self.succs.push(new_succs);
        new_id
    }

    /// A topological order of the live groups: Kahn's sort, sources in
    /// id order.
    pub fn topological_order(&self) -> Vec<usize> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let live = |v: &usize| self.groups[*v].is_some() && indeg[*v] == 0;
        let mut order: Vec<usize> = (0..self.groups.len()).filter(live).collect();
        let mut head = 0;
        while head < order.len() {
            head += 1;
            for &s in &self.succs[order[head - 1]] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    order.push(s);
                }
            }
        }
        assert_eq!(order.len(), self.len(), "group DAG must stay acyclic");
        order
    }

    /// Longest path *after* each group (paper's `CP(X)`, excluding the
    /// group's own latency), keyed by group id; dead ids hold 0.
    pub fn cp_after(&self) -> Vec<f64> {
        self.windows().1
    }

    /// Longest path *before* each group starts.
    pub fn cp_before(&self) -> Vec<f64> {
        self.windows().0
    }

    /// Whole-circuit latency in ns: the heaviest path through the DAG.
    pub fn makespan_ns(&self) -> f64 {
        self.windows().2
    }

    /// [`cp_before`](Self::cp_before), [`cp_after`](Self::cp_after) and
    /// the makespan, from one topological order.
    fn windows(&self) -> (Vec<f64>, Vec<f64>, f64) {
        let n = self.groups.len();
        let (mut before, mut after) = (vec![0.0; n], vec![0.0; n]);
        let lat = |v| self.group(v).latency_ns;
        let order = self.topological_order();
        let span = self.windows_along(&order, lat, &mut before, &mut after);
        (before, after, span)
    }

    /// Both windows of every group `order` places (a topological order,
    /// [`VACANT`] skipped) under the latencies `lat`; returns the
    /// makespan. Each window is a max over the same neighbours whatever
    /// the order, so any topological order gives the same bits.
    pub(crate) fn windows_along(
        &self,
        order: &[usize],
        lat: impl Fn(usize) -> f64,
        before: &mut [f64],
        after: &mut [f64],
    ) -> f64 {
        for &v in order.iter().filter(|&&v| v != VACANT) {
            before[v] = self.preds[v]
                .iter()
                .fold(0.0f64, |best, &p| best.max(lat(p) + before[p]));
        }
        backward_pass(order.iter(), after, lat, |v| self.succs[v].iter().copied())
    }

    /// Group ids on at least one critical path (within `tol` ns).
    pub fn critical_groups(&self, tol: f64) -> Vec<usize> {
        let (before, after, span) = self.windows();
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

/// Replaces `old` by `new`, the largest id yet, in the ascending `adj`
/// (twice for a neighbour of both merged groups).
fn rewire(adj: &mut Vec<usize>, old: usize, new: usize) {
    adj.retain(|&x| x != old);
    if adj.last() != Some(&new) {
        adj.push(new);
    }
}

/// The `cp_after` recurrence run backward along `order`, a topological
/// order of a DAG's nodes ([`VACANT`] skipped), into `cp`: `cp[v] = max
/// over succs (weight(s) + cp[s])`. Returns the makespan, `max
/// (weight(v) + cp[v])`: a max of the same sums in any order, so the
/// same bits as [`GroupedCircuit::makespan_ns`].
pub(crate) fn backward_pass<'a, S: Iterator<Item = usize>>(
    order: impl DoubleEndedIterator<Item = &'a usize>,
    cp: &mut [f64],
    weight: impl Fn(usize) -> f64,
    succs: impl Fn(usize) -> S,
) -> f64 {
    let mut span = 0.0f64;
    for &v in order.rev().filter(|&&v| v != VACANT) {
        cp[v] = succs(v).fold(0.0f64, |best, s| best.max(weight(s) + cp[s]));
        span = span.max(weight(v) + cp[v]);
    }
    span
}

/// Visit marks of graph searches over node ids, all cleared at once
/// when a search starts by moving to a new epoch.
#[derive(Debug, Default)]
pub(crate) struct Marks {
    seen: Vec<u64>,
    epoch: u64,
    stack: Vec<usize>,
}

impl Marks {
    /// Starts a search over the ids below `bound`: every mark goes stale.
    pub(crate) fn restart(&mut self, bound: usize) {
        self.seen.resize(bound, 0);
        self.epoch += 1;
    }

    /// Marks `v`; `true` when it was not marked yet.
    pub(crate) fn mark(&mut self, v: usize) -> bool {
        std::mem::replace(&mut self.seen[v], self.epoch) != self.epoch
    }

    pub(crate) fn marked(&self, v: usize) -> bool {
        self.seen[v] == self.epoch
    }

    /// `true` when a path leaves `from` and reaches `to` through another
    /// node (`from == to` asks for a cycle): a new depth-first search over
    /// ids below `bound` that enters and marks only the nodes `enter`
    /// admits. Without such a path the marks are the descendants of
    /// `from` admitted.
    pub(crate) fn detour<S: Iterator<Item = usize>>(
        &mut self,
        bound: usize,
        (from, to): (usize, usize),
        enter: impl Fn(usize) -> bool,
        succs: impl Fn(usize) -> S,
    ) -> bool {
        self.restart(bound);
        self.stack.clear();
        self.stack.push(from);
        while let Some(v) = self.stack.pop() {
            for s in succs(v) {
                if s == to && v != from {
                    return true;
                }
                if s != to && enter(s) && self.mark(s) {
                    self.stack.push(s);
                }
            }
        }
        false
    }
}

/// A slot of a [`KeptOrder`] that no node holds.
pub(crate) const VACANT: usize = usize::MAX;

/// A topological order kept across contractions ([`VACANT`] slots
/// allowed), with each placed node's slot, so no trial sorts. Contracting
/// members that span the slots `lo..=hi` rewrites only those: the other
/// nodes there that do not descend from a member, the merged node, then
/// those that do, each run in kept order, freed slots last. No edge
/// leaves a descendant for a non-descendant, and no predecessor of a
/// member descends from another (the contraction is acyclic), so the
/// order stays topological.
#[derive(Debug, Default)]
pub(crate) struct KeptOrder {
    pub(crate) topo: Vec<usize>,
    pub(crate) pos: Vec<usize>,
    /// The rewritten slots `lo..=hi` of the contraction under trial.
    segment: Vec<usize>,
    pub(crate) cp: Vec<f64>,
}

impl KeptOrder {
    /// Keeps `order`, a topological order of nodes below `bound`.
    pub(crate) fn new(topo: Vec<usize>, bound: usize) -> Self {
        let mut kept = KeptOrder {
            topo,
            ..KeptOrder::default()
        };
        kept.grow(bound);
        for (i, &v) in kept.topo.iter().enumerate() {
            kept.pos[v] = i;
        }
        kept
    }

    /// Sizes the per-node buffers for the ids below `bound`.
    pub(crate) fn grow(&mut self, bound: usize) {
        self.pos.resize(bound, 0);
        self.cp.resize(bound, 0.0);
    }

    /// The placed nodes, in order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.topo.iter().copied().filter(|&v| v != VACANT)
    }

    /// Builds the slots `lo..=hi` for the contraction into `merged` of the
    /// nodes `absorbed` picks out, whose descendants there `descends`
    /// picks out.
    pub(crate) fn segment(
        &mut self,
        lo: usize,
        hi: usize,
        merged: usize,
        absorbed: impl Fn(usize) -> bool,
        descends: impl Fn(usize) -> bool,
    ) {
        let held = self.topo[lo..=hi]
            .iter()
            .copied()
            .filter(|&v| v != VACANT && !absorbed(v));
        self.segment.clear();
        self.segment.extend(held.clone().filter(|&v| !descends(v)));
        self.segment.push(merged);
        self.segment.extend(held.filter(|&v| descends(v)));
    }

    /// The makespan with the slots `lo..=hi` read from the segment: one
    /// [`backward_pass`], which moves nothing.
    pub(crate) fn trial_span<S: Iterator<Item = usize>>(
        &mut self,
        lo: usize,
        hi: usize,
        weight: impl Fn(usize) -> f64,
        succs: impl Fn(usize) -> S,
    ) -> f64 {
        let order = self.topo[..lo]
            .iter()
            .chain(&self.segment)
            .chain(&self.topo[hi + 1..]);
        backward_pass(order, &mut self.cp, weight, succs)
    }

    /// Writes the segment into the slots `lo..=hi`.
    pub(crate) fn place(&mut self, lo: usize, hi: usize) {
        for (i, slot) in (lo..=hi).zip(&mut self.topo[lo..=hi]) {
            *slot = self.segment.get(i - lo).copied().unwrap_or(VACANT);
            if *slot != VACANT {
                self.pos[*slot] = i;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
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
    pub(crate) fn random_grouped(rng: &mut Rng, max_gates: usize) -> GroupedCircuit {
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
