//! The merge search of the customized-gates generator: the
//! Observation-1 preprocessing and the criticality loop of the paper's
//! Algorithm 1, over state kept from one round to the next.
//!
//! Both make the decisions they made when every round rebuilt its state
//! from the grouped circuit; what changed is what a round recomputes.
//!
//! * The search sorts the DAG once and keeps that topological order
//!   ([`KeptOrder`]) to its end; a contraction rewrites only the slots
//!   between its two members.
//! * Ids are never reused and a group never changes while it lives, so
//!   a pair's qubit-cap verdict and its merged-latency estimate are fixed
//!   for the pair's life. Each is computed once: the verdict as a
//!   popcount over qubit bitsets, the estimate into one map both phases
//!   share (and beside its candidate tuple).
//! * Algorithm 1 keeps its candidate tuples. A contraction drops the
//!   tuples naming its two members and derives only those the merged
//!   node can add: its edges, the sibling pairs around it and the sibling
//!   pairs around each of its neighbours. Every iteration still
//!   recomputes the windows (over the kept order), the critical flags and
//!   the score of every pair with a critical member. A trial merge
//!   searches for a path only up to its later member's slot and reads its
//!   span from one backward pass over the order it would leave.
//! * The preprocessing keeps `cp_before`/`cp_after`, the live groups and
//!   the sources. A round walks the live groups only and reads the span
//!   at the sources. After a merge it recomputes `after` in the merged
//!   node's ancestor cone at once and `before` only as far as a round
//!   reads it, in kept order; a max of the same values is the same float.
//!
//! DESIGN.md §15 explains each step.

use crate::error::Degradation;
use crate::generator::{GeneratorReport, PaqocOptions};
use crate::group::{GroupedCircuit, KeptOrder, Marks, VACANT};
use paqoc_circuit::Instruction;
use paqoc_device::{AnalyticModel, Device, LoweredGroup};
use paqoc_math::FastHash;
use paqoc_telemetry::{counter, span};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::Instant;

/// One decision of the search, as the oracle tests compare them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Decision {
    /// The preprocessing merged the edge `a → b`.
    Preprocess { a: usize, b: usize },
    /// One criticality iteration's accounting, as `search.iteration`
    /// journals it.
    Iteration {
        span_bits: u64,
        candidates: usize,
        case1: usize,
        case2: usize,
        case3: usize,
        pruned_qubit_cap: usize,
        scored: usize,
    },
    /// The criticality loop committed the pair `(a, b)`.
    Commit { a: usize, b: usize },
    /// The criticality loop tried the pair `(a, b)` and kept it apart.
    Reject { a: usize, b: usize },
}

/// Where the search reports its decisions: nowhere in a compile, a list
/// in the oracle tests.
pub(crate) trait DecisionSink {
    fn record(&mut self, decision: Decision);
}

impl DecisionSink for () {
    #[inline]
    fn record(&mut self, _: Decision) {}
}

/// Runs the preprocessing (when `opts.preprocess`) and the criticality
/// loop over `grouped`, whose groups already carry their singleton
/// estimates. Fills the merge and iteration fields of `report`, pushes
/// the deadline degradation if `deadline` passes, and reports every
/// decision to `sink`. Returns `true` when the deadline cut the search
/// short (the hit is then already counted and recorded). The two phases
/// run under the `search.preprocess` and `search.criticality` spans.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_search<S: DecisionSink>(
    grouped: &mut GroupedCircuit,
    device: &Device,
    estimator: &mut AnalyticModel,
    opts: &PaqocOptions,
    deadline: Option<Instant>,
    report: &mut GeneratorReport,
    degradations: &mut Vec<Degradation>,
    sink: &mut S,
) -> bool {
    let mut state = SearchState::new(grouped);
    if opts.preprocess {
        let _s = span("search.preprocess");
        // Preprocessed groups keep free estimator latencies (fidelity-0
        // marker); real pulses are only generated for the *final*
        // grouping — the paper's central compile-time saving.
        report.preprocess_merges =
            state.preprocess(grouped, device, estimator, opts, deadline, sink);
        counter(
            "generator.preprocess_merges",
            report.preprocess_merges as u64,
        );
    }
    let _s = span("search.criticality");
    state.criticality_loop(
        grouped,
        device,
        estimator,
        opts,
        deadline,
        report,
        degradations,
        sink,
    )
}

/// The map key of the ordered pair `(a, b)`.
fn key(a: usize, b: usize) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Search state shared by the preprocessing and the criticality loop.
struct SearchState {
    /// 64-bit words per qubit set.
    words: usize,
    /// Group `id`'s qubits are the set bits of
    /// `qubit_bits[id * words..][..words]` (all clear for ids that died
    /// before the search began).
    qubit_bits: Vec<u64>,
    /// Merged-latency estimate of the group `first ++ second`, by
    /// `key(first, second)`.
    pair_est: HashMap<u64, f64, FastHash>,
    /// Each group's [`AnalyticModel::lower`] once a pair estimate needed
    /// it.
    lowered: Vec<Option<Option<Vec<Instruction>>>>,
    /// Each group's latency by id, in one dense array.
    lat: Vec<f64>,
    /// Both windows of every group by id: `cp_before` and `cp_after`.
    before: Vec<f64>,
    after: Vec<f64>,
    /// Marks of the graph searches.
    marks: Marks,
    /// The topological order sorted when the search starts and kept to
    /// its end.
    order: KeptOrder,
    /// `before` is exact at every kept position below `fresh`, and is
    /// brought up to date on read ([`refresh_before`](Self::refresh_before)).
    fresh: usize,
    /// The live walk: `next_live[v]` leads to the smallest live id at or
    /// above `v`, or to the id bound ([`next_live`](Self::next_live)).
    next_live: Vec<usize>,
    /// The preprocessing's live groups without predecessors.
    sources: Vec<usize>,
    /// Scratch: positions waiting in [`propagate`](Self::propagate).
    heap: BinaryHeap<usize>,
}

impl SearchState {
    /// The state as the search starts, with one topological order and both
    /// windows over it. Checks the source span's premise on every latency.
    fn new(grouped: &GroupedCircuit) -> Self {
        let words = grouped.num_qubits().div_ceil(64).max(1);
        let bound = grouped.id_bound();
        let mut qubit_bits = vec![0u64; bound * words];
        let mut lat = vec![0.0; bound];
        for id in 0..bound {
            if let Some(g) = grouped.try_group(id) {
                for &q in &g.qubits {
                    qubit_bits[id * words + q / 64] |= 1 << (q % 64);
                }
                lat[id] = g.latency_ns;
            }
        }
        let order = KeptOrder::new(grouped.topological_order(), bound);
        let mut state = SearchState {
            words,
            qubit_bits,
            pair_est: HashMap::default(),
            lowered: Vec::new(),
            lat,
            before: Vec::new(),
            after: Vec::new(),
            marks: Marks::default(),
            fresh: order.topo.len(),
            order,
            next_live: (1..=bound).chain([bound]).collect(),
            sources: Vec::new(),
            heap: BinaryHeap::new(),
        };
        state.grow(grouped);
        state.windows(grouped);
        for &v in &state.order.topo {
            state.next_live[v] = v;
            let latency = state.lat[v];
            assert!((0.0..f64::INFINITY).contains(&latency), "latency {latency}");
            if grouped.preds(v).is_empty() {
                state.sources.push(v);
            }
        }
        state
    }

    fn bits(&self, id: usize) -> &[u64] {
        &self.qubit_bits[id * self.words..][..self.words]
    }

    /// `|qubits(a) ∪ qubits(b)|`.
    fn union_size(&self, a: usize, b: usize) -> usize {
        self.bits(a)
            .iter()
            .zip(self.bits(b))
            .map(|(x, y)| (x | y).count_ones() as usize)
            .sum()
    }

    /// Records the qubit set of the group the contraction of `a` and `b`
    /// just minted (the next id).
    fn push_merged(&mut self, a: usize, b: usize) {
        for w in 0..self.words {
            let word = self.qubit_bits[a * self.words + w] | self.qubit_bits[b * self.words + w];
            self.qubit_bits.push(word);
        }
    }

    /// The free estimate of the merged group `a ++ b` — `a`'s
    /// instructions, then `b`'s — computed once per pair, from each
    /// member's lowering computed once per group.
    fn estimate(
        &mut self,
        grouped: &GroupedCircuit,
        device: &Device,
        estimator: &mut AnalyticModel,
        target_fidelity: f64,
        a: usize,
        b: usize,
    ) -> f64 {
        if let Some(&est) = self.pair_est.get(&key(a, b)) {
            return est;
        }
        for id in [a, b] {
            if self.lowered.len() <= id {
                self.lowered.resize_with(id + 1, || None);
            }
            if self.lowered[id].is_none() {
                self.lowered[id] = Some(AnalyticModel::lower(&grouped.group(id).instructions));
            }
        }
        let lowered = |id: usize| {
            let lowering = self.lowered[id].as_ref().expect("lowered above");
            LoweredGroup::new(&grouped.group(id).instructions, lowering)
        };
        let est = estimator
            .generate_pair(lowered(a), lowered(b), device, target_fidelity, None)
            .latency_ns;
        self.pair_est.insert(key(a, b), est);
        est
    }

    /// The merged node's window from its external neighbours: the
    /// heaviest path into `a` or `b` from outside the pair, and out of
    /// it. `link` says which direct edge joins them, if any.
    ///
    /// A group's own window is the max over its neighbours, so without an
    /// edge the merged window is the max of the members' windows; across
    /// an edge, the member the edge leaves (enters) keeps its window
    /// before (after), and the other contributes its neighbours but its
    /// partner. Each is a max over the same values as the fold over both
    /// members' external neighbours, so it is the same float.
    fn merged_window(
        &self,
        grouped: &GroupedCircuit,
        a: usize,
        b: usize,
        link: Link,
    ) -> (f64, f64) {
        let (first, second) = match link {
            Link::None => {
                return (
                    self.before[a].max(self.before[b]),
                    self.after[a].max(self.after[b]),
                );
            }
            Link::Forward => (a, b),
            Link::Backward => (b, a),
        };
        let new_before = grouped
            .preds(second)
            .iter()
            .filter(|&&p| p != first)
            .map(|&p| self.before[p] + self.lat[p])
            .fold(self.before[first], f64::max);
        let new_after = grouped
            .succs(first)
            .iter()
            .filter(|&&s| s != second)
            .map(|&s| self.lat[s] + self.after[s])
            .fold(self.after[second], f64::max);
        (new_before, new_after)
    }

    /// Sizes the per-id buffers for every id minted so far.
    fn grow(&mut self, grouped: &GroupedCircuit) {
        let bound = grouped.id_bound();
        self.before.resize(bound, 0.0);
        self.after.resize(bound, 0.0);
        self.order.grow(bound);
    }

    /// Recomputes both windows over the kept order; returns the makespan.
    fn windows(&mut self, grouped: &GroupedCircuit) -> f64 {
        let lat = |v| self.lat[v];
        grouped.windows_along(&self.order.topo, lat, &mut self.before, &mut self.after)
    }

    /// The makespan from the kept `after`, read at the sources: every
    /// group lies below a source whose `latency + after` is at least its
    /// own (latencies are finite and non-negative, and adding one never
    /// lowers a sum), so the max over the sources is the same float as
    /// the max over every live group.
    fn source_span(&self) -> f64 {
        self.sources
            .iter()
            .map(|&v| self.lat[v] + self.after[v])
            .fold(0.0, f64::max)
    }

    /// The smallest live id at or above `v`, or the id bound; halves the
    /// path it follows.
    fn next_live(&mut self, mut v: usize) -> usize {
        while self.next_live[v] != v {
            self.next_live[v] = self.next_live[self.next_live[v]];
            v = self.next_live[v];
        }
        v
    }

    /// Brings `before` up to date at every kept position below `end`, in
    /// kept order from the first stale one. Each value is the max over
    /// the same values a full pass folds, so it is the same float.
    fn refresh_before(&mut self, grouped: &GroupedCircuit, end: usize) {
        for i in self.fresh..end {
            let v = self.order.topo[i];
            if v != VACANT {
                self.before[v] = grouped
                    .preds(v)
                    .iter()
                    .fold(0.0f64, |best, &p| best.max(self.lat[p] + self.before[p]));
            }
        }
        self.fresh = self.fresh.max(end);
    }

    /// `true` when contracting `first` and `second`, placed in that
    /// order, keeps the DAG acyclic: no path `first ⇝ x ⇝ second` through
    /// a third group (none runs back from `second`). The search stops at
    /// `second`'s slot, where every such path ends; when it finds no path
    /// it leaves the descendants of `first` placed before `second` marked.
    fn contractible(&mut self, grouped: &GroupedCircuit, first: usize, second: usize) -> bool {
        let pos = &self.order.pos;
        let enter = |s: usize| pos[s] <= pos[second];
        let succs = |v: usize| grouped.succs(v).iter().copied();
        !self
            .marks
            .detour(grouped.id_bound(), (first, second), enter, succs)
    }

    /// The makespan after contracting `first` and `second`, placed in
    /// that order and just passed by [`contractible`](Self::contractible),
    /// into one group of latency `est`: the bits a clone, a merge and
    /// `makespan_ns` give. `first` stands for the merged group, `second`
    /// read as `first`, in the order [`contract`](Self::contract) would
    /// leave. Counts one `group.contractions`, as the trial merge did.
    fn trial_span(
        &mut self,
        grouped: &GroupedCircuit,
        first: usize,
        second: usize,
        est: f64,
    ) -> f64 {
        counter("group.contractions", 1);
        let (lo, hi) = (self.order.pos[first], self.order.pos[second]);
        let (marks, lat) = (&self.marks, &self.lat);
        let member = |v: usize| v == first || v == second;
        self.order
            .segment(lo, hi, first, member, |v| marks.marked(v));
        self.order.trial_span(
            lo,
            hi,
            |v| if v == first { est } else { lat[v] },
            |v| {
                let more: &[usize] = if v == first {
                    grouped.succs(second)
                } else {
                    &[]
                };
                grouped
                    .succs(v)
                    .iter()
                    .chain(more)
                    .map(move |&s| if s == second { first } else { s })
                    .filter(move |&s| s != v)
            },
        )
    }

    /// Contracts `a` and `b`, just passed by `contractible`, into a group
    /// of latency `est` (estimate only: fidelity 0), placed in kept order.
    fn contract(&mut self, grouped: &mut GroupedCircuit, a: usize, b: usize, est: f64) -> usize {
        let (lo, hi) = {
            let (x, y) = (self.order.pos[a], self.order.pos[b]);
            (x.min(y), x.max(y))
        };
        let m = grouped.contract(a, b);
        grouped.group_mut(m).latency_ns = est;
        grouped.group_mut(m).fidelity = 0.0; // marker: estimate only
        self.push_merged(a, b);
        self.lat.push(est);
        self.grow(grouped);
        let marks = &self.marks;
        self.order
            .segment(lo, hi, m, |v| v == a || v == b, |v| marks.marked(v));
        self.order.place(lo, hi);
        m
    }

    /// Contracts the contractible edge `a → b` into a group of latency
    /// `est` and brings the preprocessing's state up to date. Returns the
    /// new id.
    ///
    /// The windows: only the merged node's descendants, all placed at or
    /// after `a`'s old slot, can start at another time, so `before` stays
    /// exact below that slot and is refreshed on read. Only the merged
    /// node's ancestors can finish at another time: `after` is
    /// recomputed now ([`propagate`](Self::propagate)).
    ///
    /// The live walk skips `a` and `b`, and the merged node joins it.
    /// `a` and `b` leave the sources, and the merged node joins them when
    /// it has no predecessor; no other group's predecessor set becomes
    /// empty or non-empty.
    fn contract_edge(
        &mut self,
        grouped: &mut GroupedCircuit,
        a: usize,
        b: usize,
        est: f64,
    ) -> usize {
        let lo = self.order.pos[a];
        let contractible = self.contractible(grouped, a, b);
        assert!(contractible, "({a},{b}) is not contractible");
        counter("group.contractions", 1);
        let m = self.contract(grouped, a, b, est);
        self.fresh = self.fresh.min(lo);
        self.next_live[a] = a + 1;
        self.next_live[b] = b + 1;
        self.next_live.push(m + 1);
        self.sources.retain(|&v| v != a && v != b);
        if grouped.preds(m).is_empty() {
            self.sources.push(m);
        }
        self.propagate(grouped, m);
        m
    }

    /// Recomputes `after` from `m` toward the sources, latest kept
    /// position first, visiting a group only when a successor changed its
    /// `after` (or is `m`). A max of the same values is the same float,
    /// so every value is what a full `cp_after` pass gives.
    fn propagate(&mut self, grouped: &GroupedCircuit, m: usize) {
        self.marks.restart(grouped.id_bound());
        self.marks.mark(m);
        self.heap.clear();
        self.heap.push(self.order.pos[m]);
        while let Some(at) = self.heap.pop() {
            let v = self.order.topo[at];
            let (lat, after) = (&self.lat, &mut self.after);
            let value = grouped
                .succs(v)
                .iter()
                .fold(0.0f64, |best, &s| best.max(lat[s] + after[s]));
            if v != m && value.to_bits() == after[v].to_bits() {
                continue;
            }
            after[v] = value;
            for &p in grouped.preds(v) {
                if self.marks.mark(p) {
                    self.heap.push(self.order.pos[p]);
                }
            }
        }
    }

    /// Observation-1 preprocessing (the paper's Fig. 8 step): coalesce
    /// adjacent groups confined to a shared ≤2-qubit set — maximal
    /// same-qubit runs like `rz·cx·rz·cx·rz` become single customized
    /// gates before the criticality search starts. Merges use *free*
    /// estimator latencies (no pulse generation — the whole point of
    /// Obs. 1) and are only committed when the estimated circuit span
    /// does not grow. Merged groups are marked with `fidelity = 0` so the
    /// caller can attach real pulses afterwards.
    ///
    /// Each round merges the first passing edge in `(a ascending,
    /// b ∈ succs(a) ascending)` order, until none passes or `deadline`
    /// passes (checked once per round). A round walks the live groups
    /// only, reads the span at the sources and brings `before` up to date
    /// only as far as the edges it checks. Returns the merge count.
    fn preprocess<S: DecisionSink>(
        &mut self,
        grouped: &mut GroupedCircuit,
        device: &Device,
        estimator: &mut AnalyticModel,
        opts: &PaqocOptions,
        deadline: Option<Instant>,
        sink: &mut S,
    ) -> usize {
        let mut merges = 0usize;
        let cap = opts.max_qubits.min(2);
        // Pairs proved non-contractible stay so while both ids live:
        // contracting other pairs only adds paths (an intermediate node
        // merged away leaves its merged node on the path), and ids are
        // never reused. So each pair's graph search finds a path once.
        let mut blocked: HashSet<u64, FastHash> = HashSet::default();
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return merges;
            }
            let span = self.source_span();
            let mut found = None;
            let mut a = self.next_live(0);
            'scan: while a < grouped.id_bound() {
                for &b in grouped.succs(a) {
                    if self.union_size(a, b) > cap || blocked.contains(&key(a, b)) {
                        continue;
                    }
                    if !self.contractible(grouped, a, b) {
                        blocked.insert(key(a, b));
                        continue;
                    }
                    let est = self.estimate(grouped, device, estimator, opts.target_fidelity, a, b);
                    // Cheap span check: the merged node's heaviest path
                    // must not exceed the current span (the rest of the
                    // DAG can only have gotten lighter). It reads `before`
                    // at `a` and `b`'s predecessors, all placed before `b`.
                    self.refresh_before(grouped, self.order.pos[b]);
                    let (new_before, new_after) = self.merged_window(grouped, a, b, Link::Forward);
                    if new_before + est + new_after <= span + opts.tolerance_ns {
                        found = Some((a, b, est));
                        break 'scan;
                    }
                }
                a = self.next_live(a + 1);
            }
            let Some((a, b, est)) = found else {
                return merges;
            };
            self.contract_edge(grouped, a, b, est);
            merges += 1;
            sink.record(Decision::Preprocess { a, b });
        }
    }

    /// The criticality-aware merge loop of Algorithm 1: per iteration,
    /// rank every candidate pair with a critical member by its predicted
    /// span gain (ties by local gain, then by pair) and commit up to
    /// `top_k` disjoint pairs that shorten the circuit. Returns `true`
    /// when `deadline` stopped it.
    #[allow(clippy::too_many_arguments)]
    fn criticality_loop<S: DecisionSink>(
        &mut self,
        grouped: &mut GroupedCircuit,
        device: &Device,
        estimator: &mut AnalyticModel,
        opts: &PaqocOptions,
        deadline: Option<Instant>,
        report: &mut GeneratorReport,
        degradations: &mut Vec<Degradation>,
        sink: &mut S,
    ) -> bool {
        let mut candidates = Candidates::default();
        candidates.seed(self, grouped, opts.max_qubits);
        let mut critical: Vec<bool> = Vec::new();
        let mut scored: Vec<Scored> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();

        for _ in 0..opts.max_iterations {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                counter("pipeline.deadline_hits", 1);
                degradations.push(Degradation::DeadlineHit {
                    phase: "merge".to_string(),
                });
                return true;
            }
            report.iterations += 1;
            counter("generator.iterations", 1);
            let span = self.windows(grouped);
            // Critical flags, and the top-3 whole-path weights (heaviest
            // first, ties by id) for O(1) "heaviest path elsewhere".
            let mut top: [(f64, usize); 3] = [(0.0, usize::MAX); 3];
            let mut top_len = 0usize;
            critical.clear();
            critical.resize(grouped.id_bound(), false);
            for g in self.order.nodes() {
                let weight = self.before[g] + self.lat[g] + self.after[g];
                critical[g] = weight >= span - opts.tolerance_ns;
                let at = top[..top_len]
                    .iter()
                    .position(|&(w, id)| weight.total_cmp(&w).then(id.cmp(&g)).is_gt());
                if let Some(i) = at.or((top_len < 3).then_some(top_len)) {
                    top.copy_within(i..2, i + 1);
                    top[i] = (weight, g);
                    top_len = (top_len + 1).min(3);
                }
            }
            let top_paths = &top[..top_len];

            // Per-iteration decision accounting for the event journal:
            // candidate volume, Case I/II/III split (paper §IV-B), and the
            // Obs.1/Obs.2 prune counts.
            let candidates_total = candidates.len();
            let pruned_qubit_cap = candidates.capped;
            let (mut case1, mut case2, mut case3) = (0usize, 0usize, 0usize);
            scored.clear();
            for open in &mut candidates.open {
                let Open { a, b, link, .. } = *open;
                match (critical[a], critical[b]) {
                    (true, true) => case1 += 1,
                    (true, false) | (false, true) => case2 += 1,
                    (false, false) => case3 += 1,
                }
                if opts.criticality_pruning && !critical[a] && !critical[b] {
                    continue; // Case III: cannot shorten the critical path
                }
                // Contractibility (a graph search) is deferred to commit
                // time; scoring stays cheap. Free latency estimate of the
                // merged gate (Obs. 1 & 2 via the analytic model; no
                // pulse-generation cost incurred), computed once per pair.
                let est = *open.est.get_or_insert_with(|| {
                    self.estimate(grouped, device, estimator, opts.target_fidelity, a, b)
                });
                // Paper's three-term critical path update: the merged
                // node's heaviest path vs the heaviest path elsewhere
                // (approximated by the unmerged span of the untouched
                // groups). The merged node's window comes from its
                // *external* neighbours — using before[b]/after[a]
                // directly would double-count the partner's latency on
                // dependent pairs.
                let (new_before, new_after) = self.merged_window(grouped, a, b, link);
                let through_merged = new_before + est + new_after;
                let elsewhere = top_paths
                    .iter()
                    .find(|&&(_, g)| g != a && g != b)
                    .map(|&(w, _)| w)
                    .unwrap_or(0.0);
                let new_span_est = through_merged.max(elsewhere.min(span));
                let span_gain = span - new_span_est;
                // Secondary criterion: local latency saved (Obs. 1). With
                // parallel identical chains every single merge has zero
                // span gain, yet merging all of them is what eventually
                // shortens the circuit — so zero-span-gain merges are
                // accepted when they strictly reduce total pulse time.
                let local_gain = self.lat[a] + self.lat[b] - est;
                if span_gain > opts.tolerance_ns
                    || (span_gain >= -opts.tolerance_ns && local_gain > opts.tolerance_ns)
                {
                    scored.push((total_key(span_gain), total_key(local_gain), Reverse((a, b))));
                }
            }
            // One counter call per iteration, from the local sums; a zero
            // delta is skipped so the snapshot's counter set is the one
            // the per-candidate calls produced.
            let pruned_case3 = if opts.criticality_pruning { case3 } else { 0 };
            for (name, delta) in [
                ("generator.candidates_evaluated", candidates_total),
                ("generator.pruned_qubit_cap", pruned_qubit_cap),
                ("generator.pruned_case3", pruned_case3),
            ] {
                if delta > 0 {
                    counter(name, delta as u64);
                }
            }
            // Note: no early break on an empty `scored` — the loop falls
            // through to the per-iteration decision event below and exits
            // via `committed == 0`, so every counted iteration is
            // journaled. The pairs come off a heap best first, only as
            // far as the commits need.
            let scored_len = scored.len();
            let mut ranked = BinaryHeap::from(std::mem::take(&mut scored));

            // Commit up to top-k disjoint candidates, each validated with
            // the (free) estimator latency and rolled back if it fails to
            // help — the paper's core compile-time saving: Observations 1
            // and 2 replace trial pulse generation; real pulses are only
            // generated once the grouping is final.
            let mut committed = 0usize;
            touched.clear();
            while committed < opts.top_k {
                let Some((_, _, Reverse((a, b)))) = ranked.pop() else {
                    break;
                };
                if touched.contains(&a) || touched.contains(&b) {
                    continue; // candidate invalidated by an earlier merge
                }
                let (first, second) = if self.order.pos[a] < self.order.pos[b] {
                    (a, b)
                } else {
                    (b, a)
                };
                if !self.contractible(grouped, first, second) {
                    continue;
                }
                let saved_latency = self.lat[a] + self.lat[b];
                let est = self.pair_est[&key(a, b)];
                // The trial span is computed on the contracted DAG without
                // building it; the merge happens only on commit.
                let new_span = self.trial_span(grouped, first, second, est);
                // Commit on strict span decrease, or on span non-increase
                // with a strict total-pulse-time decrease (guarantees
                // monotonic span and loop termination).
                let total_gain = saved_latency - est;
                let commit = new_span < span - opts.tolerance_ns
                    || (new_span <= span + opts.tolerance_ns && total_gain > opts.tolerance_ns);
                let gates = |g: usize| grouped.group(g).instructions.len() as u64;
                paqoc_telemetry::event!(
                    if commit {
                        "search.merge_commit"
                    } else {
                        "search.merge_reject"
                    },
                    iter = report.iterations as u64,
                    a = a as u64,
                    b = b as u64,
                    gates = gates(a) + gates(b),
                    qubits = self.union_size(a, b) as u64,
                    predicted_latency_ns = est,
                    predicted_span_gain_ns = span - new_span,
                    local_gain_ns = total_gain,
                );
                if commit {
                    let m = self.contract(grouped, a, b, est);
                    candidates.replace(self, grouped, a, b, m, opts.max_qubits);
                    touched.push(a);
                    touched.push(b);
                    committed += 1;
                    report.criticality_merges += 1;
                    counter("generator.merges_committed", 1);
                    sink.record(Decision::Commit { a, b });
                } else {
                    report.rejected_merges += 1;
                    counter("generator.merges_rejected", 1);
                    sink.record(Decision::Reject { a, b });
                }
            }
            scored = ranked.into_vec();
            sink.record(Decision::Iteration {
                span_bits: span.to_bits(),
                candidates: candidates_total,
                case1,
                case2,
                case3,
                pruned_qubit_cap,
                scored: scored_len,
            });
            // One decision event per merge iteration, whatever happened:
            // the journal's view of the whole criticality search.
            paqoc_telemetry::event!(
                "search.iteration",
                iter = report.iterations as u64,
                groups = grouped.len() as u64,
                span_ns = span,
                candidates = candidates_total as u64,
                case1 = case1 as u64,
                case2 = case2 as u64,
                case3 = case3 as u64,
                pruned_case3 = pruned_case3 as u64,
                pruned_qubit_cap = pruned_qubit_cap as u64,
                scored = scored_len as u64,
                committed = committed as u64,
            );
            if committed == 0 {
                break;
            }
        }
        false
    }
}

/// A scored pair, greatest first: span gain, then local gain (each as
/// its [`total_key`]), then the smaller pair.
type Scored = (i64, i64, Reverse<(usize, usize)>);

/// An integer key in `f64::total_cmp` order.
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The direct edge between the members of a pair `(a, b)`, if any. It
/// never changes while both live: a contraction only rewires the edges
/// of the two groups it consumes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Link {
    None,
    /// `a → b`.
    Forward,
    /// `b → a`.
    Backward,
}

impl Link {
    fn between(grouped: &GroupedCircuit, a: usize, b: usize) -> Link {
        if grouped.succs(a).contains(&b) {
            Link::Forward
        } else if grouped.succs(b).contains(&a) {
            Link::Backward
        } else {
            Link::None
        }
    }
}

/// A candidate tuple within the qubit cap.
#[derive(Clone, Copy, Debug)]
struct Open {
    a: usize,
    b: usize,
    link: Link,
    /// The pair's merged estimate, once a scoring needed it.
    est: Option<f64>,
}

/// A candidate tuple's slot in [`Candidates::index`] when it is over the
/// qubit cap (it is then only counted).
const CAPPED: usize = usize::MAX;

/// Algorithm 1's candidate tuples, kept across iterations: direct edges
/// as `(pred, succ)` and pairs sharing a neighbour as `(min, max)` — the
/// set the loop used to enumerate from the whole DAG every iteration.
#[derive(Default)]
struct Candidates {
    /// Every tuple by key: its slot in `open`, or [`CAPPED`].
    index: HashMap<u64, usize, FastHash>,
    /// The tuples within the qubit cap, in no particular order.
    open: Vec<Open>,
    /// Keys of the tuples naming each id; keys of dropped tuples may
    /// linger and are skipped.
    by_id: Vec<Vec<u64>>,
    /// Tuples over the qubit cap.
    capped: usize,
    /// Scratch: the neighbours of one group.
    around: Vec<usize>,
}

impl Candidates {
    /// Every tuple.
    fn len(&self) -> usize {
        self.index.len()
    }

    /// Adds `(a, b)` unless it is already a candidate, with its cap
    /// verdict.
    fn insert(
        &mut self,
        state: &SearchState,
        grouped: &GroupedCircuit,
        a: usize,
        b: usize,
        max_qubits: usize,
    ) {
        let k = key(a, b);
        if self.index.contains_key(&k) {
            return;
        }
        if state.union_size(a, b) > max_qubits {
            self.index.insert(k, CAPPED);
            self.capped += 1;
        } else {
            self.index.insert(k, self.open.len());
            self.open.push(Open {
                a,
                b,
                link: Link::between(grouped, a, b),
                est: None,
            });
        }
        for id in [a, b] {
            if self.by_id.len() <= id {
                self.by_id.resize_with(id + 1, Vec::new);
            }
            self.by_id[id].push(k);
        }
    }

    /// Drops every tuple naming `id`.
    fn remove_all(&mut self, id: usize) {
        let Some(keys) = self.by_id.get_mut(id) else {
            return;
        };
        for k in std::mem::take(keys) {
            match self.index.remove(&k) {
                None => {}
                Some(CAPPED) => self.capped -= 1,
                Some(slot) => {
                    self.open.swap_remove(slot);
                    if let Some(moved) = self.open.get(slot) {
                        self.index.insert(key(moved.a, moved.b), slot);
                    }
                }
            }
        }
    }

    /// The tuples `group` takes part in as a direct edge or as the
    /// shared neighbour of a sibling pair.
    fn add_around(
        &mut self,
        state: &SearchState,
        grouped: &GroupedCircuit,
        group: usize,
        cap: usize,
    ) {
        for &b in grouped.succs(group) {
            self.insert(state, grouped, group, b, cap);
        }
        let mut around = std::mem::take(&mut self.around);
        around.clear();
        around.extend(grouped.preds(group).iter().chain(grouped.succs(group)));
        for (i, &x) in around.iter().enumerate() {
            for &y in &around[i + 1..] {
                if x != y {
                    self.insert(state, grouped, x.min(y), x.max(y), cap);
                }
            }
        }
        self.around = around;
    }

    /// The candidate set of the DAG as the search starts.
    fn seed(&mut self, state: &SearchState, grouped: &GroupedCircuit, cap: usize) {
        for a in 0..grouped.id_bound() {
            if grouped.try_group(a).is_some() {
                self.add_around(state, grouped, a, cap);
            }
        }
    }

    /// Updates the set for the contraction of `a` and `b` into `m`: drops
    /// every tuple naming `a` or `b` and adds the tuples `m` can create —
    /// its edges and the sibling pairs around it (which include the pairs
    /// of a former neighbour of `a` with one of `b`), and the sibling
    /// pairs `m` forms around each of its neighbours. No other tuple
    /// appears or disappears: other edges are untouched, and a pair of
    /// other groups that shared `a` or `b` now shares `m`.
    fn replace(
        &mut self,
        state: &SearchState,
        grouped: &GroupedCircuit,
        a: usize,
        b: usize,
        m: usize,
        cap: usize,
    ) {
        self.remove_all(a);
        self.remove_all(b);
        for &p in grouped.preds(m) {
            self.insert(state, grouped, p, m, cap);
        }
        self.add_around(state, grouped, m, cap);
        for &w in grouped.preds(m).iter().chain(grouped.succs(m)) {
            for &y in grouped.preds(w).iter().chain(grouped.succs(w)) {
                if y != m {
                    self.insert(state, grouped, y.min(m), y.max(m), cap);
                }
            }
        }
    }
}

#[cfg(test)]
impl DecisionSink for Vec<Decision> {
    fn record(&mut self, decision: Decision) {
        self.push(decision);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::tests::random_grouped;
    use crate::search_tests::{random_grouping, reference_windows, seed};
    use paqoc_math::Rng;
    use std::collections::BTreeMap;

    /// The candidate tuples enumerated from the whole DAG, each with its
    /// cap verdict (`true` = over the cap).
    fn enumerate(grouped: &GroupedCircuit, cap: usize) -> BTreeMap<(usize, usize), bool> {
        let mut out = BTreeMap::new();
        let over = |a: usize, b: usize| {
            grouped
                .group(a)
                .qubits
                .union(&grouped.group(b).qubits)
                .count()
                > cap
        };
        for a in grouped.group_ids() {
            for &b in grouped.succs(a) {
                out.insert((a, b), over(a, b));
            }
            let around: Vec<usize> = grouped
                .preds(a)
                .iter()
                .chain(grouped.succs(a))
                .copied()
                .collect();
            for (i, &x) in around.iter().enumerate() {
                for &y in &around[i + 1..] {
                    out.insert((x.min(y), x.max(y)), over(x, y));
                }
            }
        }
        out
    }

    fn kept(candidates: &Candidates) -> BTreeMap<(usize, usize), bool> {
        candidates
            .index
            .iter()
            .map(|(&k, &slot)| {
                (
                    ((k >> 32) as usize, (k & 0xffff_ffff) as usize),
                    slot == CAPPED,
                )
            })
            .collect()
    }

    /// After every contraction the kept tuples, their cap verdicts and
    /// their edge links are what a fresh enumeration finds.
    #[test]
    fn kept_candidates_match_a_fresh_enumeration_after_every_contraction() {
        let mut rng = Rng::seed_from_u64(0xca4d);
        let mut contractions = 0;
        for i in 0..200 {
            let mut grouped = random_grouping(&mut rng);
            let cap = [2, 3][i % 2];
            let mut state = SearchState::new(&grouped);
            let mut candidates = Candidates::default();
            candidates.seed(&state, &grouped, cap);
            loop {
                assert_eq!(kept(&candidates), enumerate(&grouped, cap), "circuit {i}");
                assert_eq!(
                    candidates.capped,
                    candidates.index.len() - candidates.open.len()
                );
                for (slot, &Open { a, b, link, .. }) in candidates.open.iter().enumerate() {
                    assert_eq!(candidates.index[&key(a, b)], slot);
                    assert_eq!(link, Link::between(&grouped, a, b), "({a},{b})");
                }
                let pairs: Vec<(usize, usize)> = enumerate(&grouped, usize::MAX)
                    .into_keys()
                    .filter(|&(a, b)| grouped.contractible(a, b))
                    .collect();
                if pairs.is_empty() {
                    break;
                }
                let (a, b) = pairs[rng.random_range(0..pairs.len())];
                let m = grouped.contract(a, b);
                state.push_merged(a, b);
                candidates.replace(&state, &grouped, a, b, m, cap);
                contractions += 1;
            }
        }
        assert!(contractions > 2000, "only {contractions} contractions");
    }

    /// `true` when the kept order is topological over the live groups and
    /// holds each of them once, at its recorded slot.
    fn assert_topological(state: &SearchState, grouped: &GroupedCircuit, name: &str) {
        let live = grouped.group_ids();
        for &v in &live {
            assert_eq!(state.order.topo[state.order.pos[v]], v, "{name}");
            for &s in grouped.succs(v) {
                assert!(state.order.pos[v] < state.order.pos[s], "{name}: {v} → {s}");
            }
        }
        assert_eq!(state.order.nodes().count(), live.len(), "{name}");
    }

    /// After every preprocessing contraction the kept windows are the
    /// full passes' bits — `before` once brought up to date, to a random
    /// kept position and then to the end — the span read at the sources
    /// is the full pass's, the live walk visits the live groups and the
    /// kept order is topological.
    #[test]
    fn preprocessing_windows_and_order_stay_exact() {
        let device = Device::grid5x5();
        let opts = PaqocOptions::default();
        let mut rng = Rng::seed_from_u64(0x0b51);
        let mut contractions = 0;
        for i in 0..200 {
            let mut grouped = random_grouping(&mut rng);
            seed(&mut grouped, &device, &opts);
            let mut state = SearchState::new(&grouped);
            loop {
                let (before, after, span) = reference_windows(&grouped);
                let live = grouped.group_ids();
                let end = rng.random_range(0..=state.order.topo.len());
                state.refresh_before(&grouped, end);
                for &v in live.iter().filter(|&&v| state.order.pos[v] < end) {
                    assert_eq!(
                        state.before[v].to_bits(),
                        before[v].to_bits(),
                        "circuit {i}: {v} placed below {end}"
                    );
                }
                state.refresh_before(&grouped, state.order.topo.len());
                for &v in &live {
                    assert_eq!(
                        state.before[v].to_bits(),
                        before[v].to_bits(),
                        "circuit {i}"
                    );
                    assert_eq!(state.after[v].to_bits(), after[v].to_bits(), "circuit {i}");
                }
                assert_topological(&state, &grouped, &format!("circuit {i}"));
                assert_eq!(state.source_span().to_bits(), span.to_bits());
                let mut walk = vec![state.next_live(0)];
                while *walk.last().unwrap() < grouped.id_bound() {
                    walk.push(state.next_live(walk.last().unwrap() + 1));
                }
                walk.pop();
                assert_eq!(walk, live, "circuit {i}");
                let edges: Vec<(usize, usize)> = live
                    .iter()
                    .flat_map(|&a| grouped.succs(a).iter().map(move |&b| (a, b)))
                    .collect();
                let mut open = Vec::new();
                for (a, b) in edges {
                    let contractible = grouped.contractible(a, b);
                    assert_eq!(state.contractible(&grouped, a, b), contractible);
                    if contractible {
                        open.push((a, b));
                    }
                }
                if open.is_empty() {
                    break;
                }
                let (a, b) = open[rng.random_range(0..open.len())];
                let est = rng.random::<f64>() * 90.0 + 1.0;
                state.contract_edge(&mut grouped, a, b, est);
                contractions += 1;
            }
        }
        assert!(contractions > 2000, "only {contractions} contractions");
    }

    /// The criticality loop's kept state, driven as the loop drives it at
    /// `top_k` 1 and 3: each iteration's windows over the kept order, then
    /// up to `top_k` disjoint commits of candidate pairs, each checked for
    /// contractibility at its commit. Every iteration's windows and span
    /// are the full passes' bits, and after every commit the kept order is
    /// topological over the live groups.
    #[test]
    fn criticality_windows_and_order_stay_exact() {
        let device = Device::grid5x5();
        let opts = PaqocOptions::default();
        let mut rng = Rng::seed_from_u64(0xc417);
        let (mut commits, mut blocked) = (0, 0);
        for i in 0..200 {
            let top_k = [1, 3][i % 2];
            let mut grouped = random_grouping(&mut rng);
            seed(&mut grouped, &device, &opts);
            let mut state = SearchState::new(&grouped);
            loop {
                let span = state.windows(&grouped);
                let (before, after, want) = reference_windows(&grouped);
                assert_eq!(span.to_bits(), want.to_bits(), "circuit {i}");
                for v in grouped.group_ids() {
                    assert_eq!(
                        (state.before[v].to_bits(), state.after[v].to_bits()),
                        (before[v].to_bits(), after[v].to_bits()),
                        "circuit {i}: group {v}"
                    );
                }
                let mut pairs: Vec<(usize, usize)> = enumerate(&grouped, usize::MAX)
                    .into_keys()
                    .filter(|&(a, b)| grouped.contractible(a, b))
                    .collect();
                if pairs.is_empty() {
                    break;
                }
                for _ in 0..top_k {
                    if pairs.is_empty() {
                        break;
                    }
                    let (a, b) = pairs.swap_remove(rng.random_range(0..pairs.len()));
                    let (first, second) = if state.order.pos[a] < state.order.pos[b] {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    let contractible = grouped.contractible(a, b);
                    assert_eq!(state.contractible(&grouped, first, second), contractible);
                    if !contractible {
                        blocked += 1; // an earlier commit of the iteration closed a path
                        continue;
                    }
                    let est = rng.random::<f64>() * 90.0 + 1.0;
                    let mut trial = grouped.clone();
                    let m = trial.merge(a, b);
                    trial.group_mut(m).latency_ns = est;
                    assert_eq!(
                        state.trial_span(&grouped, first, second, est).to_bits(),
                        reference_windows(&trial).2.to_bits(),
                        "circuit {i}: pair ({a},{b})"
                    );
                    assert_eq!(state.contract(&mut grouped, a, b, est), m);
                    pairs.retain(|&(x, y)| ![a, b].contains(&x) && ![a, b].contains(&y));
                    assert_eq!(
                        grouped.group(m).latency_ns.to_bits(),
                        state.lat[m].to_bits()
                    );
                    assert_topological(&state, &grouped, &format!("circuit {i}"));
                    commits += 1;
                }
            }
        }
        assert!(
            commits > 2000 && blocked > 0,
            "{commits} commits, {blocked} blocked"
        );
    }

    /// The trial span against clone + merge + makespan on every
    /// contractible pair of random DAGs — direct edges, siblings and
    /// diamonds (a shared predecessor and a shared successor) — with one
    /// state for every trial of a DAG, so stale buffers must not leak in.
    #[test]
    fn trial_span_matches_clone_merge_makespan() {
        let mut rng = Rng::seed_from_u64(0xc0de);
        let (mut direct, mut siblings, mut diamonds) = (0, 0, 0);
        for _ in 0..150 {
            let g = random_grouped(&mut rng, 30);
            let mut state = SearchState::new(&g);
            let ids = g.group_ids();
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    let (first, second) = if state.order.pos[a] < state.order.pos[b] {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    let contractible = g.contractible(a, b);
                    assert_eq!(state.contractible(&g, first, second), contractible);
                    if !contractible {
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
                        state.trial_span(&g, first, second, lat).to_bits(),
                        reference_windows(&trial).2.to_bits(),
                        "pair ({a},{b})"
                    );
                    let shares =
                        |adj: &[usize], other: &[usize]| adj.iter().any(|x| other.contains(x));
                    let shared_pred = shares(g.preds(a), g.preds(b));
                    let shared_succ = shares(g.succs(a), g.succs(b));
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
}
