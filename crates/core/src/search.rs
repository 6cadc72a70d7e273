//! The merge search of the customized-gates generator: the
//! Observation-1 preprocessing and the criticality loop of the paper's
//! Algorithm 1, over state kept from one round to the next.
//!
//! Both make the decisions they made when every round rebuilt its state
//! from the grouped circuit; what changed is what a round recomputes.
//!
//! * Ids are never reused and a group never changes while it lives, so
//!   a pair's qubit-cap verdict and its merged-latency estimate are fixed
//!   for the pair's life. Each is computed once: the verdict as a
//!   popcount over qubit bitsets, the estimate into one map both phases
//!   share.
//! * Algorithm 1 keeps its candidate tuples. A contraction drops the
//!   tuples naming its two members and derives only those the merged
//!   node can add: its edges, the sibling pairs around it and the sibling
//!   pairs around each of its neighbours. Every iteration still
//!   recomputes the windows, the critical flags and the score of every
//!   pair with a critical member, from one topological order.
//! * The preprocessing keeps a topological order, `cp_before`/`cp_after`,
//!   the live groups and the sources. A round walks the live groups only
//!   and reads the span at the sources. After a merge it recomputes
//!   `after` in the merged node's ancestor cone at once and `before` only
//!   as far as a round reads it, in kept order; a max of the same values
//!   is the same float. Its contractibility search stops at the pair's
//!   successor's position in the kept order.
//!
//! DESIGN.md §15 explains each step.

use crate::error::Degradation;
use crate::generator::{GeneratorReport, PaqocOptions};
use crate::group::{GroupedCircuit, SpanScratch, Windows};
use paqoc_circuit::Instruction;
use paqoc_device::{AnalyticModel, Device, LoweredGroup};
use paqoc_math::FastHash;
use paqoc_telemetry::{counter, event, span, FieldValue};
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
    /// Both windows of every group (`cp_before` and `cp_after`), and the
    /// topological order of the last full pass.
    windows: Windows,
    /// Scratch of the graph searches.
    stack: Vec<usize>,
    /// `seen[v] == epoch` marks `v` visited by the current search.
    seen: Vec<u32>,
    epoch: u32,
    /// The preprocessing's kept topological order, with [`VACANT`]
    /// slots, and each live group's slot in it.
    topo: Vec<usize>,
    pos: Vec<usize>,
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
    /// Scratch of the commit's trial span.
    span_scratch: SpanScratch,
}

/// A slot of the kept topological order that no group holds.
const VACANT: usize = usize::MAX;

impl SearchState {
    fn new(grouped: &GroupedCircuit) -> Self {
        let words = grouped.num_qubits().div_ceil(64).max(1);
        let bound = grouped.id_bound();
        let mut qubit_bits = vec![0u64; bound * words];
        for id in 0..bound {
            if let Some(g) = grouped.try_group(id) {
                for &q in &g.qubits {
                    qubit_bits[id * words + q / 64] |= 1 << (q % 64);
                }
            }
        }
        SearchState {
            words,
            qubit_bits,
            pair_est: HashMap::default(),
            lowered: Vec::new(),
            windows: Windows::default(),
            stack: Vec::new(),
            seen: Vec::new(),
            epoch: 0,
            topo: Vec::new(),
            pos: Vec::new(),
            fresh: 0,
            next_live: Vec::new(),
            sources: Vec::new(),
            heap: BinaryHeap::new(),
            span_scratch: SpanScratch::default(),
        }
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
                    self.windows.before[a].max(self.windows.before[b]),
                    self.windows.after[a].max(self.windows.after[b]),
                );
            }
            Link::Forward => (a, b),
            Link::Backward => (b, a),
        };
        let new_before = grouped
            .preds(second)
            .iter()
            .filter(|&&p| p != first)
            .map(|&p| self.windows.before[p] + grouped.group(p).latency_ns)
            .fold(self.windows.before[first], f64::max);
        let new_after = grouped
            .succs(first)
            .iter()
            .filter(|&&s| s != second)
            .map(|&s| grouped.group(s).latency_ns + self.windows.after[s])
            .fold(self.windows.after[second], f64::max);
        (new_before, new_after)
    }

    /// Sizes the per-id buffers for every id minted so far.
    fn grow(&mut self, grouped: &GroupedCircuit) {
        let bound = grouped.id_bound();
        self.windows.before.resize(bound, 0.0);
        self.windows.after.resize(bound, 0.0);
        self.seen.resize(bound, 0);
        self.pos.resize(bound, 0);
    }

    /// Recomputes both windows over the whole DAG; returns the makespan.
    fn windows(&mut self, grouped: &GroupedCircuit) -> f64 {
        let span = grouped.windows_into(&mut self.windows);
        self.grow(grouped);
        span
    }

    /// Starts a new graph search: every `seen` mark becomes stale.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
    }

    /// The makespan from the kept `after`, read at the sources: every
    /// group lies below a source whose `latency + after` is at least its
    /// own (latencies are finite and non-negative, and adding one never
    /// lowers a sum), so the max over the sources is the same float as
    /// the max over every live group.
    fn source_span(&self, grouped: &GroupedCircuit) -> f64 {
        self.sources
            .iter()
            .map(|&v| grouped.group(v).latency_ns + self.windows.after[v])
            .fold(0.0, f64::max)
    }

    /// Starts keeping the preprocessing's state from a full windows pass:
    /// its topological order, with every `before` exact, the live walk
    /// and the sources. Checks the source span's premise on every latency.
    fn keep_state(&mut self, grouped: &GroupedCircuit) {
        self.windows(grouped);
        self.topo.clear();
        self.topo.extend_from_slice(&self.windows.order);
        self.fresh = self.topo.len();
        self.sources.clear();
        let bound = grouped.id_bound();
        self.next_live = (1..=bound).chain([bound]).collect();
        for (i, &v) in self.topo.iter().enumerate() {
            self.pos[v] = i;
            self.next_live[v] = v;
            let latency = grouped.group(v).latency_ns;
            assert!((0.0..f64::INFINITY).contains(&latency), "latency {latency}");
            if grouped.preds(v).is_empty() {
                self.sources.push(v);
            }
        }
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
            let v = self.topo[i];
            if v != VACANT {
                self.windows.before[v] = grouped.preds(v).iter().fold(0.0f64, |best, &p| {
                    best.max(grouped.group(p).latency_ns + self.windows.before[p])
                });
            }
        }
        self.fresh = self.fresh.max(end);
    }

    /// `true` when contracting the edge `a → b` keeps the DAG acyclic:
    /// no path `a ⇝ x ⇝ b` through a third group (a path `b ⇝ a` would
    /// close a cycle with the edge). The search stops at `b`'s position in
    /// the kept order; when it finds no path it leaves the descendants of
    /// `a` placed before `b` marked.
    fn edge_contractible(&mut self, grouped: &GroupedCircuit, a: usize, b: usize) -> bool {
        self.next_epoch();
        !third_path(
            &mut self.seen,
            self.epoch,
            &mut self.stack,
            grouped,
            a,
            b,
            &self.pos,
        )
    }

    /// Contracts the contractible edge `a → b` into a group of latency
    /// `est` and brings the kept state up to date. Returns the new id.
    ///
    /// The order: between `a` and `b`, the descendants of `a` move after
    /// the merged node and everything else before it, keeping their
    /// relative order. No edge runs from a descendant of `a` to a group
    /// that is not one, a predecessor of `b` is not a descendant of `a`
    /// (the edge is contractible), and the merged node's other
    /// neighbours lie outside the span, so the order stays topological.
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
        let (lo, hi) = (self.pos[a], self.pos[b]);
        let contractible = self.edge_contractible(grouped, a, b);
        assert!(contractible, "({a},{b}) is not contractible");
        counter("group.contractions", 1);
        let m = grouped.contract(a, b);
        grouped.group_mut(m).latency_ns = est;
        grouped.group_mut(m).fidelity = 0.0; // marker: estimate only
        self.push_merged(a, b);
        self.grow(grouped);

        // The slots `lo..=hi`: the others, the merged node, then the
        // marked descendants of `a`; the freed slot last.
        let segment = &mut self.stack;
        segment.clear();
        let epoch = self.epoch;
        for &v in &self.topo[lo + 1..hi] {
            if v != VACANT && self.seen[v] != epoch {
                segment.push(v);
            }
        }
        segment.push(m);
        for &v in &self.topo[lo + 1..hi] {
            if v != VACANT && self.seen[v] == epoch {
                segment.push(v);
            }
        }
        for (i, slot) in self.topo[lo..=hi].iter_mut().enumerate() {
            *slot = segment.get(i).copied().unwrap_or(VACANT);
        }
        for i in lo..lo + segment.len() {
            self.pos[self.topo[i]] = i;
        }
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
        self.next_epoch();
        self.heap.clear();
        self.heap.push(self.pos[m]);
        self.seen[m] = self.epoch;
        while let Some(at) = self.heap.pop() {
            let v = self.topo[at];
            let after = &mut self.windows.after;
            let value = grouped.succs(v).iter().fold(0.0f64, |best, &s| {
                best.max(grouped.group(s).latency_ns + after[s])
            });
            if v != m && value.to_bits() == after[v].to_bits() {
                continue;
            }
            after[v] = value;
            for &p in grouped.preds(v) {
                if self.seen[p] != self.epoch {
                    self.seen[p] = self.epoch;
                    self.heap.push(self.pos[p]);
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
        self.keep_state(grouped);
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return merges;
            }
            let span = self.source_span(grouped);
            let mut found = None;
            let mut a = self.next_live(0);
            'scan: while a < grouped.id_bound() {
                for &b in grouped.succs(a) {
                    if self.union_size(a, b) > cap || blocked.contains(&key(a, b)) {
                        continue;
                    }
                    if !self.edge_contractible(grouped, a, b) {
                        blocked.insert(key(a, b));
                        continue;
                    }
                    let est = self.estimate(grouped, device, estimator, opts.target_fidelity, a, b);
                    // Cheap span check: the merged node's heaviest path
                    // must not exceed the current span (the rest of the
                    // DAG can only have gotten lighter). It reads `before`
                    // at `a` and `b`'s predecessors, all placed before `b`.
                    self.refresh_before(grouped, self.pos[b]);
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
        let mut scored: Vec<(f64, f64, usize, usize)> = Vec::new();
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
            for &g in &self.windows.order {
                let weight =
                    self.windows.before[g] + grouped.group(g).latency_ns + self.windows.after[g];
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
            for &Open { a, b, link } in &candidates.open {
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
                let est = self.estimate(grouped, device, estimator, opts.target_fidelity, a, b);
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
                let local_gain = grouped.group(a).latency_ns + grouped.group(b).latency_ns - est;
                if span_gain > opts.tolerance_ns
                    || (span_gain >= -opts.tolerance_ns && local_gain > opts.tolerance_ns)
                {
                    scored.push((span_gain, local_gain, a, b));
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
            // journaled.
            scored.sort_by(|x, y| {
                y.0.total_cmp(&x.0)
                    .then(y.1.total_cmp(&x.1))
                    .then((x.2, x.3).cmp(&(y.2, y.3)))
            });

            // Commit up to top-k disjoint candidates, each validated with
            // the (free) estimator latency and rolled back if it fails to
            // help — the paper's core compile-time saving: Observations 1
            // and 2 replace trial pulse generation; real pulses are only
            // generated once the grouping is final.
            let mut committed = 0usize;
            touched.clear();
            for &(_, _, a, b) in &scored {
                if committed >= opts.top_k {
                    break;
                }
                if touched.contains(&a) || touched.contains(&b) {
                    continue; // candidate invalidated by an earlier merge
                }
                if !grouped.contractible(a, b) {
                    continue;
                }
                let saved_latency = grouped.group(a).latency_ns + grouped.group(b).latency_ns;
                let est = self.pair_est[&key(a, b)];
                // The trial span is computed on the contracted DAG without
                // building it; the merge happens only on commit.
                let new_span = grouped.contracted_makespan(a, b, est, &mut self.span_scratch);
                // Commit on strict span decrease, or on span non-increase
                // with a strict total-pulse-time decrease (guarantees
                // monotonic span and loop termination).
                let total_gain = saved_latency - est;
                let commit = new_span < span - opts.tolerance_ns
                    || (new_span <= span + opts.tolerance_ns && total_gain > opts.tolerance_ns);
                if paqoc_telemetry::enabled() {
                    let (ga, gb) = (grouped.group(a), grouped.group(b));
                    let gates = ga.instructions.len() + gb.instructions.len();
                    let qubits = self.union_size(a, b);
                    event(
                        if commit {
                            "search.merge_commit"
                        } else {
                            "search.merge_reject"
                        },
                        &[
                            ("iter", FieldValue::U64(report.iterations as u64)),
                            ("a", FieldValue::U64(a as u64)),
                            ("b", FieldValue::U64(b as u64)),
                            ("gates", FieldValue::U64(gates as u64)),
                            ("qubits", FieldValue::U64(qubits as u64)),
                            ("predicted_latency_ns", FieldValue::F64(est)),
                            ("predicted_span_gain_ns", FieldValue::F64(span - new_span)),
                            ("local_gain_ns", FieldValue::F64(total_gain)),
                        ],
                    );
                }
                if commit {
                    let m = grouped.contract(a, b);
                    grouped.group_mut(m).latency_ns = est;
                    grouped.group_mut(m).fidelity = 0.0; // marker: estimate only
                    self.push_merged(a, b);
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
            sink.record(Decision::Iteration {
                span_bits: span.to_bits(),
                candidates: candidates_total,
                case1,
                case2,
                case3,
                pruned_qubit_cap,
                scored: scored.len(),
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
                scored = scored.len() as u64,
                committed = committed as u64,
            );
            if committed == 0 {
                break;
            }
        }
        false
    }
}

/// `true` when a path `from ⇝ x ⇝ to` runs through a third group, found
/// by a depth-first search that marks (`seen[x] = epoch`) what it visits.
/// `pos` is a topological position, so a group placed after `to` cannot
/// reach it and is never entered.
fn third_path(
    seen: &mut [u32],
    epoch: u32,
    stack: &mut Vec<usize>,
    grouped: &GroupedCircuit,
    from: usize,
    to: usize,
    pos: &[usize],
) -> bool {
    let limit = pos[to];
    stack.clear();
    for &s in grouped.succs(from) {
        if s != to && pos[s] <= limit {
            seen[s] = epoch;
            stack.push(s);
        }
    }
    while let Some(v) = stack.pop() {
        for &s in grouped.succs(v) {
            if s == to {
                return true;
            }
            if seen[s] != epoch && pos[s] <= limit {
                seen[s] = epoch;
                stack.push(s);
            }
        }
    }
    false
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
                for (slot, &Open { a, b, link }) in candidates.open.iter().enumerate() {
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
            state.keep_state(&grouped);
            loop {
                let (before, after, span) = reference_windows(&grouped);
                let live = grouped.group_ids();
                let end = rng.random_range(0..=state.topo.len());
                state.refresh_before(&grouped, end);
                for &v in live.iter().filter(|&&v| state.pos[v] < end) {
                    assert_eq!(
                        state.windows.before[v].to_bits(),
                        before[v].to_bits(),
                        "circuit {i}: {v} placed below {end}"
                    );
                }
                state.refresh_before(&grouped, state.topo.len());
                for &v in &live {
                    assert_eq!(
                        state.windows.before[v].to_bits(),
                        before[v].to_bits(),
                        "circuit {i}"
                    );
                    assert_eq!(
                        state.windows.after[v].to_bits(),
                        after[v].to_bits(),
                        "circuit {i}"
                    );
                    assert_eq!(state.topo[state.pos[v]], v);
                    for &s in grouped.succs(v) {
                        assert!(state.pos[v] < state.pos[s], "circuit {i}: {v} → {s}");
                    }
                }
                let held = state.topo.iter().filter(|&&v| v != VACANT).count();
                assert_eq!(held, live.len(), "circuit {i}");
                assert_eq!(state.source_span(&grouped).to_bits(), span.to_bits());
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
                    assert_eq!(state.edge_contractible(&grouped, a, b), contractible);
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
}
