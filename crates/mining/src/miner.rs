//! Frequent-subcircuit mining by pattern growth.
//!
//! Level-wise growth in the spirit of GraMi/gSpan, specialized to
//! circuit DAGs: instances grow by absorbing an adjacent gate, stay
//! *convex* (so they remain collapsible subcircuits), respect the
//! APA-basis qubit cap, and are grouped by canonical code. Support is
//! anti-monotone under this instance semantics, so infrequent patterns
//! prune their whole extension subtree.

use crate::canon::Canonicalizer;
use crate::graph::{CircuitGraph, Reachability};
use paqoc_circuit::Circuit;
use paqoc_telemetry::counter;
use std::collections::{HashMap, HashSet};

/// Mining configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinerOptions {
    /// Minimum number of instances for a pattern to be frequent
    /// (the paper's `M = inf` mode keeps "any gate sequence that appears
    /// more than twice", i.e. support ≥ 2).
    pub min_support: usize,
    /// Maximum distinct qubits per pattern (the paper's `maxN`).
    pub max_qubits: usize,
    /// Maximum gates per pattern.
    pub max_gates: usize,
    /// Cap on instances tracked per pattern (keeps worst-case growth
    /// polynomial; patterns at the cap are already decisively frequent).
    pub max_instances_per_pattern: usize,
    /// Cap on patterns carried to the next growth level (top by support).
    pub beam_width: usize,
}

impl Default for MinerOptions {
    fn default() -> Self {
        MinerOptions {
            min_support: 2,
            max_qubits: 3,
            max_gates: 6,
            max_instances_per_pattern: 512,
            beam_width: 256,
        }
    }
}

/// A frequent subcircuit pattern.
#[derive(Clone, Debug)]
pub struct Pattern {
    /// Canonical structural code (stable pattern identity).
    pub code: String,
    /// Number of gates in the pattern.
    pub num_gates: usize,
    /// Number of distinct qubits the pattern touches.
    pub num_qubits: usize,
    /// All embeddings found, each a sorted list of instruction indices.
    pub instances: Vec<Vec<usize>>,
}

impl Pattern {
    /// Support = number of embeddings (possibly overlapping).
    pub fn support(&self) -> usize {
        self.instances.len()
    }

    /// Greedy maximum set of pairwise-disjoint instances, in circuit
    /// order. This is what substitution uses.
    pub fn disjoint_instances(&self) -> Vec<Vec<usize>> {
        self.disjoint_picks().into_iter().cloned().collect()
    }

    /// Coverage = gates covered by the disjoint instances; the selection
    /// criterion the paper uses to choose among overlapping patterns.
    pub fn coverage(&self) -> usize {
        self.disjoint_picks().len() * self.num_gates
    }

    /// The instances [`Pattern::disjoint_instances`] keeps: scanned by
    /// first gate (ties in discovery order), each kept unless it
    /// overlaps one kept before it.
    pub(crate) fn disjoint_picks(&self) -> Vec<&Vec<usize>> {
        let mut picks: Vec<&Vec<usize>> = self.instances.iter().collect();
        picks.sort_by_key(|inst| inst[0]);
        let end = self.instances.iter().filter_map(|inst| inst.last()).max();
        let mut used = vec![false; end.map_or(0, |&v| v + 1)];
        picks.retain(|inst| {
            let free = inst.iter().all(|&i| !used[i]);
            if free {
                inst.iter().for_each(|&i| used[i] = true);
            }
            free
        });
        picks
    }
}

/// Mines frequent subcircuits of a physical circuit.
///
/// Returns patterns with at least `opts.min_support` embeddings and at
/// least 2 gates, sorted by coverage (descending), then by size.
///
/// # Examples
///
/// ```
/// use paqoc_circuit::Circuit;
/// use paqoc_mining::{mine_frequent_subcircuits, MinerOptions};
///
/// let mut c = Circuit::new(3);
/// // Two CPHASE skeletons: cx·rz·cx twice.
/// c.cx(0, 1).rz(1, 0.7).cx(0, 1);
/// c.cx(1, 2).rz(2, 0.7).cx(1, 2);
/// let patterns = mine_frequent_subcircuits(&c, &MinerOptions::default());
/// assert!(patterns.iter().any(|p| p.num_gates == 3 && p.support() == 2));
/// ```
pub fn mine_frequent_subcircuits(circuit: &Circuit, opts: &MinerOptions) -> Vec<Pattern> {
    mine(circuit, opts, counter)
}

/// [`mine_frequent_subcircuits`], reporting its `miner.*` counts to
/// `count` instead of the telemetry registry.
pub(crate) fn mine(
    circuit: &Circuit,
    opts: &MinerOptions,
    mut count: impl FnMut(&'static str, u64),
) -> Vec<Pattern> {
    let graph = CircuitGraph::from_circuit(circuit);
    let reach = Reachability::new(&graph);
    if graph.is_empty() {
        return Vec::new();
    }

    // Level 1: single gates grouped by label.
    let mut by_label: HashMap<String, Vec<Vec<usize>>> = HashMap::new();
    for v in 0..graph.len() {
        by_label
            .entry(graph.label(v).to_string())
            .or_default()
            .push(vec![v]);
    }
    let singles = frequent_level(&graph, by_label, opts);

    // Each level's patterns move into `results`; `parents` is the range
    // the next level grows from (level 2 grows from `singles`).
    let mut results: Vec<Pattern> = Vec::new();
    let mut parents = 0..0;
    let mut canon = Canonicalizer::default();
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    let (mut qubits, mut cands, mut grown) = (Vec::new(), Vec::new(), Vec::new());
    for level in 2..=opts.max_gates {
        let frontier = if level == 2 {
            &singles[..]
        } else {
            &results[parents.clone()]
        };
        let mut next: HashMap<String, Vec<Vec<usize>>> = HashMap::new();
        seen.clear();
        let (mut tried, mut over_cap, mut nonconvex) = (0u64, 0u64, 0u64);
        for inst in frontier.iter().flat_map(|p| &p.instances) {
            // `inst` is sorted; so are its qubits and its candidate
            // extensions (neighbours of any member).
            qubits.clear();
            qubits.extend(inst.iter().flat_map(|&v| graph.qubits(v)));
            qubits.sort_unstable();
            qubits.dedup();
            cands.clear();
            cands.extend(
                inst.iter()
                    .flat_map(|&v| graph.neighbors(v))
                    .filter(|nb| !inst.contains(nb)),
            );
            cands.sort_unstable();
            cands.dedup();
            for &cand in &cands {
                tried += 1;
                let fresh = graph
                    .qubits(cand)
                    .iter()
                    .filter(|q| qubits.binary_search(q).is_err())
                    .count();
                if qubits.len() + fresh > opts.max_qubits {
                    over_cap += 1;
                    continue;
                }
                let at = inst.partition_point(|&v| v < cand);
                grown.clear();
                grown.extend_from_slice(&inst[..at]);
                grown.push(cand);
                grown.extend_from_slice(&inst[at..]);
                if seen.contains(&grown) {
                    continue;
                }
                if !reach.is_convex(&grown) {
                    nonconvex += 1;
                    continue;
                }
                seen.insert(grown.clone());
                let code = canon.code(&graph, &grown);
                let bucket = match next.get_mut(code) {
                    Some(bucket) => bucket,
                    None => next.entry(code.to_owned()).or_default(),
                };
                if bucket.len() < opts.max_instances_per_pattern {
                    bucket.push(grown.clone());
                }
            }
        }
        // One counter call per level, from the local sums; a zero delta
        // is skipped so the snapshot's counter set is the one the
        // per-candidate calls produced.
        for (name, delta) in [
            ("miner.extensions_tried", tried),
            ("miner.rejected_qubit_cap", over_cap),
            ("miner.rejected_nonconvex", nonconvex),
        ] {
            if delta > 0 {
                count(name, delta);
            }
        }
        let level_patterns = frequent_level(&graph, next, opts);
        if level_patterns.is_empty() {
            break;
        }
        let start = results.len();
        results.extend(level_patterns);
        parents = start..results.len();
    }

    // Rank by coverage (descending), then size, then code. Codes are
    // unique within a level and a level fixes the size, so the key is a
    // total order; each coverage is computed once.
    let mut ranked: Vec<(usize, Pattern)> =
        results.into_iter().map(|p| (p.coverage(), p)).collect();
    ranked.sort_unstable_by(|(cov_a, a), (cov_b, b)| {
        cov_b
            .cmp(cov_a)
            .then(b.num_gates.cmp(&a.num_gates))
            .then_with(|| a.code.cmp(&b.code))
    });
    count("miner.patterns_found", ranked.len() as u64);
    ranked.into_iter().map(|(_, p)| p).collect()
}

/// The frequent patterns of one level: buckets with at least
/// `min_support` (capped) instances, ranked by that count (descending)
/// then code, cut to `beam_width`.
fn frequent_level(
    graph: &CircuitGraph,
    buckets: HashMap<String, Vec<Vec<usize>>>,
    opts: &MinerOptions,
) -> Vec<Pattern> {
    let mut level: Vec<(String, Vec<Vec<usize>>)> = buckets
        .into_iter()
        .filter(|(_, inst)| inst.len() >= opts.min_support)
        .collect();
    level.sort_unstable_by(|a, b| b.1.len().cmp(&a.1.len()).then_with(|| a.0.cmp(&b.0)));
    level.truncate(opts.beam_width);
    level
        .into_iter()
        .map(|(code, instances)| {
            let sample = &instances[0];
            let mut qubits: Vec<usize> = sample
                .iter()
                .flat_map(|&v| graph.qubits(v).iter().copied())
                .collect();
            qubits.sort_unstable();
            qubits.dedup();
            Pattern {
                code,
                num_gates: sample.len(),
                num_qubits: qubits.len(),
                instances,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_swap_pattern_in_a_cx_ladder() {
        // Three SWAP decompositions on different qubit pairs.
        let mut c = Circuit::new(4);
        for (a, b) in [(0usize, 1usize), (1, 2), (2, 3)] {
            c.cx(a, b).cx(b, a).cx(a, b);
        }
        let patterns = mine_frequent_subcircuits(&c, &MinerOptions::default());
        let swap = patterns
            .iter()
            .find(|p| p.code == "cx(0,1);cx(1,0);cx(0,1)")
            .expect("swap pattern found");
        assert_eq!(swap.support(), 3);
        assert_eq!(swap.num_qubits, 2);
    }

    #[test]
    fn respects_the_qubit_cap() {
        let mut c = Circuit::new(5);
        for q in 0..4 {
            c.cx(q, q + 1);
        }
        let opts = MinerOptions {
            max_qubits: 2,
            ..MinerOptions::default()
        };
        for p in mine_frequent_subcircuits(&c, &opts) {
            assert!(p.num_qubits <= 2, "{p:?}");
        }
    }

    #[test]
    fn respects_the_gate_cap() {
        let mut c = Circuit::new(2);
        for _ in 0..10 {
            c.rz(0, 0.4).rz(1, 0.4);
        }
        let opts = MinerOptions {
            max_gates: 3,
            ..MinerOptions::default()
        };
        for p in mine_frequent_subcircuits(&c, &opts) {
            assert!(p.num_gates <= 3, "{p:?}");
        }
    }

    #[test]
    fn infrequent_patterns_are_dropped() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1); // appears once
        c.x(0).x(1); // x appears twice
        let patterns = mine_frequent_subcircuits(&c, &MinerOptions::default());
        assert!(patterns.iter().all(|p| p.support() >= 2), "{patterns:?}");
    }

    #[test]
    fn disjoint_instances_do_not_overlap() {
        // Overlapping rz-rz chains: rz(0) rz(0) rz(0) gives instances
        // {0,1} and {1,2} — only one can be picked.
        let mut c = Circuit::new(1);
        c.rz(0, 0.4).rz(0, 0.4).rz(0, 0.4);
        let patterns = mine_frequent_subcircuits(&c, &MinerOptions::default());
        let chain = patterns
            .iter()
            .find(|p| p.num_gates == 2)
            .expect("2-gate chain mined");
        assert!(chain.support() >= 2);
        assert_eq!(chain.disjoint_instances().len(), 1);
    }

    #[test]
    fn parameterized_circuits_mine_by_symbol() {
        use paqoc_circuit::{Angle, GateKind};
        let mut c = Circuit::new(4);
        for (a, b) in [(0usize, 1usize), (2, 3)] {
            c.cx(a, b);
            c.apply(
                GateKind::Rz,
                vec![b],
                vec![Angle::sym("gamma", 0.3 + a as f64)],
            );
            c.cx(a, b);
        }
        let patterns = mine_frequent_subcircuits(&c, &MinerOptions::default());
        let cphase = patterns
            .iter()
            .find(|p| p.num_gates == 3 && p.num_qubits == 2)
            .expect("parameterized cphase pattern");
        assert_eq!(cphase.support(), 2);
        assert!(cphase.code.contains("gamma"));
    }

    #[test]
    fn empty_circuit_mines_nothing() {
        let c = Circuit::new(3);
        assert!(mine_frequent_subcircuits(&c, &MinerOptions::default()).is_empty());
    }

    #[test]
    fn instances_are_convex() {
        // cx(0,1), h(1), cx(0,1), cx(0,1) — the pair {0,2} is blocked by
        // h; the pair {2,3} is fine.
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(1).cx(0, 1).cx(0, 1);
        let patterns = mine_frequent_subcircuits(&c, &MinerOptions::default());
        let g = CircuitGraph::from_circuit(&c);
        let r = Reachability::new(&g);
        for p in &patterns {
            for inst in &p.instances {
                assert!(r.is_convex(inst), "{inst:?} not convex");
            }
        }
    }
}
