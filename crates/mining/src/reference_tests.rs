//! Reference oracles for the miner and the tests that hold the live code
//! to them.
//!
//! The references are the implementations the live code replaced, kept
//! as they were apart from the counter sink: a canonical-code search
//! that clones its whole state on every branch, a level loop that
//! builds hash and tree sets per instance and clones every instance
//! list, and a final sort that recomputes both coverages on every
//! comparison. The live code must return the same codes, the same
//! patterns in the same order, the same APA covers and the same
//! `miner.*` counts.

use crate::canon::canonical_code;
use crate::graph::{CircuitGraph, Reachability};
use crate::miner::{mine, MinerOptions, Pattern};
use crate::select::{select_apa_basis, ApaBudget, ApaCover, ApaSelection};
use paqoc_circuit::{decompose, Angle, Basis, Circuit, GateKind};
use paqoc_device::Device;
use paqoc_mapping::{try_sabre_map, SabreOptions};
use paqoc_math::Rng;
use paqoc_workloads::all_benchmarks;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

fn reference_canonical_code(graph: &CircuitGraph, nodes: &[usize]) -> String {
    assert!(!nodes.is_empty(), "instance must contain at least one gate");
    let mut nodes = nodes.to_vec();
    nodes.sort_unstable();
    nodes.dedup();

    // Local adjacency restricted to the instance.
    let index_of = |v: usize| nodes.iter().position(|&n| n == v);
    let k = nodes.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (li, &v) in nodes.iter().enumerate() {
        for e in graph.in_edges(v) {
            if let Some(lp) = index_of(e.from) {
                preds[li].push(lp);
            }
        }
    }

    let mut best: Option<String> = None;
    let state = EmitState {
        emitted: Vec::new(),
        qubit_ids: BTreeMap::new(),
        code: String::new(),
    };
    search(graph, &nodes, &preds, state, &mut best);
    best.expect("at least one linearization exists")
}

#[derive(Clone)]
struct EmitState {
    emitted: Vec<usize>,               // local indices in emission order
    qubit_ids: BTreeMap<usize, usize>, // physical qubit -> canonical id
    code: String,
}

/// The emission token of a node under the current state: gate label plus
/// canonical qubit ids (fresh qubits numbered in operand order).
fn token(
    graph: &CircuitGraph,
    nodes: &[usize],
    local: usize,
    state: &EmitState,
) -> (String, Vec<(usize, usize)>) {
    let v = nodes[local];
    let mut fresh: Vec<(usize, usize)> = Vec::new();
    let mut next_id = state.qubit_ids.len();
    let ids: Vec<String> = graph
        .qubits(v)
        .iter()
        .map(|&q| {
            if let Some(&id) = state.qubit_ids.get(&q) {
                id.to_string()
            } else if let Some(&(_, id)) = fresh.iter().find(|&&(fq, _)| fq == q) {
                id.to_string()
            } else {
                let id = next_id;
                fresh.push((q, id));
                next_id += 1;
                id.to_string()
            }
        })
        .collect();
    (format!("{}({})", graph.label(v), ids.join(",")), fresh)
}

fn search(
    graph: &CircuitGraph,
    nodes: &[usize],
    preds: &[Vec<usize>],
    state: EmitState,
    best: &mut Option<String>,
) {
    let k = nodes.len();
    if state.emitted.len() == k {
        match best {
            Some(b) if *b <= state.code => {}
            _ => *best = Some(state.code),
        }
        return;
    }
    // Prune: a prefix already worse than the best completed code can
    // never win (string comparison is prefix-monotone for our format
    // because every code has the same number of ';'-separated tokens).
    if let Some(b) = best {
        if !b.is_empty() && state.code.len() <= b.len() && !state.code.is_empty() {
            let prefix = &b[..state.code.len().min(b.len())];
            if state.code.as_str() > prefix {
                return;
            }
        }
    }

    // Ready nodes: all instance-internal predecessors emitted.
    let ready: Vec<usize> = (0..k)
        .filter(|&li| !state.emitted.contains(&li))
        .filter(|&li| preds[li].iter().all(|p| state.emitted.contains(p)))
        .collect();

    // Greedy-minimal: emit only the nodes whose token is minimal.
    #[allow(clippy::type_complexity)]
    let tokens: Vec<(usize, (String, Vec<(usize, usize)>))> = ready
        .iter()
        .map(|&li| (li, token(graph, nodes, li, &state)))
        .collect();
    let min_tok = tokens
        .iter()
        .map(|(_, (t, _))| t.clone())
        .min()
        .expect("DAG always has a ready node");

    for (li, (tok, fresh)) in tokens {
        if tok != min_tok {
            continue;
        }
        let mut next = state.clone();
        next.emitted.push(li);
        for (q, id) in fresh {
            next.qubit_ids.insert(q, id);
        }
        if !next.code.is_empty() {
            next.code.push(';');
        }
        next.code.push_str(&tok);
        search(graph, nodes, preds, next, best);
    }
}

fn reference_disjoint_instances(p: &Pattern) -> Vec<Vec<usize>> {
    let mut used: HashSet<usize> = HashSet::new();
    let mut picked = Vec::new();
    let mut ordered = p.instances.clone();
    ordered.sort_by_key(|inst| inst[0]);
    for inst in ordered {
        if inst.iter().all(|i| !used.contains(i)) {
            used.extend(inst.iter().copied());
            picked.push(inst);
        }
    }
    picked
}

fn reference_coverage(p: &Pattern) -> usize {
    reference_disjoint_instances(p).len() * p.num_gates
}

fn reference_mine(
    circuit: &Circuit,
    opts: &MinerOptions,
    mut counter: impl FnMut(&'static str, u64),
) -> Vec<Pattern> {
    let graph = CircuitGraph::from_circuit(circuit);
    let reach = Reachability::new(&graph);
    if graph.is_empty() {
        return Vec::new();
    }

    // Level 1: single gates grouped by label.
    let mut by_code: HashMap<String, Vec<Vec<usize>>> = HashMap::new();
    for v in 0..graph.len() {
        by_code
            .entry(graph.label(v).to_string())
            .or_default()
            .push(vec![v]);
    }
    let mut frontier: Vec<(String, Vec<Vec<usize>>)> = by_code
        .into_iter()
        .filter(|(_, inst)| inst.len() >= opts.min_support)
        .collect();
    frontier.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
    frontier.truncate(opts.beam_width);

    let mut results: Vec<Pattern> = Vec::new();

    for _level in 2..=opts.max_gates {
        let mut next: HashMap<String, Vec<Vec<usize>>> = HashMap::new();
        let mut seen_sets: HashSet<Vec<usize>> = HashSet::new();
        for (_, instances) in &frontier {
            for inst in instances {
                let members: HashSet<usize> = inst.iter().copied().collect();
                let qubits: BTreeSet<usize> = inst
                    .iter()
                    .flat_map(|&v| graph.qubits(v).iter().copied())
                    .collect();
                // Candidate extensions: neighbours of any member.
                let mut cands: BTreeSet<usize> = BTreeSet::new();
                for &v in inst {
                    for nb in graph.neighbors(v) {
                        if !members.contains(&nb) {
                            cands.insert(nb);
                        }
                    }
                }
                for cand in cands {
                    counter("miner.extensions_tried", 1);
                    let mut new_qubits = qubits.clone();
                    new_qubits.extend(graph.qubits(cand).iter().copied());
                    if new_qubits.len() > opts.max_qubits {
                        counter("miner.rejected_qubit_cap", 1);
                        continue;
                    }
                    let mut grown: Vec<usize> = inst.clone();
                    grown.push(cand);
                    grown.sort_unstable();
                    if seen_sets.contains(&grown) {
                        continue;
                    }
                    if !reach.is_convex(&grown) {
                        counter("miner.rejected_nonconvex", 1);
                        continue;
                    }
                    seen_sets.insert(grown.clone());
                    let code = reference_canonical_code(&graph, &grown);
                    let bucket = next.entry(code).or_default();
                    if bucket.len() < opts.max_instances_per_pattern {
                        bucket.push(grown);
                    }
                }
            }
        }
        let mut level_patterns: Vec<(String, Vec<Vec<usize>>)> = next
            .into_iter()
            .filter(|(_, inst)| inst.len() >= opts.min_support)
            .collect();
        if level_patterns.is_empty() {
            break;
        }
        level_patterns.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        level_patterns.truncate(opts.beam_width);

        for (code, instances) in &level_patterns {
            let sample = &instances[0];
            let num_qubits = sample
                .iter()
                .flat_map(|&v| graph.qubits(v).iter().copied())
                .collect::<BTreeSet<usize>>()
                .len();
            results.push(Pattern {
                code: code.clone(),
                num_gates: sample.len(),
                num_qubits,
                instances: instances.clone(),
            });
        }
        frontier = level_patterns;
    }

    results.sort_by(|a, b| {
        reference_coverage(b)
            .cmp(&reference_coverage(a))
            .then(b.num_gates.cmp(&a.num_gates))
            .then(a.code.cmp(&b.code))
    });
    counter("miner.patterns_found", results.len() as u64);
    results
}

fn reference_select(patterns: &[Pattern], budget: ApaBudget, circuit_len: usize) -> ApaCover {
    match budget {
        ApaBudget::None => ApaCover::default(),
        ApaBudget::Limit(k) => reference_greedy_cover(patterns, Some(k), circuit_len, None),
        ApaBudget::Unlimited => reference_greedy_cover(patterns, None, circuit_len, None),
        ApaBudget::Tuned => {
            let majority = circuit_len / 2 + 1;
            let unlimited = reference_greedy_cover(patterns, None, circuit_len, None);
            if unlimited.covered_gates < majority {
                return unlimited;
            }
            reference_greedy_cover(patterns, None, circuit_len, Some(majority))
        }
    }
}

fn reference_greedy_cover(
    patterns: &[Pattern],
    max_patterns: Option<usize>,
    _circuit_len: usize,
    stop_at_coverage: Option<usize>,
) -> ApaCover {
    let mut used: HashSet<usize> = HashSet::new();
    let mut cover = ApaCover::default();
    for pattern in patterns {
        if pattern.num_gates < 2 {
            continue; // single gates are already basis gates
        }
        if let Some(k) = max_patterns {
            if cover.selections.len() >= k {
                break;
            }
        }
        if let Some(goal) = stop_at_coverage {
            if cover.covered_gates >= goal {
                break;
            }
        }
        let mut occurrences = Vec::new();
        for inst in reference_disjoint_instances(pattern) {
            if inst.iter().all(|i| !used.contains(i)) {
                used.extend(inst.iter().copied());
                occurrences.push(inst);
            }
        }
        if occurrences.len() >= 2 {
            cover.covered_gates += occurrences.len() * pattern.num_gates;
            cover.selections.push(ApaSelection {
                code: pattern.code.clone(),
                num_gates: pattern.num_gates,
                num_qubits: pattern.num_qubits,
                occurrences,
            });
        } else {
            for inst in occurrences {
                for i in inst {
                    used.remove(&i);
                }
            }
        }
    }
    cover
}

/// Covered gates plus each selection's code, size and occurrences.
type CoverContents<'a> = (usize, Vec<(&'a str, usize, usize, &'a [Vec<usize>])>);

fn cover_contents(cover: &ApaCover) -> CoverContents<'_> {
    let selections = cover
        .selections
        .iter()
        .map(|s| {
            (
                s.code.as_str(),
                s.num_gates,
                s.num_qubits,
                s.occurrences.as_slice(),
            )
        })
        .collect();
    (cover.covered_gates, selections)
}

/// Every Table-I program as the pipeline mines it at M=inf: lowered to
/// the extended basis, SABRE-mapped onto the 5×5 grid, SWAPs lowered.
fn physical_programs() -> Vec<(&'static str, Circuit)> {
    let device = Device::grid5x5();
    all_benchmarks()
        .into_iter()
        .map(|b| {
            let lowered = decompose(&(b.build)(), Basis::Extended);
            let mapped = try_sabre_map(&lowered, device.topology(), &SabreOptions::default())
                .expect("routable");
            (b.name, decompose(&mapped.circuit, Basis::Extended))
        })
        .collect()
}

/// A random circuit of `gates` gates on `qubits` qubits, lowered to the
/// extended basis. `angle` makes each rotation's angle. Toffolis and
/// SWAPs lower to CX chains, and whole layers of one gate on every
/// qubit make the identical parallel gates that force tied branches.
fn random_circuit(
    rng: &mut Rng,
    qubits: usize,
    gates: usize,
    mut angle: impl FnMut(&mut Rng) -> Angle,
) -> Circuit {
    let mut c = Circuit::new(qubits);
    let distinct = |rng: &mut Rng, k: usize| {
        let mut qs: Vec<usize> = (0..qubits).collect();
        for i in 0..k {
            let j = rng.random_range(i..qubits);
            qs.swap(i, j);
        }
        qs.truncate(k);
        qs
    };
    while c.len() < gates {
        match rng.random_range(0..9u32) {
            0 => {
                let kind = [GateKind::H, GateKind::X, GateKind::T][rng.random_range(0..3usize)];
                for q in 0..qubits {
                    c.apply(kind, vec![q], vec![]);
                }
            }
            1 | 2 => {
                let q = distinct(rng, 1);
                c.apply(GateKind::H, q, vec![]);
            }
            3 | 4 => {
                let q = distinct(rng, 1);
                let a = angle(rng);
                c.apply(GateKind::Rz, q, vec![a]);
            }
            5 | 6 => {
                let q = distinct(rng, 2);
                c.apply(GateKind::Cx, q, vec![]);
            }
            7 if qubits >= 3 => {
                let q = distinct(rng, 3);
                c.apply(GateKind::Ccx, q, vec![]);
            }
            _ => {
                let q = distinct(rng, 2);
                c.apply(GateKind::Swap, q, vec![]);
            }
        }
    }
    decompose(&c, Basis::Extended)
}

/// A uniformly random subset of `0..n` with at least one member.
fn random_subset(rng: &mut Rng, n: usize) -> Vec<usize> {
    loop {
        let nodes: Vec<usize> = (0..n).filter(|_| rng.random::<bool>()).collect();
        if !nodes.is_empty() {
            return nodes;
        }
    }
}

#[test]
fn codes_match_the_reference_on_every_table1_window() {
    let mut checked = 0;
    for b in all_benchmarks() {
        let c = decompose(&(b.build)(), Basis::Extended);
        let g = CircuitGraph::from_circuit(&c);
        for start in 0..g.len() {
            for len in 1..=7.min(g.len() - start) {
                let nodes: Vec<usize> = (start..start + len).collect();
                assert_eq!(
                    canonical_code(&g, &nodes),
                    reference_canonical_code(&g, &nodes),
                    "{} {nodes:?}",
                    b.name
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 10_000, "only {checked} windows");
}

#[test]
fn codes_match_the_reference_on_random_circuits_with_ties() {
    let mut rng = Rng::seed_from_u64(0xC0DE_5EED);
    let symbols = ["g", "t", "beta"];
    let mut tied = 0;
    for _ in 0..3000 {
        let qubits = rng.random_range(2..=4usize);
        let gates = rng.random_range(2..=9usize);
        let c = random_circuit(&mut rng, qubits, gates, |rng| {
            if rng.random::<bool>() {
                Angle::sym(symbols[rng.random_range(0..symbols.len())], rng.random())
            } else {
                Angle::from([0.25, 0.5, 0.7][rng.random_range(0..3usize)])
            }
        });
        let g = CircuitGraph::from_circuit(&c);
        let all: Vec<usize> = (0..g.len()).collect();
        for nodes in [all, random_subset(&mut rng, g.len())] {
            let code = canonical_code(&g, &nodes);
            assert_eq!(
                code,
                reference_canonical_code(&g, &nodes),
                "{nodes:?} of {c:?}"
            );
            let labels: Vec<&str> = nodes.iter().map(|&v| g.label(v)).collect();
            tied += usize::from((1..labels.len()).any(|i| labels[..i].contains(&labels[i])));
        }
    }
    assert!(tied > 1000, "only {tied} instances repeat a label");
}

#[test]
fn miner_and_covers_match_the_reference_on_table1() {
    let default = MinerOptions::default();
    let variants = [
        default,
        MinerOptions {
            beam_width: 8,
            ..default
        },
        MinerOptions {
            max_instances_per_pattern: 4,
            ..default
        },
        MinerOptions {
            max_qubits: 2,
            ..default
        },
    ];
    for (name, c) in physical_programs() {
        for opts in &variants {
            let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
            let got = mine(&c, opts, |k, d| *counts.entry(k).or_default() += d);
            let mut expected_counts: BTreeMap<&str, u64> = BTreeMap::new();
            let expected =
                reference_mine(&c, opts, |k, d| *expected_counts.entry(k).or_default() += d);
            let at = format!("{name} {opts:?}");
            assert_eq!(counts, expected_counts, "{at}");
            assert_eq!(got.len(), expected.len(), "{at}");
            for (i, (p, q)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(
                    (&p.code, p.num_gates, p.num_qubits, &p.instances),
                    (&q.code, q.num_gates, q.num_qubits, &q.instances),
                    "{at}: pattern {i}"
                );
                assert_eq!(p.disjoint_instances(), reference_disjoint_instances(q));
                assert_eq!(p.coverage(), reference_coverage(q));
            }
            for budget in [ApaBudget::Unlimited, ApaBudget::Tuned, ApaBudget::Limit(3)] {
                assert_eq!(
                    cover_contents(&select_apa_basis(&got, budget, c.len())),
                    cover_contents(&reference_select(&expected, budget, c.len())),
                    "{at} {budget:?}"
                );
            }
        }
    }
}
