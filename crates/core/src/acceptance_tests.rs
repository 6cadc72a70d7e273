//! Oracle and property tests for the flat APA-acceptance pass of the
//! pipeline's `group` phase.

use crate::generator::PaqocOptions;
use crate::group::{GroupKind, GroupedCircuit};
use crate::pipeline::{
    accept_apa_occurrences, partition_is_acyclic, try_compile, PipelineOptions, Quotient,
};
use crate::table::group_key;
use paqoc_circuit::{Circuit, Instruction};
use paqoc_device::{AnalyticModel, Device, PulseSource};
use paqoc_math::Rng;
use paqoc_mining::{ApaCover, ApaSelection};
use std::collections::{HashMap, HashSet};

/// Acceptance decisions: the kept partition, the
/// `[accepted, rejected_acyclic, rejected_critical_path]` counts and the
/// final estimated span's bits.
type Decisions = (Vec<(Vec<usize>, GroupKind)>, [usize; 3], u64);

/// The acceptance loop rebuilt from scratch on every trial: clone the
/// partition, check acyclicity with a hash-map Kahn pass, then build the
/// whole grouped circuit, key and estimate every group, and take its
/// makespan.
fn reference_acceptance(
    physical: &Circuit,
    apa: &ApaCover,
    device: &Device,
    opts: &PaqocOptions,
) -> Decisions {
    let mut estimator = AnalyticModel::new();
    let mut est_cache: HashMap<String, f64> = HashMap::new();
    let mut estimated_span = |partition: &[(Vec<usize>, GroupKind)]| -> f64 {
        let mut g = GroupedCircuit::new(physical.instructions(), physical.num_qubits(), partition);
        for id in g.group_ids() {
            let key = group_key(&g.group(id).instructions);
            let lat = *est_cache.entry(key).or_insert_with(|| {
                estimator
                    .generate(
                        &g.group(id).instructions,
                        device,
                        opts.target_fidelity,
                        None,
                    )
                    .latency_ns
            });
            g.group_mut(id).latency_ns = lat;
        }
        g.makespan_ns()
    };
    let mut partition: Vec<(Vec<usize>, GroupKind)> = Vec::new();
    let mut counts = [0usize; 3];
    let mut current_span = if apa.selections.is_empty() {
        0.0
    } else {
        estimated_span(&partition)
    };
    for (pattern_idx, occ) in apa.occurrences() {
        let mut trial = partition.clone();
        trial.push((occ.clone(), GroupKind::Apa(pattern_idx)));
        if !reference_is_acyclic(physical.instructions(), physical.num_qubits(), &trial) {
            counts[1] += 1;
            continue;
        }
        let trial_span = estimated_span(&trial);
        if trial_span <= current_span + opts.tolerance_ns {
            counts[0] += 1;
            partition = trial;
            current_span = trial_span;
        } else {
            counts[2] += 1;
        }
    }
    (partition, counts, current_span.to_bits())
}

/// Kahn's algorithm over hash maps of the deduplicated quotient edges.
fn reference_is_acyclic(
    instructions: &[Instruction],
    num_qubits: usize,
    partition: &[(Vec<usize>, GroupKind)],
) -> bool {
    let n = instructions.len();
    let mut owner: Vec<usize> = (0..n).collect();
    for (next_group, (set, _)) in (n..).zip(partition.iter()) {
        for &i in set {
            if owner[i] != i {
                return false;
            }
            owner[i] = next_group;
        }
    }
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut last_use: Vec<Option<usize>> = vec![None; num_qubits];
    for (i, inst) in instructions.iter().enumerate() {
        let g = owner[i];
        for &q in inst.qubits() {
            if let Some(p) = last_use[q] {
                if p != g {
                    edges.push((p, g));
                }
            }
            last_use[q] = Some(g);
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let mut indeg: HashMap<usize, usize> = HashMap::new();
    let mut succs: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut nodes: HashSet<usize> = owner.iter().copied().collect();
    for &(a, b) in &edges {
        *indeg.entry(b).or_insert(0) += 1;
        succs.entry(a).or_default().push(b);
        nodes.insert(a);
        nodes.insert(b);
    }
    let mut queue: Vec<usize> = nodes
        .iter()
        .copied()
        .filter(|v| !indeg.contains_key(v))
        .collect();
    let mut seen = 0usize;
    while let Some(v) = queue.pop() {
        seen += 1;
        for &s in succs.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
            let d = indeg
                .get_mut(&s)
                .expect("every edge target has an in-degree");
            *d -= 1;
            if *d == 0 {
                queue.push(s);
            }
        }
    }
    seen == nodes.len()
}

fn flat_acceptance(
    physical: &Circuit,
    apa: &ApaCover,
    device: &Device,
    opts: &PaqocOptions,
) -> Decisions {
    let out = accept_apa_occurrences(physical, apa, device, &mut AnalyticModel::new(), opts, None);
    (
        out.partition,
        [
            out.accepted,
            out.rejected_acyclic,
            out.rejected_critical_path,
        ],
        out.span_ns.to_bits(),
    )
}

/// A random circuit over a small gate alphabet, so the miner finds
/// repeated patterns.
fn random_circuit(rng: &mut Rng) -> Circuit {
    let nq: usize = rng.random_range(2..=6usize);
    let gates: usize = rng.random_range(8..=60usize);
    let mut c = Circuit::new(nq);
    for _ in 0..gates {
        let a: usize = rng.random_range(0..nq);
        match rng.random_range(0..5u32) {
            0 | 1 => {
                let b = (a + rng.random_range(1..nq)) % nq;
                c.cx(a, b);
            }
            2 => {
                c.rz(a, [0.3, 0.7][rng.random_range(0..2usize)]);
            }
            3 => {
                c.h(a);
            }
            _ => {
                c.x(a);
            }
        }
    }
    c
}

/// A cover of random short-window occurrences, listed in descending
/// index order: some overlap, some are not convex, and most are not
/// sorted, so every rejection path and the member sort are exercised.
fn random_cover(n: usize, rng: &mut Rng) -> ApaCover {
    let occurrences: Vec<Vec<usize>> = (0..rng.random_range(1..=8usize))
        .map(|_| {
            let start = rng.random_range(0..n);
            let mut occ: Vec<usize> = (start..n.min(start + 5))
                .filter(|_| rng.random::<f64>() < 0.6)
                .collect();
            occ.reverse();
            occ
        })
        .filter(|occ| occ.len() >= 2)
        .collect();
    ApaCover {
        selections: vec![ApaSelection {
            code: String::new(),
            num_gates: 0,
            num_qubits: 0,
            occurrences,
        }],
        covered_gates: 0,
    }
}

/// The physical circuit and M=inf cover the pipeline mines for `logical`.
fn physical_and_cover(
    logical: &Circuit,
    device: &Device,
    skip_mapping: bool,
) -> (Circuit, ApaCover) {
    let opts = PipelineOptions {
        skip_mapping,
        enable_generator: false,
        ..PipelineOptions::m_inf()
    };
    let r = try_compile(logical, device, &mut AnalyticModel::new(), &opts).expect("compile");
    (r.physical, r.apa)
}

#[test]
fn flat_acceptance_matches_the_rebuild_everything_reference() {
    let device = Device::grid5x5();
    let opts = PaqocOptions::default();
    let mut inputs: Vec<(String, Circuit, ApaCover)> = Vec::new();
    let mut rng = Rng::seed_from_u64(0x5eed);
    for seed in 0..200 {
        let (physical, apa) = physical_and_cover(&random_circuit(&mut rng), &device, true);
        let scrambled = random_cover(physical.len(), &mut rng);
        inputs.push((
            format!("random #{seed}, random cover"),
            physical.clone(),
            scrambled,
        ));
        inputs.push((format!("random #{seed}"), physical, apa));
    }
    let mut table1 = paqoc_workloads::all_benchmarks();
    table1.sort_by_key(|b| ((b.build)().len(), b.name));
    // The five smallest programs, and the two whose acceptance makes the
    // most trials: the kept order moves most there.
    let largest = table1
        .iter()
        .filter(|b| ["majority_239", "dnn"].contains(&b.name));
    for b in table1[..5].iter().chain(largest) {
        let (physical, apa) = physical_and_cover(&(b.build)(), &device, false);
        inputs.push((b.name.to_string(), physical, apa));
    }

    let mut totals = [0usize; 3];
    for (name, physical, apa) in &inputs {
        let want = reference_acceptance(physical, apa, &device, &opts);
        let got = flat_acceptance(physical, apa, &device, &opts);
        assert_eq!(got.0, want.0, "{name}: accepted occurrences differ");
        assert_eq!(got.1, want.1, "{name}: accepted/rejected counts differ");
        assert_eq!(got.2, want.2, "{name}: final span bits differ");
        for (t, c) in totals.iter_mut().zip(want.1) {
            *t += c;
        }
    }
    // The corpus must exercise acceptance and both rejection paths.
    assert!(totals.iter().all(|&t| t > 0), "totals {totals:?}");
}

/// Cycle check by brute force: close the block-level dependence relation
/// (any two instructions on a shared qubit order their blocks) under
/// transitivity and look for a block that reaches itself.
fn brute_force_acyclic(c: &Circuit, owner: &[usize], num_nodes: usize) -> bool {
    let insts = c.instructions();
    let mut reach = vec![vec![false; num_nodes]; num_nodes];
    for (a, ia) in insts.iter().enumerate() {
        for (b, ib) in insts.iter().enumerate().skip(a + 1) {
            let shared = ia.qubits().iter().any(|q| ib.qubits().contains(q));
            if shared && owner[a] != owner[b] {
                reach[owner[a]][owner[b]] = true;
            }
        }
    }
    for k in 0..num_nodes {
        let via_k = reach[k].clone();
        for row in reach.iter_mut().filter(|row| row[k]) {
            for (r, &v) in row.iter_mut().zip(&via_k) {
                *r |= v;
            }
        }
    }
    (0..num_nodes).all(|v| !reach[v][v])
}

#[test]
fn flat_pass_agrees_with_grouped_circuit_and_brute_force() {
    let mut rng = Rng::seed_from_u64(0xf1a7);
    let (mut acyclic, mut cyclic) = (0, 0);
    for _ in 0..400 {
        let c = random_circuit(&mut rng);
        let (n, nq) = (c.len(), c.num_qubits());
        // Occurrences claimed one at a time on one quotient, each drawn
        // from a short index window of the singletons left: mostly
        // convex, sometimes not. An acyclic one is kept or released at
        // random, so later trials run on the order earlier ones rewrote
        // and after trials that must leave no trace.
        let mut dag = Quotient::new(c.instructions(), nq);
        let mut partition: Vec<(Vec<usize>, GroupKind)> = Vec::new();
        let mut lat: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 97.0).collect();
        for _ in 0..rng.random_range(1..=5usize) {
            let start: usize = rng.random_range(0..n);
            let want = rng.random_range(2..=4usize);
            let set: Vec<usize> = (start..n.min(start + want + 3))
                .filter(|&i| {
                    partition.iter().all(|(s, _)| !s.contains(&i)) && rng.random::<f64>() < 0.7
                })
                .take(want)
                .collect();
            if set.len() < 2 {
                continue;
            }
            let mut trial = partition.clone();
            trial.push((set.clone(), GroupKind::Apa(0)));
            let mut owner: Vec<usize> = (0..n).collect();
            for (node, (s, _)) in (n..).zip(&trial) {
                for &i in s {
                    owner[i] = node;
                }
            }
            let num_nodes = n + trial.len();

            let verdict = dag.claim(&set);
            assert_eq!(verdict, brute_force_acyclic(&c, &owner, num_nodes));
            assert_eq!(verdict, partition_is_acyclic(c.instructions(), nq, &trial));
            if !verdict {
                cyclic += 1;
                continue;
            }
            acyclic += 1;
            lat.push(rng.random::<f64>() * 97.0);
            let mut g = GroupedCircuit::new(c.instructions(), nq, &trial);
            for id in g.group_ids() {
                // Partition sets come first in the grouped circuit, then
                // the remaining instructions as singletons.
                let node = if id < trial.len() {
                    n + id
                } else {
                    g.group(id).indices[0]
                };
                g.group_mut(id).latency_ns = lat[node];
            }
            assert_eq!(dag.trial_span(&lat).to_bits(), g.makespan_ns().to_bits());
            if rng.random::<f64>() < 0.7 {
                dag.accept();
                partition = trial;
            } else {
                lat.pop();
                dag.release();
            }
        }
    }
    assert!(
        acyclic > 50 && cyclic > 50,
        "acyclic {acyclic}, cyclic {cyclic}"
    );
}
