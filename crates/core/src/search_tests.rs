//! Oracle tests for the merge search: the preprocessing and the
//! criticality loop as they were when every round rebuilt its state from
//! the grouped circuit, against [`run_search`], decision by decision.
//!
//! Compared per run: every preprocessing merge in order; per criticality
//! iteration the span bits, the candidate, Case I/II/III and cap counts,
//! the scored count, and the committed and rejected pairs in order; the
//! generator report; and at the end the whole grouping — liveness,
//! instructions, indices, kind, edges and every group's latency and
//! fidelity bits.

use crate::error::Degradation;
use crate::generator::{GeneratorReport, PaqocOptions};
use crate::group::{GroupKind, GroupedCircuit};
use crate::pipeline::{try_compile, PipelineOptions};
use crate::search::{run_search, Decision};
use paqoc_circuit::{Circuit, Instruction};
use paqoc_device::{AnalyticModel, Device, DeviceTuning, HardwareSpec, PulseSource, Topology};
use paqoc_math::Rng;
use std::collections::{HashMap, HashSet};

/// `topological_order` as it was before the windows shared its sort:
/// Kahn's algorithm from the sources in id order.
fn reference_order(grouped: &GroupedCircuit) -> Vec<usize> {
    let ids = grouped.group_ids();
    let mut indeg: Vec<usize> = vec![0; grouped.id_bound()];
    for &id in &ids {
        indeg[id] = grouped.preds(id).len();
    }
    let mut queue: Vec<usize> = ids.iter().copied().filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(ids.len());
    let mut qi = 0;
    while qi < queue.len() {
        let v = queue[qi];
        qi += 1;
        order.push(v);
        for &s in grouped.succs(v) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    assert_eq!(order.len(), ids.len(), "group DAG must stay acyclic");
    order
}

/// `cp_before`, `cp_after` and the makespan as they were before one pass
/// computed all three: each window its own max-plus sweep over a
/// topological order, and the makespan the heaviest `latency + after`.
pub(crate) fn reference_windows(grouped: &GroupedCircuit) -> (Vec<f64>, Vec<f64>, f64) {
    let order = reference_order(grouped);
    let mut before = vec![0.0f64; grouped.id_bound()];
    for &v in &order {
        let mut best = 0.0f64;
        for &p in grouped.preds(v) {
            best = best.max(grouped.group(p).latency_ns + before[p]);
        }
        before[v] = best;
    }
    let mut after = vec![0.0f64; grouped.id_bound()];
    for &v in order.iter().rev() {
        let mut best = 0.0f64;
        for &s in grouped.succs(v) {
            best = best.max(grouped.group(s).latency_ns + after[s]);
        }
        after[v] = best;
    }
    let span = grouped
        .group_ids()
        .into_iter()
        .map(|id| grouped.group(id).latency_ns + after[id])
        .fold(0.0, f64::max);
    (before, after, span)
}

/// Merges the contractible pair `(a, b)` and checks the merged group's
/// instructions against the order `contract` used to take: `b`'s first
/// whenever a path `b ⇝ a` exists (it now reads the direct edge).
fn reference_merge(grouped: &mut GroupedCircuit, a: usize, b: usize) -> usize {
    let (first, second) = if grouped.has_path(b, a) {
        (b, a)
    } else {
        (a, b)
    };
    let want: Vec<Instruction> = grouped
        .group(first)
        .instructions
        .iter()
        .chain(&grouped.group(second).instructions)
        .cloned()
        .collect();
    let m = grouped.merge(a, b);
    assert_eq!(grouped.group(m).instructions, want, "({a},{b})");
    m
}

/// The Observation-1 preprocessing as it was: every round recomputes
/// `cp_before`/`cp_after` over the whole DAG and rescans from the first
/// group; each merged pair is estimated from a collected `Vec`.
fn reference_preprocess(
    grouped: &mut GroupedCircuit,
    device: &Device,
    estimator: &mut AnalyticModel,
    opts: &PaqocOptions,
    sink: &mut Vec<Decision>,
) -> usize {
    let mut merges = 0usize;
    let cap = opts.max_qubits.min(2);
    let mut est_cache: HashMap<(usize, usize), f64> = HashMap::new();
    let mut blocked: HashSet<(usize, usize)> = HashSet::new();
    loop {
        let mut merged_this_round = false;
        let (before, after, span) = reference_windows(grouped);
        'scan: for a in grouped.group_ids() {
            for &b in &grouped.succs(a).to_vec() {
                let qa = &grouped.group(a).qubits;
                let qb = &grouped.group(b).qubits;
                let union = qa.union(qb).count();
                if union > cap || blocked.contains(&(a, b)) {
                    continue;
                }
                if !grouped.contractible(a, b) {
                    blocked.insert((a, b));
                    continue;
                }
                let est = *est_cache.entry((a, b)).or_insert_with(|| {
                    let insts: Vec<_> = grouped
                        .group(a)
                        .instructions
                        .iter()
                        .chain(grouped.group(b).instructions.iter())
                        .cloned()
                        .collect();
                    estimator
                        .generate(&insts, device, opts.target_fidelity, None)
                        .latency_ns
                });
                let new_before = grouped
                    .preds(a)
                    .iter()
                    .chain(grouped.preds(b).iter())
                    .filter(|&&p| p != a && p != b)
                    .map(|&p| before[p] + grouped.group(p).latency_ns)
                    .fold(0.0f64, f64::max);
                let new_after = grouped
                    .succs(a)
                    .iter()
                    .chain(grouped.succs(b).iter())
                    .filter(|&&s| s != a && s != b)
                    .map(|&s| grouped.group(s).latency_ns + after[s])
                    .fold(0.0f64, f64::max);
                if new_before + est + new_after <= span + opts.tolerance_ns {
                    let m = reference_merge(grouped, a, b);
                    grouped.group_mut(m).latency_ns = est;
                    grouped.group_mut(m).fidelity = 0.0;
                    merges += 1;
                    merged_this_round = true;
                    sink.push(Decision::Preprocess { a, b });
                    break 'scan;
                }
            }
        }
        if !merged_this_round {
            return merges;
        }
    }
}

/// The criticality loop as it was: every iteration enumerates the
/// candidate pairs from the whole DAG, sorts and dedups them, checks the
/// qubit cap with a `BTreeSet` union, and scores each pair with a
/// critical member from a collected `Vec`. No deadline.
fn reference_loop(
    grouped: &mut GroupedCircuit,
    device: &Device,
    estimator: &mut AnalyticModel,
    opts: &PaqocOptions,
    report: &mut GeneratorReport,
    sink: &mut Vec<Decision>,
) {
    let mut est_cache: HashMap<(usize, usize), f64> = HashMap::new();
    for _ in 0..opts.max_iterations {
        report.iterations += 1;
        let (before, after, span) = reference_windows(grouped);
        let mut top_paths: Vec<(f64, usize)> = grouped
            .group_ids()
            .into_iter()
            .map(|g| (before[g] + grouped.group(g).latency_ns + after[g], g))
            .collect();
        top_paths.sort_by(|x, y| y.0.total_cmp(&x.0));
        top_paths.truncate(3);
        let critical: Vec<bool> = (0..before.len())
            .map(|id| {
                grouped.try_group(id).is_some()
                    && grouped.is_critical(id, &before, &after, span, opts.tolerance_ns)
            })
            .collect();
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for a in grouped.group_ids() {
            for &b in grouped.succs(a) {
                candidates.push((a, b));
            }
            let around: Vec<usize> = grouped
                .preds(a)
                .iter()
                .chain(grouped.succs(a).iter())
                .copied()
                .collect();
            for (i, &x) in around.iter().enumerate() {
                for &y in &around[i + 1..] {
                    if x != y {
                        candidates.push((x.min(y), x.max(y)));
                    }
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let candidates_total = candidates.len();
        let (mut case1, mut case2, mut case3) = (0usize, 0usize, 0usize);
        let mut pruned_qubit_cap = 0usize;
        let mut scored: Vec<(f64, f64, usize, usize)> = Vec::new();
        for (a, b) in candidates {
            let ga = grouped.group(a);
            let gb = grouped.group(b);
            if ga.qubits.union(&gb.qubits).count() > opts.max_qubits {
                pruned_qubit_cap += 1;
                continue;
            }
            match (critical[a], critical[b]) {
                (true, true) => case1 += 1,
                (true, false) | (false, true) => case2 += 1,
                (false, false) => case3 += 1,
            }
            if opts.criticality_pruning && !critical[a] && !critical[b] {
                continue;
            }
            let est = *est_cache.entry((a, b)).or_insert_with(|| {
                let merged_insts: Vec<_> = ga
                    .instructions
                    .iter()
                    .chain(gb.instructions.iter())
                    .cloned()
                    .collect();
                estimator
                    .generate(&merged_insts, device, opts.target_fidelity, None)
                    .latency_ns
            });
            let new_before = grouped
                .preds(a)
                .iter()
                .chain(grouped.preds(b).iter())
                .filter(|&&p| p != a && p != b)
                .map(|&p| before[p] + grouped.group(p).latency_ns)
                .fold(0.0f64, f64::max);
            let new_after = grouped
                .succs(a)
                .iter()
                .chain(grouped.succs(b).iter())
                .filter(|&&s| s != a && s != b)
                .map(|&s| grouped.group(s).latency_ns + after[s])
                .fold(0.0f64, f64::max);
            let through_merged = new_before + est + new_after;
            let elsewhere = top_paths
                .iter()
                .find(|&&(_, g)| g != a && g != b)
                .map(|&(w, _)| w)
                .unwrap_or(0.0);
            let new_span_est = through_merged.max(elsewhere.min(span));
            let span_gain = span - new_span_est;
            let local_gain = grouped.group(a).latency_ns + grouped.group(b).latency_ns - est;
            if span_gain > opts.tolerance_ns
                || (span_gain >= -opts.tolerance_ns && local_gain > opts.tolerance_ns)
            {
                scored.push((span_gain, local_gain, a, b));
            }
        }
        scored.sort_by(|x, y| {
            y.0.total_cmp(&x.0)
                .then(y.1.total_cmp(&x.1))
                .then((x.2, x.3).cmp(&(y.2, y.3)))
        });
        let mut committed = 0usize;
        let mut touched: HashSet<usize> = HashSet::new();
        for &(_, _, a, b) in &scored {
            if committed >= opts.top_k {
                break;
            }
            if touched.contains(&a) || touched.contains(&b) {
                continue;
            }
            if !grouped.contractible(a, b) {
                continue;
            }
            let saved_latency = grouped.group(a).latency_ns + grouped.group(b).latency_ns;
            let est = est_cache[&(a, b)];
            let mut trial = grouped.clone();
            let m = reference_merge(&mut trial, a, b);
            trial.group_mut(m).latency_ns = est;
            let new_span = reference_windows(&trial).2;
            let total_gain = saved_latency - est;
            let commit = new_span < span - opts.tolerance_ns
                || (new_span <= span + opts.tolerance_ns && total_gain > opts.tolerance_ns);
            if commit {
                let m = reference_merge(grouped, a, b);
                grouped.group_mut(m).latency_ns = est;
                grouped.group_mut(m).fidelity = 0.0;
                touched.insert(a);
                touched.insert(b);
                committed += 1;
                report.criticality_merges += 1;
                sink.push(Decision::Commit { a, b });
            } else {
                report.rejected_merges += 1;
                sink.push(Decision::Reject { a, b });
            }
        }
        sink.push(Decision::Iteration {
            span_bits: span.to_bits(),
            candidates: candidates_total,
            case1,
            case2,
            case3,
            pruned_qubit_cap,
            scored: scored.len(),
        });
        if committed == 0 {
            break;
        }
    }
}

/// Gives every group its free singleton estimate and the fidelity-0
/// marker, as the generator does before it searches.
pub(crate) fn seed(grouped: &mut GroupedCircuit, device: &Device, opts: &PaqocOptions) {
    let mut estimator = AnalyticModel::new();
    for id in grouped.group_ids() {
        let est = estimator
            .generate(
                &grouped.group(id).instructions,
                device,
                opts.target_fidelity,
                None,
            )
            .latency_ns;
        let g = grouped.group_mut(id);
        g.latency_ns = est;
        g.fidelity = 0.0;
    }
}

/// What one search run leaves behind.
struct Run {
    decisions: Vec<Decision>,
    report: GeneratorReport,
    grouped: GroupedCircuit,
}

fn reference_run(start: &GroupedCircuit, device: &Device, opts: &PaqocOptions) -> Run {
    let mut grouped = start.clone();
    let mut estimator = AnalyticModel::new();
    let mut decisions = Vec::new();
    let mut report = GeneratorReport::default();
    if opts.preprocess {
        report.preprocess_merges =
            reference_preprocess(&mut grouped, device, &mut estimator, opts, &mut decisions);
    }
    reference_loop(
        &mut grouped,
        device,
        &mut estimator,
        opts,
        &mut report,
        &mut decisions,
    );
    Run {
        decisions,
        report,
        grouped,
    }
}

fn kept_state_run(start: &GroupedCircuit, device: &Device, opts: &PaqocOptions) -> Run {
    let mut grouped = start.clone();
    let mut sink: Vec<Decision> = Vec::new();
    let mut report = GeneratorReport::default();
    let mut degradations: Vec<Degradation> = Vec::new();
    let partial = run_search(
        &mut grouped,
        device,
        &mut AnalyticModel::new(),
        opts,
        None,
        &mut report,
        &mut degradations,
        &mut sink,
    );
    assert!(!partial && degradations.is_empty());
    Run {
        decisions: sink,
        report,
        grouped,
    }
}

/// Asserts two runs made the same decisions and left the same grouping.
fn assert_same(name: &str, want: &Run, got: &Run) {
    if let Some(i) = (0..want.decisions.len().min(got.decisions.len()))
        .find(|&i| want.decisions[i] != got.decisions[i])
    {
        panic!(
            "{name}: decision {i} differs: reference {:?}, kept state {:?}",
            want.decisions[i], got.decisions[i]
        );
    }
    assert_eq!(
        want.decisions.len(),
        got.decisions.len(),
        "{name}: decision counts differ"
    );
    assert_eq!(want.report, got.report, "{name}: reports differ");
    let (w, g) = (&want.grouped, &got.grouped);
    assert_eq!(w.id_bound(), g.id_bound(), "{name}: id counts differ");
    for id in 0..w.id_bound() {
        match (w.try_group(id), g.try_group(id)) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.instructions, b.instructions, "{name}: group {id}");
                assert_eq!(a.indices, b.indices, "{name}: group {id}");
                assert_eq!(a.kind, b.kind, "{name}: group {id}");
                assert_eq!(
                    (a.latency_ns.to_bits(), a.fidelity.to_bits()),
                    (b.latency_ns.to_bits(), b.fidelity.to_bits()),
                    "{name}: group {id} latency or fidelity"
                );
                assert_eq!(w.preds(id), g.preds(id), "{name}: group {id} preds");
                assert_eq!(w.succs(id), g.succs(id), "{name}: group {id} succs");
            }
            _ => panic!("{name}: group {id} lives in only one run"),
        }
    }
}

/// Runs both searches from `start` and compares them; returns the
/// reference's decisions for coverage accounting.
fn check(
    name: &str,
    start: &GroupedCircuit,
    device: &Device,
    opts: &PaqocOptions,
) -> Vec<Decision> {
    let want = reference_run(start, device, opts);
    let got = kept_state_run(start, device, opts);
    assert_same(name, &want, &got);
    want.decisions
}

/// The grouping a compile hands the search: its physical circuit, with
/// the APA occurrences it accepted (none at M=0), seeded.
fn initial_grouping(logical: &Circuit, device: &Device, opts: &PipelineOptions) -> GroupedCircuit {
    let compiled = try_compile(
        logical,
        device,
        &mut AnalyticModel::new(),
        &PipelineOptions {
            enable_generator: false,
            ..opts.clone()
        },
    )
    .expect("compile");
    let mut grouped = compiled.grouped;
    seed(&mut grouped, device, &opts.generator);
    grouped
}

/// A 5×5 grid whose drive and coupler scales differ per site, as a
/// calibrated backend's do.
fn tuned_grid() -> Device {
    let mut rng = Rng::seed_from_u64(0x7a7e);
    let mut tuning = DeviceTuning::identity(25);
    for q in &mut tuning.qubits {
        q.drive_scale = 0.86 + 0.235 * rng.random::<f64>();
    }
    let topology = Topology::grid(5, 5);
    for &(a, b) in topology.edges() {
        tuning
            .coupler_scale
            .insert((a, b), 0.8 + 0.4 * rng.random::<f64>());
    }
    Device::with_tuning(
        topology,
        HardwareSpec::transmon_xy(),
        tuning,
        "heavy-hex",
        paqoc_device::NS_HEAVY_HEX,
    )
}

/// Decision counts of a corpus, to show it reaches every kind.
#[derive(Default, Debug)]
struct Coverage {
    preprocess: usize,
    iterations: usize,
    commits: usize,
    rejects: usize,
}

impl Coverage {
    fn add(&mut self, decisions: &[Decision]) {
        for d in decisions {
            match d {
                Decision::Preprocess { .. } => self.preprocess += 1,
                Decision::Iteration { .. } => self.iterations += 1,
                Decision::Commit { .. } => self.commits += 1,
                Decision::Reject { .. } => self.rejects += 1,
            }
        }
    }
}

fn table1_matches_the_reference_on(device: &Device) -> Coverage {
    let mut coverage = Coverage::default();
    for (config, opts) in [
        ("M=inf", PipelineOptions::m_inf()),
        ("M=0", PipelineOptions::m0()),
    ] {
        for b in paqoc_workloads::all_benchmarks() {
            let start = initial_grouping(&(b.build)(), device, &opts);
            let name = format!("{} {config} on {}", b.name, device.backend_name());
            coverage.add(&check(&name, &start, device, &opts.generator));
        }
    }
    coverage
}

#[test]
fn table1_searches_match_the_reference_on_the_grid() {
    let coverage = table1_matches_the_reference_on(&Device::grid5x5());
    assert!(
        coverage.preprocess > 1000 && coverage.commits > 1000 && coverage.iterations > 1000,
        "{coverage:?}"
    );
}

#[test]
fn table1_searches_match_the_reference_on_a_tuned_device() {
    let coverage = table1_matches_the_reference_on(&tuned_grid());
    assert!(
        coverage.preprocess > 1000 && coverage.commits > 1000,
        "{coverage:?}"
    );
}

/// A random circuit over CX, CCX, H, RZ (concrete and symbolic), X and
/// T on 3–7 qubits, sometimes with a few groups pre-merged, as APA
/// occurrences would be.
pub(crate) fn random_grouping(rng: &mut Rng) -> GroupedCircuit {
    let nq: usize = rng.random_range(3..=7usize);
    let mut c = Circuit::new(nq);
    for _ in 0..rng.random_range(6..=48usize) {
        let a: usize = rng.random_range(0..nq);
        let b = (a + rng.random_range(1..nq)) % nq;
        match rng.random_range(0..8u32) {
            0..=2 => {
                c.cx(a, b);
            }
            3 => {
                c.h(a);
            }
            4 => {
                c.rz(a, [0.3, 0.7, -1.1][rng.random_range(0..3usize)]);
            }
            5 => {
                c.push(Instruction::new(
                    paqoc_circuit::GateKind::Rz,
                    vec![a],
                    vec![paqoc_circuit::Angle::sym("gamma", 0.4)],
                ));
            }
            6 if nq >= 3 => {
                let t = (b + 1..b + nq).map(|x| x % nq).find(|&x| x != a);
                match t {
                    Some(t) => c.ccx(a, b, t),
                    None => c.x(a),
                };
            }
            _ => {
                c.t(a);
            }
        }
    }
    let mut grouped = GroupedCircuit::new(c.instructions(), nq, &[]);
    for _ in 0..rng.random_range(0..=3usize) {
        let ids = grouped.group_ids();
        let a = ids[rng.random_range(0..ids.len())];
        let b = ids[rng.random_range(0..ids.len())];
        if grouped.contractible(a, b) {
            let m = grouped.merge(a, b);
            grouped.group_mut(m).kind = GroupKind::Apa(0);
        }
    }
    grouped
}

/// `windows_along` — through `cp_before`, `cp_after` and `makespan_ns` —
/// and `topological_order` against the references, after every
/// contraction of random DAGs.
#[test]
fn windows_match_the_reference_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(0x3d0e);
    let mut contractions = 0;
    for _ in 0..150 {
        let mut grouped = random_grouping(&mut rng);
        for id in grouped.group_ids() {
            grouped.group_mut(id).latency_ns = rng.random::<f64>() * 90.0 + 1.0;
        }
        loop {
            let (before, after, span) = reference_windows(&grouped);
            let bits = |v: &[f64]| -> Vec<u64> {
                grouped
                    .group_ids()
                    .iter()
                    .map(|&id| v[id].to_bits())
                    .collect()
            };
            assert_eq!(bits(&grouped.cp_before()), bits(&before));
            assert_eq!(bits(&grouped.cp_after()), bits(&after));
            assert_eq!(grouped.makespan_ns().to_bits(), span.to_bits());
            assert_eq!(grouped.topological_order(), reference_order(&grouped));
            let ids = grouped.group_ids();
            let pairs: Vec<(usize, usize)> = ids
                .iter()
                .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
                .filter(|&(a, b)| a < b && grouped.contractible(a, b))
                .collect();
            if pairs.is_empty() {
                break;
            }
            let (a, b) = pairs[rng.random_range(0..pairs.len())];
            let m = grouped.merge(a, b);
            grouped.group_mut(m).latency_ns = rng.random::<f64>() * 90.0 + 1.0;
            contractions += 1;
        }
    }
    assert!(contractions > 1000, "only {contractions} contractions");
}

#[test]
fn random_searches_match_the_reference_under_every_option() {
    let mut rng = Rng::seed_from_u64(0x5ea7c);
    let devices = [Device::grid5x5(), tuned_grid()];
    let mut coverage = Coverage::default();
    for i in 0..320 {
        let device = &devices[i % 2];
        let opts = PaqocOptions {
            criticality_pruning: i % 3 != 0,
            top_k: [1, 3][(i / 3) % 2],
            max_qubits: [3, 2][(i / 6) % 2],
            preprocess: i % 5 != 4,
            ..PaqocOptions::default()
        };
        let mut start = random_grouping(&mut rng);
        seed(&mut start, device, &opts);
        coverage.add(&check(
            &format!("random #{i} {opts:?}"),
            &start,
            device,
            &opts,
        ));
    }
    assert!(
        coverage.preprocess > 1000 && coverage.commits > 500 && coverage.rejects > 0,
        "{coverage:?}"
    );
}
