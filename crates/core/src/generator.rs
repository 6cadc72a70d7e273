//! The criticality-aware customized gates generator (paper Algorithm 1).
//!
//! Iteratively merges pairs of groups, pruned by the paper's criticality
//! analysis (only candidates touching the critical path are ranked;
//! Case III pairs are discarded), ranked by the predicted whole-circuit
//! latency delta using the free analytic estimator (Observations 1 & 2
//! stand in for pulse generation), and committed top-k per iteration
//! with real pulse generation and a monotonic-decrease guarantee: a
//! merge whose generated pulse fails to shorten the circuit is rolled
//! back (its wasted generation cost still counts, like the paper's
//! rejected Case-II trial generations).

use crate::error::Degradation;
use crate::group::{GroupKind, GroupedCircuit};
use crate::search::run_search;
use crate::table::PulseTable;
use paqoc_circuit::Instruction;
use paqoc_device::{AnalyticModel, Device, PulseEstimate, PulseGenError, PulseSource};
use paqoc_exec::{run_batch, ExecOptions, PulseJob, PulseSourceFactory};
use paqoc_telemetry::{counter, event, observe};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Failed generations retried per group at the table layer (the source
/// may escalate internally on top of this).
const PULSE_RETRIES: usize = 2;

/// Parallel-prefetch context for the attach phase: with one of these,
/// the generator batch-generates every pending pulse of an attach sweep
/// across the executor's worker pool, against the table's cache
/// ([`PulseTable::cache`]), before the sequential commit logic runs.
/// Without one the generator stays fully sequential.
pub(crate) struct BatchContext {
    /// Builds one source per job, seeded by [`paqoc_exec::job_seed`] of
    /// its key.
    pub(crate) factory: Arc<dyn PulseSourceFactory>,
    /// Worker count for each prefetch batch.
    pub(crate) threads: usize,
}

/// Knobs of the customized-gates generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaqocOptions {
    /// Maximum qubits per customized gate (the paper's `maxN`, default 3).
    pub max_qubits: usize,
    /// Customized gates committed per iteration (the paper's `top-k`).
    pub top_k: usize,
    /// Per-pulse fidelity target handed to the pulse source.
    pub target_fidelity: f64,
    /// Enable the Observation-1 preprocessing merge of same-qubit runs.
    pub preprocess: bool,
    /// Enable criticality pruning (disable to rank *all* contractible
    /// pairs — the ablation of Section V-A1).
    pub criticality_pruning: bool,
    /// Critical-path tolerance in ns.
    pub tolerance_ns: f64,
    /// Upper bound on merge iterations (safety valve).
    pub max_iterations: usize,
}

impl Default for PaqocOptions {
    fn default() -> Self {
        PaqocOptions {
            max_qubits: 3,
            top_k: 1,
            target_fidelity: 0.999,
            preprocess: true,
            criticality_pruning: true,
            tolerance_ns: 1e-9,
            max_iterations: 10_000,
        }
    }
}

/// Outcome of the generator loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GeneratorReport {
    /// Merges committed by preprocessing.
    pub preprocess_merges: usize,
    /// Merges committed by the criticality-aware loop.
    pub criticality_merges: usize,
    /// Candidate merges rejected after real pulse generation.
    pub rejected_merges: usize,
    /// Iterations of the outer loop.
    pub iterations: usize,
    /// Merges rolled back at attachment time because their pulse could
    /// not be generated even after retries.
    pub fallbacks: usize,
    /// Groups that kept their analytic estimate because the real pulse
    /// source failed on them even as singletons.
    pub estimator_fallbacks: usize,
}

/// What a generator run produced.
pub(crate) struct GenerationOutcome {
    /// Merge/iteration accounting.
    pub(crate) report: GeneratorReport,
    /// Everything the run sacrificed to finish (rollbacks, fallbacks,
    /// deadline hits), in the order it happened.
    pub(crate) degradations: Vec<Degradation>,
    /// `true` when the deadline cut the run short.
    pub(crate) partial: bool,
}

/// Runs Algorithm 1 over a grouped circuit, with the deadline and the
/// degradation ladder (paper Algorithm 1 hardened for production).
///
/// On return every live group has a pulse (latency and fidelity set),
/// and the circuit latency is monotonically no worse than the input
/// grouping's. Every estimate of the search and of the ladder's
/// fallbacks comes from `estimator`, so its Weyl memo is shared with
/// whatever else the compile estimated with it.
///
/// The ladder, from cheapest to most drastic:
/// 1. retry the pulse source per group ([`PULSE_RETRIES`], plus
///    whatever escalation the source does internally),
/// 2. roll a failing merged group back to decomposed per-gate pulses
///    (rebuilding the DAG with that group split into singletons),
/// 3. keep the analytic estimate for a group that fails even as a
///    singleton.
///
/// The deadline is checked every merge iteration and before every real
/// pulse generation; when it passes the run finishes with the current
/// valid grouping marked `partial` instead of erroring. Every
/// concession is recorded in [`GenerationOutcome::degradations`].
/// `deadline_hit` says an earlier phase already hit the deadline and
/// recorded it: the run is partial from the start, skips the search
/// (which would stop at once) and records no second hit.
///
/// With a parallel-prefetch context `exec`, every pending pulse of each
/// attach sweep is first generated as a [`PulseJob`] batch on the
/// executor (deduped, panic-isolated, deadline-shared), and the sweep
/// then commits sequentially — hits are free, failures fall through to
/// the unchanged degradation ladder. The per-key seeding keeps results
/// bit-identical to the sequential path for deterministic sources.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate_with(
    grouped: &mut GroupedCircuit,
    device: &Device,
    estimator: &mut AnalyticModel,
    source: &mut dyn PulseSource,
    table: &mut PulseTable,
    opts: &PaqocOptions,
    deadline: Option<Instant>,
    deadline_hit: bool,
    exec: Option<&BatchContext>,
) -> GenerationOutcome {
    let mut report = GeneratorReport::default();
    let mut degradations: Vec<Degradation> = Vec::new();

    // Seed every starting group (basis gates and APA gates) with a free
    // estimator latency; the fidelity-0 marker means "no real pulse
    // yet". Real pulses are generated once, for the final grouping.
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

    // One compilation gets at most one DeadlineHit degradation and one
    // `pipeline.deadline_hits` increment, whether the deadline trips in
    // the group phase, the merge loop, the attach loop, or several: only
    // the deadline makes a run partial, so `partial` doubles as the
    // "already noted" flag.
    let mut partial = deadline_hit
        || run_search(
            grouped,
            device,
            estimator,
            opts,
            deadline,
            &mut report,
            &mut degradations,
            &mut (),
        );

    // Attach real generated pulses to every group still carrying an
    // estimate (fidelity-0 marker). Recurring shapes hit the table.
    //
    // This is where the degradation ladder lives: a multi-gate group
    // whose pulse cannot be generated (even after retries) is rolled
    // back — the whole DAG is rebuilt with that group split into
    // singletons, already-attached shapes re-attach through the table
    // cache for free, and the loop restarts. The multi-gate group count
    // strictly decreases per rollback, so the loop terminates.
    // Estimates kept for groups the deadline left without a pulse, by
    // table key.
    let mut unattached: HashMap<String, PulseEstimate> = HashMap::new();
    'attach: loop {
        // Parallel prefetch: batch-generate every pending pulse of this
        // sweep before the sequential commit pass touches it. After a
        // rollback rebuild the sweep re-runs, and with it the prefetch
        // (already-attached shapes are local hits and produce no jobs).
        if let Some(ctx) = exec {
            prefetch_pending_pulses(grouped, device, table, opts, deadline, ctx);
        }
        let mut rollback: Option<usize> = None;
        for id in grouped.group_ids() {
            if grouped.group(id).fidelity != 0.0 {
                continue;
            }
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                if !partial {
                    partial = true;
                    counter("pipeline.deadline_hits", 1);
                    degradations.push(Degradation::DeadlineHit {
                        phase: "attach".to_string(),
                    });
                }
                // Keep the (already validated) analytic estimate: the
                // latency stays monotone, only the fidelity is a model
                // value rather than a generated one. Groups of one shape
                // share the first one's estimate, as they would share its
                // pulse through the table: the estimate's jitter depends
                // on the placement, the table's key does not.
                let key = table.key_for(device, &grouped.group(id).instructions);
                let est = *unattached.entry(key).or_insert_with(|| {
                    estimator.generate(
                        &grouped.group(id).instructions,
                        device,
                        opts.target_fidelity,
                        None,
                    )
                });
                let g = grouped.group_mut(id);
                g.latency_ns = est.latency_ns;
                g.fidelity = est.fidelity;
                continue;
            }
            let insts = grouped.group(id).instructions.clone();
            // The group's latency still holds the free analytic
            // estimate the search committed on; comparing it with the
            // realized pulse length measures the Obs.1 estimator error
            // (negative = conservative over-estimate).
            let predicted_ns = grouped.group(id).latency_ns;
            match table.try_pulse_for(&insts, device, source, opts.target_fidelity, PULSE_RETRIES) {
                Ok(pulse) => {
                    observe(
                        "search.predicted_latency_error_ns",
                        pulse.latency_ns - predicted_ns,
                    );
                    event!(
                        "pulse.attach",
                        group = id as u64,
                        gates = insts.len() as u64,
                        predicted_ns = predicted_ns,
                        realized_ns = pulse.latency_ns,
                        fidelity = pulse.fidelity,
                    );
                    let g = grouped.group_mut(id);
                    g.latency_ns = pulse.latency_ns;
                    g.fidelity = pulse.fidelity;
                }
                Err(e) if grouped.group(id).instructions.len() > 1 => {
                    // Rung 2: roll the merge back to per-gate pulses. A
                    // caught panic gets its own degradation entry on top
                    // of the rollback — callers triaging a batch need to
                    // distinguish "would not converge" from "crashed".
                    if let PulseGenError::SourcePanic { message, .. } = &e {
                        degradations.push(Degradation::SourcePanic {
                            gates: grouped.group(id).instructions.len(),
                            message: message.clone(),
                        });
                    }
                    let g = grouped.group(id);
                    report.fallbacks += 1;
                    counter("generator.fallbacks", 1);
                    event!(
                        "search.merge_rollback",
                        group = id as u64,
                        gates = g.instructions.len() as u64,
                        qubits = g.qubits.len() as u64,
                        reason = e.to_string(),
                    );
                    degradations.push(Degradation::MergeRolledBack {
                        gates: g.instructions.len(),
                        qubits: g.qubits.len(),
                        reason: e.to_string(),
                    });
                    rollback = Some(id);
                    break;
                }
                Err(e) => {
                    // Rung 3: a singleton failed — keep the analytic
                    // estimate and record the concession.
                    if let PulseGenError::SourcePanic { message, .. } = &e {
                        degradations.push(Degradation::SourcePanic {
                            gates: insts.len(),
                            message: message.clone(),
                        });
                    }
                    report.estimator_fallbacks += 1;
                    counter("generator.fallbacks", 1);
                    degradations.push(Degradation::EstimatorFallback {
                        gates: insts.len(),
                        reason: e.to_string(),
                    });
                    let est = estimator.generate(&insts, device, opts.target_fidelity, None);
                    let g = grouped.group_mut(id);
                    g.latency_ns = est.latency_ns;
                    g.fidelity = est.fidelity;
                }
            }
        }
        match rollback {
            None => break 'attach,
            Some(id) => {
                *grouped = rebuild_with_group_split(grouped, id);
                // Re-seed the markers: every group re-attaches on the
                // next sweep (cached shapes are free table hits).
                for gid in grouped.group_ids() {
                    let insts = grouped.group(gid).instructions.clone();
                    let est = estimator
                        .generate(&insts, device, opts.target_fidelity, None)
                        .latency_ns;
                    let g = grouped.group_mut(gid);
                    g.latency_ns = est;
                    g.fidelity = 0.0;
                }
            }
        }
    }

    GenerationOutcome {
        report,
        degradations,
        partial,
    }
}

/// Batch-generates every pulse the coming attach sweep will need: one
/// deduped [`PulseJob`] per pending group shape (fidelity-0 marker, no
/// local table entry), priority = the group's predicted latency so the
/// biggest pulses start first. Outcomes are folded into the table with
/// exact sequential stats parity ([`PulseTable::absorb_batch`]);
/// failures and skips (deadline, quarantine, a key in flight elsewhere)
/// are left for the sequential ladder, whose semantics are unchanged.
fn prefetch_pending_pulses(
    grouped: &GroupedCircuit,
    device: &Device,
    table: &mut PulseTable,
    opts: &PaqocOptions,
    deadline: Option<Instant>,
    ctx: &BatchContext,
) {
    let mut seen: HashSet<String> = HashSet::new();
    let mut jobs: Vec<PulseJob> = Vec::new();
    for id in grouped.group_ids() {
        let g = grouped.group(id);
        if g.fidelity != 0.0 {
            continue;
        }
        let key = table.key_for(device, &g.instructions);
        if table.has_entry(&key) || !seen.insert(key.clone()) {
            continue;
        }
        jobs.push(PulseJob {
            key,
            group: g.instructions.clone(),
            priority: g.latency_ns,
            target_fidelity: opts.target_fidelity,
        });
    }
    if jobs.is_empty() {
        return;
    }
    let exec_opts = ExecOptions {
        threads: ctx.threads,
        deadline,
    };
    paqoc_telemetry::gauge!("core.sweep_pending_pulses", jobs.len() as f64);
    let statuses = run_batch(
        &jobs,
        device,
        ctx.factory.as_ref(),
        table.cache(),
        &exec_opts,
    );
    paqoc_telemetry::gauge!("core.sweep_pending_pulses", 0.0);
    table.absorb_batch(&jobs, &statuses);
}

/// Rebuilds the grouped circuit with group `split_id` dissolved into
/// singletons and every other multi-gate group preserved (instructions
/// are reassembled in original circuit order from the groups' stored
/// indices; the live groups always partition the full circuit).
fn rebuild_with_group_split(grouped: &GroupedCircuit, split_id: usize) -> GroupedCircuit {
    let mut indexed: Vec<(usize, Instruction)> = Vec::new();
    let mut partition: Vec<(Vec<usize>, GroupKind)> = Vec::new();
    for id in grouped.group_ids() {
        let g = grouped.group(id);
        for (&i, inst) in g.indices.iter().zip(&g.instructions) {
            indexed.push((i, inst.clone()));
        }
        if id != split_id && g.instructions.len() > 1 {
            partition.push((g.indices.clone(), g.kind));
        }
    }
    indexed.sort_by_key(|&(i, _)| i);
    let instructions: Vec<Instruction> = indexed.into_iter().map(|(_, inst)| inst).collect();
    GroupedCircuit::new(&instructions, grouped.num_qubits(), &partition)
}

/// Ensures every live group has its pulse latency and fidelity set.
/// Used by the no-merging baselines in tests and benches.
#[cfg(test)]
fn refresh_latencies(
    grouped: &mut GroupedCircuit,
    device: &Device,
    source: &mut dyn PulseSource,
    table: &mut PulseTable,
    opts: &PaqocOptions,
) {
    for id in grouped.group_ids() {
        if grouped.group(id).latency_ns == 0.0 {
            let insts = grouped.group(id).instructions.clone();
            let pulse = table
                .try_pulse_for(&insts, device, source, opts.target_fidelity, 0)
                .expect("test sources converge");
            let g = grouped.group_mut(id);
            g.latency_ns = pulse.latency_ns;
            g.fidelity = pulse.fidelity;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupKind;
    use paqoc_circuit::Circuit;
    use paqoc_device::AnalyticModel;

    fn run(c: &Circuit, opts: &PaqocOptions) -> (GroupedCircuit, GeneratorReport, PulseTable) {
        let device = Device::grid5x5();
        let mut grouped = GroupedCircuit::new(c.instructions(), c.num_qubits(), &[]);
        let mut source = AnalyticModel::new();
        let mut table = PulseTable::new();
        let outcome = generate_with(
            &mut grouped,
            &device,
            &mut AnalyticModel::new(),
            &mut source,
            &mut table,
            opts,
            None,
            false,
            None,
        );
        (grouped, outcome.report, table)
    }

    #[test]
    fn merges_a_linear_same_pair_run() {
        // h(0); cx(0,1); rz(1): all nest into ≤2 qubits and chain.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(1, 0.7);
        let (grouped, report, _) = run(&c, &PaqocOptions::default());
        assert_eq!(grouped.len(), 1, "{report:?}");
        assert!(report.preprocess_merges >= 2, "{report:?}");
        let only = grouped.group_ids()[0];
        assert_eq!(grouped.group(only).kind, GroupKind::Customized);
        assert!(grouped.group(only).latency_ns > 0.0);
    }

    #[test]
    fn latency_never_increases() {
        let mut c = Circuit::new(5);
        for q in 0..4 {
            c.h(q);
            c.cx(q, q + 1);
            c.rz(q + 1, 0.3 * (q as f64 + 1.0));
        }
        // Baseline: no merging at all.
        let device = Device::grid5x5();
        let mut baseline = GroupedCircuit::new(c.instructions(), 5, &[]);
        let mut src = AnalyticModel::new();
        let mut tbl = PulseTable::new();
        refresh_latencies(
            &mut baseline,
            &device,
            &mut src,
            &mut tbl,
            &PaqocOptions::default(),
        );
        let unmerged_span = baseline.makespan_ns();

        let (grouped, _, _) = run(&c, &PaqocOptions::default());
        assert!(
            grouped.makespan_ns() <= unmerged_span + 1e-9,
            "merged {} vs unmerged {}",
            grouped.makespan_ns(),
            unmerged_span
        );
        assert!(
            grouped.makespan_ns() < unmerged_span * 0.9,
            "should clearly improve"
        );
    }

    #[test]
    fn respects_max_qubits() {
        let mut c = Circuit::new(6);
        for q in 0..5 {
            c.cx(q, q + 1);
        }
        let opts = PaqocOptions {
            max_qubits: 3,
            ..PaqocOptions::default()
        };
        let (grouped, _, _) = run(&c, &opts);
        for id in grouped.group_ids() {
            assert!(grouped.group(id).qubits.len() <= 3);
        }
    }

    #[test]
    fn without_criticality_pruning_still_monotonic() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(2, 3).rz(3, 0.4).cx(1, 2);
        let opts = PaqocOptions {
            criticality_pruning: false,
            ..PaqocOptions::default()
        };
        let (grouped, report, _) = run(&c, &opts);
        assert!(report.criticality_merges + report.preprocess_merges > 0);
        assert!(grouped.makespan_ns() > 0.0);
    }

    #[test]
    fn pruning_reduces_ranked_work_not_quality_much() {
        // The ablation claim: same-ish latency, fewer pulse generations.
        let mut c = Circuit::new(5);
        for q in 0..4 {
            c.h(q);
            c.cx(q, q + 1);
        }
        for q in (0..4).rev() {
            c.cx(q, q + 1);
        }
        let pruned = run(
            &c,
            &PaqocOptions {
                criticality_pruning: true,
                ..PaqocOptions::default()
            },
        );
        let full = run(
            &c,
            &PaqocOptions {
                criticality_pruning: false,
                ..PaqocOptions::default()
            },
        );
        let (g1, _, t1) = pruned;
        let (g2, _, t2) = full;
        // Pruned search generates no more pulses than the full search.
        assert!(
            t1.stats().pulses_generated <= t2.stats().pulses_generated,
            "{} vs {}",
            t1.stats().pulses_generated,
            t2.stats().pulses_generated
        );
        // And lands within 25% of the exhaustive latency.
        assert!(g1.makespan_ns() <= g2.makespan_ns() * 1.25);
    }

    #[test]
    fn top_k_commits_multiple_disjoint_merges_per_iteration() {
        // Pairs chosen to be grid-adjacent on the 5×5 device (pair
        // (4,5) would straddle a row boundary and distort criticality).
        let mut c = Circuit::new(9);
        for q in [0usize, 2, 5, 7] {
            c.h(q);
            c.cx(q, q + 1);
        }
        let opts = PaqocOptions {
            preprocess: false,
            top_k: 4,
            ..PaqocOptions::default()
        };
        let (grouped, report, _) = run(&c, &opts);
        assert!(report.criticality_merges >= 2, "{report:?}");
        assert!(grouped.len() <= 6);
    }

    #[test]
    fn single_gate_circuit_is_a_fixpoint() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let (grouped, report, _) = run(&c, &PaqocOptions::default());
        assert_eq!(grouped.len(), 1);
        assert_eq!(report.criticality_merges, 0);
        assert_eq!(report.preprocess_merges, 0);
    }

    #[test]
    fn esp_reflects_group_count() {
        // Fewer groups after merging → higher ESP at equal per-pulse
        // fidelity budget.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).rz(1, 0.3).cx(0, 1).h(1);
        let merged = run(&c, &PaqocOptions::default());
        let unmerged = {
            let device = Device::grid5x5();
            let mut g = GroupedCircuit::new(c.instructions(), 2, &[]);
            let mut src = AnalyticModel::new();
            let mut tbl = PulseTable::new();
            refresh_latencies(
                &mut g,
                &device,
                &mut src,
                &mut tbl,
                &PaqocOptions::default(),
            );
            g
        };
        assert!(merged.0.esp() > unmerged.esp());
    }
}
