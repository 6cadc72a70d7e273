//! The end-to-end PAQOC compilation pipeline (paper Fig. 7).
//!
//! logical circuit → universal-basis lowering → SABRE mapping onto the
//! device → frequent-subcircuit mining → APA-basis substitution →
//! criticality-aware customized-gate generation → pulses. APA-basis
//! substitution (the `group` phase) tries each occurrence on a quotient
//! DAG whose topological order it keeps ([`Quotient`]), and checks the
//! deadline once per occurrence.

use crate::error::{CompileError, Degradation};
use crate::generator::{generate_with, BatchContext, GeneratorReport, PaqocOptions};
use crate::group::{backward_pass, GroupKind, GroupedCircuit, KeptOrder, Marks, VACANT};
use crate::table::{CompileStats, PulseTable};
use paqoc_circuit::{decompose, Basis, Circuit, Instruction};
use paqoc_device::{AnalyticModel, Device, PulseEstimate, PulseSource};
use paqoc_exec::{effective_threads, PulseSourceFactory, SharedPulseTable};
use paqoc_mapping::{try_sabre_map, SabreOptions};
use paqoc_mining::{
    mine_frequent_subcircuits, select_apa_basis, ApaBudget, ApaCover, MinerOptions,
};
use paqoc_store::{PulseStore, StoreOptions, StoreRole};
use paqoc_telemetry::{counter, span};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// APA-basis budget (the paper's `M`).
    pub apa_budget: ApaBudget,
    /// Frequent-subcircuit miner knobs.
    pub miner: MinerOptions,
    /// Customized-gates generator knobs.
    pub generator: PaqocOptions,
    /// SABRE knobs.
    pub sabre: SabreOptions,
    /// Skip mapping when the input is already a physical circuit.
    pub skip_mapping: bool,
    /// Disable the customized-gates generator entirely (the paper's
    /// APA-only mode of Section V-C).
    pub enable_generator: bool,
    /// Wall-clock budget for the whole compilation, measured from entry.
    /// APA acceptance (the `group` phase), the merge search and the pulse
    /// attach check it; when it expires there the pipeline finishes with
    /// the current valid grouping marked [`CompilationResult::partial`]
    /// and one [`Degradation::DeadlineHit`] naming the phase. Lowering,
    /// mapping and mining run to their end. A zero deadline fails fast
    /// with [`CompileError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Path of the persistent pulse store. `None` consults the
    /// `PAQOC_PULSE_DB` environment variable; set it (or the variable)
    /// to make pulse reuse survive process restarts. A store that fails
    /// to open degrades to in-memory compilation with a
    /// [`Degradation::StoreUnavailable`] entry — never an error.
    pub pulse_db: Option<std::path::PathBuf>,
    /// Tuning for the persistent store handle ([`PulseStore::open_with`]):
    /// eviction budget, forced read-only mode, IO fault injection. A
    /// `max_bytes` of `None` consults the `PAQOC_PULSE_DB_MAX_BYTES`
    /// environment variable. When the handle comes up read-only —
    /// another process holds the single-writer lock, or read-only was
    /// requested — the compilation proceeds and records a
    /// [`Degradation::StoreReadOnly`] entry.
    ///
    /// [`PulseStore::open_with`]: paqoc_store::PulseStore::open_with
    pub store_options: paqoc_store::StoreOptions,
    /// Worker count for [`try_compile_batch`]. `None` consults the
    /// `PAQOC_THREADS` environment variable, then hardware parallelism
    /// (see [`effective_threads`]). Ignored by the sequential
    /// [`try_compile`].
    pub threads: Option<usize>,
    /// The pulse cache this compile resolves through, letting compiles
    /// — sequential and batch alike, concurrent or one after another —
    /// pool pulses, quarantines, a single persistent-store handle and the
    /// free estimator's Weyl decompositions. `None` gives the compile a
    /// private cache of its own.
    pub shared_table: Option<Arc<SharedPulseTable>>,
    /// Expected backend of the target device (a `paqoc-backend`
    /// registry name). When set, compilation fails fast with
    /// [`CompileError::BackendMismatch`] unless it equals
    /// `device.backend_name()` — the guard that keeps a multi-backend
    /// caller (the serve daemon) from filing pulses under the wrong store
    /// namespace. `None` skips the check.
    pub backend: Option<String>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            apa_budget: ApaBudget::None,
            miner: MinerOptions::default(),
            generator: PaqocOptions::default(),
            sabre: SabreOptions::default(),
            skip_mapping: false,
            enable_generator: true,
            deadline: None,
            pulse_db: None,
            store_options: paqoc_store::StoreOptions::default(),
            threads: None,
            shared_table: None,
            backend: None,
        }
    }
}

impl PipelineOptions {
    /// The paper's `paqoc(M=0)` configuration.
    pub fn m0() -> Self {
        PipelineOptions {
            apa_budget: ApaBudget::None,
            ..PipelineOptions::default()
        }
    }

    /// The paper's `paqoc(M=inf)` configuration.
    pub fn m_inf() -> Self {
        PipelineOptions {
            apa_budget: ApaBudget::Unlimited,
            ..PipelineOptions::default()
        }
    }

    /// The paper's `paqoc(M=tuned)` configuration.
    pub fn m_tuned() -> Self {
        PipelineOptions {
            apa_budget: ApaBudget::Tuned,
            ..PipelineOptions::default()
        }
    }
}

/// The outcome of compiling one circuit.
#[derive(Debug)]
pub struct CompilationResult {
    /// The physical circuit after lowering and mapping.
    pub physical: Circuit,
    /// The final grouping with pulses attached.
    pub grouped: GroupedCircuit,
    /// Whole-circuit pulse latency, nanoseconds.
    pub latency_ns: f64,
    /// Whole-circuit pulse latency in device cycles.
    pub latency_dt: u64,
    /// Estimated success probability (paper Eq. 2).
    pub esp: f64,
    /// Pulse-generation cost accounting.
    pub stats: CompileStats,
    /// Generator loop report.
    pub report: GeneratorReport,
    /// The APA cover that was applied.
    pub apa: ApaCover,
    /// Wall-clock compilation time in seconds.
    pub wall_seconds: f64,
    /// `true` when the deadline cut pulse work short; the result is
    /// still valid (monotone latency) but some groups carry analytic
    /// estimates instead of generated pulses.
    pub partial: bool,
    /// Everything the compilation sacrificed to succeed, in order.
    pub degradations: Vec<Degradation>,
    /// Deterministic dump of the compile's pulse table (sorted by
    /// composite key) — the byte-comparable artifact the determinism
    /// tests diff across thread counts.
    pub pulse_table: Vec<(String, PulseEstimate)>,
}

impl CompilationResult {
    /// Number of customized gates in the final schedule.
    pub fn num_groups(&self) -> usize {
        self.grouped.len()
    }

    /// The decoherence-aware success estimate: the control-error ESP
    /// (Eq. 2) multiplied by the qubits' survival probability over the
    /// schedule — shorter circuits win twice, which is the paper's
    /// motivation for latency reduction made quantitative.
    pub fn esp_with_decoherence(&self, device: &Device) -> f64 {
        let active: std::collections::BTreeSet<usize> = self
            .grouped
            .group_ids()
            .into_iter()
            .flat_map(|id| self.grouped.group(id).qubits.iter().copied())
            .collect();
        self.esp
            * device
                .spec()
                .survival_probability(active.len(), self.latency_ns)
    }
}

/// Compiles a logical circuit to pulses with PAQOC, fallibly.
///
/// This is the primary entry point. The contract under fault: the
/// pipeline *degrades* — pulse-source failures are retried, then rolled
/// back to decomposed per-gate pulses, then absorbed as analytic
/// estimates, all recorded in [`CompilationResult::degradations`]; a
/// deadline that passes mid-run finishes with the current valid
/// grouping marked [`CompilationResult::partial`]. A typed
/// [`CompileError`] is returned only when no result is possible:
/// unmappable or malformed input, a zero deadline, or a device that is
/// not the requested [`PipelineOptions::backend`].
pub fn try_compile(
    logical: &Circuit,
    device: &Device,
    source: &mut dyn PulseSource,
    opts: &PipelineOptions,
) -> Result<CompilationResult, CompileError> {
    compile_inner(logical, device, source, opts, None)
}

/// Compiles with the attach phase parallelized on the executor.
///
/// Instead of one long-lived source, the caller hands a
/// [`PulseSourceFactory`]: each attach sweep batch-generates its
/// pending pulses as [`paqoc_exec::PulseJob`]s across
/// [`PipelineOptions::threads`] workers (per-key seeded, deduped,
/// panic-isolated — see `paqoc_exec`), and the existing sequential
/// commit logic then consumes them as free hits. Failed jobs fall
/// through to the unchanged sequential degradation ladder, driven by a
/// factory-built fallback source.
///
/// Determinism contract: for a fixed input and factory, `threads = 1`
/// and `threads = N` produce bit-identical pulses, latencies, ESP and
/// stats — batch generations are pure functions of their job key.
/// Deadline runs are exempt (which jobs a deadline cuts off depends on
/// the schedule, exactly as it does sequentially).
pub fn try_compile_batch(
    logical: &Circuit,
    device: &Device,
    factory: Arc<dyn PulseSourceFactory>,
    opts: &PipelineOptions,
) -> Result<CompilationResult, CompileError> {
    let ctx = BatchContext {
        factory: factory.clone(),
        threads: effective_threads(opts.threads),
    };
    // The ladder's fallback source: deterministic given the factory,
    // shared across the sequential residue of all sweeps.
    let mut fallback = factory.make(paqoc_exec::job_seed("sequential-fallback"));
    compile_inner(logical, device, fallback.as_mut(), opts, Some(ctx))
}

/// Attaches the persistent pulse store at `path` to `cache`, unless the
/// cache holds one already, and returns what the compile concedes: a
/// [`Degradation::StoreReadOnly`] when the handle comes up read-only
/// (`"requested"` by `options`, or `"lock-held"` by another writer), a
/// [`Degradation::StoreUnavailable`] when the store cannot be opened —
/// the compile then runs in memory — and `None` otherwise.
///
/// The store belongs to the cache: the append-only log is not
/// multi-handle safe, so every compile on the cache reads through the
/// one handle and [`SharedPulseTable::sync`] is its single writer.
pub fn attach_pulse_store(
    cache: &SharedPulseTable,
    path: &Path,
    device: &Device,
    options: StoreOptions,
) -> Option<Degradation> {
    let read_only_requested = options.read_only;
    match cache.attach_store_with(|| PulseStore::open_with(path, device.fingerprint(), options)) {
        Ok(Some(StoreRole::ReadOnly)) => {
            // Reads still come through; only durability of this run's
            // fresh pulses is lost.
            let reason = if read_only_requested {
                "requested"
            } else {
                "lock-held"
            };
            Some(Degradation::StoreReadOnly {
                reason: reason.to_string(),
            })
        }
        Ok(_) => None,
        Err(e) => {
            // Persistence is an accelerator, not a requirement: compile
            // in-memory and record the concession.
            counter("store.open_failures", 1);
            paqoc_telemetry::event!("store.open_failed", error = e.to_string());
            Some(Degradation::StoreUnavailable {
                reason: e.to_string(),
            })
        }
    }
}

fn compile_inner(
    logical: &Circuit,
    device: &Device,
    source: &mut dyn PulseSource,
    opts: &PipelineOptions,
    batch: Option<BatchContext>,
) -> Result<CompilationResult, CompileError> {
    let start = Instant::now();
    if let Some(requested) = &opts.backend {
        let actual = device.backend_name();
        if requested != actual {
            return Err(CompileError::BackendMismatch {
                requested: requested.clone(),
                actual: actual.to_string(),
            });
        }
    }
    let _compile_span = span("compile");

    if let Some(deadline) = opts.deadline {
        if deadline.is_zero() {
            counter("pipeline.deadline_hits", 1);
            return Err(CompileError::DeadlineExceeded { deadline });
        }
    }
    if logical.num_qubits() == 0 {
        return Err(CompileError::MalformedCircuit(
            "circuit has zero qubits".to_string(),
        ));
    }
    // `Circuit::push` enforces this today, but inputs may come from
    // deserialization paths that bypass it — reject rather than panic
    // deep inside the mapper.
    for inst in logical.iter() {
        if let Some(&q) = inst.qubits().iter().find(|&&q| q >= logical.num_qubits()) {
            return Err(CompileError::MalformedCircuit(format!(
                "gate {} addresses qubit {q} but the circuit has {} qubits",
                inst.gate(),
                logical.num_qubits()
            )));
        }
        // A NaN or infinite angle has no unitary: every latency computed
        // from it would be meaningless.
        if let Some(a) = inst.params().iter().find(|a| !a.value.is_finite()) {
            return Err(CompileError::MalformedCircuit(format!(
                "gate {} has the non-finite angle {}",
                inst.gate(),
                a.value
            )));
        }
    }
    if logical.num_qubits() > device.topology().num_qubits() {
        // Checked up front so even `skip_mapping` compilations reject
        // circuits wider than the device.
        return Err(CompileError::Mapping(
            paqoc_mapping::MapError::CircuitTooWide {
                needed: logical.num_qubits(),
                available: device.topology().num_qubits(),
            },
        ));
    }

    // 1. Lower to the universal basis and map onto the device. The
    //    Extended basis keeps named single-qubit gates whole (H stays
    //    "h"), matching the level the paper mines at (Fig. 5).
    let lowered = {
        let _s = span("lower");
        decompose(logical, Basis::Extended)
    };
    let physical = if opts.skip_mapping {
        lowered
    } else {
        let _s = span("map");
        let mapped = try_sabre_map(&lowered, device.topology(), &opts.sabre)?;
        // Routing inserts SWAP gates; lower them to CX chains — these are
        // exactly the recurring patterns the miner should see (Table III).
        decompose(&mapped.circuit, Basis::Extended)
    };

    // 2. Mine frequent subcircuits and select the APA basis.
    let apa = {
        let _s = span("mine");
        if opts.apa_budget == ApaBudget::None {
            ApaCover::default()
        } else {
            let miner_opts = MinerOptions {
                max_qubits: opts.generator.max_qubits,
                ..opts.miner
            };
            let patterns = mine_frequent_subcircuits(&physical, &miner_opts);
            select_apa_basis(&patterns, opts.apa_budget, physical.len())
        }
    };

    // 3. Build the grouped circuit from the APA occurrences that pass the
    //    paper's §V-C guarantee (see `accept_apa_occurrences`).
    // The compile's pulse cache: the pooled one, or a private one.
    let cache = opts.shared_table.clone().unwrap_or_default();
    // One free estimator for the whole compile: APA acceptance and the
    // search share its Weyl memo, which reads and feeds the cache's, so
    // compiles pooled on one cache pool their decompositions too.
    let mut estimator = AnalyticModel::with_memo(cache.weyl_memo().clone());
    let deadline = opts.deadline.map(|d| start + d);
    let (mut grouped, group_deadline_hit) = {
        let _s = span("group");
        let accepted = accept_apa_occurrences(
            &physical,
            &apa,
            device,
            &mut estimator,
            &opts.generator,
            deadline,
        );
        let grouped = GroupedCircuit::new(
            physical.instructions(),
            physical.num_qubits(),
            &accepted.partition,
        );
        (grouped, accepted.deadline_hit)
    };

    // 4. Criticality-aware customized gate generation + pulses, through
    //    the one pulse cache, optionally backed by the persistent store.
    //    A cache pooled with other compiles (concurrent batch compiles,
    //    a serve slot) keeps the store handle the first of them attached.
    let mut table = PulseTable::with_cache(cache);
    let mut degradations: Vec<Degradation> = Vec::new();
    if group_deadline_hit {
        counter("pipeline.deadline_hits", 1);
        degradations.push(Degradation::DeadlineHit {
            phase: "group".to_string(),
        });
    }
    let db_path = opts.pulse_db.clone().or_else(|| {
        std::env::var_os("PAQOC_PULSE_DB")
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from)
    });
    if let Some(path) = db_path {
        let mut store_opts = opts.store_options.clone();
        if store_opts.max_bytes.is_none() {
            store_opts.max_bytes = std::env::var("PAQOC_PULSE_DB_MAX_BYTES")
                .ok()
                .and_then(|v| v.parse().ok());
        }
        degradations.extend(attach_pulse_store(table.cache(), &path, device, store_opts));
    }
    let gen_opts = if opts.enable_generator {
        opts.generator
    } else {
        PaqocOptions {
            max_iterations: 0,
            preprocess: false,
            ..opts.generator
        }
    };
    let outcome = {
        let _s = span("generate");
        generate_with(
            &mut grouped,
            device,
            &mut estimator,
            source,
            &mut table,
            &gen_opts,
            deadline,
            group_deadline_hit,
            batch.as_ref(),
        )
    };
    degradations.extend(outcome.degradations);
    // Write-behind flush: everything generated this run becomes durable
    // before the result is returned; the cache's single-writer sync
    // drains all shards.
    if let Err(e) = table.cache().sync() {
        counter("store.sync_failures", 1);
        degradations.push(Degradation::StoreUnavailable {
            reason: format!("sync failed: {e}"),
        });
    }

    let esp = grouped.esp();

    let latency_ns = grouped.makespan_ns();
    if paqoc_telemetry::enabled() {
        for d in &degradations {
            paqoc_telemetry::event!("pipeline.degradation", detail = d.to_string());
        }
        paqoc_telemetry::event!(
            "pipeline.result",
            latency_ns = latency_ns,
            esp = esp,
            groups = grouped.len() as u64,
            iterations = outcome.report.iterations as u64,
            pulses_generated = table.stats().pulses_generated as u64,
            cache_hits = table.stats().cache_hits as u64,
            store_hits = table.stats().store_hits as u64,
            partial = outcome.partial,
            degradations = degradations.len() as u64,
        );
    }
    Ok(CompilationResult {
        physical,
        latency_ns,
        latency_dt: device.spec().ns_to_dt(latency_ns),
        esp,
        stats: table.stats(),
        report: outcome.report,
        apa,
        grouped,
        wall_seconds: start.elapsed().as_secs_f64(),
        partial: outcome.partial,
        degradations,
        pulse_table: table.dump_entries(),
    })
}

/// The APA occurrences kept by [`accept_apa_occurrences`].
pub(crate) struct ApaAcceptance {
    /// Accepted occurrences in acceptance order, as handed to
    /// [`GroupedCircuit::new`].
    pub(crate) partition: Vec<(Vec<usize>, GroupKind)>,
    /// Estimated makespan of the accepted grouping (0 when the cover
    /// selected nothing).
    pub(crate) span_ns: f64,
    /// This pass's increments of the `apa.accepted`,
    /// `apa.rejected_acyclic` and `apa.rejected_critical_path` counters.
    pub(crate) accepted: usize,
    pub(crate) rejected_acyclic: usize,
    pub(crate) rejected_critical_path: usize,
    /// `true` when the deadline stopped the walk; the accepted stand.
    pub(crate) deadline_hit: bool,
}

/// Walks the cover's occurrences in order and keeps each one whose
/// contraction, jointly with those already kept, (a) leaves the
/// dependence DAG acyclic and (b) does not increase the estimated
/// critical path — the paper's §V-C guarantee ("APA-basis gate sets are
/// chosen in a way that it will guarantee not to increase the critical
/// path"). Checks `deadline` once per occurrence.
///
/// Each trial runs on one kept-order [`Quotient`]. Latencies come from
/// the analytic model through a cache keyed by canonical
/// [`group_key`](crate::table::group_key); the first group seen with a
/// key sets its latency, so singletons are estimated once up front in
/// instruction order and each trial estimates only its new occurrence
/// (members in index order), and only when it is acyclic.
pub(crate) fn accept_apa_occurrences(
    physical: &Circuit,
    apa: &ApaCover,
    device: &Device,
    estimator: &mut AnalyticModel,
    opts: &PaqocOptions,
    deadline: Option<Instant>,
) -> ApaAcceptance {
    let mut out = ApaAcceptance {
        partition: Vec::new(),
        span_ns: 0.0,
        accepted: 0,
        rejected_acyclic: 0,
        rejected_critical_path: 0,
        deadline_hit: false,
    };
    if apa.selections.is_empty() {
        return out;
    }
    let instructions = physical.instructions();
    let mut est_cache: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let mut estimate = |group: &[Instruction]| -> f64 {
        *est_cache
            .entry(crate::table::group_key(group))
            .or_insert_with(|| {
                estimator
                    .generate(group, device, opts.target_fidelity, None)
                    .latency_ns
            })
    };

    let mut node_lat: Vec<f64> = instructions
        .iter()
        .map(|inst| estimate(std::slice::from_ref(inst)))
        .collect();
    let mut dag = Quotient::new(instructions, physical.num_qubits());
    out.span_ns = dag.span(&node_lat);

    for (pattern_idx, occ) in apa.occurrences() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            out.deadline_hit = true;
            break;
        }
        if !dag.claim(occ) {
            counter("apa.rejected_acyclic", 1);
            out.rejected_acyclic += 1;
            continue;
        }
        let group: Vec<Instruction> = dag
            .claimed()
            .iter()
            .map(|&i| instructions[i].clone())
            .collect();
        node_lat.push(estimate(&group));
        let trial_span = dag.trial_span(&node_lat);
        if trial_span <= out.span_ns + opts.tolerance_ns {
            dag.accept();
            counter("apa.accepted", 1);
            out.accepted += 1;
            out.partition
                .push((occ.clone(), GroupKind::Apa(pattern_idx)));
            out.span_ns = trial_span;
        } else {
            node_lat.pop();
            dag.release();
            counter("apa.rejected_critical_path", 1);
            out.rejected_critical_path += 1;
        }
    }
    out
}

/// A circuit's dependence DAG with the accepted APA occurrences
/// contracted, in flat buffers. Node `v` holds the instructions
/// `members[starts[v]..starts[v + 1]]`: `v` alone for `v < n`, the k-th
/// accepted occurrence for `n + k`; `owner[i]` holds instruction `i`.
struct Nodes {
    owner: Vec<usize>,
    /// `next[slots[i]..slots[i + 1]]`: per qubit of instruction `i`, the
    /// next instruction on it, or [`VACANT`].
    slots: Vec<usize>,
    next: Vec<usize>,
    members: Vec<usize>,
    starts: Vec<usize>,
}

impl Nodes {
    /// The nodes after `v`: the owners of the next instructions on the
    /// qubits of its own, one entry per edge (repeats change neither a
    /// cycle verdict nor a longest path).
    fn succs(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.members[self.starts[v]..self.starts[v + 1]]
            .iter()
            .flat_map(|&i| &self.next[self.slots[i]..self.slots[i + 1]])
            .filter(|&&j| j != VACANT)
            .map(|&j| self.owner[j])
            .filter(move |&s| s != v)
    }

    /// Mints the next node from the singletons `occ` lists, up to the
    /// first that is not one; returns how many it took.
    fn claim(&mut self, occ: &[usize]) -> usize {
        let node = self.starts.len() - 1;
        let start = self.members.len();
        for &i in occ {
            if self.owner[i] != i {
                break;
            }
            self.owner[i] = node;
            self.members.push(i);
        }
        self.members[start..].sort_unstable();
        self.starts.push(self.members.len());
        self.members.len() - start
    }

    /// Drops the last node minted: its instructions are singletons again.
    fn release(&mut self) {
        self.starts.pop();
        for i in self.members.drain(self.starts[self.starts.len() - 1]..) {
            self.owner[i] = i;
        }
    }
}

/// The quotient DAG APA acceptance tries occurrences on, in its kept
/// topological order. A trial [`claim`](Self::claim)s an occurrence as a
/// new node, reads the [`trial_span`](Self::trial_span), and is accepted
/// or released; a released trial leaves no trace.
pub(crate) struct Quotient {
    nodes: Nodes,
    order: KeptOrder,
    /// The slots the trial's instructions span.
    lo: usize,
    hi: usize,
    marks: Marks,
}

impl Quotient {
    /// The circuit's own dependence DAG, in instruction order.
    pub(crate) fn new(instructions: &[Instruction], num_qubits: usize) -> Self {
        let n = instructions.len();
        let mut slots = vec![0];
        for inst in instructions {
            slots.push(slots[slots.len() - 1] + inst.qubits().len());
        }
        let mut next = vec![VACANT; slots[n]];
        let mut next_use = vec![VACANT; num_qubits];
        for (i, inst) in instructions.iter().enumerate().rev() {
            for (slot, &q) in (slots[i]..).zip(inst.qubits()) {
                next[slot] = std::mem::replace(&mut next_use[q], i);
            }
        }
        let (members, starts) = ((0..n).collect(), (0..=n).collect());
        Quotient {
            nodes: Nodes {
                owner: (0..n).collect(),
                slots,
                next,
                members,
                starts,
            },
            // Each node takes an instruction: at most `n` more ids.
            order: KeptOrder::new((0..n).collect(), 2 * n + 1),
            lo: 0,
            hi: 0,
            marks: Marks::default(),
        }
    }

    /// The makespan under the node latencies `lat`.
    pub(crate) fn span(&mut self, lat: &[f64]) -> f64 {
        let (nodes, order) = (&self.nodes, &mut self.order);
        backward_pass(
            order.topo.iter(),
            &mut order.cp,
            |v| lat[v],
            |v| nodes.succs(v),
        )
    }

    /// The trial's instructions, ascending.
    pub(crate) fn claimed(&self) -> &[usize] {
        &self.nodes.members[self.nodes.starts[self.nodes.starts.len() - 2]..]
    }

    /// Claims the non-empty occurrence `occ` as a new node, the trial;
    /// `false`, leaving no trace, when an instruction of it is not a
    /// singleton (accepted already, or listed twice) or a path leaves the
    /// node and comes back. Such a path runs between the slots of its
    /// instructions; the search marks the node's descendants there.
    pub(crate) fn claim(&mut self, occ: &[usize]) -> bool {
        let node = self.nodes.starts.len() - 1;
        let whole = self.nodes.claim(occ) == occ.len();
        let pos = &self.order.pos;
        let span = occ.iter().map(|&i| pos[i]);
        (self.lo, self.hi) = (span.clone().min().unwrap_or(0), span.max().unwrap_or(0));
        let (nodes, hi) = (&self.nodes, self.hi);
        let enter = |s: usize| pos[s] <= hi;
        if !whole
            || self
                .marks
                .detour(pos.len(), (node, node), enter, |v| nodes.succs(v))
        {
            self.nodes.release();
            return false;
        }
        let (owner, marks) = (&self.nodes.owner, &self.marks);
        let absorbed = |v: usize| owner.get(v) == Some(&node);
        self.order
            .segment(self.lo, self.hi, node, absorbed, |v| marks.marked(v));
        true
    }

    /// The makespan with the trial in place, under the node latencies
    /// `lat` (the trial's last), over every node.
    pub(crate) fn trial_span(&mut self, lat: &[f64]) -> f64 {
        let nodes = &self.nodes;
        self.order
            .trial_span(self.lo, self.hi, |v| lat[v], |v| nodes.succs(v))
    }

    /// Keeps the trial.
    pub(crate) fn accept(&mut self) {
        self.order.place(self.lo, self.hi);
    }

    /// Drops the trial.
    pub(crate) fn release(&mut self) {
        self.nodes.release();
    }
}

/// `true` when contracting each set of the partition (remaining
/// instructions as singletons) leaves the dependence DAG acyclic: when
/// each set, claimed after the ones before it, closes no cycle. An empty
/// set has no edge to close one with.
pub fn partition_is_acyclic(
    instructions: &[Instruction],
    num_qubits: usize,
    partition: &[(Vec<usize>, GroupKind)],
) -> bool {
    let mut dag = Quotient::new(instructions, num_qubits);
    partition
        .iter()
        .filter(|(set, _)| !set.is_empty())
        .all(|(set, _)| {
            let acyclic = dag.claim(set);
            if acyclic {
                dag.accept();
            }
            acyclic
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_device::AnalyticModel;

    fn qaoa_like() -> Circuit {
        // Repeated CPHASE skeletons: mining fodder.
        let mut c = Circuit::new(4);
        for _ in 0..2 {
            for (a, b) in [(0usize, 1usize), (1, 2), (2, 3)] {
                c.cp(a, b, 0.7);
            }
            for q in 0..4 {
                c.rx(q, 0.35);
            }
        }
        c
    }

    #[test]
    fn m0_pipeline_compiles_and_improves_over_no_merging() {
        let device = Device::grid5x5();
        let mut source = AnalyticModel::new();
        let merged = try_compile(&qaoa_like(), &device, &mut source, &PipelineOptions::m0())
            .expect("compile");
        let mut source2 = AnalyticModel::new();
        let unmerged = try_compile(
            &qaoa_like(),
            &device,
            &mut source2,
            &PipelineOptions {
                enable_generator: false,
                ..PipelineOptions::m0()
            },
        )
        .expect("compile");
        assert!(
            merged.latency_ns < unmerged.latency_ns,
            "{} vs {}",
            merged.latency_ns,
            unmerged.latency_ns
        );
        assert!(merged.esp > unmerged.esp);
        assert!(merged.latency_dt > 0);
    }

    #[test]
    fn m_inf_reduces_compilation_cost() {
        let device = Device::grid5x5();
        let mut s0 = AnalyticModel::new();
        let m0 =
            try_compile(&qaoa_like(), &device, &mut s0, &PipelineOptions::m0()).expect("compile");
        let mut si = AnalyticModel::new();
        let mi = try_compile(&qaoa_like(), &device, &mut si, &PipelineOptions::m_inf())
            .expect("compile");
        assert!(
            mi.stats.cost_units <= m0.stats.cost_units,
            "inf {} vs m0 {}",
            mi.stats.cost_units,
            m0.stats.cost_units
        );
        assert!(mi.apa.num_apa_gates() > 0, "{:?}", mi.apa);
    }

    #[test]
    fn tuned_sits_between_m0_and_inf_in_cost() {
        let device = Device::grid5x5();
        let mut s = AnalyticModel::new();
        let m0 =
            try_compile(&qaoa_like(), &device, &mut s, &PipelineOptions::m0()).expect("compile");
        let mut s = AnalyticModel::new();
        let mt = try_compile(&qaoa_like(), &device, &mut s, &PipelineOptions::m_tuned())
            .expect("compile");
        let mut s = AnalyticModel::new();
        let mi =
            try_compile(&qaoa_like(), &device, &mut s, &PipelineOptions::m_inf()).expect("compile");
        // On a tiny synthetic circuit the exact ordering is noisy; the
        // full-benchmark harness (fig11) asserts the paper's ordering.
        assert!(
            mt.stats.cost_units <= m0.stats.cost_units * 2.0 + 1e-9,
            "tuned {} vs m0 {}",
            mt.stats.cost_units,
            m0.stats.cost_units
        );
        assert!(mt.latency_ns <= mi.latency_ns * 1.3);
    }

    #[test]
    fn skip_mapping_uses_the_raw_circuit() {
        let device = Device::grid5x5();
        let mut source = AnalyticModel::new();
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let r = try_compile(
            &c,
            &device,
            &mut source,
            &PipelineOptions {
                skip_mapping: true,
                ..PipelineOptions::m0()
            },
        )
        .expect("compile");
        // h lowers to rz·sx·rz; all merged with cx into one group.
        assert_eq!(r.num_groups(), 1);
    }

    #[test]
    fn partition_acyclicity_rejects_cross_dependences() {
        // g0: cx(0,1); g1: rz(0); g2: rz(1); g3: cx(0,1)
        // Sets {0,3} is non-convex contraction; {g1} and {g2} singletons.
        let mut c = Circuit::new(2);
        c.cx(0, 1).rz(0, 0.1).rz(1, 0.2).cx(0, 1);
        assert!(!partition_is_acyclic(
            c.instructions(),
            2,
            &[(vec![0, 3], GroupKind::Apa(0))],
        ));
        assert!(partition_is_acyclic(
            c.instructions(),
            2,
            &[
                (vec![0, 1], GroupKind::Apa(0)),
                (vec![2, 3], GroupKind::Apa(0))
            ],
        ));
    }

    #[test]
    fn mutual_cycle_between_two_groups_is_rejected() {
        // A = {g0 on q0, g3 on q1}, B = {g1 on q0, g2 on q1} with
        // g0→g1 (q0) and g2→g3 (q1): quotient has A→B and B→A.
        let mut c = Circuit::new(2);
        c.rz(0, 0.1).rz(0, 0.2).rz(1, 0.3).rz(1, 0.4);
        assert!(!partition_is_acyclic(
            c.instructions(),
            2,
            &[
                (vec![0, 3], GroupKind::Apa(0)),
                (vec![1, 2], GroupKind::Apa(0)),
            ],
        ));
    }

    #[test]
    fn wall_time_is_recorded() {
        let device = Device::grid5x5();
        let mut source = AnalyticModel::new();
        let r = try_compile(&qaoa_like(), &device, &mut source, &PipelineOptions::m0())
            .expect("compile");
        assert!(r.wall_seconds > 0.0);
    }

    fn store_tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("paqoc-pipeline-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(paqoc_store::lock_path(&path));
        path
    }

    #[test]
    fn requested_read_only_store_degrades_but_still_serves_reads() {
        let device = Device::grid5x5();
        let path = store_tmp("readonly.pqps");
        // Warm pass: a writer persists this compile's pulses.
        let mut source = AnalyticModel::new();
        let opts = PipelineOptions {
            pulse_db: Some(path.clone()),
            ..PipelineOptions::m0()
        };
        let warm = try_compile(&qaoa_like(), &device, &mut source, &opts).expect("compile");
        assert!(
            !warm
                .degradations
                .iter()
                .any(|d| matches!(d, Degradation::StoreReadOnly { .. })),
            "first opener must win the writer lock"
        );
        // Read-only pass: still compiles, still hits the store, but the
        // concession is recorded.
        let ro = PipelineOptions {
            pulse_db: Some(path.clone()),
            store_options: paqoc_store::StoreOptions {
                read_only: true,
                ..paqoc_store::StoreOptions::default()
            },
            ..PipelineOptions::m0()
        };
        let mut source = AnalyticModel::new();
        let r = try_compile(&qaoa_like(), &device, &mut source, &ro).expect("compile");
        assert!(
            r.degradations.iter().any(
                |d| matches!(d, Degradation::StoreReadOnly { reason } if reason == "requested")
            ),
            "degradations: {:?}",
            r.degradations
        );
        assert!(
            r.stats.store_hits > 0,
            "a read-only handle must still serve the warm pass's pulses"
        );
    }

    #[test]
    fn backend_mismatch_fails_fast_with_a_typed_error() {
        let device = Device::grid5x5();
        let opts = PipelineOptions {
            backend: Some("heavy-hex".to_string()),
            ..PipelineOptions::m0()
        };
        let mut source = AnalyticModel::new();
        let err = try_compile(&qaoa_like(), &device, &mut source, &opts)
            .expect_err("grid device cannot satisfy a heavy-hex request");
        assert_eq!(err.kind(), "backend_mismatch");
        assert!(err.to_string().contains("heavy-hex"), "{err}");
        assert!(err.to_string().contains("transmon-grid"), "{err}");
        // The matching name compiles normally.
        let ok = PipelineOptions {
            backend: Some("transmon-grid".to_string()),
            ..PipelineOptions::m0()
        };
        assert!(try_compile(&qaoa_like(), &device, &mut source, &ok).is_ok());
        // An untagged device other than the paper grid is not the grid.
        let line = Device::line(3);
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let err = try_compile(&c, &line, &mut source, &ok)
            .expect_err("a 3-qubit line is not the transmon grid");
        assert!(
            matches!(&err, CompileError::BackendMismatch { actual, .. } if actual == "custom"),
            "{err}"
        );
    }

    #[test]
    fn held_writer_lock_degrades_compile_to_read_only() {
        let device = Device::grid5x5();
        let path = store_tmp("lock-held.pqps");
        // Another "process" (handle in this one — the flock is
        // per-open-file-description) holds the writer lock.
        let _writer =
            paqoc_store::PulseStore::open(&path, device.fingerprint()).expect("writer handle");
        let opts = PipelineOptions {
            pulse_db: Some(path.clone()),
            ..PipelineOptions::m0()
        };
        let mut source = AnalyticModel::new();
        let r = try_compile(&qaoa_like(), &device, &mut source, &opts).expect("compile");
        assert!(
            r.degradations.iter().any(
                |d| matches!(d, Degradation::StoreReadOnly { reason } if reason == "lock-held")
            ),
            "degradations: {:?}",
            r.degradations
        );
    }
}
