//! The pulse lookup table (paper Section V-B).
//!
//! Stores previously generated control pulses keyed by the *canonical*
//! form of the gate group, so a customized gate that recurs — on the
//! same qubits or permuted onto different ones — is generated exactly
//! once. Misses are delegated to the [`PulseSource`] with warm starting
//! enabled once the table has seen similar work.
//!
//! There is one pulse cache: the executor's [`SharedPulseTable`]. It
//! owns the cached pulses, the in-flight claims, the quarantine and the
//! persistent [`PulseStore`](paqoc_store::PulseStore) handle, for batch
//! and sequential compiles alike. A [`PulseTable`] is one compile's view
//! of it, holding only per-compile state: the pulses this compile
//! resolved, its [`CompileStats`], and the unitaries it warm-starts
//! from. Around the source call the cache gives:
//!
//! * **Persistence** — read-through on miss and write-behind on success
//!   make pulse reuse survive process restarts: a warm process performs
//!   zero generations for groups any earlier run already solved. The
//!   write-behind reaches the store at the end-of-compile
//!   [`SharedPulseTable::sync`].
//! * **Panic isolation** — every source invocation runs under a
//!   `catch_unwind` supervisor. A panicking optimization surfaces as
//!   the typed [`PulseGenError::SourcePanic`] instead of killing the
//!   batch; the panic aborts the retry ladder immediately (a
//!   deterministic crash must not fire once per retry) and the
//!   offending key is *quarantined* in the cache: anything later
//!   generated for it, by this compile or any other on the same cache,
//!   is returned but never cached, in memory or on disk, so a poisoned
//!   entry cannot outlive the incident.
//!
//! Every cache key — in-memory and persistent alike — is prefixed with
//! the device fingerprint ([`Device::fingerprint`]), so two devices
//! sharing a process (or a reloaded database) can never cross-contaminate
//! each other's pulses.

use paqoc_circuit::{combined_unitary, Circuit, Instruction};
use paqoc_device::{Device, PulseEstimate, PulseGenError, PulseSource};
use paqoc_exec::{panic_message, Claim, JobStatus, Provenance, PulseJob, SharedPulseTable};
use paqoc_math::{phase_aligned_distance, Matrix};
use paqoc_mining::{canonical_code, CircuitGraph};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Compile-cost accounting across a whole compilation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CompileStats {
    /// Pulses actually generated (table misses).
    pub pulses_generated: usize,
    /// Table hits (free reuses). Includes [`CompileStats::store_hits`].
    pub cache_hits: usize,
    /// The subset of hits served from the persistent pulse store rather
    /// than this process's own earlier work.
    pub store_hits: usize,
    /// Total synthetic compile cost of the misses.
    pub cost_units: f64,
    /// Failed generation attempts that were retried.
    pub retries: usize,
    /// Source panics caught by the supervisor (keys quarantined).
    pub source_panics: usize,
}

impl CompileStats {
    /// Accumulates another stats record.
    pub fn absorb(&mut self, other: CompileStats) {
        self.pulses_generated += other.pulses_generated;
        self.cache_hits += other.cache_hits;
        self.store_hits += other.store_hits;
        self.cost_units += other.cost_units;
        self.retries += other.retries;
        self.source_panics += other.source_panics;
    }
}

/// One compile's canonical-keyed view of the pulse cache.
#[derive(Debug, Default)]
pub struct PulseTable {
    /// The cache every lookup resolves through.
    cache: Arc<SharedPulseTable>,
    /// Pulses this compile resolved: the fast path ahead of the cache,
    /// and the source of [`PulseTable::dump_entries`].
    entries: HashMap<String, PulseEstimate>,
    /// Target unitaries of pulses this compile generated (≤3-qubit
    /// groups), for similarity-based warm starting of new generations.
    unitaries: Vec<Matrix>,
    stats: CompileStats,
    /// Cached `"<fingerprint>/"` prefix of the last device seen, so
    /// hot-path key builds don't re-format the fingerprint each time.
    prefix: Option<KeyPrefix>,
    /// Keys whose first sequential lookup must count nothing: a batch
    /// prefetch already accounted the generation/hit in
    /// [`PulseTable::absorb_batch`], and the sequential path would
    /// otherwise add a spurious cache hit — breaking stats parity
    /// between `threads=1` and `threads=N`. The prefetch counts a key's
    /// first touch by its provenance (generated, store or shard); the
    /// sweep's later lookup finds the key resolved and cannot tell
    /// those apart, so the mark carries that accounting across.
    fresh: HashSet<String>,
}

/// Precomputed `"<fingerprint-hex>/"` composite-key prefix for one
/// device — the fix for the historical hot-path behaviour of
/// re-formatting the fingerprint on every [`composite_key`] call.
#[derive(Clone, Debug)]
pub struct KeyPrefix {
    fingerprint: u64,
    prefix: String,
}

impl KeyPrefix {
    /// Builds the prefix for `device`.
    pub fn new(device: &Device) -> Self {
        let fingerprint = device.fingerprint();
        KeyPrefix {
            fingerprint,
            prefix: format!("{fingerprint:016x}/"),
        }
    }

    /// The fingerprint this prefix was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The full composite key for `group` on this prefix's device.
    pub fn key(&self, group: &[Instruction]) -> String {
        let code = group_key(group);
        let mut key = String::with_capacity(self.prefix.len() + code.len());
        key.push_str(&self.prefix);
        key.push_str(&code);
        key
    }
}

/// Canonical key of a gate group: the mining canonical code of the
/// group's instructions viewed as a standalone circuit, which identifies
/// structurally identical groups under qubit permutation.
pub fn group_key(group: &[Instruction]) -> String {
    let max_q = group
        .iter()
        .flat_map(|i| i.qubits().iter().copied())
        .max()
        .unwrap_or(0);
    let mut c = Circuit::new(max_q + 1);
    for inst in group {
        c.push(inst.clone());
    }
    let graph = CircuitGraph::from_circuit(&c);
    let nodes: Vec<usize> = (0..graph.len()).collect();
    canonical_code(&graph, &nodes)
}

/// The full cache key: the device fingerprint prefixed onto the
/// canonical group code. Both the in-memory table and the persistent
/// store key by this, so pulses tuned for one device configuration can
/// never be served to another.
pub fn composite_key(device: &Device, group: &[Instruction]) -> String {
    KeyPrefix::new(device).key(group)
}

/// Number of distinct qubits a group touches (its telemetry key).
fn group_arity(group: &[Instruction]) -> usize {
    group
        .iter()
        .flat_map(|i| i.qubits().iter().copied())
        .collect::<BTreeSet<_>>()
        .len()
}

impl PulseTable {
    /// Creates a table over a private cache of its own.
    pub fn new() -> Self {
        PulseTable::default()
    }

    /// Creates a table over `cache`, pooling pulses, quarantines and
    /// the store handle with every other compile on it.
    pub fn with_cache(cache: Arc<SharedPulseTable>) -> Self {
        PulseTable {
            cache,
            ..PulseTable::default()
        }
    }

    /// The cache this table resolves through.
    pub fn cache(&self) -> &Arc<SharedPulseTable> {
        &self.cache
    }

    /// Looks up or generates the pulse for a group, retrying failures.
    ///
    /// On a hit the stored estimate is returned at zero marginal cost;
    /// on a miss the most similar pulse this compile generated (by
    /// unitary distance) warm-starts the generation, so near-duplicates
    /// — the common case after customized-gate merging — converge
    /// almost for free, exactly the paper's pulse-database behaviour
    /// (Section V-B).
    ///
    /// A key this compile has not resolved yet is claimed in the cache
    /// (see [`Claim`]): a hit from a shard or the store is returned; a
    /// claim makes this compile the key's generator; a key another
    /// compile is generating right now is generated here too and
    /// published; a quarantined key is generated and returned but
    /// cached nowhere.
    ///
    /// A failed generation is retried up to `max_retries` times (each
    /// retry re-invokes the source, which re-rolls its own randomness
    /// and escalation); only *successful* estimates enter the cache, so
    /// the historical `fidelity: 0.0` convergence-failure sentinel can
    /// never be cached and replayed as a hit.
    pub fn try_pulse_for(
        &mut self,
        group: &[Instruction],
        device: &Device,
        source: &mut dyn PulseSource,
        target_fidelity: f64,
        max_retries: usize,
    ) -> Result<PulseEstimate, PulseGenError> {
        let key = self.key_for(device, group);
        if let Some(&hit) = self.entries.get(&key) {
            if self.fresh.remove(&key) {
                // First sequential touch of a batch-prefetched pulse:
                // absorb_batch already accounted it, count nothing.
                return Ok(hit);
            }
            self.stats.cache_hits += 1;
            if paqoc_telemetry::enabled() {
                paqoc_telemetry::counter(&format!("table.cache_hit.q{}", group_arity(group)), 1);
                paqoc_telemetry::event!(
                    "table.lookup",
                    hit = true,
                    arity = group_arity(group) as u64,
                    gates = group.len() as u64,
                    latency_ns = hit.latency_ns,
                );
            }
            return Ok(hit);
        }
        let claim = self.cache.claim(&key);
        if let Claim::Hit(hit, provenance) = claim {
            // Another compile on this cache, or an earlier run through
            // the persistent store, already solved this group.
            self.stats.cache_hits += 1;
            let persistent = provenance == Provenance::Store;
            if persistent {
                self.stats.store_hits += 1;
            }
            self.entries.insert(key, hit);
            if paqoc_telemetry::enabled() {
                let (counter, layer) = if persistent {
                    ("table.store_hit", "persistent")
                } else {
                    ("table.shared_hit", "shared")
                };
                paqoc_telemetry::counter(counter, 1);
                paqoc_telemetry::counter(&format!("table.cache_hit.q{}", group_arity(group)), 1);
                paqoc_telemetry::event(
                    "table.lookup",
                    &[
                        ("hit", true.into()),
                        (layer, true.into()),
                        ("arity", group_arity(group).into()),
                        ("gates", group.len().into()),
                        ("latency_ns", hit.latency_ns.into()),
                    ],
                );
            }
            return Ok(hit);
        }
        if paqoc_telemetry::enabled() {
            paqoc_telemetry::counter(&format!("table.cache_miss.q{}", group_arity(group)), 1);
        }
        // Similarity search over stored unitaries of the same dimension.
        let qubits: Vec<usize> = group
            .iter()
            .flat_map(|i| i.qubits().iter().copied())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let warm = if qubits.len() <= 3 {
            let target = combined_unitary(group, &qubits);
            let best = self
                .unitaries
                .iter()
                .filter(|u| u.rows() == target.rows())
                .map(|u| phase_aligned_distance(u, &target))
                .min_by(f64::total_cmp);
            self.unitaries.push(target);
            best
        } else {
            None
        };
        let source_name = source.name();
        let mut last_err = None;
        for attempt in 0..=max_retries {
            if attempt > 0 {
                self.stats.retries += 1;
                paqoc_telemetry::counter("grape.retries", 1);
            }
            // The supervisor: a panicking optimization must degrade,
            // not abort the batch. `AssertUnwindSafe` is sound here
            // because on unwind we never touch the source again — the
            // key is quarantined and the error propagates up the
            // degradation ladder instead.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                source.try_generate(group, device, target_fidelity, warm)
            }));
            match outcome {
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    // Releases a claim too, and keeps every compile on
                    // the cache from re-running the deterministic crash.
                    self.cache.quarantine(&key);
                    self.stats.source_panics += 1;
                    paqoc_telemetry::counter("table.source_panics", 1);
                    paqoc_telemetry::event!(
                        "table.source_panic",
                        source = source_name,
                        gates = group.len() as u64,
                        arity = group_arity(group) as u64,
                        message = message.clone(),
                    );
                    return Err(PulseGenError::SourcePanic {
                        source: source_name.to_string(),
                        message,
                    });
                }
                Ok(Ok(estimate)) => {
                    self.stats.pulses_generated += 1;
                    self.stats.cost_units += estimate.cost_units;
                    // Miss provenance: what the generation cost, and how
                    // close the warm-start seed was (Obs. 2 reuse).
                    paqoc_telemetry::event!(
                        "table.lookup",
                        hit = false,
                        arity = group_arity(group) as u64,
                        gates = group.len() as u64,
                        latency_ns = estimate.latency_ns,
                        cost_units = estimate.cost_units,
                        attempts = (attempt + 1) as u64,
                        warm_distance = warm.unwrap_or(-1.0),
                    );
                    match claim {
                        Claim::Claimed => self.cache.complete(&key, estimate),
                        Claim::InFlight => self.cache.publish(&key, estimate),
                        // Quarantined (hits returned above): a key that
                        // has ever panicked is poisoned, so serve the
                        // estimate but never cache it.
                        _ => return Ok(estimate),
                    }
                    self.entries.insert(key, estimate);
                    return Ok(estimate);
                }
                Ok(Err(e)) => last_err = Some(e),
            }
        }
        if claim == Claim::Claimed {
            self.cache.abandon(&key);
        }
        Err(last_err.unwrap_or(PulseGenError::Convergence {
            achieved: 0.0,
            target: target_fidelity,
        }))
    }

    /// Number of distinct pulses this compile resolved.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when this compile resolved no pulse yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The accumulated cost accounting.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// The composite key for `group` on `device`, served from the
    /// cached per-table [`KeyPrefix`] so the fingerprint prefix is
    /// formatted once per device, not once per lookup.
    pub fn key_for(&mut self, device: &Device, group: &[Instruction]) -> String {
        let fingerprint = device.fingerprint();
        if !matches!(&self.prefix, Some(p) if p.fingerprint() == fingerprint) {
            self.prefix = Some(KeyPrefix::new(device));
        }
        match &self.prefix {
            Some(p) => p.key(group),
            None => composite_key(device, group),
        }
    }

    /// `true` when this compile already resolved `key`.
    pub fn has_entry(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Folds a batch prefetch's final statuses (one per job, in job
    /// order) into this table, preserving exact stats parity with the
    /// sequential path: each outcome is counted once, in `CompileStats`
    /// and in the `table.cache_hit.q*`/`table.cache_miss.q*` counters,
    /// exactly as the sequential first touch of that key would have
    /// counted it, and the key is marked *fresh* so the following
    /// sequential lookup counts nothing. A panicked job's key is already
    /// quarantined in the cache by the worker that caught it.
    pub fn absorb_batch(&mut self, jobs: &[PulseJob], statuses: &[JobStatus]) {
        for (job, status) in jobs.iter().zip(statuses) {
            let (est, lookup) = match status {
                JobStatus::Generated(est) => {
                    self.stats.pulses_generated += 1;
                    self.stats.cost_units += est.cost_units;
                    (est, "miss")
                }
                JobStatus::Hit(est, provenance) => {
                    self.stats.cache_hits += 1;
                    self.stats.store_hits += usize::from(*provenance == Provenance::Store);
                    (est, "hit")
                }
                JobStatus::Panicked(_) => {
                    self.stats.source_panics += 1;
                    continue;
                }
                // Falls through to the sequential ladder, which does its
                // own accounting (retries, degradations). A key another
                // compile holds in flight is a hit there once that
                // compile finishes, and is generated and published while
                // it has not.
                JobStatus::Failed(_) | JobStatus::Skipped(_) => continue,
            };
            if paqoc_telemetry::enabled() {
                paqoc_telemetry::counter(&format!("table.cache_{lookup}.q{}", job.qubits()), 1);
            }
            self.entries.insert(job.key.clone(), *est);
            self.fresh.insert(job.key.clone());
        }
    }

    /// Deterministic dump of every pulse this compile resolved, sorted
    /// by composite key — the byte-comparable artifact the determinism tests diff
    /// across thread counts.
    pub fn dump_entries(&self) -> Vec<(String, PulseEstimate)> {
        let mut all: Vec<(String, PulseEstimate)> =
            self.entries.iter().map(|(k, v)| (k.clone(), *v)).collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::GateKind;
    use paqoc_device::AnalyticModel;

    fn inst(gate: GateKind, qubits: &[usize]) -> Instruction {
        Instruction::new(gate, qubits.to_vec(), vec![])
    }

    /// One lookup with a source that never fails.
    fn pulse(
        table: &mut PulseTable,
        group: &[Instruction],
        device: &Device,
        model: &mut AnalyticModel,
    ) -> PulseEstimate {
        table
            .try_pulse_for(group, device, model, 0.999, 0)
            .expect("the analytic model always converges")
    }

    /// Groups whose keys are pinned below: numeric and symbolic angles,
    /// control/target roles, tied parallel gates, a SWAP skeleton, a
    /// lowered Toffoli, multi-parameter gates and high qubit indices.
    fn golden_groups() -> Vec<Vec<Instruction>> {
        use paqoc_circuit::{decompose, Angle, Basis};
        let p = |gate, qubits: &[usize], params: Vec<Angle>| {
            Instruction::new(gate, qubits.to_vec(), params)
        };
        let mut toffoli = Circuit::new(3);
        toffoli.ccx(2, 0, 1);
        vec![
            vec![
                inst(GateKind::Cx, &[0, 1]),
                p(GateKind::Rz, &[1], vec![0.7.into()]),
            ],
            vec![
                inst(GateKind::Cx, &[5, 3]),
                p(GateKind::Rz, &[3], vec![Angle::sym("gamma", 0.3)]),
                inst(GateKind::Cx, &[5, 3]),
            ],
            vec![
                inst(GateKind::H, &[2]),
                inst(GateKind::H, &[7]),
                inst(GateKind::Cx, &[7, 2]),
            ],
            vec![
                inst(GateKind::Cx, &[0, 1]),
                inst(GateKind::Cx, &[1, 0]),
                inst(GateKind::Cx, &[0, 1]),
            ],
            vec![
                inst(GateKind::Ccx, &[4, 1, 9]),
                inst(GateKind::H, &[9]),
                inst(GateKind::T, &[1]),
            ],
            vec![
                p(
                    GateKind::U3,
                    &[3],
                    vec![0.1.into(), (-2.5).into(), 3.0.into()],
                ),
                p(
                    GateKind::CPhase,
                    &[3, 8],
                    vec![std::f64::consts::FRAC_PI_8.into()],
                ),
            ],
            vec![
                p(GateKind::Rzz, &[6, 2], vec![0.25.into()]),
                p(
                    GateKind::Rx,
                    &[6],
                    vec![Angle::sym("beta", 1.0).scaled(0.5)],
                ),
                inst(GateKind::Sx, &[2]),
            ],
            vec![
                inst(GateKind::Swap, &[1, 2]),
                inst(GateKind::Cz, &[2, 0]),
                inst(GateKind::X, &[0]),
            ],
            decompose(&toffoli, Basis::Extended).instructions().to_vec(),
            vec![
                p(GateKind::Rz, &[11], vec![Angle::sym("\u{3b3}", 0.2)]),
                inst(GateKind::H, &[11]),
            ],
            vec![inst(GateKind::Tdg, &[24])],
        ]
    }

    #[test]
    fn group_keys_are_pinned() {
        // The pulse table and the persistent store key by these strings:
        // a changed byte would silently turn every warm store cold.
        let golden = [
            "cx(0,1);rz(0.7000)(1)",
            "cx(0,1);rz(gamma)(1);cx(0,1)",
            "h(0);h(1);cx(0,1)",
            "cx(0,1);cx(1,0);cx(0,1)",
            "ccx(0,1,2);h(2);t(1)",
            "u3(0.1000,-2.5000,3.0000)(0);cp(0.3927)(0,1)",
            "rzz(0.2500)(0,1);rx(beta*0.5)(0);sx(1)",
            "swap(0,1);cz(1,2);x(2)",
            "h(0);cx(1,0);tdg(0);cx(2,0);t(0);cx(1,0);t(1);tdg(0);cx(2,0);cx(2,1);t(0);h(0);t(2);tdg(1);cx(2,1)",
            "rz(\u{3b3})(0);h(0)",
            "tdg(0)",
        ];
        let groups = golden_groups();
        assert_eq!(groups.len(), golden.len());
        for (group, key) in groups.iter().zip(golden) {
            assert_eq!(group_key(group), key);
        }
    }

    #[test]
    fn group_key_is_permutation_invariant() {
        // CX(0,1)+RZ(1) vs CX(5,3)+RZ(3): same canonical structure.
        let a = [
            inst(GateKind::Cx, &[0, 1]),
            Instruction::new(GateKind::Rz, vec![1], vec![0.7.into()]),
        ];
        let b = [
            inst(GateKind::Cx, &[5, 3]),
            Instruction::new(GateKind::Rz, vec![3], vec![0.7.into()]),
        ];
        assert_eq!(group_key(&a), group_key(&b));
    }

    #[test]
    fn group_key_distinguishes_roles() {
        let on_target = [
            inst(GateKind::Cx, &[0, 1]),
            Instruction::new(GateKind::Rz, vec![1], vec![0.7.into()]),
        ];
        let on_control = [
            inst(GateKind::Cx, &[0, 1]),
            Instruction::new(GateKind::Rz, vec![0], vec![0.7.into()]),
        ];
        assert_ne!(group_key(&on_target), group_key(&on_control));
    }

    #[test]
    fn second_lookup_is_a_cache_hit() {
        let dev = Device::grid5x5();
        let mut table = PulseTable::new();
        let mut model = AnalyticModel::new();
        let g = [inst(GateKind::Cx, &[0, 1])];
        let first = pulse(&mut table, &g, &dev, &mut model);
        let second = pulse(&mut table, &g, &dev, &mut model);
        assert_eq!(first, second);
        let stats = table.stats();
        assert_eq!(stats.pulses_generated, 1);
        assert_eq!(stats.cache_hits, 1);
        assert!(stats.cost_units > 0.0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn permuted_group_reuses_the_pulse() {
        let dev = Device::grid5x5();
        let mut table = PulseTable::new();
        let mut model = AnalyticModel::new();
        pulse(&mut table, &[inst(GateKind::Cx, &[0, 1])], &dev, &mut model);
        pulse(&mut table, &[inst(GateKind::Cx, &[5, 6])], &dev, &mut model);
        assert_eq!(table.stats().pulses_generated, 1);
        assert_eq!(table.stats().cache_hits, 1);
    }

    #[test]
    fn stats_absorb_adds_fields() {
        let mut a = CompileStats {
            pulses_generated: 1,
            cache_hits: 2,
            store_hits: 1,
            cost_units: 3.0,
            retries: 1,
            source_panics: 1,
        };
        a.absorb(CompileStats {
            pulses_generated: 4,
            cache_hits: 5,
            store_hits: 2,
            cost_units: 6.0,
            retries: 2,
            source_panics: 3,
        });
        assert_eq!(a.pulses_generated, 5);
        assert_eq!(a.cache_hits, 7);
        assert_eq!(a.store_hits, 3);
        assert!((a.cost_units - 9.0).abs() < 1e-12);
        assert_eq!(a.retries, 3);
        assert_eq!(a.source_panics, 4);
    }

    #[test]
    fn cache_keys_separate_devices() {
        // The same canonical group on two different devices must be two
        // different cache entries: pulses depend on the control limits.
        let mut spec = *Device::grid5x5().spec();
        spec.mu_max *= 2.0;
        let fast = Device::new(Device::grid5x5().topology().clone(), spec);
        let slow = Device::grid5x5();
        let mut table = PulseTable::new();
        let mut model = AnalyticModel::new();
        let g = [inst(GateKind::Cx, &[0, 1])];
        let on_slow = pulse(&mut table, &g, &slow, &mut model);
        let on_fast = pulse(&mut table, &g, &fast, &mut model);
        assert_eq!(table.stats().pulses_generated, 2, "no cross-device hit");
        assert_eq!(table.stats().cache_hits, 0);
        assert!(
            on_fast.latency_ns < on_slow.latency_ns,
            "doubled coupler limit must shorten the pulse"
        );
        // And each device still hits its own entry.
        pulse(&mut table, &g, &slow, &mut model);
        pulse(&mut table, &g, &fast, &mut model);
        assert_eq!(table.stats().cache_hits, 2);
    }

    /// A source that panics on its first `n` calls, then recovers.
    struct PanicsFirst {
        remaining: usize,
        inner: AnalyticModel,
    }

    impl PulseSource for PanicsFirst {
        fn generate(
            &mut self,
            group: &[Instruction],
            device: &Device,
            target_fidelity: f64,
            warm_start: Option<f64>,
        ) -> PulseEstimate {
            if self.remaining > 0 {
                self.remaining -= 1;
                panic!("synthetic optimizer crash");
            }
            self.inner
                .generate(group, device, target_fidelity, warm_start)
        }

        fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64 {
            self.inner.typical_latency_ns(num_qubits, device)
        }

        fn name(&self) -> &'static str {
            "panics-first"
        }
    }

    #[test]
    fn panic_is_caught_typed_and_aborts_the_retry_ladder() {
        let dev = Device::grid5x5();
        let mut table = PulseTable::new();
        let mut source = PanicsFirst {
            remaining: 1,
            inner: AnalyticModel::new(),
        };
        let g = [inst(GateKind::Cx, &[0, 1])];
        // Plenty of retries available — the panic must consume none.
        let err = table
            .try_pulse_for(&g, &dev, &mut source, 0.999, 5)
            .expect_err("first call panics");
        match err {
            PulseGenError::SourcePanic { source, message } => {
                assert_eq!(source, "panics-first");
                assert_eq!(message, "synthetic optimizer crash");
            }
            other => panic!("expected SourcePanic, got {other:?}"),
        }
        assert_eq!(table.stats().retries, 0, "no retry after a panic");
        assert_eq!(table.stats().source_panics, 1);
        assert!(table.cache().is_quarantined(&composite_key(&dev, &g)));
    }

    #[test]
    fn quarantined_key_is_served_but_never_cached() {
        let dev = Device::grid5x5();
        let mut table = PulseTable::new();
        let mut source = PanicsFirst {
            remaining: 1,
            inner: AnalyticModel::new(),
        };
        let g = [inst(GateKind::Cx, &[0, 1])];
        assert!(table
            .try_pulse_for(&g, &dev, &mut source, 0.999, 0)
            .is_err());
        // The source has recovered; the estimate is served…
        let est = table
            .try_pulse_for(&g, &dev, &mut source, 0.999, 0)
            .expect("source recovered");
        assert!(est.fidelity > 0.0);
        // …but the poisoned key never enters the cache.
        assert_eq!(table.len(), 0);
        assert!(table.cache().is_empty());
        let again = table
            .try_pulse_for(&g, &dev, &mut source, 0.999, 0)
            .expect("regenerates");
        assert_eq!(est, again);
        assert_eq!(table.stats().cache_hits, 0);
        assert_eq!(table.stats().pulses_generated, 2);
    }

    #[test]
    fn key_in_flight_elsewhere_is_generated_here_and_published() {
        let dev = Device::grid5x5();
        let g = [inst(GateKind::Cx, &[0, 1])];
        let key = composite_key(&dev, &g);
        let cache = Arc::new(SharedPulseTable::new());
        // Another compile on the cache holds the claim.
        assert_eq!(cache.claim(&key), Claim::Claimed);
        let mut table = PulseTable::with_cache(cache.clone());
        let est = pulse(&mut table, &g, &dev, &mut AnalyticModel::new());
        assert_eq!(table.stats().pulses_generated, 1);
        assert_eq!(cache.get(&key), Some(est));
    }

    #[test]
    fn store_round_trip_warm_starts_a_fresh_table() {
        let dir = std::env::temp_dir().join(format!("paqoc-table-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("table_roundtrip.pqps");
        let _ = std::fs::remove_file(&path);
        let dev = Device::grid5x5();
        let g = [inst(GateKind::Cx, &[0, 1])];
        let cold = {
            let mut table = PulseTable::new();
            table.cache().attach_store(
                paqoc_store::PulseStore::open(&path, dev.fingerprint()).expect("open"),
            );
            let mut model = AnalyticModel::new();
            let est = pulse(&mut table, &g, &dev, &mut model);
            assert_eq!(table.stats().pulses_generated, 1);
            assert_eq!(table.cache().sync().expect("sync"), 1);
            est
        };
        // A brand-new table (new process, conceptually) backed by the
        // same file serves the pulse without generating.
        let mut table = PulseTable::new();
        table
            .cache()
            .attach_store(paqoc_store::PulseStore::open(&path, dev.fingerprint()).expect("open"));
        let mut model = AnalyticModel::new();
        let warm = pulse(&mut table, &g, &dev, &mut model);
        assert_eq!(cold, warm);
        assert_eq!(table.stats().pulses_generated, 0);
        assert_eq!(table.stats().cache_hits, 1);
        assert_eq!(table.stats().store_hits, 1);
    }
}
