//! [`GrapeSource`]: the real-numerics implementation of [`PulseSource`].
//!
//! Wraps the optimizer and the minimum-duration search behind the same
//! interface as the analytic model, adding the paper's two compile-time
//! accelerations: an exact pulse cache (identical customized gates are
//! generated once) and similarity-based warm starting (a previously
//! generated pulse whose unitary is close to the new target seeds the
//! optimizer, à la AccQOC).

use crate::duration::minimize_duration;
use crate::optimizer::{GrapeOptions, Pulse};
use paqoc_circuit::{combined_unitary, Instruction};
use paqoc_device::{AnalyticModel, Device, PulseEstimate, PulseGenError, PulseSource};
use paqoc_math::{phase_aligned_distance, Matrix};
use std::collections::BTreeSet;
use std::collections::HashMap;

/// A cached generated pulse and its realized quality.
#[derive(Clone, Debug)]
struct CacheEntry {
    target: Matrix,
    pulse: Pulse,
    estimate: PulseEstimate,
}

/// Pulse generation through real GRAPE optimization.
///
/// # Unwind safety
///
/// The pulse table runs every source call under a `catch_unwind`
/// supervisor, so this type must stay consistent if an optimization
/// panics mid-call (the `optimize` dimension/steps asserts, or any
/// numerical bug below them). The audit invariants:
///
/// * the pulse cache is only inserted into *after* a fully successful
///   duration search — an unwind can never leave a partial or invalid
///   cache entry behind;
/// * `prior` ([`AnalyticModel`]) and `opts` are never mutated by
///   `generate`/`try_generate`, so there is no torn intermediate state;
/// * telemetry counters incremented before an unwind (`grape.retries`,
///   `grape.cache_misses`) merely over-count attempts, which is the
///   correct reading — the attempt did happen.
///
/// Keep it that way: any future mutable state added here must be
/// written only on the success path (or be idempotent), or the
/// supervisor's quarantine guarantee breaks.
///
/// # Examples
///
/// ```
/// use paqoc_grape::GrapeSource;
/// use paqoc_device::{Device, PulseSource};
/// use paqoc_circuit::{GateKind, Instruction};
///
/// let dev = Device::line(2);
/// let mut src = GrapeSource::fast();
/// let x = Instruction::new(GateKind::X, vec![0], vec![]);
/// let pulse = src.generate(&[x], &dev, 0.99, None);
/// assert!(pulse.fidelity >= 0.99);
/// ```
#[derive(Debug)]
pub struct GrapeSource {
    opts: GrapeOptions,
    prior: AnalyticModel,
    cache: HashMap<String, CacheEntry>,
    /// Unitary distance below which a cached pulse seeds the optimizer.
    similarity_threshold: f64,
    /// Extra escalated attempts after a failed duration search.
    max_retries: usize,
}

impl Default for GrapeSource {
    fn default() -> Self {
        GrapeSource::new(GrapeOptions::default())
    }
}

/// Builds fresh per-job [`GrapeSource`]s for the parallel executor.
///
/// Each [`make`](paqoc_exec::PulseSourceFactory::make) call returns a
/// new source whose RNG seed is `opts.seed ^ seed` — the executor
/// passes [`paqoc_exec::job_seed`] of the job's composite key, so a
/// pulse is a pure function of `(key, group, device, options)` no
/// matter which worker runs it or in what order. The per-job source
/// starts with an empty pulse cache, deliberately: warm-starting from
/// whatever happened to finish earlier on another thread is exactly the
/// schedule dependence the determinism contract forbids.
#[derive(Clone, Debug)]
pub struct GrapeFactory {
    opts: GrapeOptions,
    max_retries: usize,
}

impl Default for GrapeFactory {
    fn default() -> Self {
        GrapeFactory::new(GrapeOptions::default())
    }
}

impl GrapeFactory {
    /// Creates a factory stamping sources with the given options.
    pub fn new(opts: GrapeOptions) -> Self {
        GrapeFactory {
            opts,
            max_retries: 2,
        }
    }

    /// A factory matching [`GrapeSource::fast`] (test/CI speed).
    pub fn fast() -> Self {
        GrapeFactory::new(GrapeOptions {
            step_ns: 0.5,
            max_iters: 250,
            restarts: 2,
            target_fidelity: 0.99,
            ..GrapeOptions::default()
        })
    }

    /// Escalated retries per source (see [`GrapeSource::with_retries`]).
    pub fn with_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }
}

impl paqoc_exec::PulseSourceFactory for GrapeFactory {
    fn make(&self, seed: u64) -> Box<dyn PulseSource + Send> {
        Box::new(
            GrapeSource::new(GrapeOptions {
                seed: self.opts.seed ^ seed,
                ..self.opts
            })
            .with_retries(self.max_retries),
        )
    }

    fn name(&self) -> &'static str {
        "grape"
    }
}

impl GrapeSource {
    /// Creates a source with the given optimizer options.
    pub fn new(opts: GrapeOptions) -> Self {
        GrapeSource {
            opts,
            prior: AnalyticModel::new(),
            cache: HashMap::new(),
            similarity_threshold: 0.6,
            max_retries: 2,
        }
    }

    /// Sets how many escalated retries follow a failed duration search
    /// before [`PulseSource::try_generate`] gives up (default 2). Each
    /// retry adds a restart, grows the iteration budget by 50% (capped
    /// at 4× the base), and perturbs the seed.
    pub fn with_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// A configuration tuned for test/CI speed: coarser steps, fewer
    /// iterations, 0.99 default target.
    pub fn fast() -> Self {
        GrapeSource::new(GrapeOptions {
            step_ns: 0.5,
            max_iters: 250,
            restarts: 2,
            target_fidelity: 0.99,
            ..GrapeOptions::default()
        })
    }

    /// Number of distinct pulses generated so far.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The cached pulse for a previously generated group, if any.
    pub fn cached_pulse(&self, group: &[Instruction]) -> Option<&Pulse> {
        let qubits = group_qubits(group);
        let key = signature(group, &qubits);
        self.cache.get(&key).map(|e| &e.pulse)
    }

    /// Finds the most similar cached pulse for warm starting.
    fn similar_pulse(&self, target: &Matrix, num_channels: usize) -> Option<&Pulse> {
        self.cache
            .values()
            .filter(|e| {
                e.target.rows() == target.rows() && e.pulse.channel_names.len() == num_channels
            })
            .map(|e| (phase_aligned_distance(&e.target, target), e))
            .filter(|(d, _)| *d < self.similarity_threshold)
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, e)| &e.pulse)
    }
}

/// Sorted unique qubits of a group.
fn group_qubits(group: &[Instruction]) -> Vec<usize> {
    let set: BTreeSet<usize> = group
        .iter()
        .flat_map(|i| i.qubits().iter().copied())
        .collect();
    set.into_iter().collect()
}

/// Relative-frame structural signature of a group (cache key).
fn signature(group: &[Instruction], qubits: &[usize]) -> String {
    let local = |q: usize| qubits.iter().position(|&p| p == q).unwrap_or(usize::MAX);
    group
        .iter()
        .map(|inst| {
            let qs: Vec<String> = inst
                .qubits()
                .iter()
                .map(|&q| local(q).to_string())
                .collect();
            format!("{}:{}", inst.label(), qs.join(","))
        })
        .collect::<Vec<_>>()
        .join(";")
}

impl PulseSource for GrapeSource {
    /// Legacy infallible entry: runs the same degradation ladder as
    /// [`PulseSource::try_generate`] and, only if every escalated
    /// attempt fails, reports the step-cap sentinel (`fidelity: 0.0`,
    /// latency at the cap) so direct callers can see and reject the
    /// candidate. Pipeline code should prefer `try_generate`, which
    /// surfaces the failure as a typed error instead.
    fn generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        match self.try_generate(group, device, target_fidelity, warm_start) {
            Ok(est) => est,
            Err(_) => {
                let qubits = group_qubits(group);
                let d = device.controls_for(&qubits).dim() as f64;
                let latency_ns = 1024.0 * self.opts.step_ns;
                PulseEstimate {
                    latency_ns,
                    latency_dt: device.spec().ns_to_dt(latency_ns),
                    fidelity: 0.0,
                    cost_units: 1024.0 * self.opts.max_iters as f64 * d.powi(3) / 1.0e6,
                }
            }
        }
    }

    /// The degradation ladder's first rung: on a failed duration search,
    /// retry with one more restart, a 50%-larger iteration budget
    /// (bounded at 4× the base), and a perturbed seed — GRAPE failures
    /// are often basin-of-attraction accidents that a fresh start
    /// escapes. Successful estimates are cached; failures never are.
    fn try_generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> Result<PulseEstimate, PulseGenError> {
        let qubits = group_qubits(group);
        let key = signature(group, &qubits);
        if let Some(entry) = self.cache.get(&key) {
            // Identical customized gate: reuse at zero cost.
            paqoc_telemetry::counter("grape.cache_hits", 1);
            let mut est = entry.estimate;
            est.cost_units = 0.0;
            return Ok(est);
        }
        paqoc_telemetry::counter("grape.cache_misses", 1);

        let target = combined_unitary(group, &qubits);
        let controls = device.controls_for(&qubits);

        let prior_ns = self
            .prior
            .generate(group, device, target_fidelity, None)
            .latency_ns;
        let initial_steps = ((prior_ns / self.opts.step_ns).ceil() as usize).max(2);

        let seed_pulse = if warm_start.is_some() {
            self.similar_pulse(&target, controls.channels.len())
                .cloned()
        } else {
            None
        };
        if seed_pulse.is_some() {
            paqoc_telemetry::counter("grape.warm_starts", 1);
        }

        let d = controls.dim() as f64;
        for attempt in 0..=self.max_retries {
            if attempt > 0 {
                paqoc_telemetry::counter("grape.retries", 1);
            }
            let escalated = (self.opts.max_iters as f64 * (1.0 + 0.5 * attempt as f64)) as usize;
            let opts = GrapeOptions {
                target_fidelity,
                restarts: self.opts.restarts + attempt,
                max_iters: escalated.min(self.opts.max_iters * 4),
                seed: self
                    .opts
                    .seed
                    .wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..self.opts
            };
            if let Some(search) = minimize_duration(
                &target,
                &controls,
                &opts,
                initial_steps,
                seed_pulse.as_ref(),
            ) {
                let latency_ns = search.result.pulse.duration_ns();
                let estimate = PulseEstimate {
                    latency_ns,
                    latency_dt: device.spec().ns_to_dt(latency_ns),
                    fidelity: search.result.fidelity,
                    cost_units: search.total_iterations as f64 * search.steps as f64 * d.powi(3)
                        / 1.0e6,
                };
                // Per-call convergence summary: how hard this gate was.
                paqoc_telemetry::event!(
                    "grape.call",
                    gates = group.len() as u64,
                    qubits = qubits.len() as u64,
                    attempts = (attempt + 1) as u64,
                    iterations = search.total_iterations as u64,
                    steps = search.steps as u64,
                    fidelity = search.result.fidelity,
                    latency_ns = latency_ns,
                    warm_started = seed_pulse.is_some(),
                );
                self.cache.insert(
                    key,
                    CacheEntry {
                        target,
                        pulse: search.result.pulse,
                        estimate,
                    },
                );
                return Ok(estimate);
            }
            paqoc_telemetry::counter("grape.duration_search_failures", 1);
        }
        Err(PulseGenError::Convergence {
            achieved: 0.0,
            target: target_fidelity,
        })
    }

    fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64 {
        self.prior.typical_latency_ns(num_qubits, device)
    }

    fn name(&self) -> &'static str {
        "grape"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::GateKind;

    fn inst(gate: GateKind, qubits: &[usize]) -> Instruction {
        Instruction::new(gate, qubits.to_vec(), vec![])
    }

    #[test]
    fn generates_single_qubit_pulse() {
        let dev = Device::line(2);
        let mut src = GrapeSource::fast();
        let e = src.generate(&[inst(GateKind::H, &[0])], &dev, 0.99, None);
        assert!(e.fidelity >= 0.99, "{e:?}");
        assert!(e.latency_dt > 0);
        assert!(e.cost_units > 0.0);
    }

    #[test]
    fn cache_hit_costs_nothing() {
        let dev = Device::line(2);
        let mut src = GrapeSource::fast();
        let g = [inst(GateKind::H, &[0])];
        let first = src.generate(&g, &dev, 0.99, None);
        let second = src.generate(&g, &dev, 0.99, None);
        assert!(first.cost_units > 0.0);
        assert_eq!(second.cost_units, 0.0);
        assert_eq!(first.latency_dt, second.latency_dt);
        assert_eq!(src.cache_len(), 1);
    }

    #[test]
    fn permuted_qubits_share_a_cache_entry() {
        // H on qubit 0 and H on qubit 1 are the same relative pulse.
        let dev = Device::line(2);
        let mut src = GrapeSource::fast();
        let a = src.generate(&[inst(GateKind::H, &[0])], &dev, 0.99, None);
        let b = src.generate(&[inst(GateKind::H, &[1])], &dev, 0.99, None);
        assert_eq!(src.cache_len(), 1);
        assert_eq!(b.cost_units, 0.0);
        assert_eq!(a.latency_dt, b.latency_dt);
    }

    #[test]
    fn merged_pair_beats_stitched_pulses() {
        // The headline claim (Fig. 2): pulse(H·CX) < pulse(H) + pulse(CX).
        let dev = Device::line(2);
        let mut src = GrapeSource::fast();
        let h = inst(GateKind::H, &[0]);
        let cx = inst(GateKind::Cx, &[0, 1]);
        let merged = src.generate(&[h.clone(), cx.clone()], &dev, 0.99, None);
        let h_alone = src.generate(&[h], &dev, 0.99, None);
        let cx_alone = src.generate(&[cx], &dev, 0.99, None);
        assert!(
            merged.latency_ns < h_alone.latency_ns + cx_alone.latency_ns,
            "merged {} vs stitched {}",
            merged.latency_ns,
            h_alone.latency_ns + cx_alone.latency_ns
        );
    }

    #[test]
    fn warm_start_reduces_cost_for_similar_targets() {
        let dev = Device::line(2);
        let mut src = GrapeSource::fast();
        // Generate RZ(0.50), then RZ(0.55) warm: the second should reuse.
        let a = Instruction::new(GateKind::Rz, vec![0], vec![0.5.into()]);
        let b = Instruction::new(GateKind::Rz, vec![0], vec![0.55.into()]);
        let cold = src.generate(&[a], &dev, 0.99, None);
        let warm = src.generate(&[b], &dev, 0.99, Some(0.05));
        assert!(
            warm.cost_units < cold.cost_units,
            "warm {} vs cold {}",
            warm.cost_units,
            cold.cost_units
        );
    }
}
