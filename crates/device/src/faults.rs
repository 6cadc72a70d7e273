//! Deterministic, seeded fault injection for pulse sources.
//!
//! Production hardening needs reproducible chaos: [`FaultySource`] wraps
//! any [`PulseSource`] and injects the failure modes a real QOC backend
//! exhibits under load — convergence failures (the GRAPE cliff AccQOC
//! and EPOC both report), NaN/Inf estimates from numerically blown-up
//! optimizations, latency spikes, and slow calls — at configurable,
//! seeded rates. Every injection is drawn from an in-tree xoshiro256**
//! stream, so a failing run replays exactly from its seed.
//!
//! Injections are visible three ways: the returned estimates themselves,
//! the [`FaultCounts`] tally on the wrapper, and telemetry counters
//! (`faults.convergence`, `faults.nan`, `faults.latency_spike`,
//! `faults.slow_call`, `faults.panic`, `faults.stall`) in the
//! `paqoc-telemetry` report.

use crate::hamiltonian::Device;
use crate::latency::{PulseEstimate, PulseSource};
use paqoc_circuit::Instruction;
use paqoc_math::Rng;
use std::time::Duration;

/// Injection rates and magnitudes for a [`FaultySource`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the injection stream (replays are exact per seed).
    pub seed: u64,
    /// Probability that a generation reports convergence failure: a
    /// zero-fidelity estimate at the duration-search cap, exactly the
    /// shape a failed GRAPE minimum-duration search produces.
    pub convergence_failure_rate: f64,
    /// Probability that a generation returns a NaN fidelity or latency
    /// (a numerically diverged optimization).
    pub nan_rate: f64,
    /// Probability that a generation's latency is multiplied by
    /// [`FaultConfig::latency_spike_factor`].
    pub latency_spike_rate: f64,
    /// Latency multiplier applied on a spike.
    pub latency_spike_factor: f64,
    /// Probability that a generation blocks for
    /// [`FaultConfig::slow_call`] of wall time before answering.
    pub slow_call_rate: f64,
    /// Stall injected on a slow call.
    pub slow_call: Duration,
    /// Probability that a generation **panics** mid-call — the crash
    /// shape of a debug assertion or index bug deep in an optimizer.
    /// Callers survive it only through the pulse table's `catch_unwind`
    /// supervisor.
    pub panic_rate: f64,
    /// Deterministic stall injected on **every** generation (zero
    /// disables it), bounded at [`STALL_CAP`]. Unlike the probabilistic
    /// [`FaultConfig::slow_call_rate`], the stall is unconditional, so
    /// executor tests get a *predictable* slow worker to race against
    /// deadlines and fast peers.
    pub stall: Duration,
}

/// Hard ceiling on [`FaultConfig::stall`]: a misconfigured fault
/// injection must slow a test down, never hang it.
pub const STALL_CAP: Duration = Duration::from_millis(500);

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA17,
            convergence_failure_rate: 0.0,
            nan_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike_factor: 10.0,
            slow_call_rate: 0.0,
            slow_call: Duration::from_millis(5),
            panic_rate: 0.0,
            stall: Duration::ZERO,
        }
    }
}

impl FaultConfig {
    /// A convergence-failure storm at the given per-call rate.
    pub fn convergence_storm(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            convergence_failure_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// A NaN-fidelity/latency storm at the given per-call rate.
    pub fn nan_storm(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            nan_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// A panic storm at the given per-call rate.
    pub fn panic_storm(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            panic_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// An unconditional per-call stall (bounded at [`STALL_CAP`]): every
    /// generation sleeps `stall` before answering. The deterministic
    /// slow-worker shape for executor deadline tests.
    pub fn stalling(stall: Duration) -> Self {
        FaultConfig {
            stall,
            ..FaultConfig::default()
        }
    }
}

/// Tally of the faults a [`FaultySource`] has injected so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Convergence failures injected.
    pub convergence_failures: u64,
    /// NaN estimates injected.
    pub nans: u64,
    /// Latency spikes injected.
    pub latency_spikes: u64,
    /// Slow calls injected.
    pub slow_calls: u64,
    /// Panics injected.
    pub panics: u64,
    /// Unconditional stalls injected ([`FaultConfig::stall`]).
    pub stalls: u64,
    /// Total generations that passed through untouched.
    pub clean_calls: u64,
}

impl FaultCounts {
    /// Total faults of any kind injected.
    pub fn total(&self) -> u64 {
        self.convergence_failures
            + self.nans
            + self.latency_spikes
            + self.slow_calls
            + self.panics
            + self.stalls
    }
}

/// A [`PulseSource`] wrapper that injects seeded faults (see the module
/// docs). Retries genuinely help against it: every call re-rolls the
/// injection stream, so a convergence failure on one attempt does not
/// imply failure on the next — mirroring GRAPE restarts from a fresh
/// random initialization.
#[derive(Debug)]
pub struct FaultySource<S> {
    inner: S,
    cfg: FaultConfig,
    rng: Rng,
    counts: FaultCounts,
}

impl<S: PulseSource> FaultySource<S> {
    /// Wraps `inner` with the given fault configuration.
    pub fn new(inner: S, cfg: FaultConfig) -> Self {
        FaultySource {
            inner,
            rng: Rng::seed_from_u64(cfg.seed),
            cfg,
            counts: FaultCounts::default(),
        }
    }

    /// The faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn roll(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.random::<f64>() < rate
    }
}

impl<S: PulseSource> PulseSource for FaultySource<S> {
    fn generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        // Draw every fault decision up front so the stream position per
        // call is fixed regardless of which faults fire.
        let slow = self.roll(self.cfg.slow_call_rate);
        let nan = self.roll(self.cfg.nan_rate);
        let converge_fail = self.roll(self.cfg.convergence_failure_rate);
        let spike = self.roll(self.cfg.latency_spike_rate);
        let panic_now = self.roll(self.cfg.panic_rate);
        let nan_in_latency = self.rng.random::<f64>() < 0.5;

        if !self.cfg.stall.is_zero() {
            self.counts.stalls += 1;
            paqoc_telemetry::counter("faults.stall", 1);
            std::thread::sleep(self.cfg.stall.min(STALL_CAP));
        }
        if slow {
            self.counts.slow_calls += 1;
            paqoc_telemetry::counter("faults.slow_call", 1);
            std::thread::sleep(self.cfg.slow_call);
        }
        if panic_now {
            // Tally *before* unwinding so the injection is observable
            // even though this call never returns normally.
            self.counts.panics += 1;
            paqoc_telemetry::counter("faults.panic", 1);
            panic!("injected pulse-source panic");
        }

        let mut est = self
            .inner
            .generate(group, device, target_fidelity, warm_start);

        if nan {
            self.counts.nans += 1;
            paqoc_telemetry::counter("faults.nan", 1);
            if nan_in_latency {
                est.latency_ns = f64::NAN;
            } else {
                est.fidelity = f64::NAN;
            }
            return est;
        }
        if converge_fail {
            self.counts.convergence_failures += 1;
            paqoc_telemetry::counter("faults.convergence", 1);
            // The exact shape of a failed GRAPE duration search: the
            // step-cap latency with zero fidelity, full cost spent.
            est.latency_ns = 1024.0 * 0.5;
            est.latency_dt = device.spec().ns_to_dt(est.latency_ns);
            est.fidelity = 0.0;
            return est;
        }
        if spike {
            self.counts.latency_spikes += 1;
            paqoc_telemetry::counter("faults.latency_spike", 1);
            est.latency_ns *= self.cfg.latency_spike_factor;
            est.latency_dt = device.spec().ns_to_dt(est.latency_ns);
            return est;
        }
        self.counts.clean_calls += 1;
        est
    }

    fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64 {
        self.inner.typical_latency_ns(num_qubits, device)
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{AnalyticModel, PulseGenError};
    use paqoc_circuit::GateKind;

    fn cx() -> [Instruction; 1] {
        [Instruction::new(GateKind::Cx, vec![0, 1], vec![])]
    }

    fn storm(rate: f64, seed: u64) -> FaultySource<AnalyticModel> {
        FaultySource::new(
            AnalyticModel::new(),
            FaultConfig::convergence_storm(seed, rate),
        )
    }

    #[test]
    fn zero_rates_are_transparent() {
        let dev = Device::grid5x5();
        let mut clean = AnalyticModel::new();
        let mut faulty = FaultySource::new(AnalyticModel::new(), FaultConfig::default());
        assert_eq!(
            clean.generate(&cx(), &dev, 0.999, None),
            faulty.generate(&cx(), &dev, 0.999, None)
        );
        assert_eq!(faulty.counts().total(), 0);
        assert_eq!(faulty.counts().clean_calls, 1);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let dev = Device::grid5x5();
        let run = |seed: u64| {
            let mut s = storm(0.4, seed);
            let ests: Vec<PulseEstimate> = (0..32)
                .map(|_| s.generate(&cx(), &dev, 0.999, None))
                .collect();
            (ests, s.counts())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).1, run(8).1);
    }

    #[test]
    fn convergence_failures_fire_at_roughly_the_configured_rate() {
        let dev = Device::grid5x5();
        let mut s = storm(0.3, 11);
        for _ in 0..500 {
            s.generate(&cx(), &dev, 0.999, None);
        }
        let rate = s.counts().convergence_failures as f64 / 500.0;
        assert!((0.2..0.4).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn try_generate_rejects_injected_nan_and_zero_fidelity() {
        let dev = Device::grid5x5();
        let mut nan = FaultySource::new(AnalyticModel::new(), FaultConfig::nan_storm(3, 1.0));
        assert!(matches!(
            nan.try_generate(&cx(), &dev, 0.999, None),
            Err(PulseGenError::InvalidEstimate { .. })
        ));
        let mut fail = storm(1.0, 3);
        assert!(matches!(
            fail.try_generate(&cx(), &dev, 0.999, None),
            Err(PulseGenError::Convergence { .. })
        ));
    }

    #[test]
    fn panic_storm_panics_and_is_counted() {
        let dev = Device::grid5x5();
        let mut s = FaultySource::new(AnalyticModel::new(), FaultConfig::panic_storm(5, 1.0));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.generate(&cx(), &dev, 0.999, None)
        }));
        let err = caught.expect_err("panic storm at rate 1.0 must panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "injected pulse-source panic");
        assert_eq!(s.counts().panics, 1);
    }

    #[test]
    fn stall_is_bounded_counted_and_result_preserving() {
        let dev = Device::grid5x5();
        let mut clean = AnalyticModel::new();
        let base = clean.generate(&cx(), &dev, 0.999, None);
        let mut s = FaultySource::new(
            AnalyticModel::new(),
            FaultConfig::stalling(Duration::from_millis(5)),
        );
        let t0 = std::time::Instant::now();
        let est = s.generate(&cx(), &dev, 0.999, None);
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(5),
            "stall not applied: {elapsed:?}"
        );
        assert_eq!(s.counts().stalls, 1);
        assert_eq!(s.counts().total(), 1);
        // A stall delays generation but must not alter the estimate itself.
        assert!((est.latency_ns - base.latency_ns).abs() < 1e-12);
        assert!((est.fidelity - base.fidelity).abs() < 1e-12);
        // Requests beyond the cap are clamped — a 1-hour stall sleeps at most STALL_CAP.
        assert_eq!(
            FaultConfig::stalling(Duration::from_secs(3600))
                .stall
                .min(STALL_CAP),
            STALL_CAP
        );
    }

    #[test]
    fn latency_spike_scales_the_estimate() {
        let dev = Device::grid5x5();
        let mut clean = AnalyticModel::new();
        let base = clean.generate(&cx(), &dev, 0.999, None);
        let mut s = FaultySource::new(
            AnalyticModel::new(),
            FaultConfig {
                latency_spike_rate: 1.0,
                latency_spike_factor: 10.0,
                ..FaultConfig::default()
            },
        );
        let spiked = s.generate(&cx(), &dev, 0.999, None);
        assert!((spiked.latency_ns - 10.0 * base.latency_ns).abs() < 1e-9);
        assert_eq!(s.counts().latency_spikes, 1);
    }
}
