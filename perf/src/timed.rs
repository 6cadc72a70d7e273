//! Pulse sources timed from outside.
//!
//! [`Timed`] wraps any [`PulseSource`] and [`TimedFactory`] any
//! [`PulseSourceFactory`]; both forward every call unchanged (so GRAPE's
//! own retry ladder in `try_generate` runs exactly as it would
//! unwrapped) and add the wall time of each generation to a shared
//! [`SourceClock`]. The pipeline cannot tell the difference, which is
//! what lets the benchmark attribute pulse-source time without any span
//! inside the program.

use paqoc_circuit::Instruction;
use paqoc_device::{Device, PulseEstimate, PulseGenError, PulseSource};
use paqoc_exec::PulseSourceFactory;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls and nanoseconds spent inside wrapped pulse sources, summed over
/// every thread that generated through them.
#[derive(Debug, Default)]
pub struct SourceClock {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl SourceClock {
    fn record(&self, started: Instant) {
        let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        // Statistics only: nothing else is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Generations recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Nanoseconds recorded so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// A pulse source whose generations are timed into a [`SourceClock`].
pub struct Timed<S: ?Sized> {
    inner: Box<S>,
    clock: Arc<SourceClock>,
}

impl<S: ?Sized> Timed<S> {
    /// Wraps `inner`, recording into `clock`.
    pub fn new(inner: Box<S>, clock: Arc<SourceClock>) -> Self {
        Timed { inner, clock }
    }
}

impl<S: PulseSource + ?Sized> PulseSource for Timed<S> {
    fn generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        let started = Instant::now();
        let est = self
            .inner
            .generate(group, device, target_fidelity, warm_start);
        self.clock.record(started);
        est
    }

    fn try_generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> Result<PulseEstimate, PulseGenError> {
        let started = Instant::now();
        let est = self
            .inner
            .try_generate(group, device, target_fidelity, warm_start);
        self.clock.record(started);
        est
    }

    fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64 {
        self.inner.typical_latency_ns(num_qubits, device)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A factory whose every product is a [`Timed`] source on one clock.
pub struct TimedFactory<F> {
    inner: F,
    clock: Arc<SourceClock>,
}

impl<F> TimedFactory<F> {
    /// Wraps `inner`, recording into `clock`.
    pub fn new(inner: F, clock: Arc<SourceClock>) -> Self {
        TimedFactory { inner, clock }
    }
}

impl<F: PulseSourceFactory> PulseSourceFactory for TimedFactory<F> {
    fn make(&self, seed: u64) -> Box<dyn PulseSource + Send> {
        Box::new(Timed::new(self.inner.make(seed), self.clock.clone()))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::GateKind;
    use paqoc_device::AnalyticModel;
    use paqoc_exec::AnalyticFactory;

    #[test]
    fn wrapping_changes_no_estimate_and_counts_every_generation() {
        let dev = Device::grid5x5();
        let cx = [Instruction::new(GateKind::Cx, vec![0, 1], vec![])];
        let clock = Arc::new(SourceClock::default());
        let mut timed = Timed::new(Box::new(AnalyticModel::new()), clock.clone());
        let mut plain = AnalyticModel::new();
        assert_eq!(
            timed.generate(&cx, &dev, 0.999, None),
            plain.generate(&cx, &dev, 0.999, None)
        );
        assert_eq!(
            timed.try_generate(&cx, &dev, 0.999, None),
            plain.try_generate(&cx, &dev, 0.999, None)
        );
        assert_eq!(timed.name(), "analytic");
        assert_eq!(clock.calls(), 2);

        let factory = TimedFactory::new(AnalyticFactory, clock.clone());
        let mut made = factory.make(7);
        made.generate(&cx, &dev, 0.999, None);
        assert_eq!(factory.name(), "analytic");
        assert_eq!(clock.calls(), 3);
    }
}
