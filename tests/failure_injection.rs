//! Failure-injection tests: the pipeline must stay correct when the
//! pulse source misbehaves — adversarial latencies that violate the
//! observations, fidelity collapses, and pathological inputs.

use std::time::Duration;

use paqoc::circuit::{Circuit, Instruction};
use paqoc::core::{try_compile, CompileError, Degradation, PipelineOptions};
use paqoc::device::{AnalyticModel, Device, FaultConfig, FaultySource, PulseEstimate, PulseSource};
use paqoc::workloads::{all_benchmarks, benchmark};

/// A pulse source that *violates Observation 1*: every multi-gate group
/// costs a large constant more than the analytic model says, so merging
/// is (almost) never beneficial once real pulses land.
struct AntiMergeSource {
    inner: AnalyticModel,
}

impl PulseSource for AntiMergeSource {
    fn generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        let mut est = self
            .inner
            .generate(group, device, target_fidelity, warm_start);
        if group.len() > 1 {
            est.latency_ns += 500.0; // merged pulses are terrible here
            est.latency_dt = device.spec().ns_to_dt(est.latency_ns);
        }
        est
    }

    fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64 {
        self.inner.typical_latency_ns(num_qubits, device)
    }

    fn name(&self) -> &'static str {
        "anti-merge"
    }
}

/// A source whose fidelity collapses on three-qubit groups.
struct LowFidelity3q {
    inner: AnalyticModel,
}

impl PulseSource for LowFidelity3q {
    fn generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        let mut est = self
            .inner
            .generate(group, device, target_fidelity, warm_start);
        let qubits: std::collections::BTreeSet<usize> = group
            .iter()
            .flat_map(|i| i.qubits().iter().copied())
            .collect();
        if qubits.len() >= 3 {
            est.fidelity = 0.5;
        }
        est
    }

    fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64 {
        self.inner.typical_latency_ns(num_qubits, device)
    }

    fn name(&self) -> &'static str {
        "lowfid3q"
    }
}

fn covered_gates(r: &paqoc::core::CompilationResult) -> usize {
    r.grouped
        .group_ids()
        .into_iter()
        .map(|id| r.grouped.group(id).instructions.len())
        .sum()
}

#[test]
fn pipeline_survives_an_observation1_violation() {
    // Even when merged pulses are adversarially slow, compilation must
    // terminate, partition the circuit exactly, and produce pulses.
    let c = (benchmark("simon").expect("exists").build)();
    let device = Device::grid5x5();
    let mut source = AntiMergeSource {
        inner: AnalyticModel::new(),
    };
    let r = try_compile(&c, &device, &mut source, &PipelineOptions::m0()).expect("compile");
    assert_eq!(covered_gates(&r), r.physical.len());
    assert!(r.latency_dt > 0);
    for id in r.grouped.group_ids() {
        assert!(r.grouped.group(id).latency_ns > 0.0);
    }
}

#[test]
fn fidelity_collapse_shows_up_in_esp_not_in_a_crash() {
    let c = (benchmark("rd32_270").expect("exists").build)();
    let device = Device::grid5x5();
    let mut bad = LowFidelity3q {
        inner: AnalyticModel::new(),
    };
    let r_bad = try_compile(&c, &device, &mut bad, &PipelineOptions::m0()).expect("compile");
    let mut good = AnalyticModel::new();
    let r_good = try_compile(&c, &device, &mut good, &PipelineOptions::m0()).expect("compile");
    assert_eq!(covered_gates(&r_bad), r_bad.physical.len());
    // If any 3-qubit customized gate exists, the bad source's ESP must
    // be visibly lower; either way it can never exceed the good ESP.
    assert!(r_bad.esp <= r_good.esp + 1e-12);
    let has_3q = r_bad
        .grouped
        .group_ids()
        .into_iter()
        .any(|id| r_bad.grouped.group(id).qubits.len() >= 3);
    if has_3q {
        assert!(
            r_bad.esp < 0.9 * r_good.esp,
            "{} vs {}",
            r_bad.esp,
            r_good.esp
        );
    }
}

#[test]
fn empty_and_single_gate_circuits_compile() {
    let device = Device::grid5x5();
    let mut source = AnalyticModel::new();
    let empty = Circuit::new(3);
    let r = try_compile(&empty, &device, &mut source, &PipelineOptions::m_inf()).expect("compile");
    assert_eq!(r.num_groups(), 0);
    assert_eq!(r.latency_dt, 0);
    assert!((r.esp - 1.0).abs() < 1e-12);

    let mut one = Circuit::new(2);
    one.cx(0, 1);
    let r1 = try_compile(&one, &device, &mut source, &PipelineOptions::m0()).expect("compile");
    assert_eq!(r1.num_groups(), 1);
    assert!(r1.latency_dt > 0);
}

#[test]
fn single_qubit_only_circuit_compiles() {
    // bb84 has no 2-qubit gates at all: no couplers ever enter play.
    let c = (benchmark("bb84").expect("exists").build)();
    let device = Device::grid5x5();
    let mut source = AnalyticModel::new();
    let r = try_compile(&c, &device, &mut source, &PipelineOptions::m_tuned()).expect("compile");
    assert_eq!(covered_gates(&r), r.physical.len());
    assert!(r.esp > 0.99);
}

/// A source that never produces a usable pulse: every call reports a
/// collapsed fidelity, so retries, rollback, and estimator fallback are
/// all forced to run.
struct AlwaysFailSource {
    inner: AnalyticModel,
}

impl PulseSource for AlwaysFailSource {
    fn generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        let mut est = self
            .inner
            .generate(group, device, target_fidelity, warm_start);
        est.fidelity = 0.0;
        est
    }

    fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64 {
        self.inner.typical_latency_ns(num_qubits, device)
    }

    fn name(&self) -> &'static str {
        "always-fail"
    }
}

/// Compiles with a clean analytic source and the generator disabled:
/// the no-merge (decomposed) latency every degraded result must beat or
/// match.
fn decomposed_baseline_latency(c: &Circuit, device: &Device) -> u64 {
    let mut clean = AnalyticModel::new();
    let opts = PipelineOptions {
        enable_generator: false,
        ..PipelineOptions::m0()
    };
    try_compile(c, device, &mut clean, &opts)
        .expect("compile")
        .latency_dt
}

#[test]
fn convergence_storm_degrades_every_benchmark_gracefully() {
    // The ISSUE's headline acceptance test: a seeded 30%
    // convergence-failure rate across all seventeen benchmarks must
    // never panic, always return Ok, and never end up slower than the
    // decomposed no-merge baseline (degradation rolls merges back, it
    // does not invent latency).
    let device = Device::grid5x5();
    let opts = PipelineOptions::m0();
    paqoc::telemetry::set_enabled(true);
    let before = paqoc::telemetry::snapshot();
    for (i, b) in all_benchmarks().iter().enumerate() {
        let c = (b.build)();
        let baseline = decomposed_baseline_latency(&c, &device);
        let mut faulty = FaultySource::new(
            AnalyticModel::new(),
            FaultConfig::convergence_storm(0xFA17 + i as u64, 0.3),
        );
        let r = try_compile(&c, &device, &mut faulty, &opts)
            .unwrap_or_else(|e| panic!("{} failed under convergence storm: {e}", b.name));
        assert_eq!(covered_gates(&r), r.physical.len(), "{}", b.name);
        assert!(
            r.latency_dt <= baseline,
            "{}: {} > {}",
            b.name,
            r.latency_dt,
            baseline
        );
        assert!(r.esp.is_finite() && r.esp >= 0.0, "{}", b.name);
    }
    let after = paqoc::telemetry::snapshot();
    let delta = |name: &str| {
        after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    };
    assert!(delta("grape.retries") > 0, "no retries recorded");
    assert!(delta("generator.fallbacks") > 0, "no fallbacks recorded");
}

#[test]
fn nan_storm_degrades_instead_of_poisoning_the_result() {
    let c = (benchmark("simon").expect("exists").build)();
    let device = Device::grid5x5();
    let mut faulty = FaultySource::new(AnalyticModel::new(), FaultConfig::nan_storm(7, 0.3));
    let r = try_compile(&c, &device, &mut faulty, &PipelineOptions::m0())
        .expect("NaN injection must degrade, not fail");
    assert_eq!(covered_gates(&r), r.physical.len());
    assert!(r.esp.is_finite());
    assert!(r.latency_dt > 0);
    for id in r.grouped.group_ids() {
        let g = r.grouped.group(id);
        assert!(g.latency_ns.is_finite() && g.fidelity.is_finite());
    }
}

#[test]
fn expired_deadline_yields_a_valid_partial_result() {
    // A deadline far shorter than full generation: the pipeline must
    // stop merging, attach what it has, and mark the result partial —
    // still a complete, no-worse-than-decomposed compilation.
    let c = (benchmark("qft").expect("exists").build)();
    let device = Device::grid5x5();
    let baseline = decomposed_baseline_latency(&c, &device);
    let mut source = AnalyticModel::new();
    let opts = PipelineOptions {
        deadline: Some(Duration::from_nanos(1)),
        ..PipelineOptions::m0()
    };
    let r = try_compile(&c, &device, &mut source, &opts).expect("partial, not an error");
    assert!(r.partial);
    // The Observation-1 preprocessing reads the deadline too: it stops
    // before its first merge, and the merge loop records the compile's
    // one deadline hit.
    assert_eq!(r.report.preprocess_merges, 0, "{:?}", r.report);
    let hits: Vec<&Degradation> = r
        .degradations
        .iter()
        .filter(|d| matches!(d, Degradation::DeadlineHit { .. }))
        .collect();
    assert_eq!(hits.len(), 1, "{:?}", r.degradations);
    assert!(
        matches!(hits[0], Degradation::DeadlineHit { phase } if phase == "merge"),
        "{hits:?}"
    );
    assert_eq!(covered_gates(&r), r.physical.len());
    assert!(r.latency_dt > 0);
    assert!(r.latency_dt <= baseline, "{} > {}", r.latency_dt, baseline);
}

#[test]
fn zero_deadline_fails_fast_with_a_typed_error() {
    let c = (benchmark("bv").expect("exists").build)();
    let device = Device::grid5x5();
    let mut source = AnalyticModel::new();
    let opts = PipelineOptions {
        deadline: Some(Duration::ZERO),
        ..PipelineOptions::m0()
    };
    let err = try_compile(&c, &device, &mut source, &opts).expect_err("zero deadline");
    assert!(
        matches!(err, CompileError::DeadlineExceeded { .. }),
        "{err}"
    );
}

#[test]
fn malformed_circuits_return_typed_errors_not_panics() {
    let device = Device::grid5x5();
    let mut source = AnalyticModel::new();

    let zero_qubits = Circuit::new(0);
    let err = try_compile(&zero_qubits, &device, &mut source, &PipelineOptions::m0())
        .expect_err("zero-qubit circuit");
    assert!(matches!(err, CompileError::MalformedCircuit(_)), "{err}");

    // Wider than the 25-qubit grid: a mapping error, not a panic.
    let mut wide = Circuit::new(26);
    for q in 0..25 {
        wide.cx(q, q + 1);
    }
    let err = try_compile(&wide, &device, &mut source, &PipelineOptions::m0())
        .expect_err("26 qubits on a 25-qubit device");
    assert!(matches!(err, CompileError::Mapping(_)), "{err}");
}

/// Runs `f` on a worker thread and fails the test if it has not returned
/// within 10 s, so a hang regression fails instead of stalling the suite.
/// A hung worker cannot be joined; it ends with the test process.
fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(value) => {
            worker.join().expect("the worker exits after sending");
            value
        }
        Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
            worker
                .join()
                .expect_err("a worker that sent nothing panicked"),
        ),
        Err(RecvTimeoutError::Timeout) => panic!("did not return within 10 s"),
    }
}

#[test]
fn non_finite_angles_are_malformed_circuits_not_a_hang() {
    for value in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        // Such an angle once sent the eigensolver into an endless loop.
        let result = within_watchdog(move || {
            let mut c = Circuit::new(2);
            c.h(0).rz(0, value).cx(0, 1);
            try_compile(
                &c,
                &Device::grid5x5(),
                &mut AnalyticModel::new(),
                &PipelineOptions::m0(),
            )
            .map(|_| ())
        });
        let err = result.expect_err("a non-finite angle must be rejected");
        assert!(matches!(err, CompileError::MalformedCircuit(_)), "{err}");
        assert!(err.to_string().contains("non-finite"), "{err}");
    }
}

#[test]
fn always_failing_source_still_compiles_with_fallback_enabled() {
    // Even when no pulse ever converges, the bottom rung of the ladder
    // (estimator fallback) keeps the compilation alive.
    let c = (benchmark("rd32_270").expect("exists").build)();
    let device = Device::grid5x5();
    let mut source = AlwaysFailSource {
        inner: AnalyticModel::new(),
    };
    let baseline = decomposed_baseline_latency(&c, &device);
    let r = try_compile(&c, &device, &mut source, &PipelineOptions::m0())
        .expect("estimator fallback must keep this alive");
    assert_eq!(covered_gates(&r), r.physical.len());
    assert!(!r.degradations.is_empty());
    assert!(r.latency_dt <= baseline, "{} > {}", r.latency_dt, baseline);
}

#[test]
fn wide_circuit_on_exact_capacity_compiles() {
    // 25 qubits on the 25-qubit grid: no spare room for the mapper.
    let mut c = Circuit::new(25);
    for q in 0..25 {
        c.h(q);
    }
    for q in 0..24 {
        c.cx(q, q + 1);
    }
    let device = Device::grid5x5();
    let mut source = AnalyticModel::new();
    let r = try_compile(&c, &device, &mut source, &PipelineOptions::m0()).expect("compile");
    assert_eq!(covered_gates(&r), r.physical.len());
}
