//! Micro-benchmarks of the workspace's hot kernels, plus an end-to-end
//! compile bench per configuration (the ablation anchors).
//!
//! Hand-rolled `std::time::Instant` harness (no external bench crate in
//! this offline build): each kernel is warmed up, then timed over enough
//! iterations to fill a fixed measurement window, and the per-iteration
//! mean/min are printed. Run with `cargo bench -p paqoc-bench`.

use paqoc_accqoc::{compile_accqoc, AccqocOptions};
use paqoc_circuit::{decompose, Basis, Circuit, GateKind};
use paqoc_core::{try_compile, PipelineOptions};
use paqoc_device::{transmon_xy_controls, AnalyticModel, Device, HardwareSpec, PulseSource};
use paqoc_grape::{optimize, GrapeOptions};
use paqoc_mapping::{try_sabre_map, SabreOptions};
use paqoc_math::{expm, weyl_coordinates, Matrix, SplitMatrix, C64};
use paqoc_mining::{mine_frequent_subcircuits, MinerOptions};
use paqoc_workloads::benchmark;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` and prints per-iteration statistics.
///
/// Warm-up runs calibrate an iteration count that fills ~0.5 s, then the
/// workload is measured in batches so `Instant::now` overhead stays out
/// of the numbers.
fn bench(name: &str, mut f: impl FnMut()) {
    const WARMUP: Duration = Duration::from_millis(100);
    const MEASURE: Duration = Duration::from_millis(500);

    // Warm up and estimate the cost of one iteration.
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < WARMUP {
        f();
        warm_iters += 1;
    }
    let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

    // Measure in batches of roughly 1/10 of the window each.
    let batch = ((MEASURE.as_secs_f64() / 10.0 / per_iter).ceil() as u64).max(1);
    let mut total_iters = 0u64;
    let mut total = Duration::ZERO;
    let mut best = Duration::MAX;
    while total < MEASURE {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = t.elapsed();
        total += elapsed;
        total_iters += batch;
        best = best.min(elapsed / batch as u32);
    }
    let mean = total / total_iters as u32;
    println!(
        "{name:<28} {:>12} iters   mean {:>12?}   min {:>12?}",
        total_iters, mean, best
    );
}

/// A GRAPE step exponent `−i·2π·dt·H(α)` on the 3-qubit transmon line
/// (8 channels, dt = 0.5 ns), every amplitude at 80% of its limit: its
/// one-norm lies between 0.5 and 1, so `expm` squares once, as it does on
/// a d = 8 step whose amplitudes near their limits.
fn grape_exponent_8x8() -> Matrix {
    let controls = transmon_xy_controls(3, &[(0, 1), (1, 2)], &HardwareSpec::transmon_xy());
    let mut h = controls.drift.clone();
    for ch in &controls.channels {
        h.axpy(C64::real(0.8 * ch.max_amp), &ch.operator);
    }
    let exponent = h.scaled(C64::new(0.0, -std::f64::consts::PI));
    let norm = exponent.one_norm();
    assert!(norm > 0.5 && norm <= 1.0, "one-norm {norm}");
    exponent
}

fn bench_expm() {
    let a = grape_exponent_8x8();
    bench("expm_8x8", || {
        black_box(expm(black_box(&a)));
    });
}

fn bench_solve() {
    // The system of a Padé step: (I − A/2)·X = I + A/2.
    let half = grape_exponent_8x8().scaled(C64::real(0.5));
    let identity = Matrix::identity(8);
    let lhs = SplitMatrix::from(&(&identity - &half));
    let rhs = SplitMatrix::from(&(&identity + &half));
    let (mut x, mut lu) = (SplitMatrix::zeros(8), SplitMatrix::zeros(8));
    bench("solve_8x8", || {
        black_box(black_box(&lhs).solve_into(black_box(&rhs), &mut x, &mut lu));
    });
}

/// The d = 8 product in both storage layouts, on a dense step
/// propagator: `Matrix` (interleaved `C64`) and `SplitMatrix`.
fn bench_matmul() {
    let u = expm(&grape_exponent_8x8());
    let mut out = Matrix::zeros(8, 8);
    bench("matmul_8x8/interleaved", || {
        black_box(&u).matmul_into(black_box(&u), &mut out);
    });
    let split = SplitMatrix::from(&u);
    let mut split_out = SplitMatrix::zeros(8);
    bench("matmul_8x8/split", || {
        black_box(&split).matmul_into(black_box(&split), &mut split_out);
    });
}

fn bench_weyl() {
    let u = paqoc_math::random_unitary_seeded(4, 42);
    bench("weyl_coordinates_4x4", || {
        black_box(weyl_coordinates(black_box(&u)));
    });
}

fn bench_grape_iteration() {
    let controls = transmon_xy_controls(1, &[], &HardwareSpec::transmon_xy());
    let target = GateKind::H.unitary(&[]);
    let opts = GrapeOptions {
        max_iters: 10,
        restarts: 1,
        target_fidelity: 1.1, // never met: measures 10 raw iterations
        ..GrapeOptions::default()
    };
    bench("grape_10_iterations_1q", || {
        black_box(optimize(black_box(&target), &controls, 12, &opts, None));
    });
    // What `grape-small` spends most of its time on: d = 8, 8 channels.
    let controls = transmon_xy_controls(3, &[(0, 1), (1, 2)], &HardwareSpec::transmon_xy());
    let target = paqoc_math::random_unitary_seeded(8, 42);
    bench("grape_10_iterations_3q", || {
        black_box(optimize(black_box(&target), &controls, 55, &opts, None));
    });
}

fn bench_analytic_model() {
    let device = Device::grid5x5();
    let mut model = AnalyticModel::new();
    let mut circ = Circuit::new(3);
    circ.h(0).cx(0, 1).rz(1, 0.4).cx(1, 2).cx(0, 1);
    let group = circ.instructions().to_vec();
    bench("analytic_model_3q_group", || {
        black_box(model.generate(black_box(&group), &device, 0.999, None));
    });
}

fn bench_sabre() {
    let qaoa = (benchmark("qaoa").expect("exists").build)();
    let lowered = decompose(&qaoa, Basis::Extended);
    let device = Device::grid5x5();
    bench("sabre_qaoa_10q", || {
        black_box(
            try_sabre_map(
                black_box(&lowered),
                device.topology(),
                &SabreOptions::default(),
            )
            .expect("routable"),
        );
    });
}

fn bench_miner() {
    let simon = (benchmark("simon").expect("exists").build)();
    let lowered = decompose(&simon, Basis::Extended);
    bench("miner_simon", || {
        black_box(mine_frequent_subcircuits(
            black_box(&lowered),
            &MinerOptions::default(),
        ));
    });
}

fn bench_compile_configs() {
    let device = Device::grid5x5();
    let circ = (benchmark("rd32_270").expect("exists").build)();
    bench("compile_rd32/paqoc_m0", || {
        let mut src = AnalyticModel::new();
        black_box(
            try_compile(black_box(&circ), &device, &mut src, &PipelineOptions::m0())
                .expect("compile"),
        );
    });
    bench("compile_rd32/paqoc_minf", || {
        let mut src = AnalyticModel::new();
        black_box(
            try_compile(
                black_box(&circ),
                &device,
                &mut src,
                &PipelineOptions::m_inf(),
            )
            .expect("compile"),
        );
    });
    bench("compile_rd32/accqoc_n3d3", || {
        let mut src = AnalyticModel::new();
        black_box(compile_accqoc(
            black_box(&circ),
            &device,
            &mut src,
            &AccqocOptions::n3d3(),
        ));
    });
}

fn main() {
    println!("kernel micro-benchmarks (Instant harness, 0.5 s window each)");
    bench_expm();
    bench_matmul();
    bench_solve();
    bench_weyl();
    bench_grape_iteration();
    bench_analytic_model();
    bench_sabre();
    bench_miner();
    bench_compile_configs();
}
