//! The kernel-probe overhead gate.
//!
//! Compiles three small Table-I programs in-process twice — once with
//! kernel probes forced OFF, once forced ON (telemetry collection
//! stays off in both, the realistic production configuration) — and
//! fails when the probes-on run is more than `--max-overhead` slower
//! (default 3%). Each side takes the minimum wall time over `--rounds`
//! interleaved repetitions, which suppresses one-off scheduler noise;
//! a small absolute grace floor keeps the gate meaningful on runs too
//! short for a relative bound. `scripts/verify.sh` runs this gate after
//! the test suite.
//!
//! Exit code: 0 when the overhead is within budget, 1 when it is not.

use paqoc_core::{try_compile, PipelineOptions};
use paqoc_device::{AnalyticModel, Device};
use paqoc_workloads::benchmark;
use std::time::Instant;

/// The three fastest Table-I entries.
const QUICK_SUBSET: [&str; 3] = ["mod5d2_64", "rd32_270", "bv"];

/// Absolute grace floor: below this delta the run is dominated by
/// timer and scheduler noise, not by the probes.
const GRACE_SECONDS: f64 = 0.1;

/// One pass over the quick subset with fresh sources and tables;
/// returns its wall time in seconds.
fn suite_wall(device: &Device, opts: &PipelineOptions) -> f64 {
    let start = Instant::now();
    for name in QUICK_SUBSET {
        let b = benchmark(name).expect("quick-subset benchmark exists");
        let circuit = (b.build)();
        let mut source = AnalyticModel::new();
        let result = try_compile(&circuit, device, &mut source, opts).expect("compile");
        std::hint::black_box(result.latency_dt);
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let mut max_overhead = 0.03f64;
    let mut rounds = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--max-overhead" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(x) if x > 0.0 => max_overhead = x,
                _ => usage(),
            },
            "--rounds" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => rounds = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }

    let device = Device::grid5x5();
    let opts = PipelineOptions::m_inf();

    // Warm-up pass: page everything in before timing either side.
    paqoc_telemetry::set_kernel_probes(Some(false));
    suite_wall(&device, &opts);

    // Interleave off/on rounds so slow drift (thermal, background
    // load) hits both sides equally; keep the per-side minimum.
    let mut off_min = f64::INFINITY;
    let mut on_min = f64::INFINITY;
    for _ in 0..rounds {
        paqoc_telemetry::set_kernel_probes(Some(false));
        off_min = off_min.min(suite_wall(&device, &opts));
        paqoc_telemetry::set_kernel_probes(Some(true));
        on_min = on_min.min(suite_wall(&device, &opts));
        // Drop the accumulated probe state between rounds so the store
        // never grows across the measurement.
        paqoc_telemetry::reset();
    }
    paqoc_telemetry::set_kernel_probes(None);

    let overhead = if off_min > 0.0 {
        (on_min - off_min) / off_min
    } else {
        0.0
    };
    let budget = off_min * (1.0 + max_overhead) + GRACE_SECONDS;
    println!(
        "probe_overhead: quick suite min-of-{rounds}: probes off {off_min:.3}s, \
         on {on_min:.3}s ({:+.2}% — budget {:.0}% + {GRACE_SECONDS:.1}s grace)",
        overhead * 100.0,
        max_overhead * 100.0
    );
    if on_min <= budget {
        println!("probe_overhead: OK (within budget)");
    } else {
        eprintln!("probe_overhead: FAIL: probes-on wall {on_min:.3}s exceeds budget {budget:.3}s");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!("usage: probe_overhead [--max-overhead X] [--rounds N]");
    std::process::exit(2);
}
