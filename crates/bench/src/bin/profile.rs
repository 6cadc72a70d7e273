//! Prints a telemetry profile of one end-to-end compilation: the span
//! tree with per-phase wall time, the pipeline counter table (merge
//! candidates pruned, APA rejections, GRAPE iterations, …) and the
//! pulse-table cache hit rate.
//!
//! Usage: `profile [benchmark] [config] [--batch] [--grape]` where
//! `benchmark` is a Table-I name (default `qaoa`) and `config` is `m0`,
//! `tuned` or `minf` (default `minf`). `--batch` compiles through
//! [`try_compile_batch`] — the parallel executor path — so the
//! trace additionally carries the `exec.job` / `exec.worker` journal
//! events for `report jobs` and `report workers`. `--grape`
//! swaps the free analytic pulse source for the real GRAPE optimizer
//! (its fast test profile), which drives the `mathkit.*` /
//! `grape.*` kernel probes hard — the configuration `report hotspots`
//! and `report flame` are made for. With
//! `PAQOC_TRACE=<path>.json` the trace is dumped
//! in Chrome trace-event format (open in Perfetto / `chrome://tracing`);
//! any other `PAQOC_TRACE=<path>` dumps raw JSON Lines. With
//! `PAQOC_METRICS_MS=<interval>` the flight recorder samples gauges and
//! process CPU/RSS into the journal at that cadence — Perfetto renders
//! them as counter timelines, and `report jobs|phases|workers` digests
//! the same dump offline. For end-to-end and per-layer numbers over
//! whole workloads, run the `paqoc-perf` benchmark (`perf/README.md`).

use paqoc_core::{try_compile, try_compile_batch, PipelineOptions};
use paqoc_device::{AnalyticModel, Device};
use paqoc_exec::{AnalyticFactory, PulseSourceFactory};
use paqoc_grape::{GrapeFactory, GrapeSource};
use paqoc_workloads::{all_benchmarks, benchmark};
use std::io::{BufWriter, ErrorKind, Write};
use std::sync::Arc;

fn main() {
    let mut batch = false;
    let mut grape = false;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--batch" {
            batch = true;
        } else if arg == "--grape" {
            grape = true;
        } else {
            positional.push(arg);
        }
    }
    let mut args = positional.into_iter();
    let bench_name = args.next().unwrap_or_else(|| "qaoa".to_string());
    let config = args.next().unwrap_or_else(|| "minf".to_string());

    let Some(b) = benchmark(&bench_name) else {
        eprintln!("unknown benchmark '{bench_name}'; available:");
        for b in all_benchmarks() {
            eprintln!("  {}", b.name);
        }
        std::process::exit(1);
    };
    let opts = match config.as_str() {
        "m0" => PipelineOptions::m0(),
        "tuned" => PipelineOptions::m_tuned(),
        "minf" => PipelineOptions::m_inf(),
        other => {
            eprintln!("unknown config '{other}' (expected m0, tuned or minf)");
            std::process::exit(1);
        }
    };

    paqoc_telemetry::set_enabled(true);
    paqoc_telemetry::reset();
    // Honour PAQOC_METRICS_MS: background gauge/CPU/RSS sampling into
    // the journal for the whole compilation (off unless the env is set).
    let _recorder = paqoc_exec::FlightRecorder::from_env();

    let circuit = (b.build)();
    let device = Device::grid5x5();
    let result = if batch {
        let factory: Arc<dyn PulseSourceFactory> = if grape {
            Arc::new(GrapeFactory::fast())
        } else {
            Arc::new(AnalyticFactory)
        };
        match try_compile_batch(&circuit, &device, factory, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("profile: batch compile failed: {e}");
                std::process::exit(1);
            }
        }
    } else if grape {
        let mut source = GrapeSource::fast();
        try_compile(&circuit, &device, &mut source, &opts).expect("compile")
    } else {
        let mut source = AnalyticModel::new();
        try_compile(&circuit, &device, &mut source, &opts).expect("compile")
    };

    let snap = paqoc_telemetry::snapshot();
    // Pulse-table cache hit rate across all group sizes.
    let sum_prefix = |prefix: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &v)| v)
            .sum()
    };
    let hits = sum_prefix("table.cache_hit.");
    let lookups = hits + sum_prefix("table.cache_miss.");
    let trace = paqoc_telemetry::write_env_trace();
    if let Err(e) = &trace {
        eprintln!("failed to write trace: {e}");
    }

    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let printed = (|| {
        writeln!(
            out,
            "profile: {} / paqoc({config}) — {} physical gates, {} groups, {} dt{}",
            b.name,
            result.physical.len(),
            result.num_groups(),
            result.latency_dt,
            if result.partial { " (PARTIAL)" } else { "" }
        )?;
        if !result.degradations.is_empty() {
            writeln!(out, "degradations ({}):", result.degradations.len())?;
            for d in &result.degradations {
                writeln!(out, "  - {d}")?;
            }
        }
        writeln!(out)?;
        write!(out, "{}", snap.render_report())?;
        if lookups > 0 {
            writeln!(
                out,
                "pulse-table cache: {hits}/{lookups} hits ({:.1}%)",
                100.0 * hits as f64 / lookups as f64
            )?;
        }
        if let Ok(Some(path)) = &trace {
            if path.extension().is_some_and(|e| e == "json") {
                writeln!(
                    out,
                    "trace written to {} (Chrome trace format — open in https://ui.perfetto.dev \
                     or chrome://tracing)",
                    path.display()
                )?;
            } else {
                writeln!(out, "trace written to {} (JSON Lines)", path.display())?;
            }
        }
        out.flush()
    })();
    assert_eq!(
        hits as usize, result.stats.cache_hits,
        "telemetry and CompileStats must agree on cache hits"
    );
    // A reader that stops early (`profile … | head`) closes the pipe:
    // that ends the profile quietly. Any other write error is a failure.
    if let Err(e) = printed {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("profile: cannot write the profile: {e}");
            std::process::exit(1);
        }
    }
}
