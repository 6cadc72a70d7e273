//! `serve-m0`: the resident path under an open loop.
//!
//! An in-process `paqoc_serve::Server` (unix socket, default 2 workers,
//! store-backed, M=0) is warmed in set-up: one pass over the quick
//! corpus fills the store, the server drains, and a restart on the same
//! store makes every later request a warm-table compile with store
//! read-through. The timed phase then sends seeded Poisson arrivals at
//! 6 req/s — about 40% of the ~15.6 req/s closed-loop capacity on 2
//! cores, so queueing shows while the backlog stays bounded — from 2
//! tenants over 2 blocking connections. With M=0, mining and APA
//! grouping do no work; Algorithm 1 and its analytic estimator do.

use crate::load;
use crate::oracle::{self, Columns, Expected};
use crate::speed::{SpeedProbe, PERIOD};
use crate::stats::percentile;
use crate::workloads::{
    bless, peak_rss_mb, put, quality_metrics, ratio, secs_since, set_tracing, time_metrics,
    transmon_grid, Metrics, Report, RunConfig, Trace, Workload, SETUP_REPS,
};
use paqoc_core::{try_compile_batch, PipelineOptions};
use paqoc_exec::AnalyticFactory;
use paqoc_serve::client::QUICK_CORPUS;
use paqoc_serve::{
    BindAddr, Client, CompileReply, ConfigPreset, Endpoint, Request, Response, ServeOptions, Server,
};
use paqoc_store::{PulseStore, StoreOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mean arrival rate of the open loop.
const RATE_PER_S: f64 = 6.0;
/// Blocking client connections: no more than the 2-core target's cores.
const CONNECTIONS: usize = 2;
/// Tenants the requests are billed to.
const TENANTS: usize = 2;
/// Latency limit behind `serve.slo_share`, from the due time.
const SLO_MS: f64 = 1000.0;

/// Scratch space for the store and socket, next to the executable so
/// the benchmark writes only inside its build directory; removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the executable has no parent directory")?
            .join(format!("perf-work-{}", std::process::id()));
        // Socket paths are limited to ~108 bytes, so name the directory
        // relative to the working directory when it lies below it.
        let dir = std::env::current_dir()
            .and_then(|cwd| cwd.canonicalize())
            .ok()
            .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
            .unwrap_or(dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Compiles every quick-corpus program once through the server.
fn warm_pass(endpoint: &Endpoint) -> Result<(), String> {
    let mut client = Client::new(endpoint.clone(), Duration::from_secs(60));
    for (i, program) in QUICK_CORPUS.iter().enumerate() {
        let mut req = Request::compile(i as u64 + 1, "warm", program);
        req.config = ConfigPreset::M0;
        match client.call(&req) {
            Ok(Response::Ok(r)) if !r.degraded() => {}
            Ok(other) => return Err(format!("warm-up {program}: reply {}", other.status())),
            Err(e) => return Err(format!("warm-up {program}: {e}")),
        }
    }
    Ok(())
}

/// Runs `serve-m0`.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let device = transmon_grid()?;
    let work = WorkDir::create()?;
    let store = work.0.join("pulses.pqps");
    let socket = work.0.join("serve.sock");
    let opts = ServeOptions {
        addr: BindAddr::Uds(socket.clone()),
        pulse_db: Some(store.clone()),
        preset: ConfigPreset::M0,
        ..ServeOptions::default()
    };
    let endpoint = Endpoint::Uds(socket);
    let start = |opts: &ServeOptions| {
        Server::start(opts.clone()).map_err(|e| format!("starting the server: {e}"))
    };

    let mut speed = SpeedProbe::new(1);
    SpeedProbe::spin();

    // Set-up: empty store, warm pass, drain, restart on the warm store;
    // repeated, and reported as the median. The last server stays up.
    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            previous.drain();
        }
        let _ = std::fs::remove_file(&store);
        let _ = std::fs::remove_file(paqoc_store::lock_path(&store));
        let t = Instant::now();
        let first = start(&opts)?;
        let warmed = warm_pass(&endpoint);
        first.drain();
        warmed?;
        server = Some(start(&opts)?);
        setup.push(secs_since(t));
        speed.sample();
    }
    let server = server.ok_or("set-up never ran")?;
    let setup_scale = speed.scale().ok_or("no speed sample in set-up")?;

    // The store layer, read-only beside the server's writer handle.
    let mut store_layer = (0.0, 0.0);
    if cfg.trace {
        let t = Instant::now();
        let handle = PulseStore::open_with(
            &store,
            device.fingerprint(),
            StoreOptions {
                read_only: true,
                ..StoreOptions::default()
            },
        )
        .map_err(|e| format!("opening the warm store read-only: {e}"))?;
        store_layer = (secs_since(t) * 1e3, handle.len() as f64);
    }

    paqoc_telemetry::reset();
    set_tracing(cfg.trace);
    let count = (RATE_PER_S * cfg.seconds).round().max(1.0) as usize;
    let window = Duration::from_secs_f64(cfg.seconds);
    let arrivals = load::schedule(cfg.seed, count, window, &QUICK_CORPUS, TENANTS);
    // The speed reference is sampled only while no request is in flight
    // and abandoned as soon as one goes out, so a request competes with
    // at most one half-millisecond piece of it.
    let in_flight = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let done = std::thread::scope(|scope| {
        scope.spawn(|| {
            let idle = || in_flight.load(Ordering::SeqCst) == 0;
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(PERIOD);
                speed.tick(&idle);
            }
        });
        let done = load::run(&endpoint, &arrivals, CONNECTIONS, &in_flight);
        stop.store(true, Ordering::SeqCst);
        done
    });
    server.drain();
    set_tracing(false);
    let trace = cfg.trace.then(Trace::take);
    speed.tick(&|| true);

    // The oracle, after the loop and outside every timing.
    let per_gate = per_gate_schedules(&device)?;
    let mut replies: Vec<Option<&CompileReply>> = Vec::with_capacity(done.len());
    let mut request_problems: Vec<Vec<String>> = Vec::with_capacity(done.len());
    for (arrival, c) in arrivals.iter().zip(&done) {
        let program = arrival.program;
        let mut problems = Vec::new();
        let reply = match &c.reply {
            Ok(Response::Ok(r)) => {
                if r.degraded() {
                    problems.push(format!("{program}: degraded reply"));
                }
                problems.extend(oracle::check_esp(program, r.esp));
                problems.extend(oracle::check_latency(
                    program,
                    r.latency_dt,
                    per_gate[program],
                ));
                Some(r)
            }
            Ok(other) => {
                problems.push(format!("{program}: reply {}", other.status()));
                None
            }
            Err(e) => {
                problems.push(format!("{program}: transport: {e}"));
                None
            }
        };
        replies.push(reply);
        request_problems.push(problems);
    }
    let observed: Vec<Option<Columns>> = replies.iter().map(|r| r.map(reply_columns)).collect();
    let firsts = oracle::firsts(
        arrivals
            .iter()
            .zip(&observed)
            .filter_map(|(a, c)| Some((a.program, c.as_ref()?))),
    );
    let expected: Expected = if cfg.bless {
        firsts.clone()
    } else {
        oracle::parse(Workload::ServeM0.expected_text())?
    };
    for ((arrival, c), problems) in arrivals.iter().zip(&observed).zip(&mut request_problems) {
        if let Some(c) = c {
            problems.extend(oracle::compare(arrival.program, c, &expected));
        }
    }

    let mut metrics = Metrics::new();
    let mut wall = Metrics::new();
    let samples: Vec<(&'static str, f64)> = arrivals
        .iter()
        .zip(&done)
        .map(|(a, c)| (a.program, c.latency_ms))
        .collect();
    time_metrics(&samples, &setup, &mut wall);
    // Requests overlap, so the whole run shares one speed scale.
    if let Some(scale) = speed.scale() {
        let scaled: Vec<(&'static str, f64)> =
            samples.iter().map(|&(p, ms)| (p, ms * scale)).collect();
        let setup: Vec<f64> = setup.iter().map(|s| s * setup_scale).collect();
        time_metrics(&scaled, &setup, &mut metrics);
    }
    quality_metrics(&firsts, &mut metrics);
    put(&mut metrics, "peak_rss_mb", peak_rss_mb());

    if let Some(trace) = &trace {
        let ok: Vec<&CompileReply> = replies.iter().flatten().copied().collect();
        let n = ok.len() as f64;
        let of = |f: fn(&CompileReply) -> f64| -> Vec<f64> { ok.iter().map(|r| f(r)).collect() };
        let sum = |f: fn(&CompileReply) -> f64| -> f64 { of(f).iter().sum() };
        let hits = sum(|r| r.cache_hits as f64);
        let generated = sum(|r| r.pulses_generated as f64);
        let overhead: Vec<f64> = done
            .iter()
            .filter_map(|c| match &c.reply {
                Ok(Response::Ok(r)) => Some(c.rtt_ms - (r.queue_ms + r.compile_ms) as f64),
                _ => None,
            })
            .collect();
        let in_slo = done
            .iter()
            .zip(&request_problems)
            .filter(|(c, p)| p.is_empty() && c.latency_ms <= SLO_MS)
            .count();
        let lags: Vec<f64> = done.iter().map(|c| c.lag_ms).collect();

        trace.pipeline_metrics(n, &mut metrics);
        for (name, value) in [
            ("core.compile_ms", ratio(sum(|r| r.compile_ms as f64), n)),
            ("core.search_ms", ratio(trace.span_ms("generate"), n)),
            ("table.hit_rate", ratio(hits, hits + generated)),
            ("table.pulses_generated", ratio(generated, n)),
            ("table.store_hits", ratio(sum(|r| r.store_hits as f64), n)),
            ("store.open_ms", store_layer.0),
            ("store.records", store_layer.1),
            (
                "serve.slo_share",
                ratio(in_slo as f64, arrivals.len() as f64),
            ),
        ] {
            metrics.insert(name, value);
        }
        put(
            &mut metrics,
            "serve.queue_ms_p90",
            percentile(&of(|r| r.queue_ms as f64), 90),
        );
        put(
            &mut metrics,
            "serve.compile_ms_p50",
            percentile(&of(|r| r.compile_ms as f64), 50),
        );
        put(
            &mut metrics,
            "serve.compile_ms_p90",
            percentile(&of(|r| r.compile_ms as f64), 90),
        );
        put(
            &mut metrics,
            "serve.overhead_ms_p50",
            percentile(&overhead, 50),
        );
        put(&mut metrics, "loadgen.lag_ms_p90", percentile(&lags, 90));
    }

    let failed = request_problems.iter().filter(|p| !p.is_empty()).count();
    if cfg.bless && failed == 0 {
        bless(Workload::ServeM0, &oracle::render(&expected))?;
    }
    Ok(Report {
        attempted: arrivals.len() as u64,
        failed: failed as u64,
        problems: request_problems.into_iter().flatten().collect(),
        metrics,
        wall,
        reference_unit_ms: speed.unit_ms(),
    })
}

/// The stable columns of a served reply.
fn reply_columns(r: &CompileReply) -> Columns {
    [
        ("latency_dt", r.latency_dt as f64),
        ("esp", r.esp),
        ("pulses_generated", r.pulses_generated as f64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Each quick-corpus program's latency with no merging (M=0, generator
/// off) on the server's compile path: batch executor, 1 thread.
fn per_gate_schedules(
    device: &paqoc_device::Device,
) -> Result<BTreeMap<&'static str, u64>, String> {
    let opts = PipelineOptions {
        enable_generator: false,
        threads: Some(1),
        ..PipelineOptions::m0()
    };
    QUICK_CORPUS
        .iter()
        .map(|&p| {
            let b = paqoc_workloads::benchmark(p).ok_or_else(|| format!("no program {p}"))?;
            try_compile_batch(&(b.build)(), device, Arc::new(AnalyticFactory), &opts)
                .map(|r| (p, r.latency_dt))
                .map_err(|e| format!("per-gate schedule of {p}: {e}"))
        })
        .collect()
}
