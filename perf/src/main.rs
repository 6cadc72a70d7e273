//! `paqoc-perf`: the repository's benchmark.
//!
//! ```text
//! paqoc-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--bless]
//! ```
//!
//! `--seconds` and `--trace` take the values `BENCHMARK.json` tools pass
//! (`run_seconds`, and 0 or 1); both default to an untraced 30 s run.
//!
//! With `--workload`, runs that one workload in this process and prints
//! each metric as `workload metric value unit`, then, as the last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Without it, runs every workload in its own child process (so peak
//! memory and set-up are per workload and no cache leaks between them).
//! An untraced run reports the end-to-end metrics; `--trace` reports the
//! per-layer ones instead. The exit code is 0 only when every output
//! matched its oracle. `--bless` rewrites `expected/<workload>.json`
//! from the observed outputs. See README.md for the metrics.

mod compile;
mod load;
mod oracle;
mod serve;
mod speed;
mod stats;
mod timed;
mod workloads;

use paqoc_telemetry::json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{RunConfig, Workload, END_TO_END, PER_LAYER};

/// Default measuring time, seconds (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Option<Workload>,
    cfg: RunConfig,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        bless: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
                workload = Some(w);
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                cfg.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--bless" => cfg.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args { workload, cfg })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paqoc-perf: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args.cfg),
        None => run_all(&args.cfg),
    }
}

/// Runs every workload as a child process of this executable.
fn run_all(cfg: &RunConfig) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("paqoc-perf: locating the executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()]);
        if cfg.trace {
            cmd.args(["--trace", "1"]);
        }
        if cfg.bless {
            cmd.arg("--bless");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("paqoc-perf: {} exited with {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("paqoc-perf: running {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload here and prints its metrics and result line.
fn run_one(workload: Workload, cfg: &RunConfig) -> ExitCode {
    // The compile workloads run without a store by definition; an
    // inherited PAQOC_PULSE_DB would silently give them one.
    std::env::remove_var("PAQOC_PULSE_DB");
    workloads::set_tracing(false);
    let mut report = match workload.run(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("paqoc-perf: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let list: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut out = BTreeMap::new();
    for &(name, unit) in list {
        let value = match report.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            // A layer the workload never reaches reads 0; an end-to-end
            // metric must always be measured.
            None if cfg.trace => 0.0,
            _ => {
                report.problems.push(format!("metric {name} unavailable"));
                0.0
            }
        };
        println!("{} {name} {value} {unit}", workload.name());
        let entry = [
            ("value".to_string(), Value::Num(value)),
            ("unit".to_string(), Value::Str(unit.to_string())),
        ];
        out.insert(name.to_string(), Value::Obj(entry.into_iter().collect()));
    }
    // Informational: the time metrics before speed scaling, and the
    // run's median reference unit, so a change the scaling hides shows.
    for &(name, unit) in &END_TO_END {
        if let Some(v) = report.wall.get(name) {
            println!("{} wall.{name} {v} {unit}", workload.name());
        }
    }
    if let Some(unit) = report.reference_unit_ms {
        println!("{} reference_unit_ms {unit} ms", workload.name());
    }
    for p in &report.problems {
        eprintln!("paqoc-perf: {}: {p}", workload.name());
    }
    let correct = report.problems.is_empty() && report.failed == 0 && report.attempted > 0;
    let result = [
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", Value::Obj(out)),
    ];
    let result = result
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    println!("{}", Value::Obj(result).to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn run_arguments_parse() {
        let a = parse(&[
            "--workload",
            "serve-m0",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload, Some(Workload::ServeM0));
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (7, 20.0, true));
        let b = parse(&["--trace", "0", "--seed", "3"]).expect("parses");
        assert!(!b.cfg.trace && b.workload.is_none() && b.cfg.seed == 3);
        assert_eq!(b.cfg.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--trace", "--seed"]).is_err());
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
