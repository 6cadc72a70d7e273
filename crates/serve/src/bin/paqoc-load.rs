//! Client and load generator for `paqoc-serve`.
//!
//! ```text
//! paqoc-load <endpoint> replay [--requests N] [--qps F] [--concurrency N]
//!                              [--tenants N] [--deadline-ms N] [--seed N]
//!                              [--full] [--config m0|tuned|inf]
//!                              [--backend NAME]
//!                              [--retries N] [--retry-overloaded]
//!                              [--expect-sheds] [--expect-answers]
//!                              [--max-p99-ms F]
//! paqoc-load <endpoint> one <benchmark> [--deadline-ms N] [--tenant T]
//!                                       [--backend NAME]
//! paqoc-load <endpoint> ping | stats | drain
//! ```
//!
//! `<endpoint>` is `host:port` or `unix:/path.sock`. `replay` prints a
//! one-line JSON [`LoadReport`](paqoc_serve::LoadReport); the
//! `--expect-*` / `--max-p99-ms` assertion flags turn it into a CI gate
//! (non-zero exit on violation).

#![deny(unsafe_code)]

use paqoc_math::Rng;
use paqoc_serve::{
    Client, ConfigPreset, Endpoint, Op, ReplayOptions, Request, Response, RetryPolicy,
};
use std::process::ExitCode;
use std::time::Duration;

struct Assertions {
    expect_sheds: bool,
    expect_answers: bool,
    max_p99_ms: Option<f64>,
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse::<T>()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: paqoc-load <endpoint> replay|one|ping|stats|drain [flags]";
    let endpoint = Endpoint::parse(args.first().ok_or(usage)?);
    let cmd = args.get(1).ok_or(usage)?.as_str();
    let rest = &args[2..];
    match cmd {
        "replay" => replay_cmd(&endpoint, rest),
        "one" => one_cmd(&endpoint, rest),
        "ping" | "stats" | "drain" => control_cmd(&endpoint, cmd),
        other => Err(format!("unknown command {other:?}\n{usage}")),
    }
}

fn replay_cmd(endpoint: &Endpoint, args: &[String]) -> Result<ExitCode, String> {
    let mut opts = ReplayOptions::default();
    let mut asserts = Assertions {
        expect_sheds: false,
        expect_answers: false,
        max_p99_ms: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--requests" => opts.requests = parse_num(&value(&mut i, flag)?, flag)?,
            "--qps" => opts.qps = parse_num(&value(&mut i, flag)?, flag)?,
            "--concurrency" => opts.concurrency = parse_num(&value(&mut i, flag)?, flag)?,
            "--tenants" => opts.tenants = parse_num(&value(&mut i, flag)?, flag)?,
            "--deadline-ms" => opts.deadline_ms = Some(parse_num(&value(&mut i, flag)?, flag)?),
            "--seed" => opts.seed = parse_num(&value(&mut i, flag)?, flag)?,
            "--full" => opts.quick = false,
            "--config" => {
                let name = value(&mut i, flag)?;
                opts.preset =
                    ConfigPreset::parse(&name).ok_or_else(|| format!("unknown config {name:?}"))?;
            }
            "--backend" => opts.backend = Some(value(&mut i, flag)?),
            "--retries" => opts.retry.retries = parse_num(&value(&mut i, flag)?, flag)?,
            "--retry-overloaded" => opts.retry.retry_overloaded = true,
            "--expect-sheds" => asserts.expect_sheds = true,
            "--expect-answers" => asserts.expect_answers = true,
            "--max-p99-ms" => asserts.max_p99_ms = Some(parse_num(&value(&mut i, flag)?, flag)?),
            other => return Err(format!("unknown replay flag {other:?}")),
        }
        i += 1;
    }
    let report = paqoc_serve::client::replay(endpoint, &opts);
    println!("{}", report.to_json());
    let mut failures = Vec::new();
    if report.answered() + report.shed() + report.errors + report.transport_errors == 0 {
        failures.push("no requests completed at all".to_string());
    }
    if asserts.expect_sheds && report.shed() == 0 {
        failures.push("expected sheds (overloaded/expired/draining), saw none".to_string());
    }
    if asserts.expect_answers && report.answered() == 0 {
        failures.push("expected answered requests, saw none".to_string());
    }
    if let Some(cap) = asserts.max_p99_ms {
        let p99 = report.latency_ms.p99();
        if report.answered() > 0 && p99 > cap {
            failures.push(format!("p99 {p99:.1} ms exceeds the {cap:.1} ms gate"));
        }
    }
    if failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            eprintln!("paqoc-load: ASSERT FAILED: {f}");
        }
        Ok(ExitCode::from(3))
    }
}

fn one_cmd(endpoint: &Endpoint, args: &[String]) -> Result<ExitCode, String> {
    let benchmark = args.first().ok_or("one needs a benchmark name")?;
    let mut req = Request::compile(1, "default", benchmark);
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--deadline-ms" => {
                i += 1;
                let v = args.get(i).ok_or("--deadline-ms needs a value")?;
                req.deadline_ms = Some(parse_num(v, "--deadline-ms")?);
            }
            "--tenant" => {
                i += 1;
                req.tenant = args.get(i).ok_or("--tenant needs a value")?.clone();
            }
            "--backend" => {
                i += 1;
                req.backend = Some(args.get(i).ok_or("--backend needs a value")?.clone());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    let mut client = Client::new(endpoint.clone(), Duration::from_secs(60));
    let mut rng = Rng::seed_from_u64(0x10AD);
    let resp = client
        .call_retrying(&req, &RetryPolicy::default(), &mut rng)
        .map_err(|e| e.to_string())?;
    print_response(&resp);
    Ok(match resp {
        Response::Ok(_) => ExitCode::SUCCESS,
        _ => ExitCode::from(4),
    })
}

fn control_cmd(endpoint: &Endpoint, cmd: &str) -> Result<ExitCode, String> {
    let op = match cmd {
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        _ => Op::Drain,
    };
    let mut client = Client::new(endpoint.clone(), Duration::from_secs(10));
    let resp = client
        .call(&Request::control(1, op))
        .map_err(|e| e.to_string())?;
    print_response(&resp);
    Ok(ExitCode::SUCCESS)
}

fn print_response(resp: &Response) {
    let bytes = paqoc_serve::protocol::encode_response(1, resp);
    println!("{}", String::from_utf8_lossy(&bytes));
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("paqoc-load: {msg}");
            ExitCode::from(2)
        }
    }
}
