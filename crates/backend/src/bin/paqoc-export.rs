//! `paqoc-export` — compile a benchmark on a backend and export its
//! pulse schedule as OpenPulse JSON.
//!
//! ```text
//! paqoc-export list-backends
//! paqoc-export <benchmark> [--backend <name>] [--cal <snapshot.json>]
//!              [--out <file>] [--reimport-check]
//! ```
//!
//! With `--out` the document goes to the file (stdout otherwise).
//! `--reimport-check` parses the emitted document back and verifies the
//! roundtrip is sample-exact, exiting 3 on any mismatch — the CI smoke
//! gate for exporter/importer drift.

use paqoc_backend::{export, import, lower_to_program, resolve_with_cal, sample_exact_eq};
use paqoc_core::{try_compile, PipelineOptions};
use paqoc_device::AnalyticModel;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    benchmark: String,
    backend: String,
    cal: Option<PathBuf>,
    out: Option<PathBuf>,
    reimport_check: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: paqoc-export list-backends\n\
         \x20      paqoc-export <benchmark> [--backend <name>] [--cal <snapshot.json>]\n\
         \x20                   [--out <file>] [--reimport-check]"
    );
    ExitCode::from(1)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut it = argv.iter().map(String::as_str);
    let benchmark = it.next()?.to_string();
    let mut args = Args {
        benchmark,
        backend: "transmon-grid".to_string(),
        cal: None,
        out: None,
        reimport_check: false,
    };
    while let Some(flag) = it.next() {
        match flag {
            "--backend" => args.backend = it.next()?.to_string(),
            "--cal" => args.cal = Some(PathBuf::from(it.next()?)),
            "--out" => args.out = Some(PathBuf::from(it.next()?)),
            "--reimport-check" => args.reimport_check = true,
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("list-backends") {
        for name in paqoc_backend::BACKEND_NAMES {
            let backend = resolve_with_cal(name, None).expect("registered");
            println!("{name:16} {}", backend.description());
        }
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };

    let backend = match resolve_with_cal(&args.backend, args.cal.as_deref()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("paqoc-export: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(bench) = paqoc_workloads::benchmark(&args.benchmark) else {
        eprintln!("paqoc-export: unknown benchmark {:?}", args.benchmark);
        return ExitCode::from(2);
    };

    let device = backend.device();
    let circuit = (bench.build)();
    if circuit.num_qubits() > device.topology().num_qubits() {
        eprintln!(
            "paqoc-export: {} needs {} qubits, backend {:?} has {}",
            bench.name,
            circuit.num_qubits(),
            backend.name(),
            device.topology().num_qubits()
        );
        return ExitCode::from(2);
    }
    let mut source = AnalyticModel::new();
    let result =
        try_compile(&circuit, &device, &mut source, &PipelineOptions::m0()).expect("compile");
    let program = lower_to_program(bench.name, &result, &device);
    let text = export(&program);

    if args.reimport_check {
        match import(&text) {
            Ok(back) if sample_exact_eq(&program, &back) => {
                eprintln!(
                    "reimport-check: ok ({} pulses, {} instructions)",
                    program.pulses.len(),
                    program.experiments[0].instructions.len()
                );
            }
            Ok(_) => {
                eprintln!("paqoc-export: reimport-check FAILED: roundtrip not sample-exact");
                return ExitCode::from(3);
            }
            Err(e) => {
                eprintln!("paqoc-export: reimport-check FAILED: {e}");
                return ExitCode::from(3);
            }
        }
    }

    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text + "\n") {
                eprintln!("paqoc-export: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        None => println!("{text}"),
    }
    ExitCode::SUCCESS
}
