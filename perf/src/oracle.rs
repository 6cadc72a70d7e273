//! The output oracle: committed per-program expected columns, and
//! invariants that hold without them.
//!
//! Expected files live in `perf/expected/<workload>.json` as one object
//! per program, each mapping a stable column (`latency_dt`, `esp`,
//! merge counts, …) to its value. Values are exact: every column is a
//! deterministic function of the program and the path that compiled it,
//! so any difference is a changed result, not noise. The expected values
//! come from a blessed run (`--bless`) and are reviewed as a diff.

use paqoc_core::CompilationResult;
use paqoc_telemetry::json::{self, Value};
use std::collections::BTreeMap;

/// One program's stable output columns, by name.
pub type Columns = BTreeMap<String, f64>;

/// Expected columns for every program of a workload.
pub type Expected = BTreeMap<String, Columns>;

/// The stable columns of one compilation result.
pub fn columns_of(r: &CompilationResult) -> Columns {
    [
        ("latency_dt", r.latency_dt as f64),
        ("esp", r.esp),
        ("num_groups", r.num_groups() as f64),
        ("physical_gates", r.physical.len() as f64),
        ("pulses_generated", r.stats.pulses_generated as f64),
        ("search_iterations", r.report.iterations as f64),
        ("preprocess_merges", r.report.preprocess_merges as f64),
        ("criticality_merges", r.report.criticality_merges as f64),
        ("rejected_merges", r.report.rejected_merges as f64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The first observed columns of each program: what `--bless` writes,
/// and what the pulse-quality metrics are computed from.
pub fn firsts<'a>(observed: impl IntoIterator<Item = (&'a str, &'a Columns)>) -> Expected {
    let mut firsts = Expected::new();
    for (program, columns) in observed {
        firsts
            .entry(program.to_string())
            .or_insert_with(|| columns.clone());
    }
    firsts
}

/// Parses an expected file.
pub fn parse(text: &str) -> Result<Expected, String> {
    let root = json::parse(text).map_err(|e| format!("expected file is not JSON: {e}"))?;
    let Value::Obj(programs) = root else {
        return Err("expected file must be an object of programs".to_string());
    };
    programs
        .into_iter()
        .map(|(program, cols)| {
            let Value::Obj(cols) = cols else {
                return Err(format!("{program}: columns must be an object"));
            };
            let cols = cols
                .into_iter()
                .map(|(k, v)| match v.as_num() {
                    Some(n) => Ok((k, n)),
                    None => Err(format!("{program}.{k}: not a number")),
                })
                .collect::<Result<Columns, String>>()?;
            Ok((program, cols))
        })
        .collect()
}

/// Renders an expected file: one program per line, keys sorted, numbers
/// in shortest round-trip form (so [`parse`] reads back the same bits).
pub fn render(expected: &Expected) -> String {
    let mut out = String::from("{\n");
    for (i, (program, cols)) in expected.iter().enumerate() {
        let obj = Value::Obj(
            cols.iter()
                .map(|(k, v)| (k.clone(), Value::Num(*v)))
                .collect(),
        );
        out.push_str(&format!("  {}: {}", json::escape(program), obj.to_json()));
        out.push_str(if i + 1 < expected.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Differences between one program's observed columns and the expected
/// ones, as readable lines. A program missing from the expected file is
/// a difference; so is any column present on one side only.
pub fn compare(program: &str, observed: &Columns, expected: &Expected) -> Vec<String> {
    let Some(want) = expected.get(program) else {
        return vec![format!("{program}: no expected columns")];
    };
    let mut diffs = Vec::new();
    for (col, want_v) in want {
        match observed.get(col) {
            Some(got) if got.to_bits() == want_v.to_bits() => {}
            Some(got) => diffs.push(format!("{program}.{col}: got {got}, expected {want_v}")),
            None => diffs.push(format!("{program}.{col}: not observed")),
        }
    }
    for col in observed.keys().filter(|c| !want.contains_key(*c)) {
        diffs.push(format!("{program}.{col}: no expected value"));
    }
    diffs
}

/// Invariants of one compilation that hold for every correct result:
/// each physical gate lies in exactly one group, no group exceeds
/// `max_qubits` qubits, and the ESP lies in (0, 1].
pub fn check_result(program: &str, r: &CompilationResult, max_qubits: usize) -> Vec<String> {
    let mut problems = Vec::new();
    let mut owners = vec![0u32; r.physical.len()];
    for id in r.grouped.group_ids() {
        let g = r.grouped.group(id);
        if g.qubits.len() > max_qubits {
            problems.push(format!(
                "{program}: group {id} spans {} qubits (cap {max_qubits})",
                g.qubits.len()
            ));
        }
        for &i in &g.indices {
            match owners.get_mut(i) {
                Some(n) => *n += 1,
                None => problems.push(format!("{program}: group {id} owns gate {i} out of range")),
            }
        }
    }
    if let Some(i) = owners.iter().position(|&n| n != 1) {
        problems.push(format!(
            "{program}: physical gate {i} lies in {} groups",
            owners[i]
        ));
    }
    problems.extend(check_esp(program, r.esp));
    problems
}

/// ESP (paper Eq. 2) must lie in (0, 1].
pub fn check_esp(program: &str, esp: f64) -> Option<String> {
    (!(esp > 0.0 && esp <= 1.0)).then(|| format!("{program}: ESP {esp} outside (0, 1]"))
}

/// Merging never lengthens a schedule: the compiled latency is at most
/// the per-gate schedule (M=0, generator off) of the same program.
pub fn check_latency(program: &str, latency_dt: u64, per_gate_dt: u64) -> Option<String> {
    (latency_dt > per_gate_dt).then(|| {
        format!("{program}: latency {latency_dt} dt exceeds the per-gate schedule {per_gate_dt} dt")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(pairs: &[(&str, f64)]) -> Columns {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn render_then_parse_is_exact() {
        let mut e = Expected::new();
        e.insert(
            "qft".to_string(),
            cols(&[("latency_dt", 13708.0), ("esp", 0.8452874889132003)]),
        );
        e.insert(
            "bv".to_string(),
            cols(&[("latency_dt", 4056.0), ("esp", 0.1 + 0.2)]),
        );
        assert_eq!(parse(&render(&e)), Ok(e));
    }

    #[test]
    fn a_perturbed_expected_value_is_reported() {
        let observed = cols(&[("latency_dt", 2880.0), ("esp", 0.9803019155844599)]);
        let mut expected = Expected::new();
        expected.insert("mod5d2_64".to_string(), observed.clone());
        assert!(compare("mod5d2_64", &observed, &expected).is_empty());

        let mut perturbed = expected.clone();
        perturbed
            .get_mut("mod5d2_64")
            .expect("present")
            .insert("latency_dt".to_string(), 2881.0);
        let diffs = compare("mod5d2_64", &observed, &perturbed);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("latency_dt"), "{diffs:?}");

        // One ulp of ESP is a mismatch too: the columns are exact.
        let mut ulp = expected.clone();
        let esp = ulp.get_mut("mod5d2_64").expect("present");
        esp.insert(
            "esp".to_string(),
            f64::from_bits(0.9803019155844599f64.to_bits() + 1),
        );
        assert_eq!(compare("mod5d2_64", &observed, &ulp).len(), 1);

        assert_eq!(compare("bv", &observed, &expected).len(), 1);
    }

    #[test]
    fn invariants_catch_out_of_range_values() {
        assert!(check_esp("p", 0.5).is_none());
        assert!(check_esp("p", 1.0).is_none());
        assert!(check_esp("p", 0.0).is_some());
        assert!(check_esp("p", f64::NAN).is_some());
        assert!(check_latency("p", 10, 10).is_none());
        assert!(check_latency("p", 11, 10).is_some());
    }

    #[test]
    fn a_real_compile_passes_its_invariants() {
        use paqoc_core::{try_compile, PipelineOptions};
        use paqoc_device::{AnalyticModel, Device};
        let b = paqoc_workloads::benchmark("simon").expect("Table-I program");
        let r = try_compile(
            &(b.build)(),
            &Device::grid5x5(),
            &mut AnalyticModel::new(),
            &PipelineOptions::m_inf(),
        )
        .expect("compiles");
        assert_eq!(check_result("simon", &r, 3), Vec::<String>::new());
        assert!(!check_result("simon", &r, 1).is_empty());
    }
}
