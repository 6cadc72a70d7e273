//! Property-style tests over the workspace's core invariants.
//!
//! Each invariant is exercised on a deterministic family of random
//! inputs drawn from the in-tree PRNG (no external property-testing
//! framework in this offline build): a fixed set of seeds drives the
//! same generator a fuzzer would, so failures reproduce exactly.

use paqoc::circuit::{
    apply_gate_to_state, decompose, embed_unitary, Basis, Circuit, DependencyDag, GateKind,
};
use paqoc::device::{AnalyticModel, Device, PulseSource, Topology};
use paqoc::mapping::{try_sabre_map, SabreOptions};
use paqoc::math::{expm, random_unitary_seeded, trace_fidelity, weyl_coordinates, Rng, C64};
use paqoc::mining::{mine_frequent_subcircuits, CircuitGraph, MinerOptions, Reachability};

/// Number of random cases per invariant (proptest used 24).
const CASES: u64 = 24;

/// A small random circuit over a mixed gate set, deterministic per seed —
/// the same distribution the old proptest strategy drew from.
fn random_circuit(seed: u64, max_qubits: usize, max_gates: usize) -> Circuit {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.random_range(2..=max_qubits);
    let gates = rng.random_range(1..max_gates.max(2));
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let kind = rng.random_range(0..8u32);
        let a = rng.random_range(0..max_qubits) % n;
        let b = rng.random_range(0..max_qubits) % n;
        let theta = rng.random_range(-3.0..3.0f64);
        match kind {
            0 => {
                c.h(a);
            }
            1 => {
                c.x(a);
            }
            2 => {
                c.t(a);
            }
            3 => {
                c.rz(a, theta);
            }
            4 | 5 if a != b => {
                c.cx(a, b);
            }
            6 if a != b => {
                c.cz(a, b);
            }
            7 if a != b => {
                c.swap(a, b);
            }
            _ => {
                c.sx(a);
            }
        }
    }
    c
}

#[test]
fn decomposition_preserves_the_unitary() {
    for seed in 0..CASES {
        let c = random_circuit(seed, 4, 12);
        let low = decompose(&c, Basis::Ibm);
        let f = trace_fidelity(&c.unitary(), &low.unitary());
        assert!(f > 1.0 - 1e-8, "seed {seed}: fidelity {f}");
    }
}

#[test]
fn circuit_unitaries_are_unitary() {
    for seed in 0..CASES {
        let c = random_circuit(seed.wrapping_add(100), 4, 12);
        assert!(c.unitary().is_unitary(1e-8), "seed {seed}");
    }
}

#[test]
fn state_application_matches_matrix_action() {
    for seed in 0..CASES {
        let c = random_circuit(seed.wrapping_add(200), 3, 10);
        let u = c.unitary();
        let dim = 1usize << c.num_qubits();
        for col in [0usize, dim - 1] {
            let mut state = vec![C64::ZERO; dim];
            state[col] = C64::ONE;
            for inst in c.iter() {
                apply_gate_to_state(&inst.unitary(), inst.qubits(), &mut state);
            }
            for r in 0..dim {
                assert!(
                    (state[r] - u[(r, col)]).abs() < 1e-8,
                    "seed {seed}, column {col}, row {r}"
                );
            }
        }
    }
}

#[test]
fn expm_of_skew_hermitian_is_unitary() {
    for seed in 0..32 {
        // -i·H with random Hermitian H = A + A†.
        let a = random_unitary_seeded(4, seed);
        let h = &a + &a.dagger();
        let u = expm(&h.scaled(C64::new(0.0, -0.37)));
        assert!(u.is_unitary(1e-8), "seed {seed}");
    }
}

#[test]
fn weyl_content_is_invariant_under_local_dressing() {
    for seed in 0..32u64 {
        let u = random_unitary_seeded(4, seed);
        let l1 = random_unitary_seeded(2, seed.wrapping_add(1000));
        let l2 = random_unitary_seeded(2, seed.wrapping_add(2000));
        let dressed = l1.kron(&l2).matmul(&u);
        let w1 = weyl_coordinates(&u).interaction_content();
        let w2 = weyl_coordinates(&dressed).interaction_content();
        assert!((w1 - w2).abs() < 1e-3, "seed {seed}: {w1} vs {w2}");
    }
}

#[test]
fn embedding_preserves_unitarity() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed.wrapping_add(300));
        let q0 = rng.random_range(0..3usize);
        let q1 = rng.random_range(0..3usize);
        if q0 == q1 {
            continue;
        }
        let g = random_unitary_seeded(4, seed);
        let e = embed_unitary(&g, &[q0, q1], 3);
        assert!(e.is_unitary(1e-8), "seed {seed}, qubits {q0},{q1}");
    }
}

#[test]
fn sabre_routes_every_two_qubit_gate_onto_a_coupler() {
    for seed in 0..CASES {
        let c = random_circuit(seed.wrapping_add(400), 5, 14);
        let topo = Topology::grid(3, 3);
        let lowered = decompose(&c, Basis::Ibm);
        let mapped = try_sabre_map(&lowered, &topo, &SabreOptions::default()).expect("routable");
        for inst in mapped.circuit.iter() {
            if inst.qubits().len() == 2 {
                assert!(
                    topo.are_coupled(inst.qubits()[0], inst.qubits()[1]),
                    "seed {seed}: {inst} off-coupler"
                );
            }
        }
        assert_eq!(
            mapped.circuit.len(),
            lowered.len() + mapped.swaps_inserted,
            "seed {seed}"
        );
    }
}

#[test]
fn mined_instances_are_convex_and_capped() {
    for seed in 0..CASES {
        let c = random_circuit(seed.wrapping_add(500), 5, 20);
        let opts = MinerOptions {
            max_qubits: 3,
            max_gates: 4,
            ..MinerOptions::default()
        };
        let graph = CircuitGraph::from_circuit(&c);
        let reach = Reachability::new(&graph);
        for p in mine_frequent_subcircuits(&c, &opts) {
            assert!(p.num_qubits <= 3, "seed {seed}");
            assert!(p.num_gates <= 4, "seed {seed}");
            assert!(p.support() >= 2, "seed {seed}");
            for inst in &p.instances {
                assert!(reach.is_convex(inst), "seed {seed}: {inst:?}");
            }
        }
    }
}

#[test]
fn observation1_merging_is_subadditive() {
    for seed in 0..CASES {
        // Any whole-circuit group costs at most the sum of its gates.
        let c = random_circuit(seed.wrapping_add(600), 3, 6);
        let device = Device::grid5x5();
        let mut model = AnalyticModel::new();
        let group: Vec<_> = c.instructions().to_vec();
        if group.is_empty() {
            continue;
        }
        let merged = model.generate(&group, &device, 0.999, None).latency_ns;
        let sum: f64 = group
            .iter()
            .map(|i| {
                model
                    .generate(std::slice::from_ref(i), &device, 0.999, None)
                    .latency_ns
            })
            .sum();
        assert!(
            merged <= sum * 1.01,
            "seed {seed}: merged {merged} vs sum {sum}"
        );
    }
}

#[test]
fn dag_critical_path_bounds_total_weight() {
    for seed in 0..CASES {
        let c = random_circuit(seed.wrapping_add(700), 4, 15);
        let dag = DependencyDag::from_circuit(&c);
        if dag.is_empty() {
            continue;
        }
        let weights: Vec<f64> = (0..dag.len()).map(|i| 1.0 + (i % 5) as f64).collect();
        let span = dag.makespan(&weights);
        let total: f64 = weights.iter().sum();
        let max_w = weights.iter().copied().fold(0.0, f64::max);
        assert!(span <= total + 1e-9, "seed {seed}");
        assert!(span >= max_w - 1e-9, "seed {seed}");
    }
}

#[test]
fn gate_unitaries_respect_arity() {
    let kinds = [
        GateKind::H,
        GateKind::X,
        GateKind::Cx,
        GateKind::Cz,
        GateKind::Swap,
        GateKind::Ccx,
        GateKind::T,
        GateKind::ISwap,
    ];
    for k in kinds {
        let u = k.unitary(&[]);
        assert_eq!(u.rows(), 1 << k.num_qubits(), "{k:?}");
        assert!(u.is_unitary(1e-10), "{k:?}");
    }
}

/// A short random string biased heavily toward JSON-hostile characters:
/// quotes, backslashes, control characters, multi-byte code points —
/// plus `;` and space, the collapsed-stack format's own separators.
fn hostile_name(rng: &mut Rng) -> String {
    const PALETTE: [char; 14] = [
        '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{7f}', '/', 'é', '→', 'a', '0', ';', ' ',
    ];
    let len = rng.random_range(1..12usize);
    (0..len)
        .map(|_| PALETTE[rng.random_range(0..PALETTE.len())])
        .collect()
}

/// Serializes the tests that mutate process-global telemetry state
/// (`set_enabled` / `reset` / kernel probes); the default test harness
/// runs them on concurrent threads otherwise.
static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn jsonl_export_roundtrips_hostile_names() {
    use paqoc::telemetry::{self, json, FieldValue};
    let _global = TELEMETRY_LOCK.lock().unwrap();
    telemetry::set_enabled(true);
    for seed in 0..CASES {
        telemetry::reset();
        let mut rng = Rng::seed_from_u64(0xBEEF ^ seed);
        let mut names: Vec<String> = (0..4).map(|_| hostile_name(&mut rng)).collect();
        names.sort();
        names.dedup();
        let field = hostile_name(&mut rng);
        {
            let _s = telemetry::span(&names[0]);
            for n in &names {
                telemetry::counter(n, 1);
                telemetry::observe(n, rng.random_range(-3.0..3.0f64));
                telemetry::event(n, &[("payload", FieldValue::from(field.as_str()))]);
            }
        }
        let snap = telemetry::snapshot();
        let jsonl = snap.to_jsonl();
        let mut seen: Vec<String> = Vec::new();
        for line in jsonl.lines() {
            let v = json::parse(line)
                .unwrap_or_else(|e| panic!("seed {seed}: line does not parse: {e}\n{line}"));
            if let Some(name) = v.get("name").and_then(json::Value::as_str) {
                seen.push(name.to_string());
            }
            if v.get("type").and_then(json::Value::as_str) == Some("event") {
                let payload = v
                    .get("fields")
                    .and_then(|f| f.get("payload"))
                    .and_then(json::Value::as_str);
                assert_eq!(payload, Some(field.as_str()), "seed {seed}");
            }
        }
        for n in &names {
            assert!(seen.iter().any(|s| s == n), "seed {seed}: {n:?} lost");
        }
        // Read back, every name and payload is intact, and writing the
        // read-back snapshot gives the same text.
        let back = telemetry::Snapshot::from_jsonl(&jsonl)
            .unwrap_or_else(|e| panic!("seed {seed}: trace does not read back: {e}"));
        assert!(back.spans.iter().any(|s| s.name == names[0]), "seed {seed}");
        for n in &names {
            assert_eq!(back.counters.get(n), Some(&1), "seed {seed}: counter {n:?}");
            let event = back
                .events
                .iter()
                .find(|e| &e.name == n)
                .unwrap_or_else(|| panic!("seed {seed}: event {n:?} lost"));
            assert_eq!(
                event.fields,
                [("payload".to_string(), FieldValue::from(field.as_str()))],
                "seed {seed}"
            );
        }
        assert_eq!(back.to_jsonl(), jsonl, "seed {seed}: not a fixed point");
        // The Chrome-trace export of the same snapshot must also parse.
        json::parse(&snap.to_chrome_trace())
            .unwrap_or_else(|e| panic!("seed {seed}: chrome trace does not parse: {e}"));
    }
    telemetry::set_enabled(false);
    telemetry::reset();
}

#[test]
fn collapsed_stacks_and_chrome_tracks_survive_hostile_kernel_names() {
    use paqoc::telemetry::{self, json};
    let _global = TELEMETRY_LOCK.lock().unwrap();
    telemetry::set_enabled(true);
    telemetry::set_kernel_probes(Some(true));
    for seed in 0..CASES {
        telemetry::reset();
        let mut rng = Rng::seed_from_u64(0xF1A3 ^ seed);
        let span_name = hostile_name(&mut rng);
        // Kernel probes take `&'static str` names (production sites are
        // literals); leaking the random ones is fine in a test.
        let kernels: Vec<&'static str> = (0..3)
            .map(|_| &*Box::leak(hostile_name(&mut rng).into_boxed_str()))
            .collect();
        {
            let _s = telemetry::span(&span_name);
            for (i, name) in kernels.iter().enumerate() {
                let dim = 2 << i;
                let _probe = telemetry::kernel_enter(name, dim);
                telemetry::kernel_alloc(name, 1, (dim * dim) as u64);
            }
        }
        let snap = telemetry::snapshot();

        // Collapsed stacks: every line must be `frames value` where no
        // frame contains the separators (`;`, whitespace) or control
        // characters, whatever the span/kernel names threw at it.
        for line in snap.to_collapsed_stacks().lines() {
            let (stack, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("seed {seed}: no value in line {line:?}"));
            value
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("seed {seed}: bad value in {line:?}: {e}"));
            assert!(!stack.is_empty(), "seed {seed}: empty stack in {line:?}");
            for frame in stack.split(';') {
                assert!(!frame.is_empty(), "seed {seed}: empty frame in {line:?}");
                assert!(
                    !frame.chars().any(|c| c.is_whitespace() || c.is_control()),
                    "seed {seed}: unsanitized frame {frame:?} in {line:?}"
                );
            }
        }

        // JSONL: the kernel records carry the raw names, escape-intact.
        let jsonl = snap.to_jsonl();
        let mut jsonl_names: Vec<String> = Vec::new();
        for line in jsonl.lines() {
            let v = json::parse(line)
                .unwrap_or_else(|e| panic!("seed {seed}: line does not parse: {e}\n{line}"));
            if v.get("type").and_then(json::Value::as_str) == Some("kernel") {
                if let Some(name) = v.get("name").and_then(json::Value::as_str) {
                    jsonl_names.push(name.to_string());
                }
            }
        }
        for name in &kernels {
            assert!(
                jsonl_names.iter().any(|n| n == name),
                "seed {seed}: kernel {name:?} lost in JSONL export"
            );
        }
        // Read back, the span and kernel names are intact, and writing
        // the read-back snapshot gives the same text.
        let back = telemetry::Snapshot::from_jsonl(&jsonl)
            .unwrap_or_else(|e| panic!("seed {seed}: trace does not read back: {e}"));
        assert!(
            back.spans.iter().any(|s| s.name == span_name),
            "seed {seed}"
        );
        for name in &kernels {
            assert!(
                back.kernel_sites.iter().any(|s| s.name == *name),
                "seed {seed}: kernel site {name:?} lost in the read-back"
            );
            assert_eq!(
                back.kernels.get(*name).map(|k| (k.calls, k.allocs)),
                snap.kernels.get(*name).map(|k| (k.calls, k.allocs)),
                "seed {seed}: kernel {name:?} changed in the read-back"
            );
        }
        assert_eq!(back.to_jsonl(), jsonl, "seed {seed}: not a fixed point");

        // Chrome: the export must parse and the kernel counter tracks
        // must round-trip the raw names through their args.
        let chrome = json::parse(&snap.to_chrome_trace())
            .unwrap_or_else(|e| panic!("seed {seed}: chrome trace does not parse: {e}"));
        let Some(json::Value::Arr(events)) = chrome.get("traceEvents") else {
            panic!("seed {seed}: no traceEvents array");
        };
        let chrome_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("cat").and_then(json::Value::as_str) == Some("kernel"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("kernel")))
            .filter_map(json::Value::as_str)
            .collect();
        for name in &kernels {
            assert!(
                chrome_names.iter().any(|n| n == name),
                "seed {seed}: kernel {name:?} lost in Chrome export"
            );
        }
    }
    telemetry::set_kernel_probes(None);
    telemetry::set_enabled(false);
    telemetry::reset();
}
