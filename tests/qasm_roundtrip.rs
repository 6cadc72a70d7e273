//! QASM round-trips across the workload suite.

use paqoc::circuit::{parse_qasm, to_qasm};
use paqoc::math::trace_fidelity;
use paqoc::workloads::all_benchmarks;

#[test]
fn every_benchmark_roundtrips_through_qasm() {
    for b in all_benchmarks() {
        let c = (b.build)();
        let text = to_qasm(&c);
        let parsed = parse_qasm(&text).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(parsed.num_qubits(), c.num_qubits(), "{}", b.name);
        assert_eq!(parsed.len(), c.len(), "{}", b.name);
    }
}

#[test]
fn small_benchmark_roundtrip_preserves_unitary() {
    // simon is small enough for a full unitary check (6 qubits).
    let b = paqoc::workloads::benchmark("simon").expect("simon exists");
    let c = (b.build)();
    let parsed = parse_qasm(&to_qasm(&c)).expect("roundtrip");
    let f = trace_fidelity(&c.unitary(), &parsed.unitary());
    assert!(f > 1.0 - 1e-9, "fidelity {f}");
}

/// Seeded property test: the parser must be total. Random byte-prefixes
/// of every benchmark's QASM — most of which cut a statement in half —
/// random in-place garbage mutations and random multi-byte insertions
/// must come back as `Err(ParseQasmError)` or (when the damage happens
/// to be benign) a parsed circuit, but **never** a panic. Regression
/// cover for the reversed-bracket slice panics (`h ]q[0;`) and for the
/// angle tokenizer slicing bytes at a char index (`rz(1\u{3000}+pi)`).
#[test]
fn truncated_and_garbled_qasm_never_panics() {
    use paqoc::math::Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let mut rng = Rng::seed_from_u64(0x9A5_1234);
    // Bytes biased toward structural QASM characters so mutations hit
    // the bracket/operand machinery, not just identifiers.
    const NASTY: &[u8] = b"[]();,. qcx0123456789-";
    // Multi-byte characters (Unicode spaces among them, which pass for
    // whitespace), alone or ahead of an angle operator.
    const WIDE: &[&str] = &[
        "\u{3000}",
        "\u{a0}",
        "\u{3c0}",
        "\u{3b3}",
        "\u{20ac}",
        "\u{1d70b}",
        "\u{3000}+",
        "\u{a0}-pi",
        "\u{3000}*2",
        "\u{3b3}/",
    ];

    for b in all_benchmarks() {
        let text = to_qasm(&(b.build)());
        let qreg_end = text.find(';').expect("qasm has statements");
        let opens: Vec<usize> = text.match_indices('(').map(|(i, _)| i + 1).collect();

        for _ in 0..64 {
            // Random prefix (never empty, can be the whole file).
            let cut = 1 + (rng.next_u64() as usize) % text.len();
            let prefix: String = text.chars().take(cut).collect();
            let result = catch_unwind(AssertUnwindSafe(|| parse_qasm(&prefix)));
            let result = result
                .unwrap_or_else(|_| panic!("{}: parser panicked on prefix of {cut} chars", b.name));
            if cut <= qreg_end {
                assert!(
                    result.is_err(),
                    "{}: a prefix with no complete qreg parsed as Ok",
                    b.name
                );
            }

            // Garble 1–8 bytes of the full text in place (ASCII→ASCII
            // substitutions keep it valid UTF-8).
            let mut bytes = text.clone().into_bytes();
            for _ in 0..1 + rng.next_u64() % 8 {
                let at = (rng.next_u64() as usize) % bytes.len();
                bytes[at] = NASTY[(rng.next_u64() as usize) % NASTY.len()];
            }
            let garbled = String::from_utf8(bytes).expect("ascii substitutions");
            let _ = catch_unwind(AssertUnwindSafe(|| parse_qasm(&garbled))).unwrap_or_else(|_| {
                panic!("{}: parser panicked on garbled input:\n{garbled}", b.name)
            });

            // Insert 1–4 multi-byte fragments, half of them just inside a
            // parameter list. Offsets come from the ASCII original, so each
            // steps back to a char boundary of the widened text.
            let mut widened = text.clone();
            for _ in 0..1 + rng.next_u64() % 4 {
                let at = if opens.is_empty() || rng.random::<bool>() {
                    (rng.next_u64() as usize) % (text.len() + 1)
                } else {
                    opens[(rng.next_u64() as usize) % opens.len()]
                };
                let at = (0..=at)
                    .rev()
                    .find(|&i| widened.is_char_boundary(i))
                    .unwrap_or(0);
                widened.insert_str(at, WIDE[(rng.next_u64() as usize) % WIDE.len()]);
            }
            let _ = catch_unwind(AssertUnwindSafe(|| parse_qasm(&widened))).unwrap_or_else(|_| {
                panic!(
                    "{}: parser panicked on multi-byte input:\n{widened}",
                    b.name
                )
            });
        }
    }
}
