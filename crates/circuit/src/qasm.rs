//! A pragmatic OpenQASM 2 subset: printing and parsing.
//!
//! Supports a single quantum register, the gate vocabulary of
//! [`GateKind`], and angle expressions over `pi`, numeric literals,
//! `* / + -` and parentheses — enough to exchange the evaluation
//! benchmarks with other toolchains.

use crate::circuit::Circuit;
use crate::gate::{Angle, GateKind};
use std::fmt;

/// An error produced while parsing QASM text.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseQasmError {
    line: usize,
    message: String,
}

impl ParseQasmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseQasmError {
            line,
            message: message.into(),
        }
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseQasmError {}

/// Serializes a circuit as OpenQASM 2 text.
///
/// # Examples
///
/// ```
/// use paqoc_circuit::{to_qasm, Circuit};
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let text = to_qasm(&c);
/// assert!(text.contains("cx q[0],q[1];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    for inst in circuit.iter() {
        let name = inst.gate().name();
        if inst.params().is_empty() {
            out.push_str(name);
        } else {
            let ps: Vec<String> = inst
                .params()
                .iter()
                .map(|a| format!("{:.12}", a.value))
                .collect();
            out.push_str(&format!("{name}({})", ps.join(",")));
        }
        let qs: Vec<String> = inst.qubits().iter().map(|q| format!("q[{q}]")).collect();
        out.push_str(&format!(" {};\n", qs.join(",")));
    }
    out
}

/// Parses OpenQASM 2 text into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on unknown gates, malformed operands,
/// missing register declarations or arity mismatches.
///
/// # Examples
///
/// ```
/// use paqoc_circuit::parse_qasm;
/// let c = parse_qasm(
///     "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nrz(pi/4) q[1];",
/// )?;
/// assert_eq!(c.len(), 3);
/// # Ok::<(), paqoc_circuit::ParseQasmError>(())
/// ```
pub fn parse_qasm(text: &str) -> Result<Circuit, ParseQasmError> {
    let mut circuit: Option<Circuit> = None;
    for (lineno, raw_line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("qreg") {
                let n = parse_reg_size(rest.trim())
                    .ok_or_else(|| ParseQasmError::new(lineno, "malformed qreg"))?;
                circuit = Some(Circuit::new(n));
                continue;
            }
            if stmt.starts_with("creg")
                || stmt.starts_with("barrier")
                || stmt.starts_with("measure")
            {
                continue; // classical bookkeeping: ignored by the IR
            }
            let circ = circuit
                .as_mut()
                .ok_or_else(|| ParseQasmError::new(lineno, "gate before qreg"))?;
            parse_gate_statement(stmt, circ, lineno)?;
        }
    }
    circuit.ok_or_else(|| ParseQasmError::new(0, "no qreg declaration found"))
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Parses `q[5]` (after `qreg`) into 5.
fn parse_reg_size(s: &str) -> Option<usize> {
    let open = s.find('[')?;
    // Search for the `]` only *after* the `[`: on garbage like `]q[`
    // an independent find would produce a reversed (panicking) range.
    let close = open + s[open..].find(']')?;
    s[open + 1..close].trim().parse().ok()
}

fn parse_gate_statement(
    stmt: &str,
    circuit: &mut Circuit,
    lineno: usize,
) -> Result<(), ParseQasmError> {
    // Split "name(params) operands" into head and operand list.
    let (head, operands) = match stmt.find(|c: char| c.is_whitespace()) {
        Some(pos)
            if stmt[..pos].find('(').is_none_or(|p| {
                // make sure we split after a balanced parameter list
                stmt[p..pos].contains(')')
            }) =>
        {
            (&stmt[..pos], stmt[pos..].trim())
        }
        _ => {
            // Parameters may contain spaces: split at the ')' if present.
            match stmt.find(')') {
                Some(p) => (stmt[..=p].trim(), stmt[p + 1..].trim()),
                None => {
                    return Err(ParseQasmError::new(
                        lineno,
                        format!("malformed statement: {stmt}"),
                    ))
                }
            }
        }
    };

    let (name, params) = match head.find('(') {
        Some(p) => {
            let close = head
                .rfind(')')
                .ok_or_else(|| ParseQasmError::new(lineno, "unclosed parameter list"))?;
            let plist = &head[p + 1..close];
            let params: Result<Vec<Angle>, ParseQasmError> = plist
                .split(',')
                .map(|e| match parse_angle_expr(e.trim()) {
                    // `1/0`, `0/0` and `1e400` evaluate, but to no angle.
                    Some(v) if !v.is_finite() => Err(ParseQasmError::new(
                        lineno,
                        format!("angle {} is not finite", e.trim()),
                    )),
                    Some(v) => Ok(Angle::new(v)),
                    None => Err(ParseQasmError::new(
                        lineno,
                        format!("bad angle expression: {e}"),
                    )),
                })
                .collect();
            (&head[..p], params?)
        }
        None => (head, Vec::new()),
    };

    let kind = GateKind::from_name(name)
        .ok_or_else(|| ParseQasmError::new(lineno, format!("unknown gate: {name}")))?;

    let qubits: Result<Vec<usize>, ParseQasmError> = operands
        .split(',')
        .map(|op| {
            let op = op.trim();
            let open = op.find('[');
            // `]` must come after the `[` (see parse_reg_size).
            let close = open.and_then(|o| op[o..].find(']').map(|c| o + c));
            match (open, close) {
                (Some(o), Some(c)) => op[o + 1..c]
                    .trim()
                    .parse()
                    .map_err(|_| ParseQasmError::new(lineno, format!("bad qubit index: {op}"))),
                _ => Err(ParseQasmError::new(lineno, format!("bad operand: {op}"))),
            }
        })
        .collect();
    let qubits = qubits?;

    if qubits.len() != kind.num_qubits() {
        return Err(ParseQasmError::new(
            lineno,
            format!(
                "{name} expects {} qubit(s), got {}",
                kind.num_qubits(),
                qubits.len()
            ),
        ));
    }
    if params.len() != kind.num_params() {
        return Err(ParseQasmError::new(
            lineno,
            format!(
                "{name} expects {} parameter(s), got {}",
                kind.num_params(),
                params.len()
            ),
        ));
    }
    // Validate here rather than letting `Circuit::push` assert: the
    // parser's contract is a typed error on any malformed input.
    for (i, &q) in qubits.iter().enumerate() {
        if q >= circuit.num_qubits() {
            return Err(ParseQasmError::new(
                lineno,
                format!(
                    "qubit index {q} out of range for {}-qubit register",
                    circuit.num_qubits()
                ),
            ));
        }
        if qubits[..i].contains(&q) {
            return Err(ParseQasmError::new(
                lineno,
                format!("duplicate qubit operand q[{q}] in {name}"),
            ));
        }
    }
    circuit.apply(kind, qubits, params);
    Ok(())
}

/// Evaluates an angle expression: numbers, `pi`, `+ - * /`, parentheses.
fn parse_angle_expr(expr: &str) -> Option<f64> {
    let tokens = tokenize(expr)?;
    let mut pos = 0;
    let v = parse_sum(&tokens, &mut pos)?;
    if pos == tokens.len() {
        Some(v)
    } else {
        None
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Num(f64),
    Op(char),
}

fn tokenize(s: &str) -> Option<Vec<Tok>> {
    let mut out = Vec::new();
    let chars: Vec<char> = s.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_digit() || c == '.' {
            let start = i;
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || chars[i] == '.'
                    || chars[i] == 'e'
                    || chars[i] == 'E'
                    || ((chars[i] == '+' || chars[i] == '-') && matches!(chars[i - 1], 'e' | 'E')))
            {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.push(Tok::Num(text.parse().ok()?));
        } else if chars[i..].starts_with(&['p', 'i']) {
            out.push(Tok::Num(std::f64::consts::PI));
            i += 2;
        } else if "+-*/()".contains(c) {
            out.push(Tok::Op(c));
            i += 1;
        } else {
            return None;
        }
    }
    Some(out)
}

fn parse_sum(toks: &[Tok], pos: &mut usize) -> Option<f64> {
    let mut acc = parse_product(toks, pos)?;
    while let Some(Tok::Op(op @ ('+' | '-'))) = toks.get(*pos) {
        let op = *op;
        *pos += 1;
        let rhs = parse_product(toks, pos)?;
        if op == '+' {
            acc += rhs;
        } else {
            acc -= rhs;
        }
    }
    Some(acc)
}

fn parse_product(toks: &[Tok], pos: &mut usize) -> Option<f64> {
    let mut acc = parse_atom(toks, pos)?;
    while let Some(Tok::Op(op @ ('*' | '/'))) = toks.get(*pos) {
        let op = *op;
        *pos += 1;
        let rhs = parse_atom(toks, pos)?;
        if op == '*' {
            acc *= rhs;
        } else {
            acc /= rhs;
        }
    }
    Some(acc)
}

fn parse_atom(toks: &[Tok], pos: &mut usize) -> Option<f64> {
    match toks.get(*pos)? {
        Tok::Num(v) => {
            *pos += 1;
            Some(*v)
        }
        Tok::Op('-') => {
            *pos += 1;
            Some(-parse_atom(toks, pos)?)
        }
        Tok::Op('+') => {
            *pos += 1;
            parse_atom(toks, pos)
        }
        Tok::Op('(') => {
            *pos += 1;
            let v = parse_sum(toks, pos)?;
            match toks.get(*pos) {
                Some(Tok::Op(')')) => {
                    *pos += 1;
                    Some(v)
                }
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_math::trace_fidelity;
    use std::f64::consts::PI;

    #[test]
    fn roundtrip_preserves_circuit() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(2, 0.725).ccx(0, 1, 2).cp(1, 2, PI / 8.0);
        let text = to_qasm(&c);
        let parsed = parse_qasm(&text).expect("roundtrip parse");
        assert_eq!(parsed.num_qubits(), 3);
        assert_eq!(parsed.len(), c.len());
        let f = trace_fidelity(&c.unitary(), &parsed.unitary());
        assert!(f > 1.0 - 1e-10);
    }

    #[test]
    fn parses_pi_expressions() {
        let c =
            parse_qasm("qreg q[1]; rz(pi/4) q[0]; rz(-pi) q[0]; rz(3*pi/2) q[0];").expect("parse");
        let vals: Vec<f64> = c.iter().map(|i| i.params()[0].value).collect();
        assert!((vals[0] - PI / 4.0).abs() < 1e-12);
        assert!((vals[1] + PI).abs() < 1e-12);
        assert!((vals[2] - 3.0 * PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn parses_parenthesized_arithmetic() {
        let c = parse_qasm("qreg q[1]; rz((1+2)*pi/(2-0.5)) q[0];").expect("parse");
        assert!((c.instructions()[0].params()[0].value - 3.0 * PI / 1.5).abs() < 1e-12);
    }

    #[test]
    fn ignores_comments_and_classical_statements() {
        let src = "OPENQASM 2.0;\n// a comment\nqreg q[2];\ncreg c[2];\nh q[0]; // trailing\nmeasure q[0];\n";
        let c = parse_qasm(src).expect("parse");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn unknown_gate_is_an_error() {
        let err = parse_qasm("qreg q[1];\nfoo q[0];").unwrap_err();
        assert!(err.to_string().contains("unknown gate"));
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let err = parse_qasm("qreg q[2];\ncx q[0];").unwrap_err();
        assert!(err.to_string().contains("expects 2 qubit"));
    }

    #[test]
    fn reversed_brackets_are_an_error_not_a_panic() {
        // `]` before `[` used to build a reversed slice range and panic.
        assert!(parse_qasm("qreg ]q[;").is_err());
        assert!(parse_qasm("qreg q[2];\nh ]q[0;").is_err());
        assert!(parse_qasm("qreg q[2];\ncx q]0[, q[1];").is_err());
    }

    /// Runs `f` on a worker thread and fails the test if it has not
    /// returned within 10 s, so a hang regression fails instead of
    /// stalling the suite. A hung worker cannot be joined; it ends with
    /// the test process.
    fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(value) => {
                worker.join().expect("the worker exits after sending");
                value
            }
            Err(RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
                worker
                    .join()
                    .expect_err("a worker that sent nothing panicked"),
            ),
            Err(RecvTimeoutError::Timeout) => panic!("did not return within 10 s"),
        }
    }

    #[test]
    fn non_finite_angles_are_errors_with_their_line() {
        for (gate, angle) in [
            ("rz", "1/0"),
            ("rz", "1e400"),
            ("rz", "0/0"),
            ("rz", "-1/0"),
            ("rxx", "1/0"),
        ] {
            let qubits = if gate == "rxx" { "q[0],q[1]" } else { "q[0]" };
            let src = format!("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n{gate}({angle}) {qubits};\n");
            let err = within_watchdog(move || parse_qasm(&src)).unwrap_err();
            assert_eq!(err.line(), 4, "{gate}({angle})");
            assert!(
                err.to_string().contains("not finite"),
                "{gate}({angle}): {err}"
            );
        }
        // Large but finite angles still parse.
        let c = parse_qasm("qreg q[1];\nrz(1e300) q[0];").expect("finite");
        assert_eq!(c.instructions()[0].params()[0].value, 1e300);
    }

    #[test]
    fn gate_before_qreg_is_an_error() {
        let err = parse_qasm("h q[0];").unwrap_err();
        assert!(err.to_string().contains("gate before qreg"));
    }

    #[test]
    fn out_of_range_and_duplicate_operands_are_errors_not_panics() {
        // Both used to fall through to Circuit's asserts and abort.
        let err = parse_qasm("qreg q[2];\nh q[2];").unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = parse_qasm("qreg q[3];\ncx q[1], q[1];").unwrap_err();
        assert!(err.to_string().contains("duplicate qubit"), "{err}");
    }

    #[test]
    fn unicode_whitespace_in_an_angle_parses_like_a_space() {
        // Unicode spaces are whitespace but not one byte long: the
        // tokenizer's char index must not be used as a byte offset.
        let angle = |expr: &str| {
            let c = parse_qasm(&format!("OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];"))
                .unwrap_or_else(|e| panic!("{expr:?}: {e}"));
            c.instructions()[0].params()[0].value
        };
        for expr in ["1 + pi", "pi / 2", "2 * pi - 1", "-pi + 0.5", "3 *pi"] {
            for ws in ["\u{3000}", "\u{a0}", "\u{3000}\u{a0}"] {
                let wide = expr.replace(' ', ws);
                assert_eq!(angle(&wide).to_bits(), angle(expr).to_bits(), "{wide:?}");
            }
        }
        assert!(parse_qasm("qreg q[1];\nrz(\u{3c0}) q[0];").is_err());
        assert!(parse_qasm("qreg q[1];\nrz(1\u{3000}\u{3c0}) q[0];").is_err());
    }

    #[test]
    fn cnot_alias_is_accepted() {
        let c = parse_qasm("qreg q[2]; cnot q[0],q[1];").expect("parse");
        assert_eq!(c.instructions()[0].gate(), GateKind::Cx);
    }
}
