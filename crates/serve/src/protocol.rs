//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is a 4-byte **big-endian** length prefix followed by
//! exactly that many bytes of UTF-8 JSON (the hand-rolled
//! [`paqoc_telemetry::json`] dialect — objects, arrays, strings,
//! numbers, booleans, null). The parser is deliberately strict:
//!
//! * The advertised length is validated against a hard cap **before any
//!   allocation** — a hostile client advertising a 4 GiB frame is
//!   rejected with [`FrameError::TooLarge`] without the server ever
//!   reserving a byte for it.
//! * A clean EOF on a frame boundary is a normal close
//!   ([`read_frame`] returns `Ok(None)`); EOF anywhere inside a frame
//!   is [`FrameError::Truncated`].
//! * Payloads that are not valid JSON, or JSON that is not a valid
//!   request, are typed errors — never panics.
//!
//! Requests carry an `id` the server echoes back, so a client can
//! pipeline. Responses carry a `status` discriminant; compile results
//! distinguish `"ok"` from `"degraded"` (valid result, concessions
//! made) and every [`Degradation`] crosses the wire as a typed object
//! (`{"kind": "store_read_only", ...}`) with full-fidelity decode.

use paqoc_core::Degradation;
use paqoc_telemetry::json::{parse, Value};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Default hard cap on a frame's payload size (1 MiB). Far above any
/// legitimate request — the 17-benchmark corpus serializes in tens of
/// kilobytes — and far below anything that could hurt the server.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Longest accepted tenant name.
pub const MAX_TENANT_LEN: usize = 64;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The advertised payload length exceeds the cap. Detected before
    /// any allocation.
    TooLarge {
        /// The length the prefix advertised.
        advertised: u64,
        /// The configured cap.
        cap: u64,
    },
    /// The peer closed the connection mid-frame.
    Truncated {
        /// Bytes the frame still owed when the stream ended.
        missing: usize,
    },
    /// An underlying socket error (including read timeouts).
    Io(std::io::Error),
    /// The payload is not valid JSON.
    BadJson(String),
    /// The payload is JSON but not a valid message.
    BadRequest(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { advertised, cap } => {
                write!(f, "frame of {advertised} bytes exceeds the {cap}-byte cap")
            }
            FrameError::Truncated { missing } => {
                write!(f, "stream ended {missing} bytes short of the frame")
            }
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::BadJson(msg) => write!(f, "payload is not valid JSON: {msg}"),
            FrameError::BadRequest(msg) => write!(f, "invalid message: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// A stable machine-readable tag for this error (the `kind` field
    /// of an error response).
    pub fn kind(&self) -> &'static str {
        match self {
            FrameError::TooLarge { .. } => "frame_too_large",
            FrameError::Truncated { .. } => "truncated",
            FrameError::Io(_) => "io",
            FrameError::BadJson(_) => "bad_json",
            FrameError::BadRequest(_) => "bad_request",
        }
    }
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean close (EOF
/// exactly on a frame boundary); everything else that is not a complete
/// frame within `max_bytes` is a typed [`FrameError`]. The advertised
/// length is checked against `max_bytes` **before** the payload buffer
/// is allocated.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(FrameError::Truncated { missing: 4 - got });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_bytes {
        return Err(FrameError::TooLarge {
            advertised: len as u64,
            cap: max_bytes as u64,
        });
    }
    if len == 0 {
        return Err(FrameError::BadRequest("empty frame".to_string()));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    missing: len - filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// Writes one length-prefixed frame. Fails (without writing) when the
/// payload exceeds `max_bytes` or `u32::MAX`.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_bytes: usize) -> Result<(), FrameError> {
    if payload.len() > max_bytes || payload.len() > u32::MAX as usize {
        return Err(FrameError::TooLarge {
            advertised: payload.len() as u64,
            cap: max_bytes.min(u32::MAX as usize) as u64,
        });
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// A connected TCP or unix-domain socket: the one stream type frames
/// travel over, at the client and at the server.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

/// Calls the same method on whichever socket a [`Stream`] holds.
macro_rules! on_socket {
    ($stream:expr, $s:ident => $call:expr) => {
        match $stream {
            Stream::Tcp($s) => $call,
            #[cfg(unix)]
            Stream::Uds($s) => $call,
        }
    };
}

impl Stream {
    /// Sets how long one read may wait.
    pub(crate) fn set_read_timeout(&self, read: Duration) -> std::io::Result<()> {
        on_socket!(self, s => s.set_read_timeout(Some(read)))
    }

    /// Sets how long one write may wait.
    pub(crate) fn set_write_timeout(&self, write: Duration) -> std::io::Result<()> {
        on_socket!(self, s => s.set_write_timeout(Some(write)))
    }

    /// A second handle to the same socket.
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Uds(s) => s.try_clone().map(Stream::Uds),
        }
    }

    /// Shuts the socket's read half, write half or both, for every
    /// handle to it.
    pub(crate) fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        on_socket!(self, s => s.shutdown(how))
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        on_socket!(self, s => s.read(buf))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        on_socket!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        on_socket!(self, s => s.flush())
    }
}

/// What a request asks the server to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Compile a benchmark or inline QASM circuit.
    Compile,
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Server counters snapshot; answered inline.
    Stats,
    /// Ask the server to drain and exit (the remote SIGTERM).
    Drain,
}

impl Op {
    fn as_str(self) -> &'static str {
        match self {
            Op::Compile => "compile",
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Drain => "drain",
        }
    }

    fn parse(s: &str) -> Option<Op> {
        match s {
            "compile" => Some(Op::Compile),
            "ping" => Some(Op::Ping),
            "stats" => Some(Op::Stats),
            "drain" => Some(Op::Drain),
            _ => None,
        }
    }
}

/// Which pipeline preset a compile request runs under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConfigPreset {
    /// `paqoc(M=0)` — no APA basis (the cheap default).
    #[default]
    M0,
    /// `paqoc(M=tuned)`.
    Tuned,
    /// `paqoc(M=inf)`.
    Inf,
}

impl ConfigPreset {
    /// The wire name of this preset.
    pub fn as_str(self) -> &'static str {
        match self {
            ConfigPreset::M0 => "m0",
            ConfigPreset::Tuned => "tuned",
            ConfigPreset::Inf => "inf",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<ConfigPreset> {
        match s {
            "m0" => Some(ConfigPreset::M0),
            "tuned" => Some(ConfigPreset::Tuned),
            "inf" => Some(ConfigPreset::Inf),
            _ => None,
        }
    }
}

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What to do.
    pub op: Op,
    /// Tenant the request bills its queue slot to.
    pub tenant: String,
    /// Name of a Table-I benchmark to compile (exclusive with `qasm`).
    pub benchmark: Option<String>,
    /// Inline OpenQASM 2 source to compile (exclusive with `benchmark`).
    pub qasm: Option<String>,
    /// End-to-end budget in milliseconds, queue time included.
    pub deadline_ms: Option<u64>,
    /// Scheduling priority within the tenant (higher first).
    pub priority: f64,
    /// Pipeline preset.
    pub config: ConfigPreset,
    /// Device backend to compile for (a `paqoc-backend` registry
    /// name). `None` uses the server's default backend.
    pub backend: Option<String>,
}

impl Request {
    /// A compile request for a named benchmark.
    pub fn compile(id: u64, tenant: &str, benchmark: &str) -> Request {
        Request {
            id,
            op: Op::Compile,
            tenant: tenant.to_string(),
            benchmark: Some(benchmark.to_string()),
            qasm: None,
            deadline_ms: None,
            priority: 0.0,
            config: ConfigPreset::M0,
            backend: None,
        }
    }

    /// A bare control request (`ping` / `stats` / `drain`).
    pub fn control(id: u64, op: Op) -> Request {
        Request {
            id,
            op,
            tenant: "default".to_string(),
            benchmark: None,
            qasm: None,
            deadline_ms: None,
            priority: 0.0,
            config: ConfigPreset::M0,
            backend: None,
        }
    }
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key)?.as_num().filter(|n| *n >= 0.0).map(|n| n as u64)
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key)?.as_num()
}

fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key)?.as_str()
}

/// Serializes a request to its wire JSON bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut pairs = vec![
        ("id", Value::from(req.id)),
        ("op", Value::from(req.op.as_str())),
        ("tenant", Value::from(req.tenant.as_str())),
        ("config", Value::from(req.config.as_str())),
    ];
    if let Some(b) = &req.benchmark {
        pairs.push(("benchmark", Value::from(b.as_str())));
    }
    if let Some(q) = &req.qasm {
        pairs.push(("qasm", Value::from(q.as_str())));
    }
    if let Some(d) = req.deadline_ms {
        pairs.push(("deadline_ms", Value::from(d)));
    }
    if req.priority != 0.0 {
        pairs.push(("priority", Value::from(req.priority)));
    }
    if let Some(b) = &req.backend {
        pairs.push(("backend", Value::from(b.as_str())));
    }
    Value::object(pairs).to_json().into_bytes()
}

/// `true` when every character is fit for a tenant name: printable
/// ASCII with no quotes or control characters, so names survive logs,
/// JSON and file paths without surprises.
fn tenant_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_LEN
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
}

/// Decodes and validates a request from wire bytes.
pub fn decode_request(bytes: &[u8]) -> Result<Request, FrameError> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| FrameError::BadJson(format!("not UTF-8: {e}")))?;
    let v = parse(text).map_err(|e| FrameError::BadJson(e.to_string()))?;
    if !matches!(v, Value::Obj(_)) {
        return Err(FrameError::BadRequest("request must be an object".into()));
    }
    let op_name =
        get_str(&v, "op").ok_or_else(|| FrameError::BadRequest("missing op".to_string()))?;
    let op = Op::parse(op_name)
        .ok_or_else(|| FrameError::BadRequest(format!("unknown op {op_name:?}")))?;
    let id = get_u64(&v, "id").unwrap_or(0);
    let tenant = get_str(&v, "tenant").unwrap_or("default").to_string();
    if !tenant_name_ok(&tenant) {
        return Err(FrameError::BadRequest(format!(
            "invalid tenant name ({} chars; [A-Za-z0-9._:-] only, max {MAX_TENANT_LEN})",
            tenant.len()
        )));
    }
    let benchmark = get_str(&v, "benchmark").map(str::to_string);
    let qasm = get_str(&v, "qasm").map(str::to_string);
    if op == Op::Compile && benchmark.is_none() == qasm.is_none() {
        return Err(FrameError::BadRequest(
            "compile needs exactly one of benchmark or qasm".to_string(),
        ));
    }
    let config = match get_str(&v, "config") {
        None => ConfigPreset::M0,
        Some(name) => ConfigPreset::parse(name)
            .ok_or_else(|| FrameError::BadRequest(format!("unknown config {name:?}")))?,
    };
    let priority = get_f64(&v, "priority").unwrap_or(0.0);
    if !priority.is_finite() {
        return Err(FrameError::BadRequest(
            "priority must be finite".to_string(),
        ));
    }
    let backend = get_str(&v, "backend").map(str::to_string);
    if let Some(b) = &backend {
        // Same shape rules as tenant names: backend names reach logs,
        // store paths and telemetry labels.
        if !tenant_name_ok(b) {
            return Err(FrameError::BadRequest(format!(
                "invalid backend name ({} chars; [A-Za-z0-9._:-] only, max {MAX_TENANT_LEN})",
                b.len()
            )));
        }
    }
    Ok(Request {
        id,
        op,
        tenant,
        benchmark,
        qasm,
        deadline_ms: get_u64(&v, "deadline_ms"),
        priority,
        config,
        backend,
    })
}

/// The deadline accounting echoed with a compile reply, so a client can
/// see where its budget went.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Budget {
    /// The end-to-end budget the request carried.
    pub deadline_ms: u64,
    /// Milliseconds spent queued before a worker picked the request up.
    pub queue_ms: u64,
    /// Milliseconds of budget left when compilation started (what
    /// `PipelineOptions::deadline` received).
    pub remaining_ms: u64,
}

/// A successful (possibly degraded) compile result on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileReply {
    /// What was compiled (benchmark name, or `"qasm"` for inline source).
    pub benchmark: String,
    /// Whole-circuit pulse latency, nanoseconds.
    pub latency_ns: f64,
    /// Whole-circuit pulse latency in device cycles.
    pub latency_dt: u64,
    /// Estimated success probability.
    pub esp: f64,
    /// `true` when a deadline or budget cut pulse work short.
    pub partial: bool,
    /// Pulses actually generated (table misses).
    pub pulses_generated: u64,
    /// Pulse-table hits (includes `store_hits`).
    pub cache_hits: u64,
    /// Hits served from the persistent store.
    pub store_hits: u64,
    /// Synthetic pulse-generation cost spent.
    pub cost_units: f64,
    /// Every concession the compilation made, typed.
    pub degradations: Vec<Degradation>,
    /// Milliseconds the request waited in the admission queue.
    pub queue_ms: u64,
    /// Milliseconds the compilation itself took.
    pub compile_ms: u64,
    /// Deadline accounting, when the request carried a deadline.
    pub budget: Option<Budget>,
}

impl CompileReply {
    /// `true` when the result is valid but made concessions — the wire
    /// status is then `"degraded"` instead of `"ok"`.
    pub fn degraded(&self) -> bool {
        self.partial || !self.degradations.is_empty()
    }
}

/// Server counters, answered by the `stats` op.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Requests admitted to the queue since start.
    pub accepted: u64,
    /// Admitted requests answered with a compile result or error.
    pub completed: u64,
    /// Admitted requests shed (expired in queue, or drain).
    pub shed: u64,
    /// Requests rejected at admission with `overloaded`.
    pub overloaded: u64,
    /// Requests rejected because the server was draining.
    pub draining_rejects: u64,
    /// Frames that failed to parse.
    pub bad_frames: u64,
    /// Requests currently queued.
    pub queue_depth: u64,
    /// Requests currently compiling.
    pub active: u64,
    /// Tenants with queued work.
    pub tenants: u64,
    /// Entries in the shared pulse table.
    pub table_len: u64,
    /// `true` once drain has begun.
    pub draining: bool,
    /// Persistent-store condition: `"writer"`, `"read-only"`,
    /// `"unavailable"` or `"none"`.
    pub store: String,
}

/// Everything the server can answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A compile result (wire status `"ok"` or `"degraded"`).
    Ok(CompileReply),
    /// Rejected at admission: a queue is full.
    Overloaded {
        /// Which limit tripped (`"tenant"`, `"queue"`, `"tenants"`).
        scope: String,
        /// Depth of the full queue.
        depth: u64,
        /// Its capacity.
        cap: u64,
    },
    /// Rejected or shed because the server is draining.
    Draining,
    /// Shed before compilation: the deadline expired in the queue.
    Expired {
        /// Milliseconds the request sat queued.
        queue_ms: u64,
        /// The budget it carried.
        deadline_ms: u64,
    },
    /// The request failed outright.
    Error {
        /// Machine-readable error tag ([`FrameError::kind`] or
        /// `CompileError::kind`).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to `ping`.
    Pong {
        /// `true` once drain has begun.
        draining: bool,
    },
    /// Answer to `stats`.
    Stats(ServerStats),
}

impl Response {
    /// The wire `status` discriminant.
    pub fn status(&self) -> &'static str {
        match self {
            Response::Ok(r) if r.degraded() => "degraded",
            Response::Ok(_) => "ok",
            Response::Overloaded { .. } => "overloaded",
            Response::Draining => "draining",
            Response::Expired { .. } => "expired",
            Response::Error { .. } => "error",
            Response::Pong { .. } => "pong",
            Response::Stats(_) => "stats",
        }
    }
}

/// Serializes one [`Degradation`] as a typed wire object. Every variant
/// round-trips through [`degradation_from_value`] without loss.
pub fn degradation_to_value(d: &Degradation) -> Value {
    let mut pairs: Vec<(&str, Value)> = vec![("kind", Value::from(d.kind()))];
    match d {
        Degradation::MergeRolledBack {
            gates,
            qubits,
            reason,
        } => {
            pairs.push(("gates", Value::from(*gates as u64)));
            pairs.push(("qubits", Value::from(*qubits as u64)));
            pairs.push(("reason", Value::from(reason.as_str())));
        }
        Degradation::EstimatorFallback { gates, reason } => {
            pairs.push(("gates", Value::from(*gates as u64)));
            pairs.push(("reason", Value::from(reason.as_str())));
        }
        Degradation::DeadlineHit { phase } => pairs.push(("phase", Value::from(phase.as_str()))),
        Degradation::SourcePanic { gates, message } => {
            pairs.push(("gates", Value::from(*gates as u64)));
            pairs.push(("message", Value::from(message.as_str())));
        }
        Degradation::StoreUnavailable { reason } | Degradation::StoreReadOnly { reason } => {
            pairs.push(("reason", Value::from(reason.as_str())));
        }
    }
    Value::object(pairs)
}

/// Decodes a typed degradation object (inverse of
/// [`degradation_to_value`]). `None` for unknown kinds or missing
/// fields — forward compatibility, not an error.
pub fn degradation_from_value(v: &Value) -> Option<Degradation> {
    let reason = || get_str(v, "reason").unwrap_or("").to_string();
    match get_str(v, "kind")? {
        "merge_rolled_back" => Some(Degradation::MergeRolledBack {
            gates: get_u64(v, "gates")? as usize,
            qubits: get_u64(v, "qubits")? as usize,
            reason: reason(),
        }),
        "estimator_fallback" => Some(Degradation::EstimatorFallback {
            gates: get_u64(v, "gates")? as usize,
            reason: reason(),
        }),
        "deadline_hit" => Some(Degradation::DeadlineHit {
            phase: get_str(v, "phase")?.to_string(),
        }),
        "source_panic" => Some(Degradation::SourcePanic {
            gates: get_u64(v, "gates")? as usize,
            message: get_str(v, "message")?.to_string(),
        }),
        "store_unavailable" => Some(Degradation::StoreUnavailable { reason: reason() }),
        "store_read_only" => Some(Degradation::StoreReadOnly { reason: reason() }),
        _ => None,
    }
}

/// Serializes a response (echoing `id`) to its wire JSON bytes.
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    let mut pairs: Vec<(&str, Value)> = vec![
        ("id", Value::from(id)),
        ("status", Value::from(resp.status())),
    ];
    match resp {
        Response::Ok(r) => {
            pairs.push(("benchmark", Value::from(r.benchmark.as_str())));
            pairs.push(("latency_ns", Value::from(r.latency_ns)));
            pairs.push(("latency_dt", Value::from(r.latency_dt)));
            pairs.push(("esp", Value::from(r.esp)));
            pairs.push(("partial", Value::Bool(r.partial)));
            pairs.push(("pulses_generated", Value::from(r.pulses_generated)));
            pairs.push(("cache_hits", Value::from(r.cache_hits)));
            pairs.push(("store_hits", Value::from(r.store_hits)));
            pairs.push(("cost_units", Value::from(r.cost_units)));
            pairs.push((
                "degradations",
                Value::Arr(r.degradations.iter().map(degradation_to_value).collect()),
            ));
            pairs.push(("queue_ms", Value::from(r.queue_ms)));
            pairs.push(("compile_ms", Value::from(r.compile_ms)));
            if let Some(b) = r.budget {
                pairs.push((
                    "budget",
                    Value::object(vec![
                        ("deadline_ms", Value::from(b.deadline_ms)),
                        ("queue_ms", Value::from(b.queue_ms)),
                        ("remaining_ms", Value::from(b.remaining_ms)),
                    ]),
                ));
            }
        }
        Response::Overloaded { scope, depth, cap } => {
            pairs.push(("scope", Value::from(scope.as_str())));
            pairs.push(("depth", Value::from(*depth)));
            pairs.push(("cap", Value::from(*cap)));
        }
        Response::Draining => {}
        Response::Expired {
            queue_ms,
            deadline_ms,
        } => {
            pairs.push(("queue_ms", Value::from(*queue_ms)));
            pairs.push(("deadline_ms", Value::from(*deadline_ms)));
        }
        Response::Error { kind, message } => {
            pairs.push(("kind", Value::from(kind.as_str())));
            pairs.push(("message", Value::from(message.as_str())));
        }
        Response::Pong { draining } => pairs.push(("draining", Value::Bool(*draining))),
        Response::Stats(st) => {
            pairs.push(("accepted", Value::from(st.accepted)));
            pairs.push(("completed", Value::from(st.completed)));
            pairs.push(("shed", Value::from(st.shed)));
            pairs.push(("overloaded", Value::from(st.overloaded)));
            pairs.push(("draining_rejects", Value::from(st.draining_rejects)));
            pairs.push(("bad_frames", Value::from(st.bad_frames)));
            pairs.push(("queue_depth", Value::from(st.queue_depth)));
            pairs.push(("active", Value::from(st.active)));
            pairs.push(("tenants", Value::from(st.tenants)));
            pairs.push(("table_len", Value::from(st.table_len)));
            pairs.push(("draining", Value::Bool(st.draining)));
            pairs.push(("store", Value::from(st.store.as_str())));
        }
    }
    Value::object(pairs).to_json().into_bytes()
}

/// Decodes a response from wire bytes, returning the echoed id with it.
pub fn decode_response(bytes: &[u8]) -> Result<(u64, Response), FrameError> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| FrameError::BadJson(format!("not UTF-8: {e}")))?;
    let v = parse(text).map_err(|e| FrameError::BadJson(e.to_string()))?;
    let id = get_u64(&v, "id").unwrap_or(0);
    let status = get_str(&v, "status")
        .ok_or_else(|| FrameError::BadRequest("missing status".to_string()))?;
    let missing = |f: &str| FrameError::BadRequest(format!("{status} response missing {f}"));
    let resp = match status {
        "ok" | "degraded" => {
            let degradations = v
                .get("degradations")
                .and_then(Value::as_arr)
                .map(|items| items.iter().filter_map(degradation_from_value).collect())
                .unwrap_or_default();
            let budget = v.get("budget").and_then(|b| {
                Some(Budget {
                    deadline_ms: get_u64(b, "deadline_ms")?,
                    queue_ms: get_u64(b, "queue_ms")?,
                    remaining_ms: get_u64(b, "remaining_ms")?,
                })
            });
            Response::Ok(CompileReply {
                benchmark: get_str(&v, "benchmark").unwrap_or("").to_string(),
                latency_ns: get_f64(&v, "latency_ns").ok_or_else(|| missing("latency_ns"))?,
                latency_dt: get_u64(&v, "latency_dt").unwrap_or(0),
                esp: get_f64(&v, "esp").unwrap_or(0.0),
                partial: v.get("partial").and_then(Value::as_bool).unwrap_or(false),
                pulses_generated: get_u64(&v, "pulses_generated").unwrap_or(0),
                cache_hits: get_u64(&v, "cache_hits").unwrap_or(0),
                store_hits: get_u64(&v, "store_hits").unwrap_or(0),
                cost_units: get_f64(&v, "cost_units").unwrap_or(0.0),
                degradations,
                queue_ms: get_u64(&v, "queue_ms").unwrap_or(0),
                compile_ms: get_u64(&v, "compile_ms").unwrap_or(0),
                budget,
            })
        }
        "overloaded" => Response::Overloaded {
            scope: get_str(&v, "scope").unwrap_or("queue").to_string(),
            depth: get_u64(&v, "depth").unwrap_or(0),
            cap: get_u64(&v, "cap").unwrap_or(0),
        },
        "draining" => Response::Draining,
        "expired" => Response::Expired {
            queue_ms: get_u64(&v, "queue_ms").unwrap_or(0),
            deadline_ms: get_u64(&v, "deadline_ms").unwrap_or(0),
        },
        "error" => Response::Error {
            kind: get_str(&v, "kind").unwrap_or("unknown").to_string(),
            message: get_str(&v, "message").unwrap_or("").to_string(),
        },
        "pong" => Response::Pong {
            draining: v.get("draining").and_then(Value::as_bool).unwrap_or(false),
        },
        "stats" => Response::Stats(ServerStats {
            accepted: get_u64(&v, "accepted").unwrap_or(0),
            completed: get_u64(&v, "completed").unwrap_or(0),
            shed: get_u64(&v, "shed").unwrap_or(0),
            overloaded: get_u64(&v, "overloaded").unwrap_or(0),
            draining_rejects: get_u64(&v, "draining_rejects").unwrap_or(0),
            bad_frames: get_u64(&v, "bad_frames").unwrap_or(0),
            queue_depth: get_u64(&v, "queue_depth").unwrap_or(0),
            active: get_u64(&v, "active").unwrap_or(0),
            tenants: get_u64(&v, "tenants").unwrap_or(0),
            table_len: get_u64(&v, "table_len").unwrap_or(0),
            draining: v.get("draining").and_then(Value::as_bool).unwrap_or(false),
            store: get_str(&v, "store").unwrap_or("none").to_string(),
        }),
        other => {
            return Err(FrameError::BadRequest(format!("unknown status {other:?}")));
        }
    };
    Ok((id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}", DEFAULT_MAX_FRAME_BYTES).expect("write");
        let mut r = Cursor::new(buf);
        let frame = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES)
            .expect("read")
            .expect("frame");
        assert_eq!(frame, b"{\"op\":\"ping\"}");
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES)
            .expect("clean eof")
            .is_none());
    }

    #[test]
    fn oversized_advertised_length_is_rejected_before_allocation() {
        // A 4 GiB advertised frame: only the 4 prefix bytes exist.
        let mut r = Cursor::new(0xFFFF_FFF0u32.to_be_bytes().to_vec());
        match read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES) {
            Err(FrameError::TooLarge { advertised, cap }) => {
                assert_eq!(advertised, 0xFFFF_FFF0);
                assert_eq!(cap, DEFAULT_MAX_FRAME_BYTES as u64);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        // EOF mid-prefix.
        let mut r = Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Truncated { missing: 2 })
        ));
        // EOF mid-payload: 10 advertised, 3 delivered.
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let mut r = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Truncated { missing: 7 })
        ));
    }

    #[test]
    fn request_round_trips() {
        let mut req = Request::compile(42, "tenant-a", "qft_8");
        req.deadline_ms = Some(1500);
        req.priority = 2.5;
        req.config = ConfigPreset::Tuned;
        let decoded = decode_request(&encode_request(&req)).expect("decode");
        assert_eq!(decoded, req);
    }

    #[test]
    fn hostile_tenant_names_are_rejected() {
        for tenant in [
            "",
            "a b",
            "x\"y",
            "emoji-🦀",
            "ctrl\u{7}",
            &"a".repeat(MAX_TENANT_LEN + 1),
        ] {
            let json = format!(
                "{{\"id\":1,\"op\":\"compile\",\"benchmark\":\"qft_8\",\"tenant\":{}}}",
                paqoc_telemetry::json::escape(tenant)
            );
            assert!(
                matches!(
                    decode_request(json.as_bytes()),
                    Err(FrameError::BadRequest(_))
                ),
                "tenant {tenant:?} should be rejected"
            );
        }
    }

    #[test]
    fn compile_without_circuit_or_with_both_is_rejected() {
        for json in [
            "{\"id\":1,\"op\":\"compile\"}",
            "{\"id\":1,\"op\":\"compile\",\"benchmark\":\"qft_8\",\"qasm\":\"x\"}",
        ] {
            assert!(matches!(
                decode_request(json.as_bytes()),
                Err(FrameError::BadRequest(_))
            ));
        }
    }

    fn roundtrip(d: Degradation) {
        let v = degradation_to_value(&d);
        assert_eq!(
            degradation_from_value(&v).expect("decode"),
            d,
            "variant {} must round-trip",
            d.kind()
        );
    }

    #[test]
    fn degradation_merge_rolled_back_round_trips() {
        roundtrip(Degradation::MergeRolledBack {
            gates: 7,
            qubits: 3,
            reason: "convergence failure".to_string(),
        });
    }

    #[test]
    fn degradation_estimator_fallback_round_trips() {
        roundtrip(Degradation::EstimatorFallback {
            gates: 2,
            reason: "nan estimate".to_string(),
        });
    }

    #[test]
    fn degradation_deadline_hit_round_trips() {
        roundtrip(Degradation::DeadlineHit {
            phase: "attach".to_string(),
        });
    }

    #[test]
    fn degradation_source_panic_round_trips() {
        roundtrip(Degradation::SourcePanic {
            gates: 4,
            message: "injected pulse-source panic".to_string(),
        });
    }

    #[test]
    fn degradation_store_unavailable_round_trips() {
        roundtrip(Degradation::StoreUnavailable {
            reason: "open failed: permission denied".to_string(),
        });
    }

    #[test]
    fn degradation_store_read_only_round_trips() {
        roundtrip(Degradation::StoreReadOnly {
            reason: "lock-held".to_string(),
        });
    }

    #[test]
    fn unknown_degradation_kind_decodes_to_none() {
        let v = parse("{\"kind\":\"quantum_weather\"}").expect("parse");
        assert!(degradation_from_value(&v).is_none());
    }

    #[test]
    fn degraded_compile_reply_round_trips_with_status() {
        let reply = CompileReply {
            benchmark: "qft_8".to_string(),
            latency_ns: 1234.5,
            latency_dt: 5552,
            esp: 0.87,
            partial: true,
            pulses_generated: 9,
            cache_hits: 4,
            store_hits: 2,
            cost_units: 77.25,
            degradations: vec![
                Degradation::StoreReadOnly {
                    reason: "lock-held".to_string(),
                },
                Degradation::DeadlineHit {
                    phase: "attach".to_string(),
                },
            ],
            queue_ms: 12,
            compile_ms: 340,
            budget: Some(Budget {
                deadline_ms: 1000,
                queue_ms: 12,
                remaining_ms: 988,
            }),
        };
        let resp = Response::Ok(reply.clone());
        assert_eq!(resp.status(), "degraded");
        let bytes = encode_response(42, &resp);
        let (id, decoded) = decode_response(&bytes).expect("decode");
        assert_eq!(id, 42);
        assert_eq!(decoded, Response::Ok(reply));
    }

    #[test]
    fn control_responses_round_trip() {
        for resp in [
            Response::Overloaded {
                scope: "tenant".to_string(),
                depth: 4,
                cap: 4,
            },
            Response::Draining,
            Response::Expired {
                queue_ms: 250,
                deadline_ms: 200,
            },
            Response::Error {
                kind: "bad_request".to_string(),
                message: "missing op".to_string(),
            },
            Response::Pong { draining: true },
            Response::Stats(ServerStats {
                accepted: 10,
                completed: 7,
                shed: 3,
                store: "writer".to_string(),
                ..ServerStats::default()
            }),
        ] {
            let bytes = encode_response(7, &resp);
            let (id, decoded) = decode_response(&bytes).expect("decode");
            assert_eq!(id, 7);
            assert_eq!(decoded, resp);
        }
    }
}
