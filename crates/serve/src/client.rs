//! Blocking client, retry policy, and the QPS replay driver.
//!
//! [`Client`] speaks one framed connection; [`Client::call_retrying`]
//! adds jittered exponential backoff with reconnect — the polite way to
//! meet an overloaded or restarting server. [`replay`] is the load
//! generator: it drives the Table-I benchmark corpus at a configured
//! QPS from a pool of worker threads (each its own connection and
//! tenant), collects latency percentiles in per-thread
//! [`Histogram`] sketches, and merges them into a [`LoadReport`]. At a
//! fixed rate each request is timed from the instant it was due, so a
//! sender's backlog counts against the requests it delayed.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, ConfigPreset, FrameError, Request,
    Response, Stream, DEFAULT_MAX_FRAME_BYTES,
};
use paqoc_math::Rng;
use paqoc_telemetry::json::Value;
use paqoc_telemetry::Histogram;
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Where the server lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`host:port`).
    Tcp(String),
    /// A unix-domain socket path.
    #[cfg(unix)]
    Uds(PathBuf),
}

impl Endpoint {
    /// Parses `"unix:/path/to.sock"` or `"host:port"`.
    pub fn parse(s: &str) -> Endpoint {
        #[cfg(unix)]
        if let Some(path) = s.strip_prefix("unix:") {
            return Endpoint::Uds(PathBuf::from(path));
        }
        Endpoint::Tcp(s.to_string())
    }

    /// Opens a connection to the endpoint.
    pub(crate) fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(Stream::Tcp),
            #[cfg(unix)]
            Endpoint::Uds(path) => UnixStream::connect(path).map(Stream::Uds),
        }
    }
}

/// Why a call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or reconnecting failed.
    Connect(std::io::Error),
    /// The conversation broke mid-call.
    Frame(FrameError),
    /// The server answered a different request id than asked.
    IdMismatch {
        /// The id sent.
        sent: u64,
        /// The id received.
        got: u64,
    },
    /// Retries exhausted; holds the last error's description.
    RetriesExhausted(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Frame(e) => write!(f, "protocol failure: {e}"),
            ClientError::IdMismatch { sent, got } => {
                write!(f, "response id {got} does not match request id {sent}")
            }
            ClientError::RetriesExhausted(last) => write!(f, "retries exhausted; last: {last}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// Retry-with-backoff configuration for [`Client::call_retrying`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts after the first (0 disables retry).
    pub retries: u32,
    /// First backoff; doubles per attempt.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Whether a typed `overloaded` response is retried (with backoff)
    /// or returned to the caller as-is.
    pub retry_overloaded: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            base: Duration::from_millis(25),
            max: Duration::from_secs(2),
            retry_overloaded: false,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry attempt `attempt` (0-based):
    /// `base * 2^attempt`, capped at `max`, scaled by a uniform factor
    /// in `[0.5, 1.0)` so a thundering herd decorrelates.
    pub fn backoff(&self, attempt: u32, rng: &mut Rng) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max);
        exp.mul_f64(0.5 + 0.5 * rng.random::<f64>())
    }
}

/// A blocking framed connection to a [`crate::Server`].
pub struct Client {
    endpoint: Endpoint,
    timeout: Duration,
    max_frame_bytes: usize,
    stream: Option<Stream>,
}

impl Client {
    /// Creates a client for `endpoint` (lazily connected) with the
    /// given per-call socket timeout.
    pub fn new(endpoint: Endpoint, timeout: Duration) -> Client {
        Client {
            endpoint,
            timeout,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            stream: None,
        }
    }

    fn connect(&mut self) -> Result<&mut Stream, ClientError> {
        if self.stream.is_none() {
            let stream = self.endpoint.connect().map_err(ClientError::Connect)?;
            stream
                .set_read_timeout(self.timeout)
                .and_then(|()| stream.set_write_timeout(self.timeout))
                .map_err(ClientError::Connect)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends one request and waits for its response. A broken
    /// conversation drops the connection (the next call reconnects).
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let max = self.max_frame_bytes;
        let result = (|| {
            let stream = self.connect()?;
            write_frame(stream, &encode_request(req), max)?;
            let frame = read_frame(stream, max)?.ok_or(FrameError::Truncated { missing: 4 })?;
            let (id, resp) = decode_response(&frame)?;
            if id != req.id {
                return Err(ClientError::IdMismatch {
                    sent: req.id,
                    got: id,
                });
            }
            Ok(resp)
        })();
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    /// [`Client::call`] with jittered exponential backoff: transport
    /// failures always retry (reconnecting); `overloaded` responses
    /// retry when the policy says so.
    pub fn call_retrying(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
        rng: &mut Rng,
    ) -> Result<Response, ClientError> {
        let mut last = String::new();
        for attempt in 0..=policy.retries {
            match self.call(req) {
                Ok(Response::Overloaded { scope, depth, cap })
                    if policy.retry_overloaded && attempt < policy.retries =>
                {
                    last = format!("overloaded ({scope} {depth}/{cap})");
                }
                Ok(resp) => return Ok(resp),
                Err(ClientError::IdMismatch { sent, got }) => {
                    // A desynchronized stream will not heal by retrying
                    // the same conversation.
                    return Err(ClientError::IdMismatch { sent, got });
                }
                Err(e) if attempt < policy.retries => last = e.to_string(),
                Err(e) => return Err(e),
            }
            std::thread::sleep(policy.backoff(attempt, rng));
        }
        Err(ClientError::RetriesExhausted(last))
    }
}

/// Load-generation configuration for [`replay`].
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// Total requests to send.
    pub requests: usize,
    /// Target send rate, requests per second (0 = as fast as possible).
    pub qps: f64,
    /// Sender threads (each with its own connection).
    pub concurrency: usize,
    /// Distinct tenants to spread requests over (`t0`, `t1`, …).
    pub tenants: usize,
    /// Per-request deadline forwarded to the server.
    pub deadline_ms: Option<u64>,
    /// Seed for backoff jitter and benchmark shuffling.
    pub seed: u64,
    /// `true` replays only the quick corpus (the smallest benchmarks);
    /// `false` cycles the full 17-benchmark Table-I suite.
    pub quick: bool,
    /// Pipeline preset for every request.
    pub preset: ConfigPreset,
    /// Backend every request names (`None` uses the server default).
    pub backend: Option<String>,
    /// Retry policy per request.
    pub retry: RetryPolicy,
    /// Per-call socket timeout.
    pub timeout: Duration,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            requests: 34,
            qps: 0.0,
            concurrency: 4,
            tenants: 2,
            deadline_ms: None,
            seed: 0x10AD,
            quick: true,
            preset: ConfigPreset::M0,
            backend: None,
            retry: RetryPolicy::default(),
            timeout: Duration::from_secs(30),
        }
    }
}

/// The corpus `--quick` replays: the three fastest Table-I entries plus
/// the next-smallest ones, so a smoke replay exercises several distinct
/// pulse-key families.
pub const QUICK_CORPUS: [&str; 5] = ["mod5d2_64", "rd32_270", "bv", "decod24-v1_41", "qft"];

/// What a [`replay`] run observed.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests sent (after retries collapsed to one outcome each).
    pub sent: u64,
    /// Clean compile results.
    pub ok: u64,
    /// Degraded compile results (valid, with typed concessions).
    pub degraded: u64,
    /// Typed `overloaded` rejections.
    pub overloaded: u64,
    /// Typed `expired` sheds.
    pub expired: u64,
    /// Typed `draining` answers.
    pub draining: u64,
    /// Typed server `error` responses.
    pub errors: u64,
    /// Transport failures that exhausted retries.
    pub transport_errors: u64,
    /// End-to-end latency sketch, milliseconds (answered requests only),
    /// from each request's due instant when paced (`qps > 0`) and from
    /// its send otherwise.
    pub latency_ms: Histogram,
    /// Pulses the server generated across answered requests.
    pub pulses_generated: u64,
    /// Pulse-table hits across answered requests.
    pub cache_hits: u64,
    /// Store-served hits across answered requests.
    pub store_hits: u64,
}

impl LoadReport {
    /// Requests that got a compile result (clean or degraded).
    pub fn answered(&self) -> u64 {
        self.ok + self.degraded
    }

    /// Requests shed or rejected with a typed response.
    pub fn shed(&self) -> u64 {
        self.overloaded + self.expired + self.draining
    }

    /// Pulse-table hit rate across answered requests: hits over
    /// (hits + misses). 0 when nothing was answered.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.pulses_generated;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    fn absorb(&mut self, other: &LoadReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.overloaded += other.overloaded;
        self.expired += other.expired;
        self.draining += other.draining;
        self.errors += other.errors;
        self.transport_errors += other.transport_errors;
        self.latency_ms.merge(&other.latency_ms);
        self.pulses_generated += other.pulses_generated;
        self.cache_hits += other.cache_hits;
        self.store_hits += other.store_hits;
    }

    /// Serializes the report as one JSON object (the `paqoc-load`
    /// stdout contract consumed by verify.sh).
    pub fn to_json(&self) -> String {
        Value::object([
            ("sent", Value::from(self.sent)),
            ("ok", Value::from(self.ok)),
            ("degraded", Value::from(self.degraded)),
            ("overloaded", Value::from(self.overloaded)),
            ("expired", Value::from(self.expired)),
            ("draining", Value::from(self.draining)),
            ("errors", Value::from(self.errors)),
            ("transport_errors", Value::from(self.transport_errors)),
            ("answered", Value::from(self.answered())),
            ("shed", Value::from(self.shed())),
            ("p50_ms", Value::from(self.latency_ms.p50())),
            ("p90_ms", Value::from(self.latency_ms.p90())),
            ("p99_ms", Value::from(self.latency_ms.p99())),
            ("mean_ms", Value::from(self.latency_ms.mean())),
            ("pulses_generated", Value::from(self.pulses_generated)),
            ("cache_hits", Value::from(self.cache_hits)),
            ("store_hits", Value::from(self.store_hits)),
            ("hit_rate", Value::from(self.hit_rate())),
        ])
        .to_json()
    }

    fn record(&mut self, resp: &Response, elapsed: Duration) {
        self.sent += 1;
        match resp {
            Response::Ok(r) => {
                if r.degraded() {
                    self.degraded += 1;
                } else {
                    self.ok += 1;
                }
                self.latency_ms.record(elapsed.as_secs_f64() * 1e3);
                self.pulses_generated += r.pulses_generated;
                self.cache_hits += r.cache_hits;
                self.store_hits += r.store_hits;
            }
            Response::Overloaded { .. } => self.overloaded += 1,
            Response::Expired { .. } => self.expired += 1,
            Response::Draining => self.draining += 1,
            Response::Error { .. } | Response::Pong { .. } | Response::Stats(_) => {
                self.errors += 1;
            }
        }
    }
}

/// Drives the benchmark corpus against a server at a configured QPS
/// and returns merged latency/outcome statistics (see [`ReplayOptions`]).
pub fn replay(endpoint: &Endpoint, opts: &ReplayOptions) -> LoadReport {
    let corpus: Vec<String> = if opts.quick {
        QUICK_CORPUS.iter().map(|s| s.to_string()).collect()
    } else {
        paqoc_workloads::all_benchmarks()
            .iter()
            .map(|b| b.name.to_string())
            .collect()
    };
    let start = Instant::now();
    let cursor = AtomicU64::new(0);
    let total = opts.requests as u64;
    let threads = opts.concurrency.clamp(1, 64);
    let mut reports: Vec<LoadReport> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let corpus = &corpus;
            let cursor = &cursor;
            let endpoint = endpoint.clone();
            handles.push(scope.spawn(move || {
                let mut report = LoadReport::default();
                let mut rng = Rng::seed_from_u64(opts.seed ^ (t as u64).wrapping_mul(0x9E37));
                let mut client = Client::new(endpoint, opts.timeout);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    // Open-loop pacing: request i is due at start + i/qps
                    // and is timed from then, so a sender still waiting on
                    // an earlier reply charges that wait to the requests
                    // it delayed. A closed loop (qps = 0) times each
                    // request from its send.
                    let due = (opts.qps > 0.0)
                        .then(|| start + Duration::from_secs_f64(i as f64 / opts.qps));
                    if let Some(wait) = due.and_then(|d| d.checked_duration_since(Instant::now())) {
                        std::thread::sleep(wait);
                    }
                    let mut req = Request::compile(
                        i + 1,
                        &format!("t{}", i as usize % opts.tenants.max(1)),
                        &corpus[i as usize % corpus.len()],
                    );
                    req.deadline_ms = opts.deadline_ms;
                    req.config = opts.preset;
                    req.backend = opts.backend.clone();
                    let timed_from = due.unwrap_or_else(Instant::now);
                    match client.call_retrying(&req, &opts.retry, &mut rng) {
                        Ok(resp) => report.record(&resp, timed_from.elapsed()),
                        Err(_) => {
                            report.sent += 1;
                            report.transport_errors += 1;
                        }
                    }
                }
                report
            }));
        }
        for h in handles {
            if let Ok(r) = h.join() {
                reports.push(r);
            }
        }
    });
    let mut merged = LoadReport::default();
    for r in &reports {
        merged.absorb(r);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_corpus_names_exist() {
        for name in QUICK_CORPUS {
            assert!(
                paqoc_workloads::benchmark(name).is_some(),
                "quick-corpus benchmark {name:?} missing from Table I"
            );
        }
    }

    #[test]
    fn backoff_grows_jitters_and_caps() {
        let policy = RetryPolicy {
            retries: 8,
            base: Duration::from_millis(10),
            max: Duration::from_millis(200),
            retry_overloaded: true,
        };
        let mut rng = Rng::seed_from_u64(1);
        for attempt in 0..8 {
            let b = policy.backoff(attempt, &mut rng);
            let ceiling = Duration::from_millis(10 * (1 << attempt)).min(policy.max);
            assert!(b <= ceiling, "attempt {attempt}: {b:?} > {ceiling:?}");
            assert!(
                b >= ceiling.mul_f64(0.5),
                "attempt {attempt}: {b:?} under half of {ceiling:?}"
            );
        }
    }

    #[test]
    fn endpoint_parse_distinguishes_schemes() {
        assert_eq!(
            Endpoint::parse("127.0.0.1:4500"),
            Endpoint::Tcp("127.0.0.1:4500".to_string())
        );
        #[cfg(unix)]
        assert_eq!(
            Endpoint::parse("unix:/tmp/paqoc.sock"),
            Endpoint::Uds(PathBuf::from("/tmp/paqoc.sock"))
        );
    }

    #[test]
    fn load_report_json_has_the_verify_contract_fields() {
        let mut report = LoadReport::default();
        report.record(
            &Response::Overloaded {
                scope: "tenant".to_string(),
                depth: 4,
                cap: 4,
            },
            Duration::from_millis(1),
        );
        let v = paqoc_telemetry::json::parse(&report.to_json()).expect("valid json");
        for key in [
            "sent",
            "answered",
            "shed",
            "overloaded",
            "p99_ms",
            "hit_rate",
        ] {
            assert!(v.get(key).is_some(), "report json missing {key}");
        }
        assert_eq!(v.get("overloaded").and_then(Value::as_num), Some(1.0));
    }
}
