//! The resident compilation daemon.
//!
//! One [`Server`] owns a listener (TCP or unix socket), a pool of
//! connection threads, a [`FairQueue`] of admitted compile jobs, and a
//! pool of compile workers sharing one [`SharedPulseTable`] — so every
//! request benefits from every earlier request's pulses, and a
//! persistent store attached at startup makes that reuse survive
//! restarts.
//!
//! ## Request lifecycle
//!
//! ```text
//! frame → parse → admit(FairQueue) ──reject──▶ overloaded/draining
//!                      │
//!                      ▼ (queued, deadline ticking)
//!                 worker pop ──expired──▶ expired (shed)
//!                      │     ──draining─▶ draining (shed)
//!                      ▼
//!              try_compile_batch(remaining budget)
//!                      │
//!                      ▼
//!                ok / degraded / error
//! ```
//!
//! Connection threads never compile and workers never touch sockets:
//! each admitted job carries a channel back to its connection thread,
//! which blocks on it (bounded by drain, which answers everything).
//!
//! ## Drain lifecycle
//!
//! [`Server::drain`] (SIGTERM in the binary, or a `drain` request):
//! stop accepting, close the queue (new pushes answer `draining`),
//! answer or shed everything already admitted, join the workers, sync
//! the pulse table to the store, shut the connections' reads and join
//! their threads, and return a [`DrainSummary`]. The binary exits 0
//! afterwards, and a restart warm-loads the store.
//!
//! Every thread waits for an event, not a tick: the accept loop blocks
//! in `accept` (drain wakes it by connecting to the daemon's own
//! address), workers in [`FairQueue::pop`], and connection threads in
//! reads bounded by their idle and frame budgets (drain shuts their read
//! halves). Only [`Server::run_until`] polls, because a signal handler
//! can do no more than set a flag.

use crate::client::Endpoint;
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, Budget, CompileReply, ConfigPreset,
    FrameError, Op, Request, Response, ServerStats, Stream, DEFAULT_MAX_FRAME_BYTES,
};
use paqoc_circuit::{parse_qasm, Circuit};
use paqoc_core::{attach_pulse_store, try_compile_batch, Degradation, PipelineOptions};
use paqoc_device::{Device, FaultConfig};
use paqoc_exec::{
    AnalyticFactory, FairQueue, FaultyAnalyticFactory, PulseSourceFactory, PushError, QueueConfig,
    SharedPulseTable,
};
use paqoc_store::StoreOptions;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum BindAddr {
    /// A TCP address (`"127.0.0.1:0"` picks a free port).
    Tcp(String),
    /// A unix-domain socket path (removed and re-created on bind).
    #[cfg(unix)]
    Uds(PathBuf),
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address.
    pub addr: BindAddr,
    /// Compile workers (each runs one single-threaded pipeline).
    pub workers: usize,
    /// Admission-queue capacity limits.
    pub queue: QueueConfig,
    /// Hard cap on a frame's payload size.
    pub max_frame_bytes: usize,
    /// Budget for receiving one complete frame once its first byte
    /// arrives — the slow-loris bound.
    pub read_timeout: Duration,
    /// Budget for writing one response frame.
    pub write_timeout: Duration,
    /// A connection with no traffic for this long is reaped.
    pub idle_timeout: Duration,
    /// Deadline applied to requests that do not carry one (`None`
    /// leaves them unbounded).
    pub default_deadline: Option<Duration>,
    /// Persistent pulse store to attach (warm reuse across restarts).
    pub pulse_db: Option<PathBuf>,
    /// Store-handle tuning (eviction budget, forced read-only, faults).
    pub store_options: StoreOptions,
    /// Pipeline preset applied when requests do not choose one.
    pub preset: ConfigPreset,
    /// Pulse-source fault injection (chaos tests). `None` serves the
    /// clean analytic source.
    pub fault: Option<FaultConfig>,
    /// Backend served when requests do not name one (a `paqoc-backend`
    /// registry name). Other registered backends are materialized
    /// lazily on first request.
    pub backend: String,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: BindAddr::Tcp("127.0.0.1:0".to_string()),
            workers: 2,
            queue: QueueConfig::default(),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            default_deadline: None,
            pulse_db: None,
            store_options: StoreOptions::default(),
            preset: ConfigPreset::M0,
            fault: None,
            backend: "transmon-grid".to_string(),
        }
    }
}

/// What a completed drain did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Admitted requests answered with a result or error.
    pub completed: u64,
    /// Admitted requests shed (expired or drain).
    pub shed: u64,
    /// Requests rejected at admission over the server's lifetime.
    pub rejected: u64,
    /// Pulse-table entries flushed to the store by the final sync.
    pub synced: usize,
    /// Entries in the pulse table at exit.
    pub table_len: usize,
}

/// How often [`Server::run_until`] polls its stop flag, and how long
/// the accept loop backs off after a failed accept (so running out of
/// descriptors cannot spin it).
const TICK: Duration = Duration::from_millis(50);

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

/// One admitted compile job, queued between connection and worker.
struct Job {
    label: String,
    circuit: Circuit,
    preset: ConfigPreset,
    /// The backend the job compiles against (device + pulse table).
    slot: Arc<BackendSlot>,
    deadline_ms: Option<u64>,
    deadline_at: Option<Instant>,
    enqueued: Instant,
    resp: mpsc::Sender<Response>,
}

/// Everything backend-specific a worker needs: the device, the shared
/// pulse table keyed under that device's fingerprint, and the slot's
/// standing degradations (store read-only / unavailable).
///
/// Slots never share a pulse table: the table keys are
/// fingerprint-prefixed, but separate tables also keep per-backend
/// working sets independently evictable. All slots open the *same*
/// `pulse_db` path — the store's single-writer flock means the first
/// slot to open it writes and later slots attach read-only, and
/// namespaced fingerprints cohabit one file while legacy fingerprints
/// keep strict rotation.
struct BackendSlot {
    name: String,
    device: Device,
    table: Arc<SharedPulseTable>,
    base_degradations: Vec<Degradation>,
    store_state: &'static str,
}

/// Opens the slot for backend `name`: resolves the device and attaches
/// the persistent store (if configured). Errors only on an unknown
/// backend name; store failures degrade instead.
fn open_slot(name: &str, opts: &ServeOptions) -> Result<Arc<BackendSlot>, String> {
    let backend = paqoc_backend::resolve(name).map_err(|e| e.to_string())?;
    let device = backend.device();
    let table = Arc::new(SharedPulseTable::new());
    let mut base_degradations = Vec::new();
    let mut store_state = "none";
    if let Some(path) = &opts.pulse_db {
        let conceded = attach_pulse_store(&table, path, &device, opts.store_options.clone());
        store_state = match &conceded {
            None => "writer",
            Some(Degradation::StoreReadOnly { .. }) => "read-only",
            Some(_) => "unavailable",
        };
        base_degradations.extend(conceded);
    }
    Ok(Arc::new(BackendSlot {
        name: name.to_string(),
        device,
        table,
        base_degradations,
        store_state,
    }))
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    overloaded: AtomicU64,
    draining_rejects: AtomicU64,
    bad_frames: AtomicU64,
    active: AtomicU64,
}

struct Shared {
    queue: FairQueue<Job>,
    /// The slot for `opts.backend`, opened eagerly at startup.
    default_slot: Arc<BackendSlot>,
    /// Other backends' slots, materialized on first request.
    slots: Mutex<BTreeMap<String, Arc<BackendSlot>>>,
    factory: Arc<dyn PulseSourceFactory>,
    opts: ServeOptions,
    counters: Counters,
    /// Set by drain(): stop admitting.
    draining: AtomicBool,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.counters.accepted.load(Ordering::SeqCst),
            completed: self.counters.completed.load(Ordering::SeqCst),
            shed: self.counters.shed.load(Ordering::SeqCst),
            overloaded: self.counters.overloaded.load(Ordering::SeqCst),
            draining_rejects: self.counters.draining_rejects.load(Ordering::SeqCst),
            bad_frames: self.counters.bad_frames.load(Ordering::SeqCst),
            queue_depth: self.queue.len() as u64,
            active: self.counters.active.load(Ordering::SeqCst),
            tenants: self.queue.tenant_count() as u64,
            table_len: self.default_slot.table.len() as u64,
            draining: self.draining.load(Ordering::SeqCst),
            store: self.default_slot.store_state.to_string(),
        }
    }

    /// Resolves the slot a request compiles against: the default slot
    /// when no backend is named, a lazily-opened slot otherwise.
    fn slot_for(&self, backend: Option<&str>) -> Result<Arc<BackendSlot>, String> {
        let name = match backend {
            None => return Ok(self.default_slot.clone()),
            Some(name) if name == self.default_slot.name => return Ok(self.default_slot.clone()),
            Some(name) => name,
        };
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get(name) {
            return Ok(slot.clone());
        }
        let slot = open_slot(name, &self.opts)?;
        paqoc_telemetry::counter("serve.slots_opened", 1);
        slots.insert(name.to_string(), slot.clone());
        Ok(slot)
    }

    /// The default slot plus every lazily-opened one.
    fn all_slots(&self) -> Vec<Arc<BackendSlot>> {
        let mut all = vec![self.default_slot.clone()];
        all.extend(lock(&self.slots).values().cloned());
        all
    }
}

/// A live connection: its thread, and a second handle to its socket
/// through which drain shuts the reads.
type Conn = (JoinHandle<()>, Stream);

/// A running daemon (see the module docs for the lifecycle).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: String,
    /// Where drain connects to wake the blocked accept loop.
    wake: Endpoint,
    /// The accept loop; it returns the connections still live.
    accept: JoinHandle<Vec<Conn>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, attaches the store (if configured), and starts the
    /// accept loop and worker pool.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let (listener, local_addr, wake) = match &opts.addr {
            BindAddr::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let bound = l.local_addr()?;
                // A wildcard address is reached through its family's
                // loopback address.
                let mut wake = bound;
                if wake.ip().is_unspecified() {
                    wake.set_ip(match wake {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                let wake = Endpoint::Tcp(wake.to_string());
                (Listener::Tcp(l), bound.to_string(), wake)
            }
            #[cfg(unix)]
            BindAddr::Uds(path) => {
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                let wake = Endpoint::Uds(path.clone());
                (Listener::Uds(l), path.display().to_string(), wake)
            }
        };

        let default_slot = open_slot(&opts.backend, &opts)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
        let factory: Arc<dyn PulseSourceFactory> = match opts.fault {
            Some(cfg) => Arc::new(FaultyAnalyticFactory::new(cfg)),
            None => Arc::new(AnalyticFactory),
        };

        let shared = Arc::new(Shared {
            queue: FairQueue::new(opts.queue),
            default_slot,
            slots: Mutex::new(BTreeMap::new()),
            factory,
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            opts,
        });

        let workers = (0..shared.opts.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("paqoc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("paqoc-serve-accept".to_string())
                .spawn(move || accept_loop(listener, &shared))?
        };

        Ok(Server {
            shared,
            local_addr,
            wake,
            accept,
            workers,
        })
    }

    /// The bound address: `host:port` for TCP, the socket path for UDS.
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// `true` once drain has begun (a `drain` request, or [`Server::drain`]).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Current counters (what the `stats` op answers).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Blocks until `should_stop` answers true or a client sends
    /// `drain`, then drains. The binary's main loop: it polls every
    /// `TICK`, because a signal handler can only set a flag.
    pub fn run_until(self, should_stop: impl Fn() -> bool) -> DrainSummary {
        while !should_stop() && !self.shared.draining.load(Ordering::SeqCst) {
            std::thread::sleep(TICK);
        }
        self.drain()
    }

    /// Gracefully shuts the server down (see the module docs) and
    /// returns what happened.
    pub fn drain(self) -> DrainSummary {
        let shared = &self.shared;
        shared.draining.store(true, Ordering::SeqCst);
        shared.queue.drain();
        paqoc_telemetry::event!("serve.drain_begin");
        // The accept loop checks `draining` each time `accept` returns:
        // a connection of our own wakes it. A failed connect is retried
        // until the loop has ended, so it cannot hang drain.
        while !self.accept.is_finished() && self.wake.connect().is_err() {
            std::thread::yield_now();
        }
        let conns = self.accept.join().unwrap_or_default();
        for h in self.workers {
            let _ = h.join();
        }
        // Everything admitted has now been answered or shed; flush the
        // write-behind of every backend slot so a restart warm-hits
        // these pulses.
        let synced = shared
            .all_slots()
            .iter()
            .map(|slot| slot.table.sync().unwrap_or(0))
            .sum();
        // Every admitted job is answered, so no connection waits on a
        // worker: end each one's reads (a reply still being written
        // completes) and wait for its thread.
        for (h, conn) in conns {
            let _ = conn.shutdown(Shutdown::Read);
            let _ = h.join();
        }
        let summary = DrainSummary {
            completed: shared.counters.completed.load(Ordering::SeqCst),
            shed: shared.counters.shed.load(Ordering::SeqCst),
            rejected: shared.counters.overloaded.load(Ordering::SeqCst)
                + shared.counters.draining_rejects.load(Ordering::SeqCst),
            synced,
            table_len: shared.default_slot.table.len(),
        };
        paqoc_telemetry::event!(
            "serve.drain_done",
            completed = summary.completed,
            shed = summary.shed,
            synced = summary.synced as u64
        );
        summary
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn accept_loop(listener: Listener, shared: &Arc<Shared>) -> Vec<Conn> {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        let conn = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
        };
        // Drain's own wake-up connection, or any accepted after drain
        // began, is closed unserved.
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut conn) = conn else {
            std::thread::sleep(TICK);
            continue;
        };
        // Dropping the handle of a thread that has ended frees it.
        conns.retain(|(h, _)| !h.is_finished());
        let Ok(peer) = conn.try_clone() else {
            continue;
        };
        let shared = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("paqoc-serve-conn".to_string())
            .spawn(move || {
                conn_loop(&mut conn, &shared);
                // The registry's handle would keep the client connected.
                let _ = conn.shutdown(Shutdown::Both);
            });
        match spawned {
            Ok(h) => conns.push((h, peer)),
            Err(_) => paqoc_telemetry::counter("serve.spawn_failures", 1),
        }
    }
    // Dropping the listener closes the socket; for UDS also remove the
    // path so the next start binds cleanly even without our own unlink.
    #[cfg(unix)]
    if let BindAddr::Uds(path) = &shared.opts.addr {
        let _ = std::fs::remove_file(path);
    }
    conns
}

/// Reads one request frame. `Ok(None)` means the connection should
/// close quietly: a clean EOF, an idle reap (no first byte within
/// `idle_timeout`) or a slow-loris reap (the rest of the frame not
/// within `read_timeout` of its first byte).
fn read_request(conn: &mut Stream, opts: &ServeOptions) -> Result<Option<Vec<u8>>, FrameError> {
    let mut reader = FrameReader {
        conn,
        opts,
        deadline: None,
    };
    match read_frame(&mut reader, opts.max_frame_bytes) {
        Err(FrameError::Io(e))
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
        {
            let reap = match reader.deadline {
                None => "serve.idle_reaped",
                Some(_) => "serve.slow_loris_reaped",
            };
            paqoc_telemetry::counter(reap, 1);
            Ok(None)
        }
        other => other,
    }
}

/// A connection as [`read_frame`] reads one frame from it, under one
/// budget per frame: before the frame's first byte a read may wait
/// `idle_timeout`, after it only what is left of `read_timeout`. A
/// client dribbling one byte at a time is reaped however promptly each
/// byte arrives.
struct FrameReader<'a> {
    conn: &'a mut Stream,
    opts: &'a ServeOptions,
    /// When the frame's `read_timeout` runs out; `None` until its first
    /// byte.
    deadline: Option<Instant>,
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let wait = match self.deadline {
            None => self.opts.idle_timeout,
            Some(at) => at.saturating_duration_since(Instant::now()),
        };
        if wait.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.conn.set_read_timeout(wait)?;
        let n = self.conn.read(buf)?;
        if n > 0 && self.deadline.is_none() {
            self.deadline = Some(Instant::now() + self.opts.read_timeout);
        }
        Ok(n)
    }
}

fn conn_loop(conn: &mut Stream, shared: &Arc<Shared>) {
    if conn.set_write_timeout(shared.opts.write_timeout).is_err() {
        return;
    }
    paqoc_telemetry::counter("serve.connections", 1);
    loop {
        let frame = match read_request(conn, &shared.opts) {
            Ok(None) => return,
            Ok(Some(frame)) => frame,
            Err(e) => {
                // Hostile or broken input: answer typed (best-effort)
                // and close — one bad frame never takes a worker down.
                answer_bad_frame(conn, shared, &e);
                return;
            }
        };
        let req = match decode_request(&frame) {
            Ok(req) => req,
            // Malformed-but-framed requests get an answer and the
            // connection stays open: the framing is intact.
            Err(e) if answer_bad_frame(conn, shared, &e) => continue,
            Err(_) => return,
        };
        let reply = encode_response(req.id, &handle_request(req, shared));
        if write_frame(conn, &reply, shared.opts.max_frame_bytes).is_err() {
            return;
        }
    }
}

/// Counts a bad frame and answers it with a typed error; `false` when
/// the answer could not be written.
fn answer_bad_frame(conn: &mut Stream, shared: &Shared, e: &FrameError) -> bool {
    shared.counters.bad_frames.fetch_add(1, Ordering::SeqCst);
    paqoc_telemetry::counter("serve.bad_frames", 1);
    let reply = encode_response(
        0,
        &Response::Error {
            kind: e.kind().to_string(),
            message: e.to_string(),
        },
    );
    write_frame(conn, &reply, shared.opts.max_frame_bytes).is_ok()
}

fn handle_request(req: Request, shared: &Arc<Shared>) -> Response {
    match req.op {
        Op::Ping => Response::Pong {
            draining: shared.draining.load(Ordering::SeqCst),
        },
        Op::Stats => Response::Stats(shared.stats()),
        Op::Drain => {
            // Flag only: the owning thread (Server::run_until / the
            // test harness) observes is_draining and performs the
            // actual drain, exactly like SIGTERM.
            shared.draining.store(true, Ordering::SeqCst);
            shared.queue.drain();
            Response::Pong { draining: true }
        }
        Op::Compile => admit_compile(req, shared),
    }
}

fn admit_compile(req: Request, shared: &Arc<Shared>) -> Response {
    // Resolve the backend slot and build the circuit before admission:
    // an unknown backend, bad benchmark name, or bad QASM never costs
    // a queue slot.
    let slot = match shared.slot_for(req.backend.as_deref()) {
        Ok(slot) => slot,
        Err(message) => {
            return Response::Error {
                kind: "unknown_backend".to_string(),
                message,
            }
        }
    };
    let (label, circuit) = match (&req.benchmark, &req.qasm) {
        (Some(name), _) => match paqoc_workloads::benchmark(name) {
            Some(b) => (b.name.to_string(), (b.build)()),
            None => {
                return Response::Error {
                    kind: "unknown_benchmark".to_string(),
                    message: format!("no benchmark named {name:?}"),
                }
            }
        },
        (None, Some(qasm)) => match parse_qasm(qasm) {
            Ok(c) => ("qasm".to_string(), c),
            Err(e) => {
                return Response::Error {
                    kind: "bad_qasm".to_string(),
                    message: e.to_string(),
                }
            }
        },
        (None, None) => {
            return Response::Error {
                kind: "bad_request".to_string(),
                message: "compile needs a benchmark or qasm".to_string(),
            }
        }
    };
    let now = Instant::now();
    let deadline = req
        .deadline_ms
        .map(Duration::from_millis)
        .or(shared.opts.default_deadline);
    let (tx, rx) = mpsc::channel();
    let job = Job {
        label,
        circuit,
        preset: req.config,
        slot,
        deadline_ms: deadline.map(|d| d.as_millis() as u64),
        deadline_at: deadline.map(|d| now + d),
        enqueued: now,
        resp: tx,
    };
    match shared.queue.push(&req.tenant, req.priority, job) {
        Ok(_depth) => {
            shared.counters.accepted.fetch_add(1, Ordering::SeqCst);
            paqoc_telemetry::counter("serve.accepted", 1);
            paqoc_telemetry::set_gauge("serve.queue_depth", shared.queue.len() as f64);
            paqoc_telemetry::set_gauge("serve.tenants", shared.queue.tenant_count() as f64);
            // Blocks until a worker answers. Drain guarantees every
            // admitted job is answered or shed, so this always ends.
            match rx.recv() {
                Ok(resp) => resp,
                Err(_) => Response::Error {
                    kind: "internal".to_string(),
                    message: "worker dropped the request".to_string(),
                },
            }
        }
        Err(PushError::Draining) => {
            shared
                .counters
                .draining_rejects
                .fetch_add(1, Ordering::SeqCst);
            paqoc_telemetry::counter("serve.draining_rejects", 1);
            Response::Draining
        }
        Err(e) => {
            shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
            paqoc_telemetry::counter("serve.overloaded", 1);
            let (scope, depth, cap) = match e {
                PushError::TenantFull { depth, cap } => ("tenant", depth, cap),
                PushError::QueueFull { depth, cap } => ("queue", depth, cap),
                PushError::TooManyTenants { tenants, cap } => ("tenants", tenants, cap),
                PushError::Draining => unreachable!("handled above"),
            };
            Response::Overloaded {
                scope: scope.to_string(),
                depth: depth as u64,
                cap: cap as u64,
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        paqoc_telemetry::set_gauge("serve.queue_depth", shared.queue.len() as f64);
        let resp = serve_job(&job, shared);
        let shed = matches!(resp, Response::Draining | Response::Expired { .. });
        if shed {
            shared.counters.shed.fetch_add(1, Ordering::SeqCst);
            paqoc_telemetry::counter("serve.shed", 1);
        } else {
            shared.counters.completed.fetch_add(1, Ordering::SeqCst);
            paqoc_telemetry::counter("serve.completed", 1);
        }
        let _ = job.resp.send(resp);
    }
}

fn serve_job(job: &Job, shared: &Arc<Shared>) -> Response {
    let now = Instant::now();
    let queue_ms = now.duration_since(job.enqueued).as_millis() as u64;
    // During drain the backlog is shed, not compiled: admitted clients
    // get a prompt typed answer and the daemon exits quickly.
    if shared.draining.load(Ordering::SeqCst) {
        return Response::Draining;
    }
    // Expired in the queue: shed before any compilation work.
    if let (Some(at), Some(ms)) = (job.deadline_at, job.deadline_ms) {
        if now >= at {
            paqoc_telemetry::counter("serve.expired", 1);
            return Response::Expired {
                queue_ms,
                deadline_ms: ms,
            };
        }
    }
    shared.counters.active.fetch_add(1, Ordering::SeqCst);
    let remaining = job.deadline_at.map(|at| at.saturating_duration_since(now));
    let mut opts = match job.preset {
        ConfigPreset::M0 => PipelineOptions::m0(),
        ConfigPreset::Tuned => PipelineOptions::m_tuned(),
        ConfigPreset::Inf => PipelineOptions::m_inf(),
    };
    opts.threads = Some(1);
    opts.shared_table = Some(job.slot.table.clone());
    opts.deadline = remaining;
    // Belt and braces: the pipeline's own guard re-checks that the
    // slot's device really belongs to the backend the job names.
    opts.backend = Some(job.slot.name.clone());
    let started = Instant::now();
    let result = try_compile_batch(
        &job.circuit,
        &job.slot.device,
        shared.factory.clone(),
        &opts,
    );
    let compile_ms = started.elapsed().as_millis() as u64;
    shared.counters.active.fetch_sub(1, Ordering::SeqCst);
    match result {
        Ok(r) => {
            let mut degradations = job.slot.base_degradations.clone();
            degradations.extend(r.degradations);
            Response::Ok(CompileReply {
                benchmark: job.label.clone(),
                latency_ns: r.latency_ns,
                latency_dt: r.latency_dt,
                esp: r.esp,
                partial: r.partial,
                pulses_generated: r.stats.pulses_generated as u64,
                cache_hits: r.stats.cache_hits as u64,
                store_hits: r.stats.store_hits as u64,
                cost_units: r.stats.cost_units,
                degradations,
                queue_ms,
                compile_ms,
                budget: job.deadline_ms.map(|deadline_ms| Budget {
                    deadline_ms,
                    queue_ms,
                    remaining_ms: remaining.map(|d| d.as_millis() as u64).unwrap_or(0),
                }),
            })
        }
        Err(e) => Response::Error {
            kind: e.kind().to_string(),
            message: e.to_string(),
        },
    }
}
