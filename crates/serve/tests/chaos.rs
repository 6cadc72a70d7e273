//! Connection-chaos test: a seeded [`ConnChaos`] storm — mid-frame
//! disconnects, garbage frames, slow-loris dribbles — hammers the
//! daemon while well-behaved clients work through it. The daemon must
//! never panic, never leak a queue slot or tenant entry, and keep the
//! shared pulse table serving correct results throughout.

use paqoc_exec::QueueConfig;
use paqoc_math::Rng;
use paqoc_serve::{
    encode_request, read_frame, BindAddr, Client, Endpoint, Request, Response, ServeOptions,
    Server, DEFAULT_MAX_FRAME_BYTES,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// How [`ConnChaos`] says one framed network send should be mangled.
///
/// The planner only *decides*; the client loop owns the socket and
/// applies the action, so the decision stream replays exactly from the
/// seed.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ChaosAction {
    /// Send the frame intact.
    Deliver,
    /// Send only the first `n` bytes of the frame, then close the
    /// connection mid-frame. `n` is strictly less than the frame
    /// length (and can be zero: connect-then-slam).
    Truncate(usize),
    /// Send `n` bytes of seeded garbage (from
    /// [`ConnChaos::garbage_bytes`]) instead of the frame, then close.
    Garbage(usize),
    /// Slow-loris: send the frame in `chunk`-byte pieces, pausing
    /// `delay` between pieces.
    Dribble { chunk: usize, delay: Duration },
    /// Close the connection without sending anything.
    Disconnect,
}

/// Tally of the actions a [`ConnChaos`] planner has issued so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ConnChaosCounts {
    delivered: u64,
    truncated: u64,
    garbage: u64,
    dribbled: u64,
    disconnects: u64,
}

impl ConnChaosCounts {
    /// Total hostile (non-`Deliver`) actions issued.
    fn hostile(&self) -> u64 {
        self.truncated + self.garbage + self.dribbled + self.disconnects
    }
}

/// Ceiling on the per-chunk dribble delay [`ConnChaos`] plans, so a
/// slow-loris client slows the test down but can never hang it.
const DRIBBLE_DELAY_CAP: Duration = Duration::from_millis(20);

/// Seeded planner for hostile network-client behaviour. Each
/// [`ConnChaos::next_action`] call decides how the *next* framed send
/// should be mangled — delivered, truncated mid-frame, replaced with
/// garbage, dribbled slow-loris style, or dropped entirely — each
/// hostile shape at `rate`. All decisions for one call are drawn up
/// front, so the stream position per frame is fixed regardless of
/// which chaos fires, and a failing run replays exactly from its seed.
#[derive(Debug)]
struct ConnChaos {
    rate: f64,
    rng: Rng,
    counts: ConnChaosCounts,
}

impl ConnChaos {
    fn new(seed: u64, rate: f64) -> Self {
        ConnChaos {
            rate,
            rng: Rng::seed_from_u64(seed ^ 0xC0FFEE),
            counts: ConnChaosCounts::default(),
        }
    }

    fn counts(&self) -> ConnChaosCounts {
        self.counts
    }

    /// Decides how a frame of `frame_len` bytes should be sent.
    /// Precedence when several rolls fire on one draw set: disconnect >
    /// garbage > truncate > dribble — the nastier action wins.
    fn next_action(&mut self, frame_len: usize) -> ChaosAction {
        // Fixed draw order, all up front.
        let disconnect = self.roll();
        let garbage = self.roll();
        let truncate = self.roll();
        let dribble = self.roll();
        let frac = self.rng.random::<f64>();
        let len_draw = self.rng.random_range(1usize..=64);

        if disconnect {
            self.counts.disconnects += 1;
            return ChaosAction::Disconnect;
        }
        if garbage {
            self.counts.garbage += 1;
            return ChaosAction::Garbage(len_draw);
        }
        if truncate {
            self.counts.truncated += 1;
            let cut = ((frame_len as f64) * frac) as usize;
            return ChaosAction::Truncate(cut.min(frame_len.saturating_sub(1)));
        }
        if dribble {
            self.counts.dribbled += 1;
            let delay_ms = 1 + (frac * 4.0) as u64;
            return ChaosAction::Dribble {
                chunk: 1 + len_draw % 3,
                delay: Duration::from_millis(delay_ms).min(DRIBBLE_DELAY_CAP),
            };
        }
        self.counts.delivered += 1;
        ChaosAction::Deliver
    }

    /// `len` bytes of seeded garbage for a [`ChaosAction::Garbage`]
    /// frame. Deliberately includes high bytes and embedded zeros — the
    /// shapes most likely to confuse a sloppy frame parser.
    fn garbage_bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| self.rng.random_range(0u32..=255) as u8)
            .collect()
    }

    fn roll(&mut self) -> bool {
        let draw = self.rng.random::<f64>();
        self.rate > 0.0 && draw < self.rate
    }
}

#[test]
fn conn_chaos_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut c = ConnChaos::new(seed, 0.4);
        let actions: Vec<ChaosAction> = (0..64).map(|_| c.next_action(200)).collect();
        (actions, c.counts())
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9).1, run(10).1);
}

#[test]
fn conn_chaos_zero_rate_always_delivers() {
    let mut c = ConnChaos::new(0xFA17, 0.0);
    for _ in 0..32 {
        assert_eq!(c.next_action(128), ChaosAction::Deliver);
    }
    assert_eq!(c.counts().hostile(), 0);
    assert_eq!(c.counts().delivered, 32);
}

#[test]
fn conn_chaos_storm_hits_every_hostile_shape() {
    let mut c = ConnChaos::new(0xC4A05, 0.5);
    for _ in 0..256 {
        match c.next_action(512) {
            ChaosAction::Truncate(n) => assert!(n < 512, "truncation must be mid-frame"),
            ChaosAction::Garbage(n) => assert!(n >= 1),
            ChaosAction::Dribble { chunk, delay } => {
                assert!(chunk >= 1);
                assert!(delay <= DRIBBLE_DELAY_CAP);
            }
            ChaosAction::Deliver | ChaosAction::Disconnect => {}
        }
    }
    let counts = c.counts();
    assert!(counts.truncated > 0, "no truncations in 256 draws");
    assert!(counts.garbage > 0, "no garbage frames in 256 draws");
    assert!(counts.dribbled > 0, "no dribbles in 256 draws");
    assert!(counts.disconnects > 0, "no disconnects in 256 draws");
    assert!(counts.delivered > 0, "storm at 0.5 must still deliver some");
}

#[test]
fn conn_chaos_garbage_is_seeded_and_sized() {
    let mut a = ConnChaos::new(3, 1.0);
    let mut b = ConnChaos::new(3, 1.0);
    assert_eq!(a.garbage_bytes(48), b.garbage_bytes(48));
    assert_eq!(a.garbage_bytes(7).len(), 7);
}

/// Frames the request the way `write_frame` would, as one byte buffer
/// the chaos planner can mangle.
fn wire_bytes(req: &Request) -> Vec<u8> {
    let payload = encode_request(req);
    let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(&payload);
    wire
}

/// Plays one planned chaos action against a fresh connection. Delivered
/// and dribbled frames are complete, so the server's response is read
/// back; mangled ones end with the connection dropped mid-stream.
fn play(addr: &str, chaos: &mut ConnChaos, req: &Request) -> Option<Response> {
    let wire = wire_bytes(req);
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(60))).ok();
    match chaos.next_action(wire.len()) {
        ChaosAction::Deliver => {
            sock.write_all(&wire).expect("deliver");
        }
        ChaosAction::Truncate(n) => {
            let _ = sock.write_all(&wire[..n]);
            return None;
        }
        ChaosAction::Garbage(n) => {
            let garbage = chaos.garbage_bytes(n);
            let _ = sock.write_all(&garbage);
            // The server answers typed or just closes; either way the
            // storm must not hang on it.
            let _ = read_frame(&mut sock, DEFAULT_MAX_FRAME_BYTES);
            return None;
        }
        ChaosAction::Dribble { chunk, delay } => {
            for piece in wire.chunks(chunk) {
                sock.write_all(piece).expect("dribble piece");
                sock.flush().ok();
                std::thread::sleep(delay);
            }
        }
        ChaosAction::Disconnect => return None,
    }
    let frame = read_frame(&mut sock, DEFAULT_MAX_FRAME_BYTES)
        .expect("read response")
        .expect("response frame");
    let (_, resp) = paqoc_serve::decode_response(&frame).expect("decode response");
    Some(resp)
}

#[test]
fn chaos_storm_never_corrupts_the_daemon() {
    const STORM_FRAMES: usize = 64;
    const GOOD_CLIENTS: usize = 4;
    const GOOD_REQUESTS: usize = 5;

    let server = Server::start(ServeOptions {
        addr: BindAddr::Tcp("127.0.0.1:0".to_string()),
        workers: 2,
        queue: QueueConfig {
            per_tenant_cap: 8,
            total_cap: 64,
            max_tenants: 16,
        },
        // A tight per-frame budget so even a capped dribble exercises
        // the governed reader, without slowing the storm down.
        read_timeout: Duration::from_secs(2),
        ..ServeOptions::default()
    })
    .expect("server start");
    let addr = server.local_addr().to_string();
    let endpoint = Endpoint::Tcp(addr.clone());

    let chaos_counts = std::thread::scope(|scope| {
        // The storm: one hostile connection per planned frame.
        let storm = {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut chaos = ConnChaos::new(0xC4A05, 0.45);
                for i in 0..STORM_FRAMES {
                    let req = Request::compile(i as u64 + 1, "chaos", "mod5d2_64");
                    if let Some(resp) = play(&addr, &mut chaos, &req) {
                        // Complete frames must get a typed answer —
                        // compile result or a typed rejection.
                        assert!(
                            matches!(
                                resp,
                                Response::Ok(_)
                                    | Response::Overloaded { .. }
                                    | Response::Error { .. }
                            ),
                            "unexpected storm response {resp:?}"
                        );
                    }
                }
                chaos.counts()
            })
        };
        // Honest tenants keep working through the storm.
        let good: Vec<_> = (0..GOOD_CLIENTS)
            .map(|c| {
                let endpoint = endpoint.clone();
                scope.spawn(move || {
                    let mut client = Client::new(endpoint, Duration::from_secs(60));
                    for r in 0..GOOD_REQUESTS {
                        let id = (c * GOOD_REQUESTS + r) as u64 + 1000;
                        let req = Request::compile(id, &format!("good-{c}"), "rd32_270");
                        match client.call(&req).expect("good client transport") {
                            Response::Ok(reply) => {
                                assert!(reply.latency_dt > 0, "result must be real")
                            }
                            other => panic!("good client got {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in good {
            h.join().expect("good client");
        }
        storm.join().expect("storm")
    });

    assert!(
        chaos_counts.hostile() > 0,
        "the storm must actually be hostile: {chaos_counts:?}"
    );
    assert!(
        chaos_counts.garbage + chaos_counts.truncated > 0,
        "seed must produce parse-breaking frames: {chaos_counts:?}"
    );

    // Quiesced: no leaked queue slots, tenant entries, or active jobs;
    // every admitted request accounted for; the mangled frames counted.
    let stats = server.stats();
    assert_eq!(stats.queue_depth, 0, "no leaked queue slots");
    assert_eq!(stats.active, 0, "no stuck workers");
    assert_eq!(stats.tenants, 0, "no leaked tenant entries");
    assert_eq!(
        stats.accepted,
        stats.completed + stats.shed,
        "every admitted request must be answered or shed: {stats:?}"
    );
    assert!(stats.bad_frames > 0, "garbage must be counted: {stats:?}");
    assert!(stats.table_len > 0, "the pulse table must have entries");

    // The table still serves correct results after the storm.
    let mut client = Client::new(endpoint, Duration::from_secs(60));
    match client
        .call(&Request::compile(9999, "after", "mod5d2_64"))
        .expect("post-storm call")
    {
        Response::Ok(reply) => assert!(
            reply.cache_hits > 0,
            "post-storm compile must hit the intact table: {reply:?}"
        ),
        other => panic!("post-storm compile got {other:?}"),
    }

    let summary = server.drain();
    assert_eq!(
        summary.completed + summary.shed,
        stats.accepted + 1,
        "drain must account for every admitted request"
    );
}
