//! How the daemon treats its sockets, on TCP loopback with short
//! budgets: an idle connection is reaped after `idle_timeout`, a frame
//! dribbled in byte by byte is reaped by its `read_timeout` although
//! every single read returns in time, drain ends idle connections and
//! works on wildcard addresses, and a fresh connection is served as soon
//! as it is accepted.

use paqoc_serve::{
    encode_request, read_frame, write_frame, BindAddr, Client, Endpoint, Op, Request, Response,
    ServeOptions, Server, DEFAULT_MAX_FRAME_BYTES,
};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A daemon on a free loopback port with the given idle and frame
/// budgets.
fn start(idle_timeout: Duration, read_timeout: Duration) -> Server {
    Server::start(ServeOptions {
        addr: BindAddr::Tcp("127.0.0.1:0".to_string()),
        workers: 1,
        idle_timeout,
        read_timeout,
        ..ServeOptions::default()
    })
    .expect("server start")
}

/// Drains `server` on another thread and returns how long it took;
/// fails if drain has not returned after 10 s.
fn drain_within_10s(server: Server) -> Duration {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let t0 = Instant::now();
        server.drain();
        let _ = tx.send(t0.elapsed());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("drain must return within 10 s")
}

/// Reads `sock` until the server closes it and returns the time since
/// `t0`; fails if it is still open after 10 s.
fn closed_after(sock: &mut TcpStream, t0: Instant) -> Duration {
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut buf = [0u8; 256];
    loop {
        match sock.read(&mut buf) {
            Ok(0) => return t0.elapsed(),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("the server kept the connection open for 10 s")
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // A reset is a close too.
            Err(_) => return t0.elapsed(),
        }
    }
}

fn counter(name: &str) -> u64 {
    paqoc_telemetry::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn an_idle_connection_is_closed_after_its_idle_timeout() {
    paqoc_telemetry::set_enabled(true);
    let server = start(Duration::from_millis(300), Duration::from_secs(5));
    let t0 = Instant::now();
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    let closed = closed_after(&mut sock, t0);
    assert!(
        closed >= Duration::from_millis(300) && closed < Duration::from_secs(2),
        "an idle connection with a 300 ms budget closed after {closed:?}"
    );
    assert!(counter("serve.idle_reaped") >= 1, "counted as an idle reap");
    drain_within_10s(server);
}

#[test]
fn a_dribbled_frame_is_reaped_by_its_frame_budget() {
    paqoc_telemetry::set_enabled(true);
    // One byte every 150 ms: each read returns well inside the 400 ms
    // budget, but the 100-byte frame would take 15 s in all.
    let server = start(Duration::from_secs(5), Duration::from_millis(400));
    let t0 = Instant::now();
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = sock.try_clone().expect("clone the socket");
    let watcher = std::thread::spawn(move || closed_after(&mut reader, t0));
    let mut frame = 96u32.to_be_bytes().to_vec();
    frame.resize(100, b' ');
    for byte in frame {
        std::thread::sleep(Duration::from_millis(150));
        if watcher.is_finished() || sock.write_all(&[byte]).is_err() {
            break;
        }
    }
    let closed = watcher.join().expect("watcher");
    assert!(
        closed >= Duration::from_millis(400) && closed < Duration::from_secs(3),
        "a dribbled frame with a 400 ms budget was reaped after {closed:?}"
    );
    assert!(
        counter("serve.slow_loris_reaped") >= 1,
        "counted as a slow-loris reap"
    );
    drain_within_10s(server);
}

#[test]
fn drain_returns_with_an_idle_client_connected_and_closes_it() {
    let server = start(Duration::from_secs(60), Duration::from_secs(5));
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    // One answered ping: the connection has a thread serving it.
    let ping = encode_request(&Request::control(1, Op::Ping));
    write_frame(&mut sock, &ping, DEFAULT_MAX_FRAME_BYTES).expect("send ping");
    let pong = read_frame(&mut sock, DEFAULT_MAX_FRAME_BYTES)
        .expect("read pong")
        .expect("a pong frame");
    assert!(matches!(
        paqoc_serve::decode_response(&pong),
        Ok((1, Response::Pong { draining: false }))
    ));
    let took = drain_within_10s(server);
    assert!(took < Duration::from_secs(2), "drain took {took:?}");
    let mut buf = [0u8; 16];
    assert_eq!(
        sock.read(&mut buf).expect("read after drain"),
        0,
        "the idle client must read EOF once drain returns"
    );
}

#[test]
fn a_daemon_bound_to_a_wildcard_address_drains() {
    for addr in ["0.0.0.0:0", "[::]:0"] {
        let server = match Server::start(ServeOptions {
            addr: BindAddr::Tcp(addr.to_string()),
            workers: 1,
            ..ServeOptions::default()
        }) {
            Ok(server) => server,
            Err(e) if addr.starts_with('[') => {
                eprintln!("skipping {addr}: no IPv6 here ({e})");
                continue;
            }
            Err(e) => panic!("binding {addr}: {e}"),
        };
        let took = drain_within_10s(server);
        assert!(took < Duration::from_secs(2), "{addr}: drain took {took:?}");
    }
}

#[test]
fn forty_fresh_connections_are_answered_within_a_second() {
    let server = start(Duration::from_secs(60), Duration::from_secs(5));
    let endpoint = Endpoint::Tcp(server.local_addr().to_string());
    let t0 = Instant::now();
    for i in 0..40 {
        let mut client = Client::new(endpoint.clone(), Duration::from_secs(10));
        match client.call(&Request::control(i, Op::Ping)) {
            Ok(Response::Pong { draining: false }) => {}
            other => panic!("ping {i} got {other:?}"),
        }
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "40 fresh connections took {took:?} to answer one ping each"
    );
    drain_within_10s(server);
}
