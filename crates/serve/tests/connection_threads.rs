//! A connection's thread is freed once the connection ends, not kept
//! joinable until drain: otherwise every connection a long-lived daemon
//! ever served would keep its thread's stack mapped.
//!
//! Its own test binary, so no other test's threads are counted; Linux
//! only, since it reads `/proc/self`.

#![cfg(target_os = "linux")]

use paqoc_serve::{BindAddr, Client, Endpoint, Op, Request, Response, ServeOptions, Server};
use std::time::{Duration, Instant};

/// This process's `Threads:` count from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Lines in `/proc/self/maps`: one per mapping.
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// Serves `n` connections one after another, each with one ping, then
/// waits until the thread count is back to `idle_threads`.
fn serve_sequentially(endpoint: &Endpoint, n: u64, idle_threads: usize) {
    for i in 0..n {
        let mut client = Client::new(endpoint.clone(), Duration::from_secs(10));
        match client.call(&Request::control(i, Op::Ping)) {
            Ok(Response::Pong { .. }) => {}
            other => panic!("ping {i} got {other:?}"),
        }
    }
    let t0 = Instant::now();
    while threads() > idle_threads {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "connection threads still running after 10 s: {} threads, {idle_threads} idle",
            threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn ended_connections_leave_no_thread_stacks_behind() {
    let server = Server::start(ServeOptions {
        addr: BindAddr::Tcp("127.0.0.1:0".to_string()),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("server start");
    let endpoint = Endpoint::Tcp(server.local_addr().to_string());
    let idle_threads = threads();
    // Warm up the allocator's per-thread arenas before the baseline.
    serve_sequentially(&endpoint, 10, idle_threads);
    let before = mappings();
    serve_sequentially(&endpoint, 200, idle_threads);
    let after = mappings();
    assert!(
        after < before + 64,
        "200 ended connections grew /proc/self/maps from {before} to {after} lines"
    );
    server.drain();
}
