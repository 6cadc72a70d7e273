//! `replay` at a fixed rate is an open loop: each request is timed from
//! the instant it was due, so a sender still waiting on an earlier reply
//! charges that wait to the requests it delayed (no coordinated
//! omission).

use paqoc_serve::client::replay;
use paqoc_serve::{Endpoint, ReplayOptions, ServeOptions, Server};
use std::time::Instant;

/// Five requests due within half a millisecond on one sender: each
/// waits for every reply before it, so their latencies overlap and sum
/// to more than the whole run. Timed from their sends they would be
/// disjoint slices of it.
#[test]
fn paced_requests_are_timed_from_their_due_instant() {
    let server = Server::start(ServeOptions::default()).expect("server start");
    let endpoint = Endpoint::Tcp(server.local_addr().to_string());
    let opts = ReplayOptions {
        requests: 5,
        qps: 10_000.0,
        concurrency: 1,
        ..ReplayOptions::default()
    };

    let start = Instant::now();
    let report = replay(&endpoint, &opts);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    server.drain();

    assert_eq!(report.answered(), 5, "every request answered: {report:?}");
    assert!(
        report.latency_ms.sum > wall_ms,
        "latencies sum to {:.1} ms over a {wall_ms:.1} ms run: the backlog was not charged",
        report.latency_ms.sum
    );
}
