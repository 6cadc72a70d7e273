//! Seeded open-loop load generation against a `paqoc_serve::Server`.
//!
//! The schedule is fixed before the first request is sent: `n` arrival
//! times drawn as sorted uniforms over the window (a Poisson process
//! conditioned on its count, so every seed sends the same number of
//! requests), programs drawn in seeded permutation blocks of the corpus
//! (every program equally often, so a percentile never lands on a
//! different program because of the draw), and a seeded tenant per
//! request. Each request is timed from the moment it was *due*, so a
//! connection still busy with an earlier reply charges its wait to the
//! later request instead of hiding it — which is what
//! `paqoc_serve::client::replay` does by timing from its send instant.

use paqoc_math::Rng;
use paqoc_serve::{Client, ConfigPreset, Endpoint, Request, Response};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the window at which it is due.
    pub due: Duration,
    /// Table-I program to compile.
    pub program: &'static str,
    /// Tenant index (`t0`, `t1`, …).
    pub tenant: usize,
}

/// The seeded schedule: `count` requests over `window` (see the module
/// docs for how each field is drawn).
pub fn schedule(
    seed: u64,
    count: usize,
    window: Duration,
    programs: &[&'static str],
    tenants: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x0A11_0CA7_E5EE_D000);
    let mut offsets: Vec<f64> = (0..count).map(|_| rng.random::<f64>()).collect();
    offsets.sort_by(f64::total_cmp);
    let mut order: Vec<&'static str> = Vec::with_capacity(count);
    while !programs.is_empty() && order.len() < count {
        let mut block = programs.to_vec();
        crate::workloads::shuffle(&mut block, &mut rng);
        order.extend(block);
    }
    offsets
        .into_iter()
        .zip(order)
        .map(|(u, program)| Arrival {
            due: window.mul_f64(u),
            program,
            tenant: rng.random_range(0..tenants.max(1)),
        })
        .collect()
}

/// What one scheduled request observed.
#[derive(Debug)]
pub struct Completed {
    /// How late the generator sent it (send instant − due instant), ms.
    pub lag_ms: f64,
    /// Reply instant − due instant, ms: the latency the benchmark reports.
    pub latency_ms: f64,
    /// Reply instant − send instant, ms.
    pub rtt_ms: f64,
    /// The server's reply, or the transport failure.
    pub reply: Result<Response, String>,
}

/// Sends every arrival over `connections` blocking connections and
/// returns the outcomes in schedule order. Each connection takes the
/// next unsent arrival, waits for its due instant, and blocks on the
/// reply; a request due while every connection is busy goes out late,
/// and that lateness counts in its latency. `in_flight` counts the
/// requests sent and not yet answered.
pub fn run(
    endpoint: &Endpoint,
    arrivals: &[Arrival],
    connections: usize,
    in_flight: &AtomicUsize,
) -> Vec<Completed> {
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Completed)>> = Mutex::new(Vec::with_capacity(arrivals.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections.max(1) {
            scope.spawn(|| {
                let mut client = Client::new(endpoint.clone(), Duration::from_secs(60));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(arrival) = arrivals.get(i) else {
                        break;
                    };
                    let due = start + arrival.due;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let mut req = Request::compile(
                        i as u64 + 1,
                        &format!("t{}", arrival.tenant),
                        arrival.program,
                    );
                    req.config = ConfigPreset::M0;
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    let sent = Instant::now();
                    let reply = client.call(&req).map_err(|e| e.to_string());
                    let replied = Instant::now();
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    let ms = |d: Duration| d.as_secs_f64() * 1e3;
                    let outcome = Completed {
                        lag_ms: ms(sent.saturating_duration_since(due)),
                        latency_ms: ms(replied.saturating_duration_since(due)),
                        rtt_ms: ms(replied - sent),
                        reply,
                    };
                    done.lock()
                        .expect("a load thread panicked while recording")
                        .push((i, outcome));
                }
            });
        }
    });
    let mut done = done
        .into_inner()
        .expect("a load thread panicked while recording");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, c)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: [&str; 5] = ["a", "b", "c", "d", "e"];

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let window = Duration::from_secs(20);
        let a = schedule(1, 120, window, &CORPUS, 2);
        let b = schedule(1, 120, window, &CORPUS, 2);
        let c = schedule(2, 120, window, &CORPUS, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let field_differs = |f: fn(&Arrival) -> String| a.iter().zip(&c).any(|(x, y)| f(x) != f(y));
        assert!(field_differs(|x| format!("{:?}", x.due)));
        assert!(field_differs(|x| x.program.to_string()));
        assert!(field_differs(|x| x.tenant.to_string()));
    }

    #[test]
    fn schedule_is_sorted_in_window_and_balanced() {
        let window = Duration::from_secs(20);
        let s = schedule(9, 120, window, &CORPUS, 2);
        assert_eq!(s.len(), 120);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(s.iter().all(|x| x.due < window && x.tenant < 2));
        for p in CORPUS {
            assert_eq!(s.iter().filter(|x| x.program == p).count(), 24, "{p}");
        }
        assert!(s.iter().any(|x| x.tenant == 0) && s.iter().any(|x| x.tenant == 1));
    }
}
