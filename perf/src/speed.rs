//! How fast the machine runs right now, measured with a fixed unit of
//! benchmark-owned work.
//!
//! On a shared 2-core host the same compile takes 30–90% longer for
//! seconds to minutes at a time while other tenants are busy, and the
//! guest sees no steal time to tell it so; no median within one run
//! removes a slowdown that lasts the whole run. So the benchmark also
//! times a reference unit — hash-table churn, a pointer chase, byte
//! hashing, small dense products and a sort, the mix of random access
//! and floating point the compiler itself does, on as many threads as
//! the workload compiles with — and reports its end-to-end times scaled
//! to the machine's nominal speed, `wall × NOMINAL_UNIT_MS / unit time`,
//! where the unit time is the median over the run:
//!
//! * every workload times a unit after each set-up repetition, and
//!   scales its set-up time by their median alone;
//! * the compile workloads time a unit after every compile;
//! * the serve workload, whose requests overlap, samples a unit every
//!   quarter second while no request is in flight, abandons a sample as
//!   soon as a request goes out, and weighs each sample by the time
//!   since the one before.
//!
//! One median per run tracks the machine better than scaling each
//! compile by the unit next to it: over 12 minutes of `table1-minf`
//! compiles on the 2-core host of the committed baseline, sets of ten
//! three-pass windows spread by at most 4.7% that way, against 8.3% per
//! compile and 16.9% unscaled.
//!
//! The unit is code of this crate only, and it runs in buffers allocated
//! once when the probe is made: it never calls the allocator, so the heap
//! a compile leaves behind cannot slow it down. A compiler that gets
//! faster reads faster; a machine that gets busier does not.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median time of one reference unit on a quiet machine of the kind
/// the committed baseline comes from (2-core Xeon at 2.0 GHz), ms.
pub const NOMINAL_UNIT_MS: f64 = 8.0;

/// Pieces of [`reference_work`] in one unit: about 8 ms, long enough
/// that the millisecond-scale jitter of a shared host averages out.
const UNIT_PIECES: usize = 16;

/// Least time between two samples taken by [`SpeedProbe::tick`].
pub const PERIOD: Duration = Duration::from_millis(250);

/// How long [`SpeedProbe::spin`] keeps the processor busy.
const SPIN: Duration = Duration::from_millis(300);

/// Slots of the open-addressing table (a power of two).
const TABLE_SLOTS: usize = 4096;
/// Links of the pointer chase: 64 KiB of `u32`, an L2-sized walk.
const CHAIN_LEN: usize = 16 * 1024;
/// Keys sorted per piece.
const SORT_LEN: usize = 12_000;

/// A xorshift generator: the reference owns its randomness too.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// The buffers one copy of the reference work runs in.
#[derive(Debug)]
struct Scratch {
    /// `(key, count)` slots, key 0 meaning empty.
    table: Vec<(u64, u64)>,
    /// A single cycle through every index (Sattolo's shuffle).
    chain: Vec<u32>,
    sorted: Vec<u64>,
}

impl Scratch {
    fn new() -> Scratch {
        let mut next = xorshift(0x5EED);
        let mut chain: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        for i in (1..CHAIN_LEN).rev() {
            chain.swap(i, (next() % i as u64) as usize);
        }
        Scratch {
            table: vec![(0, 0); TABLE_SLOTS],
            chain,
            sorted: vec![0; SORT_LEN],
        }
    }

    /// Adds one to `key`'s count (`key` must be nonzero).
    fn bump(&mut self, key: u64) {
        let mask = TABLE_SLOTS - 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize & mask;
        loop {
            let (k, count) = &mut self.table[slot];
            if *k == key || *k == 0 {
                *k = key;
                *count += 1;
                return;
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// One piece of reference work (about half a millisecond); returns a
/// checksum so the optimizer cannot drop it.
fn reference_work(seed: u64, s: &mut Scratch) -> u64 {
    let mut next = xorshift(seed);
    s.table.fill((0, 0));
    for _ in 0..6000 {
        s.bump(next() % 2048 + 1);
    }
    // Keys spelled out in decimal and hashed byte by byte (FNV-1a).
    for i in 0..1500u64 {
        let mut digits = [0u8; 20];
        let mut n = next() % 100_000 * 8 + i % 7;
        let mut len = 0;
        while n > 0 || len == 0 {
            digits[len] = b'0' + (n % 10) as u8;
            n /= 10;
            len += 1;
        }
        let hash = digits[..len]
            .iter()
            .fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
            });
        s.bump(hash | 1);
    }
    let mut at = (next() % CHAIN_LEN as u64) as u32;
    for _ in 0..20_000 {
        at = s.chain[at as usize];
    }
    let mut m = [[0.0f64; 4]; 4];
    for row in m.iter_mut() {
        for v in row.iter_mut() {
            *v = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
    }
    for _ in 0..3000 {
        let mut p = [[0.0f64; 4]; 4];
        for (i, row) in p.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (0..4).map(|k| m[i][k] * m[k][j]).sum();
            }
        }
        let norm = p
            .iter()
            .flatten()
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt()
            .max(1e-300);
        for (row, prow) in m.iter_mut().zip(p) {
            for (v, pv) in row.iter_mut().zip(prow) {
                *v = pv / norm + 1e-3;
            }
        }
    }
    for v in s.sorted.iter_mut() {
        *v = next();
    }
    s.sorted.sort_unstable();
    let used = s.table.iter().filter(|(k, _)| *k != 0).count() as u64;
    used ^ u64::from(at) ^ s.sorted[SORT_LEN / 2] ^ m[0][0].to_bits()
}

/// Runs the pieces of one unit in `s`, checking `idle` before each;
/// `false` when `idle` said no and the unit was abandoned.
fn unit_pieces(s: &mut Scratch, idle: &(dyn Fn() -> bool + Sync)) -> bool {
    for piece in 0..UNIT_PIECES {
        if !idle() {
            return false;
        }
        black_box(reference_work(black_box(piece as u64), s));
    }
    true
}

/// Reference-unit timings collected through one run.
#[derive(Debug)]
pub struct SpeedProbe {
    /// One set of buffers per thread the unit runs on.
    scratch: Vec<Scratch>,
    /// Every unit timed, ticks repeated by their weight.
    samples: Vec<f64>,
    /// When the last unit ended.
    last: Option<Instant>,
}

impl SpeedProbe {
    /// A probe whose unit runs on `threads` threads at once, as the
    /// workload it calibrates does.
    pub fn new(threads: usize) -> SpeedProbe {
        SpeedProbe {
            scratch: (0..threads.max(1)).map(|_| Scratch::new()).collect(),
            samples: Vec::new(),
            last: None,
        }
    }

    /// Keeps the processor busy before anything is measured: a virtual
    /// CPU that was idle runs slow for a while after it wakes.
    pub fn spin() {
        let mut s = Scratch::new();
        let t = Instant::now();
        while t.elapsed() < SPIN {
            black_box(reference_work(black_box(7), &mut s));
        }
    }

    /// Times one reference unit now, ms; `None` when `idle` turned false
    /// before it finished.
    fn unit(&mut self, idle: &(dyn Fn() -> bool + Sync)) -> Option<f64> {
        let started = Instant::now();
        let (own, others) = self.scratch.split_first_mut().expect("at least one thread");
        // One copy runs on the calling thread: a new thread would land on
        // the idle core and time that core instead of the workload's.
        let finished = std::thread::scope(|scope| {
            let others: Vec<_> = others
                .iter_mut()
                .map(|s| scope.spawn(move || unit_pieces(s, idle)))
                .collect();
            let mut finished = unit_pieces(own, idle);
            for t in others {
                finished &= t.join().expect("reference work cannot panic");
            }
            finished
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if !finished {
            return None;
        }
        self.last = Some(Instant::now());
        Some(ms)
    }

    /// Times one reference unit now; the compile workloads take one
    /// after every compile.
    pub fn sample(&mut self) {
        if let Some(ms) = self.unit(&|| true) {
            self.samples.push(ms);
        }
    }

    /// Times one reference unit when [`PERIOD`] has passed since the
    /// last one and `idle` holds throughout; a unit `idle` interrupts is
    /// dropped. Each sample counts once per period elapsed since the one
    /// before, so the median weighs the machine's speed by time, not by
    /// how often the caller happened to tick.
    pub fn tick(&mut self, idle: &(dyn Fn() -> bool + Sync)) {
        let weight = match self.last {
            None => 1,
            Some(t) if t.elapsed() < PERIOD => return,
            Some(t) => (t.elapsed().as_secs_f64() / PERIOD.as_secs_f64()) as usize,
        };
        if let Some(ms) = self.unit(idle) {
            self.samples.extend(std::iter::repeat_n(ms, weight));
        }
    }

    /// Median reference-unit time of this run, ms.
    pub fn unit_ms(&self) -> Option<f64> {
        crate::stats::median(&self.samples)
    }

    /// The factor that turns a wall time measured in this run into one
    /// at nominal machine speed, from the run's median unit time.
    pub fn scale(&self) -> Option<f64> {
        self.unit_ms().map(|u| NOMINAL_UNIT_MS / u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn reference_work_is_deterministic() {
        let (mut a, mut b) = (Scratch::new(), Scratch::new());
        assert_eq!(reference_work(3, &mut a), reference_work(3, &mut b));
        assert_eq!(reference_work(3, &mut a), reference_work(3, &mut b));
        assert_ne!(reference_work(3, &mut a), reference_work(4, &mut b));
    }

    #[test]
    fn ticks_are_spaced_and_weighted_by_time() {
        let idle = || true;
        let mut probe = SpeedProbe::new(2);
        assert_eq!(probe.scale(), None);
        probe.tick(&idle);
        assert_eq!(probe.samples.len(), 1);
        probe.tick(&idle);
        assert_eq!(probe.samples.len(), 1, "too soon after the last sample");
        probe.last = probe.last.and_then(|t| t.checked_sub(PERIOD * 3));
        probe.tick(&idle);
        assert_eq!(probe.samples.len(), 4, "three periods weigh three");
        let scale = probe.scale().expect("sampled");
        assert!(scale.is_finite() && scale > 0.0, "{scale}");
    }

    #[test]
    fn a_tick_interrupted_by_work_is_dropped() {
        let mut probe = SpeedProbe::new(1);
        // Idle for the first three checks, then a request goes out.
        let checks = AtomicUsize::new(0);
        let idle = || checks.fetch_add(1, Ordering::SeqCst) < 3;
        probe.tick(&idle);
        assert!(probe.samples.is_empty() && probe.last.is_none());
        assert_eq!(
            checks.load(Ordering::SeqCst),
            4,
            "stopped at the first busy check"
        );
        probe.tick(&|| true);
        assert_eq!(probe.samples.len(), 1);
    }

    #[test]
    fn samples_are_unconditional_and_scale_by_their_median() {
        let mut probe = SpeedProbe::new(1);
        probe.sample();
        probe.sample();
        probe.sample();
        assert_eq!(probe.samples.len(), 3);
        let median = probe.unit_ms().expect("sampled");
        assert!(probe.samples.contains(&median));
        assert_eq!(probe.scale(), Some(NOMINAL_UNIT_MS / median));
    }
}
