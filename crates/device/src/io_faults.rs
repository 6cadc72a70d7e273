//! Seeded IO fault injection for the persistent pulse store.
//!
//! The pulse store's crash-safety claims — torn tails truncated, failed
//! fsyncs surfacing as typed errors, a failed compaction rename leaving
//! the old file intact — are only worth anything if tests can *make*
//! those failures happen. [`IoFaultInjector`] is the storage-side
//! sibling of [`crate::FaultySource`]: a seeded, thread-safe decision
//! stream the store consults before every `sync`, `rename` and record
//! append, injecting the three failure shapes a real filesystem
//! exhibits under pressure:
//!
//! * **failed sync** — `fsync` returns an error (disk full, dying
//!   device, container quota);
//! * **failed rename** — the atomic compaction rename is refused,
//!   leaving the previous file untouched;
//! * **short write** — only a prefix of an appended record reaches the
//!   file before the error surfaces, manufacturing exactly the torn
//!   tail the loader must truncate on the next open.
//!
//! Every injection is drawn from the same in-tree xoshiro256** stream
//! family the source-level faults use, so a failing run replays exactly
//! from its seed, and is tallied both on the injector
//! ([`IoFaultInjector::counts`]) and as telemetry counters
//! (`faults.io_sync`, `faults.io_rename`, `faults.io_short_write`).

use paqoc_math::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Tally of the IO faults an [`IoFaultInjector`] has fired so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoFaultCounts {
    /// `sync` calls failed.
    pub sync_failures: u64,
    /// `rename` calls failed.
    pub rename_failures: u64,
    /// Appends cut short (torn tails manufactured).
    pub short_writes: u64,
}

impl IoFaultCounts {
    /// Total IO faults of any kind injected.
    pub fn total(&self) -> u64 {
        self.sync_failures + self.rename_failures + self.short_writes
    }
}

/// A seeded decision stream for storage-path fault injection (see the
/// module docs). Shared across threads behind `&self`: the store keeps
/// one injector per handle and consults it from whatever thread runs
/// the sync or compaction.
#[derive(Debug)]
pub struct IoFaultInjector {
    sync_fail_rate: f64,
    rename_fail_rate: f64,
    short_write_rate: f64,
    rng: Mutex<Rng>,
    sync_failures: AtomicU64,
    rename_failures: AtomicU64,
    short_writes: AtomicU64,
}

impl IoFaultInjector {
    /// Builds an injector with explicit per-operation rates.
    pub fn new(
        seed: u64,
        sync_fail_rate: f64,
        rename_fail_rate: f64,
        short_write_rate: f64,
    ) -> Self {
        IoFaultInjector {
            sync_fail_rate,
            rename_fail_rate,
            short_write_rate,
            rng: Mutex::new(Rng::seed_from_u64(seed)),
            sync_failures: AtomicU64::new(0),
            rename_failures: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
        }
    }

    fn roll(&self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let mut rng = self.rng.lock().unwrap_or_else(|p| p.into_inner());
        rng.random::<f64>() < rate
    }

    /// Decides whether the next `sync` should fail; returns the error
    /// to surface when it should.
    pub fn fail_sync(&self) -> Option<std::io::Error> {
        if !self.roll(self.sync_fail_rate) {
            return None;
        }
        self.sync_failures.fetch_add(1, Ordering::Relaxed);
        paqoc_telemetry::counter("faults.io_sync", 1);
        Some(std::io::Error::other("injected fsync failure"))
    }

    /// Decides whether the next `rename` should fail; returns the error
    /// to surface when it should.
    pub fn fail_rename(&self) -> Option<std::io::Error> {
        if !self.roll(self.rename_fail_rate) {
            return None;
        }
        self.rename_failures.fetch_add(1, Ordering::Relaxed);
        paqoc_telemetry::counter("faults.io_rename", 1);
        Some(std::io::Error::other("injected rename failure"))
    }

    /// Decides whether the next append of `full_len` bytes should be
    /// torn; returns how many bytes to actually write when it should.
    /// The truncated length is seeded-random in `[0, full_len)`, so the
    /// torn tail can cut framing, payload or nothing at all.
    pub fn short_write(&self, full_len: usize) -> Option<usize> {
        if full_len == 0 || !self.roll(self.short_write_rate) {
            return None;
        }
        self.short_writes.fetch_add(1, Ordering::Relaxed);
        paqoc_telemetry::counter("faults.io_short_write", 1);
        let mut rng = self.rng.lock().unwrap_or_else(|p| p.into_inner());
        Some((rng.next_u64() as usize) % full_len)
    }

    /// The IO faults injected so far.
    pub fn counts(&self) -> IoFaultCounts {
        IoFaultCounts {
            sync_failures: self.sync_failures.load(Ordering::Relaxed),
            rename_failures: self.rename_failures.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_fire_nothing() {
        let inj = IoFaultInjector::new(1, 0.0, 0.0, 0.0);
        for _ in 0..100 {
            assert!(inj.fail_sync().is_none());
            assert!(inj.fail_rename().is_none());
            assert!(inj.short_write(64).is_none());
        }
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn full_rates_fire_every_fault() {
        let inj = IoFaultInjector::new(9, 1.0, 1.0, 1.0);
        assert!(inj.fail_sync().is_some());
        assert!(inj.fail_rename().is_some());
        let short = inj.short_write(100).expect("short write");
        assert!(short < 100, "torn prefix must be a strict prefix");
        assert_eq!(inj.counts().total(), 3);
    }

    #[test]
    fn injection_stream_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let inj = IoFaultInjector::new(seed, 0.3, 0.3, 0.3);
            let decisions: Vec<(bool, bool, Option<usize>)> = (0..64)
                .map(|_| {
                    (
                        inj.fail_sync().is_some(),
                        inj.fail_rename().is_some(),
                        inj.short_write(128),
                    )
                })
                .collect();
            (decisions, inj.counts())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).1, run(6).1);
    }
}
