//! The pulse cache shared across workers and compiles.
//!
//! The [`SharedPulseTable`] is the one pulse cache: batch workers,
//! sequential compiles and served requests all resolve pulses through
//! it (a compile without a pooled table gets a private one). Its
//! entries, keyed by composite key (`"<fingerprint-hex>/<group>"`,
//! computed by the caller — this crate treats keys as opaque), sit
//! behind one mutex, and an optional persistent [`PulseStore`] behind a
//! second. One lock is enough: at most two threads ever touch one table
//! (two batch workers, or two server workers that each compile on one
//! thread), and its critical sections are a few map operations. The
//! per-compile `PulseTable` in `paqoc-core` is a view over it that keeps
//! only per-compile state. It also owns a [`WeylMemo`], so compiles
//! pooled on one table pool the analytic estimator's Weyl
//! decompositions as well as its pulses.
//!
//! Three invariants make it safe and cheap:
//!
//! * **One claim per key.** [`SharedPulseTable::claim`] is the entry
//!   point for every lookup. Under the table lock it resolves the key
//!   to a hit, a quarantine, an in-flight marker, or — exactly once per
//!   key — a claim. Two workers can therefore never both claim a key: a
//!   batch job that finds it in flight is skipped, and the compile's
//!   attach sweep resolves it afterwards.
//! * **Read-through, write-behind.** A miss consults the store (its
//!   lock is taken strictly after the table lock, so the pair can never
//!   deadlock); completions buffer in a dirty list and reach the store
//!   only through the single-writer [`SharedPulseTable::sync`], because
//!   the append-only store is not multi-handle safe.
//! * **Quarantine is sticky.** A panicking key is quarantined before
//!   its in-flight marker drops, so a deterministic crash fires once
//!   per process, not once per worker.

use paqoc_device::{PulseEstimate, WeylMemo};
use paqoc_store::{PulseStore, StoreError, StoreRole};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// Where a cached pulse came from, for stats and journal provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Already present in the table (an earlier batch or compile).
    Shard,
    /// Read through from the persistent store.
    Store,
}

/// Outcome of [`SharedPulseTable::claim`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Claim {
    /// The pulse exists; use it.
    Hit(PulseEstimate, Provenance),
    /// The caller now owns generation for this key and **must** follow
    /// up with `complete`, `abandon` or `quarantine`.
    Claimed,
    /// Another worker or compile is generating this key right now.
    InFlight,
    /// A source panicked on this key earlier; do not retry.
    Quarantined,
}

/// The table's in-memory state, guarded by its one lock.
#[derive(Default)]
struct State {
    entries: HashMap<String, PulseEstimate>,
    in_flight: HashSet<String>,
    quarantined: HashSet<String>,
    /// Write-behind buffer: completions not yet persisted.
    dirty: Vec<(String, PulseEstimate)>,
}

/// Pulse cache with in-flight dedup and store read-through.
pub struct SharedPulseTable {
    state: Mutex<State>,
    store: Mutex<Option<PulseStore>>,
    /// Fast-path flag mirroring `store.is_some()`, so claim misses on
    /// store-less tables skip the store mutex entirely.
    store_attached: std::sync::atomic::AtomicBool,
    weyl_memo: Arc<WeylMemo>,
}

impl std::fmt::Debug for SharedPulseTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPulseTable")
            .field("entries", &self.len())
            .field("store", &self.has_store())
            .finish()
    }
}

impl Default for SharedPulseTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Recovers a poisoned lock: table state is only mutated under short
/// critical sections that cannot panic, so the data is consistent even
/// if a holder's thread died elsewhere.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl SharedPulseTable {
    /// Creates an empty in-memory table.
    pub fn new() -> Self {
        SharedPulseTable {
            state: Mutex::default(),
            store: Mutex::new(None),
            store_attached: std::sync::atomic::AtomicBool::new(false),
            weyl_memo: Arc::default(),
        }
    }

    /// The Weyl decompositions of every compile pooled on this table,
    /// empty when the table is created (see [`WeylMemo`]).
    pub fn weyl_memo(&self) -> &Arc<WeylMemo> {
        &self.weyl_memo
    }

    /// Attaches a persistent store for read-through and write-behind
    /// (builder form of [`SharedPulseTable::attach_store`]).
    pub fn with_store(self, store: PulseStore) -> Self {
        self.attach_store(store);
        self
    }

    /// Attaches a persistent store for read-through and write-behind.
    ///
    /// The store handle is owned exclusively here — the append-only log
    /// is not multi-handle safe, so every compile sharing this table
    /// shares the one handle behind the internal mutex. Takes `&self`
    /// so a store can be attached to an already-shared (`Arc`) table.
    pub fn attach_store(&self, store: PulseStore) {
        // First wins: the append-only log is single-handle, so a second
        // handle is dropped rather than swapped in under readers.
        let _ = self.attach_store_with(|| Ok::<_, std::convert::Infallible>(store));
    }

    /// Attaches the store `open` returns, unless one is attached
    /// already; returns the attached handle's role, or `None` when
    /// `open` was not called.
    ///
    /// `open` runs under the store lock, so compiles sharing this table
    /// open the file once. Were each to open its own handle, all but the
    /// first would find the writer lock held and come up read-only, and
    /// the table would keep whichever attached first.
    pub fn attach_store_with<E>(
        &self,
        open: impl FnOnce() -> Result<PulseStore, E>,
    ) -> Result<Option<StoreRole>, E> {
        let mut slot = relock(&self.store);
        if slot.is_some() {
            return Ok(None);
        }
        let store = open()?;
        let role = store.role();
        *slot = Some(store);
        self.store_attached
            .store(true, std::sync::atomic::Ordering::Release);
        Ok(Some(role))
    }

    /// `true` when a persistent store is attached.
    pub fn has_store(&self) -> bool {
        self.store_attached
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// Resolves `key` to a hit, a quarantine, an in-flight marker, or a
    /// claim (see [`Claim`]). A `Claimed` return transfers generation
    /// ownership to the caller, who must later call
    /// [`SharedPulseTable::complete`], [`SharedPulseTable::abandon`] or
    /// [`SharedPulseTable::quarantine`] for the same key.
    pub fn claim(&self, key: &str) -> Claim {
        let mut state = relock(&self.state);
        if state.quarantined.contains(key) {
            return Claim::Quarantined;
        }
        if let Some(&est) = state.entries.get(key) {
            return Claim::Hit(est, Provenance::Shard);
        }
        if state.in_flight.contains(key) {
            return Claim::InFlight;
        }
        // Read-through. Lock order is table → store, everywhere. `hit`
        // (not `get`) so the store's LFU metadata sees the access and
        // eviction keeps read-through keys hot.
        if self.has_store() {
            if let Some(est) = relock(&self.store).as_mut().and_then(|s| s.hit(key)) {
                state.entries.insert(key.to_string(), est);
                return Claim::Hit(est, Provenance::Store);
            }
        }
        state.in_flight.insert(key.to_string());
        Claim::Claimed
    }

    /// Publishes a generated pulse for a previously claimed key and
    /// buffers it for write-behind persistence.
    pub fn complete(&self, key: &str, est: PulseEstimate) {
        let mut state = relock(&self.state);
        state.in_flight.remove(key);
        state.entries.insert(key.to_string(), est);
        if self.has_store() {
            state.dirty.push((key.to_string(), est));
        }
    }

    /// Publishes a pulse generated **outside** the claim protocol (a
    /// compile's degradation ladder generating a key another compile
    /// holds the claim on). Inserts only if the key is absent and not
    /// quarantined — never clobbers a concurrent claimant's published
    /// result — and leaves in-flight markers untouched.
    pub fn publish(&self, key: &str, est: PulseEstimate) {
        let mut state = relock(&self.state);
        if state.quarantined.contains(key) || state.entries.contains_key(key) {
            return;
        }
        state.entries.insert(key.to_string(), est);
        if self.has_store() {
            state.dirty.push((key.to_string(), est));
        }
    }

    /// Releases a claim without publishing (generation failed cleanly —
    /// the key stays retriable by the sequential ladder).
    pub fn abandon(&self, key: &str) {
        relock(&self.state).in_flight.remove(key);
    }

    /// Quarantines a key whose source panicked: the claim is released
    /// and every future [`SharedPulseTable::claim`] answers
    /// [`Claim::Quarantined`].
    pub fn quarantine(&self, key: &str) {
        let mut state = relock(&self.state);
        state.in_flight.remove(key);
        state.quarantined.insert(key.to_string());
    }

    /// Looks up a pulse without claiming (the table only, no
    /// read-through).
    pub fn get(&self, key: &str) -> Option<PulseEstimate> {
        relock(&self.state).entries.get(key).copied()
    }

    /// `true` when `key` is quarantined.
    pub fn is_quarantined(&self, key: &str) -> bool {
        relock(&self.state).quarantined.contains(key)
    }

    /// Cached pulse count.
    pub fn len(&self) -> usize {
        relock(&self.state).entries.len()
    }

    /// `true` when no pulses are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Single-writer write-behind sync: drains the dirty buffer into the
    /// store (skipping keys the store already holds)
    /// and fsyncs once. Returns the number of records written; `Ok(0)`
    /// when no store is attached.
    ///
    /// A failed append loses only its own record: the rest of the
    /// buffer is still appended and fsynced, each failure is counted as
    /// `store.append_failures`, and the first one is returned.
    ///
    /// Call this from **one** thread after a batch joins — never from
    /// workers — so the append-only log sees a single writer.
    pub fn sync(&self) -> Result<usize, StoreError> {
        let pending = std::mem::take(&mut relock(&self.state).dirty);
        let mut guard = relock(&self.store);
        let Some(store) = guard.as_mut() else {
            return Ok(0);
        };
        let mut written = 0;
        let mut first_failure = None;
        for (key, est) in pending {
            if store.contains(&key) {
                continue;
            }
            match store.put(&key, est) {
                Ok(()) => written += 1,
                Err(e) => {
                    paqoc_telemetry::counter("store.append_failures", 1);
                    paqoc_telemetry::event!("store.append_failed", error = e.to_string());
                    first_failure.get_or_insert(e);
                }
            }
        }
        // Fsync what did land before reporting the first failure.
        let synced = store.sync();
        if let Some(e) = first_failure {
            return Err(e);
        }
        synced?;
        // Post-sync maintenance: enforce the eviction budget, compact
        // when dead bytes dominate, refresh when we are a reader.
        store.maintain()?;
        Ok(written)
    }

    /// Deterministic snapshot of every cached pulse, sorted by key —
    /// the byte-comparable dump the determinism tests diff across
    /// thread counts.
    pub fn snapshot(&self) -> Vec<(String, PulseEstimate)> {
        let mut all: Vec<(String, PulseEstimate)> = relock(&self.state)
            .entries
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn est(latency: f64) -> PulseEstimate {
        PulseEstimate {
            latency_ns: latency,
            latency_dt: latency as u64,
            fidelity: 0.999,
            cost_units: 1.0,
        }
    }

    #[test]
    fn claim_complete_roundtrip_and_dedup() {
        let t = SharedPulseTable::new();
        assert_eq!(t.claim("k"), Claim::Claimed);
        assert_eq!(t.claim("k"), Claim::InFlight, "second claimant must wait");
        t.complete("k", est(10.0));
        assert_eq!(t.claim("k"), Claim::Hit(est(10.0), Provenance::Shard));
        assert_eq!(t.get("k"), Some(est(10.0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn abandon_releases_and_quarantine_sticks() {
        let t = SharedPulseTable::new();
        assert_eq!(t.claim("k"), Claim::Claimed);
        t.abandon("k");
        assert_eq!(t.claim("k"), Claim::Claimed, "abandoned keys are retriable");
        t.quarantine("k");
        assert_eq!(t.claim("k"), Claim::Quarantined);
        assert!(t.is_quarantined("k"));
        assert!(t.get("k").is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let t = SharedPulseTable::new();
        for (i, k) in ["zz", "aa", "mm"].iter().enumerate() {
            assert_eq!(t.claim(k), Claim::Claimed);
            t.complete(k, est(i as f64));
        }
        let snap = t.snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn store_read_through_and_write_behind() {
        let dir = std::env::temp_dir().join(format!("paqoc_exec_shared_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("shared.pqps");
        let _ = std::fs::remove_file(&path);

        let t = SharedPulseTable::new()
            .with_store(PulseStore::open(&path, 0xfeed).expect("open store"));
        assert_eq!(t.claim("k"), Claim::Claimed);
        t.complete("k", est(5.0));
        assert_eq!(t.sync().expect("sync"), 1);
        assert_eq!(t.sync().expect("sync"), 0, "the buffer drained");

        // A fresh table over the same file resolves the key by
        // read-through, marked with store provenance.
        let t2 = SharedPulseTable::new()
            .with_store(PulseStore::open(&path, 0xfeed).expect("reopen store"));
        assert_eq!(t2.claim("k"), Claim::Hit(est(5.0), Provenance::Store));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(paqoc_store::lock_path(&path));
    }

    #[test]
    fn failed_append_keeps_the_rest_of_the_write_behind_buffer() {
        let dir = std::env::temp_dir().join(format!("paqoc_exec_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("torn.pqps");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(paqoc_store::lock_path(&path));

        let faults = Arc::new(paqoc_device::IoFaultInjector::new(5, 0.0, 0.0, 0.25));
        let opts = paqoc_store::StoreOptions {
            io_faults: Some(faults.clone()),
            ..paqoc_store::StoreOptions::default()
        };
        let t = SharedPulseTable::new()
            .with_store(PulseStore::open_with(&path, 0x7042, opts).expect("open store"));
        let completed = 40;
        for i in 0..completed {
            let key = format!("k{i}");
            assert_eq!(t.claim(&key), Claim::Claimed);
            t.complete(&key, est(10.0 + i as f64));
        }
        assert!(t.sync().is_err(), "a torn append surfaces from sync");
        let torn = faults.counts().short_writes;
        assert!(torn > 0, "the injector tore no append");
        drop(t);

        let reopened = PulseStore::open(&path, 0x7042).expect("reopen store");
        assert_eq!(reopened.len() as u64, completed - torn);
        drop(reopened);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(paqoc_store::lock_path(&path));
    }

    #[test]
    fn concurrent_attachers_open_the_store_once_as_writer() {
        let dir = std::env::temp_dir().join(format!("paqoc_exec_attach_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("attach.pqps");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(paqoc_store::lock_path(&path));

        let table = SharedPulseTable::new();
        assert!(!table.has_store());
        let opens = std::sync::atomic::AtomicUsize::new(0);
        let start = std::sync::Barrier::new(8);
        let roles: Vec<Option<StoreRole>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    let (table, opens, path, start) = (&table, &opens, &path, &start);
                    scope.spawn(move || {
                        start.wait();
                        table
                            .attach_store_with(|| {
                                opens.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                PulseStore::open(path, 0xa77a)
                            })
                            .expect("open store")
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .collect()
        });
        assert_eq!(opens.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(
            roles.iter().flatten().collect::<Vec<_>>(),
            [&StoreRole::Writer]
        );
        assert!(table.has_store());
        drop(table);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(paqoc_store::lock_path(&path));
    }
}
