//! # paqoc-store
//!
//! A crash-safe, multi-process persistent pulse store. AccQOC's central
//! acceleration is a pulse database built once and amortized across
//! circuits; this crate makes that database durable across processes so
//! a warm compilation performs **zero** pulse generations for shapes it
//! has already seen — and lets a fleet of workers on one box share a
//! single store file safely.
//!
//! ## On-disk format (version 2)
//!
//! ```text
//! header (20 bytes):
//!   magic        b"PQPS"           4 bytes
//!   version      u32 LE            4 bytes
//!   fingerprint  u64 LE            8 bytes   device fingerprint, see below
//!   header_crc   u32 LE            4 bytes   CRC-32 of the 16 bytes above
//! record (repeated, append-only):
//!   len          u32 LE            payload length in bytes
//!   crc          u32 LE            CRC-32 of the payload
//!   payload:
//!     key_len    u32 LE
//!     key        key_len bytes     UTF-8 canonical gate-group key
//!     latency_ns f64 LE bits
//!     latency_dt u64 LE
//!     fidelity   f64 LE bits
//!     cost_units f64 LE bits
//!     hits       u64 LE            v2 only: lifetime read-through hits
//!     last_access u64 LE           v2 only: logical access clock value
//! ```
//!
//! Version 1 files (no `hits`/`last_access` tail) open transparently:
//! their records load with zero generational metadata and a writer
//! immediately rewrites the file as v2
//! ([`RecoveryReport::upgraded`]). The header's `fingerprint` binds the
//! file to one device configuration (Hamiltonian limits, topology,
//! pulse discretization — see `Device::fingerprint`): a store written
//! for a different device, an unsupported format version or foreign
//! magic is **rejected and rotated to a fresh file** rather than
//! silently reused, because a pulse tuned for one coupler limit is
//! wrong on another.
//!
//! ## Multi-process protocol: single writer, many readers
//!
//! Opening a store elects a role. Exactly one handle per path holds the
//! advisory exclusive lock on the never-renamed `<path>.lock` sibling
//! (see [`lock_path`]) and becomes the [`StoreRole::Writer`]; every
//! other opener degrades to [`StoreRole::ReadOnly`] — journaled as a
//! `store.readonly` event, never an error — and serves lookups from its
//! snapshot. Readers hold **no** lock: the append-only format plus the
//! atomic compaction rename keep their view valid, and
//! [`PulseStore::refresh`] picks up concurrent writer activity by
//! re-scanning past the last processed offset (appends) or re-loading
//! when the file's inode changed (compaction rotated the file).
//! `flock` locks die with their process, so `kill -9` of the writer
//! frees the role for the next opener with nothing to clean up.
//!
//! ## Crash safety and recovery
//!
//! Appends are length-prefixed and CRC-guarded, so loading tolerates:
//!
//! * a **torn tail** (a crash mid-append): the incomplete record is
//!   truncated away;
//! * **flipped bits**: a record whose CRC does not match is quarantined
//!   (skipped) while later records still load;
//! * **duplicate keys**: the last record wins, giving append-only
//!   update semantics.
//!
//! Any recovery is journaled as a `store.recovered` telemetry event and
//! immediately scrubbed through a temp file + atomic rename + fsync, so
//! corruption never survives a second writer open. (Read-only handles
//! report damage in [`PulseStore::recovery`] but cannot scrub it.)
//!
//! ## Compaction and eviction
//!
//! The writer tracks **live** bytes (one clean record per entry) and
//! **dead** bytes (overwritten, evicted or quarantined records still
//! occupying the file). [`PulseStore::maintain`] — run after every
//! sync by the shared pulse table that owns the handle — evicts
//! lowest-hit-count records first (ties: oldest access, then key order) while a
//! compacted file would exceed [`StoreOptions::max_bytes`] (journaled
//! `store.evict` events), then compacts when dead bytes dominate
//! ([`PulseStore::should_compact`]); every compaction journals a
//! `store.compact` event carrying its trigger reason and the live/dead
//! byte counts it collapsed.
//!
//! A `paqoc-store` CLI bin ships with the crate: `inspect`, `verify`,
//! `compact`, `merge` and a `hammer` load-generator used by the
//! cross-process contention tests.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod crc32;
mod lock;

pub use crc32::crc32;
pub use lock::lock_path;

use paqoc_device::{IoFaultInjector, PulseEstimate};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic: "PaQoc Pulse Store".
pub const MAGIC: [u8; 4] = *b"PQPS";
/// Current on-disk format version (v2: generational records).
pub const FORMAT_VERSION: u32 = 2;
/// Oldest format version still readable (v1 records carry no
/// generational metadata and load with zero hits).
pub const MIN_FORMAT_VERSION: u32 = 1;
/// Size of the file header in bytes.
pub const HEADER_LEN: usize = 20;
/// Sanity cap on a single record's payload: anything larger is treated
/// as corrupt framing (a flipped bit in a length prefix must not make
/// the loader swallow the rest of the file as one giant record).
pub const MAX_RECORD_LEN: usize = 1 << 20;
/// Minimum dead bytes before [`PulseStore::should_compact`] advises a
/// compaction — rewriting a file to reclaim less than this is churn.
pub const COMPACT_DEAD_BYTES_FLOOR: u64 = 4096;

/// Why a store file (or part of it) could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The file does not start with [`MAGIC`] or is shorter than a header.
    BadHeader,
    /// The file's format version is outside
    /// [`MIN_FORMAT_VERSION`]..=[`FORMAT_VERSION`].
    Version {
        /// Version found in the file.
        found: u32,
    },
    /// The file was written for a different device configuration.
    Fingerprint {
        /// Fingerprint found in the file.
        found: u64,
        /// Fingerprint of the opening device.
        expected: u64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::BadHeader => write!(f, "missing or corrupt header"),
            RejectReason::Version { found } => {
                write!(
                    f,
                    "format version {found} (supported {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
                )
            }
            RejectReason::Fingerprint { found, expected } => write!(
                f,
                "device fingerprint {found:016x} (expected {expected:016x})"
            ),
        }
    }
}

/// An I/O failure while opening, appending to or compacting a store.
#[derive(Debug)]
pub struct StoreError {
    /// Operation that failed (`"open"`, `"append"`, `"compact"`, …).
    pub op: &'static str,
    /// The store path involved.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pulse store {} failed on {}: {}",
            self.op,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// What loading a store had to do to reach a clean state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Well-formed records loaded (before last-wins dedup).
    pub loaded: usize,
    /// Corrupt records quarantined (CRC mismatch, bad framing, malformed
    /// payload, out-of-range estimate).
    pub quarantined: usize,
    /// Bytes of torn tail truncated away.
    pub torn_tail_bytes: u64,
    /// Set when the whole file was rejected and rotated to a fresh one.
    pub rejected: Option<RejectReason>,
    /// Set (to the old version) when a writer transparently upgraded an
    /// older-format file to the current format. An upgrade alone is not
    /// "recovery": nothing was damaged.
    pub upgraded: Option<u32>,
}

impl RecoveryReport {
    /// `true` when the loader had to repair, quarantine or reject
    /// anything — i.e. the file was not already clean.
    pub fn recovered(&self) -> bool {
        self.quarantined > 0 || self.torn_tail_bytes > 0 || self.rejected.is_some()
    }
}

/// The role a handle was elected into at open (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreRole {
    /// Holds the exclusive advisory lock; the only handle that appends,
    /// compacts, evicts and scrubs.
    Writer,
    /// Serves reads from a snapshot; picks up writer activity via
    /// [`PulseStore::refresh`]. Writes are counted and dropped.
    ReadOnly,
}

/// Tuning knobs for [`PulseStore::open_with`].
#[derive(Clone, Debug, Default)]
pub struct StoreOptions {
    /// Size budget for the **compacted** file. When a compaction would
    /// still exceed it, [`PulseStore::maintain`] evicts lowest-hit
    /// records until it fits. `None` (default) never evicts.
    pub max_bytes: Option<u64>,
    /// Forces [`StoreRole::ReadOnly`] without attempting the writer
    /// lock.
    pub read_only: bool,
    /// Seeded IO fault injection for sync/rename/append (tests only).
    pub io_faults: Option<Arc<IoFaultInjector>>,
}

impl StoreOptions {
    /// Options with a compacted-size budget.
    pub fn with_max_bytes(max_bytes: u64) -> Self {
        StoreOptions {
            max_bytes: Some(max_bytes),
            ..StoreOptions::default()
        }
    }
}

/// A stored pulse with its v2 generational metadata.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoredPulse {
    /// The pulse estimate itself.
    pub estimate: PulseEstimate,
    /// Lifetime read-through hits ([`PulseStore::hit`]); the LFU
    /// eviction key.
    pub hits: u64,
    /// Logical access clock at the last hit (not wall time, so replay
    /// stays deterministic); the eviction tie-breaker.
    pub last_access: u64,
}

/// What one [`PulseStore::maintain`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainReport {
    /// Records evicted to fit [`StoreOptions::max_bytes`].
    pub evicted: usize,
    /// `true` when the pass ran a compaction.
    pub compacted: bool,
    /// Read-only handles: records newly observed by the refresh scan.
    pub refreshed: usize,
}

/// Offline summary of a store file (see [`inspect`]); the `paqoc-store`
/// CLI's `inspect`/`verify` output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreInspection {
    /// `true` when magic, header CRC and format version all check out.
    pub header_ok: bool,
    /// Format version found in the header (0 when unreadable).
    pub version: u32,
    /// Device fingerprint found in the header (0 when unreadable).
    pub fingerprint: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Well-formed records scanned (before last-wins dedup).
    pub records_scanned: usize,
    /// Distinct live keys after dedup.
    pub live_records: usize,
    /// Bytes a compacted file would spend on records.
    pub live_bytes: u64,
    /// Bytes occupied by overwritten/quarantined records.
    pub dead_bytes: u64,
    /// Corrupt records quarantined by the scan.
    pub quarantined: usize,
    /// Bytes of torn tail at the end of the file.
    pub torn_tail_bytes: u64,
    /// Sum of all live records' hit counts.
    pub total_hits: u64,
}

impl StoreInspection {
    /// `true` when the file is fully intact: valid header, no
    /// quarantined records, no torn tail.
    pub fn clean(&self) -> bool {
        self.header_ok && self.quarantined == 0 && self.torn_tail_bytes == 0
    }
}

/// What [`PulseStore::merge_from_file`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Records copied in (key absent from the destination).
    pub added: usize,
    /// Records skipped (destination already had the key; the
    /// destination's record is authoritative).
    pub skipped: usize,
}

/// Serializes one current-version record (length prefix + CRC +
/// payload) for `key`, with zero generational metadata.
pub fn encode_record(key: &str, est: &PulseEstimate) -> Vec<u8> {
    encode_record_meta(key, est, 0, 0)
}

fn encode_record_meta(key: &str, est: &PulseEstimate, hits: u64, last_access: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + key.len() + 48);
    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
    payload.extend_from_slice(key.as_bytes());
    payload.extend_from_slice(&est.latency_ns.to_bits().to_le_bytes());
    payload.extend_from_slice(&est.latency_dt.to_le_bytes());
    payload.extend_from_slice(&est.fidelity.to_bits().to_le_bytes());
    payload.extend_from_slice(&est.cost_units.to_bits().to_le_bytes());
    payload.extend_from_slice(&hits.to_le_bytes());
    payload.extend_from_slice(&last_access.to_le_bytes());
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// On-disk size in bytes of the current-version record for `key`
/// (framing included). Useful for tests that aim corruption at a
/// specific record.
pub fn record_len(key: &str) -> usize {
    8 + 4 + key.len() + 48
}

fn decode_payload(version: u32, payload: &[u8]) -> Option<(String, StoredPulse)> {
    if payload.len() < 4 {
        return None;
    }
    let tail_len = if version == 1 { 32 } else { 48 };
    let key_len = u32::from_le_bytes(payload[0..4].try_into().ok()?) as usize;
    if payload.len() != 4 + key_len + tail_len {
        return None;
    }
    let key = std::str::from_utf8(&payload[4..4 + key_len])
        .ok()?
        .to_string();
    let tail = &payload[4 + key_len..];
    let f64_at = |i: usize| -> f64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&tail[i..i + 8]);
        f64::from_bits(u64::from_le_bytes(b))
    };
    let u64_at = |i: usize| -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&tail[i..i + 8]);
        u64::from_le_bytes(b)
    };
    let estimate = PulseEstimate {
        latency_ns: f64_at(0),
        latency_dt: u64_at(8),
        fidelity: f64_at(16),
        cost_units: f64_at(24),
    };
    let (hits, last_access) = if version == 1 {
        (0, 0)
    } else {
        (u64_at(32), u64_at(40))
    };
    Some((
        key,
        StoredPulse {
            estimate,
            hits,
            last_access,
        },
    ))
}

fn encode_header(fingerprint: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&fingerprint.to_le_bytes());
    let crc = crc32(&h[0..16]);
    h[16..20].copy_from_slice(&crc.to_le_bytes());
    h
}

fn file_ino(meta: &std::fs::Metadata) -> u64 {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        meta.ino()
    }
    #[cfg(not(unix))]
    {
        let _ = meta;
        0
    }
}

/// The persistent pulse store (see the module docs for format, lock
/// protocol and recovery guarantees).
///
/// All loaded entries are kept in memory (a pulse record is ~100 bytes;
/// even a million-pulse database is small), so [`PulseStore::get`] is a
/// map lookup and the file is only touched by appends, refreshes and
/// compaction.
#[derive(Debug)]
pub struct PulseStore {
    path: PathBuf,
    role: StoreRole,
    /// Append handle — writer only.
    file: Option<File>,
    /// Held exclusive advisory lock — writer only. Releasing it (drop)
    /// frees the writer role for the next opener.
    _lock: Option<File>,
    entries: BTreeMap<String, StoredPulse>,
    fingerprint: u64,
    recovery: RecoveryReport,
    options: StoreOptions,
    /// Logical access clock: bumped on every [`PulseStore::hit`],
    /// persisted per record at compaction. Deterministic, unlike wall
    /// time.
    clock: u64,
    /// On-disk format version of the current file (readers may lag on
    /// v1 until the writer upgrades).
    version: u32,
    /// Current file length as this handle knows it.
    file_bytes: u64,
    /// Bytes a compacted file would spend on records.
    live_bytes: u64,
    /// Bytes of overwritten/evicted/quarantined records awaiting
    /// compaction.
    dead_bytes: u64,
    /// Set when an append failed mid-record and truncation-repair has
    /// not succeeded yet; further appends first retry the repair.
    tail_dirty: bool,
    /// Read-only handles: byte offset up to which records are scanned.
    scanned_len: u64,
    /// Read-only handles: inode of the scanned file (0 = none yet).
    ino: u64,
    evictions: u64,
    compactions: u64,
    readonly_drops: u64,
}

impl PulseStore {
    /// Opens (or creates) the store at `path` for a device with the
    /// given fingerprint, with default [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// See [`PulseStore::open_with`].
    pub fn open(path: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, StoreError> {
        Self::open_with(path, fingerprint, StoreOptions::default())
    }

    /// Opens (or creates) the store at `path`, electing a
    /// [`StoreRole`]: the opener that wins the advisory exclusive lock
    /// becomes the writer; everyone else degrades to a read-only
    /// snapshot (journaled as `store.readonly`, never an error).
    ///
    /// A file with a corrupt header, foreign magic, unsupported format
    /// version or different fingerprint is **rotated** by a writer: its
    /// contents are discarded and a fresh store is started, with the
    /// rejection recorded in [`PulseStore::recovery`] and journaled as
    /// a `store.recovered` event. Torn tails and corrupt records are
    /// repaired the same way (see module docs). A still-supported older
    /// format version is upgraded in place
    /// ([`RecoveryReport::upgraded`]). Read-only handles report damage
    /// but cannot repair it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] only for genuine I/O failures (permission,
    /// missing parent directory, disk errors) — never for corruption,
    /// which is always recoverable by construction.
    pub fn open_with(
        path: impl Into<PathBuf>,
        fingerprint: u64,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let path = path.into();
        let lock = if options.read_only {
            None
        } else {
            lock::acquire_writer(&path).map_err(|source| StoreError {
                op: "lock",
                path: path.clone(),
                source,
            })?
        };
        let store = match lock {
            Some(lock) => Self::open_writer(path, fingerprint, options, lock)?,
            None => Self::open_reader(path, fingerprint, options)?,
        };
        paqoc_telemetry::counter("store.opens", 1);
        paqoc_telemetry::counter("store.loaded_records", store.entries.len() as u64);
        Ok(store)
    }

    fn open_writer(
        path: PathBuf,
        fingerprint: u64,
        options: StoreOptions,
        lock: File,
    ) -> Result<Self, StoreError> {
        let err = |op: &'static str, path: &Path| {
            let path = path.to_path_buf();
            move |source: std::io::Error| StoreError { op, path, source }
        };

        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(err("open", &path)(e)),
        };

        let mut recovery = RecoveryReport::default();
        let mut entries: BTreeMap<String, StoredPulse> = BTreeMap::new();
        let mut version = FORMAT_VERSION;

        if !bytes.is_empty() {
            match check_header(&bytes, fingerprint, FingerprintRule::Cohabit) {
                Err(reason) => recovery.rejected = Some(reason),
                Ok(v) => {
                    version = v;
                    let mut report = ScanReport::default();
                    scan_records(&bytes, HEADER_LEN, v, &mut entries, &mut report, false);
                    recovery.loaded = report.loaded;
                    recovery.quarantined = report.quarantined;
                    recovery.torn_tail_bytes = report.torn_tail_bytes;
                }
            }
        }

        let fresh = bytes.is_empty() || recovery.rejected.is_some();
        if fresh {
            entries.clear();
        }
        let upgrade = !fresh && version < FORMAT_VERSION;
        if upgrade {
            recovery.upgraded = Some(version);
            paqoc_telemetry::counter("store.upgrades", 1);
        }
        // The open-time create/scrub is exempt from IO fault injection:
        // faults target the runtime path (append/sync/compact) so tests
        // can always obtain a handle deterministically before the storm.
        if fresh {
            // Start (or restart) with a clean header. Rotation goes
            // through the same atomic temp+rename path as compaction so
            // a crash here can never leave a half-written header.
            write_atomically(&path, fingerprint, &entries, None).map_err(err("create", &path))?;
        } else if recovery.recovered() || upgrade {
            // Scrub quarantined records, the torn tail and any
            // older-format records out of the file so neither corruption
            // nor a stale format survives a second writer open.
            write_atomically(&path, fingerprint, &entries, None).map_err(err("recover", &path))?;
        }

        if recovery.recovered() {
            paqoc_telemetry::counter("store.recovered", 1);
            paqoc_telemetry::counter("store.quarantined_records", recovery.quarantined as u64);
            paqoc_telemetry::event!(
                "store.recovered",
                path = path.display().to_string(),
                loaded = recovery.loaded as u64,
                quarantined = recovery.quarantined as u64,
                torn_tail_bytes = recovery.torn_tail_bytes,
                rejected = recovery
                    .rejected
                    .as_ref()
                    .map(|r| r.to_string())
                    .unwrap_or_default(),
            );
        }

        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(err("open", &path))?;
        let file_bytes = std::fs::metadata(&path).map_err(err("open", &path))?.len();
        let live_bytes: u64 = entries.keys().map(|k| record_len(k) as u64).sum();
        let clock = entries
            .values()
            .map(|r| r.last_access)
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        Ok(PulseStore {
            path,
            role: StoreRole::Writer,
            file: Some(file),
            _lock: Some(lock),
            entries,
            fingerprint,
            recovery,
            options,
            clock,
            version: FORMAT_VERSION,
            file_bytes,
            live_bytes,
            dead_bytes: file_bytes
                .saturating_sub(HEADER_LEN as u64)
                .saturating_sub(live_bytes),
            tail_dirty: false,
            scanned_len: 0,
            ino: 0,
            evictions: 0,
            compactions: 0,
            readonly_drops: 0,
        })
    }

    fn open_reader(
        path: PathBuf,
        fingerprint: u64,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let reason = if options.read_only {
            "requested"
        } else {
            "lock-held"
        };
        let mut store = PulseStore {
            path,
            role: StoreRole::ReadOnly,
            file: None,
            _lock: None,
            entries: BTreeMap::new(),
            fingerprint,
            recovery: RecoveryReport::default(),
            options,
            clock: 0,
            version: FORMAT_VERSION,
            file_bytes: 0,
            live_bytes: 0,
            dead_bytes: 0,
            tail_dirty: false,
            scanned_len: 0,
            ino: 0,
            evictions: 0,
            compactions: 0,
            readonly_drops: 0,
        };
        store.refresh()?;
        paqoc_telemetry::counter("store.readonly", 1);
        paqoc_telemetry::event!(
            "store.readonly",
            path = store.path.display().to_string(),
            reason = reason.to_string(),
            loaded = store.entries.len() as u64,
        );
        Ok(store)
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The role this handle was elected into at open.
    pub fn role(&self) -> StoreRole {
        self.role
    }

    /// The options this handle was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// The device fingerprint this store is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// What loading had to repair (all zeros/`None` for a clean open).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Number of distinct pulses stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no pulses are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current file length in bytes as this handle knows it.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Bytes a compacted file would spend on records.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Bytes occupied by overwritten/evicted/quarantined records that a
    /// compaction would reclaim.
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// Records evicted by this handle so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Compactions run by this handle so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Writes dropped because this handle is read-only.
    pub fn readonly_drops(&self) -> u64 {
        self.readonly_drops
    }

    /// Looks up the stored estimate for a canonical key without
    /// touching the generational metadata (use [`PulseStore::hit`] on
    /// the serving path so LFU eviction sees real usage).
    pub fn get(&self, key: &str) -> Option<PulseEstimate> {
        self.entries.get(key).map(|r| r.estimate)
    }

    /// `true` when `key` is stored.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Looks up the full stored record (estimate + metadata) for a key.
    pub fn peek(&self, key: &str) -> Option<&StoredPulse> {
        self.entries.get(key)
    }

    /// Read-through lookup: returns the estimate and records the access
    /// (hit count + logical recency) that drives LFU eviction. Metadata
    /// lives in memory and is persisted at the next compaction — a hit
    /// never touches the file.
    pub fn hit(&mut self, key: &str) -> Option<PulseEstimate> {
        let rec = self.entries.get_mut(key)?;
        rec.hits += 1;
        self.clock += 1;
        rec.last_access = self.clock;
        paqoc_telemetry::counter("store.hits", 1);
        Some(rec.estimate)
    }

    /// Iterates over all stored `(key, estimate)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PulseEstimate)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), &v.estimate))
    }

    /// Iterates over all stored `(key, record)` pairs — estimate plus
    /// generational metadata — in key order.
    pub fn iter_records(&self) -> impl Iterator<Item = (&str, &StoredPulse)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Appends (or overwrites) the estimate for `key`.
    ///
    /// Write-behind contract: the record is appended and flushed to the
    /// OS immediately (a process crash loses nothing already `put`), but
    /// durably fsynced only by [`PulseStore::sync`] or
    /// [`PulseStore::compact`]. A `put` equal to the stored value is a
    /// no-op so repeated warm runs do not grow the file. Overwrites
    /// preserve the key's hit count.
    ///
    /// Ill-formed estimates (NaN/∞/out-of-range — see
    /// [`PulseEstimate::is_well_formed`]) are rejected without touching
    /// the file: the store can only ever serve estimates that passed the
    /// same validation generation does. On a **read-only** handle the
    /// write is counted ([`PulseStore::readonly_drops`]) and dropped —
    /// degradation, not failure.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure; the in-memory view is not
    /// updated in that case, and the file is truncated back to the last
    /// record boundary so a live writer never cascades a torn append
    /// into later corruption.
    pub fn put(&mut self, key: &str, est: PulseEstimate) -> Result<(), StoreError> {
        if self.role == StoreRole::ReadOnly {
            self.readonly_drops += 1;
            paqoc_telemetry::counter("store.readonly_drops", 1);
            return Ok(());
        }
        if !est.is_well_formed() {
            paqoc_telemetry::counter("store.rejected_estimates", 1);
            return Ok(());
        }
        if let Some(cur) = self.entries.get(key) {
            if cur.estimate == est {
                return Ok(());
            }
        }
        if self.tail_dirty {
            self.repair_tail()?;
        }
        let (hits, last_access) = self
            .entries
            .get(key)
            .map(|r| (r.hits, r.last_access))
            .unwrap_or((0, self.clock));
        let record = encode_record_meta(key, &est, hits, last_access);
        let faults = self.options.io_faults.clone();
        let short = faults.as_deref().and_then(|f| f.short_write(record.len()));
        let append = |file: &mut File| -> std::io::Result<()> {
            if let Some(n) = short {
                // Injected torn append: only a prefix lands before the
                // error surfaces — the on-disk shape of ENOSPC mid-write.
                file.write_all(&record[..n])?;
                file.flush()?;
                return Err(std::io::Error::other("injected short write"));
            }
            file.write_all(&record)?;
            file.flush()
        };
        let result = match self.file.as_mut() {
            Some(file) => append(file),
            None => Err(std::io::Error::other("writer handle missing")),
        };
        if let Err(source) = result {
            self.tail_dirty = true;
            let _ = self.repair_tail();
            return Err(StoreError {
                op: "append",
                path: self.path.clone(),
                source,
            });
        }
        self.file_bytes += record.len() as u64;
        let replaced = self
            .entries
            .insert(
                key.to_string(),
                StoredPulse {
                    estimate: est,
                    hits,
                    last_access,
                },
            )
            .is_some();
        if replaced {
            self.dead_bytes += record_len(key) as u64;
        } else {
            self.live_bytes += record_len(key) as u64;
        }
        paqoc_telemetry::counter("store.appends", 1);
        Ok(())
    }

    /// Truncates the file back to the last known record boundary after
    /// a failed append, so a live writer keeps the file parseable.
    fn repair_tail(&mut self) -> Result<(), StoreError> {
        let target = self.file_bytes;
        let result = match self.file.as_mut() {
            Some(file) => file.set_len(target),
            None => Err(std::io::Error::other("writer handle missing")),
        };
        match result {
            Ok(()) => {
                self.tail_dirty = false;
                paqoc_telemetry::counter("store.append_repairs", 1);
                Ok(())
            }
            Err(source) => Err(StoreError {
                op: "append-repair",
                path: self.path.clone(),
                source,
            }),
        }
    }

    /// Durably fsyncs all appended records. A no-op on read-only
    /// handles.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the fsync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.role == StoreRole::ReadOnly {
            return Ok(());
        }
        if let Some(source) = self
            .options
            .io_faults
            .as_deref()
            .and_then(|f| f.fail_sync())
        {
            return Err(StoreError {
                op: "sync",
                path: self.path.clone(),
                source,
            });
        }
        match self.file.as_mut() {
            Some(file) => file.sync_all().map_err(|source| StoreError {
                op: "sync",
                path: self.path.clone(),
                source,
            }),
            None => Ok(()),
        }
    }

    /// `true` when enough **bytes** of overwritten/evicted records have
    /// accumulated ([`COMPACT_DEAD_BYTES_FLOOR`], and at least as many
    /// dead bytes as live ones) that a [`PulseStore::compact`] would
    /// meaningfully shrink the file.
    pub fn should_compact(&self) -> bool {
        self.role == StoreRole::Writer
            && self.dead_bytes >= COMPACT_DEAD_BYTES_FLOOR
            && self.dead_bytes >= self.live_bytes
    }

    /// Rewrites the store as one clean record per key, via a temp file,
    /// an atomic rename and an fsync of file and directory — a crash at
    /// any point leaves either the old file or the new one, never a
    /// hybrid. Concurrent readers stay valid: their open snapshot is
    /// untouched and their next [`PulseStore::refresh`] sees the new
    /// inode and reloads. A no-op on read-only handles.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure; the previous file is left
    /// untouched in that case.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.compact_with_reason("manual")
    }

    /// [`PulseStore::compact`] with an explicit trigger reason recorded
    /// in the journaled `store.compact` event (`"manual"`, `"evict"`,
    /// `"dead-bytes"`, `"merge"`, `"cli"`).
    pub fn compact_with_reason(&mut self, reason: &str) -> Result<(), StoreError> {
        if self.role == StoreRole::ReadOnly {
            return Ok(());
        }
        let (live_before, dead_before) = (self.live_bytes, self.dead_bytes);
        write_atomically(
            &self.path,
            self.fingerprint,
            &self.entries,
            self.options.io_faults.as_deref(),
        )
        .map_err(|source| StoreError {
            op: "compact",
            path: self.path.clone(),
            source,
        })?;
        self.file = Some(
            OpenOptions::new()
                .append(true)
                .open(&self.path)
                .map_err(|source| StoreError {
                    op: "compact",
                    path: self.path.clone(),
                    source,
                })?,
        );
        self.file_bytes = HEADER_LEN as u64 + self.live_bytes;
        self.dead_bytes = 0;
        self.tail_dirty = false;
        self.version = FORMAT_VERSION;
        self.compactions += 1;
        paqoc_telemetry::counter("store.compactions", 1);
        paqoc_telemetry::event!(
            "store.compact",
            path = self.path.display().to_string(),
            reason = reason.to_string(),
            live_bytes = live_before,
            dead_bytes = dead_before,
            records = self.entries.len() as u64,
        );
        Ok(())
    }

    /// Evicts lowest-hit-count records (ties: oldest logical access,
    /// then key order) while a compacted file would still exceed
    /// [`StoreOptions::max_bytes`]. Returns the number evicted; the
    /// bytes are reclaimed by the following compaction.
    fn enforce_budget(&mut self) -> usize {
        let Some(max) = self.options.max_bytes else {
            return 0;
        };
        let budget = max.saturating_sub(HEADER_LEN as u64);
        if self.live_bytes <= budget {
            return 0;
        }
        let mut order: Vec<(u64, u64, String)> = self
            .entries
            .iter()
            .map(|(k, r)| (r.hits, r.last_access, k.clone()))
            .collect();
        order.sort();
        let mut evicted = 0;
        for (hits, _, key) in order {
            if self.live_bytes <= budget {
                break;
            }
            let len = record_len(&key) as u64;
            self.entries.remove(&key);
            self.live_bytes -= len;
            self.dead_bytes += len;
            self.evictions += 1;
            evicted += 1;
            paqoc_telemetry::counter("store.evictions", 1);
            paqoc_telemetry::event!("store.evict", key = key, hits = hits, bytes = len);
        }
        evicted
    }

    /// One housekeeping pass, run after every sync:
    ///
    /// * **writer**: evict to fit [`StoreOptions::max_bytes`] (then
    ///   compact with reason `"evict"`), else compact when
    ///   [`PulseStore::should_compact`] says dead bytes dominate
    ///   (reason `"dead-bytes"`);
    /// * **read-only**: [`PulseStore::refresh`] the snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the underlying compaction or refresh
    /// fails.
    pub fn maintain(&mut self) -> Result<MaintainReport, StoreError> {
        let mut report = MaintainReport::default();
        if self.role == StoreRole::ReadOnly {
            report.refreshed = self.refresh()?;
            return Ok(report);
        }
        report.evicted = self.enforce_budget();
        if report.evicted > 0 {
            self.compact_with_reason("evict")?;
            report.compacted = true;
        } else if self.should_compact() {
            self.compact_with_reason("dead-bytes")?;
            report.compacted = true;
        }
        Ok(report)
    }

    /// Brings a read-only snapshot up to date with concurrent writer
    /// activity; returns the number of records scanned in. A no-op on
    /// writer handles (they own the file).
    ///
    /// Appends are picked up by scanning past the last processed
    /// offset; a compaction (the inode changed, or the file shrank) or
    /// a file that appeared after open triggers a full reload. A
    /// partial frame at the tail is treated as an append in progress —
    /// the scan stops before it and retries on the next refresh, it is
    /// never counted as damage.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure. A missing file is not an
    /// error (the writer may not have created it yet).
    pub fn refresh(&mut self) -> Result<usize, StoreError> {
        if self.role == StoreRole::Writer {
            return Ok(0);
        }
        let err = |op: &'static str, path: &Path| {
            let path = path.to_path_buf();
            move |source: std::io::Error| StoreError { op, path, source }
        };
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(err("refresh", &self.path)(e)),
        };
        // fstat the handle we will read from, so a concurrent compaction
        // rename between stat and read cannot mix two files' offsets.
        let meta = file.metadata().map_err(err("refresh", &self.path))?;
        let ino = file_ino(&meta);
        let len = meta.len();
        if ino == self.ino && len == self.scanned_len {
            return Ok(0);
        }
        if ino == self.ino && len > self.scanned_len {
            // Incremental: scan only the appended suffix.
            file.seek(SeekFrom::Start(self.scanned_len))
                .map_err(err("refresh", &self.path))?;
            let mut buf = Vec::with_capacity((len - self.scanned_len) as usize);
            file.read_to_end(&mut buf)
                .map_err(err("refresh", &self.path))?;
            let mut report = ScanReport::default();
            let consumed =
                scan_records(&buf, 0, self.version, &mut self.entries, &mut report, true);
            self.scanned_len += consumed as u64;
            self.file_bytes = len;
            self.recompute_byte_accounting();
            paqoc_telemetry::counter("store.refresh_records", report.loaded as u64);
            return Ok(report.loaded);
        }
        // Rotation (compaction replaced the file) or truncation: full
        // reload through the same handle.
        file.seek(SeekFrom::Start(0))
            .map_err(err("refresh", &self.path))?;
        let mut bytes = Vec::with_capacity(len as usize);
        file.read_to_end(&mut bytes)
            .map_err(err("refresh", &self.path))?;
        let loaded = self.load_snapshot(&bytes, ino);
        paqoc_telemetry::counter("store.refresh_records", loaded as u64);
        Ok(loaded)
    }

    /// Replaces the read-only snapshot with a full parse of `bytes`.
    fn load_snapshot(&mut self, bytes: &[u8], ino: u64) -> usize {
        let mut entries = BTreeMap::new();
        let mut recovery = RecoveryReport::default();
        let mut report = ScanReport::default();
        let mut consumed = bytes.len();
        if !bytes.is_empty() {
            match check_header(bytes, self.fingerprint, FingerprintRule::Cohabit) {
                Err(reason) => recovery.rejected = Some(reason),
                Ok(v) => {
                    self.version = v;
                    consumed = scan_records(bytes, HEADER_LEN, v, &mut entries, &mut report, true);
                    recovery.loaded = report.loaded;
                    recovery.quarantined = report.quarantined;
                    recovery.torn_tail_bytes = report.torn_tail_bytes;
                }
            }
        } else {
            consumed = 0;
        }
        self.entries = entries;
        self.recovery = recovery;
        self.scanned_len = consumed as u64;
        self.ino = ino;
        self.file_bytes = bytes.len() as u64;
        self.recompute_byte_accounting();
        self.clock = self
            .entries
            .values()
            .map(|r| r.last_access)
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        report.loaded
    }

    fn recompute_byte_accounting(&mut self) {
        self.live_bytes = self.entries.keys().map(|k| record_len(k) as u64).sum();
        self.dead_bytes = self
            .file_bytes
            .saturating_sub(HEADER_LEN as u64)
            .saturating_sub(self.live_bytes);
    }

    /// Merges every record from the store file at `src` whose key is
    /// absent here, then compacts (reason `"merge"`). Records this
    /// store already has are kept untouched — the destination is
    /// authoritative on conflicts. `src` must carry this store's
    /// fingerprint and a supported format version.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when `src` is unreadable or rejected
    /// (wrong fingerprint/version/magic), when called on a read-only
    /// handle, or when the final compaction fails.
    pub fn merge_from_file(&mut self, src: &Path) -> Result<MergeReport, StoreError> {
        if self.role == StoreRole::ReadOnly {
            return Err(StoreError {
                op: "merge",
                path: self.path.clone(),
                source: std::io::Error::other("store handle is read-only"),
            });
        }
        let bytes = std::fs::read(src).map_err(|source| StoreError {
            op: "merge",
            path: src.to_path_buf(),
            source,
        })?;
        let version =
            check_header(&bytes, self.fingerprint, FingerprintRule::Exact).map_err(|reason| {
                StoreError {
                    op: "merge",
                    path: src.to_path_buf(),
                    source: std::io::Error::other(format!("source rejected: {reason}")),
                }
            })?;
        let mut src_entries = BTreeMap::new();
        let mut report = ScanReport::default();
        scan_records(
            &bytes,
            HEADER_LEN,
            version,
            &mut src_entries,
            &mut report,
            false,
        );
        let mut merge = MergeReport::default();
        for (key, rec) in src_entries {
            if self.entries.contains_key(&key) {
                merge.skipped += 1;
                continue;
            }
            self.live_bytes += record_len(&key) as u64;
            self.clock = self.clock.max(rec.last_access.saturating_add(1));
            self.entries.insert(key, rec);
            merge.added += 1;
        }
        if merge.added > 0 {
            self.compact_with_reason("merge")?;
        }
        Ok(merge)
    }
}

/// Offline summary of the store file at `path`, without fingerprint
/// knowledge or lock acquisition — the `paqoc-store` CLI's
/// `inspect`/`verify` backend. Reads whatever header the file carries
/// and scans records under the file's own version.
///
/// # Errors
///
/// Returns [`StoreError`] only when the file cannot be read at all;
/// corruption is reported in the returned [`StoreInspection`].
pub fn inspect(path: &Path) -> Result<StoreInspection, StoreError> {
    let bytes = std::fs::read(path).map_err(|source| StoreError {
        op: "inspect",
        path: path.to_path_buf(),
        source,
    })?;
    let mut ins = StoreInspection {
        file_bytes: bytes.len() as u64,
        ..StoreInspection::default()
    };
    if bytes.len() < HEADER_LEN || bytes[0..4] != MAGIC {
        return Ok(ins);
    }
    let stored_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if crc32(&bytes[0..16]) != stored_crc {
        return Ok(ins);
    }
    ins.version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    ins.fingerprint = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&ins.version) {
        return Ok(ins);
    }
    ins.header_ok = true;
    let mut entries = BTreeMap::new();
    let mut report = ScanReport::default();
    scan_records(
        &bytes,
        HEADER_LEN,
        ins.version,
        &mut entries,
        &mut report,
        false,
    );
    ins.records_scanned = report.loaded;
    ins.quarantined = report.quarantined;
    ins.torn_tail_bytes = report.torn_tail_bytes;
    ins.live_records = entries.len();
    ins.live_bytes = entries.keys().map(|k| record_len(k) as u64).sum();
    ins.dead_bytes = ins
        .file_bytes
        .saturating_sub(HEADER_LEN as u64)
        .saturating_sub(ins.live_bytes);
    ins.total_hits = entries.values().map(|r| r.hits).sum();
    Ok(ins)
}

/// How strictly a file header's fingerprint must match the handle's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FingerprintRule {
    /// Bit-for-bit equality. Merge sources use this: merging is an
    /// explicit "these are the same device" claim, so a namespace
    /// mismatch there is an operator error, not cohabitation.
    Exact,
    /// Open/refresh relaxation: two *backend-namespaced* fingerprints
    /// (tag byte `0xB5`, see `paqoc_device::fingerprint`) may cohabit
    /// one file. Every composite cache key is fingerprint-prefixed, so
    /// cohabitation shares bytes without ever cross-serving a pulse.
    /// A legacy fingerprint on either side keeps exact-match rotation.
    Cohabit,
}

fn check_header(
    bytes: &[u8],
    fingerprint: u64,
    rule: FingerprintRule,
) -> Result<u32, RejectReason> {
    if bytes.len() < HEADER_LEN || bytes[0..4] != MAGIC {
        return Err(RejectReason::BadHeader);
    }
    let stored_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if crc32(&bytes[0..16]) != stored_crc {
        return Err(RejectReason::BadHeader);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(RejectReason::Version { found: version });
    }
    let found = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if found != fingerprint {
        let cohabit = rule == FingerprintRule::Cohabit
            && paqoc_device::is_namespaced(found)
            && paqoc_device::is_namespaced(fingerprint);
        if !cohabit {
            return Err(RejectReason::Fingerprint {
                found,
                expected: fingerprint,
            });
        }
        paqoc_telemetry::counter("store.ns_cohabit", 1);
    }
    Ok(version)
}

#[derive(Default)]
struct ScanReport {
    loaded: usize,
    quarantined: usize,
    torn_tail_bytes: u64,
}

/// Scans record frames in `bytes` starting at `start` into `entries`
/// (duplicate keys: last wins). Returns the offset of the first byte
/// **not** consumed.
///
/// `tail_sensitive` is the live-reader mode: trailing anomalies (a
/// partial frame, or a CRC mismatch on the very last frame) are treated
/// as a concurrent append in progress — the scan stops before them
/// without counting damage, so the next refresh retries from there. In
/// the default (loader) mode they are counted as torn tail /
/// quarantined exactly as v1 did.
fn scan_records(
    bytes: &[u8],
    start: usize,
    version: u32,
    entries: &mut BTreeMap<String, StoredPulse>,
    report: &mut ScanReport,
    tail_sensitive: bool,
) -> usize {
    let mut offset = start;
    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < 8 {
            // A frame header cannot fit: torn tail (or an append still
            // in flight, for a live reader).
            if !tail_sensitive {
                report.torn_tail_bytes += remaining as u64;
            }
            return offset;
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_LEN {
            // The length prefix itself is implausible, so framing beyond
            // this point cannot be trusted: quarantine the rest (or, for
            // a live reader, wait — the writer will scrub or compact).
            if !tail_sensitive {
                report.quarantined += 1;
                report.torn_tail_bytes += remaining as u64;
            }
            return offset;
        }
        if remaining < 8 + len {
            // Crash mid-append: the payload never fully landed.
            if !tail_sensitive {
                report.torn_tail_bytes += remaining as u64;
            }
            return offset;
        }
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let payload = &bytes[offset + 8..offset + 8 + len];
        if crc32(payload) != crc {
            if tail_sensitive && offset + 8 + len == bytes.len() {
                // The final frame may simply not have fully landed yet.
                return offset;
            }
            report.quarantined += 1;
            offset += 8 + len;
            continue;
        }
        offset += 8 + len;
        match decode_payload(version, payload) {
            Some((key, rec)) if rec.estimate.is_well_formed() => {
                report.loaded += 1;
                entries.insert(key, rec); // duplicate keys: last wins
            }
            _ => report.quarantined += 1,
        }
    }
    offset
}

/// Writes header + one record per entry to `path.tmp`, fsyncs it,
/// renames it over `path` and fsyncs the directory. Injected IO faults
/// (sync/rename) abort before the rename, leaving the original file
/// untouched.
fn write_atomically(
    path: &Path,
    fingerprint: u64,
    entries: &BTreeMap<String, StoredPulse>,
    faults: Option<&IoFaultInjector>,
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&encode_header(fingerprint))?;
        for (key, rec) in entries {
            f.write_all(&encode_record_meta(
                key,
                &rec.estimate,
                rec.hits,
                rec.last_access,
            ))?;
        }
        if let Some(e) = faults.and_then(|f| f.fail_sync()) {
            drop(f);
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        f.sync_all()?;
    }
    if let Some(e) = faults.and_then(|f| f.fail_rename()) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync is best-effort: some
    // filesystems refuse to open directories, and the rename alone is
    // already atomic on every platform we target.
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("paqoc-store-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    fn est(latency_ns: f64) -> PulseEstimate {
        PulseEstimate {
            latency_ns,
            latency_dt: (latency_ns / 0.125).ceil() as u64,
            fidelity: 0.999,
            cost_units: 1.5,
        }
    }

    #[test]
    fn roundtrips_across_reopen() {
        let path = tmp("roundtrip.pqps");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = PulseStore::open(&path, 0xDEAD).expect("open");
            assert!(s.is_empty());
            s.put("cx", est(14.0)).expect("put");
            s.put("h", est(5.0)).expect("put");
            s.sync().expect("sync");
        }
        let s = PulseStore::open(&path, 0xDEAD).expect("reopen");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get("cx"), Some(est(14.0)));
        assert_eq!(s.get("h"), Some(est(5.0)));
        assert!(!s.recovery().recovered());
        assert_eq!(s.role(), StoreRole::Writer);
    }

    #[test]
    fn duplicate_key_last_wins_and_compacts() {
        let path = tmp("dup.pqps");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = PulseStore::open(&path, 1).expect("open");
            s.put("k", est(10.0)).expect("put");
            s.put("k", est(20.0)).expect("put");
            s.put("k", est(30.0)).expect("put");
            assert_eq!(s.len(), 1);
            assert_eq!(s.dead_bytes(), 2 * record_len("k") as u64);
            s.compact().expect("compact");
            assert_eq!(s.dead_bytes(), 0);
        }
        let size = std::fs::metadata(&path).expect("meta").len() as usize;
        assert_eq!(size, HEADER_LEN + record_len("k"));
        let s = PulseStore::open(&path, 1).expect("reopen");
        assert_eq!(s.get("k"), Some(est(30.0)));
    }

    #[test]
    fn identical_put_is_a_no_op_on_disk() {
        let path = tmp("noop.pqps");
        let _ = std::fs::remove_file(&path);
        let mut s = PulseStore::open(&path, 1).expect("open");
        s.put("k", est(10.0)).expect("put");
        let size = std::fs::metadata(&path).expect("meta").len();
        for _ in 0..5 {
            s.put("k", est(10.0)).expect("put");
        }
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), size);
    }

    #[test]
    fn foreign_fingerprint_is_rejected_not_reused() {
        let path = tmp("fp.pqps");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = PulseStore::open(&path, 0xAAAA).expect("open");
            s.put("cx", est(14.0)).expect("put");
        }
        let s = PulseStore::open(&path, 0xBBBB).expect("reopen");
        assert!(s.is_empty(), "stale cache must not be reused");
        assert_eq!(
            s.recovery().rejected,
            Some(RejectReason::Fingerprint {
                found: 0xAAAA,
                expected: 0xBBBB
            })
        );
        // The rotation is durable: reopening with the *new* fingerprint
        // finds a clean, accepted file.
        drop(s);
        let s = PulseStore::open(&path, 0xBBBB).expect("third open");
        assert!(s.recovery().rejected.is_none());
    }

    #[test]
    fn namespaced_fingerprints_cohabit_one_file() {
        let fp_a = paqoc_device::encode_namespaced(paqoc_device::NS_HEAVY_HEX, 0x0101, 0x1234);
        let fp_b =
            paqoc_device::encode_namespaced(paqoc_device::NS_TUNABLE_COUPLER, 0x0202, 0x5678);
        assert_ne!(fp_a, fp_b);
        let path = tmp("cohabit.pqps");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = PulseStore::open(&path, fp_a).expect("open a");
            s.put(&format!("{fp_a:016x}/cx"), est(14.0)).expect("put");
        }
        // A second namespaced backend opens the same file: no rotation,
        // the first backend's records survive.
        {
            let mut s = PulseStore::open(&path, fp_b).expect("open b");
            assert!(s.recovery().rejected.is_none(), "namespaced fps cohabit");
            assert_eq!(s.len(), 1, "backend A's record survives B's open");
            assert!(s.get(&format!("{fp_b:016x}/cx")).is_none());
            s.put(&format!("{fp_b:016x}/cx"), est(9.0)).expect("put");
        }
        // And back: A sees both namespaces' records, keys disjoint.
        let s = PulseStore::open(&path, fp_a).expect("reopen a");
        assert!(s.recovery().rejected.is_none());
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&format!("{fp_a:016x}/cx")), Some(est(14.0)));
        assert_eq!(s.get(&format!("{fp_b:016x}/cx")), Some(est(9.0)));
    }

    #[test]
    fn legacy_vs_namespaced_still_rotates() {
        let legacy = 0x9182_8249_684c_0a3eu64;
        let namespaced = paqoc_device::encode_namespaced(paqoc_device::NS_HEAVY_HEX, 7, 0xABCD);
        let path = tmp("mixed_fp.pqps");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = PulseStore::open(&path, legacy).expect("open legacy");
            s.put("cx", est(14.0)).expect("put");
        }
        let s = PulseStore::open(&path, namespaced).expect("open namespaced");
        assert!(
            s.recovery().rejected.is_some(),
            "legacy on either side keeps exact-match rotation"
        );
        assert!(s.is_empty());
    }

    #[test]
    fn merge_stays_exact_even_for_namespaced_fingerprints() {
        let fp_a = paqoc_device::encode_namespaced(paqoc_device::NS_HEAVY_HEX, 1, 0x1111);
        let fp_b = paqoc_device::encode_namespaced(paqoc_device::NS_TUNABLE_COUPLER, 2, 0x2222);
        let src = tmp("merge_ns_src.pqps");
        let dst = tmp("merge_ns_dst.pqps");
        let _ = std::fs::remove_file(&src);
        let _ = std::fs::remove_file(&dst);
        {
            let mut s = PulseStore::open(&src, fp_b).expect("open src");
            s.put("k", est(3.0)).expect("put");
        }
        let mut d = PulseStore::open(&dst, fp_a).expect("open dst");
        let err = d
            .merge_from_file(&src)
            .expect_err("cross-backend merge must fail");
        assert!(
            err.to_string().contains("rejected"),
            "merge rejects foreign namespaces: {err}"
        );
    }

    #[test]
    fn foreign_magic_is_rejected() {
        let path = tmp("magic.pqps");
        std::fs::write(&path, b"not a pulse store at all").expect("write");
        let s = PulseStore::open(&path, 7).expect("open");
        assert!(s.is_empty());
        assert_eq!(s.recovery().rejected, Some(RejectReason::BadHeader));
    }

    #[test]
    fn ill_formed_estimates_never_enter_the_file() {
        let path = tmp("nan.pqps");
        let _ = std::fs::remove_file(&path);
        let mut s = PulseStore::open(&path, 1).expect("open");
        let mut bad = est(10.0);
        bad.fidelity = f64::NAN;
        s.put("nan", bad).expect("put");
        assert!(s.get("nan").is_none());
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len() as usize,
            HEADER_LEN
        );
    }

    #[test]
    fn record_len_matches_encoding() {
        let r = encode_record("some-key", &est(1.0));
        assert_eq!(r.len(), record_len("some-key"));
    }

    #[test]
    fn hits_survive_compaction_and_reopen() {
        let path = tmp("hits.pqps");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = PulseStore::open(&path, 3).expect("open");
            s.put("cx", est(14.0)).expect("put");
            s.put("h", est(5.0)).expect("put");
            for _ in 0..4 {
                assert_eq!(s.hit("cx"), Some(est(14.0)));
            }
            assert_eq!(s.hit("h"), Some(est(5.0)));
            assert_eq!(s.peek("cx").expect("cx").hits, 4);
            s.compact().expect("compact");
        }
        let s = PulseStore::open(&path, 3).expect("reopen");
        assert_eq!(s.peek("cx").expect("cx").hits, 4);
        assert_eq!(s.peek("h").expect("h").hits, 1);
        assert!(
            s.peek("h").expect("h").last_access > s.peek("cx").expect("cx").last_access,
            "logical recency must persist"
        );
    }

    #[test]
    fn overwrite_preserves_hit_count() {
        let path = tmp("overwrite-hits.pqps");
        let _ = std::fs::remove_file(&path);
        let mut s = PulseStore::open(&path, 3).expect("open");
        s.put("k", est(10.0)).expect("put");
        s.hit("k");
        s.hit("k");
        s.put("k", est(20.0)).expect("overwrite");
        assert_eq!(s.peek("k").expect("k").hits, 2);
        assert_eq!(s.get("k"), Some(est(20.0)));
    }
}
