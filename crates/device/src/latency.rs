//! The analytic pulse-latency model and the [`PulseSource`] abstraction.
//!
//! PAQOC's search asks one question thousands of times: *"how long would
//! the optimal pulse for this gate group be?"* Answering with a real
//! GRAPE run everywhere is exactly the compilation overhead the paper
//! fights, so the workspace offers two interchangeable answers behind the
//! [`PulseSource`] trait:
//!
//! * `paqoc_grape::GrapeSource` — the real numeric optimizer;
//! * [`AnalyticModel`] (this module) — a time-optimal-control surrogate.
//!
//! The surrogate is physically grounded: a two-qubit group is collapsed
//! to one unitary whose Weyl-chamber interaction content lower-bounds the
//! evolution time under the amplitude-bounded XY coupler, and
//! single-qubit work is costed by rotation angle against the (5× faster)
//! local drives. By construction it satisfies the paper's Observation 1
//! (merging never exceeds the sum of parts) and Observation 2 (latency
//! grows with qubit count), and `fig6`/`fig2` cross-validate it against
//! real GRAPE.

use crate::hamiltonian::Device;
use paqoc_circuit::{apply_fixed, combined_unitary_fixed, decompose, Basis, Circuit, Instruction};
use paqoc_math::{weyl_coordinates, FastHash, Matrix, StableHasher, WeylCoordinates, C64};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// The outcome of generating (or predicting) a pulse for a gate group.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PulseEstimate {
    /// Pulse duration in nanoseconds.
    pub latency_ns: f64,
    /// Pulse duration in whole device cycles (`dt`), as the paper reports.
    pub latency_dt: u64,
    /// Fidelity the pulse achieves against the group unitary.
    pub fidelity: f64,
    /// Synthetic compilation cost of producing this pulse (GRAPE
    /// iterations × time steps × d³, rescaled). Zero only for cache hits,
    /// which are accounted by the caller's pulse table.
    pub cost_units: f64,
}

impl PulseEstimate {
    /// `true` when every field is finite and within its physical range
    /// (latency and cost non-negative, fidelity in `[0, 1 + ε]`).
    pub fn is_well_formed(&self) -> bool {
        self.latency_ns.is_finite()
            && self.latency_ns >= 0.0
            && self.cost_units.is_finite()
            && self.cost_units >= 0.0
            && self.fidelity.is_finite()
            && (0.0..=1.0 + 1e-9).contains(&self.fidelity)
    }
}

/// Why a pulse source could not produce a usable estimate.
///
/// Convergence failures are the common case at scale — GRAPE routinely
/// fails on hard targets from a cold start — and are retriable; invalid
/// estimates (NaN/Inf/negative fields) indicate a misbehaving source and
/// are rejected at the [`PulseSource`] boundary so they can never corrupt
/// the latency estimator or the pulse table.
#[derive(Clone, Debug, PartialEq)]
pub enum PulseGenError {
    /// The optimizer could not reach the fidelity target.
    Convergence {
        /// Best fidelity reached (0 when nothing usable was produced).
        achieved: f64,
        /// The fidelity that was asked for.
        target: f64,
    },
    /// The source returned a non-finite or out-of-range estimate.
    InvalidEstimate {
        /// Which source produced the estimate.
        source: String,
        /// Human-readable description of the defect.
        detail: String,
    },
    /// The source **panicked** mid-generation and was caught by the
    /// pulse table's `catch_unwind` supervisor. Not retriable through
    /// the normal ladder: the gate-group key is quarantined so a
    /// deterministic crash cannot fire once per retry attempt.
    SourcePanic {
        /// Which source panicked.
        source: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for PulseGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PulseGenError::Convergence { achieved, target } => write!(
                f,
                "pulse optimization failed to converge: reached fidelity {achieved:.6} \
                 of target {target:.6}"
            ),
            PulseGenError::InvalidEstimate { source, detail } => {
                write!(
                    f,
                    "pulse source '{source}' returned an invalid estimate: {detail}"
                )
            }
            PulseGenError::SourcePanic { source, message } => {
                write!(f, "pulse source '{source}' panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PulseGenError {}

/// Validates an estimate at the [`PulseSource`] boundary.
///
/// Rejects non-finite or negative latency/cost and non-finite fidelity
/// (recording a `source.invalid_estimates` telemetry counter — the guard
/// that keeps adversarial sources from corrupting the latency
/// estimator); clamps a fidelity marginally above 1 back into range; and
/// maps a zero-or-negative fidelity to [`PulseGenError::Convergence`],
/// the retriable signal.
pub fn validate_estimate(
    est: PulseEstimate,
    target_fidelity: f64,
    source_name: &str,
) -> Result<PulseEstimate, PulseGenError> {
    if !est.latency_ns.is_finite()
        || est.latency_ns < 0.0
        || !est.cost_units.is_finite()
        || est.cost_units < 0.0
        || !est.fidelity.is_finite()
        || est.fidelity > 1.0 + 1e-6
    {
        paqoc_telemetry::counter("source.invalid_estimates", 1);
        return Err(PulseGenError::InvalidEstimate {
            source: source_name.to_string(),
            detail: format!(
                "latency_ns={}, fidelity={}, cost_units={}",
                est.latency_ns, est.fidelity, est.cost_units
            ),
        });
    }
    if est.fidelity <= 0.0 {
        return Err(PulseGenError::Convergence {
            achieved: est.fidelity.max(0.0),
            target: target_fidelity,
        });
    }
    let mut est = est;
    est.fidelity = est.fidelity.min(1.0);
    Ok(est)
}

/// A generator of control pulses for gate groups.
///
/// Implementations must be deterministic for a fixed input so that the
/// evaluation harnesses are reproducible.
pub trait PulseSource {
    /// Generates (or predicts) the minimum-latency pulse realizing the
    /// product of `group` (earlier instructions applied first) at
    /// `target_fidelity`. `warm_start` carries the unitary distance to
    /// the closest already-generated pulse when one is available as an
    /// initial guess: optimization from a nearby guess converges in a
    /// handful of iterations (the AccQOC similarity trick the paper
    /// inherits), so cost shrinks with distance — latency does not.
    fn generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate;

    /// Fallible pulse generation: like [`PulseSource::generate`], but
    /// surfaces failure as a typed [`PulseGenError`] instead of a
    /// sentinel estimate, and guarantees the returned estimate is
    /// well-formed (finite, in-range — see [`validate_estimate`]).
    ///
    /// The default implementation wraps [`PulseSource::generate`] and
    /// validates its output; sources with a real failure mode (the GRAPE
    /// optimizer) override it to add retry ladders before giving up.
    fn try_generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> Result<PulseEstimate, PulseGenError> {
        let est = self.generate(group, device, target_fidelity, warm_start);
        validate_estimate(est, target_fidelity, self.name())
    }

    /// A prior estimate of the latency of a typical `num_qubits`-qubit
    /// customized gate, used by the paper's Observation-2 shortcut when
    /// ranking merge candidates without generating pulses.
    fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64;

    /// Short identifier used in reports.
    fn name(&self) -> &'static str;
}

/// Time-optimal-control surrogate latency model (see module docs).
///
/// An instance memoizes the Weyl coordinates it computes, keyed by the
/// exact bits of each 4×4 input, so it answers every query bit for bit
/// as a fresh model would; the memo lives and dies with the instance.
/// One built by [`AnalyticModel::with_memo`] also reads a [`WeylMemo`]
/// pooled with other instances when its own memo misses, and publishes
/// every decomposition it makes there.
/// It also owns the scratch one estimate works in, so estimating a
/// group that needs no lowering allocates nothing once the scratch has
/// grown to the group's qubit count.
#[derive(Clone, Debug, Default)]
pub struct AnalyticModel {
    /// Weyl coordinates by the 32 `f64` bit patterns of the 4×4 input
    /// (row-major, real part then imaginary part).
    weyl_memo: HashMap<WeylKey, WeylCoordinates, FastHash>,
    /// The memo pooled with other instances, read after `weyl_memo`.
    pooled: Option<Arc<WeylMemo>>,
    scratch: Scratch,
}

/// The 32 `f64` bit patterns of a 4×4 input, row-major, real part then
/// imaginary part.
type WeylKey = [u64; 32];

/// Weyl decompositions pooled by every [`AnalyticModel`] built over it
/// with [`AnalyticModel::with_memo`], keyed like each model's own memo.
///
/// A decomposition is a pure function of its input bits, so an entry
/// made by one model is what any other would compute: a model reading
/// the pool answers bit for bit as a fresh model would. The pool owns
/// nothing else, so whoever holds it decides how long decompositions are
/// reused; the pipeline gives one to each pulse cache.
///
/// It holds at most [`WeylMemo::CAPACITY`] entries. A full memo keeps
/// the entries it has and stops inserting: an entry never goes stale,
/// and a model that misses the pool still keeps its decomposition in its
/// own memo.
#[derive(Debug, Default)]
pub struct WeylMemo {
    entries: Mutex<HashMap<WeylKey, WeylCoordinates, FastHash>>,
}

/// Recovers a poisoned lock: the map is only touched by single lookups
/// and inserts, so a holder that panicked elsewhere left it consistent.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl WeylMemo {
    /// The most entries a memo holds, about 5 MB of keys and values.
    pub const CAPACITY: usize = 16_384;

    /// Creates an empty memo.
    pub fn new() -> Self {
        WeylMemo::default()
    }

    /// Number of pooled decompositions.
    pub fn len(&self) -> usize {
        relock(&self.entries).len()
    }

    /// `true` when nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every pooled decomposition with its 4×4 input, sorted by the
    /// input's bits.
    pub fn snapshot(&self) -> Vec<([[C64; 4]; 4], WeylCoordinates)> {
        let mut all: Vec<(WeylKey, WeylCoordinates)> = relock(&self.entries)
            .iter()
            .map(|(key, w)| (*key, *w))
            .collect();
        all.sort_unstable_by_key(|&(key, _)| key);
        all.into_iter()
            .map(|(key, w)| {
                let z =
                    |k: usize| C64::new(f64::from_bits(key[2 * k]), f64::from_bits(key[2 * k + 1]));
                (
                    std::array::from_fn(|i| std::array::from_fn(|j| z(4 * i + j))),
                    w,
                )
            })
            .collect()
    }

    fn get(&self, key: &WeylKey) -> Option<WeylCoordinates> {
        relock(&self.entries).get(key).copied()
    }

    fn insert(&self, key: WeylKey, w: WeylCoordinates) {
        let mut entries = relock(&self.entries);
        if entries.len() < WeylMemo::CAPACITY {
            entries.insert(key, w);
        }
    }
}

/// Buffers reused from one estimate to the next.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Sorted unique qubits of the group being estimated.
    qubits: Vec<usize>,
    /// Open same-pair runs of [`AnalyticModel::pair_contents`], each as
    /// its running combined unitary.
    open_runs: Vec<((usize, usize), Unitary4)>,
    /// Content time per qubit pair.
    totals: Vec<((usize, usize), f64)>,
    /// Serialized work per group qubit.
    busy: Vec<f64>,
}

/// A group with its lowering to the one- and two-qubit basis gates the
/// model analyses, for [`AnalyticModel::generate_pair`]: a group
/// estimated in many pairs is lowered once.
#[derive(Clone, Copy, Debug)]
pub struct LoweredGroup<'a> {
    instructions: &'a [Instruction],
    lowered: &'a [Instruction],
}

impl<'a> LoweredGroup<'a> {
    /// `instructions` with `lowering`, their [`AnalyticModel::lower`].
    pub fn new(instructions: &'a [Instruction], lowering: &'a Option<Vec<Instruction>>) -> Self {
        LoweredGroup {
            instructions,
            lowered: lowering.as_deref().unwrap_or(instructions),
        }
    }
}

/// A two-qubit unitary in a fixed-size array.
type Unitary4 = [[C64; 4]; 4];

/// A group as two consecutive runs of instructions, `[first, second]`:
/// a pair of groups is estimated as its concatenation without building
/// it.
type Parts<'a> = [&'a [Instruction]; 2];

/// The instructions of `parts`, in order.
fn instructions<'a>(parts: &Parts<'a>) -> impl Iterator<Item = &'a Instruction> + Clone {
    parts[0].iter().chain(parts[1])
}

/// Fraction of serialized single-qubit work that cannot be hidden under
/// coupler activity inside a merged pulse (local drives are 5× faster
/// and almost fully overlap — the paper's Fig. 2 shows the Hadamard
/// disappearing entirely into the merged H·CX pulse).
const LOCAL_OVERLAP_RHO: f64 = 0.05;
/// Shared-qubit serialization discount for ≥3-qubit groups: GRAPE
/// realizes CX(a,b)·CX(b,c) in ≈22 ns against 25 ns of serialized
/// content (simultaneous coupler driving), giving γ ≈ 0.78.
const GAMMA3: f64 = 0.78;
/// Deterministic jitter amplitude (models GRAPE convergence noise).
const JITTER: f64 = 0.06;
/// Effective duty factor of stand-alone single-qubit pulses: smooth
/// envelopes do not sit at the amplitude bound, stretching a lone
/// rotation (calibrated so H ≈ 60 dt as in the paper's Fig. 2).
const ENVELOPE_1Q: f64 = 0.65;
/// The 4×4 identity a same-pair run starts from.
const IDENTITY4: Unitary4 = {
    let mut u = [[C64::ZERO; 4]; 4];
    let mut i = 0;
    while i < 4 {
        u[i][i] = C64::ONE;
        i += 1;
    }
    u
};

impl AnalyticModel {
    /// Creates the model.
    pub fn new() -> Self {
        AnalyticModel::default()
    }

    /// Creates a model whose Weyl decompositions are pooled in `memo`
    /// (see [`WeylMemo`]).
    pub fn with_memo(memo: Arc<WeylMemo>) -> Self {
        AnalyticModel {
            pooled: Some(memo),
            ..AnalyticModel::default()
        }
    }

    /// `group` lowered to the one- and two-qubit basis gates the model
    /// analyses, or `None` when it holds nothing else (the model then
    /// reads it as it is). Lowering rewrites each instruction on its own,
    /// so a concatenation lowers to the concatenation of the lowerings.
    pub fn lower(group: &[Instruction]) -> Option<Vec<Instruction>> {
        group.iter().any(needs_lowering).then(|| lower(group))
    }

    /// [`generate`](PulseSource::generate) for the group `first`
    /// followed by `second`: bit for bit the estimate of their
    /// concatenation, without building it or lowering it again.
    pub fn generate_pair(
        &mut self,
        first: LoweredGroup<'_>,
        second: LoweredGroup<'_>,
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        self.estimate_lowered(
            [first.instructions, second.instructions],
            [first.lowered, second.lowered],
            device,
            target_fidelity,
            warm_start,
        )
    }

    /// Pulse ramp/calibration overhead for an `n`-qubit pulse, ns.
    /// Calibrated against the paper's Fig. 2: CX = base(2) + 12.5 ns
    /// of echo-corrected content ≈ 110 dt.
    fn base_ns(num_qubits: usize) -> f64 {
        match num_qubits {
            0 | 1 => 0.3,
            n => 1.25 * f64::powi(2.0, n as i32 - 2),
        }
    }

    /// Rotation angle of a single-qubit unitary (global-phase free).
    fn rotation_angle(u: &[[C64; 2]; 2]) -> f64 {
        // `Matrix::trace`'s sum: from zero, in diagonal order.
        let half_tr = (C64::ZERO + u[0][0] + u[1][1]).abs() / 2.0;
        2.0 * half_tr.min(1.0).acos()
    }

    /// Time-optimal evolution time of a two-qubit unitary under the XY
    /// coupler, ns.
    ///
    /// The XY interaction produces the canonical coordinates `c₁` and
    /// `c₂` *jointly*; asymmetric targets (like CX, which needs `c₁`
    /// alone) require echo sequences that cancel the unwanted component,
    /// doubling the effective time. The resulting estimate
    /// `t = 2·max(c₁, c₂+|c₃|)/rate` reproduces the GRAPE-measured
    /// durations of iSWAP (12.5 ns) and CX (≈14 ns) on the paper's
    /// hardware limits.
    fn content_time(&mut self, u4: &Unitary4, device: &Device, a: usize, b: usize) -> f64 {
        let w = self.weyl(u4);
        2.0 * w.c1.max(w.c2 + w.c3.abs()) / device.coupler_rate_between(a, b)
    }

    /// [`weyl_coordinates`] memoized by the exact input bits. The pair
    /// frame is local, so the same gate run on any pair of qubits shares
    /// one entry. A miss reads the pooled memo, if any, before it
    /// decomposes, and publishes what it decomposes there.
    fn weyl(&mut self, u4: &Unitary4) -> WeylCoordinates {
        let mut key = [0u64; 32];
        for (bits, z) in key.chunks_exact_mut(2).zip(u4.iter().flatten()) {
            bits[0] = z.re.to_bits();
            bits[1] = z.im.to_bits();
        }
        if let Some(&w) = self.weyl_memo.get(&key) {
            return w;
        }
        let pooled = self.pooled.as_deref();
        let w = pooled.and_then(|p| p.get(&key)).unwrap_or_else(|| {
            let w = weyl_coordinates(&Matrix::from_flat(u4.iter().flatten().copied().collect()));
            if let Some(p) = pooled {
                p.insert(key, w);
            }
            w
        });
        self.weyl_memo.insert(key, w);
        w
    }

    /// The estimate of `parts`' concatenation, given its lowering (the
    /// parts themselves when nothing needs lowering). The jitter hashes
    /// the signature's bytes as they are formatted, and the unitaries
    /// live in fixed-size arrays.
    fn estimate_lowered(
        &mut self,
        parts: Parts<'_>,
        lowered: Parts<'_>,
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        let mut qubits = std::mem::take(&mut self.scratch.qubits);
        qubits.clear();
        qubits.extend(instructions(&lowered).flat_map(|i| i.qubits().iter().copied()));
        qubits.sort_unstable();
        qubits.dedup();
        let j = signature_jitter(&parts, &qubits);

        let raw = self.raw_latency_ns(&lowered, &qubits, device);
        let latency_ns = (raw * (1.0 + JITTER * (j - 0.5))).max(device.spec().dt_ns);
        let latency_dt = device.spec().ns_to_dt(latency_ns);

        // Binary search stops once the target is met; the margin above
        // target is small and pulse-specific.
        let err_budget = 1.0 - target_fidelity;
        let fidelity = 1.0 - err_budget * (0.55 + 0.45 * j);

        // Synthetic QOC effort: duration-search rounds × ADAM iterations
        // × time steps × d (the paper's GRAPE runs on GPUs, where the
        // dense d×d algebra is parallelized and per-iteration time grows
        // only mildly with the Hilbert dimension at d ≤ 8). A warm start
        // from a nearby pulse collapses the iteration count — the closer
        // the guess, the fewer iterations (down to a polish pass) — and
        // the duration-search rounds (the duration is already known).
        let d = 1usize << qubits.len().max(1);
        self.scratch.qubits = qubits;
        let steps = (latency_ns / device.spec().dt_ns).max(1.0);
        let (iter_scale, rounds) = match warm_start {
            None => (1.0, 6.0),
            Some(dist) => ((0.06 + 0.5 * dist).clamp(0.06, 1.0), 2.0),
        };
        let iters = 250.0 * iter_scale * (0.8 + 0.4 * j);
        let cost_units = rounds * iters * steps * d as f64 / 1.0e5;

        let est = PulseEstimate {
            latency_ns,
            latency_dt,
            fidelity,
            cost_units,
        };
        // The analytic model is this workspace's ground truth: producing
        // a NaN/negative estimate here is an internal bug, not an
        // adversarial input, so it is a debug assertion rather than a
        // recoverable error.
        debug_assert!(est.is_well_formed(), "analytic model produced {est:?}");
        est
    }

    /// Core of the model: raw (jitter-free) latency in ns, of a group of
    /// one- and two-qubit basis gates on the sorted `qubits`.
    fn raw_latency_ns(&mut self, lowered: &Parts<'_>, qubits: &[usize], device: &Device) -> f64 {
        let n = qubits.len();
        let base = AnalyticModel::base_ns(n.max(1));

        match n {
            0 => 0.0,
            1 => {
                let u = combined_unitary_fixed::<2>(instructions(lowered), qubits);
                let rate1 = device.single_qubit_rate_for(qubits[0]);
                base + AnalyticModel::rotation_angle(&u) / (rate1 * ENVELOPE_1Q)
            }
            2 => {
                let u = combined_unitary_fixed::<4>(instructions(lowered), qubits);
                let t2 = self.content_time(&u, device, qubits[0], qubits[1])
                    * coupling_penalty(device, qubits[0], qubits[1]);
                let t1 = max_local_load(instructions(lowered), qubits, device);
                base + t2 + LOCAL_OVERLAP_RHO * t1
            }
            _ => {
                // Per-pair combined unitaries; pairs sharing a qubit
                // serialize; a γ discount models joint-synthesis savings.
                self.pair_contents(instructions(lowered), device);
                let totals = std::mem::take(&mut self.scratch.totals);
                let mut busy = std::mem::take(&mut self.scratch.busy);
                busy.clear();
                busy.resize(n, 0.0);
                let mut floor = 0.0f64;
                for &((a, b), t) in &totals {
                    floor = floor.max(t);
                    let ia = qubits.iter().position(|&q| q == a).expect("member");
                    let ib = qubits.iter().position(|&q| q == b).expect("member");
                    busy[ia] += t;
                    busy[ib] += t;
                }
                for (i, &q) in qubits.iter().enumerate() {
                    busy[i] += LOCAL_OVERLAP_RHO * local_load(instructions(lowered), q, device);
                }
                let max_busy = busy.iter().copied().fold(0.0, f64::max);
                self.scratch.totals = totals;
                self.scratch.busy = busy;
                base + (GAMMA3 * max_busy).max(floor)
            }
        }
    }

    /// Combined interaction-content time per qubit pair of a group, ns,
    /// left in `scratch.totals` in ascending pair order.
    ///
    /// Two-qubit gates on the same pair only fuse when nothing else
    /// touches either qubit in between (interleaved gates break
    /// commutation, so a CX·T·CX sandwich must *not* collapse to the
    /// identity). Each maximal uninterrupted run contributes its combined
    /// unitary's content; runs on the same pair serialize.
    ///
    /// A run is kept as its running product, one left multiplication per
    /// gate from the identity: the operations [`combined_unitary_fixed`]
    /// performs on the run's gates. A pair has at most one open run and
    /// its runs close in circuit order, so each pair's total adds the
    /// same terms in the same order whatever order other pairs close in.
    fn pair_contents<'a>(&mut self, group: impl Iterator<Item = &'a Instruction>, device: &Device) {
        let mut open = std::mem::take(&mut self.scratch.open_runs);
        let mut totals = std::mem::take(&mut self.scratch.totals);
        open.clear();
        totals.clear();
        for inst in group {
            let own_pair = if inst.gate().num_qubits() == 2 {
                let (a, b) = (inst.qubits()[0], inst.qubits()[1]);
                Some((a.min(b), a.max(b)))
            } else {
                None
            };
            // Any gate touching a qubit of an open run (other than
            // extending its own pair's run) interrupts that run.
            let mut i = 0;
            while i < open.len() {
                let (pair, u) = open[i];
                if Some(pair) != own_pair
                    && inst.qubits().iter().any(|&q| q == pair.0 || q == pair.1)
                {
                    open.swap_remove(i);
                    self.close_run(pair, &u, device, &mut totals);
                } else {
                    i += 1;
                }
            }
            if let Some(pair) = own_pair {
                let frame = [pair.0, pair.1];
                match open.iter_mut().find(|(p, _)| *p == pair) {
                    Some((_, u)) => *u = apply_fixed(u, inst, &frame),
                    None => open.push((pair, apply_fixed(&IDENTITY4, inst, &frame))),
                }
            }
        }
        for (pair, u) in open.drain(..) {
            self.close_run(pair, &u, device, &mut totals);
        }
        totals.sort_unstable_by_key(|&(pair, _)| pair);
        self.scratch.open_runs = open;
        self.scratch.totals = totals;
    }

    /// Adds one closed run's content time to its pair's total.
    fn close_run(
        &mut self,
        pair: (usize, usize),
        u: &Unitary4,
        device: &Device,
        totals: &mut Vec<((usize, usize), f64)>,
    ) {
        let t =
            self.content_time(u, device, pair.0, pair.1) * coupling_penalty(device, pair.0, pair.1);
        match totals.iter_mut().find(|(p, _)| *p == pair) {
            Some((_, total)) => *total += t,
            // A total starts at zero and adds `t`, even a `-0.0` one.
            None => totals.push((pair, 0.0 + t)),
        }
    }
}

impl PulseSource for AnalyticModel {
    fn generate(
        &mut self,
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        let lowering = AnalyticModel::lower(group);
        let lowered = lowering.as_deref().unwrap_or(group);
        self.estimate_lowered(
            [group, &[]],
            [lowered, &[]],
            device,
            target_fidelity,
            warm_start,
        )
    }

    fn typical_latency_ns(&self, num_qubits: usize, device: &Device) -> f64 {
        let spec = device.spec();
        let base = AnalyticModel::base_ns(num_qubits.max(1));
        match num_qubits {
            0 | 1 => base + std::f64::consts::FRAC_PI_2 / (spec.single_qubit_rate() * ENVELOPE_1Q),
            // A typical 2-qubit customized gate carries roughly one CX of
            // echo-corrected content: 2·(π/4)/rate, plus some dressing.
            2 => base + 1.2 * std::f64::consts::FRAC_PI_2 / spec.coupler_rate(),
            n => base + 1.2 * (n - 1) as f64 * std::f64::consts::FRAC_PI_2 / spec.coupler_rate(),
        }
    }

    fn name(&self) -> &'static str {
        "analytic"
    }
}

/// The jitter of a group: [`stable_jitter`](paqoc_math::stable_jitter)
/// of its signature — per instruction the label, `:` and the relative
/// qubit roles (positions in the sorted `qubits`) joined by `,`, and the
/// instructions joined by `;` — hashed as the bytes are formatted.
fn signature_jitter(parts: &Parts<'_>, qubits: &[usize]) -> f64 {
    let mut h = StableHasher::new();
    for (k, inst) in instructions(parts).enumerate() {
        if k > 0 {
            h.write(b";");
        }
        // A `StableHasher` never fails a write.
        let _ = inst.write_label(&mut h);
        h.write(b":");
        for (i, &q) in inst.qubits().iter().enumerate() {
            if i > 0 {
                h.write(b",");
            }
            let local = qubits.iter().position(|&p| p == q).unwrap_or(usize::MAX);
            let _ = write!(h, "{local}");
        }
    }
    h.jitter()
}

/// `true` when the content analysis cannot take `inst` as it is: more
/// than two qubits, or a kind outside the IBM basis.
fn needs_lowering(inst: &Instruction) -> bool {
    inst.gate().num_qubits() > 2 || !Basis::Ibm.contains(inst.gate())
}

/// Lowers every instruction of a group to 1- and 2-qubit basis gates.
fn lower(group: &[Instruction]) -> Vec<Instruction> {
    let max_q = group
        .iter()
        .flat_map(|i| i.qubits().iter().copied())
        .max()
        .unwrap_or(0);
    let mut c = Circuit::new(max_q + 1);
    for inst in group {
        c.push(inst.clone());
    }
    decompose(&c, Basis::Ibm).instructions().to_vec()
}

/// Serialized single-qubit rotation time on qubit `q`, ns, against
/// `q`'s own drive rate (the spec-level rate on untuned devices).
fn local_load<'a>(group: impl Iterator<Item = &'a Instruction>, q: usize, device: &Device) -> f64 {
    let rate1 = device.single_qubit_rate_for(q);
    group
        .filter(|i| i.gate().num_qubits() == 1 && i.qubits()[0] == q)
        .map(|i| AnalyticModel::rotation_angle(&i.unitary_fixed::<2>()) / rate1)
        .sum()
}

/// Maximum over group qubits of the serialized single-qubit load.
fn max_local_load<'a>(
    group: impl Iterator<Item = &'a Instruction> + Clone,
    qubits: &[usize],
    device: &Device,
) -> f64 {
    qubits
        .iter()
        .map(|&q| local_load(group.clone(), q, device))
        .fold(0.0, f64::max)
}

/// Penalty for driving interaction between qubits that do not share a
/// direct coupler: each extra hop roughly doubles the required time.
fn coupling_penalty(device: &Device, a: usize, b: usize) -> f64 {
    let d = device.topology().distance(a, b);
    if d == usize::MAX {
        // Disconnected: the model still answers (GRAPE could not), with a
        // strong penalty proportional to nothing better than "far".
        return 8.0;
    }
    f64::powi(2.0, d.saturating_sub(1) as i32)
}

/// The estimator as it was before it lowered once, streamed its
/// signature and worked in fixed-size arrays: the oracle the tests
/// compare the model with, bit for bit. It decomposes every Weyl input
/// afresh, so it also checks the memo.
#[cfg(test)]
mod reference {
    use super::{
        coupling_penalty, AnalyticModel, PulseEstimate, ENVELOPE_1Q, GAMMA3, JITTER,
        LOCAL_OVERLAP_RHO,
    };
    use crate::hamiltonian::Device;
    use paqoc_circuit::{combined_unitary, decompose, Basis, Circuit, Instruction};
    use paqoc_math::{stable_jitter, weyl_coordinates, Matrix};
    use std::collections::{BTreeMap, BTreeSet};

    pub(super) fn generate(
        group: &[Instruction],
        device: &Device,
        target_fidelity: f64,
        warm_start: Option<f64>,
    ) -> PulseEstimate {
        let lowered = lower_group(group);
        let qubits = group_qubits(&lowered);
        let sig = signature(group, &qubits);
        let j = stable_jitter(sig.as_bytes());

        let raw = raw_latency_ns(group, device);
        let latency_ns = (raw * (1.0 + JITTER * (j - 0.5))).max(device.spec().dt_ns);
        let latency_dt = device.spec().ns_to_dt(latency_ns);
        let err_budget = 1.0 - target_fidelity;
        let fidelity = 1.0 - err_budget * (0.55 + 0.45 * j);
        let d = 1usize << qubits.len().max(1);
        let steps = (latency_ns / device.spec().dt_ns).max(1.0);
        let (iter_scale, rounds) = match warm_start {
            None => (1.0, 6.0),
            Some(dist) => ((0.06 + 0.5 * dist).clamp(0.06, 1.0), 2.0),
        };
        let iters = 250.0 * iter_scale * (0.8 + 0.4 * j);
        let cost_units = rounds * iters * steps * d as f64 / 1.0e5;
        PulseEstimate {
            latency_ns,
            latency_dt,
            fidelity,
            cost_units,
        }
    }

    fn rotation_angle(u: &Matrix) -> f64 {
        let half_tr = u.trace().abs() / 2.0;
        2.0 * half_tr.min(1.0).acos()
    }

    fn content_time(u4: &Matrix, device: &Device, a: usize, b: usize) -> f64 {
        let w = weyl_coordinates(u4);
        2.0 * w.c1.max(w.c2 + w.c3.abs()) / device.coupler_rate_between(a, b)
    }

    fn signature(group: &[Instruction], qubits: &[usize]) -> String {
        let local = |q: usize| qubits.iter().position(|&p| p == q).unwrap_or(usize::MAX);
        group
            .iter()
            .map(|inst| {
                let qs: Vec<String> = inst
                    .qubits()
                    .iter()
                    .map(|&q| local(q).to_string())
                    .collect();
                format!("{}:{}", inst.label(), qs.join(","))
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    fn raw_latency_ns(group: &[Instruction], device: &Device) -> f64 {
        let lowered = lower_group(group);
        let qubits = group_qubits(&lowered);
        let n = qubits.len();
        let base = AnalyticModel::base_ns(n.max(1));
        match n {
            0 => 0.0,
            1 => {
                let u = combined_unitary(&lowered, &qubits);
                let rate1 = device.single_qubit_rate_for(qubits[0]);
                base + rotation_angle(&u) / (rate1 * ENVELOPE_1Q)
            }
            2 => {
                let u = combined_unitary(&lowered, &qubits);
                let t2 = content_time(&u, device, qubits[0], qubits[1])
                    * coupling_penalty(device, qubits[0], qubits[1]);
                let t1 = max_local_load(&lowered, &qubits, device);
                base + t2 + LOCAL_OVERLAP_RHO * t1
            }
            _ => {
                let pairs = pair_contents(&lowered, device);
                let mut floor = 0.0f64;
                let mut busy = vec![0.0f64; n];
                for (&(a, b), &t) in &pairs {
                    floor = floor.max(t);
                    let ia = qubits.iter().position(|&q| q == a).expect("member");
                    let ib = qubits.iter().position(|&q| q == b).expect("member");
                    busy[ia] += t;
                    busy[ib] += t;
                }
                for (i, &q) in qubits.iter().enumerate() {
                    busy[i] += LOCAL_OVERLAP_RHO * local_load(&lowered, q, device);
                }
                let max_busy = busy.iter().copied().fold(0.0, f64::max);
                base + (GAMMA3 * max_busy).max(floor)
            }
        }
    }

    fn lower_group(group: &[Instruction]) -> Vec<Instruction> {
        let needs_lowering = group
            .iter()
            .any(|i| i.gate().num_qubits() > 2 || !Basis::Ibm.contains(i.gate()));
        if !needs_lowering {
            return group.to_vec();
        }
        let max_q = group
            .iter()
            .flat_map(|i| i.qubits().iter().copied())
            .max()
            .unwrap_or(0);
        let mut c = Circuit::new(max_q + 1);
        for inst in group {
            c.push(inst.clone());
        }
        decompose(&c, Basis::Ibm).instructions().to_vec()
    }

    fn group_qubits(group: &[Instruction]) -> Vec<usize> {
        let set: BTreeSet<usize> = group
            .iter()
            .flat_map(|i| i.qubits().iter().copied())
            .collect();
        set.into_iter().collect()
    }

    fn local_load(group: &[Instruction], q: usize, device: &Device) -> f64 {
        let rate1 = device.single_qubit_rate_for(q);
        group
            .iter()
            .filter(|i| i.gate().num_qubits() == 1 && i.qubits()[0] == q)
            .map(|i| rotation_angle(&i.unitary()) / rate1)
            .sum()
    }

    fn max_local_load(group: &[Instruction], qubits: &[usize], device: &Device) -> f64 {
        qubits
            .iter()
            .map(|&q| local_load(group, q, device))
            .fold(0.0, f64::max)
    }

    fn pair_contents(group: &[Instruction], device: &Device) -> BTreeMap<(usize, usize), f64> {
        let mut totals: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        let mut open_runs: BTreeMap<(usize, usize), Vec<Instruction>> = BTreeMap::new();
        let flush = |pair: (usize, usize),
                     run: Vec<Instruction>,
                     totals: &mut BTreeMap<(usize, usize), f64>| {
            if run.is_empty() {
                return;
            }
            let u = combined_unitary(&run, &[pair.0, pair.1]);
            let t =
                content_time(&u, device, pair.0, pair.1) * coupling_penalty(device, pair.0, pair.1);
            *totals.entry(pair).or_insert(0.0) += t;
        };
        for inst in group {
            let own_pair = if inst.gate().num_qubits() == 2 {
                let (a, b) = (inst.qubits()[0], inst.qubits()[1]);
                Some((a.min(b), a.max(b)))
            } else {
                None
            };
            let interrupted: Vec<(usize, usize)> = open_runs
                .keys()
                .copied()
                .filter(|&pair| {
                    Some(pair) != own_pair
                        && inst.qubits().iter().any(|&q| q == pair.0 || q == pair.1)
                })
                .collect();
            for pair in interrupted {
                let run = open_runs.remove(&pair).expect("key just listed");
                flush(pair, run, &mut totals);
            }
            if let Some(pair) = own_pair {
                open_runs.entry(pair).or_default().push(inst.clone());
            }
        }
        for (pair, run) in open_runs {
            flush(pair, run, &mut totals);
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::GateKind;

    fn inst(gate: GateKind, qubits: &[usize]) -> Instruction {
        Instruction::new(gate, qubits.to_vec(), vec![])
    }

    fn gen(group: &[Instruction]) -> PulseEstimate {
        let dev = Device::grid5x5();
        AnalyticModel::new().generate(group, &dev, 0.999, None)
    }

    #[test]
    fn cx_latency_is_on_the_paper_scale() {
        let e = gen(&[inst(GateKind::Cx, &[0, 1])]);
        // Content π/4 at 2π·0.02 GHz ≈ 6.25 ns ≈ 100 dt (+ base).
        assert!(e.latency_dt > 80 && e.latency_dt < 180, "{e:?}");
    }

    #[test]
    fn single_qubit_gates_are_faster_than_cx() {
        // T is a π/4 rotation: far below the coupler-limited CX time.
        let t = gen(&[inst(GateKind::T, &[0])]);
        let h = gen(&[inst(GateKind::H, &[0])]); // π rotation
        let cx = gen(&[inst(GateKind::Cx, &[0, 1])]);
        assert!(t.latency_ns < cx.latency_ns / 2.0, "{t:?} vs {cx:?}");
        assert!(h.latency_ns < cx.latency_ns, "{h:?} vs {cx:?}");
        assert!(t.latency_ns < h.latency_ns);
    }

    #[test]
    fn observation1_merged_is_subadditive() {
        // H then CX merged vs generated separately (the paper's Fig. 2).
        let h = inst(GateKind::H, &[0]);
        let cx = inst(GateKind::Cx, &[0, 1]);
        let merged = gen(&[h.clone(), cx.clone()]);
        let separate = gen(&[h]).latency_ns + gen(&[cx]).latency_ns;
        assert!(
            merged.latency_ns < separate,
            "merged {} vs separate {}",
            merged.latency_ns,
            separate
        );
    }

    #[test]
    fn observation2_latency_grows_with_qubit_count() {
        let one = gen(&[inst(GateKind::X, &[0])]);
        let two = gen(&[inst(GateKind::Cx, &[0, 1])]);
        let three = gen(&[inst(GateKind::Cx, &[0, 1]), inst(GateKind::Cx, &[1, 2])]);
        assert!(one.latency_ns < two.latency_ns);
        assert!(two.latency_ns < three.latency_ns);
    }

    #[test]
    fn inverse_pair_collapses_to_base_cost() {
        // CX·CX = I: the merged pulse has no interaction content at all.
        let cx = inst(GateKind::Cx, &[0, 1]);
        let merged = gen(&[cx.clone(), cx.clone()]);
        let single = gen(&[cx]);
        assert!(
            merged.latency_ns < single.latency_ns / 2.0,
            "{merged:?} vs {single:?}"
        );
    }

    #[test]
    fn swap_sequence_matches_swap_content() {
        // Three alternating CX = SWAP: content 3π/4, bigger than one CX.
        let seq = [
            inst(GateKind::Cx, &[0, 1]),
            inst(GateKind::Cx, &[1, 0]),
            inst(GateKind::Cx, &[0, 1]),
        ];
        let merged = gen(&seq);
        let single = gen(&[inst(GateKind::Cx, &[0, 1])]);
        let separate: f64 = seq
            .iter()
            .map(|i| gen(std::slice::from_ref(i)).latency_ns)
            .sum();
        assert!(merged.latency_ns > single.latency_ns);
        assert!(merged.latency_ns < separate);
    }

    #[test]
    fn uncoupled_pair_pays_a_penalty() {
        // Qubits 0 and 2 on the grid are two hops apart.
        let adjacent = gen(&[inst(GateKind::Cx, &[0, 1])]);
        let distant = gen(&[inst(GateKind::Cx, &[0, 2])]);
        assert!(distant.latency_ns > 1.5 * adjacent.latency_ns);
    }

    #[test]
    fn estimates_are_deterministic() {
        let g = [inst(GateKind::H, &[3]), inst(GateKind::Cx, &[3, 4])];
        assert_eq!(gen(&g), gen(&g));
    }

    #[test]
    fn warm_start_reduces_cost_not_latency() {
        let dev = Device::grid5x5();
        let mut m = AnalyticModel::new();
        let g = [inst(GateKind::Cx, &[0, 1])];
        let cold = m.generate(&g, &dev, 0.999, None);
        let warm = m.generate(&g, &dev, 0.999, Some(0.05));
        assert!(warm.cost_units < cold.cost_units / 2.0);
        assert_eq!(warm.latency_dt, cold.latency_dt);
    }

    #[test]
    fn fidelity_meets_target() {
        let e = gen(&[inst(GateKind::Cx, &[0, 1])]);
        assert!(e.fidelity >= 0.999, "{e:?}");
        assert!(e.fidelity < 1.0);
    }

    #[test]
    fn typical_latencies_are_ordered() {
        let dev = Device::grid5x5();
        let m = AnalyticModel::new();
        let t1 = m.typical_latency_ns(1, &dev);
        let t2 = m.typical_latency_ns(2, &dev);
        let t3 = m.typical_latency_ns(3, &dev);
        assert!(t1 < t2 && t2 < t3);
    }

    /// A random group on 1–3 of a few grid qubits (adjacent and not):
    /// single-qubit rotations with concrete or symbolic angles, two-qubit
    /// gates, CX-built SWAP chains and Toffolis.
    fn random_group(rng: &mut paqoc_math::Rng) -> Vec<Instruction> {
        use paqoc_circuit::Angle;
        const POOL: [usize; 5] = [0, 1, 2, 5, 6];
        let arity: usize = rng.random_range(1..=3usize);
        let mut qs: Vec<usize> = Vec::new();
        while qs.len() < arity {
            let q = POOL[rng.random_range(0..POOL.len())];
            if !qs.contains(&q) {
                qs.push(q);
            }
        }
        let pick = |rng: &mut paqoc_math::Rng| qs[rng.random_range(0..qs.len())];
        let mut group = Vec::new();
        for _ in 0..rng.random_range(1..=5usize) {
            let a = pick(rng);
            let b = qs.iter().copied().find(|&q| q != a);
            let angle = if rng.random::<f64>() < 0.5 {
                Angle::sym(["gamma", "beta"][rng.random_range(0..2usize)], 0.7)
            } else {
                Angle::new([0.3, 0.7, 1.9][rng.random_range(0..3usize)])
            };
            match (rng.random_range(0..6u32), b) {
                (0, _) | (_, None) => group.push(inst(GateKind::H, &[a])),
                (1, _) => group.push(Instruction::new(GateKind::Rz, vec![a], vec![angle])),
                (2, Some(b)) => group.push(inst(GateKind::Cx, &[a, b])),
                (3, Some(b)) => {
                    group.push(Instruction::new(GateKind::CPhase, vec![a, b], vec![angle]))
                }
                (4, Some(b)) => {
                    for (x, y) in [(a, b), (b, a), (a, b)] {
                        group.push(inst(GateKind::Cx, &[x, y]));
                    }
                }
                (_, Some(_)) if qs.len() == 3 => group.push(inst(GateKind::Ccx, &qs)),
                (_, Some(b)) => group.push(inst(GateKind::Swap, &[a, b])),
            }
        }
        group
    }

    #[test]
    fn weyl_memo_is_transparent() {
        let dev = Device::grid5x5();
        let mut rng = paqoc_math::Rng::seed_from_u64(0x3e3e);
        let groups: Vec<Vec<Instruction>> = (0..80).map(|_| random_group(&mut rng)).collect();
        // Every group three times, shuffled (Fisher–Yates).
        let mut queries: Vec<usize> = (0..3 * groups.len()).map(|i| i % groups.len()).collect();
        for i in (1..queries.len()).rev() {
            queries.swap(i, rng.random_range(0..=i));
        }
        let bits = |e: PulseEstimate| {
            (
                e.latency_ns.to_bits(),
                e.latency_dt,
                e.fidelity.to_bits(),
                e.cost_units.to_bits(),
            )
        };
        // Decompositions are counted by this thread's `mathkit.eig` probe
        // (one eigensolve per Weyl decomposition).
        let eig_calls = || {
            paqoc_telemetry::kernel_thread_totals()
                .get("mathkit.eig")
                .map_or(0, |&(calls, _)| calls)
        };
        paqoc_telemetry::set_kernel_probes(Some(true));
        let warm = |i: usize| (i % 2 == 1).then_some(0.1);
        let mut long_lived = AnalyticModel::new();
        let start = eig_calls();
        let memoized: Vec<_> = queries
            .iter()
            .map(|&i| bits(long_lived.generate(&groups[i], &dev, 0.999, warm(i))))
            .collect();
        let decomposed = eig_calls() - start;
        let start = eig_calls();
        for (&i, &memo) in queries.iter().zip(&memoized) {
            let fresh = AnalyticModel::new().generate(&groups[i], &dev, 0.999, warm(i));
            assert_eq!(memo, bits(fresh), "group {i}: {:?}", groups[i]);
        }
        let lookups = eig_calls() - start;
        // Two models over one pooled memo: the first decomposes what the
        // long-lived model did and publishes it, the second decomposes
        // nothing; both answer as fresh models do.
        let pooled = Arc::new(WeylMemo::new());
        let mut pooled_decompositions = Vec::new();
        for _ in 0..2 {
            let mut model = AnalyticModel::with_memo(pooled.clone());
            let start = eig_calls();
            for (&i, &memo) in queries.iter().zip(&memoized) {
                let est = model.generate(&groups[i], &dev, 0.999, warm(i));
                assert_eq!(bits(est), memo, "pooled, group {i}: {:?}", groups[i]);
            }
            pooled_decompositions.push(eig_calls() - start);
        }
        paqoc_telemetry::set_kernel_probes(None);
        // The long-lived model decomposed each distinct input once. Every
        // group came three times, so it looked up at least three times as
        // often, and the memo answered the rest.
        let entries = long_lived.weyl_memo.len() as u64;
        assert!(entries > 20, "too few two-qubit inputs");
        assert_eq!(decomposed, entries);
        assert!(
            lookups >= 3 * entries,
            "{lookups} lookups, {entries} entries"
        );
        assert_eq!(pooled_decompositions, [entries, 0]);
        let snapshot = pooled.snapshot();
        assert_eq!(snapshot.len() as u64, entries);
        for (u, w) in snapshot {
            let fresh = weyl_coordinates(&Matrix::from_flat(u.into_iter().flatten().collect()));
            assert_eq!(w, fresh);
        }
    }

    #[test]
    fn a_full_pooled_memo_keeps_its_entries_and_stops_inserting() {
        let key = |i: usize| {
            let mut key = [0u64; 32];
            key[0] = i as u64;
            key
        };
        let w = |i: usize| WeylCoordinates {
            c1: i as f64,
            c2: 0.0,
            c3: 0.0,
        };
        let memo = WeylMemo::new();
        for i in 0..=WeylMemo::CAPACITY {
            memo.insert(key(i), w(i));
        }
        assert_eq!(memo.len(), WeylMemo::CAPACITY);
        assert_eq!(memo.get(&key(0)), Some(w(0)));
        assert_eq!(memo.get(&key(WeylMemo::CAPACITY)), None);
        // A model over the full memo still answers as a fresh one, and
        // keeps what it decomposes to itself.
        let memo = Arc::new(memo);
        let group = [inst(GateKind::H, &[0]), inst(GateKind::Cx, &[0, 1])];
        let mut model = AnalyticModel::with_memo(memo.clone());
        assert_eq!(
            estimate_bits(model.generate(&group, &Device::grid5x5(), 0.999, None)),
            estimate_bits(gen(&group))
        );
        assert_eq!(model.weyl_memo.len(), 1);
        assert_eq!(memo.len(), WeylMemo::CAPACITY);
    }

    #[test]
    fn a_poisoned_pooled_memo_recovers() {
        let memo = WeylMemo::new();
        let poisoned = std::panic::catch_unwind(|| {
            let _held = memo.entries.lock().expect("first lock");
            panic!("a holder dies");
        });
        assert!(poisoned.is_err() && memo.entries.is_poisoned());
        let w = WeylCoordinates {
            c1: 1.0,
            c2: 0.5,
            c3: 0.0,
        };
        memo.insert([7; 32], w);
        assert_eq!(memo.get(&[7; 32]), Some(w));
        assert_eq!(memo.len(), 1);
    }

    /// A random group of IBM-basis gates (`id`, `x`, `sx`, `rz`, `cx`)
    /// on 1–4 grid qubits: the groups the model takes without lowering.
    fn random_basis_group(rng: &mut paqoc_math::Rng) -> Vec<Instruction> {
        use paqoc_circuit::Angle;
        const POOL: [usize; 6] = [0, 1, 2, 5, 6, 12];
        let arity: usize = rng.random_range(1..=4usize);
        let mut qs: Vec<usize> = Vec::new();
        while qs.len() < arity {
            let q = POOL[rng.random_range(0..POOL.len())];
            if !qs.contains(&q) {
                qs.push(q);
            }
        }
        (0..rng.random_range(1..=12usize))
            .map(|_| {
                let a = qs[rng.random_range(0..qs.len())];
                let b = qs[rng.random_range(0..qs.len())];
                match rng.random_range(0..6u32) {
                    0 => inst(GateKind::Id, &[a]),
                    1 => inst(GateKind::X, &[a]),
                    2 => inst(GateKind::Sx, &[a]),
                    3 => Instruction::new(
                        GateKind::Rz,
                        vec![a],
                        vec![Angle::new(rng.random::<f64>() * 6.0 - 3.0)],
                    ),
                    _ if a != b => inst(GateKind::Cx, &[a, b]),
                    _ => inst(GateKind::Sx, &[a]),
                }
            })
            .collect()
    }

    /// A tuned 5×5 grid whose drive and coupler scales differ per site,
    /// as a calibrated backend's do.
    fn tuned_grid() -> Device {
        use crate::tuning::DeviceTuning;
        use crate::{HardwareSpec, Topology};
        let mut rng = paqoc_math::Rng::seed_from_u64(0x7a7e);
        let mut tuning = DeviceTuning::identity(25);
        for q in &mut tuning.qubits {
            q.drive_scale = 0.86 + 0.235 * rng.random::<f64>();
        }
        for a in 0..25 {
            for b in a + 1..25 {
                tuning
                    .coupler_scale
                    .insert((a, b), 0.8 + 0.4 * rng.random::<f64>());
            }
        }
        Device::with_tuning(
            Topology::grid(5, 5),
            HardwareSpec::transmon_xy(),
            tuning,
            "heavy-hex",
            crate::fingerprint::NS_HEAVY_HEX,
        )
    }

    fn estimate_bits(e: PulseEstimate) -> (u64, u64, u64, u64) {
        (
            e.latency_ns.to_bits(),
            e.latency_dt,
            e.fidelity.to_bits(),
            e.cost_units.to_bits(),
        )
    }

    /// Every `PulseEstimate` field, by bits, equals the reference's for
    /// one-slice and two-slice input: every split of every group, and
    /// every group followed by the next, cold and warm, on the grid and
    /// on a tuned device. One model answers every query, so its memo is
    /// checked against fresh decompositions too.
    #[test]
    fn estimates_match_the_reference_bit_for_bit() {
        let mut rng = paqoc_math::Rng::seed_from_u64(0x3e3e);
        let mut groups: Vec<Vec<Instruction>> = (0..80).map(|_| random_group(&mut rng)).collect();
        groups.extend((0..80).map(|_| random_basis_group(&mut rng)));
        let mut checked = 0;
        for dev in [Device::grid5x5(), tuned_grid()] {
            let mut model = AnalyticModel::new();
            for (i, g) in groups.iter().enumerate() {
                let warm = (i % 3 == 1).then_some(0.1 * (i % 7) as f64);
                let want = estimate_bits(reference::generate(g, &dev, 0.999, warm));
                assert_eq!(
                    estimate_bits(model.generate(g, &dev, 0.999, warm)),
                    want,
                    "group {i}: {g:?}"
                );
                for k in 0..=g.len() {
                    let (first, second) = g.split_at(k);
                    let (low_first, low_second) =
                        (AnalyticModel::lower(first), AnalyticModel::lower(second));
                    assert_eq!(
                        estimate_bits(model.generate_pair(
                            LoweredGroup::new(first, &low_first),
                            LoweredGroup::new(second, &low_second),
                            &dev,
                            0.999,
                            warm
                        )),
                        want,
                        "group {i} split at {k}: {g:?}"
                    );
                    checked += 1;
                }
                let next = &groups[(i + 1) % groups.len()];
                let joined: Vec<Instruction> = g.iter().chain(next).cloned().collect();
                let (low_g, low_next) = (AnalyticModel::lower(g), AnalyticModel::lower(next));
                let pair = model.generate_pair(
                    LoweredGroup::new(g, &low_g),
                    LoweredGroup::new(next, &low_next),
                    &dev,
                    0.9,
                    warm,
                );
                assert_eq!(
                    estimate_bits(pair),
                    estimate_bits(reference::generate(&joined, &dev, 0.9, warm)),
                    "group {i} then the next: {joined:?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 1500, "only {checked} estimates checked");
    }

    #[test]
    fn toffoli_group_is_lowered_automatically() {
        // A raw CCX instruction is internally decomposed for costing.
        let e = gen(&[inst(GateKind::Ccx, &[0, 1, 2])]);
        // More than one CX worth of content plus the 3-qubit base cost.
        let cx = gen(&[inst(GateKind::Cx, &[0, 1])]);
        assert!(e.latency_ns > cx.latency_ns, "{e:?} vs {cx:?}");
    }
}
