//! GRAPE: gradient-ascent pulse engineering with ADAM.
//!
//! Piecewise-constant controls over `N` steps; each step's propagator is
//! `U_j = exp(-i·2π·dt·Σ_k α_k[j]·H_k)`. The process fidelity
//! `F = |Tr(U_target† · U_N⋯U_1)|²/d²` is maximized by ADAM over squashed
//! amplitude parameters (`α = a_max·tanh(θ)` keeps the paper's field
//! limits exactly). The gradient uses the standard first-order GRAPE
//! approximation `∂U_j/∂α ≈ −i·2π·dt·H_k·U_j`, which is accurate for the
//! small step norms used here.

use paqoc_device::ControlSet;
use paqoc_math::{expm_into, ExpmScratch, Matrix, Rng, SplitMatrix, C64};

/// A piecewise-constant control schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Pulse {
    /// Duration of each step in nanoseconds.
    pub step_ns: f64,
    /// Channel names, aligned with the inner index of `amplitudes`.
    pub channel_names: Vec<String>,
    /// `amplitudes[j][k]`: amplitude of channel `k` during step `j`, GHz.
    pub amplitudes: Vec<Vec<f64>>,
}

impl Pulse {
    /// Total pulse duration in nanoseconds.
    pub fn duration_ns(&self) -> f64 {
        self.step_ns * self.amplitudes.len() as f64
    }

    /// Number of time steps.
    pub fn num_steps(&self) -> usize {
        self.amplitudes.len()
    }
}

/// Tunable knobs of the optimizer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GrapeOptions {
    /// Control step length in nanoseconds.
    pub step_ns: f64,
    /// Maximum ADAM iterations per optimization.
    pub max_iters: usize,
    /// ADAM learning rate on the squashed parameters.
    pub learning_rate: f64,
    /// Stop as soon as this fidelity is reached.
    pub target_fidelity: f64,
    /// RNG seed for the initial guess.
    pub seed: u64,
    /// Independent random restarts if the target is not reached.
    pub restarts: usize,
}

impl Default for GrapeOptions {
    fn default() -> Self {
        GrapeOptions {
            step_ns: 0.5,
            max_iters: 300,
            learning_rate: 0.08,
            target_fidelity: 0.999,
            seed: 0x9a0c,
            restarts: 2,
        }
    }
}

/// The outcome of one GRAPE optimization at a fixed duration.
#[derive(Clone, Debug)]
pub struct GrapeResult {
    /// The optimized control schedule.
    pub pulse: Pulse,
    /// Fidelity reached against the target unitary.
    pub fidelity: f64,
    /// ADAM iterations actually executed (across restarts).
    pub iterations: usize,
}

/// Optimizes a pulse of exactly `steps` steps toward `target`.
///
/// Returns the best result across restarts; stops early once
/// `opts.target_fidelity` is reached. The initial guess may be seeded
/// from `warm_start` amplitudes (cropped or zero-padded to `steps`),
/// mirroring AccQOC's similarity-based warm starting.
///
/// All buffers of the optimization are allocated once per call and
/// reused by every iteration and restart, so an iteration allocates
/// nothing.
///
/// # Panics
///
/// Panics if `target` is not `controls.dim()`-dimensional or `steps == 0`.
pub fn optimize(
    target: &Matrix,
    controls: &ControlSet,
    steps: usize,
    opts: &GrapeOptions,
    warm_start: Option<&Pulse>,
) -> GrapeResult {
    assert!(steps > 0, "pulse must have at least one step");
    assert_eq!(
        target.rows(),
        controls.dim(),
        "target dimension must match the control system"
    );
    let num_channels = controls.channels.len();
    let mut workspace = Workspace::new(target, controls, steps, opts.step_ns);
    let mut total_iters = 0usize;
    let mut run_restart = |restart: usize, total_iters: &mut usize| -> GrapeResult {
        paqoc_telemetry::counter("grape.restarts", 1);
        let mut rng = Rng::seed_from_u64(opts.seed.wrapping_add(restart as u64));
        let mut theta = initial_theta(steps, num_channels, warm_start, controls, &mut rng);
        let (fid, iters) = workspace.adam_loop(&mut theta, opts);
        *total_iters += iters;
        paqoc_telemetry::counter("grape.iterations", iters as u64);
        paqoc_telemetry::observe("grape.iterations_per_restart", iters as f64);
        paqoc_telemetry::event!(
            "grape.restart",
            restart = restart as u64,
            iterations = iters as u64,
            fidelity = fid,
        );
        GrapeResult {
            pulse: theta_to_pulse(&theta, steps, controls, opts.step_ns),
            fidelity: fid,
            iterations: *total_iters,
        }
    };

    // The first restart always runs, so `best` is never absent: no
    // Option on the hot path.
    let mut best = run_restart(0, &mut total_iters);
    for restart in 1..opts.restarts.max(1) {
        if best.fidelity >= opts.target_fidelity {
            break;
        }
        let result = run_restart(restart, &mut total_iters);
        if result.fidelity > best.fidelity {
            best = result;
        }
    }
    best.iterations = total_iters;
    if best.fidelity < opts.target_fidelity {
        paqoc_telemetry::counter("grape.convergence_failures", 1);
    }
    best
}

/// Squash parameter → bounded amplitude.
#[inline]
fn squash(theta: f64, a_max: f64) -> f64 {
    a_max * theta.tanh()
}

/// d(amplitude)/d(theta), from `t = tanh(theta)`.
#[inline]
fn squash_grad(t: f64, a_max: f64) -> f64 {
    a_max * (1.0 - t * t)
}

/// The initial squashed parameters, row-major: `theta[j·K + k]` is
/// channel `k` at step `j` for `K` channels.
fn initial_theta(
    steps: usize,
    num_channels: usize,
    warm_start: Option<&Pulse>,
    controls: &ControlSet,
    rng: &mut Rng,
) -> Vec<f64> {
    let mut theta = vec![0.0f64; steps * num_channels];
    match warm_start {
        Some(p) if p.amplitudes.first().map(Vec::len) == Some(num_channels) => {
            for j in 0..steps {
                let src = &p.amplitudes[j.min(p.amplitudes.len() - 1)];
                for k in 0..num_channels {
                    let a_max = controls.channels[k].max_amp;
                    let ratio = (src[k] / a_max).clamp(-0.999, 0.999);
                    theta[j * num_channels + k] = ratio.atanh();
                }
            }
        }
        _ => {
            for t in &mut theta {
                *t = (rng.random::<f64>() - 0.5) * 1.2;
            }
        }
    }
    theta
}

fn theta_to_pulse(theta: &[f64], steps: usize, controls: &ControlSet, step_ns: f64) -> Pulse {
    let num_channels = controls.channels.len();
    Pulse {
        step_ns,
        channel_names: controls.channels.iter().map(|c| c.name.clone()).collect(),
        amplitudes: (0..steps)
            .map(|j| {
                theta[j * num_channels..(j + 1) * num_channels]
                    .iter()
                    .zip(&controls.channels)
                    .map(|(&t, ch)| squash(t, ch.max_amp))
                    .collect()
            })
            .collect(),
    }
}

/// A control operator as its nonzero entries `(row, col, value)` in
/// row-major order: exactly the entries whose products `matmul`'s
/// zero-skip performs.
#[derive(Debug)]
struct SparseOp {
    dim: usize,
    entries: Vec<(usize, usize, C64)>,
}

impl SparseOp {
    fn new(op: &Matrix) -> Self {
        let dim = op.cols();
        let entries = op
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(_, z)| !(z.re == 0.0 && z.im == 0.0))
            .map(|(idx, &z)| (idx / dim, idx % dim, z))
            .collect();
        SparseOp { dim, entries }
    }

    /// Writes `(op · rhs)ᵀ` into `out`, the real parts of a row-major `d×d`
    /// block followed by its imaginary parts: the products of
    /// `op.matmul(rhs)` in its order, each entry accumulating from `+0` in
    /// increasing column of `op`, stored at the transposed position.
    fn transposed_product_into(&self, rhs: &SplitMatrix, out: &mut [f64]) {
        let d = self.dim;
        let [rhs_re, rhs_im] = rhs.parts();
        // One fill per block: at d = 2 a second `memset` call per channel
        // and step cost several percent of `optimize`.
        out.fill(0.0);
        let (out_re, out_im) = out.split_at_mut(d * d);
        for &(r, c, x) in &self.entries {
            // Row `r` of the product is column `r` of the block.
            let column = out_re[r..]
                .iter_mut()
                .step_by(d)
                .zip(out_im[r..].iter_mut().step_by(d));
            let row = rhs_re[c * d..][..d].iter().zip(&rhs_im[c * d..][..d]);
            for ((o_re, o_im), (&v_re, &v_im)) in column.zip(row) {
                let o = C64::new(*o_re, *o_im).mul_add(x, C64::new(v_re, v_im));
                (*o_re, *o_im) = (o.re, o.im);
            }
        }
    }

    /// `h += op · s` on the nonzero entries. With a finite `s` and an `h`
    /// free of negative zeros
    /// this is bit-for-bit `h.axpy(s, op)`: adding `0 · s` leaves such an
    /// entry unchanged.
    fn axpy_into(&self, s: C64, h: &mut SplitMatrix) {
        let [h_re, h_im] = h.parts_mut();
        for &(r, c, x) in &self.entries {
            let at = r * self.dim + c;
            let z = C64::new(h_re[at], h_im[at]).mul_add(x, s);
            (h_re[at], h_im[at]) = (z.re, z.im);
        }
    }
}

/// One control channel: its operator as a nonzero list, and its bound.
#[derive(Debug)]
struct Channel {
    op: SparseOp,
    max_amp: f64,
}

/// Builds step propagators `U = exp(−i·2π·dt·H(α))` of one control
/// system, with `H(α) = H₀ + Σ_k α_k·H_k`, in buffers reused across
/// steps. Both the optimizer's forward pass and [`crate::propagate`] run
/// through it, on split matrices.
#[derive(Debug)]
pub(crate) struct Stepper {
    /// The drift `H₀`, split.
    drift: SplitMatrix,
    channels: Vec<Channel>,
    /// `−i·2π·dt`.
    rotation: C64,
    /// The step Hamiltonian `H(α)`.
    h: SplitMatrix,
    /// `−i·2π·dt·H(α)`, the exponent.
    exponent: SplitMatrix,
    expm: ExpmScratch,
}

impl Stepper {
    pub(crate) fn new(controls: &ControlSet, step_ns: f64) -> Self {
        let dim = controls.dim();
        let square = |m: &Matrix| m.rows() == dim && m.cols() == dim;
        assert!(
            square(&controls.drift) && controls.channels.iter().all(|ch| square(&ch.operator)),
            "drift and control operators must be {dim}×{dim}"
        );
        let two_pi_dt = 2.0 * std::f64::consts::PI * step_ns;
        Stepper {
            drift: SplitMatrix::from(&controls.drift),
            channels: controls
                .channels
                .iter()
                .map(|ch| Channel {
                    op: SparseOp::new(&ch.operator),
                    max_amp: ch.max_amp,
                })
                .collect(),
            rotation: C64::new(0.0, -two_pi_dt),
            h: SplitMatrix::zeros(dim),
            exponent: SplitMatrix::zeros(dim),
            expm: ExpmScratch::new(dim),
        }
    }

    /// Writes the propagator of one step with channel amplitudes `amps`
    /// (GHz, in channel order) into `out`.
    pub(crate) fn propagator_into(&mut self, amps: &[f64], out: &mut SplitMatrix) {
        self.h.copy_from(&self.drift);
        for (ch, &amp) in self.channels.iter().zip(amps) {
            if amp != 0.0 {
                ch.op.axpy_into(C64::real(amp), &mut self.h);
            }
        }
        self.h.scaled_into(self.rotation, &mut self.exponent);
        expm_into(&self.exponent, out, &mut self.expm);
    }
}

/// Channels whose gradient traces run side by side.
const TRACE_CHAINS: usize = 4;

/// The traces `Tr(M·P_w) = Σ_r Σ_c M[r][c]·P_w[c][r]` of the `d×d`
/// matrix `left` (`M`) with [`TRACE_CHAINS`] matrices `P_w`, given
/// transposed as the consecutive blocks of `blocks`, each the real parts
/// of a row-major `d×d` block followed by its imaginary parts.
///
/// Each trace is its own chain `dg.mul_add(M[r][c], P_w[c][r])` from `+0`
/// over `(r, c)` in row-major order, as a trace computed alone runs; the
/// chains do not depend on each other, so they overlap.
fn traces(left: &SplitMatrix, blocks: &[f64]) -> [C64; TRACE_CHAINS] {
    let [m_re, m_im] = left.parts();
    let dd = m_re.len();
    let block = |w: usize| blocks[2 * w * dd..][..2 * dd].split_at(dd);
    let blocks: [(&[f64], &[f64]); TRACE_CHAINS] = std::array::from_fn(block);
    let mut dg = [C64::ZERO; TRACE_CHAINS];
    for (i, (&re, &im)) in m_re.iter().zip(m_im).enumerate() {
        for (acc, (p_re, p_im)) in dg.iter_mut().zip(&blocks) {
            *acc = acc.mul_add(C64::new(re, im), C64::new(p_re[i], p_im[i]));
        }
    }
    dg
}

/// Every buffer of one [`optimize`] call, allocated once and reused by
/// each iteration and restart. The matrices are split; only `target†`
/// comes in as a [`Matrix`].
struct Workspace {
    stepper: Stepper,
    /// `U_target†`.
    target_dagger: SplitMatrix,
    /// One step's channel amplitudes.
    amps: Vec<f64>,
    /// `props[j] = U_j`, the step propagators.
    props: Vec<SplitMatrix>,
    /// `fwd[j] = U_j ⋯ U_1`, the prefix products.
    fwd: Vec<SplitMatrix>,
    /// `bwd[j] = U_N ⋯ U_{j+1}`, the suffix products (`bwd[N-1] = I`).
    bwd: Vec<SplitMatrix>,
    /// `U_target† · U_N⋯U_1`, then `M_j = U_target† · B_j` per step.
    left: SplitMatrix,
    /// `(H_k · F_j)ᵀ` for up to [`TRACE_CHAINS`] channels, as consecutive
    /// blocks of `2·d²` parts (see [`traces`]).
    hk_fwd_t: Vec<f64>,
    /// `tanh(theta)` of the current iteration, laid out like `theta`:
    /// the forward pass and the gradient share one `tanh` per parameter.
    tanh_theta: Vec<f64>,
    /// ADAM first and second moments, laid out like `theta`.
    m: Vec<f64>,
    v: Vec<f64>,
    /// The best `theta` seen in the current restart.
    best: Vec<f64>,
}

impl Workspace {
    fn new(target: &Matrix, controls: &ControlSet, steps: usize, step_ns: f64) -> Self {
        let dim = controls.dim();
        let params = steps * controls.channels.len();
        let mut bwd = vec![SplitMatrix::zeros(dim); steps];
        bwd[steps - 1] = SplitMatrix::identity(dim);
        Workspace {
            stepper: Stepper::new(controls, step_ns),
            target_dagger: SplitMatrix::from(&target.dagger()),
            amps: vec![0.0; controls.channels.len()],
            props: vec![SplitMatrix::zeros(dim); steps],
            fwd: vec![SplitMatrix::zeros(dim); steps],
            bwd,
            left: SplitMatrix::zeros(dim),
            hk_fwd_t: vec![0.0; TRACE_CHAINS * 2 * dim * dim],
            tanh_theta: vec![0.0; params],
            m: vec![0.0; params],
            v: vec![0.0; params],
            best: vec![0.0; params],
        }
    }

    /// Runs ADAM on `theta` (row-major, see [`initial_theta`]); leaves
    /// the best parameters in it and returns (best fidelity, iterations
    /// used). The step length is the one the workspace was built with.
    fn adam_loop(&mut self, theta: &mut [f64], opts: &GrapeOptions) -> (f64, usize) {
        let steps = self.props.len();
        let num_channels = self.amps.len();
        let dim = self.left.dim();
        let d = dim as f64;

        self.m.fill(0.0);
        self.v.fill(0.0);
        let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
        let mut best_fid = 0.0f64;
        let mut has_best = false;

        for iter in 1..=opts.max_iters {
            // Forward pass: per-step propagators and cumulative products.
            let propagation = paqoc_telemetry::kernel_enter("grape.propagation", dim);
            for (j, u) in self.props.iter_mut().enumerate() {
                for (k, ch) in self.stepper.channels.iter().enumerate() {
                    let p = j * num_channels + k;
                    // squash(θ) = a_max·tanh(θ); the gradient reuses the tanh.
                    self.tanh_theta[p] = theta[p].tanh();
                    self.amps[k] = ch.max_amp * self.tanh_theta[p];
                }
                self.stepper.propagator_into(&self.amps, u);
            }
            // fwd[j] = U_j ⋯ U_1 (prefix products), bwd[j] = U_N ⋯ U_{j+1}.
            self.fwd[0].copy_from(&self.props[0]);
            for j in 1..steps {
                let (done, rest) = self.fwd.split_at_mut(j);
                self.props[j].matmul_into(&done[j - 1], &mut rest[0]);
            }
            for j in (0..steps.saturating_sub(1)).rev() {
                let (head, tail) = self.bwd.split_at_mut(j + 1);
                tail[0].matmul_into(&self.props[j + 1], &mut head[j]);
            }

            drop(propagation);

            self.target_dagger
                .matmul_into(&self.fwd[steps - 1], &mut self.left);
            let overlap = self.left.trace();
            let raw_fid = overlap.norm_sqr() / (d * d);
            if !raw_fid.is_finite() {
                // A numerically diverged step (overflowed propagator, NaN in
                // the gradient) would silently poison every remaining
                // iteration — and the table's supervisor can only catch
                // *panics*, not quiet NaN fixpoints. Abort the loop and
                // return the best finite state instead. The check reads the
                // unclamped value: `f64::min` returns its non-NaN operand,
                // so a clamped NaN would read as a perfect pulse.
                paqoc_telemetry::counter("grape.nan_aborts", 1);
                if has_best {
                    theta.copy_from_slice(&self.best);
                }
                return (best_fid, iter);
            }
            let fid = raw_fid.min(1.0);
            if fid > best_fid {
                best_fid = fid;
                self.best.copy_from_slice(theta);
                has_best = true;
            }
            // Convergence series for the event journal: sampled so a full
            // optimization adds a handful of records, not one per iteration.
            if iter % 32 == 0 {
                paqoc_telemetry::event!(
                    "grape.converge",
                    iter = iter as u64,
                    fidelity = best_fid,
                    steps = steps as u64,
                );
            }
            if fid >= opts.target_fidelity {
                if has_best {
                    theta.copy_from_slice(&self.best);
                }
                return (best_fid, iter);
            }

            // Gradient: dg/dα_{kj} = Tr(U_t† · B_j · (−i·2π·dt·H_k) · F_j)
            // with F_j the prefix *including* step j (first-order GRAPE).
            paqoc_telemetry::kernel_probe!("grape.gradient", dim);
            // ADAM's bias corrections depend on the iteration only.
            let bias1 = 1.0 - beta1.powi(iter as i32);
            let bias2 = 1.0 - beta2.powi(iter as i32);
            for j in 0..steps {
                // M_j = U_t† · B_j ; row-product with (−i 2π dt H_k) F_j.
                self.target_dagger.matmul_into(&self.bwd[j], &mut self.left);
                let right = &self.fwd[j];
                let chunks = self.stepper.channels.chunks(TRACE_CHAINS);
                for (first, group) in (0..).step_by(TRACE_CHAINS).zip(chunks) {
                    let blocks = self.hk_fwd_t.chunks_exact_mut(2 * dim * dim);
                    for (ch, block) in group.iter().zip(blocks) {
                        ch.op.transposed_product_into(right, block);
                    }
                    // dg = Tr(left · (−i 2π dt H_k) · right). A last group
                    // of fewer channels leaves stale blocks, whose traces
                    // are dropped.
                    let dgs = traces(&self.left, &self.hk_fwd_t);
                    for ((k, ch), dg) in (first..).zip(group).zip(dgs) {
                        let dg = dg * self.stepper.rotation;
                        // dF/dα = 2·Re(conj(g)·dg)/d²  (maximize → ascend)
                        let dfda = 2.0 * (overlap.conj() * dg).re / (d * d);
                        let p = j * num_channels + k;
                        let grad = dfda * squash_grad(self.tanh_theta[p], ch.max_amp);

                        // ADAM ascent step.
                        self.m[p] = beta1 * self.m[p] + (1.0 - beta1) * grad;
                        self.v[p] = beta2 * self.v[p] + (1.0 - beta2) * grad * grad;
                        let mc = self.m[p] / bias1;
                        let vc = self.v[p] / bias2;
                        theta[p] += opts.learning_rate * mc / (vc.sqrt() + eps);
                    }
                }
            }
        }
        if has_best {
            theta.copy_from_slice(&self.best);
        }
        (best_fid, opts.max_iters)
    }
}

/// The optimizer as it was before the reused workspace: one allocation
/// per matrix per step, `target†` rebuilt twice per iteration, `theta`
/// cloned on each improvement. Kept as the oracle of the bit-identity
/// tests. It still clamps the fidelity before its finiteness check, so
/// it reads a NaN overlap as 1.0; only finite runs are compared with it.
#[cfg(test)]
mod reference {
    use super::{squash, GrapeOptions, GrapeResult, Pulse};
    use paqoc_device::ControlSet;
    use paqoc_math::{expm, Matrix, Rng, C64};

    pub(crate) fn optimize(
        target: &Matrix,
        controls: &ControlSet,
        steps: usize,
        opts: &GrapeOptions,
        warm_start: Option<&Pulse>,
    ) -> GrapeResult {
        let num_channels = controls.channels.len();
        let mut total_iters = 0usize;
        let run_restart = |restart: usize, total_iters: &mut usize| -> GrapeResult {
            let mut rng = Rng::seed_from_u64(opts.seed.wrapping_add(restart as u64));
            let mut theta = initial_theta(steps, num_channels, warm_start, controls, &mut rng);
            let (fid, iters) = adam_loop(target, controls, &mut theta, opts);
            *total_iters += iters;
            GrapeResult {
                pulse: theta_to_pulse(&theta, controls, opts.step_ns),
                fidelity: fid,
                iterations: *total_iters,
            }
        };
        let mut best = run_restart(0, &mut total_iters);
        for restart in 1..opts.restarts.max(1) {
            if best.fidelity >= opts.target_fidelity {
                break;
            }
            let result = run_restart(restart, &mut total_iters);
            if result.fidelity > best.fidelity {
                best = result;
            }
        }
        best.iterations = total_iters;
        best
    }

    fn initial_theta(
        steps: usize,
        num_channels: usize,
        warm_start: Option<&Pulse>,
        controls: &ControlSet,
        rng: &mut Rng,
    ) -> Vec<Vec<f64>> {
        let mut theta = vec![vec![0.0f64; num_channels]; steps];
        match warm_start {
            Some(p) if p.amplitudes.first().map(Vec::len) == Some(num_channels) => {
                for (j, row) in theta.iter_mut().enumerate() {
                    let src = &p.amplitudes[j.min(p.amplitudes.len() - 1)];
                    for k in 0..num_channels {
                        let a_max = controls.channels[k].max_amp;
                        let ratio = (src[k] / a_max).clamp(-0.999, 0.999);
                        row[k] = ratio.atanh();
                    }
                }
            }
            _ => {
                for row in &mut theta {
                    for t in row.iter_mut() {
                        *t = (rng.random::<f64>() - 0.5) * 1.2;
                    }
                }
            }
        }
        theta
    }

    fn theta_to_pulse(theta: &[Vec<f64>], controls: &ControlSet, step_ns: f64) -> Pulse {
        Pulse {
            step_ns,
            channel_names: controls.channels.iter().map(|c| c.name.clone()).collect(),
            amplitudes: theta
                .iter()
                .map(|row| {
                    row.iter()
                        .zip(&controls.channels)
                        .map(|(&t, ch)| squash(t, ch.max_amp))
                        .collect()
                })
                .collect(),
        }
    }

    fn squash_grad(theta: f64, a_max: f64) -> f64 {
        let t = theta.tanh();
        a_max * (1.0 - t * t)
    }

    fn adam_loop(
        target: &Matrix,
        controls: &ControlSet,
        theta: &mut Vec<Vec<f64>>,
        opts: &GrapeOptions,
    ) -> (f64, usize) {
        let steps = theta.len();
        let num_channels = controls.channels.len();
        let d = controls.dim() as f64;
        let two_pi_dt = 2.0 * std::f64::consts::PI * opts.step_ns;

        let mut m = vec![vec![0.0f64; num_channels]; steps];
        let mut v = vec![vec![0.0f64; num_channels]; steps];
        let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);
        let mut best_fid = 0.0f64;
        let mut best_theta: Option<Vec<Vec<f64>>> = None;

        for iter in 1..=opts.max_iters {
            let mut step_h: Vec<Matrix> = Vec::with_capacity(steps);
            let mut props: Vec<Matrix> = Vec::with_capacity(steps);
            for row in theta.iter() {
                let mut h = controls.drift.clone();
                for (k, ch) in controls.channels.iter().enumerate() {
                    let amp = squash(row[k], ch.max_amp);
                    if amp != 0.0 {
                        h.axpy(C64::real(amp), &ch.operator);
                    }
                }
                let u = expm(&h.scaled(C64::new(0.0, -two_pi_dt)));
                step_h.push(h);
                props.push(u);
            }
            let mut fwd: Vec<Matrix> = Vec::with_capacity(steps);
            for (j, u) in props.iter().enumerate() {
                let f = if j == 0 {
                    u.clone()
                } else {
                    u.matmul(&fwd[j - 1])
                };
                fwd.push(f);
            }
            let mut bwd: Vec<Matrix> = vec![Matrix::identity(controls.dim()); steps];
            for j in (0..steps.saturating_sub(1)).rev() {
                bwd[j] = bwd[j + 1].matmul(&props[j + 1]);
            }

            let total = &fwd[steps - 1];
            let overlap = target.dagger().matmul(total).trace();
            let fid = (overlap.norm_sqr() / (d * d)).min(1.0);
            if !fid.is_finite() {
                if let Some(b) = best_theta {
                    *theta = b;
                }
                return (best_fid, iter);
            }
            if fid > best_fid {
                best_fid = fid;
                best_theta = Some(theta.clone());
            }
            if fid >= opts.target_fidelity {
                if let Some(b) = best_theta {
                    *theta = b;
                }
                return (best_fid, iter);
            }

            let tdag = target.dagger();
            for j in 0..steps {
                let left = tdag.matmul(&bwd[j]);
                let right = &fwd[j];
                for (k, ch) in controls.channels.iter().enumerate() {
                    let hk_right = ch.operator.matmul(right);
                    let mut dg = C64::ZERO;
                    let dim = controls.dim();
                    for r in 0..dim {
                        for c in 0..dim {
                            dg = dg.mul_add(left[(r, c)], hk_right[(c, r)]);
                        }
                    }
                    let dg = dg * C64::new(0.0, -two_pi_dt);
                    let dfda = 2.0 * (overlap.conj() * dg).re / (d * d);
                    let grad = dfda * squash_grad(theta[j][k], ch.max_amp);

                    m[j][k] = beta1 * m[j][k] + (1.0 - beta1) * grad;
                    v[j][k] = beta2 * v[j][k] + (1.0 - beta2) * grad * grad;
                    let mc = m[j][k] / (1.0 - beta1.powi(iter as i32));
                    let vc = v[j][k] / (1.0 - beta2.powi(iter as i32));
                    theta[j][k] += opts.learning_rate * mc / (vc.sqrt() + eps);
                }
            }
        }
        if let Some(b) = best_theta {
            *theta = b;
        }
        (best_fid, opts.max_iters)
    }

    /// `sim::propagate` as it was: a fresh Hamiltonian and `expm` per step.
    pub(crate) fn propagate(pulse: &Pulse, controls: &ControlSet) -> Matrix {
        let two_pi_dt = 2.0 * std::f64::consts::PI * pulse.step_ns;
        let mut u = Matrix::identity(controls.dim());
        for row in &pulse.amplitudes {
            let mut h = controls.drift.clone();
            for (k, ch) in controls.channels.iter().enumerate() {
                if row[k] != 0.0 {
                    h.axpy(C64::real(row[k]), &ch.operator);
                }
            }
            let step = expm(&h.scaled(C64::new(0.0, -two_pi_dt)));
            u = step.matmul(&u);
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paqoc_circuit::GateKind;
    use paqoc_device::{transmon_xy_controls, ControlChannel, HardwareSpec};
    use paqoc_math::{random_unitary_seeded, trace_fidelity};

    fn controls1() -> ControlSet {
        transmon_xy_controls(1, &[], &HardwareSpec::transmon_xy())
    }

    fn controls2() -> ControlSet {
        transmon_xy_controls(2, &[(0, 1)], &HardwareSpec::transmon_xy())
    }

    #[test]
    fn reaches_x_gate() {
        let target = GateKind::X.unitary(&[]);
        // X needs a π rotation at 0.1 GHz → ≈5 ns → 10 steps of 0.5 ns.
        let r = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        assert!(r.fidelity > 0.999, "fidelity {}", r.fidelity);
    }

    #[test]
    fn reaches_hadamard() {
        let target = GateKind::H.unitary(&[]);
        let r = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        assert!(r.fidelity > 0.999, "fidelity {}", r.fidelity);
    }

    #[test]
    fn too_short_pulse_fails() {
        // 1 step of 0.5 ns cannot produce a π rotation at 0.1 GHz.
        let target = GateKind::X.unitary(&[]);
        let r = optimize(&target, &controls1(), 1, &GrapeOptions::default(), None);
        assert!(r.fidelity < 0.9, "fidelity {}", r.fidelity);
    }

    #[test]
    fn reaches_cx_gate() {
        let target = GateKind::Cx.unitary(&[]);
        // CX content π/4 at 0.02 GHz ≈ 6.25 ns → 16 steps of 0.5 ns.
        let opts = GrapeOptions {
            max_iters: 600,
            ..GrapeOptions::default()
        };
        let r = optimize(&target, &controls2(), 32, &opts, None);
        assert!(r.fidelity > 0.99, "fidelity {}", r.fidelity);
    }

    #[test]
    fn pulse_respects_amplitude_limits() {
        let target = GateKind::X.unitary(&[]);
        let r = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        for row in &r.pulse.amplitudes {
            for (k, &amp) in row.iter().enumerate() {
                let lim = controls1().channels[k].max_amp;
                assert!(amp.abs() <= lim + 1e-12, "channel {k} amp {amp}");
            }
        }
    }

    #[test]
    fn optimization_is_deterministic() {
        let target = GateKind::H.unitary(&[]);
        let a = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        let b = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        assert_eq!(a.pulse, b.pulse);
        assert_eq!(a.fidelity, b.fidelity);
    }

    #[test]
    fn warm_start_from_own_solution_converges_instantly() {
        let target = GateKind::X.unitary(&[]);
        let cold = optimize(&target, &controls1(), 12, &GrapeOptions::default(), None);
        let warm = optimize(
            &target,
            &controls1(),
            12,
            &GrapeOptions::default(),
            Some(&cold.pulse),
        );
        assert!(warm.fidelity > 0.999);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn optimized_pulse_propagates_to_target() {
        // Re-propagate the pulse independently and compare unitaries.
        let target = GateKind::H.unitary(&[]);
        let controls = controls1();
        let r = optimize(&target, &controls, 12, &GrapeOptions::default(), None);
        let u = crate::sim::propagate(&r.pulse, &controls);
        let f = trace_fidelity(&target, &u);
        assert!((f - r.fidelity).abs() < 1e-9, "{f} vs {}", r.fidelity);
    }
    /// Every output bit of an optimization: amplitudes, fidelity and the
    /// iteration count.
    fn fingerprint(r: &GrapeResult) -> (Vec<u64>, u64, usize) {
        let amps = r
            .pulse
            .amplitudes
            .iter()
            .flatten()
            .map(|a| a.to_bits())
            .collect();
        (amps, r.fidelity.to_bits(), r.iterations)
    }

    /// Asserts that `optimize` and the reference agree bit for bit, and
    /// returns the result.
    fn assert_same_bits(
        target: &Matrix,
        controls: &ControlSet,
        steps: usize,
        opts: &GrapeOptions,
        warm: Option<&Pulse>,
        what: &str,
    ) -> GrapeResult {
        let got = optimize(target, controls, steps, opts, warm);
        let want = reference::optimize(target, controls, steps, opts, warm);
        assert_eq!(got.pulse.channel_names, want.pulse.channel_names, "{what}");
        assert_eq!(fingerprint(&got), fingerprint(&want), "{what}");
        got
    }

    fn line_controls(n: usize) -> ControlSet {
        let edges: Vec<(usize, usize)> = (1..n).map(|q| (q - 1, q)).collect();
        transmon_xy_controls(n, &edges, &HardwareSpec::transmon_xy())
    }

    #[test]
    fn workspace_matches_the_reference_cold_and_warm_at_every_dimension() {
        // (qubits, steps, iterations): d = 2, 4, 8 and 16.
        for (n, steps, iters) in [(1, 10, 40), (2, 12, 30), (3, 8, 12), (4, 4, 4)] {
            let controls = line_controls(n);
            for seed in 0..3u64 {
                let target = random_unitary_seeded(1 << n, 0x6a3e + seed);
                let opts = GrapeOptions {
                    max_iters: iters,
                    seed: 0x9a0c ^ seed,
                    target_fidelity: 0.9999,
                    ..GrapeOptions::default()
                };
                let what = format!("d = {}, seed {seed}", 1 << n);
                let cold = assert_same_bits(&target, &controls, steps, &opts, None, &what);
                // Warm starts cropped, padded and at the same length.
                for warm_steps in [steps - 1, steps, steps + 3] {
                    assert_same_bits(
                        &target,
                        &controls,
                        warm_steps,
                        &opts,
                        Some(&cold.pulse),
                        &format!("{what}, warm at {warm_steps} steps"),
                    );
                }
            }
        }
    }

    #[test]
    fn workspace_matches_the_reference_on_early_exit_and_non_convergence() {
        let controls = controls1();
        let x = GateKind::X.unitary(&[]);
        let early = assert_same_bits(&x, &controls, 12, &GrapeOptions::default(), None, "X");
        assert!(early.iterations < GrapeOptions::default().max_iters);
        assert!(early.fidelity >= 0.999);
        // One step cannot reach X: every restart runs to max_iters.
        let opts = GrapeOptions {
            max_iters: 50,
            ..GrapeOptions::default()
        };
        let stuck = assert_same_bits(&x, &controls, 1, &opts, None, "X in 1 step");
        assert_eq!(stuck.iterations, 50 * opts.restarts);
        let cx = GateKind::Cx.unitary(&[]);
        assert_same_bits(&cx, &controls2(), 32, &opts, None, "CX");
    }

    #[test]
    fn a_nan_warm_start_is_never_reported_as_converged() {
        let opts = GrapeOptions::default();
        for (controls, target) in [
            (controls1(), GateKind::H.unitary(&[])),
            (controls2(), GateKind::Cx.unitary(&[])),
        ] {
            let channels = controls.channels.len();
            // A NaN on each channel in turn, the coupler included. The
            // sparse Hamiltonian build puts it only where the channel is
            // nonzero; the overlap is NaN either way.
            for k in 0..channels {
                let mut amplitudes = vec![vec![0.01; channels]; 6];
                amplitudes[2][k] = f64::NAN;
                let warm = Pulse {
                    step_ns: 0.5,
                    channel_names: controls.channels.iter().map(|c| c.name.clone()).collect(),
                    amplitudes,
                };
                let what = format!("NaN on channel {k} of {channels}");
                let r = optimize(&target, &controls, 6, &opts, Some(&warm));
                let non_finite = r.pulse.amplitudes.iter().flatten().any(|a| !a.is_finite());
                assert!(
                    !non_finite || r.fidelity < opts.target_fidelity,
                    "{what}: a pulse with a non-finite amplitude reports fidelity {}",
                    r.fidelity
                );
            }
        }
    }

    /// A random Hermitian `d×d` matrix scaled by `scale`.
    fn hermitian(d: usize, seed: u64, scale: f64) -> Matrix {
        let mut rng = Rng::seed_from_u64(seed);
        let g = paqoc_math::ginibre(d, &mut rng);
        (&g + &g.dagger()).scaled(C64::real(scale))
    }

    #[test]
    fn workspace_matches_the_reference_on_a_custom_control_set() {
        let mut controls = line_controls(2);
        // A dense Hermitian channel and a nonzero drift.
        controls.channels.push(ControlChannel {
            name: "dense".into(),
            operator: hermitian(4, 11, 0.5),
            max_amp: 0.03,
        });
        controls.drift = hermitian(4, 12, 0.01);
        let target = random_unitary_seeded(4, 0x77);
        let opts = GrapeOptions {
            max_iters: 40,
            ..GrapeOptions::default()
        };
        let cold = assert_same_bits(&target, &controls, 10, &opts, None, "dense channel");
        assert_same_bits(&target, &controls, 10, &opts, Some(&cold.pulse), "warm");

        // A drift whose zeros are negative: the sparse Hamiltonian build
        // skips entries the dense one would have added `0·α` to.
        controls.drift = Matrix::zeros(4, 4).scaled(C64::real(-1.0));
        controls.drift[(0, 0)] = C64::new(0.002, -0.0);
        assert_same_bits(&target, &controls, 10, &opts, None, "negative-zero drift");

        // No channels at all: the drift alone, one empty row per step.
        controls.channels.clear();
        let r = assert_same_bits(&target, &controls, 5, &opts, None, "drift only");
        assert_eq!(r.pulse.num_steps(), 5);
    }

    /// Two 3-qubit control sets beside the line: an L-shaped group of the
    /// grid, whose couplers meet at local qubit 0, and the line with a
    /// different limit on every channel, as a calibrated device gives.
    fn more_control_sets() -> [(&'static str, ControlSet); 2] {
        let l_shape = paqoc_device::Device::grid5x5().controls_for(&[0, 1, 5]);
        let names: Vec<&str> = l_shape.channels.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names[6..], ["xy[0,1]", "xy[0,2]"]);
        let mut tuned = line_controls(3);
        let scales = [0.86, 1.095, 0.93, 1.02, 0.97, 1.06, 0.75, 1.1];
        for (ch, scale) in tuned.channels.iter_mut().zip(scales) {
            ch.max_amp *= scale;
        }
        [("L-shaped group", l_shape), ("per-channel limits", tuned)]
    }

    #[test]
    fn workspace_matches_the_reference_on_more_control_sets() {
        for (what, controls) in more_control_sets() {
            for seed in 0..2u64 {
                let target = random_unitary_seeded(8, 0x4c5e + seed);
                let opts = GrapeOptions {
                    max_iters: 12,
                    seed: 0x9a0c ^ seed,
                    target_fidelity: 0.9999,
                    ..GrapeOptions::default()
                };
                let what = format!("{what}, seed {seed}");
                let cold = assert_same_bits(&target, &controls, 8, &opts, None, &what);
                let warm = Some(&cold.pulse);
                assert_same_bits(&target, &controls, 9, &opts, warm, &format!("{what}, warm"));
            }
        }
    }

    #[test]
    fn propagate_matches_the_reference_bit_for_bit() {
        let lines = (1..=3).map(|n| ("line", line_controls(n)));
        for (k, (what, controls)) in lines.chain(more_control_sets()).enumerate() {
            let opts = GrapeOptions {
                max_iters: 20,
                ..GrapeOptions::default()
            };
            let target = random_unitary_seeded(controls.dim(), 0x9a + k as u64);
            let r = optimize(&target, &controls, 8, &opts, None);
            let got = crate::sim::propagate(&r.pulse, &controls);
            let want = reference::propagate(&r.pulse, &controls);
            let bits = |m: &Matrix| -> Vec<(u64, u64)> {
                m.as_slice()
                    .iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&got), bits(&want), "{what}, d = {}", controls.dim());
        }
    }
}
