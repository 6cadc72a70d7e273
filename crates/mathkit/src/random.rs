//! Haar-random unitaries and reproducible numeric noise.
//!
//! Random unitaries drive the property-based tests (invariance of Weyl
//! coordinates, unitarity preservation of `expm`) and the supremacy-style
//! workload generator. The construction is the standard Ginibre + QR with
//! phase fixing, which yields Haar measure.

use crate::complex::C64;
use crate::matrix::Matrix;
use crate::rng::Rng;

/// Draws a standard-normal sample via Box–Muller from a uniform source.
fn normal(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random::<f64>();
    (-2.0f64 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples an `n × n` matrix with i.i.d. standard complex Gaussian entries.
pub fn ginibre(n: usize, rng: &mut Rng) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = C64::new(normal(rng), normal(rng));
        }
    }
    m
}

/// Samples an `n × n` Haar-random unitary.
///
/// Uses QR of a Ginibre matrix via modified Gram–Schmidt, with the phases
/// of the `R` diagonal folded into `Q` so the distribution is exactly Haar.
///
/// # Examples
///
/// ```
/// use paqoc_math::random_unitary_seeded;
/// let u = random_unitary_seeded(4, 7);
/// assert!(u.is_unitary(1e-10));
/// ```
pub fn random_unitary(n: usize, rng: &mut Rng) -> Matrix {
    let g = ginibre(n, rng);
    // Modified Gram–Schmidt on columns.
    let mut q = g;
    for j in 0..n {
        // Normalize column j.
        let mut norm = 0.0f64;
        for i in 0..n {
            norm += q[(i, j)].norm_sqr();
        }
        let norm = norm.sqrt();
        // Fix the phase using the leading entry so R has positive diagonal.
        let lead = q[(0, j)];
        let phase = if lead.abs() > 1e-300 {
            C64::cis(-lead.arg())
        } else {
            C64::ONE
        };
        let inv = phase * (1.0 / norm.max(1e-300));
        for i in 0..n {
            q[(i, j)] *= inv;
        }
        // Orthogonalize the remaining columns against column j.
        for k in (j + 1)..n {
            let mut dot = C64::ZERO;
            for i in 0..n {
                dot = dot.mul_add(q[(i, j)].conj(), q[(i, k)]);
            }
            for i in 0..n {
                let v = q[(i, j)];
                q[(i, k)] = q[(i, k)].mul_add(-dot, v);
            }
        }
    }
    q
}

/// Samples a Haar-random unitary from a fixed seed (deterministic).
pub fn random_unitary_seeded(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    random_unitary(n, &mut rng)
}

/// A tiny deterministic hash for jitter terms in the analytic latency
/// model: maps arbitrary bytes to a value in `[0, 1)`.
///
/// This is FNV-1a followed by a 53-bit mantissa extraction — fast, stable
/// across platforms and good enough for ±5% deterministic "noise".
pub fn stable_jitter(bytes: &[u8]) -> f64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.jitter()
}

/// FNV-1a fed in pieces, behind [`stable_jitter`] and the device
/// fingerprints: the same bytes in the same order give the same value
/// however they are split, so a caller can hash text as it formats it
/// (`write!` into the hasher) instead of building a `String` first.
#[derive(Clone, Copy, Debug)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// The FNV-1a offset basis: the state before any byte.
    pub fn new() -> Self {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The FNV-1a hash of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The jitter value of everything fed so far, in `[0, 1)`.
    pub fn jitter(self) -> f64 {
        // Mix once more to decorrelate low bytes.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl std::fmt::Write for StableHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_unitary_is_unitary() {
        for seed in 0..5 {
            for n in [2usize, 4, 8] {
                let u = random_unitary_seeded(n, seed);
                assert!(u.is_unitary(1e-9), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn seeded_unitary_is_deterministic() {
        let a = random_unitary_seeded(4, 42);
        let b = random_unitary_seeded(4, 42);
        assert!(a.max_diff(&b) < 1e-15);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_unitary_seeded(4, 1);
        let b = random_unitary_seeded(4, 2);
        assert!(a.max_diff(&b) > 1e-3);
    }

    #[test]
    fn jitter_is_in_unit_interval_and_stable() {
        let j1 = stable_jitter(b"cx:0:1");
        let j2 = stable_jitter(b"cx:0:1");
        let j3 = stable_jitter(b"cx:1:0");
        assert_eq!(j1, j2);
        assert!((0.0..1.0).contains(&j1));
        assert_ne!(j1, j3);
    }

    #[test]
    fn streamed_jitter_matches_the_whole_buffer() {
        use std::fmt::Write;
        let text = "rz(gamma*0.5):0;cx:0,1;sx:18446744073709551615";
        let whole = stable_jitter(text.as_bytes());
        for split in 0..=text.len() {
            let mut h = StableHasher::new();
            h.write(&text.as_bytes()[..split]);
            h.write(&text.as_bytes()[split..]);
            assert_eq!(h.jitter().to_bits(), whole.to_bits(), "split at {split}");
        }
        let mut h = StableHasher::new();
        write!(h, "rz(gamma*0.5):{};cx:{},{};sx:{}", 0, 0, 1, usize::MAX).unwrap();
        assert_eq!(h.jitter().to_bits(), whole.to_bits());
        assert_eq!(
            StableHasher::default().jitter().to_bits(),
            stable_jitter(b"").to_bits()
        );
    }

    #[test]
    fn ginibre_entries_have_unit_scale() {
        let mut rng = Rng::seed_from_u64(9);
        let g = ginibre(8, &mut rng);
        let mean_sq: f64 = g.as_slice().iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        // E|z|² = 2 for standard complex Gaussian with unit-variance parts.
        assert!((mean_sq - 2.0).abs() < 0.8, "mean_sq={mean_sq}");
    }
}
