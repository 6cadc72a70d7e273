//! `paqoc_math::poly_roots` against the Durand–Kerner loop as it was
//! when it compared `hypot` values, root by root and bit for bit, on
//! three sets of polynomials:
//!
//! * the characteristic polynomial of `MᵀM` for every distinct 4×4
//!   input the free estimator decomposes over the 17 Table-I programs at
//!   M=inf and M=0 on the 5×5 grid;
//! * the same polynomial for seeded products of CX and single-qubit
//!   gates, pure-local products among them (these run into the
//!   300-iteration cap);
//! * hand-built polynomials whose iterations stop or go on by a step
//!   within rounding of `1e-14`, whose iterates coincide exactly, whose
//!   denominators fall far below `1e-140` without reaching `1e-300`, or
//!   whose denominators and steps overflow when squared.
//!
//! The reference copies the old `poly_roots` with its cluster polish and
//! multiple-root refinement, so it shares no code with what it checks.
//! It also counts how often each set reaches the places where the new
//! comparisons fall back to `hypot`, so a set that stopped covering them
//! fails instead of passing vacuously.

use paqoc::circuit::{combined_unitary, Angle, GateKind, Instruction};
use paqoc::core::{try_compile, PipelineOptions};
use paqoc::device::{AnalyticModel, Device, WeylMemo};
use paqoc::exec::SharedPulseTable;
use paqoc::math::{char_poly, det, poly_roots, Matrix, Rng, C64};
use paqoc::workloads::all_benchmarks;
use std::collections::BTreeSet;
use std::sync::Arc;

/// `poly_roots` as it was before it decided its comparisons on squared
/// magnitudes.
mod reference {
    use paqoc::math::C64;

    /// How often the reference reached a decision the new comparisons
    /// take with `hypot`.
    #[derive(Debug, Default)]
    pub struct Coverage {
        /// Polynomials solved.
        pub runs: usize,
        /// Runs that used all 300 iterations.
        pub capped: usize,
        /// Iterations whose largest `|step|` lay within a relative
        /// `1e-6` of `1e-14`.
        pub near_tolerance: usize,
        /// Denominators below `1e-140` (squares below `1e-280`).
        pub small_denominators: usize,
        /// Denominators below `1e-300`: coincident iterates, nudged.
        pub nudges: usize,
    }

    pub fn poly_roots(coeffs: &[C64], coverage: &mut Coverage) -> Vec<C64> {
        assert!(coeffs.len() >= 2, "polynomial must have degree >= 1");
        let lead = coeffs[0];
        assert!(lead.abs() > 1e-300, "leading coefficient must be nonzero");
        let monic: Vec<C64> = coeffs.iter().map(|&c| c / lead).collect();
        let n = monic.len() - 1;

        let eval = |z: C64| -> C64 {
            let mut acc = C64::ZERO;
            for &c in &monic {
                acc = acc * z + c;
            }
            acc
        };

        let radius = 1.0 + monic[1..].iter().map(|c| c.abs()).fold(0.0f64, f64::max);
        let mut roots: Vec<C64> = (0..n)
            .map(|k| {
                C64::from_polar(
                    radius.min(4.0),
                    0.4 + 2.0 * std::f64::consts::PI * k as f64 / n as f64,
                )
            })
            .collect();

        coverage.runs += 1;
        let mut converged = false;
        for _ in 0..300 {
            let mut max_step = 0.0f64;
            for i in 0..n {
                let zi = roots[i];
                let mut denom = C64::ONE;
                for (j, &zj) in roots.iter().enumerate() {
                    if j != i {
                        denom *= zi - zj;
                    }
                }
                coverage.small_denominators += usize::from(denom.abs() < 1e-140);
                if denom.abs() < 1e-300 {
                    coverage.nudges += 1;
                    roots[i] = zi + C64::new(1e-8, 1e-8);
                    max_step = f64::MAX;
                    continue;
                }
                let step = eval(zi) / denom;
                roots[i] = zi - step;
                max_step = max_step.max(step.abs());
            }
            coverage.near_tolerance += usize::from((max_step / 1e-14 - 1.0).abs() <= 1e-6);
            if max_step < 1e-14 {
                converged = true;
                break;
            }
        }
        coverage.capped += usize::from(!converged);
        polish_clusters(&mut roots);
        refine_multiple_roots(&monic, &mut roots);
        roots
    }

    fn polish_clusters(roots: &mut [C64]) {
        let n = roots.len();
        let mut assigned = vec![usize::MAX; n];
        let mut next_cluster = 0;
        for i in 0..n {
            if assigned[i] != usize::MAX {
                continue;
            }
            assigned[i] = next_cluster;
            for j in (i + 1)..n {
                if assigned[j] == usize::MAX {
                    let scale = 1.0 + roots[i].abs();
                    if (roots[i] - roots[j]).abs() < 5e-4 * scale {
                        assigned[j] = next_cluster;
                    }
                }
            }
            next_cluster += 1;
        }
        for c in 0..next_cluster {
            let members: Vec<usize> = (0..n).filter(|&k| assigned[k] == c).collect();
            if members.len() > 1 {
                let centroid =
                    members.iter().map(|&k| roots[k]).sum::<C64>() / members.len() as f64;
                for &k in &members {
                    roots[k] = centroid;
                }
            }
        }
    }

    fn refine_multiple_roots(monic: &[C64], roots: &mut [C64]) {
        let n = roots.len();
        let mut i = 0;
        while i < n {
            let m = roots[i..].iter().filter(|r| **r == roots[i]).count().max(1);
            if m > 1 {
                let mut p: Vec<C64> = monic.to_vec();
                for _ in 0..(m - 1) {
                    let deg = p.len() - 1;
                    p = p[..deg]
                        .iter()
                        .enumerate()
                        .map(|(k, &c)| c * (deg - k) as f64)
                        .collect();
                }
                let mut z = roots[i];
                for _ in 0..60 {
                    let (mut val, mut der) = (C64::ZERO, C64::ZERO);
                    for &c in &p {
                        der = der * z + val;
                        val = val * z + c;
                    }
                    if der.abs() < 1e-300 {
                        break;
                    }
                    let step = val / der;
                    z -= step;
                    if step.abs() < 1e-15 * (1.0 + z.abs()) {
                        break;
                    }
                }
                let target = roots[i];
                for r in roots.iter_mut() {
                    if *r == target {
                        *r = z;
                    }
                }
            }
            i += m;
        }
    }
}

/// The polynomial whose roots `weyl_coordinates` takes for `u`: the
/// characteristic polynomial of `MᵀM`, `M` the magic-basis image of `u`
/// scaled into SU(4), built by the same steps.
fn gram_poly(u: &Matrix) -> Vec<C64> {
    let d = det(u);
    let scale = C64::cis(-(d.arg() / 4.0)) * d.abs().powf(-0.25);
    let su = u.scaled(scale);
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let (z, r, i) = (C64::ZERO, C64::real(s), C64::new(0.0, s));
    let b = Matrix::from_rows(&[&[r, i, z, z], &[z, z, i, r], &[z, z, i, -r], &[r, -i, z, z]]);
    let up = b.dagger().matmul(&su).matmul(&b);
    char_poly(&up.transpose().matmul(&up))
}

/// A root's bits, with every NaN one value: which NaN an operation
/// yields is not specified, so the two copies may differ there.
fn root_bits(z: C64) -> (u64, u64) {
    let bits = |x: f64| {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    };
    (bits(z.re), bits(z.im))
}

/// Requires `poly_roots` to give the reference's roots on every
/// polynomial, and returns what the reference covered.
fn check(polys: &[Vec<C64>], set: &str) -> reference::Coverage {
    let mut coverage = reference::Coverage::default();
    for (k, p) in polys.iter().enumerate() {
        let want: Vec<_> = reference::poly_roots(p, &mut coverage)
            .into_iter()
            .map(root_bits)
            .collect();
        let got: Vec<_> = poly_roots(p).into_iter().map(root_bits).collect();
        assert_eq!(got, want, "{set} polynomial {k}: {p:?}");
    }
    coverage
}

#[test]
fn table1_weyl_inputs_keep_their_roots() {
    let device = Device::grid5x5();
    let mut seen = BTreeSet::new();
    let mut polys = Vec::new();
    for config in [PipelineOptions::m_inf(), PipelineOptions::m0()] {
        for b in all_benchmarks() {
            // A table of its own per compile: its memo then holds exactly
            // the inputs this compile's free estimator decomposed.
            let table = Arc::new(SharedPulseTable::new());
            let opts = PipelineOptions {
                shared_table: Some(table.clone()),
                ..config.clone()
            };
            try_compile(&(b.build)(), &device, &mut AnalyticModel::new(), &opts).expect(b.name);
            let memo = table.weyl_memo();
            assert!(memo.len() < WeylMemo::CAPACITY, "{}: memo full", b.name);
            for (u, _) in memo.snapshot() {
                let u: Vec<C64> = u.into_iter().flatten().collect();
                let bits: Vec<(u64, u64)> = u.iter().map(|&z| root_bits(z)).collect();
                if seen.insert(bits) {
                    polys.push(gram_poly(&Matrix::from_flat(u)));
                }
            }
        }
    }
    let coverage = check(&polys, "Table-I");
    assert!(coverage.runs > 500, "{coverage:?}");
    assert!(coverage.capped > 0, "{coverage:?}");
}

#[test]
fn seeded_gate_products_keep_their_roots() {
    let mut rng = Rng::seed_from_u64(0xd0_4a);
    let polys: Vec<Vec<C64>> = (0..600)
        .map(|k| {
            // Every fourth product is pure-local: its Gram matrix has one
            // fourfold eigenvalue.
            let kinds = if k % 4 == 0 { 5u32 } else { 7 };
            let gates: Vec<Instruction> = (0..rng.random_range(1..=10usize))
                .map(|_| {
                    let q = rng.random_range(0..2usize);
                    let angle = Angle::new(rng.random::<f64>() * 6.0 - 3.0);
                    match rng.random_range(0..kinds) {
                        0 => Instruction::new(GateKind::H, vec![q], vec![]),
                        1 => Instruction::new(GateKind::Sx, vec![q], vec![]),
                        2 => Instruction::new(GateKind::T, vec![q], vec![]),
                        3 => Instruction::new(GateKind::Rz, vec![q], vec![angle]),
                        4 => Instruction::new(GateKind::Ry, vec![q], vec![angle]),
                        _ => Instruction::new(GateKind::Cx, vec![q, 1 - q], vec![]),
                    }
                })
                .collect();
            gram_poly(&combined_unitary(&gates, &[0, 1]))
        })
        .collect();
    let coverage = check(&polys, "seeded");
    assert!(coverage.capped > 0, "{coverage:?}");
}

fn c(re: u64, im: u64) -> C64 {
    C64::new(f64::from_bits(re), f64::from_bits(im))
}

#[test]
fn hand_built_boundaries_keep_their_roots() {
    // A root of magnitude ~1e-13 beside one of magnitude ~1: the last
    // step before the stop lies within rounding of 1e-14, and the next
    // iteration would still move the small root's bits.
    let stops = [
        [
            c(0x3fe6d047f4b3992f, 0xbfe667b2cda078d7),
            c(0xbd23355d2c1f0d20, 0x3d3afaf681655248),
        ],
        [
            c(0xbfda2a1b5c44e9a7, 0x3ff06685391510ba),
            c(0x3d40b7631480d06c, 0x3d0d6dc063905cfc),
        ],
        [
            c(0x3fc15a6c2cd82e31, 0xbfd72b6ea704fc3b),
            c(0xbd0f668933351e1d, 0xbd25a37873ea22ed),
        ],
        [
            c(0xbfdd11cf5b5e77b7, 0xbfde5aac90282248),
            c(0x3d445583191addab, 0x3d4c0b969af30e2a),
        ],
    ];
    // The second root's first update lands exactly on the first root's:
    // a zero denominator, nudged.
    let coincident = [
        [
            c(0x4003a4e7345d47d9, 0x40111807c960f7e2),
            c(0x4059b576bca7f26c, 0x40516b4df00e27b3),
        ],
        [
            c(0xc0006ddf96590d61, 0xc008d00c88943ce2),
            c(0x40175a8156261897, 0x40213d8fe6cfc064),
        ],
    ];
    let mut polys: Vec<Vec<C64>> = stops
        .iter()
        .chain(&coincident)
        .map(|tail| [C64::ONE, tail[0], tail[1]].to_vec())
        .collect();
    // (λ - w)⁴ λ⁴ with w = 0.6 + 0.8i, its coefficients rounded: the
    // fourfold root keeps the iteration going to the cap while the
    // iterates near zero close in, so their denominators reach ~1e-143
    // without reaching 1e-300.
    let mut tiny = vec![
        C64::ONE,
        c(0xc003333333333333, 0xc00999999999999a),
        c(0xbffae147ae147ae6, 0x40170a3d70a3d70a),
        c(0x400df3b645a1cac0, 0xbff6872b020c49b8),
        c(0xbfeafb7e90ff9724, 0xbfe13404ea4a8c17),
    ];
    tiny.extend([C64::ZERO; 4]);
    polys.push(tiny);
    // Roots of magnitude 1e100 and 1e150: denominators and steps whose
    // squares overflow.
    for big in [1e200, 1e300] {
        polys.push(vec![C64::ONE, C64::ZERO, C64::real(-big)]);
    }
    let coverage = check(&polys, "hand-built");
    assert!(coverage.near_tolerance >= stops.len(), "{coverage:?}");
    assert!(coverage.nudges >= coincident.len(), "{coverage:?}");
    assert!(
        coverage.small_denominators > coverage.nudges,
        "{coverage:?}"
    );
    assert!(coverage.capped > 0, "{coverage:?}");
}
