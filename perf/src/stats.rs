//! Exact order statistics over raw samples.
//!
//! Every reported percentile and mean is computed from the full sample
//! vector, never from a sketch: `paqoc_telemetry::Histogram` answers
//! quantiles from log buckets with up to ~9% relative error, a third of
//! the regression bounds this benchmark enforces.

/// Nearest-rank percentile: the smallest sample `x` such that at least
/// `pct` percent of the samples are `<= x`. The rank is
/// `ceil(pct * n / 100)` in integer arithmetic, so `p95` of 200 samples
/// is exactly the 190th smallest, with 10 samples beyond it. `None` for
/// an empty input or a NaN sample.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (pct.min(100) as usize * n).div_ceil(100).max(1);
    Some(sorted[rank - 1])
}

/// Nearest-rank median (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// The textbook median: the middle sample, or the mean of the two middle
/// samples for an even count. `None` for an empty input or a NaN sample.
pub fn middle(samples: &[f64]) -> Option<f64> {
    let lower = percentile(samples, 50)?;
    if samples.len() % 2 == 1 {
        return Some(lower);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some((lower + sorted[samples.len() / 2]) / 2.0)
}

/// Geometric mean. `None` when the input is empty or holds a value that
/// is not strictly positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    let mean_ln = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_ln.exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_vector() {
        // The textbook example: 15, 20, 35, 40, 50.
        let v = [35.0, 20.0, 50.0, 15.0, 40.0];
        assert_eq!(percentile(&v, 5), Some(15.0));
        assert_eq!(percentile(&v, 30), Some(20.0));
        assert_eq!(percentile(&v, 40), Some(20.0));
        assert_eq!(percentile(&v, 50), Some(35.0));
        assert_eq!(percentile(&v, 100), Some(50.0));
        assert_eq!(percentile(&v, 0), Some(15.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(middle(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(middle(&[35.0, 20.0, 50.0, 15.0, 40.0]), Some(35.0));
        assert_eq!(middle(&[]), None);
    }

    #[test]
    fn ties_resolve_to_the_tied_value() {
        let v = [1.0, 2.0, 2.0, 2.0, 9.0];
        assert_eq!(percentile(&v, 25), Some(2.0));
        assert_eq!(median(&v), Some(2.0));
        assert_eq!(percentile(&v, 80), Some(2.0));
        assert_eq!(percentile(&v, 81), Some(9.0));
        assert_eq!(percentile(&[3.0; 6], 95), Some(3.0));
    }

    #[test]
    fn p95_of_200_samples_leaves_exactly_ten_beyond() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p95 = percentile(&v, 95).expect("non-empty");
        assert_eq!(p95, 190.0);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
        // p90 of 180 samples (one 30 s serve run) leaves 18 beyond.
        let w: Vec<f64> = (1..=180).map(f64::from).collect();
        let p90 = percentile(&w, 90).expect("non-empty");
        assert_eq!(w.iter().filter(|&&x| x > p90).count(), 18);
    }

    #[test]
    fn empty_or_nan_input_has_no_percentile() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[1.0, f64::NAN], 50), None);
    }

    #[test]
    fn geomean_matches_known_values() {
        let close = |v: &[f64], want: f64| {
            let g = geomean(v).expect("positive");
            assert!((g - want).abs() < 1e-12 * want, "{g} vs {want}");
        };
        close(&[1.0, 4.0, 16.0], 4.0);
        close(&[5.0], 5.0);
        close(&[2.0, 2.0, 2.0, 2.0], 2.0);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }
}
