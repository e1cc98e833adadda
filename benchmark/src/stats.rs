//! Order statistics and means over `f64` samples. Every function panics
//! on an empty slice: a metric with no samples is a harness bug, not a 0.

/// Sorted copy (samples are finite by construction).
fn sorted(v: &[f64]) -> Vec<f64> {
    assert!(!v.is_empty(), "statistic of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    s
}

/// The `p`-quantile (0 ≤ p ≤ 1) with linear interpolation between the
/// two nearest ranks, so p = 0.5 of an even count is the midpoint.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    let rank = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Geometric mean; every sample must be positive.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of no samples");
    assert!(
        v.iter().all(|x| *x > 0.0),
        "geomean of a non-positive sample"
    );
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the driver's spread rule.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    let at = |k: usize| {
        // position k*(n+1)/4, 1-based, clamped to the sample range
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - j as f64;
        if n == 1 {
            s[0]
        } else {
            s[j - 1] + (s[j] - s[j - 1]) * frac
        }
    };
    (at(1), at(3))
}

/// Percentile of integer nanosecond samples, in place (sorts `v`).
pub fn percentile_u32(v: &mut [u32], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    v.sort_unstable();
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
        let mut ints = vec![5u32, 1, 3];
        assert_eq!(percentile_u32(&mut ints, 0.5), 3.0);
    }

    #[test]
    fn geomean_is_scale_free() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }
}
