//! Order statistics: medians, the percentile picker, and the quartile rule
//! the acceptance driver applies to sets of runs.

/// Sorts ascending with a total order (NaN last, so a bad sample is visible
/// at the tail instead of panicking the sort).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of a sample (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One reported tail percentile: which percentile was actually used, its
/// value, how many samples the picker saw and how many lie beyond the pick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Samples that must lie beyond a reported percentile for it to mean
/// anything (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps a product such as 0.95 × 220 = 209.00000000000003
    // from being rounded up a whole rank.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Picks `wanted` (e.g. 0.95) when at least [`MIN_BEYOND`] samples lie
/// beyond it; otherwise the highest percentile that still has that many
/// beyond it, falling back to the median for a sample too small for any
/// tail. `sorted` must be ascending and non-empty.
pub fn tail_percentile(sorted: &[f64], wanted: f64) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "percentile of an empty sample");
    let mut index = rank(n, wanted);
    let mut percentile = wanted;
    if n - 1 - index < MIN_BEYOND {
        if n > 2 * MIN_BEYOND {
            index = n - 1 - MIN_BEYOND;
            percentile = (index + 1) as f64 / n as f64;
        } else {
            index = rank(n, 0.5);
            percentile = 0.5;
        }
    }
    Tail {
        percentile,
        value: sorted[index],
        samples: n,
        beyond: n - 1 - index,
    }
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them — the rule the acceptance driver applies to ten runs.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p95_is_kept_when_ten_samples_lie_beyond_it() {
        let t = tail_percentile(&ramp(220), 0.95);
        assert_eq!(t.percentile, 0.95);
        assert_eq!(t.value, 209.0);
        assert_eq!((t.samples, t.beyond), (220, 11));
    }

    #[test]
    fn picker_lowers_the_percentile_until_ten_samples_lie_beyond() {
        // 100 samples: p95 would leave 5 beyond; the highest percentile
        // with ten beyond is the 90th value.
        let t = tail_percentile(&ramp(100), 0.95);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, MIN_BEYOND);
        assert!((t.percentile - 0.90).abs() < 1e-12);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn picker_falls_back_to_the_median_for_a_tiny_sample() {
        let t = tail_percentile(&ramp(6), 0.95);
        assert_eq!(t.percentile, 0.5);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.samples, 6);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(spread(&ramp(10)), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
