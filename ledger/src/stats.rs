//! Order statistics: the median, the tail percentile the sample
//! supports, and the quartile spread `ledger compare` judges by.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample or a NaN: both mean the measurement is
/// broken, not that the median is some default.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    v
}

/// The highest whole percentile with at least ten samples beyond it,
/// and its value (nearest rank). `None` when the sample is too small
/// to support any percentile above the median: fewer than 20 samples
/// leave fewer than ten beyond p50.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    // Nearest rank: p maps to the ceil(p·n/100)-th smallest; "beyond"
    // counts the samples strictly after that rank.
    let p = (51..=99u32)
        .rev()
        .find(|&p| n - rank(p, n) >= 10)
        .unwrap_or(50);
    Some((p, sorted(xs)[rank(p, n) - 1]))
}

fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// First and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        // statistics.quantiles, method="exclusive": position k(n+1)/4,
        // clamped into the sample, linear interpolation.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn median_of_nothing_is_a_bug() {
        median(&[]);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&xs(19)), None);
        // 20 samples: ten lie beyond the 10th, which is p50.
        assert_eq!(tail(&xs(20)), Some((50, 10.0)));
        // 40 samples: rank 30 leaves ten beyond it, 30/40 = p75.
        assert_eq!(tail(&xs(40)), Some((75, 30.0)));
        // 120 samples: rank 110 is ceil(p·1.2) for p = 91.
        assert_eq!(tail(&xs(120)), Some((91, 110.0)));
        // 1000 samples: p99 leaves exactly ten.
        assert_eq!(tail(&xs(1000)), Some((99, 990.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
