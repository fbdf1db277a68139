//! Order statistics for repeated measurements.

/// Median (the mean of the middle pair for an even count). Sorts `xs`.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (its default exclusive method).
/// Needs at least two samples. Sorts `xs`.
pub fn quartiles(xs: &mut [f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    xs.sort_by(f64::total_cmp);
    let m = xs.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, xs.len() - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        xs[j - 1] + (xs[j] - xs[j - 1]) * delta
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&mut xs), (2.75, 8.25));
        assert_eq!(median(&mut xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let mut ys = vec![3.0, 1.0, 2.0];
        assert_eq!(quartiles(&mut ys), (1.0, 3.0));
        assert_eq!(median(&mut ys), 2.0);
    }
}
