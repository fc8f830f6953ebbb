//! Order statistics for timing samples.

/// The median of `values`; the mean of the two middle values for an even
/// count, and 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile that has at least ten samples beyond it: the
/// sample at sorted rank `n - 11`, with exactly ten samples above it.
///
/// Returns `(value, percentile)`. With ten or fewer samples no such
/// percentile exists and the maximum is returned as the 100th.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => (0.0, 100.0),
        n if n <= 10 => (v[n - 1], 100.0),
        n => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        assert_eq!(tail(&[2.0, 9.0, 4.0]), (9.0, 100.0));
    }
}
