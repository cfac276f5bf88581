//! Order statistics for latency samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks, or `None` unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let below = (n as f64 * p / 100.0).ceil() as usize;
    if n == 0 || n.saturating_sub(below) < MIN_BEYOND {
        return None;
    }
    let v = sorted(values);
    let h = (n - 1) as f64 * p / 100.0;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    Some(v[lo] + (h - lo as f64) * (v[hi] - v[lo]))
}

/// The middle value (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The arithmetic mean.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), or `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten).expect("enough values");
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).expect("enough values");
        assert!(
            close(q[0], 1.0) && close(q[1], 2.0) && close(q[2], 3.0),
            "{q:?}"
        );
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(
            percentile(&hundred, 90.0).expect("100 samples"),
            90.1
        ));
        assert!(close(
            percentile(&hundred, 50.0).expect("100 samples"),
            50.5
        ));
        assert!(percentile(&hundred[..99], 90.0).is_none(), "9 beyond p90");
        assert!(percentile(&hundred[..20], 50.0).is_some(), "10 beyond p50");
        assert!(percentile(&hundred[..19], 50.0).is_none(), "9 beyond p50");
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
