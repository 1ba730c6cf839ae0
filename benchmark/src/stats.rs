//! Medians and quartile spreads, computed the way the acceptance rule does.

pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The `q`-quantile (`0 <= q <= 1`), interpolating between the two values it
/// falls between; `None` when there are no values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len().checked_sub(1)? as f64);
    let (below, share) = (at.floor() as usize, at.fract());
    let above = (below + 1).min(sorted.len() - 1);
    Some(sorted[below] * (1.0 - share) + sorted[above] * share)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; 0 when there are
/// too few values to have one.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(mid)) if mid != 0.0 => (q3 - q1) / mid,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        assert_eq!(median(&values), Some(5.5));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert!((spread(&values) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_neighbours() {
        let values = [40.0, 10.0, 20.0, 30.0, 50.0];
        assert_eq!(quantile(&values, 0.0), Some(10.0));
        assert_eq!(quantile(&values, 0.1), Some(14.0));
        assert_eq!(quantile(&values, 0.5), Some(30.0));
        assert_eq!(quantile(&values, 1.0), Some(50.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
