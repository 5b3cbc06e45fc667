//! Order statistics over measured samples.

/// Nearest-rank quantile of `q ∈ [0, 1]`: the smallest sample with at
/// least `q · n` samples at or below it. `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Samples strictly above the `q` quantile — the tail a percentile speaks
/// for. A p90 needs at least ten of them to describe any tail.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let rank = ((q * samples.len() as f64).ceil() as usize).min(samples.len());
    samples.len() - rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
