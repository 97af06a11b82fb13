//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly
/// between the two nearest ranks (rank `q·(n−1)` of the sorted samples).
/// `None` for an empty slice. Sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64))
}

/// The median of `samples` (see [`quantile`]).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), Some(2.5));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(quantile(&mut v, 1.0 / 3.0), Some(2.0));
        let mut odd = vec![9.0, 7.0, 8.0];
        assert_eq!(median(&mut odd), Some(8.0));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn p99_of_a_ramp() {
        // 0..=1000: the 0.99 quantile sits exactly on rank 990.
        let mut v: Vec<f64> = (0..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), Some(990.0));
        assert_eq!(quantile(&mut v, 0.5), Some(500.0));
    }
}
