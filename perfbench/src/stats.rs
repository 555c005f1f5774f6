//! Order statistics over timing samples.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile, or `None` unless at least
/// [`TAIL_SAMPLES`] samples lie beyond it — a tail read off fewer samples
/// than that is noise, not a measurement.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_is_refused_with_fewer_than_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        // Rank 990 of 999 leaves only 9 samples beyond p99.
        assert_eq!(tail_percentile(&values, 99.0), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&values[..15], 50.0), None);
        assert_eq!(tail_percentile(&values[..20], 50.0), Some(10.0));
    }
}
