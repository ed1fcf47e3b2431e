//! Order statistics over measured samples.

/// Median of `samples` (sorts them in place); 0 when empty.
pub fn median<T: Copy + Into<f64>>(samples: &mut [T]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q` quantile of `samples` by linear interpolation between closest
/// ranks (sorts them in place); 0 when empty.
pub fn quantile<T: Copy + Into<f64>>(samples: &mut [T], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(|a, b| (*a).into().total_cmp(&(*b).into()));
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let (lo, hi): (f64, f64) = (
        samples[pos.floor() as usize].into(),
        samples[pos.ceil() as usize].into(),
    );
    lo + (hi - lo) * pos.fract()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median::<f64>(&mut []), 0.0);
    }

    #[test]
    fn p99_of_a_hundred_samples() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&mut v, 0.99) - 99.01).abs() < 1e-9);
    }
}
