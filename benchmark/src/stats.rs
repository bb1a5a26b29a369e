//! Order statistics over latency samples and per-round rates.

/// Sorts `values` and returns the `q`-quantile (`0.0..=1.0`) by linear
/// interpolation between the two nearest ranks, so the result moves
/// smoothly when one sample changes. Panics on an empty slice: every caller
/// holds at least one sample by construction.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_unstable_by(f64::total_cmp);
    let rank = (values.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    values[below] + (values[above] - values[below]) * (rank - below as f64)
}

/// The median (the 0.5-quantile).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive ratios (the Fig. 13 speed-up summary).
pub fn geomean(ratios: &[f64]) -> f64 {
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_vectors() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn percentiles_on_a_known_ramp() {
        // 0..=100: the q-quantile of the ramp is 100 q exactly.
        let mut ramp: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut ramp, 0.95), 95.0);
        assert_eq!(quantile(&mut ramp, 0.0), 0.0);
        assert_eq!(quantile(&mut ramp, 1.0), 100.0);
        // Interpolates between ranks: 4 samples, rank 2.85.
        let mut four = [10.0, 20.0, 30.0, 40.0];
        assert!((quantile(&mut four, 0.95) - 38.5).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_reciprocal_ratios_is_one() {
        assert!((geomean(&[2.0, 0.5, 4.0, 0.25]) - 1.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
