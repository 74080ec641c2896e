//! Huber weights for robust fitting by iteratively reweighted least squares.
//!
//! The CESM paper's sea-ice timings carry one-sided decomposition outliers
//! ("this increased the noise in the sea ice performance curve fit and
//! impacted the timing estimates", §IV-A). Ordinary least squares lets a
//! single inflated sample drag the whole curve; the Huber loss caps each
//! residual's influence at `k` robust standard deviations. IRLS refits
//! [`IRLS_ROUNDS`] times, each time with weights `w_i = min(1, k·s / |r_i|)`
//! on the squared residuals, where `s` is the MAD scale of the residuals of
//! the previous fit.

/// Huber threshold in robust standard deviations (1.345 gives 95%
/// efficiency under Gaussian noise).
pub const HUBER_K: f64 = 1.345;
/// Reweighting rounds.
pub const IRLS_ROUNDS: usize = 5;

/// Median absolute deviation to standard deviation under Gaussian noise.
const MAD_TO_SIGMA: f64 = 1.4826;
/// MAD scales at or below this count as a (near-)perfect fit.
const SCALE_FLOOR: f64 = 1e-12;
/// Weights within this of 1.0 are "no down-weighting".
const UNIT_WEIGHT_TOL: f64 = 1e-12;

/// Sets `weights` to the Huber weights of `residuals`, and returns whether
/// any residual was down-weighted. When none was, because the fit is
/// (near-)perfect or no residual lies beyond [`HUBER_K`] robust standard
/// deviations, IRLS has converged.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn huber_weights(residuals: &[f64], weights: &mut [f64]) -> bool {
    assert_eq!(residuals.len(), weights.len(), "one weight per residual");
    let mut magnitudes: Vec<f64> = residuals.iter().map(|r| r.abs()).collect();
    magnitudes.sort_by(f64::total_cmp);
    let mid = magnitudes.len() / 2;
    let median = match magnitudes.len() {
        0 => return false,
        len if len.is_multiple_of(2) => 0.5 * (magnitudes[mid - 1] + magnitudes[mid]),
        _ => magnitudes[mid],
    };
    let scale = MAD_TO_SIGMA * median;
    if scale.is_nan() || scale <= SCALE_FLOOR {
        return false;
    }
    for (w, r) in weights.iter_mut().zip(residuals) {
        *w = HUBER_K / (r.abs() / scale).max(HUBER_K);
    }
    weights.iter().any(|&w| w < 1.0 - UNIT_WEIGHT_TOL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outliers_are_down_weighted() {
        let r = [0.1, -0.2, 0.15, -0.1, 5.0];
        let mut w = [1.0; 5];
        assert!(huber_weights(&r, &mut w));
        // Median |r| is 0.15, so s = 0.2224 and k·s = 0.299.
        assert_eq!(&w[..4], &[1.0; 4]);
        let expected = HUBER_K * MAD_TO_SIGMA * 0.15 / 5.0;
        assert!((w[4] - expected).abs() < 1e-15, "{w:?}");
    }

    #[test]
    fn clean_residuals_are_not_down_weighted() {
        let r = [0.1, -0.1, 0.12, -0.09];
        let mut w = [0.5; 4];
        assert!(!huber_weights(&r, &mut w));
        assert_eq!(w, [1.0; 4]);
    }

    #[test]
    fn median_of_even_count_averages_the_middle_pair() {
        // |r| sorted: 1, 2, 4, 100 -> median 3, s = 4.4478, k·s = 5.98.
        let r = [2.0, -1.0, 100.0, 4.0];
        let mut w = [1.0; 4];
        assert!(huber_weights(&r, &mut w));
        assert!((w[2] - HUBER_K * MAD_TO_SIGMA * 3.0 / 100.0).abs() < 1e-15);
        assert_eq!([w[0], w[1], w[3]], [1.0; 3]);
    }
}
