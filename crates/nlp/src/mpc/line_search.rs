//! Fraction-to-boundary step limits and the barrier-merit backtracking
//! search, shared by the predictor-corrector iterations and the fixed-μ
//! fallback's stages.
//!
//! The fraction-to-boundary rule caps each step so every positivity
//! quantity (slacks, bound distances, dual iterates) keeps at least a
//! `1 − τ` fraction of its current value — iterates approach but never
//! touch the boundary, which is what keeps the condensed KKT matrix
//! finite. The primal block additionally backtracks against the barrier
//! merit `Φ_μ̂` (objective plus μ̂-weighted log barriers, the function a
//! fallback stage minimizes): the corrected Mehrotra direction carries
//! second-order terms that are not a descent guarantee, and on nonlinear
//! constraints the linearized slack prediction undershoots the true one,
//! so trial points must re-prove both strict feasibility and progress.
//! Dual blocks take their own boundary-capped step without backtracking —
//! the dual equations are linear, so the full step lands the
//! complementarity products on the current target by construction.

use crate::barrier::ARMIJO_C1;

/// Fraction-to-boundary factor τ: steps stop just short of the positivity
/// boundary so slacks and dual iterates never collapse to zero.
pub(crate) const FRACTION_TO_BOUNDARY_TAU: f64 = 0.995;
/// Multiplicative shrink applied to the trial scale after each rejected
/// step (an exact binary halving, so trial points are reproducible).
pub(crate) const MERIT_BACKTRACK_FACTOR: f64 = 0.5;
/// Trial budget per direction: 30 halvings shrink the scale below 1e-9,
/// far past where any usable direction would have been accepted.
pub(crate) const MAX_MERIT_BACKTRACKS: usize = 30;

/// Largest α ∈ [0, 1] keeping `value + α·delta ≥ (1 − τ)·value` for every
/// `(value, delta)` pair — the fraction-to-boundary rule over one
/// positivity block. Values are assumed positive; nonnegative deltas
/// impose no limit.
pub(crate) fn max_step(pairs: impl Iterator<Item = (f64, f64)>, tau: f64) -> f64 {
    let mut alpha = 1.0_f64;
    for (value, delta) in pairs {
        if delta < 0.0 {
            alpha = alpha.min(tau * value / (-delta));
        }
    }
    alpha
}

/// Barrier-merit backtracking: tries θ = 1 first, shrinking by
/// [`MERIT_BACKTRACK_FACTOR`] until a trial passes. `trial(θ)` returns the
/// trial merit when the scaled step is admissible (strictly feasible,
/// finite merit) and `None` otherwise; every rejection — inadmissible or
/// insufficient decrease — counts one backtrack. `scale` is the
/// fraction-to-boundary cap the caller folds into the trial step and
/// `slope` the directional derivative `∇Φᵀd` of the merit along the raw
/// direction, so the Armijo test sees the true step `θ·scale·d`. Any
/// strict decrease is also accepted: equality-corrected KKT steps are not
/// always descent directions for Φ. Returns the
/// accepted θ, or `None` when the budget runs out.
pub(crate) fn backtrack(
    merit0: f64,
    slope: f64,
    scale: f64,
    mut trial: impl FnMut(f64) -> Option<f64>,
    backtracks: &mut u64,
) -> Option<f64> {
    let mut theta = 1.0_f64;
    for _ in 0..MAX_MERIT_BACKTRACKS {
        if let Some(merit) = trial(theta) {
            if merit <= merit0 + ARMIJO_C1 * theta * scale * slope || merit < merit0 {
                return Some(theta);
            }
        }
        *backtracks += 1;
        theta *= MERIT_BACKTRACK_FACTOR;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_step_caps_only_decreasing_pairs() {
        // Increasing pair imposes no limit; the decreasing pair caps the
        // step at tau * value / |delta|.
        let pairs = vec![(1.0, 5.0), (1.0, -2.0)].into_iter();
        let alpha = max_step(pairs, 0.995);
        assert!((alpha - 0.995 / 2.0).abs() < 1e-12);
        assert!((max_step(std::iter::empty(), 0.995) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backtrack_accepts_full_step_on_decrease() {
        let mut rejected = 0;
        let theta = backtrack(1.0, -0.5, 1.0, |t| Some(1.0 - 0.5 * t), &mut rejected);
        assert_eq!(theta, Some(1.0));
        assert_eq!(rejected, 0);
    }

    #[test]
    fn backtrack_accepts_any_decrease_on_bad_slope() {
        // Positive model slope (no descent predicted) but the merit still
        // improves a hair: the any-decrease fallback accepts.
        let mut rejected = 0;
        let theta = backtrack(1.0, 2.0, 1.0, |_| Some(1.0 - 1e-12), &mut rejected);
        assert_eq!(theta, Some(1.0));
        assert_eq!(rejected, 0);
    }

    #[test]
    fn backtrack_counts_rejections_and_halves() {
        // Inadmissible at θ = 1 and θ = 0.5, then a decreasing merit.
        let mut rejected = 0;
        let theta = backtrack(
            1.0,
            -1.0,
            1.0,
            |t| if t > 0.3 { None } else { Some(0.5) },
            &mut rejected,
        );
        assert_eq!(theta, Some(0.25));
        assert_eq!(rejected, 2);
    }

    #[test]
    fn backtrack_gives_up_after_budget() {
        let mut rejected = 0;
        let theta = backtrack(1.0, -1.0, 1.0, |_| None, &mut rejected);
        assert_eq!(theta, None);
        assert_eq!(rejected as usize, MAX_MERIT_BACKTRACKS);
    }
}
