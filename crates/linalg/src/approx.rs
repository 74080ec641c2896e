//! The workspace's tolerance vocabulary.
//!
//! `hslb-lint`'s `float-eq` rule bans raw `==`/`!=` between floats outside
//! this module: every comparison the solvers make should either go through
//! a helper here (so the tolerance policy is named and auditable) or carry
//! a written justification. The same goes for float→int casts: the
//! `*_to_*` helpers below state their rounding intent in their name.
//!
//! Two deliberately different regimes live here:
//!
//! - **Approximate** comparisons ([`approx_eq`], [`fuzzy_ceil`],
//!   [`fuzzy_floor`]) absorb float noise from upstream arithmetic. Use them
//!   whenever the operands were *computed* (residuals, bounds from
//!   divisions, objective values).
//! - **Exact** comparisons ([`exactly_zero`]) are for *structural* values
//!   that were stored, not computed — a sparse coefficient that is 0.0
//!   because nobody set it. Skipping work on exact zeros is a semantics-
//!   preserving fast path; widening it to a tolerance would silently drop
//!   small real coefficients.

/// Default relative tolerance for [`approx_eq`] when callers have no
/// problem-specific scale: about 1000 ulps at magnitude 1.
pub const DEFAULT_REL_TOL: f64 = 1e-12;

/// Mixed absolute/relative equality: `|a − b| ≤ tol · max(1, |a|, |b|)`.
///
/// Absolute near zero (so residuals around 0 compare sanely), relative for
/// large magnitudes (so makespans in the 1e6 range are not "equal" to
/// everything within 1e-12 absolute).
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * 1.0_f64.max(a.abs()).max(b.abs())
}

/// Exact zero test for *structural* values (stored coefficients, explicit
/// sentinels) — NOT for computed quantities. The point of routing `x == 0.0`
/// through a named helper is that the exactness is declared, not accidental.
pub fn exactly_zero(x: f64) -> bool {
    x == 0.0
}

/// Ceil that forgives downward float noise: `fuzzy_ceil(4.999999999999999)`
/// is 5, not 5-from-ceil-of-noise. Use when the argument came out of a
/// division or scaling whose exact value may be an integer.
///
/// `tol` is relative to magnitude (plus an absolute floor of the same size).
pub fn fuzzy_ceil(x: f64, tol: f64) -> f64 {
    (x - tol * (1.0 + x.abs())).ceil()
}

/// Floor that forgives upward float noise — the dual of [`fuzzy_ceil`]:
/// `fuzzy_floor(5.000000000000001)` is 5.
pub fn fuzzy_floor(x: f64, tol: f64) -> f64 {
    (x + tol * (1.0 + x.abs())).floor()
}

/// Default noise tolerance for [`fuzzy_ceil`]/[`fuzzy_floor`] on bound
/// arithmetic: generous against accumulated division noise, far below the
/// unit spacing of the integer lattices being snapped to.
pub const SNAP_TOL: f64 = 1e-9;

/// Relative tolerance of the optimality certificates (`LpSolution::certify`
/// and `NlpSolution::certify`): the simplex's primal feasibility tolerance.
pub const CERT_TOL: f64 = 1e-7;

/// Whether a certificate violation of size `viol` is within [`CERT_TOL`]
/// relative to `1 + |scale|`. NaN is never within tolerance.
pub fn cert_within(viol: f64, scale: f64) -> bool {
    viol <= CERT_TOL * (1.0 + scale.abs())
}

/// `Err` naming the violated certificate condition `what` at `kind` `index`
/// when `viol` is out of tolerance relative to `scale` ([`cert_within`]).
pub fn cert_check(
    what: &str,
    kind: &str,
    index: usize,
    viol: f64,
    scale: f64,
) -> Result<(), String> {
    if cert_within(viol, scale) {
        return Ok(());
    }
    Err(format!(
        "{what}: {kind} {index} off by {viol:e} ({:.1e} relative)",
        viol / (1.0 + scale.abs())
    ))
}

/// `x.ceil()` as an `i64`, saturating — the name states the rounding.
pub fn ceil_to_i64(x: f64) -> i64 {
    x.ceil() as i64
}

/// `x.floor()` as an `i64`, saturating.
pub fn floor_to_i64(x: f64) -> i64 {
    x.floor() as i64
}

/// `x.round()` as a `u64`, saturating (negative inputs clamp to 0).
pub fn round_to_u64(x: f64) -> u64 {
    x.round() as u64
}

/// `x.round()` as a `u32`, saturating (negative inputs clamp to 0).
pub fn round_to_u32(x: f64) -> u32 {
    x.round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_mixes_absolute_and_relative() {
        assert!(approx_eq(0.0, 1e-13, 1e-12));
        assert!(!approx_eq(0.0, 1e-11, 1e-12));
        assert!(approx_eq(1e9, 1e9 * (1.0 + 1e-13), 1e-12));
        assert!(!approx_eq(1e9, 1e9 * (1.0 + 1e-11), 1e-12));
    }

    #[test]
    fn exactly_zero_is_exact() {
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(1e-300));
    }

    #[test]
    fn fuzzy_snaps_forgive_noise_in_one_direction_only() {
        // 3.3 / 1.1 rounds below 3 in f64; plain floor loses the 3.
        let noisy_down = 3.3_f64 / 1.1_f64;
        assert!(noisy_down < 3.0);
        assert_eq!(fuzzy_floor(noisy_down, SNAP_TOL), 3.0);
        // 4.9 / 0.7 rounds above 7; plain ceil would jump to 8.
        let noisy_up = 4.9_f64 / 0.7_f64;
        assert!(noisy_up > 7.0);
        assert_eq!(fuzzy_ceil(noisy_up, SNAP_TOL), 7.0);
        // Genuine fractional values still snap the strict way.
        assert_eq!(fuzzy_ceil(4.5, SNAP_TOL), 5.0);
        assert_eq!(fuzzy_floor(4.5, SNAP_TOL), 4.0);
    }

    #[test]
    fn named_casts_round_as_advertised() {
        assert_eq!(ceil_to_i64(2.1), 3);
        assert_eq!(floor_to_i64(2.9), 2);
        assert_eq!(round_to_u64(2.5), 3);
        assert_eq!(round_to_u32(-1.0), 0); // saturates
    }
}
