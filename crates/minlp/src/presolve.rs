//! Presolve: activity-based bound tightening.
//!
//! MINOTAUR "includes advanced routines to reformulate MINLPs" (§I); the
//! workhorse among them is bound propagation. For every *linear* constraint
//! `Σ a_j x_j + c <= 0`, the minimal activity of all-but-one variable
//! implies a bound on the remaining one:
//!
//! ```text
//! a_k x_k <= -c - Σ_{j≠k} min(a_j x_j)
//! ```
//!
//! Iterating to a fixed point shrinks variable boxes before the tree search
//! starts, and — for allowed-value-set variables — prunes inadmissible set
//! members entirely. On the CESM layout models this removes, e.g., every
//! ocean count above `N - min(n_atm)` before the first relaxation is solved.

use crate::model::{MinlpProblem, VarDomain};
use hslb_linalg::approx::{exactly_zero, fuzzy_ceil, fuzzy_floor, SNAP_TOL};
use std::borrow::Cow;

/// Minimum *relative* improvement before a propagated bound replaces the
/// stored one — avoids ping-ponging on sub-noise updates.
const TIGHTEN_REL_TOL: f64 = 1e-12;
/// Crossed-bounds slack: `lo > hi + this` proves the box empty; anything
/// closer is float noise from the divisions above.
const BOX_EMPTY_TOL: f64 = 1e-9;

/// Result of a presolve pass.
#[derive(Debug, Clone, PartialEq)]
pub enum PresolveOutcome {
    /// Bounds were (possibly) tightened; the problem remains feasible as
    /// far as propagation can tell. Contains the number of individual
    /// tightenings applied.
    Reduced { tightenings: usize },
    /// Propagation proved the problem infeasible (some box emptied).
    Infeasible,
}

/// Tightens variable bounds in place by propagating linear constraints to a
/// fixed point (bounded rounds). Integer and allowed-set domains are
/// rounded inward; set hulls collapse onto their surviving members.
pub fn presolve(problem: &mut MinlpProblem, max_rounds: usize) -> PresolveOutcome {
    let mut lo = problem.relaxation().lowers().to_vec();
    let mut hi = problem.relaxation().uppers().to_vec();
    match propagate_box(problem, &mut lo, &mut hi, max_rounds) {
        Some(tightenings) => {
            for j in 0..problem.num_vars() {
                problem.relaxation_mut().set_bounds(j, lo[j], hi[j]);
            }
            PresolveOutcome::Reduced { tightenings }
        }
        None => PresolveOutcome::Infeasible,
    }
}

/// [`presolve`] without a copy of the problem: propagates on copies of the
/// bound vectors and clones the problem only when a bound moved. Returns
/// the problem to solve, which is `problem` itself when every bound came
/// back bit for bit, and the number of tightenings; `None` when
/// propagation proves the problem infeasible.
pub fn presolved(
    problem: &MinlpProblem,
    max_rounds: usize,
) -> Option<(Cow<'_, MinlpProblem>, usize)> {
    let relax = problem.relaxation();
    let mut lo = relax.lowers().to_vec();
    let mut hi = relax.uppers().to_vec();
    let tightenings = propagate_box(problem, &mut lo, &mut hi, max_rounds)?;
    let same =
        |new: &[f64], old: &[f64]| new.iter().zip(old).all(|(a, b)| a.to_bits() == b.to_bits());
    if same(&lo, relax.lowers()) && same(&hi, relax.uppers()) {
        return Some((Cow::Borrowed(problem), tightenings));
    }
    let mut reduced = problem.clone();
    for j in 0..reduced.num_vars() {
        reduced.relaxation_mut().set_bounds(j, lo[j], hi[j]);
    }
    Some((Cow::Owned(reduced), tightenings))
}

/// Per-node variant of [`presolve`]: propagates the problem's linear rows
/// over an explicit `(lo, hi)` box without touching the problem itself.
///
/// Branch-and-bound calls this on every node before the barrier relaxation:
/// a node whose box plus an active linear row pins variables to a
/// measure-zero feasible set (e.g. `n0 ∈ [5,6], n1 ∈ [1,6], n0+n1 <= 6`)
/// has an *empty strict interior*, which the log-barrier would misreport as
/// infeasible. Propagation collapses such boxes onto the pinned point
/// (`lo == hi`), which the barrier eliminates and handles exactly.
///
/// Returns the number of tightenings applied, or `None` when some box
/// empties — i.e. the node is provably infeasible.
pub fn propagate_box(
    problem: &MinlpProblem,
    lo: &mut [f64],
    hi: &mut [f64],
    max_rounds: usize,
) -> Option<usize> {
    let n = problem.num_vars();
    // Snap discrete domains inward before propagating.
    for j in 0..n {
        snap_domain(problem, j, lo, hi)?;
    }

    // Collect the purely linear rows once.
    let rows: Vec<(Vec<(usize, f64)>, f64)> = problem
        .relaxation()
        .constraints()
        .iter()
        .filter(|c| c.is_linear())
        .map(|c| (c.linear.clone(), c.constant))
        .collect();
    let eqs: Vec<(Vec<(usize, f64)>, f64)> = problem
        .relaxation()
        .equalities()
        .iter()
        .map(|e| (e.coeffs.clone(), e.rhs))
        .collect();

    let mut total = 0usize;
    for _ in 0..max_rounds {
        let mut changed = 0usize;

        for (coeffs, constant) in &rows {
            // Minimal activity of the whole row (may be -inf).
            for (k, &(xk, ak)) in coeffs.iter().enumerate() {
                if exactly_zero(ak) {
                    continue;
                }
                // Σ_{j≠k} min(a_j x_j) — bail out if unbounded below.
                let mut rest_min = *constant;
                let mut unbounded = false;
                for (j, &(xj, aj)) in coeffs.iter().enumerate() {
                    if j == k || exactly_zero(aj) {
                        continue;
                    }
                    let m = if aj > 0.0 { aj * lo[xj] } else { aj * hi[xj] };
                    if !m.is_finite() {
                        unbounded = true;
                        break;
                    }
                    rest_min += m;
                }
                if unbounded || !rest_min.is_finite() {
                    continue;
                }
                // a_k x_k <= -rest_min.
                let rhs = -rest_min;
                if ak > 0.0 {
                    let new_hi = rhs / ak;
                    if new_hi < hi[xk] - TIGHTEN_REL_TOL * (1.0 + new_hi.abs()) {
                        hi[xk] = tighten_inward(problem, xk, new_hi, false);
                        changed += 1;
                    }
                } else {
                    let new_lo = rhs / ak;
                    if new_lo > lo[xk] + TIGHTEN_REL_TOL * (1.0 + new_lo.abs()) {
                        lo[xk] = tighten_inward(problem, xk, new_lo, true);
                        changed += 1;
                    }
                }
                if lo[xk] > hi[xk] + BOX_EMPTY_TOL {
                    return None;
                }
                snap_domain(problem, xk, lo, hi)?;
            }
        }

        // Same propagation for linear equalities, both directions.
        for (coeffs, rhs) in &eqs {
            for (k, &(xk, ak)) in coeffs.iter().enumerate() {
                if exactly_zero(ak) {
                    continue;
                }
                let mut rest_min = 0.0;
                let mut rest_max = 0.0;
                let mut unbounded = false;
                for (j, &(xj, aj)) in coeffs.iter().enumerate() {
                    if j == k || exactly_zero(aj) {
                        continue;
                    }
                    let (mn, mx) = if aj > 0.0 {
                        (aj * lo[xj], aj * hi[xj])
                    } else {
                        (aj * hi[xj], aj * lo[xj])
                    };
                    if !mn.is_finite() || !mx.is_finite() {
                        unbounded = true;
                        break;
                    }
                    rest_min += mn;
                    rest_max += mx;
                }
                if unbounded {
                    continue;
                }
                // a_k x_k = rhs - rest ∈ [rhs - rest_max, rhs - rest_min].
                let (mut new_lo, mut new_hi) = ((rhs - rest_max) / ak, (rhs - rest_min) / ak);
                if ak < 0.0 {
                    std::mem::swap(&mut new_lo, &mut new_hi);
                }
                if new_lo > lo[xk] + TIGHTEN_REL_TOL * (1.0 + new_lo.abs()) {
                    lo[xk] = tighten_inward(problem, xk, new_lo, true);
                    changed += 1;
                }
                if new_hi < hi[xk] - TIGHTEN_REL_TOL * (1.0 + new_hi.abs()) {
                    hi[xk] = tighten_inward(problem, xk, new_hi, false);
                    changed += 1;
                }
                if lo[xk] > hi[xk] + BOX_EMPTY_TOL {
                    return None;
                }
                snap_domain(problem, xk, lo, hi)?;
            }
        }

        total += changed;
        if changed == 0 {
            break;
        }
    }
    Some(total)
}

/// Rounds one variable's box inward onto its discrete domain; `None` when
/// the box empties.
fn snap_domain(problem: &MinlpProblem, j: usize, lo: &mut [f64], hi: &mut [f64]) -> Option<()> {
    match &problem.domains()[j] {
        VarDomain::Continuous => {}
        VarDomain::Integer => {
            // Fuzzy snaps: bounds here came out of divisions (`rhs / ak`),
            // so a mathematically integral bound can land a few ulps off.
            // A plain `ceil`/`floor` would then cut a feasible integer.
            lo[j] = fuzzy_ceil(lo[j], SNAP_TOL);
            hi[j] = fuzzy_floor(hi[j], SNAP_TOL);
        }
        VarDomain::AllowedValues(vals) => {
            let members = crate::model::set_members_in(vals, lo[j], hi[j]);
            let (first, last) = (members.first()?, members.last()?);
            lo[j] = *first as f64;
            hi[j] = *last as f64;
        }
    }
    (lo[j] <= hi[j]).then_some(())
}

/// Rounds a fresh bound inward for discrete domains before storing.
fn tighten_inward(problem: &MinlpProblem, var: usize, value: f64, is_lower: bool) -> f64 {
    match &problem.domains()[var] {
        VarDomain::Continuous => value,
        VarDomain::Integer | VarDomain::AllowedValues(_) => {
            if is_lower {
                fuzzy_ceil(value, SNAP_TOL)
            } else {
                fuzzy_floor(value, SNAP_TOL)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_nlp::ConstraintFn;

    #[test]
    fn capacity_row_tightens_partners() {
        // n1 + n2 <= 10 with n1 >= 4 forces n2 <= 6.
        let mut p = MinlpProblem::new();
        let n1 = p.add_int_var(0.0, 4, 100);
        let n2 = p.add_int_var(0.0, 1, 100);
        p.add_constraint(
            ConstraintFn::new("cap")
                .linear_term(n1, 1.0)
                .linear_term(n2, 1.0)
                .with_constant(-10.0),
        );
        let out = presolve(&mut p, 10);
        assert!(matches!(out, PresolveOutcome::Reduced { tightenings } if tightenings > 0));
        assert_eq!(p.relaxation().uppers()[n2], 6.0);
        assert_eq!(p.relaxation().uppers()[n1], 9.0);
    }

    #[test]
    fn set_members_are_pruned() {
        let mut p = MinlpProblem::new();
        let n1 = p.add_int_var(0.0, 20, 100);
        let s = p.add_set_var(0.0, [2, 8, 32, 64, 128]);
        p.add_constraint(
            ConstraintFn::new("cap")
                .linear_term(n1, 1.0)
                .linear_term(s, 1.0)
                .with_constant(-60.0),
        );
        presolve(&mut p, 10);
        // s <= 40 -> hull collapses to {2, 8, 32}.
        assert_eq!(p.relaxation().uppers()[s], 32.0);
        assert_eq!(p.relaxation().lowers()[s], 2.0);
    }

    #[test]
    fn equality_propagates_both_directions() {
        // x + y = 10, x in [0, 3] -> y in [7, 10].
        let mut p = MinlpProblem::new();
        let x = p.add_var(0.0, 0.0, 3.0);
        let y = p.add_var(0.0, 0.0, 100.0);
        p.add_linear_eq(vec![(x, 1.0), (y, 1.0)], 10.0);
        presolve(&mut p, 10);
        assert_eq!(p.relaxation().lowers()[y], 7.0);
        assert_eq!(p.relaxation().uppers()[y], 10.0);
    }

    #[test]
    fn detects_infeasibility() {
        // x + y <= 5 with x >= 4, y >= 3.
        let mut p = MinlpProblem::new();
        let x = p.add_int_var(0.0, 4, 10);
        let y = p.add_int_var(0.0, 3, 10);
        p.add_constraint(
            ConstraintFn::new("cap")
                .linear_term(x, 1.0)
                .linear_term(y, 1.0)
                .with_constant(-5.0),
        );
        assert_eq!(presolve(&mut p, 10), PresolveOutcome::Infeasible);
    }

    #[test]
    fn fixed_point_reached() {
        // Chain: x <= y - 1 <= z - 2 with z <= 10 propagates transitively
        // over rounds.
        let mut p = MinlpProblem::new();
        let x = p.add_int_var(0.0, 0, 100);
        let y = p.add_int_var(0.0, 0, 100);
        let z = p.add_int_var(0.0, 0, 10);
        p.add_constraint(
            ConstraintFn::new("xy")
                .linear_term(x, 1.0)
                .linear_term(y, -1.0)
                .with_constant(1.0),
        );
        p.add_constraint(
            ConstraintFn::new("yz")
                .linear_term(y, 1.0)
                .linear_term(z, -1.0)
                .with_constant(1.0),
        );
        presolve(&mut p, 10);
        assert_eq!(p.relaxation().uppers()[y], 9.0);
        assert_eq!(p.relaxation().uppers()[x], 8.0);
        let _ = z;
    }

    #[test]
    fn nonlinear_rows_are_left_alone() {
        use hslb_nlp::ScalarFn;
        let mut p = MinlpProblem::new();
        let n = p.add_int_var(0.0, 1, 100);
        let t = p.add_var(1.0, 0.0, 1e9);
        p.add_constraint(
            ConstraintFn::new("perf")
                .nonlinear_term(n, ScalarFn::perf_model(100.0, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
        let before = (
            p.relaxation().lowers().to_vec(),
            p.relaxation().uppers().to_vec(),
        );
        presolve(&mut p, 5);
        assert_eq!(before.0, p.relaxation().lowers());
        assert_eq!(before.1, p.relaxation().uppers());
    }

    #[test]
    fn presolve_preserves_the_optimum() {
        use crate::bnb::solve_nlp_bnb;
        use crate::types::MinlpOptions;
        use hslb_nlp::ScalarFn;
        let build = || {
            let mut p = MinlpProblem::new();
            let n1 = p.add_int_var(0.0, 1, 1000);
            let n2 = p.add_set_var(0.0, (1..=50).map(|k| 2 * k).collect::<Vec<_>>());
            let t = p.add_var(1.0, 0.0, 1e9);
            for (v, a) in [(n1, 300.0), (n2, 700.0)] {
                p.add_constraint(
                    ConstraintFn::new(format!("perf{v}"))
                        .nonlinear_term(v, ScalarFn::perf_model(a, 0.0, 1.0))
                        .linear_term(t, -1.0),
                );
            }
            p.add_constraint(
                ConstraintFn::new("cap")
                    .linear_term(n1, 1.0)
                    .linear_term(n2, 1.0)
                    .with_constant(-64.0),
            );
            p
        };
        let base = solve_nlp_bnb(&build(), &MinlpOptions::default());
        let mut reduced = build();
        let out = presolve(&mut reduced, 10);
        assert!(matches!(out, PresolveOutcome::Reduced { .. }));
        // Boxes actually shrank (n1 <= 62 after the capacity row).
        assert!(p_upper(&reduced, 0) <= 63.0);
        let after = solve_nlp_bnb(&reduced, &MinlpOptions::default());
        assert!((base.objective - after.objective).abs() < 1e-5);
    }

    fn p_upper(p: &MinlpProblem, var: usize) -> f64 {
        p.relaxation().uppers()[var]
    }

    #[test]
    fn division_noise_does_not_drop_feasible_integers() {
        // 3.3 / 1.1 lands *below* 3 in f64 (2.9999999999999996), so a plain
        // `floor` on the propagated bound 3.3/1.1 would conclude x <= 2 and
        // silently cut the feasible point x = 3 (1.1·3 = 3.3 exactly in real
        // arithmetic). The fuzzy snap must keep it.
        let mut p = MinlpProblem::new();
        let x = p.add_int_var(-1.0, 0, 10);
        p.add_constraint(
            ConstraintFn::new("noisy")
                .linear_term(x, 1.1)
                .with_constant(-3.3),
        );
        let out = presolve(&mut p, 10);
        assert!(matches!(out, PresolveOutcome::Reduced { .. }));
        assert_eq!(p.relaxation().uppers()[x], 3.0);

        // The mirrored lower bound: x >= 4.9/0.7 = 7.000000000000001, where a
        // plain `ceil` would demand x >= 8 and lose the feasible x = 7.
        let mut q = MinlpProblem::new();
        let y = q.add_int_var(1.0, 0, 10);
        q.add_constraint(
            ConstraintFn::new("noisy_lo")
                .linear_term(y, -0.7)
                .with_constant(4.9),
        );
        let out = presolve(&mut q, 10);
        assert!(matches!(out, PresolveOutcome::Reduced { .. }));
        assert_eq!(q.relaxation().lowers()[y], 7.0);
    }
}
