//! Exhaustive reference solver used to validate the branch-and-bound
//! implementations on small instances.

use crate::bnb::install_bounds;
use crate::model::{set_members_in, MinlpProblem, VarDomain};
use crate::types::{MinlpSolution, MinlpStatus};
use hslb_linalg::approx::{ceil_to_i64, floor_to_i64};
use hslb_nlp::{BarrierOptions, NlpStatus};
use hslb_obs::SolveStats;

/// Feasibility tolerance applied when vetting each pinned-assignment NLP
/// solution (matches the searches' `FEAS_TOL`).
const EXHAUSTIVE_FEAS_TOL: f64 = 1e-6;

/// Enumerates every admissible assignment of the discrete variables, solving
/// the pinned continuous problem for each, and returns the best.
///
/// Returns `None` when the number of assignments exceeds `max_combinations`
/// (the caller asked for an oracle on a problem too large to enumerate).
pub fn solve_exhaustive(problem: &MinlpProblem, max_combinations: usize) -> Option<MinlpSolution> {
    let discrete = problem.discrete_vars();
    let lo = problem.relaxation().lowers();
    let hi = problem.relaxation().uppers();

    // Candidate values per discrete variable.
    let mut choices: Vec<Vec<i64>> = Vec::with_capacity(discrete.len());
    let mut total: usize = 1;
    for &j in &discrete {
        let vals: Vec<i64> = match &problem.domains()[j] {
            VarDomain::Integer => {
                let a = ceil_to_i64(lo[j]);
                let b = floor_to_i64(hi[j]);
                if a > b {
                    return Some(MinlpSolution::infeasible(SolveStats::default()));
                }
                (a..=b).collect()
            }
            VarDomain::AllowedValues(set) => {
                let members = set_members_in(set, lo[j], hi[j]);
                if members.is_empty() {
                    return Some(MinlpSolution::infeasible(SolveStats::default()));
                }
                members.to_vec()
            }
            // lint:allow(panic-in-lib): discrete_vars() never yields a Continuous index
            VarDomain::Continuous => unreachable!("discrete_vars filters continuous"),
        };
        total = total.checked_mul(vals.len())?;
        if total > max_combinations {
            return None;
        }
        choices.push(vals);
    }

    let barrier = BarrierOptions::default();
    let mut scratch = problem.relaxation().clone();
    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut nlp_solves = 0usize;

    let mut idx = vec![0usize; choices.len()];
    loop {
        // Pin this assignment.
        let mut plo = lo.to_vec();
        let mut phi = hi.to_vec();
        for (k, &j) in discrete.iter().enumerate() {
            let v = choices[k][idx[k]] as f64;
            plo[j] = v;
            phi[j] = v;
        }
        install_bounds(&mut scratch, &plo, &phi);
        nlp_solves += 1;
        if let Ok(sol) = hslb_nlp::solve_with(&scratch, &barrier) {
            if sol.status == NlpStatus::Optimal
                && problem.is_feasible(&sol.x, EXHAUSTIVE_FEAS_TOL)
                && best.as_ref().is_none_or(|(_, b)| sol.objective < *b)
            {
                best = Some((sol.x, sol.objective));
            }
        }

        // Advance the mixed-radix counter.
        let mut k = 0;
        loop {
            if k == idx.len() {
                // Exhausted. Each enumerated assignment counts as one
                // "node" so callers can compare effort against the trees.
                let stats = SolveStats {
                    nodes_opened: total as u64,
                    nlp_solves: nlp_solves as u64,
                    ..Default::default()
                };
                return Some(match best {
                    Some((x, obj)) => MinlpSolution {
                        status: MinlpStatus::Optimal,
                        objective: obj,
                        best_bound: obj,
                        x,
                        stats,
                    },
                    None => MinlpSolution::infeasible(stats),
                });
            }
            idx[k] += 1;
            if idx[k] < choices[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_nlp::{ConstraintFn, ScalarFn};

    #[test]
    fn oracle_matches_hand_computation() {
        // min T s.t. T >= 60/n1, T >= 100/n2, n1+n2 <= 8.
        let mut p = MinlpProblem::new();
        let n1 = p.add_int_var(0.0, 1, 8);
        let n2 = p.add_int_var(0.0, 1, 8);
        let t = p.add_var(1.0, 0.0, 1e6);
        p.add_constraint(
            ConstraintFn::new("t1")
                .nonlinear_term(n1, ScalarFn::perf_model(60.0, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
        p.add_constraint(
            ConstraintFn::new("t2")
                .nonlinear_term(n2, ScalarFn::perf_model(100.0, 0.0, 1.0))
                .linear_term(t, -1.0),
        );
        p.add_constraint(
            ConstraintFn::new("cap")
                .linear_term(n1, 1.0)
                .linear_term(n2, 1.0)
                .with_constant(-8.0),
        );
        let sol = solve_exhaustive(&p, 100_000).unwrap();
        assert_eq!(sol.status, MinlpStatus::Optimal);
        let mut expected = f64::INFINITY;
        for a in 1i64..=7 {
            let b = 8 - a;
            expected = expected.min((60.0 / a as f64).max(100.0 / b as f64));
        }
        assert!(
            (sol.objective - expected).abs() < 1e-4,
            "{} vs {expected}",
            sol.objective
        );
    }

    #[test]
    fn oracle_respects_combination_cap() {
        let mut p = MinlpProblem::new();
        for _ in 0..5 {
            p.add_int_var(0.0, 1, 100);
        }
        assert!(solve_exhaustive(&p, 1000).is_none());
    }

    #[test]
    fn oracle_detects_infeasible_domain() {
        let mut p = MinlpProblem::new();
        let n = p.add_set_var(0.0, [4, 8]);
        p.relaxation_mut().set_bounds(n, 5.0, 7.0); // no member inside
        let sol = solve_exhaustive(&p, 1000).unwrap();
        assert_eq!(sol.status, MinlpStatus::Infeasible);
    }
}
