//! Branching: most-fractional variable selection and interval branching on
//! allowed-value sets.

use crate::model::{set_members_in, MinlpProblem, VarDomain};

/// Distance from the integer lattice below which a relaxation value counts
/// as integral when constructing a branch.
const INT_SNAP_TOL: f64 = 1e-9;

/// A branching decision: two child intervals `[lo, hi]` for one variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Branch {
    pub var: usize,
    /// `(lo, hi)` bounds of the "down" child.
    pub down: (f64, f64),
    /// `(lo, hi)` bounds of the "up" child.
    pub up: (f64, f64),
}

/// Picks the branching variable at `x`: the coordinate with the largest
/// domain violation (most-fractional for plain integers), or `None` when
/// every discrete coordinate already satisfies its domain within `int_tol`.
pub fn select_branch_var(
    problem: &MinlpProblem,
    x: &[f64],
    lo: &[f64],
    hi: &[f64],
    int_tol: f64,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for j in problem.discrete_vars() {
        // A variable already pinned by the node cannot branch further.
        if lo[j] >= hi[j] {
            continue;
        }
        let viol = problem.domain_violation(j, x[j]);
        if viol <= int_tol {
            continue;
        }
        if best.is_none_or(|(_, bv)| viol > bv) {
            best = Some((j, viol));
        }
    }
    best.map(|(j, _)| j)
}

/// Constructs the two children for branching variable `j` at value `xj`,
/// given the node's current `[lo, hi]` interval for `j`.
///
/// * Plain integers split at `floor(xj)` / `ceil(xj)`.
/// * Allowed-value sets use **interval branching**: the admissible members
///   inside the node interval are split around `xj`, and each child's bounds
///   collapse to the hull of its member subset. This is the special-ordered-
///   set branching of §III-E — one dichotomy halves the whole set instead of
///   fixing a single binary, which is where the paper's two-orders-of-
///   magnitude speedup comes from.
///
/// Returns `None` when no valid dichotomy exists (e.g. fewer than two
/// admissible members remain — the caller should then treat the node by
/// enumeration or pruning).
pub fn make_branch(
    problem: &MinlpProblem,
    j: usize,
    xj: f64,
    node_lo: f64,
    node_hi: f64,
) -> Option<Branch> {
    match &problem.domains()[j] {
        VarDomain::Continuous => None,
        VarDomain::Integer => {
            let f = xj.floor();
            // xj integral within the interval: split around the middle to
            // still make progress (used when domains are violated elsewhere).
            let (dhi, ulo) = if (xj - xj.round()).abs() < INT_SNAP_TOL {
                let mid = xj.round();
                if mid >= node_hi {
                    (mid - 1.0, mid)
                } else {
                    (mid, mid + 1.0)
                }
            } else {
                (f, f + 1.0)
            };
            if dhi < node_lo - INT_SNAP_TOL || ulo > node_hi + INT_SNAP_TOL {
                return None;
            }
            Some(Branch {
                var: j,
                down: (node_lo, dhi.min(node_hi)),
                up: (ulo.max(node_lo), node_hi),
            })
        }
        VarDomain::AllowedValues(vals) => {
            let members = set_members_in(vals, node_lo, node_hi);
            if members.len() < 2 {
                return None;
            }
            // Split members around xj; guarantee both sides non-empty.
            let mut split = members.partition_point(|&v| (v as f64) <= xj);
            split = split.clamp(1, members.len() - 1);
            let left = &members[..split];
            let right = &members[split..];
            Some(Branch {
                var: j,
                down: (
                    left[0] as f64,
                    *left
                        .last()
                        .expect("split is clamped to leave both sides non-empty")
                        as f64,
                ),
                up: (
                    right[0] as f64,
                    *right
                        .last()
                        .expect("split is clamped to leave both sides non-empty")
                        as f64,
                ),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MinlpProblem;

    fn setup() -> MinlpProblem {
        let mut p = MinlpProblem::new();
        p.add_var(0.0, 0.0, 100.0); // 0: continuous
        p.add_int_var(0.0, 0, 100); // 1: integer
        p.add_set_var(0.0, [2, 4, 8, 16, 32]); // 2: set
        p
    }

    #[test]
    fn selects_most_violating() {
        let p = setup();
        let x = [5.5, 5.4, 5.0]; // int viol 0.4; set viol 1.0 (5 vs 4)
        let lo = [0.0, 0.0, 2.0];
        let hi = [100.0, 100.0, 32.0];
        assert_eq!(select_branch_var(&p, &x, &lo, &hi, 1e-6), Some(2));
    }

    #[test]
    fn no_branch_when_domain_feasible() {
        let p = setup();
        let x = [5.5, 5.0, 8.0];
        let lo = [0.0, 0.0, 2.0];
        let hi = [100.0, 100.0, 32.0];
        assert_eq!(select_branch_var(&p, &x, &lo, &hi, 1e-6), None);
    }

    #[test]
    fn pinned_variables_are_skipped() {
        let p = setup();
        let x = [0.0, 5.4, 8.0];
        let lo = [0.0, 5.4, 2.0]; // var 1 pinned at fractional? lo==hi skips it
        let hi = [100.0, 5.4, 32.0];
        assert_eq!(select_branch_var(&p, &x, &lo, &hi, 1e-6), None);
    }

    #[test]
    fn integer_branch_floor_ceil() {
        let p = setup();
        let b = make_branch(&p, 1, 5.4, 0.0, 100.0).unwrap();
        assert_eq!(b.down, (0.0, 5.0));
        assert_eq!(b.up, (6.0, 100.0));
    }

    #[test]
    fn integer_branch_at_integral_point_still_splits() {
        let p = setup();
        let b = make_branch(&p, 1, 5.0, 0.0, 100.0).unwrap();
        assert_eq!(b.down, (0.0, 5.0));
        assert_eq!(b.up, (6.0, 100.0));
        // At the top of the interval, split below instead.
        let b = make_branch(&p, 1, 100.0, 0.0, 100.0).unwrap();
        assert_eq!(b.down, (0.0, 99.0));
        assert_eq!(b.up, (100.0, 100.0));
    }

    #[test]
    fn set_branch_splits_members() {
        let p = setup();
        // x = 5 inside [2, 32]: members {2,4,8,16,32} split into {2,4} | {8,16,32}
        let b = make_branch(&p, 2, 5.0, 2.0, 32.0).unwrap();
        assert_eq!(b.down, (2.0, 4.0));
        assert_eq!(b.up, (8.0, 32.0));
    }

    #[test]
    fn set_branch_on_member_value() {
        let p = setup();
        // x = 8 exactly: left = {2,4,8}, right = {16,32}
        let b = make_branch(&p, 2, 8.0, 2.0, 32.0).unwrap();
        assert_eq!(b.down, (2.0, 8.0));
        assert_eq!(b.up, (16.0, 32.0));
    }

    #[test]
    fn set_branch_with_one_member_fails() {
        let p = setup();
        assert!(make_branch(&p, 2, 4.0, 3.0, 5.0).is_none());
    }

    #[test]
    fn set_branch_never_empty_side() {
        let p = setup();
        // x below every member: split must still give non-empty halves.
        let b = make_branch(&p, 2, 1.0, 2.0, 32.0).unwrap();
        assert_eq!(b.down, (2.0, 2.0));
        assert_eq!(b.up, (4.0, 32.0));
        let b = make_branch(&p, 2, 50.0, 2.0, 32.0).unwrap();
        assert_eq!(b.down, (2.0, 16.0));
        assert_eq!(b.up, (32.0, 32.0));
    }

    #[test]
    fn continuous_never_branches() {
        let p = setup();
        assert!(make_branch(&p, 0, 5.5, 0.0, 100.0).is_none());
    }
}
