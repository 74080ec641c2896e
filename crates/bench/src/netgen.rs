//! Seeded netlib-style LP instance generator.
//!
//! Instances are feasible and bounded by construction: a random box point
//! `x*` is drawn first and every row's rhs is set so `x*` satisfies it,
//! while finite bounds on every column rule out unboundedness. Row
//! sparsity (a handful of nonzeros per row regardless of `n`) mirrors the
//! netlib corpus and is what gives the sparse basis factorization its
//! asymptotic edge over the dense inverse.

use hslb_lp::{LinearProgram, RowSense, VarId};
use hslb_rng::Rng;

/// Nonzeros per row: uniform in `[NNZ_MIN, NNZ_MAX]` (clamped to `n`).
const NNZ_MIN: usize = 3;
const NNZ_MAX: usize = 8;

/// Generates a netlib-like LP with `n` columns and `m` constraint rows.
///
/// Deterministic in `(seed, n, m)`. Senses mix `<=`/`>=`/`=` roughly
/// 40/40/20. A few `<=` rows are ranged, `rhs - range <= a·x <= rhs`, and
/// each becomes a `>=` row followed by a `<=` row, so the LP can have more
/// than `m` rows. Row terms are in increasing column order.
pub fn netlib_like(seed: u64, n: usize, m: usize) -> LinearProgram {
    let mut rng = Rng::new(hslb_rng::hash_mix(&[seed, n as u64, m as u64]));
    let xstar: Vec<f64> = rng.vec_f64(n, 0.0, 10.0);

    let mut lp = LinearProgram::new();
    let vars: Vec<VarId> = xstar
        .iter()
        .map(|&x| {
            let cost = rng.f64_range(-5.0, 5.0);
            let hi = x + rng.f64_range(2.0, 12.0);
            lp.add_var(cost, 0.0, hi)
        })
        .collect();

    for _ in 0..m {
        let nnz = rng.usize_range(NNZ_MIN, NNZ_MAX).min(n.max(1));
        // Distinct column picks via rejection — nnz << n in all uses.
        let mut picked: Vec<usize> = Vec::with_capacity(nnz);
        while picked.len() < nnz {
            let j = rng.usize_range(0, n - 1);
            if !picked.contains(&j) {
                picked.push(j);
            }
        }
        picked.sort_unstable();
        let mut activity = 0.0;
        let terms: Vec<(VarId, f64)> = picked
            .iter()
            .map(|&j| {
                let a = rng.f64_range(-3.0, 3.0);
                activity += a * xstar[j];
                (vars[j], a)
            })
            .collect();
        match rng.usize_range(0, 9) {
            0..=3 => {
                let rhs = activity + rng.f64_range(0.5, 5.0);
                // Occasional ranged row: activity stays inside
                // [rhs - range, rhs] since range covers the slack.
                if rng.bool(0.2) {
                    let range = rng.f64_range(6.0, 20.0);
                    lp.add_row(terms.clone(), RowSense::Ge, rhs - range);
                }
                lp.add_row(terms, RowSense::Le, rhs);
            }
            4..=7 => {
                lp.add_row(terms, RowSense::Ge, activity - rng.f64_range(0.5, 5.0));
            }
            _ => {
                lp.add_row(terms, RowSense::Eq, activity);
            }
        }
    }
    lp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = format!("{:?}", netlib_like(7, 40, 20));
        let b = format!("{:?}", netlib_like(7, 40, 20));
        assert_eq!(a, b);
        let c = format!("{:?}", netlib_like(8, 40, 20));
        assert_ne!(a, c);
    }

    #[test]
    fn generated_instance_is_feasible_and_bounded() {
        let lp = netlib_like(42, 60, 30);
        let sol = hslb_lp::solve(&lp);
        assert!(sol.is_optimal(), "status {:?}", sol.status);
        assert!(sol.objective.is_finite());
    }
}
