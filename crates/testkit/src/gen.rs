//! Seeded generators for random *well-posed* instances at every layer of
//! the stack.
//!
//! Every generator takes a [`Rng`] plus a `size` knob in `1..=MAX_SIZE`.
//! `size` scales the instance (dimensions, row counts, domains) and is the
//! shrinking axis for the fuzzer: a failure at size 6 is re-tried at sizes
//! 1..6 with the same seed, and the smallest still-failing instance is
//! reported. Instances are well-posed *by construction* — each carries a
//! known feasible point or generating ground truth, so checkers never have
//! to guess whether a disagreement is a solver bug or a malformed instance.

use hslb::{AllowedNodes, CesmModelSpec, ComponentSpec, FlatSpec, Objective};
use hslb_lp::{LinearProgram, RowSense};
use hslb_minlp::MinlpProblem;
use hslb_nlp::{ConstraintFn, NlpProblem, ScalarFn};
use hslb_perfmodel::{PerfModel, ScalingData};
use hslb_rng::Rng;

/// Largest `size` knob the generators accept (and the fuzzer draws).
pub const MAX_SIZE: u32 = 6;

fn clamp_size(size: u32) -> usize {
    size.clamp(1, MAX_SIZE) as usize
}

/// A bounded LP with a feasible point known by construction.
pub struct LpInstance {
    pub lp: LinearProgram,
    /// Point used to set every right-hand side; always feasible.
    pub xstar: Vec<f64>,
}

/// Random bounded LP, feasible by construction (every row's rhs is set
/// relative to the activity at `xstar`). Half the draws are in canonical
/// form `min cᵀx, Ax >= b, x >= 0` with nonnegative costs; the rest box
/// every variable and mix `<=` and `>=` rows.
pub fn lp_instance(rng: &mut Rng, size: u32) -> LpInstance {
    let size = clamp_size(size);
    let canonical = rng.bool(0.5);
    let n = rng.usize_range(1, size.max(2));
    let m = rng.usize_range(if canonical { 1 } else { 0 }, size);
    if canonical {
        let xstar = rng.vec_f64(n, 0.5, 4.0);
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..n)
            .map(|_| lp.add_var(rng.f64_range(0.1, 3.0), 0.0, f64::INFINITY))
            .collect();
        for _ in 0..m {
            let row = rng.vec_f64(n, 0.0, 2.0);
            let act: f64 = row.iter().zip(&xstar).map(|(a, x)| a * x).sum();
            lp.add_row(
                vars.iter().zip(&row).map(|(&v, &a)| (v, a)).collect(),
                RowSense::Ge,
                act * rng.f64_range(0.5, 0.95),
            );
        }
        LpInstance { lp, xstar }
    } else {
        let xstar = rng.vec_f64(n, -5.0, 5.0);
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..n)
            .map(|i| lp.add_var(rng.f64_range(-3.0, 3.0), xstar[i] - 6.0, xstar[i] + 6.0))
            .collect();
        for _ in 0..m {
            let row = rng.vec_f64(n, -2.0, 2.0);
            let act: f64 = row.iter().zip(&xstar).map(|(a, x)| a * x).sum();
            let terms: Vec<_> = vars.iter().zip(&row).map(|(&v, &a)| (v, a)).collect();
            match rng.usize_range(0, 2) {
                0 => lp.add_row(terms, RowSense::Le, act + rng.f64_range(0.2, 2.0)),
                1 => lp.add_row(terms, RowSense::Ge, act - rng.f64_range(0.2, 2.0)),
                _ => lp.add_row(terms, RowSense::Eq, act),
            };
        }
        LpInstance { lp, xstar }
    }
}

/// A convex min-max allocation NLP with its component curves retained so
/// checkers can probe feasible competitors.
pub struct NlpInstance {
    pub problem: NlpProblem,
    /// `(a, d)` per component: time curve `a / n + d`.
    pub loads: Vec<(f64, f64)>,
    /// Shared node capacity.
    pub cap: f64,
    /// Index of the epigraph variable `T`.
    pub t_var: usize,
}

/// Random K-component continuous min-max allocation:
/// `min T  s.t.  T >= a_k / n_k + d_k,  Σ n_k <= cap,  n_k >= 1`.
pub fn nlp_instance(rng: &mut Rng, size: u32) -> NlpInstance {
    let size = clamp_size(size);
    let k = rng.usize_range(2, (size + 1).max(2));
    let cap = rng.f64_range(4.0 * k as f64, 24.0 * k as f64);
    let loads: Vec<(f64, f64)> = (0..k)
        .map(|_| (rng.f64_range(50.0, 5000.0), rng.f64_range(0.0, 20.0)))
        .collect();
    let mut p = NlpProblem::new();
    let vars: Vec<usize> = (0..k).map(|_| p.add_var(0.0, 1.0, cap)).collect();
    let t = p.add_var(1.0, 0.0, 1e9);
    for (i, (&v, &(a, d))) in vars.iter().zip(&loads).enumerate() {
        p.add_constraint(
            ConstraintFn::new(format!("t{i}"))
                .nonlinear_term(v, ScalarFn::perf_model(a, 0.0, 1.0))
                .linear_term(t, -1.0)
                .with_constant(d),
        );
    }
    let mut c = ConstraintFn::new("cap").with_constant(-cap);
    for &v in &vars {
        c = c.linear_term(v, 1.0);
    }
    p.add_constraint(c);
    NlpInstance {
        problem: p,
        loads,
        cap,
        t_var: t,
    }
}

/// A convex MINLP small enough for the exhaustive oracle, with the
/// generating data retained.
pub struct MinlpInstance {
    pub problem: MinlpProblem,
    /// `(a, d)` load curve per component.
    pub loads: Vec<(f64, f64)>,
    /// Allowed-value set per component (`None` = integer range `1..=cap`).
    pub sets: Vec<Option<Vec<i64>>>,
    pub cap: i64,
}

/// Random K-component integer min-max allocation; some components carry a
/// finite allowed-value domain (the paper's special-ordered sets).
pub fn minlp_instance(rng: &mut Rng, size: u32) -> MinlpInstance {
    let size = clamp_size(size);
    let k = rng.usize_range(2, (size / 2 + 2).min(4));
    // Keep the assignment space enumerable: cap^k stays well under the
    // oracle budget for cap <= 24, k <= 4.
    let cap = rng.i64_range(3 * k as i64, (4 + 3 * size as i64).min(24));
    let loads: Vec<(f64, f64)> = (0..k)
        .map(|_| (rng.f64_range(20.0, 800.0), rng.f64_range(0.0, 10.0)))
        .collect();
    let mut p = MinlpProblem::new();
    let mut sets = Vec::with_capacity(k);
    let vars: Vec<usize> = (0..k)
        .map(|_| {
            if rng.bool(0.4) {
                let count = rng.usize_range(2, 5);
                let members = rng.distinct_sorted(count, 1, cap.max(2));
                let v = p.add_set_var(0.0, members.iter().copied());
                sets.push(Some(members));
                v
            } else {
                sets.push(None);
                p.add_int_var(0.0, 1, cap)
            }
        })
        .collect();
    // A set domain's smallest member can exceed the int-var minimum of 1,
    // so the drawn capacity may sit below the sum of domain minimums. Raise
    // it to keep the instance feasible by construction (domain sizes are
    // unchanged, so the oracle's enumeration budget still holds).
    let min_total: i64 = sets
        .iter()
        .map(|s| s.as_ref().map_or(1, |members| members[0]))
        .sum();
    let cap = cap.max(min_total);
    let t = p.add_var(1.0, 0.0, 1e9);
    for (i, (&v, &(a, d))) in vars.iter().zip(&loads).enumerate() {
        p.add_constraint(
            ConstraintFn::new(format!("t{i}"))
                .nonlinear_term(v, ScalarFn::perf_model(a, 0.0, 1.0))
                .linear_term(t, -1.0)
                .with_constant(d),
        );
    }
    let mut c = ConstraintFn::new("cap").with_constant(-(cap as f64));
    for &v in &vars {
        c = c.linear_term(v, 1.0);
    }
    p.add_constraint(c);
    MinlpInstance {
        problem: p,
        loads,
        sets,
        cap,
    }
}

/// Random FMO-style flat min-max spec on [`paper_component`]s. Always
/// feasible: every domain holds 1, and total nodes >= component count.
pub fn flat_spec(rng: &mut Rng, size: u32) -> FlatSpec {
    let size = clamp_size(size);
    let k = rng.usize_range(2, size + 2);
    let total = rng.i64_range(k as i64 + 1, (8 * size as i64).max(k as i64 + 2));
    let components = (0..k)
        .map(|i| paper_component(rng, format!("c{i}"), (10.0, 2000.0), 8.0, 1, total))
        .collect();
    FlatSpec {
        components,
        total_nodes: total,
        objective: Objective::MinMax,
    }
}

/// A component on the fitted model `a/n^c + b·n + d`: `a` in `a_range`,
/// `c` off 1, and `b > 0` on half the draws, so the curve may turn upward
/// inside a small machine. Its admissible counts are `1..=total` or, three
/// times in ten, a set of "sweet spots" that always holds `floor`.
pub fn paper_component(
    rng: &mut Rng,
    name: String,
    (a_lo, a_hi): (f64, f64),
    d_hi: f64,
    floor: i64,
    total: i64,
) -> ComponentSpec {
    let model = PerfModel::new(
        rng.f64_range(a_lo, a_hi),
        if rng.bool(0.5) {
            rng.f64_range(0.01, 8.0)
        } else {
            0.0
        },
        rng.f64_range(0.6, 1.4),
        rng.f64_range(0.0, d_hi),
    );
    let allowed = if rng.bool(0.3) {
        let spots: Vec<i64> = (floor + 1..=total).filter(|_| rng.bool(0.4)).collect();
        AllowedNodes::set(std::iter::once(floor).chain(spots))
    } else {
        AllowedNodes::Range { min: 1, max: total }
    };
    ComponentSpec {
        name,
        model,
        allowed,
    }
}

/// A noisy benchmark dataset with its generating ground truth.
pub struct FitDataset {
    pub truth: PerfModel,
    pub data: ScalingData,
    /// Multiplicative lognormal noise level applied per observation.
    pub sigma: f64,
}

/// Random `T(n) = a/n^c + b·n + d` truth sampled at spread-out node counts
/// with mean-one multiplicative noise.
pub fn fit_dataset(rng: &mut Rng, size: u32) -> FitDataset {
    let size = clamp_size(size);
    let truth = PerfModel::new(
        rng.f64_range(500.0, 50_000.0),
        if rng.bool(0.5) {
            0.0
        } else {
            rng.f64_range(1e-4, 1e-2)
        },
        rng.f64_range(0.7, 1.3),
        rng.f64_range(0.0, 60.0),
    );
    let sigma = rng.f64_range(0.0, 0.02);
    let points = 5 + 3 * size;
    let ns = ScalingData::suggest_node_counts(4, 2048, points);
    let data = ScalingData::from_pairs(
        ns.iter()
            .map(|&n| (n, truth.eval(n as f64) * rng.lognormal_mean1(sigma))),
    );
    FitDataset { truth, data, sigma }
}

/// Random CESM layout spec on [`paper_component`]s, always feasible under
/// every layout for `total >= 4`: the atmosphere always admits 2 nodes,
/// the others 1.
pub fn cesm_spec(rng: &mut Rng, size: u32) -> CesmModelSpec {
    let size = clamp_size(size);
    let total = rng.i64_range(12, 12 + 16 * size as i64);
    let mut comp = |name: &str, a_range, d_hi, floor| {
        paper_component(rng, name.to_string(), a_range, d_hi, floor, total)
    };
    CesmModelSpec {
        ice: comp("ice", (100.0, 5000.0), 10.0, 1),
        lnd: comp("lnd", (50.0, 2000.0), 5.0, 1),
        atm: comp("atm", (500.0, 20_000.0), 20.0, 2),
        ocn: comp("ocn", (200.0, 8000.0), 15.0, 1),
        total_nodes: total,
        tsync: None,
    }
}
