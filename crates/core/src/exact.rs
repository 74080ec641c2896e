//! Exact min–max allocation for convex fitted models, and the certificate
//! built on it.
//!
//! Every fitted `T(n) = a/n^c + b·n + d` has nonnegative coefficients
//! (§III-E), so it is convex and unimodal on any sorted set of admissible
//! counts, whether or not it turns upward inside its domain; single-resource
//! min–max allocation is then polynomial (Ibaraki & Katoh). One primitive
//! carries everything: the fewest admissible nodes, at or below a cap, on
//! which a component meets a time budget (`Curve::fewest`). Per structure,
//! `within(t)` builds an allocation with total at most `t` from it, if one
//! exists; a bisection on `t` gives the exact optimum, and one call at the
//! total minus the solvers' gap certifies an answer. Every test rounds the
//! total as [`layout_predicted_times`] and
//! [`FlatAllocation::makespan`](crate::FlatAllocation::makespan) do, so the
//! optimum is exact in floating point. Layout 1's `T_sync` pair is
//! reverse-convex, so those specs are declined.

use crate::flat::{FlatSpec, Objective};
use crate::layouts::{layout_predicted_times, CesmAllocation, CesmModelSpec, Layout};
use crate::spec::ComponentSpec;
use hslb_minlp::{ABS_GAP, REL_GAP};

/// One component's admissible counts, read by index, with the index of
/// its smallest time on the machine. Caps never exceed the machine size.
struct Curve<'a> {
    spec: &'a ComponentSpec,
    argmin: usize,
}

impl<'a> Curve<'a> {
    fn new(spec: &'a ComponentSpec, n_total: i64) -> Self {
        let mut curve = Curve { spec, argmin: 0 };
        // The first count whose successor is slower. A plateau of equal
        // times (rounding on a flat tail) still counts as descending.
        let mut hi = spec.allowed.rank(n_total).saturating_sub(1);
        while curve.argmin < hi {
            let mid = curve.argmin + (hi - curve.argmin) / 2;
            if curve.time(mid + 1) > curve.time(mid) {
                hi = mid;
            } else {
                curve.argmin = mid + 1;
            }
        }
        curve
    }

    fn count(&self, i: usize) -> i64 {
        self.spec.allowed.nth(i)
    }

    fn time(&self, i: usize) -> f64 {
        self.spec.model.eval(self.count(i) as f64)
    }

    /// Index of the fastest count `<= cap`.
    fn best(&self, cap: i64) -> Option<usize> {
        let below = self.spec.allowed.rank(cap).checked_sub(1)?;
        Some(self.argmin.min(below))
    }

    /// Index of the fewest nodes `<= cap` whose time passes `fits`, a test
    /// that a smaller time never fails. Times fall from index 0 to the
    /// fastest count, so one bisection finds it.
    fn fewest(&self, cap: i64, fits: impl Fn(f64) -> bool) -> Option<usize> {
        let mut b = self.best(cap)?;
        if !fits(self.time(b)) {
            return None;
        }
        if fits(self.time(0)) {
            return Some(0);
        }
        let mut a = 0; // fails, while `b` passes
        while b - a > 1 {
            let m = a + (b - a) / 2;
            if fits(self.time(m)) {
                b = m;
            } else {
                a = m;
            }
        }
        Some(b)
    }
}

/// `within(t)` for `layout`: an allocation whose total is at most `t`, if
/// one exists. Layout 3 puts each component at its minimizer. Layouts 1
/// and 2 give the ocean its fewest nodes; layout 2 then puts the group at
/// its minimizers on the rest, and layout 1 scans the atmosphere upward
/// from its minimizer (below it, the minimizer is faster and leaves more
/// room), ice and land taking their fewest nodes in the time it leaves.
fn layout_within(
    spec: &CesmModelSpec,
    layout: Layout,
) -> Result<impl Fn(f64) -> Option<CesmAllocation> + '_, String> {
    if layout == Layout::Hybrid && spec.tsync.is_some() {
        return Err("tsync: the ice/land pair is nonconvex, so no exact optimum".into());
    }
    let n = spec.total_nodes;
    let comps = [&spec.ice, &spec.lnd, &spec.atm, &spec.ocn];
    let [ice, lnd, atm, ocn] = comps.map(|c| Curve::new(c, n));
    let alloc = |counts: [i64; 4]| {
        let [ice, lnd, atm, ocn] = counts.map(|c| c as u64);
        CesmAllocation { ice, lnd, atm, ocn }
    };
    Ok(move |t: f64| {
        let at_best = |c: &Curve, cap| c.best(cap).map(|i| c.count(i));
        let found = match layout {
            Layout::FullySequential => {
                let [i, l, a, o] = [&ice, &lnd, &atm, &ocn].map(|c| at_best(c, n));
                alloc([i?, l?, a?, o?])
            }
            Layout::SequentialAtmGroup => {
                let no = ocn.count(ocn.fewest(n - 1, |x| x <= t)?);
                let [i, l, a] = [&ice, &lnd, &atm].map(|c| at_best(c, n - no));
                alloc([i?, l?, a?, no])
            }
            Layout::Hybrid => {
                let no = ocn.count(ocn.fewest(n - 1, |x| x <= t)?);
                let g = n - no;
                let (end, mut k) = (atm.spec.allowed.rank(g), atm.best(g)?);
                loop {
                    if k >= end {
                        return None;
                    }
                    // `max(T_i, T_l) + T_a <= t` rounds like each side
                    // alone. Past the minimizer the atmosphere only slows
                    // down, so what fails here fails at every later count.
                    let ta = atm.time(k);
                    let fits = |x: f64| x + ta <= t;
                    let ni = ice.count(ice.fewest(g, fits)?);
                    let nl = lnd.count(lnd.fewest(g, fits)?);
                    if ni + nl <= atm.count(k) {
                        break alloc([ni, nl, atm.count(k), no]);
                    }
                    // Later counts need at least `ni + nl` nodes.
                    k = atm.spec.allowed.rank(ni + nl - 1);
                }
            }
        };
        (layout_predicted_times(spec, layout, &found).total <= t).then_some(found)
    })
}

/// `within(t)` for flat min–max: each component takes its fewest nodes,
/// and the counts must fit in the budget.
fn flat_within(spec: &FlatSpec) -> impl Fn(f64) -> Option<Vec<i64>> + '_ {
    let n = spec.total_nodes;
    let curves: Vec<Curve> = spec.components.iter().map(|c| Curve::new(c, n)).collect();
    move |t| {
        let nodes: Vec<i64> = curves
            .iter()
            .map(|c| Some(c.count(c.fewest(n, |x| x <= t)?)))
            .collect::<Option<_>>()?;
        (nodes.iter().sum::<i64>() <= n).then_some(nodes)
    }
}

/// The makespan folded as [`crate::FlatAllocation::makespan`] folds it.
fn makespan(spec: &FlatSpec, nodes: &[i64]) -> f64 {
    let times = spec.components.iter().zip(nodes);
    times.map(|(c, &k)| c.predict(k as u64)).fold(0.0, f64::max)
}

/// The smallest total `within` accepts, with the allocation that reaches
/// it. Totals are nonnegative (so are the model coefficients), and there
/// the bit patterns order like the values, so bisecting the patterns from
/// below 0 to the total of each allocation found ends, within 64 rounds,
/// on two adjacent floats: the answer is exact.
fn optimum<A>(within: impl Fn(f64) -> Option<A>, total: impl Fn(&A) -> f64) -> Option<(A, f64)> {
    let mut best = within(f64::INFINITY)?;
    let mut hi = total(&best);
    let mut lo = -1i64; // the largest pattern known infeasible
    while hi.to_bits() as i64 - lo > 1 {
        let mid = f64::from_bits((lo + (hi.to_bits() as i64 - lo) / 2) as u64);
        match within(mid) {
            Some(a) => (hi, best) = (total(&a), a),
            None => lo = mid.to_bits() as i64,
        }
    }
    Some((best, hi))
}

/// Exact optimum of `layout` on `spec`, or `None` when nothing is feasible
/// or for a `T_sync` spec under layout 1.
pub fn layout_optimum(spec: &CesmModelSpec, layout: Layout) -> Option<(CesmAllocation, f64)> {
    let within = layout_within(spec, layout).ok()?;
    optimum(within, |a| layout_predicted_times(spec, layout, a).total)
}

/// [`layout_optimum`] of layout 1.
pub fn layout1_oracle(spec: &CesmModelSpec) -> Option<(CesmAllocation, f64)> {
    layout_optimum(spec, Layout::Hybrid)
}

/// Exact min–max optimum of a flat spec, whatever its `objective`: the
/// fewest nodes per component that reach it, and the makespan.
pub(crate) fn flat_optimum(spec: &FlatSpec) -> Option<(Vec<i64>, f64)> {
    optimum(flat_within(spec), |n| makespan(spec, n))
}

/// Certifies `alloc` optimal for `layout` within the solvers' gap: its
/// counts are admissible, the layout's structural rows hold, and no
/// allocation totals its total minus the gap. The `Err` names the failure.
pub fn certify_layout(
    spec: &CesmModelSpec,
    layout: Layout,
    alloc: &CesmAllocation,
) -> Result<(), String> {
    let n = spec.total_nodes;
    let counts = [alloc.ice, alloc.lnd, alloc.atm, alloc.ocn].map(|c| c as i64);
    let comps = [&spec.ice, &spec.lnd, &spec.atm, &spec.ocn];
    for (c, &k) in comps.iter().zip(&counts) {
        admissible(c, k, n)?;
    }
    let [ni, nl, na, no] = counts;
    let rows: &[(&str, bool)] = match layout {
        Layout::Hybrid => &[
            ("atm_plus_ocn_cap", na + no <= n),
            ("icelnd_within_atm", ni + nl <= na),
        ],
        Layout::SequentialAtmGroup => &[
            ("ice_within_group", ni + no <= n),
            ("lnd_within_group", nl + no <= n),
            ("atm_within_group", na + no <= n),
        ],
        Layout::FullySequential => &[],
    };
    if let Some((row, _)) = rows.iter().find(|(_, holds)| !holds) {
        return Err(format!("{row}: the structural row fails at {alloc:?}"));
    }
    let total = |a: &CesmAllocation| layout_predicted_times(spec, layout, a).total;
    refute(total(alloc), layout_within(spec, layout)?, total)
}

/// Certifies `nodes` min–max optimal for `spec` within the solvers' gap:
/// its counts are admissible and fit the node budget, and no allocation
/// reaches its makespan minus the gap. The `Err` names the failure.
pub fn certify_flat(spec: &FlatSpec, nodes: &[u64]) -> Result<(), String> {
    if spec.objective != Objective::MinMax {
        return Err(format!("objective: {:?} is not min–max", spec.objective));
    }
    let k = spec.components.len();
    if nodes.len() != k {
        return Err(format!("{} counts for {k} components", nodes.len()));
    }
    let n = spec.total_nodes;
    let counts: Vec<i64> = nodes.iter().map(|&k| k as i64).collect();
    for (c, &k) in spec.components.iter().zip(&counts) {
        admissible(c, k, n)?;
    }
    let used: i64 = counts.iter().sum();
    if used > n {
        return Err(format!("node_budget: {used} nodes used of {n}"));
    }
    let total = |a: &Vec<i64>| makespan(spec, a);
    refute(total(&counts), flat_within(spec), total)
}

fn admissible(c: &ComponentSpec, k: i64, n_total: i64) -> Result<(), String> {
    if k <= n_total && c.allowed.contains(k) {
        return Ok(());
    }
    Err(format!("{}: {k} nodes is not allowed on {n_total}", c.name))
}

/// `Ok` when no allocation reaches `total` minus the solvers' gap.
fn refute<A: std::fmt::Debug>(
    total: f64,
    within: impl FnOnce(f64) -> Option<A>,
    total_of: impl Fn(&A) -> f64,
) -> Result<(), String> {
    match within(total - (ABS_GAP + REL_GAP * total.abs())) {
        None => Ok(()),
        Some(a) => Err(format!("gap: {a:?} totals {}, below {total}", total_of(&a))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts::build_layout_model;
    use crate::solver::{solve_model, SolverBackend};
    use hslb_minlp::MinlpStatus;
    use hslb_perfmodel::PerfModel;
    use hslb_rng::Rng;

    fn amdahl(name: &str, a: f64, d: f64, total: i64) -> ComponentSpec {
        ComponentSpec::new(name, PerfModel::amdahl(a, d), 1, total)
    }

    fn spec(n: i64) -> CesmModelSpec {
        let even = (1..=n / 2).map(|k| 2 * k);
        CesmModelSpec {
            ice: amdahl("ice", 7774.0, 11.8, n),
            lnd: amdahl("lnd", 1495.0, 1.5, n),
            atm: amdahl("atm", 27180.0, 44.0, n),
            ocn: ComponentSpec::with_set("ocn", PerfModel::amdahl(7754.0, 41.8), even),
            total_nodes: n,
            tsync: None,
        }
    }

    /// A paper-model component: `b > 0` on 60%, `c` off 1, and an allowed
    /// set on 30%.
    fn component(rng: &mut Rng, name: &str, total: i64) -> ComponentSpec {
        let b = rng.bool(0.6).then(|| rng.f64_range(0.01, 8.0));
        let a = rng.f64_range(5.0, 500.0);
        let c = rng.f64_range(0.3, 1.5);
        let model = PerfModel::new(a, b.unwrap_or(0.0), c, rng.f64_range(0.0, 10.0));
        if rng.bool(0.3) {
            let member = rng.i64_range(1, total + 1);
            let set = (1..=total).filter(|_| rng.bool(0.5)).chain([member]);
            return ComponentSpec::with_set(name, model, set);
        }
        let min = rng.i64_range(1, 3);
        ComponentSpec::new(name, model, min, rng.i64_range(min, total + 3))
    }

    /// Every tuple of admissible counts on `total` nodes, `left` at most in
    /// all.
    fn tuples(comps: &[&ComponentSpec], total: i64, left: i64) -> Vec<Vec<i64>> {
        let Some((c, rest)) = comps.split_first() else {
            return vec![vec![]];
        };
        let counts = (1..=total.min(left)).filter(|&k| c.allowed.contains(k));
        let with = |k| {
            tuples(rest, total, left - k)
                .into_iter()
                .map(move |t| [vec![k], t].concat())
        };
        counts.flat_map(with).collect()
    }

    /// The total of `layout` at counts `t`, if they keep its rows.
    fn brute_total(s: &CesmModelSpec, layout: Layout, t: &[i64]) -> Option<f64> {
        let ([i, l, a, o], n) = ([t[0], t[1], t[2], t[3]], s.total_nodes);
        let rows = match layout {
            Layout::Hybrid => i + l <= a && a + o <= n,
            Layout::SequentialAtmGroup => i.max(l).max(a) + o <= n,
            Layout::FullySequential => true,
        };
        let [ice, lnd, atm, ocn] = [i, l, a, o].map(|k| k as u64);
        let alloc = CesmAllocation { ice, lnd, atm, ocn };
        rows.then(|| layout_predicted_times(s, layout, &alloc).total)
    }

    /// 300 specs, each under layouts 1–3 and as a flat spec on three of
    /// its components: 1,200 (spec, structure) pairs against brute force.
    #[test]
    fn optima_match_brute_force_on_paper_models() {
        let mut rng = Rng::new(0xe8ac7);
        let mut upward = 0;
        for case in 0..300 {
            let n = rng.i64_range(6, 20);
            let mut s = spec(n);
            [s.ice, s.lnd, s.atm, s.ocn] =
                ["ice", "lnd", "atm", "ocn"].map(|c| component(&mut rng, c, n));
            let comps = [&s.ice, &s.lnd, &s.atm, &s.ocn];
            upward += comps.iter().filter(|c| c.model.b > 0.0).count();
            let all = tuples(&comps, n, 4 * n);
            for layout in Layout::ALL {
                let brute = |t: &Vec<i64>| brute_total(&s, layout, t);
                let (got, want) = (layout_optimum(&s, layout), all.iter().filter_map(brute));
                let want = want.reduce(f64::min);
                assert_eq!(got.map(|g| g.1), want, "case {case} {layout:?}: {s:?}");
                if let Some((a, _)) = got {
                    certify_layout(&s, layout, &a).unwrap_or_else(|e| panic!("case {case}: {e}"));
                }
            }
            let components = vec![s.ice, s.lnd, s.ocn];
            let flat = FlatSpec {
                components,
                total_nodes: n,
                objective: Objective::MinMax,
            };
            let all = tuples(&flat.components.iter().collect::<Vec<_>>(), n, n);
            let want = all.iter().map(|t| makespan(&flat, t)).reduce(f64::min);
            let got = flat_optimum(&flat);
            assert_eq!(got.as_ref().map(|g| g.1), want, "case {case}: {flat:?}");
            if let Some((nodes, _)) = got {
                let nodes: Vec<u64> = nodes.iter().map(|&k| k as u64).collect();
                certify_flat(&flat, &nodes).unwrap_or_else(|e| panic!("case {case}: {e}"));
            }
        }
        assert!(upward > 400, "only {upward} components turn upward");
    }

    #[test]
    fn oracle_matches_bnb_small_and_medium() {
        for total in [128, 2048] {
            let s = spec(total);
            let (_, oracle_t) = layout1_oracle(&s).unwrap();
            let model = build_layout_model(&s, Layout::Hybrid);
            let sol = solve_model(&model.problem, SolverBackend::default());
            assert_eq!(sol.status, MinlpStatus::Optimal);
            certify_layout(&s, Layout::Hybrid, &model.allocation(&sol)).unwrap();
            let (got, gap) = (sol.objective, (sol.objective - oracle_t).abs());
            assert!(gap <= 1e-6 * oracle_t, "bnb {got} vs oracle {oracle_t}");
        }
    }

    #[test]
    fn nonmonotone_model_solves_exactly() {
        let mut s = spec(16);
        // Turns upward at n = sqrt(100 / 5) ≈ 4.5, inside the domain.
        s.atm = ComponentSpec::new("atm", PerfModel::new(100.0, 5.0, 1.0, 0.0), 1, 16);
        let (alloc, t) = layout1_oracle(&s).unwrap();
        certify_layout(&s, Layout::Hybrid, &alloc).unwrap();
        let all = tuples(&[&s.ice, &s.lnd, &s.atm, &s.ocn], 16, 64);
        let brute = |c: &Vec<i64>| brute_total(&s, Layout::Hybrid, c);
        assert_eq!(all.iter().filter_map(brute).reduce(f64::min), Some(t));
    }

    #[test]
    fn too_small_machine_is_infeasible() {
        let mut s = spec(8);
        s.ocn = ComponentSpec::with_set("ocn", PerfModel::amdahl(7754.0, 41.8), [64, 128]);
        assert!(Layout::ALL.iter().all(|&l| layout_optimum(&s, l).is_none()));
    }

    fn fails(checked: Result<(), String>, what: &str) {
        let e = checked.unwrap_err();
        assert!(e.starts_with(what), "{e}");
    }

    #[test]
    fn certificate_names_each_failure() {
        let mut s = spec(32);
        let (opt, _) = layout_optimum(&s, Layout::Hybrid).unwrap();
        let (mut odd, mut crowded, mut wide) = (opt, opt, opt);
        (odd.ocn, crowded.ice, wide.atm) = (7, opt.atm, 34 - opt.ocn);
        fails(certify_layout(&s, Layout::Hybrid, &odd), "ocn:");
        fails(
            certify_layout(&s, Layout::Hybrid, &crowded),
            "icelnd_within_atm:",
        );
        fails(
            certify_layout(&s, Layout::Hybrid, &wide),
            "atm_plus_ocn_cap:",
        );
        fails(
            certify_layout(&s, Layout::SequentialAtmGroup, &wide),
            "atm_within_group:",
        );

        // Only ice takes time, and its two counts are 1e-4 apart: far
        // beyond the gap at a total near 1.
        let step = ComponentSpec::new("ice", PerfModel::new(2e-4, 0.0, 1.0, 1.0), 1, 2);
        let idle = PerfModel::new(0.0, 0.0, 1.0, 0.0);
        s.ice = step.clone();
        for c in [&mut s.lnd, &mut s.atm, &mut s.ocn] {
            c.model = idle;
        }
        let (opt, t) = layout_optimum(&s, Layout::FullySequential).unwrap();
        let slow = CesmAllocation { ice: 1, ..opt };
        let slow_t = layout_predicted_times(&s, Layout::FullySequential, &slow).total;
        assert!((slow_t - t - 1e-4).abs() < 1e-12, "{slow_t} vs {t}");
        fails(certify_layout(&s, Layout::FullySequential, &slow), "gap:");

        let components = vec![step, ComponentSpec::new("b", idle, 1, 2)];
        let mut flat = FlatSpec {
            components,
            total_nodes: 3,
            objective: Objective::MinMax,
        };
        certify_flat(&flat, &[2, 1]).unwrap();
        for (nodes, what) in [([1, 2], "gap:"), ([3, 0], "ice:"), ([2, 2], "node_budget:")] {
            fails(certify_flat(&flat, &nodes), what);
        }
        flat.objective = Objective::MaxMin;
        fails(certify_flat(&flat, &[2, 1]), "objective:");
    }

    /// `layouts::tests::small_spec(32)`. Free, layout 1's optimum is
    /// (16, 8, 24, 8) at 20.5 with `|T_i − T_l| = 0.5`; under `T_sync =
    /// 0.1` it is (13, 6, 24, 8) at 21.667, and the pair is reverse-convex,
    /// so such specs are declined. Layouts 2 and 3 carry no `T_sync` rows.
    #[test]
    fn tsync_specs_are_declined() {
        let mut s = spec(32);
        (s.ice, s.lnd) = (amdahl("ice", 80.0, 1.0, 32), amdahl("lnd", 40.0, 0.5, 32));
        (s.atm, s.ocn) = (amdahl("atm", 300.0, 2.0, 32), amdahl("ocn", 150.0, 1.5, 32));
        let (free, t) = layout1_oracle(&s).unwrap();
        assert_eq!((free.atm, free.ocn, t), (24, 8, 20.5));
        s.tsync = Some(0.1);
        assert!(layout1_oracle(&s).is_none());
        fails(certify_layout(&s, Layout::Hybrid, &free), "tsync:");
        assert!(layout_optimum(&s, Layout::SequentialAtmGroup).is_some());
    }
}
