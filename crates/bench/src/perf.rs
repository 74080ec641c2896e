//! Counter-based performance-regression suite (the `hslb-perf` binary).
//!
//! Wall-clock timings are noisy and machine-dependent, so CI cannot gate on
//! them. The deterministic work counters of `hslb-obs` can be compared
//! exactly: every case below solves a pinned instance and records its
//! [`SolveStats`]. The suite is serialized to `BENCH_solver.json` (committed
//! at the repo root); `hslb-perf --smoke` re-runs the suite and fails when
//! any counter drifts past the per-counter allowance, which catches
//! algorithmic regressions (extra nodes, extra pivots, lost prunes) without
//! ever timing anything.
//!
//! Counters are integers and every solver in the suite is deterministic
//! (the parallel backend is pinned to one thread), so two runs of
//! `hslb-perf` produce byte-identical JSON.

use crate::harness::{fmo_cluster_spec, sos_test_problem, true_spec};
use hslb::{build_flat_model, build_layout_model, solve_model_with, Layout, SolverBackend};
use hslb_cesm_sim::Scenario;
use hslb_json::Json;
use hslb_lp::{LinearProgram, RowSense};
use hslb_minlp::{encode_sets_as_binaries, MinlpOptions, MinlpStatus, SolveStats};
use hslb_perfmodel::{fit, PerfModel, ScalingData};
use hslb_rng::seeds;

/// One pinned workload and the counters it produced.
#[derive(Debug, Clone)]
pub struct PerfCase {
    pub name: String,
    pub stats: SolveStats,
}

/// Allowed absolute drift for a counter with the given baseline value.
///
/// Small counters get a flat slack of 8 (a few extra barrier iterations are
/// not a regression); large ones may move by 20% before the gate trips.
pub fn allowance(baseline: u64) -> u64 {
    (baseline / 5).max(8)
}

/// The machine scale of the paper's §III-E solve-time claim (E7).
pub const E7_TOTAL_NODES: u64 = 40_960;
/// SOS-vs-binary ablation sizes (E8) — kept below the sizes in
/// `tables` so the whole suite stays fast enough for CI.
const E8_SET_SIZES: [usize; 3] = [8, 32, 128];
/// Fragment count of the pinned FMO case.
const FMO_FRAGMENTS: usize = 96;
/// Fragment-size heterogeneity of the pinned FMO case.
const FMO_HETEROGENEITY: f64 = 1.0;
/// Machine size per fragment of the pinned FMO case.
const FMO_NODES_PER_FRAGMENT: i64 = 8;

/// Runs the full pinned suite. Order is fixed; names are stable identifiers
/// that `--smoke` uses to match against the committed baseline.
pub fn perf_suite() -> Vec<PerfCase> {
    let mut cases = Vec::new();

    // E7: full-machine 1° layout-1 model, every backend (parallel pinned to
    // one thread so its counters are deterministic).
    let spec = true_spec(&Scenario::one_degree(E7_TOTAL_NODES));
    let model = build_layout_model(&spec, Layout::Hybrid);
    for (tag, backend, threads) in [
        ("oa", SolverBackend::OuterApproximation, 0),
        ("nlp_bnb", SolverBackend::NlpBnb, 0),
        ("parallel_t1", SolverBackend::ParallelBnb, 1),
    ] {
        let opts = MinlpOptions {
            threads,
            ..Default::default()
        };
        let sol = solve_model_with(&model.problem, backend, &opts);
        assert!(sol.objective.is_finite(), "E7 {tag} must solve");
        cases.push(PerfCase {
            name: format!("e7_layout1_{E7_TOTAL_NODES}_{tag}"),
            stats: sol.stats,
        });
    }

    // E8: native SOS branching vs explicit binary encoding. The binary
    // encoding lifts the barrier solves into a k-dimensional space, where
    // the predictor-corrector KKT matrix stops factoring (a dense LU pivot
    // below its absolute tolerance) and the fixed-μ fallback runs; the
    // counters show it in `barrier_fallbacks` and
    // `newton_iters − predictor_steps` (see `tests/perf_counters.rs`).
    for k in E8_SET_SIZES {
        let p = sos_test_problem(k);
        let opts = MinlpOptions::default();
        let native = hslb_minlp::solve_oa_bnb(&p, &opts);
        let (enc, _) = encode_sets_as_binaries(&p);
        let binary = hslb_minlp::solve_oa_bnb(&enc, &opts);
        cases.push(PerfCase {
            name: format!("e8_sos_native_k{k}"),
            stats: native.stats,
        });
        cases.push(PerfCase {
            name: format!("e8_sos_binary_k{k}"),
            stats: binary.stats,
        });
    }

    // Simplex microkernel: the master-LP shapes OA generates.
    for cols in [64usize, 256] {
        let lp = master_like_lp(cols, 24);
        let sol = hslb_lp::solve(&lp);
        assert!(sol.is_optimal(), "micro_simplex_{cols} must solve");
        let stats = SolveStats {
            lp_solves: 1,
            simplex_pivots: sol.iterations as u64,
            ..Default::default()
        };
        cases.push(PerfCase {
            name: format!("micro_simplex_{cols}"),
            stats,
        });
    }

    // Sparse-LP suite: seeded netlib-style instances (`netgen`) at
    // and beyond paper scale, each optimum certified from its own duals.
    // The counters pin the pivot path *and* the factorization behavior
    // (refactorization count, eta updates, factor fill).
    for (n, m) in SPARSE_LP_SIZES {
        let sol = solve_netlib_like(n, m);
        cases.push(PerfCase {
            name: format!("sparse_lp_n{n}"),
            stats: sol,
        });
    }

    // Fit microkernel: the paper-model fit on pinned synthetic data; its
    // `lm_steps` counts profile evaluations.
    let truth = PerfModel::new(27_180.0, 5e-4, 1.0, 44.0);
    let data = ScalingData::from_pairs(
        [104u64, 208, 416, 832, 1664, 3328]
            .iter()
            .map(|&n| (n, truth.eval(n as f64))),
    );
    let report = fit(&data).expect("pinned fit converges");
    cases.push(PerfCase {
        name: "micro_lm_paper".to_string(),
        stats: SolveStats {
            lm_steps: report.lm_steps as u64,
            ..Default::default()
        },
    });

    cases.push(fmo_oa_case());

    cases
}

/// Multithreaded counter gate: E7 at `threads: 4`.
///
/// The parallel solver's deterministic replay merge guarantees a completed
/// search reports the serial depth-first traversal's counters exactly, at
/// any thread count (see `hslb_minlp::parallel` module docs). The gate
/// therefore demands bit-equality with the pinned single-thread case —
/// the ±25% node-count envelope that tolerated racy merges is gone.
/// Returns violation descriptions (empty = pass).
pub fn e7_thread_envelope(cases: &[PerfCase]) -> Vec<String> {
    let Some(serial) = cases.iter().find(|c| c.name.ends_with("_parallel_t1")) else {
        return vec!["e7 parallel_t1 case missing from suite".to_string()];
    };
    let spec = true_spec(&Scenario::one_degree(E7_TOTAL_NODES));
    let model = build_layout_model(&spec, Layout::Hybrid);
    let opts = MinlpOptions {
        threads: 4,
        ..Default::default()
    };
    let sol = solve_model_with(&model.problem, SolverBackend::ParallelBnb, &opts);
    let mut violations = Vec::new();
    if !sol.objective.is_finite() {
        violations.push("e7_parallel_t4: no finite objective".to_string());
        return violations;
    }
    if sol.stats != serial.stats {
        violations.push(format!(
            "e7_parallel_t4: stats diverged from single-thread replay contract: \
             t4 {:?} vs t1 {:?}",
            sol.stats, serial.stats
        ));
    }
    violations
}

/// Pinned netlib-style LP sizes `(columns, rows)` for the sparse suite.
pub const SPARSE_LP_SIZES: [(usize, usize); 3] = [(100, 60), (1000, 600), (5000, 1200)];

/// Seed for the pinned netlib-style generator instances.
pub const SPARSE_LP_SEED: u64 = 0xB0A7_F00D;

/// Solves one seeded netlib-style instance and returns its counters.
/// Asserts that the optimum certifies ([`hslb_lp::LpSolution::certify`]):
/// the generator constructs feasible bounded instances by design.
pub fn solve_netlib_like(n: usize, m: usize) -> SolveStats {
    let lp = crate::netgen::netlib_like(SPARSE_LP_SEED, n, m);
    let sol = hslb_lp::solve(&lp);
    if let Err(e) = sol.certify(&lp) {
        panic!("netlib-like n={n} m={m} must solve to a certified optimum: {e}");
    }
    SolveStats {
        lp_solves: 1,
        simplex_pivots: sol.iterations as u64,
        factorizations: sol.factorizations,
        factor_updates: sol.factor_updates,
        fill_nnz: sol.fill_nnz,
        ..Default::default()
    }
}

/// Times one seeded netlib-like solve, in seconds. The only wall-clock
/// measurement in this module — used by the `tables -- sparse` report,
/// never by the counter baseline.
pub fn time_netlib_like(n: usize, m: usize) -> f64 {
    let start = std::time::Instant::now();
    let _ = solve_netlib_like(n, m);
    start.elapsed().as_secs_f64()
}

/// A master-problem LP shape OA generates: `cols` bounded columns, two
/// linking equality rows, `cuts` inequality rows; the `micro_simplex_*`
/// counter cases solve it.
fn master_like_lp(cols: usize, cuts: usize) -> LinearProgram {
    let mut lp = LinearProgram::new();
    let n = lp.add_var(-1.0, 0.0, 1e6);
    let zs: Vec<_> = (0..cols).map(|_| lp.add_var(0.0, 0.0, 1.0)).collect();
    lp.add_row(zs.iter().map(|&z| (z, 1.0)).collect(), RowSense::Eq, 1.0);
    let mut link: Vec<_> = zs
        .iter()
        .enumerate()
        .map(|(k, &z)| (z, (2 * (k + 1)) as f64))
        .collect();
    link.push((n, -1.0));
    lp.add_row(link, RowSense::Eq, 0.0);
    for c in 0..cuts {
        let mut row = vec![(n, 1.0)];
        for k in 0..3 {
            row.push((zs[(c * 7 + k * 13) % cols], 1.5 + k as f64));
        }
        lp.add_row(row, RowSense::Le, 1e5 + c as f64);
    }
    lp
}

/// The `suite` section as a JSON value (insertion order, integer
/// counters — byte-identical across runs).
pub fn suite_json_value(cases: &[PerfCase]) -> Json {
    Json::arr(cases.iter().map(|case| {
        Json::obj([
            ("name", Json::from(case.name.as_str())),
            (
                "counters",
                Json::obj(
                    case.stats
                        .fields()
                        .into_iter()
                        .map(|(name, value)| (name, Json::from(value))),
                ),
            ),
        ])
    }))
}

/// Serializes the solver suite alone (the serve section is appended by
/// [`crate::serve_perf::baseline_to_json`], which the `hslb-perf` binary
/// uses to write the committed file).
pub fn suite_to_json(cases: &[PerfCase]) -> String {
    let doc = Json::obj([
        ("format", Json::from(1u64)),
        ("suite", suite_json_value(cases)),
    ]);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

/// Parses the `suite` section of an already-parsed baseline document.
/// Unknown counter names are rejected so a schema change forces a
/// baseline regeneration.
pub fn suite_cases_from_doc(doc: &Json) -> Result<Vec<PerfCase>, String> {
    let suite = doc
        .get("suite")
        .and_then(Json::as_array)
        .ok_or("baseline missing suite array")?;
    let mut cases = Vec::with_capacity(suite.len());
    for entry in suite {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("suite entry missing name")?
            .to_string();
        let counters = entry
            .get("counters")
            .ok_or_else(|| format!("{name}: missing counters"))?;
        let read = |field: &str| {
            counters
                .get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing counter {field}"))
        };
        let stats = SolveStats::from_fields(read)?;
        cases.push(PerfCase { name, stats });
    }
    Ok(cases)
}

/// Parses a committed baseline's solver suite from text.
pub fn suite_from_json(text: &str) -> Result<Vec<PerfCase>, String> {
    let doc = Json::parse(text).map_err(|e| format!("bad baseline JSON: {e}"))?;
    if doc.get("format").and_then(Json::as_u64) != Some(1) {
        return Err("baseline format must be 1".to_string());
    }
    suite_cases_from_doc(&doc)
}

/// Compares a fresh run against the committed baseline. Returns drift
/// descriptions (empty = pass). Added or removed cases are drifts too: the
/// baseline must be regenerated deliberately, never silently.
pub fn diff_suites(baseline: &[PerfCase], current: &[PerfCase]) -> Vec<String> {
    let mut drifts = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.name == base.name) else {
            drifts.push(format!("{}: case removed from suite", base.name));
            continue;
        };
        for ((field, b), (_, c)) in base.stats.fields().into_iter().zip(cur.stats.fields()) {
            let allowed = allowance(b);
            if c.abs_diff(b) > allowed {
                drifts.push(format!(
                    "{}: {field} drifted {b} -> {c} (allowance {allowed})",
                    base.name
                ));
            }
        }
    }
    for cur in current {
        if !baseline.iter().any(|b| b.name == cur.name) {
            drifts.push(format!("{}: new case not in baseline", cur.name));
        }
    }
    drifts
}

/// FMO (the title paper's domain): OA on the largest min-max cluster of
/// `tests/fmo_claims.rs`. Every master LP, the first of each tree
/// included, runs on the sparse-LU dual simplex (`simplex_pivots ==
/// dual_pivots`), and its root barrier NLP has 97 columns (96 fragment
/// counts and the makespan), so the row pins both the LP path and an MPC
/// solve near paper scale.
pub fn fmo_oa_case() -> PerfCase {
    let spec = fmo_cluster_spec(
        FMO_FRAGMENTS,
        FMO_HETEROGENEITY,
        seeds::FMO,
        FMO_FRAGMENTS as i64 * FMO_NODES_PER_FRAGMENT,
    );
    let model = build_flat_model(&spec);
    let sol = solve_model_with(
        &model.problem,
        SolverBackend::OuterApproximation,
        &MinlpOptions::default(),
    );
    assert_eq!(sol.status, MinlpStatus::Optimal, "FMO OA case must solve");
    PerfCase {
        name: format!("fmo_oa_{FMO_FRAGMENTS}frag"),
        stats: sol.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, nodes: u64) -> PerfCase {
        PerfCase {
            name: name.to_string(),
            stats: SolveStats {
                nodes_opened: nodes,
                ..Default::default()
            },
        }
    }

    #[test]
    fn json_round_trips() {
        let cases = vec![case("a", 3), case("b", 1000)];
        let text = suite_to_json(&cases);
        let back = suite_from_json(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "a");
        assert_eq!(back[0].stats, cases[0].stats);
        assert_eq!(back[1].stats, cases[1].stats);
        // Serialization is a fixed point.
        assert_eq!(suite_to_json(&back), text);
    }

    #[test]
    fn diff_flags_drift_beyond_allowance() {
        let base = vec![case("a", 100)];
        // Within 20%: fine.
        assert!(diff_suites(&base, &[case("a", 115)]).is_empty());
        // Beyond: flagged.
        let drifts = diff_suites(&base, &[case("a", 130)]);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].contains("nodes_opened"), "{drifts:?}");
    }

    #[test]
    fn diff_flags_small_counter_slack() {
        // Flat slack of 8 for small counters.
        let base = vec![case("a", 2)];
        assert!(diff_suites(&base, &[case("a", 10)]).is_empty());
        assert!(!diff_suites(&base, &[case("a", 11)]).is_empty());
    }

    #[test]
    fn diff_flags_added_and_removed_cases() {
        let base = vec![case("a", 1), case("b", 1)];
        let cur = vec![case("a", 1), case("c", 1)];
        let drifts = diff_suites(&base, &cur);
        assert_eq!(drifts.len(), 2, "{drifts:?}");
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(suite_from_json("not json").is_err());
        assert!(suite_from_json(r#"{"format": 2, "suite": []}"#).is_err());
        let missing = r#"{"format": 1, "suite": [{"name": "a", "counters": {}}]}"#;
        assert!(suite_from_json(missing).is_err());
    }
}
