//! Golden counter snapshots for the pinned perf experiments (E7, E8) and
//! the serving discipline suite.
//!
//! These are the same workloads `hslb-perf` records into
//! `BENCH_solver.json`; pinning the counters here means `cargo test` alone
//! catches algorithmic drift (extra nodes, lost prunes, pivot blowups,
//! changed caching/coalescing decisions) with exact equality, while the
//! `--smoke` gate allows small drift on work counters only.

use hslb::{build_layout_model, solve_model_with, Layout, SolverBackend};
use hslb_bench::harness::{sos_test_problem, true_spec};
use hslb_bench::serve_perf::serve_suite;
use hslb_cesm_sim::Scenario;
use hslb_minlp::{encode_sets_as_binaries, MinlpOptions, SolveStats};
use hslb_obs::ServeStats;

/// E7 machine scale: the paper's 40,960-node 1° layout-1 instance.
const E7_TOTAL_NODES: u64 = 40_960;

fn e7_stats(backend: SolverBackend, threads: usize) -> SolveStats {
    let spec = true_spec(&Scenario::one_degree(E7_TOTAL_NODES));
    let model = build_layout_model(&spec, Layout::Hybrid);
    let opts = MinlpOptions {
        threads,
        ..Default::default()
    };
    solve_model_with(&model.problem, backend, &opts).stats
}

#[test]
fn e7_oa_counters_golden() {
    let stats = e7_stats(SolverBackend::OuterApproximation, 0);
    let expected = SolveStats {
        // Integer secants cut off fractional master points before the tree
        // branches on them, and the master closes around the optimum before
        // most polish NLPs run. Since the master keeps its tableau and
        // basis factor across re-solves, its basic values and duals come
        // through the kept LU, etas and borders instead of a fresh LU per
        // solve; they round a few ulps differently, which moves a best-bound
        // tie: 18 -> 19 nodes opened, one more polish NLP (2 -> 3 NLP
        // solves, 46 -> 64 Newton steps) and its cuts (22 -> 26: 4
        // initial, the rest at violated integer points and secants).
        nodes_opened: 19,
        pruned_by_bound: 3,
        pruned_infeasible: 0,
        incumbents: 2,
        oa_cuts: 26,
        // Since the tree's first master LP starts from the slack basis on
        // the dual simplex, it spends no Phase 1 pivots, and every LP but
        // the first reuses the kept basis: every pivot is dual.
        lp_solves: 16,
        nlp_solves: 3,
        simplex_pivots: 22,
        // Mehrotra predictor-corrector barrier: every Newton iteration is
        // one predictor + one corrector solve off a single factorization.
        newton_iters: 64,
        predictor_steps: 64,
        corrector_steps: 64,
        line_search_backtracks: 37,
        barrier_fallbacks: 0,
        lm_steps: 0,
        presolve_tightenings: 3,
        warm_start_hits: 15,
        dual_pivots: 22,
        // Sparse LU: the slack basis is the identity and the tree's 22
        // pivots stay below the refactorization threshold, so the kept
        // factor is never rebuilt: no factorization, one eta per pivot.
        factorizations: 0,
        factor_updates: 22,
        fill_nnz: 0,
    };
    assert_eq!(stats, expected);
}

#[test]
fn e7_nlp_bnb_counters_golden() {
    let stats = e7_stats(SolverBackend::NlpBnb, 0);
    // Barrier v2 tree shape: MPC bounds are a shade tighter than the
    // fixed-μ schedule's, so tolerance-level ties in the best-bound queue
    // flip a few prune-vs-branch decisions (541 -> 741 nodes) while the
    // incumbents — and the optimum — are unchanged. The Newton total is
    // the headline: 25,848 -> 6,629 (3.9x) despite the extra nodes.
    let expected = SolveStats {
        nodes_opened: 741,
        pruned_by_bound: 370,
        pruned_infeasible: 0,
        incumbents: 2,
        oa_cuts: 0,
        lp_solves: 0,
        nlp_solves: 496,
        simplex_pivots: 0,
        newton_iters: 6629,
        predictor_steps: 6629,
        corrector_steps: 6629,
        line_search_backtracks: 3765,
        barrier_fallbacks: 0,
        lm_steps: 0,
        presolve_tightenings: 248,
        warm_start_hits: 492,
        dual_pivots: 0,
        factorizations: 0,
        factor_updates: 0,
        fill_nnz: 0,
    };
    assert_eq!(stats, expected);
}

#[test]
fn e7_parallel_t1_counters_golden() {
    let stats = e7_stats(SolverBackend::ParallelBnb, 1);
    let expected = SolveStats {
        nodes_opened: 491,
        pruned_by_bound: 245,
        pruned_infeasible: 0,
        incumbents: 2,
        oa_cuts: 0,
        lp_solves: 0,
        nlp_solves: 492,
        simplex_pivots: 0,
        newton_iters: 6571,
        predictor_steps: 6571,
        corrector_steps: 6571,
        line_search_backtracks: 3726,
        barrier_fallbacks: 0,
        lm_steps: 0,
        presolve_tightenings: 248,
        warm_start_hits: 488,
        dual_pivots: 0,
        factorizations: 0,
        factor_updates: 0,
        fill_nnz: 0,
    };
    assert_eq!(stats, expected);
}

/// E8 — native SOS branching vs explicit binary encoding (§III-E): what
/// carries the paper's claim. Both encodings reach the same optimum and the
/// binary tree is never smaller than the native one, but on this synthetic
/// instance the trees are the same size; the binary arm's cost is its
/// lifted k-dimensional relaxation, whose predictor-corrector KKT matrix
/// stops factoring at Newton step 3 or 4 (a dense LU pivot below its
/// absolute tolerance), so the fixed-μ fallback takes over. The native arm
/// never falls back, and the binary arm's fallback stage steps
/// (`newton_iters − predictor_steps`; the predictor-corrector iterations
/// that finish the fallback count as predictor steps) alone exceed the
/// native arm's whole Newton count. A ratio on total Newton steps held
/// only through those fallback steps, so this asserts the mechanism
/// instead (EXPERIMENTS.md § E8).
#[test]
fn e8_binary_encoding_runs_on_the_fixed_mu_fallback() {
    for k in [32usize, 128] {
        let p = sos_test_problem(k);
        let opts = MinlpOptions::default();
        let native = hslb_minlp::solve_oa_bnb(&p, &opts);
        let (enc, _) = encode_sets_as_binaries(&p);
        let binary = hslb_minlp::solve_oa_bnb(&enc, &opts);
        assert!(
            (native.objective - binary.objective).abs() < 1e-3 * native.objective.abs().max(1.0),
            "k={k}: encodings must agree on the optimum"
        );
        let (n, b) = (&native.stats, &binary.stats);
        assert!(
            b.nodes_opened >= n.nodes_opened,
            "k={k}: binary tree {} smaller than native {}",
            b.nodes_opened,
            n.nodes_opened
        );
        assert_eq!(n.barrier_fallbacks, 0, "k={k}: native arm fell back");
        assert!(b.barrier_fallbacks >= 1, "k={k}: binary arm stayed on MPC");
        let fixed_mu = b.newton_iters - b.predictor_steps;
        assert!(
            fixed_mu > n.newton_iters,
            "k={k}: binary fixed-μ stage steps {fixed_mu} vs native Newton steps {}",
            n.newton_iters
        );
    }
}

/// Every master LP of the pinned FMO OA solve stays on the dual simplex:
/// each tree's first LP starts from the slack basis and every re-solve
/// from the saved one, so no two-phase primal solve runs.
#[test]
fn fmo_oa_masters_run_only_dual_pivots() {
    let stats = hslb_bench::perf::fmo_oa_case().stats;
    assert!(stats.dual_pivots > 0, "{stats:?}");
    assert_eq!(stats.simplex_pivots, stats.dual_pivots, "{stats:?}");
}

/// The committed `BENCH_solver.json` baseline must match a fresh solve
/// exactly — regenerating it is part of any intentional solver change.
#[test]
fn committed_baseline_matches_fresh_e7_run() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_solver.json");
    let text = std::fs::read_to_string(path).expect("BENCH_solver.json is committed");
    let baseline = hslb_bench::perf::suite_from_json(&text).expect("baseline parses");
    let fresh = e7_stats(SolverBackend::OuterApproximation, 0);
    let case = baseline
        .iter()
        .find(|c| c.name == format!("e7_layout1_{E7_TOTAL_NODES}_oa"))
        .expect("baseline contains the E7 OA case");
    assert_eq!(case.stats, fresh, "baseline is stale; rerun hslb-perf");
}

/// Serving-discipline counters for the pinned mixed-traffic case. Unlike
/// solver work counters, every one of these is an exact decision (cache
/// hit or miss, coalesce or solve, shed or admit) — any drift means the
/// serving policy changed and the baseline must be regenerated on purpose.
#[test]
fn serve_mixed_counters_golden() {
    let cases = serve_suite();
    let mixed = cases
        .iter()
        .find(|c| c.name == "serve_mixed_1shard")
        .expect("suite contains the mixed-traffic case");
    let expected = ServeStats {
        queries: 96,
        solves: 15,
        cache_hits: 44,
        warm_seeded: 11,
        coalesced: 0,
        shed: 0,
        expired_in_queue: 0,
        errors: 6,
        evictions: 0,
    };
    assert_eq!(mixed.serve, expected);
    // Deterministic latency distribution under the fake clock: the 99th
    // percentile of per-dispatch tick counts is exact, not a tolerance.
    assert_eq!(mixed.p99_ticks, 13);
}

/// Each remaining pinned serve case isolates one discipline; pin the
/// counter that defines it so a policy regression names itself.
#[test]
fn serve_discipline_counters_golden() {
    let cases = serve_suite();
    let get = |name: &str| {
        cases
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("suite contains {name}"))
    };
    let batch = get("serve_batch_dedupe");
    assert_eq!(batch.serve.coalesced, 6);
    assert_eq!(batch.serve.solves, 1, "4 identical solves share one solve");
    let deadline = get("serve_deadline_expiry");
    assert_eq!(deadline.serve.expired_in_queue, 6);
    assert_eq!(
        deadline.serve.solves, 0,
        "expired jobs never reach a solver"
    );
    let churn = get("serve_cache_churn");
    assert_eq!(churn.serve.evictions, 6);
    assert_eq!(churn.serve.cache_hits, 0, "capacity 2 can't hold 4 shapes");
}

/// The committed serve section of `BENCH_solver.json` must match a fresh
/// run of the suite exactly, counters and latency alike.
#[test]
fn committed_baseline_matches_fresh_serve_suite() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_solver.json");
    let text = std::fs::read_to_string(path).expect("BENCH_solver.json is committed");
    let (_, serve_baseline) =
        hslb_bench::serve_perf::baseline_from_json(&text).expect("baseline parses");
    assert_eq!(
        serve_baseline,
        serve_suite(),
        "serve baseline is stale; rerun hslb-perf"
    );
}
