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
        // most polishes run.
        nodes_opened: 19,
        pruned_by_bound: 3,
        pruned_infeasible: 0,
        incumbents: 2,
        // 4 initial cuts, the rest at violated integer points, secants and
        // the rows each of the 2 polished points leaves active (26 -> 22
        // since the polish cuts only those: 4 of its 8 rows).
        oa_cuts: 22,
        // Since the tree's first master LP starts from the slack basis on
        // the dual simplex, it spends no Phase 1 pivots, and every LP but
        // the first reuses the kept basis: every pivot is dual. The 2
        // polishes are LPs since the pinned layout-1 model has no
        // nonlinear term on a continuous column: 16 master LPs and 22
        // pivots plus 2 polish LPs from the slack basis and their 5 dual
        // pivots (3 -> 1 NLP solves: only the root relaxation is left).
        lp_solves: 18,
        nlp_solves: 1,
        simplex_pivots: 27,
        // Mehrotra predictor-corrector barrier: every Newton iteration is
        // one predictor + one corrector solve off a single factorization.
        // All of them are the root relaxation's (64 -> 27 and 37 -> 19
        // backtracks without the 2 polish NLPs).
        newton_iters: 27,
        predictor_steps: 27,
        corrector_steps: 27,
        line_search_backtracks: 19,
        barrier_fallbacks: 0,
        lm_steps: 0,
        presolve_tightenings: 3,
        warm_start_hits: 15,
        dual_pivots: 27,
        // Sparse LU: each slack basis is the identity and no LP reaches
        // the refactorization threshold, so no factor is ever rebuilt: no
        // factorization, one eta per pivot.
        factorizations: 0,
        factor_updates: 27,
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
    // the headline: 25,848 -> 6,629 (3.9x) despite the extra nodes. The 2
    // polishes are LPs on the dual simplex (496 -> 494 NLP solves, 6,629
    // -> 6,583 Newton steps; 2 LP solves with 5 dual pivots).
    let expected = SolveStats {
        nodes_opened: 741,
        pruned_by_bound: 370,
        pruned_infeasible: 0,
        incumbents: 2,
        oa_cuts: 0,
        lp_solves: 2,
        nlp_solves: 494,
        simplex_pivots: 5,
        newton_iters: 6583,
        predictor_steps: 6583,
        corrector_steps: 6583,
        line_search_backtracks: 3746,
        barrier_fallbacks: 0,
        lm_steps: 0,
        presolve_tightenings: 248,
        warm_start_hits: 492,
        dual_pivots: 5,
        factorizations: 0,
        factor_updates: 5,
        fill_nnz: 0,
    };
    assert_eq!(stats, expected);
}

#[test]
fn e7_parallel_t1_counters_golden() {
    let stats = e7_stats(SolverBackend::ParallelBnb, 1);
    // As `NlpBnb`: the 2 polishes are LPs (492 -> 490 NLP solves, 6,571 ->
    // 6,526 Newton steps; 2 LP solves with 4 dual pivots).
    let expected = SolveStats {
        nodes_opened: 491,
        pruned_by_bound: 245,
        pruned_infeasible: 0,
        incumbents: 2,
        oa_cuts: 0,
        lp_solves: 2,
        nlp_solves: 490,
        simplex_pivots: 4,
        newton_iters: 6526,
        predictor_steps: 6526,
        corrector_steps: 6526,
        line_search_backtracks: 3708,
        barrier_fallbacks: 0,
        lm_steps: 0,
        presolve_tightenings: 248,
        warm_start_hits: 488,
        dual_pivots: 4,
        factorizations: 0,
        factor_updates: 4,
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

/// Every LP of the pinned FMO OA solve stays on the dual simplex: each
/// tree's first master LP and each polish LP start from the slack basis
/// and every master re-solve from the saved one, so no two-phase primal
/// solve runs.
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
