//! Title-paper (SC'12) claims on the FMO substrate.

use hslb::{
    build_flat_model, solve_minmax_waterfill, solve_model_with, AllowedNodes, ComponentSpec,
    FlatSpec, Objective, SolverBackend,
};
use hslb_fmo_sim::{generate_cluster, FmoSimulator};
use hslb_minlp::{MinlpOptions, MinlpStatus};
use hslb_rng::seeds;

#[test]
fn hslb_wins_grow_with_heterogeneity() {
    // The more diverse the fragment sizes, the larger HSLB's win over
    // uniform static groups — the paper's core motivation.
    let mut ratios = Vec::new();
    for &het in &[0.0, 0.5, 1.0] {
        let cluster = generate_cluster(64, het, seeds::FMO);
        let mut sim = FmoSimulator::new(cluster, 64 * 6, seeds::FMO);
        let (_, hslb) = sim.run_hslb(5).expect("feasible");
        let uniform = sim.execute_uniform(64);
        ratios.push(uniform.monomer_time / hslb.monomer_time);
    }
    assert!(
        ratios[0] < 1.3,
        "homogeneous case should be near a tie: {ratios:?}"
    );
    assert!(ratios[1] > ratios[0], "{ratios:?}");
    assert!(ratios[2] > ratios[1], "{ratios:?}");
    assert!(
        ratios[2] > 2.0,
        "heterogeneous win should be substantial: {ratios:?}"
    );
}

#[test]
fn hslb_beats_dynamic_in_few_large_tasks_regime() {
    // "In the special cases of a few large tasks of diverse size, DLB
    // algorithms are not appropriate" (§I): dynamic scheduling cannot give
    // the dominating fragment a bigger group than the uniform group size,
    // so the critical path stays long. Many small groups make this sharp.
    let cluster = generate_cluster(24, 1.0, 7);
    let mut sim = FmoSimulator::new(cluster, 24 * 8, 7);
    let (_, hslb) = sim.run_hslb(5).expect("feasible");
    let dynamic = sim.execute_dynamic(12); // per-group 16 nodes
    assert!(
        hslb.monomer_time < dynamic.monomer_time,
        "HSLB {} vs dynamic {}",
        hslb.monomer_time,
        dynamic.monomer_time
    );
}

#[test]
fn hslb_makespan_approaches_the_physical_floor() {
    // A fragment cannot run faster than on its maximum useful node count,
    // so `max_f T_f(n_f^max)` lower-bounds any schedule. HSLB should land
    // within ~1.5x of that floor (noise + node scarcity included). Note
    // per-fragment "imbalance" is not meaningful here: a 3-atom fragment on
    // its minimum of 1 node is orders of magnitude faster than the giant
    // fragments whatever the allocator does.
    let cluster = generate_cluster(48, 0.8, 99);
    let mut sim = FmoSimulator::new(cluster.clone(), 48 * 6, 99);
    let (_, hslb) = sim.run_hslb(5).expect("feasible");
    let floor = cluster
        .iter()
        .map(|f| f.true_time(f.max_useful_nodes() as u64))
        .fold(0.0f64, f64::max);
    assert!(
        hslb.monomer_time <= 1.5 * floor,
        "makespan {} vs physical floor {}",
        hslb.monomer_time,
        floor
    );
}

#[test]
fn allocation_never_exceeds_fragment_usefulness() {
    let cluster = generate_cluster(32, 0.9, 5);
    let mut sim = FmoSimulator::new(cluster.clone(), 32 * 12, 5);
    let (alloc, _) = sim.run_hslb(5).expect("feasible");
    for (f, &n) in cluster.iter().zip(&alloc.nodes) {
        assert!(
            n as i64 <= f.max_useful_nodes(),
            "fragment {} ({} atoms) was given {} nodes",
            f.id,
            f.atoms,
            n
        );
    }
}

#[test]
fn dimer_step_scales_with_machine() {
    let cluster = generate_cluster(32, 0.5, 5);
    let mut small = FmoSimulator::new(cluster.clone(), 64, 5);
    let mut large = FmoSimulator::new(cluster, 256, 5);
    let d_small = small.execute_uniform(8).dimer_time;
    let d_large = large.execute_uniform(8).dimer_time;
    assert!(
        (d_small / d_large - 4.0).abs() < 0.01,
        "{d_small} vs {d_large}"
    );
}

#[test]
fn oa_matches_waterfill_on_sparse_lu_masters() {
    // The LP/NLP-based branch-and-bound (OA) must land on the exact min-max
    // optimum the waterfill computes, across the cluster sizes where the
    // master grows from a few dozen rows to several hundred. Every master
    // LP runs on the sparse LU basis, so each solve records eta updates.
    for fragments in [32usize, 48, 64, 96] {
        for het in [0.5, 1.0] {
            let components = generate_cluster(fragments, het, seeds::FMO)
                .iter()
                .map(|f| ComponentSpec {
                    name: format!("frag{}", f.id),
                    model: f.truth_model(),
                    allowed: AllowedNodes::Range {
                        min: 1,
                        max: f.max_useful_nodes(),
                    },
                })
                .collect();
            let spec = FlatSpec {
                components,
                total_nodes: fragments as i64 * 8,
                objective: Objective::MinMax,
            };
            let model = build_flat_model(&spec);
            let sol = solve_model_with(
                &model.problem,
                SolverBackend::OuterApproximation,
                &MinlpOptions::default(),
            );
            let case = format!("{fragments} fragments, heterogeneity {het}");
            assert_eq!(sol.status, MinlpStatus::Optimal, "{case}");
            let got = model.allocation(&spec, &sol).makespan();
            let exact = solve_minmax_waterfill(&spec)
                .expect("waterfill feasible")
                .makespan();
            assert!(
                (got - exact).abs() <= 1e-6 * exact.abs(),
                "{case}: OA makespan {got} vs waterfill {exact}"
            );
            assert!(
                sol.stats.factor_updates > 0,
                "{case}: master LPs recorded no eta updates ({:?})",
                sol.stats
            );
        }
    }
}
