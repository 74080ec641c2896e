//! Regenerates the paper's tables and figures from the simulator.
//!
//! ```text
//! tables -- all                # everything below, in order
//! tables -- fig2               # E1: 1° scaling curves + fitted parameters
//! tables -- table3-1deg        # E2: Table III blocks 1-2
//! tables -- table3-eighth      # E3: Table III blocks 3-4
//! tables -- table3-uncon       # E4: Table III blocks 5-6
//! tables -- fig3               # E5: 1/8° manual vs predicted vs actual
//! tables -- fig4               # E6: layouts 1-3 predicted scaling (1°)
//! tables -- solver-time        # E7: MINLP solve time at 40,960 nodes
//! tables -- warm-start         # E7b: warm vs cold solves (counters + wall clock)
//! tables -- sos-ablation       # E8: SOS branching vs binary encoding (~2 min)
//! tables -- objectives         # E9: min-max vs max-min vs min-sum
//! tables -- fmo                # E10: FMO HSLB vs baselines (title paper)
//! tables -- layouts            # E11: layout semantics validation
//! tables -- sparse             # E15: sparse-LU simplex at netlib scale
//! ```

use hslb_bench::harness::*;
use hslb_bench::perf::{solve_netlib_like, time_netlib_like, SPARSE_LP_SIZES};
use hslb_cesm_sim::Scenario;

const SEED: u64 = hslb_rng::seeds::CESM;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "all" => {
            for c in [
                "fig2",
                "table3-1deg",
                "table3-eighth",
                "table3-uncon",
                "fig3",
                "fig4",
                "solver-time",
                "warm-start",
                "sos-ablation",
                "objectives",
                "fmo",
                "layouts",
                "tsync",
                "advisor",
                "models",
                "sparse",
            ] {
                run(c);
                println!();
            }
        }
        other => run(other),
    }
}

fn run(cmd: &str) {
    match cmd {
        "fig2" => {
            let curves = fig2_scaling_curves(&Scenario::one_degree(2048), SEED);
            print!("{}", render_fig2(&curves));
        }
        "table3-1deg" => {
            for n in [128, 2048] {
                let block = table3_block(&Scenario::one_degree(n), SEED);
                print!("{}", block.report.render());
                print_solver_stats(&block);
            }
        }
        "table3-eighth" => {
            for n in [8192, 32_768] {
                let block = table3_block(&Scenario::eighth_degree(n), SEED);
                print!("{}", block.report.render());
                print_solver_stats(&block);
            }
        }
        "table3-uncon" => {
            for n in [8192, 32_768] {
                let block = table3_block(&Scenario::eighth_degree_unconstrained(n), SEED);
                print!("{}", block.report.render());
                print_solver_stats(&block);
            }
        }
        "fig3" => {
            let pts = fig3_series(&[8192, 16_384, 32_768], SEED);
            print!("{}", render_fig3(&pts));
        }
        "fig4" => {
            let pts = fig4_series(&[128, 256, 512, 1024, 2048], SEED);
            print!("{}", render_fig4(&pts));
        }
        "solver-time" => {
            println!("# E7 — MINLP solve time, 1° layout 1, full Intrepid (40,960 nodes)");
            println!("paper: \"the MINLP for 40960 nodes took less than 60 seconds on one core\"");
            for r in solve_time_report(40_960) {
                println!(
                    "{:<22} {:>9.3} s   {:>6} B&B nodes   objective {:.3}",
                    r.backend, r.seconds, r.bnb_nodes, r.objective
                );
            }
        }
        "warm-start" => {
            let pts = warm_cold_report(40_960);
            print!("{}", render_warm_cold(&pts));
        }
        "sos-ablation" => {
            let mut pts = sos_ablation(&[8, 32, 128, 512]);
            pts.push(sos_ablation_paper_instance());
            print!("{}", render_sos(&pts));
        }
        "objectives" => {
            let reps = objective_comparison(128, SEED);
            print!("{}", render_objectives(&reps));
        }
        "fmo" => {
            let cells = [
                (16, 0.0),
                (16, 0.5),
                (16, 1.0),
                (64, 0.0),
                (64, 0.5),
                (64, 1.0),
                (256, 0.5),
                (256, 1.0),
            ];
            let pts = fmo_sweep(&cells, 6, SEED);
            print!("{}", render_fmo(&pts));
        }
        "tsync" => {
            let pts = tsync_study(128, &[50.0, 20.0, 5.0, 1.0]);
            print!("{}", render_tsync(&pts));
        }
        "advisor" => {
            print!("{}", render_advisor(8192));
        }
        "models" => {
            let rows = model_selection(&Scenario::one_degree(2048), SEED);
            print!("{}", render_model_selection(&rows));
        }
        "layouts" => {
            println!("# E11 — layout (1) semantics: closed form vs day-stepped simulation");
            for (alloc, formula, simulated) in layout_semantics_check(SEED) {
                println!(
                    "{alloc}: formula {formula:.2} s, simulated {simulated:.2} s ({:+.1}%)",
                    100.0 * (simulated - formula) / formula
                );
            }
        }
        "sparse" => {
            println!("# E15 — sparse-LU simplex on seeded netlib-style LPs");
            println!("# (every optimum certified from its own duals)");
            println!(
                "{:<14} {:>8} {:>8} {:>8} {:>10} {:>10}",
                "instance", "pivots", "refact", "etas", "fill_nnz", "seconds"
            );
            for (n, m) in SPARSE_LP_SIZES {
                let stats = solve_netlib_like(n, m);
                let seconds = time_netlib_like(n, m);
                println!(
                    "{:<14} {:>8} {:>8} {:>8} {:>10} {:>10.3}",
                    format!("netlib n={n}"),
                    stats.simplex_pivots,
                    stats.factorizations,
                    stats.factor_updates,
                    stats.fill_nnz,
                    seconds,
                );
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'; see the doc comment in tables.rs");
            std::process::exit(2);
        }
    }
}

fn print_solver_stats(block: &Table3Block) {
    println!(
        "solver: {} B&B nodes, {} NLP solves, {} LP solves, {} OA cuts\n",
        block.solver_nodes, block.nlp_solves, block.lp_solves, block.cuts
    );
}
