//! E10 support: FMO allocation cost — exact waterfill vs branch-and-bound.

use hslb::{build_flat_model, solve_minmax_waterfill};
use hslb_bench::harness::fmo_cluster_spec;
use hslb_bench::timing::Runner;

fn main() {
    let runner = Runner::from_args("fmo_allocation");
    for fragments in [16usize, 64, 256, 1024] {
        let spec = fmo_cluster_spec(fragments, 0.8, 11, (fragments as i64) * 8);
        runner.case(&format!("waterfill_exact/{fragments}"), || {
            solve_minmax_waterfill(&spec).expect("feasible")
        });
        // B&B only at sizes it handles comfortably (a 64-fragment tree
        // already costs seconds per solve; the exact waterfill stays in
        // microseconds — which is the point of this comparison).
        if fragments <= 16 {
            let model = build_flat_model(&spec);
            runner.case(&format!("bnb_oa/{fragments}"), || {
                hslb::solve_model(&model.problem, hslb::SolverBackend::default())
            });
        }
    }
}
