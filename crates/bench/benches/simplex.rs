//! LP substrate microbenchmark: the master-problem shapes OA produces.

use hslb_bench::perf::master_like_lp;
use hslb_bench::timing::Runner;
use hslb_lp::solve;

fn main() {
    let runner = Runner::from_args("simplex_master_lp");
    for cols in [64usize, 256, 1024] {
        let lp = master_like_lp(cols, 24);
        runner.case(&format!("{cols}"), || {
            let sol = solve(&lp);
            assert!(sol.is_optimal());
            sol.objective
        });
    }
}
