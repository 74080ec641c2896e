//! Shared pieces of the four workloads: the outcome every workload returns,
//! the seeded pass loop, statistics and the solver-layer metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hslb_json::Json;
use hslb_obs::SolveStats;
use hslb_rng::{hash_mix, Rng};

use crate::trace::Span;

/// Run settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One per-layer value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct LayerValue {
    pub value: f64,
    pub samples: usize,
}

/// Everything one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Time of each set-up repetition, seconds; `setup_s` is the median.
    pub setup_s: Vec<f64>,
    /// Untraced allocation latencies, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Traced allocation latencies (traced run only), milliseconds.
    pub traced_ms: Vec<f64>,
    /// Wall time of the measured loop, seconds: the base of `allocs_per_s`.
    pub measured_s: f64,
    /// Peak resident set size read right after the measured loop, before
    /// the checks and counter replays, MB.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    /// One message per failed allocation (error, wrong answer or refusal).
    pub failures: Vec<String>,
    /// Returned objective over the independent reference's objective.
    pub ratios: Vec<f64>,
    /// Deterministic work counters of one fixed slice of the workload.
    pub counters: Vec<(String, u64)>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, LayerValue>,
    /// Extra facts for the result file (per-kind latencies, check time, …).
    pub notes: Vec<(String, Json)>,
    pub spans: Vec<Span>,
    /// Wall time spent checking answers, outside the measured region.
    pub check_s: f64,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.layers.insert(name, LayerValue { value, samples });
    }
}

/// Visits pool entries until `seconds` have elapsed. Each pass visits every
/// entry once in a freshly shuffled order; the loop stops as soon as the
/// time is up, so a run samples the pool without replacement before it
/// repeats an entry. `visit(entry, alloc_id)` is called once per step;
/// returns the wall time of the loop.
pub fn run_passes(
    seed: u64,
    pool_len: usize,
    seconds: f64,
    mut visit: impl FnMut(usize, u64),
) -> f64 {
    let mut rng = Rng::new(hash_mix(&[seed, 0x9A55]));
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut alloc = 0u64;
    loop {
        let mut order: Vec<usize> = (0..pool_len).collect();
        rng.shuffle(&mut order);
        for entry in order {
            visit(entry, alloc);
            alloc += 1;
            if start.elapsed() >= budget {
                return start.elapsed().as_secs_f64();
            }
        }
    }
}

/// Times `f` once, returning its value and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Relative agreement used by every answer check.
pub fn agrees(value: f64, reference: f64, rel: f64) -> bool {
    (value - reference).abs() <= rel * reference.abs().max(1.0)
}

/// The solver-layer metrics derived from aggregate [`SolveStats`] over
/// `allocs` allocations that spent `solve_ms` milliseconds in the solver.
/// Per-allocation counts are exact; the `us_per_*` unit costs are derived.
pub fn solver_layers(out: &mut Outcome, stats: &SolveStats, allocs: usize, solve_ms: f64) {
    let n = allocs.max(1) as f64;
    let per = |v: u64| v as f64 / n;
    let solve_us = solve_ms * 1e3;
    out.layer("minlp.solve.ms", solve_ms / n, allocs);
    out.layer("minlp.nodes_opened", per(stats.nodes_opened), allocs);
    out.layer(
        "minlp.prune_ratio",
        ratio(
            (stats.pruned_by_bound + stats.pruned_infeasible) as f64,
            stats.nodes_opened as f64,
        ),
        allocs,
    );
    out.layer("minlp.oa_cuts", per(stats.oa_cuts), allocs);
    out.layer(
        "minlp.us_per_node",
        ratio(solve_us, stats.nodes_opened as f64),
        allocs,
    );
    out.layer(
        "minlp.warm_start_hit_ratio",
        ratio(
            stats.warm_start_hits as f64,
            (stats.nlp_solves + stats.lp_solves) as f64,
        ),
        allocs,
    );
    out.layer("nlp.nlp_solves", per(stats.nlp_solves), allocs);
    out.layer("nlp.newton_iters", per(stats.newton_iters), allocs);
    out.layer(
        "nlp.backtracks_per_newton",
        ratio(
            stats.line_search_backtracks as f64,
            stats.newton_iters as f64,
        ),
        allocs,
    );
    out.layer(
        "nlp.us_per_newton",
        ratio(solve_us, stats.newton_iters as f64),
        allocs,
    );
    out.layer("lp.lp_solves", per(stats.lp_solves), allocs);
    out.layer("lp.simplex_pivots", per(stats.simplex_pivots), allocs);
    out.layer("lp.dual_pivots", per(stats.dual_pivots), allocs);
    out.layer(
        "lp.us_per_pivot",
        ratio(solve_us, stats.simplex_pivots as f64),
        allocs,
    );
    out.layer("linalg.factorizations", per(stats.factorizations), allocs);
    out.layer("linalg.factor_updates", per(stats.factor_updates), allocs);
    out.layer("linalg.fill_nnz", per(stats.fill_nnz), allocs);
}

/// Named [`SolveStats`] counters, for the determinism block.
pub fn stats_counters(prefix: &str, stats: &SolveStats) -> Vec<(String, u64)> {
    stats
        .fields()
        .into_iter()
        .map(|(name, v)| (format!("{prefix}{name}"), v))
        .collect()
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn passes_stop_when_time_is_up() {
        let mut seen = Vec::new();
        run_passes(7, 5, 0.0, |e, id| seen.push((e, id)));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].1, 0);
    }
}
