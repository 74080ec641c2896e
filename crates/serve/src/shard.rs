//! One worker's slice of server state and the per-request handlers.
//!
//! A shard owns a fingerprint-keyed [`ShardCache`], the observation store
//! for the components routed to it, and its own counter sets. Handlers are
//! plain `&mut self` methods — concurrency lives entirely in the server
//! layer, so everything here is deterministic and directly drivable by
//! the synchronous [`Engine`](crate::Engine) that benches and tests use.
//!
//! Counter discipline: every handler returns its reply together with the
//! exact [`ServeStats`] delta it merged into the shard aggregate, so
//! `shard.stats` always equals the sum of the `served` blocks of every
//! reply the shard ever produced (the soak test pins this).

use std::collections::BTreeMap;

use hslb::{build_flat_model, FlatModel, FlatSpec};
use hslb_minlp::{presolved, solve_nlp_bnb_seeded, MinlpOptions, MinlpSolution, MinlpStatus};
use hslb_nlp::WarmStart;
use hslb_obs::{ServeStats, SolveStats};
use hslb_perfmodel::{fit, ScalingData};

use crate::cache::{CacheEntry, ShardCache};
use crate::fingerprint::fingerprint;
use crate::protocol::{validate_spec, Body, ErrorKind, Response, Source};

/// Cap on stored observations per component: a long-running daemon must
/// not grow without bound on ingest traffic. Oldest points are dropped
/// first (scaling data drifts; recent observations are the signal).
const MAX_POINTS_PER_COMPONENT: usize = 4096;

/// Per-shard configuration.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// LRU capacity (entries). 0 disables caching.
    pub cache_cap: usize,
    /// Base solver options; per-request deadlines override `time_limit`.
    /// The embedded clock is the server's time source.
    pub solver: MinlpOptions,
}

impl Default for ShardOptions {
    fn default() -> ShardOptions {
        ShardOptions {
            cache_cap: 64,
            solver: MinlpOptions::default(),
        }
    }
}

/// A solve request's deadline state at the moment it is dequeued.
#[derive(Debug, Clone, Copy)]
pub enum BudgetState {
    /// No deadline requested.
    Unlimited,
    /// The budget ran out while the request sat in the queue: answer
    /// `time_limit` with zero solve work and zero solver clock reads.
    Expired,
    /// Seconds of budget left for the solve itself.
    Remaining(f64),
}

/// One worker's state: cache, observations, counters.
#[derive(Debug)]
pub struct Shard {
    cache: ShardCache,
    observations: BTreeMap<String, Vec<(u64, f64)>>,
    /// Aggregate serving counters (sum of all returned `served` deltas).
    pub stats: ServeStats,
    /// Aggregate solver work done on this shard.
    pub solver_stats: SolveStats,
    solver: MinlpOptions,
}

impl Shard {
    pub fn new(opts: ShardOptions) -> Shard {
        Shard {
            cache: ShardCache::new(opts.cache_cap),
            observations: BTreeMap::new(),
            stats: ServeStats::default(),
            solver_stats: SolveStats::default(),
            solver: opts.solver,
        }
    }

    /// Merges a counter delta produced outside a handler (coalesced
    /// followers, server-level sheds) into the shard aggregate.
    pub fn record(&mut self, delta: &ServeStats) {
        self.stats.merge(delta);
    }

    /// Handles a solve request whose deadline state was already resolved
    /// by the queueing layer.
    pub fn solve(&mut self, spec: &FlatSpec, budget: BudgetState) -> Response {
        let mut served = ServeStats {
            queries: 1,
            ..ServeStats::default()
        };
        let body = self.solve_body(spec, budget, &mut served);
        self.stats.merge(&served);
        Response { served, body }
    }

    fn solve_body(
        &mut self,
        spec: &FlatSpec,
        budget: BudgetState,
        served: &mut ServeStats,
    ) -> Body {
        if let Err(message) = validate_spec(spec) {
            served.errors += 1;
            return Body::Error {
                kind: ErrorKind::Invalid,
                message,
            };
        }
        if matches!(budget, BudgetState::Expired) {
            // The latent edge the server must not expose to the solver: an
            // already-expired request does zero work and — because the
            // solver is never entered — zero clock reads (the `Deadline`
            // pre-spent path pins the same property one layer down).
            served.expired_in_queue += 1;
            return Body::Allocation {
                status: MinlpStatus::TimeLimit,
                nodes: Vec::new(),
                times: Vec::new(),
                objective: f64::INFINITY,
                makespan: f64::INFINITY,
                work: SolveStats::default(),
                source: Source::Cold,
            };
        }
        let fp = fingerprint(spec);
        let seed = match self.cache.get(fp.structure) {
            Some(entry) if entry.coeffs == fp.coeffs => {
                // Exact instance: replay the stored answer verbatim.
                served.cache_hits += 1;
                return entry.body.clone();
            }
            Some(entry) => {
                // Same structure, drifted coefficients: warm re-solve from
                // the cached solution (advisory — repair failure falls back
                // to the cold path inside the solver, answers unchanged).
                served.cache_hits += 1;
                served.warm_seeded += 1;
                Some(WarmStart::new(entry.x.clone(), Vec::new()))
            }
            None => None,
        };
        served.solves += 1;
        let source = if seed.is_some() {
            Source::Warm
        } else {
            Source::Cold
        };
        let time_limit = match budget {
            BudgetState::Remaining(secs) => Some(secs),
            BudgetState::Unlimited | BudgetState::Expired => None,
        };
        let (sol, model) = self.run_solver(spec, seed, time_limit);
        self.solver_stats.merge(&sol.stats);
        let body = allocation_body(spec, &model, &sol, source);
        if sol.status == MinlpStatus::Optimal {
            // Cache only optimal answers: truncated ones depend on the
            // budget, infeasible ones carry no seed point. The stored body
            // is rewritten to `source: cache` so replays are verbatim.
            let cached_body = allocation_body(spec, &model, &sol, Source::Cache);
            served.evictions += self.cache.put(
                fp.structure,
                CacheEntry {
                    coeffs: fp.coeffs,
                    x: sol.x.clone(),
                    body: cached_body,
                    work: sol.stats,
                },
            );
        }
        body
    }

    /// Builds, presolves and solves the model. Mirrors
    /// `hslb::solve_model_with` but pins the NLP tree (valid for convex
    /// and nonconvex specs alike, and the backend the root-seed entry
    /// point exists for) and threads the warm seed through.
    fn run_solver(
        &self,
        spec: &FlatSpec,
        seed: Option<WarmStart>,
        time_limit: Option<f64>,
    ) -> (MinlpSolution, FlatModel) {
        let model = build_flat_model(spec);
        let mut opts = self.solver.clone();
        opts.time_limit = time_limit;
        let sol = match presolved(&model.problem, 8) {
            None => MinlpSolution::infeasible(SolveStats::default()),
            Some((reduced, tightenings)) => {
                let mut sol = solve_nlp_bnb_seeded(&reduced, &opts, seed);
                sol.stats.presolve_tightenings += tightenings as u64;
                sol
            }
        };
        (sol, model)
    }

    /// Appends observations for a component; returns the count accepted.
    pub fn observe(&mut self, component: &str, points: &[(u64, f64)]) -> Response {
        let mut served = ServeStats {
            queries: 1,
            ..ServeStats::default()
        };
        let body = match self.ingest(component, points) {
            Ok(accepted) => Body::Ack {
                component: component.to_string(),
                accepted,
            },
            Err(message) => {
                served.errors += 1;
                Body::Error {
                    kind: ErrorKind::Invalid,
                    message,
                }
            }
        };
        self.stats.merge(&served);
        Response { served, body }
    }

    /// Raw ingest without reply bookkeeping — the micro-batch layer uses
    /// this to merge a whole group of compatible observe requests into
    /// one store operation.
    pub fn ingest(&mut self, component: &str, points: &[(u64, f64)]) -> Result<usize, String> {
        for &(nodes, seconds) in points {
            if nodes == 0 {
                return Err(format!("{component}: observation with zero nodes"));
            }
            if !seconds.is_finite() || seconds < 0.0 {
                return Err(format!(
                    "{component}: non-finite or negative seconds at n={nodes}"
                ));
            }
        }
        let store = self.observations.entry(component.to_string()).or_default();
        store.extend_from_slice(points);
        if store.len() > MAX_POINTS_PER_COMPONENT {
            let drop = store.len() - MAX_POINTS_PER_COMPONENT;
            store.drain(..drop);
        }
        Ok(points.len())
    }

    /// Fits the paper's model to a component's observations.
    pub fn fit(&mut self, component: &str) -> Response {
        let mut served = ServeStats {
            queries: 1,
            ..ServeStats::default()
        };
        let body = match self.observations.get(component) {
            None => {
                served.errors += 1;
                Body::Error {
                    kind: ErrorKind::UnknownComponent,
                    message: format!("no observations ingested for {component:?}"),
                }
            }
            Some(points) => {
                let data = ScalingData::from_pairs(points.iter().copied());
                match fit(&data) {
                    Ok(report) => {
                        self.solver_stats.lm_steps += report.lm_steps as u64;
                        Body::Model {
                            component: component.to_string(),
                            model: report.model,
                            points: points.len(),
                        }
                    }
                    Err(e) => {
                        served.errors += 1;
                        Body::Error {
                            kind: ErrorKind::Invalid,
                            message: format!("{component}: {e}"),
                        }
                    }
                }
            }
        };
        self.stats.merge(&served);
        Response { served, body }
    }

    /// Liveness probe (counted as an admitted query).
    pub fn ping(&mut self) -> Response {
        let served = ServeStats {
            queries: 1,
            ..ServeStats::default()
        };
        self.stats.merge(&served);
        Response {
            served,
            body: Body::Pong,
        }
    }

    /// Cache entries currently held (observability/test hook).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

/// Extracts the wire answer from a solve.
fn allocation_body(
    spec: &FlatSpec,
    model: &FlatModel,
    sol: &MinlpSolution,
    source: Source,
) -> Body {
    let (nodes, times) = if sol.x.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        let alloc = model.allocation(spec, sol);
        (alloc.nodes, alloc.times)
    };
    let makespan = times.iter().fold(
        if times.is_empty() { f64::INFINITY } else { 0.0 },
        |m: f64, &t| m.max(t),
    );
    Body::Allocation {
        status: sol.status,
        nodes,
        times,
        objective: sol.objective,
        makespan,
        work: sol.stats,
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb::{ComponentSpec, Objective};
    use hslb_perfmodel::PerfModel;

    fn spec() -> FlatSpec {
        FlatSpec {
            components: vec![
                ComponentSpec::new("f1", PerfModel::amdahl(120.0, 0.0), 1, 64),
                ComponentSpec::new("f2", PerfModel::amdahl(360.0, 0.0), 1, 64),
                ComponentSpec::new("f3", PerfModel::amdahl(60.0, 0.0), 1, 64),
            ],
            total_nodes: 18,
            objective: Objective::MinMax,
        }
    }

    fn alloc_parts(body: &Body) -> (MinlpStatus, Vec<u64>, SolveStats, Source) {
        match body {
            Body::Allocation {
                status,
                nodes,
                work,
                source,
                ..
            } => (*status, nodes.clone(), *work, *source),
            other => panic!("expected allocation, got {other:?}"),
        }
    }

    #[test]
    fn cold_then_cache_then_warm() {
        let mut shard = Shard::new(ShardOptions::default());

        let first = shard.solve(&spec(), BudgetState::Unlimited);
        let (status, nodes, work, source) = alloc_parts(&first.body);
        assert_eq!(status, MinlpStatus::Optimal);
        assert_eq!(nodes, vec![4, 12, 2]);
        assert_eq!(source, Source::Cold);
        assert!(work.nlp_solves > 0);
        assert_eq!(first.served.solves, 1);
        assert_eq!(first.served.cache_hits, 0);

        // Exact re-query: replayed, zero new solver work on the shard.
        let solver_before = shard.solver_stats;
        let second = shard.solve(&spec(), BudgetState::Unlimited);
        let (_, nodes2, work2, source2) = alloc_parts(&second.body);
        assert_eq!(nodes2, nodes);
        assert_eq!(work2, work, "replayed work counters are the producer's");
        assert_eq!(source2, Source::Cache);
        assert_eq!(second.served.cache_hits, 1);
        assert_eq!(second.served.solves, 0);
        assert_eq!(shard.solver_stats, solver_before, "no new solve happened");

        // Drifted coefficients: warm-seeded re-solve.
        let mut drifted = spec();
        for c in &mut drifted.components {
            c.model.a *= 1.02;
        }
        let third = shard.solve(&drifted, BudgetState::Unlimited);
        let (status3, nodes3, work3, source3) = alloc_parts(&third.body);
        assert_eq!(status3, MinlpStatus::Optimal);
        assert_eq!(source3, Source::Warm);
        assert_eq!(third.served.cache_hits, 1);
        assert_eq!(third.served.warm_seeded, 1);
        assert_eq!(third.served.solves, 1);
        assert!(work3.warm_start_hits > 0, "root seed must be accepted");
        assert_eq!(nodes3, nodes, "2% uniform drift keeps the optimum");
    }

    #[test]
    fn expired_budget_answers_time_limit_with_zero_work() {
        let mut shard = Shard::new(ShardOptions::default());
        let reply = shard.solve(&spec(), BudgetState::Expired);
        let (status, nodes, work, _) = alloc_parts(&reply.body);
        assert_eq!(status, MinlpStatus::TimeLimit);
        assert!(nodes.is_empty());
        assert_eq!(work, SolveStats::default());
        assert_eq!(reply.served.expired_in_queue, 1);
        assert_eq!(shard.solver_stats, SolveStats::default());
    }

    #[test]
    fn invalid_spec_is_a_structured_error() {
        let mut shard = Shard::new(ShardOptions::default());
        let mut bad = spec();
        bad.total_nodes = 2; // < k: the model builder would panic
        let reply = shard.solve(&bad, BudgetState::Unlimited);
        assert!(matches!(
            reply.body,
            Body::Error {
                kind: ErrorKind::Invalid,
                ..
            }
        ));
        assert_eq!(reply.served.errors, 1);
    }

    #[test]
    fn observe_then_fit_recovers_model() {
        let mut shard = Shard::new(ShardOptions::default());
        let truth = PerfModel::amdahl(100.0, 0.05);
        let points: Vec<(u64, f64)> = [1u64, 2, 4, 8, 16, 32]
            .iter()
            .map(|&n| (n, truth.eval(n as f64)))
            .collect();
        let ack = shard.observe("dyn", &points);
        assert!(matches!(ack.body, Body::Ack { accepted: 6, .. }));

        let fitted = shard.fit("dyn");
        match fitted.body {
            Body::Model { model, points, .. } => {
                assert_eq!(points, 6);
                assert!((model.eval(8.0) - truth.eval(8.0)).abs() < 1e-3);
            }
            other => panic!("expected model, got {other:?}"),
        }

        let missing = shard.fit("nope");
        assert!(matches!(
            missing.body,
            Body::Error {
                kind: ErrorKind::UnknownComponent,
                ..
            }
        ));
    }

    #[test]
    fn stats_equal_sum_of_served_deltas() {
        let mut shard = Shard::new(ShardOptions::default());
        let mut sum = ServeStats::default();
        sum.merge(&shard.solve(&spec(), BudgetState::Unlimited).served);
        sum.merge(&shard.solve(&spec(), BudgetState::Unlimited).served);
        sum.merge(&shard.observe("c", &[(4, 10.0)]).served);
        sum.merge(&shard.fit("c").served); // too few points: error path
        sum.merge(&shard.ping().served);
        assert_eq!(shard.stats, sum);
    }
}
