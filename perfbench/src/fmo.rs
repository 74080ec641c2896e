//! `fmo_alloc`: the title paper's domain. Seeded fragment clusters become
//! min–max flat specs, solved by the OA backend, checked against the exact
//! waterfill.

use hslb::{
    build_flat_model, solve_minmax_waterfill, solve_model_with, AllowedNodes, ComponentSpec,
    FlatAllocation, FlatSpec, Objective, SolverBackend,
};
use hslb_fmo_sim::generate_cluster;
use hslb_minlp::{MinlpOptions, MinlpStatus, SolveStats};
use hslb_rng::{hash_mix, Rng};

use crate::bench::agrees;
use crate::pool::PoolWorkload;
use crate::trace::Tracer;

/// Fragment counts and heterogeneities of the pool. 128-fragment clusters
/// are left out: their solves run to half a second and a few of them would
/// set a run's percentiles.
const FRAGMENTS: [usize; 4] = [32, 48, 64, 96];
const HETEROGENEITY: [f64; 3] = [0.5, 0.75, 1.0];
/// Seeded clusters per stratum (fragment count × heterogeneity).
const REPLICAS: usize = 32;
/// Nodes per fragment. At 4 the tree of a single 96-fragment instance can
/// run to thousands of nodes and tens of seconds; at 8 the tail stays
/// bounded.
const NODES_PER_FRAGMENT: i64 = 8;
/// OA makespan and the exact waterfill must agree this closely.
const REL_TOL: f64 = 1e-6;

pub struct Entry {
    label: String,
    spec: FlatSpec,
}

pub struct Answer {
    alloc: FlatAllocation,
    stats: SolveStats,
}

pub struct FmoAlloc;

/// Min–max flat spec over a cluster's true per-fragment models.
pub fn cluster_spec(
    fragments: usize,
    heterogeneity: f64,
    seed: u64,
    per_fragment: i64,
) -> FlatSpec {
    let components = generate_cluster(fragments, heterogeneity, seed)
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
    FlatSpec {
        components,
        total_nodes: fragments as i64 * per_fragment,
        objective: Objective::MinMax,
    }
}

impl PoolWorkload for FmoAlloc {
    type Entry = Entry;
    type Answer = Answer;

    fn pool(&self, seed: u64) -> Vec<Entry> {
        let mut rng = Rng::new(hash_mix(&[seed, 0xF30]));
        let mut pool = Vec::new();
        for _ in 0..REPLICAS {
            for k in FRAGMENTS {
                for h in HETEROGENEITY {
                    let cluster_seed = rng.next_u64();
                    pool.push(Entry {
                        label: format!("{k}frag/h{h}/{cluster_seed:016x}"),
                        spec: cluster_spec(k, h, cluster_seed, NODES_PER_FRAGMENT),
                    });
                }
            }
        }
        pool
    }

    /// One small cluster: larger ones would make each set-up hundreds of
    /// milliseconds.
    fn warm_up_entries(&self) -> Vec<Entry> {
        vec![Entry {
            label: "warm-up".to_string(),
            spec: cluster_spec(FRAGMENTS[0], HETEROGENEITY[0], 0, NODES_PER_FRAGMENT),
        }]
    }

    fn label(&self, entry: &Entry) -> String {
        entry.label.clone()
    }

    fn allocate(&self, entry: &Entry, tracer: &mut Tracer) -> Result<Answer, String> {
        let model = tracer.span("core.build", |_| build_flat_model(&entry.spec));
        let sol = tracer.span("minlp.solve", |_| {
            solve_model_with(
                &model.problem,
                SolverBackend::OuterApproximation,
                &MinlpOptions::default(),
            )
        });
        if sol.status != MinlpStatus::Optimal {
            return Err(format!("OA ended {:?}", sol.status));
        }
        Ok(Answer {
            alloc: model.allocation(&entry.spec, &sol),
            stats: sol.stats,
        })
    }

    fn same(&self, a: &Answer, b: &Answer) -> bool {
        a.alloc == b.alloc && a.stats == b.stats
    }

    fn stats(&self, answer: &Answer) -> SolveStats {
        answer.stats
    }

    fn check(&self, entry: &Entry, answer: &Answer) -> Result<f64, String> {
        let spec = &entry.spec;
        let used: u64 = answer.alloc.nodes.iter().sum();
        if used > spec.total_nodes as u64 {
            return Err(format!("{used} nodes used of {}", spec.total_nodes));
        }
        for (n, c) in answer.alloc.nodes.iter().zip(&spec.components) {
            if !c.allowed.contains(*n as i64) {
                return Err(format!("{} got {n} nodes, outside its range", c.name));
            }
        }
        let exact = solve_minmax_waterfill(spec)
            .ok_or("waterfill found no feasible allocation")?
            .makespan();
        let got = answer.alloc.makespan();
        if !agrees(got, exact, REL_TOL) {
            return Err(format!("makespan {got} disagrees with waterfill {exact}"));
        }
        Ok(got / exact)
    }
}
