//! Serving-layer counter suite: the `serve` section of `BENCH_solver.json`.
//!
//! Same philosophy as [`crate::perf`]: wall-clock timings cannot gate CI,
//! so every case here drives the *synchronous* [`hslb_serve::Engine`] under
//! a [`FakeClock`] and records only deterministic counters — the server's
//! [`ServeStats`] (cache hits, coalesces, sheds, queue expiries), the
//! aggregate solver [`SolveStats`] behind them, and a deterministic p99
//! "latency": budgeted requests read the fake clock once per admission and
//! once per branch-and-bound node, and the clock advances a fixed step per
//! read, so the per-dispatch elapsed fake time is an exact, replayable work
//! distribution. Two runs of the suite are bit-identical.
//!
//! The only wall-clock measurement in this module is
//! [`measure_serve_qps`], used by the `hslb-perf --serve-qps` gate and
//! never by the counter baseline.

use hslb::{AllowedNodes, ComponentSpec, FlatSpec, Objective};
use hslb_json::Json;
use hslb_minlp::{MinlpOptions, SolveStats};
use hslb_obs::{Clock, ClockHandle, FakeClock, ServeStats};
use hslb_perfmodel::PerfModel;
use hslb_rng::{hash_mix, Rng};
use hslb_serve::protocol::Request;
use hslb_serve::{Engine, EngineOptions, Job, Server, ServerOptions};

/// One pinned serving workload and the counters it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePerfCase {
    pub name: String,
    /// Server-side counters at quiescence.
    pub serve: ServeStats,
    /// Aggregate solver work behind the served answers.
    pub work: SolveStats,
    /// 99th percentile of per-dispatch fake-clock ticks (one tick per
    /// clock read: admission plus one per B&B node under a deadline), a
    /// deterministic latency proxy. Zero when the case is unbudgeted.
    pub p99_ticks: u64,
}

/// Fake-clock step per read. One unit per read keeps tick counts integral.
const TICK: f64 = 1.0;

/// A budget far beyond any solve in the suite: deadlines are *checked*
/// (that is what makes the clock tick) but never expire.
const NEVER_EXPIRES: f64 = 1e12;

/// Pinned base spec `v`: structures differ in component count and budget,
/// coefficients are a pure function of `v`.
fn base_spec(v: u64) -> FlatSpec {
    let mut rng = Rng::new(hash_mix(&[0xBE9C_5E12, v]));
    let k = 2 + (v % 3) as usize;
    let total = 24 + 8 * v as i64;
    FlatSpec {
        components: (0..k)
            .map(|i| ComponentSpec {
                name: format!("b{v}_c{i}"),
                model: PerfModel::amdahl(rng.f64_range(50.0, 500.0), rng.f64_range(0.5, 4.0)),
                allowed: AllowedNodes::Range { min: 1, max: total },
            })
            .collect(),
        total_nodes: total,
        objective: Objective::MinMax,
    }
}

fn engine(shards: usize, cache_cap: usize, fake: &FakeClock) -> Engine {
    let solver = MinlpOptions {
        clock: ClockHandle::fake(fake),
        ..MinlpOptions::default()
    };
    Engine::new(EngineOptions {
        shards,
        cache_cap,
        solver,
    })
}

/// `ceil(0.99 n)`-th order statistic (the usual inclusive p99).
fn p99(mut samples: Vec<u64>) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (samples.len() * 99).div_ceil(100);
    samples[rank - 1]
}

/// Mixed single-shard traffic: cold solves, verbatim replays, drifted
/// warm re-solves, observation ingest, fits, pings, and one unknown
/// component (the error path). Solves carry a never-expiring deadline so
/// each dispatch's fake-clock ticks trace its solver work.
fn mixed_case() -> ServePerfCase {
    let fake = FakeClock::new(TICK);
    let mut engine = engine(1, 64, &fake);
    let observed = PerfModel::amdahl(220.0, 1.75);
    let mut ticks = Vec::new();
    for i in 0..96u64 {
        let request = match i % 8 {
            0..=2 => Request::Solve {
                spec: base_spec(i % 4),
                budget: Some(NEVER_EXPIRES),
            },
            3 => {
                let mut spec = base_spec(i % 4);
                let drift = 1.0 + 3e-4 * (i + 1) as f64;
                for c in &mut spec.components {
                    c.model.a *= drift;
                }
                Request::Solve {
                    spec,
                    budget: Some(NEVER_EXPIRES),
                }
            }
            4 | 5 => Request::Observe {
                component: "telemetry".to_string(),
                points: vec![
                    (2 + i % 6, observed.eval((2 + i % 6) as f64)),
                    (12 + i % 4, observed.eval((12 + i % 4) as f64)),
                ],
            },
            6 => Request::Fit {
                component: if i % 16 == 6 {
                    "telemetry".to_string()
                } else {
                    // Unknown component: the structured-error path must
                    // stay on the latency ledger too.
                    "ghost".to_string()
                },
            },
            _ => Request::Ping,
        };
        let before = fake.now();
        let _ = engine.call(request);
        ticks.push(((fake.now() - before) / TICK).round() as u64);
    }
    let (serve, work) = engine.snapshot();
    ServePerfCase {
        name: "serve_mixed_1shard".to_string(),
        serve,
        work,
        p99_ticks: p99(ticks),
    }
}

/// One micro-batch on one shard: four identical solves (in-flight dedupe),
/// five observation-ingests over two components (coalesced into two model
/// refreshes), a stats probe, and a ping.
fn batch_case() -> ServePerfCase {
    let fake = FakeClock::new(TICK);
    let mut engine = engine(1, 16, &fake);
    let clock = engine.clock().clone();
    let observed = PerfModel::amdahl(140.0, 2.5);
    let mut jobs = Vec::new();
    for _ in 0..4 {
        jobs.push(Job::admit(
            Request::Solve {
                spec: base_spec(1),
                budget: None,
            },
            &clock,
        ));
    }
    for i in 0..5u64 {
        jobs.push(Job::admit(
            Request::Observe {
                component: format!("pool{}", i % 2),
                points: vec![(2 + i, observed.eval((2 + i) as f64))],
            },
            &clock,
        ));
    }
    jobs.push(Job::admit(Request::Stats, &clock));
    jobs.push(Job::admit(Request::Ping, &clock));
    let replies = engine.process_batch(0, &jobs);
    assert_eq!(replies.iter().flatten().count(), jobs.len());
    let (serve, work) = engine.snapshot();
    ServePerfCase {
        name: "serve_batch_dedupe".to_string(),
        serve,
        work,
        p99_ticks: 0,
    }
}

/// Deadline expiry in queue: budgeted solves admitted at t=0, the clock
/// jumped past every deadline before processing — each answers
/// `time_limit` with zero solver work.
fn deadline_case() -> ServePerfCase {
    let fake = FakeClock::new(0.0);
    let mut engine = engine(1, 16, &fake);
    let clock = engine.clock().clone();
    let jobs: Vec<Job> = (0..6u64)
        .map(|i| {
            Job::admit(
                Request::Solve {
                    spec: base_spec(i % 3),
                    budget: Some(0.25),
                },
                &clock,
            )
        })
        .collect();
    fake.advance(10.0);
    let replies = engine.process_batch(0, &jobs);
    assert_eq!(replies.iter().flatten().count(), jobs.len());
    let (serve, work) = engine.snapshot();
    ServePerfCase {
        name: "serve_deadline_expiry".to_string(),
        serve,
        work,
        p99_ticks: 0,
    }
}

/// LRU churn: four structures cycled twice through a two-entry cache —
/// every re-query misses again and evicts its successor's entry.
fn eviction_case() -> ServePerfCase {
    let fake = FakeClock::new(TICK);
    let mut engine = engine(1, 2, &fake);
    for round in 0..2 {
        for v in 0..4u64 {
            let _ = engine.call(Request::Solve {
                spec: base_spec(v),
                budget: None,
            });
            let _ = round;
        }
    }
    let (serve, work) = engine.snapshot();
    ServePerfCase {
        name: "serve_cache_churn".to_string(),
        serve,
        work,
        p99_ticks: 0,
    }
}

/// Runs the pinned serving suite. Order is fixed; names are stable.
pub fn serve_suite() -> Vec<ServePerfCase> {
    vec![mixed_case(), batch_case(), deadline_case(), eviction_case()]
}

/// Serializes the serve section (insertion order, integer counters —
/// byte-identical across runs).
pub fn serve_json_value(cases: &[ServePerfCase]) -> Json {
    Json::arr(cases.iter().map(|case| {
        Json::obj([
            ("name", Json::from(case.name.as_str())),
            ("p99_ticks", Json::from(case.p99_ticks)),
            (
                "serve",
                Json::obj(
                    case.serve
                        .fields()
                        .into_iter()
                        .map(|(name, value)| (name, Json::from(value))),
                ),
            ),
            (
                "work",
                Json::obj(
                    case.work
                        .fields()
                        .into_iter()
                        .map(|(name, value)| (name, Json::from(value))),
                ),
            ),
        ])
    }))
}

/// Parses the `serve` section of a baseline document. A missing section or
/// counter is an error: schema changes must regenerate the baseline.
pub fn serve_from_doc(doc: &Json) -> Result<Vec<ServePerfCase>, String> {
    let section = doc
        .get("serve")
        .and_then(Json::as_array)
        .ok_or("baseline missing the serve section; regenerate it with `hslb-perf`")?;
    let mut cases = Vec::with_capacity(section.len());
    for entry in section {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("serve entry missing name")?
            .to_string();
        let p99_ticks = entry
            .get("p99_ticks")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{name}: missing p99_ticks"))?;
        let read = |section: &str, field: &str| {
            entry
                .get(section)
                .and_then(|s| s.get(field))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing counter {section}.{field}"))
        };
        let serve = ServeStats {
            queries: read("serve", "queries")?,
            solves: read("serve", "solves")?,
            cache_hits: read("serve", "cache_hits")?,
            warm_seeded: read("serve", "warm_seeded")?,
            coalesced: read("serve", "coalesced")?,
            shed: read("serve", "shed")?,
            expired_in_queue: read("serve", "expired_in_queue")?,
            errors: read("serve", "errors")?,
            evictions: read("serve", "evictions")?,
        };
        let work = SolveStats::from_fields(|field| read("work", field))?;
        cases.push(ServePerfCase {
            name,
            serve,
            work,
            p99_ticks,
        });
    }
    Ok(cases)
}

/// Diffs a fresh serve run against the committed baseline using the same
/// per-counter allowance as the solver suite. The serving-discipline
/// counters (`queries`, `cache_hits`, `coalesced`, `shed`,
/// `expired_in_queue`, `errors`, `evictions`) are exact by construction —
/// they count *decisions*, not iterations — so they get no allowance.
pub fn diff_serve(baseline: &[ServePerfCase], current: &[ServePerfCase]) -> Vec<String> {
    let mut drifts = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.name == base.name) else {
            drifts.push(format!("{}: serve case removed from suite", base.name));
            continue;
        };
        if cur.serve != base.serve {
            drifts.push(format!(
                "{}: serve counters drifted {} -> {}",
                base.name, base.serve, cur.serve
            ));
        }
        for ((field, b), (_, c)) in base.work.fields().into_iter().zip(cur.work.fields()) {
            let allowed = crate::perf::allowance(b);
            if c.abs_diff(b) > allowed {
                drifts.push(format!(
                    "{}: work.{field} drifted {b} -> {c} (allowance {allowed})",
                    base.name
                ));
            }
        }
        let allowed = crate::perf::allowance(base.p99_ticks);
        if cur.p99_ticks.abs_diff(base.p99_ticks) > allowed {
            drifts.push(format!(
                "{}: p99_ticks drifted {} -> {} (allowance {allowed})",
                base.name, base.p99_ticks, cur.p99_ticks
            ));
        }
    }
    for cur in current {
        if !baseline.iter().any(|b| b.name == cur.name) {
            drifts.push(format!("{}: new serve case not in baseline", cur.name));
        }
    }
    drifts
}

/// Serializes the full committed baseline: solver `suite` plus the
/// `serve` section, one document, byte-identical across runs.
pub fn baseline_to_json(solver: &[crate::perf::PerfCase], serve: &[ServePerfCase]) -> String {
    let doc = Json::obj([
        ("format", Json::from(1u64)),
        ("suite", crate::perf::suite_json_value(solver)),
        ("serve", serve_json_value(serve)),
    ]);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

/// Parses both sections of a committed baseline. A file from before the
/// serve suite existed fails with a regeneration hint.
#[allow(clippy::type_complexity)]
pub fn baseline_from_json(
    text: &str,
) -> Result<(Vec<crate::perf::PerfCase>, Vec<ServePerfCase>), String> {
    let doc = Json::parse(text).map_err(|e| format!("bad baseline JSON: {e}"))?;
    if doc.get("format").and_then(Json::as_u64) != Some(1) {
        return Err("baseline format must be 1".to_string());
    }
    Ok((
        crate::perf::suite_cases_from_doc(&doc)?,
        serve_from_doc(&doc)?,
    ))
}

/// Minimum sustained throughput for the `hslb-perf --serve-qps` gate:
/// mixed cheap traffic (pings and cache replays) through the threaded
/// server. The measured rate is orders of magnitude higher; 1000 leaves
/// room for loaded CI machines.
pub const SERVE_QPS_MIN: f64 = 1000.0;

/// Wall-clock throughput probe: primes the cache with one solve, then
/// `threads` clients each fire `per_thread` requests (three pings per
/// cache replay). Returns measured queries per second.
pub fn measure_serve_qps(threads: u64, per_thread: u64) -> f64 {
    let server = Server::start(ServerOptions::default());
    let handle = server.handle();
    let spec = base_spec(0);
    let primed = handle.call(Request::Solve {
        spec: spec.clone(),
        budget: None,
    });
    assert!(
        primed.served.solves == 1,
        "qps probe: priming solve must run"
    );
    let start = std::time::Instant::now();
    let clients: Vec<_> = (0..threads)
        .map(|_| {
            let h = handle.clone();
            let spec = spec.clone();
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let request = if i % 4 == 0 {
                        Request::Solve {
                            spec: spec.clone(),
                            budget: None,
                        }
                    } else {
                        Request::Ping
                    };
                    let _ = h.call(request);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("qps client panicked");
    }
    let elapsed = start.elapsed().as_secs_f64();
    (threads * per_thread) as f64 / elapsed.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_deterministic() {
        // Bit-identical counters across runs is the whole premise of the
        // pinned baseline.
        assert_eq!(serve_suite(), serve_suite());
    }

    #[test]
    fn suite_exercises_every_serving_discipline() {
        let cases = serve_suite();
        let by_name = |n: &str| {
            cases
                .iter()
                .find(|c| c.name == n)
                .unwrap_or_else(|| panic!("missing case {n}"))
        };
        let mixed = by_name("serve_mixed_1shard");
        assert!(mixed.serve.cache_hits > 0, "replays must hit");
        assert!(mixed.serve.warm_seeded > 0, "drifts must warm-seed");
        assert!(mixed.serve.errors > 0, "unknown component must error");
        assert!(mixed.p99_ticks > 0, "budgeted solves must tick the clock");
        let batch = by_name("serve_batch_dedupe");
        assert!(batch.serve.coalesced > 0, "dedupe/merge must engage");
        assert_eq!(batch.serve.solves, 1, "four identical solves, one run");
        let deadline = by_name("serve_deadline_expiry");
        assert_eq!(deadline.serve.expired_in_queue, 6);
        assert_eq!(deadline.serve.solves, 0, "expired work never solves");
        assert_eq!(deadline.work, SolveStats::default());
        let churn = by_name("serve_cache_churn");
        assert!(churn.serve.evictions > 0, "two-entry cache must churn");
    }

    #[test]
    fn serve_json_round_trips() {
        let cases = serve_suite();
        let doc = Json::obj([("serve", serve_json_value(&cases))]);
        let back = serve_from_doc(&Json::parse(&doc.to_compact()).unwrap()).unwrap();
        assert_eq!(back, cases);
    }

    #[test]
    fn serve_diff_semantics() {
        let base = serve_suite();
        assert!(diff_serve(&base, &base).is_empty());
        // Serving-discipline counters are exact: off-by-one is a drift.
        let mut bumped = base.clone();
        bumped[0].serve.cache_hits += 1;
        assert_eq!(diff_serve(&base, &bumped).len(), 1);
        // Work counters get the standard allowance.
        let mut worked = base.clone();
        worked[0].work.newton_iters += 2;
        assert!(diff_serve(&base, &worked).is_empty());
        // Added/removed cases are drifts.
        let shorter = base[1..].to_vec();
        assert_eq!(diff_serve(&base, &shorter).len(), 1);
        assert_eq!(diff_serve(&shorter, &base).len(), 1);
    }
}
