//! The closed loop shared by the two solver workloads
//! (`cesm_pipeline`, `fmo_alloc`): one caller, a seeded
//! pool of instances visited in shuffled passes, each allocation waiting
//! for the last.

use std::time::{Duration, Instant};

use hslb_json::Json;
use hslb_obs::SolveStats;

use crate::bench::{
    median, peak_rss_mb, run_passes, solver_layers, stats_counters, timed, Config, Outcome,
};
use crate::trace::{self_time_ns, Tracer};

/// One solver workload: how to make its instances, allocate one, and check
/// the answer against an independent reference.
pub trait PoolWorkload {
    type Entry;
    type Answer;

    /// Instance generation: the seeded, stratified pool.
    fn pool(&self, seed: u64) -> Vec<Self::Entry>;

    /// Fixed, seed-independent instances allocated during set-up, so
    /// set-up time does not depend on which instances a seed draws.
    fn warm_up_entries(&self) -> Vec<Self::Entry>;

    /// Short description of an entry for failure messages and notes.
    fn label(&self, entry: &Self::Entry) -> String;

    /// One allocation through HSLB's public entry points. With tracing on,
    /// each call into a layer is wrapped in a span.
    fn allocate(&self, entry: &Self::Entry, tracer: &mut Tracer) -> Result<Self::Answer, String>;

    /// Whether two answers for the same entry are the same answer.
    fn same(&self, a: &Self::Answer, b: &Self::Answer) -> bool;

    /// Solver work behind an answer.
    fn stats(&self, answer: &Self::Answer) -> SolveStats;

    /// Checks an answer against an independent reference; returns the
    /// answer's objective over the reference objective.
    fn check(&self, entry: &Self::Entry, answer: &Self::Answer) -> Result<f64, String>;

    /// Workload-specific per-layer metrics of the traced run.
    fn extra_layers(
        &self,
        _out: &mut Outcome,
        _traced: &[&Self::Answer],
        _self_ms: &dyn Fn(&str) -> f64,
    ) {
    }
}

/// Span names recorded by the solver workloads and the per-layer metric
/// each one's self time feeds (`minlp.solve` feeds [`solver_layers`]).
const SPAN_LAYERS: [(&str, &str); 4] = [
    ("core.gather", "core.gather.ms"),
    ("core.build", "core.build.ms"),
    ("cesm_sim.execute", "cesm_sim.execute.ms"),
    ("perfmodel.fit", "perfmodel.fit.ms"),
];

/// Pool entries whose work counters form the determinism block: a fixed
/// slice in pool order, which cycles through every stratum.
pub const COUNTER_SLICE: usize = 15;

/// Work counters of one untraced allocation of each of the first
/// [`COUNTER_SLICE`] pool entries. Answers are a pure function of the
/// instance, so two runs on one seed must agree exactly.
pub fn slice_counters<W: PoolWorkload>(w: &W, pool: &[W::Entry]) -> Vec<(String, u64)> {
    let slice = &pool[..pool.len().min(COUNTER_SLICE)];
    let mut total = SolveStats::default();
    let mut plain = Tracer::new(false, Instant::now());
    for entry in slice {
        if let Ok(answer) = w.allocate(entry, &mut plain) {
            total.merge(&w.stats(&answer));
        }
    }
    let mut counters = stats_counters("", &total);
    counters.push(("entries".to_string(), slice.len() as u64));
    counters
}

/// Interval between set-up repetitions inside the measured loop. The
/// host's speed holds one state for hundreds of milliseconds, so set-ups
/// taken back to back all see the same state; spread over the loop, their
/// median sees the state the allocations see.
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// Runs set-up (the pool plus the warm-up allocations), then the measured
/// loop, then the checks. Set-up is repeated once per [`SETUP_EVERY`]
/// inside the loop, between allocations; those repetitions are left out of
/// the loop time. Everything is timed on the wall clock, which also counts
/// the worker threads the LM multistart of the fit spawns.
pub fn run<W: PoolWorkload>(w: &W, cfg: Config) -> Outcome {
    let mut out = Outcome::default();
    let setup = || {
        timed(|| {
            let pool = w.pool(cfg.seed);
            for warm in w.warm_up_entries() {
                let _ = w.allocate(&warm, &mut Tracer::new(false, Instant::now()));
            }
            pool
        })
    };
    let (pool, ms) = setup();
    out.setup_s.push(ms / 1e3);

    let mut plain = Tracer::new(false, Instant::now());
    let mut tracer = Tracer::new(true, Instant::now());
    let mut first: Vec<Option<W::Answer>> = (0..pool.len()).map(|_| None).collect();
    let mut mismatched = vec![false; pool.len()];
    let mut traced_stats = SolveStats::default();
    let mut traced_entries = Vec::new();
    let mut entries = Vec::new();

    let mut record = |entry: usize, answer: Result<W::Answer, String>, out: &mut Outcome| {
        out.attempted += 1;
        match answer {
            Err(e) => out.failures.push(format!("{}: {e}", w.label(&pool[entry]))),
            Ok(a) => match &first[entry] {
                None => first[entry] = Some(a),
                Some(f) => {
                    if !w.same(f, &a) {
                        mismatched[entry] = true;
                        out.failures.push(format!(
                            "{}: answer differs from the first answer for the same instance",
                            w.label(&pool[entry])
                        ));
                    }
                }
            },
        }
    };

    let mut last_setup = Instant::now();
    let mut setup_in_loop_ms = 0.0;
    let loop_s = run_passes(cfg.seed, pool.len(), cfg.seconds, |entry, alloc| {
        if last_setup.elapsed() >= SETUP_EVERY {
            let (_, ms) = setup();
            out.setup_s.push(ms / 1e3);
            setup_in_loop_ms += ms;
            last_setup = Instant::now();
        }
        let untraced_first = alloc % 2 == 0;
        for traced in [!untraced_first, untraced_first] {
            if traced && !cfg.trace {
                continue;
            }
            let t = if traced { &mut tracer } else { &mut plain };
            t.set_alloc(alloc);
            let (answer, ms) = timed(|| t.span("alloc", |t| w.allocate(&pool[entry], t)));
            if traced {
                out.traced_ms.push(ms);
                if let Ok(a) = &answer {
                    traced_stats.merge(&w.stats(a));
                    traced_entries.push(entry);
                }
            } else {
                out.latencies_ms.push(ms);
                entries.push(entry);
            }
            record(entry, answer, &mut out);
        }
    });
    out.measured_s = loop_s - setup_in_loop_ms / 1e3;
    out.peak_rss_mb = peak_rss_mb();

    // Checks run outside the measured region, once per instance: every
    // later answer for an instance was compared with its first above.
    let check_start = Instant::now();
    for (entry, answer) in first.iter().enumerate() {
        let Some(answer) = answer else { continue };
        match w.check(&pool[entry], answer) {
            Ok(r) if !mismatched[entry] => out.ratios.push(r),
            Ok(_) => {}
            Err(e) => out.failures.push(format!("{}: {e}", w.label(&pool[entry]))),
        }
    }
    out.check_s = check_start.elapsed().as_secs_f64();
    out.counters = slice_counters(w, &pool);

    if cfg.trace {
        let spans = tracer.into_spans();
        let self_ns = self_time_ns(&spans);
        let traced_count = traced_entries.len();
        let n = traced_count.max(1) as f64;
        let self_ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
        for (span, metric) in SPAN_LAYERS {
            if self_ns.contains_key(span) {
                out.layer(metric, self_ms(span) / n, traced_count);
            }
        }
        solver_layers(
            &mut out,
            &traced_stats,
            traced_count,
            self_ms("minlp.solve"),
        );
        let traced: Vec<&W::Answer> = traced_entries
            .iter()
            .filter_map(|&e| first[e].as_ref())
            .collect();
        w.extra_layers(&mut out, &traced, &self_ms);
        // Each visit ran the same instance untraced and traced: compare
        // them pair by pair.
        let ratios: Vec<f64> = out
            .traced_ms
            .iter()
            .zip(&out.latencies_ms)
            .map(|(t, u)| t / u)
            .collect();
        out.layer("trace_overhead_frac", median(&ratios) - 1.0, ratios.len());
        out.spans = spans;
    }

    // Median untraced latency per instance: where the percentiles come from.
    let mut per_entry: Vec<Vec<f64>> = vec![Vec::new(); pool.len()];
    for (&entry, &ms) in entries.iter().zip(&out.latencies_ms) {
        per_entry[entry].push(ms);
    }
    out.notes.push((
        "entry_p50_ms".to_string(),
        Json::obj(
            pool.iter()
                .zip(&per_entry)
                .filter(|(_, ms)| !ms.is_empty())
                .map(|(e, ms)| (w.label(e), Json::Num(median(ms)))),
        ),
    ));
    out
}
