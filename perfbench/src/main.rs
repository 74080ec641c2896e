//! Wall-clock benchmark of HSLB's allocation paths.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --quick
//! ```
//!
//! Workloads: `cesm_pipeline`, `fmo_alloc`, `serve_mixed`
//! (see `perfbench/README.md`). With `--trace 0` the last line of standard
//! output is a JSON object with the end-to-end metrics; with `--trace 1` it
//! holds the per-layer metrics of a traced run on the same seed. A full
//! result file (provenance, sample counts, counters, spans) is written to
//! `.bench_out/`. `--quick` runs one fixed slice of the workload twice and
//! exits non-zero unless the work counters of both runs are identical.

mod bench;
mod cesm;
mod fmo;
mod pool;
mod serve;
mod trace;

use std::process::ExitCode;

use hslb_json::Json;

use bench::{mean, median, quantile, Config, Outcome};
use cesm::CesmPipeline;
use fmo::FmoAlloc;
use pool::PoolWorkload;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 20_260_601;
const OUT_DIR: &str = ".bench_out";
/// Percentiles are reported only with at least ten samples beyond them.
const P99_MIN_SAMPLES: usize = 1000;
const WORKLOADS: [&str; 3] = ["cesm_pipeline", "fmo_alloc", "serve_mixed"];

/// Per-layer metrics of the traced run: name, unit, derived. Every name is
/// reported by every workload; 0 means the workload does not reach that
/// layer.
const LAYER_METRICS: [(&str, &str, bool); 42] = [
    ("core.gather.ms", "ms/alloc", false),
    ("core.build.ms", "ms/alloc", false),
    ("cesm_sim.execute.ms", "ms/alloc", false),
    ("perfmodel.fit.ms", "ms/alloc", false),
    ("lsq.lm_steps", "count/alloc", false),
    ("lsq.us_per_lm_step", "us", true),
    ("minlp.solve.ms", "ms/alloc", false),
    ("minlp.nodes_opened", "count/alloc", false),
    ("minlp.prune_ratio", "ratio", false),
    ("minlp.oa_cuts", "count/alloc", false),
    ("minlp.us_per_node", "us", true),
    ("minlp.warm_start_hit_ratio", "ratio", false),
    ("minlp.parallel_speedup_t2", "ratio", false),
    ("nlp.nlp_solves", "count/alloc", false),
    ("nlp.newton_iters", "count/alloc", false),
    ("nlp.backtracks_per_newton", "ratio", false),
    ("nlp.us_per_newton", "us", true),
    ("lp.lp_solves", "count/alloc", false),
    ("lp.simplex_pivots", "count/alloc", false),
    ("lp.dual_pivots", "count/alloc", false),
    ("lp.us_per_pivot", "us", true),
    ("linalg.factorizations", "count/alloc", false),
    ("linalg.factor_updates", "count/alloc", false),
    ("linalg.fill_nnz", "count/alloc", false),
    ("json.encode.us", "us/req", false),
    ("json.decode.us", "us/req", false),
    ("serve.rtt.ms", "ms/req", false),
    ("serve.handle.ms", "ms/req", false),
    ("serve.wire_wait.ms", "ms/req", true),
    ("serve.fingerprint.us", "us/req", false),
    ("serve.replay_p50_ms", "ms", false),
    ("serve.warm_p50_ms", "ms", false),
    ("serve.cold_p50_ms", "ms", false),
    ("serve.cache_hit_ratio", "ratio", false),
    ("serve.solves", "count", false),
    ("serve.warm_seeded", "count", false),
    ("serve.coalesced", "count", false),
    ("serve.evictions", "count", false),
    ("serve.shed", "count", false),
    ("serve.errors", "count", false),
    ("serve.newton_iters", "count", false),
    ("trace_overhead_frac", "ratio", true),
];

struct Args {
    workload: String,
    cfg: Config,
    quick: bool,
}

const USAGE: &str = "usage: perfbench --workload <cesm_pipeline|fmo_alloc|serve_mixed> \
[--seed N] [--seconds S] [--trace 0|1] [--quick]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        cfg,
        quick,
    })
}

fn run_workload(name: &str, cfg: Config) -> Result<Outcome, String> {
    match name {
        "cesm_pipeline" => Ok(pool::run(&CesmPipeline, cfg)),
        "fmo_alloc" => Ok(pool::run(&FmoAlloc, cfg)),
        "serve_mixed" => serve::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn counters(name: &str, seed: u64) -> Result<Vec<(String, u64)>, String> {
    match name {
        "cesm_pipeline" => Ok(pool::slice_counters(
            &CesmPipeline,
            &CesmPipeline.pool(seed),
        )),
        "fmo_alloc" => Ok(pool::slice_counters(&FmoAlloc, &FmoAlloc.pool(seed))),
        "serve_mixed" => Ok(serve::counters(seed)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// First line of `/proc/cpuinfo` naming the CPU model.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.cfg.seed as f64)),
        ("default_seed", Json::Num(DEFAULT_SEED as f64)),
        ("held_out_seed", Json::Num(HELD_OUT_SEED as f64)),
        ("seconds", Json::Num(args.cfg.seconds)),
        ("trace", Json::Bool(args.cfg.trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        (
            "rustc",
            Json::Str(env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ),
        ("git_commit", Json::Str(git_commit())),
    ])
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
    derived: bool,
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let n = out.latencies_ms.len();
    let m = |name, unit, value, samples| Metric {
        name,
        unit,
        value,
        samples,
        derived: false,
    };
    vec![
        m("alloc_p50_ms", "ms", median(&out.latencies_ms), n),
        m("alloc_p90_ms", "ms", quantile(&out.latencies_ms, 0.9), n),
        m("allocs_per_s", "1/s", n as f64 / out.measured_s, n),
        m(
            "makespan_vs_oracle",
            "ratio",
            mean(&out.ratios),
            out.ratios.len(),
        ),
        m("peak_rss_mb", "MB", out.peak_rss_mb, 1),
        m("setup_s", "s", median(&out.setup_s), out.setup_s.len()),
    ]
}

/// Metrics reported beside the contract's: p99 only where enough samples
/// lie beyond it, and the failure share.
fn extra_end_to_end(out: &Outcome) -> Vec<Metric> {
    let mut v = Vec::new();
    let n = out.latencies_ms.len();
    if n >= P99_MIN_SAMPLES {
        v.push(Metric {
            name: "alloc_p99_ms",
            unit: "ms",
            value: quantile(&out.latencies_ms, 0.99),
            samples: n,
            derived: false,
        });
    }
    v.push(Metric {
        name: "failed_frac",
        unit: "ratio",
        value: out.failures.len() as f64 / out.attempted.max(1) as f64,
        samples: out.attempted as usize,
        derived: false,
    });
    v
}

fn per_layer(out: &Outcome) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit, derived)| {
            let (value, samples) = out
                .layers
                .get(name)
                .map_or((0.0, 0), |l| (l.value, l.samples));
            Metric {
                name,
                unit,
                value: if value.is_finite() { value } else { 0.0 },
                samples,
                derived,
            }
        })
        .collect()
}

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("value", Json::Num(m.value)),
        ("unit", Json::Str(m.unit.to_string())),
        ("samples", Json::Num(m.samples as f64)),
    ];
    if m.derived {
        pairs.push(("derived", Json::Bool(true)));
    }
    Json::obj(pairs)
}

fn write_result(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn quick(args: &Args) -> Result<bool, String> {
    let first = counters(&args.workload, args.cfg.seed)?;
    let second = counters(&args.workload, args.cfg.seed)?;
    let same = first == second;
    let doc = Json::obj([
        ("provenance", provenance(args)),
        (
            "determinism",
            Json::Str(if same { "ok" } else { "mismatch" }.to_string()),
        ),
        (
            "counters",
            Json::obj(first.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64)))),
        ),
    ]);
    let path = format!(
        "{OUT_DIR}/{}-seed{}-quick.json",
        args.workload, args.cfg.seed
    );
    write_result(&path, &doc)?;
    println!("{}", doc.to_compact());
    Ok(same)
}

fn run(args: &Args) -> Result<(), String> {
    let out = run_workload(&args.workload, args.cfg)?;
    let metrics = if args.cfg.trace {
        per_layer(&out)
    } else {
        end_to_end(&out)
    };
    let extra = extra_end_to_end(&out);
    let correct = out.failures.is_empty() && out.attempted > 0 && !out.ratios.is_empty();

    for m in metrics.iter().chain(&extra) {
        let derived = if m.derived { " (derived)" } else { "" };
        println!(
            "perfbench: {:<28} {:>14.6} {:<12} n={}{derived}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in out.failures.iter().take(10) {
        println!("perfbench: FAILED {f}");
    }

    let all = |ms: &[Metric]| Json::obj(ms.iter().map(|m| (m.name, metric_json(m))));
    let mut doc = vec![
        ("provenance", provenance(args)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failures.len() as f64)),
        ("metrics", all(&metrics)),
        ("extra_metrics", all(&extra)),
        (
            "setup_samples_s",
            Json::arr(out.setup_s.iter().map(|&s| Json::Num(s))),
        ),
        ("measured_s", Json::Num(out.measured_s)),
        ("check_s", Json::Num(out.check_s)),
        (
            "counters",
            Json::obj(
                out.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64))),
            ),
        ),
        ("notes", Json::Obj(out.notes.clone())),
        (
            "failures",
            Json::arr(out.failures.iter().take(100).map(|f| Json::Str(f.clone()))),
        ),
    ];
    if args.cfg.trace {
        doc.push(("spans", trace::spans_json(&out.spans)));
    }
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload,
        args.cfg.seed,
        u8::from(args.cfg.trace)
    );
    write_result(&path, &Json::obj(doc))?;
    println!("perfbench: result file {path}");

    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failures.len() as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", summary.to_compact());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.quick {
        quick(&args)
    } else {
        run(&args).map(|()| true)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: counters differ between two runs on one seed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_array)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn reported_metrics_match_the_declared_ones() {
        let out = Outcome::default();
        let e2e: Vec<(String, String)> = end_to_end(&out)
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        let layers: Vec<(String, String)> = per_layer(&out)
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(e2e, declared("end_to_end"));
        assert_eq!(layers, declared("per_layer"));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "fmo_alloc", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        let ok = args(&["--workload", "fmo_alloc", "--seed", "7", "--trace", "1"]).expect("valid");
        assert_eq!(ok.cfg.seed, 7);
        assert!(ok.cfg.trace);
    }
}
