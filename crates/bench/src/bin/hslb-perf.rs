//! Counter-based perf-regression gate.
//!
//! ```text
//! hslb-perf                  # run the pinned suite, write BENCH_solver.json
//! hslb-perf --smoke          # run + diff against the committed baseline
//! hslb-perf --out <path>     # write/compare somewhere else
//! hslb-perf --serve-qps      # wall-clock gate: served throughput >= 1000/s
//! ```
//!
//! The suite records only deterministic work counters (no timings), so the
//! output is byte-identical across runs and machines — see
//! `hslb_bench::perf` for the gate semantics.

use hslb_bench::perf::{diff_suites, e7_thread_envelope, perf_suite};
use hslb_bench::serve_perf::{
    baseline_from_json, baseline_to_json, diff_serve, measure_serve_qps, serve_suite, SERVE_QPS_MIN,
};
use std::path::PathBuf;

/// Default baseline location: the workspace root, two levels above this
/// crate's manifest.
fn default_baseline() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_solver.json")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut serve_qps = false;
    let mut out = default_baseline();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--serve-qps" => serve_qps = true,
            "--out" => match it.next() {
                Some(path) => out = PathBuf::from(path),
                None => usage("--out needs a path"),
            },
            other => usage(&format!("unknown argument {other}")),
        }
    }

    if serve_qps {
        // Standalone wall-clock gate for the serving front: mixed cheap
        // traffic (pings + cache replays) through the threaded server.
        eprintln!("hslb-perf: measuring served throughput (4 clients x 2500 requests)...");
        let qps = measure_serve_qps(4, 2500);
        println!("hslb-perf: served {qps:.0} queries/sec");
        if qps < SERVE_QPS_MIN {
            fail(&format!(
                "served throughput {qps:.0}/s below required {SERVE_QPS_MIN}/s"
            ));
        }
        return;
    }

    eprintln!("hslb-perf: running pinned counter suite...");
    let cases = perf_suite();
    for case in &cases {
        println!("{:<28} {}", case.name, case.stats);
    }

    eprintln!("hslb-perf: running pinned serve suite...");
    let serve_cases = serve_suite();
    for case in &serve_cases {
        println!(
            "{:<28} p99_ticks={} | {}",
            case.name, case.p99_ticks, case.serve
        );
    }

    eprintln!("hslb-perf: checking multithreaded envelope (threads=4)...");
    let violations = e7_thread_envelope(&cases);
    if violations.is_empty() {
        println!("hslb-perf: multithreaded envelope OK");
    } else {
        eprintln!("hslb-perf: multithreaded envelope violated:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }

    if smoke {
        let text = std::fs::read_to_string(&out).unwrap_or_else(|e| {
            fail(&format!(
                "cannot read baseline {} ({e}); run `hslb-perf` once to create it",
                out.display()
            ))
        });
        let (baseline, serve_baseline) = baseline_from_json(&text).unwrap_or_else(|e| fail(&e));
        let mut drifts = diff_suites(&baseline, &cases);
        drifts.extend(diff_serve(&serve_baseline, &serve_cases));
        if drifts.is_empty() {
            println!(
                "hslb-perf: OK — {} solver + {} serve cases match {}",
                cases.len(),
                serve_cases.len(),
                out.display()
            );
        } else {
            eprintln!("hslb-perf: counter drift vs {}:", out.display());
            for d in &drifts {
                eprintln!("  {d}");
            }
            eprintln!("if the change is intentional, regenerate the baseline with `hslb-perf`");
            std::process::exit(1);
        }
    } else {
        let text = baseline_to_json(&cases, &serve_cases);
        std::fs::write(&out, &text)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", out.display())));
        println!(
            "hslb-perf: wrote {} solver + {} serve cases to {}",
            cases.len(),
            serve_cases.len(),
            out.display()
        );
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("hslb-perf: {msg}");
    eprintln!("usage: hslb-perf [--smoke] [--serve-qps] [--out <path>]");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("hslb-perf: {msg}");
    std::process::exit(1);
}
