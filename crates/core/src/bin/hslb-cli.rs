//! The "black box" the paper promises in §V: "develop a 'black box' from
//! HSLB which would allow anyone, especially scientists without experience
//! at manual optimization, to run CESM efficiently".
//!
//! The original implementation shipped AMPL scripts executed remotely on
//! the NEOS server; this CLI replaces that interface with JSON in / JSON
//! out, fully offline:
//!
//! ```text
//! hslb-cli fit   < scaling.json    # {"points": [[24, 63.8], ...]}
//! hslb-cli solve < spec.json       # CesmModelSpec (see `example-spec`)
//! hslb-cli flat  < flatspec.json   # FlatSpec (FMO-style allocation)
//! hslb-cli example-spec            # prints a ready-to-edit CesmModelSpec
//! ```
//!
//! `solve` and `flat` accept `--trace`, which records the solver's event
//! stream (node opens, prunes, incumbents, cuts; see `hslb-obs`) and adds a
//! `"trace"` array next to the `"solver"` counter block in the output,
//! `--no-warm-start`, which disables cross-node solver-state reuse (parent
//! barrier seeds, simplex basis reuse) for A/B counter comparisons, and
//! `--dense`, which forces the dense linear-algebra reference everywhere:
//! the explicit-inverse simplex tableau and the dense barrier KKT (the
//! default `Auto` backend runs every simplex basis on the sparse LU and
//! switches the KKT to sparse above the crossover dimension).
//!
//! All modes exit 0 on success; bad input exits 1 with an `hslb-cli:`
//! diagnostic on stderr; an unknown mode exits 2 with usage.

use hslb::{
    build_flat_model, build_layout_model, layout_predicted_times, solve_model_with, CesmModelSpec,
    ComponentSpec, FlatSpec, Layout, SolverBackend,
};
use hslb_json::{DecodeError, FromJson, Json, ToJson};
use hslb_minlp::{Event, MinlpOptions, MinlpProblem, MinlpSolution, RingBuffer, Trace};
use hslb_perfmodel::{fit, PerfModel, ScalingData};
use std::io::Read;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    let warm_start = !args.iter().any(|a| a == "--no-warm-start");
    let backend = if args.iter().any(|a| a == "--dense") {
        hslb_minlp::LinalgBackend::Dense
    } else {
        hslb_minlp::LinalgBackend::Auto
    };
    if let Some(bad) = args.iter().find(|a| {
        a.starts_with("--") && *a != "--trace" && *a != "--no-warm-start" && *a != "--dense"
    }) {
        eprintln!("hslb-cli: unknown flag {bad}");
        usage();
    }
    let mode = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| usage());
    match mode.as_str() {
        "fit" => cmd_fit(),
        "solve" => cmd_solve(trace, warm_start, backend),
        "flat" => cmd_flat(trace, warm_start, backend),
        "ampl" => cmd_ampl(),
        "example-spec" => cmd_example_spec(),
        _ => {
            usage();
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: hslb-cli <fit|solve|flat|ampl|example-spec> [--trace] [--no-warm-start] [--dense]  (JSON on stdin, JSON/AMPL on stdout)"
    );
    std::process::exit(2);
}

/// Ring capacity for `--trace`: enough for every event the CESM-sized
/// instances generate; larger solves keep the most recent events.
const TRACE_CAPACITY: usize = 65_536;

/// Solves with the default backend, optionally recording the event trace.
fn solve_traced(
    problem: &MinlpProblem,
    trace: bool,
    warm_start: bool,
    backend: hslb_minlp::LinalgBackend,
) -> (MinlpSolution, Option<Vec<Event>>) {
    let mut opts = MinlpOptions {
        warm_start,
        backend,
        ..MinlpOptions::default()
    };
    let ring = trace.then(|| Arc::new(RingBuffer::new(TRACE_CAPACITY)));
    if let Some(ring) = &ring {
        opts.trace = Trace::to_sink(ring.clone());
    }
    let sol = solve_model_with(problem, SolverBackend::OuterApproximation, &opts);
    (sol, ring.map(|r| r.snapshot()))
}

/// The `"solver"` block: every deterministic work counter, by name.
fn solver_json(sol: &MinlpSolution) -> Json {
    Json::obj(
        sol.stats
            .fields()
            .into_iter()
            .map(|(name, value)| (name, Json::from(value))),
    )
}

fn event_json(event: &Event) -> Json {
    let mut fields: Vec<(&str, Json)> = vec![("kind", Json::from(event.kind()))];
    match event {
        Event::NodeOpened { depth, bound } => {
            fields.push(("depth", Json::from(*depth)));
            fields.push(("bound", Json::from(*bound)));
        }
        Event::NodePruned { reason, bound } => {
            fields.push(("reason", Json::from(reason.name())));
            fields.push(("bound", Json::from(*bound)));
        }
        Event::Incumbent { objective } => fields.push(("objective", Json::from(*objective))),
        Event::CutsAdded { count } => fields.push(("count", Json::from(*count))),
        Event::LpSolved { pivots } => fields.push(("pivots", Json::from(*pivots))),
        Event::NlpSolved { newton_iters } => {
            fields.push(("newton_iters", Json::from(*newton_iters)));
        }
        Event::BarrierMu { mu, sigma } => {
            fields.push(("mu", Json::from(*mu)));
            fields.push(("sigma", Json::from(*sigma)));
        }
        Event::LmStep { iter, cost } => {
            fields.push(("iter", Json::from(*iter)));
            fields.push(("cost", Json::from(*cost)));
        }
        Event::TimeBudgetExhausted { elapsed } => {
            fields.push(("elapsed", Json::from(*elapsed)));
        }
    }
    Json::obj(fields)
}

fn trace_json(events: &[Event]) -> Json {
    Json::arr(events.iter().map(event_json))
}

fn read_stdin() -> String {
    let mut buf = String::new();
    std::io::stdin()
        .read_to_string(&mut buf)
        .unwrap_or_else(|e| fail(&format!("cannot read stdin: {e}")));
    buf
}

fn fail(msg: &str) -> ! {
    eprintln!("hslb-cli: {msg}");
    std::process::exit(1);
}

/// Parses stdin as JSON, attributing both parse and decode errors to `what`.
fn parse_input<T: FromJson>(what: &str) -> T {
    let text = read_stdin();
    let doc = Json::parse(&text).unwrap_or_else(|e| fail(&format!("bad {what}: {e}")));
    T::from_json(&doc).unwrap_or_else(|e| fail(&format!("bad {what}: {e}")))
}

/// `{"points": [[nodes, seconds], ...]}` — the gather-step observations.
struct FitInput {
    points: Vec<(u64, f64)>,
}

impl FromJson for FitInput {
    fn from_json(v: &Json) -> Result<FitInput, DecodeError> {
        let arr = v
            .get("points")
            .and_then(Json::as_array)
            .ok_or_else(|| DecodeError::new("points", "an array of [nodes, seconds] pairs"))?;
        let mut points = Vec::with_capacity(arr.len());
        for (i, pair) in arr.iter().enumerate() {
            let bad = || DecodeError::new(format!("points[{i}]"), "a [nodes, seconds] pair");
            let n = pair.idx(0).and_then(Json::as_u64).ok_or_else(bad)?;
            let t = pair.idx(1).and_then(Json::as_f64).ok_or_else(bad)?;
            if pair.idx(2).is_some() {
                return Err(bad());
            }
            points.push((n, t));
        }
        Ok(FitInput { points })
    }
}

fn cmd_fit() {
    let input: FitInput = parse_input("fit input");
    let data = ScalingData::from_pairs(input.points);
    match fit(&data) {
        Ok(report) => {
            let out = Json::obj([
                ("model", report.model.to_json()),
                ("display", Json::from(format!("{}", report.model))),
                ("r_squared", Json::from(report.quality.r_squared)),
                ("rmse", Json::from(report.quality.rmse)),
                ("observations", Json::from(report.observations)),
            ]);
            println!("{}", out.to_pretty());
        }
        Err(e) => fail(&format!("fit failed: {e}")),
    }
}

/// `{"spec": CesmModelSpec, "layout": 1|2|3}` (layout defaults to 1).
struct SolveInput {
    spec: CesmModelSpec,
    layout: usize,
}

impl FromJson for SolveInput {
    fn from_json(v: &Json) -> Result<SolveInput, DecodeError> {
        Ok(SolveInput {
            spec: hslb_json::field(v, "spec")?,
            layout: hslb_json::opt_field(v, "layout")?.unwrap_or(1),
        })
    }
}

fn layout_from_index(layout: usize) -> Layout {
    match layout {
        1 => Layout::Hybrid,
        2 => Layout::SequentialAtmGroup,
        3 => Layout::FullySequential,
        other => fail(&format!("unknown layout {other}; expected 1, 2 or 3")),
    }
}

fn cmd_solve(trace: bool, warm_start: bool, backend: hslb_minlp::LinalgBackend) {
    let input: SolveInput = parse_input("solve input");
    let layout = layout_from_index(input.layout);
    let model = build_layout_model(&input.spec, layout);
    let (sol, events) = solve_traced(&model.problem, trace, warm_start, backend);
    if sol.x.is_empty() {
        fail("no feasible allocation exists for this spec");
    }
    let alloc = model.allocation(&sol);
    let times = layout_predicted_times(&input.spec, layout, &alloc);
    let mut fields = vec![
        ("allocation", alloc.to_json()),
        ("predicted", times.to_json()),
        ("objective", Json::from(sol.objective)),
        ("solver", solver_json(&sol)),
    ];
    if let Some(events) = &events {
        fields.push(("trace", trace_json(events)));
    }
    println!("{}", Json::obj(fields).to_pretty());
}

fn cmd_flat(trace: bool, warm_start: bool, backend: hslb_minlp::LinalgBackend) {
    let spec: FlatSpec = parse_input("flat spec");
    let model = build_flat_model(&spec);
    let (sol, events) = solve_traced(&model.problem, trace, warm_start, backend);
    if sol.x.is_empty() {
        fail("no feasible allocation exists for this spec");
    }
    let alloc = model.allocation(&spec, &sol);
    let mut fields = vec![
        (
            "nodes",
            Json::arr(alloc.nodes.iter().map(|&n| Json::from(n))),
        ),
        (
            "times",
            Json::arr(alloc.times.iter().map(|&t| Json::from(t))),
        ),
        ("makespan", Json::from(alloc.makespan())),
        ("imbalance", Json::from(alloc.imbalance())),
        ("solver", solver_json(&sol)),
    ];
    if let Some(events) = &events {
        fields.push(("trace", trace_json(events)));
    }
    println!("{}", Json::obj(fields).to_pretty());
}

/// Renders the layout MINLP of a spec as an AMPL model — the papers'
/// original interface (`hslb-cli ampl < spec.json`).
fn cmd_ampl() {
    let input: SolveInput = parse_input("solve input");
    let layout = layout_from_index(input.layout);
    let model = build_layout_model(&input.spec, layout);
    print!(
        "{}",
        hslb_minlp::to_ampl(&model.problem, &format!("cesm_layout{}", input.layout))
    );
}

fn cmd_example_spec() {
    // The paper's 1° configuration at 128 nodes, from the calibrated fits.
    let spec = CesmModelSpec {
        ice: ComponentSpec::new("ice", PerfModel::amdahl(7774.0, 11.8), 1, 128),
        lnd: ComponentSpec::new("lnd", PerfModel::amdahl(1484.0, 1.94), 1, 128),
        atm: ComponentSpec::new("atm", PerfModel::new(27_180.0, 5e-4, 1.0, 44.0), 1, 128),
        ocn: ComponentSpec::with_set(
            "ocn",
            PerfModel::amdahl(7754.0, 41.8),
            (1..=64).map(|k| 2 * k),
        ),
        total_nodes: 128,
        tsync: None,
    };
    let doc = Json::obj([("spec", spec.to_json()), ("layout", Json::from(1u64))]);
    println!("{}", doc.to_pretty());
}
