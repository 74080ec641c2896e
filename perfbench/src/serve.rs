//! `serve_mixed`: a closed loop of two client connections over loopback TCP
//! to the daemon's own code path (`Server::start` + `tcp::accept_loop`).
//! Each client sends its next request when the reply to the last arrives.
//!
//! The client sets `TCP_NODELAY` and writes each frame with one write, so
//! any transport stall it measures is the server's.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hslb::{build_flat_model, FlatSpec};
use hslb_json::{FromJson, Json, ToJson};
use hslb_minlp::{presolve, solve_nlp_bnb, MinlpOptions, MinlpStatus, PresolveOutcome};
use hslb_obs::{ServeStats, SolveStats};
use hslb_perfmodel::PerfModel;
use hslb_rng::{hash_mix, Rng};
use hslb_serve::protocol::{Body, ErrorKind, Request, Response, Source};
use hslb_serve::tcp::accept_loop;
use hslb_serve::{fingerprint, read_frame, EngineOptions, Handle, Server, ServerOptions};

use crate::bench::{agrees, median, peak_rss_mb, ratio, stats_counters, timed, Config, Outcome};
use crate::fmo::cluster_spec;
use crate::trace::{durations_ms, self_time_ns, Span, Tracer};

/// How many times each run repeats its set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 11;
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Per-shard LRU capacity: the popular structures fit, the tail does not.
const CACHE_CAP: usize = 8;
const POPULAR: u64 = 6;
const TAIL: u64 = 42;
/// Share of plain solves drawn from the popular structures.
const POPULAR_SHARE: f64 = 0.75;
const NODES_PER_FRAGMENT: i64 = 8;
/// Served objectives must match a cold in-process solve this closely.
const REL_TOL: f64 = 1e-6;
/// Share of distinct drifted specs re-solved cold for the answer check.
const DRIFT_CHECK_SHARE: f64 = 0.25;
/// Requests replayed in-process for the determinism counters.
const COUNTER_SLICE: usize = 256;
/// Distinct drift steps per popular structure.
const DRIFT_STEPS: u64 = 997;
const KNOWN: &str = "telemetry";
const UNKNOWN: &str = "ghost";
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Request kinds of the mix, after the pinned `serve_mixed_1shard` case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Solve,
    Drift,
    Observe,
    Fit,
    Ping,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Solve => "solve",
            Kind::Drift => "drift",
            Kind::Observe => "observe",
            Kind::Fit => "fit",
            Kind::Ping => "ping",
        }
    }
}

const KINDS: [Kind; 5] = [
    Kind::Solve,
    Kind::Drift,
    Kind::Observe,
    Kind::Fit,
    Kind::Ping,
];

/// Identity of a solve spec: structure index plus drift step (0 = none).
type SpecKey = (u64, u64);

struct Planned {
    kind: Kind,
    key: Option<SpecKey>,
    request: Request,
}

fn structure_spec(seed: u64, v: u64) -> FlatSpec {
    let k = 4 + (v % 5) as usize;
    let h = [0.5, 0.75, 1.0][(v % 3) as usize];
    let mut spec = cluster_spec(k, h, hash_mix(&[seed, 0x5E7E, v]), NODES_PER_FRAGMENT);
    // A distinct machine size per structure keeps structure hashes apart.
    spec.total_nodes += v as i64;
    spec
}

fn spec_for(seed: u64, key: SpecKey) -> FlatSpec {
    let (v, drift) = key;
    let mut spec = structure_spec(seed, v);
    if drift > 0 {
        let f = 1.0 + 1e-4 * drift as f64;
        for c in &mut spec.components {
            c.model.a *= f;
        }
    }
    spec
}

fn observed() -> PerfModel {
    PerfModel::amdahl(220.0, 1.75)
}

/// Request `i` of client `client`: a pure function of the seed.
fn plan(seed: u64, client: usize, i: u64) -> Planned {
    let mut rng = Rng::new(hash_mix(&[seed, 0x5E4E, client as u64, i]));
    let slot = rng.usize_range(0, 8);
    let (kind, key, request) = match slot {
        0..=2 => {
            let v = if rng.bool(POPULAR_SHARE) {
                rng.next_u64() % POPULAR
            } else {
                POPULAR + rng.next_u64() % TAIL
            };
            let key = (v, 0);
            (Kind::Solve, Some(key), solve(spec_for(seed, key)))
        }
        3 => {
            let v = rng.next_u64() % POPULAR;
            // Bounded drift steps: a step seen again replays from cache.
            let key = (v, 1 + (i * CLIENTS as u64 + client as u64) % DRIFT_STEPS);
            (Kind::Drift, Some(key), solve(spec_for(seed, key)))
        }
        4 | 5 => {
            let m = observed();
            let points = (0..2)
                .map(|_| {
                    let n = rng.usize_range(2, 64) as u64;
                    (n, m.eval(n as f64))
                })
                .collect();
            let request = Request::Observe {
                component: KNOWN.to_string(),
                points,
            };
            (Kind::Observe, None, request)
        }
        6 => {
            let component = if rng.bool(0.5) { KNOWN } else { UNKNOWN };
            let request = Request::Fit {
                component: component.to_string(),
            };
            (Kind::Fit, None, request)
        }
        _ => (Kind::Ping, None, Request::Ping),
    };
    Planned { kind, key, request }
}

fn solve(spec: FlatSpec) -> Request {
    Request::Solve { spec, budget: None }
}

fn server_options() -> ServerOptions {
    ServerOptions {
        engine: EngineOptions {
            shards: SHARDS,
            cache_cap: CACHE_CAP,
            solver: MinlpOptions::default(),
        },
        ..ServerOptions::default()
    }
}

/// Requests every fresh server sees before measuring: the known component
/// gets observations, so `fit` on it answers a model.
fn warm_up_requests() -> Vec<Request> {
    let m = observed();
    vec![
        Request::Ping,
        Request::Observe {
            component: KNOWN.to_string(),
            points: [4u64, 8, 16, 32]
                .iter()
                .map(|&n| (n, m.eval(n as f64)))
                .collect(),
        },
    ]
}

/// A running daemon on an ephemeral loopback port.
struct Daemon {
    server: Server,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<io::Result<()>>,
}

impl Daemon {
    fn start() -> io::Result<Daemon> {
        let server = Server::start(server_options());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = server.handle();
        let flag = Arc::clone(&stop);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &handle, &flag));
        Ok(Daemon {
            server,
            addr,
            stop,
            acceptor,
        })
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join();
        drop(self.server);
    }
}

struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// One framed round trip: the whole frame in one write, then the reply.
    fn round_trip(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let len = u32::try_from(payload.len()).map_err(|_| "request too large".to_string())?;
        self.buf.clear();
        self.buf.extend_from_slice(&len.to_be_bytes());
        self.buf.extend_from_slice(payload);
        self.stream
            .write_all(&self.buf)
            .map_err(|e| format!("write failed: {e}"))?;
        read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "server closed the connection".to_string())
    }

    /// Encode, round trip, decode, each in its own span.
    fn call(&mut self, request: &Request, tracer: &mut Tracer) -> Result<Response, String> {
        let payload = tracer.span("json.encode", |_| request.to_json().to_compact());
        let reply = tracer.span("serve.rtt", |_| self.round_trip(payload.as_bytes()))?;
        tracer.span("json.decode", |_| {
            let text = std::str::from_utf8(&reply).map_err(|e| e.to_string())?;
            let json = Json::parse(text).map_err(|e| e.to_string())?;
            Response::from_json(&json).map_err(|e| e.to_string())
        })
    }
}

/// One served request as the client saw it.
struct Record {
    client: usize,
    i: u64,
    kind: Kind,
    key: Option<SpecKey>,
    ms: f64,
    traced: bool,
    reply: Result<Response, String>,
}

struct Setup {
    daemon: Daemon,
    clients: Vec<Client>,
}

fn setup() -> Result<Setup, String> {
    let daemon = Daemon::start().map_err(|e| format!("server start failed: {e}"))?;
    let mut clients = Vec::new();
    let mut off = Tracer::new(false, Instant::now());
    for _ in 0..CLIENTS {
        let mut client =
            Client::connect(daemon.addr).map_err(|e| format!("connect failed: {e}"))?;
        for request in warm_up_requests() {
            client.call(&request, &mut off)?;
        }
        clients.push(client);
    }
    Ok(Setup { daemon, clients })
}

fn client_loop(
    mut client: Client,
    id: usize,
    cfg: Config,
    origin: Instant,
    deadline: Instant,
) -> (Vec<Record>, Vec<Span>) {
    let mut plain = Tracer::new(false, origin);
    let mut tracer = Tracer::new(true, origin);
    let mut records = Vec::new();
    let mut i = 0u64;
    while Instant::now() < deadline {
        let planned = plan(cfg.seed, id, i);
        let traced = cfg.trace && i % 2 == 1;
        let t = if traced { &mut tracer } else { &mut plain };
        t.set_alloc(i * CLIENTS as u64 + id as u64);
        let (reply, ms) = timed(|| {
            t.span("serve.request", |t| {
                if let Request::Solve { spec, .. } = &planned.request {
                    std::hint::black_box(t.span("serve.fingerprint", |_| fingerprint(spec)));
                }
                client.call(&planned.request, t)
            })
        });
        let failed = reply.is_err();
        records.push(Record {
            client: id,
            i,
            kind: planned.kind,
            key: planned.key,
            ms,
            traced,
            reply,
        });
        if failed {
            break;
        }
        i += 1;
    }
    (records, tracer.into_spans())
}

/// The cold in-process reference: the shard's solve path (same presolve
/// depth, same backend) without any serving layer.
fn cold_objective(spec: &FlatSpec) -> Option<f64> {
    let model = build_flat_model(spec);
    let mut reduced = model.problem.clone();
    match presolve(&mut reduced, 8) {
        PresolveOutcome::Infeasible => None,
        PresolveOutcome::Reduced { .. } => {
            let sol = solve_nlp_bnb(&reduced, &MinlpOptions::default());
            (sol.status == MinlpStatus::Optimal).then_some(sol.objective)
        }
    }
}

/// Answer checks for solve replies: replays against what the server
/// answered for the same spec, and objectives against a cold solve.
struct SolveChecks {
    seed: u64,
    /// Every cold or warm answer per spec: a replay must return one of
    /// them, whichever the cache held at the time.
    answered: BTreeMap<SpecKey, Vec<(Vec<u64>, u64)>>,
    cold: BTreeMap<SpecKey, Option<f64>>,
}

impl SolveChecks {
    fn new(seed: u64, records: &[Record]) -> SolveChecks {
        let mut answered: BTreeMap<SpecKey, Vec<(Vec<u64>, u64)>> = BTreeMap::new();
        for r in records {
            if let (
                Some(key),
                Ok(Response {
                    body:
                        Body::Allocation {
                            nodes,
                            objective,
                            source,
                            ..
                        },
                    ..
                }),
            ) = (r.key, &r.reply)
            {
                if *source != Source::Cache {
                    answered
                        .entry(key)
                        .or_default()
                        .push((nodes.clone(), objective.to_bits()));
                }
            }
        }
        SolveChecks {
            seed,
            answered,
            cold: BTreeMap::new(),
        }
    }

    /// Returns the served objective over the cold one when this reply was
    /// checked against a cold solve.
    fn check(&mut self, key: SpecKey, body: &Body) -> Result<Option<f64>, String> {
        let Body::Allocation {
            status,
            nodes,
            objective,
            source,
            ..
        } = body
        else {
            return Err(format!("expected an allocation, got {body:?}"));
        };
        if *status != MinlpStatus::Optimal {
            return Err(format!("solve ended {status:?}"));
        }
        if *source == Source::Cache {
            let answer = (nodes.clone(), objective.to_bits());
            if !self.answered.get(&key).is_some_and(|a| a.contains(&answer)) {
                return Err("replay matches no answer solved for this spec".to_string());
            }
        }
        // Every plain structure is checked; drifted specs by seeded sample.
        let seed = self.seed;
        let sampled =
            key.1 == 0 || Rng::new(hash_mix(&[seed, 0xC4EC, key.0, key.1])).bool(DRIFT_CHECK_SHARE);
        if !sampled {
            return Ok(None);
        }
        let cold = *self
            .cold
            .entry(key)
            .or_insert_with(|| cold_objective(&spec_for(seed, key)));
        let cold = cold.ok_or("cold reference solve did not reach optimality")?;
        if !agrees(*objective, cold, REL_TOL) {
            return Err(format!(
                "served objective {objective} disagrees with cold {cold}"
            ));
        }
        Ok(Some(objective / cold))
    }
}

/// Checks every reply, in request order.
fn check(seed: u64, records: &[Record], out: &mut Outcome) {
    let mut solves = SolveChecks::new(seed, records);
    let mut order: Vec<&Record> = records.iter().collect();
    order.sort_by_key(|r| (r.i, r.client));
    for r in order {
        let what = format!("client {} request {} ({})", r.client, r.i, r.kind.name());
        let body = match &r.reply {
            Err(e) => {
                out.failures.push(format!("{what}: {e}"));
                continue;
            }
            Ok(resp) => &resp.body,
        };
        let verdict = match (r.kind, body, r.key) {
            (Kind::Solve | Kind::Drift, _, Some(key)) => solves
                .check(key, body)
                .map(|ratio| out.ratios.extend(ratio)),
            (Kind::Observe, Body::Ack { accepted, .. }, _) if *accepted == 2 => Ok(()),
            (Kind::Fit, Body::Model { component, .. }, _) if component == KNOWN => Ok(()),
            // The intended error reply: fit on a component never observed.
            (
                Kind::Fit,
                Body::Error {
                    kind: ErrorKind::UnknownComponent,
                    message,
                },
                _,
            ) if message.contains(UNKNOWN) => Ok(()),
            (Kind::Ping, Body::Pong, _) => Ok(()),
            (_, other, _) => Err(format!("unexpected reply {other:?}")),
        };
        if let Err(e) = verdict {
            out.failures.push(format!("{what}: {e}"));
        }
    }
}

/// Replays requests through an in-process `Handle` on a fresh server,
/// one at a time: queue, shard and solver, no socket. Returns per-request
/// milliseconds and the server's counters afterwards.
fn replay_in_process(
    requests: impl Iterator<Item = Request>,
) -> (Vec<f64>, ServeStats, SolveStats) {
    let server = Server::start(server_options());
    let handle: Handle = server.handle();
    for request in warm_up_requests() {
        handle.call(request);
    }
    let times = requests
        .map(|request| timed(|| handle.call(request)).1)
        .collect();
    let (serve, solver) = handle.stats();
    (times, serve, solver)
}

/// Deterministic work counters: a fixed slice of the request stream, served
/// in order by one in-process caller.
pub fn counters(seed: u64) -> Vec<(String, u64)> {
    let slice = (0..COUNTER_SLICE as u64).flat_map(|i| (0..CLIENTS).map(move |c| (c, i)));
    let (_, serve, solver) = replay_in_process(slice.map(|(c, i)| plan(seed, c, i).request));
    let mut out: Vec<(String, u64)> = serve
        .fields()
        .into_iter()
        .map(|(n, v)| (format!("serve.{n}"), v))
        .collect();
    out.extend(stats_counters("solver.", &solver));
    out
}

fn stats_reply(client: &mut Client) -> Result<(ServeStats, SolveStats), String> {
    let mut off = Tracer::new(false, Instant::now());
    match client.call(&Request::Stats, &mut off)?.body {
        Body::Stats { serve, solver } => Ok((serve, solver)),
        other => Err(format!("expected stats, got {other:?}")),
    }
}

fn diff(after: &ServeStats, before: &ServeStats) -> BTreeMap<&'static str, u64> {
    after
        .fields()
        .into_iter()
        .zip(before.fields())
        .map(|((name, a), (_, b))| (name, a.saturating_sub(b)))
        .collect()
}

pub fn run(cfg: Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let (s, ms) = timed(setup);
        out.setup_s.push(ms / 1e3);
        if let Some(previous) = kept.replace(s?) {
            let Setup { daemon, clients } = previous;
            drop(clients);
            daemon.shutdown();
        }
    }
    let Setup {
        daemon,
        mut clients,
    } = kept.ok_or("no set-up ran")?;

    // A third connection, idle while measuring, reads the counters.
    let mut probe = Client::connect(daemon.addr).map_err(|e| format!("connect failed: {e}"))?;
    let before = stats_reply(&mut probe)?;
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(cfg.seconds);
    let mut records = Vec::new();
    let mut spans = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .drain(..)
            .enumerate()
            .map(|(id, client)| scope.spawn(move || client_loop(client, id, cfg, origin, deadline)))
            .collect();
        for w in workers {
            let (r, s) = w.join().expect("client thread panicked");
            records.extend(r);
            spans.extend(s);
        }
    });
    out.measured_s = origin.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    let after = stats_reply(&mut probe)?;
    drop(probe);
    daemon.shutdown();

    out.attempted = records.len() as u64;
    for r in &records {
        if r.traced {
            out.traced_ms.push(r.ms);
        } else {
            out.latencies_ms.push(r.ms);
        }
    }

    let check_start = Instant::now();
    check(cfg.seed, &records, &mut out);
    out.counters = counters(cfg.seed);
    out.check_s = check_start.elapsed().as_secs_f64();

    let served = diff(&after.0, &before.0);
    let newton = after.1.newton_iters.saturating_sub(before.1.newton_iters);

    let per_kind = |pick: &dyn Fn(&Record) -> bool| -> Vec<f64> {
        records.iter().filter(|r| pick(r)).map(|r| r.ms).collect()
    };
    let mut kinds = Vec::new();
    for kind in KINDS {
        let ms = per_kind(&|r| r.kind == kind);
        kinds.push((
            kind.name().to_string(),
            Json::obj([
                ("samples", Json::Num(ms.len() as f64)),
                ("p50_ms", Json::Num(median(&ms))),
            ]),
        ));
    }
    out.notes
        .push(("latency_by_kind".to_string(), Json::Obj(kinds)));
    out.notes.push((
        "served".to_string(),
        Json::obj(served.iter().map(|(k, v)| (*k, Json::Num(*v as f64)))),
    ));

    if cfg.trace {
        let source_ms = |want: Source| {
            per_kind(
                &|r| matches!(&r.reply, Ok(Response { body: Body::Allocation { source, .. }, .. }) if *source == want),
            )
        };
        let solves = records.iter().filter(|r| r.key.is_some()).count();
        let n = records.len();
        let self_ns = self_time_ns(&spans);
        let traced_n = out.traced_ms.len().max(1) as f64;
        let per_traced_us =
            |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / traced_n;
        let fp = durations_ms(&spans, "serve.fingerprint");
        let rtt = durations_ms(&spans, "serve.rtt");
        out.layer(
            "json.encode.us",
            per_traced_us("json.encode"),
            out.traced_ms.len(),
        );
        out.layer(
            "json.decode.us",
            per_traced_us("json.decode"),
            out.traced_ms.len(),
        );
        out.layer("serve.rtt.ms", median(&rtt), rtt.len());
        out.layer(
            "serve.fingerprint.us",
            ratio(fp.iter().sum::<f64>() * 1e3, fp.len() as f64),
            fp.len(),
        );

        // The same requests, in the same per-client order, through an
        // in-process handle on a fresh server.
        let mut sorted: Vec<&Record> = records.iter().collect();
        sorted.sort_by_key(|r| (r.i, r.client));
        let (handle_ms, _, _) =
            replay_in_process(sorted.iter().map(|r| plan(cfg.seed, r.client, r.i).request));
        out.layer("serve.handle.ms", median(&handle_ms), handle_ms.len());
        let wait: Vec<f64> = sorted
            .iter()
            .zip(&handle_ms)
            .map(|(r, h)| r.ms - h)
            .collect();
        out.layer("serve.wire_wait.ms", median(&wait), wait.len());
        let mut wait_by_kind = Vec::new();
        for kind in KINDS {
            let w: Vec<f64> = sorted
                .iter()
                .zip(&wait)
                .filter(|(r, _)| r.kind == kind)
                .map(|(_, w)| *w)
                .collect();
            wait_by_kind.push((kind.name().to_string(), Json::Num(median(&w))));
        }
        out.notes
            .push(("wire_wait_ms_by_kind".to_string(), Json::Obj(wait_by_kind)));

        for (name, src) in [
            ("serve.replay_p50_ms", Source::Cache),
            ("serve.warm_p50_ms", Source::Warm),
            ("serve.cold_p50_ms", Source::Cold),
        ] {
            let ms = source_ms(src);
            out.layer(name, median(&ms), ms.len());
        }
        let get = |k: &str| served.get(k).copied().unwrap_or(0);
        out.layer(
            "serve.cache_hit_ratio",
            ratio(get("cache_hits") as f64, solves as f64),
            solves,
        );
        for (metric, field) in [
            ("serve.solves", "solves"),
            ("serve.warm_seeded", "warm_seeded"),
            ("serve.coalesced", "coalesced"),
            ("serve.evictions", "evictions"),
            ("serve.shed", "shed"),
            ("serve.errors", "errors"),
        ] {
            out.layer(metric, get(field) as f64, n);
        }
        out.layer("serve.newton_iters", newton as f64, n);
        out.layer(
            "trace_overhead_frac",
            median(&out.traced_ms) / median(&out.latencies_ms) - 1.0,
            out.traced_ms.len(),
        );
        out.spans = spans;
    }
    Ok(out)
}
