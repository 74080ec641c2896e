//! Request/response envelopes of the wire protocol.
//!
//! One request frame carries one JSON object tagged by `"op"`; one reply
//! frame carries `{"served": {...}, "body": {...}}` where `served` is the
//! per-request [`ServeStats`] delta the handling shard recorded (so a
//! client can sum its replies and reconcile them against the server's
//! aggregate counters) and `body` is tagged by `"kind"`.
//!
//! Requests:
//!
//! ```json
//! {"op":"solve","spec":{"components":[...],"total_nodes":18,"objective":"MinMax"},"budget":1.5}
//! {"op":"observe","component":"dynamics","points":[[8,123.4],[16,77.1]]}
//! {"op":"fit","component":"dynamics"}
//! {"op":"stats"}
//! {"op":"ping"}
//! ```
//!
//! Replies (`body` variants): `allocation`, `ack`, `model`, `stats`,
//! `pong`, `error`. Non-finite numbers (an infeasible solve's `objective`)
//! encode as `null`, matching `crates/json` semantics.

use hslb::{FlatSpec, Objective};
use hslb_json::{field, opt_field, DecodeError, FromJson, Json, ToJson};
use hslb_minlp::MinlpStatus;
use hslb_obs::{ServeStats, SolveStats};
use hslb_perfmodel::PerfModel;

/// One client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Solve a flat allocation, optionally under a deadline budget
    /// (seconds, measured on the server clock from admission; the time
    /// spent queued counts against it).
    Solve { spec: FlatSpec, budget: Option<f64> },
    /// Ingest scaling observations `(nodes, seconds)` for a component.
    Observe {
        component: String,
        points: Vec<(u64, f64)>,
    },
    /// Fit the paper's performance model to a component's observations.
    Fit { component: String },
    /// Snapshot the server's aggregate counters.
    Stats,
    /// Liveness probe.
    Ping,
}

/// Where a solve answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Fresh solve, no cached state.
    Cold,
    /// Exact fingerprint match: the cached answer was replayed, no solve.
    Cache,
    /// Structure matched but coefficients drifted: re-solved, warm-seeded
    /// from the cached solution.
    Warm,
}

impl Source {
    fn name(self) -> &'static str {
        match self {
            Source::Cold => "cold",
            Source::Cache => "cache",
            Source::Warm => "warm",
        }
    }

    fn from_name(s: &str) -> Option<Source> {
        match s {
            "cold" => Some(Source::Cold),
            "cache" => Some(Source::Cache),
            "warm" => Some(Source::Warm),
            _ => None,
        }
    }
}

/// Structured error classes a client can dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed envelope or a spec the solver cannot accept.
    Invalid,
    /// The target shard's queue was full; retry with backoff. Never a
    /// silent drop — every shed produces this reply.
    Overloaded,
    /// `fit` on a component with no ingested observations.
    UnknownComponent,
    /// The server is draining and no longer admits requests.
    Shutdown,
}

impl ErrorKind {
    fn name(self) -> &'static str {
        match self {
            ErrorKind::Invalid => "invalid",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::UnknownComponent => "unknown_component",
            ErrorKind::Shutdown => "shutdown",
        }
    }

    fn from_name(s: &str) -> Option<ErrorKind> {
        match s {
            "invalid" => Some(ErrorKind::Invalid),
            "overloaded" => Some(ErrorKind::Overloaded),
            "unknown_component" => Some(ErrorKind::UnknownComponent),
            "shutdown" => Some(ErrorKind::Shutdown),
            _ => None,
        }
    }
}

/// Reply payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// Solve answer. `nodes`/`times` are empty when `status` is not
    /// `optimal` and no incumbent was found; `objective` is `null` on the
    /// wire when non-finite.
    Allocation {
        status: MinlpStatus,
        nodes: Vec<u64>,
        times: Vec<f64>,
        objective: f64,
        makespan: f64,
        work: SolveStats,
        source: Source,
    },
    /// Observation ingest acknowledged; `accepted` counts this request's
    /// own points (coalesced batch-mates acknowledge their own).
    Ack { component: String, accepted: usize },
    /// Fitted model for a component.
    Model {
        component: String,
        model: PerfModel,
        points: usize,
    },
    /// Aggregate server counters (all shards merged).
    Stats {
        serve: ServeStats,
        solver: SolveStats,
    },
    /// Liveness answer.
    Pong,
    /// Structured failure.
    Error { kind: ErrorKind, message: String },
}

/// One reply: the per-request counter delta plus the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Counters this request contributed to its shard's aggregate (all
    /// zero for replies produced outside a shard, e.g. framing errors).
    pub served: ServeStats,
    pub body: Body,
}

impl Response {
    /// A reply produced outside any shard: all-zero counter delta.
    pub fn unrecorded(body: Body) -> Response {
        Response {
            served: ServeStats::default(),
            body,
        }
    }

    /// Convenience error reply with an all-zero counter delta.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::unrecorded(Body::Error {
            kind,
            message: message.into(),
        })
    }
}

fn status_name(status: MinlpStatus) -> &'static str {
    match status {
        MinlpStatus::Optimal => "optimal",
        MinlpStatus::Infeasible => "infeasible",
        MinlpStatus::NodeLimit => "node_limit",
        MinlpStatus::TimeLimit => "time_limit",
    }
}

fn status_from_name(s: &str) -> Option<MinlpStatus> {
    match s {
        "optimal" => Some(MinlpStatus::Optimal),
        "infeasible" => Some(MinlpStatus::Infeasible),
        "node_limit" => Some(MinlpStatus::NodeLimit),
        "time_limit" => Some(MinlpStatus::TimeLimit),
        _ => None,
    }
}

/// Encodes [`SolveStats`] as an object keyed by its stable field names.
pub fn solve_stats_to_json(stats: &SolveStats) -> Json {
    Json::obj(
        stats
            .fields()
            .map(|(name, value)| (name, Json::from(value))),
    )
}

/// Decodes [`SolveStats`]; missing counters default to zero so newer
/// servers can add fields without breaking older clients.
pub fn solve_stats_from_json(v: &Json) -> Result<SolveStats, DecodeError> {
    SolveStats::from_fields(|name| Ok(opt_field(v, name)?.unwrap_or(0)))
}

/// Encodes [`ServeStats`] as an object keyed by its stable field names.
pub fn serve_stats_to_json(stats: &ServeStats) -> Json {
    Json::obj(
        stats
            .fields()
            .map(|(name, value)| (name, Json::from(value))),
    )
}

/// Decodes [`ServeStats`]; missing counters default to zero.
pub fn serve_stats_from_json(v: &Json) -> Result<ServeStats, DecodeError> {
    Ok(ServeStats {
        queries: opt_field(v, "queries")?.unwrap_or(0),
        solves: opt_field(v, "solves")?.unwrap_or(0),
        cache_hits: opt_field(v, "cache_hits")?.unwrap_or(0),
        warm_seeded: opt_field(v, "warm_seeded")?.unwrap_or(0),
        coalesced: opt_field(v, "coalesced")?.unwrap_or(0),
        shed: opt_field(v, "shed")?.unwrap_or(0),
        expired_in_queue: opt_field(v, "expired_in_queue")?.unwrap_or(0),
        errors: opt_field(v, "errors")?.unwrap_or(0),
        evictions: opt_field(v, "evictions")?.unwrap_or(0),
    })
}

impl ToJson for Request {
    fn to_json(&self) -> Json {
        match self {
            Request::Solve { spec, budget } => {
                let mut pairs = vec![("op", Json::from("solve")), ("spec", spec.to_json())];
                if let Some(b) = budget {
                    pairs.push(("budget", Json::from(*b)));
                }
                Json::obj(pairs)
            }
            Request::Observe { component, points } => Json::obj([
                ("op", Json::from("observe")),
                ("component", Json::from(component.as_str())),
                (
                    "points",
                    Json::arr(
                        points
                            .iter()
                            .map(|&(n, t)| Json::arr([Json::from(n), Json::from(t)])),
                    ),
                ),
            ]),
            Request::Fit { component } => Json::obj([
                ("op", Json::from("fit")),
                ("component", Json::from(component.as_str())),
            ]),
            Request::Stats => Json::obj([("op", Json::from("stats"))]),
            Request::Ping => Json::obj([("op", Json::from("ping"))]),
        }
    }
}

impl FromJson for Request {
    fn from_json(v: &Json) -> Result<Request, DecodeError> {
        let op: String = field(v, "op")?;
        match op.as_str() {
            "solve" => Ok(Request::Solve {
                spec: field(v, "spec")?,
                budget: opt_field(v, "budget")?,
            }),
            "observe" => {
                let component: String = field(v, "component")?;
                let raw = v
                    .get("points")
                    .and_then(Json::as_array)
                    .ok_or_else(|| DecodeError::new("points", "an array of [nodes, seconds]"))?;
                let mut points = Vec::with_capacity(raw.len());
                for (i, p) in raw.iter().enumerate() {
                    let pair = (|| {
                        let n = p.idx(0)?.as_u64()?;
                        let t = p.idx(1)?.as_f64()?;
                        (p.as_array()?.len() == 2).then_some((n, t))
                    })()
                    .ok_or_else(|| {
                        DecodeError::new(format!("points.[{i}]"), "a [nodes, seconds] pair")
                    })?;
                    points.push(pair);
                }
                Ok(Request::Observe { component, points })
            }
            "fit" => Ok(Request::Fit {
                component: field(v, "component")?,
            }),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            other => Err(DecodeError::new(
                "op",
                format!("one of solve|observe|fit|stats|ping, got {other:?}"),
            )),
        }
    }
}

impl ToJson for Body {
    fn to_json(&self) -> Json {
        match self {
            Body::Allocation {
                status,
                nodes,
                times,
                objective,
                makespan,
                work,
                source,
            } => Json::obj([
                ("kind", Json::from("allocation")),
                ("status", Json::from(status_name(*status))),
                ("nodes", Json::arr(nodes.iter().map(|&n| Json::from(n)))),
                ("times", Json::arr(times.iter().map(|&t| Json::from(t)))),
                ("objective", Json::from(*objective)),
                ("makespan", Json::from(*makespan)),
                ("work", solve_stats_to_json(work)),
                ("source", Json::from(source.name())),
            ]),
            Body::Ack {
                component,
                accepted,
            } => Json::obj([
                ("kind", Json::from("ack")),
                ("component", Json::from(component.as_str())),
                ("accepted", Json::from(*accepted as u64)),
            ]),
            Body::Model {
                component,
                model,
                points,
            } => Json::obj([
                ("kind", Json::from("model")),
                ("component", Json::from(component.as_str())),
                ("model", model.to_json()),
                ("points", Json::from(*points as u64)),
            ]),
            Body::Stats { serve, solver } => Json::obj([
                ("kind", Json::from("stats")),
                ("serve", serve_stats_to_json(serve)),
                ("solver", solve_stats_to_json(solver)),
            ]),
            Body::Pong => Json::obj([("kind", Json::from("pong"))]),
            Body::Error { kind, message } => Json::obj([
                ("kind", Json::from("error")),
                ("error", Json::from(kind.name())),
                ("message", Json::from(message.as_str())),
            ]),
        }
    }
}

impl FromJson for Body {
    fn from_json(v: &Json) -> Result<Body, DecodeError> {
        let kind: String = field(v, "kind")?;
        match kind.as_str() {
            "allocation" => {
                let status: String = field(v, "status")?;
                let status = status_from_name(&status)
                    .ok_or_else(|| DecodeError::new("status", "a solve status name"))?;
                Ok(Body::Allocation {
                    status,
                    nodes: field(v, "nodes")?,
                    times: field(v, "times")?,
                    // Non-finite objectives encode as null.
                    objective: opt_field(v, "objective")?.unwrap_or(f64::INFINITY),
                    makespan: opt_field(v, "makespan")?.unwrap_or(f64::INFINITY),
                    work: solve_stats_from_json(
                        v.get("work")
                            .ok_or_else(|| DecodeError::new("work", "a counters object"))?,
                    )?,
                    source: Source::from_name(&field::<String>(v, "source")?)
                        .ok_or_else(|| DecodeError::new("source", "cold|cache|warm"))?,
                })
            }
            "ack" => Ok(Body::Ack {
                component: field(v, "component")?,
                accepted: field(v, "accepted")?,
            }),
            "model" => Ok(Body::Model {
                component: field(v, "component")?,
                model: field(v, "model")?,
                points: field(v, "points")?,
            }),
            "stats" => Ok(Body::Stats {
                serve: serve_stats_from_json(
                    v.get("serve")
                        .ok_or_else(|| DecodeError::new("serve", "a counters object"))?,
                )?,
                solver: solve_stats_from_json(
                    v.get("solver")
                        .ok_or_else(|| DecodeError::new("solver", "a counters object"))?,
                )?,
            }),
            "pong" => Ok(Body::Pong),
            "error" => {
                let err: String = field(v, "error")?;
                Ok(Body::Error {
                    kind: ErrorKind::from_name(&err)
                        .ok_or_else(|| DecodeError::new("error", "an error kind name"))?,
                    message: field(v, "message")?,
                })
            }
            other => Err(DecodeError::new(
                "kind",
                format!("a reply kind, got {other:?}"),
            )),
        }
    }
}

impl ToJson for Response {
    fn to_json(&self) -> Json {
        Json::obj([
            ("served", serve_stats_to_json(&self.served)),
            ("body", self.body.to_json()),
        ])
    }
}

impl FromJson for Response {
    fn from_json(v: &Json) -> Result<Response, DecodeError> {
        Ok(Response {
            served: serve_stats_from_json(
                v.get("served")
                    .ok_or_else(|| DecodeError::new("served", "a counters object"))?,
            )?,
            body: field(v, "body")?,
        })
    }
}

/// Validates a spec beyond what the JSON codec enforces, so in-process
/// callers (which bypass `FromJson`) and the model builder's `assert!`s
/// are both covered: the builder panics on `total_nodes < k`, and an
/// empty allowed `Set` panics inside domain hulls. A server must answer
/// a structured error instead.
pub fn validate_spec(spec: &FlatSpec) -> Result<(), String> {
    let k = spec.components.len();
    if k == 0 {
        return Err("spec has no components".to_string());
    }
    if spec.total_nodes < k as i64 {
        return Err(format!(
            "total_nodes {} cannot host one node per component (k = {k})",
            spec.total_nodes
        ));
    }
    for (j, c) in spec.components.iter().enumerate() {
        match &c.allowed {
            hslb::AllowedNodes::Range { min, max } => {
                if *min < 1 || min > max {
                    return Err(format!(
                        "component {j} ({}) has an empty or non-positive range {min}..{max}",
                        c.name
                    ));
                }
            }
            hslb::AllowedNodes::Set(vals) => {
                if vals.is_empty() {
                    return Err(format!(
                        "component {j} ({}) has an empty allowed set",
                        c.name
                    ));
                }
                if vals.iter().any(|&v| v < 1) {
                    return Err(format!(
                        "component {j} ({}) allows non-positive node counts",
                        c.name
                    ));
                }
            }
        }
        for (name, value) in [
            ("a", c.model.a),
            ("b", c.model.b),
            ("c", c.model.c),
            ("d", c.model.d),
        ] {
            if !value.is_finite() {
                return Err(format!(
                    "component {j} ({}) has non-finite model parameter {name}",
                    c.name
                ));
            }
        }
    }
    match spec.objective {
        Objective::MinMax | Objective::MaxMin | Objective::MinSum => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb::ComponentSpec;

    fn spec() -> FlatSpec {
        FlatSpec {
            components: vec![
                ComponentSpec::new("a", PerfModel::amdahl(120.0, 0.1), 1, 16),
                ComponentSpec::with_set("b", PerfModel::amdahl(60.0, 0.0), [2, 4, 8]),
            ],
            total_nodes: 12,
            objective: Objective::MinMax,
        }
    }

    fn roundtrip_request(req: &Request) {
        let text = req.to_json().to_compact();
        let back = Request::from_json(&Json::parse(&text).expect("encoder emits valid JSON"))
            .expect("encoder output decodes");
        assert_eq!(back.to_json().to_compact(), text, "fixed point");
    }

    #[test]
    fn requests_round_trip_to_fixed_point() {
        roundtrip_request(&Request::Solve {
            spec: spec(),
            budget: Some(1.5),
        });
        roundtrip_request(&Request::Solve {
            spec: spec(),
            budget: None,
        });
        roundtrip_request(&Request::Observe {
            component: "dyn".into(),
            points: vec![(8, 123.5), (16, 77.25)],
        });
        roundtrip_request(&Request::Fit {
            component: "dyn".into(),
        });
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Ping);
    }

    #[test]
    fn responses_round_trip_to_fixed_point() {
        let bodies = [
            Body::Allocation {
                status: MinlpStatus::Optimal,
                nodes: vec![4, 8],
                times: vec![30.25, 30.25],
                objective: 30.25,
                makespan: 30.25,
                work: SolveStats {
                    nodes_opened: 3,
                    nlp_solves: 4,
                    ..Default::default()
                },
                source: Source::Warm,
            },
            Body::Allocation {
                status: MinlpStatus::Infeasible,
                nodes: vec![],
                times: vec![],
                objective: f64::INFINITY,
                makespan: f64::INFINITY,
                work: SolveStats::default(),
                source: Source::Cold,
            },
            Body::Ack {
                component: "dyn".into(),
                accepted: 3,
            },
            Body::Model {
                component: "dyn".into(),
                model: PerfModel::amdahl(100.0, 0.05),
                points: 12,
            },
            Body::Stats {
                serve: ServeStats {
                    queries: 10,
                    cache_hits: 4,
                    ..Default::default()
                },
                solver: SolveStats::default(),
            },
            Body::Pong,
            Body::Error {
                kind: ErrorKind::Overloaded,
                message: "shard 2 queue full".into(),
            },
        ];
        for body in bodies {
            let resp = Response {
                served: ServeStats {
                    queries: 1,
                    ..Default::default()
                },
                body,
            };
            let text = resp.to_json().to_compact();
            let back = Response::from_json(&Json::parse(&text).expect("encoder emits valid JSON"))
                .expect("encoder output decodes");
            assert_eq!(back.to_json().to_compact(), text, "fixed point");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn validate_rejects_builder_panics() {
        let mut s = spec();
        s.total_nodes = 1; // < k: build_flat_model would assert
        assert!(validate_spec(&s).is_err());

        let mut s = spec();
        s.components[0].model.a = f64::NAN;
        assert!(validate_spec(&s).is_err());

        let mut s = spec();
        s.components[1].allowed = hslb::AllowedNodes::Set(vec![]);
        assert!(validate_spec(&s).is_err());

        assert!(validate_spec(&spec()).is_ok());
    }
}
