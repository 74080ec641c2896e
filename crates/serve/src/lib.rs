//! HSLB-as-a-service: a batched, cache-reusing allocation daemon.
//!
//! This crate turns the solver workspace into a long-running server:
//!
//! * [`frame`] — length-prefixed framing over any byte stream;
//! * [`protocol`] — the JSON request/response envelope (built on
//!   `hslb_json`, no external dependencies);
//! * [`fingerprint`](mod@fingerprint) — two-level instance hashes (structure vs
//!   coefficients) that key sharding, caching and warm-start reuse;
//! * [`cache`] — the per-shard LRU of `{incumbent, warm seed}` state;
//! * [`shard`] — one worker's state and request handlers (cold /
//!   cache-replay / warm-seeded solve trichotomy, observation store,
//!   model fitting);
//! * [`engine`] — deterministic routing + micro-batching core, shared
//!   verbatim by the synchronous [`Engine`] (tests, benches) and the
//!   threaded [`Server`];
//! * [`server`] — acceptor-facing threaded front: bounded per-shard
//!   queues, worker pool, backpressure with explicit `Overloaded`
//!   replies, and the in-process [`Handle`] used by tests;
//! * [`wire`] — bytes-in/bytes-out request handling shared by the TCP
//!   front and the wire fuzz layer;
//! * [`tcp`] — the TCP acceptor used by the `hslb-serve` binary.
//!
//! Determinism contract: all time flows through the injectable
//! [`hslb_obs::ClockHandle`] inside `MinlpOptions`; requests without a
//! deadline budget never read the clock at all, so an unbudgeted
//! workload on a stepping fake clock is bit-reproducible, counters
//! included.

pub mod cache;
pub mod engine;
pub mod fingerprint;
pub mod frame;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod tcp;
pub mod wire;

pub use engine::{Engine, EngineOptions, Job};
pub use fingerprint::{fingerprint, Fingerprint};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME};
pub use protocol::{Body, ErrorKind, Request, Response, Source};
pub use server::{Handle, Server, ServerOptions};
pub use shard::{BudgetState, Shard, ShardOptions};
pub use wire::respond_bytes;
