//! Benchmark harness: regenerates every table and figure of the HSLB papers.
//!
//! See `DESIGN.md` (per-experiment index) and `EXPERIMENTS.md` (results) at
//! the repository root. The `tables` binary drives the [`harness`] functions
//! from the command line; the `benches/` targets measure the solver-side
//! claims (§III-E solve time, SOS-branching ablation) using the dependency
//! free [`timing`] runner.

pub mod harness;
pub mod netgen;
pub mod perf;
pub mod serve_perf;
pub mod timing;
