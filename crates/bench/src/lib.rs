//! Benchmark harness: regenerates every table and figure of the HSLB papers.
//!
//! See `DESIGN.md` (per-experiment index) and `EXPERIMENTS.md` (results) at
//! the repository root. The `tables` binary drives the [`harness`] functions
//! from the command line, and `hslb-perf` pins the solver suite's work
//! counters ([`perf`]). Wall clock is measured by `tables` (E7, E8, the
//! sparse simplex) and by the separate `perfbench` package.

pub mod harness;
pub mod netgen;
pub mod perf;
pub mod serve_perf;
