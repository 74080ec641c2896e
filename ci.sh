#!/usr/bin/env bash
# Local CI gate: everything a PR must pass, in the order that fails fastest.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
# The pedantic trio (float_cmp, cast_possible_truncation, indexing_slicing)
# stays at warn level in [workspace.lints] so `cargo clippy` shows it, but
# hslb-lint is the enforcing gate for those hazards (it understands the
# workspace's tolerance vocabulary and suppression grammar), so CI does not
# hard-fail on them here. Later -A flags override the earlier -D.
cargo clippy --workspace --all-targets -- -D warnings \
  -A clippy::float_cmp -A clippy::cast_possible_truncation -A clippy::indexing_slicing

echo "== rustdoc =="
# Every intra-doc link must resolve, private items included, so a deletion
# cannot leave docs that name an item which no longer exists.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items

echo "== lint (hslb-lint) =="
cargo run --release -q -p hslb-lint -- --workspace

echo "== build (release) =="
cargo build --release --workspace

echo "== benchmark build + determinism (perfbench --quick) =="
# perfbench is a package of its own that builds the workspace crates from
# source. --locked fails when a workspace change would rewrite
# perfbench/Cargo.lock; each --quick run replays one fixed slice of its
# workload twice and exits 1 unless the work counters agree.
cargo build --offline --locked --release --manifest-path perfbench/Cargo.toml
for workload in cesm_pipeline fmo_alloc serve_mixed; do
  cargo run --offline --locked --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --quick
done

echo "== tests =="
cargo test --workspace -q

echo "== warm/cold equivalence =="
# Warm starts must never change answers: 500 seeded instances across all
# three backends, warm vs cold (see DESIGN.md § Warm starts). Release mode:
# the suite solves ~3000 MINLPs.
cargo test --release -q --test warm_cold_equivalence

echo "== certified optima =="
# Answers of the numerical core, checked without a second solver: 260
# seeded LPs (200 generated, 60 netlib-style) whose simplex optima must
# certify from their own duals, 120 seeded NLPs whose barrier optima must
# certify from their own multipliers, the FMO-root battery (15 root
# relaxations of 8 to 256 fragments and 12 synthetic min-max ones with
# upward-turning models, each on the structured KKT factor, and 3 MinSum
# roots of 100 components on the dense one), and a pinned pivot/Newton
# envelope (see DESIGN.md § Sparse core).
cargo test --release -q --test certified_optima

echo "== serve equivalence =="
# The serving layer must never change answers: 500 seeded instances solved
# cold and through the daemon (cache replay, warm-seeded re-solves, batch
# coalescing) must agree bit-for-bit (see DESIGN.md § Serve).
cargo test --release -q --test serve_equivalence

echo "== serve soak =="
# Concurrency discipline: 8 client threads x 200 mixed requests against one
# live server; totals and cache state must land on the same deterministic
# envelope every run.
cargo test --release -q --test serve_soak

echo "== perf counters (hslb-perf --smoke) =="
# Counter-based perf-regression gate: re-runs the pinned solver suite and
# diffs its deterministic work counters against the committed
# BENCH_solver.json baseline; a failure names the counter that regressed
# and by how much (see DESIGN.md § Observability).
./target/release/hslb-perf --smoke

echo "== serve throughput (hslb-perf --serve-qps) =="
# Wall-clock gate: mixed cheap traffic (pings + verbatim cache replays)
# through the threaded server must sustain >= 1000 queries/sec. Observed
# ~100x that; the floor only catches gross serialization regressions.
./target/release/hslb-perf --serve-qps

echo "== differential fuzz (capped) =="
# A short hunt on top of the deterministic tier-1 suite. The fixed start
# seed keeps this gate deterministic while covering seeds the suite and
# corpus do not.
./target/release/testkit fuzz --seeds 40 --start 0xC1C1C1C1

echo "== lp and flat fuzz =="
# The simplex warm path gets a deeper sweep. Every lp case also re-solves
# one owned WarmLp as a cut loop does: from the slack basis, with a
# variable pinned, with the pin released, and after appending a cut the
# cold optimum violates (bordering the kept factor), each answer against
# the cold solve; every flat case is a min-max OA solve (its masters on the
# dual simplex over a kept tableau) on paper models and allowed sets,
# whose answer and the waterfill's must pass the exact structure
# certificate. The flat layer runs on every fourth round, so the second
# command is 1,000 OA solves; the pair takes about a second.
./target/release/testkit fuzz --layer lp --seeds 2000
./target/release/testkit fuzz --layer flat --seeds 4000

echo "== nlp fuzz =="
# Every nlp case solves a seeded min-max NLP and checks the barrier optimum
# against its multiplier certificate (feasibility, multiplier signs,
# reduced gradients and a zero duality gap at relative 1e-7), then
# re-solves it with hostile coefficients. The layer runs on every second
# round, so the command is 1,000 cases.
./target/release/testkit fuzz --layer nlp --seeds 2000

echo "== minlp, cesm and pipeline fuzz =="
# The OA tree, with its integer-secant cut rounds, gets a deeper sweep on
# every layer that runs it: each minlp case checks every backend against
# the exhaustive oracle, each cesm case certifies an OA solve of one layout
# (drawn from the seed) on paper models and allowed sets against the exact
# structure certificate, and each pipeline case runs gather, fit, OA solve
# and execute on a seeded 1° scenario. The layers run on every 40th, 40th
# and 50th round (their cost weights, capped at 50), so the commands below
# are 500, 500 and 400 cases; the three take about 15 s, nearly all of
# it in the minlp layer.
./target/release/testkit fuzz --layer minlp --seeds 20000
./target/release/testkit fuzz --layer cesm --seeds 20000
./target/release/testkit fuzz --layer pipeline --seeds 20000

echo "== fit fuzz =="
# The fit layer and its scaling metamorphic check get a deeper sweep. Both
# layers run on every tenth round (their testkit cost weight), so each
# command below is 200 cases; a fit costs tens of microseconds since the
# profile search replaced the LM multistart, so the pair takes well under
# a second.
./target/release/testkit fuzz --layer fit --seeds 2000
./target/release/testkit fuzz --layer meta-fit-scaling --seeds 2000

echo "== wire fuzz =="
# The serving wire front gets its own deeper sweep: 1500 generated
# envelopes plus corrupted-frame probes per case (truncation, byte flips,
# length-prefix lies) must never wedge, crash, or desync the server. This
# sweep is what caught the non-finite Cholesky regularization spin.
./target/release/testkit fuzz --layer wire --seeds 1500

echo "CI OK"
