//! # hslb-testkit — differential verification for the whole MINLP stack
//!
//! Three layers (see `DESIGN.md` § Testkit at the repository root):
//!
//! * [`gen`] — seeded generators for random *well-posed* instances at every
//!   level: bounded LPs, convex min-max NLPs, enumerable convex MINLPs with
//!   finite allowed-value domains, noisy `T(n) = a/n^c + b·n + d` benchmark
//!   datasets, and full CESM layout scenarios. Every instance carries a
//!   known feasible point or generating ground truth.
//! * [`check`] — differential checkers: simplex vs its dual certificate,
//!   barrier vs its multiplier certificate, the three B&B backends
//!   vs the exhaustive oracle, flat and CESM layout answers vs the exact
//!   structure certificate, fits vs generating truth, pipeline prediction
//!   vs simulator actuals.
//! * [`meta`] — metamorphic properties (permutation invariance, budget
//!   monotonicity, fit scaling invariance) that catch agreeing-but-wrong
//!   implementations.
//!
//! Determinism: every case is a pure function of `(layer, seed, size)`.
//! The `testkit` binary fuzzes fresh seeds and, on failure, shrinks `size`
//! and prints the minimized repro triple; `corpus/regressions.txt` replays
//! previously-found failures forever.

pub mod check;
pub mod gen;
pub mod meta;

use hslb_rng::Rng;

/// One verification layer. Each pairs a generator with its checker.
///
/// The discriminant seeds every case of the layer ([`run_case`]), so it is
/// fixed: a retired layer leaves a gap rather than renumbering the layers
/// after it, which would make corpus entries replay different cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Lp = 0,
    Nlp = 2,
    Minlp = 3,
    Flat = 4,
    Fit = 5,
    Cesm = 6,
    Pipeline = 7,
    Wire = 8,
    MetaPermutation = 9,
    MetaMonotonicity = 10,
    MetaFitScaling = 11,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::Lp,
        Layer::Nlp,
        Layer::Minlp,
        Layer::Flat,
        Layer::Fit,
        Layer::Cesm,
        Layer::Pipeline,
        Layer::Wire,
        Layer::MetaPermutation,
        Layer::MetaMonotonicity,
        Layer::MetaFitScaling,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Lp => "lp",
            Layer::Nlp => "nlp",
            Layer::Minlp => "minlp",
            Layer::Flat => "flat",
            Layer::Fit => "fit",
            Layer::Cesm => "cesm",
            Layer::Pipeline => "pipeline",
            Layer::Wire => "wire",
            Layer::MetaPermutation => "meta-permutation",
            Layer::MetaMonotonicity => "meta-monotonicity",
            Layer::MetaFitScaling => "meta-fit-scaling",
        }
    }

    pub fn from_name(name: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == name)
    }

    /// Rough relative cost of one case, used to budget suite composition
    /// (an exhaustive-oracle MINLP solve is ~1000x an LP solve; a pipeline
    /// run benchmarks, fits and solves a full scenario).
    pub fn relative_cost(self) -> u32 {
        match self {
            // Wire cases stay cost-1 (they only solve at small sizes), so
            // `fuzz --layer wire --seeds N` runs exactly N cases.
            Layer::Lp | Layer::Wire => 1,
            Layer::Nlp | Layer::MetaPermutation | Layer::MetaMonotonicity => 2,
            Layer::Flat => 4,
            Layer::Fit | Layer::MetaFitScaling => 10,
            Layer::Minlp | Layer::Cesm => 40,
            Layer::Pipeline => 300,
        }
    }
}

/// Per-family μ₀ heuristic: the `BarrierOptions::mu0_scale` testkit runs
/// apply to a family's MINLP solves (closes the ROADMAP watch item on
/// warm-start regressions for new problem families).
///
/// Tree-search families re-enter child NLPs from warm parent points that
/// are already near the central path's tail, so a reduced μ₀ skips
/// re-centering work the seed has already paid for; single-solve and
/// non-barrier families keep the neutral default. The per-family
/// warm-vs-cold Newton assertion in `tests/warm_cold_equivalence.rs`
/// guards these values: a family whose scale makes warm solves pay *more*
/// Newton iterations than cold fails there, not in production.
pub fn mu0_scale(layer: Layer) -> f64 {
    match layer {
        // Branch-and-bound trees: descendants seed from the parent
        // relaxation, so the barrier starts nearly centered at small μ.
        Layer::Minlp | Layer::Pipeline => 0.5,
        // Everything else runs at the neutral μ₀ the shipped paths use.
        // CESM layout models and flat paper-model specs keep warm ≤ cold
        // there (warm Newton 18 071 vs cold 19 991 and 6 363 vs 6 825 over
        // the guard's 25 instances each) since the fallback finishes on
        // the predictor-corrector iterations.
        _ => 1.0,
    }
}

/// [`hslb_minlp::MinlpOptions`] as testkit runs configure them for one
/// family: the defaults plus the per-family μ₀ scale from [`mu0_scale`].
pub fn family_options(layer: Layer) -> hslb_minlp::MinlpOptions {
    hslb_minlp::MinlpOptions {
        mu0_scale: mu0_scale(layer),
        ..hslb_minlp::MinlpOptions::default()
    }
}

/// Runs a single case — a pure function of `(layer, seed, size)`.
pub fn run_case(layer: Layer, seed: u64, size: u32) -> Result<(), String> {
    let mut rng = Rng::new(hslb_rng::hash_mix(&[seed, layer as u64]));
    match layer {
        Layer::Lp => check::check_lp(&gen::lp_instance(&mut rng, size)),
        Layer::Nlp => check::check_nlp(&gen::nlp_instance(&mut rng, size)),
        Layer::Minlp => check::check_minlp(&gen::minlp_instance(&mut rng, size)),
        Layer::Flat => check::check_flat(&gen::flat_spec(&mut rng, size)),
        Layer::Fit => check::check_fit(&gen::fit_dataset(&mut rng, size)),
        Layer::Cesm => {
            let spec = gen::cesm_spec(&mut rng, size);
            check::check_cesm(&spec, hslb::Layout::ALL[rng.usize_range(0, 2)])
        }
        Layer::Pipeline => check::check_pipeline(32 + 16 * size as u64, seed),
        Layer::Wire => check::check_wire(&mut rng, size),
        Layer::MetaPermutation => meta::permutation_invariance(&mut rng, size),
        Layer::MetaMonotonicity => meta::budget_monotonicity(&mut rng, size),
        Layer::MetaFitScaling => meta::fit_scaling_invariance(&mut rng, size),
    }
}

/// A failing case, minimized over `size`.
#[derive(Debug, Clone)]
pub struct Failure {
    pub layer: Layer,
    pub seed: u64,
    pub size: u32,
    pub message: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} seed={:#018x} size={}] {}\n  repro: cargo run --release -p hslb-testkit -- replay --layer {} --seed {:#x} --size {}",
            self.layer.name(),
            self.seed,
            self.size,
            self.message,
            self.layer.name(),
            self.seed,
            self.size
        )
    }
}

/// Shrinks a failing case along the `size` axis: returns the smallest size
/// (same seed) that still fails, with its message.
pub fn minimize(layer: Layer, seed: u64, size: u32, message: String) -> Failure {
    for smaller in 1..size {
        if let Err(msg) = run_case(layer, seed, smaller) {
            return Failure {
                layer,
                seed,
                size: smaller,
                message: msg,
            };
        }
    }
    Failure {
        layer,
        seed,
        size,
        message,
    }
}

/// Result of a suite run.
#[derive(Debug, Clone, Default)]
pub struct SuiteReport {
    pub cases_run: usize,
    pub failures: Vec<Failure>,
}

impl SuiteReport {
    pub fn merge(&mut self, other: SuiteReport) {
        self.cases_run += other.cases_run;
        self.failures.extend(other.failures);
    }
}

/// Runs `cases` seeded cases of one layer starting from `base_seed`
/// (case `i` uses seed `hash_mix([base_seed, i])`, so case sets for
/// different bases are independent). Failures are size-minimized.
pub fn run_layer(layer: Layer, base_seed: u64, cases: usize) -> SuiteReport {
    let mut report = SuiteReport::default();
    for i in 0..cases {
        let seed = hslb_rng::hash_mix(&[base_seed, i as u64]);
        let size = 1 + (hslb_rng::hash_mix(&[seed, 0x5a]) % gen::MAX_SIZE as u64) as u32;
        report.cases_run += 1;
        if let Err(msg) = run_case(layer, seed, size) {
            report.failures.push(minimize(layer, seed, size, msg));
        }
    }
    report
}

/// The standard deterministic suite: a fixed per-layer case budget chosen
/// so the whole run clears 500+ instances in well under a minute in
/// release mode (see `tests/testkit_differential.rs` at the repo root).
pub fn run_suite(base_seed: u64) -> SuiteReport {
    let mut report = SuiteReport::default();
    for layer in Layer::ALL {
        let cases = match layer {
            Layer::Lp => 160,
            Layer::Nlp => 80,
            Layer::Flat => 80,
            Layer::Fit => 40,
            Layer::Wire => 100,
            Layer::MetaPermutation => 60,
            Layer::MetaMonotonicity => 60,
            Layer::MetaFitScaling => 15,
            Layer::Minlp => 25,
            Layer::Cesm => 15,
            Layer::Pipeline => 2,
        };
        report.merge(run_layer(layer, base_seed, cases));
    }
    report
}

/// Regression corpus entries: `(layer, seed, size)` triples replayed by the
/// tier-1 tests. Parsed from `corpus/regressions.txt` (committed); lines
/// are `layer 0xSEED size # comment`.
pub fn corpus_cases() -> Vec<(Layer, u64, u32)> {
    let text = include_str!("../corpus/regressions.txt");
    let mut cases = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (layer, seed, size) = (|| {
            let layer = Layer::from_name(parts.next()?)?;
            let seed_text = parts.next()?;
            let seed = seed_text
                .strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .or_else(|| seed_text.parse().ok())?;
            let size = parts.next()?.parse().ok()?;
            Some((layer, seed, size))
        })()
        .unwrap_or_else(|| {
            panic!(
                "corpus/regressions.txt line {}: bad entry {line:?}",
                lineno + 1
            )
        });
        cases.push((layer, seed, size));
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        // Same (layer, seed, size) must produce the same verdict and, for
        // failures, the same message — this is what makes repro seeds work.
        for layer in [Layer::Lp, Layer::Flat, Layer::MetaMonotonicity] {
            let a = run_case(layer, 42, 3);
            let b = run_case(layer, 42, 3);
            assert_eq!(a, b, "{layer:?} not deterministic");
        }
    }

    #[test]
    fn layer_discriminants_are_pinned() {
        // `run_case` seeds from `layer as u64`; changing any of these
        // re-seeds the layer and breaks its corpus entries.
        let pinned: Vec<(Layer, u64)> = Layer::ALL.iter().map(|&l| (l, l as u64)).collect();
        assert_eq!(
            pinned,
            [
                (Layer::Lp, 0),
                (Layer::Nlp, 2),
                (Layer::Minlp, 3),
                (Layer::Flat, 4),
                (Layer::Fit, 5),
                (Layer::Cesm, 6),
                (Layer::Pipeline, 7),
                (Layer::Wire, 8),
                (Layer::MetaPermutation, 9),
                (Layer::MetaMonotonicity, 10),
                (Layer::MetaFitScaling, 11),
            ]
        );
    }

    #[test]
    fn layer_names_round_trip() {
        for layer in Layer::ALL {
            assert_eq!(Layer::from_name(layer.name()), Some(layer));
        }
    }

    #[test]
    fn corpus_parses() {
        // An empty or comment-only corpus is fine; a malformed line panics.
        let _ = corpus_cases();
    }

    #[test]
    fn smoke_one_case_per_layer() {
        for layer in [Layer::Lp, Layer::Nlp, Layer::Flat, Layer::Fit] {
            if let Err(msg) = run_case(layer, 7, 2) {
                panic!("{}: {msg}", layer.name());
            }
        }
    }
}
