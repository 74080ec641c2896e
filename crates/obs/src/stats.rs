//! Deterministic solver work counters.

/// Cumulative work counters for one solve.
///
/// Every field counts *algorithmic events*, never time: two runs of the
/// same build on the same instance produce identical `SolveStats`, which is
/// what lets `hslb-perf` diff a perf baseline in CI without wall-clock
/// flakiness. Parallel solvers accumulate per-task counter sets and
/// [`merge`](SolveStats::merge) them, so totals are order-independent
/// (sums of non-negative integers commute).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes actually processed (popped and counted
    /// against `max_nodes`; nodes skipped after a limit fired are not
    /// counted).
    pub nodes_opened: u64,
    /// Nodes discarded because their bound could not beat the incumbent —
    /// either the inherited parent bound or the freshly solved relaxation.
    pub pruned_by_bound: u64,
    /// Nodes whose relaxation was infeasible (including boxes emptied by
    /// bound propagation and relaxations that failed to produce a point).
    pub pruned_infeasible: u64,
    /// Strict improvements of the incumbent (first feasible point counts).
    pub incumbents: u64,
    /// Outer-approximation cuts added to the LP master problem.
    pub oa_cuts: u64,
    /// LP (simplex) solves issued.
    pub lp_solves: u64,
    /// NLP (barrier) solves issued, including polishing re-solves.
    pub nlp_solves: u64,
    /// Total simplex pivots across all LP solves.
    pub simplex_pivots: u64,
    /// Total Newton iterations across all barrier solves. Under the
    /// predictor-corrector barrier each accepted iteration counts once here
    /// (and once each in `predictor_steps`/`corrector_steps`).
    pub newton_iters: u64,
    /// Affine-scaling predictor solves in the Mehrotra barrier (one per
    /// predictor-corrector iteration).
    pub predictor_steps: u64,
    /// Centering-corrector solves in the Mehrotra barrier (one per
    /// predictor-corrector iteration, plus pure-centering rescue solves).
    pub corrector_steps: u64,
    /// Merit-function backtracks: trial steps rejected by the barrier line
    /// search before a step was accepted, in the predictor-corrector
    /// iterations and the fixed-μ fallback's stages alike.
    pub line_search_backtracks: u64,
    /// Barrier solves in which the fixed-μ fallback ran: the
    /// predictor-corrector iterations ended unconverged, or the problem had
    /// no barrier terms.
    pub barrier_fallbacks: u64,
    /// Fit work: profile evaluations (one nonnegative least-squares solve
    /// at one decay exponent each) summed over all fits. The name dates
    /// from the Levenberg–Marquardt fit the profile search replaced.
    pub lm_steps: u64,
    /// Variable-bound tightenings performed by presolve/propagation.
    pub presolve_tightenings: u64,
    /// Solves (LP or NLP) that actually reused warm-start state — a parent
    /// barrier seed whose repair succeeded, or the simplex basis an OA
    /// master kept from its previous solve.
    pub warm_start_hits: u64,
    /// Dual-simplex pivots spent restoring primal feasibility from reused
    /// bases (a subset of `simplex_pivots`).
    pub dual_pivots: u64,
    /// Simplex basis refactorizations (sparse LU). An OA master keeps its
    /// factor across re-solves, so it counts only the rebuilds its eta
    /// chain or a drifted optimum asked for. The barrier's structured and
    /// dense KKT factorizations are not counted here.
    pub factorizations: u64,
    /// Product-form eta updates appended to the sparse basis factor
    /// between refactorizations.
    pub factor_updates: u64,
    /// Cumulative nonzeros across all simplex basis factors produced.
    pub fill_nnz: u64,
}

impl SolveStats {
    /// Number of counters in [`fields`](SolveStats::fields).
    pub const FIELD_COUNT: usize = 20;

    /// Adds every counter of `other` into `self` (parallel merge).
    pub fn merge(&mut self, other: &SolveStats) {
        for ((_, mine), (_, theirs)) in self.fields_mut().into_iter().zip(other.fields()) {
            *mine += theirs;
        }
    }

    /// Builds counters by looking each [`fields`](SolveStats::fields) name
    /// up with `read` — the decoder side of the serialization schema.
    pub fn from_fields<E>(
        mut read: impl FnMut(&'static str) -> Result<u64, E>,
    ) -> Result<SolveStats, E> {
        let mut stats = SolveStats::default();
        for (name, slot) in stats.fields_mut() {
            *slot = read(name)?;
        }
        Ok(stats)
    }

    /// Stable `(name, value)` view of every counter, in declaration order.
    /// The names are the serialization schema used by `hslb-cli` and
    /// `BENCH_solver.json` — treat them as a public format.
    pub fn fields(&self) -> [(&'static str, u64); Self::FIELD_COUNT] {
        [
            ("nodes_opened", self.nodes_opened),
            ("pruned_by_bound", self.pruned_by_bound),
            ("pruned_infeasible", self.pruned_infeasible),
            ("incumbents", self.incumbents),
            ("oa_cuts", self.oa_cuts),
            ("lp_solves", self.lp_solves),
            ("nlp_solves", self.nlp_solves),
            ("simplex_pivots", self.simplex_pivots),
            ("newton_iters", self.newton_iters),
            ("predictor_steps", self.predictor_steps),
            ("corrector_steps", self.corrector_steps),
            ("line_search_backtracks", self.line_search_backtracks),
            ("barrier_fallbacks", self.barrier_fallbacks),
            ("lm_steps", self.lm_steps),
            ("presolve_tightenings", self.presolve_tightenings),
            ("warm_start_hits", self.warm_start_hits),
            ("dual_pivots", self.dual_pivots),
            ("factorizations", self.factorizations),
            ("factor_updates", self.factor_updates),
            ("fill_nnz", self.fill_nnz),
        ]
    }

    /// [`fields`](SolveStats::fields) with mutable slots, same order.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); Self::FIELD_COUNT] {
        [
            ("nodes_opened", &mut self.nodes_opened),
            ("pruned_by_bound", &mut self.pruned_by_bound),
            ("pruned_infeasible", &mut self.pruned_infeasible),
            ("incumbents", &mut self.incumbents),
            ("oa_cuts", &mut self.oa_cuts),
            ("lp_solves", &mut self.lp_solves),
            ("nlp_solves", &mut self.nlp_solves),
            ("simplex_pivots", &mut self.simplex_pivots),
            ("newton_iters", &mut self.newton_iters),
            ("predictor_steps", &mut self.predictor_steps),
            ("corrector_steps", &mut self.corrector_steps),
            ("line_search_backtracks", &mut self.line_search_backtracks),
            ("barrier_fallbacks", &mut self.barrier_fallbacks),
            ("lm_steps", &mut self.lm_steps),
            ("presolve_tightenings", &mut self.presolve_tightenings),
            ("warm_start_hits", &mut self.warm_start_hits),
            ("dual_pivots", &mut self.dual_pivots),
            ("factorizations", &mut self.factorizations),
            ("factor_updates", &mut self.factor_updates),
            ("fill_nnz", &mut self.fill_nnz),
        ]
    }

    /// Looks a counter up by its [`fields`](SolveStats::fields) name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.fields()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }
}

impl std::fmt::Display for SolveStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (name, value) in self.fields() {
            if value == 0 {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{name}={value}")?;
            first = false;
        }
        if first {
            write!(f, "(no work recorded)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_counter() {
        let mut a = SolveStats {
            nodes_opened: 1,
            pruned_by_bound: 2,
            pruned_infeasible: 3,
            incumbents: 4,
            oa_cuts: 5,
            lp_solves: 6,
            nlp_solves: 7,
            simplex_pivots: 8,
            newton_iters: 9,
            predictor_steps: 10,
            corrector_steps: 11,
            line_search_backtracks: 12,
            barrier_fallbacks: 13,
            lm_steps: 14,
            presolve_tightenings: 15,
            warm_start_hits: 16,
            dual_pivots: 17,
            factorizations: 18,
            factor_updates: 19,
            fill_nnz: 20,
        };
        let b = a;
        a.merge(&b);
        for ((_, doubled), (_, original)) in a.fields().into_iter().zip(b.fields()) {
            assert_eq!(doubled, 2 * original);
        }
    }

    #[test]
    fn fields_cover_every_counter_once() {
        let stats = SolveStats::default();
        let fields = stats.fields();
        assert_eq!(fields.len(), SolveStats::FIELD_COUNT);
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SolveStats::FIELD_COUNT, "duplicate name");
        assert_eq!(stats.get("nodes_opened"), Some(0));
        assert_eq!(stats.get("not_a_counter"), None);
    }

    #[test]
    fn display_omits_zero_counters() {
        let stats = SolveStats {
            nodes_opened: 3,
            nlp_solves: 2,
            ..Default::default()
        };
        assert_eq!(format!("{stats}"), "nodes_opened=3 nlp_solves=2");
        assert_eq!(format!("{}", SolveStats::default()), "(no work recorded)");
    }
}
