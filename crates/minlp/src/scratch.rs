//! Pooled per-node scratch state for the branch-and-bound trees.
//!
//! Every node expansion used to allocate: a clone of the node box for bound
//! propagation, another pair for pinning discrete variables during
//! polishing, fresh child boxes at every branch, and — in the parallel
//! solver — a full clone of the relaxation NLP per node. [`ScratchArena`]
//! owns one reusable relaxation plus a free list of `Vec<f64>` buffers so
//! that, once the pool has warmed up to the tree's peak width, expanding a
//! node performs no heap allocation in the `hslb-minlp` layer at all
//! (allocations inside the barrier solver itself are its own business).
//!
//! The arena is deliberately *not* shared across workers: each parallel
//! task that actually forks onto a new thread builds its own arena (one
//! relaxation clone per spawn, not per node), so there is no locking on the
//! node hot path and the `threads: 1` traversal stays bit-identical to the
//! serial depth-first loop.

use crate::bnb::PinnedLp;
use crate::model::MinlpProblem;
use hslb_nlp::NlpProblem;

/// Reusable per-worker solve state: one scratch relaxation whose bounds are
/// overwritten for every node, plus a pool of box-sized `f64` buffers.
#[derive(Debug)]
pub(crate) struct ScratchArena {
    /// The relaxation NLP mutated in place (`set_bounds`) for each solve.
    pub relax: NlpProblem,
    /// How polishing pins the discrete columns into an LP, read once from
    /// the problem; `None` when the pinned problem stays an NLP.
    pub pinned_lp: Option<PinnedLp>,
    /// Free list of buffers, all sized for one variable box.
    bufs: Vec<Vec<f64>>,
}

impl ScratchArena {
    pub fn new(problem: &MinlpProblem) -> Self {
        ScratchArena {
            relax: problem.relaxation().clone(),
            pinned_lp: PinnedLp::of(problem),
            bufs: Vec::new(),
        }
    }

    /// Pops a pooled buffer (or allocates the pool's first few) and fills
    /// it with a copy of `src`.
    pub fn take_copy(&mut self, src: &[f64]) -> Vec<f64> {
        let mut buf = self.bufs.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<f64>) {
        self.bufs.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled() {
        let mut arena = ScratchArena::new(&MinlpProblem::new());
        let a = arena.take_copy(&[1.0, 2.0]);
        let ptr = a.as_ptr();
        arena.put(a);
        let b = arena.take_copy(&[3.0]);
        assert_eq!(b, vec![3.0]);
        assert_eq!(b.as_ptr(), ptr, "pooled buffer must be reused");
    }
}
