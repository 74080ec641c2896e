//! Structured event traces with a pluggable sink.
//!
//! Tracing is *off by default* and zero-cost when disabled: call sites pass
//! an event-constructing closure to [`Trace::emit`], and the closure is
//! never invoked unless a sink is installed. Enabling a trace therefore
//! cannot change any solver decision — it only observes.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why a branch-and-bound node was discarded without branching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The node's bound could not beat the incumbent.
    Bound,
    /// The node's relaxation (or propagated box) was infeasible.
    Infeasible,
}

impl PruneReason {
    /// Stable lowercase name used in serialized traces.
    pub fn name(self) -> &'static str {
        match self {
            PruneReason::Bound => "bound",
            PruneReason::Infeasible => "infeasible",
        }
    }
}

/// One structured trace record.
///
/// Variants mirror the counters in [`SolveStats`](crate::SolveStats); the
/// trace is the *sequence*, the stats are the *totals*. Fields carry the
/// minimum payload needed to reconstruct solver progress (bounds,
/// objectives, iteration counts) — never wall-clock timestamps, so traces
/// of deterministic solves are themselves deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A branch-and-bound node started processing.
    NodeOpened {
        /// Depth in the tree (root = 0).
        depth: u64,
        /// Inherited lower bound at the node (`-inf` at the root).
        bound: f64,
    },
    /// A node was discarded.
    NodePruned {
        /// Why it was discarded.
        reason: PruneReason,
        /// The bound that justified the prune (`nan` for infeasibility).
        bound: f64,
    },
    /// The incumbent strictly improved.
    Incumbent {
        /// New incumbent objective.
        objective: f64,
    },
    /// Outer-approximation cuts were added to the LP master.
    CutsAdded {
        /// How many cuts this round.
        count: u64,
    },
    /// A simplex solve completed.
    LpSolved {
        /// Pivots spent (phase 1 + phase 2).
        pivots: u64,
    },
    /// A barrier solve completed.
    NlpSolved {
        /// Newton iterations spent.
        newton_iters: u64,
    },
    /// One predictor-corrector barrier iteration finished: the μ trajectory
    /// point after the centering decision.
    BarrierMu {
        /// Complementarity average μ at the top of the iteration.
        mu: f64,
        /// Centering parameter σ chosen by the affine-scaling predictor.
        sigma: f64,
    },
    /// The solve's time budget expired; the best incumbent is returned.
    TimeBudgetExhausted {
        /// Seconds elapsed on the injected clock when the budget fired.
        elapsed: f64,
    },
}

impl Event {
    /// Stable kind tag used in serialized traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::NodeOpened { .. } => "node_opened",
            Event::NodePruned { .. } => "node_pruned",
            Event::Incumbent { .. } => "incumbent",
            Event::CutsAdded { .. } => "cuts_added",
            Event::LpSolved { .. } => "lp_solved",
            Event::NlpSolved { .. } => "nlp_solved",
            Event::BarrierMu { .. } => "barrier_mu",
            Event::TimeBudgetExhausted { .. } => "time_budget_exhausted",
        }
    }
}

/// Receiver for trace events. Implementations must be cheap and must not
/// panic: sinks run inside solver hot paths.
pub trait EventSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: Event);
}

/// Bounded in-memory sink keeping the most recent `capacity` events.
pub struct RingBuffer {
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
}

impl RingBuffer {
    /// A ring that keeps the last `capacity` events (0 keeps none).
    pub fn new(capacity: usize) -> RingBuffer {
        RingBuffer {
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        }
    }

    /// Copies the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("ring buffer mutex poisoned (a sink panicked)")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .expect("ring buffer mutex poisoned (a sink panicked)")
            .len()
    }

    /// True when nothing has been recorded (or capacity is 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingBuffer {
    fn record(&self, event: Event) {
        if self.capacity == 0 {
            return;
        }
        let mut queue = self
            .events
            .lock()
            .expect("ring buffer mutex poisoned (a sink panicked)");
        if queue.len() == self.capacity {
            queue.pop_front();
        }
        queue.push_back(event);
    }
}

/// Handle threaded through solver options. Cloning shares the sink.
#[derive(Clone, Default)]
pub struct Trace {
    sink: Option<Arc<dyn EventSink>>,
}

impl Trace {
    /// The default: no sink, `emit` is a branch on a `None`.
    pub fn off() -> Trace {
        Trace::default()
    }

    /// A trace delivering events to `sink`.
    pub fn to_sink(sink: Arc<dyn EventSink>) -> Trace {
        Trace { sink: Some(sink) }
    }

    /// True when a sink is installed.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event produced by `make` — but only when a sink is
    /// installed; otherwise the closure is never run, so building an event
    /// costs nothing on the default path.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.record(make());
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.enabled() {
            "Trace(enabled)"
        } else {
            "Trace(off)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_never_builds_events() {
        let trace = Trace::off();
        let mut built = false;
        trace.emit(|| {
            built = true;
            Event::CutsAdded { count: 1 }
        });
        assert!(!built, "closure ran without a sink");
        assert!(!trace.enabled());
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let ring = Arc::new(RingBuffer::new(3));
        let trace = Trace::to_sink(ring.clone());
        assert!(trace.enabled());
        for pivots in 0..5u64 {
            trace.emit(|| Event::LpSolved { pivots });
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events,
            vec![
                Event::LpSolved { pivots: 2 },
                Event::LpSolved { pivots: 3 },
                Event::LpSolved { pivots: 4 },
            ]
        );
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let ring = Arc::new(RingBuffer::new(0));
        let trace = Trace::to_sink(ring.clone());
        trace.emit(|| Event::CutsAdded { count: 7 });
        assert!(ring.is_empty());
    }

    #[test]
    fn event_kinds_are_stable() {
        assert_eq!(Event::CutsAdded { count: 1 }.kind(), "cuts_added");
        assert_eq!(
            Event::NodePruned {
                reason: PruneReason::Bound,
                bound: 1.0,
            }
            .kind(),
            "node_pruned"
        );
        assert_eq!(PruneReason::Infeasible.name(), "infeasible");
    }
}
