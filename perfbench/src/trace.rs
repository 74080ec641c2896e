//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a layer. Each span keeps its name, start, end, parent span and the
//! allocation it belongs to. Nothing is written until the run ends. A
//! disabled tracer reads no clock and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use hslb_json::Json;

/// One recorded span. Times are wall-clock nanoseconds since the tracer's
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub alloc: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    alloc: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            alloc: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Allocation id stamped on spans opened from now on.
    pub fn set_alloc(&mut self, alloc: u64) {
        self.alloc = alloc;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest under it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            alloc: self.alloc,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[index].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// time its direct children cover. Children never overlap (one caller per
/// tracer), so their durations add.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        *out.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(*children);
    }
    out
}

/// Durations of every span named `name`, in milliseconds, in record order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// The spans as compact rows `[name, start_ns, end_ns, parent, alloc]`.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::arr(spans.iter().map(|s| {
        Json::arr([
            Json::Str(s.name.to_string()),
            Json::Num(s.start_ns as f64),
            Json::Num(s.end_ns as f64),
            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            Json::Num(s.alloc as f64),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "alloc",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                alloc: 0,
            },
            Span {
                name: "solve",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                alloc: 0,
            },
            Span {
                name: "fit",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                alloc: 0,
            },
        ];
        let self_ns = self_time_ns(&spans);
        assert_eq!(self_ns["alloc"], 30);
        assert_eq!(self_ns["solve"], 30);
        assert_eq!(self_ns["fit"], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("a", |t| t.span("b", |_| 7));
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_parent() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_alloc(3);
        t.span("a", |t| t.span("b", |_| ()));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].alloc, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
