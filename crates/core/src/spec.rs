//! Component specifications shared by the layout and flat models.

use hslb_minlp::MinlpProblem;
use hslb_perfmodel::PerfModel;

/// Admissible node counts for a component.
///
/// CESM components are "limited to run on particular processor counts or
/// perform best at certain processor counts we'll call 'sweet' spots"
/// (§III-A): the ocean model had its counts hard-coded (Table I line 5) and
/// the atmosphere counts form a special set (line 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllowedNodes {
    /// Any integer in `[min, max]`.
    Range { min: i64, max: i64 },
    /// Only the listed counts (the paper's special ordered sets `O` and `A`).
    Set(Vec<i64>),
}

impl AllowedNodes {
    /// Builds a set domain, sorting and deduplicating.
    ///
    /// # Panics
    /// Panics if empty.
    pub fn set(values: impl IntoIterator<Item = i64>) -> Self {
        let mut v: Vec<i64> = values.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        assert!(!v.is_empty(), "allowed node set must not be empty");
        AllowedNodes::Set(v)
    }

    /// Hull `[min, max]` of the domain.
    pub fn hull(&self) -> (i64, i64) {
        match self {
            AllowedNodes::Range { min, max } => (*min, *max),
            AllowedNodes::Set(v) => (v[0], *v.last().expect("non-empty by construction")),
        }
    }

    /// Whether `n` is admissible.
    pub fn contains(&self, n: i64) -> bool {
        match self {
            AllowedNodes::Range { min, max } => n >= *min && n <= *max,
            AllowedNodes::Set(v) => v.binary_search(&n).is_ok(),
        }
    }

    /// Largest admissible value `<= cap`, if any.
    pub fn largest_at_most(&self, cap: i64) -> Option<i64> {
        self.rank(cap).checked_sub(1).map(|i| self.nth(i))
    }

    /// Admissible value nearest to `target` (ties break downward).
    pub fn nearest(&self, target: i64) -> i64 {
        match self {
            AllowedNodes::Range { min, max } => target.clamp(*min, *max),
            AllowedNodes::Set(vals) => {
                let idx = vals.partition_point(|&v| v < target);
                let mut best = vals[0];
                for &v in &vals[idx.saturating_sub(1)..(idx + 1).min(vals.len())] {
                    if (v - target).abs() < (best - target).abs() {
                        best = v;
                    }
                }
                best
            }
        }
    }

    /// Number of admissible values `<= cap`.
    pub(crate) fn rank(&self, cap: i64) -> usize {
        match self {
            AllowedNodes::Range { min, max } => (cap.min(*max) - min + 1).max(0) as usize,
            AllowedNodes::Set(vals) => vals.partition_point(|&v| v <= cap),
        }
    }

    /// The `i`-th smallest admissible value, counting from 0; `i` must be
    /// below the domain's size. With [`AllowedNodes::rank`] this reads the
    /// domain by index without materializing it.
    pub(crate) fn nth(&self, i: usize) -> i64 {
        match self {
            AllowedNodes::Range { min, .. } => min + i as i64,
            AllowedNodes::Set(vals) => vals[i],
        }
    }

    /// Adds a decision variable with this domain to a MINLP.
    pub fn add_var(&self, problem: &mut MinlpProblem, cost: f64) -> usize {
        match self {
            AllowedNodes::Range { min, max } => problem.add_int_var(cost, *min, *max),
            AllowedNodes::Set(v) => problem.add_set_var(cost, v.iter().copied()),
        }
    }
}

/// One application component (or FMO fragment group): its fitted performance
/// model and admissible node counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    pub name: String,
    pub model: PerfModel,
    pub allowed: AllowedNodes,
}

impl ComponentSpec {
    /// Creates a spec with a plain `[min, max]` node range.
    pub fn new(name: impl Into<String>, model: PerfModel, min: i64, max: i64) -> Self {
        assert!(min >= 1, "components need at least one node");
        assert!(min <= max, "empty node range");
        ComponentSpec {
            name: name.into(),
            model,
            allowed: AllowedNodes::Range { min, max },
        }
    }

    /// Creates a spec restricted to a set of allowed counts.
    pub fn with_set(
        name: impl Into<String>,
        model: PerfModel,
        values: impl IntoIterator<Item = i64>,
    ) -> Self {
        ComponentSpec {
            name: name.into(),
            model,
            allowed: AllowedNodes::set(values),
        }
    }

    /// Predicted time on `n` nodes.
    pub fn predict(&self, n: u64) -> f64 {
        self.model.eval(n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hull_and_contains() {
        let r = AllowedNodes::Range { min: 2, max: 10 };
        assert_eq!(r.hull(), (2, 10));
        assert!(r.contains(7));
        assert!(!r.contains(11));

        let s = AllowedNodes::set([8, 2, 4, 8]);
        assert_eq!(s.hull(), (2, 8));
        assert!(s.contains(4));
        assert!(!s.contains(5));
    }

    #[test]
    fn largest_at_most() {
        let s = AllowedNodes::set([480, 512, 2356, 3136]);
        assert_eq!(s.largest_at_most(3000), Some(2356));
        assert_eq!(s.largest_at_most(512), Some(512));
        assert_eq!(s.largest_at_most(100), None);
        assert_eq!((s.rank(512), s.rank(i64::MAX), s.nth(2)), (2, 4, 2356));
        let r = AllowedNodes::Range { min: 4, max: 64 };
        assert_eq!(r.largest_at_most(100), Some(64));
        assert_eq!(r.largest_at_most(10), Some(10));
        assert_eq!(r.largest_at_most(3), None);
        assert_eq!((r.rank(3), r.rank(100), r.nth(6)), (0, 61, 10));
    }

    #[test]
    fn add_var_uses_matching_domain() {
        let mut p = MinlpProblem::new();
        let r = AllowedNodes::Range { min: 1, max: 9 };
        let s = AllowedNodes::set([2, 4]);
        let vr = r.add_var(&mut p, 0.0);
        let vs = s.add_var(&mut p, 0.0);
        assert_eq!(p.relaxation().uppers()[vr], 9.0);
        assert_eq!(p.relaxation().lowers()[vs], 2.0);
        assert!(!p.is_domain_feasible(&[3.5, 4.0], 1e-9));
        assert!(p.is_domain_feasible(&[3.0, 4.0], 1e-9));
        assert!(!p.is_domain_feasible(&[3.0, 3.0], 1e-9));
    }

    #[test]
    fn spec_predict() {
        let spec = ComponentSpec::new("atm", PerfModel::amdahl(1000.0, 5.0), 1, 2048);
        assert!((spec.predict(100) - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_min_rejected() {
        ComponentSpec::new("x", PerfModel::amdahl(1.0, 0.0), 0, 4);
    }
}
