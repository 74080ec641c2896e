//! The paper's two experimental configurations.

use crate::machine::Machine;
use crate::truth::GroundTruth;
use hslb::AllowedNodes;

/// Model resolution (grid combination), per §II of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// 1° FV atmosphere/land, 1° ocean/ice.
    OneDegree,
    /// 1/8° HOMME-SE atmosphere, 1/4° FV land, 1/10° ocean/ice.
    EighthDegree,
}

/// A complete experimental scenario: machine, hidden truth, and the
/// admissible node counts of each component.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub resolution: Resolution,
    pub machine: Machine,
    pub truth: GroundTruth,
    /// Whether the hard-coded ocean node-count list applies (the paper also
    /// evaluates 1/8° with the constraint lifted — Table III blocks 5–6).
    pub constrained_ocean: bool,
    /// Target job size in nodes (`N`).
    pub total_nodes: u64,
}

impl Scenario {
    /// 1° resolution targeting `total_nodes` (paper: 128…2048).
    pub fn one_degree(total_nodes: u64) -> Self {
        Scenario {
            resolution: Resolution::OneDegree,
            machine: Machine::intrepid(),
            truth: GroundTruth::one_degree(),
            constrained_ocean: true,
            total_nodes,
        }
    }

    /// 1/8° resolution targeting `total_nodes` (paper: 8192, 32768).
    pub fn eighth_degree(total_nodes: u64) -> Self {
        Scenario {
            resolution: Resolution::EighthDegree,
            machine: Machine::intrepid(),
            truth: GroundTruth::eighth_degree(),
            constrained_ocean: true,
            total_nodes,
        }
    }

    /// 1/8° with the ocean node-count restriction lifted (Table III blocks
    /// 5–6: "that ocean node constraint was somewhat arbitrary").
    pub fn eighth_degree_unconstrained(total_nodes: u64) -> Self {
        Scenario {
            constrained_ocean: false,
            ..Scenario::eighth_degree(total_nodes)
        }
    }

    /// Admissible node counts per component (ice, lnd, atm, ocn order).
    ///
    /// * 1° ocean: `O = {2, 4, …, 480, 768}` (Table I line 5).
    /// * 1° atmosphere: `A = {1, …, 1638, 1664}` (Table I line 6).
    /// * 1/8° ocean (constrained): the hard-coded list of §IV-B.
    /// * 1/8° atmosphere: HOMME element-decomposition counts — multiples of
    ///   4 (all the paper's 1/8° atm counts are).
    pub fn allowed(&self, component: usize) -> AllowedNodes {
        let n = self.total_nodes as i64;
        match (self.resolution, component) {
            (Resolution::OneDegree, crate::truth::OCN) => {
                let mut v: Vec<i64> = (1..=240).map(|k| 2 * k).collect();
                v.push(768);
                AllowedNodes::set(v)
            }
            (Resolution::OneDegree, crate::truth::ATM) => {
                let mut v: Vec<i64> = (1..=1638).collect();
                v.push(1664);
                AllowedNodes::set(v)
            }
            (Resolution::OneDegree, _) => AllowedNodes::Range {
                min: 1,
                max: n.max(1),
            },
            (Resolution::EighthDegree, crate::truth::OCN) => {
                if self.constrained_ocean {
                    AllowedNodes::set([480, 512, 2356, 3136, 4564, 6124, 19460])
                } else {
                    AllowedNodes::Range {
                        min: 480,
                        max: n.max(480),
                    }
                }
            }
            (Resolution::EighthDegree, crate::truth::ATM) => {
                AllowedNodes::set((32..=(n / 4).max(32)).map(|k| 4 * k))
            }
            (Resolution::EighthDegree, crate::truth::ICE) => AllowedNodes::Range {
                min: 32,
                max: n.max(32),
            },
            (Resolution::EighthDegree, _) => AllowedNodes::Range {
                min: 16,
                max: n.max(16),
            },
        }
    }

    /// Benchmark sample counts for the Gather step: geometric spacing
    /// between the memory floor and the job size, per §III-C.
    pub fn benchmark_counts(&self, samples: usize) -> [Vec<u64>; 4] {
        use hslb_perfmodel::ScalingData;
        std::array::from_fn(|c| {
            let allowed = self.allowed(c);
            let (lo, hi) = allowed.hull();
            let hi = hi.min(self.total_nodes as i64).max(lo);
            ScalingData::suggest_node_counts(lo as u64, hi as u64, samples)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::{ATM, ICE, LND, OCN};

    #[test]
    fn one_degree_ocean_set_matches_table1() {
        let s = Scenario::one_degree(2048);
        let a = s.allowed(OCN);
        assert!(a.contains(2) && a.contains(480) && a.contains(768));
        assert!(!a.contains(3) && !a.contains(482) && !a.contains(500));
    }

    #[test]
    fn one_degree_atm_set_has_gap() {
        let s = Scenario::one_degree(2048);
        let a = s.allowed(ATM);
        assert!(a.contains(1638) && a.contains(1664));
        assert!(!a.contains(1650));
        assert_eq!((1..=2048).filter(|&n| a.contains(n)).count(), 1639);
    }

    #[test]
    fn eighth_degree_ocean_constraint_toggle() {
        let c = Scenario::eighth_degree(32_768);
        assert!(c.allowed(OCN).contains(6124));
        assert!(!c.allowed(OCN).contains(9812));
        let u = Scenario::eighth_degree_unconstrained(32_768);
        assert!(u.allowed(OCN).contains(9812));
        assert!(u.allowed(OCN).contains(11880));
    }

    #[test]
    fn eighth_degree_atm_counts_are_multiples_of_four() {
        let s = Scenario::eighth_degree(32_768);
        let a = s.allowed(ATM);
        for paper_count in [5836i64, 26644, 5056, 13308, 22956, 20888] {
            assert!(a.contains(paper_count), "{paper_count} must be admissible");
        }
        assert!(!a.contains(5837));
    }

    #[test]
    fn benchmark_counts_respect_domains() {
        let s = Scenario::eighth_degree(8192);
        let counts = s.benchmark_counts(5);
        for (c, list) in counts.iter().enumerate() {
            assert!(list.len() >= 2, "component {c}");
            for &n in list {
                assert!(n <= 32_768);
            }
        }
        // Ice floor is 32 nodes at 1/8°.
        assert!(counts[ICE].iter().all(|&n| n >= 32));
        assert!(counts[LND].iter().all(|&n| n >= 16));
    }
}
