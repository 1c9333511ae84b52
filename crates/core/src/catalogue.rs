//! The arbiter catalogue: the one place that names every kernel.
//!
//! [`AlgoKind`] enumerates the algorithms; its label, its constructor and
//! the weight plane it schedules on are each one exhaustive `match`, so
//! adding an algorithm is adding a variant and letting the compiler list
//! what is missing. The standalone model, the router's windowed driver,
//! the figure columns and every all-arbiters test draw from here rather
//! than spelling kernels out.

use crate::arbiter::{Arbiter, McmArbiter};
use crate::islip::IslipArbiter;
use crate::lqf::WeightedArbiter;
use crate::mwm::MwmArbiter;
use crate::opf::OpfArbiter;
use crate::pim::PimArbiter;
use crate::ports::NETWORK_ROW_MASK;
use crate::spaa::SpaaArbiter;
use crate::wfa::{mask_of, WfaArbiter};

/// Which quantity a weight plane holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightKind {
    /// Queue depth: waiting packets behind the (input, output) cell.
    Depth,
    /// Head-of-line age: how long the cell's oldest eligible packet has
    /// been waiting.
    Age,
}

/// An arbitration algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// Maximal-cardinality upper bound.
    Mcm,
    /// Converged PIM (`ceil(log2 rows)` iterations — 4 on the 21364).
    Pim,
    /// Single-iteration PIM.
    Pim1,
    /// Wrapped wave-front arbiter, round-robin start.
    Wfa,
    /// Wrapped wave-front arbiter whose waves start at the network-input
    /// rows (the Rotary Rule, §3.4).
    WfaRotary,
    /// SPAA with least-recently-selected grants.
    Spaa,
    /// The oldest-packet-first strawman of Figure 2.
    Opf,
    /// iSLIP with a given iteration count (1–3 in the figure output).
    Islip {
        /// Grant/accept rounds per arbitration.
        iterations: u8,
    },
    /// The plain parallel round-robin matcher (iSLIP without the slip).
    RoundRobin,
    /// iLQF: iterative longest-queue-first on the depth weight plane.
    Ilqf {
        /// Grant/accept rounds per arbitration.
        iterations: u8,
    },
    /// iOCF: iterative oldest-cell-first on the age weight plane.
    Iocf {
        /// Grant/accept rounds per arbitration.
        iterations: u8,
    },
    /// The exact maximum-weight-matching oracle (Hungarian, depth
    /// weights) — tabulated beside the real algorithms the same way MCM
    /// provides the cardinality bound.
    Mwm,
}

/// `family[n]` for the labelled iteration counts 1–3, the bare family
/// name `family[0]` beyond them.
fn numbered(family: [&'static str; 4], iterations: u8) -> &'static str {
    family
        .get(iterations as usize)
        .copied()
        .unwrap_or(family[0])
}

impl AlgoKind {
    /// Every kernel, at every iteration count some figure or test runs.
    pub const ALL: [AlgoKind; 17] = [
        AlgoKind::Mcm,
        AlgoKind::Wfa,
        AlgoKind::WfaRotary,
        AlgoKind::Pim,
        AlgoKind::Pim1,
        AlgoKind::Spaa,
        AlgoKind::Opf,
        AlgoKind::Islip { iterations: 1 },
        AlgoKind::Islip { iterations: 2 },
        AlgoKind::Islip { iterations: 3 },
        AlgoKind::RoundRobin,
        AlgoKind::Ilqf { iterations: 1 },
        AlgoKind::Ilqf { iterations: 2 },
        AlgoKind::Ilqf { iterations: 3 },
        AlgoKind::Iocf { iterations: 1 },
        AlgoKind::Iocf { iterations: 2 },
        AlgoKind::Mwm,
    ];

    /// The five algorithms plotted in Figures 8 and 9, in legend order.
    pub const FIGURE8: [AlgoKind; 5] = [
        AlgoKind::Mcm,
        AlgoKind::Wfa,
        AlgoKind::Pim,
        AlgoKind::Pim1,
        AlgoKind::Spaa,
    ];

    /// The Figure 8 set extended with the iSLIP family, its plain
    /// round-robin baseline, the weighted iterative kernels, and the MWM
    /// oracle (the matching-quality comparison rows the extension study
    /// reports alongside the paper's algorithms). New members are
    /// appended so existing column positions never move.
    pub const EXTENDED: [AlgoKind; 13] = [
        AlgoKind::Mcm,
        AlgoKind::Wfa,
        AlgoKind::Pim,
        AlgoKind::Pim1,
        AlgoKind::Spaa,
        AlgoKind::Islip { iterations: 1 },
        AlgoKind::Islip { iterations: 2 },
        AlgoKind::Islip { iterations: 3 },
        AlgoKind::RoundRobin,
        AlgoKind::Ilqf { iterations: 1 },
        AlgoKind::Ilqf { iterations: 2 },
        AlgoKind::Iocf { iterations: 1 },
        AlgoKind::Mwm,
    ];

    /// Display label, as used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            AlgoKind::Mcm => "MCM",
            AlgoKind::Pim => "PIM",
            AlgoKind::Pim1 => "PIM1",
            AlgoKind::Wfa => "WFA",
            AlgoKind::WfaRotary => "WFA-rotary",
            AlgoKind::Spaa => "SPAA",
            AlgoKind::Opf => "OPF",
            AlgoKind::Islip { iterations } => {
                numbered(["iSLIP", "iSLIP1", "iSLIP2", "iSLIP3"], iterations)
            }
            AlgoKind::RoundRobin => "RR",
            AlgoKind::Ilqf { iterations } => {
                numbered(["iLQF", "iLQF1", "iLQF2", "iLQF3"], iterations)
            }
            AlgoKind::Iocf { iterations } => {
                numbered(["iOCF", "iOCF1", "iOCF2", "iOCF3"], iterations)
            }
            AlgoKind::Mwm => "MWM",
        }
    }

    /// The weight plane the algorithm schedules on, or `None` for the
    /// cardinality algorithms, which never read one.
    pub fn weight_kind(self) -> Option<WeightKind> {
        match self {
            AlgoKind::Ilqf { .. } | AlgoKind::Mwm => Some(WeightKind::Depth),
            AlgoKind::Iocf { .. } => Some(WeightKind::Age),
            AlgoKind::Mcm
            | AlgoKind::Pim
            | AlgoKind::Pim1
            | AlgoKind::Wfa
            | AlgoKind::WfaRotary
            | AlgoKind::Spaa
            | AlgoKind::Opf
            | AlgoKind::Islip { .. }
            | AlgoKind::RoundRobin => None,
        }
    }

    /// A fresh arbiter over a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or exceeds 32, or an iteration count
    /// is zero.
    pub fn build(self, rows: usize, cols: usize) -> Box<dyn Arbiter> {
        match self {
            AlgoKind::Mcm => Box::new(McmArbiter),
            AlgoKind::Pim => Box::new(PimArbiter::converged(rows)),
            AlgoKind::Pim1 => Box::new(PimArbiter::pim1()),
            AlgoKind::Wfa => Box::new(WfaArbiter::base(rows, cols)),
            // The network rows come first, so clipping the 21364 mask to
            // a smaller matrix still leaves a non-empty network class.
            AlgoKind::WfaRotary => Box::new(WfaArbiter::rotary(
                rows,
                cols,
                NETWORK_ROW_MASK & mask_of(rows),
            )),
            AlgoKind::Spaa => Box::new(SpaaArbiter::base(rows, cols)),
            AlgoKind::Opf => Box::new(OpfArbiter::new(rows, cols)),
            AlgoKind::Islip { iterations } => {
                Box::new(IslipArbiter::islip(rows, cols, iterations as usize))
            }
            AlgoKind::RoundRobin => Box::new(IslipArbiter::round_robin_matcher(rows, cols)),
            AlgoKind::Ilqf { iterations } | AlgoKind::Iocf { iterations } => {
                Box::new(WeightedArbiter::new(rows, cols, iterations as usize))
            }
            AlgoKind::Mwm => Box::new(MwmArbiter),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_numbered_by_iteration() {
        let labels: Vec<&str> = AlgoKind::ALL.iter().map(|k| k.label()).collect();
        for (i, a) in labels.iter().enumerate() {
            assert!(!labels[..i].contains(a), "duplicate label {a}");
        }
        assert_eq!(AlgoKind::Islip { iterations: 2 }.label(), "iSLIP2");
        assert_eq!(AlgoKind::Ilqf { iterations: 3 }.label(), "iLQF3");
        assert_eq!(AlgoKind::Iocf { iterations: 1 }.label(), "iOCF1");
        // Only 1–3 carry a number.
        assert_eq!(AlgoKind::Islip { iterations: 5 }.label(), "iSLIP");
        assert_eq!(AlgoKind::Iocf { iterations: 0 }.label(), "iOCF");
    }

    #[test]
    fn figure_sets_are_drawn_from_the_catalogue() {
        for kind in AlgoKind::FIGURE8.iter().chain(&AlgoKind::EXTENDED) {
            assert!(AlgoKind::ALL.contains(kind), "{} not in ALL", kind.label());
        }
        assert_eq!(AlgoKind::EXTENDED[..5], AlgoKind::FIGURE8);
    }

    #[test]
    fn weighted_kinds_schedule_on_their_plane() {
        assert_eq!(
            AlgoKind::Ilqf { iterations: 1 }.weight_kind(),
            Some(WeightKind::Depth)
        );
        assert_eq!(
            AlgoKind::Iocf { iterations: 1 }.weight_kind(),
            Some(WeightKind::Age)
        );
        assert_eq!(AlgoKind::Mwm.weight_kind(), Some(WeightKind::Depth));
        assert_eq!(AlgoKind::Islip { iterations: 2 }.weight_kind(), None);
    }

    #[test]
    fn every_kind_builds_at_any_shape() {
        for kind in AlgoKind::ALL {
            let _ = kind.build(16, 7);
            let _ = kind.build(1, 1);
            let _ = kind.build(32, 32);
        }
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = AlgoKind::Ilqf { iterations: 0 }.build(4, 4);
    }
}
