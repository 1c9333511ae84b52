//! Router configuration: which arbitration algorithm, with which knobs.

use crate::antistarve::AntiStarvationConfig;
use crate::timing::{ArbTiming, RouterTiming};
use crate::vc::BufferConfig;
use arbitration::catalogue::AlgoKind;
pub use arbitration::catalogue::WeightKind;
use std::fmt;

/// The arbitration algorithms evaluated by the paper's timing model
/// (§4.1), plus the two ablations discussed in the text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArbAlgorithm {
    /// One-iteration Parallel Iterative Matching: 4-cycle arbitration,
    /// restart every 3 cycles, random grant/accept.
    Pim1,
    /// Wave-Front Arbiter with round-robin start: 4 cycles, restart every
    /// 3 cycles.
    WfaBase,
    /// WFA with the Rotary Rule start priority.
    WfaRotary,
    /// SPAA with least-recently-selected output grants: 3 cycles,
    /// pipelined (new arbitration every cycle).
    SpaaBase,
    /// SPAA with the Rotary Rule at the output arbiters.
    SpaaRotary,
    /// Ablation (§5.2): a hypothetical WFA implemented in 3 cycles like
    /// SPAA but still unable to pipeline (restart every 3 cycles). Used to
    /// isolate the value of pipelining ("about 8%").
    WfaBase3Cycle,
    /// Ablation (§1 footnote): SPAA with an artificially deepened
    /// arbitration pipeline, used to measure the ~5%-per-cycle throughput
    /// cost of extra arbitration stages.
    SpaaDeep {
        /// Total arbitration latency in cycles (≥ 2: LA and GA cannot
        /// share a cycle).
        latency: u8,
    },
    /// Extension: iSLIP run in the PIM1/WFA windowed driver. Each
    /// grant/accept iteration adds one cycle of arbitration latency on
    /// top of the 3-cycle matrix load/evaluate/wire budget (iSLIP1
    /// matches PIM1's 4 cycles), while the restart interval stays at 3 —
    /// so extra iterations trade match quality against the ~5%-per-cycle
    /// pipeline-depth tax the paper quantifies.
    Islip {
        /// Grant/accept iterations per arbitration (≥ 1; 1–3 studied).
        iterations: u8,
    },
    /// Extension: iLQF (iterative longest-queue-first) in the windowed
    /// driver. Same grant/accept structure and timing as iSLIP at the
    /// same iteration count, but outputs grant — and inputs accept — the
    /// contender with the deepest queue behind it; the window fill stamps
    /// queue depths into a weight plane alongside the request bitmasks.
    Ilqf {
        /// Grant/accept iterations per arbitration (≥ 1).
        iterations: u8,
    },
    /// Extension: iOCF (iterative oldest-cell-first) in the windowed
    /// driver. Same machinery as iLQF with head-of-line age weights —
    /// the starvation-resistant member of the weighted family.
    Iocf {
        /// Grant/accept iterations per arbitration (≥ 1).
        iterations: u8,
    },
}

impl ArbAlgorithm {
    /// The five paper configurations of Figure 10, in plot order.
    pub const FIGURE10: [ArbAlgorithm; 5] = [
        ArbAlgorithm::Pim1,
        ArbAlgorithm::WfaBase,
        ArbAlgorithm::WfaRotary,
        ArbAlgorithm::SpaaBase,
        ArbAlgorithm::SpaaRotary,
    ];

    /// The three scaling-study configurations of Figure 11.
    pub const FIGURE11: [ArbAlgorithm; 3] = [
        ArbAlgorithm::Pim1,
        ArbAlgorithm::WfaRotary,
        ArbAlgorithm::SpaaRotary,
    ];

    /// The iSLIP extension family swept by the `fig_islip` harness.
    pub const ISLIP_FAMILY: [ArbAlgorithm; 3] = [
        ArbAlgorithm::Islip { iterations: 1 },
        ArbAlgorithm::Islip { iterations: 2 },
        ArbAlgorithm::Islip { iterations: 3 },
    ];

    /// The weighted extension family swept by the `fig_weighted` harness.
    pub(crate) const WEIGHTED_FAMILY: [ArbAlgorithm; 3] = [
        ArbAlgorithm::Ilqf { iterations: 1 },
        ArbAlgorithm::Ilqf { iterations: 2 },
        ArbAlgorithm::Iocf { iterations: 1 },
    ];

    /// Every timed configuration: the Figure 10 set, the two ablations
    /// (the deepened SPAA at its studied 5 cycles), and the extension
    /// families.
    pub const ALL: [ArbAlgorithm; 13] = {
        let [pim1, wfa_base, wfa_rotary, spaa_base, spaa_rotary] = Self::FIGURE10;
        let [islip1, islip2, islip3] = Self::ISLIP_FAMILY;
        let [ilqf1, ilqf2, iocf1] = Self::WEIGHTED_FAMILY;
        [
            pim1,
            wfa_base,
            wfa_rotary,
            spaa_base,
            spaa_rotary,
            ArbAlgorithm::WfaBase3Cycle,
            ArbAlgorithm::SpaaDeep { latency: 5 },
            islip1,
            islip2,
            islip3,
            ilqf1,
            ilqf2,
            iocf1,
        ]
    };

    /// The matching kernel the windowed driver runs for this
    /// configuration, or `None` for the SPAA family, whose pipelined
    /// driver arbitrates per output with no matrix kernel.
    pub(crate) fn kernel(self) -> Option<AlgoKind> {
        match self {
            ArbAlgorithm::Pim1 => Some(AlgoKind::Pim1),
            ArbAlgorithm::WfaBase | ArbAlgorithm::WfaBase3Cycle => Some(AlgoKind::Wfa),
            ArbAlgorithm::WfaRotary => Some(AlgoKind::WfaRotary),
            ArbAlgorithm::Islip { iterations } => Some(AlgoKind::Islip { iterations }),
            ArbAlgorithm::Ilqf { iterations } => Some(AlgoKind::Ilqf { iterations }),
            ArbAlgorithm::Iocf { iterations } => Some(AlgoKind::Iocf { iterations }),
            ArbAlgorithm::SpaaBase | ArbAlgorithm::SpaaRotary | ArbAlgorithm::SpaaDeep { .. } => {
                None
            }
        }
    }

    /// Arbitration timing at the base (1×) pipeline scale.
    pub(crate) fn timing(self) -> ArbTiming {
        match self {
            ArbAlgorithm::Pim1 | ArbAlgorithm::WfaBase | ArbAlgorithm::WfaRotary => {
                ArbTiming::new(4, 3)
            }
            ArbAlgorithm::SpaaBase | ArbAlgorithm::SpaaRotary => ArbTiming::new(3, 1),
            ArbAlgorithm::WfaBase3Cycle => ArbTiming::new(3, 3),
            ArbAlgorithm::SpaaDeep { latency } => ArbTiming::new(latency as u32, 1),
            ArbAlgorithm::Islip { iterations }
            | ArbAlgorithm::Ilqf { iterations }
            | ArbAlgorithm::Iocf { iterations } => ArbTiming::new(3 + iterations as u32, 3),
        }
    }

    /// Arbitration timing at the Figure 11a double-depth scale
    /// (PIM1/WFA: 8 cycles every 6; SPAA: 6 cycles, still every cycle):
    /// the latency doubles, and so does the restart interval of a driver
    /// that has one — a pipelined driver still starts every cycle.
    pub(crate) fn timing_2x(self) -> ArbTiming {
        let base = self.timing();
        let interval = base.initiation_interval.get();
        ArbTiming::new(
            base.latency.get() * 2,
            if interval == 1 { 1 } else { interval * 2 },
        )
    }

    /// True for the SPAA family (single-nomination, pipelined driver).
    pub(crate) fn is_spaa(self) -> bool {
        self.kernel().is_none()
    }

    /// True when the Rotary Rule is active.
    pub(crate) fn is_rotary(self) -> bool {
        matches!(self, ArbAlgorithm::WfaRotary | ArbAlgorithm::SpaaRotary)
    }

    /// The weight plane this algorithm schedules on, or `None` for the
    /// unweighted algorithms (whose window fill skips weight stamping
    /// entirely unless oracle measurement asks for it).
    pub(crate) fn weight_kind(self) -> Option<WeightKind> {
        self.kernel().and_then(AlgoKind::weight_kind)
    }
}

impl fmt::Display for ArbAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArbAlgorithm::Pim1 => f.write_str("PIM1"),
            ArbAlgorithm::WfaBase => f.write_str("WFA-base"),
            ArbAlgorithm::WfaRotary => f.write_str("WFA-rotary"),
            ArbAlgorithm::SpaaBase => f.write_str("SPAA-base"),
            ArbAlgorithm::SpaaRotary => f.write_str("SPAA-rotary"),
            ArbAlgorithm::WfaBase3Cycle => f.write_str("WFA-base-3cy"),
            ArbAlgorithm::SpaaDeep { latency } => write!(f, "SPAA-deep{latency}"),
            ArbAlgorithm::Islip { iterations } => write!(f, "iSLIP{iterations}"),
            ArbAlgorithm::Ilqf { iterations } => write!(f, "iLQF{iterations}"),
            ArbAlgorithm::Iocf { iterations } => write!(f, "iOCF{iterations}"),
        }
    }
}

/// Full configuration of one router instance.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Arbitration algorithm (fixes the arbiter driver and its timing).
    pub algorithm: ArbAlgorithm,
    /// Pipeline depth scale: `false` = 21364, `true` = Figure 11a 2×;
    /// it fixes the clocks and delays ([`RouterConfig::timing`]).
    pub(crate) scaled_2x: bool,
    /// Input-buffer partition.
    pub buffers: BufferConfig,
    /// How many waiting packets per VC an input arbiter examines per
    /// cycle when looking for an eligible nomination (the entry table is
    /// not infinitely associative; 8 models a realistic window; ≥ 1).
    pub scan_window: usize,
    /// Anti-starvation coloring (backs the Rotary Rule, §3.4).
    pub antistarvation: AntiStarvationConfig,
    /// When true, every window additionally solves the exact
    /// maximum-weight matching (Hungarian oracle) on the snapshot's
    /// depth-weight plane and accumulates both the achieved and the
    /// optimal matching weight into the router stats — pure observation,
    /// never a scheduling input. Off by default (the oracle is not part
    /// of any timed configuration); the `fig_weighted` harness turns it
    /// on to report optimality-gap columns.
    pub measure_matching_weight: bool,
}

impl RouterConfig {
    /// The production 21364 configuration for a given algorithm.
    pub fn alpha_21364(algorithm: ArbAlgorithm) -> Self {
        RouterConfig {
            algorithm,
            scaled_2x: false,
            buffers: BufferConfig::alpha_21364(),
            scan_window: 8,
            antistarvation: AntiStarvationConfig::default(),
            measure_matching_weight: false,
        }
    }

    /// The Figure 11a configuration: doubled pipeline at doubled clock.
    pub fn scaled_2x(algorithm: ArbAlgorithm) -> Self {
        RouterConfig {
            scaled_2x: true,
            ..RouterConfig::alpha_21364(algorithm)
        }
    }

    /// The clock and fixed-delay set implied by the scale flag.
    pub fn timing(&self) -> RouterTiming {
        if self.scaled_2x {
            RouterTiming::scaled_2x()
        } else {
            RouterTiming::alpha_21364()
        }
    }

    /// The arbitration timing implied by `algorithm` and the scale flag.
    pub(crate) fn arb_timing(&self) -> ArbTiming {
        if self.scaled_2x {
            self.algorithm.timing_2x()
        } else {
            self.algorithm.timing()
        }
    }

    /// The LA-stage port-free prediction horizon, in core cycles.
    ///
    /// The entry table's "is the targeted output port free" readiness test
    /// can anticipate a port freeing this many cycles ahead — the horizon
    /// is a property of the *datapath design* (its nominal SPAA depth plus
    /// the GA-to-pin delay), not of whichever arbitration algorithm runs.
    /// An algorithm whose GA stage lands later than the horizon can see
    /// (PIM1/WFA's 4th cycle, or an artificially deepened SPAA) therefore
    /// pays idle port cycles between back-to-back packets — which is
    /// exactly how "each additional cycle added to the arbitration
    /// pipeline degraded the network throughput by roughly 5%" (§1).
    pub(crate) fn la_lookahead(&self) -> simcore::time::Cycles {
        let production_spaa_latency = if self.scaled_2x { 6 } else { 3 };
        simcore::time::Cycles::new(self.timing().output_delay.get() + production_spaa_latency - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timings() {
        assert_eq!(ArbAlgorithm::SpaaBase.timing(), ArbTiming::new(3, 1));
        assert_eq!(ArbAlgorithm::SpaaRotary.timing(), ArbTiming::new(3, 1));
        assert_eq!(ArbAlgorithm::Pim1.timing(), ArbTiming::new(4, 3));
        assert_eq!(ArbAlgorithm::WfaBase.timing(), ArbTiming::new(4, 3));
        assert_eq!(ArbAlgorithm::WfaRotary.timing(), ArbTiming::new(4, 3));
    }

    #[test]
    fn figure11a_timings() {
        // "The arbitration latencies for PIM1, WFA-rotary, and SPAA-rotary
        //  are 8, 8, and 6 cycles respectively."
        assert_eq!(ArbAlgorithm::Pim1.timing_2x(), ArbTiming::new(8, 6));
        assert_eq!(ArbAlgorithm::WfaRotary.timing_2x(), ArbTiming::new(8, 6));
        assert_eq!(ArbAlgorithm::SpaaRotary.timing_2x(), ArbTiming::new(6, 1));
    }

    #[test]
    fn ablation_timings() {
        assert_eq!(ArbAlgorithm::WfaBase3Cycle.timing(), ArbTiming::new(3, 3));
        assert_eq!(
            ArbAlgorithm::SpaaDeep { latency: 5 }.timing(),
            ArbTiming::new(5, 1)
        );
        // Doubled: a restarting driver's interval doubles, a pipelined
        // one still starts every cycle.
        assert_eq!(
            ArbAlgorithm::WfaBase3Cycle.timing_2x(),
            ArbTiming::new(6, 6)
        );
        assert_eq!(
            ArbAlgorithm::SpaaDeep { latency: 5 }.timing_2x(),
            ArbTiming::new(10, 1)
        );
    }

    #[test]
    fn all_enumerates_each_timed_configuration_once() {
        for (i, a) in ArbAlgorithm::ALL.iter().enumerate() {
            assert!(!ArbAlgorithm::ALL[..i].contains(a), "{a} listed twice");
            // Exactly the SPAA family runs without a matrix kernel.
            assert_eq!(a.kernel().is_none(), a.to_string().starts_with("SPAA"));
        }
        assert_eq!(
            ArbAlgorithm::WfaBase3Cycle.kernel(),
            ArbAlgorithm::WfaBase.kernel(),
            "the 3-cycle ablation changes timing, not the kernel"
        );
    }

    #[test]
    fn islip_timings_scale_with_iterations() {
        // iSLIP1 shares PIM1's windowed timing; each extra iteration adds
        // one cycle of latency without changing the restart interval.
        assert_eq!(
            ArbAlgorithm::Islip { iterations: 1 }.timing(),
            ArbTiming::new(4, 3)
        );
        assert_eq!(
            ArbAlgorithm::Islip { iterations: 3 }.timing(),
            ArbTiming::new(6, 3)
        );
        assert_eq!(
            ArbAlgorithm::Islip { iterations: 2 }.timing_2x(),
            ArbTiming::new(10, 6)
        );
        assert!(!ArbAlgorithm::Islip { iterations: 2 }.is_spaa());
        assert!(!ArbAlgorithm::Islip { iterations: 2 }.is_rotary());
        assert_eq!(ArbAlgorithm::Islip { iterations: 2 }.to_string(), "iSLIP2");
    }

    #[test]
    fn weighted_timings_mirror_islip() {
        // iLQF/iOCF run in the same windowed driver with the same
        // per-iteration latency tax as iSLIP.
        assert_eq!(
            ArbAlgorithm::Ilqf { iterations: 1 }.timing(),
            ArbTiming::new(4, 3)
        );
        assert_eq!(
            ArbAlgorithm::Iocf { iterations: 2 }.timing(),
            ArbTiming::new(5, 3)
        );
        assert_eq!(
            ArbAlgorithm::Ilqf { iterations: 2 }.timing_2x(),
            ArbTiming::new(10, 6)
        );
        assert!(!ArbAlgorithm::Ilqf { iterations: 1 }.is_spaa());
        assert!(!ArbAlgorithm::Iocf { iterations: 1 }.is_rotary());
        assert_eq!(ArbAlgorithm::Ilqf { iterations: 2 }.to_string(), "iLQF2");
        assert_eq!(ArbAlgorithm::Iocf { iterations: 1 }.to_string(), "iOCF1");
    }

    #[test]
    fn weight_kinds() {
        assert_eq!(
            ArbAlgorithm::Ilqf { iterations: 1 }.weight_kind(),
            Some(WeightKind::Depth)
        );
        assert_eq!(
            ArbAlgorithm::Iocf { iterations: 1 }.weight_kind(),
            Some(WeightKind::Age)
        );
        assert_eq!(ArbAlgorithm::SpaaRotary.weight_kind(), None);
        assert_eq!(ArbAlgorithm::Islip { iterations: 2 }.weight_kind(), None);
        assert_eq!(ArbAlgorithm::Pim1.weight_kind(), None);
    }

    #[test]
    fn classification() {
        assert!(ArbAlgorithm::SpaaBase.is_spaa());
        assert!(ArbAlgorithm::SpaaDeep { latency: 4 }.is_spaa());
        assert!(!ArbAlgorithm::WfaBase.is_spaa());
        assert!(ArbAlgorithm::SpaaRotary.is_rotary());
        assert!(ArbAlgorithm::WfaRotary.is_rotary());
        assert!(!ArbAlgorithm::Pim1.is_rotary());
    }

    #[test]
    fn config_selects_scaled_timing() {
        let base = RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary);
        assert_eq!(base.arb_timing(), ArbTiming::new(3, 1));
        let scaled = RouterConfig::scaled_2x(ArbAlgorithm::SpaaRotary);
        assert_eq!(scaled.arb_timing(), ArbTiming::new(6, 1));
        assert_eq!(scaled.timing().input_delay.get(), 8);
    }

    /// The network engine's one-cycle horizon (`network::sim` module
    /// docs) needs every link's wire latency to last at least one core
    /// period. [`RouterConfig::timing`] can only return these two, so
    /// no configuration can break it.
    #[test]
    fn shipped_timings_keep_the_one_cycle_horizon() {
        for cfg in [
            RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
            RouterConfig::scaled_2x(ArbAlgorithm::SpaaRotary),
        ] {
            let t = cfg.timing();
            assert!(
                t.link_latency_ticks() >= t.core.period(),
                "wire {} under one core cycle {}",
                t.link_latency_ticks(),
                t.core.period()
            );
        }
    }

    #[test]
    fn display_labels_match_figures() {
        assert_eq!(ArbAlgorithm::WfaRotary.to_string(), "WFA-rotary");
        assert_eq!(ArbAlgorithm::SpaaBase.to_string(), "SPAA-base");
        assert_eq!(
            ArbAlgorithm::SpaaDeep { latency: 6 }.to_string(),
            "SPAA-deep6"
        );
    }
}
