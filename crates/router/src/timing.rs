//! Router pipeline timing (§2.2, §3).
//!
//! The quantities the paper's comparison turns on:
//!
//! * **Arbitration latency**: SPAA resolves in 3 cycles (LA → RE → GA);
//!   PIM1 and WFA need 4 (1.5 to nominate and load the matrix, 1.5 to
//!   evaluate, 1 of wire delay to the outputs).
//! * **Initiation interval**: SPAA starts a new input-port arbitration
//!   every cycle; PIM1/WFA can restart only every 3 cycles because the
//!   centralized matrix must drain before it can be reloaded.
//! * **Pin-to-pin latency**: 13 cycles at 1.2 GHz (10.8 ns) for a first
//!   flit crossing the router, of which 6 are synchronization, pad and
//!   transport delays.
//! * **Clock domains**: the router core at 1.2 GHz, the off-chip links at
//!   0.8 GHz with 3 link-clocks of wire latency.
//!
//! `RouterTiming::scaled_2x` doubles the pipeline (Figure 11a): 2.4 GHz
//! core, arbitration latencies 6 (SPAA) and 8 (PIM1/WFA), initiation
//! intervals 1 and 6.

use simcore::clock::Clock;
use simcore::time::{Cycles, Tick};

/// Latency/initiation pair for an arbitration pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ArbTiming {
    /// Cycles from the LA (input arbitration) stage to the GA (output
    /// arbitration) stage, inclusive — 3 for SPAA, 4 for PIM1/WFA.
    pub(crate) latency: Cycles,
    /// Cycles between consecutive arbitration starts — 1 for SPAA,
    /// 3 for PIM1/WFA.
    pub(crate) initiation_interval: Cycles,
}

impl ArbTiming {
    /// Creates a timing pair.
    ///
    /// # Panics
    ///
    /// Panics if either field is zero.
    pub(crate) fn new(latency: u32, initiation_interval: u32) -> Self {
        assert!(latency >= 1, "arbitration takes at least one cycle");
        assert!(
            initiation_interval >= 1,
            "initiation interval must be positive"
        );
        ArbTiming {
            latency: Cycles::new(latency),
            initiation_interval: Cycles::new(initiation_interval),
        }
    }
}

/// The full set of clocks and fixed pipeline delays for one router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterTiming {
    /// Router-core clock (1.2 GHz in the 21364).
    pub core: Clock,
    /// Off-chip link clock (0.8 GHz — "33% slower", §2.2).
    pub(crate) link: Clock,
    /// Cycles from a network input pin to LA eligibility (synchronization,
    /// pad receiver, transport, ECC check and decode).
    pub(crate) input_delay: Cycles,
    /// Cycles from local-port injection to LA eligibility (router-table
    /// lookup path of Figure 4a; ≈2.5 ns of "local port latency", §4.3).
    pub(crate) local_input_delay: Cycles,
    /// Cycles from the GA grant to the first flit at the output pin
    /// (read-queue, crossbar, ECC generate, pad driver, transport).
    pub(crate) output_delay: Cycles,
    /// Link wire latency in link clocks (3 network clocks, §4.1).
    pub(crate) link_latency: Cycles,
}

impl RouterTiming {
    /// Production 21364 timing. A first flit spends `input_delay` cycles
    /// reaching LA, `latency - 1` further cycles to its GA stage, and
    /// `output_delay` cycles from GA to the output pin:
    /// `4 + 2 + 7 = 13` cycles pin-to-pin for SPAA, per §2.2.
    pub(crate) fn alpha_21364() -> Self {
        RouterTiming {
            core: Clock::alpha_21364_core(),
            link: Clock::alpha_21364_link(),
            input_delay: Cycles::new(4),
            local_input_delay: Cycles::new(3),
            output_delay: Cycles::new(7),
            link_latency: Cycles::new(3),
        }
    }

    /// The Figure 11a scaling point: twice the pipeline length at twice
    /// the clock frequency (2.4 GHz core, 1.6 GHz links). Fixed delays
    /// double in cycle count, so their wall-clock duration is unchanged;
    /// arbitration latencies are supplied by [`ArbTiming`] separately
    /// (8/8/6 cycles per the paper).
    pub(crate) fn scaled_2x() -> Self {
        RouterTiming {
            core: Clock::scaled_2x_core(),
            link: Clock::scaled_2x_link(),
            input_delay: Cycles::new(8),
            local_input_delay: Cycles::new(6),
            output_delay: Cycles::new(14),
            link_latency: Cycles::new(3),
        }
    }

    /// Duration of `c` core cycles.
    #[inline]
    pub(crate) fn core_cycles(&self, c: Cycles) -> Tick {
        self.core.cycles(c.get() as u64)
    }

    /// Duration of `c` link cycles.
    #[inline]
    pub(crate) fn link_cycles(&self, c: Cycles) -> Tick {
        self.link.cycles(c.get() as u64)
    }

    /// One-way link wire latency as a duration.
    #[inline]
    pub fn link_latency_ticks(&self) -> Tick {
        self.link_cycles(self.link_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin-to-pin first-flit latency for a given arbitration latency —
    /// the §2.2 figure the fixed delays are calibrated to.
    ///
    /// The LA stage shares a cycle with eligibility, so arbitration
    /// contributes `latency - 1` whole cycles of elapsed time between the
    /// input and output fixed delays.
    fn pin_to_pin(t: &RouterTiming, arb: ArbTiming) -> Cycles {
        t.input_delay + Cycles::new(arb.latency.get() - 1) + t.output_delay
    }

    #[test]
    fn paper_pin_to_pin_is_13_cycles() {
        let t = RouterTiming::alpha_21364();
        let spaa = ArbTiming::new(3, 1);
        assert_eq!(pin_to_pin(&t, spaa).get(), 13);
        // 13 cycles at 1.2 GHz ≈ 10.8 ns (§2.2).
        let ns = t.core_cycles(pin_to_pin(&t, spaa)).as_ns();
        assert!((ns - 10.833).abs() < 0.01, "pin-to-pin = {ns} ns");
    }

    #[test]
    fn pim_wfa_pay_one_extra_cycle() {
        let t = RouterTiming::alpha_21364();
        assert_eq!(pin_to_pin(&t, ArbTiming::new(4, 3)).get(), 14);
    }

    #[test]
    fn link_is_33_percent_slower() {
        let t = RouterTiming::alpha_21364();
        let ratio = t.link.period().as_ticks() as f64 / t.core.period().as_ticks() as f64;
        assert!((ratio - 1.5).abs() < 1e-12);
        assert_eq!(t.link_latency_ticks().as_ns(), 3.75); // 3 × 1.25 ns
    }

    #[test]
    fn scaled_timing_doubles_depth_not_wall_clock() {
        let base = RouterTiming::alpha_21364();
        let scaled = RouterTiming::scaled_2x();
        assert_eq!(scaled.input_delay.get(), 2 * base.input_delay.get());
        // Same wall-clock duration for the fixed delays.
        assert_eq!(
            scaled.core_cycles(scaled.input_delay),
            base.core_cycles(base.input_delay)
        );
        // The 2x SPAA arbitration (6 cycles at 2.4 GHz) is *faster* in ns
        // than base SPAA (3 cycles at 1.2 GHz) would be at depth 6.
        assert_eq!(
            scaled.core_cycles(ArbTiming::new(6, 1).latency),
            base.core_cycles(ArbTiming::new(3, 1).latency)
        );
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        let _ = ArbTiming::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_interval_rejected() {
        let _ = ArbTiming::new(3, 0);
    }
}
