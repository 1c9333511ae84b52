//! Clock domains.
//!
//! The 21364 router core runs at 1.2 GHz while the off-chip links run at
//! 0.8 GHz, "33% slower than the internal router clock" (§2.2). The
//! network simulator steps on core edges and aligns departing flits to
//! link edges ([`Clock::next_edge_at_or_after`]).

use crate::time::Tick;

/// A free-running clock domain: rising edges at `n * period`.
///
/// # Example
///
/// ```
/// use simcore::clock::Clock;
/// use simcore::time::Tick;
///
/// let link = Clock::alpha_21364_link();
/// assert_eq!(link.edge(2), Tick::new(60));
/// assert_eq!(link.next_edge_at_or_after(Tick::new(61)), Tick::new(90));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Clock {
    period: Tick,
}

impl Clock {
    /// Creates a clock with the given period (in ticks).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub(crate) fn new(period: Tick) -> Self {
        assert!(period > Tick::ZERO, "clock period must be positive");
        Clock { period }
    }

    /// The 1.2 GHz 21364 core/router clock (20-tick period).
    pub fn alpha_21364_core() -> Self {
        Clock::new(Tick::new(20))
    }

    /// The 0.8 GHz off-chip link clock (30-tick period).
    pub fn alpha_21364_link() -> Self {
        Clock::new(Tick::new(30))
    }

    /// The 2.4 GHz doubled core clock of the Figure 11a scaling study.
    pub fn scaled_2x_core() -> Self {
        Clock::new(Tick::new(10))
    }

    /// The 1.6 GHz doubled link clock of the Figure 11a scaling study.
    pub fn scaled_2x_link() -> Self {
        Clock::new(Tick::new(15))
    }

    /// Clock period.
    #[inline]
    pub fn period(&self) -> Tick {
        self.period
    }

    /// Time of the `n`-th rising edge (edge 0 is at tick zero).
    #[inline]
    pub fn edge(&self, n: u64) -> Tick {
        Tick::new(n * self.period.as_ticks())
    }

    /// The first edge at or after `t`.
    #[inline]
    pub fn next_edge_at_or_after(&self, t: Tick) -> Tick {
        self.edge(t.as_ticks().div_ceil(self.period.as_ticks()))
    }

    /// Duration of `n` whole cycles.
    #[inline]
    pub fn cycles(&self, n: u64) -> Tick {
        Tick::new(n * self.period.as_ticks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TICKS_PER_NS;

    /// Frequency in GHz — the unit the paper states its clocks in
    /// (§2.2: 1.2 GHz core, 0.8 GHz links; Figure 11a doubles both).
    fn ghz(clock: Clock) -> f64 {
        TICKS_PER_NS as f64 / clock.period().as_ticks() as f64
    }

    #[test]
    fn paper_frequencies() {
        assert!((ghz(Clock::alpha_21364_core()) - 1.2).abs() < 1e-12);
        assert!((ghz(Clock::alpha_21364_link()) - 0.8).abs() < 1e-12);
        assert!((ghz(Clock::scaled_2x_core()) - 2.4).abs() < 1e-12);
        assert!((ghz(Clock::scaled_2x_link()) - 1.6).abs() < 1e-12);
    }

    #[test]
    fn edge_times() {
        let c = Clock::alpha_21364_core();
        assert_eq!(c.edge(0), Tick::ZERO);
        assert_eq!(c.edge(5), Tick::new(100));
    }

    #[test]
    fn next_edge_at_or_after() {
        let c = Clock::alpha_21364_link();
        assert_eq!(c.next_edge_at_or_after(Tick::ZERO), Tick::ZERO);
        assert_eq!(c.next_edge_at_or_after(Tick::new(1)), Tick::new(30));
        assert_eq!(c.next_edge_at_or_after(Tick::new(30)), Tick::new(30));
        assert_eq!(c.next_edge_at_or_after(Tick::new(31)), Tick::new(60));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = Clock::new(Tick::ZERO);
    }
}
