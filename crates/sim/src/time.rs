//! Integer simulation time.
//!
//! All models in the workspace share a single global time base measured in
//! *ticks* of 1/24 ns. The granularity is chosen so that every clock the
//! paper mentions has an integer period:
//!
//! | clock                         | frequency | period    | ticks |
//! |-------------------------------|-----------|-----------|-------|
//! | 21364 core / router (§1)      | 1.2 GHz   | 0.8333 ns | 20    |
//! | off-chip network link (§2.2)  | 0.8 GHz   | 1.25 ns   | 30    |
//! | 2× scaled core (Fig 11a)      | 2.4 GHz   | 0.4167 ns | 10    |
//! | 2× scaled link (Fig 11a)      | 1.6 GHz   | 0.625 ns  | 15    |
//!
//! Using integers keeps the simulator deterministic and makes cross-domain
//! event ordering exact (the 1.2/0.8 GHz pair aligns every 2.5 ns = 60
//! ticks).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of [`Tick`]s in one nanosecond.
pub const TICKS_PER_NS: u64 = 24;

/// An absolute point in simulation time (or a duration), in 1/24 ns units.
///
/// `Tick` is a transparent newtype over `u64`; arithmetic that would
/// underflow panics in debug builds just like plain integer arithmetic.
///
/// # Example
///
/// ```
/// use simcore::time::{Tick, TICKS_PER_NS};
/// let a = Tick::from_ns(2.5);
/// assert_eq!(a.as_ticks(), 60);
/// assert_eq!((a + Tick::new(12)).as_ns(), 3.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tick(u64);

impl Tick {
    /// The zero point of simulation time.
    pub const ZERO: Tick = Tick(0);
    /// The far future; useful as an "idle" sentinel for schedulers.
    pub const MAX: Tick = Tick(u64::MAX);

    /// Creates a tick count directly.
    #[inline]
    pub const fn new(ticks: u64) -> Self {
        Tick(ticks)
    }

    /// Converts a (non-negative) nanosecond value, rounding to nearest tick.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid time: {ns} ns");
        Tick((ns * TICKS_PER_NS as f64).round() as u64)
    }

    /// Raw tick count.
    #[inline]
    pub const fn as_ticks(self) -> u64 {
        self.0
    }

    /// This time expressed in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / TICKS_PER_NS as f64
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Tick) -> Tick {
        Tick(self.0.saturating_sub(rhs.0))
    }

    /// Fast-forwards a cadence: the earliest `self + k * step` (integer
    /// `k >= 0`) that is `>= now`. This is the replay arithmetic idle-skip
    /// catch-up relies on — a cadence counter advanced by this function
    /// lands on exactly the edges per-cycle stepping would have produced
    /// (`k` counts the skipped firings strictly before `now`).
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero when `self < now`.
    #[inline]
    pub fn advance_cadence(self, now: Tick, step: Tick) -> Tick {
        if self >= now {
            return self;
        }
        let behind = now.0 - self.0;
        Tick(self.0 + behind.div_ceil(step.0) * step.0)
    }
}

impl Add for Tick {
    type Output = Tick;
    #[inline]
    fn add(self, rhs: Tick) -> Tick {
        Tick(self.0 + rhs.0)
    }
}

impl AddAssign for Tick {
    #[inline]
    fn add_assign(&mut self, rhs: Tick) {
        self.0 += rhs.0;
    }
}

impl Sub for Tick {
    type Output = Tick;
    #[inline]
    fn sub(self, rhs: Tick) -> Tick {
        Tick(self.0 - rhs.0)
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ns", self.as_ns())
    }
}

/// A duration expressed in whole cycles of some clock domain.
///
/// `Cycles` is unit-bearing only by convention: the clock it refers to is
/// whichever [`crate::clock::Clock`] it is combined with. It exists so that
/// router configuration (pipeline depths, arbitration latencies, memory
/// response times) reads in the paper's own units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(pub u32);

impl Cycles {
    /// Creates a cycle count.
    #[inline]
    pub const fn new(n: u32) -> Self {
        Cycles(n)
    }

    /// Raw count.
    #[inline]
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip() {
        let t = Tick::from_ns(73.0); // the paper's memory response time
        assert_eq!(t.as_ticks(), 73 * TICKS_PER_NS);
        assert!((t.as_ns() - 73.0).abs() < 1e-12);
    }

    #[test]
    fn paper_clock_periods_are_integral() {
        // 1.2 GHz and 0.8 GHz periods in ticks.
        let core = 1e9 / 1.2e9 * TICKS_PER_NS as f64;
        let link = 1e9 / 0.8e9 * TICKS_PER_NS as f64;
        assert_eq!(core, 20.0);
        assert_eq!(link, 30.0);
    }

    #[test]
    fn arithmetic() {
        let a = Tick::new(50);
        let b = Tick::new(20);
        assert_eq!((a + b).as_ticks(), 70);
        assert_eq!((a - b).as_ticks(), 30);
        assert_eq!(b.saturating_sub(a), Tick::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn negative_ns_panics() {
        let _ = Tick::from_ns(-1.0);
    }

    #[test]
    fn display() {
        assert_eq!(Tick::new(24).to_string(), "1.000ns");
        assert_eq!(Cycles::new(3).to_string(), "3cy");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Tick::new(1) < Tick::new(2));
        assert!(Tick::MAX > Tick::from_ns(1e9));
    }
}
