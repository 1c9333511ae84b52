//! The 21364 anti-starvation algorithm (§3.4).
//!
//! The Rotary Rule's strict prioritization of cross-traffic can starve
//! local-port packets. The 21364 counters this with a two-color scheme:
//! packets waiting at a router carry an *old* or *new* color, and "if the
//! number of old colored packets exceeds a threshold, the 21364 ensures
//! that all the old colored packets are drained before any new colored
//! packets are routed".
//!
//! The paper leaves the coloring period and threshold unspecified (the
//! details are "beyond the scope of this paper"), so both are
//! configuration knobs here. The model colors by age: an entry is *old*
//! once it has waited longer than `age_threshold` cycles; when the
//! router's old population exceeds `count_threshold`, the router enters
//! drain mode and old entries take *priority* over new ones at both the
//! input and output arbiters (overriding the Rotary Rule) until none
//! remain. Priority rather than exclusivity keeps the router streaming:
//! a freeze-until-drained interpretation collapses saturated-network
//! throughput by an order of magnitude, far beyond anything the paper
//! reports.
//!
//! A drain's cutoff is fixed when it engages, and every packet decoded
//! after that census is younger than it (a step decodes its due arrivals
//! before the census runs), so a drain's old set can only shrink: an old
//! packet leaves at its grant, and none joins. The router therefore
//! counts each input's old entries once, at engagement, and lowers the
//! count at each old grant; a drain walk of an input at zero would find
//! nothing and is skipped. The census itself re-counts against a moving
//! cutoff, so a drain can outlive its old set: it ends only at a census
//! that finds no `Waiting` entry older than `age_threshold`.

use simcore::time::{Cycles, Tick};

/// Anti-starvation configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AntiStarvationConfig {
    /// Age (in core cycles) beyond which a waiting packet counts as old.
    pub age_threshold: Cycles,
    /// Number of old packets that trips drain mode.
    pub count_threshold: u32,
    /// How often (in core cycles) the router re-counts its old packets.
    pub scan_period: Cycles,
}

impl Default for AntiStarvationConfig {
    fn default() -> Self {
        AntiStarvationConfig {
            age_threshold: Cycles::new(4096),
            count_threshold: 32,
            scan_period: Cycles::new(1024),
        }
    }
}

/// Per-router anti-starvation state machine.
#[derive(Clone, Debug)]
pub(crate) struct AntiStarvation {
    cfg: AntiStarvationConfig,
    next_scan: Tick,
    /// While draining, only entries that became eligible at or before this
    /// time may be nominated.
    drain_cutoff: Option<Tick>,
}

impl AntiStarvation {
    /// Creates the state machine.
    pub(crate) fn new(cfg: AntiStarvationConfig) -> Self {
        AntiStarvation {
            cfg,
            next_scan: Tick::ZERO,
            drain_cutoff: None,
        }
    }

    /// The configuration in force.
    pub(crate) fn config(&self) -> &AntiStarvationConfig {
        &self.cfg
    }

    /// True when a periodic re-count is due.
    pub(crate) fn scan_due(&self, now: Tick) -> bool {
        now >= self.next_scan
    }

    /// The tick of the next periodic re-count. A loaded router must be
    /// stepped at this tick even if it has no other work — the census
    /// must run on schedule.
    pub(crate) fn next_scan_tick(&self) -> Tick {
        self.next_scan
    }

    /// Replays the scans an *empty* router would have performed over
    /// skipped idle cycles: each would have counted zero old packets, so
    /// the only state change is the scan cadence advancing. Called by the
    /// router's idle-skip catch-up before its first real step after a gap;
    /// a no-op while the cadence is current.
    ///
    /// The cadence falls behind only across a gap in which the router held
    /// no packets: the wake of a loaded or draining router includes the
    /// census tick, so it never sleeps past one. Every replayed scan would
    /// have counted zero old packets, so drain mode cannot have been
    /// engaged.
    pub(crate) fn catch_up_idle(&mut self, now: Tick, period: Tick) {
        if self.next_scan >= now || period == Tick::ZERO {
            return;
        }
        debug_assert!(
            self.drain_cutoff.is_none(),
            "idle-skipped a draining router"
        );
        self.next_scan = self.next_scan.advance_cadence(now, period);
    }

    /// Feeds the result of a scan: `old_count` entries were eligible
    /// before `now - age_threshold`. `age_ticks` is the age threshold
    /// converted to ticks by the caller's core clock.
    pub(crate) fn record_scan(&mut self, now: Tick, old_count: u32, age_ticks: Tick, period: Tick) {
        self.next_scan = now + period;
        if self.drain_cutoff.is_none() && old_count > self.cfg.count_threshold {
            self.drain_cutoff = Some(now.saturating_sub(age_ticks));
        } else if self.drain_cutoff.is_some() && old_count == 0 {
            self.drain_cutoff = None;
        }
    }

    /// While draining, returns the eligibility cutoff: only entries that
    /// became eligible at or before the cutoff may be nominated.
    pub(crate) fn cutoff(&self) -> Option<Tick> {
        self.drain_cutoff
    }

    /// True when the router is in drain mode.
    pub(crate) fn draining(&self) -> bool {
        self.drain_cutoff.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AntiStarvationConfig {
        AntiStarvationConfig {
            age_threshold: Cycles::new(100),
            count_threshold: 2,
            scan_period: Cycles::new(50),
        }
    }

    #[test]
    fn trips_only_above_threshold() {
        let mut a = AntiStarvation::new(cfg());
        let age = Tick::new(1000);
        let period = Tick::new(500);
        a.record_scan(Tick::new(2000), 2, age, period);
        assert!(!a.draining(), "at threshold: not tripped");
        a.record_scan(Tick::new(2500), 3, age, period);
        assert!(a.draining(), "above threshold: tripped");
        assert_eq!(a.cutoff(), Some(Tick::new(1500)));
    }

    #[test]
    fn clears_when_drained() {
        let mut a = AntiStarvation::new(cfg());
        let age = Tick::new(1000);
        let period = Tick::new(500);
        a.record_scan(Tick::new(2000), 10, age, period);
        assert!(a.draining());
        // Still old packets: stays in drain with the original cutoff.
        a.record_scan(Tick::new(2500), 4, age, period);
        assert_eq!(a.cutoff(), Some(Tick::new(1000)));
        // All drained: released.
        a.record_scan(Tick::new(3000), 0, age, period);
        assert!(!a.draining());
    }

    #[test]
    fn scan_cadence() {
        let mut a = AntiStarvation::new(cfg());
        assert!(a.scan_due(Tick::ZERO));
        a.record_scan(Tick::ZERO, 0, Tick::new(100), Tick::new(500));
        assert!(!a.scan_due(Tick::new(499)));
        assert!(a.scan_due(Tick::new(500)));
    }

    #[test]
    fn cutoff_saturates_at_zero() {
        let mut a = AntiStarvation::new(cfg());
        a.record_scan(Tick::new(10), 5, Tick::new(1000), Tick::new(500));
        assert_eq!(a.cutoff(), Some(Tick::ZERO));
    }
}
