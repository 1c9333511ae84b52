//! Output ports, flit-departure timing and credit bookkeeping.
//!
//! Output ports are busy for a packet's whole flit train ("the port can be
//! busy for two, three, 18, or 19 cycles", §2.1). Torus ports serialize
//! flits on the 0.8 GHz link clock; local ports sink one flit per 1.2 GHz
//! core cycle. Virtual cut-through lets a packet's head leave before its
//! tail has arrived, so departure times also respect the *arrival* rate of
//! the packet's flits (a fast local port cannot outrun a slow inbound
//! link).
//!
//! Credits implement the VCT flow control of §2.1: an upstream router may
//! dispatch a packet toward a torus neighbour only while the downstream
//! input port has a free packet buffer in the target VC. Credits are
//! consumed at grant time and returned (one link latency later) when the
//! downstream buffer slot is released.

use crate::timing::RouterTiming;
use crate::vc::{VcId, NUM_VCS};
use arbitration::ports::OutputPort;
use simcore::Tick;

/// Departure schedule of one granted packet through an output port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FlitSchedule {
    /// When the first flit crosses the output pin.
    pub(crate) first_flit: Tick,
    /// When the last flit has fully crossed (port and buffer release
    /// time; also the downstream tail-arrival minus link latency).
    pub(crate) done: Tick,
}

/// One output port's occupancy state.
#[derive(Clone, Debug)]
pub(crate) struct OutputState {
    port: OutputPort,
    /// Time the current (or last) packet's final flit clears the port.
    busy_until: Tick,
}

impl OutputState {
    /// A fresh, idle output port.
    pub(crate) fn new(port: OutputPort) -> Self {
        OutputState {
            port,
            busy_until: Tick::ZERO,
        }
    }

    /// Which port this is.
    pub(crate) fn port(&self) -> OutputPort {
        self.port
    }

    /// Flit period of this port: link clock for torus ports, core clock
    /// for the local sink and I/O ports.
    pub(crate) fn flit_period(&self, timing: &RouterTiming) -> Tick {
        if self.port.is_network() {
            timing.link.period()
        } else {
            timing.core.period()
        }
    }

    /// True when a grant issued at GA time `ga` could stream its first
    /// flit (at `ga + output_delay`) without colliding with the current
    /// packet's tail. This is what the LA "is the output port free"
    /// readiness test and the GA re-check both consult.
    pub(crate) fn grantable(&self, ga: Tick, timing: &RouterTiming) -> bool {
        ga + timing.core_cycles(timing.output_delay) >= self.busy_until
    }

    /// Commits a granted packet to this port and returns its flit
    /// schedule.
    ///
    /// * `ga` — the GA (output arbitration) time of the grant.
    /// * `len_flits` — packet length.
    /// * `head_arrival`/`in_flit_period` — when the packet's flits become
    ///   available in the input buffer, for the cut-through constraint.
    /// * `not_before` — earliest permitted first-flit time (used to keep a
    ///   read port's consecutive flit trains from overlapping when its
    ///   arbitration pipeline runs ahead of its data path).
    ///
    /// # Panics
    ///
    /// Panics if the port is not [`OutputState::grantable`] at `ga` —
    /// callers must check first (the arbiters do).
    pub(crate) fn dispatch(
        &mut self,
        ga: Tick,
        len_flits: u32,
        head_arrival: Tick,
        in_flit_period: Tick,
        not_before: Tick,
        timing: &RouterTiming,
    ) -> FlitSchedule {
        assert!(
            self.grantable(ga, timing),
            "dispatch on busy port {:?}",
            self.port
        );
        let out_p = self.flit_period(timing);
        let earliest = (ga + timing.core_cycles(timing.output_delay))
            .max(not_before)
            .max(self.busy_until);
        // Torus flits leave on link clock edges ("the input port
        // arbitration internally nominates packets at the appropriate
        // cycles so that packets leaving the router are synchronized with
        // the off-chip network clock", §2.2).
        let first_flit = if self.port.is_network() {
            timing.link.next_edge_at_or_after(earliest)
        } else {
            earliest
        };
        let n = (len_flits - 1) as u64;
        // Cut-through: flit i cannot leave before it has been received.
        let own_rate_last = first_flit + Tick::new(n * out_p.as_ticks());
        let arrival_last = head_arrival + Tick::new(n * in_flit_period.as_ticks());
        let done = own_rate_last.max(arrival_last) + out_p;
        self.busy_until = done;
        FlitSchedule { first_flit, done }
    }

    /// Time the port frees (for tests and statistics).
    pub(crate) fn busy_until(&self) -> Tick {
        self.busy_until
    }
}

/// Per-torus-output credit counters for the downstream router's buffers.
///
/// Besides the exact counters, the bank maintains — incrementally, at
/// every consume/refund — a per-VC bitmask of torus outputs that hold at
/// least one credit. The LA eligibility test is a pure mask intersection
/// (`adaptive ∩ wired ∩ free ∩ credited`), so the saturated scan never
/// probes counters output-by-output.
#[derive(Clone, Debug)]
pub(crate) struct CreditBank {
    /// `credits[dir][vc]` = free downstream packet slots; `dir` indexes
    /// the four torus outputs.
    credits: [[u16; NUM_VCS]; 4],
    /// Bit `dir` of `credited[vc]` set while `credits[dir][vc] > 0`.
    credited: [u8; NUM_VCS],
}

impl CreditBank {
    /// Initializes every torus neighbour's credit pool from the (shared)
    /// downstream buffer partition.
    pub(crate) fn new(downstream: &crate::vc::BufferConfig) -> Self {
        let mut credits = [[0u16; NUM_VCS]; 4];
        let mut credited = [0u8; NUM_VCS];
        for (dir, pool) in credits.iter_mut().enumerate() {
            for vc in VcId::all() {
                let cap = downstream.capacity(vc) as u16;
                pool[vc.index()] = cap;
                if cap > 0 {
                    credited[vc.index()] |= 1 << dir;
                }
            }
        }
        CreditBank { credits, credited }
    }

    /// Free downstream slots for `vc` behind torus output `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a torus port.
    #[inline]
    pub(crate) fn available(&self, port: OutputPort, vc: VcId) -> u16 {
        assert!(port.is_network(), "credits exist only for torus outputs");
        self.credits[port.index()][vc.index()]
    }

    /// Mask (over output-port indices; torus outputs occupy bits 0..4) of
    /// outputs holding at least one `vc` credit. Equivalent to testing
    /// [`CreditBank::available`]` > 0` per output, maintained
    /// incrementally.
    #[inline]
    pub(crate) fn credited_mask(&self, vc: VcId) -> u8 {
        let mask = self.credited[vc.index()];
        #[cfg(debug_assertions)]
        for dir in 0..4 {
            debug_assert_eq!(
                mask & (1 << dir) != 0,
                self.credits[dir][vc.index()] > 0,
                "credit mask drifted from the counters"
            );
        }
        mask
    }

    /// Consumes one credit at grant time.
    ///
    /// # Panics
    ///
    /// Panics if no credit is available (arbiters must check first).
    pub(crate) fn consume(&mut self, port: OutputPort, vc: VcId) {
        let c = &mut self.credits[port.index()][vc.index()];
        assert!(*c > 0, "credit underflow on {port} {vc}");
        *c -= 1;
        if *c == 0 {
            self.credited[vc.index()] &= !(1 << port.index());
        }
    }

    /// Returns one credit (downstream slot released).
    pub(crate) fn refund(&mut self, port: OutputPort, vc: VcId) {
        self.credits[port.index()][vc.index()] += 1;
        self.credited[vc.index()] |= 1 << port.index();
    }

    /// Total free downstream slots behind torus output `port`, summed
    /// over all VCs — the coarse per-direction figure the watchdog's
    /// diagnostic dump reports (a wedged router typically shows one
    /// direction pinned at zero).
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a torus port.
    pub(crate) fn port_total(&self, port: OutputPort) -> u32 {
        assert!(port.is_network(), "credits exist only for torus outputs");
        self.credits[port.index()].iter().map(|&c| c as u32).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::CoherenceClass;
    use crate::vc::BufferConfig;

    fn timing() -> RouterTiming {
        RouterTiming::alpha_21364()
    }

    #[test]
    fn network_port_aligns_to_link_clock() {
        let t = timing();
        let mut out = OutputState::new(OutputPort::North);
        // GA at core cycle 5 (tick 100); +7 cycles output delay = tick 240,
        // which is already a link edge (240 = 8 × 30).
        let sched = out.dispatch(
            Tick::new(100),
            3,
            Tick::ZERO,
            t.link.period(),
            Tick::ZERO,
            &t,
        );
        assert_eq!(sched.first_flit, Tick::new(240));
        // 3 flits at 30 ticks each: the last starts at 300.
        assert_eq!(sched.done - t.link.period(), Tick::new(300));
        assert_eq!(sched.done, Tick::new(330));

        // GA at tick 120: +140 = 260, aligned up to the 270 link edge.
        let mut out2 = OutputState::new(OutputPort::South);
        let sched2 = out2.dispatch(
            Tick::new(120),
            3,
            Tick::ZERO,
            t.link.period(),
            Tick::ZERO,
            &t,
        );
        assert_eq!(sched2.first_flit, Tick::new(270));
    }

    #[test]
    fn local_port_streams_at_core_rate() {
        let t = timing();
        let mut out = OutputState::new(OutputPort::L0);
        let sched = out.dispatch(
            Tick::new(100),
            3,
            Tick::ZERO,
            t.core.period(),
            Tick::ZERO,
            &t,
        );
        assert_eq!(sched.first_flit, Tick::new(240));
        assert_eq!(sched.done, Tick::new(240 + 3 * 20));
    }

    #[test]
    fn cut_through_tail_constraint() {
        let t = timing();
        let mut out = OutputState::new(OutputPort::L0);
        // 19 flits still arriving on a slow link (30 ticks/flit) while the
        // local port could drain at 20 ticks/flit: the tail dominates.
        let head_arrival = Tick::new(200);
        let sched = out.dispatch(
            Tick::new(200),
            19,
            head_arrival,
            Tick::new(30),
            Tick::ZERO,
            &t,
        );
        let arrival_last = head_arrival + Tick::new(18 * 30);
        // The last flit starts as soon as it has arrived.
        assert_eq!(sched.done - t.core.period(), arrival_last);
    }

    #[test]
    fn grantable_lookahead_allows_back_to_back() {
        let t = timing();
        let mut out = OutputState::new(OutputPort::East);
        let s1 = out.dispatch(
            Tick::new(0),
            19,
            Tick::ZERO,
            t.link.period(),
            Tick::ZERO,
            &t,
        );
        // The port may be re-granted output_delay cycles before it frees,
        // so the next packet's first flit chains right behind the tail.
        let ga2 = s1.done - t.core_cycles(t.output_delay);
        assert!(out.grantable(ga2, &t));
        assert!(!out.grantable(ga2 - Tick::new(20), &t));
        let s2 = out.dispatch(ga2, 3, Tick::ZERO, t.link.period(), Tick::ZERO, &t);
        assert!(s2.first_flit >= s1.done);
        assert!(s2.first_flit - s1.done < t.link.period(), "no idle gap");
    }

    #[test]
    #[should_panic(expected = "dispatch on busy port")]
    fn dispatch_on_busy_port_panics() {
        let t = timing();
        let mut out = OutputState::new(OutputPort::East);
        out.dispatch(
            Tick::new(0),
            19,
            Tick::ZERO,
            t.link.period(),
            Tick::ZERO,
            &t,
        );
        out.dispatch(
            Tick::new(20),
            3,
            Tick::ZERO,
            t.link.period(),
            Tick::ZERO,
            &t,
        );
    }

    #[test]
    fn port_total_sums_every_vc() {
        let mut bank = CreditBank::new(&BufferConfig::uniform(2));
        let before = bank.port_total(OutputPort::North);
        bank.consume(OutputPort::North, VcId::special());
        assert_eq!(bank.port_total(OutputPort::North), before - 1);
        assert_eq!(bank.port_total(OutputPort::East), before);
    }

    #[test]
    fn credits_lifecycle() {
        let mut bank = CreditBank::new(&BufferConfig::alpha_21364());
        let vc = VcId::adaptive(CoherenceClass::Request);
        assert_eq!(bank.available(OutputPort::North, vc), 50);
        bank.consume(OutputPort::North, vc);
        assert_eq!(bank.available(OutputPort::North, vc), 49);
        bank.refund(OutputPort::North, vc);
        assert_eq!(bank.available(OutputPort::North, vc), 50);
    }

    #[test]
    fn credited_mask_tracks_counters() {
        let mut bank = CreditBank::new(&BufferConfig::uniform(1));
        let vc = VcId::special();
        assert_eq!(bank.credited_mask(vc), 0b1111, "all four dirs credited");
        bank.consume(OutputPort::North, vc);
        assert_eq!(bank.credited_mask(vc), 0b1110, "north exhausted");
        bank.refund(OutputPort::North, vc);
        assert_eq!(bank.credited_mask(vc), 0b1111, "refund restores the bit");
    }

    #[test]
    #[should_panic(expected = "credit underflow")]
    fn credit_underflow_panics() {
        let mut bank = CreditBank::new(&BufferConfig::uniform(1));
        let vc = VcId::special();
        bank.consume(OutputPort::West, vc);
        bank.consume(OutputPort::West, vc);
    }

    #[test]
    #[should_panic(expected = "torus outputs")]
    fn local_ports_have_no_credits() {
        let bank = CreditBank::new(&BufferConfig::alpha_21364());
        let _ = bank.available(OutputPort::L0, VcId::special());
    }
}
