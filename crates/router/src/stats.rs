//! Per-router statistics counters.

use simcore::stats::Counter;

/// Counters one router accumulates while simulating.
#[derive(Clone, Debug, Default)]
pub struct RouterStats {
    /// Packets accepted into input buffers (network + local).
    pub packets_in: Counter,
    /// Packets dispatched through any output port.
    pub packets_out: Counter,
    /// Flits dispatched through any output port.
    pub flits_out: Counter,
    /// Packets delivered to the local sinks (L0/L1/I-O at destination).
    pub packets_delivered: Counter,
    /// Nominations issued by the input arbiters.
    pub nominations: Counter,
    /// Grants issued by the output arbiters.
    pub grants: Counter,
    /// Nominations that lost output arbitration (SPAA collisions /
    /// window-losers).
    pub collisions: Counter,
    /// Dispatches that used an escape (VC0/VC1) channel downstream.
    pub escape_dispatches: Counter,
    /// Times the anti-starvation drain mode engaged.
    pub drain_engagements: Counter,
    /// Total matching weight (depth plane) achieved across all windows.
    /// Accumulated only when `measure_matching_weight` is set — zero in
    /// every ordinary configuration.
    pub matched_weight: Counter,
    /// Total maximum-weight-matching (Hungarian oracle) weight across the
    /// same windows. Accumulated only when `measure_matching_weight` is
    /// set; `matched_weight / mwm_weight` is the optimality gap.
    pub mwm_weight: Counter,
}

impl RouterStats {
    /// Compact traffic summary for diagnostic dumps.
    pub(crate) fn summary(&self) -> String {
        format!(
            "in {} out {} delivered {}",
            self.packets_in.get(),
            self.packets_out.get(),
            self.packets_delivered.get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_traffic_counters() {
        let mut s = RouterStats::default();
        s.packets_in.add(5);
        s.packets_out.add(4);
        s.packets_delivered.add(1);
        assert_eq!(s.summary(), "in 5 out 4 delivered 1");
    }
}
