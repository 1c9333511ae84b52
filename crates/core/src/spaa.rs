//! SPAA — the Simple Pipelined Arbitration Algorithm (§3.3).
//!
//! SPAA is the paper's contribution, implemented in the Alpha 21364. It
//! deliberately minimizes interaction between input and output arbiters:
//!
//! 1. **Nominate.** Each input arbiter nominates a packet to *exactly one*
//!    output arbiter (unlike PIM/WFA's multi-nomination). The nomination
//!    stays locked until step 3.
//! 2. **Grant.** An output arbiter receiving multiple requests selects the
//!    least-recently-selected input arbiter (SPAA-base) or applies the
//!    Rotary Rule first (SPAA-rotary), then informs the input arbiters.
//! 3. **Reset.** Input arbiters unlock unselected nominations so they can
//!    be nominated again.
//!
//! Because nominations are independent, SPAA can suffer arbitration
//! collisions (several inputs nominating the same output while other
//! outputs idle) and its matching is *not* maximal — that is the price it
//! pays for being implementable in 3 cycles and pipelineable at one new
//! arbitration per cycle. This module is the combinational grant kernel;
//! the pipelined nomination/lock/reset timing lives in the `router` crate.

use crate::matching::Matching;
use crate::policy::{RotaryMode, Selector};

/// The SPAA output-arbitration stage.
///
/// Holds one [`Selector`] per output port so that least-recently-selected
/// state persists across arbitration passes, as it does in the hardware's
/// priority matrices.
#[derive(Clone, Debug)]
pub struct SpaaArbiter {
    selectors: Vec<Selector>,
    rows: usize,
}

impl SpaaArbiter {
    /// Creates a SPAA grant stage for `rows` input arbiters and `cols`
    /// output ports.
    ///
    /// `rotary` selects between SPAA-base (LRS only) and SPAA-rotary
    /// (network rows first, LRS within a class); `network_rows` is the
    /// mask of rows fed by torus input ports.
    pub(crate) fn new(rows: usize, cols: usize, rotary: RotaryMode, network_rows: u32) -> Self {
        let selectors = (0..cols)
            .map(|_| Selector::new(rotary, network_rows, rows))
            .collect();
        SpaaArbiter { selectors, rows }
    }

    /// SPAA-base: least-recently-selected grants.
    pub fn base(rows: usize, cols: usize) -> Self {
        SpaaArbiter::new(rows, cols, RotaryMode::Off, 0)
    }

    /// SPAA-rotary: network-input nominations win before local ones.
    pub fn rotary(rows: usize, cols: usize, network_rows: u32) -> Self {
        SpaaArbiter::new(rows, cols, RotaryMode::On, network_rows)
    }

    /// Grant step: resolves single-output nominations into a matching.
    ///
    /// `nominations[row]` is the single output nominated by input arbiter
    /// `row` (or `None` when it has nothing eligible) — SPAA's step 1
    /// guarantees one nomination per row, which is what makes speculative
    /// buffer read-out safe.
    ///
    /// The router's pipelined GA stage (`Router::spaa_ga_phase`) drives
    /// the same per-output [`Selector`] but cannot call this: between
    /// nomination and grant it re-checks that the port is still free,
    /// narrows the contenders to old entries during an anti-starvation
    /// drain and re-checks credit — three tests on router state that a
    /// nominations → matching function never sees. This is the one-cycle
    /// SPAA of the standalone model (§5.1).
    ///
    /// # Panics
    ///
    /// Panics if a nomination column is out of range or the nomination
    /// slice length differs from `rows`.
    pub fn grant(&mut self, nominations: &[Option<u8>]) -> Matching {
        assert_eq!(nominations.len(), self.rows, "nomination width mismatch");
        let cols = self.selectors.len();
        // Collect contender masks per output.
        let mut contenders = vec![0u32; cols];
        for (row, nom) in nominations.iter().enumerate() {
            if let Some(c) = nom {
                let c = *c as usize;
                assert!(c < cols, "nominated output {c} out of range");
                contenders[c] |= 1 << row;
            }
        }
        // Each output arbiter independently picks one contender — there is
        // no cross-output interaction to dedupe multi-nominations because
        // SPAA never multi-nominates.
        let mut m = Matching::empty(self.rows, cols);
        for (c, &mask) in contenders.iter().enumerate() {
            if mask != 0 {
                let row = self.selectors[c].select(mask);
                m.grant(row, c);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::RequestMatrix;
    use crate::ports::NETWORK_ROW_MASK;

    fn noms(pairs: &[(usize, u8)], rows: usize) -> Vec<Option<u8>> {
        let mut v = vec![None; rows];
        for &(r, c) in pairs {
            v[r] = Some(c);
        }
        v
    }

    #[test]
    fn uncontended_nominations_all_granted() {
        let mut spaa = SpaaArbiter::base(16, 7);
        let n = noms(&[(0, 0), (3, 2), (9, 5)], 16);
        let m = spaa.grant(&n);
        assert_eq!(m.cardinality(), 3);
        assert_eq!(m.output_of(0), Some(0));
        assert_eq!(m.output_of(3), Some(2));
        assert_eq!(m.output_of(9), Some(5));
    }

    #[test]
    fn collision_grants_exactly_one() {
        let mut spaa = SpaaArbiter::base(16, 7);
        let n = noms(&[(0, 4), (5, 4), (12, 4)], 16);
        let m = spaa.grant(&n);
        assert_eq!(m.cardinality(), 1, "one winner per output port");
        assert_eq!(m.matched_cols(), 1 << 4);
    }

    #[test]
    fn collisions_lose_matches_where_wfa_would_not() {
        // The core SPAA trade-off: three inputs nominate output 0 while
        // outputs 1 and 2 idle. SPAA delivers 1; a maximal algorithm with
        // the same *request* state (each packet routable two ways) could
        // deliver more. This is the Figure 2 "arbitration collision".
        let mut spaa = SpaaArbiter::base(4, 4);
        let n = noms(&[(0, 0), (1, 0), (2, 0)], 4);
        let m = spaa.grant(&n);
        assert_eq!(m.cardinality(), 1);
        // With the full request sets the upper bound is 3.
        let req = RequestMatrix::from_rows(vec![0b0011, 0b0101, 0b0001, 0], 4);
        assert_eq!(crate::mcm::maximum_matching(&req).cardinality(), 3);
    }

    #[test]
    fn lrs_grant_rotates_among_persistent_contenders() {
        let mut spaa = SpaaArbiter::base(4, 2);
        let n = noms(&[(0, 1), (1, 1), (2, 1)], 4);
        let mut winners = Vec::new();
        for _ in 0..3 {
            winners.push(spaa.grant(&n).input_of(1).unwrap());
        }
        winners.sort_unstable();
        assert_eq!(winners, vec![0, 1, 2], "LRS serves each before repeating");
    }

    #[test]
    fn rotary_grant_prefers_network_rows() {
        let mut spaa = SpaaArbiter::rotary(16, 7, NETWORK_ROW_MASK);
        // Row 10 (MC0) vs row 6 (torus W rp0), both nominating output 1.
        let n = noms(&[(10, 1), (6, 1)], 16);
        for _ in 0..8 {
            assert_eq!(spaa.grant(&n).input_of(1), Some(6));
        }
        // Local-only contention still gets served.
        let n = noms(&[(10, 1)], 16);
        assert_eq!(spaa.grant(&n).input_of(1), Some(10));
    }

    #[test]
    fn independent_outputs_grant_in_parallel() {
        let mut spaa = SpaaArbiter::base(16, 7);
        let n = noms(&[(0, 0), (1, 0), (2, 1), (3, 1), (4, 2)], 16);
        let m = spaa.grant(&n);
        assert_eq!(
            m.cardinality(),
            3,
            "one per contended output plus the free one"
        );
    }

    #[test]
    fn empty_nominations() {
        let mut spaa = SpaaArbiter::base(16, 7);
        let m = spaa.grant(&[None; 16]);
        assert_eq!(m.cardinality(), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_rejected() {
        let mut spaa = SpaaArbiter::base(16, 7);
        let _ = spaa.grant(&[None; 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_output_rejected() {
        let mut spaa = SpaaArbiter::base(4, 2);
        let _ = spaa.grant(&noms(&[(0, 5)], 4));
    }
}
