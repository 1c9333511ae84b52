//! PIM — Parallel Iterative Matching (Anderson et al., §3.1).
//!
//! PIM finds a conflict-free packet set through randomized rounds of
//! three steps:
//!
//! 1. **Nominate.** Every unmatched input arbiter nominates a packet to
//!    every output arbiter for which it has one (the same packet may be
//!    nominated to multiple outputs).
//! 2. **Grant.** Every unmatched output arbiter that received requests
//!    accepts one *at random* and tells that input arbiter.
//! 3. **Accept.** An input arbiter that received multiple grants accepts
//!    one *at random*.
//!
//! PIM converges in about `log2 N` iterations (4 for the 21364's 16 input
//! arbiters). The paper's timing model can only afford a single iteration
//! — **PIM1** — whose matching quality is notably worse (McKeown);
//! [`PimArbiter::pim1`] constructs it.

use crate::matching::Matching;
use crate::matrix::RequestMatrix;
use crate::round::{at_least_one, grant_accept_rounds, PickPolicy};
use simcore::SimRng;

/// The PIM algorithm with a configurable iteration count.
#[derive(Clone, Debug)]
pub struct PimArbiter {
    iterations: usize,
}

/// PIM's pick policy: both phases draw uniformly at random.
struct RandomPick<'a>(&'a mut SimRng);

impl PickPolicy for RandomPick<'_> {
    #[inline]
    fn grant(&mut self, _col: usize, requesters: u32) -> usize {
        self.0.pick_bit(requesters) as usize
    }

    #[inline]
    fn accept(&mut self, _iter: usize, _row: usize, grants: u32) -> usize {
        self.0.pick_bit(grants) as usize
    }
}

impl PimArbiter {
    /// PIM with `iterations` nominate/grant/accept rounds.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn new(iterations: usize) -> Self {
        PimArbiter {
            iterations: at_least_one(iterations),
        }
    }

    /// The single-iteration variant evaluated in the paper's timing model.
    pub fn pim1() -> Self {
        PimArbiter::new(1)
    }

    /// The "converged" variant: `ceil(log2(rows))` iterations, the count
    /// the paper quotes for full PIM on 16 input arbiters.
    pub fn converged(rows: usize) -> Self {
        let iters = usize::BITS - rows.next_power_of_two().leading_zeros() - 1;
        PimArbiter::new((iters as usize).max(1))
    }

    /// Runs PIM on a request matrix (see
    /// `grant_accept_rounds`): within a round every grant draw is made
    /// by ascending column, then every accept draw by ascending row.
    pub fn arbitrate(&mut self, req: &RequestMatrix, rng: &mut SimRng) -> Matching {
        grant_accept_rounds(req, self.iterations, &mut RandomPick(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcm;

    fn rng() -> SimRng {
        SimRng::from_seed(21)
    }

    fn random_req(rng: &mut SimRng, rows: usize, cols: usize) -> RequestMatrix {
        let masks: Vec<u32> = (0..rows)
            .map(|_| rng.next_u32() & ((1u32 << cols) - 1))
            .collect();
        RequestMatrix::from_rows(masks, cols)
    }

    #[test]
    fn pim1_produces_valid_matchings() {
        let mut r = rng();
        let mut pim = PimArbiter::pim1();
        for _ in 0..100 {
            let req = random_req(&mut r, 16, 7);
            let m = pim.arbitrate(&req, &mut r);
            assert!(m.is_valid_for(&req));
        }
    }

    #[test]
    fn converged_pim_is_usually_maximal() {
        // With log2(N) iterations PIM converges "usually" — we allow a
        // small failure rate but most outcomes must be maximal.
        let mut r = rng();
        let mut pim = PimArbiter::converged(16);
        assert_eq!(pim.iterations, 4);
        let mut maximal = 0;
        let trials = 200;
        for _ in 0..trials {
            let req = random_req(&mut r, 16, 7);
            let m = pim.arbitrate(&req, &mut r);
            assert!(m.is_valid_for(&req));
            if m.is_maximal_for(&req) {
                maximal += 1;
            }
        }
        assert!(maximal > trials * 9 / 10, "only {maximal}/{trials} maximal");
    }

    #[test]
    fn more_iterations_never_hurt_on_average() {
        let mut r1 = SimRng::from_seed(5);
        let mut r2 = SimRng::from_seed(5);
        let mut gen = SimRng::from_seed(6);
        let mut pim1 = PimArbiter::pim1();
        let mut pim4 = PimArbiter::new(4);
        let (mut sum1, mut sum4) = (0usize, 0usize);
        for _ in 0..300 {
            let req = random_req(&mut gen, 16, 7);
            sum1 += pim1.arbitrate(&req, &mut r1).cardinality();
            sum4 += pim4.arbitrate(&req, &mut r2).cardinality();
        }
        assert!(
            sum4 > sum1,
            "PIM4 ({sum4}) should out-match PIM1 ({sum1}) in aggregate"
        );
    }

    #[test]
    fn never_exceeds_mcm() {
        let mut r = rng();
        let mut pim = PimArbiter::new(4);
        for _ in 0..100 {
            let req = random_req(&mut r, 12, 7);
            let upper = mcm::maximum_matching(&req).cardinality();
            let m = pim.arbitrate(&req, &mut r);
            assert!(m.cardinality() <= upper);
        }
    }

    #[test]
    fn single_contender_always_matched() {
        let req = RequestMatrix::from_rows(vec![0b100], 3);
        let m = PimArbiter::pim1().arbitrate(&req, &mut rng());
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.output_of(0), Some(2));
    }

    #[test]
    fn collision_grants_exactly_one() {
        // Four inputs all requesting only output 0: PIM1's grant step
        // resolves the collision at the output arbiter.
        let req = RequestMatrix::from_rows(vec![1, 1, 1, 1], 2);
        let m = PimArbiter::pim1().arbitrate(&req, &mut rng());
        assert_eq!(m.cardinality(), 1);
    }

    #[test]
    fn empty_requests() {
        let req = RequestMatrix::new(4, 4);
        let m = PimArbiter::new(3).arbitrate(&req, &mut rng());
        assert_eq!(m.cardinality(), 0);
    }

    #[test]
    fn converged_iteration_counts() {
        assert_eq!(PimArbiter::converged(16).iterations, 4);
        assert_eq!(PimArbiter::converged(8).iterations, 3);
        assert_eq!(PimArbiter::converged(2).iterations, 1);
        assert_eq!(PimArbiter::converged(1).iterations, 1);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = PimArbiter::new(0);
    }
}
