//! iSLIP — iterative round-robin matching with slip (McKeown), plus the
//! plain round-robin matcher it improves on.
//!
//! The paper's five algorithms predate the input-queued-switch scheduling
//! literature's modern reference point: **iSLIP**, the iterative
//! round-robin algorithm used in commercial crossbar schedulers. Like PIM
//! it runs the grant/accept round of [`crate::round`], but both picks use
//! *rotating pointers* instead of random draws: an output grants the
//! requesting input at or after its *grant pointer*, and an input accepts
//! the granting output at or after its *accept pointer*.
//!
//! The defining subtlety — the "slip" — is the pointer-update rule:
//! **pointers advance only past a grant that was accepted, and only in
//! the first iteration**. An output whose grant is refused keeps pointing
//! at the same input and wins it in a later cycle, so under sustained
//! load the grant pointers *desynchronize*: each output settles on a
//! different input and the matcher converges to a full permutation
//! (100% throughput on persistent uniform traffic — see the
//! `desynchronization_reaches_full_throughput` test).
//!
//! `IslipArbiter::round_robin_matcher` builds the degenerate baseline
//! this rule fixes: identical grant/accept phases but pointers that
//! advance past every grant, accepted or not. Under saturation its
//! pointers move in lock-step and the matching collapses to one grant
//! per cycle — the classic synchronization pathology.
//!
//! Unlike PIM, both variants are fully deterministic: given the same
//! request sequence they produce the same matchings, which makes them
//! cheap in hardware (no RNG) and convenient in the windowed router
//! driver (no RNG stream perturbation).

use crate::matching::Matching;
use crate::matrix::RequestMatrix;
use crate::policy::round_robin_first;
use crate::round::{at_least_one, grant_accept_rounds, PickPolicy, Pointers};

/// When a grant/accept pointer advances past the slot it granted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PointerUpdate {
    /// Only past grants accepted in the first iteration (iSLIP's rule —
    /// the property behind pointer desynchronization).
    OnAccept,
    /// Past every grant, accepted or not (the plain round-robin matcher;
    /// prone to pointer synchronization under load).
    Always,
}

/// An iSLIP (or plain round-robin) matcher with persistent pointers.
#[derive(Clone, Debug)]
pub struct IslipArbiter {
    ptrs: Pointers,
    iterations: usize,
    update: PointerUpdate,
}

impl IslipArbiter {
    /// An iSLIP instance over a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or exceeds 32, or `iterations == 0`.
    pub fn islip(rows: usize, cols: usize, iterations: usize) -> Self {
        IslipArbiter {
            ptrs: Pointers::new(rows, cols),
            iterations: at_least_one(iterations),
            update: PointerUpdate::OnAccept,
        }
    }

    /// The plain parallel round-robin matcher baseline (single iteration,
    /// pointers always advance).
    pub(crate) fn round_robin_matcher(rows: usize, cols: usize) -> Self {
        IslipArbiter {
            update: PointerUpdate::Always,
            ..IslipArbiter::islip(rows, cols, 1)
        }
    }

    /// Runs one arbitration pass (see [`grant_accept_rounds`]) and
    /// updates the pointers.
    ///
    /// # Panics
    ///
    /// Panics if the request matrix shape differs from the arbiter's.
    pub(crate) fn arbitrate(&mut self, req: &RequestMatrix) -> Matching {
        self.ptrs.check_shape(req);
        grant_accept_rounds(req, self.iterations, self)
    }
}

/// The rotating-pointer pick policy: each phase takes the first
/// contender at or after its pointer. Every pointer is read at most once
/// per round, so the plain matcher's "advance past every grant" can
/// happen at the pick itself.
impl PickPolicy for IslipArbiter {
    #[inline]
    fn grant(&mut self, col: usize, requesters: u32) -> usize {
        let row = round_robin_first(requesters, self.ptrs.grant[col]);
        if self.update == PointerUpdate::Always {
            self.ptrs.advance_grant(col, row);
        }
        row
    }

    #[inline]
    fn accept(&mut self, iter: usize, row: usize, grants: u32) -> usize {
        let col = round_robin_first(grants, self.ptrs.accept[row]);
        match self.update {
            PointerUpdate::OnAccept => self.ptrs.slip(iter, row, col),
            PointerUpdate::Always => self.ptrs.advance_accept(row, col),
        }
        col
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcm;
    use simcore::SimRng;

    fn random_req(rng: &mut SimRng, rows: usize, cols: usize) -> RequestMatrix {
        let masks: Vec<u32> = (0..rows)
            .map(|_| rng.next_u32() & ((1u32 << cols) - 1))
            .collect();
        RequestMatrix::from_rows(masks, cols)
    }

    #[test]
    fn matchings_are_valid_and_bounded_by_mcm() {
        let mut rng = SimRng::from_seed(81);
        for iters in 1..=3 {
            let mut islip = IslipArbiter::islip(16, 7, iters);
            for _ in 0..200 {
                let req = random_req(&mut rng, 16, 7);
                let upper = mcm::maximum_matching(&req).cardinality();
                let m = islip.arbitrate(&req);
                assert!(m.is_valid_for(&req), "iSLIP{iters} invalid on {req:?}");
                assert!(m.cardinality() <= upper, "iSLIP{iters} beat MCM");
            }
        }
    }

    #[test]
    fn round_robin_matcher_is_valid() {
        let mut rng = SimRng::from_seed(82);
        let mut rr = IslipArbiter::round_robin_matcher(16, 7);
        for _ in 0..200 {
            let req = random_req(&mut rng, 16, 7);
            let m = rr.arbitrate(&req);
            assert!(m.is_valid_for(&req));
        }
    }

    #[test]
    fn deterministic_given_same_requests() {
        let mut gen = SimRng::from_seed(83);
        let reqs: Vec<RequestMatrix> = (0..50).map(|_| random_req(&mut gen, 16, 7)).collect();
        let run = |mut a: IslipArbiter| -> Vec<usize> {
            reqs.iter().map(|r| a.arbitrate(r).cardinality()).collect()
        };
        assert_eq!(
            run(IslipArbiter::islip(16, 7, 2)),
            run(IslipArbiter::islip(16, 7, 2))
        );
    }

    #[test]
    fn more_iterations_never_hurt_on_average() {
        let mut gen = SimRng::from_seed(84);
        let mut i1 = IslipArbiter::islip(16, 7, 1);
        let mut i3 = IslipArbiter::islip(16, 7, 3);
        let (mut s1, mut s3) = (0usize, 0usize);
        for _ in 0..300 {
            let req = random_req(&mut gen, 16, 7);
            s1 += i1.arbitrate(&req).cardinality();
            s3 += i3.arbitrate(&req).cardinality();
        }
        assert!(s3 > s1, "iSLIP3 ({s3}) should out-match iSLIP1 ({s1})");
    }

    #[test]
    fn desynchronization_reaches_full_throughput() {
        // The defining iSLIP property: under persistent all-ones requests
        // on an N×N switch, the grant pointers desynchronize within N
        // slots and every later slot yields a full N-matching.
        let req = RequestMatrix::from_rows(vec![0b1111; 4], 4);
        let mut islip = IslipArbiter::islip(4, 4, 1);
        let warmup: Vec<usize> = (0..4)
            .map(|_| islip.arbitrate(&req).cardinality())
            .collect();
        assert_eq!(warmup, vec![1, 2, 3, 4], "one new output desyncs per slot");
        for slot in 0..32 {
            assert_eq!(
                islip.arbitrate(&req).cardinality(),
                4,
                "slot {slot} lost the full matching"
            );
        }
    }

    #[test]
    fn plain_round_robin_synchronizes_under_saturation() {
        // The baseline's pathology: pointers advance in lock-step, so the
        // same saturating workload never matches more than one pair.
        let req = RequestMatrix::from_rows(vec![0b1111; 4], 4);
        let mut rr = IslipArbiter::round_robin_matcher(4, 4);
        for slot in 0..16 {
            assert_eq!(
                rr.arbitrate(&req).cardinality(),
                1,
                "slot {slot}: RR pointers must stay synchronized"
            );
        }
    }

    #[test]
    fn pointer_holds_on_refused_grant() {
        // One row requesting both columns: row 0 accepts column 0, so
        // column 1's grant is refused and (OnAccept) its pointer must not
        // move — the refused output wins the same row on the next pass.
        let both = RequestMatrix::from_rows(vec![0b11], 2);
        let mut islip = IslipArbiter::islip(1, 2, 1);
        let m = islip.arbitrate(&both);
        assert_eq!(m.output_of(0), Some(0), "accept pointer starts at col 0");
        // Column 1's grant was refused, so its pointer still targets row 0
        // and a column-1-only request matches immediately.
        let only1 = RequestMatrix::from_rows(vec![0b10], 2);
        let m = islip.arbitrate(&only1);
        assert_eq!(m.output_of(0), Some(1));
    }

    #[test]
    fn single_iteration_can_be_non_maximal_but_converged_is_close() {
        // iSLIP1 leaves grant collisions unresolved within the pass;
        // three iterations recover nearly all of them.
        let mut gen = SimRng::from_seed(85);
        let mut i3 = IslipArbiter::islip(16, 7, 3);
        let trials = 200;
        let mut maximal = 0;
        for _ in 0..trials {
            let req = random_req(&mut gen, 16, 7);
            let m = i3.arbitrate(&req);
            if m.is_maximal_for(&req) {
                maximal += 1;
            }
        }
        assert!(maximal > trials * 9 / 10, "only {maximal}/{trials} maximal");
    }

    #[test]
    fn empty_requests_empty_matching() {
        let req = RequestMatrix::new(4, 4);
        let mut islip = IslipArbiter::islip(4, 4, 2);
        assert_eq!(islip.arbitrate(&req).cardinality(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = IslipArbiter::islip(4, 4, 0);
    }

    #[test]
    #[should_panic(expected = "request rows mismatch")]
    fn shape_mismatch_rejected() {
        let req = RequestMatrix::new(3, 4);
        let _ = IslipArbiter::islip(4, 4, 1).arbitrate(&req);
    }
}
