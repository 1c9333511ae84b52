//! iLQF and iOCF — the weighted iterative matchers (McKeown's weighted
//! siblings of iSLIP).
//!
//! Where iSLIP's grant and accept steps consult only rotating pointers,
//! the weighted matchers consult a [`WeightMatrix`] carried alongside the
//! request bitmasks: each unmatched output grants the *heaviest*
//! requesting input and each granted input accepts its *heaviest* grant.
//! What "heavy" means is the caller's choice of weight plane, not the
//! kernel's:
//!
//! * **iLQF** (longest queue first) schedules on queue **depth**, so long
//!   queues drain first;
//! * **iOCF** (oldest cell first) schedules on head-of-line **age** — a
//!   cell's weight grows with every cycle it loses, so persistent losers
//!   eventually outweigh any queue (the starvation-resistant member).
//!
//! Ties — ubiquitous at low load, where most weights are 1 — fall back to
//! the same `round_robin_first` pointer discipline iSLIP uses, with the
//! slip rule intact, so equal-weight contention desynchronizes exactly
//! like iSLIP instead of re-fighting the same cell every cycle.
//!
//! The kernel is deterministic (no RNG draws) and allocation-free per
//! pass.

use crate::matching::Matching;
use crate::matrix::{RequestMatrix, WeightMatrix};
use crate::policy::round_robin_first;
use crate::round::{at_least_one, grant_accept_rounds, PickPolicy, Pointers};

/// The heaviest member of `pool` by `weight_of`, ties broken round-robin
/// at or after `ptr` — the pick primitive both weighted phases share.
///
/// # Panics
///
/// Panics (in debug builds) if `pool == 0`.
#[inline]
fn heaviest(pool: u32, ptr: u32, weight_of: impl Fn(usize) -> u32) -> usize {
    debug_assert!(pool != 0, "weighted pick from an empty pool");
    let mut best = 0u32;
    let mut ties = 0u32;
    let mut m = pool;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        m &= m - 1;
        let w = weight_of(i);
        if w > best {
            best = w;
            ties = 1 << i;
        } else if w == best {
            ties |= 1 << i;
        }
    }
    round_robin_first(ties, ptr)
}

/// The weighted iterative matcher: iLQF on a depth plane, iOCF on an age
/// plane. The arbiter itself is agnostic to what the weights mean.
#[derive(Clone, Debug)]
pub struct WeightedArbiter {
    ptrs: Pointers,
    iterations: usize,
}

/// iLQF is [`WeightedArbiter`] fed queue depths.
pub type LqfArbiter = WeightedArbiter;

/// The weighted pick policy over one arbitration's weight plane: heaviest
/// contender, pointer tie-break, pointers slipping as in iSLIP.
struct HeaviestPick<'a> {
    ptrs: &'a mut Pointers,
    w: &'a WeightMatrix,
}

impl PickPolicy for HeaviestPick<'_> {
    #[inline]
    fn grant(&mut self, col: usize, requesters: u32) -> usize {
        heaviest(requesters, self.ptrs.grant[col], |r| self.w.weight(r, col))
    }

    #[inline]
    fn accept(&mut self, iter: usize, row: usize, grants: u32) -> usize {
        let col = heaviest(grants, self.ptrs.accept[row], |c| self.w.weight(row, c));
        self.ptrs.slip(iter, row, col);
        col
    }
}

impl WeightedArbiter {
    /// A weighted matcher over a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or exceeds 32, or `iterations == 0`.
    pub fn new(rows: usize, cols: usize, iterations: usize) -> Self {
        WeightedArbiter {
            ptrs: Pointers::new(rows, cols),
            iterations: at_least_one(iterations),
        }
    }

    /// Runs one arbitration pass (see [`grant_accept_rounds`]) over `req`
    /// with weights `w`, updating the tie-break pointers.
    ///
    /// # Panics
    ///
    /// Panics if the request or weight matrix shape differs from the
    /// arbiter's.
    pub(crate) fn arbitrate(&mut self, req: &RequestMatrix, w: &WeightMatrix) -> Matching {
        self.ptrs.check_shape(req);
        assert_eq!(w.rows(), req.rows(), "weight rows mismatch");
        assert_eq!(w.cols(), req.cols(), "weight cols mismatch");
        let mut policy = HeaviestPick {
            ptrs: &mut self.ptrs,
            w,
        };
        grant_accept_rounds(req, self.iterations, &mut policy)
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

    fn random_weights(rng: &mut SimRng, rows: usize, cols: usize) -> WeightMatrix {
        let mut w = WeightMatrix::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                w.set(r, c, 1 + rng.below(16) as u32);
            }
        }
        w
    }

    #[test]
    fn matchings_are_valid_and_bounded_by_mcm() {
        let mut rng = SimRng::from_seed(91);
        for iters in 1..=3 {
            let mut lqf = LqfArbiter::new(16, 7, iters);
            for _ in 0..200 {
                let req = random_req(&mut rng, 16, 7);
                let w = random_weights(&mut rng, 16, 7);
                let upper = mcm::maximum_matching(&req).cardinality();
                let m = lqf.arbitrate(&req, &w);
                assert!(m.is_valid_for(&req), "iLQF{iters} invalid on {req:?}");
                assert!(m.cardinality() <= upper, "iLQF{iters} beat MCM");
            }
        }
    }

    #[test]
    fn deterministic_given_same_requests_and_weights() {
        let mut gen = SimRng::from_seed(92);
        let cases: Vec<(RequestMatrix, WeightMatrix)> = (0..50)
            .map(|_| (random_req(&mut gen, 16, 7), random_weights(&mut gen, 16, 7)))
            .collect();
        let run = |mut a: LqfArbiter| -> Vec<usize> {
            cases
                .iter()
                .map(|(r, w)| a.arbitrate(r, w).cardinality())
                .collect()
        };
        assert_eq!(
            run(LqfArbiter::new(16, 7, 2)),
            run(LqfArbiter::new(16, 7, 2))
        );
    }

    #[test]
    fn heaviest_requester_wins_the_grant() {
        // Two rows request the only column; row 1 carries more weight.
        let req = RequestMatrix::from_rows(vec![0b1, 0b1], 1);
        let mut w = WeightMatrix::new(2, 1);
        w.set(0, 0, 3);
        w.set(1, 0, 9);
        let mut lqf = LqfArbiter::new(2, 1, 1);
        let m = lqf.arbitrate(&req, &w);
        assert_eq!(m.input_of(0), Some(1), "depth 9 beats depth 3");
    }

    #[test]
    fn heaviest_grant_wins_the_accept() {
        // One row granted by both columns; column 1 is heavier.
        let req = RequestMatrix::from_rows(vec![0b11], 2);
        let mut w = WeightMatrix::new(1, 2);
        w.set(0, 0, 2);
        w.set(0, 1, 8);
        let mut lqf = LqfArbiter::new(1, 2, 1);
        let m = lqf.arbitrate(&req, &w);
        assert_eq!(m.output_of(0), Some(1), "heavier column accepted");
    }

    #[test]
    fn oldest_cell_wins_both_phases() {
        // Age weights (iOCF): rows 0 and 1 both request column 0; row 1's
        // head packet is older. Row 1 also has a younger option at column
        // 1: age steers its accept back to column 0.
        let req = RequestMatrix::from_rows(vec![0b01, 0b11], 2);
        let mut w = WeightMatrix::new(2, 2);
        w.set(0, 0, 4);
        w.set(1, 0, 20);
        w.set(1, 1, 3);
        let mut ocf = WeightedArbiter::new(2, 2, 2);
        let m = ocf.arbitrate(&req, &w);
        assert_eq!(m.output_of(1), Some(0), "oldest cell granted and accepted");
        assert_eq!(m.output_of(0), None, "younger contender loses round one");
    }

    #[test]
    fn second_iteration_recovers_the_loser() {
        // Same setup, but row 0 — whose first choice went to row 1 — has
        // a second column, which iteration 2 picks up.
        let req = RequestMatrix::from_rows(vec![0b11, 0b01], 2);
        let mut w = WeightMatrix::new(2, 2);
        w.set(0, 0, 4);
        w.set(0, 1, 1);
        w.set(1, 0, 20);
        let mut ocf = WeightedArbiter::new(2, 2, 2);
        let m = ocf.arbitrate(&req, &w);
        assert_eq!(m.output_of(1), Some(0));
        assert_eq!(m.output_of(0), Some(1), "iteration 2 matches the loser");
    }

    #[test]
    fn unit_weights_degenerate_to_round_robin_tie_break() {
        // With every weight equal, the kernel desynchronizes exactly like
        // iSLIP: persistent all-ones requests reach a full matching.
        let req = RequestMatrix::from_rows(vec![0b1111; 4], 4);
        let unit = WeightMatrix::unit(4, 4);
        let mut lqf = LqfArbiter::new(4, 4, 1);
        let warmup: Vec<usize> = (0..4)
            .map(|_| lqf.arbitrate(&req, &unit).cardinality())
            .collect();
        assert_eq!(warmup, vec![1, 2, 3, 4], "one new output desyncs per slot");
        for slot in 0..16 {
            assert_eq!(
                lqf.arbitrate(&req, &unit).cardinality(),
                4,
                "slot {slot} lost the full matching"
            );
        }
    }

    #[test]
    fn more_iterations_never_hurt_on_average() {
        let mut gen = SimRng::from_seed(93);
        let mut i1 = LqfArbiter::new(16, 7, 1);
        let mut i3 = LqfArbiter::new(16, 7, 3);
        let (mut s1, mut s3) = (0usize, 0usize);
        for _ in 0..300 {
            let req = random_req(&mut gen, 16, 7);
            let w = random_weights(&mut gen, 16, 7);
            s1 += i1.arbitrate(&req, &w).cardinality();
            s3 += i3.arbitrate(&req, &w).cardinality();
        }
        assert!(s3 > s1, "iLQF3 ({s3}) should out-match iLQF1 ({s1})");
    }

    #[test]
    fn empty_requests_empty_matching() {
        let req = RequestMatrix::new(4, 4);
        let w = WeightMatrix::unit(4, 4);
        let mut lqf = LqfArbiter::new(4, 4, 2);
        assert_eq!(lqf.arbitrate(&req, &w).cardinality(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = LqfArbiter::new(4, 4, 0);
    }

    #[test]
    #[should_panic(expected = "weight rows mismatch")]
    fn weight_shape_mismatch_rejected() {
        let req = RequestMatrix::new(4, 4);
        let w = WeightMatrix::unit(3, 4);
        let _ = LqfArbiter::new(4, 4, 1).arbitrate(&req, &w);
    }
}
