//! The unified one-shot arbitration interface used by the standalone model.
//!
//! The §5.1 standalone experiments compare MCM, PIM, PIM1, WFA and SPAA
//! under identical conditions ("all arbitration algorithms take one cycle
//! to execute"). The algorithms consume different *views* of a router's
//! arbitration state:
//!
//! * multi-nomination algorithms (MCM, PIM, WFA) see the full request
//!   matrix — per input arbiter, every output it could serve;
//! * single-nomination algorithms (SPAA, OPF) see one chosen nomination
//!   per input arbiter, because their input stage commits to one packet
//!   and one direction before the output stage runs.
//!
//! [`ArbitrationInput`] carries both views so one driver loop can evaluate
//! every algorithm on identical router states, which is exactly how
//! Figures 8 and 9 are produced.

use crate::islip::IslipArbiter;
use crate::lqf::WeightedArbiter;
use crate::matching::Matching;
use crate::matrix::{RequestMatrix, WeightMatrix};
use crate::mcm;
use crate::opf::OpfArbiter;
use crate::pim::PimArbiter;
use crate::spaa::SpaaArbiter;
use crate::wfa::WfaArbiter;
use simcore::SimRng;
use std::borrow::Cow;

/// Both views of one arbitration cycle's eligible traffic, optionally
/// annotated with per-cell weights.
///
/// Invariant (checked by [`ArbitrationInput::validate`]): every single
/// nomination is also present in the request matrix — the nomination is a
/// *choice among* the requests, never something new.
#[derive(Clone, Debug)]
pub struct ArbitrationInput {
    /// Full request sets, already filtered to free outputs and legal
    /// connections.
    pub requests: RequestMatrix,
    /// One committed nomination per input arbiter (SPAA/OPF view).
    pub nominations: Vec<Option<u8>>,
    /// Optional per-(row, column) weights for the weighted algorithms
    /// (iLQF, iOCF, the MWM oracle). `None` — the default every existing
    /// call site produces — means "unweighted": the cardinality
    /// algorithms never look here, and a weighted arbiter handed `None`
    /// degenerates to unit weights (pure round-robin tie-breaks).
    pub weights: Option<WeightMatrix>,
}

impl ArbitrationInput {
    /// Bundles the two views.
    ///
    /// # Panics
    ///
    /// Panics if the nomination vector width differs from the request
    /// matrix's row count.
    pub fn new(requests: RequestMatrix, nominations: Vec<Option<u8>>) -> Self {
        assert_eq!(
            nominations.len(),
            requests.rows(),
            "nomination width must match request rows"
        );
        ArbitrationInput {
            requests,
            nominations,
            weights: None,
        }
    }

    /// The same input annotated with a weight plane.
    ///
    /// # Panics
    ///
    /// Panics if the weight plane's shape differs from the request
    /// matrix's.
    pub fn with_weights(mut self, weights: WeightMatrix) -> Self {
        assert_eq!(weights.rows(), self.requests.rows(), "weight rows mismatch");
        assert_eq!(weights.cols(), self.requests.cols(), "weight cols mismatch");
        self.weights = Some(weights);
        self
    }

    /// The weight plane, or unit weights when the input carries none:
    /// every cell ties, so a weighted arbiter reduces to its tie-break
    /// and the MWM oracle to a maximum-cardinality matching. The unit
    /// path only runs in generic test drivers, so the allocation is fine.
    pub(crate) fn weights_or_unit(&self) -> Cow<'_, WeightMatrix> {
        match &self.weights {
            Some(w) => Cow::Borrowed(w),
            None => Cow::Owned(WeightMatrix::unit(
                self.requests.rows(),
                self.requests.cols(),
            )),
        }
    }

    /// Checks the nomination-subset-of-requests invariant.
    pub fn validate(&self) -> bool {
        self.nominations
            .iter()
            .enumerate()
            .all(|(r, nom)| match nom {
                Some(c) => self.requests.requested(r, *c as usize),
                None => true,
            })
    }
}

/// A one-shot arbitration algorithm, as modelled by the standalone
/// experiments and run once per window by the router's matrix driver.
/// [`crate::catalogue::AlgoKind`] names and builds every implementation.
pub trait Arbiter: std::fmt::Debug + Send {
    /// Produces a matching for one arbitration cycle.
    fn arbitrate(&mut self, input: &ArbitrationInput, rng: &mut SimRng) -> Matching;
}

/// MCM as an [`Arbiter`] (the exhaustive upper bound).
///
/// The matching it returns is always maximum-cardinality; the *choice
/// among equal-cardinality matchings* is randomized by permuting rows
/// and columns before running Hopcroft–Karp
/// ([`mcm::maximum_matching`] is the deterministic solver). Without
/// that, the low-index-first tie-breaking systematically favours
/// low-index ports and starves the rest — and in a closed-loop queue
/// model sustained starvation translates into drops and a throughput
/// *below* algorithms with rotating priorities, which would misrepresent
/// MCM's role as the §5.1 upper bound.
#[derive(Clone, Copy, Debug)]
pub(crate) struct McmArbiter;

impl Arbiter for McmArbiter {
    fn arbitrate(&mut self, input: &ArbitrationInput, rng: &mut SimRng) -> Matching {
        let req = &input.requests;
        let rows = req.rows();
        let cols = req.cols();
        // Random row/column relabelling: cardinality is invariant, the
        // tie-breaking becomes fair.
        let row_perm = permutation(rows, rng);
        let col_perm = permutation(cols, rng);
        let mut shuffled = RequestMatrix::new(rows, cols);
        for (r, &pr) in row_perm.iter().enumerate() {
            let mut mask = 0u32;
            let orig = req.row_mask(pr);
            for (c, &pc) in col_perm.iter().enumerate() {
                if orig & (1 << pc) != 0 {
                    mask |= 1 << c;
                }
            }
            shuffled.set_row_mask(r, mask);
        }
        let m = mcm::maximum_matching(&shuffled);
        let mut out = Matching::empty(rows, cols);
        for (r, c) in m.pairs() {
            out.grant(row_perm[r], col_perm[c]);
        }
        out
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i + 1);
        p.swap(i, j);
    }
    p
}

impl Arbiter for PimArbiter {
    fn arbitrate(&mut self, input: &ArbitrationInput, rng: &mut SimRng) -> Matching {
        PimArbiter::arbitrate(self, &input.requests, rng)
    }
}

impl Arbiter for WfaArbiter {
    fn arbitrate(&mut self, input: &ArbitrationInput, _rng: &mut SimRng) -> Matching {
        WfaArbiter::arbitrate(self, &input.requests)
    }
}

impl Arbiter for SpaaArbiter {
    fn arbitrate(&mut self, input: &ArbitrationInput, _rng: &mut SimRng) -> Matching {
        self.grant(&input.nominations)
    }
}

impl Arbiter for OpfArbiter {
    fn arbitrate(&mut self, input: &ArbitrationInput, rng: &mut SimRng) -> Matching {
        OpfArbiter::arbitrate(self, &input.nominations, rng)
    }
}

impl Arbiter for IslipArbiter {
    fn arbitrate(&mut self, input: &ArbitrationInput, _rng: &mut SimRng) -> Matching {
        IslipArbiter::arbitrate(self, &input.requests)
    }
}

impl Arbiter for WeightedArbiter {
    fn arbitrate(&mut self, input: &ArbitrationInput, _rng: &mut SimRng) -> Matching {
        WeightedArbiter::arbitrate(self, &input.requests, &input.weights_or_unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::AlgoKind;

    /// Builds a consistent input: random requests, nominations chosen as
    /// the lowest requested output per row.
    fn random_input(rng: &mut SimRng, rows: usize, cols: usize) -> ArbitrationInput {
        let masks: Vec<u32> = (0..rows)
            .map(|_| rng.next_u32() & ((1u32 << cols) - 1))
            .collect();
        let noms = masks
            .iter()
            .map(|&m| (m != 0).then(|| m.trailing_zeros() as u8))
            .collect();
        ArbitrationInput::new(RequestMatrix::from_rows(masks, cols), noms)
    }

    #[test]
    fn every_algorithm_yields_valid_matchings_bounded_by_mcm() {
        let mut gen = SimRng::from_seed(50);
        let mut rng = SimRng::from_seed(51);
        let mut arbiters = AlgoKind::ALL.map(|kind| (kind.label(), kind.build(16, 7)));
        for _ in 0..100 {
            let input = random_input(&mut gen, 16, 7);
            assert!(input.validate());
            let upper = mcm::maximum_matching(&input.requests).cardinality();
            for (label, arb) in arbiters.iter_mut() {
                let m = arb.arbitrate(&input, &mut rng);
                assert!(
                    m.is_valid_for(&input.requests),
                    "{label} produced an invalid matching"
                );
                assert!(
                    m.cardinality() <= upper,
                    "{label} beat MCM: {} > {upper}",
                    m.cardinality()
                );
            }
        }
    }

    #[test]
    fn matching_quality_ordering_holds_in_aggregate() {
        // Reproduces the §5.1 qualitative ordering on random states:
        // MCM >= WFA ~ PIM >= PIM1 >= SPAA.
        let mut gen = SimRng::from_seed(60);
        let mut rng = SimRng::from_seed(61);
        let mut arbiters = AlgoKind::FIGURE8.map(|kind| kind.build(16, 7));
        let mut totals = [0usize; 5];
        for _ in 0..400 {
            let input = random_input(&mut gen, 16, 7);
            for (total, arb) in totals.iter_mut().zip(arbiters.iter_mut()) {
                *total += arb.arbitrate(&input, &mut rng).cardinality();
            }
        }
        let [mcm_t, wfa_t, pim_t, pim1_t, spaa_t] = totals;
        assert!(mcm_t >= wfa_t, "MCM {mcm_t} < WFA {wfa_t}");
        assert!(mcm_t >= pim_t, "MCM {mcm_t} < PIM {pim_t}");
        assert!(pim_t >= pim1_t, "PIM {pim_t} < PIM1 {pim1_t}");
        assert!(pim1_t >= spaa_t, "PIM1 {pim1_t} < SPAA {spaa_t}");
        assert!(wfa_t >= pim1_t, "WFA {wfa_t} < PIM1 {pim1_t}");
    }

    #[test]
    fn validate_catches_rogue_nomination() {
        let req = RequestMatrix::from_rows(vec![0b01, 0b00], 2);
        let bad = ArbitrationInput::new(req, vec![Some(1), None]);
        assert!(!bad.validate());
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn width_mismatch_rejected() {
        let req = RequestMatrix::new(4, 4);
        let _ = ArbitrationInput::new(req, vec![None; 2]);
    }
}
