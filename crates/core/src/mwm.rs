//! Exact maximum-weight matching — the optimality oracle.
//!
//! [`maximum_weight_matching`] solves the assignment problem on the
//! weighted request matrix exactly, via the Hungarian algorithm in its
//! O(n³) shortest-augmenting-path form with dual potentials. At the
//! router's dimensions (≤ 32 rows, 7 outputs — padded to a 32×32 square
//! at worst) a solve is microseconds, which is fine for what it is used
//! for and nothing else: an **oracle curve**. No timed simulation path
//! ever schedules with it; fig08's matching-quality table and the
//! `fig_weighted` bench run it *beside* the hardware-feasible arbiters to
//! measure how far below the optimum they sit (algorithm weight / MWM
//! weight), exactly as [`crate::mcm`] provides the cardinality upper
//! bound.
//!
//! The rectangular request matrix is padded to a square with zero-weight
//! dummy edges; since real weights are non-negative, a maximum-weight
//! perfect matching on the padded square restricted to genuine requests
//! is a maximum-weight matching of the original bipartite graph. Padding
//! pairs and zero-weight non-requested pairs are dropped from the
//! returned [`Matching`], so grants ⊆ requests always holds.
//!
//! [`brute_force_max_weight`] enumerates every matching — exponential,
//! test-only — and anchors the Hungarian implementation exhaustively on
//! small matrices (see `tests/weighted_properties.rs`).

use crate::arbiter::Arbiter;
use crate::matching::Matching;
use crate::matrix::{RequestMatrix, WeightMatrix, MAX_DIM};

const INF: i64 = i64::MAX / 2;

/// An exact maximum-weight matching of `req` under the weight plane `w`:
/// no matching within the request bitmask has a larger total weight.
///
/// Deterministic; among equally heavy optima the tie is broken by the
/// algorithm's fixed row order (no RNG draw).
///
/// # Panics
///
/// Panics if the weight plane's shape differs from the request matrix's.
pub fn maximum_weight_matching(req: &RequestMatrix, w: &WeightMatrix) -> Matching {
    assert_eq!(req.rows(), w.rows(), "weight rows mismatch");
    assert_eq!(req.cols(), w.cols(), "weight cols mismatch");
    let rows = req.rows();
    let cols = req.cols();
    let n = rows.max(cols);

    // Minimization form: cost = -weight on requested cells, 0 on padding
    // and non-requested cells (equivalent to weight 0 there).
    let cost = |i: usize, j: usize| -> i64 {
        if i < rows && j < cols && req.requested(i, j) {
            -(w.weight(i, j) as i64)
        } else {
            0
        }
    };

    // Hungarian algorithm, shortest-augmenting-path formulation with
    // potentials (1-indexed; index 0 is the virtual source). All state on
    // the stack — MAX_DIM is 32, so n+1 ≤ 33.
    let mut u = [0i64; MAX_DIM + 1];
    let mut v = [0i64; MAX_DIM + 1];
    let mut p = [0usize; MAX_DIM + 1]; // p[j] = row matched to column j
    let mut way = [0usize; MAX_DIM + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = [INF; MAX_DIM + 1];
        let mut used = [false; MAX_DIM + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut m = Matching::empty(rows, cols);
    for (j, &i) in p.iter().enumerate().take(n + 1).skip(1) {
        if i >= 1 && i <= rows && j <= cols && req.requested(i - 1, j - 1) {
            m.grant(i - 1, j - 1);
        }
    }
    m
}

/// The brute-force maximum matching weight: enumerates every matching of
/// `req` recursively. Exponential — the exhaustive test anchor for
/// [`maximum_weight_matching`], never a simulation path.
///
/// # Panics
///
/// Panics if the weight plane's shape differs from the request matrix's.
pub fn brute_force_max_weight(req: &RequestMatrix, w: &WeightMatrix) -> u64 {
    assert_eq!(req.rows(), w.rows(), "weight rows mismatch");
    assert_eq!(req.cols(), w.cols(), "weight cols mismatch");
    fn go(req: &RequestMatrix, w: &WeightMatrix, row: usize, used_cols: u32) -> u64 {
        if row == req.rows() {
            return 0;
        }
        // Leave this row unmatched…
        let mut best = go(req, w, row + 1, used_cols);
        // …or match it to any free requested column.
        let mut mask = req.row_mask(row) & !used_cols;
        while mask != 0 {
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            best = best.max(w.weight(row, c) as u64 + go(req, w, row + 1, used_cols | (1 << c)));
        }
        best
    }
    go(req, w, 0, 0)
}

/// The MWM oracle wrapped as an [`Arbiter`] so the standalone model can
/// tabulate it beside the real algorithms. When the input carries no
/// weight plane it degenerates to unit weights, i.e. a maximum-cardinality
/// matching chosen deterministically.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MwmArbiter;

impl Arbiter for MwmArbiter {
    fn arbitrate(
        &mut self,
        input: &crate::arbiter::ArbitrationInput,
        _rng: &mut simcore::SimRng,
    ) -> Matching {
        maximum_weight_matching(&input.requests, &input.weights_or_unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcm;
    use simcore::SimRng;

    fn random_case(rng: &mut SimRng, rows: usize, cols: usize) -> (RequestMatrix, WeightMatrix) {
        let masks: Vec<u32> = (0..rows)
            .map(|_| rng.next_u32() & ((1u32 << cols) - 1))
            .collect();
        let req = RequestMatrix::from_rows(masks, cols);
        let mut w = WeightMatrix::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                w.set(r, c, 1 + rng.below(100) as u32);
            }
        }
        (req, w)
    }

    #[test]
    fn grants_stay_within_requests() {
        let mut rng = SimRng::from_seed(101);
        for _ in 0..200 {
            let (req, w) = random_case(&mut rng, 16, 7);
            let m = maximum_weight_matching(&req, &w);
            assert!(m.is_valid_for(&req));
        }
    }

    #[test]
    fn matches_brute_force_on_random_small_matrices() {
        let mut rng = SimRng::from_seed(102);
        for _ in 0..300 {
            let rows = 1 + rng.below(5);
            let cols = 1 + rng.below(5);
            let (req, w) = random_case(&mut rng, rows, cols);
            let m = maximum_weight_matching(&req, &w);
            assert_eq!(
                w.matching_weight(&m),
                brute_force_max_weight(&req, &w),
                "{rows}x{cols} {req:?}"
            );
        }
    }

    #[test]
    fn unit_weights_reach_maximum_cardinality() {
        // With all weights equal, maximum weight = maximum cardinality.
        let mut rng = SimRng::from_seed(103);
        for _ in 0..200 {
            let (req, _) = random_case(&mut rng, 16, 7);
            let unit = WeightMatrix::unit(16, 7);
            let m = maximum_weight_matching(&req, &unit);
            assert_eq!(
                m.cardinality(),
                mcm::maximum_matching(&req).cardinality(),
                "{req:?}"
            );
        }
    }

    #[test]
    fn rectangular_both_ways() {
        // Wide and tall matrices pad differently; both must stay exact.
        let mut rng = SimRng::from_seed(104);
        for (rows, cols) in [(2, 6), (6, 2), (1, 4), (4, 1)] {
            for _ in 0..100 {
                let (req, w) = random_case(&mut rng, rows, cols);
                let m = maximum_weight_matching(&req, &w);
                assert!(m.is_valid_for(&req));
                assert_eq!(w.matching_weight(&m), brute_force_max_weight(&req, &w));
            }
        }
    }

    #[test]
    fn empty_requests_empty_matching() {
        let req = RequestMatrix::new(4, 4);
        let w = WeightMatrix::unit(4, 4);
        assert_eq!(maximum_weight_matching(&req, &w).cardinality(), 0);
        assert_eq!(brute_force_max_weight(&req, &w), 0);
    }

    #[test]
    fn heavy_edge_displaces_a_blocking_light_one() {
        // Row 0's heavy option sits at col 0 — the only column row 1 can
        // use. A cardinality-maximal greedy that seats row 0 at col 0
        // first would strand weight; the optimum routes row 0 to its
        // lighter col 1 only if that pays, and here it does not:
        // 10 (row0@col0) beats 2 + 2.
        let req = RequestMatrix::from_rows(vec![0b11, 0b01], 2);
        let mut w = WeightMatrix::new(2, 2);
        w.set(0, 0, 10);
        w.set(0, 1, 2);
        w.set(1, 0, 2);
        let m = maximum_weight_matching(&req, &w);
        assert_eq!(w.matching_weight(&m), 10, "one heavy edge beats 2 + 2");
        assert_eq!(m.output_of(0), Some(0));
        // And with the heavy edge moved to col 1, both rows match.
        w.set(0, 0, 2);
        w.set(0, 1, 10);
        let m = maximum_weight_matching(&req, &w);
        assert_eq!(w.matching_weight(&m), 12, "10 + 2 beats a lone edge");
        assert_eq!(m.output_of(0), Some(1));
        assert_eq!(m.output_of(1), Some(0));
    }
}
