//! Matchings — the result of one arbitration pass — and their invariants.
//!
//! Whatever the algorithm, an arbitration result is a *matching* in the
//! bipartite graph of input arbiters and output ports: at most one grant
//! per row (an input arbiter dispatches one packet), at most one grant per
//! column (§1: "by definition only one packet can be delivered through an
//! output port"), and grants only where requests exist. [`Matching`]
//! enforces the row/column discipline structurally; validity against a
//! request set and *maximality* (no augmenting pair left) are checked by
//! predicates used heavily in tests.

use crate::matrix::{RequestMatrix, MAX_DIM};

/// Sentinel for "unmatched" in the inline assignment arrays.
const UNMATCHED: u8 = u8::MAX;

/// A partial assignment of input-arbiter rows to output columns.
///
/// The storage is inline, sized by the `MAX_DIM` bound the `u32` masks
/// impose anyway: kernels build one matching per window on the saturated
/// hot path and must not touch the allocator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    rows: u8,
    cols: u8,
    input_to_output: [u8; MAX_DIM],
    output_to_input: [u8; MAX_DIM],
}

impl Matching {
    /// An empty matching over a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if a dimension exceeds [`MAX_DIM`] or is zero.
    pub(crate) fn empty(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && rows <= MAX_DIM && cols > 0 && cols <= MAX_DIM);
        Matching {
            rows: rows as u8,
            cols: cols as u8,
            input_to_output: [UNMATCHED; MAX_DIM],
            output_to_input: [UNMATCHED; MAX_DIM],
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols as usize
    }

    /// Records a grant of `col` to `row`.
    ///
    /// # Panics
    ///
    /// Panics if either side is already matched (that would violate the
    /// one-packet-per-port invariant) or out of range.
    pub(crate) fn grant(&mut self, row: usize, col: usize) {
        assert!(row < self.rows(), "row {row} out of range");
        assert!(col < self.cols(), "col {col} out of range");
        assert!(
            self.input_to_output[row] == UNMATCHED,
            "row {row} already matched"
        );
        assert!(
            self.output_to_input[col] == UNMATCHED,
            "col {col} already matched"
        );
        self.input_to_output[row] = col as u8;
        self.output_to_input[col] = row as u8;
    }

    /// The output granted to `row`, if any.
    #[inline]
    pub fn output_of(&self, row: usize) -> Option<usize> {
        let c = self.input_to_output[row];
        (c != UNMATCHED).then_some(c as usize)
    }

    /// The row granted `col`, if any (the unit tests' "who won this
    /// output" probe; nothing outside them asks).
    #[cfg(test)]
    pub(crate) fn input_of(&self, col: usize) -> Option<usize> {
        let r = self.output_to_input[col];
        (r != UNMATCHED).then_some(r as usize)
    }

    /// Number of matched pairs.
    pub fn cardinality(&self) -> usize {
        self.input_to_output[..self.rows()]
            .iter()
            .filter(|&&c| c != UNMATCHED)
            .count()
    }

    /// Iterates over `(row, col)` grants in row order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.input_to_output[..self.rows()]
            .iter()
            .enumerate()
            .filter_map(|(r, &c)| (c != UNMATCHED).then_some((r, c as usize)))
    }

    /// Mask of matched rows.
    pub(crate) fn matched_rows(&self) -> u32 {
        let mut m = 0;
        for (r, c) in self.pairs() {
            debug_assert!(c < 32);
            m |= 1u32 << r;
        }
        m
    }

    /// Mask of matched columns.
    pub(crate) fn matched_cols(&self) -> u32 {
        let mut m = 0;
        for (_, c) in self.pairs() {
            m |= 1u32 << c;
        }
        m
    }

    /// True when every grant corresponds to a request in `req`.
    ///
    /// Structural row/column uniqueness is already guaranteed by
    /// construction, so this is the full matching-validity check.
    pub fn is_valid_for(&self, req: &RequestMatrix) -> bool {
        self.rows() == req.rows()
            && self.cols() == req.cols()
            && self.pairs().all(|(r, c)| req.requested(r, c))
    }

    /// True when no unmatched row still requests an unmatched column — the
    /// defining property of a *maximal* matching. MCM and WFA always
    /// produce maximal matchings; SPAA and PIM1 may not (arbitration
    /// collisions, §3.3).
    pub fn is_maximal_for(&self, req: &RequestMatrix) -> bool {
        let rows = self.matched_rows();
        let cols = self.matched_cols();
        for r in 0..req.rows() {
            if rows & (1 << r) != 0 {
                continue;
            }
            if req.row_mask(r) & !cols != 0 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_3x3() -> RequestMatrix {
        // 0 -> {0,1}, 1 -> {0}, 2 -> {2}
        RequestMatrix::from_rows(vec![0b011, 0b001, 0b100], 3)
    }

    #[test]
    fn grant_bookkeeping() {
        let mut m = Matching::empty(3, 3);
        m.grant(0, 1);
        m.grant(2, 2);
        assert_eq!(m.cardinality(), 2);
        assert_eq!(m.output_of(0), Some(1));
        assert_eq!(m.output_of(1), None);
        assert_eq!(m.input_of(2), Some(2));
        assert_eq!(m.matched_rows(), 0b101);
        assert_eq!(m.matched_cols(), 0b110);
        assert_eq!(m.pairs().collect::<Vec<_>>(), vec![(0, 1), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "row 0 already matched")]
    fn double_row_grant_panics() {
        let mut m = Matching::empty(2, 2);
        m.grant(0, 0);
        m.grant(0, 1);
    }

    #[test]
    #[should_panic(expected = "col 1 already matched")]
    fn double_col_grant_panics() {
        let mut m = Matching::empty(2, 2);
        m.grant(0, 1);
        m.grant(1, 1);
    }

    #[test]
    fn validity() {
        let req = req_3x3();
        let mut m = Matching::empty(3, 3);
        m.grant(0, 1);
        m.grant(1, 0);
        assert!(m.is_valid_for(&req));
        let mut bad = Matching::empty(3, 3);
        bad.grant(1, 2); // row 1 never requested col 2
        assert!(!bad.is_valid_for(&req));
    }

    #[test]
    fn maximality() {
        let req = req_3x3();
        // {0->1, 1->0, 2->2} is maximum (3) hence maximal.
        let mut max = Matching::empty(3, 3);
        max.grant(0, 1);
        max.grant(1, 0);
        max.grant(2, 2);
        assert!(max.is_maximal_for(&req));

        // {0->0} leaves 2->2 available: not maximal.
        let mut small = Matching::empty(3, 3);
        small.grant(0, 0);
        assert!(!small.is_maximal_for(&req));

        // {0->0, 2->2} is maximal even though not maximum-cardinality in
        // some other graph; here row 1 only wants col 0 which is taken.
        let mut m = Matching::empty(3, 3);
        m.grant(0, 0);
        m.grant(2, 2);
        assert!(m.is_maximal_for(&req));
    }

    #[test]
    fn empty_matching_maximal_only_without_requests() {
        let none = RequestMatrix::new(2, 2);
        let m = Matching::empty(2, 2);
        assert!(m.is_maximal_for(&none));
        let some = RequestMatrix::from_rows(vec![0b01, 0b00], 2);
        assert!(!m.is_maximal_for(&some));
    }

    #[test]
    fn dimension_mismatch_invalidates() {
        let req = RequestMatrix::new(2, 2);
        let m = Matching::empty(3, 2);
        assert!(!m.is_valid_for(&req));
    }
}
