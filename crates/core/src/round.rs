//! The request–grant–accept round every iterative matcher here runs.
//!
//! PIM, iSLIP, the plain round-robin matcher, iLQF and iOCF are one
//! algorithm over one request matrix:
//!
//! 1. **Request.** Every unmatched input requests every unmatched output
//!    it has a packet for.
//! 2. **Grant.** Each unmatched output that received requests grants one
//!    requesting input.
//! 3. **Accept.** Each input that received grants accepts one of them.
//!
//! They differ only in how a grant and an accept are *picked* — a random
//! draw ([`crate::pim`]), a rotating pointer ([`crate::islip`]), the
//! heaviest cell with a rotating-pointer tie-break ([`crate::lqf`]) — so
//! the round lives here once, in `grant_accept_rounds`, and each family
//! is a `PickPolicy`.

use crate::matching::Matching;
use crate::matrix::{RequestMatrix, MAX_DIM};

/// How one family of matchers picks in the two phases of a round.
///
/// Within a round [`grant_accept_rounds`] makes every grant pick by
/// ascending column, then every accept pick by ascending row, so a policy
/// that draws random numbers or moves pointers sees a fixed call order.
pub(crate) trait PickPolicy {
    /// Output `col` grants one row of the non-empty mask `requesters`.
    fn grant(&mut self, col: usize, requesters: u32) -> usize;

    /// Input `row` accepts one column of the non-empty mask `grants`, in
    /// iteration `iter` (0-based) of this arbitration.
    fn accept(&mut self, iter: usize, row: usize, grants: u32) -> usize;
}

/// Validates the iteration count of a grant/accept matcher.
///
/// # Panics
///
/// Panics if `iterations == 0`.
pub(crate) fn at_least_one(iterations: usize) -> usize {
    assert!(
        iterations > 0,
        "a grant/accept matcher needs at least one iteration"
    );
    iterations
}

/// Runs up to `iterations` grant/accept rounds over `req`.
///
/// A match is never revoked, so a round whose grant phase is empty is
/// terminal and the remaining rounds are skipped. The pass is
/// allocation-free: the grant table lives on the stack and the column
/// masks are materialized once per call.
pub(crate) fn grant_accept_rounds<P: PickPolicy>(
    req: &RequestMatrix,
    iterations: usize,
    policy: &mut P,
) -> Matching {
    let rows = req.rows();
    let cols = req.cols();
    let mut m = Matching::empty(rows, cols);
    // The transpose is invariant across iterations; only the matched
    // sets change.
    let col_masks = req.col_masks();
    for iter in 0..iterations {
        let matched_rows = m.matched_rows();
        let matched_cols = m.matched_cols();

        // grants[r] = mask of columns that granted row r.
        let mut grants = [0u32; MAX_DIM];
        let mut any_grant = false;
        for (c, &col_mask) in col_masks.iter().enumerate().take(cols) {
            if matched_cols & (1 << c) != 0 {
                continue;
            }
            let requesters = col_mask & !matched_rows;
            if requesters != 0 {
                grants[policy.grant(c, requesters)] |= 1 << c;
                any_grant = true;
            }
        }
        if !any_grant {
            break;
        }

        for (r, &g) in grants.iter().enumerate().take(rows) {
            if g != 0 {
                m.grant(r, policy.accept(iter, r, g));
            }
        }
    }
    m
}

/// The rotating grant/accept pointers of a fixed-shape matcher — the
/// state iSLIP and the weighted kernel share.
#[derive(Clone, Debug)]
pub(crate) struct Pointers {
    rows: usize,
    cols: usize,
    /// Per output column: the input row with current grant priority.
    pub(crate) grant: Vec<u32>,
    /// Per input row: the output column with current accept priority.
    pub(crate) accept: Vec<u32>,
}

impl Pointers {
    /// All pointers at zero over a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or exceeds [`MAX_DIM`].
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && rows <= MAX_DIM, "rows out of range: {rows}");
        assert!(cols > 0 && cols <= MAX_DIM, "cols out of range: {cols}");
        Pointers {
            rows,
            cols,
            grant: vec![0; cols],
            accept: vec![0; rows],
        }
    }

    /// # Panics
    ///
    /// Panics if the request matrix shape differs from the pointers'.
    pub(crate) fn check_shape(&self, req: &RequestMatrix) {
        assert_eq!(req.rows(), self.rows, "request rows mismatch");
        assert_eq!(req.cols(), self.cols, "request cols mismatch");
    }

    /// Moves column `col`'s grant pointer one past `row`.
    pub(crate) fn advance_grant(&mut self, col: usize, row: usize) {
        self.grant[col] = ((row + 1) % self.rows) as u32;
    }

    /// Moves row `row`'s accept pointer one past `col`.
    pub(crate) fn advance_accept(&mut self, row: usize, col: usize) {
        self.accept[row] = ((col + 1) % self.cols) as u32;
    }

    /// The slip: pointers advance only past a grant accepted in the first
    /// iteration, so a refused output keeps pointing at the same input
    /// and wins it in a later arbitration — the rule that desynchronizes
    /// the grant pointers under sustained load.
    pub(crate) fn slip(&mut self, iter: usize, row: usize, col: usize) {
        if iter == 0 {
            self.advance_grant(col, row);
            self.advance_accept(row, col);
        }
    }
}
