//! Connection, request, and weight matrices (§3, Figure 5).
//!
//! The paper models arbitration as operations over a two-dimensional
//! *connection matrix* whose rows are input-port arbiters and whose columns
//! are output ports. Three matrix types live here:
//!
//! * [`ConnectionMatrix`] — static legality: which (row, column) pairs are
//!   wired at all. Figure 5 shows that the 21364's individual buffer read
//!   ports are *not* connected to all output ports; only 54 of the 16×7
//!   cells exist.
//! * [`RequestMatrix`] — dynamic state for one arbitration: which outputs
//!   each input arbiter currently has an eligible packet for.
//! * [`WeightMatrix`] — optional per-(row, column) weights (queue depth or
//!   head-of-line age) carried *alongside* a [`RequestMatrix`]. The
//!   cardinality-only algorithms never look at it, so the unweighted path
//!   is untouched; the weighted kernels ([`crate::lqf`])
//!   and the exact MWM oracle ([`crate::mwm`]) read it for every cell the
//!   request bitmask sets.
//!
//! Connection and request columns are stored as bit masks (`u32`), which
//! keeps every algorithm in this crate branch-light; both dimensions are
//! capped at 32. Weights are a dense row-major plane over the same
//! dimensions, meaningful only where the request bitmask is set.

use crate::ports::{InputPort, OutputPort, ReadPort, NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS};

/// Maximum rows/columns supported by the mask representation.
pub(crate) const MAX_DIM: usize = 32;

/// Static crossbar legality: which input arbiters reach which outputs.
///
/// # The 21364 matrix
///
/// [`ConnectionMatrix::alpha_21364`] reconstructs Figure 5. The published
/// figure's shading is not fully recoverable from the paper text, so the
/// reconstruction is built from its documented properties (see DESIGN.md
/// §3.2): exactly **54** connected cells; no network input connects back to
/// its own direction's output (minimal routing never u-turns); each network
/// input's two read ports split its six legal outputs three/three such that
/// each read port reaches exactly one local sink; the cache input reaches
/// all seven outputs from both read ports; MC inputs reach the four network
/// ports and their own local output; the I/O input reaches everything but
/// the I/O output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnectionMatrix {
    rows: Vec<u32>,
    cols: usize,
}

impl ConnectionMatrix {
    /// A fully connected `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0 or exceeds [`MAX_DIM`].
    pub(crate) fn full(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && rows <= MAX_DIM, "rows out of range: {rows}");
        assert!(cols > 0 && cols <= MAX_DIM, "cols out of range: {cols}");
        let mask = if cols == 32 {
            u32::MAX
        } else {
            (1u32 << cols) - 1
        };
        ConnectionMatrix {
            rows: vec![mask; rows],
            cols,
        }
    }

    /// An empty `rows × cols` matrix (useful as a builder start).
    pub(crate) fn empty(rows: usize, cols: usize) -> Self {
        let mut m = ConnectionMatrix::full(rows, cols);
        for r in &mut m.rows {
            *r = 0;
        }
        m
    }

    /// The reconstructed Alpha 21364 connection matrix (16 × 7, 54 cells).
    pub fn alpha_21364() -> Self {
        use InputPort as I;
        use OutputPort as O;
        let mut m = ConnectionMatrix::empty(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
        let mut wire = |p: I, rp: u8, outs: &[O]| {
            for &o in outs {
                m.connect(ReadPort::new(p, rp).row(), o.index());
            }
        };
        // Torus inputs: six legal outputs (all but the same direction),
        // split across the two read ports so each reaches one local sink.
        wire(I::North, 0, &[O::South, O::East, O::L0]);
        wire(I::North, 1, &[O::West, O::L1, O::Io]);
        wire(I::South, 0, &[O::North, O::West, O::L1]);
        wire(I::South, 1, &[O::East, O::L0, O::Io]);
        wire(I::East, 0, &[O::North, O::West, O::L0]);
        wire(I::East, 1, &[O::South, O::L1, O::Io]);
        wire(I::West, 0, &[O::South, O::East, O::L1]);
        wire(I::West, 1, &[O::North, O::L0, O::Io]);
        // Cache: requests may target any output; both read ports fully
        // wired (the cache port carries the highest fan-out of new traffic).
        wire(I::Cache, 0, &O::ALL);
        wire(I::Cache, 1, &O::ALL);
        // Memory controllers: responses head to the network or, for local
        // misses, to their own local port (tied to the internal cache).
        wire(I::Mc0, 0, &[O::North, O::East, O::L0]);
        wire(I::Mc0, 1, &[O::South, O::West]);
        wire(I::Mc1, 0, &[O::South, O::West, O::L1]);
        wire(I::Mc1, 1, &[O::North, O::East]);
        // I/O: DMA to memory or the network; no I/O-to-I/O turnaround.
        wire(I::Io, 0, &[O::North, O::South, O::L0]);
        wire(I::Io, 1, &[O::East, O::West, O::L1]);
        debug_assert_eq!(m.connection_count(), 54);
        m
    }

    /// Number of rows (input arbiters).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (output ports).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Wires one cell.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub(crate) fn connect(&mut self, row: usize, col: usize) {
        assert!(col < self.cols, "col {col} out of range");
        self.rows[row] |= 1 << col;
    }

    /// True when `row` can reach `col`.
    #[inline]
    pub fn connected(&self, row: usize, col: usize) -> bool {
        self.rows[row] & (1 << col) != 0
    }

    /// Bit mask of outputs reachable from `row`.
    #[inline]
    pub fn row_mask(&self, row: usize) -> u32 {
        self.rows[row]
    }

    /// Total number of wired cells (54 for the 21364 matrix).
    pub(crate) fn connection_count(&self) -> usize {
        self.rows.iter().map(|r| r.count_ones() as usize).sum()
    }
}

/// Dynamic requests for one arbitration pass.
///
/// `row_mask(i)` is the set of output ports for which input arbiter `i`
/// currently has at least one eligible packet. Callers are expected to have
/// already intersected requests with the [`ConnectionMatrix`] and with the
/// set of free output ports; the algorithms treat the matrix as ground
/// truth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestMatrix {
    rows: Vec<u32>,
    cols: usize,
}

impl RequestMatrix {
    /// An empty request matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0 or exceeds 32 (`MAX_DIM`).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && rows <= MAX_DIM, "rows out of range: {rows}");
        assert!(cols > 0 && cols <= MAX_DIM, "cols out of range: {cols}");
        RequestMatrix {
            rows: vec![0; rows],
            cols,
        }
    }

    /// Builds a request matrix directly from row masks.
    ///
    /// # Panics
    ///
    /// Panics if any mask uses bits at or above `cols`, or dimensions are
    /// out of range.
    pub fn from_rows(masks: Vec<u32>, cols: usize) -> Self {
        let mut m = RequestMatrix::new(masks.len(), cols);
        for (i, mask) in masks.into_iter().enumerate() {
            assert!(
                cols == 32 || mask < (1u32 << cols),
                "row {i} mask {mask:#x} exceeds {cols} columns"
            );
            m.rows[i] = mask;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Adds a request.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn set(&mut self, row: usize, col: usize) {
        assert!(col < self.cols, "col {col} out of range");
        self.rows[row] |= 1 << col;
    }

    /// True when `row` requests `col`.
    #[inline]
    pub fn requested(&self, row: usize, col: usize) -> bool {
        self.rows[row] & (1 << col) != 0
    }

    /// The request mask of a row.
    #[inline]
    pub fn row_mask(&self, row: usize) -> u32 {
        self.rows[row]
    }

    /// Overwrites a whole row.
    pub fn set_row_mask(&mut self, row: usize, mask: u32) {
        debug_assert!(self.cols == 32 || mask < (1u32 << self.cols));
        self.rows[row] = mask;
    }

    /// Materializes every column's requester mask in one pass over the
    /// rows (the transpose the iterative matching kernels consult once
    /// per grant phase; cost proportional to the number of requests, not
    /// `rows × cols`).
    pub(crate) fn col_masks(&self) -> [u32; 32] {
        let mut cols = [0u32; 32];
        for (r, &row) in self.rows.iter().enumerate() {
            let mut mask = row;
            while mask != 0 {
                let c = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                cols[c] |= 1 << r;
            }
        }
        cols
    }

    /// Total number of set cells.
    pub fn request_count(&self) -> usize {
        self.rows.iter().map(|r| r.count_ones() as usize).sum()
    }
}

/// Per-(row, column) weights carried alongside a [`RequestMatrix`].
///
/// The weight of a cell is only meaningful where the companion request
/// bitmask is set: every reader (the weighted kernels, the MWM oracle,
/// [`WeightMatrix::matching_weight`] on a matching drawn from the requests)
/// indexes strictly under it, so a caller reusing a plane only has to
/// write the cells it requests. Two weight sources are in use:
///
/// * **queue depth** — waiting packets behind the head-of-line packet for
///   that (input, output); the iLQF objective (longest queue first);
/// * **head-of-line age** — how long the head-of-line packet has been
///   eligible; the iOCF objective (oldest cell first).
///
/// Both are encoded as plain `u32` magnitudes with "bigger wins"; a
/// requested cell should carry weight ≥ 1 so the weighted kernels never
/// confuse "requested but freshly arrived" with "not requested".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightMatrix {
    weights: Vec<u32>,
    rows: usize,
    cols: usize,
}

impl WeightMatrix {
    /// An all-zero weight plane.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is 0 or exceeds 32 (`MAX_DIM`).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && rows <= MAX_DIM, "rows out of range: {rows}");
        assert!(cols > 0 && cols <= MAX_DIM, "cols out of range: {cols}");
        WeightMatrix {
            weights: vec![0; rows * cols],
            rows,
            cols,
        }
    }

    /// An all-one weight plane: every requested cell ties, so a weighted
    /// kernel running on it degenerates to its round-robin tie-break.
    pub(crate) fn unit(rows: usize, cols: usize) -> Self {
        let mut w = WeightMatrix::new(rows, cols);
        w.weights.iter_mut().for_each(|x| *x = 1);
        w
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Sets one cell's weight.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `row` or `col` is out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, weight: u32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.weights[row * self.cols + col] = weight;
    }

    /// One cell's weight.
    #[inline]
    pub fn weight(&self, row: usize, col: usize) -> u32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.weights[row * self.cols + col]
    }

    /// Total weight of a matching under this plane.
    ///
    /// # Panics
    ///
    /// Panics if the matching's dimensions exceed this plane's.
    pub fn matching_weight(&self, m: &crate::matching::Matching) -> u64 {
        assert!(m.rows() <= self.rows && m.cols() <= self.cols);
        m.pairs().map(|(r, c)| self.weight(r, c) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::NETWORK_ROW_MASK;

    /// The two local sink columns, L0 and L1 (Figure 5).
    const LOCAL_MASK: u32 = OutputPort::L0.mask() | OutputPort::L1.mask();

    /// Mask of rows wired to `col`.
    fn col_mask(m: &ConnectionMatrix, col: usize) -> u32 {
        (0..m.rows()).fold(0, |mask, row| {
            mask | (u32::from(m.connected(row, col)) << row)
        })
    }

    #[test]
    fn alpha_matrix_has_54_connections() {
        // "the total nominations for the matrix could be up to 54
        //  (unshaded boxes in Figure 5)" — §3.1.
        let m = ConnectionMatrix::alpha_21364();
        assert_eq!(m.rows(), 16);
        assert_eq!(m.cols(), 7);
        assert_eq!(m.connection_count(), 54);
    }

    #[test]
    fn no_network_u_turns() {
        let m = ConnectionMatrix::alpha_21364();
        for dir in 0..4 {
            // Input port `dir` occupies rows 2*dir and 2*dir+1; output bit
            // `dir` must be absent from both.
            assert!(!m.connected(2 * dir, dir), "u-turn at dir {dir} rp0");
            assert!(!m.connected(2 * dir + 1, dir), "u-turn at dir {dir} rp1");
        }
    }

    #[test]
    fn every_network_input_reaches_both_local_sinks() {
        let m = ConnectionMatrix::alpha_21364();
        for port in 0..4 {
            let combined = m.row_mask(2 * port) | m.row_mask(2 * port + 1);
            assert_eq!(
                combined & LOCAL_MASK,
                LOCAL_MASK,
                "network input {port} cannot reach both local sinks"
            );
        }
    }

    #[test]
    fn network_inputs_cover_all_legal_outputs() {
        let m = ConnectionMatrix::alpha_21364();
        for dir in 0..4 {
            let combined = m.row_mask(2 * dir) | m.row_mask(2 * dir + 1);
            let legal = 0b0111_1111 & !(1 << dir);
            assert_eq!(combined, legal, "direction {dir}");
        }
    }

    #[test]
    fn cache_rows_fully_wired() {
        let m = ConnectionMatrix::alpha_21364();
        assert_eq!(m.row_mask(8), 0b0111_1111);
        assert_eq!(m.row_mask(9), 0b0111_1111);
    }

    #[test]
    fn every_output_reachable_from_network_and_local_rows() {
        // Sanity: no output column is orphaned.
        let m = ConnectionMatrix::alpha_21364();
        for col in 0..7 {
            assert!(col_mask(&m, col) != 0, "output {col} unreachable");
            // Every torus output must be reachable from some network row,
            // otherwise cross-traffic could not continue in that direction.
            if col < 4 {
                assert!(
                    col_mask(&m, col) & NETWORK_ROW_MASK != 0,
                    "torus output {col} unreachable from network rows"
                );
            }
        }
    }

    #[test]
    fn read_ports_of_a_pair_are_disjoint_except_cache() {
        let m = ConnectionMatrix::alpha_21364();
        for port in 0..8 {
            let a = m.row_mask(2 * port);
            let b = m.row_mask(2 * port + 1);
            if port == 4 {
                assert_eq!(a, b, "cache read ports are both fully wired");
            } else {
                assert_eq!(a & b, 0, "read ports of input {port} overlap");
            }
        }
    }

    #[test]
    fn request_matrix_basics() {
        let mut r = RequestMatrix::new(4, 7);
        assert_eq!(r.request_count(), 0);
        r.set(1, 3);
        r.set(1, 5);
        r.set(2, 3);
        assert!(r.requested(1, 3));
        assert_eq!(r.row_mask(1), 0b10_1000);
        assert_eq!(r.col_masks()[3], 0b0110);
        assert_eq!(r.request_count(), 3);
        assert!(!r.requested(1, 4));
    }

    #[test]
    fn from_rows_round_trip() {
        let r = RequestMatrix::from_rows(vec![0b101, 0b010], 3);
        assert!(r.requested(0, 0) && r.requested(0, 2) && r.requested(1, 1));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn from_rows_validates_width() {
        let _ = RequestMatrix::from_rows(vec![0b1000], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_dims_rejected() {
        let _ = RequestMatrix::new(33, 7);
    }

    #[test]
    fn full_and_empty_matrices() {
        let f = ConnectionMatrix::full(3, 5);
        assert_eq!(f.connection_count(), 15);
        let e = ConnectionMatrix::empty(3, 5);
        assert_eq!(e.connection_count(), 0);
    }
}
