//! WFA — the Wave-Front Arbiter (Tamir & Chi, §3.2).
//!
//! WFA evaluates the whole connection matrix as a systolic array of
//! arbitration cells. A cell grants when it holds a request and no cell
//! earlier in the wave has already claimed its row or column:
//!
//! ```text
//! Grant(i,j) = Request(i,j) AND N(i,j) AND W(i,j)
//! S(i,j) = N(i,j) AND NOT Grant(i,j)      // row token flows down the column
//! E(i,j) = W(i,j) AND NOT Grant(i,j)      // column token flows along the row
//! ```
//!
//! Because a granted cell blocks its whole row and column, and every
//! requesting cell is eventually evaluated, WFA always yields a *maximal*
//! matching — that interaction among output arbiters is "fundamental to
//! the WFA algorithm" and also why it cannot be pipelined (§3.2).
//!
//! Fairness comes from rotating where the wave starts:
//!
//! * `WfaStart::RoundRobin` — WFA-base: the start diagonal rotates over
//!   all rows every arbitration (Tamir & Chi's suggestion).
//! * `WfaStart::Rotary` — WFA-rotary (§3.4): "cells connected to the
//!   input port arbiters for the network ports get the highest priority to
//!   be the first cell from where the wavefronts start". We realize that
//!   priority exactly by running the wave over the network-input rows
//!   first (with its own rotating start) and then over the remaining rows;
//!   the concatenation is still a single maximal wave, but no local-port
//!   packet can beat a network-port packet to an output.
//!
//! The timing-model assumption in the paper is the *Wrapped* WFA, which
//! launches all diagonals in parallel and has the same matching behaviour.
//! The simulator evaluates it sparsely: only the requested cells of free
//! rows and free columns are visited, bucketed by the sweep step that
//! reaches them and taken in exactly the dense sweep's order, so a window
//! costs work in proportion to its requests rather than to the matrix.
//! `WfaVariant` keeps the dense sweep and the plain wave as test-only
//! references (`sparse_wave_matches_the_dense_sweep` pins the first).

use crate::matching::Matching;
use crate::matrix::{RequestMatrix, MAX_DIM};

/// Which cells get top priority in an arbitration pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WfaStart {
    /// Rotate the start diagonal round-robin over all rows (WFA-base).
    RoundRobin,
    /// Evaluate rows in `network_rows` before all others, each class with
    /// its own rotating start (WFA-rotary, §3.4).
    Rotary {
        /// Mask of rows fed by torus input ports.
        network_rows: u32,
    },
}

/// Evaluation styles; all implement the same priority semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub(crate) enum WfaVariant {
    /// Wrapped wave-front: wrapped diagonals, each holding at most one
    /// cell per row and per column, evaluated as units. This is the
    /// variant whose hardware timing the paper assumes, evaluated over
    /// the requested cells only.
    #[default]
    Wrapped,
    /// The same wrapped sweep testing every cell of every diagonal: the
    /// reference the sparse evaluation is pinned against.
    #[cfg(test)]
    WrappedDense,
    /// Plain wave-front from a single start cell (textbook WFA). Also
    /// maximal; the unit tests cross-validate the wrapped wave against it.
    #[cfg(test)]
    Plain,
}

/// A Wave-Front Arbiter instance with rotating priority state.
#[derive(Clone, Debug)]
pub struct WfaArbiter {
    rows: usize,
    cols: usize,
    variant: WfaVariant,
    /// Rows in wave priority order, fixed at construction: the primary
    /// class (every row for WFA-base, the network rows for WFA-rotary)
    /// first, then the local rows.
    order: [u8; MAX_DIM],
    /// Length of the primary class at the front of `order`.
    primary_len: usize,
    /// Rotating start offset for the primary (or only) row class.
    ptr_primary: usize,
    /// Rotating start offset for the local row class (rotary mode only).
    ptr_secondary: usize,
}

impl WfaArbiter {
    /// Creates a WFA over a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or exceed 32, or if a rotary start is
    /// given an empty or out-of-range `network_rows` mask.
    pub(crate) fn new(rows: usize, cols: usize, variant: WfaVariant, start: WfaStart) -> Self {
        assert!(rows > 0 && rows <= MAX_DIM && cols > 0 && cols <= MAX_DIM);
        let primary_rows = match start {
            WfaStart::RoundRobin => mask_of(rows),
            WfaStart::Rotary { network_rows } => {
                assert!(network_rows != 0, "rotary start needs network rows");
                assert!(
                    rows == 32 || network_rows < (1u32 << rows),
                    "network row mask out of range"
                );
                network_rows
            }
        };
        // A stable partition: the primary class in row order, then the rest.
        let mut order = [0u8; MAX_DIM];
        let mut n = 0;
        for primary in [true, false] {
            for r in 0..rows {
                if (primary_rows & (1 << r) != 0) == primary {
                    order[n] = r as u8;
                    n += 1;
                }
            }
        }
        WfaArbiter {
            rows,
            cols,
            variant,
            order,
            primary_len: primary_rows.count_ones() as usize,
            ptr_primary: 0,
            ptr_secondary: 0,
        }
    }

    /// WFA-base over a matrix shape.
    pub fn base(rows: usize, cols: usize) -> Self {
        WfaArbiter::new(rows, cols, WfaVariant::Wrapped, WfaStart::RoundRobin)
    }

    /// WFA-rotary over a matrix shape.
    pub fn rotary(rows: usize, cols: usize, network_rows: u32) -> Self {
        WfaArbiter::new(
            rows,
            cols,
            WfaVariant::Wrapped,
            WfaStart::Rotary { network_rows },
        )
    }

    /// Runs one arbitration pass and advances the priority pointers: one
    /// wave over the primary class, then (WFA-rotary with local rows) one
    /// over the local class on whatever rows and columns remain free.
    pub fn arbitrate(&mut self, req: &RequestMatrix) -> Matching {
        assert_eq!(req.rows(), self.rows, "request rows mismatch");
        assert_eq!(req.cols(), self.cols, "request cols mismatch");
        let mut m = Matching::empty(self.rows, self.cols);
        let mut free_rows = mask_of(self.rows);
        let mut free_cols = mask_of(self.cols);
        let (primary, local) = self.order[..self.rows].split_at(self.primary_len);
        let s1 = self.ptr_primary % primary.len();
        self.ptr_primary = (s1 + 1) % primary.len();
        self.wave(req, primary, s1, &mut free_rows, &mut free_cols, &mut m);
        if !local.is_empty() {
            let s2 = self.ptr_secondary % local.len();
            self.ptr_secondary = (s2 + 1) % local.len();
            self.wave(req, local, s2, &mut free_rows, &mut free_cols, &mut m);
        }
        m
    }

    /// Runs one wave over the given row class, consuming free rows/cols.
    fn wave(
        &self,
        req: &RequestMatrix,
        order: &[u8],
        start: usize,
        free_rows: &mut u32,
        free_cols: &mut u32,
        m: &mut Matching,
    ) {
        let len = order.len();
        match self.variant {
            WfaVariant::Wrapped => {
                // Cell (order[p], col) lies on wrapped diagonal
                // (p - col) mod L, which the sweep reaches at step
                // (p - col - start) mod L, and within a step columns go in
                // ascending order. Bucket each requested cell of a free
                // row and a free column as a column bit under its step,
                // then walk the occupied steps in order: the dense sweep's
                // cells in the dense sweep's order, minus cells whose row
                // or column was already taken (they could never grant).
                let mut steps = [0u32; MAX_DIM];
                let mut occupied = 0u32;
                for (p, &row) in order.iter().enumerate() {
                    if *free_rows & (1 << row) == 0 {
                        continue;
                    }
                    let mut cols = req.row_mask(row as usize) & *free_cols;
                    let base = p + MAX_DIM * len - start;
                    while cols != 0 {
                        let col = cols.trailing_zeros() as usize;
                        cols &= cols - 1;
                        let step = (base - col) % len;
                        steps[step] |= 1 << col;
                        occupied |= 1 << step;
                    }
                }
                while occupied != 0 {
                    let step = occupied.trailing_zeros() as usize;
                    occupied &= occupied - 1;
                    let mut cols = steps[step];
                    while cols != 0 {
                        let col = cols.trailing_zeros() as usize;
                        cols &= cols - 1;
                        let row = order[(start + step + col) % len] as usize;
                        self.try_grant(req, row, col, free_rows, free_cols, m);
                    }
                }
            }
            #[cfg(test)]
            WfaVariant::WrappedDense => {
                // Wrapped diagonal d holds cells (order[(d + col) % L], col):
                // one cell per column, distinct rows whenever L >= cols.
                // Sweeping d over 0..L visits every (row, col) cell exactly
                // once per pass even when L < cols (rows then repeat within
                // a diagonal, which the free-row mask makes harmless).
                for step in 0..len {
                    let d = (start + step) % len;
                    for col in 0..self.cols {
                        let row = order[(d + col) % len] as usize;
                        self.try_grant(req, row, col, free_rows, free_cols, m);
                    }
                }
            }
            #[cfg(test)]
            WfaVariant::Plain => {
                // Anti-diagonal wavefronts from cell (order[start], 0).
                for k in 0..(len + self.cols - 1) {
                    for i in 0..=k.min(len - 1) {
                        let j = k - i;
                        if j >= self.cols {
                            continue;
                        }
                        let row = order[(start + i) % len] as usize;
                        self.try_grant(req, row, j, free_rows, free_cols, m);
                    }
                }
            }
        }
    }

    #[inline]
    fn try_grant(
        &self,
        req: &RequestMatrix,
        row: usize,
        col: usize,
        free_rows: &mut u32,
        free_cols: &mut u32,
        m: &mut Matching,
    ) {
        if *free_rows & (1 << row) != 0 && *free_cols & (1 << col) != 0 && req.requested(row, col) {
            m.grant(row, col);
            *free_rows &= !(1 << row);
            *free_cols &= !(1 << col);
        }
    }
}

/// The low `n` bits set (`n ≤ 32`).
pub(crate) fn mask_of(n: usize) -> u32 {
    if n == 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcm;
    use crate::ports::NETWORK_ROW_MASK;
    use simcore::SimRng;

    fn random_req(rng: &mut SimRng, rows: usize, cols: usize) -> RequestMatrix {
        let masks: Vec<u32> = (0..rows).map(|_| rng.next_u32() & mask_of(cols)).collect();
        RequestMatrix::from_rows(masks, cols)
    }

    #[test]
    fn grants_are_valid_matchings() {
        let mut rng = SimRng::from_seed(1);
        let mut wfa = WfaArbiter::base(16, 7);
        for _ in 0..200 {
            let req = random_req(&mut rng, 16, 7);
            let m = wfa.arbitrate(&req);
            assert!(m.is_valid_for(&req));
        }
    }

    #[test]
    fn wfa_is_always_maximal() {
        // The defining property: no request between a free row and a free
        // column survives a full wave — for every variant and start mode.
        let mut rng = SimRng::from_seed(2);
        let starts = [
            WfaStart::RoundRobin,
            WfaStart::Rotary {
                network_rows: NETWORK_ROW_MASK,
            },
        ];
        for variant in [
            WfaVariant::Wrapped,
            WfaVariant::WrappedDense,
            WfaVariant::Plain,
        ] {
            for start in starts {
                let mut wfa = WfaArbiter::new(16, 7, variant, start);
                for _ in 0..200 {
                    let req = random_req(&mut rng, 16, 7);
                    let m = wfa.arbitrate(&req);
                    assert!(m.is_valid_for(&req));
                    assert!(
                        m.is_maximal_for(&req),
                        "{variant:?}/{start:?} not maximal on {req:?}"
                    );
                }
            }
        }
    }

    /// A random `rows × cols` matrix of the given density class: each
    /// cell requested with probability 1/8, 1/4, 1/2 or 3/4.
    fn random_req_density(
        rng: &mut SimRng,
        rows: usize,
        cols: usize,
        density: usize,
    ) -> RequestMatrix {
        let masks = (0..rows)
            .map(|_| {
                let a = rng.next_u32();
                let bits = match density {
                    0 => a & rng.next_u32() & rng.next_u32(),
                    1 => a & rng.next_u32(),
                    2 => a,
                    _ => a | rng.next_u32(),
                };
                bits & mask_of(cols)
            })
            .collect();
        RequestMatrix::from_rows(masks, cols)
    }

    #[test]
    fn sparse_wave_matches_the_dense_sweep() {
        // The sparse wave against the dense wrapped sweep it replaced:
        // the same matching and the same rotation pointers, from every
        // start position of both row classes, on round-robin and rotary
        // shapes including a class shorter than the row of columns
        // (4×7 with two network rows) and both extremes of the mask.
        let mut rng = SimRng::from_seed(5);
        let shapes = [
            (16, 7, WfaStart::RoundRobin),
            (
                16,
                7,
                WfaStart::Rotary {
                    network_rows: NETWORK_ROW_MASK,
                },
            ),
            (
                4,
                7,
                WfaStart::Rotary {
                    network_rows: 0b0011,
                },
            ),
            (1, 1, WfaStart::RoundRobin),
            (32, 32, WfaStart::RoundRobin),
            (
                32,
                32,
                WfaStart::Rotary {
                    network_rows: 0x00FF_00FF,
                },
            ),
        ];
        for (rows, cols, start) in shapes {
            let mut sparse = WfaArbiter::new(rows, cols, WfaVariant::Wrapped, start);
            let mut dense = WfaArbiter::new(rows, cols, WfaVariant::WrappedDense, start);
            let primary = sparse.primary_len;
            let local = (rows - primary).max(1);
            for s1 in 0..primary {
                for s2 in 0..local {
                    for density in 0..4 {
                        let req = random_req_density(&mut rng, rows, cols, density);
                        for wfa in [&mut sparse, &mut dense] {
                            wfa.ptr_primary = s1;
                            wfa.ptr_secondary = s2;
                        }
                        let got = sparse.arbitrate(&req);
                        let want = dense.arbitrate(&req);
                        assert_eq!(
                            got, want,
                            "{rows}x{cols} {start:?} start ({s1}, {s2}) {req:?}"
                        );
                        assert_eq!(
                            (sparse.ptr_primary, sparse.ptr_secondary),
                            (dense.ptr_primary, dense.ptr_secondary)
                        );
                    }
                }
            }
            // And over a free-running sequence, the pointers rotating on
            // their own.
            for pass in 0..200 {
                let req = random_req_density(&mut rng, rows, cols, pass % 4);
                assert_eq!(sparse.arbitrate(&req), dense.arbitrate(&req), "pass {pass}");
                assert_eq!(
                    (sparse.ptr_primary, sparse.ptr_secondary),
                    (dense.ptr_primary, dense.ptr_secondary)
                );
            }
        }
    }

    #[test]
    fn never_exceeds_mcm() {
        let mut rng = SimRng::from_seed(3);
        let mut wfa = WfaArbiter::base(16, 7);
        for _ in 0..200 {
            let req = random_req(&mut rng, 16, 7);
            let upper = mcm::maximum_matching(&req).cardinality();
            assert!(wfa.arbitrate(&req).cardinality() <= upper);
        }
    }

    #[test]
    fn start_rotation_gives_long_run_fairness() {
        // Two rows forever contending for one column: round-robin start
        // must alternate grants between them.
        let req = RequestMatrix::from_rows(vec![0b1, 0b1], 1);
        let mut wfa = WfaArbiter::base(2, 1);
        let mut wins = [0usize; 2];
        for _ in 0..100 {
            let m = wfa.arbitrate(&req);
            wins[m.input_of(0).unwrap()] += 1;
        }
        assert_eq!(wins, [50, 50]);
    }

    #[test]
    fn rotary_strictly_prioritizes_network_rows() {
        // Row 8 (cache) and row 3 (torus) contend for column 0: the torus
        // row must win on every pass, whatever the rotation state.
        let mut masks = vec![0u32; 16];
        masks[8] = 1;
        masks[3] = 1;
        let req = RequestMatrix::from_rows(masks, 7);
        let mut wfa = WfaArbiter::rotary(16, 7, NETWORK_ROW_MASK);
        for _ in 0..32 {
            let m = wfa.arbitrate(&req);
            assert_eq!(m.input_of(0), Some(3), "rotary must favour cross-traffic");
        }
    }

    #[test]
    fn rotary_still_serves_local_rows_when_alone() {
        let mut masks = vec![0u32; 16];
        masks[9] = 0b0100;
        let req = RequestMatrix::from_rows(masks, 7);
        let mut wfa = WfaArbiter::rotary(16, 7, NETWORK_ROW_MASK);
        let m = wfa.arbitrate(&req);
        assert_eq!(m.output_of(9), Some(2));
    }

    #[test]
    fn rotary_is_fair_within_the_network_class() {
        // Torus rows 0 and 5 contending for column 2 share the wins.
        // WFA's rotating-start fairness is cell-based rather than
        // row-based, so the split is not exactly 50/50 (here 3:5 per
        // 8-start period); what matters is that neither row starves.
        let mut masks = vec![0u32; 16];
        masks[0] = 0b100;
        masks[5] = 0b100;
        let req = RequestMatrix::from_rows(masks, 7);
        let mut wfa = WfaArbiter::rotary(16, 7, NETWORK_ROW_MASK);
        let mut wins = [0usize; 16];
        for _ in 0..64 {
            wins[wfa.arbitrate(&req).input_of(2).unwrap()] += 1;
        }
        assert_eq!(wins[0] + wins[5], 64);
        assert!(wins[0] >= 16, "row 0 starving: {wins:?}");
        assert!(wins[5] >= 16, "row 5 starving: {wins:?}");
    }

    #[test]
    fn wrapped_and_plain_agree_on_cardinality_distribution() {
        // Both variants are maximal with rotating priority; across many
        // random matrices their average cardinality should be near-equal.
        let mut rng = SimRng::from_seed(4);
        let mut wrapped = WfaArbiter::new(16, 7, WfaVariant::Wrapped, WfaStart::RoundRobin);
        let mut plain = WfaArbiter::new(16, 7, WfaVariant::Plain, WfaStart::RoundRobin);
        let (mut sw, mut sp) = (0usize, 0usize);
        for _ in 0..300 {
            let req = random_req(&mut rng, 16, 7);
            sw += wrapped.arbitrate(&req).cardinality();
            sp += plain.arbitrate(&req).cardinality();
        }
        let diff = (sw as f64 - sp as f64).abs() / sw as f64;
        assert!(diff < 0.03, "wrapped={sw} plain={sp}");
    }

    #[test]
    fn saturated_matrix_fills_all_columns() {
        let req = RequestMatrix::from_rows(vec![0b0111_1111; 16], 7);
        let mut wfa = WfaArbiter::base(16, 7);
        assert_eq!(wfa.arbitrate(&req).cardinality(), 7);
    }

    #[test]
    fn narrow_row_class_still_covers_all_cells() {
        // Rotary with only 2 network rows and 7 columns exercises the
        // len < cols sweep in the wrapped evaluation.
        let mut masks = vec![0u32; 4];
        masks[0] = 0b010_0000;
        masks[1] = 0b100_0000;
        let req = RequestMatrix::from_rows(masks, 7);
        let mut wfa = WfaArbiter::rotary(4, 7, 0b0011);
        let m = wfa.arbitrate(&req);
        assert_eq!(m.cardinality(), 2);
        assert!(m.is_maximal_for(&req));
    }

    #[test]
    fn empty_requests_empty_grants() {
        let req = RequestMatrix::new(16, 7);
        let mut wfa = WfaArbiter::base(16, 7);
        assert_eq!(wfa.arbitrate(&req).cardinality(), 0);
    }

    #[test]
    #[should_panic(expected = "rotary start needs network rows")]
    fn rotary_without_rows_rejected() {
        let _ = WfaArbiter::rotary(16, 7, 0);
    }
}
