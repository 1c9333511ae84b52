//! Arbitration-driver state shared by the router's two timing engines.
//!
//! The router runs one of two drivers (§3):
//!
//! * the **SPAA pipeline** — every read port may launch a new nomination
//!   each cycle (up to `latency - 1` in flight), grants resolve at the GA
//!   stage `latency - 1` cycles later, and losers reset for the next
//!   cycle;
//! * the **windowed matrix** driver for PIM1/WFA — every
//!   `initiation_interval` cycles the router snapshots its eligible
//!   traffic into a request matrix, runs the matching kernel, and applies
//!   the grants at the GA stage of that window.
//!
//! This module holds the bookkeeping types; the drivers themselves are
//! methods on [`crate::router::Router`].

use crate::entry::EntryId;
use crate::vc::VcId;
use simcore::Tick;

/// One in-flight SPAA nomination awaiting its GA stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nomination {
    /// Connection-matrix row of the nominating read port.
    pub row: u8,
    /// Input port index (row / 2).
    pub input: u8,
    /// Nominated entry.
    pub entry: EntryId,
    /// Target output port index.
    pub output: u8,
    /// Downstream virtual channel (None for local delivery).
    pub downstream_vc: Option<VcId>,
    /// GA time.
    pub decide_at: Tick,
}

/// Per-read-port arbitration state.
#[derive(Clone, Debug, Default)]
pub struct ReadPortState {
    /// Entries with nominations currently in flight (awaiting GA); at
    /// most `latency - 1` of them, so the Vec never grows past a handful.
    pub inflight: Vec<EntryId>,
    /// The read port streams a granted packet's flits until this time and
    /// cannot arbitrate while busy.
    pub busy_until: Tick,
}

impl ReadPortState {
    /// True when the read port can run LA at `now` with at most
    /// `max_inflight` nominations outstanding.
    ///
    /// `lookahead` is the arbitration-plus-output pipeline depth: a read
    /// port may arbitrate for its *next* packet while the tail of the
    /// current one is still streaming, as long as the new flit train would
    /// start no earlier than the old one ends (the dispatch path enforces
    /// the actual serialization).
    pub fn can_arbitrate(&self, now: Tick, lookahead: Tick, max_inflight: u8) -> bool {
        self.busy_until <= now + lookahead && self.inflight.len() < max_inflight as usize
    }

    /// Removes one in-flight entry id (its nomination reached GA).
    pub fn retire(&mut self, entry: EntryId) {
        if let Some(pos) = self.inflight.iter().position(|&e| e == entry) {
            self.inflight.swap_remove(pos);
        }
    }
}

/// A grant candidate recorded while building a window snapshot: the entry
/// that row would dispatch through that output, and the downstream VC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Chosen entry.
    pub entry: EntryId,
    /// Downstream virtual channel (None for local delivery).
    pub downstream_vc: Option<VcId>,
}

/// The per-window snapshot for the PIM1/WFA driver.
///
/// The candidate table is stored row-major in one flat slab so a
/// [`Router`](crate::router::Router) can own a single snapshot for its
/// whole lifetime and [`reset`](WindowSnapshot::reset) it every window
/// without touching the allocator.
#[derive(Clone, Debug, Default)]
pub struct WindowSnapshot {
    cols: usize,
    /// Flat `rows × cols` candidate table.
    candidates: Vec<Option<Candidate>>,
    /// Flat `rows × cols` weight plane (queue depth or head-of-line age),
    /// meaningful only where a candidate is set. Unweighted algorithms
    /// pass weight 0 on every offer, leaving the plane inert.
    weights: Vec<u32>,
    /// Request mask per row.
    row_masks: Vec<u32>,
}

impl WindowSnapshot {
    /// An empty snapshot for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        WindowSnapshot {
            cols,
            candidates: vec![None; rows * cols],
            weights: vec![0; rows * cols],
            row_masks: vec![0; rows],
        }
    }

    /// Clears all offers, keeping the allocation. Sparse: only cells the
    /// previous window actually populated (tracked by the row masks) are
    /// touched, so an idle or lightly-loaded window costs nothing — the
    /// end state is identical to clearing every cell.
    pub fn reset(&mut self) {
        for (row, mask) in self.row_masks.iter_mut().enumerate() {
            let mut m = *mask;
            while m != 0 {
                let col = m.trailing_zeros() as usize;
                m &= m - 1;
                self.candidates[row * self.cols + col] = None;
                self.weights[row * self.cols + col] = 0;
            }
            *mask = 0;
        }
    }

    /// Records that `row` could dispatch `cand` through `col` at the
    /// given scheduling weight (first writer wins: rows are scanned
    /// oldest-first, so the earliest candidate — and its weight — is the
    /// one the hardware's entry table would pick). Callers running an
    /// unweighted algorithm pass `weight` 0.
    pub fn offer(&mut self, row: usize, col: usize, cand: Candidate, weight: u32) {
        let cell = &mut self.candidates[row * self.cols + col];
        if cell.is_none() {
            *cell = Some(cand);
            self.weights[row * self.cols + col] = weight;
            self.row_masks[row] |= 1 << col;
        }
    }

    /// The weight recorded for `(row, col)` (0 when no offer landed
    /// there, or when the window was filled without weights).
    #[inline]
    pub fn weight(&self, row: usize, col: usize) -> u32 {
        self.weights[row * self.cols + col]
    }

    /// Copies the snapshot's weights into `w` for every requested cell.
    /// Cells outside the row masks are left untouched — the weighted
    /// kernels only ever read weights under the request bitmask, so
    /// stale values elsewhere are unobservable.
    pub fn fill_weight_matrix(&self, w: &mut arbitration::matrix::WeightMatrix) {
        for (row, &mask) in self.row_masks.iter().enumerate() {
            let mut m = mask;
            while m != 0 {
                let col = m.trailing_zeros() as usize;
                m &= m - 1;
                w.set(row, col, self.weights[row * self.cols + col]);
            }
        }
    }

    /// The candidate offered for `(row, col)`, if any.
    #[inline]
    pub fn candidate(&self, row: usize, col: usize) -> Option<Candidate> {
        self.candidates[row * self.cols + col]
    }

    /// Request mask per row (the request-matrix image of the snapshot).
    #[inline]
    pub fn row_masks(&self) -> &[u32] {
        &self.row_masks
    }

    /// True when no row has any request.
    pub fn is_empty(&self) -> bool {
        self.row_masks.iter().all(|&m| m == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_port_gating() {
        let mut rp = ReadPortState::default();
        let la = Tick::new(0);
        let id = |i| EntryId::new(i, 0);
        assert!(rp.can_arbitrate(Tick::ZERO, la, 2));
        rp.inflight = vec![id(4), id(9)];
        assert!(!rp.can_arbitrate(Tick::ZERO, la, 2), "in-flight limit");
        rp.retire(id(4));
        assert!(rp.can_arbitrate(Tick::ZERO, la, 2));
        rp.retire(id(4)); // unknown ids are ignored
        rp.inflight.clear();
        rp.busy_until = Tick::new(100);
        assert!(!rp.can_arbitrate(Tick::new(99), la, 2), "streaming");
        assert!(rp.can_arbitrate(Tick::new(100), la, 2));
        // With lookahead, arbitration overlaps the stream tail.
        assert!(rp.can_arbitrate(Tick::new(60), Tick::new(40), 2));
        assert!(!rp.can_arbitrate(Tick::new(59), Tick::new(40), 2));
    }

    #[test]
    fn snapshot_first_offer_wins() {
        let mut s = WindowSnapshot::new(2, 3);
        assert!(s.is_empty());
        let a = Candidate {
            entry: EntryId::new(7, 0),
            downstream_vc: None,
        };
        let b = Candidate {
            entry: EntryId::new(9, 0),
            downstream_vc: None,
        };
        s.offer(0, 1, a, 5);
        s.offer(0, 1, b, 9);
        assert_eq!(s.candidate(0, 1), Some(a), "oldest candidate retained");
        assert_eq!(s.weight(0, 1), 5, "winner's weight retained too");
        assert_eq!(s.row_masks()[0], 0b010);
        assert!(!s.is_empty());
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.candidate(0, 1), None, "reset clears candidates");
        assert_eq!(s.weight(0, 1), 0, "reset clears weights");
    }

    #[test]
    fn snapshot_weights_project_onto_a_weight_matrix() {
        let mut s = WindowSnapshot::new(2, 3);
        let cand = Candidate {
            entry: EntryId::new(1, 0),
            downstream_vc: None,
        };
        s.offer(0, 2, cand, 7);
        s.offer(1, 0, cand, 3);
        let mut w = arbitration::matrix::WeightMatrix::new(2, 3);
        s.fill_weight_matrix(&mut w);
        assert_eq!(w.weight(0, 2), 7);
        assert_eq!(w.weight(1, 0), 3);
        assert_eq!(w.weight(0, 0), 0, "unrequested cells untouched");
    }
}
