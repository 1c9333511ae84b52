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
use arbitration::arbiter::ArbitrationInput;
use arbitration::matrix::{RequestMatrix, WeightMatrix};
use simcore::Tick;

/// One in-flight SPAA nomination awaiting its GA stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Nomination {
    /// Connection-matrix row of the nominating read port (of input
    /// `row / 2`).
    pub(crate) row: u8,
    /// Nominated entry.
    pub(crate) entry: EntryId,
    /// Target output port index.
    pub(crate) output: u8,
    /// Downstream virtual channel (None for local delivery).
    pub(crate) downstream_vc: Option<VcId>,
    /// GA time.
    pub(crate) decide_at: Tick,
}

/// Per-read-port arbitration state.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReadPortState {
    /// Entries with nominations currently in flight (awaiting GA); at
    /// most `latency - 1` of them, so the Vec never grows past a handful.
    pub(crate) inflight: Vec<EntryId>,
    /// The read port streams a granted packet's flits until this time and
    /// cannot arbitrate while busy.
    pub(crate) busy_until: Tick,
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
    pub(crate) fn can_arbitrate(&self, now: Tick, lookahead: Tick, max_inflight: u8) -> bool {
        self.busy_until <= now + lookahead && self.inflight.len() < max_inflight as usize
    }

    /// Removes one in-flight entry id (its nomination reached GA).
    pub(crate) fn retire(&mut self, entry: EntryId) {
        if let Some(pos) = self.inflight.iter().position(|&e| e == entry) {
            self.inflight.swap_remove(pos);
        }
    }
}

/// A grant candidate recorded while building a window snapshot: the entry
/// that row would dispatch through that output, and the downstream VC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Candidate {
    /// Chosen entry.
    pub(crate) entry: EntryId,
    /// Downstream virtual channel (None for local delivery).
    pub(crate) downstream_vc: Option<VcId>,
}

/// The per-window snapshot for the PIM1/WFA driver: the candidate behind
/// every requested cell, and the kernel input those requests form.
///
/// A [`Router`](crate::router::Router) owns a single snapshot for its
/// whole lifetime and [`reset`](WindowSnapshot::reset)s it every window
/// without touching the allocator.
#[derive(Clone, Debug)]
pub(crate) struct WindowSnapshot {
    /// Flat row-major `rows × cols` candidate table, `Some` exactly where
    /// `input.requests` has the bit set.
    candidates: Vec<Option<Candidate>>,
    /// What the matching kernel reads: offers set request bits (and
    /// weight cells) here directly. The weight plane exists only when the
    /// snapshot was built weighted, and is zero outside the requests. The
    /// nominations are the single-nomination view no windowed kernel reads.
    pub(crate) input: ArbitrationInput,
}

impl WindowSnapshot {
    /// An empty snapshot for a `rows × cols` matrix; `weighted` gives it a
    /// weight plane (queue depth or head-of-line age) for offers to stamp.
    pub(crate) fn new(rows: usize, cols: usize, weighted: bool) -> Self {
        WindowSnapshot {
            candidates: vec![None; rows * cols],
            input: ArbitrationInput {
                requests: RequestMatrix::new(rows, cols),
                nominations: vec![None; rows],
                weights: weighted.then(|| WeightMatrix::new(rows, cols)),
            },
        }
    }

    /// Clears all offers, keeping the allocation. Sparse: only cells the
    /// previous window actually populated (tracked by the request masks)
    /// are touched, so an idle or lightly-loaded window costs nothing — the
    /// end state is identical to clearing every cell.
    pub(crate) fn reset(&mut self) {
        let input = &mut self.input;
        for row in 0..input.requests.rows() {
            let mut m = input.requests.row_mask(row);
            while m != 0 {
                let col = m.trailing_zeros() as usize;
                m &= m - 1;
                self.candidates[row * input.requests.cols() + col] = None;
                if let Some(w) = input.weights.as_mut() {
                    w.set(row, col, 0);
                }
            }
            input.requests.set_row_mask(row, 0);
        }
    }

    /// Records that `row` could dispatch `cand` through `col` at the
    /// given scheduling weight (first writer wins: rows are scanned
    /// oldest-first, so the earliest candidate — and its weight — is the
    /// one the hardware's entry table would pick). An unweighted snapshot
    /// ignores `weight`.
    pub(crate) fn offer(&mut self, row: usize, col: usize, cand: Candidate, weight: u32) {
        let cell = &mut self.candidates[row * self.input.requests.cols() + col];
        if cell.is_none() {
            *cell = Some(cand);
            self.input.requests.set(row, col);
            if let Some(w) = self.input.weights.as_mut() {
                w.set(row, col, weight);
            }
        }
    }

    /// The candidate offered for `(row, col)`, if any.
    #[inline]
    pub(crate) fn candidate(&self, row: usize, col: usize) -> Option<Candidate> {
        self.candidates[row * self.input.requests.cols() + col]
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

    fn cand(slot: u32) -> Candidate {
        Candidate {
            entry: EntryId::new(slot, 0),
            downstream_vc: None,
        }
    }

    /// Requests, candidates and weights as `(row, col, cand, weight)` per
    /// requested cell — everything a kernel or a dispatch can observe.
    fn observable(s: &WindowSnapshot) -> Vec<(usize, usize, Option<Candidate>, u32)> {
        let req = &s.input.requests;
        let mut cells = Vec::new();
        for row in 0..req.rows() {
            for col in 0..req.cols() {
                let weight = s.input.weights.as_ref().map_or(0, |w| w.weight(row, col));
                if req.requested(row, col) || s.candidate(row, col).is_some() || weight != 0 {
                    cells.push((row, col, s.candidate(row, col), weight));
                }
            }
        }
        cells
    }

    #[test]
    fn snapshot_first_offer_keeps_candidate_and_weight() {
        let mut s = WindowSnapshot::new(2, 3, true);
        s.offer(0, 1, cand(7), 5);
        s.offer(0, 1, cand(9), 9);
        assert_eq!(
            observable(&s),
            [(0, 1, Some(cand(7)), 5)],
            "oldest candidate and its weight retained, request bit set"
        );
        assert_eq!(s.input.requests.row_mask(0), 0b010);
    }

    #[test]
    fn reset_snapshot_equals_a_fresh_one() {
        for weighted in [false, true] {
            let mut s = WindowSnapshot::new(2, 3, weighted);
            s.offer(0, 2, cand(1), 7);
            s.offer(1, 0, cand(2), 3);
            s.reset();
            assert_eq!(observable(&s), [], "weighted {weighted}");
            // A cell claimed before the reset is open to a new first writer.
            s.offer(0, 2, cand(4), 2);
            let mut fresh = WindowSnapshot::new(2, 3, weighted);
            fresh.offer(0, 2, cand(4), 2);
            assert_eq!(observable(&s), observable(&fresh));
        }
    }

    #[test]
    fn unweighted_snapshot_never_grows_a_weight_plane() {
        let mut s = WindowSnapshot::new(2, 3, false);
        s.offer(1, 2, cand(3), 11);
        assert!(s.input.weights.is_none(), "offer allocated a plane");
        assert_eq!(observable(&s), [(1, 2, Some(cand(3)), 0)]);
        s.reset();
        assert!(s.input.weights.is_none(), "reset allocated a plane");
    }
}
