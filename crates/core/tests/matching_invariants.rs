//! Matching invariants for every `Arbiter` implementation.
//!
//! Whatever the algorithm — SPAA, PIM, PIM1, WFA, MCM, OPF, iSLIP(1–3),
//! the plain round-robin matcher, the weighted iterative kernels
//! (iLQF/iOCF) or the MWM oracle — one arbitration pass over a
//! request state reachable in the 21364 must return a `Matching` that:
//!
//! 1. grants only (row, output) pairs that are **both** requested and
//!    wired in the Figure 5 connection matrix (the request matrices fed
//!    to arbiters are pre-masked by the connection matrix, so a grant
//!    outside `requests ∩ connections` is a request-fabrication bug);
//! 2. has at most one grant per row and at most one per column (one
//!    packet per read port, one packet per output port);
//! 3. never grants a row whose request set is empty.
//!
//! Cases are generated from a deterministic `SimRng` stream (the
//! workspace carries no property-testing dependency), so any failure
//! reproduces exactly from the test alone.

use arbitration::prelude::*;
use simcore::SimRng;

const CASES: usize = 200;

/// One persistent arbiter per catalogue entry, under its label.
fn all_arbiters(rows: usize, cols: usize) -> Vec<(&'static str, Box<dyn Arbiter>)> {
    AlgoKind::ALL
        .iter()
        .map(|kind| (kind.label(), kind.build(rows, cols)))
        .collect()
}

/// A random request state over the real 21364 connection matrix: every
/// row mask is drawn arbitrarily, then masked by the row's wiring — the
/// view a router's entry table would actually present. Sparsity varies
/// per case so empty rows, single-request rows, and dense rows all
/// appear.
fn random_request_state(rng: &mut SimRng, conn: &ConnectionMatrix) -> ArbitrationInput {
    let rows = conn.rows();
    let cols = conn.cols();
    let density = rng.below(4); // 0: drop ~3/4 of bits … 3: keep all
    let masks: Vec<u32> = (0..rows)
        .map(|r| {
            let mut m = rng.next_u32() & conn.row_mask(r);
            for _ in density..3 {
                m &= rng.next_u32();
            }
            m
        })
        .collect();
    let noms = masks
        .iter()
        .map(|&m| (m != 0).then(|| rng.pick_bit(m) as u8))
        .collect();
    // A random weight plane so the weighted arbiters (iLQF/iOCF/MWM) are
    // exercised with genuine weights, not the unit fallback. The
    // unweighted arbiters never look at it.
    let mut weights = WeightMatrix::new(rows, cols);
    for (r, &m) in masks.iter().enumerate() {
        let mut bits = m;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            weights.set(r, c, 1 + rng.below(64) as u32);
        }
    }
    ArbitrationInput::new(RequestMatrix::from_rows(masks, cols), noms).with_weights(weights)
}

#[test]
fn every_arbiter_grants_within_requests_and_connections() {
    let conn = ConnectionMatrix::alpha_21364();
    let mut gen = SimRng::from_seed(0x696e_7661 ^ 0x6172_6269);
    let mut rng = SimRng::from_seed(0x7265_7175);
    let mut arbiters = all_arbiters(conn.rows(), conn.cols());
    for case in 0..CASES {
        let input = random_request_state(&mut gen, &conn);
        assert!(input.validate(), "case {case}: inconsistent input");
        for (label, arb) in arbiters.iter_mut() {
            let m = arb.arbitrate(&input, &mut rng);
            for (r, c) in m.pairs() {
                assert!(
                    input.requests.requested(r, c),
                    "{} case {case}: granted ({r},{c}) without a request",
                    label
                );
                assert!(
                    conn.connected(r, c),
                    "{} case {case}: granted ({r},{c}) outside the connection matrix",
                    label
                );
            }
        }
    }
}

#[test]
fn every_arbiter_grants_at_most_one_per_row_and_column() {
    let conn = ConnectionMatrix::alpha_21364();
    let mut gen = SimRng::from_seed(0x726f_7763);
    let mut rng = SimRng::from_seed(0x636f_6c75);
    let mut arbiters = all_arbiters(conn.rows(), conn.cols());
    for case in 0..CASES {
        let input = random_request_state(&mut gen, &conn);
        for (label, arb) in arbiters.iter_mut() {
            let m = arb.arbitrate(&input, &mut rng);
            // Recount directly from the pair list rather than trusting
            // the Matching accessors: the invariant under test is the
            // arbiter's output, not the container's bookkeeping.
            let mut row_seen = 0u32;
            let mut col_seen = 0u32;
            for (r, c) in m.pairs() {
                assert_eq!(
                    row_seen & (1 << r),
                    0,
                    "{} case {case}: row {r} granted twice",
                    label
                );
                assert_eq!(
                    col_seen & (1 << c),
                    0,
                    "{} case {case}: column {c} granted twice",
                    label
                );
                row_seen |= 1 << r;
                col_seen |= 1 << c;
            }
            assert_eq!(m.cardinality() as u32, row_seen.count_ones());
        }
    }
}

#[test]
fn no_arbiter_grants_an_empty_row() {
    let conn = ConnectionMatrix::alpha_21364();
    let mut gen = SimRng::from_seed(0x656d_7074);
    let mut rng = SimRng::from_seed(0x7a65_726f);
    let mut arbiters = all_arbiters(conn.rows(), conn.cols());
    let mut empty_rows_seen = 0usize;
    for case in 0..CASES {
        let input = random_request_state(&mut gen, &conn);
        for r in 0..input.requests.rows() {
            if input.requests.row_mask(r) == 0 {
                empty_rows_seen += 1;
            }
        }
        for (label, arb) in arbiters.iter_mut() {
            let m = arb.arbitrate(&input, &mut rng);
            for r in 0..input.requests.rows() {
                if input.requests.row_mask(r) == 0 {
                    assert_eq!(
                        m.output_of(r),
                        None,
                        "{} case {case}: granted empty row {r}",
                        label
                    );
                }
            }
        }
    }
    // The generator must actually exercise the invariant.
    assert!(
        empty_rows_seen > CASES,
        "only {empty_rows_seen} empty rows generated across {CASES} cases"
    );
}

#[test]
fn all_ones_request_state_is_handled_by_every_arbiter() {
    // The degenerate dense corner: every wired cell requested.
    let conn = ConnectionMatrix::alpha_21364();
    let masks: Vec<u32> = (0..conn.rows()).map(|r| conn.row_mask(r)).collect();
    let noms = masks
        .iter()
        .map(|&m| Some(m.trailing_zeros() as u8))
        .collect();
    let input = ArbitrationInput::new(RequestMatrix::from_rows(masks, conn.cols()), noms);
    let mut rng = SimRng::from_seed(0xdead);
    for (label, arb) in all_arbiters(conn.rows(), conn.cols()).iter_mut() {
        let m = arb.arbitrate(&input, &mut rng);
        assert!(m.is_valid_for(&input.requests), "{}", label);
        assert!(
            m.cardinality() >= 1,
            "{} matched nothing on a full matrix",
            label
        );
    }
}
