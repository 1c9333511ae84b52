//! Properties of the weighted matching substrate.
//!
//! Two anchors hold the whole weighted extension together:
//!
//! 1. **Dominance** — the Hungarian oracle's matching weight is an upper
//!    bound on the matching weight achieved by *every* `Arbiter`
//!    implementation, weighted or not, on the same weighted request
//!    matrix. If any arbiter ever beat the "exact" oracle, the oracle
//!    would not be exact and every optimality-gap column in the figures
//!    would be lying.
//! 2. **Exactness** — on every request matrix small enough to enumerate
//!    (all shapes up to 4×4, all 2^(rows·cols) request bitmasks), the
//!    Hungarian result equals brute-force enumeration exactly.
//!
//! Cases come from a deterministic `SimRng` stream (the workspace carries
//! no property-testing dependency), so failures reproduce from the test
//! alone.

use arbitration::prelude::*;
use simcore::SimRng;

/// A random weighted request state over the 21364 connection matrix,
/// mirroring the generator in `matching_invariants.rs`: arbitrary masks
/// clipped to the wiring, varying sparsity, weights in 1..=64 on every
/// requested cell.
fn random_weighted_state(rng: &mut SimRng, conn: &ConnectionMatrix) -> ArbitrationInput {
    let rows = conn.rows();
    let cols = conn.cols();
    let density = rng.below(4);
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
fn mwm_weight_dominates_every_arbiter() {
    let conn = ConnectionMatrix::alpha_21364();
    let mut gen = SimRng::from_seed(0x6d77_6d64); // "mwmd"
    let mut rng = SimRng::from_seed(0x6f6d_696e);
    let mut arbiters = AlgoKind::ALL.map(|k| (k.label(), k.build(conn.rows(), conn.cols())));
    for case in 0..200 {
        let input = random_weighted_state(&mut gen, &conn);
        let w = input.weights.as_ref().expect("generator attaches weights");
        let oracle = mwm::maximum_weight_matching(&input.requests, w);
        let bound = w.matching_weight(&oracle);
        for (label, arb) in arbiters.iter_mut() {
            let m = arb.arbitrate(&input, &mut rng);
            let achieved = w.matching_weight(&m);
            assert!(
                achieved <= bound,
                "{label} case {case}: weight {achieved} exceeds the MWM bound {bound}"
            );
        }
    }
}

#[test]
fn mwm_matches_brute_force_exhaustively_up_to_4x4() {
    // Every shape up to 4×4 and every one of the 2^(rows·cols) request
    // bitmasks, each with a fresh seeded random weight plane. 4·4 → 65536
    // masks at the largest shape; the whole sweep is ~90k solves.
    let mut rng = SimRng::from_seed(0x6578_6163); // "exac"
    for rows in 1..=4usize {
        for cols in 1..=4usize {
            let cells = rows * cols;
            for pattern in 0u32..(1 << cells) {
                let masks: Vec<u32> = (0..rows)
                    .map(|r| (pattern >> (r * cols)) & ((1 << cols) - 1))
                    .collect();
                let req = RequestMatrix::from_rows(masks, cols);
                let mut w = WeightMatrix::new(rows, cols);
                for r in 0..rows {
                    for c in 0..cols {
                        if req.requested(r, c) {
                            w.set(r, c, 1 + rng.below(50) as u32);
                        }
                    }
                }
                let m = mwm::maximum_weight_matching(&req, &w);
                assert!(m.is_valid_for(&req), "{rows}x{cols} pattern {pattern:b}");
                assert_eq!(
                    w.matching_weight(&m),
                    mwm::brute_force_max_weight(&req, &w),
                    "{rows}x{cols} pattern {pattern:b}"
                );
            }
        }
    }
}

#[test]
fn weighted_arbiters_validate_against_matching_contract() {
    // The weighted arbiters' grants obey the same row/column exclusivity
    // and request-subset contract as the boolean family, checked through
    // `Matching::is_valid_for` on denser-than-usual states.
    let conn = ConnectionMatrix::alpha_21364();
    let mut gen = SimRng::from_seed(0x7765_6967);
    let mut rng = SimRng::from_seed(0x6874_6564);
    let mut arbiters: Vec<_> = AlgoKind::ALL
        .iter()
        .filter(|k| k.weight_kind().is_some())
        .map(|k| (k.label(), k.build(conn.rows(), conn.cols())))
        .collect();
    assert_eq!(arbiters.len(), 6, "iLQF1-3, iOCF1-2, MWM");
    for case in 0..200 {
        let input = random_weighted_state(&mut gen, &conn);
        for (label, arb) in arbiters.iter_mut() {
            let m = arb.arbitrate(&input, &mut rng);
            assert!(m.is_valid_for(&input.requests), "{label} case {case}");
        }
    }
}
