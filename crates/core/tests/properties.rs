//! Property-based tests of the arbitration invariants listed in DESIGN.md.
//!
//! Every algorithm, on every reachable request state, must produce a valid
//! matching bounded by MCM's maximum; the maximal algorithms (MCM, WFA)
//! must leave no augmenting pair behind; and the single-nomination
//! algorithms must grant every uncontended nomination.
//!
//! Cases are generated from a deterministic [`SimRng`] stream per test
//! (the workspace carries no external property-testing dependency), so a
//! failure reproduces exactly from the test name alone.

use arbitration::mcm::brute_force_max_cardinality;
use arbitration::prelude::*;
use simcore::SimRng;

const CASES: usize = 256;

/// A request matrix with random dimensions in `[1, max_rows] × [1, max_cols]`
/// and arbitrary cells.
fn random_matrix(rng: &mut SimRng, max_rows: usize, max_cols: usize) -> RequestMatrix {
    let rows = 1 + rng.below(max_rows);
    let cols = 1 + rng.below(max_cols);
    let masks = (0..rows)
        .map(|_| rng.next_u32() & ((1u32 << cols) - 1))
        .collect();
    RequestMatrix::from_rows(masks, cols)
}

/// A consistent (requests, nominations) pair: one pseudo-random requested
/// output nominated per non-empty row.
fn random_input(rng: &mut SimRng, max_rows: usize, max_cols: usize) -> ArbitrationInput {
    let req = random_matrix(rng, max_rows, max_cols);
    let noms = (0..req.rows())
        .map(|r| {
            let mask = req.row_mask(r);
            (mask != 0).then(|| rng.pick_bit(mask) as u8)
        })
        .collect();
    ArbitrationInput::new(req, noms)
}

#[test]
fn mcm_is_maximum_and_maximal() {
    let mut gen = SimRng::from_seed(0x6d63_6d31);
    for case in 0..CASES {
        let req = random_matrix(&mut gen, 10, 8);
        let m = mcm::maximum_matching(&req);
        assert!(m.is_valid_for(&req), "case {case}");
        assert!(m.is_maximal_for(&req), "case {case}");
        assert_eq!(
            m.cardinality(),
            brute_force_max_cardinality(&req),
            "case {case}"
        );
    }
}

#[test]
fn wfa_is_valid_maximal_and_bounded() {
    let mut gen = SimRng::from_seed(0x7766_6131);
    for case in 0..CASES {
        let req = random_matrix(&mut gen, 16, 7);
        let rotary = gen.chance(0.5);
        let rows = req.rows();
        let mut wfa = if rotary {
            // Use the low half of the rows as the "network" class.
            let mask = (1u32 << rows.div_ceil(2)) - 1;
            WfaArbiter::rotary(rows, req.cols(), mask)
        } else {
            WfaArbiter::base(rows, req.cols())
        };
        // Rotate the start pointer to an arbitrary phase.
        for _ in 0..gen.below(17) {
            let _ = wfa.arbitrate(&RequestMatrix::new(rows, req.cols()));
        }
        let m = wfa.arbitrate(&req);
        assert!(m.is_valid_for(&req), "case {case}");
        assert!(m.is_maximal_for(&req), "case {case}");
        assert!(
            m.cardinality() <= mcm::maximum_matching(&req).cardinality(),
            "case {case}"
        );
    }
}

#[test]
fn pim_is_valid_bounded_and_monotone_in_iterations() {
    let mut gen = SimRng::from_seed(0x7069_6d31);
    for case in 0..CASES {
        let req = random_matrix(&mut gen, 16, 7);
        let seed = gen.next_u64();
        let upper = mcm::maximum_matching(&req).cardinality();
        let mut last = 0usize;
        // The same seed gives each iteration count the same grant draws
        // for its first rounds, so cardinality is non-decreasing in k.
        for k in 1..=4usize {
            let mut rng = SimRng::from_seed(seed);
            let m = PimArbiter::new(k).arbitrate(&req, &mut rng);
            assert!(m.is_valid_for(&req), "case {case}");
            assert!(m.cardinality() <= upper, "case {case}");
            assert!(
                m.cardinality() >= last,
                "case {case}: PIM{} matched fewer ({}) than PIM{} ({})",
                k,
                m.cardinality(),
                k - 1,
                last
            );
            last = m.cardinality();
        }
    }
}

#[test]
fn spaa_grants_exactly_one_per_contended_output() {
    let mut gen = SimRng::from_seed(0x7370_6161);
    for case in 0..CASES {
        let input = random_input(&mut gen, 16, 7);
        let rows = input.requests.rows();
        let cols = input.requests.cols();
        let mut spaa = SpaaArbiter::base(rows, cols);
        let m = spaa.grant(&input.nominations);
        assert!(m.is_valid_for(&input.requests), "case {case}");
        // Cardinality is exactly the number of distinct nominated outputs.
        let mut outputs = 0u32;
        for nom in input.nominations.iter().flatten() {
            outputs |= 1 << *nom;
        }
        assert_eq!(
            m.cardinality(),
            outputs.count_ones() as usize,
            "case {case}"
        );
        // Every uncontended nomination is granted.
        for (r, nom) in input.nominations.iter().enumerate() {
            if let Some(c) = nom {
                let contenders = input
                    .nominations
                    .iter()
                    .filter(|n| n.as_ref() == Some(c))
                    .count();
                if contenders == 1 {
                    assert_eq!(m.output_of(r), Some(*c as usize), "case {case}");
                }
            }
        }
    }
}

#[test]
fn every_algorithm_is_valid_and_bounded_by_mcm() {
    let mut gen = SimRng::from_seed(0x616c_6c31);
    for case in 0..CASES {
        let input = random_input(&mut gen, 16, 7);
        let rows = input.requests.rows();
        let cols = input.requests.cols();
        let mut rng = SimRng::from_seed(gen.next_u64());
        let upper = mcm::maximum_matching(&input.requests).cardinality();
        for kind in AlgoKind::ALL {
            let m = kind.build(rows, cols).arbitrate(&input, &mut rng);
            assert!(
                m.is_valid_for(&input.requests),
                "case {case}: {} invalid",
                kind.label()
            );
            assert!(
                m.cardinality() <= upper,
                "case {case}: {} beat MCM ({} > {})",
                kind.label(),
                m.cardinality(),
                upper
            );
        }
    }
}

#[test]
fn selector_always_picks_a_requester() {
    use arbitration::policy::{RotaryMode, Selector};
    use arbitration::ports::NETWORK_ROW_MASK;
    let mut gen = SimRng::from_seed(0x7365_6c31);
    for case in 0..CASES {
        let pool = 1 + gen.below((1 << 16) - 1) as u32;
        let rotary = gen.chance(0.5);
        let mode = if rotary {
            RotaryMode::On
        } else {
            RotaryMode::Off
        };
        let mut sel = Selector::new(mode, NETWORK_ROW_MASK, 16);
        for _ in 0..8 {
            let row = sel.select(pool);
            assert!(pool & (1 << row) != 0, "case {case}: non-requester {row}");
            if rotary && pool & NETWORK_ROW_MASK != 0 {
                assert!(
                    NETWORK_ROW_MASK & (1 << row) != 0,
                    "case {case}: rotary ignored a network requester"
                );
            }
        }
    }
}

#[test]
fn matching_row_col_uniqueness_is_structural() {
    let mut gen = SimRng::from_seed(0x756e_6971);
    for case in 0..CASES {
        // Whatever PIM does, no row or column ever appears twice.
        let req = random_matrix(&mut gen, 16, 7);
        let mut rng = SimRng::from_seed(gen.next_u64());
        let m = PimArbiter::converged(req.rows()).arbitrate(&req, &mut rng);
        let mut rows_seen = 0u32;
        let mut cols_seen = 0u32;
        for (r, c) in m.pairs() {
            assert!(rows_seen & (1 << r) == 0, "case {case}");
            assert!(cols_seen & (1 << c) == 0, "case {case}");
            rows_seen |= 1 << r;
            cols_seen |= 1 << c;
        }
    }
}
