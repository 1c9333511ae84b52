//! Golden kernel digests: every arbitration kernel's grants are pinned
//! pair-for-pair over a long seeded sequence of request states.
//!
//! The figure goldens see the kernels only through two-decimal averages
//! and the report goldens only through whole-network runs; this suite
//! checks them at kernel granularity. Each kernel arbitrates the same
//! 512 random 16×7 request / nomination / weight states with **one
//! persistent arbiter** — so grant/accept pointers, least-recently-
//! selected stamps and wave-start offsets carry from call to call — and
//! its **own forked RNG stream**, and every granted `(row, col)` pair is
//! folded into an FNV-1a digest. A reordered random draw, a pointer that
//! advances one call early or a tie broken the other way changes the
//! digest of exactly the kernel at fault.
//!
//! Regenerate (only when intentionally changing a kernel's semantics)
//! with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p arbitration --test kernel_digests
//! ```

use arbitration::prelude::*;
use simcore::SimRng;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/kernels.txt");
const STATES: usize = 512;
const SEED: u64 = 0x6b65_726e; // "kern"

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The shared state sequence: requests over the 21364 wiring at a
/// per-state density from near-empty to saturated, one nomination per
/// requesting row, and a small-range weight on every requested cell so
/// the weighted kernels meet both clear winners and ties.
fn states() -> Vec<ArbitrationInput> {
    let conn = ConnectionMatrix::alpha_21364();
    let mut rng = SimRng::from_seed(SEED);
    (0..STATES)
        .map(|_| {
            let density = rng.below(4); // 0: keep ~1/8 of the wired cells … 3: all
            let mut weights = WeightMatrix::new(conn.rows(), conn.cols());
            let masks: Vec<u32> = (0..conn.rows())
                .map(|row| {
                    let mut mask = conn.row_mask(row);
                    for _ in density..3 {
                        mask &= rng.next_u32();
                    }
                    let mut bits = mask;
                    while bits != 0 {
                        let col = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        weights.set(row, col, 1 + rng.below(6) as u32);
                    }
                    mask
                })
                .collect();
            let nominations = masks
                .iter()
                .map(|&m| (m != 0).then(|| rng.pick_bit(m) as u8))
                .collect();
            ArbitrationInput::new(RequestMatrix::from_rows(masks, conn.cols()), nominations)
                .with_weights(weights)
        })
        .collect()
}

/// One `label digest` line per kernel, in catalogue order.
fn digest_lines() -> Vec<String> {
    let states = states();
    AlgoKind::ALL
        .iter()
        .map(|kind| {
            let label = kind.label();
            let mut arbiter = kind.build(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
            // The stream is keyed by the label, not the list position, so
            // adding a kernel never moves another kernel's draws.
            let stream = label
                .bytes()
                .fold(0u64, |h, b| h.wrapping_mul(131) + b as u64);
            let mut rng = SimRng::from_seed(SEED).fork(stream);
            let mut digest = Fnv::new();
            for input in &states {
                let m = arbiter.arbitrate(input, &mut rng);
                assert!(m.is_valid_for(&input.requests), "{label} invalid");
                for (row, col) in m.pairs() {
                    digest.byte(row as u8);
                    digest.byte(col as u8);
                }
                digest.byte(0xff); // matching boundary
            }
            format!("{label} {:016x}", digest.0)
        })
        .collect()
}

#[test]
fn kernels_match_golden_digests() {
    let lines = digest_lines();
    if std::env::var("GOLDEN_UPDATE").as_deref() == Ok("1") {
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").expect("write kernel digests");
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden/kernels.txt missing — run with GOLDEN_UPDATE=1 to record");
    // Keyed by label so a failure names the drifting kernel.
    for line in &lines {
        let label = line.split(' ').next().expect("label");
        let want = golden
            .lines()
            .find(|l| l.split(' ').next() == Some(label))
            .unwrap_or_else(|| panic!("no golden digest for {label}"));
        assert_eq!(line, want, "kernel digest drifted");
    }
    assert_eq!(
        lines.len(),
        golden.lines().count(),
        "golden kernel count drifted — regenerate with GOLDEN_UPDATE=1"
    );
}
