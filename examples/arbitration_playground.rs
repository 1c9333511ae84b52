//! The Figure 2 arbitration-collision demonstration, plus a live
//! comparison of every algorithm on the same router state.
//!
//! Recreates the paper's motivating example: eight input ports whose
//! oldest packets all target output port 3. A naïve oldest-packet-first
//! arbiter (OPF) delivers one packet; a maximum matching delivers seven.
//! Then it loads a random saturated router and shows how many matches
//! each §5.1 algorithm finds on the *identical* state.
//!
//! ```text
//! cargo run --release --example arbitration_playground
//! ```

use alpha21364::prelude::*;

fn main() {
    figure2();
    println!();
    same_state_comparison();
}

/// Figure 2: the OPF collision.
fn figure2() {
    println!("=== Figure 2: the arbitration collision ===\n");
    // Column 2 of Figure 2: every input port's oldest packet wants
    // output 3. Columns 3-4 hold younger packets with other choices.
    let waiting: [&[u8]; 8] = [
        &[3, 2, 1],
        &[3, 2, 1],
        &[3, 2, 1],
        &[3, 2, 1],
        &[3, 6, 1],
        &[3, 2, 0],
        &[3, 2, 4],
        &[3, 2, 5],
    ];
    // OPF nominates each port's oldest packet.
    let oldest: Vec<Option<u8>> = waiting.iter().map(|q| Some(q[0])).collect();
    let mut rng = SimRng::from_seed(2002);
    let mut opf = OpfArbiter::new(8, 7);
    let opf_matches = opf.arbitrate(&oldest, &mut rng).cardinality();

    // The full request sets (any waiting packet may be picked).
    let mut req = RequestMatrix::new(8, 7);
    for (port, q) in waiting.iter().enumerate() {
        for &out in *q {
            req.set(port, out as usize);
        }
    }
    let best = mcm::maximum_matching(&req).cardinality();

    println!("oldest-packet-first (OPF): {opf_matches} packet delivered");
    println!("maximum matching (MCM)   : {best} packets deliverable");
    println!("\"output port 3 can deliver only one packet\" — everything else collides.");
}

/// All algorithms on one identical loaded-router state.
fn same_state_comparison() {
    println!("=== One saturated router, every algorithm ===\n");
    // Build one dense random request state over the real 16x7 matrix.
    let conn = ConnectionMatrix::alpha_21364();
    let mut rng = SimRng::from_seed(5);
    let mut req = RequestMatrix::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
    let mut noms: Vec<Option<u8>> = vec![None; NUM_ARBITER_ROWS];
    for (row, nom) in noms.iter_mut().enumerate() {
        let wired = conn.row_mask(row);
        // A saturated entry table requests most of what it is wired for.
        let mask = wired & rng.pick_dense();
        req.set_row_mask(row, mask);
        // Single-nomination view: one nomination per input *port* (its
        // oldest packet), through one read port — SPAA's §3.3 behaviour.
        if row % 2 == 0 && mask != 0 {
            *nom = Some(rng.pick_bit(mask) as u8);
        }
    }
    let input = ArbitrationInput::new(req, noms);

    println!(
        "requests: {} set cells across 16 rows x 7 outputs",
        input.requests.request_count()
    );
    // The state carries no weight plane, so the weighted kernels run on
    // unit weights (their round-robin tie-break).
    for kind in AlgoKind::ALL {
        let mut algo = kind.build(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
        let mut avg = 0.0;
        const TRIALS: usize = 200;
        for t in 0..TRIALS {
            let mut r = SimRng::from_seed(t as u64);
            avg += algo.arbitrate(&input, &mut r).cardinality() as f64;
        }
        println!(
            "{:>10}: {:.2} matches (avg of {TRIALS} trials)",
            kind.label(),
            avg / TRIALS as f64
        );
    }
    println!("\nThe §5.1 ordering — MCM ≈ WFA ≈ PIM > PIM1 > SPAA ≈ OPF — on one state.");
}

/// Helper: a dense random 7-bit mask (most bits set).
trait DenseMask {
    fn pick_dense(&mut self) -> u32;
}

impl DenseMask for SimRng {
    fn pick_dense(&mut self) -> u32 {
        // OR of two uniform draws: each bit set with probability 3/4.
        (self.next_u32() | self.next_u32()) & 0x7f
    }
}
