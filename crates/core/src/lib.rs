//! Crossbar arbitration algorithms from the Alpha 21364 router study.
//!
//! This crate implements the paper's contribution and all of its baselines
//! as pure, reusable matching algorithms over a *connection matrix* — the
//! representation the paper itself uses (§3, Figure 5): rows are input-port
//! arbiters (the 21364 has 16: eight input ports × two buffer read ports)
//! and columns are output-port arbiters (seven).
//!
//! | Algorithm | Module | Paper section |
//! |-----------|--------|---------------|
//! | SPAA (Simple Pipelined Arbitration Algorithm), base & rotary | [`spaa`] | §3.3 |
//! | PIM (Parallel Iterative Matching), any iteration count; PIM1 | [`pim`] | §3.1 |
//! | WFA (Wave-Front Arbiter), wrapped & plain, base & rotary | [`wfa`] | §3.2 |
//! | MCM (Maximal Cardinality Matching upper bound) | [`mcm`] | §3 |
//! | OPF (naïve oldest-packet-first strawman) | [`opf`] | Figure 2 |
//! | iSLIP (iterative round-robin with slip, 1..n iterations) & plain round-robin matcher | [`islip`] | extension |
//! | iLQF / iOCF (iterative longest-queue-first / oldest-cell-first, weighted) | [`lqf`] | extension |
//! | MWM (exact maximum-weight matching oracle, Hungarian) | [`mwm`] | extension |
//!
//! PIM, iSLIP and the weighted pair are pick policies over the one
//! grant/accept loop in [`round`]; [`catalogue::AlgoKind`] names, labels
//! and builds every kernel behind the [`arbiter::Arbiter`] trait.
//!
//! Output-port selection policies (random, round-robin, least-recently
//! selected, and the Rotary Rule of §3.4) live in [`policy`]. Requests are
//! boolean bitmasks ([`matrix::RequestMatrix`]); the weighted algorithms
//! additionally read a [`matrix::WeightMatrix`] plane (queue depth or
//! head-of-line age) carried alongside the bitmasks, which leaves every
//! unweighted algorithm's path untouched.
//!
//! The crate knows nothing about time: the timing behaviour of each
//! algorithm (SPAA's 3-cycle pipelined arbitration vs PIM1/WFA's 4-cycle,
//! once-every-3-cycles arbitration) is modelled by the `router` crate on
//! top of these kernels.
//!
//! # Example
//!
//! ```
//! use arbitration::prelude::*;
//!
//! // Three input arbiters all want output 0; one also wants output 1.
//! let mut req = RequestMatrix::new(3, 2);
//! req.set(0, 0);
//! req.set(1, 0);
//! req.set(2, 0);
//! req.set(2, 1);
//!
//! let matching = mcm::maximum_matching(&req);
//! assert_eq!(matching.cardinality(), 2); // e.g. 0->0 and 2->1
//! assert!(matching.is_valid_for(&req));
//! ```

pub mod arbiter;
pub mod catalogue;
pub mod islip;
pub mod lqf;
pub mod matching;
pub mod matrix;
pub mod mcm;
pub mod mwm;
pub mod opf;
pub mod pim;
pub mod policy;
pub mod ports;
pub mod round;
pub mod spaa;
pub mod wfa;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::arbiter::{Arbiter, ArbitrationInput};
    pub use crate::catalogue::{AlgoKind, WeightKind};
    pub use crate::islip::IslipArbiter;
    pub use crate::lqf::LqfArbiter;
    pub use crate::matrix::{ConnectionMatrix, RequestMatrix, WeightMatrix};
    pub use crate::mcm;
    pub use crate::mwm;
    pub use crate::opf::OpfArbiter;
    pub use crate::pim::PimArbiter;
    pub use crate::ports::{InputPort, OutputPort, NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS};
    pub use crate::spaa::SpaaArbiter;
    pub use crate::wfa::WfaArbiter;
}
