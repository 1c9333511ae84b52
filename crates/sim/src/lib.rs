//! Simulation substrate for the Alpha 21364 arbitration study reproduction.
//!
//! This crate plays the role that the Asim framework played for the paper's
//! authors: it provides the pieces every model in the workspace shares,
//! without knowing anything about routers or networks.
//!
//! * [`time`] — integer simulation time. One tick is 1/24 ns so that both
//!   the 1.2 GHz router clock (20 ticks) and the 0.8 GHz link clock
//!   (30 ticks) land on exact integers, as do their doubled variants used by
//!   the paper's 2× pipeline scaling experiment (Figure 11a).
//! * [`clock`] — clock domains.
//! * [`rng`] — deterministic, forkable PCG random-number streams.
//! * [`stats`] — online moments, histograms and counters.
//! * [`bnf`] — Burton-Normal-Form (latency vs delivered-throughput) curves,
//!   the paper's performance metric (§4.3).
//! * [`table`] — plain-text table emission for the figure catalogue.
//! * [`json`] — the one JSON writer behind the committed `BENCH_*.json`.
//! * [`sweep`] — a parallel runner used to farm out injection-rate sweeps.
//! * [`sync`] — a spin barrier for the cycle-locked sharded engine.
//!
//! # Example
//!
//! ```
//! use simcore::time::{Tick, TICKS_PER_NS};
//! use simcore::clock::Clock;
//!
//! let core = Clock::alpha_21364_core();
//! assert_eq!(core.period().as_ticks(), 20); // 1.2 GHz = 0.8333 ns
//! assert!((core.period().as_ns() - 0.8333).abs() < 1e-3);
//! let t = core.edge(3); // time of the third rising edge
//! assert_eq!(t, Tick::new(60));
//! assert_eq!(TICKS_PER_NS, 24);
//! ```

pub mod bnf;
pub mod clock;
pub mod json;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod sync;
pub mod table;
pub mod time;
pub mod wheel;

pub use bnf::{BnfCurve, BnfPoint, ReplicatedBnfCurve, ReplicatedBnfPoint};
pub use rng::SimRng;
pub use time::Tick;
