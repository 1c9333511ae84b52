//! Cycle-level model of the Alpha 21364 on-chip router (§2).
//!
//! This crate models one router of the 21364's 2D-torus interconnect at the
//! fidelity the paper's timing study depends on:
//!
//! * eight input ports × two buffer read ports, seven output ports, wired
//!   by the Figure 5 [`arbitration::matrix::ConnectionMatrix`];
//! * 19 virtual channels per input port (three per coherence class plus
//!   one special), with virtual-cut-through, credit-based flow control and
//!   the paper's 316-packet buffer partition ([`vc`]);
//! * the LA → RE → GA arbitration pipeline with per-algorithm latencies and
//!   initiation intervals: SPAA arbitrates in 3 cycles and starts a new
//!   input arbitration every cycle; PIM1 and WFA take 4 cycles and restart
//!   only every 3 ([`timing`], [`arb`]);
//! * per-packet output-port occupancy (2/3/18/19 flits), the 0.8 GHz link
//!   clock alignment of departing flits, and cut-through tail dependencies
//!   ([`output`]);
//! * the anti-starvation old/new coloring that backs the Rotary Rule
//!   ([`antistarve`]).
//!
//! The router is topology-agnostic: the `network` crate computes a
//! [`route::RouteInfo`] for every arriving packet (adaptive candidates in
//! the minimal rectangle, the dimension-order escape hop and its dateline
//! virtual channel) and consumes the [`router::RouterOutput`] events the
//! router emits. That split keeps this crate unit-testable in isolation.

pub mod antistarve;
pub mod arb;
pub mod config;
pub mod entry;
pub mod output;
pub mod packet;
pub mod route;
pub mod router;
pub mod stats;
pub mod timing;
pub mod vc;

pub use config::{ArbAlgorithm, RouterConfig, WeightKind};
pub use packet::{CoherenceClass, Packet, PacketId};
pub use route::{EscapeVc, RouteInfo};
pub use router::{IncomingPacket, Router, RouterOutput};
pub use timing::RouterTiming;
pub use vc::{BufferConfig, VcId};
