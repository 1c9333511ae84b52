//! The interconnection network: pipelined routers on a pluggable shape.
//!
//! This crate assembles `router` instances into a network. The paper's
//! network is the 21364's 2D torus (§2.1), but topology, routing
//! function, and deadlock-avoidance scheme are orthogonal axes here:
//!
//! * [`topology`] — [`topology::NetTopology`], the closed `Copy` set of
//!   shapes and the one type that knows the wiring (node count, links,
//!   the feeder relation that returns credits upstream, distances): a
//!   [`topology::Grid`] — the paper's torus when it wraps
//!   ([`topology::Torus::new`]), a 2D mesh when it does not
//!   ([`topology::Mesh::new`]) — or a small-radix
//!   [`topology::FullMesh`];
//! * [`routing`] — [`routing::route_for`], producing the per-hop
//!   [`router::RouteInfo`]: on a grid, minimal-rectangle adaptive
//!   candidates with a dimension-order dateline VC0/VC1 escape (which on
//!   a mesh, where no path wraps, is plain XY routing on VC1), and
//!   VC-less direct-plus-misroute routing on the full mesh — each
//!   pairing deadlock-free by its own argument (DESIGN.md "Topology
//!   axis");
//! * [`sim`] — the network simulator: steps every router on each 1.2 GHz
//!   core-clock edge, transports packets over 0.8 GHz links with three
//!   link-clocks of wire latency, returns credits, and delivers packets to
//!   per-node [`sim::Endpoint`]s — on the calling thread, or with the
//!   network split into contiguous node-range shards stepped in lockstep
//!   on N threads (the caller's among them), bit-for-bit identically;
//! * [`fault`] — the deterministic fault plane: per-link BER corruption,
//!   link flaps, and scheduled or exhaustion-triggered link death, with
//!   CRC/retransmission recovery, fault-aware route masking, and a
//!   forward-progress watchdog — bit-exact across every worker count,
//!   with strictly zero cost when disabled.
//!
//! The traffic side (coherence transactions, MSHRs, §4.2 patterns) lives
//! in the `workload` crate; anything implementing [`sim::Endpoint`] can
//! drive the network. [`NetworkConfig::validate`] is the configuration
//! gate: [`NetworkSim::with_workers`] refuses what it refuses, with the
//! [`ConfigError`]'s message.

mod config;
pub mod fault;
pub mod routing;
pub(crate) mod shard;
pub mod sim;
pub mod topology;

pub use config::ConfigError;
pub use fault::{DeadLinks, FaultConfig, LinkFlap, LinkKill};
pub use routing::route_for;
pub use sim::{
    Endpoint, InjectionOutcome, NetworkConfig, NetworkReport, NetworkSim, NodeCtx, TxnCompletion,
};
pub use topology::{FullMesh, Grid, Mesh, NetTopology, ShardMap, Torus};
