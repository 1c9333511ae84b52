//! # alpha21364 — the Alpha 21364 router arbitration study, reproduced
//!
//! This workspace reproduces Mukherjee, Silla, Bannon, Emer, Lang & Webb,
//! *"A Comparative Study of Arbitration Algorithms for the Alpha 21364
//! Pipelined Router"* (ASPLOS 2002): the SPAA arbitration algorithm and
//! Rotary Rule that shipped in the Alpha 21364's 1.2 GHz on-chip router,
//! evaluated against PIM, PIM1, WFA and the MCM upper bound on a
//! cycle-level model of the 21364's 2D-torus interconnect.
//!
//! The facade crate re-exports the workspace layers:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`arbitration`] | the matching algorithms over the 16×7 connection matrix |
//! | [`router`] | the pipelined router: VCs, buffers, credits, LA/RE/GA timing |
//! | [`network`] | pluggable topologies (torus, mesh, full mesh), routing, the fault plane, and the one simulator (`NetworkSim`, any worker count) |
//! | [`workload`] | §4.2 coherence traffic: MSHRs, patterns, transaction mix |
//! | [`standalone`] | the §5.1 single-router matching experiments |
//! | [`simcore`] | clocks, deterministic RNG, statistics, sweep plumbing |
//!
//! # Quickstart
//!
//! Simulate a 4×4 torus under uniform coherence traffic with SPAA and
//! read off the paper's performance metrics:
//!
//! ```
//! use alpha21364::prelude::*;
//!
//! let net = NetworkConfig {
//!     topology: Torus::net_4x4().into(),
//!     router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaBase),
//!     seed: 42,
//!     warmup_cycles: 500,
//!     measure_cycles: 2000,
//!     fault: FaultConfig::default(),
//! };
//! let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.005);
//! let (report, stats) = run_coherence_sim(net, wl);
//!
//! assert!(report.delivered_packets > 0);
//! assert!(report.avg_latency_ns() > 0.0);
//! assert!(stats.transactions_completed > 0);
//! ```
//!
//! The `bench` crate's binaries regenerate every figure of the paper's
//! evaluation; see DESIGN.md for the experiment index.

pub use arbitration;
pub use network;
pub use router;
pub use simcore;
pub use standalone;
pub use workload;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use arbitration::prelude::*;
    pub use network::{
        DeadLinks, Endpoint, FaultConfig, FullMesh, Grid, InjectionOutcome, LinkFlap, LinkKill,
        Mesh, NetTopology, NetworkConfig, NetworkReport, NetworkSim, NodeCtx, ShardMap, Torus,
        TxnCompletion,
    };
    pub use router::{
        ArbAlgorithm, BufferConfig, CoherenceClass, EscapeVc, IncomingPacket, Packet, RouteInfo,
        Router, RouterConfig, RouterOutput, RouterTiming, VcId, WeightKind,
    };
    pub use simcore::{BnfCurve, BnfPoint, ReplicatedBnfCurve, ReplicatedBnfPoint, SimRng, Tick};
    pub use standalone::{
        find_mcm_saturation_load, run_standalone, AlgoKind, StandaloneConfig, StandaloneResult,
    };
    pub use workload::{
        build_endpoints, run_coherence_sim, BurstConfig, CoherenceEndpoint, EndpointStats,
        HotspotTargets, TrafficPattern, TxnTag, WorkloadConfig,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_links_all_layers() {
        use crate::prelude::*;
        let _ = ConnectionMatrix::alpha_21364();
        let _ = Torus::net_8x8();
        let _ = NetTopology::from(Mesh::new(4, 4));
        let _ = NetTopology::from(FullMesh::new(5));
        let _ = RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary);
        let _ = WorkloadConfig::paper(TrafficPattern::Uniform, 0.01);
        let _ = StandaloneConfig::default();
    }
}
