//! The facade crate: the workspace layers re-exported under one name, a
//! prelude for examples and the root `tests/`, and — below — the README,
//! whose code block is this crate's doc-test.
#![doc = include_str!("../README.md")]

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
        ConfigError, Endpoint, FaultConfig, FullMesh, Grid, InjectionOutcome, LinkFlap, LinkKill,
        Mesh, NetTopology, NetworkConfig, NetworkReport, NetworkSim, NodeCtx, Torus, TxnCompletion,
    };
    pub use router::{
        ArbAlgorithm, BufferConfig, CoherenceClass, Packet, Router, RouterConfig, RouterTiming,
    };
    pub use simcore::{BnfCurve, SimRng, Tick};
    pub use standalone::{find_mcm_saturation_load, run_standalone, AlgoKind, StandaloneConfig};
    pub use workload::{
        build_endpoints, run_coherence_sim, BurstConfig, CoherenceEndpoint, HotspotTargets,
        TrafficPattern, WorkloadConfig,
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
