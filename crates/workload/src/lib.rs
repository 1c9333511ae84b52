//! Synthetic coherence workloads (§4.2).
//!
//! The paper drives its timing model with synthetic traffic shaped like
//! directory-protocol coherence activity:
//!
//! * **Transaction mix** — 70% two-coherence-hop transactions (a 3-flit
//!   request answered by a 19-flit block response) and 30% three-hop
//!   transactions (request → 3-flit forward → block response);
//! * **Destination patterns** — uniform random, bit-reversal and
//!   perfect-shuffle over the processor bit-coordinates;
//! * **Closed-loop limiting** — each processor supports at most 16
//!   outstanding cache misses (64 in the Figure 11b scaling study), which
//!   naturally bounds the offered load;
//! * **Latencies** — 73 ns for a memory response, 25 cycles for the
//!   on-chip L2 (§4.1).
//!
//! [`endpoint::CoherenceEndpoint`] implements `network::Endpoint` and
//! plays all three protocol roles (requester, home, owner) for its node.

pub mod endpoint;
pub mod pattern;
pub mod txn;

pub use endpoint::{BurstConfig, CoherenceEndpoint, EndpointStats, WorkloadConfig};
pub use pattern::{HotspotTargets, TrafficPattern};
pub use txn::TxnTag;

use network::{NetworkConfig, NetworkSim};
use simcore::SimRng;

/// Builds one coherence endpoint per node of `net`.
///
/// # Panics
///
/// Panics with the [`network::ConfigError`]'s message when
/// [`WorkloadConfig::validate`] refuses the pair.
pub fn build_endpoints(net: &NetworkConfig, wl: &WorkloadConfig) -> Vec<CoherenceEndpoint> {
    if let Err(e) = wl.validate(net) {
        panic!("{e}");
    }
    let root = SimRng::from_seed(net.seed ^ 0x5eed_f00d);
    (0..net.topology.nodes())
        .map(|node| CoherenceEndpoint::new(node, net.topology, wl.clone(), root.fork(node as u64)))
        .collect()
}

/// Convenience: builds and runs a coherence-driven simulation on the
/// calling thread, returning the network report and aggregate endpoint
/// statistics.
pub fn run_coherence_sim(
    net: NetworkConfig,
    wl: WorkloadConfig,
) -> (network::NetworkReport, EndpointStats) {
    let endpoints = build_endpoints(&net, &wl);
    let nodes = net.topology.nodes();
    let mut sim = NetworkSim::new(net, endpoints);
    let report = sim.run();
    let mut stats = EndpointStats::default();
    for node in 0..nodes {
        stats.merge(sim.endpoint(node).stats());
    }
    (report, stats)
}
