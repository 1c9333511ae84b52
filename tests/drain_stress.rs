//! Deadlock-freedom stress: saturate every topology, stop injecting,
//! and require the network to drain completely.
//!
//! Each (topology, routing) pair carries its own deadlock-freedom
//! argument (DESIGN.md "Topology axis"): the torus datelines its escape
//! rings, the mesh's XY dimension-order escape is acyclic without any
//! VC switch, and the full mesh's direct links form a one-hop escape
//! network. A cycle in any of those constructions would show up here as
//! packets still in flight long after the sources go quiet — so this
//! suite injects far past the saturation knee (every source queue
//! backpressured), cuts injection, and asserts `in_flight_packets == 0`
//! within a bounded horizon, on one thread and sharded across several
//! worker counts.

use alpha21364::prelude::*;
use router::packet::PacketId;

/// A firehose source: attempts one uniform-random packet every cycle
/// (≈10–20× the saturation rate of these networks) for the first
/// `inject_cycles` cycles, then goes silent forever.
struct Firehose {
    node: u16,
    nodes: u16,
    inject_cycles: u64,
    cycle: u64,
    rng: SimRng,
    seq: u64,
    delivered: u64,
}

impl Firehose {
    fn fleet(topology: NetTopology, inject_cycles: u64, seed: u64) -> Vec<Firehose> {
        let root = SimRng::from_seed(seed);
        (0..topology.nodes())
            .map(|node| Firehose {
                node,
                nodes: topology.nodes(),
                inject_cycles,
                cycle: 0,
                rng: root.fork(node as u64),
                seq: 0,
                delivered: 0,
            })
            .collect()
    }
}

impl Endpoint for Firehose {
    fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
        self.cycle += 1;
        if self.cycle > self.inject_cycles || self.nodes < 2 {
            return;
        }
        // Uniform over the other nodes, like the workload's pattern.
        let k = self.rng.below(self.nodes as usize - 1) as u16;
        let dest = if k >= self.node { k + 1 } else { k };
        let packet = Packet::new(
            PacketId((self.node as u64) << 32 | self.seq),
            CoherenceClass::Request,
            self.node,
            dest,
            ctx.now(),
            0,
        );
        // Saturation by construction: when the source VC is full the
        // injection is simply lost — the pressure on the network stays
        // at "every buffer the source can reach is full".
        if ctx.inject(InputPort::Cache, packet) == InjectionOutcome::Accepted {
            self.seq += 1;
        }
    }

    fn on_delivered(&mut self, _packet: &Packet, _now: Tick) -> Option<TxnCompletion> {
        self.delivered += 1;
        None
    }
}

/// Injects at saturation for a third of the horizon, then requires full
/// drain by the end: no packet may still be in flight, and traffic must
/// actually have flowed.
fn assert_drains(topology: NetTopology, algo: ArbAlgorithm, workers: usize) {
    const HORIZON: u64 = 18_000;
    const INJECT: u64 = 6_000;
    let cfg = NetworkConfig {
        topology,
        router: RouterConfig::alpha_21364(algo),
        seed: 0xd4a1,
        warmup_cycles: 0,
        measure_cycles: HORIZON,
        // Hang-proofing: if an arbitration or escape-path regression ever
        // wedges the drain, the forward-progress watchdog fails the test
        // with a per-router diagnostic dump instead of hanging the suite.
        // 4 000 cycles of zero delivery with packets in flight is far
        // beyond anything these saturated-but-live networks exhibit.
        fault: network::FaultConfig {
            watchdog_cycles: Some(4_000),
            ..Default::default()
        },
    };
    let label = format!("{topology} {algo} workers={workers}");
    let endpoints = Firehose::fleet(topology, INJECT, 0xf1e5);
    let mut sim = NetworkSim::with_workers(cfg, endpoints, workers);
    let report = sim.run();
    let (mut injected, mut delivered) = (0u64, 0u64);
    for node in 0..topology.nodes() {
        injected += sim.endpoint(node).seq;
        delivered += sim.endpoint(node).delivered;
    }
    assert!(
        injected > 100,
        "{label}: the firehose must actually saturate (injected {injected})"
    );
    assert_eq!(
        delivered, injected,
        "{label}: every injected packet must eventually arrive"
    );
    assert_eq!(
        report.in_flight_packets,
        0,
        "{label}: network must drain fully within {} post-injection cycles\n{}",
        HORIZON - INJECT,
        sim.diagnostic_dump()
    );
}

fn shapes() -> [NetTopology; 3] {
    [
        Torus::net_4x4().into(),
        Mesh::new(4, 4).into(),
        FullMesh::new(5).into(),
    ]
}

#[test]
fn saturated_networks_drain_on_the_single_threaded_engine() {
    for topology in shapes() {
        assert_drains(topology, ArbAlgorithm::SpaaRotary, 1);
    }
}

#[test]
fn saturated_networks_drain_on_the_sharded_engine() {
    for topology in shapes() {
        for workers in [2, 3] {
            assert_drains(topology, ArbAlgorithm::SpaaRotary, workers);
        }
    }
}

#[test]
fn saturated_networks_drain_under_windowed_arbiters() {
    // The windowed drivers (PIM1, iSLIP) share the escape machinery but
    // grant through a different arbiter pipeline; drain must not depend
    // on the arbiter.
    for topology in shapes() {
        assert_drains(topology, ArbAlgorithm::Pim1, 1);
        assert_drains(topology, ArbAlgorithm::Islip { iterations: 2 }, 2);
    }
}
