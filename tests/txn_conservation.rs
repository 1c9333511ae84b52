//! Transaction conservation: every issued request produces exactly one
//! terminal block response.
//!
//! The driver injects closed-loop traffic for a fixed window, cuts the
//! requester role on every node ([`CoherenceEndpoint::stop_generation`]),
//! and steps until the whole fabric is quiet. At that point every ledger
//! must balance exactly: started == completed transactions, every MSHR
//! released (no entry left in any requester's in-flight book), and no
//! packet still in the network. A lost reply, a duplicate response, or a
//! leaked MSHR anywhere in the three-role state machine breaks one of
//! these equalities — across all three arbiter driver families
//! (pipelined SPAA, windowed iSLIP, weighted iLQF) and both flow shapes.

use alpha21364::prelude::*;

fn assert_conserves(algo: ArbAlgorithm, three_hop: f64, rate: f64, mshrs: u32, seed: u64) {
    let label = format!("{algo} three_hop={three_hop} rate={rate} mshrs={mshrs}");
    let cfg = NetworkConfig {
        topology: Torus::net_4x4().into(),
        router: RouterConfig::alpha_21364(algo),
        seed,
        warmup_cycles: 0,
        measure_cycles: 3_000,

        fault: network::FaultConfig::default(),
    };
    let wl = WorkloadConfig::closed_loop(TrafficPattern::Uniform, rate, mshrs)
        .with_three_hop_fraction(three_hop);
    let nodes = cfg.topology.nodes();
    let endpoints = build_endpoints(&cfg, &wl);
    let mut sim = NetworkSim::new(cfg, endpoints);
    for _ in 0..3_000 {
        sim.step_cycle();
    }
    for node in 0..nodes {
        sim.endpoint_mut(node).stop_generation();
    }

    // Drain horizon: a transaction's round trip is a few hundred cycles,
    // so tens of thousands of quiet cycles means something leaked.
    let mut drained = false;
    for _ in 0..60_000 {
        sim.step_cycle();
        if (0..nodes).all(|n| sim.endpoint(n).is_idle()) {
            drained = true;
            break;
        }
    }
    assert!(
        drained,
        "{label}: transactions still in flight after drain horizon"
    );

    let report = sim.report();
    assert_eq!(
        report.in_flight_packets, 0,
        "{label}: idle endpoints but packets still in the network"
    );
    let mut started = 0u64;
    let mut completed = 0u64;
    for node in 0..nodes {
        let ep = sim.endpoint(node);
        started += ep.stats().transactions_started;
        completed += ep.stats().transactions_completed;
        assert_eq!(
            ep.outstanding_misses(),
            0,
            "{label}: node {node} leaked an MSHR"
        );
    }
    assert!(
        started > 100,
        "{label}: too few transactions to mean anything"
    );
    assert_eq!(
        started, completed,
        "{label}: every issued request must drain to exactly one terminal reply"
    );
}

#[test]
fn conservation_holds_for_spaa_family() {
    // Pipelined driver; pure 2-hop, pure 3-hop, and the paper's mix.
    for three_hop in [0.0, 1.0, 0.3] {
        assert_conserves(ArbAlgorithm::SpaaRotary, three_hop, 0.05, 16, 0xc0_01);
    }
}

#[test]
fn conservation_holds_for_windowed_family() {
    for three_hop in [0.0, 1.0, 0.3] {
        assert_conserves(
            ArbAlgorithm::Islip { iterations: 2 },
            three_hop,
            0.05,
            16,
            0xc0_02,
        );
    }
}

#[test]
fn conservation_holds_for_weighted_family() {
    for three_hop in [0.0, 1.0, 0.3] {
        assert_conserves(
            ArbAlgorithm::Ilqf { iterations: 1 },
            three_hop,
            0.05,
            16,
            0xc0_03,
        );
    }
}

#[test]
fn conservation_holds_under_mshr_starvation_and_saturation() {
    // One MSHR per node (every transaction serialized behind the last)
    // and a saturating offered rate with the full table — the two ends
    // of the self-throttling regime.
    assert_conserves(ArbAlgorithm::SpaaRotary, 0.3, 0.5, 1, 0xc0_04);
    assert_conserves(ArbAlgorithm::SpaaRotary, 0.3, 0.5, 16, 0xc0_05);
}
