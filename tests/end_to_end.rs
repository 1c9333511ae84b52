//! End-to-end integration tests across the whole stack: arbitration →
//! router → network → workload, exercised through the facade crate.

use alpha21364::prelude::*;

fn net_config(torus: Grid, algo: ArbAlgorithm, cycles: u64, seed: u64) -> NetworkConfig {
    NetworkConfig {
        topology: torus.into(),
        router: RouterConfig::alpha_21364(algo),
        seed,
        warmup_cycles: cycles / 5,
        measure_cycles: cycles - cycles / 5,
        fault: network::FaultConfig::default(),
    }
}

const ALL_ALGOS: [ArbAlgorithm; 5] = ArbAlgorithm::FIGURE10;

#[test]
fn every_algorithm_moves_coherence_traffic() {
    for algo in ALL_ALGOS {
        let (report, stats) = run_coherence_sim(
            net_config(Torus::net_4x4(), algo, 4000, 1),
            WorkloadConfig::paper(TrafficPattern::Uniform, 0.005),
        );
        assert!(
            stats.transactions_completed > 50,
            "{algo}: only {} transactions",
            stats.transactions_completed
        );
        assert!(report.delivered_flits > 1000, "{algo}");
        assert!(report.avg_latency_ns() > 20.0, "{algo}");
    }
}

#[test]
fn packet_conservation_across_the_stack() {
    // injected == received + in flight, for every algorithm.
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::WfaBase,
        ArbAlgorithm::Pim1,
    ] {
        let cfg = net_config(Torus::net_4x4(), algo, 3000, 2);
        let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.03);
        let endpoints = build_endpoints(&cfg, &wl);
        let mut sim = NetworkSim::new(cfg, endpoints);
        let report = sim.run();
        let received: u64 = (0..16)
            .map(|n| sim.endpoint(n).stats().packets_received)
            .sum();
        assert_eq!(
            report.injected_packets,
            received + report.in_flight_packets,
            "{algo}: conservation violated"
        );
    }
}

#[test]
fn network_drains_after_generation_stops() {
    // Inject for a while, stop, keep simulating: everything must arrive
    // (deadlock freedom in the common case).
    let cfg = NetworkConfig {
        topology: Torus::net_4x4().into(),
        router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
        seed: 3,
        warmup_cycles: 0,
        measure_cycles: 30_000,

        fault: network::FaultConfig::default(),
    };
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.02);
    let endpoints = build_endpoints(&cfg, &wl);
    let mut sim = NetworkSim::new(cfg, endpoints);
    for _ in 0..5_000 {
        sim.step_cycle();
    }
    // Generation continues (endpoints are driven by config), so instead
    // check sustained progress: in-flight population stays bounded and
    // transactions keep completing.
    let mid: u64 = (0..16)
        .map(|n| sim.endpoint(n).stats().transactions_completed)
        .sum();
    for _ in 0..5_000 {
        sim.step_cycle();
    }
    let end: u64 = (0..16)
        .map(|n| sim.endpoint(n).stats().transactions_completed)
        .sum();
    assert!(end > mid + 100, "forward progress stalled: {mid} -> {end}");
}

#[test]
fn adversarial_wrap_traffic_does_not_deadlock() {
    // Tornado traffic concentrates on ring wraps — the classic torus
    // deadlock stressor. Tiny buffers force heavy escape-channel use; the
    // dateline VC0/VC1 discipline must keep everything moving.
    let mut router_cfg = RouterConfig::alpha_21364(ArbAlgorithm::SpaaBase);
    router_cfg.buffers = BufferConfig::scaled(2, 1);
    let cfg = NetworkConfig {
        topology: Torus::net_8x8().into(),
        router: router_cfg,
        seed: 4,
        warmup_cycles: 1000,
        measure_cycles: 9_000,

        fault: network::FaultConfig::default(),
    };
    let wl = WorkloadConfig::paper(TrafficPattern::Tornado, 0.05);
    let (report, stats) = run_coherence_sim(cfg, wl);
    assert!(
        stats.transactions_completed > 500,
        "tornado stalled: {stats:?}"
    );
    assert!(
        report.escape_dispatches > 0,
        "tiny buffers must push packets onto the escape channels"
    );
}

#[test]
fn bit_patterns_run_end_to_end() {
    for pattern in [TrafficPattern::BitReversal, TrafficPattern::PerfectShuffle] {
        let (report, stats) = run_coherence_sim(
            net_config(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 4000, 5),
            WorkloadConfig::paper(pattern, 0.01),
        );
        assert!(stats.transactions_completed > 100, "{pattern}");
        assert!(report.delivered_flits > 2000, "{pattern}");
    }
}

#[test]
fn zero_load_latency_matches_paper_ballpark() {
    // §4.3: "the minimum per-packet latency with a 4x4 network, uniform
    // random distribution of destinations, and a 70/30 mix ... is about
    // 45 ns". Our SPAA model lands in the same range.
    let (report, _) = run_coherence_sim(
        net_config(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 8000, 6),
        WorkloadConfig::paper(TrafficPattern::Uniform, 0.001),
    );
    let lat = report.avg_latency_ns();
    assert!(
        (38.0..62.0).contains(&lat),
        "zero-load latency {lat:.1} ns should be near the paper's ~45 ns"
    );
}

#[test]
fn spaa_beats_window_algorithms_at_zero_load() {
    // The 3-cycle vs 4-cycle arbitration difference (plus per-cycle
    // restart) must show up as lower latency for SPAA.
    let lat = |algo| {
        let (report, _) = run_coherence_sim(
            net_config(Torus::net_8x8(), algo, 6000, 7),
            WorkloadConfig::paper(TrafficPattern::Uniform, 0.001),
        );
        report.avg_latency_ns()
    };
    let spaa = lat(ArbAlgorithm::SpaaBase);
    let wfa = lat(ArbAlgorithm::WfaBase);
    let pim1 = lat(ArbAlgorithm::Pim1);
    assert!(spaa < wfa, "SPAA {spaa:.1} vs WFA {wfa:.1}");
    assert!(spaa < pim1, "SPAA {spaa:.1} vs PIM1 {pim1:.1}");
}

#[test]
fn rotary_protects_throughput_past_saturation() {
    // The §5.2 headline, in miniature: past the saturation point the
    // rotary variants hold delivered throughput, the base variants lose
    // a large fraction of theirs.
    let thr = |algo| {
        let cfg = net_config(Torus::net_8x8(), algo, 14_000, 8);
        let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.06);
        run_coherence_sim(cfg, wl).0.flits_per_router_ns
    };
    let base = thr(ArbAlgorithm::SpaaBase);
    let rotary = thr(ArbAlgorithm::SpaaRotary);
    assert!(
        rotary > base * 1.5,
        "rotary {rotary:.3} should far exceed base {base:.3} in deep saturation"
    );
}

#[test]
fn deterministic_replay_full_stack() {
    let run = |seed| {
        let (report, stats) = run_coherence_sim(
            net_config(Torus::net_4x4(), ArbAlgorithm::WfaRotary, 3000, seed),
            WorkloadConfig::paper(TrafficPattern::Uniform, 0.02),
        );
        (
            report.delivered_packets,
            report.latency.mean().to_bits(),
            stats.transactions_completed,
        )
    };
    assert_eq!(run(42), run(42), "same seed, same simulation");
    assert_ne!(run(42), run(43), "different seeds, different runs");
}

#[test]
fn mshr_scaling_increases_peak_load() {
    // Fig 11b's premise: more outstanding misses means more offered load
    // once the generation rate saturates the MSHR table.
    let thr = |mshrs| {
        let cfg = net_config(Torus::net_4x4(), ArbAlgorithm::SpaaRotary, 6000, 9);
        let wl = WorkloadConfig::closed_loop(TrafficPattern::Uniform, 1.0, mshrs);
        run_coherence_sim(cfg, wl).0.flits_per_router_ns
    };
    let t16 = thr(16);
    let t64 = thr(64);
    assert!(
        t64 >= t16 * 0.95,
        "64 MSHRs ({t64:.3}) should sustain at least 16-MSHR throughput ({t16:.3})"
    );
}

#[test]
fn scaled_2x_pipeline_reduces_wall_clock_latency() {
    // Doubling the clock (with doubled pipeline depth) should cut
    // zero-load latency in wall-clock terms for the pipelined SPAA.
    let lat = |scaled: bool| {
        let router = if scaled {
            RouterConfig::scaled_2x(ArbAlgorithm::SpaaRotary)
        } else {
            RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary)
        };
        let cfg = NetworkConfig {
            topology: Torus::net_8x8().into(),
            router,
            seed: 10,
            warmup_cycles: 1000,
            measure_cycles: 5000,

            fault: network::FaultConfig::default(),
        };
        run_coherence_sim(cfg, WorkloadConfig::paper(TrafficPattern::Uniform, 0.001))
            .0
            .avg_latency_ns()
    };
    let base = lat(false);
    let scaled = lat(true);
    assert!(
        scaled < base,
        "2x clock should lower latency: {scaled:.1} vs {base:.1} ns"
    );
}
