//! The idle-skip engine must be *bit-for-bit* equivalent to stepping every
//! router on every core-clock edge.
//!
//! Property: for any (seed, injection rate, arbitration algorithm), the
//! same coherence simulation run with idle-skip on and off produces the
//! identical report — delivered-packet and flit counts, the exact latency
//! statistics (compared on the raw f64 bit patterns, so even a different
//! floating-point accumulation order would fail), the full latency
//! histogram, every aggregate arbitration counter, and the same in-flight
//! population at the final cycle. This is what makes the fast path safe to
//! leave on by default.

use alpha21364::prelude::*;

fn run_workload(
    seed: u64,
    wl: &WorkloadConfig,
    algo: ArbAlgorithm,
    cycles: u64,
    idle_skip: bool,
) -> (NetworkReport, u64) {
    let cfg = NetworkConfig {
        topology: Torus::net_4x4().into(),
        router: RouterConfig::alpha_21364(algo),
        seed,
        warmup_cycles: cycles / 5,
        measure_cycles: cycles - cycles / 5,

        fault: network::FaultConfig::default(),
    };
    let endpoints = workload::build_endpoints(&cfg, wl);
    let mut sim = NetworkSim::new(cfg, endpoints);
    sim.set_idle_skip(idle_skip);
    let report = sim.run();
    (report, sim.skipped_router_steps())
}

fn run(
    seed: u64,
    rate: f64,
    algo: ArbAlgorithm,
    cycles: u64,
    idle_skip: bool,
) -> (NetworkReport, u64) {
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, rate);
    run_workload(seed, &wl, algo, cycles, idle_skip)
}

#[test]
fn idle_skip_is_bit_for_bit_equivalent() {
    // Every timed configuration (pipelined SPAA, the windowed PIM1/WFA —
    // base and rotary — the iSLIP and weighted families, both ablations)
    // across seeds and load levels from near-idle to saturation.
    for algo in ArbAlgorithm::ALL {
        for (seed, rate) in [(1u64, 0.002), (2, 0.02), (3, 0.1)] {
            let label = format!("{algo} seed={seed} rate={rate}");
            let (off, skipped_off) = run(seed, rate, algo, 3_000, false);
            let (on, skipped_on) = run(seed, rate, algo, 3_000, true);
            assert_eq!(skipped_off, 0, "{label}: disabled mode must not skip");
            off.assert_bit_identical(&on, &label);
            // The fast path must actually be fast at low load, otherwise
            // this test proves equivalence of nothing.
            if rate <= 0.002 {
                let total_steps = 3_000u64 * 16;
                assert!(
                    skipped_on > total_steps / 4,
                    "{label}: only {skipped_on}/{total_steps} steps skipped at near-idle load"
                );
            }
        }
    }
}

#[test]
fn idle_skip_is_bit_for_bit_equivalent_under_hotspot_traffic() {
    // The scenario engine's spatial axis: concentrated destinations
    // change *which* routers idle (cold-corner routers sleep while the
    // hot region churns), so the wake protocol is exercised on a very
    // asymmetric schedule. Pipelined and windowed drivers both covered.
    let hotspot = TrafficPattern::Hotspot {
        targets: HotspotTargets::new(&[5, 10]),
        fraction: 0.35,
    };
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::Pim1,
        ArbAlgorithm::Islip { iterations: 2 },
    ] {
        for (seed, rate) in [(21u64, 0.002), (22, 0.03)] {
            let label = format!("hotspot {algo} seed={seed} rate={rate}");
            let wl = WorkloadConfig::paper(hotspot, rate);
            let (off, _) = run_workload(seed, &wl, algo, 3_000, false);
            let (on, skipped_on) = run_workload(seed, &wl, algo, 3_000, true);
            off.assert_bit_identical(&on, &label);
            if rate <= 0.002 {
                assert!(
                    skipped_on > 3_000 * 16 / 4,
                    "{label}: hotspot near-idle load must still skip (got {skipped_on})"
                );
            }
        }
    }
}

#[test]
fn idle_skip_is_bit_for_bit_equivalent_under_bursty_traffic() {
    // The scenario engine's temporal axis: ON/OFF phases make routers
    // oscillate between dead-idle (whole OFF windows skippable) and
    // 5×-rate bursts — the worst case for wake-tick bookkeeping. The
    // endpoint phase machine draws from its per-node stream every cycle
    // regardless of skip state, which is exactly the cadence contract
    // this pins.
    let burst = BurstConfig::new(50.0, 200.0);
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::WfaRotary,
        ArbAlgorithm::Islip { iterations: 1 },
    ] {
        for (seed, rate) in [(31u64, 0.002), (32, 0.02)] {
            let label = format!("bursty {algo} seed={seed} rate={rate}");
            let wl = WorkloadConfig::paper(TrafficPattern::Uniform, rate).with_burst(burst);
            let (off, skipped_off) = run_workload(seed, &wl, algo, 3_000, false);
            let (on, skipped_on) = run_workload(seed, &wl, algo, 3_000, true);
            assert_eq!(skipped_off, 0, "{label}: disabled mode must not skip");
            off.assert_bit_identical(&on, &label);
            if rate <= 0.002 {
                // OFF phases dominate (duty 20%), so the skip rate must
                // stay high even though bursts wake whole neighbourhoods.
                assert!(
                    skipped_on > 3_000 * 16 / 4,
                    "{label}: bursty near-idle load must still skip (got {skipped_on})"
                );
            }
        }
    }
}

#[test]
fn idle_skip_equivalence_holds_under_combined_hotspot_bursty() {
    // Both scenario axes at once, pushed to the saturation knee.
    let wl = WorkloadConfig::paper(
        TrafficPattern::Hotspot {
            targets: HotspotTargets::new(&[0, 5, 10, 15]),
            fraction: 0.5,
        },
        0.04,
    )
    .with_burst(BurstConfig::new(30.0, 120.0));
    let (off, _) = run_workload(41, &wl, ArbAlgorithm::SpaaRotary, 4_000, false);
    let (on, _) = run_workload(41, &wl, ArbAlgorithm::SpaaRotary, 4_000, true);
    off.assert_bit_identical(&on, "hotspot+bursty stress");
}

#[test]
fn idle_skip_equivalence_holds_after_drain_engagement() {
    // Push WFA rotary hard enough to engage anti-starvation drain mode
    // (drain state must park the router awake until released).
    let (off, _) = run(7, 0.4, ArbAlgorithm::WfaRotary, 4_000, false);
    let (on, _) = run(7, 0.4, ArbAlgorithm::WfaRotary, 4_000, true);
    off.assert_bit_identical(&on, "drain stress");
}

#[test]
fn idle_skip_equivalence_on_mesh_and_full_mesh() {
    // Idle-skip's wake bookkeeping must be identical when edge routers
    // have unwired ports (mesh) and when credits return along entry
    // ports that are not the geometric opposite (full mesh).
    let run_shape = |topology: NetTopology, idle_skip: bool| {
        let cfg = NetworkConfig {
            topology,
            router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
            seed: 17,
            warmup_cycles: 500,
            measure_cycles: 2_500,

            fault: network::FaultConfig::default(),
        };
        let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.01);
        let endpoints = workload::build_endpoints(&cfg, &wl);
        let mut sim = NetworkSim::new(cfg, endpoints);
        sim.set_idle_skip(idle_skip);
        sim.run()
    };
    for topology in [
        NetTopology::from(Mesh::new(4, 4)),
        NetTopology::from(FullMesh::new(5)),
    ] {
        let label = format!("{topology} idle-skip");
        run_shape(topology, false).assert_bit_identical(&run_shape(topology, true), &label);
    }
}

#[test]
fn idle_skip_equivalence_holds_with_matching_weight_oracle() {
    // The per-window Hungarian oracle observes the same snapshots the
    // kernels arbitrate on, so its counters must replay identically when
    // idle windows are skipped — including for unweighted kernels, whose
    // snapshot weights are only populated when the oracle is engaged.
    for algo in [
        ArbAlgorithm::Ilqf { iterations: 1 },
        ArbAlgorithm::Iocf { iterations: 1 },
        ArbAlgorithm::Islip { iterations: 2 },
    ] {
        let run_measured = |idle_skip: bool| {
            let mut router = RouterConfig::alpha_21364(algo);
            router.measure_matching_weight = true;
            let cfg = NetworkConfig {
                topology: Torus::net_4x4().into(),
                router,
                seed: 51,
                warmup_cycles: 600,
                measure_cycles: 2_400,

                fault: network::FaultConfig::default(),
            };
            let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.03);
            let endpoints = workload::build_endpoints(&cfg, &wl);
            let mut sim = NetworkSim::new(cfg, endpoints);
            sim.set_idle_skip(idle_skip);
            sim.run()
        };
        let label = format!("{algo} oracle");
        let off = run_measured(false);
        let on = run_measured(true);
        off.assert_bit_identical(&on, &label);
        assert!(off.matched_weight > 0, "{label}: oracle saw no windows");
        assert!(
            off.mwm_weight >= off.matched_weight,
            "{label}: oracle bound violated"
        );
    }
}

#[test]
fn idle_skip_equivalence_for_closed_loop_drivers() {
    // The closed-loop driver: a tight MSHR cap makes generation depend
    // on reply arrival times, so any idle-skip divergence in delivery
    // timing would immediately desynchronize the RNG draw stream — and
    // the per-transaction latency stats compare on raw f64 bits.
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::Pim1,
        ArbAlgorithm::Islip { iterations: 2 },
        ArbAlgorithm::Ilqf { iterations: 2 },
    ] {
        for (seed, rate, mshrs) in [(61u64, 0.005, 1), (62, 0.05, 4), (63, 0.2, 16)] {
            let label = format!("closed loop {algo} seed={seed} rate={rate} mshrs={mshrs}");
            let wl = WorkloadConfig::closed_loop(TrafficPattern::Uniform, rate, mshrs);
            let (off, skipped_off) = run_workload(seed, &wl, algo, 3_000, false);
            let (on, _) = run_workload(seed, &wl, algo, 3_000, true);
            assert_eq!(skipped_off, 0, "{label}: disabled mode must not skip");
            off.assert_bit_identical(&on, &label);
            assert!(off.completed_txns > 0, "{label}: no transactions measured");
            assert!(
                off.avg_txn_latency_ns() > off.avg_latency_ns(),
                "{label}: a whole transaction cannot be faster than one packet hop"
            );
        }
    }
}

#[test]
fn idle_skip_equivalence_for_closed_loop_three_hop_extremes() {
    // All-two-hop and all-three-hop mixes drive different reply paths
    // (home-direct vs owner-forwarded) through the wake bookkeeping.
    for three_hop in [0.0, 1.0] {
        let wl = WorkloadConfig::closed_loop(TrafficPattern::Uniform, 0.02, 8)
            .with_three_hop_fraction(three_hop);
        let label = format!("closed loop three_hop={three_hop}");
        let (off, _) = run_workload(71, &wl, ArbAlgorithm::SpaaRotary, 3_000, false);
        let (on, _) = run_workload(71, &wl, ArbAlgorithm::SpaaRotary, 3_000, true);
        off.assert_bit_identical(&on, &label);
        assert!(off.completed_txns > 0, "{label}: no transactions measured");
    }
}

#[test]
fn idle_skip_equivalence_on_scaled_pipeline() {
    // The 2× pipeline halves the core period: catch-up arithmetic must
    // not assume the 20-tick base clock.
    let cfg = |idle_skip: bool| {
        let cfg = NetworkConfig {
            topology: Torus::net_4x4().into(),
            router: RouterConfig::scaled_2x(ArbAlgorithm::SpaaRotary),
            seed: 11,
            warmup_cycles: 500,
            measure_cycles: 2_500,

            fault: network::FaultConfig::default(),
        };
        let wl = WorkloadConfig::paper(TrafficPattern::BitReversal, 0.01);
        let endpoints = workload::build_endpoints(&cfg, &wl);
        let mut sim = NetworkSim::new(cfg, endpoints);
        sim.set_idle_skip(idle_skip);
        sim.run()
    };
    cfg(false).assert_bit_identical(&cfg(true), "scaled 2x");
}

/// Every fault class at once: per-flit corruption, geometric link flaps,
/// one scheduled mid-run kill, and a seeded boot-time dead fraction.
fn fault_storm() -> FaultConfig {
    FaultConfig {
        ber: 2e-3,
        flap: Some(LinkFlap::new(400.0, 40.0)),
        kill_links: vec![LinkKill {
            node: 5,
            port: OutputPort::East,
            at_cycle: 1_000,
        }],
        dead_link_fraction: 0.05,
        ..FaultConfig::default()
    }
}

fn run_faulted(seed: u64, rate: f64, algo: ArbAlgorithm, idle_skip: bool) -> (NetworkReport, u64) {
    let cycles = 4_000u64;
    let cfg = NetworkConfig {
        topology: Torus::net_4x4().into(),
        router: RouterConfig::alpha_21364(algo),
        seed,
        warmup_cycles: cycles / 5,
        measure_cycles: cycles - cycles / 5,
        fault: fault_storm(),
    };
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, rate);
    let endpoints = workload::build_endpoints(&cfg, &wl);
    let mut sim = NetworkSim::new(cfg, endpoints);
    sim.set_idle_skip(idle_skip);
    let report = sim.run();
    (report, sim.skipped_router_steps())
}

#[test]
fn idle_skip_equivalence_under_fault_storms() {
    // Retransmit timers park between cycles on the fault plane's wheel,
    // so the idle-skip fast path must treat a pending NACK retry exactly
    // like any other future wake: skipping past a due retransmission
    // would shift a CRC draw and desynchronize every later fault event.
    // Corruption, flaps, a mid-run kill and boot-time dead links are all
    // active at once; the fault counters compare inside
    // assert_bit_identical.
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::Islip { iterations: 2 },
    ] {
        for (seed, rate) in [(51u64, 0.002), (52, 0.03)] {
            let label = format!("fault storm {algo} seed={seed} rate={rate}");
            let (off, skipped_off) = run_faulted(seed, rate, algo, false);
            let (on, _) = run_faulted(seed, rate, algo, true);
            assert_eq!(skipped_off, 0, "{label}: disabled mode must not skip");
            off.assert_bit_identical(&on, &label);
            // The storm must actually exercise the machinery, or the
            // equivalence proves nothing.
            assert!(off.flits_corrupted > 0, "{label}: no corruption drawn");
            assert!(off.retransmissions > 0, "{label}: no retries fired");
            assert!(off.links_dead > 0, "{label}: no link died");
        }
    }
}
