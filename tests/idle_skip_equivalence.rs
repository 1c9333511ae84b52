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
//!
//! Endpoints sleep too (`Endpoint::next_wake`), and not everything an
//! endpoint counts reaches the report, so the second half of this file
//! compares every node's own statistics and MSHR occupancy, skip on
//! against skip off, and counts the `on_cycle` calls the protocol saves.

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
    // endpoint phase machine draws its ON exits cycle by cycle and its
    // OFF exits ahead of the clock (sleeping to them when skip is on);
    // both must land on the same cycles, which is what this pins.
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

/// Everything an endpoint can tell: its statistics through the derived
/// `Debug` (every field, so a new one cannot be missed — half of them are
/// not `pub`) and its MSHR occupancy.
fn endpoint_state(ep: &CoherenceEndpoint) -> String {
    format!(
        "{:?} outstanding={} idle={}",
        ep.stats(),
        ep.outstanding_misses(),
        ep.is_idle()
    )
}

/// Counts `on_cycle` calls and forwards `next_wake`, so the count is what
/// the idleness protocol leaves.
struct Counted {
    inner: CoherenceEndpoint,
    calls: u64,
}

impl Endpoint for Counted {
    fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
        self.calls += 1;
        self.inner.on_cycle(ctx);
    }

    fn next_wake(&self) -> Tick {
        self.inner.next_wake()
    }

    fn on_delivered(&mut self, packet: &Packet, now: Tick) -> Option<TxnCompletion> {
        self.inner.on_delivered(packet, now)
    }
}

/// One endpoint-equivalence scenario on the 4x4 torus.
struct Scenario {
    label: &'static str,
    wl: WorkloadConfig,
    fault: FaultConfig,
    /// After the timed window: `stop_generation()` everywhere, then step
    /// until every endpoint `is_idle()`.
    drain: bool,
}

/// Runs `sc` and returns the report, the cycles the drain took, and every
/// node's [`endpoint_state`].
fn run_scenario(
    sc: &Scenario,
    workers: usize,
    idle_skip: bool,
) -> (NetworkReport, u64, Vec<String>) {
    let cfg = NetworkConfig {
        topology: Torus::net_4x4().into(),
        router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
        seed: 0xe9d,
        warmup_cycles: 600,
        measure_cycles: 2_400,
        fault: sc.fault.clone(),
    };
    let endpoints = build_endpoints(&cfg, &sc.wl);
    let mut sim = NetworkSim::with_workers(cfg, endpoints, workers);
    sim.set_idle_skip(idle_skip);
    let mut report = sim.run();
    let mut drain_cycles = 0;
    if sc.drain {
        for node in 0..16 {
            sim.endpoint_mut(node).stop_generation();
        }
        while !(0..16).all(|n| sim.endpoint(n).is_idle()) {
            sim.step_cycle();
            drain_cycles += 1;
            assert!(drain_cycles < 60_000, "{}: drain never finished", sc.label);
        }
        report = sim.report();
    }
    let states = (0..16).map(|n| endpoint_state(sim.endpoint(n))).collect();
    (report, drain_cycles, states)
}

#[test]
fn endpoint_state_is_identical_per_node_with_and_without_idle_skip() {
    let uniform = TrafficPattern::Uniform;
    let hotspot = TrafficPattern::Hotspot {
        targets: HotspotTargets::new(&[5, 10]),
        fraction: 0.35,
    };
    let burst = BurstConfig::new(50.0, 200.0);
    let healthy = FaultConfig::default;
    // Every output of node 5 dies mid-run: whatever it queues afterwards
    // is refused at injection, request and response alike.
    let severed = FaultConfig {
        kill_links: [
            OutputPort::East,
            OutputPort::West,
            OutputPort::North,
            OutputPort::South,
        ]
        .into_iter()
        .map(|port| LinkKill {
            node: 5,
            port,
            at_cycle: 900,
        })
        .collect(),
        ..FaultConfig::default()
    };
    let scenarios = [
        Scenario {
            label: "smooth near-idle",
            wl: WorkloadConfig::paper(uniform, 0.002),
            fault: healthy(),
            drain: true,
        },
        Scenario {
            label: "smooth loaded",
            wl: WorkloadConfig::paper(uniform, 0.05),
            fault: healthy(),
            drain: false,
        },
        Scenario {
            label: "bursty",
            wl: WorkloadConfig::paper(uniform, 0.004).with_burst(burst),
            fault: healthy(),
            drain: true,
        },
        Scenario {
            label: "hotspot",
            wl: WorkloadConfig::paper(hotspot, 0.01),
            fault: healthy(),
            drain: false,
        },
        Scenario {
            label: "hotspot + bursty",
            wl: WorkloadConfig::paper(hotspot, 0.02).with_burst(BurstConfig::new(30.0, 120.0)),
            fault: healthy(),
            drain: true,
        },
        Scenario {
            // Stall-heavy: one attempt in five finds the only MSHR busy.
            label: "1-MSHR closed loop",
            wl: WorkloadConfig::closed_loop(uniform, 0.2, 1),
            fault: healthy(),
            drain: true,
        },
        Scenario {
            label: "severed node",
            wl: WorkloadConfig::paper(uniform, 0.02),
            fault: severed,
            drain: false,
        },
    ];
    for sc in &scenarios {
        let (report, drain_cycles, states) = run_scenario(sc, 1, false);
        for workers in [1, 3] {
            let label = format!("{} workers={workers}", sc.label);
            let (r, d, s) = run_scenario(sc, workers, true);
            report.assert_bit_identical(&r, &label);
            assert_eq!(drain_cycles, d, "{label}: drain length");
            for (node, (off, on)) in states.iter().zip(&s).enumerate() {
                assert_eq!(off, on, "{label}: node {node}");
            }
        }
        // Each scenario must reach the counter it is here for.
        let any = |needle: &str| states.iter().any(|s| !s.contains(needle));
        match sc.label {
            "1-MSHR closed loop" => assert!(any("mshr_stalls: 0,"), "no stall: {states:?}"),
            "severed node" => assert!(any("unreachable_drops: 0 "), "no drop: {states:?}"),
            "bursty" => assert!(any("burst_on_cycles: 0,"), "never ON: {states:?}"),
            _ => {}
        }
        if sc.drain {
            assert!(states
                .iter()
                .all(|s| s.ends_with("outstanding=0 idle=true")));
        }
    }
}

#[test]
fn near_idle_endpoints_sleep_through_nine_cycles_in_ten() {
    // The endpoint-side floor beside the router one above: at the
    // near-idle point a node generates once in 500 cycles and serves a
    // handful of lookups in between, and must not be run for the rest.
    let cycles = 3_000u64;
    let run = |idle_skip: bool| {
        let cfg = NetworkConfig {
            topology: Torus::net_4x4().into(),
            router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
            seed: 1,
            warmup_cycles: cycles / 5,
            measure_cycles: cycles - cycles / 5,
            fault: FaultConfig::default(),
        };
        let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.002);
        let endpoints = build_endpoints(&cfg, &wl)
            .into_iter()
            .map(|inner| Counted { inner, calls: 0 })
            .collect();
        let mut sim = NetworkSim::new(cfg, endpoints);
        sim.set_idle_skip(idle_skip);
        let report = sim.run();
        let calls: u64 = (0..16).map(|n| sim.endpoint(n).calls).sum();
        let states: Vec<String> = (0..16)
            .map(|n| endpoint_state(&sim.endpoint(n).inner))
            .collect();
        (report, calls, states)
    };
    let (off, calls_off, states_off) = run(false);
    let (on, calls_on, states_on) = run(true);
    off.assert_bit_identical(&on, "counted near-idle");
    assert_eq!(states_off, states_on);
    assert_eq!(
        calls_off,
        16 * cycles,
        "skip off runs every endpoint every cycle"
    );
    assert!(
        calls_on * 10 <= calls_off,
        "only {} of {calls_off} on_cycle calls avoided",
        calls_off - calls_on
    );
}
