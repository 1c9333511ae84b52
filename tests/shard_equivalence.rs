//! One engine, any worker count: the report must be *bit-for-bit*
//! identical however the network is sharded and however it is stepped.
//!
//! Property: for any (seed, injection rate, arbitration algorithm,
//! topology, worker count), `NetworkSim::with_workers` produces a report
//! identical to the one-shard `NetworkSim::new` — every field of
//! `NetworkReport::for_each_field`, the latency statistics on raw f64 bit
//! patterns, so a single reordered floating-point accumulation (the
//! classic parallel-reduction bug) fails the suite — whether the cycles
//! ran on the worker fleet (`run`), inline (`step_cycle`), or a mix. This
//! is what lets `fig bigtorus` publish multi-threaded curves as *the*
//! results rather than an approximation.

use alpha21364::prelude::*;

/// Worker counts under test: the inline path (1), even splits of 16
/// nodes (2, 4, 8), non-dividing counts that leave uneven shards (3, 5),
/// one-node shards (16), and an over-subscription request beyond the
/// node count (17, clamped to 16).
const WORKER_COUNTS: [usize; 8] = [1, 2, 3, 4, 5, 8, 16, 17];

fn config(
    topology: impl Into<NetTopology>,
    algo: ArbAlgorithm,
    seed: u64,
    cycles: u64,
) -> NetworkConfig {
    NetworkConfig {
        topology: topology.into(),
        router: RouterConfig::alpha_21364(algo),
        seed,
        warmup_cycles: cycles / 5,
        measure_cycles: cycles - cycles / 5,
        fault: network::FaultConfig::default(),
    }
}

fn sim(cfg: &NetworkConfig, wl: &WorkloadConfig, workers: usize) -> NetworkSim<CoherenceEndpoint> {
    NetworkSim::with_workers(cfg.clone(), workload::build_endpoints(cfg, wl), workers)
}

fn run(cfg: &NetworkConfig, wl: &WorkloadConfig, workers: usize, idle_skip: bool) -> NetworkReport {
    let mut sim = sim(cfg, wl, workers);
    sim.set_idle_skip(idle_skip);
    sim.run()
}

/// A `workers`-shard sim advanced `cycles` cycles inline.
fn stepped(
    cfg: &NetworkConfig,
    wl: &WorkloadConfig,
    workers: usize,
    cycles: u64,
) -> NetworkSim<CoherenceEndpoint> {
    let mut sim = sim(cfg, wl, workers);
    for _ in 0..cycles {
        sim.step_cycle();
    }
    sim
}

#[test]
fn sharded_engine_is_bit_for_bit_equivalent_across_worker_counts() {
    // Every arbitration driver family (pipelined SPAA, windowed PIM1 and
    // WFA, windowed iSLIP, and the weighted iLQF/iOCF kernels) at loads
    // from near-idle to the saturation knee, against every worker count
    // in WORKER_COUNTS.
    let algos = [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::WfaRotary,
        ArbAlgorithm::Pim1,
        ArbAlgorithm::Islip { iterations: 2 },
        ArbAlgorithm::Ilqf { iterations: 1 },
        ArbAlgorithm::Iocf { iterations: 1 },
    ];
    for algo in algos {
        for (seed, rate) in [(1u64, 0.002), (2, 0.02), (3, 0.1)] {
            let cfg = config(Torus::net_4x4(), algo, seed, 3_000);
            let wl = WorkloadConfig::paper(TrafficPattern::Uniform, rate);
            let single = run(&cfg, &wl, 1, true);
            for workers in WORKER_COUNTS {
                let label = format!("{algo} seed={seed} rate={rate} workers={workers}");
                let sharded = run(&cfg, &wl, workers, true);
                single.assert_bit_identical(&sharded, &label);
            }
        }
    }
}

#[test]
fn sharded_engine_is_equivalent_with_idle_skip_off() {
    // The skip machinery is per-shard; both settings must agree with the
    // one-shard run under the same setting (which is itself pinned
    // equivalent across settings by idle_skip_equivalence.rs).
    let cfg = config(Torus::net_4x4(), ArbAlgorithm::SpaaRotary, 5, 3_000);
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.02);
    for idle_skip in [false, true] {
        let single = run(&cfg, &wl, 1, idle_skip);
        for workers in [2, 4, 5] {
            let label = format!("idle_skip={idle_skip} workers={workers}");
            let sharded = run(&cfg, &wl, workers, idle_skip);
            single.assert_bit_identical(&sharded, &label);
        }
    }
}

#[test]
fn sharded_engine_is_equivalent_under_hotspot_and_bursty_traffic() {
    // Hotspot concentrates cross-shard traffic onto a few destination
    // routers (stressing canonical merge order at one receiver); bursts
    // make whole shards oscillate between idle and 5x load (stressing
    // the per-shard wake bookkeeping against cross-shard wakes).
    let hotspot = WorkloadConfig::paper(
        TrafficPattern::Hotspot {
            targets: HotspotTargets::new(&[5, 10]),
            fraction: 0.35,
        },
        0.03,
    );
    let bursty = WorkloadConfig::paper(TrafficPattern::Uniform, 0.02)
        .with_burst(BurstConfig::new(50.0, 200.0));
    for (name, wl) in [("hotspot", &hotspot), ("bursty", &bursty)] {
        let cfg = config(
            Torus::net_4x4(),
            ArbAlgorithm::Islip { iterations: 2 },
            23,
            3_000,
        );
        let single = run(&cfg, wl, 1, true);
        for workers in [2, 3, 4, 8] {
            let label = format!("{name} workers={workers}");
            let sharded = run(&cfg, wl, workers, true);
            single.assert_bit_identical(&sharded, &label);
        }
    }
}

#[test]
fn sharded_engine_is_equivalent_on_a_larger_torus() {
    // 8x8: shards span multiple rows, so cross-shard links exist in both
    // dimensions and the wraparound rows land in the first/last shards.
    let cfg = config(Torus::net_8x8(), ArbAlgorithm::SpaaRotary, 9, 1_500);
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.03);
    let single = run(&cfg, &wl, 1, true);
    for workers in [2, 4, 7] {
        let label = format!("8x8 workers={workers}");
        let sharded = run(&cfg, &wl, workers, true);
        single.assert_bit_identical(&sharded, &label);
    }
}

#[test]
fn sharded_engine_is_equivalent_under_saturation_drain() {
    // Saturated WFA rotary engages anti-starvation drain mode; the
    // engaged/released transitions must replay identically when the
    // triggering credits arrive through the cross-shard outboxes.
    let cfg = config(Torus::net_4x4(), ArbAlgorithm::WfaRotary, 7, 4_000);
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.4);
    let single = run(&cfg, &wl, 1, true);
    for workers in [2, 4] {
        let label = format!("drain stress workers={workers}");
        let sharded = run(&cfg, &wl, workers, true);
        single.assert_bit_identical(&sharded, &label);
    }
}

#[test]
fn sharded_engine_is_equivalent_on_mesh_and_full_mesh() {
    // The mesh loses its wrap links (edge shards have asymmetric
    // cross-shard degree) and the full mesh crosses shards on *every*
    // link with entry ports that are not the geometric opposite of the
    // exit port — both exercise the topology-trait seam every shard
    // count shares.
    let mesh_cfg = config(Mesh::new(4, 4), ArbAlgorithm::SpaaRotary, 11, 3_000);
    let mesh_wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.03);
    let single = run(&mesh_cfg, &mesh_wl, 1, true);
    for workers in [2, 3, 4, 8, 16] {
        let label = format!("mesh4x4 workers={workers}");
        let sharded = run(&mesh_cfg, &mesh_wl, workers, true);
        single.assert_bit_identical(&sharded, &label);
    }

    let fm_cfg = config(FullMesh::new(5), ArbAlgorithm::Pim1, 13, 3_000);
    let fm_wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.05);
    let single = run(&fm_cfg, &fm_wl, 1, true);
    for workers in [2, 3, 5] {
        let label = format!("fullmesh5 workers={workers}");
        let sharded = run(&fm_cfg, &fm_wl, workers, true);
        single.assert_bit_identical(&sharded, &label);
    }
}

#[test]
fn sharded_engine_is_equivalent_with_matching_weight_oracle() {
    // The Hungarian oracle's counters are plain per-router sums, but the
    // windows they observe depend on flit arrival timing — the exact
    // thing shard scheduling could perturb. Nonzero counters must merge
    // to the same totals for every worker count.
    let mut cfg = config(
        Torus::net_4x4(),
        ArbAlgorithm::Ilqf { iterations: 1 },
        29,
        3_000,
    );
    cfg.router.measure_matching_weight = true;
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.03);
    let single = run(&cfg, &wl, 1, true);
    assert!(single.matched_weight > 0, "oracle saw no windows");
    for workers in [2, 3, 4, 8] {
        let label = format!("oracle workers={workers}");
        let sharded = run(&cfg, &wl, workers, true);
        single.assert_bit_identical(&sharded, &label);
    }
}

#[test]
fn sharded_engine_is_equivalent_for_closed_loop_drivers() {
    // The closed-loop driver couples a node's future RNG draws to its
    // reply arrival cycles, so shard scheduling that perturbed a single
    // delivery would cascade into a different transaction trace. Worker
    // counts {1,2,4,8}, idle-skip both ways, per-transaction latency
    // compared on raw bits (inside assert_bit_identical).
    for (seed, rate, mshrs) in [(81u64, 0.01, 1), (82, 0.05, 4), (83, 0.2, 16)] {
        let cfg = config(Torus::net_4x4(), ArbAlgorithm::SpaaRotary, seed, 3_000);
        let wl = WorkloadConfig::closed_loop(TrafficPattern::Uniform, rate, mshrs);
        for idle_skip in [false, true] {
            let single = run(&cfg, &wl, 1, idle_skip);
            assert!(
                single.completed_txns > 0,
                "mshrs={mshrs}: no transactions measured"
            );
            for workers in [1, 2, 4, 8] {
                let label = format!(
                    "closed loop mshrs={mshrs} rate={rate} idle_skip={idle_skip} workers={workers}"
                );
                let sharded = run(&cfg, &wl, workers, idle_skip);
                single.assert_bit_identical(&sharded, &label);
            }
        }
    }
}

#[test]
fn sharded_engine_is_equivalent_for_closed_loop_three_hop_on_8x8() {
    // An all-three-hop mix on the 8x8 maximizes cross-shard reply
    // forwarding (requester → home → owner → requester usually crosses
    // three shard boundaries); iSLIP2 keeps the windowed family covered.
    let cfg = config(
        Torus::net_8x8(),
        ArbAlgorithm::Islip { iterations: 2 },
        91,
        1_500,
    );
    let wl =
        WorkloadConfig::closed_loop(TrafficPattern::Uniform, 0.05, 8).with_three_hop_fraction(1.0);
    let single = run(&cfg, &wl, 1, true);
    assert!(single.completed_txns > 0, "no transactions measured");
    for workers in [2, 4, 8] {
        let label = format!("closed loop 8x8 three-hop workers={workers}");
        let sharded = run(&cfg, &wl, workers, true);
        single.assert_bit_identical(&sharded, &label);
    }
}

#[test]
fn sharded_worker_request_is_clamped_to_node_count() {
    let cfg = config(Torus::net_4x4(), ArbAlgorithm::SpaaRotary, 1, 100);
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.01);
    assert_eq!(
        sim(&cfg, &wl, 1_000).workers(),
        16,
        "one shard per node at most"
    );
    assert_eq!(
        NetworkSim::new(cfg.clone(), workload::build_endpoints(&cfg, &wl)).workers(),
        1
    );
}

#[test]
fn sharded_engine_is_equivalent_under_fault_storms() {
    // The fault plane is the newest cross-shard coupling: a link's CRC
    // and flap streams are owned by the *receiving* shard, retry timers
    // park on per-shard wheels, and an exhaustion death broadcasts a
    // LinkDead event to every shard's replica mask. Any partition
    // sensitivity in that machinery — a draw taken by the wrong shard, a
    // broadcast applied at a different stream position — shows up as a
    // counter or raw-bit mismatch here. Every fault class at once, both
    // grid topologies, workers {1, 2, 4, 8}, idle-skip both ways.
    let storm = FaultConfig {
        ber: 2e-3,
        flap: Some(LinkFlap::new(400.0, 40.0)),
        kill_links: vec![LinkKill {
            node: 5,
            port: OutputPort::East,
            at_cycle: 1_000,
        }],
        dead_link_fraction: 0.05,
        ..FaultConfig::default()
    };
    for (name, topology) in [
        ("torus4x4", NetTopology::from(Torus::net_4x4())),
        ("mesh4x4", NetTopology::from(Mesh::new(4, 4))),
    ] {
        let mut cfg = config(topology, ArbAlgorithm::SpaaRotary, 57, 4_000);
        cfg.fault = storm.clone();
        let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.02);
        for idle_skip in [false, true] {
            let single = run(&cfg, &wl, 1, idle_skip);
            assert!(
                single.flits_corrupted > 0,
                "{name}: storm must corrupt flits"
            );
            assert!(single.links_dead > 0, "{name}: storm must kill links");
            for workers in [1, 2, 4, 8] {
                let label = format!("fault storm {name} idle_skip={idle_skip} workers={workers}");
                let sharded = run(&cfg, &wl, workers, idle_skip);
                single.assert_bit_identical(&sharded, &label);
            }
        }
    }
}

/// Corruption heavy enough, with a retry budget small enough, that links
/// die of retry exhaustion mid-run: each death is a `LinkDead` event the
/// engine must broadcast to every shard at its canonical position.
fn exhaustion_storm() -> FaultConfig {
    FaultConfig {
        ber: 0.05,
        max_retries: 1,
        ..FaultConfig::default()
    }
}

#[test]
fn inline_stepping_matches_the_fleet_and_one_shard() {
    // `step_cycle` on a multi-shard sim runs the same two phases the
    // fleet does, on one thread: phase A over the shards in index order,
    // phase B routed to the owning shard. Uneven (3) and one-node (16)
    // shards, fault-free and under a storm that exercises the inline
    // `LinkDead` broadcast.
    for (name, fault) in [
        ("fault-free", FaultConfig::default()),
        ("storm", exhaustion_storm()),
    ] {
        let mut cfg = config(Torus::net_4x4(), ArbAlgorithm::SpaaRotary, 61, 3_000);
        cfg.fault = fault;
        let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.03);
        let one = run(&cfg, &wl, 1, true);
        if name == "storm" {
            assert!(one.retry_exhaustions > 0, "storm must exhaust a link");
        }
        for workers in [3, 16] {
            let label = format!("{name} workers={workers}");
            let inline = stepped(&cfg, &wl, workers, cfg.total_cycles()).report();
            inline.assert_bit_identical(&run(&cfg, &wl, workers, true), &label);
            inline.assert_bit_identical(&one, &label);
        }
    }
}

#[test]
fn stepping_then_running_equals_an_uninterrupted_run() {
    // `run()` picks up wherever `step_cycle` left off — on the inline
    // loop (1 worker) and on the fleet (4), whose watchdog and outbox
    // state start fresh mid-simulation.
    let mut cfg = config(Torus::net_4x4(), ArbAlgorithm::Pim1, 67, 3_000);
    cfg.fault.watchdog_cycles = Some(1_000);
    let wl = WorkloadConfig::closed_loop(TrafficPattern::Uniform, 0.05, 4);
    let whole = run(&cfg, &wl, 1, true);
    for workers in [1, 4] {
        let resumed = stepped(&cfg, &wl, workers, cfg.total_cycles() / 3).run();
        resumed.assert_bit_identical(&whole, &format!("resumed workers={workers}"));
    }
}

#[test]
fn mid_run_report_is_identical_across_worker_counts() {
    // Mid-run the network is loaded (in-flight packets, partial
    // histograms in every shard), so the report's cross-shard sums are
    // all live.
    let cfg = config(
        Torus::net_4x4(),
        ArbAlgorithm::Islip { iterations: 2 },
        71,
        3_000,
    );
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.05);
    let at = cfg.total_cycles() / 2;
    let one = stepped(&cfg, &wl, 1, at).report();
    assert!(one.delivered_packets > 0 && one.in_flight_packets > 0);
    for workers in [2, 5] {
        let sharded = stepped(&cfg, &wl, workers, at).report();
        sharded.assert_bit_identical(&one, &format!("mid-run workers={workers}"));
    }
}

#[test]
fn diagnostic_dump_lists_every_router_once_in_id_order() {
    let cfg = config(Torus::net_4x4(), ArbAlgorithm::SpaaRotary, 73, 3_000);
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.05);
    let dump = stepped(&cfg, &wl, 4, 500).diagnostic_dump();
    let routers: Vec<u16> = dump
        .lines()
        .filter_map(|l| l.strip_prefix("  router ")?.split(':').next()?.parse().ok())
        .collect();
    assert_eq!(routers, (0..16).collect::<Vec<u16>>(), "{dump}");
}
