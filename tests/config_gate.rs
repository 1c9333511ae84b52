//! The configuration gate as one table.
//!
//! Every refusal is a row naming a [`ConfigError`] variant and field, and
//! every row checks two things: `validate()` returns exactly that error,
//! and the entry point that runs the gate panics with exactly its
//! `Display` — which proves that no deeper assert fires first. Network
//! rows go through `NetworkSim::new`; workload rows through
//! `build_endpoints`, at one worker and at four, so a refusal lands on the
//! calling thread before cycle 0 rather than as "worker fleet panicked".
//! The `Ok` rows pin that every configuration the benchmark and the
//! algorithm catalogue run still passes.

use alpha21364::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// An endpoint that never injects: network rows need one per node and
/// nothing else of the traffic side.
struct Silent;

impl Endpoint for Silent {
    fn on_cycle(&mut self, _ctx: &mut NodeCtx<'_>) {}

    fn on_delivered(&mut self, _packet: &Packet, _now: Tick) -> Option<TxnCompletion> {
        None
    }
}

fn net(topology: impl Into<NetTopology>, algorithm: ArbAlgorithm) -> NetworkConfig {
    NetworkConfig {
        topology: topology.into(),
        router: RouterConfig::alpha_21364(algorithm),
        seed: 1,
        warmup_cycles: 100,
        measure_cycles: 400,
        fault: FaultConfig::default(),
    }
}

fn net_4x4() -> NetworkConfig {
    net(Torus::net_4x4(), ArbAlgorithm::SpaaRotary)
}

fn with_fault(fault: FaultConfig) -> NetworkConfig {
    NetworkConfig { fault, ..net_4x4() }
}

fn uniform() -> WorkloadConfig {
    WorkloadConfig::paper(TrafficPattern::Uniform, 0.01)
}

/// The message `run` panicked with, or `None` when it returned.
fn panic_message(run: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(run)).err()?;
    let message = match payload.downcast_ref::<&str>() {
        Some(s) => s.to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    };
    Some(message)
}

/// `Debug` spellings: a NaN field compares equal to itself there.
fn refused(expect: &ConfigError) -> String {
    format!("{:?}", Err::<(), _>(expect))
}

fn network_row(label: &str, net: NetworkConfig, expect: ConfigError) {
    assert_eq!(
        format!("{:?}", net.validate().as_ref()),
        refused(&expect),
        "{label}: validate"
    );
    let nodes = net.topology.nodes();
    let message = panic_message(|| {
        let _ = NetworkSim::new(net, (0..nodes).map(|_| Silent).collect());
    });
    assert_eq!(message, Some(expect.to_string()), "{label}: gate");
}

fn workload_row(label: &str, net: NetworkConfig, wl: WorkloadConfig, expect: ConfigError) {
    assert_eq!(
        format!("{:?}", wl.validate(&net).as_ref()),
        refused(&expect),
        "{label}: validate"
    );
    for workers in [1, 4] {
        let message = panic_message(|| {
            let endpoints = build_endpoints(&net, &wl);
            let _ = NetworkSim::with_workers(net.clone(), endpoints, workers).run();
        });
        assert_eq!(
            message,
            Some(expect.to_string()),
            "{label}: gate at {workers} worker(s)"
        );
    }
}

fn at_least_one(field: &'static str) -> ConfigError {
    ConfigError::AtLeastOne { field }
}

fn probability(field: &'static str, value: f64) -> ConfigError {
    ConfigError::Probability { field, value }
}

fn phase_mean(field: &'static str, value: f64) -> ConfigError {
    ConfigError::PhaseMean { field, value }
}

#[test]
fn router_conditions_are_refused() {
    for algorithm in [
        ArbAlgorithm::Islip { iterations: 0 },
        ArbAlgorithm::Ilqf { iterations: 0 },
        ArbAlgorithm::Iocf { iterations: 0 },
    ] {
        network_row(
            &algorithm.to_string(),
            net(Torus::net_4x4(), algorithm),
            at_least_one("router.algorithm.iterations"),
        );
    }
    for latency in [0, 1] {
        network_row(
            &format!("SPAA-deep{latency}"),
            net(Torus::net_4x4(), ArbAlgorithm::SpaaDeep { latency }),
            ConfigError::SpaaLatency { latency },
        );
    }
    let mut cfg = net_4x4();
    cfg.router.scan_window = 0;
    network_row("scan_window 0", cfg, at_least_one("router.scan_window"));
}

#[test]
fn run_length_conditions_are_refused() {
    network_row(
        "measure_cycles 0",
        NetworkConfig {
            measure_cycles: 0,
            ..net_4x4()
        },
        at_least_one("measure_cycles"),
    );
    network_row(
        "watchdog 0",
        with_fault(FaultConfig {
            watchdog_cycles: Some(0),
            ..FaultConfig::default()
        }),
        at_least_one("fault.watchdog_cycles"),
    );
}

#[test]
fn fault_conditions_are_refused() {
    // A BER alone — no other injection term — that is not positive arms
    // no fault plane, so a bad one would run fault-free.
    for ber in [f64::NAN, -0.5, 1.5] {
        network_row(
            &format!("ber {ber}"),
            with_fault(FaultConfig {
                ber,
                ..FaultConfig::default()
            }),
            probability("fault.ber", ber),
        );
    }
    for fraction in [f64::NAN, 2.0] {
        network_row(
            &format!("dead_link_fraction {fraction}"),
            with_fault(FaultConfig {
                dead_link_fraction: fraction,
                ..FaultConfig::default()
            }),
            probability("fault.dead_link_fraction", fraction),
        );
    }
    for (flap, expect) in [
        (
            LinkFlap::new(0.5, 30.0),
            phase_mean("fault.flap.mean_up_cycles", 0.5),
        ),
        (
            LinkFlap::new(300.0, f64::NAN),
            phase_mean("fault.flap.mean_down_cycles", f64::NAN),
        ),
    ] {
        network_row(
            &format!("{flap:?}"),
            with_fault(FaultConfig {
                flap: Some(flap),
                ..FaultConfig::default()
            }),
            expect,
        );
    }
    // The mesh corner has no North link; a local port is never a link;
    // node 16 is off the 4x4.
    for (topology, node, port) in [
        (NetTopology::from(Mesh::new(4, 4)), 0, OutputPort::North),
        (Torus::net_4x4().into(), 3, OutputPort::L0),
        (Torus::net_4x4().into(), 16, OutputPort::East),
    ] {
        let cfg = NetworkConfig {
            topology,
            ..with_fault(FaultConfig {
                kill_links: vec![LinkKill {
                    node,
                    port,
                    at_cycle: 0,
                }],
                ..FaultConfig::default()
            })
        };
        network_row(
            &format!("kill ({node}, {port}) on {topology}"),
            cfg,
            ConfigError::UnwiredKill { node, port },
        );
    }
}

#[test]
fn workload_conditions_are_refused_before_cycle_0() {
    for (topology, pattern) in [
        (
            NetTopology::from(Torus::net_12x12()),
            TrafficPattern::BitReversal,
        ),
        (Torus::net_12x12().into(), TrafficPattern::PerfectShuffle),
        (Torus::new(2, 4).into(), TrafficPattern::Tornado),
        (FullMesh::new(4).into(), TrafficPattern::Tornado),
        (
            Torus::net_4x4().into(),
            TrafficPattern::Hotspot {
                targets: HotspotTargets::new(&[16]),
                fraction: 0.5,
            },
        ),
        (
            Torus::net_4x4().into(),
            TrafficPattern::Hotspot {
                targets: HotspotTargets::new(&[3]),
                fraction: f64::NAN,
            },
        ),
    ] {
        workload_row(
            &format!("{pattern} on {topology}"),
            net(topology, ArbAlgorithm::SpaaRotary),
            WorkloadConfig::paper(pattern, 0.01),
            ConfigError::Pattern {
                pattern: pattern.to_string(),
                topology,
            },
        );
    }
    // A NaN rate would generate nothing and report success.
    for rate in [f64::NAN, -0.1, 1.5] {
        workload_row(
            &format!("rate {rate}"),
            net_4x4(),
            WorkloadConfig::paper(TrafficPattern::Uniform, rate),
            probability("injection_rate", rate),
        );
    }
    // A NaN mix would reach `SimRng::chance` mid-run.
    for fraction in [f64::NAN, 1.1] {
        workload_row(
            &format!("three-hop {fraction}"),
            net_4x4(),
            uniform().with_three_hop_fraction(fraction),
            probability("three_hop_fraction", fraction),
        );
    }
    workload_row(
        "0 MSHRs",
        net_4x4(),
        WorkloadConfig::closed_loop(TrafficPattern::Uniform, 0.01, 0),
        at_least_one("mshrs"),
    );
    for (burst, expect) in [
        (
            BurstConfig::new(f64::INFINITY, 200.0),
            phase_mean("burst.mean_burst_cycles", f64::INFINITY),
        ),
        (
            BurstConfig::new(10.0, 0.5),
            phase_mean("burst.mean_idle_cycles", 0.5),
        ),
    ] {
        workload_row(
            &format!("{burst:?}"),
            net_4x4(),
            uniform().with_burst(burst),
            expect,
        );
    }
}

#[test]
fn workload_gate_checks_the_network_first() {
    let cfg = NetworkConfig {
        measure_cycles: 0,
        ..net_4x4()
    };
    workload_row(
        "bad network and bad workload",
        cfg,
        WorkloadConfig::closed_loop(TrafficPattern::Uniform, f64::NAN, 0),
        at_least_one("measure_cycles"),
    );
}

/// Passes the gate and builds the simulator it guards.
fn accepted(label: &str, net: NetworkConfig, wl: WorkloadConfig) {
    assert!(
        wl.validate(&net).is_ok(),
        "{label}: {:?}",
        wl.validate(&net)
    );
    let _ = NetworkSim::new(net.clone(), build_endpoints(&net, &wl));
}

#[test]
fn benchmark_and_catalogue_configs_pass() {
    // The four benchmark workloads, from the constructors they use.
    let bench = |topology: NetTopology, algorithm, cycles: u64, fault| NetworkConfig {
        topology,
        router: RouterConfig::alpha_21364(algorithm),
        seed: 0x21364,
        warmup_cycles: cycles / 5,
        measure_cycles: cycles - cycles / 5,
        fault,
    };
    let faulty = FaultConfig {
        ber: 1e-3,
        watchdog_cycles: Some(5000),
        ..FaultConfig::default()
    };
    for (label, net, wl) in [
        (
            "idle_16x16_closed",
            bench(
                Torus::net_16x16().into(),
                ArbAlgorithm::SpaaRotary,
                40_000,
                FaultConfig::default(),
            ),
            WorkloadConfig::paper(TrafficPattern::Uniform, 0.002),
        ),
        (
            "sat_8x8_spaa",
            bench(
                Torus::net_8x8().into(),
                ArbAlgorithm::SpaaRotary,
                20_000,
                FaultConfig::default(),
            ),
            WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.1),
        ),
        (
            "sat_8x8_wfa",
            bench(
                Torus::net_8x8().into(),
                ArbAlgorithm::WfaRotary,
                20_000,
                FaultConfig::default(),
            ),
            WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.1),
        ),
        (
            "fault_8x8_mesh_closed",
            bench(
                Mesh::new(8, 8).into(),
                ArbAlgorithm::SpaaRotary,
                30_000,
                faulty,
            ),
            WorkloadConfig::closed_loop(TrafficPattern::Uniform, 0.03, 16),
        ),
    ] {
        accepted(label, net, wl);
    }
    for algorithm in ArbAlgorithm::ALL {
        for router in [
            RouterConfig::alpha_21364(algorithm),
            RouterConfig::scaled_2x(algorithm),
        ] {
            let cfg = NetworkConfig {
                router,
                ..net_4x4()
            };
            accepted(&algorithm.to_string(), cfg, uniform());
        }
    }
}
