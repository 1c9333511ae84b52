//! Standalone drivers: one layer at a time, outside any network.
//!
//! These give the per-layer numbers a later optimisation of a single
//! kernel will want a before/after row for. They run once per traced run,
//! never in the end-to-end measurement. Every driver takes its inputs
//! from `seed`, prebuilds them outside the timed region, and reports the
//! lower quartile of several timed batches.

use crate::metrics::{Values, KERNELS};
use crate::stats::lower_quartile;
use arbitration::ports::{InputPort, OutputPort, NETWORK_ROW_MASK};
use arbitration::prelude::*;
use bench::{Scale, SweepSpec};
use network::{NetTopology, NetworkSim, Torus};
use router::packet::PacketId;
use router::{
    ArbAlgorithm, CoherenceClass, EscapeVc, IncomingPacket, Packet, RouteInfo, Router,
    RouterConfig, RouterOutput, VcId,
};
use simcore::wheel::TimingWheel;
use simcore::{SimRng, Tick};
use standalone::{run_standalone, AlgoKind, StandaloneConfig};
use std::hint::black_box;
use std::time::Instant;
use workload::{build_endpoints, TrafficPattern, WorkloadConfig};

/// How much work each driver does: `--quick` shrinks both factors.
#[derive(Clone, Copy)]
pub struct Effort {
    batches: usize,
    /// Divides every driver's operations per batch.
    shrink: usize,
}

impl Effort {
    pub fn new(quick: bool) -> Self {
        if quick {
            Effort {
                batches: 3,
                shrink: 10,
            }
        } else {
            Effort {
                batches: 9,
                shrink: 1,
            }
        }
    }
}

/// Lower-quartile nanoseconds per operation over `effort.batches` calls
/// of `batch`, each of which performs `ops` operations. One untimed call
/// warms caches and branch predictors first.
fn ns_per_op(effort: Effort, ops: usize, mut batch: impl FnMut()) -> f64 {
    batch();
    let samples: Vec<f64> = (0..effort.batches)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    lower_quartile(&samples)
}

const POOL: usize = 1024;

/// `POOL` arbitration inputs on the 21364 connection matrix with each
/// legal cell requested with probability `density`, one nomination per
/// requesting row (the SPAA view) and a weight per requested cell (the
/// iLQF/MWM view).
fn arbitration_inputs(rng: &mut SimRng, density: f64) -> Vec<ArbitrationInput> {
    let conn = ConnectionMatrix::alpha_21364();
    (0..POOL)
        .map(|_| {
            let mut weights = WeightMatrix::new(conn.rows(), conn.cols());
            let masks: Vec<u32> = (0..conn.rows())
                .map(|row| {
                    let mut mask = 0;
                    for col in 0..conn.cols() {
                        if conn.connected(row, col) && rng.chance(density) {
                            mask |= 1 << col;
                            weights.set(row, col, 1 + rng.below(16) as u32);
                        }
                    }
                    mask
                })
                .collect();
            let nominations = masks
                .iter()
                .map(|&m| (m != 0).then(|| rng.pick_bit(m) as u8))
                .collect();
            ArbitrationInput::new(RequestMatrix::from_rows(masks, conn.cols()), nominations)
                .with_weights(weights)
        })
        .collect()
}

fn kernel(name: &str) -> Box<dyn Arbiter> {
    let (rows, cols) = (NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS);
    match name {
        "spaa" => Box::new(SpaaArbiter::rotary(rows, cols, NETWORK_ROW_MASK)),
        "pim1" => Box::new(PimArbiter::pim1()),
        "wfa" => Box::new(WfaArbiter::rotary(rows, cols, NETWORK_ROW_MASK)),
        "islip2" => Box::new(IslipArbiter::islip(rows, cols, 2)),
        "ilqf2" => Box::new(LqfArbiter::new(rows, cols, 2)),
        other => panic!("no arbitration kernel named {other}"),
    }
}

fn arbitration(seed: u64, effort: Effort, out: &mut Values) {
    let mut rng = SimRng::from_seed(seed).fork(0xa4b);
    let sparse = arbitration_inputs(&mut rng, 0.2);
    let dense = arbitration_inputs(&mut rng, 0.9);
    let passes = (16 / effort.shrink).max(1);
    for name in KERNELS {
        for (label, pool) in [("d20", &sparse), ("d90", &dense)] {
            let mut arbiter = kernel(name);
            let mut draw = SimRng::from_seed(seed).fork(0xd4a);
            let ns = ns_per_op(effort, passes * POOL, || {
                for _ in 0..passes {
                    for input in pool {
                        black_box(arbiter.arbitrate(black_box(input), &mut draw));
                    }
                }
            });
            out.set(&format!("arbitration.{name}.ns_per_arbitrate_{label}"), ns);
        }
        // A fresh arbiter over the dense pool once: the count depends only
        // on the seed, so it repeats exactly and must survive a speed-up.
        let mut arbiter = kernel(name);
        let mut draw = SimRng::from_seed(seed).fork(0xd4a);
        let grants: usize = dense
            .iter()
            .map(|input| arbiter.arbitrate(input, &mut draw).cardinality())
            .sum();
        out.set(
            &format!("arbitration.{name}.grants_per_call_d90"),
            grants as f64 / POOL as f64,
        );
    }
    let passes = (4 / effort.shrink).max(1);
    let ns = ns_per_op(effort, passes * POOL, || {
        for _ in 0..passes {
            for input in &dense {
                let weights = input.weights.as_ref().expect("pool inputs carry weights");
                black_box(mwm::maximum_weight_matching(&input.requests, weights));
            }
        }
    });
    out.set("arbitration.mwm.ns_per_solve_d90", ns);
}

const NETWORK_INPUTS: [InputPort; 4] = [
    InputPort::North,
    InputPort::South,
    InputPort::East,
    InputPort::West,
];

/// A packet for network input `input`: three in four transit toward two
/// adaptive choices among the three legal directions (no U-turn through
/// the port it came in by, whose name is the neighbour's side), one in
/// four terminates at a local sink.
fn arrival(
    rng: &mut SimRng,
    id: u64,
    input: InputPort,
    class: CoherenceClass,
    pin_time: Tick,
) -> IncomingPacket {
    let legal: Vec<OutputPort> = OutputPort::ALL[..4]
        .iter()
        .copied()
        .filter(|o| o.index() != input.index())
        .collect();
    let route = if rng.chance(0.25) {
        RouteInfo::local((OutputPort::L0.mask() | OutputPort::L1.mask()) as u8)
    } else {
        let escape = legal[rng.below(legal.len())];
        let other = legal[rng.below(legal.len())];
        RouteInfo::transit((escape.mask() | other.mask()) as u8, escape, EscapeVc::Vc0)
    };
    IncomingPacket {
        packet: Packet::new(PacketId(id), class, 0, 1, pin_time, id),
        route,
        vc: VcId::adaptive(class),
        pin_time,
        in_flit_period: Tick::new(30),
    }
}

/// One router driven the way `crates/router/tests/router_behavior.rs`
/// drives it, but kept saturated: both adaptive channels used by the
/// coherence mix start full on every network input, each buffer release
/// (`Credit`) is refilled at once by a new arrival, and each `Forward`
/// gets its downstream credit back after the wire latency.
struct LoadedRouter {
    router: Router,
    rng: SimRng,
    cycle: u64,
    next_id: u64,
    events: Vec<RouterOutput>,
}

const CORE_PERIOD: u64 = 20;

impl LoadedRouter {
    fn new(algorithm: ArbAlgorithm, seed: u64) -> Self {
        let mut rng = SimRng::from_seed(seed).fork(0x407);
        let mut router = Router::new(0, RouterConfig::alpha_21364(algorithm), rng.fork(1));
        let mut next_id = 0;
        for input in NETWORK_INPUTS {
            for class in [CoherenceClass::Request, CoherenceClass::BlockResponse] {
                for _ in 0..router.free_space(input, VcId::adaptive(class)) {
                    let incoming = arrival(&mut rng, next_id, input, class, Tick::ZERO);
                    router.accept_packet(input, incoming);
                    next_id += 1;
                }
            }
        }
        LoadedRouter {
            router,
            rng,
            cycle: 0,
            next_id,
            events: Vec::new(),
        }
    }

    fn step(&mut self) {
        let now = Tick::new(self.cycle * CORE_PERIOD);
        self.cycle += 1;
        self.events.clear();
        self.router.step(now, &mut self.events);
        for event in &self.events {
            match *event {
                RouterOutput::Credit { input, vc, at } => {
                    let incoming = arrival(&mut self.rng, self.next_id, input, vc.class(), at);
                    self.next_id += 1;
                    self.router.accept_packet(input, incoming);
                }
                RouterOutput::Forward(o) => {
                    // Three link clocks of wire each way (§4.1).
                    let back = o.last_flit_done + Tick::new(3 * 30);
                    self.router.accept_credit(o.output, o.downstream_vc, back);
                }
                RouterOutput::Delivered { .. } => {}
            }
        }
    }
}

fn single_router(seed: u64, effort: Effort, out: &mut Values) {
    let steps = 20_000 / effort.shrink;
    for (name, algorithm) in [
        ("router.step_ns_loaded_spaa", ArbAlgorithm::SpaaRotary),
        ("router.step_ns_loaded_wfa", ArbAlgorithm::WfaRotary),
    ] {
        let mut loaded = LoadedRouter::new(algorithm, seed);
        let ns = ns_per_op(effort, steps, || (0..steps).for_each(|_| loaded.step()));
        assert!(
            loaded.router.stats().packets_out.get() > 0,
            "the loaded router driver moved no packet"
        );
        out.set(name, ns);
    }

    let config = RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary);
    let mut idle = Router::new(0, config.clone(), SimRng::from_seed(seed));
    let mut events = Vec::new();
    let mut cycle = 0u64;
    let steps = 200_000 / effort.shrink;
    let ns = ns_per_op(effort, steps, || {
        for _ in 0..steps {
            idle.step(Tick::new(cycle * CORE_PERIOD), &mut events);
            cycle += 1;
        }
    });
    assert!(events.is_empty(), "an empty router emitted events");
    out.set("router.step_ns_quiescent", ns);

    // `accept_packet` alone: fresh routers (built untimed) filled to the
    // brim, so each call pays one wheel insert and nothing is drained.
    let routers_per_batch = (16 / effort.shrink).max(1);
    let mut rng = SimRng::from_seed(seed).fork(0xacc);
    let per_router: Vec<(InputPort, IncomingPacket)> = {
        let probe = Router::new(0, config.clone(), SimRng::from_seed(seed));
        let mut arrivals = Vec::new();
        for input in NETWORK_INPUTS {
            for class in [CoherenceClass::Request, CoherenceClass::BlockResponse] {
                for _ in 0..probe.free_space(input, VcId::adaptive(class)) {
                    let id = arrivals.len() as u64;
                    arrivals.push((input, arrival(&mut rng, id, input, class, Tick::ZERO)));
                }
            }
        }
        arrivals
    };
    let samples: Vec<f64> = (0..=effort.batches)
        .map(|_| {
            let mut fresh: Vec<Router> = (0..routers_per_batch)
                .map(|id| Router::new(id as u16, config.clone(), SimRng::from_seed(seed)))
                .collect();
            let start = Instant::now();
            for router in &mut fresh {
                for &(input, incoming) in &per_router {
                    router.accept_packet(input, incoming);
                }
            }
            let ns = start.elapsed().as_nanos() as f64;
            black_box(&fresh);
            ns / (routers_per_batch * per_router.len()) as f64
        })
        .skip(1) // warm-up batch
        .collect();
    out.set("router.accept_packet_ns", lower_quartile(&samples));
}

fn substrate(seed: u64, effort: Effort, out: &mut Values) {
    // Four events per core edge at the offsets a router's housekeeping
    // wheel sees (decode, credit, release), drained as they come due.
    let mut wheel: TimingWheel<u32> = TimingWheel::new(Tick::new(CORE_PERIOD), 64);
    let mut due = Vec::new();
    let mut cycle = 0u64;
    let edges = 50_000 / effort.shrink;
    let ns = ns_per_op(effort, 4 * edges, || {
        for _ in 0..edges {
            let now = cycle * CORE_PERIOD;
            for (i, offset) in [2, 4, 7, 13].into_iter().enumerate() {
                wheel.schedule(Tick::new(now + offset * CORE_PERIOD), i as u32);
            }
            wheel.drain_due(Tick::new(now), &mut due);
            black_box(&due);
            due.clear();
            cycle += 1;
        }
    });
    out.set("simcore.wheel_ns_per_event", ns);

    let mut rng = SimRng::from_seed(seed).fork(0xc4a);
    let draws = 1_000_000 / effort.shrink;
    let ns = ns_per_op(effort, draws, || {
        let hits = (0..draws).filter(|_| rng.chance(0.3)).count();
        black_box(hits);
    });
    out.set("simcore.rng_ns_per_chance", ns);

    let topology: NetTopology = Torus::net_16x16().into();
    let picks = 500_000 / effort.shrink;
    let ns = ns_per_op(effort, picks, || {
        for i in 0..picks {
            let src = (i % 256) as u16;
            black_box(TrafficPattern::Uniform.dest(&topology, src, &mut rng));
        }
    });
    out.set("workload.pattern_dest_ns", ns);
}

fn standalone_model(seed: u64, effort: Effort, out: &mut Values) {
    let cfg = StandaloneConfig {
        iterations: (1000 / effort.shrink) as u32,
        seed,
        ..StandaloneConfig::default()
    };
    for (name, kind) in [
        ("standalone.ns_per_iteration_spaa", AlgoKind::Spaa),
        ("standalone.ns_per_iteration_mcm", AlgoKind::Mcm),
    ] {
        let ns = ns_per_op(effort, cfg.iterations as usize, || {
            black_box(run_standalone(kind, black_box(&cfg)));
        });
        out.set(name, ns);
    }
}

/// What `SweepSpec::run` adds over calling the engine directly, on one
/// saturated 8x8 SPAA point (a quarter of `sat_8x8_spaa`'s length so the
/// alternating pairs fit the traced run's budget).
fn sweep_overhead(seed: u64, effort: Effort, out: &mut Values) {
    let mut spec = SweepSpec::new(
        ArbAlgorithm::SpaaRotary,
        Torus::net_8x8(),
        TrafficPattern::Uniform,
        Scale::Quick,
    );
    spec.rates = vec![0.1];
    spec.seed = seed;
    spec.cycles = 5_000 / effort.shrink as u64;
    let net = network::NetworkConfig {
        topology: spec.topology,
        router: RouterConfig::alpha_21364(spec.algorithm),
        seed,
        warmup_cycles: spec.cycles / 5,
        measure_cycles: spec.cycles - spec.cycles / 5,
        fault: Default::default(),
    };
    let wl = WorkloadConfig::open_loop(spec.pattern, 0.1);
    let (mut raw, mut swept) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let mut sim = NetworkSim::new(net.clone(), build_endpoints(&net, &wl));
        let start = Instant::now();
        let report = sim.run();
        raw.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let curve = spec.run(1);
        swept.push(start.elapsed().as_secs_f64());
        assert_eq!(
            curve.points[0].packets, report.delivered_packets,
            "the sweep point and the raw run simulated different things"
        );
    }
    out.set(
        "bench.sweep_overhead_frac",
        lower_quartile(&swept) / lower_quartile(&raw) - 1.0,
    );
}

/// Runs every standalone driver.
pub fn run(seed: u64, effort: Effort, out: &mut Values) {
    arbitration(seed, effort, out);
    single_router(seed, effort, out);
    substrate(seed, effort, out);
    standalone_model(seed, effort, out);
    sweep_overhead(seed, effort, out);
}
