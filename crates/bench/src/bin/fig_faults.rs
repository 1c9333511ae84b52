//! Graceful-degradation curves under the deterministic fault plane:
//! delivered throughput and packet latency versus link bit-error rate,
//! and versus the fraction of links dead.
//!
//! The 21364's interconnect assumed a hostile physical layer (CRC with
//! hardware retry on every link); this reproduction's fault plane models
//! that axis deterministically — per-link seeded corruption, bounded
//! retransmission, retry-exhaustion link death, and fault-aware routing
//! that masks dead links from every scheme's candidate set (see DESIGN.md
//! "Fault plane"). This harness sweeps two fault axes at a fixed offered
//! load on the 4×4 torus and the 4×4 mesh for SPAA-rotary, PIM1 and
//! iSLIP2:
//!
//! * **BER sweep** — corruption from 0 to 10⁻² per flit: throughput
//!   should sag gently (retransmissions consume link time) while latency
//!   grows with the retry tail; nothing is lost, only delayed.
//! * **Dead-link sweep** — a seeded fraction of directed links killed at
//!   boot: delivered *fraction* degrades as destinations disconnect, but
//!   every undeliverable packet is refused at the source or dropped with
//!   accounting (`unreachable_drops`) — conservation holds at every
//!   point.
//!
//! Expected reading: the torus degrades more gracefully than the mesh
//! (wraparound links give the masked adaptive set more alternatives),
//! and the arbiter choice barely moves either curve — fault tolerance
//! here is a routing/link-layer property, not an arbitration one.
//!
//! Before writing any numbers the harness proves the fault plane's
//! shard crossing: one full-storm configuration (corruption + flaps +
//! a scheduled kill + boot-time dead links) re-run at worker counts
//! {1, 2, 4, 8} with idle-skip both on and off, every report field
//! compared down to the raw f64 bits and every fault counter (the JSON
//! records `"bit_exact": true`).
//!
//! ```text
//! cargo run --release -p bench --bin fig_faults [-- --quick | --paper] \
//!     [--out BENCH_faults.json]
//! ```

use arbitration::ports::OutputPort;
use bench::{flag_value, Scale};
use network::{
    FaultConfig, LinkFlap, LinkKill, Mesh, NetTopology, NetworkConfig, NetworkReport, NetworkSim,
    Torus,
};
use router::{ArbAlgorithm, RouterConfig};
use simcore::sweep::parallel_map;
use simcore::table::Table;
use workload::{build_endpoints, run_coherence_sim, TrafficPattern, WorkloadConfig};

const SEED: u64 = 0x21364;

/// Fixed offered load for every fault sweep: just below the fault-free
/// saturation knee of the smaller 4×4 shapes, so degradation comes from
/// the faults and not from ordinary congestion.
const RATE: f64 = 0.03;

const ALGORITHMS: [ArbAlgorithm; 3] = [
    ArbAlgorithm::SpaaRotary,
    ArbAlgorithm::Pim1,
    ArbAlgorithm::Islip { iterations: 2 },
];

/// Which fault axis a curve sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Axis {
    /// Per-flit corruption probability; recovery via retransmission.
    Ber,
    /// Fraction of directed links dead from cycle 0; recovery via
    /// fault-aware routing around the losses.
    DeadLinks,
}

impl Axis {
    fn name(self) -> &'static str {
        match self {
            Axis::Ber => "ber",
            Axis::DeadLinks => "dead_fraction",
        }
    }

    fn fault(self, x: f64) -> FaultConfig {
        match self {
            Axis::Ber => FaultConfig {
                ber: x,
                ..FaultConfig::default()
            },
            Axis::DeadLinks => FaultConfig {
                dead_link_fraction: x,
                ..FaultConfig::default()
            },
        }
    }
}

/// One operating point of a degradation curve.
#[derive(Clone, Copy)]
struct FaultPoint {
    x: f64,
    delivered: f64,
    latency_ns: f64,
    packets: u64,
    injected: u64,
    corrupted: u64,
    retransmissions: u64,
    exhaustions: u64,
    links_dead: u64,
    unreachable_drops: u64,
}

impl FaultPoint {
    /// Delivered packets over all packets that reached a terminal state
    /// (delivered, refused at source, or dropped as unreachable) — the
    /// graceful-degradation y-axis. Exactly 1.0 when no links die; every
    /// loss below that is an accounted drop, never a silent one.
    fn delivered_fraction(&self) -> f64 {
        let terminal = self.packets + self.unreachable_drops;
        if terminal == 0 {
            return 0.0;
        }
        self.packets as f64 / terminal as f64
    }
}

struct Panel {
    topology: NetTopology,
    algorithm: ArbAlgorithm,
    axis: Axis,
    points: Vec<FaultPoint>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = Scale::from_args();
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_faults.json".into());

    let (mode, cycles, bers, fractions): (&str, u64, Vec<f64>, Vec<f64>) = if quick {
        // CI smoke: fault-free anchor plus one heavy point per axis.
        ("quick", 4_000, vec![0.0, 1e-3], vec![0.0, 0.125])
    } else {
        let (mode, cycles) = match scale {
            Scale::Paper => ("paper", scale.cycles()),
            Scale::Quick => ("default", 12_000),
        };
        (
            mode,
            cycles,
            vec![0.0, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2],
            vec![0.0, 0.03, 0.06, 0.125, 0.25],
        )
    };

    // Prove the fault plane's engine crossing before publishing numbers.
    let bit_exact = prove_bit_exactness(if quick { 2_000 } else { 4_000 });
    println!(
        "fault-storm bit-exactness probe: workers {{1,2,4,8}} x idle-skip {{on,off}} identical"
    );

    let shapes: [NetTopology; 2] = [Torus::net_4x4().into(), Mesh::new(4, 4).into()];
    let mut panels = Vec::new();
    for topology in shapes {
        for algorithm in ALGORITHMS {
            for (axis, grid) in [(Axis::Ber, &bers), (Axis::DeadLinks, &fractions)] {
                println!(
                    "\nfaults: {topology}, {algorithm}, {} sweep ({mode} mode, {cycles} cycles/point)",
                    axis.name(),
                );
                let jobs: Vec<(usize, f64)> = grid.iter().copied().enumerate().collect();
                let points = parallel_map(0, jobs, |(idx, x)| {
                    fault_point(topology, algorithm, axis, cycles, idx, x)
                });
                println!("{}", fault_table(axis, &points).to_text());
                panels.push(Panel {
                    topology,
                    algorithm,
                    axis,
                    points,
                });
            }
        }
    }

    let json = render_json(mode, cycles, bit_exact, &panels);
    std::fs::write(&out_path, json).expect("write fault degradation table");
    println!("\nwrote {out_path}");
}

/// One simulated operating point. Same seed-stream layout as `SweepSpec`
/// (grid index in the high half) so points are independent simulations.
fn fault_point(
    topology: NetTopology,
    algorithm: ArbAlgorithm,
    axis: Axis,
    cycles: u64,
    idx: usize,
    x: f64,
) -> FaultPoint {
    let net = NetworkConfig {
        topology,
        router: RouterConfig::alpha_21364(algorithm),
        seed: SEED ^ ((idx as u64) << 32),
        warmup_cycles: cycles / 5,
        measure_cycles: cycles - cycles / 5,
        fault: axis.fault(x),
    };
    let (report, _stats) = run_coherence_sim(
        net,
        WorkloadConfig::open_loop(TrafficPattern::Uniform, RATE),
    );
    FaultPoint {
        x,
        delivered: report.flits_per_router_ns,
        latency_ns: report.avg_latency_ns(),
        packets: report.delivered_packets,
        injected: report.injected_packets,
        corrupted: report.flits_corrupted,
        retransmissions: report.retransmissions,
        exhaustions: report.retry_exhaustions,
        links_dead: report.links_dead,
        unreachable_drops: report.unreachable_drops,
    }
}

/// Runs one full-storm configuration across worker counts {1,2,4,8} and
/// idle-skip {on,off}, asserting every report field identical down to
/// the raw f64 latency bits and every fault counter.
/// Returns `true` (or panics — a mismatch must fail the run, not get
/// recorded as data).
fn prove_bit_exactness(cycles: u64) -> bool {
    let storm = FaultConfig {
        ber: 2e-3,
        flap: Some(LinkFlap::new(300.0, 30.0)),
        kill_links: vec![LinkKill {
            node: 5,
            port: OutputPort::East,
            at_cycle: cycles / 3,
        }],
        dead_link_fraction: 0.05,
        ..FaultConfig::default()
    };
    let run = |workers: usize, idle_skip: bool| -> NetworkReport {
        let net = NetworkConfig {
            topology: Torus::net_4x4().into(),
            router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
            seed: SEED,
            warmup_cycles: cycles / 5,
            measure_cycles: cycles - cycles / 5,
            fault: storm.clone(),
        };
        let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, RATE);
        let endpoints = build_endpoints(&net, &wl);
        let mut sim = NetworkSim::with_workers(net, endpoints, workers);
        sim.set_idle_skip(idle_skip);
        sim.run()
    };
    let reference = run(1, true);
    assert!(
        reference.flits_corrupted > 0 && reference.links_dead > 0,
        "probe storm was a no-op"
    );
    for workers in [1usize, 2, 4, 8] {
        for idle_skip in [false, true] {
            let label = format!("workers={workers} idle_skip={idle_skip}");
            run(workers, idle_skip).assert_bit_identical(&reference, &label);
        }
    }
    true
}

fn fault_table(axis: Axis, points: &[FaultPoint]) -> Table {
    let mut t = Table::with_columns(&[
        axis.name(),
        "delivered(flits/router/ns)",
        "latency(ns)",
        "delivered frac",
        "corrupted",
        "retx",
        "exhaustions",
        "links dead",
        "drops",
    ]);
    for p in points {
        t.row(vec![
            format!("{}", p.x),
            format!("{:.4}", p.delivered),
            format!("{:.1}", p.latency_ns),
            format!("{:.4}", p.delivered_fraction()),
            p.corrupted.to_string(),
            p.retransmissions.to_string(),
            p.exhaustions.to_string(),
            p.links_dead.to_string(),
            p.unreachable_drops.to_string(),
        ]);
    }
    t
}

/// Hand-rolled JSON (the workspace is dependency-free), in the committed
/// BENCH format: one figure per (topology, algorithm, axis) with the
/// degradation points and the engine-proof flag.
fn render_json(mode: &str, cycles: u64, bit_exact: bool, panels: &[Panel]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"fig_faults\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"cycles_per_point\": {cycles},\n"));
    s.push_str(&format!("  \"offered_rate\": {RATE},\n"));
    s.push_str(&format!("  \"bit_exact\": {bit_exact},\n"));
    s.push_str("  \"figures\": [\n");
    for (i, panel) in panels.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"topology\": \"{}\", \"algorithm\": \"{}\", \"axis\": \"{}\", \"points\": [\n",
            panel.topology,
            panel.algorithm,
            panel.axis.name(),
        ));
        for (k, p) in panel.points.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"x\": {}, \"delivered_flits_per_router_ns\": {:.5}, \"latency_ns\": {:.2}, \"delivered_fraction\": {:.5}, \"packets\": {}, \"injected\": {}, \"flits_corrupted\": {}, \"retransmissions\": {}, \"retry_exhaustions\": {}, \"links_dead\": {}, \"unreachable_drops\": {}}}{}\n",
                p.x,
                p.delivered,
                p.latency_ns,
                p.delivered_fraction(),
                p.packets,
                p.injected,
                p.corrupted,
                p.retransmissions,
                p.exhaustions,
                p.links_dead,
                p.unreachable_drops,
                if k + 1 < panel.points.len() { "," } else { "" }
            ));
        }
        s.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 < panels.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
