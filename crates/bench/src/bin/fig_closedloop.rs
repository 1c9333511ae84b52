//! Open-loop vs closed-loop BNF panels: what MSHR self-throttling does
//! to the saturation story.
//!
//! The 21364 never saw open-loop Bernoulli arrivals in production — each
//! processor bounded its outstanding cache misses with a 16-entry MSHR
//! file, so offered load self-throttles as soon as replies slow down
//! (§3.4). This harness sweeps the same injection-rate grid twice on the
//! 4×4 and 8×8 tori for SPAA-rotary, PIM1, iSLIP2 and iLQF2: once
//! open-loop (`mshrs = ∞`, the configuration every BNF figure uses to
//! reach the post-saturation region) and once closed-loop at MSHR
//! capacities {1, 4, 8, 16}. Each point reports both packet latency and
//! the new per-transaction (request-issue → reply-drain) latency.
//!
//! Expected reading: past the open-loop saturation point the open curve
//! bends backward — delivered throughput collapses while latency grows
//! without bound (source queueing included, §4.3). Every closed curve
//! instead *caps*: offered load beyond what the MSHR file can keep in
//! flight is simply never generated, so latency flattens at the
//! round-trip ceiling and throughput holds. The capacity ladder shows
//! the ceiling rising with the MSHR count toward the open-loop knee.
//!
//! Before writing the table, the harness proves the closed-loop shard
//! crossing: one closed-loop configuration is re-run at worker counts
//! {1, 2, 4, 8} with idle-skip both on and off, and every report field
//! — including the raw f64 bits of the transaction latency statistics —
//! must be identical (the JSON records `"bit_exact": true`).
//!
//! ```text
//! cargo run --release -p bench --bin fig_closedloop [-- --quick | --paper] \
//!     [--out BENCH_closedloop.json]
//! ```

use bench::{flag_value, summary_table, Scale};
use network::{NetworkConfig, NetworkReport, NetworkSim, Torus};
use router::{ArbAlgorithm, RouterConfig};
use simcore::bnf::{BnfCurve, BnfPoint};
use simcore::sweep::parallel_map;
use simcore::table::Table;
use workload::{build_endpoints, run_coherence_sim, TrafficPattern, WorkloadConfig};

const SEED: u64 = 0x21364;

/// The headline arbiters: the shipped pick, its windowed peer, the
/// unweighted extension baseline, and a weighted kernel.
const ALGORITHMS: [ArbAlgorithm; 4] = [
    ArbAlgorithm::SpaaRotary,
    ArbAlgorithm::Pim1,
    ArbAlgorithm::Islip { iterations: 2 },
    ArbAlgorithm::Ilqf { iterations: 2 },
];

/// The MSHR-capacity ladder each panel sweeps against the open loop.
const MSHR_LADDER: [u32; 4] = [1, 4, 8, 16];

/// One curve's generation regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LoopMode {
    /// Unbounded outstanding misses: the sweep pushes through saturation.
    Open,
    /// MSHR-gated generation at the given capacity.
    Closed(u32),
}

impl LoopMode {
    const ALL: [LoopMode; 5] = [
        LoopMode::Open,
        LoopMode::Closed(MSHR_LADDER[0]),
        LoopMode::Closed(MSHR_LADDER[1]),
        LoopMode::Closed(MSHR_LADDER[2]),
        LoopMode::Closed(MSHR_LADDER[3]),
    ];

    fn name(self) -> String {
        match self {
            LoopMode::Open => "open".into(),
            LoopMode::Closed(m) => format!("mshr{m}"),
        }
    }

    fn workload(self, rate: f64) -> WorkloadConfig {
        match self {
            LoopMode::Open => WorkloadConfig::open_loop(TrafficPattern::Uniform, rate),
            LoopMode::Closed(m) => WorkloadConfig::closed_loop(TrafficPattern::Uniform, rate, m),
        }
    }
}

/// One load point: BNF axes plus the transaction-level measurements.
#[derive(Clone, Copy)]
struct ClosedLoopPoint {
    offered: f64,
    delivered: f64,
    latency_ns: f64,
    txn_latency_ns: f64,
    packets: u64,
    txns: u64,
    mshr_stalls: u64,
}

struct Curve {
    mode: LoopMode,
    points: Vec<ClosedLoopPoint>,
}

impl Curve {
    fn bnf(&self) -> BnfCurve {
        let mut c = BnfCurve::new(self.mode.name());
        for p in &self.points {
            c.push(BnfPoint {
                offered: p.offered,
                delivered_flits_per_router_ns: p.delivered,
                avg_latency_ns: p.latency_ns,
                packets: p.packets,
            });
        }
        c
    }
}

struct Panel {
    torus: Torus,
    algorithm: ArbAlgorithm,
    curves: Vec<Curve>,
}

impl Panel {
    /// The headline number: packet latency at the heaviest swept load,
    /// open loop over fully-provisioned closed loop. Open-loop latency
    /// includes unbounded source queueing past saturation, so a healthy
    /// closed loop makes this ratio large.
    fn latency_cap_ratio(&self) -> Option<f64> {
        let last = |mode: LoopMode| {
            self.curves
                .iter()
                .find(|c| c.mode == mode)
                .and_then(|c| c.points.last())
                .map(|p| p.latency_ns)
        };
        let open = last(LoopMode::Open)?;
        let closed = last(LoopMode::Closed(16))?;
        (closed > 0.0).then(|| open / closed)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = Scale::from_args();
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_closedloop.json".into());

    let (mode, cycles, rates): (&str, u64, Vec<f64>) = if quick {
        // CI smoke: pre-bend, bend, and post-saturation load points.
        ("quick", 4_000, vec![0.004, 0.02, 0.055])
    } else {
        let (mode, cycles) = match scale {
            Scale::Paper => ("paper", scale.cycles()),
            // The story is the open/closed divergence, which needs the
            // load span more than per-point precision.
            Scale::Quick => ("default", 12_000),
        };
        (mode, cycles, closedloop_rates())
    };

    // Prove the engine crossing before publishing any numbers from it.
    let bit_exact = prove_bit_exactness(if quick { 2_000 } else { 3_000 });
    println!(
        "closed-loop bit-exactness probe: workers {{1,2,4,8}} x idle-skip {{on,off}} identical"
    );

    let mut panels = Vec::new();
    for torus in [Torus::net_4x4(), Torus::net_8x8()] {
        for algorithm in ALGORITHMS {
            println!(
                "\nclosed loop: {}x{} torus, {algorithm} ({mode} mode, {cycles} cycles/point)",
                torus.width(),
                torus.height(),
            );
            // One flat (loop mode, load) batch through the worker pool;
            // results return in input order, so chunking by the rate
            // count reassembles the curves deterministically.
            let jobs: Vec<(LoopMode, usize, f64)> = LoopMode::ALL
                .into_iter()
                .flat_map(|lm| {
                    rates
                        .iter()
                        .copied()
                        .enumerate()
                        .map(move |(idx, rate)| (lm, idx, rate))
                })
                .collect();
            let points = parallel_map(0, jobs, |(lm, idx, rate)| {
                closedloop_point(algorithm, torus, lm, cycles, idx, rate)
            });
            let curves: Vec<Curve> = points
                .chunks(rates.len())
                .zip(LoopMode::ALL)
                .map(|(chunk, lm)| Curve {
                    mode: lm,
                    points: chunk.to_vec(),
                })
                .collect();
            println!("{}", closedloop_table(&curves).to_text());
            let bnf: Vec<BnfCurve> = curves.iter().map(Curve::bnf).collect();
            let ref_lat = if torus.nodes() == 16 { 83.0 } else { 122.0 };
            println!("{}", summary_table(&bnf, ref_lat).to_text());
            let panel = Panel {
                torus,
                algorithm,
                curves,
            };
            if let Some(ratio) = panel.latency_cap_ratio() {
                println!("  open/closed(16) latency at max load: {ratio:.2}x");
            }
            panels.push(panel);
        }
    }

    let json = render_json(mode, cycles, bit_exact, &panels);
    std::fs::write(&out_path, json).expect("write closed-loop BNF table");
    println!("\nwrote {out_path}");
}

/// One simulated load point. Same seed-stream layout as `SweepSpec`
/// (rate index in the high half) so points are directly comparable with
/// the other figures.
fn closedloop_point(
    algorithm: ArbAlgorithm,
    torus: Torus,
    lm: LoopMode,
    cycles: u64,
    rate_idx: usize,
    rate: f64,
) -> ClosedLoopPoint {
    let net = NetworkConfig {
        topology: torus.into(),
        router: RouterConfig::alpha_21364(algorithm),
        seed: SEED ^ ((rate_idx as u64) << 32),
        warmup_cycles: cycles / 5,
        measure_cycles: cycles - cycles / 5,

        fault: network::FaultConfig::default(),
    };
    let (report, stats) = run_coherence_sim(net, lm.workload(rate));
    ClosedLoopPoint {
        offered: rate,
        delivered: report.flits_per_router_ns,
        latency_ns: report.avg_latency_ns(),
        txn_latency_ns: report.avg_txn_latency_ns(),
        packets: report.delivered_packets,
        txns: report.completed_txns,
        mshr_stalls: stats.mshr_stalls,
    }
}

/// Runs one closed-loop configuration across worker counts {1,2,4,8}
/// and idle-skip {on,off}, asserting every report field identical down
/// to the raw f64 bits of the transaction latency statistics. Returns
/// `true` (or panics — a mismatch must fail CI, not get recorded as
/// data).
fn prove_bit_exactness(cycles: u64) -> bool {
    let run = |workers: usize, idle_skip: bool| -> NetworkReport {
        let net = NetworkConfig {
            topology: Torus::net_4x4().into(),
            router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
            seed: SEED,
            warmup_cycles: cycles / 5,
            measure_cycles: cycles - cycles / 5,

            fault: network::FaultConfig::default(),
        };
        let wl = WorkloadConfig::closed_loop(TrafficPattern::Uniform, 0.05, 4);
        let endpoints = build_endpoints(&net, &wl);
        let mut sim = NetworkSim::with_workers(net, endpoints, workers);
        sim.set_idle_skip(idle_skip);
        sim.run()
    };
    let reference = run(1, true);
    assert!(
        reference.completed_txns > 0,
        "probe measured no transactions"
    );
    for workers in [1usize, 2, 4, 8] {
        for idle_skip in [false, true] {
            let label = format!("workers={workers} idle_skip={idle_skip}");
            run(workers, idle_skip).assert_bit_identical(&reference, &label);
        }
    }
    true
}

/// The sweep grid: `bench::default_rates` trimmed of its two cheapest
/// points — the open/closed divergence lives at the bend and beyond.
fn closedloop_rates() -> Vec<f64> {
    vec![
        0.004, 0.008, 0.012, 0.016, 0.020, 0.028, 0.042, 0.060, 0.085,
    ]
}

fn closedloop_table(curves: &[Curve]) -> Table {
    let mut t = Table::with_columns(&[
        "loop",
        "offered(pkt/node/cy)",
        "delivered(flits/router/ns)",
        "pkt latency(ns)",
        "txn latency(ns)",
        "txns",
        "mshr stalls",
    ]);
    for c in curves {
        for p in &c.points {
            t.row(vec![
                c.mode.name(),
                format!("{:.4}", p.offered),
                format!("{:.4}", p.delivered),
                format!("{:.1}", p.latency_ns),
                format!("{:.1}", p.txn_latency_ns),
                p.txns.to_string(),
                p.mshr_stalls.to_string(),
            ]);
        }
    }
    t
}

/// Hand-rolled JSON (the workspace is dependency-free), in the committed
/// BENCH point format plus the transaction columns and the engine-proof
/// flag.
fn render_json(mode: &str, cycles: u64, bit_exact: bool, panels: &[Panel]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"fig_closedloop\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"cycles_per_point\": {cycles},\n"));
    s.push_str(&format!(
        "  \"mshr_ladder\": [{}],\n",
        MSHR_LADDER.map(|m| m.to_string()).join(", ")
    ));
    s.push_str(&format!("  \"bit_exact\": {bit_exact},\n"));
    s.push_str("  \"figures\": [\n");
    for (i, panel) in panels.iter().enumerate() {
        let ratio = panel
            .latency_cap_ratio()
            .map(|r| format!("{r:.2}"))
            .unwrap_or_else(|| "null".into());
        s.push_str(&format!(
            "    {{\"torus\": \"{}x{}\", \"algorithm\": \"{}\", \"open_over_closed16_latency\": {}, \"curves\": [\n",
            panel.torus.width(),
            panel.torus.height(),
            panel.algorithm,
            ratio,
        ));
        for (j, curve) in panel.curves.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"loop\": \"{}\", \"points\": [\n",
                curve.mode.name()
            ));
            for (k, p) in curve.points.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"offered\": {:.4}, \"delivered_flits_per_router_ns\": {:.5}, \"latency_ns\": {:.2}, \"txn_latency_ns\": {:.2}, \"packets\": {}, \"txns\": {}, \"mshr_stalls\": {}}}{}\n",
                    p.offered,
                    p.delivered,
                    p.latency_ns,
                    p.txn_latency_ns,
                    p.packets,
                    p.txns,
                    p.mshr_stalls,
                    if k + 1 < curve.points.len() { "," } else { "" }
                ));
            }
            s.push_str(&format!(
                "      ]}}{}\n",
                if j + 1 < panel.curves.len() { "," } else { "" }
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
