//! The studies this reproduction adds to the paper's figures. Each one
//! commits its table as `BENCH_<name>.json` (default mode, regenerated
//! byte-for-byte by `fig <name>`).

use crate::figure::{
    bnf_columns, bnf_curves, json_curves, json_points, plain_net, print_bnf_tables,
    prove_bit_exactness, reference_latency, replicated_columns, spec_curves, summary_table, sweep,
    table, Args, Column, Curve, Members, Scenario, Val, DELIVERED,
};
use crate::{Grid, Point, Scale, SweepSpec, SMOKE_RATES};
use arbitration::ports::OutputPort;
use network::{FaultConfig, FullMesh, LinkFlap, LinkKill, Mesh, NetTopology, Torus};
use router::ArbAlgorithm;
use simcore::bnf::ReplicatedBnfCurve;
use simcore::json::Json;
use workload::{TrafficPattern, WorkloadConfig};

/// The reference trio most extension panels compare: the paper's
/// shipped pick, its windowed peer, and the iSLIP family's middle member.
const TRIO: [ArbAlgorithm; 3] = [
    ArbAlgorithm::SpaaRotary,
    ArbAlgorithm::Pim1,
    ArbAlgorithm::Islip { iterations: 2 },
];

/// A coarser span of `DEFAULT_RATES` for figures whose points are dear
/// (replication multiplies the run count; the MWM oracle roughly doubles
/// per-cycle cost) and whose story is not curve smoothness.
const COARSE_RATES: [f64; 9] = [
    0.002, 0.004, 0.008, 0.012, 0.016, 0.020, 0.028, 0.042, 0.060,
];

/// The two torus sizes the paper's BNF figures use.
fn tori() -> [network::Grid; 2] {
    [Torus::net_4x4(), Torus::net_8x8()]
}

/// iSLIP-family BNF curves — the extension study's timing-model figure.
///
/// Sweeps iSLIP(1..3) in the windowed router driver against the paper's
/// best pipelined algorithm (SPAA-rotary) and its windowed peer (PIM1)
/// over uniform, bit-reversal and tornado traffic on the 4×4 and 8×8
/// tori. Expected reading: iSLIP1 tracks PIM1 closely (same 4-cycle
/// window, deterministic pointers instead of random draws); extra
/// iterations buy match quality but pay the ~5%-per-cycle arbitration
/// pipeline tax, so iSLIP3 wins matches yet loses zero-load latency; and
/// none of the windowed variants can reach SPAA-rotary's pipelined
/// initiation rate.
pub(crate) fn islip(args: &Args) -> Members {
    let (cycles, _) = args.scale.resolve(&Grid::STANDARD);
    let mode = args.scale.mode();
    // The iSLIP family plus its two reference points from the paper.
    let mut algorithms = ArbAlgorithm::ISLIP_FAMILY.to_vec();
    algorithms.extend([ArbAlgorithm::SpaaRotary, ArbAlgorithm::Pim1]);
    let columns = bnf_columns(DELIVERED);
    let mut figures = Vec::new();
    for topology in tori().map(NetTopology::from) {
        for pattern in [
            TrafficPattern::Uniform,
            TrafficPattern::BitReversal,
            TrafficPattern::Tornado,
        ] {
            println!(
                "\niSLIP family: {topology} torus, {pattern} traffic ({mode} mode, {cycles} cycles/point)"
            );
            let curves = spec_curves(&algorithms, topology, pattern, args.scale, |_| {});
            print_bnf_tables(&columns, &curves, reference_latency(&topology));
            figures.push(Json::Object(vec![
                ("torus", Json::str(topology)),
                ("pattern", Json::str(pattern)),
                ("curves", json_curves("algorithm", &columns, &curves)),
            ]));
        }
    }
    vec![
        ("cycles_per_point", Json::Int(cycles)),
        ("figures", Json::Array(figures)),
    ]
}

/// Topology-comparison BNF curves — same arbiters, different wiring.
///
/// Sweeps the study's three reference arbiters (SPAA-rotary, PIM1,
/// iSLIP2) under uniform open-loop traffic across the topology axis:
/// the paper's 2D torus, the 2D mesh (same grids, no wrap links, plain
/// XY escape), and the 5-node full mesh (every pair directly linked,
/// VC-less deadlock-free routing). Expected reading: at equal grid size
/// the mesh saturates earlier than the torus (edge links carry no wrap
/// traffic, the bisection is halved) while zero-load latency is close;
/// the full mesh delivers one-hop routes and the highest per-node
/// throughput of the three, bounded by the source's four injection
/// links rather than by path contention.
pub(crate) fn topology(args: &Args) -> Members {
    let (cycles, _) = args.scale.resolve(&Grid::STANDARD);
    let mode = args.scale.mode();
    // Both grid sizes in both wirings, plus the largest full mesh the
    // 4-port router supports.
    let topologies: [NetTopology; 5] = [
        Torus::net_4x4().into(),
        Mesh::new(4, 4).into(),
        Torus::net_8x8().into(),
        Mesh::new(8, 8).into(),
        FullMesh::new(5).into(),
    ];
    let columns = bnf_columns(DELIVERED);
    let mut figures = Vec::new();
    for topology in topologies {
        println!(
            "\nTopology axis: {topology}, uniform traffic ({mode} mode, {cycles} cycles/point)"
        );
        let pattern = TrafficPattern::Uniform;
        let curves = spec_curves(&TRIO, topology, pattern, args.scale, |_| {});
        println!("{}", table(Some("algorithm"), &columns, &curves).to_text());
        figures.push(Json::Object(vec![
            ("topology", Json::str(topology)),
            ("curves", json_curves("algorithm", &columns, &curves)),
        ]));
    }
    vec![
        ("cycles_per_point", Json::Int(cycles)),
        ("pattern", Json::str("uniform")),
        ("figures", Json::Array(figures)),
    ]
}

/// Scenario BNF curves with error bars — replicated hotspot and bursty
/// sweeps.
///
/// The paper's BNF comparisons (Figs. 9–11) are single curves from a
/// single RNG stream, so near saturation an algorithm gap is not
/// distinguishable from seed noise. This figure reruns every
/// (algorithm, load) cell under ≥5 independent seeds via
/// `SweepSpec::run_replicated` and reports mean ± 95% CI per point, on
/// the two canonical non-uniform stress scenarios the paper does not
/// cover ([`Scenario::Hotspot`], [`Scenario::Bursty`]).
pub(crate) fn scenarios(args: &Args) -> Members {
    // Slightly below the smooth-sweep default: the replication ×5
    // dominates the budget, and the CI half-widths — not the per-run
    // cycle count — carry the precision story. The smoke mode keeps two
    // seeds so the CI math runs.
    let grid = Grid {
        smoke: (3_000, &SMOKE_RATES),
        ..Grid::new(12_000, &COARSE_RATES)
    };
    let (cycles, rates) = args.scale.resolve(&grid);
    let seeds: &[u64] = if args.scale == Scale::Smoke {
        &[1, 2]
    } else {
        &[1, 2, 3, 4, 5]
    };
    let mode = args.scale.mode();
    let columns = replicated_columns();
    let mut figures = Vec::new();
    for torus in tori() {
        for scenario in [Scenario::Hotspot, Scenario::Bursty] {
            let topology = NetTopology::from(torus);
            let pattern = scenario.pattern(&torus);
            println!(
                "\nscenario {}: {topology} torus, {} seeds x {} loads ({mode} mode, {cycles} cycles/point)",
                scenario.name(),
                seeds.len(),
                rates.len(),
            );
            let replicated: Vec<ReplicatedBnfCurve> = TRIO
                .into_iter()
                .map(|algo| {
                    let mut spec = SweepSpec::new(algo, topology, pattern, args.scale);
                    spec.rates = rates.clone();
                    spec.cycles = cycles;
                    spec.burst = scenario.burst();
                    let curve = spec.run_replicated(0, seeds);
                    eprintln!("  swept {algo} ({} replicates)", curve.replicate_count());
                    curve
                })
                .collect();
            let curves: Vec<_> = replicated
                .iter()
                .map(|c| Curve {
                    label: c.label.clone(),
                    points: c.points(),
                })
                .collect();
            println!("{}", table(Some("algorithm"), &columns, &curves).to_text());
            let means: Vec<_> = replicated.iter().map(|c| c.mean_curve()).collect();
            let summary = summary_table(&means, reference_latency(&topology));
            println!("{}", summary.to_text());
            figures.push(Json::Object(vec![
                ("torus", Json::str(topology)),
                ("scenario", Json::str(scenario.name())),
                ("curves", json_curves("algorithm", &columns, &curves)),
            ]));
        }
    }
    let seeds = Json::Array(seeds.iter().map(|&s| Json::Int(s)).collect());
    let mut members = vec![("cycles_per_point", Json::Int(cycles)), ("seeds", seeds)];
    members.extend(Scenario::json_header());
    members.push(("figures", Json::Array(figures)));
    members
}

/// Achieved matching weight over exact-MWM weight, or `None` when no
/// windows ran (SPAA) or no requests arrived.
fn weight_gap(matched: u64, mwm: u64) -> Option<f64> {
    (mwm > 0).then(|| matched as f64 / mwm as f64)
}

/// Weighted-arbitration BNF curves with the exact-MWM oracle overlay.
///
/// Sweeps the weighted iterative kernels (iLQF 1–2 on queue depth, iOCF 1
/// on head-of-line age) against the paper's shipped pick (SPAA-rotary),
/// its windowed peer (PIM1), and the unweighted extension baseline
/// (iSLIP2) on the 4×4 and 8×8 tori under uniform, hotspot, and bursty
/// traffic. Every windowed run additionally solves the Hungarian
/// maximum-weight matching per arbitration window — as a pure observer
/// outside the timed path (`RouterConfig::measure_matching_weight`) — so
/// each load point reports the *optimality gap*: achieved matching
/// weight / exact-MWM weight, in the algorithm's own weight plane
/// (depth for iLQF/iSLIP/PIM, age for iOCF). SPAA is pipelined and
/// windowless, so its gap column is null.
///
/// Expected reading: the weighted kernels only separate from iSLIP where
/// weights are *skewed* — hotspot and bursty panels — while on smooth
/// uniform traffic all windowed algorithms sit within noise of each
/// other, and none reaches SPAA-rotary's pipelined initiation rate.
pub(crate) fn weighted(args: &Args) -> Members {
    // Below the smooth-sweep default: the per-window Hungarian oracle
    // roughly doubles per-cycle cost, and the gap story needs load
    // coverage more than per-point precision.
    let (cycles, rates) = args.scale.resolve(&Grid::new(12_000, &COARSE_RATES));
    let mode = args.scale.mode();
    let algorithms = [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::Pim1,
        ArbAlgorithm::Islip { iterations: 2 },
        ArbAlgorithm::Ilqf { iterations: 1 },
        ArbAlgorithm::Ilqf { iterations: 2 },
        ArbAlgorithm::Iocf { iterations: 1 },
    ];
    let mut columns = Vec::from(bnf_columns(DELIVERED));
    columns.extend([
        Column::count(None, "matched_weight", |p: &Point| {
            Val::U(p.report.matched_weight)
        }),
        Column::count(None, "mwm_weight", |p: &Point| Val::U(p.report.mwm_weight)),
        Column::new("gap(w/MWM)", "gap", (3, 4), |p: &Point| {
            Val::Opt(weight_gap(p.report.matched_weight, p.report.mwm_weight))
        }),
    ]);
    let mut figures = Vec::new();
    for torus in tori() {
        for scenario in [Scenario::Uniform, Scenario::Hotspot, Scenario::Bursty] {
            let topology = NetTopology::from(torus);
            let pattern = scenario.pattern(&torus);
            println!(
                "\nweighted kernels: {topology} torus, {} traffic ({mode} mode, {cycles} cycles/point)",
                scenario.name(),
            );
            let label = ArbAlgorithm::to_string;
            let curves = sweep(&algorithms, &rates, label, |&algo, idx, rate| {
                let mut net = plain_net(topology, algo, idx, cycles);
                net.router.measure_matching_weight = true;
                let wl = WorkloadConfig {
                    burst: scenario.burst(),
                    ..WorkloadConfig::open_loop(pattern, rate)
                };
                (net, wl)
            });
            print_bnf_tables(&columns, &curves, reference_latency(&topology));
            for c in &curves {
                // Run-wide gap: total achieved weight over total oracle
                // weight, so heavy (saturated) windows dominate exactly
                // as they do in time.
                let total = |f: fn(&Point) -> u64| -> u64 { c.points.iter().map(f).sum() };
                let matched = total(|p| p.report.matched_weight);
                if let Some(gap) = weight_gap(matched, total(|p| p.report.mwm_weight)) {
                    println!("  {} overall weight / MWM weight: {gap:.3}", c.label);
                }
            }
            figures.push(Json::Object(vec![
                ("torus", Json::str(topology)),
                ("scenario", Json::str(scenario.name())),
                ("curves", json_curves("algorithm", &columns, &curves)),
            ]));
        }
    }
    let mut members = vec![("cycles_per_point", Json::Int(cycles))];
    members.extend(Scenario::json_header());
    members.push(("figures", Json::Array(figures)));
    members
}

/// Open-loop vs closed-loop BNF panels: what MSHR self-throttling does
/// to the saturation story.
///
/// The 21364 never saw open-loop Bernoulli arrivals in production — each
/// processor bounded its outstanding cache misses with a 16-entry MSHR
/// file, so offered load self-throttles as soon as replies slow down
/// (§3.4). This figure sweeps the same injection-rate grid twice on the
/// 4×4 and 8×8 tori for SPAA-rotary, PIM1, iSLIP2 and iLQF2: once
/// open-loop (`mshrs = ∞`, the configuration every BNF figure uses to
/// reach the post-saturation region) and once closed-loop at MSHR
/// capacities {1, 4, 8, 16}. Each point reports both packet latency and
/// the per-transaction (request-issue → reply-drain) latency.
///
/// Expected reading: past the open-loop saturation point the open curve
/// bends backward — delivered throughput collapses while latency grows
/// without bound (source queueing included, §4.3). Every closed curve
/// instead *caps*: offered load beyond what the MSHR file can keep in
/// flight is simply never generated, so latency flattens at the
/// round-trip ceiling and throughput holds. The capacity ladder shows
/// the ceiling rising with the MSHR count toward the open-loop knee.
///
/// Before writing the table, the figure proves the closed-loop shard
/// crossing ([`prove_bit_exactness`] on one closed-loop configuration,
/// down to the raw f64 bits of the transaction latency statistics; the
/// JSON records `"bit_exact": true`).
pub(crate) fn closedloop(args: &Args) -> Members {
    /// `DEFAULT_RATES` trimmed of its two cheapest points — the
    /// open/closed divergence lives at the bend and beyond, and needs
    /// the load span more than per-point precision.
    const RATES: [f64; 9] = [
        0.004, 0.008, 0.012, 0.016, 0.020, 0.028, 0.042, 0.060, 0.085,
    ];
    /// The MSHR-capacity ladder each panel sweeps against the open loop.
    const LADDER: [u32; 4] = [1, 4, 8, 16];
    let (cycles, rates) = args.scale.resolve(&Grid::new(12_000, &RATES));
    let mode = args.scale.mode();
    // The headline arbiters: the reference trio and a weighted kernel.
    let algorithms = [&TRIO[..], &[ArbAlgorithm::Ilqf { iterations: 2 }]].concat();
    // `None` is the open loop: unbounded outstanding misses.
    let loops: Vec<Option<u32>> = [None].into_iter().chain(LADDER.map(Some)).collect();
    let loop_name = |l: &Option<u32>| l.map_or("open".into(), |m| format!("mshr{m}"));

    // Prove the engine crossing before publishing any numbers from it.
    let probe_cycles = args.scale.pick(2_000, 3_000, 3_000);
    let net = plain_net(Torus::net_4x4(), TRIO[0], 0, probe_cycles);
    let wl = WorkloadConfig::closed_loop(TrafficPattern::Uniform, 0.05, 4);
    let probe = prove_bit_exactness("closed-loop", &net, &wl);
    assert!(probe.completed_txns > 0, "probe measured no transactions");

    let [offered, delivered, latency, packets] = bnf_columns(DELIVERED);
    let columns = vec![
        offered,
        delivered,
        latency.titled("pkt latency(ns)"),
        Column::new("txn latency(ns)", "txn_latency_ns", (1, 2), |p: &Point| {
            Val::F(p.report.avg_txn_latency_ns())
        }),
        packets.titled(None),
        Column::count("txns", "txns", |p| Val::U(p.report.completed_txns)),
        Column::count("mshr stalls", "mshr_stalls", |p| {
            Val::U(p.stats.mshr_stalls)
        }),
    ];
    let mut figures = Vec::new();
    for torus in tori() {
        for &algorithm in &algorithms {
            let topology = NetTopology::from(torus);
            println!(
                "\nclosed loop: {topology} torus, {algorithm} ({mode} mode, {cycles} cycles/point)"
            );
            let curves = sweep(&loops, &rates, loop_name, |&mshrs, idx, rate| {
                let pattern = TrafficPattern::Uniform;
                let wl = match mshrs {
                    None => WorkloadConfig::open_loop(pattern, rate),
                    Some(m) => WorkloadConfig::closed_loop(pattern, rate, m),
                };
                (plain_net(torus, algorithm, idx, cycles), wl)
            });
            println!("{}", table(Some("loop"), &columns, &curves).to_text());
            let summary = summary_table(&bnf_curves(&curves), reference_latency(&topology));
            println!("{}", summary.to_text());
            // The headline number: packet latency at the heaviest swept
            // load, open loop over fully-provisioned closed loop. Open-loop
            // latency includes unbounded source queueing past saturation, so
            // a healthy closed loop makes this ratio large.
            let last_latency =
                |c: &Curve<Point>| c.points.last().map(|p| p.report.avg_latency_ns());
            let ratio = last_latency(&curves[0])
                .zip(last_latency(&curves[LADDER.len()]))
                .and_then(|(open, closed)| (closed > 0.0).then(|| open / closed));
            if let Some(ratio) = ratio {
                println!("  open/closed(16) latency at max load: {ratio:.2}x");
            }
            figures.push(Json::Object(vec![
                ("torus", Json::str(topology)),
                ("algorithm", Json::str(algorithm)),
                ("open_over_closed16_latency", Json::opt_fixed(ratio, 2)),
                ("curves", json_curves("loop", &columns, &curves)),
            ]));
        }
    }
    let ladder = Json::Array(LADDER.iter().map(|&m| Json::Int(m.into())).collect());
    vec![
        ("cycles_per_point", Json::Int(cycles)),
        ("mshr_ladder", ladder),
        ("bit_exact", Json::Bool(true)),
        ("figures", Json::Array(figures)),
    ]
}

/// Big-torus BNF curves — 16×16 and 32×32.
///
/// The paper evaluates 4×4 through 12×12 tori (§4.3); this figure
/// extends the BNF methodology to 256- and 1024-router tori. Per-node
/// injection rates are swept over a lower grid than the small tori:
/// bisection bandwidth per node shrinks with the ring extent, so a
/// 32×32 saturates around a quarter of the 8×8's per-node rate.
///
/// Like every figure, it runs one simulation per thread and spreads the
/// points across the machine. These sizes are also where splitting one
/// simulation across threads pays (DESIGN.md "One engine, N shards"), so
/// before writing the table the figure proves that crossing at scale
/// ([`prove_bit_exactness`] on one loaded 16×16 configuration; the JSON
/// records `"bit_exact": true`).
pub(crate) fn bigtorus(args: &Args) -> Members {
    // Big tori pay per-cycle costs 16-64x the 4x4's, so the default mode
    // runs shorter windows than the small-torus figures; the paper mode
    // keeps the full 75,000-cycle discipline on the 16x16 and half of it
    // on the 32x32.
    //
    // 16x16: the 256-node bisection halves the per-node budget of the
    // 8x8, so the bend sits near 0.01 pkt/node/cycle; the tail reaches
    // the post-saturation plateau.
    const GRID_16: Grid = Grid {
        smoke: (1_500, &[0.002, 0.008, 0.02]),
        ..Grid::new(
            10_000,
            &[
                0.001, 0.002, 0.004, 0.006, 0.008, 0.010, 0.013, 0.017, 0.022, 0.030,
            ],
        )
    };
    // 32x32: half the 16x16 rates again, same reasoning.
    const GRID_32: Grid = Grid {
        smoke: (600, &[0.004]),
        full: (
            4_000,
            &[0.0005, 0.001, 0.002, 0.003, 0.004, 0.006, 0.008, 0.012],
        ),
        paper_cycles: 37_500,
    };
    let mode = args.scale.mode();

    // Prove the engine crossing on a big torus before publishing numbers.
    let probe_cycles = args.scale.pick(1_200, 6_000, 6_000);
    let rate = args.scale.pick(0.008, 0.01, 0.01);
    let net = plain_net(Torus::net_16x16(), TRIO[0], 0, probe_cycles);
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, rate);
    let probe = prove_bit_exactness("big-torus", &net, &wl);
    assert!(probe.delivered_packets > 0, "probe carried no traffic");

    let columns = bnf_columns("throughput");
    let mut figures = Vec::new();
    // 1024 routers: two curves keep the 32x32 panel affordable while
    // still showing the SPAA-vs-windowed gap at scale.
    for (torus, grid, algorithms) in [
        (Torus::net_16x16(), GRID_16, &TRIO[..]),
        (Torus::net_32x32(), GRID_32, &[TRIO[0], TRIO[2]][..]),
    ] {
        let topology = NetTopology::from(torus);
        let (cycles, rates) = args.scale.resolve(&grid);
        println!(
            "\n{topology} torus: {} loads x {} algorithms ({mode} mode, {cycles} cycles/point)",
            rates.len(),
            algorithms.len(),
        );
        let label = ArbAlgorithm::to_string;
        let curves = sweep(algorithms, &rates, label, |&algo, idx, rate| {
            let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, rate);
            (plain_net(torus, algo, idx, cycles), wl)
        });
        print_bnf_tables(&columns, &curves, 160.0);
        figures.push(Json::Object(vec![
            ("torus", Json::str(topology)),
            ("cycles_per_point", Json::Int(cycles)),
            ("curves", json_curves("algorithm", &columns, &curves)),
        ]));
    }

    vec![
        ("bit_exact", Json::Bool(true)),
        ("figures", Json::Array(figures)),
    ]
}

/// Graceful-degradation curves under the deterministic fault plane:
/// delivered throughput and packet latency versus link bit-error rate,
/// and versus the fraction of links dead.
///
/// The 21364's interconnect assumed a hostile physical layer (CRC with
/// hardware retry on every link); this reproduction's fault plane models
/// that axis deterministically — per-link seeded corruption, bounded
/// retransmission, retry-exhaustion link death, and fault-aware routing
/// that masks dead links from every scheme's candidate set (see DESIGN.md
/// "Fault plane"). This figure sweeps two fault axes at a fixed offered
/// load on the 4×4 torus and the 4×4 mesh for SPAA-rotary, PIM1 and
/// iSLIP2:
///
/// * **BER sweep** — corruption from 0 to 10⁻² per flit: throughput
///   should sag gently (retransmissions consume link time) while latency
///   grows with the retry tail; nothing is lost, only delayed.
/// * **Dead-link sweep** — a seeded fraction of directed links killed at
///   boot: delivered *fraction* degrades as destinations disconnect, but
///   every undeliverable packet is refused at the source or dropped with
///   accounting (`unreachable_drops`) — conservation holds at every
///   point.
///
/// Expected reading: the torus degrades more gracefully than the mesh
/// (wraparound links give the masked adaptive set more alternatives),
/// and the arbiter choice barely moves either curve — fault tolerance
/// here is a routing/link-layer property, not an arbitration one.
///
/// Before writing any numbers the figure proves the fault plane's shard
/// crossing ([`prove_bit_exactness`] on one full-storm configuration:
/// corruption + flaps + a scheduled kill + boot-time dead links, every
/// fault counter compared; the JSON records `"bit_exact": true`).
pub(crate) fn faults(args: &Args) -> Members {
    /// Fixed offered load for every fault sweep: just below the
    /// fault-free saturation knee of the smaller 4×4 shapes, so
    /// degradation comes from the faults and not from ordinary congestion.
    const RATE: f64 = 0.03;
    /// A fault axis: its name, its grid (CI smoke: the fault-free anchor
    /// plus one heavy point), and the fault plane at a grid value.
    type Axis = (&'static str, Grid, fn(f64) -> FaultConfig);
    // Per-flit corruption probability (recovery via retransmission), and
    // the fraction of directed links dead from cycle 0 (recovery via
    // fault-aware routing around the losses).
    const AXES: [Axis; 2] = [
        (
            "ber",
            Grid {
                smoke: (4_000, &[0.0, 1e-3]),
                ..Grid::new(12_000, &[0.0, 1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2])
            },
            |ber| FaultConfig {
                ber,
                ..FaultConfig::default()
            },
        ),
        (
            "dead_fraction",
            Grid {
                smoke: (4_000, &[0.0, 0.125]),
                ..Grid::new(12_000, &[0.0, 0.03, 0.06, 0.125, 0.25])
            },
            |dead_link_fraction| FaultConfig {
                dead_link_fraction,
                ..FaultConfig::default()
            },
        ),
    ];
    let (cycles, _) = args.scale.resolve(&AXES[0].1); // the same on both axes
    let mode = args.scale.mode();
    let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, RATE);

    // Prove the fault plane's engine crossing before publishing numbers.
    let probe_cycles = args.scale.pick(2_000, 4_000, 4_000);
    let storm = FaultConfig {
        ber: 2e-3,
        flap: Some(LinkFlap::new(300.0, 30.0)),
        kill_links: vec![LinkKill {
            node: 5,
            port: OutputPort::East,
            at_cycle: probe_cycles / 3,
        }],
        dead_link_fraction: 0.05,
        ..FaultConfig::default()
    };
    let mut net = plain_net(Torus::net_4x4(), ArbAlgorithm::SpaaRotary, 0, probe_cycles);
    net.fault = storm;
    let probe = prove_bit_exactness("fault-storm", &net, &wl);
    assert!(
        probe.flits_corrupted > 0 && probe.links_dead > 0,
        "probe storm was a no-op"
    );

    let mut figures = Vec::new();
    for topology in [NetTopology::from(Torus::net_4x4()), Mesh::new(4, 4).into()] {
        for algorithm in TRIO {
            for (axis, grid, fault) in AXES {
                let (_, grid) = args.scale.resolve(&grid);
                println!(
                    "\nfaults: {topology}, {algorithm}, {axis} sweep ({mode} mode, {cycles} cycles/point)"
                );
                let curves = sweep(&[axis], &grid, ToString::to_string, |_, idx, x| {
                    let mut net = plain_net(topology, algorithm, idx, cycles);
                    net.fault = fault(x);
                    (net, wl.clone())
                });
                let columns = fault_columns(axis);
                println!("{}", table(None, &columns, &curves).to_text());
                figures.push(Json::Object(vec![
                    ("topology", Json::str(topology)),
                    ("algorithm", Json::str(algorithm)),
                    ("axis", Json::str(axis)),
                    ("points", json_points(&columns, &curves[0].points)),
                ]));
            }
        }
    }
    vec![
        ("cycles_per_point", Json::Int(cycles)),
        ("offered_rate", Json::Float(RATE)),
        ("bit_exact", Json::Bool(true)),
        ("figures", Json::Array(figures)),
    ]
}

/// The columns of one degradation curve along `axis`.
fn fault_columns(axis: &'static str) -> Vec<Column<Point>> {
    let [_, delivered, latency, packets] = bnf_columns(DELIVERED);
    vec![
        Column::new(axis, "x", (0, 0), |p| Val::Exact(p.x)),
        delivered,
        latency,
        // Delivered packets over all packets that reached a terminal
        // state (delivered, refused at source, or dropped as
        // unreachable) — the graceful-degradation y-axis. Exactly 1.0
        // when no links die; every loss below that is an accounted drop,
        // never a silent one.
        Column::new(
            "delivered frac",
            "delivered_fraction",
            (4, 5),
            |p: &Point| {
                let delivered = p.report.delivered_packets;
                let terminal = delivered + p.report.unreachable_drops;
                Val::F(if terminal == 0 {
                    0.0
                } else {
                    delivered as f64 / terminal as f64
                })
            },
        ),
        packets.titled(None),
        Column::count(None, "injected", |p| Val::U(p.report.injected_packets)),
        Column::count("corrupted", "flits_corrupted", |p| {
            Val::U(p.report.flits_corrupted)
        }),
        Column::count("retx", "retransmissions", |p| {
            Val::U(p.report.retransmissions)
        }),
        Column::count("exhaustions", "retry_exhaustions", |p| {
            Val::U(p.report.retry_exhaustions)
        }),
        Column::count("links dead", "links_dead", |p| Val::U(p.report.links_dead)),
        Column::count("drops", "unreachable_drops", |p| {
            Val::U(p.report.unreachable_drops)
        }),
    ]
}
