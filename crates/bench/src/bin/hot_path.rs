//! The simulation-engine hot-path benchmark: simulated cycles per second.
//!
//! This is the engine-speed metric the BNF figure pipelines are bounded
//! by, measured as two panels:
//!
//! * **Low-load panel** (the PR 1 baseline): closed-loop coherence
//!   traffic on the 4×4 torus across the BNF load grid, with the
//!   idle-skip engine disabled ("baseline": every router stepped on
//!   every edge, as the seed engine did) and enabled ("optimized"). Both
//!   modes produce bit-for-bit identical reports — asserted here on
//!   delivered-packet count — so the speedup is free.
//! * **Saturated panel**: *open-loop* uniform traffic at and past the
//!   saturation knee (rates 0.04 and 0.1) on the 4×4 and 8×8 tori for
//!   SPAA-rotary, PIM1 and iSLIP2 — the regime Figures 9–11 are measured
//!   in and where every BNF sweep spends most of its wall-clock. Full
//!   (non-`--quick`) runs additionally report the speedup against the
//!   committed pre-restructuring engine reference
//!   ([`PRE_PR_SATURATED_CPS`]).
//!
//! Flags: `--saturated` runs only the saturated panel, `--low-load`
//! only the low-load panel, `--quick` cuts the saturated simulations to
//! smoke length (CI; pre-PR comparison is skipped because the run shape
//! differs from the reference), `--save` writes `BENCH_hot_path.json`
//! into the workspace root (the committed baseline; `BENCH_JSON`
//! overrides the path). Unknown flags (e.g. repro_all's `--paper`) are
//! ignored.

use bench::harness::time_fn;
use network::{NetworkConfig, Torus};
use router::{ArbAlgorithm, RouterConfig};
use workload::{TrafficPattern, WorkloadConfig};

const WARMUP_CYCLES: u64 = 500;
const MEASURE_CYCLES: u64 = 5_000;

/// Pre-restructuring (PR 1–3) engine throughput on the saturated panel,
/// in simulated cycles/second: best-of-6 runs of the identical panel
/// configurations at commit `2a79a0d` on the machine that produced the
/// committed `BENCH_hot_path.json`. Machine-specific by nature — treat
/// the derived `speedup_vs_pre_pr` as meaningful only when regenerated
/// together with these constants on one machine.
/// Keyed `(algorithm, torus, rate)`.
const PRE_PR_SATURATED_CPS: [(&str, &str, f64, f64); 12] = [
    ("SPAA-rotary", "4x4", 0.04, 71153.0),
    ("SPAA-rotary", "4x4", 0.1, 53339.0),
    ("SPAA-rotary", "8x8", 0.04, 15503.0),
    ("SPAA-rotary", "8x8", 0.1, 13108.0),
    ("PIM1", "4x4", 0.04, 142844.0),
    ("PIM1", "4x4", 0.1, 112735.0),
    ("PIM1", "8x8", 0.04, 36463.0),
    ("PIM1", "8x8", 0.1, 28847.0),
    ("iSLIP2", "4x4", 0.04, 136981.0),
    ("iSLIP2", "4x4", 0.1, 115485.0),
    ("iSLIP2", "8x8", 0.04, 37108.0),
    ("iSLIP2", "8x8", 0.1, 28107.0),
];

fn net(algo: ArbAlgorithm, torus: Torus, total_cycles: u64) -> NetworkConfig {
    NetworkConfig {
        topology: torus.into(),
        router: RouterConfig::alpha_21364(algo),
        seed: 0x21364,
        warmup_cycles: total_cycles / 11,
        measure_cycles: total_cycles - total_cycles / 11,
        fault: network::FaultConfig::default(),
    }
}

/// One full simulation; returns (delivered packets, skipped router steps).
fn run_once(cfg: &NetworkConfig, wl: &WorkloadConfig, idle_skip: bool) -> (u64, u64) {
    let endpoints = workload::build_endpoints(cfg, wl);
    let mut sim = network::NetworkSim::new(cfg.clone(), endpoints);
    sim.set_idle_skip(idle_skip);
    let report = sim.run();
    (report.delivered_packets, sim.skipped_router_steps())
}

struct Point {
    panel: &'static str,
    algo: ArbAlgorithm,
    torus_label: &'static str,
    rate: f64,
    total_cycles: u64,
    baseline_cps: f64,
    optimized_cps: f64,
    skip_fraction: f64,
    delivered: u64,
    pre_pr_cps: Option<f64>,
}

fn measure_point(
    panel: &'static str,
    algo: ArbAlgorithm,
    torus: Torus,
    torus_label: &'static str,
    wl: &WorkloadConfig,
    total_cycles: u64,
    pre_pr_cps: Option<f64>,
) -> Point {
    let cfg = net(algo, torus, total_cycles);
    let nodes = torus.nodes() as f64;
    // Equivalence guard: idle-skip must not change the simulation.
    let (d_off, _) = run_once(&cfg, wl, false);
    let (d_on, skipped) = run_once(&cfg, wl, true);
    assert_eq!(d_off, d_on, "idle-skip changed delivered packets");
    let total_steps = total_cycles as f64 * nodes;

    let off = time_fn(
        &format!("{panel}/{algo}/{torus_label}/{}/baseline", wl_rate(wl)),
        || run_once(&cfg, wl, false),
    );
    let on = time_fn(
        &format!("{panel}/{algo}/{torus_label}/{}/optimized", wl_rate(wl)),
        || run_once(&cfg, wl, true),
    );
    // The fastest batch is the least-interference estimate — the same
    // estimator the pre-PR reference constants were taken with.
    let baseline_cps = total_cycles as f64 / (off.min_ns / 1e9);
    let optimized_cps = total_cycles as f64 / (on.min_ns / 1e9);
    let p = Point {
        panel,
        algo,
        torus_label,
        rate: wl_rate(wl),
        total_cycles,
        baseline_cps,
        optimized_cps,
        skip_fraction: skipped as f64 / total_steps,
        delivered: d_on,
        pre_pr_cps,
    };
    let vs_pre = p
        .pre_pr_cps
        .map(|pre| format!(", {:.2}x vs pre-PR", p.optimized_cps / pre))
        .unwrap_or_default();
    eprintln!(
        "  [{}] {:<12} {:<4} rate {:<6} {:>12.0} -> {:>12.0} cycles/s ({:.2}x skip-on/off, {:.0}% steps skipped, {} pkts{})",
        p.panel,
        p.algo.to_string(),
        p.torus_label,
        p.rate,
        p.baseline_cps,
        p.optimized_cps,
        p.optimized_cps / p.baseline_cps,
        p.skip_fraction * 100.0,
        p.delivered,
        vs_pre,
    );
    p
}

fn wl_rate(wl: &WorkloadConfig) -> f64 {
    wl.injection_rate
}

/// Zero-fault-tax guard: with faults disabled (the default config every
/// point in this benchmark runs under) the fault plane must not perturb
/// the simulation at all. A watchdog-only config arms the forward-
/// progress watchdog but enables no fault injection, so its report must
/// be bit-identical to the default's — any divergence means the fault
/// plane is taxing the fault-free hot path with RNG draws or schedule
/// changes, which would silently skew every committed cycles/sec number.
fn assert_zero_fault_tax() {
    let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.04);
    let run = |fault: network::FaultConfig| {
        let mut cfg = net(ArbAlgorithm::SpaaRotary, Torus::net_4x4(), 5_000);
        cfg.fault = fault;
        let endpoints = workload::build_endpoints(&cfg, &wl);
        network::NetworkSim::new(cfg, endpoints).run()
    };
    let plain = run(network::FaultConfig::default());
    let armed = run(network::FaultConfig {
        watchdog_cycles: Some(2_000),
        ..network::FaultConfig::default()
    });
    assert_eq!(plain.flits_corrupted, 0, "fault-free run corrupted flits");
    assert_eq!(plain.retransmissions, 0, "fault-free run retransmitted");
    assert_eq!(plain.links_dead, 0, "fault-free run killed links");
    plain.assert_bit_identical(&armed, "watchdog-only run vs fault-free run");
    eprintln!("zero-fault-tax guard: fault-off and watchdog-only reports bit-identical");
}

fn pre_pr_reference(algo: ArbAlgorithm, torus_label: &str, rate: f64) -> Option<f64> {
    let label = algo.to_string();
    PRE_PR_SATURATED_CPS
        .iter()
        .find(|&&(a, t, r, _)| a == label && t == torus_label && r == rate)
        .map(|&(_, _, _, cps)| cps)
}

fn to_json(points: &[Point]) -> String {
    let mut s = String::from("{\n  \"bench\": \"hot_path\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"panel\": \"{}\", \"algorithm\": \"{}\", \"torus\": \"{}\", \"rate\": {}, \
             \"total_cycles\": {}, \"baseline_cycles_per_sec\": {:.0}, \
             \"optimized_cycles_per_sec\": {:.0}, \"speedup\": {:.3}, \"skip_fraction\": {:.4}, \
             \"delivered_packets\": {}{}}}{}\n",
            p.panel,
            p.algo,
            p.torus_label,
            p.rate,
            p.total_cycles,
            p.baseline_cps,
            p.optimized_cps,
            p.optimized_cps / p.baseline_cps,
            p.skip_fraction,
            p.delivered,
            p.pre_pr_cps
                .map(|pre| format!(
                    ", \"pre_pr_optimized_cycles_per_sec\": {:.0}, \"speedup_vs_pre_pr\": {:.3}",
                    pre,
                    p.optimized_cps / pre
                ))
                .unwrap_or_default(),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let saturated_only = args.iter().any(|a| a == "--saturated");
    let low_load_only = args.iter().any(|a| a == "--low-load");
    let save = args.iter().any(|a| a == "--save");

    eprintln!("benchmark group: hot_path (simulated cycles/sec, baseline = idle-skip off)");
    assert_zero_fault_tax();
    let mut points = Vec::new();

    if !saturated_only {
        for algo in [ArbAlgorithm::SpaaRotary, ArbAlgorithm::Pim1] {
            // The BNF grid spans 0.001..=0.1 txn/node/cycle with closed-loop
            // saturation near 0.02-0.04: 0.002 is a representative low-load
            // sweep point (the bottom decile of the grid, where the torus is
            // mostly idle and idle-skip should dominate), 0.01 approaches
            // the bend, 0.04 sits on it, and 0.1 is the top of the grid.
            for rate in [0.002, 0.01, 0.04, 0.1] {
                let wl = WorkloadConfig::paper(TrafficPattern::Uniform, rate);
                points.push(measure_point(
                    "low_load",
                    algo,
                    Torus::net_4x4(),
                    "4x4",
                    &wl,
                    WARMUP_CYCLES + MEASURE_CYCLES,
                    None,
                ));
            }
        }
    }

    // Saturated panel: open-loop, so buffers actually fill and the tree
    // saturation of §3.4 develops — the regime the BNF sweeps (which run
    // open-loop) spend most of their cycles in.
    if !low_load_only {
        run_saturated_panel(quick, &mut points);
    }

    let json = to_json(&points);
    print!("{json}");
    let path = std::env::var("BENCH_JSON").ok().or_else(|| {
        save.then(|| format!("{}/../../BENCH_hot_path.json", env!("CARGO_MANIFEST_DIR")))
    });
    if let Some(path) = path {
        std::fs::write(&path, &json).expect("write benchmark json");
        eprintln!("wrote {path}");
    }
}

fn run_saturated_panel(quick: bool, points: &mut Vec<Point>) {
    let tori = [
        (Torus::net_4x4(), "4x4", if quick { 5_000 } else { 20_000 }),
        (Torus::net_8x8(), "8x8", if quick { 2_000 } else { 8_000 }),
    ];
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::Pim1,
        ArbAlgorithm::Islip { iterations: 2 },
    ] {
        for &(torus, label, cycles) in &tori {
            for rate in [0.04, 0.1] {
                let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, rate);
                let pre = (!quick)
                    .then(|| pre_pr_reference(algo, label, rate))
                    .flatten();
                points.push(measure_point(
                    "saturated",
                    algo,
                    torus,
                    label,
                    &wl,
                    cycles,
                    pre,
                ));
            }
        }
    }
}
