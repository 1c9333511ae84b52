//! Big-torus BNF curves on a multi-threaded engine — 16×16 and 32×32.
//!
//! The paper evaluates 4×4 through 12×12 tori (§4.3); this harness
//! extends the BNF methodology to 256- and 1024-router tori, which are
//! only practical because the engine spreads one simulation across
//! worker threads while staying bit-for-bit identical to a
//! single-threaded run (pinned by `tests/shard_equivalence.rs`).
//! Per-node injection rates are swept over a lower grid than the small
//! tori: bisection bandwidth per node shrinks with the ring extent, so a
//! 32×32 saturates around a quarter of the 8×8's per-node rate.
//!
//! Alongside the curves, the harness measures the engine speedup
//! directly: one loaded 16×16 configuration run at each thread count,
//! wall-clock timed, with the reports cross-checked for bit equality
//! before any number is published. The measured ratios go into the JSON
//! as-is — they are a property of the machine the harness ran on, not a
//! claim about every machine.
//!
//! ```text
//! cargo run --release -p bench --bin fig_bigtorus [-- --quick | --paper] \
//!     [--threads N] [--out BENCH_bigtorus.json]
//! ```
//!
//! `--threads` sets the per-simulation worker count for the curve sweeps
//! (default 4); the speedup block always measures 1, 2, 4 and 8 threads.
//! `--quick` is the CI smoke mode: short runs, a three-point 16×16 grid,
//! a one-point 32×32 grid, and a reduced-cycle speedup probe.

use bench::{curves_table, flag_value, summary_table, threads_flag, Scale, SweepSpec};
use network::Torus;
use router::ArbAlgorithm;
use simcore::bnf::BnfCurve;
use std::time::Instant;
use workload::{run_coherence_sim_with_workers, TrafficPattern, WorkloadConfig};

/// Curves per panel: the shipped pick, its windowed peer, and the
/// extension family's middle member — the same trio as `fig_scenarios`.
const ALGORITHMS: [ArbAlgorithm; 3] = [
    ArbAlgorithm::SpaaRotary,
    ArbAlgorithm::Pim1,
    ArbAlgorithm::Islip { iterations: 2 },
];

/// Thread counts the speedup probe measures.
const SPEEDUP_THREADS: [usize; 4] = [1, 2, 4, 8];

struct Panel {
    torus: Torus,
    cycles: u64,
    curves: Vec<BnfCurve>,
}

struct SpeedupRun {
    threads: usize,
    seconds: f64,
    speedup: f64,
}

struct Speedup {
    rate: f64,
    cycles: u64,
    delivered_packets: u64,
    runs: Vec<SpeedupRun>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = Scale::from_args();
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_bigtorus.json".into());
    let threads = threads_flag(&args, 4);

    // (mode, 16x16 cycles, 32x32 cycles, rate grids, speedup cycles)
    let (mode, cy16, cy32, rates16, rates32, speedup_cycles): (
        &str,
        u64,
        u64,
        Vec<f64>,
        Vec<f64>,
        u64,
    ) = if quick {
        (
            "quick",
            1_500,
            600,
            vec![0.002, 0.008, 0.02],
            vec![0.004],
            1_200,
        )
    } else {
        let mode = match scale {
            Scale::Paper => "paper",
            Scale::Quick => "default",
        };
        // Big tori pay per-cycle costs 16-64x the 4x4's, so the default
        // mode runs shorter windows than the small-torus figures; the
        // paper mode keeps the full 75,000-cycle discipline on the 16x16
        // and half of it on the 32x32.
        let (cy16, cy32) = match scale {
            Scale::Paper => (scale.cycles(), scale.cycles() / 2),
            Scale::Quick => (10_000, 4_000),
        };
        (mode, cy16, cy32, rates_16x16(), rates_32x32(), 6_000)
    };

    let panels_spec = [
        (Torus::net_16x16(), cy16, rates16, ALGORITHMS.to_vec()),
        (
            Torus::net_32x32(),
            cy32,
            rates32,
            // 1024 routers: two curves keep the panel affordable while
            // still showing the SPAA-vs-windowed gap at scale.
            vec![
                ArbAlgorithm::SpaaRotary,
                ArbAlgorithm::Islip { iterations: 2 },
            ],
        ),
    ];

    let mut panels = Vec::new();
    for (torus, cycles, rates, algorithms) in panels_spec {
        println!(
            "\n{}x{} torus: {} loads x {} algorithms ({mode} mode, {cycles} cycles/point, {threads} threads/sim)",
            torus.width(),
            torus.height(),
            rates.len(),
            algorithms.len(),
        );
        let curves: Vec<BnfCurve> = algorithms
            .into_iter()
            .map(|algo| {
                let mut spec = SweepSpec::new(algo, torus, TrafficPattern::Uniform, scale)
                    .with_sim_workers(threads);
                spec.rates = rates.clone();
                spec.cycles = cycles;
                // Points run sequentially: the parallelism budget is
                // spent *inside* each simulation, where the big-torus
                // working set wants it (N sharded 1024-router sims at
                // once would thrash cache and memory instead).
                let t0 = Instant::now();
                let curve = spec.run(1);
                eprintln!("  swept {algo} in {:.1}s", t0.elapsed().as_secs_f64());
                curve
            })
            .collect();
        println!("{}", curves_table(&curves).to_text());
        println!("{}", summary_table(&curves, 160.0).to_text());
        panels.push(Panel {
            torus,
            cycles,
            curves,
        });
    }

    let speedup = measure_speedup(speedup_cycles, if quick { 0.008 } else { 0.01 });
    println!(
        "\nengine speedup, 16x16 SPAA-rotary at rate {} ({} cycles):",
        speedup.rate, speedup.cycles
    );
    for run in &speedup.runs {
        println!(
            "  {} thread(s): {:.2}s  speedup {:.2}x",
            run.threads, run.seconds, run.speedup
        );
    }

    let json = render_json(mode, threads, &panels, &speedup);
    std::fs::write(&out_path, json).expect("write bigtorus table");
    println!("\nwrote {out_path}");
}

/// 16x16 load grid: the 256-node bisection halves the per-node budget of
/// the 8x8, so the bend sits near 0.01 pkt/node/cycle; the tail reaches
/// the post-saturation plateau.
fn rates_16x16() -> Vec<f64> {
    vec![
        0.001, 0.002, 0.004, 0.006, 0.008, 0.010, 0.013, 0.017, 0.022, 0.030,
    ]
}

/// 32x32 load grid: half the 16x16 rates again, same reasoning.
fn rates_32x32() -> Vec<f64> {
    vec![0.0005, 0.001, 0.002, 0.003, 0.004, 0.006, 0.008, 0.012]
}

/// Times one loaded 16x16 simulation at each probe thread count and
/// verifies every multi-threaded report is bit-identical to the
/// single-threaded baseline before reporting the ratio.
fn measure_speedup(cycles: u64, rate: f64) -> Speedup {
    let net = |seed_salt: u64| network::NetworkConfig {
        topology: Torus::net_16x16().into(),
        router: router::RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
        seed: 0x21364 ^ seed_salt,
        warmup_cycles: cycles / 5,
        measure_cycles: cycles - cycles / 5,

        fault: network::FaultConfig::default(),
    };
    let wl = WorkloadConfig::paper(TrafficPattern::Uniform, rate);

    let timed = |threads: usize| {
        let t0 = Instant::now();
        let (report, _) = run_coherence_sim_with_workers(net(0), wl.clone(), threads);
        (report, t0.elapsed().as_secs_f64())
    };
    let (baseline, base_seconds) = timed(1);
    let mut runs = vec![SpeedupRun {
        threads: 1,
        seconds: base_seconds,
        speedup: 1.0,
    }];
    for &threads in &SPEEDUP_THREADS[1..] {
        let (report, seconds) = timed(threads);
        report.assert_bit_identical(&baseline, &format!("{threads}-thread run"));
        runs.push(SpeedupRun {
            threads,
            seconds,
            speedup: base_seconds / seconds,
        });
    }
    Speedup {
        rate,
        cycles,
        delivered_packets: baseline.delivered_packets,
        runs,
    }
}

/// Hand-rolled JSON (the workspace is dependency-free).
fn render_json(mode: &str, threads: usize, panels: &[Panel], speedup: &Speedup) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"fig_bigtorus\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"threads_per_sim\": {threads},\n"));
    // Speedup ratios only mean something relative to the parallelism the
    // host actually had; a single-CPU container can only measure the
    // engine's overhead, never a gain.
    s.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    s.push_str("  \"figures\": [\n");
    for (i, panel) in panels.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"torus\": \"{}x{}\", \"cycles_per_point\": {}, \"curves\": [\n",
            panel.torus.width(),
            panel.torus.height(),
            panel.cycles
        ));
        for (j, curve) in panel.curves.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"algorithm\": \"{}\", \"points\": [\n",
                curve.label
            ));
            for (k, p) in curve.points.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"offered\": {:.4}, \"throughput\": {:.5}, \
                     \"latency_ns\": {:.2}, \"packets\": {}}}{}\n",
                    p.offered,
                    p.delivered_flits_per_router_ns,
                    p.avg_latency_ns,
                    p.packets,
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
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"speedup\": {{\"torus\": \"16x16\", \"algorithm\": \"SPAA-rotary\", \
         \"offered\": {}, \"cycles\": {}, \"delivered_packets\": {}, \
         \"reports_bit_identical\": true, \"runs\": [\n",
        speedup.rate, speedup.cycles, speedup.delivered_packets
    ));
    for (i, run) in speedup.runs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"seconds\": {:.3}, \"speedup\": {:.3}}}{}\n",
            run.threads,
            run.seconds,
            run.speedup,
            if i + 1 < speedup.runs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]}\n}\n");
    s
}
