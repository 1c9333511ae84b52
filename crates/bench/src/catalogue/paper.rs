//! The paper's own figures (Fig. 8–11) and the ablations its text quotes.
//! All are text-only: they print the rows the paper plots and the
//! headline ratio the paper reads off them.

use crate::figure::{
    bnf_columns, bnf_curves, gain_percent, plain_net, print_bnf_tables, reference_latency,
    spec_curves, summary_table, Args, DELIVERED,
};
use crate::{run_jobs, Grid, Point, SweepSpec};
use network::{NetTopology, Torus};
use router::{ArbAlgorithm, BufferConfig};
use simcore::table::Table;
use standalone::{find_mcm_saturation_load, run_standalone, AlgoKind, StandaloneConfig};
use workload::{TrafficPattern, WorkloadConfig};

/// Iterations of the standalone model at this scale.
fn standalone_base(args: &Args) -> StandaloneConfig {
    StandaloneConfig {
        iterations: args.scale.pick(100, 1000, 10_000),
        ..Default::default()
    }
}

/// Figure 8 — standalone matching capability vs input load.
///
/// "Standalone comparison of matching capabilities of different
/// arbitration algorithms for a single 21364 router with increasing
/// router load for zero output port occupancy. The horizontal axis plots
/// the input router load as a fraction of the load required to saturate
/// MCM."
///
/// Paper readings to check: MCM/WFA/PIM nearly coincide and approach 7;
/// PIM1 sits visibly below; SPAA is lowest. At the MCM saturation load
/// MCM-family matches are ~36% above SPAA and PIM1 ~14% above SPAA.
pub(crate) fn fig08(args: &Args) {
    let base = standalone_base(args);
    let sat = find_mcm_saturation_load(&base, 0.15);
    println!(
        "Figure 8: standalone matches/cycle, zero occupancy ({:?} scale)",
        args.scale
    );
    println!("MCM saturation load = {sat:.3} (slot-fill probability)\n");

    // The paper's five algorithms plus the extension columns: the iSLIP
    // family (1–3 iterations), the plain round-robin matcher, the
    // weighted kernels iLQF/iOCF, and the exact MWM oracle.
    let mut columns = vec!["frac of MCM sat load"];
    columns.extend(AlgoKind::EXTENDED.iter().map(|k| k.label()));
    let mut t = Table::with_columns(&columns);
    let mut gaps = Table::with_columns(&columns);
    let at = |kind, frac: f64| {
        let cfg = StandaloneConfig {
            load: (frac * sat).min(1.0),
            ..base
        };
        run_standalone(kind, &cfg)
    };
    for frac in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let mut row = vec![format!("{frac:.1}")];
        let mut gap_row = vec![format!("{frac:.1}")];
        for kind in AlgoKind::EXTENDED {
            let r = at(kind, frac);
            row.push(format!("{:.2}", r.matches_per_cycle));
            gap_row.push(format!("{:.3}", r.optimality_gap()));
        }
        t.row(row);
        gaps.row(gap_row);
    }
    println!("{}", t.to_text());
    println!(
        "Matching-weight optimality gap (algorithm weight / MWM weight, depth plane;\n\
         iOCF schedules on age but is scored on the shared depth plane):"
    );
    println!("{}", gaps.to_text());

    // The §5.1 headline ratios at the MCM saturation load.
    let at_sat = |kind| at(kind, 1.0);
    let mcm = at_sat(AlgoKind::Mcm).matches_per_cycle;
    let pim1 = at_sat(AlgoKind::Pim1).matches_per_cycle;
    let spaa = at_sat(AlgoKind::Spaa).matches_per_cycle;
    println!(
        "MCM / SPAA at saturation:  {:.2} (paper: ~1.36)",
        mcm / spaa
    );
    println!(
        "PIM1 / SPAA at saturation: {:.2} (paper: ~1.14)",
        pim1 / spaa
    );
    // Weighted headline: how much of the exact optimum each iterative
    // kernel captures at the saturation load.
    for kind in [
        AlgoKind::Ilqf { iterations: 1 },
        AlgoKind::Ilqf { iterations: 2 },
        AlgoKind::Iocf { iterations: 1 },
        AlgoKind::Islip { iterations: 1 },
    ] {
        println!(
            "{} weight / MWM weight at saturation: {:.3}",
            kind.label(),
            at_sat(kind).optimality_gap()
        );
    }
}

/// Figure 9 — standalone matching capability vs output-port occupancy.
///
/// "Standalone comparison of matching capabilities of different
/// arbitration algorithms for a single 21364 router with increasing
/// output port occupancy at the MCM saturation load."
///
/// Paper reading to check: "As the fraction of occupied output ports
/// increases, the difference between the algorithms reduces and
/// completely disappears when 75% of the output ports are occupied" —
/// the observation SPAA's design rests on.
pub(crate) fn fig09(args: &Args) {
    let base = standalone_base(args);
    let sat = find_mcm_saturation_load(&base, 0.15).min(1.0);
    println!(
        "Figure 9: standalone matches/cycle at the MCM saturation load ({:?} scale)",
        args.scale
    );
    println!("MCM saturation load = {sat:.3}\n");

    let matches = |kind, occupancy| {
        let cfg = StandaloneConfig {
            load: sat,
            occupancy,
            ..base
        };
        run_standalone(kind, &cfg).matches_per_cycle
    };
    let mut t = Table::with_columns(&["occupancy", "MCM", "WFA", "PIM", "PIM1", "SPAA"]);
    // Gap summary: (MCM - SPAA) / MCM at each occupancy level.
    let mut g = Table::with_columns(&["occupancy", "MCM-SPAA gap"]);
    for occ in [0.0, 0.25, 0.5, 0.75] {
        let mut row = vec![format!("{occ:.2}")];
        row.extend(AlgoKind::FIGURE8.map(|kind| format!("{:.2}", matches(kind, occ))));
        t.row(row);
        let (mcm, spaa) = (matches(AlgoKind::Mcm, occ), matches(AlgoKind::Spaa, occ));
        g.row(vec![
            format!("{occ:.2}"),
            format!("{:.1}%", 100.0 * (mcm - spaa) / mcm),
        ]);
    }
    println!("{}", t.to_text());
    println!("{}", g.to_text());
}

/// Figure 10 — BNF curves for the five arbitration algorithms.
///
/// Regenerates any of the four panels: 4×4 random, 8×8 random, 8×8
/// bit-reversal, 8×8 perfect-shuffle (`--net`, `--pattern`). The paper's
/// headline reading: SPAA-base outperforms PIM1 and WFA-base (≈11% more
/// throughput at 83 ns on the 4×4, ≈24% at 122 ns on the 8×8), and the
/// rotary variants hold their throughput past saturation while the base
/// variants collapse.
pub(crate) fn fig10(args: &Args) {
    let topology = NetTopology::from(args.net);
    println!(
        "Figure 10: {topology} torus, {} traffic, {:?} scale\n",
        args.pattern, args.scale
    );
    let algorithms = &ArbAlgorithm::FIGURE10;
    let curves = spec_curves(algorithms, topology, args.pattern, args.scale, |_| {});
    let columns = bnf_columns(DELIVERED);
    print_bnf_tables(&columns, &curves, reference_latency(&topology));
}

/// One Figure 11 scaling panel: PIM1, WFA-rotary and SPAA-rotary under
/// `tweak`, and SPAA-rotary's throughput gain over WFA-rotary at the
/// latency where the paper reads it.
fn fig11(
    args: &Args,
    heading: &str,
    torus: network::Grid,
    ref_latency_ns: f64,
    paper_gain: &str,
    tweak: impl Fn(&mut SweepSpec),
) {
    println!("{heading} ({:?} scale)\n", args.scale);
    let (algorithms, pattern) = (&ArbAlgorithm::FIGURE11, TrafficPattern::Uniform);
    let curves = spec_curves(algorithms, torus.into(), pattern, args.scale, tweak);
    print_bnf_tables(&bnf_columns(DELIVERED), &curves, ref_latency_ns);
    let bnf = bnf_curves(&curves);
    let at = |i: usize| bnf[i].throughput_at_latency(ref_latency_ns);
    if let Some(gain) = gain_percent(at(2), at(1)) {
        println!(
            "SPAA-rotary vs WFA-rotary throughput @{ref_latency_ns}ns: +{gain:.0}% (paper: {paper_gain})"
        );
    }
}

/// Figure 11a — scaling study: 2× pipeline depth at 2× clock frequency.
///
/// "Results for PIM1, WFA-rotary, and SPAA-rotary for a pipeline two
/// times longer than and running at twice the frequency of the 21364
/// router's pipeline. The arbitration latencies for PIM1, WFA-rotary, and
/// SPAA-rotary are 8, 8, and 6 cycles respectively. SPAA-rotary performs
/// significantly better with longer pipelines because SPAA-rotary is
/// pipelined, unlike the other two... at about 100 ns of average packet
/// latency, SPAA-rotary provides greater than 60% higher throughput."
pub(crate) fn fig11a(args: &Args) {
    let heading = "Figure 11a: 2x pipeline, 8x8 torus, uniform traffic";
    fig11(args, heading, Torus::net_8x8(), 100.0, ">60%", |spec| {
        spec.scaled_2x = true
    });
}

/// Figure 11b — scaling study: 64 outstanding misses.
///
/// "Higher network load, in the form of greater number of outstanding
/// misses, can be expected from future processors with deeper pipelines.
/// Hence, this figure assumes 64 outstanding misses, four times higher
/// than that of the 21364 processor... even under such high network
/// loads, SPAA-rotary outperforms both PIM1 and WFA-rotary... at about
/// roughly 200 ns of average packet latency, SPAA-rotary provides roughly
/// 13% higher throughput compared to WFA-rotary."
///
/// This experiment keeps the closed loop engaged (that is its point) and
/// raises the limit to 64.
pub(crate) fn fig11b(args: &Args) {
    let heading = "Figure 11b: 64 outstanding misses, 8x8 torus, uniform traffic";
    fig11(args, heading, Torus::net_8x8(), 200.0, "~13%", |spec| {
        spec.mshrs = 64;
        // The closed loop self-limits, so push generation hard enough
        // to pin all 64 MSHRs at the top of the sweep.
        spec.rates.extend([0.2, 0.5, 1.0]);
    });
}

/// Figure 11c — scaling study: a 144-processor (12×12) network.
///
/// "Like the first two scaling results, SPAA-rotary outperforms both PIM1
/// and WFA-rotary significantly. Thus, for a 200 nanoseconds average
/// packet latency, SPAA-rotary provides an 18% higher throughput compared
/// to WFA-rotary. Interestingly, however, at extremely high loads,
/// SPAA-rotary is unable to prevent throughput degradation under
/// saturation, whereas WFA-rotary's throughput continues to increase,
/// possibly because of its synchronization between output port arbiters."
///
/// The 12×12 node count is not a power of two, so (as in the paper) only
/// uniform traffic applies.
pub(crate) fn fig11c(args: &Args) {
    let heading = "Figure 11c: 12x12 torus, uniform traffic";
    fig11(args, heading, Torus::net_12x12(), 200.0, "~18%", |_| {});
}

/// Ablation — the value of pipelining in isolation.
///
/// §5.2: "if we could implement WFA as a three-cycle arbitration
/// mechanism like SPAA, then pipelining is the key difference between WFA
/// and SPAA. In an 8x8 network, with random traffic SPAA provides a
/// throughput boost of about 8% compared to such a configuration of
/// WFA-base with 122 nanoseconds of average packet latency."
///
/// We run the hypothetical 3-cycle, non-pipelined WFA
/// ([`router::ArbAlgorithm::WfaBase3Cycle`]) against SPAA-base and
/// WFA-base and compare throughput at the paper's reference latency.
pub(crate) fn ablation_wfa3(args: &Args) {
    println!(
        "Ablation: pipelining in isolation (8x8 uniform, {:?} scale)",
        args.scale
    );
    let algorithms = [
        ArbAlgorithm::WfaBase,
        ArbAlgorithm::WfaBase3Cycle,
        ArbAlgorithm::SpaaBase,
    ];
    let topology = Torus::net_8x8().into();
    let pattern = TrafficPattern::Uniform;
    let curves = spec_curves(&algorithms, topology, pattern, args.scale, |_| {});
    let bnf = bnf_curves(&curves);
    println!("\n{}", summary_table(&bnf, 122.0).to_text());

    let at = |i: usize| bnf[i].throughput_at_latency(122.0);
    if let Some(gain) = gain_percent(at(2), at(1)) {
        println!(
            "SPAA-base vs 3-cycle WFA-base @122ns: +{gain:.0}% — the pipelining effect (paper: ~8%)"
        );
    }
    if let Some(gain) = gain_percent(at(1), at(0)) {
        println!("3-cycle WFA vs 4-cycle WFA @122ns: +{gain:.0}% — the latency effect");
    }
}

/// Ablation — throughput cost per extra arbitration pipeline cycle.
///
/// §1 footnote 1: "each additional cycle added to the 21364 router's
/// arbitration pipeline degraded the network throughput by roughly 5%
/// under heavy load. This measurement was done using SPAA." We sweep
/// SPAA's arbitration latency from the production 3 cycles to 8 and
/// report the sustained heavy-load throughput of each depth.
pub(crate) fn ablation_pipeline_depth(args: &Args) {
    let (cycles, _) = args.scale.resolve(&Grid::STANDARD);
    // Heavy (but pre-collapse) load on the 8x8 network.
    let rate = 0.02;
    println!(
        "Ablation: SPAA arbitration depth vs throughput (8x8 uniform, rate {rate}, {:?} scale)",
        args.scale
    );

    let depths: Vec<u8> = (3..=8).collect();
    let jobs = depths
        .iter()
        .map(|&latency| {
            let algorithm = ArbAlgorithm::SpaaDeep { latency };
            let net = plain_net(Torus::net_8x8(), algorithm, 0, cycles);
            let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, rate);
            (rate, (net, wl))
        })
        .collect();
    let results = run_jobs(0, jobs);

    let base = results[0].report.flits_per_router_ns;
    let mut t = Table::with_columns(&[
        "arb latency (cy)",
        "thr (flits/router/ns)",
        "latency (ns)",
        "thr vs 3cy",
        "per extra cycle",
    ]);
    for (&depth, point) in depths.iter().zip(&results) {
        let (thr, lat) = (
            point.report.flits_per_router_ns,
            point.report.avg_latency_ns(),
        );
        let rel = thr / base;
        let per_cycle = if depth > 3 {
            format!(
                "{:+.1}%",
                100.0 * (rel.powf(1.0 / (depth - 3) as f64) - 1.0)
            )
        } else {
            "-".into()
        };
        t.row(vec![
            depth.to_string(),
            format!("{thr:.4}"),
            format!("{lat:.1}"),
            format!("{:.3}", rel),
            per_cycle,
        ]);
    }
    println!("\n{}", t.to_text());
    println!("(paper: roughly -5% throughput per additional arbitration cycle under heavy load)");
}

/// Extension — buffer-depth sensitivity (the paper's closing caveat).
///
/// §6: "Greater routing freedom, flit-level arbitration, and wormhole
/// routing (with shallow buffering) may reduce the advantage of SPAA over
/// PIM1 and WFA." We probe the shallow-buffering part: sweeping the
/// adaptive-channel depth from the production 50 packets down toward
/// wormhole-like scarcity, and comparing SPAA-base against WFA-base at a
/// moderate load.
///
/// With scarce buffers, credits (not arbitration speed) gate dispatch,
/// and WFA's better matching buys back ground — the expected erosion of
/// SPAA's edge.
pub(crate) fn ablation_buffers(args: &Args) {
    let (cycles, _) = args.scale.resolve(&Grid::STANDARD);
    // A saturating load: with deep buffers this sits at the knee; with
    // shallow buffers, credit scarcity is the binding constraint.
    let rate = 0.028;
    println!(
        "Extension: adaptive buffer depth vs SPAA advantage (8x8 uniform, rate {rate}, {:?})",
        args.scale
    );

    let depths: [u16; 5] = [50, 16, 8, 4, 2];
    let jobs = depths
        .iter()
        .flat_map(|&depth| [ArbAlgorithm::SpaaBase, ArbAlgorithm::WfaBase].map(|a| (depth, a)))
        .map(|(depth, algorithm)| {
            let mut net = plain_net(Torus::net_8x8(), algorithm, 0, cycles);
            net.router.buffers = BufferConfig::scaled(depth, 1);
            let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, rate);
            (rate, (net, wl))
        })
        .collect();
    let results = run_jobs(0, jobs);

    let mut t = Table::with_columns(&[
        "adaptive depth (pkts/VC)",
        "SPAA thr",
        "WFA thr",
        "SPAA throughput advantage",
    ]);
    for (depth, pair) in depths.iter().zip(results.chunks(2)) {
        let thr = |p: &Point| p.report.flits_per_router_ns;
        let (spaa_thr, wfa_thr) = (thr(&pair[0]), thr(&pair[1]));
        t.row(vec![
            depth.to_string(),
            format!("{spaa_thr:.3}"),
            format!("{wfa_thr:.3}"),
            format!("{:+.1}%", 100.0 * (spaa_thr / wfa_thr - 1.0)),
        ]);
    }
    println!("\n{}", t.to_text());
    println!("(§6: shallow, wormhole-like buffering should erode SPAA's advantage.)");
}
