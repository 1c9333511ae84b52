//! Golden end-to-end report digests: the engine's observable output is
//! pinned bit-for-bit across a matrix of {algorithm × pattern × load ×
//! seed} short coherence runs.
//!
//! Every digest folds in the exact counters of a [`NetworkReport`]
//! (delivered packets and flits, injections, the in-flight population)
//! and the raw IEEE-754 bit patterns of the latency statistics and the
//! full latency histogram — so *any* behavioural drift in the hot path
//! (a reordered grant, a different RNG draw, one histogram bucket off)
//! fails the comparison. This is the safety net that licensed the
//! saturated-path restructuring (incremental request tracking, timing
//! wheels, slab entry storage): the refactored engine must reproduce
//! `tests/golden/reports.txt` byte-for-byte.
//!
//! Regenerate (only when intentionally changing simulation semantics)
//! with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_reports
//! ```

use alpha21364::prelude::*;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/reports.txt");

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// One matrix point: everything needed to reproduce the run.
struct Case {
    algo: ArbAlgorithm,
    topology: NetTopology,
    pattern: TrafficPattern,
    bursty: bool,
    rate: f64,
    seed: u64,
    warmup_cycles: u64,
    measure_cycles: u64,
    /// `Some(n)` runs `WorkloadConfig::closed_loop` with `n` MSHRs;
    /// `None` keeps the paper workload the historical digests used.
    mshrs: Option<u32>,
    /// Three-hop mix override (`None` = the paper's 0.3).
    three_hop: Option<f64>,
    /// Appends the per-transaction digest suffix. Only new closed-loop
    /// cases set this, so the 75 pre-existing lines stay byte-identical.
    txn_digest: bool,
    /// `Some` enables the fault plane and appends the fault-counter
    /// digest suffix. Only new fault cases set this, so every
    /// pre-existing line stays byte-identical.
    fault: Option<FaultConfig>,
    /// `Some(w)` overrides `RouterConfig::scan_window` and appends the
    /// ` window=` suffix. Only the window-boundary cases set this, so
    /// every pre-existing line stays byte-identical.
    scan_window: Option<usize>,
}

fn pattern_label(c: &Case) -> String {
    let base = match c.pattern {
        TrafficPattern::Uniform => "uniform",
        TrafficPattern::Hotspot { .. } => "hotspot",
        _ => "other",
    };
    if c.bursty {
        format!("{base}+burst")
    } else {
        base.to_string()
    }
}

fn case_4x4(
    algo: ArbAlgorithm,
    pattern: TrafficPattern,
    bursty: bool,
    rate: f64,
    seed: u64,
) -> Case {
    Case {
        algo,
        topology: Torus::net_4x4().into(),
        pattern,
        bursty,
        rate,
        seed,
        warmup_cycles: 400,
        measure_cycles: 1600,
        mshrs: None,
        three_hop: None,
        txn_digest: false,
        fault: None,
        scan_window: None,
    }
}

/// Closed-loop case on the 4x4 torus with explicit MSHR capacity and
/// three-hop mix, digesting the per-transaction statistics too.
fn case_closed(algo: ArbAlgorithm, rate: f64, mshrs: u32, three_hop: f64, seed: u64) -> Case {
    Case {
        algo,
        topology: Torus::net_4x4().into(),
        pattern: TrafficPattern::Uniform,
        bursty: false,
        rate,
        seed,
        warmup_cycles: 400,
        measure_cycles: 1600,
        mshrs: Some(mshrs),
        three_hop: Some(three_hop),
        txn_digest: true,
        fault: None,
        scan_window: None,
    }
}

/// Short runs on the non-torus shapes, same window as the 4x4 torus.
fn case_shape(topology: NetTopology, algo: ArbAlgorithm, rate: f64, seed: u64) -> Case {
    Case {
        algo,
        topology,
        pattern: TrafficPattern::Uniform,
        bursty: false,
        rate,
        seed,
        warmup_cycles: 400,
        measure_cycles: 1600,
        mshrs: None,
        three_hop: None,
        txn_digest: false,
        fault: None,
        scan_window: None,
    }
}

/// Fault-plane case on the 4x4 shapes: same window as the torus cases,
/// with the given fault configuration active and the fault-counter
/// suffix appended to the digest line.
fn case_fault(topology: NetTopology, algo: ArbAlgorithm, fault: FaultConfig, seed: u64) -> Case {
    Case {
        algo,
        topology,
        pattern: TrafficPattern::Uniform,
        bursty: false,
        rate: 0.04,
        seed,
        warmup_cycles: 400,
        measure_cycles: 1600,
        mshrs: None,
        three_hop: None,
        txn_digest: false,
        fault: Some(fault),
        scan_window: None,
    }
}

/// Open-loop 4x4 torus far past saturation at a non-default scan window,
/// run past the anti-starvation age threshold (4096 cycles) so drain
/// mode engages and the two-pass old-first scan is pinned at both window
/// extremes.
fn case_scan_window(algo: ArbAlgorithm, scan_window: usize) -> Case {
    Case {
        warmup_cycles: 400,
        measure_cycles: 7600,
        // `closed_loop` with unbounded MSHRs is `WorkloadConfig::open_loop`.
        mshrs: Some(u32::MAX),
        scan_window: Some(scan_window),
        ..case_4x4(algo, TrafficPattern::Uniform, false, 0.1, 1)
    }
}

fn case_16x16(
    algo: ArbAlgorithm,
    pattern: TrafficPattern,
    bursty: bool,
    rate: f64,
    seed: u64,
) -> Case {
    // Shorter than the 4x4 runs (16x the routers per cycle), still long
    // enough past warmup for thousands of measured deliveries per case.
    Case {
        algo,
        topology: Torus::net_16x16().into(),
        pattern,
        bursty,
        rate,
        seed,
        warmup_cycles: 200,
        measure_cycles: 800,
        mshrs: None,
        three_hop: None,
        txn_digest: false,
        fault: None,
        scan_window: None,
    }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    // Broad algorithm coverage at low / knee / post-saturation loads.
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::SpaaBase,
        ArbAlgorithm::Pim1,
        ArbAlgorithm::WfaRotary,
        ArbAlgorithm::Islip { iterations: 2 },
    ] {
        for rate in [0.01, 0.04, 0.1] {
            for seed in [1, 2] {
                cases.push(case_4x4(algo, TrafficPattern::Uniform, false, rate, seed));
            }
        }
    }
    // Scenario engines (hotspot targets, bursty modulation) exercise the
    // hot-draw and on/off paths through the same routers.
    let hotspot = TrafficPattern::Hotspot {
        targets: HotspotTargets::new(&[5, 10]),
        fraction: 0.25,
    };
    for algo in [ArbAlgorithm::SpaaRotary, ArbAlgorithm::Pim1] {
        cases.push(case_4x4(algo, hotspot, false, 0.04, 1));
        cases.push(case_4x4(algo, TrafficPattern::Uniform, true, 0.04, 1));
    }
    // 16x16: the scale the sharded engine unlocks. These digests were
    // recorded on the single-threaded engine *before* the sharding
    // refactor, so they pin the restructured engine — and, through
    // tests/shard_equivalence.rs, every sharded worker count — to the
    // pre-refactor behaviour.
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::Pim1,
        ArbAlgorithm::Islip { iterations: 2 },
    ] {
        for rate in [0.01, 0.04] {
            for seed in [1, 2] {
                cases.push(case_16x16(algo, TrafficPattern::Uniform, false, rate, seed));
            }
        }
    }
    let hotspot_16 = TrafficPattern::Hotspot {
        targets: HotspotTargets::new(&[17, 200]),
        fraction: 0.25,
    };
    cases.push(case_16x16(
        ArbAlgorithm::SpaaRotary,
        hotspot_16,
        false,
        0.04,
        1,
    ));
    cases.push(case_16x16(
        ArbAlgorithm::Islip { iterations: 2 },
        TrafficPattern::Uniform,
        true,
        0.04,
        1,
    ));
    // New topologies (appended so the torus digests above keep their
    // positions): the 4x4 mesh and the 5-node full mesh under the same
    // three arbiters. These pin the mesh XY escape and the full mesh's
    // VC-less direct-plus-misroute routing end to end.
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::Pim1,
        ArbAlgorithm::Islip { iterations: 2 },
    ] {
        for rate in [0.01, 0.04] {
            cases.push(case_shape(Mesh::new(4, 4).into(), algo, rate, 1));
            cases.push(case_shape(FullMesh::new(5).into(), algo, rate, 1));
        }
    }
    // Weighted kernels (appended so every digest above keeps its
    // position): iLQF 1–2 and iOCF 1 across the same load ladder, plus
    // the hotspot/bursty skew cases where the weight planes actually
    // differentiate the grants.
    for algo in [
        ArbAlgorithm::Ilqf { iterations: 1 },
        ArbAlgorithm::Ilqf { iterations: 2 },
        ArbAlgorithm::Iocf { iterations: 1 },
    ] {
        for rate in [0.01, 0.04, 0.1] {
            cases.push(case_4x4(algo, TrafficPattern::Uniform, false, rate, 1));
        }
        cases.push(case_4x4(algo, hotspot, false, 0.04, 1));
        cases.push(case_4x4(algo, TrafficPattern::Uniform, true, 0.04, 1));
    }
    // Closed-loop transaction engine (appended so every digest above
    // keeps its position): MSHR-capacity ladder across the four headline
    // arbiters, plus the pure 2-hop / pure 3-hop flow extremes. These
    // lines carry the extra ` ... txn=` suffix pinning the per-
    // transaction latency statistics bit-for-bit.
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::Pim1,
        ArbAlgorithm::Islip { iterations: 2 },
        ArbAlgorithm::Ilqf { iterations: 2 },
    ] {
        for mshrs in [1, 4, 16] {
            cases.push(case_closed(algo, 0.05, mshrs, 0.3, 1));
        }
    }
    cases.push(case_closed(ArbAlgorithm::SpaaRotary, 0.05, 8, 0.0, 1));
    cases.push(case_closed(ArbAlgorithm::SpaaRotary, 0.05, 8, 1.0, 1));
    // Fault plane (appended so every digest above keeps its position):
    // the full storm — corruption, flaps, a mid-run kill, boot-time dead
    // links — on both grid shapes, plus BER-only and death-only planes
    // that isolate the recovery and rerouting halves. These lines carry
    // the extra ` ber=… rlat=` suffix pinning the fault counters and the
    // retransmit-latency histogram bit-for-bit.
    let storm = FaultConfig {
        ber: 2e-3,
        flap: Some(LinkFlap::new(300.0, 30.0)),
        kill_links: vec![LinkKill {
            node: 5,
            port: arbitration::ports::OutputPort::East,
            at_cycle: 500,
        }],
        dead_link_fraction: 0.05,
        ..FaultConfig::default()
    };
    for algo in [
        ArbAlgorithm::SpaaRotary,
        ArbAlgorithm::Pim1,
        ArbAlgorithm::Islip { iterations: 2 },
    ] {
        cases.push(case_fault(Torus::net_4x4().into(), algo, storm.clone(), 1));
        cases.push(case_fault(Mesh::new(4, 4).into(), algo, storm.clone(), 1));
    }
    cases.push(case_fault(
        Torus::net_4x4().into(),
        ArbAlgorithm::SpaaRotary,
        FaultConfig {
            ber: 1e-3,
            ..FaultConfig::default()
        },
        2,
    ));
    cases.push(case_fault(
        Torus::net_4x4().into(),
        ArbAlgorithm::SpaaRotary,
        FaultConfig {
            dead_link_fraction: 0.1,
            ..FaultConfig::default()
        },
        2,
    ));
    // Scan-window extremes (appended so every digest above keeps its
    // position): a one-entry window, where every unlink moves the window
    // tail, and one deeper than most queues, under both drivers.
    for algo in [ArbAlgorithm::SpaaRotary, ArbAlgorithm::WfaRotary] {
        for scan_window in [1, 32] {
            cases.push(case_scan_window(algo, scan_window));
        }
    }
    // Windowed kernels no line above runs (appended so every digest
    // above keeps its position): the base wave-front start and the
    // single- and three-iteration slips.
    for algo in [
        ArbAlgorithm::WfaBase,
        ArbAlgorithm::Islip { iterations: 1 },
        ArbAlgorithm::Islip { iterations: 3 },
    ] {
        cases.push(case_4x4(algo, TrafficPattern::Uniform, false, 0.04, 1));
    }
    cases
}

fn digest_line(c: &Case) -> String {
    let mut router = RouterConfig::alpha_21364(c.algo);
    if let Some(scan_window) = c.scan_window {
        router.scan_window = scan_window;
    }
    let cfg = NetworkConfig {
        topology: c.topology,
        router,
        seed: c.seed,
        warmup_cycles: c.warmup_cycles,
        measure_cycles: c.measure_cycles,
        fault: c.fault.clone().unwrap_or_default(),
    };
    let mut wl = match c.mshrs {
        Some(mshrs) => WorkloadConfig::closed_loop(c.pattern, c.rate, mshrs),
        None => WorkloadConfig::paper(c.pattern, c.rate),
    };
    if let Some(three_hop) = c.three_hop {
        wl = wl.with_three_hop_fraction(three_hop);
    }
    if c.bursty {
        wl = wl.with_burst(BurstConfig::new(60.0, 240.0));
    }
    let endpoints = build_endpoints(&cfg, &wl);
    let mut sim = NetworkSim::new(cfg, endpoints);
    let r = sim.run();

    let mut lat = Fnv::new();
    lat.u64(r.latency.count());
    lat.f64(r.latency.mean());
    lat.f64(r.latency.variance());
    lat.f64(r.latency.min().unwrap_or(f64::NAN));
    lat.f64(r.latency.max().unwrap_or(f64::NAN));
    lat.u64(r.total_latency.count());
    lat.f64(r.total_latency.mean());
    lat.f64(r.total_latency.variance());

    let mut hist = Fnv::new();
    hist.u64(r.latency_hist.underflow());
    for &b in r.latency_hist.bins() {
        hist.u64(b);
    }
    hist.u64(r.latency_hist.overflow());

    let mut line = format!(
        "{} {} {} rate={} seed={} | pkts={} flits={} inj={} inflight={} \
         noms={} grants={} coll={} esc={} drains={} lat={:016x} hist={:016x}",
        c.topology,
        c.algo,
        pattern_label(c),
        c.rate,
        c.seed,
        r.delivered_packets,
        r.delivered_flits,
        r.injected_packets,
        r.in_flight_packets,
        r.nominations,
        r.grants,
        r.collisions,
        r.escape_dispatches,
        r.drain_engagements,
        lat.0,
        hist.0,
    );
    if c.txn_digest {
        let mut txn = Fnv::new();
        txn.u64(r.completed_txns);
        txn.u64(r.txn_latency.count());
        txn.f64(r.txn_latency.mean());
        txn.f64(r.txn_latency.variance());
        txn.f64(r.txn_latency.min().unwrap_or(f64::NAN));
        txn.f64(r.txn_latency.max().unwrap_or(f64::NAN));
        txn.u64(r.txn_latency_hist.underflow());
        for &b in r.txn_latency_hist.bins() {
            txn.u64(b);
        }
        txn.u64(r.txn_latency_hist.overflow());
        line.push_str(&format!(
            " mshrs={} threehop={} txns={} txn={:016x}",
            c.mshrs.unwrap_or(16),
            c.three_hop.unwrap_or(0.3),
            r.completed_txns,
            txn.0,
        ));
    }
    if let Some(f) = &c.fault {
        let mut rlat = Fnv::new();
        rlat.u64(r.retransmit_latency_hist.underflow());
        for &b in r.retransmit_latency_hist.bins() {
            rlat.u64(b);
        }
        rlat.u64(r.retransmit_latency_hist.overflow());
        line.push_str(&format!(
            " ber={} corr={} retx={} exh={} dead={} drops={} rlat={:016x}",
            f.ber,
            r.flits_corrupted,
            r.retransmissions,
            r.retry_exhaustions,
            r.links_dead,
            r.unreachable_drops,
            rlat.0,
        ));
    }
    if let Some(scan_window) = c.scan_window {
        line.push_str(&format!(" window={scan_window}"));
    }
    line
}

/// The MWM oracle is a pure observer: switching it on must change
/// nothing the digests measure — it draws no RNG, feeds nothing back
/// into grants, and only accumulates two extra counters.
#[test]
fn oracle_observation_does_not_perturb_reports() {
    let run = |measure: bool| {
        let mut router = RouterConfig::alpha_21364(ArbAlgorithm::Islip { iterations: 2 });
        router.measure_matching_weight = measure;
        let cfg = NetworkConfig {
            topology: Torus::net_4x4().into(),
            router,
            seed: 3,
            warmup_cycles: 400,
            measure_cycles: 1600,

            fault: network::FaultConfig::default(),
        };
        let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.04);
        let endpoints = build_endpoints(&cfg, &wl);
        NetworkSim::new(cfg, endpoints).run()
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.delivered_packets, on.delivered_packets);
    assert_eq!(off.grants, on.grants);
    assert_eq!(off.collisions, on.collisions);
    assert_eq!(off.latency.mean().to_bits(), on.latency.mean().to_bits());
    assert_eq!(off.matched_weight, 0, "oracle off: no weight accumulation");
    assert!(on.matched_weight > 0, "oracle on: windows were scored");
    assert!(on.mwm_weight >= on.matched_weight, "oracle bound violated");
}

#[test]
fn reports_match_golden_digests() {
    let lines: Vec<String> = cases().iter().map(digest_line).collect();
    let rendered = lines.join("\n") + "\n";
    if std::env::var("GOLDEN_UPDATE").as_deref() == Ok("1") {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden digests");
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden/reports.txt missing — run with GOLDEN_UPDATE=1 to record");
    // Line-by-line comparison so a failure names the drifting config.
    for (got, want) in lines.iter().zip(golden.lines()) {
        assert_eq!(got, want, "report digest drifted");
    }
    assert_eq!(
        lines.len(),
        golden.lines().count(),
        "golden case count drifted — regenerate with GOLDEN_UPDATE=1"
    );
}
