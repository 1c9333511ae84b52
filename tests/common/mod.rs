//! The one case table. Row `i` of [`cases`] is pinned by line `i` of
//! `tests/golden/reports.txt`: the row's [`Case::label`], its readable
//! counters and [`NetworkReport::digest`]. Three binaries reproduce every
//! line, each on its own engine setting:
//!
//! * `golden_reports` at one worker with idle-skip on ([`REFERENCE`]);
//! * `idle_skip_equivalence` at one worker with idle-skip off
//!   ([`Axis::Skip`]);
//! * `shard_equivalence` on one sharded engine per row, rotated by row
//!   index through [`ROTATION`] ([`Axis::Shard`]).
//!
//! Within each equivalence binary every row is checked by exactly one
//! test: the one [`Axis::test`] names for the row's [`Family`]. The
//! `golden_reports` coverage test holds both binaries to that map.
//!
//! The table is append-only: a new row goes at the end, so every
//! committed line keeps its position. Re-record (only for an intended
//! change of simulation behaviour, or a new row) with
//! `GOLDEN_UPDATE=1 cargo test --test golden_reports`.

use alpha21364::prelude::*;
use alpha21364::simcore::sweep::parallel_map;
use std::fmt::Debug;
use std::sync::OnceLock;

pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/reports.txt");

/// Which scenario a row belongs to; [`Axis::test`] maps it to the test
/// that checks it in each equivalence binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The headline arbiters across low, knee and saturated load.
    Uniform,
    /// Concentrated destinations: cold routers sleep beside a hot region.
    Hotspot,
    /// ON/OFF generation: whole neighbourhoods idle, then burst.
    Bursty,
    /// Hotspot and bursty at once, at the saturation knee.
    Combined,
    /// The 16x16 torus: shards span several rows, one-node shards at 16.
    Torus16,
    /// Mesh (unwired edge ports) and full mesh (no geometric opposite).
    Shapes,
    /// The weighted iLQF/iOCF kernels, uniform and skewed.
    Weighted,
    /// Closed loop: generation waits on reply arrival.
    Closed,
    /// All-two-hop and all-three-hop transaction mixes.
    ThreeHop,
    /// The fault plane: corruption, flaps, kills, dead links, exhaustion.
    Fault,
    /// Anti-starvation drain mode engaged.
    Drain,
    /// Arbiters no broader row runs: the WFA base start, the iSLIP
    /// iteration counts, the two ablations.
    Kernels,
    /// Every arbiter at near-idle load, where idle-skip does the most.
    NearIdle,
    /// The matching-weight oracle observing every window.
    Oracle,
    /// The 2x pipeline at the doubled clock.
    Scaled,
}

/// One simulation: everything needed to reproduce a golden line.
#[derive(Clone, Debug)]
pub struct Case {
    pub family: Family,
    pub topology: NetTopology,
    pub algo: ArbAlgorithm,
    /// `RouterConfig::scaled_2x` instead of `alpha_21364`.
    pub scaled_2x: bool,
    pub scan_window: usize,
    /// `RouterConfig::measure_matching_weight`.
    pub oracle: bool,
    pub workload: WorkloadConfig,
    pub fault: FaultConfig,
    pub seed: u64,
    pub warmup_cycles: u64,
    pub measure_cycles: u64,
}

/// The defaults a label leaves out.
const DEFAULT_CYCLES: (u64, u64) = (400, 1_600);

impl Case {
    /// A fault-free run of the production router under `algo`, over the
    /// default 400 + 1,600 cycles.
    fn new(
        family: Family,
        topology: impl Into<NetTopology>,
        algo: ArbAlgorithm,
        workload: WorkloadConfig,
        seed: u64,
    ) -> Case {
        Case {
            family,
            topology: topology.into(),
            algo,
            scaled_2x: false,
            scan_window: RouterConfig::alpha_21364(algo).scan_window,
            oracle: false,
            workload,
            fault: FaultConfig::default(),
            seed,
            warmup_cycles: DEFAULT_CYCLES.0,
            measure_cycles: DEFAULT_CYCLES.1,
        }
    }

    /// The same run over `total` cycles, a fifth of them warmup.
    fn cycles(self, total: u64) -> Case {
        Case {
            warmup_cycles: total / 5,
            measure_cycles: total - total / 5,
            ..self
        }
    }

    pub fn config(&self) -> NetworkConfig {
        let mut router = if self.scaled_2x {
            RouterConfig::scaled_2x(self.algo)
        } else {
            RouterConfig::alpha_21364(self.algo)
        };
        router.scan_window = self.scan_window;
        router.measure_matching_weight = self.oracle;
        NetworkConfig {
            topology: self.topology,
            router,
            seed: self.seed,
            warmup_cycles: self.warmup_cycles,
            measure_cycles: self.measure_cycles,
            fault: self.fault.clone(),
        }
    }

    /// The engine over `workers` shards, idle-skip on.
    pub fn sim(&self, workers: usize) -> NetworkSim<CoherenceEndpoint> {
        let cfg = self.config();
        let endpoints = build_endpoints(&cfg, &self.workload);
        NetworkSim::with_workers(cfg, endpoints, workers)
    }

    /// Topology, arbiter, pattern, rate and seed, then every parameter
    /// that differs from [`Case::new`]'s defaults and the paper workload.
    pub fn label(&self) -> String {
        let wl = &self.workload;
        let paper = WorkloadConfig::paper(wl.pattern, wl.injection_rate);
        let mut label = format!("{} {}", self.topology, self.algo);
        if self.scaled_2x {
            label.push_str(" 2x");
        }
        label.push_str(&format!(" {}", wl.pattern));
        if let TrafficPattern::Hotspot { targets, fraction } = wl.pattern {
            // `HotspotTargets` renders as its node array, then its length.
            let mut nodes = numbers(targets);
            let len: usize = nodes.pop().and_then(|n| n.parse().ok()).unwrap();
            label.push_str(&format!("[{}]@{fraction}", nodes[..len].join(",")));
        }
        if let Some(burst) = wl.burst {
            label.push_str(&format!("+burst={}", numbers(burst).join("/")));
        }
        label.push_str(&format!(" rate={} seed={}", wl.injection_rate, self.seed));
        let mut extra = |on: bool, text: String| {
            if on {
                label.push(' ');
                label.push_str(&text);
            }
        };
        let mshrs = match wl.mshrs {
            u32::MAX => "open".to_string(),
            n => n.to_string(),
        };
        extra(wl.mshrs != paper.mshrs, format!("mshrs={mshrs}"));
        let three_hop = wl.three_hop_fraction;
        extra(
            three_hop != paper.three_hop_fraction,
            format!("threehop={three_hop}"),
        );
        let cycles = (self.warmup_cycles, self.measure_cycles);
        extra(
            cycles != DEFAULT_CYCLES,
            format!("cycles={}+{}", cycles.0, cycles.1),
        );
        let window = RouterConfig::alpha_21364(self.algo).scan_window;
        extra(
            self.scan_window != window,
            format!("window={}", self.scan_window),
        );
        extra(self.oracle, "oracle".to_string());
        let (f, none) = (&self.fault, FaultConfig::default());
        extra(f.ber != none.ber, format!("ber={}", f.ber));
        if let Some(flap) = f.flap {
            extra(true, format!("flap={}", numbers(flap).join("/")));
        }
        for k in &f.kill_links {
            extra(true, format!("kill={}{:?}@{}", k.node, k.port, k.at_cycle));
        }
        extra(
            f.dead_link_fraction != none.dead_link_fraction,
            format!("dead={}", f.dead_link_fraction),
        );
        extra(
            f.max_retries != none.max_retries,
            format!("retries={}", f.max_retries),
        );
        extra(
            f.backoff_base_cycles != none.backoff_base_cycles,
            format!("backoff={}", f.backoff_base_cycles),
        );
        if let Some(w) = f.watchdog_cycles {
            extra(true, format!("watchdog={w}"));
        }
        label
    }
}

/// The numbers in `value`'s `Debug` rendering, in order: the label's view
/// of the config types whose fields are private to their crate.
fn numbers(value: impl Debug) -> Vec<String> {
    format!("{value:?}")
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

/// A golden line: the label, the counters a reader checks first, and the
/// digest of every field.
pub fn line(case: &Case, r: &NetworkReport) -> String {
    format!(
        "{} | pkts={} flits={} inj={} inflight={} noms={} grants={} coll={} esc={} drains={} \
         report={:016x}",
        case.label(),
        r.delivered_packets,
        r.delivered_flits,
        r.injected_packets,
        r.in_flight_packets,
        r.nominations,
        r.grants,
        r.collisions,
        r.escape_dispatches,
        r.drain_engagements,
        r.digest(),
    )
}

/// The table, in golden-line order.
pub fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(table)
}

/// The committed lines, one per row.
///
/// # Panics
///
/// When the file and the table differ in length, with one message naming
/// both counts — every row check would fail otherwise.
fn golden() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_default();
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        assert_eq!(
            lines.len(),
            cases().len(),
            "{GOLDEN_PATH} has {} lines but the case table has {} rows: \
             re-record with GOLDEN_UPDATE=1 cargo test --test golden_reports",
            lines.len(),
            cases().len(),
        );
        lines
    })
}

/// How a row is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `NetworkSim::run` over `workers` shards (the worker fleet above
    /// one shard).
    Fleet { workers: usize, idle_skip: bool },
    /// `workers` shards stepped one `step_cycle` at a time on the
    /// calling thread, idle-skip on.
    Inline { workers: usize },
}

/// The engine the golden lines are recorded on.
pub const REFERENCE: Engine = Engine::Fleet {
    workers: 1,
    idle_skip: true,
};

/// The shard axis: row `i` runs on `ROTATION[i % 13]`. Every worker
/// count of {2, 3, 4, 5, 8, 16} with idle-skip on and off, and inline
/// stepping; neighbouring rows of a family land on different engines.
pub const ROTATION: [Engine; 13] = {
    const fn fleet(workers: usize, idle_skip: bool) -> Engine {
        Engine::Fleet { workers, idle_skip }
    }
    [
        fleet(2, true),
        fleet(3, false),
        fleet(4, true),
        fleet(5, false),
        fleet(8, true),
        fleet(16, false),
        Engine::Inline { workers: 3 },
        fleet(2, false),
        fleet(3, true),
        fleet(4, false),
        fleet(5, true),
        fleet(8, false),
        fleet(16, true),
    ]
};

impl Engine {
    fn idle_skip(self) -> bool {
        !matches!(
            self,
            Engine::Fleet {
                idle_skip: false,
                ..
            }
        )
    }
}

/// `case` over `workers` shards, idle-skip on, advanced `cycles` cycles
/// one `step_cycle` at a time.
pub fn stepped(case: &Case, workers: usize, cycles: u64) -> NetworkSim<CoherenceEndpoint> {
    let mut sim = case.sim(workers);
    for _ in 0..cycles {
        sim.step_cycle();
    }
    sim
}

/// Runs `case` on `engine`; returns the report and the router steps
/// idle-skip avoided.
pub fn run(case: &Case, engine: Engine) -> (NetworkReport, u64) {
    let (sim, report) = match engine {
        Engine::Fleet { workers, idle_skip } => {
            let mut sim = case.sim(workers);
            sim.set_idle_skip(idle_skip);
            let report = sim.run();
            (sim, report)
        }
        Engine::Inline { workers } => {
            let sim = stepped(case, workers, case.config().total_cycles());
            let report = sim.report();
            (sim, report)
        }
    };
    let skipped = sim.skipped_router_steps();
    assert!(
        engine.idle_skip() || skipped == 0,
        "skip off skipped a step"
    );
    (report, skipped)
}

/// Checks `rows` in parallel, row `i` on `engine(i)`.
pub fn check_rows(rows: Vec<usize>, engine: impl Fn(usize) -> Engine + Sync) {
    // A stale golden file fails here, once, rather than once per row.
    golden();
    parallel_map(0, rows, |i| check(i, engine(i)));
}

/// Runs row `index` on `engine` and compares its line with the committed
/// one. On a mismatch the row reruns on [`REFERENCE`] and the two reports
/// are compared field by field, so the failure names the field an engine
/// changed; when they agree, the behaviour itself changed.
fn check(index: usize, engine: Engine) {
    let case = &cases()[index];
    let (report, skipped) = run(case, engine);
    let got = line(case, &report);
    let want = &golden()[index];
    if got != *want {
        let label = format!("row {index} on {engine:?}");
        run(case, REFERENCE).0.assert_bit_identical(&report, &label);
        panic!(
            "{label}: the reference engine reports the same, so behaviour changed \
             (re-record only if that is intended)\n got: {got}\nwant: {want}"
        );
    }
    exercised(case, &report, skipped, engine);
}

/// Asserts the row reached what it is in the table for, so a re-recorded
/// line cannot pin a scenario that quietly stopped happening.
fn exercised(case: &Case, r: &NetworkReport, skipped: u64, engine: Engine) {
    let label = case.label();
    if engine.idle_skip() && case.workload.injection_rate <= 0.002 {
        let steps = case.config().total_cycles() * case.topology.nodes() as u64;
        assert!(
            skipped > steps / 4,
            "{label}: only {skipped}/{steps} router steps skipped at near-idle load"
        );
    }
    let f = &case.fault;
    if f.ber > 0.0 {
        assert!(r.flits_corrupted > 0, "{label}: no corruption drawn");
        assert!(r.retransmissions > 0, "{label}: no retries fired");
    }
    if !f.kill_links.is_empty() || f.dead_link_fraction > 0.0 {
        assert!(r.links_dead > 0, "{label}: no link died");
    }
    if f.max_retries < FaultConfig::default().max_retries {
        assert!(r.retry_exhaustions > 0, "{label}: no retry budget ran out");
    }
    if case.oracle {
        assert!(r.matched_weight > 0, "{label}: oracle saw no windows");
        assert!(r.mwm_weight >= r.matched_weight, "{label}: oracle bound");
    }
    match case.family {
        Family::Drain => assert!(r.drain_engagements > 0, "{label}: drain never engaged"),
        Family::Closed | Family::ThreeHop => {
            assert!(r.completed_txns > 0, "{label}: no transactions measured");
            assert!(
                r.avg_txn_latency_ns() > r.avg_latency_ns(),
                "{label}: a transaction cannot beat one packet hop"
            );
        }
        _ => {}
    }
}

/// An equivalence binary: the engine it runs each row on and the test
/// that checks each family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// `idle_skip_equivalence`: one worker, idle-skip off.
    Skip,
    /// `shard_equivalence`: the row's [`ROTATION`] engine.
    Shard,
}

impl Axis {
    fn engine(self, index: usize) -> Engine {
        match self {
            Axis::Skip => Engine::Fleet {
                workers: 1,
                idle_skip: false,
            },
            Axis::Shard => ROTATION[index % ROTATION.len()],
        }
    }

    /// The test that checks `family` in this axis's binary.
    pub fn test(self, family: Family) -> &'static str {
        use Family::*;
        match (self, family) {
            (Axis::Skip, Uniform | Weighted | Kernels | NearIdle | Torus16) => {
                "idle_skip_is_bit_for_bit_equivalent"
            }
            (Axis::Skip, Hotspot) => "idle_skip_is_bit_for_bit_equivalent_under_hotspot_traffic",
            (Axis::Skip, Bursty) => "idle_skip_is_bit_for_bit_equivalent_under_bursty_traffic",
            (Axis::Skip, Combined) => "idle_skip_equivalence_holds_under_combined_hotspot_bursty",
            (Axis::Skip, Drain) => "idle_skip_equivalence_holds_after_drain_engagement",
            (Axis::Skip, Shapes) => "idle_skip_equivalence_on_mesh_and_full_mesh",
            (Axis::Skip, Oracle) => "idle_skip_equivalence_holds_with_matching_weight_oracle",
            (Axis::Skip, Closed) => "idle_skip_equivalence_for_closed_loop_drivers",
            (Axis::Skip, ThreeHop) => "idle_skip_equivalence_for_closed_loop_three_hop_extremes",
            (Axis::Skip, Scaled) => "idle_skip_equivalence_on_scaled_pipeline",
            (Axis::Skip, Fault) => "idle_skip_equivalence_under_fault_storms",
            (Axis::Shard, Uniform | Weighted | Kernels | Scaled) => {
                "sharded_engine_is_bit_for_bit_equivalent_across_worker_counts"
            }
            (Axis::Shard, NearIdle) => "sharded_engine_is_equivalent_with_idle_skip_off",
            (Axis::Shard, Hotspot | Bursty | Combined) => {
                "sharded_engine_is_equivalent_under_hotspot_and_bursty_traffic"
            }
            (Axis::Shard, Torus16) => "sharded_engine_is_equivalent_on_a_larger_torus",
            (Axis::Shard, Drain) => "sharded_engine_is_equivalent_under_saturation_drain",
            (Axis::Shard, Shapes) => "sharded_engine_is_equivalent_on_mesh_and_full_mesh",
            (Axis::Shard, Oracle) => "sharded_engine_is_equivalent_with_matching_weight_oracle",
            (Axis::Shard, Closed) => "sharded_engine_is_equivalent_for_closed_loop_drivers",
            (Axis::Shard, ThreeHop) => {
                "sharded_engine_is_equivalent_for_closed_loop_three_hop_on_8x8"
            }
            (Axis::Shard, Fault) => "sharded_engine_is_equivalent_under_fault_storms",
        }
    }

    /// Checks every row whose family `test` owns on this axis, rows in
    /// parallel.
    pub fn check(self, test: &str) {
        let rows: Vec<usize> = (0..cases().len())
            .filter(|&i| self.test(cases()[i].family) == test)
            .collect();
        assert!(!rows.is_empty(), "{self:?}: no family is checked by {test}");
        check_rows(rows, |i| self.engine(i));
    }
}

/// The row labelled `label` (directed tests start from a table row).
pub fn find(label: &str) -> &'static Case {
    cases()
        .iter()
        .find(|c| c.label() == label)
        .unwrap_or_else(|| panic!("no row labelled {label}"))
}

fn table() -> Vec<Case> {
    use ArbAlgorithm::*;
    use Family::*;
    let t4 = || NetTopology::from(Torus::net_4x4());
    let uniform = |rate| WorkloadConfig::paper(TrafficPattern::Uniform, rate);
    let hotspot = |targets: &[u16], fraction, rate| {
        let targets = HotspotTargets::new(targets);
        WorkloadConfig::paper(TrafficPattern::Hotspot { targets, fraction }, rate)
    };
    let bursty = |rate, on, off| uniform(rate).with_burst(BurstConfig::new(on, off));
    let closed = |rate, mshrs| WorkloadConfig::closed_loop(TrafficPattern::Uniform, rate, mshrs);
    let islip2 = Islip { iterations: 2 };

    let mut rows = Vec::new();
    for algo in [SpaaRotary, SpaaBase, Pim1, WfaRotary, islip2] {
        for rate in [0.01, 0.04, 0.1] {
            for seed in [1, 2] {
                rows.push(Case::new(Uniform, t4(), algo, uniform(rate), seed));
            }
        }
    }
    for algo in [SpaaRotary, Pim1] {
        rows.push(Case::new(
            Hotspot,
            t4(),
            algo,
            hotspot(&[5, 10], 0.25, 0.04),
            1,
        ));
        rows.push(Case::new(Bursty, t4(), algo, bursty(0.04, 60.0, 240.0), 1));
    }
    // 16x the routers per cycle, so a shorter run.
    let t16 = |algo, workload, seed| Case {
        warmup_cycles: 200,
        measure_cycles: 800,
        ..Case::new(Torus16, Torus::net_16x16(), algo, workload, seed)
    };
    for algo in [SpaaRotary, Pim1, islip2] {
        for rate in [0.01, 0.04] {
            for seed in [1, 2] {
                rows.push(t16(algo, uniform(rate), seed));
            }
        }
    }
    rows.push(t16(SpaaRotary, hotspot(&[17, 200], 0.25, 0.04), 1));
    rows.push(t16(islip2, bursty(0.04, 60.0, 240.0), 1));
    for algo in [SpaaRotary, Pim1, islip2] {
        for rate in [0.01, 0.04] {
            rows.push(Case::new(Shapes, Mesh::new(4, 4), algo, uniform(rate), 1));
            rows.push(Case::new(Shapes, FullMesh::new(5), algo, uniform(rate), 1));
        }
    }
    for algo in [
        Ilqf { iterations: 1 },
        Ilqf { iterations: 2 },
        Iocf { iterations: 1 },
    ] {
        for rate in [0.01, 0.04, 0.1] {
            rows.push(Case::new(Weighted, t4(), algo, uniform(rate), 1));
        }
        rows.push(Case::new(
            Weighted,
            t4(),
            algo,
            hotspot(&[5, 10], 0.25, 0.04),
            1,
        ));
        rows.push(Case::new(
            Weighted,
            t4(),
            algo,
            bursty(0.04, 60.0, 240.0),
            1,
        ));
    }
    for algo in [SpaaRotary, Pim1, islip2, Ilqf { iterations: 2 }] {
        for mshrs in [1, 4, 16] {
            rows.push(Case::new(Closed, t4(), algo, closed(0.05, mshrs), 1));
        }
    }
    for three_hop in [0.0, 1.0] {
        let wl = closed(0.05, 8).with_three_hop_fraction(three_hop);
        rows.push(Case::new(ThreeHop, t4(), SpaaRotary, wl, 1));
    }
    // Every fault class at once, then corruption alone, then death alone.
    let storm = FaultConfig {
        ber: 2e-3,
        flap: Some(LinkFlap::new(300.0, 30.0)),
        kill_links: vec![LinkKill {
            node: 5,
            port: OutputPort::East,
            at_cycle: 500,
        }],
        dead_link_fraction: 0.05,
        ..FaultConfig::default()
    };
    let faulted = |topology: NetTopology, algo, fault, seed| Case {
        fault,
        ..Case::new(Fault, topology, algo, uniform(0.04), seed)
    };
    for algo in [SpaaRotary, Pim1, islip2] {
        rows.push(faulted(t4(), algo, storm.clone(), 1));
        rows.push(faulted(Mesh::new(4, 4).into(), algo, storm.clone(), 1));
    }
    let ber = FaultConfig {
        ber: 1e-3,
        ..FaultConfig::default()
    };
    rows.push(faulted(t4(), SpaaRotary, ber, 2));
    let dead = FaultConfig {
        dead_link_fraction: 0.1,
        ..FaultConfig::default()
    };
    rows.push(faulted(t4(), SpaaRotary, dead, 2));
    // Far past saturation for longer than the 4,096-cycle age threshold,
    // so drain mode engages, at a one-entry window (every unlink moves
    // the window tail) and one deeper than most queues.
    for algo in [SpaaRotary, WfaRotary] {
        for scan_window in [1, 32] {
            let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.1);
            rows.push(Case {
                scan_window,
                measure_cycles: 7_600,
                ..Case::new(Drain, t4(), algo, wl, 1)
            });
        }
    }
    for algo in [WfaBase, Islip { iterations: 1 }, Islip { iterations: 3 }] {
        rows.push(Case::new(Kernels, t4(), algo, uniform(0.04), 1));
    }

    // The scenarios the equivalence suites ran unpinned before they
    // became rows of this table.
    for algo in ArbAlgorithm::ALL {
        rows.push(Case::new(NearIdle, t4(), algo, uniform(0.002), 1).cycles(3_000));
    }
    for algo in [WfaBase3Cycle, SpaaDeep { latency: 5 }] {
        rows.push(Case::new(Kernels, t4(), algo, uniform(0.04), 1));
    }
    for algo in [SpaaRotary, Pim1, islip2] {
        let wl = hotspot(&[5, 10], 0.35, 0.002);
        rows.push(Case::new(Hotspot, t4(), algo, wl, 21).cycles(3_000));
    }
    for algo in [SpaaRotary, WfaRotary, Islip { iterations: 1 }] {
        let wl = bursty(0.002, 50.0, 200.0);
        rows.push(Case::new(Bursty, t4(), algo, wl, 31).cycles(3_000));
    }
    let wl = hotspot(&[0, 5, 10, 15], 0.5, 0.04).with_burst(BurstConfig::new(30.0, 120.0));
    rows.push(Case::new(Combined, t4(), SpaaRotary, wl, 41).cycles(4_000));
    let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.4);
    rows.push(Case {
        measure_cycles: 7_600,
        ..Case::new(Drain, t4(), WfaRotary, wl, 7)
    });
    for algo in [Ilqf { iterations: 1 }, Iocf { iterations: 1 }, islip2] {
        rows.push(Case {
            oracle: true,
            ..Case::new(Oracle, t4(), algo, uniform(0.03), 51).cycles(3_000)
        });
    }
    let wl = WorkloadConfig::paper(TrafficPattern::BitReversal, 0.01);
    rows.push(Case {
        scaled_2x: true,
        ..Case::new(Scaled, t4(), SpaaRotary, wl, 11).cycles(3_000)
    });
    rows.push(Case::new(Closed, t4(), SpaaRotary, closed(0.005, 1), 61).cycles(3_000));
    let wl = closed(0.2, 16);
    rows.push(Case::new(Closed, t4(), Ilqf { iterations: 2 }, wl, 63).cycles(3_000));
    let wl = closed(0.05, 8).with_three_hop_fraction(1.0);
    rows.push(Case::new(ThreeHop, Torus::net_8x8(), islip2, wl, 91).cycles(1_500));
    // Corruption heavy enough, with a retry budget small enough, that
    // links die of retry exhaustion mid-run.
    let exhaustion = FaultConfig {
        ber: 0.05,
        max_retries: 1,
        ..FaultConfig::default()
    };
    rows.push(Case {
        fault: exhaustion,
        ..Case::new(Fault, t4(), SpaaRotary, uniform(0.03), 61).cycles(3_000)
    });
    // The load points of the former equivalence suites no row above
    // holds: the kernels at 0.02 and 0.1, loaded hotspot and bursty
    // traffic, the closed-loop extremes on every driver, and the storm
    // at near-idle load, where routers sleep while a retransmit timer
    // waits on the fault wheel.
    for algo in [
        WfaBase,
        WfaBase3Cycle,
        SpaaDeep { latency: 5 },
        Islip { iterations: 1 },
        Islip { iterations: 3 },
    ] {
        for (seed, rate) in [(2, 0.02), (3, 0.1)] {
            rows.push(Case::new(Kernels, t4(), algo, uniform(rate), seed).cycles(3_000));
        }
    }
    let wl = hotspot(&[5, 10], 0.35, 0.03);
    rows.push(Case::new(Hotspot, t4(), islip2, wl, 22).cycles(3_000));
    for algo in [WfaRotary, Islip { iterations: 1 }] {
        let wl = bursty(0.02, 50.0, 200.0);
        rows.push(Case::new(Bursty, t4(), algo, wl, 32).cycles(3_000));
    }
    for algo in [Pim1, islip2, Ilqf { iterations: 2 }] {
        rows.push(Case::new(Closed, t4(), algo, closed(0.005, 1), 61).cycles(3_000));
    }
    for algo in [SpaaRotary, Pim1, islip2] {
        rows.push(Case::new(Closed, t4(), algo, closed(0.2, 16), 63).cycles(3_000));
    }
    let storm = FaultConfig {
        flap: Some(LinkFlap::new(400.0, 40.0)),
        kill_links: vec![LinkKill {
            node: 5,
            port: OutputPort::East,
            at_cycle: 1_000,
        }],
        ..storm
    };
    for algo in [SpaaRotary, islip2] {
        rows.push(Case {
            fault: storm.clone(),
            ..Case::new(Fault, t4(), algo, uniform(0.002), 51).cycles(4_000)
        });
    }
    rows
}
