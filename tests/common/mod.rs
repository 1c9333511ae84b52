//! The one case table is `tests/golden/reports.txt`: each line is a row.
//! The line's left half, its label, is the scenario ([`parse`] reads it
//! into a [`Case`]); its right half is what the scenario reported: the
//! readable [`counters`] and [`NetworkReport::digest`]. Three binaries
//! reproduce every line, each on its own engine setting:
//!
//! * `golden_reports` at one worker with idle-skip on ([`REFERENCE`]);
//! * `idle_skip_equivalence` at one worker with idle-skip off;
//! * `shard_equivalence` on one sharded engine per row, rotated by row
//!   index through [`ROTATION`].
//!
//! The table is append-only, so every committed line keeps its position
//! and its rotation engine. A new row is a label-only line at the end;
//! `GOLDEN_UPDATE=1 cargo test --test golden_reports` keeps every label
//! and rewrites every right half. Run it after appending a row, or for an
//! intended change of simulation behaviour.

use alpha21364::prelude::*;
use alpha21364::simcore::sweep::parallel_map;
use std::str::FromStr;
use std::sync::OnceLock;

pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/reports.txt");

/// One simulation: everything needed to reproduce a golden line.
#[derive(Clone, Debug)]
pub struct Case {
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

impl Case {
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
}

/// Parses a label back into its [`Case`]. Tokens, space-separated: the
/// topology (`4x4`, `mesh4x4`, `fullmesh5`), the arbiter (an
/// `ArbAlgorithm::ALL` name), `2x` for the doubled pipeline, the pattern
/// (`hotspot[5,10]@0.25` names its hot set and fraction;
/// `+burst=on/off` adds ON/OFF generation), then `rate=` and `seed=`,
/// which are required, and the options `mshrs=N|open`, `threehop=`,
/// `cycles=warmup+measure`, `window=`, `oracle`, `ber=`, `flap=up/down`,
/// `kill=<node><Port>@<cycle>` (one per link), `dead=`, `retries=`,
/// `backoff=` and `watchdog=`. What is left out is the paper workload
/// over 400 + 1,600 cycles on the production router with no faults.
///
/// # Errors
///
/// Names the token that is unknown, repeated or does not parse, or the
/// key that is missing.
pub fn parse(label: &str) -> Result<Case, String> {
    let mut tokens = label.split(' ');
    let mut positional = |what: &str| tokens.next().ok_or(format!("no {what}"));
    let token = positional("topology")?;
    let topology = topology(token).ok_or(format!("unknown topology {token}"))?;
    let token = positional("arbiter")?;
    let algo = ArbAlgorithm::ALL
        .into_iter()
        .find(|a| a.to_string() == token)
        .ok_or(format!("unknown arbiter {token}"))?;
    let mut token = positional("pattern")?;
    let scaled_2x = token == "2x";
    if scaled_2x {
        token = positional("pattern")?;
    }
    let (name, burst) = match token.split_once("+burst=") {
        Some((name, burst)) => (name, Some(pair(token, burst, '/')?)),
        None => (token, None),
    };
    let mut workload = WorkloadConfig::paper(pattern(token, name)?, 0.0);
    workload.burst = burst.map(|(on, off)| BurstConfig::new(on, off));
    let mut case = Case {
        topology,
        algo,
        scaled_2x,
        scan_window: RouterConfig::alpha_21364(algo).scan_window,
        oracle: false,
        workload,
        fault: FaultConfig::default(),
        seed: 0,
        warmup_cycles: 400,
        measure_cycles: 1_600,
    };
    let mut seen = Vec::new();
    for token in tokens {
        let (key, value) = token.split_once('=').unwrap_or((token, ""));
        if seen.contains(&key) && key != "kill" {
            return Err(format!("repeated {key} in {token}"));
        }
        seen.push(key);
        let (wl, f) = (&mut case.workload, &mut case.fault);
        match key {
            "rate" => wl.injection_rate = number(token, value)?,
            "seed" => case.seed = number(token, value)?,
            "mshrs" if value == "open" => wl.mshrs = u32::MAX,
            "mshrs" => wl.mshrs = number(token, value)?,
            "threehop" => wl.three_hop_fraction = number(token, value)?,
            "cycles" => (case.warmup_cycles, case.measure_cycles) = pair(token, value, '+')?,
            "window" => case.scan_window = number(token, value)?,
            "oracle" if token == key => case.oracle = true,
            "ber" => f.ber = number(token, value)?,
            "flap" => {
                let (up, down) = pair(token, value, '/')?;
                f.flap = Some(LinkFlap::new(up, down));
            }
            "kill" => f.kill_links.push(kill(token, value)?),
            "dead" => f.dead_link_fraction = number(token, value)?,
            "retries" => f.max_retries = number(token, value)?,
            "backoff" => f.backoff_base_cycles = number(token, value)?,
            "watchdog" => f.watchdog_cycles = Some(number(token, value)?),
            _ => return Err(format!("unknown token {token}")),
        }
    }
    for required in ["rate", "seed"] {
        if !seen.contains(&required) {
            return Err(format!("no {required}="));
        }
    }
    Ok(case)
}

/// `4x4` (a torus), `mesh4x4` or `fullmesh5`; `None` for a shape the
/// constructors reject (a side below 2, more nodes than `u16` counts, a
/// full mesh outside `2..=FullMesh::MAX_NODES`).
fn topology(token: &str) -> Option<NetTopology> {
    let dims = |wh: &str| -> Option<(u16, u16)> {
        let (w, h) = wh.split_once('x')?;
        let (w, h): (u16, u16) = (w.parse().ok()?, h.parse().ok()?);
        (w >= 2 && h >= 2 && w.checked_mul(h).is_some()).then_some((w, h))
    };
    Some(if let Some(nodes) = token.strip_prefix("fullmesh") {
        let nodes = nodes.parse().ok();
        FullMesh::new(nodes.filter(|n| (2..=FullMesh::MAX_NODES).contains(n))?).into()
    } else if let Some(wh) = token.strip_prefix("mesh") {
        let (w, h) = dims(wh)?;
        Mesh::new(w, h).into()
    } else {
        let (w, h) = dims(token)?;
        Torus::new(w, h).into()
    })
}

/// A pattern name, or `hotspot[<node>,...]@<fraction>` over at most
/// four distinct nodes (what `HotspotTargets::new` accepts).
fn pattern(token: &str, name: &str) -> Result<TrafficPattern, String> {
    use TrafficPattern::*;
    let unknown = || format!("unknown pattern {token}");
    Ok(match name {
        "uniform" => Uniform,
        "bit-reversal" => BitReversal,
        "perfect-shuffle" => PerfectShuffle,
        "tornado" => Tornado,
        _ => {
            let hot = name.strip_prefix("hotspot[").ok_or_else(unknown)?;
            let (nodes, fraction) = hot.split_once("]@").ok_or_else(unknown)?;
            let nodes = nodes
                .split(',')
                .map(|n| number(token, n))
                .collect::<Result<Vec<u16>, _>>()?;
            if nodes.len() > 4 {
                return Err(format!("more than 4 hot nodes in {token}"));
            }
            if let Some(i) = (1..nodes.len()).find(|&i| nodes[..i].contains(&nodes[i])) {
                return Err(format!("repeated hot node {} in {token}", nodes[i]));
            }
            Hotspot {
                targets: HotspotTargets::new(&nodes),
                fraction: number(token, fraction)?,
            }
        }
    })
}

/// `<node><Port>@<cycle>`: the sender and its network output port.
fn kill(token: &str, value: &str) -> Result<LinkKill, String> {
    let (link, at) = value.split_once('@').ok_or(format!("no @ in {token}"))?;
    let (node, port) = link.split_at(link.find(|c: char| c.is_ascii_alphabetic()).unwrap_or(0));
    let port = match port {
        "North" => OutputPort::North,
        "South" => OutputPort::South,
        "East" => OutputPort::East,
        "West" => OutputPort::West,
        _ => return Err(format!("unknown port {port} in {token}")),
    };
    Ok(LinkKill {
        node: number(token, node)?,
        port,
        at_cycle: number(token, at)?,
    })
}

/// Two numbers joined by `sep`.
fn pair<T: FromStr>(token: &str, value: &str, sep: char) -> Result<(T, T), String> {
    let (a, b) = value
        .split_once(sep)
        .ok_or(format!("no {sep} in {token}"))?;
    Ok((number(token, a)?, number(token, b)?))
}

/// `text` as a number. Rust reads a float back from the shortest form it
/// prints to the same bits, so a label reproduces its config exactly.
fn number<T: FromStr>(token: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("unparsable {token}"))
}

/// A golden line's right half: the counters a reader checks first, and
/// the digest of every field.
pub fn counters(r: &NetworkReport) -> String {
    format!(
        "pkts={} flits={} inj={} inflight={} noms={} grants={} coll={} esc={} drains={} \
         report={:016x}",
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

/// One line of the golden file.
pub struct Row {
    /// The left half: the scenario.
    pub label: String,
    pub case: Case,
    /// The right half, the [`counters`] recorded for the row; `None` on a
    /// label-only line not recorded yet.
    recorded: Option<String>,
}

/// The rows, in file order.
///
/// # Panics
///
/// When the file is missing, unreadable or empty — no row would be
/// checked — or a label does not parse, naming the path and the line.
pub fn rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let text =
            std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| panic!("{GOLDEN_PATH}: {e}"));
        assert!(!text.trim().is_empty(), "{GOLDEN_PATH} has no rows");
        text.lines()
            .enumerate()
            .map(|(i, line)| {
                let (label, recorded) = match line.split_once(" | ") {
                    Some((label, recorded)) => (label, Some(recorded.to_owned())),
                    None => (line, None),
                };
                Row {
                    label: label.to_owned(),
                    case: parse(label).unwrap_or_else(|e| panic!("{GOLDEN_PATH}:{}: {e}", i + 1)),
                    recorded,
                }
            })
            .collect()
    })
}

/// The case on the line labelled `label`.
pub fn find(label: &str) -> &'static Case {
    &rows()
        .iter()
        .find(|row| row.label == label)
        .unwrap_or_else(|| panic!("no row labelled {label}"))
        .case
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
/// stepping; neighbouring rows land on different engines.
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

/// Checks every row in parallel, row `i` on `engine(i)`.
pub fn check_every_row(engine: impl Fn(usize) -> Engine + Sync) {
    check_rows((0..rows().len()).collect(), engine);
}

fn check_rows(indices: Vec<usize>, engine: impl Fn(usize) -> Engine + Sync) {
    parallel_map(0, indices, |i| check(i, engine(i)));
}

/// An equivalence binary: the engine it runs each row on, and the test
/// that checks each row there.
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

    /// The test in this axis's binary that checks `case`, read off the
    /// scenario: the first thing the row does that a test is named for.
    pub fn test(self, case: &Case) -> &'static str {
        let (wl, topology) = (&case.workload, case.topology);
        let paper = WorkloadConfig::paper(TrafficPattern::Uniform, 0.0);
        let hotspot = matches!(wl.pattern, TrafficPattern::Hotspot { .. });
        let torus = topology
            .grid()
            .is_some_and(|(w, h)| topology == Torus::new(w, h).into());
        let (skip, shard) = if case.fault.injection_enabled() {
            (
                "idle_skip_equivalence_under_fault_storms",
                "sharded_engine_is_equivalent_under_fault_storms",
            )
        } else if wl.mshrs == u32::MAX {
            (
                "idle_skip_equivalence_holds_after_drain_engagement",
                "sharded_engine_is_equivalent_under_saturation_drain",
            )
        } else if case.oracle {
            (
                "idle_skip_equivalence_holds_with_matching_weight_oracle",
                "sharded_engine_is_equivalent_with_matching_weight_oracle",
            )
        } else if case.scaled_2x {
            (
                "idle_skip_equivalence_on_scaled_pipeline",
                "sharded_engine_is_bit_for_bit_equivalent_across_worker_counts",
            )
        } else if wl.three_hop_fraction != paper.three_hop_fraction {
            (
                "idle_skip_equivalence_for_closed_loop_three_hop_extremes",
                "sharded_engine_is_equivalent_for_closed_loop_three_hop_on_8x8",
            )
        } else if wl.mshrs < paper.mshrs || wl.injection_rate >= 0.2 {
            // Fewer MSHRs than the paper's, or a rate that outruns them.
            (
                "idle_skip_equivalence_for_closed_loop_drivers",
                "sharded_engine_is_equivalent_for_closed_loop_drivers",
            )
        } else if !torus {
            (
                "idle_skip_equivalence_on_mesh_and_full_mesh",
                "sharded_engine_is_equivalent_on_mesh_and_full_mesh",
            )
        } else if topology == Torus::net_16x16().into() {
            (
                "idle_skip_is_bit_for_bit_equivalent",
                "sharded_engine_is_equivalent_on_a_larger_torus",
            )
        } else if hotspot && wl.burst.is_some() {
            (
                "idle_skip_equivalence_holds_under_combined_hotspot_bursty",
                "sharded_engine_is_equivalent_under_hotspot_and_bursty_traffic",
            )
        } else if hotspot {
            (
                "idle_skip_is_bit_for_bit_equivalent_under_hotspot_traffic",
                "sharded_engine_is_equivalent_under_hotspot_and_bursty_traffic",
            )
        } else if wl.burst.is_some() {
            (
                "idle_skip_is_bit_for_bit_equivalent_under_bursty_traffic",
                "sharded_engine_is_equivalent_under_hotspot_and_bursty_traffic",
            )
        } else if wl.injection_rate <= 0.002 {
            (
                "idle_skip_is_bit_for_bit_equivalent",
                "sharded_engine_is_equivalent_with_idle_skip_off",
            )
        } else {
            (
                "idle_skip_is_bit_for_bit_equivalent",
                "sharded_engine_is_bit_for_bit_equivalent_across_worker_counts",
            )
        };
        match self {
            Axis::Skip => skip,
            Axis::Shard => shard,
        }
    }

    /// Checks, rows in parallel, every row that [`Axis::test`] gives to
    /// `test` on this axis.
    pub fn check(self, test: &str) {
        let indices: Vec<usize> = (0..rows().len())
            .filter(|&i| self.test(&rows()[i].case) == test)
            .collect();
        assert!(!indices.is_empty(), "{self:?}: {test} checks no row");
        check_rows(indices, |i| self.engine(i));
    }
}

/// Runs row `index` on `engine` and compares its counters with the
/// recorded ones. On a mismatch the row reruns on [`REFERENCE`] and the
/// two reports are compared field by field, so the failure names the
/// field an engine changed; when they agree, the behaviour itself changed.
fn check(index: usize, engine: Engine) {
    let row = &rows()[index];
    let label = format!("line {} on {engine:?}: {}", index + 1, row.label);
    let Some(want) = &row.recorded else {
        panic!("{label}: not recorded: GOLDEN_UPDATE=1 cargo test --test golden_reports");
    };
    let (report, skipped) = run(&row.case, engine);
    let got = counters(&report);
    if got != *want {
        run(&row.case, REFERENCE)
            .0
            .assert_bit_identical(&report, &label);
        panic!(
            "{label}: the reference engine reports the same, so behaviour changed \
             (re-record only if that is intended)\n got: {got}\nwant: {want}"
        );
    }
    exercised(row, &report, skipped, engine);
}

/// Asserts the row reached what its scenario is for, so a re-recorded
/// line cannot pin a scenario that quietly stopped happening.
fn exercised(row: &Row, r: &NetworkReport, skipped: u64, engine: Engine) {
    let (case, label) = (&row.case, &row.label);
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
    if case.workload.mshrs == u32::MAX {
        // The table runs open loop only far past saturation, for longer
        // than the 4,096-cycle age threshold.
        assert!(r.drain_engagements > 0, "{label}: drain never engaged");
    } else if !f.injection_enabled() {
        // Fault rows are left out until ROADMAP.md item 1 (a transaction
        // timeout) lands: a packet dropped after retry exhaustion strands
        // its transaction's MSHR, and `ber=0.05 retries=1` completes no
        // transaction in its measured window.
        assert!(r.completed_txns > 0, "{label}: no transactions measured");
        assert!(
            r.avg_txn_latency_ns() > r.avg_latency_ns(),
            "{label}: a transaction cannot beat one packet hop"
        );
    }
}
