//! What a catalogue entry is built from.
//!
//! A figure is panels × curves × grid × columns:
//!
//! * the **grid** (run length and swept values) comes from the one mode
//!   resolver, `Scale::resolve`, over a per-figure `crate::Grid` that
//!   states its overrides as data;
//! * every cell runs through the one point runner (`crate::run_jobs`,
//!   via `sweep`) and keeps its full report;
//! * one **column list** per figure (`Column`) renders both the text
//!   table (`table`) and the JSON points (`json_points`), so the two
//!   cannot drift apart;
//! * the JSON document goes through the one writer, `simcore::json`,
//!   under the header the driver adds ([`Figure::document`]).
//!
//! Command-line arguments are checked once, here ([`parse`]), into typed
//! values; a figure never sees a string it has to interpret.

use crate::catalogue::FIGURES;
use crate::{bnf_curve, point_config, run_jobs, Job, Point, Scale, SweepSpec, SEED};
use network::{NetTopology, NetworkConfig, NetworkReport, NetworkSim, Torus};
use router::{ArbAlgorithm, RouterConfig};
use simcore::bnf::{BnfCurve, ReplicatedBnfPoint};
use simcore::json::{self, Json};
use simcore::table::Table;
use workload::{build_endpoints, BurstConfig, HotspotTargets, TrafficPattern, WorkloadConfig};

/// A figure's checked command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--quick` / none / `--paper`.
    pub scale: Scale,
    /// `--out`: where the JSON table goes (a directory for `fig all`).
    pub out: Option<String>,
    /// `--net`: the torus of a `fig10` panel.
    pub(crate) net: network::Grid,
    /// `--pattern`: the traffic of a `fig10` panel.
    pub(crate) pattern: TrafficPattern,
}

/// How a figure runs: text only, or text plus a JSON table.
pub enum Run {
    /// Prints its tables.
    Text(fn(&Args)),
    /// Prints its tables and returns its JSON members (header fields,
    /// then the `figures` panels), which the driver writes to `--out`
    /// (default [`Figure::default_out`]) as [`Figure::document`].
    Table(fn(&Args) -> Members),
}

/// The members of a JSON object, in order.
pub(crate) type Members = Vec<(&'static str, Json)>;

/// One catalogue entry.
pub struct Figure {
    /// `fig <name>`.
    pub name: &'static str,
    /// One line for `fig --list`.
    pub(crate) about: &'static str,
    /// Value flags it takes besides `--out` (which every [`Run::Table`]
    /// figure takes): a subset of `--net`, `--pattern`.
    pub(crate) flags: &'static [&'static str],
    /// The argument lists `fig all` runs it under, one job each.
    pub jobs: &'static [&'static [&'static str]],
    /// The figure itself.
    pub run: Run,
}

impl Figure {
    /// A figure that takes no flags of its own and is one `fig all` job.
    pub(crate) const fn new(name: &'static str, about: &'static str, run: Run) -> Figure {
        Figure {
            name,
            about,
            flags: &[],
            jobs: &[&[]],
            run,
        }
    }

    /// Where a [`Run::Table`] figure's JSON goes without `--out`: the
    /// committed table's name.
    pub fn default_out(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// The JSON table a [`Run::Table`] figure commits: the common header
    /// (`"bench": "fig_<name>"`, the mode), then the figure's `members`.
    pub fn document(&self, scale: Scale, members: Members) -> String {
        let mut all = vec![
            ("bench", Json::Str(format!("fig_{}", self.name))),
            ("mode", Json::str(scale.mode())),
        ];
        all.extend(members);
        json::document(&all)
    }

    fn takes(&self, flag: &str) -> bool {
        self.flags.contains(&flag) || (flag == "--out" && matches!(self.run, Run::Table(_)))
    }
}

/// What the command line asked for.
pub enum Command {
    /// `fig --list`.
    List,
    /// `fig all`: every job of every figure, outputs under `--out`.
    All(Args),
    /// `fig <name>`.
    One(&'static Figure, Args),
}

/// The usage text, ending in the `--list` output.
pub fn usage() -> String {
    format!(
        "usage: fig <name> [--quick | --paper] [--out PATH] [--net 4x4|8x8] \
         [--pattern uniform|bitrev|shuffle]\n       \
         fig all [--quick | --paper] [--out DIR]\n       \
         fig --list\n\nfigures:\n{}",
        list()
    )
}

/// One line per catalogue entry.
pub fn list() -> String {
    FIGURES
        .iter()
        .map(|f| format!("  {:<24} {}\n", f.name, f.about))
        .collect()
}

/// Checks a command line (without the program name). Anything it does
/// not understand — an unknown figure or flag, a flag the figure does
/// not take, a missing or unparsable value — is an error naming it,
/// never a panic or a silent default.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        scale: Scale::Quick,
        out: None,
        net: Torus::net_8x8(),
        pattern: TrafficPattern::Uniform,
    };
    let mut name = None;
    let mut given = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            given.push(arg.as_str());
            let v = it.next().filter(|v| !v.starts_with("--"));
            v.ok_or(format!("{arg} needs a value"))
        };
        let bad = |v: &String, want: &str| format!("{arg} {v}: expected {want}");
        match arg.as_str() {
            "--list" => return Ok(Command::List),
            "--quick" if args.scale != Scale::Paper => args.scale = Scale::Smoke,
            "--paper" if args.scale != Scale::Smoke => args.scale = Scale::Paper,
            "--quick" | "--paper" => return Err("--quick and --paper exclude each other".into()),
            "--out" => args.out = Some(value()?.clone()),
            "--net" => {
                let v = value()?;
                args.net = match v.as_str() {
                    "4x4" => Torus::net_4x4(),
                    "8x8" => Torus::net_8x8(),
                    _ => return Err(bad(v, "4x4 or 8x8")),
                };
            }
            "--pattern" => {
                let v = value()?;
                args.pattern = match v.as_str() {
                    "uniform" => TrafficPattern::Uniform,
                    "bitrev" => TrafficPattern::BitReversal,
                    "shuffle" => TrafficPattern::PerfectShuffle,
                    _ => return Err(bad(v, "uniform, bitrev or shuffle")),
                };
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ if name.is_some() => return Err(format!("unexpected argument {arg}")),
            _ => name = Some(arg.as_str()),
        }
    }
    let name = name.ok_or("no figure named")?;
    if name == "all" {
        return match given.iter().find(|&&flag| flag != "--out") {
            Some(flag) => Err(format!("all does not take {flag}")),
            None => Ok(Command::All(args)),
        };
    }
    let figure = FIGURES
        .iter()
        .find(|f| f.name == name)
        .ok_or(format!("unknown figure {name}"))?;
    match given.iter().find(|flag| !figure.takes(flag)) {
        Some(flag) => Err(format!("{name} does not take {flag}")),
        None => Ok(Command::One(figure, args)),
    }
}

/// A cell's value; the column says how many decimals a float gets.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Val {
    /// A measured float, fixed decimals.
    F(f64),
    /// A measured float that may be undefined: `-` in text, `null` in JSON.
    Opt(Option<f64>),
    /// A count.
    U(u64),
    /// A configuration echo, printed in shortest round-trip form.
    Exact(f64),
}

/// One column of a figure over rows of type `R`: its text-table header
/// (`None` = JSON only), its JSON key, the decimals a float gets in
/// each, and the value.
pub(crate) struct Column<R> {
    head: Option<&'static str>,
    key: &'static str,
    decimals: (usize, usize),
    get: fn(&R) -> Val,
}

impl<R> Column<R> {
    /// A column in both renderings (text under `head`, unless `None`);
    /// `decimals` is `(text, JSON)`.
    pub(crate) fn new(
        head: impl Into<Option<&'static str>>,
        key: &'static str,
        decimals: (usize, usize),
        get: fn(&R) -> Val,
    ) -> Self {
        Column {
            head: head.into(),
            key,
            decimals,
            get,
        }
    }

    /// A count.
    pub(crate) fn count(
        head: impl Into<Option<&'static str>>,
        key: &'static str,
        get: fn(&R) -> Val,
    ) -> Self {
        Column::new(head, key, (0, 0), get)
    }

    /// The same column under another text header (`None` = JSON only).
    pub(crate) fn titled(self, head: impl Into<Option<&'static str>>) -> Self {
        Column {
            head: head.into(),
            ..self
        }
    }

    fn text(&self, row: &R) -> String {
        let d = self.decimals.0;
        match (self.get)(row) {
            Val::F(v) | Val::Opt(Some(v)) => format!("{v:.d$}"),
            Val::Opt(None) => "-".into(),
            Val::U(n) => n.to_string(),
            Val::Exact(v) => v.to_string(),
        }
    }

    fn json(&self, row: &R) -> Json {
        match (self.get)(row) {
            Val::F(v) => Json::Fixed(v, self.decimals.1),
            Val::Opt(v) => Json::opt_fixed(v, self.decimals.1),
            Val::U(n) => Json::Int(n),
            Val::Exact(v) => Json::Float(v),
        }
    }
}

/// The JSON name the committed tables give the throughput axis.
pub(crate) const DELIVERED: &str = "delivered_flits_per_router_ns";

/// The four BNF columns of a load-swept figure — offered load,
/// delivered throughput (JSON name `throughput_key`), packet latency,
/// delivered packets — for a figure to use as they are or re-title.
pub(crate) fn bnf_columns(throughput_key: &'static str) -> [Column<Point>; 4] {
    [
        Column::new("offered(pkt/node/cy)", "offered", (4, 4), |p| Val::F(p.x)),
        Column::new("delivered(flits/router/ns)", throughput_key, (4, 5), |p| {
            Val::F(p.report.flits_per_router_ns)
        }),
        Column::new("latency(ns)", "latency_ns", (1, 2), |p| {
            Val::F(p.report.avg_latency_ns())
        }),
        Column::count("packets", "packets", |p| Val::U(p.report.delivered_packets)),
    ]
}

/// One labelled curve of a panel.
pub(crate) struct Curve<R> {
    /// Algorithm (or loop-mode) name.
    pub(crate) label: String,
    /// Its rows, in grid order.
    pub(crate) points: Vec<R>,
}

/// The text table of a panel: one row per point, led by the curve label
/// under `label_head` (no label column when `None`).
pub(crate) fn table<R>(
    label_head: Option<&str>,
    columns: &[Column<R>],
    curves: &[Curve<R>],
) -> Table {
    let shown = || columns.iter().filter_map(|c| Some((c.head?, c)));
    let heads: Vec<&str> = label_head
        .into_iter()
        .chain(shown().map(|(head, _)| head))
        .collect();
    let mut t = Table::with_columns(&heads);
    for curve in curves {
        for row in &curve.points {
            let label = label_head.map(|_| curve.label.clone());
            t.row(
                label
                    .into_iter()
                    .chain(shown().map(|(_, c)| c.text(row)))
                    .collect(),
            );
        }
    }
    t
}

/// The JSON points of one curve: one object per row, one line each.
pub(crate) fn json_points<R>(columns: &[Column<R>], points: &[R]) -> Json {
    let object = |row| Json::Object(columns.iter().map(|c| (c.key, c.json(row))).collect());
    Json::Array(points.iter().map(object).collect())
}

/// The JSON curves of a panel: `{label_key: label, "points": [...]}` each.
pub(crate) fn json_curves<R>(
    label_key: &'static str,
    columns: &[Column<R>],
    curves: &[Curve<R>],
) -> Json {
    Json::Array(
        curves
            .iter()
            .map(|c| {
                Json::Object(vec![
                    (label_key, Json::str(&c.label)),
                    ("points", json_points(columns, &c.points)),
                ])
            })
            .collect(),
    )
}

/// The BNF view of a panel's curves, for [`summary_table`].
pub(crate) fn bnf_curves(curves: &[Curve<Point>]) -> Vec<BnfCurve> {
    curves
        .iter()
        .map(|c| bnf_curve(c.label.clone(), &c.points))
        .collect()
}

/// Summarizes the paper's headline comparisons for a panel: peak and
/// final throughput per algorithm plus throughput at a reference latency.
pub(crate) fn summary_table(curves: &[BnfCurve], ref_latency_ns: f64) -> Table {
    let mut t = Table::with_columns(&[
        "algorithm",
        "peak thr",
        "final thr",
        &format!("thr @ {ref_latency_ns} ns"),
        "zero-load lat (ns)",
    ]);
    let fmt_opt = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.3}"));
    for c in curves {
        t.row(vec![
            c.label.clone(),
            fmt_opt(c.peak_throughput()),
            fmt_opt(c.final_throughput()),
            fmt_opt(c.throughput_at_latency(ref_latency_ns)),
            fmt_opt(c.zero_load_latency()),
        ]);
    }
    t
}

/// Prints a load-swept panel: its point table, then its summary.
pub(crate) fn print_bnf_tables(
    columns: &[Column<Point>],
    curves: &[Curve<Point>],
    ref_latency_ns: f64,
) {
    println!("{}", table(Some("algorithm"), columns, curves).to_text());
    let summary = summary_table(&bnf_curves(curves), ref_latency_ns);
    println!("{}", summary.to_text());
}

/// The latency at which the paper reads throughput off a BNF curve:
/// 83 ns on the 16-node networks, 122 ns on the larger ones (§5.2).
pub(crate) fn reference_latency(topology: &NetTopology) -> f64 {
    if topology.nodes() == 16 {
        83.0
    } else {
        122.0
    }
}

/// `a` over `b` as a signed percentage gain, when both are defined.
pub(crate) fn gain_percent(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    Some(100.0 * (a? / b? - 1.0))
}

/// Runs every (curve, grid value) cell of a panel as one flat batch
/// through the worker pool and regroups the points per curve. `job`
/// builds a cell's simulation from the curve, the grid index (the seed
/// stream, see `point_config`) and the grid value.
pub(crate) fn sweep<C>(
    curves: &[C],
    grid: &[f64],
    label: impl Fn(&C) -> String,
    job: impl Fn(&C, usize, f64) -> Job,
) -> Vec<Curve<Point>> {
    let job = &job;
    let cell = |c| {
        grid.iter()
            .enumerate()
            .map(move |(idx, &x)| (x, job(c, idx, x)))
    };
    let jobs = curves.iter().flat_map(cell).collect();
    let mut points = run_jobs(0, jobs).into_iter();
    curves
        .iter()
        .map(|c| Curve {
            label: label(c),
            points: points.by_ref().take(grid.len()).collect(),
        })
        .collect()
}

/// One [`SweepSpec`] curve per algorithm on the standard grid at
/// `scale`, `tweak` adjusting each spec (pipeline scaling, closed loop, a
/// longer grid) — the same way for every curve, so they share one grid.
pub(crate) fn spec_curves(
    algorithms: &[ArbAlgorithm],
    topology: NetTopology,
    pattern: TrafficPattern,
    scale: Scale,
    tweak: impl Fn(&mut SweepSpec),
) -> Vec<Curve<Point>> {
    let spec = |&algorithm: &ArbAlgorithm| {
        let mut spec = SweepSpec::new(algorithm, topology, pattern, scale);
        tweak(&mut spec);
        spec
    };
    let specs: Vec<SweepSpec> = algorithms.iter().map(spec).collect();
    let grid = specs.first().map_or(&[][..], |spec| &spec.rates);
    let label = |spec: &SweepSpec| spec.algorithm.to_string();
    sweep(&specs, grid, label, |spec, idx, rate| {
        spec.job(spec.seed, idx, rate)
    })
}

/// The production router under `algorithm` on `topology`, fault-free, at
/// grid point `idx` of a `cycles`-long run under `SEED`.
pub(crate) fn plain_net(
    topology: impl Into<NetTopology>,
    algorithm: ArbAlgorithm,
    idx: usize,
    cycles: u64,
) -> NetworkConfig {
    point_config(
        topology.into(),
        RouterConfig::alpha_21364(algorithm),
        SEED,
        idx,
        cycles,
        Default::default(),
    )
}

/// The traffic scenarios of the replicated and the weighted figures: the
/// uniform reference plus the two skewed cases the paper does not cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Scenario {
    /// Smooth uniform traffic.
    Uniform,
    /// A quarter of the traffic converges on two interior nodes, the
    /// rest uniform; the hot links saturate first and tree saturation
    /// fans out from them.
    Hotspot,
    /// Uniform destinations, generation concentrated into geometric
    /// ON/OFF phases (mean 60 on / 240 off, duty 20%, 5× peak rate) at
    /// the same *average* offered load, so the curves stay
    /// point-comparable with the smooth sweeps.
    Bursty,
}

impl Scenario {
    /// Share of hotspot traffic aimed at the hot set.
    pub(crate) const HOTSPOT_FRACTION: f64 = 0.25;
    /// Mean ON phase, cycles.
    pub(crate) const BURST_ON_CYCLES: f64 = 60.0;
    /// Mean OFF phase, cycles.
    pub(crate) const BURST_OFF_CYCLES: f64 = 240.0;

    /// The panel label.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Scenario::Uniform => "uniform",
            Scenario::Hotspot => "hotspot",
            Scenario::Bursty => "bursty",
        }
    }

    /// The destination pattern. Hot set: two interior nodes (center and
    /// its diagonal neighbour) — deep enough in the torus that
    /// congestion trees have room to grow in every direction.
    pub(crate) fn pattern(self, torus: &network::Grid) -> TrafficPattern {
        match self {
            Scenario::Hotspot => {
                let (cx, cy) = (torus.width() / 2, torus.height() / 2);
                TrafficPattern::Hotspot {
                    targets: HotspotTargets::new(&[torus.node(cx, cy), torus.node(cx - 1, cy - 1)]),
                    fraction: Self::HOTSPOT_FRACTION,
                }
            }
            Scenario::Uniform | Scenario::Bursty => TrafficPattern::Uniform,
        }
    }

    /// The arrival modulation.
    pub(crate) fn burst(self) -> Option<BurstConfig> {
        (self == Scenario::Bursty)
            .then(|| BurstConfig::new(Self::BURST_ON_CYCLES, Self::BURST_OFF_CYCLES))
    }

    /// The scenario constants as the tables' header fields.
    pub(crate) fn json_header() -> [(&'static str, Json); 2] {
        [
            ("hotspot_fraction", Json::Float(Self::HOTSPOT_FRACTION)),
            (
                "burst_cycles",
                Json::Object(vec![
                    ("mean_on", Json::Float(Self::BURST_ON_CYCLES)),
                    ("mean_off", Json::Float(Self::BURST_OFF_CYCLES)),
                ]),
            ),
        ]
    }
}

/// The columns of a replicated panel: per load point the replicate
/// mean, sample std-dev, and 95% CI half-width of both BNF axes.
pub(crate) fn replicated_columns() -> Vec<Column<ReplicatedBnfPoint>> {
    vec![
        Column::new("offered(pkt/node/cy)", "offered", (4, 4), |p| {
            Val::F(p.offered)
        }),
        Column::count("seeds", "seeds", |p| Val::U(p.throughput.count())),
        Column::new("thr mean", "throughput_mean", (4, 5), |p| {
            Val::F(p.throughput.mean())
        }),
        Column::new("thr sd", "throughput_std", (4, 5), |p| {
            Val::F(p.throughput.sample_std_dev())
        }),
        Column::new("thr ±ci95", "throughput_ci95", (4, 5), |p| {
            Val::F(p.throughput_ci95())
        }),
        Column::new("lat mean(ns)", "latency_mean_ns", (1, 2), |p| {
            Val::F(p.latency_ns.mean())
        }),
        Column::new("lat sd", "latency_std_ns", (1, 2), |p| {
            Val::F(p.latency_ns.sample_std_dev())
        }),
        Column::new("lat ±ci95", "latency_ci95_ns", (1, 2), |p| {
            Val::F(p.latency_ci95())
        }),
        Column::count(None, "packets", |p| Val::U(p.packets)),
    ]
}

/// Runs one configuration across worker counts {1, 2, 4, 8} and
/// idle-skip {on, off}, asserting every report field identical down to
/// the raw f64 bits, prints that the `what` probe held, and returns the
/// reference report so the caller can check the probe exercised what it
/// meant to. Panics on a mismatch — it must fail the run, not get
/// recorded as data.
pub(crate) fn prove_bit_exactness(
    what: &str,
    net: &NetworkConfig,
    wl: &WorkloadConfig,
) -> NetworkReport {
    let run = |workers: usize, idle_skip: bool| {
        let endpoints = build_endpoints(net, wl);
        let mut sim = NetworkSim::with_workers(net.clone(), endpoints, workers);
        sim.set_idle_skip(idle_skip);
        sim.run()
    };
    let reference = run(1, true);
    for workers in [1usize, 2, 4, 8] {
        for idle_skip in [false, true] {
            let label = format!("workers={workers} idle_skip={idle_skip}");
            run(workers, idle_skip).assert_bit_identical(&reference, &label);
        }
    }
    println!("{what} bit-exactness probe: workers {{1,2,4,8}} x idle-skip {{on,off}} identical");
    reference
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values `usage` lists for `flag`, e.g. `4x4|8x8` for `--net`.
    fn listed(flag: &str) -> Vec<String> {
        let text = usage();
        let open = format!("[{flag} ");
        let from = text.find(&open).expect("flag in usage") + open.len();
        let to = from + text[from..].find(']').expect("closing bracket");
        text[from..to].split('|').map(str::to_owned).collect()
    }

    /// `parse` never calls `validate` because every pair it can produce
    /// passes it: this runs each `--net` × `--pattern` value the usage
    /// lists through `parse` and then the workload gate, so a new value
    /// that builds an invalid pair fails here.
    #[test]
    fn every_parsable_net_and_pattern_validates() {
        let (nets, patterns) = (listed("--net"), listed("--pattern"));
        assert!(
            nets.len() >= 2 && patterns.len() >= 3,
            "usage lists {nets:?} and {patterns:?}"
        );
        for net in &nets {
            for pattern in &patterns {
                let argv = ["fig10", "--net", net, "--pattern", pattern].map(String::from);
                let Ok(Command::One(_, args)) = parse(&argv) else {
                    panic!("{argv:?} does not parse");
                };
                let cfg = plain_net(args.net, ArbAlgorithm::SpaaRotary, 0, 4_000);
                let wl = WorkloadConfig::paper(args.pattern, 0.02);
                assert_eq!(wl.validate(&cfg), Ok(()), "{net} × {pattern}");
            }
        }
    }
}
