//! Figure regeneration for the arbitration study.
//!
//! The one binary, `fig`, regenerates any figure of the [`catalogue`]
//! (see DESIGN.md "Figure catalogue"). This file holds what every figure
//! and the `perf/` benchmark share: the point runner (`run_jobs`), the
//! per-point configuration layout (`point_config`) and the BNF sweep
//! over injection rates ([`SweepSpec`]). [`figure`] holds what a
//! catalogue entry is built from: arguments, columns, curves.
//!
//! Scale control ([`Scale`], resolved over a figure's `Grid`): every
//! figure accepts `--paper` for full paper fidelity (75,000 cycles per
//! point, §4.3), defaults to a reduced but shape-preserving scale, and
//! has a `--quick` smoke scale for CI.

pub mod catalogue;
pub mod figure;

use network::{FaultConfig, NetTopology, NetworkConfig, NetworkReport};
use router::{ArbAlgorithm, RouterConfig};
use simcore::bnf::{BnfCurve, BnfPoint, ReplicatedBnfCurve};
use simcore::sweep::parallel_map;
use workload::{run_coherence_sim, BurstConfig, EndpointStats, TrafficPattern, WorkloadConfig};

/// How much work a figure does and how long each simulated point runs.
/// The variant names are the labels the paper figures' headings print.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `--quick`: the CI smoke scale — three load points, short runs.
    Smoke,
    /// No flag: reduced cycle count, same qualitative shape; regenerates
    /// the committed `BENCH_*.json` tables, whose `mode` says "default".
    Quick,
    /// `--paper`: the paper's 75,000-cycle runs (§4.3).
    Paper,
}

impl Scale {
    /// This scale's choice among per-scale values.
    pub fn pick<T>(self, smoke: T, quick: T, paper: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }

    /// The JSON `mode` field and the extension figures' headings.
    pub(crate) fn mode(self) -> &'static str {
        self.pick("quick", "default", "paper")
    }

    /// The one mode resolver: cycles per point and the swept grid.
    pub(crate) fn resolve(self, grid: &Grid) -> (u64, Vec<f64>) {
        let (cycles, values) = self.pick(grid.smoke, grid.full, (grid.paper_cycles, grid.full.1));
        (cycles, values.to_vec())
    }
}

/// A figure's run length and swept values at each scale: `(cycles,
/// values)` for `Smoke` and `Quick`; `Paper` sweeps the `Quick` values
/// for `paper_cycles`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Grid {
    /// `--quick`.
    pub(crate) smoke: (u64, &'static [f64]),
    /// No flag.
    pub(crate) full: (u64, &'static [f64]),
    /// `--paper` run length.
    pub(crate) paper_cycles: u64,
}

impl Grid {
    /// The standard shape: 4,000-cycle smoke over [`SMOKE_RATES`],
    /// `cycles` over `values` by default, 75,000 cycles for `--paper`.
    /// A figure that differs overrides fields with struct-update syntax.
    pub(crate) const fn new(cycles: u64, values: &'static [f64]) -> Grid {
        Grid {
            smoke: (4_000, &SMOKE_RATES),
            full: (cycles, values),
            paper_cycles: 75_000,
        }
    }

    /// The paper figures' grid, and what [`SweepSpec::new`] starts from.
    pub(crate) const STANDARD: Grid = Grid::new(20_000, &DEFAULT_RATES);
}

/// Specification of one BNF sweep (one curve of a figure).
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Curve label (algorithm name).
    pub algorithm: ArbAlgorithm,
    /// Network shape (torus, mesh, or full mesh).
    pub topology: NetTopology,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Outstanding-miss limit; `u32::MAX` disables the closed loop so the
    /// sweep can push the network through saturation (see
    /// `workload::WorkloadConfig::open_loop`).
    pub(crate) mshrs: u32,
    /// Use the Figure 11a 2× pipeline.
    pub(crate) scaled_2x: bool,
    /// Injection rates to sweep (per node per cycle).
    pub rates: Vec<f64>,
    /// Cycles per point.
    pub cycles: u64,
    /// Simulation seed ([`SweepSpec::run`]) or base seed
    /// ([`SweepSpec::run_replicated`] replaces it per replicate).
    pub seed: u64,
    /// Optional bursty on/off arrival modulation (the scenario engine's
    /// temporal axis; `None` = the paper's smooth Bernoulli process).
    pub burst: Option<BurstConfig>,
    /// Fault plane applied to every point of the sweep (default:
    /// disabled — no state allocated, no RNG drawn).
    pub(crate) fault: FaultConfig,
}

impl SweepSpec {
    /// A paper-default sweep for an algorithm on a topology/pattern: the
    /// BNF figures sweep the injection rate open-loop so the
    /// post-saturation region is reachable.
    pub fn new(
        algorithm: ArbAlgorithm,
        topology: impl Into<NetTopology>,
        pattern: TrafficPattern,
        scale: Scale,
    ) -> Self {
        let (cycles, rates) = scale.resolve(&Grid::STANDARD);
        SweepSpec {
            algorithm,
            topology: topology.into(),
            pattern,
            mshrs: u32::MAX,
            scaled_2x: false,
            rates,
            cycles,
            seed: SEED,
            burst: None,
            fault: FaultConfig::default(),
        }
    }

    /// The simulation of one load point under replicate seed `seed`.
    pub(crate) fn job(&self, seed: u64, rate_idx: usize, rate: f64) -> Job {
        let router = if self.scaled_2x {
            RouterConfig::scaled_2x(self.algorithm)
        } else {
            RouterConfig::alpha_21364(self.algorithm)
        };
        let net = point_config(
            self.topology,
            router,
            seed,
            rate_idx,
            self.cycles,
            self.fault.clone(),
        );
        let wl = WorkloadConfig {
            mshrs: self.mshrs,
            burst: self.burst,
            ..WorkloadConfig::open_loop(self.pattern, rate)
        };
        (net, wl)
    }

    /// One simulation per (seed, load point), seed-major, as one flat
    /// batch through the worker pool.
    fn run_seeds(&self, workers: usize, seeds: &[u64]) -> Vec<Point> {
        let grid = || self.rates.iter().copied().enumerate();
        let jobs = seeds
            .iter()
            .flat_map(|&seed| grid().map(move |(idx, rate)| (rate, self.job(seed, idx, rate))))
            .collect();
        run_jobs(workers, jobs)
    }

    /// Runs the sweep (points in parallel) into a labelled BNF curve.
    pub fn run(&self, workers: usize) -> BnfCurve {
        let points = self.run_seeds(workers, &[self.seed]);
        bnf_curve(self.algorithm.to_string(), &points)
    }

    /// Runs the sweep once per seed in `seeds`, fanning the full
    /// seed×load batch through the worker pool as one flat job list, and
    /// aggregates the per-seed curves into mean ± CI per load point.
    ///
    /// `parallel_map` returns results in input order and
    /// [`ReplicatedBnfCurve`] folds replicates in canonical seed order,
    /// so the outcome is bit-identical for any worker count and any
    /// ordering of `seeds` (pinned by `tests/replication.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or contains duplicates (via
    /// [`ReplicatedBnfCurve::merge`]).
    pub fn run_replicated(&self, workers: usize, seeds: &[u64]) -> ReplicatedBnfCurve {
        assert!(!seeds.is_empty(), "replication needs at least one seed");
        assert!(
            !self.rates.is_empty(),
            "replication needs at least one load point"
        );
        let points = self.run_seeds(workers, seeds);
        let mut replicated = ReplicatedBnfCurve::new(self.algorithm.to_string());
        for (chunk, &seed) in points.chunks(self.rates.len()).zip(seeds) {
            replicated.merge(seed, bnf_curve(self.algorithm.to_string(), chunk));
        }
        replicated
    }
}

/// The seed every single-seed sweep and figure runs under.
pub(crate) const SEED: u64 = 0x21364;

/// One simulation to run: the network and the workload driving it.
pub(crate) type Job = (NetworkConfig, WorkloadConfig);

/// One simulated operating point with everything the run measured, so a
/// figure's columns are chosen after the fact instead of by a private
/// runner per figure.
#[derive(Clone, Debug)]
pub(crate) struct Point {
    /// The swept coordinate: offered load (packets/node/cycle) on a BNF
    /// curve, the fault parameter on a degradation curve.
    pub(crate) x: f64,
    /// The network's report.
    pub(crate) report: NetworkReport,
    /// The endpoints' aggregate statistics.
    pub(crate) stats: EndpointStats,
}

/// A labelled BNF curve over `points`: each point's two BNF axes.
pub(crate) fn bnf_curve(label: String, points: &[Point]) -> BnfCurve {
    let mut curve = BnfCurve::new(label);
    for p in points {
        curve.push(BnfPoint {
            offered: p.x,
            delivered_flits_per_router_ns: p.report.flits_per_router_ns,
            avg_latency_ns: p.report.avg_latency_ns(),
            packets: p.report.delivered_packets,
        });
    }
    curve
}

/// The network configuration of grid point `idx` under `seed` — the one
/// place the seed-stream layout and the warm-up split are decided.
///
/// One independent simulation seed per (replicate seed, grid point): the
/// index lives in the high half so replicate seeds like 1, 2, 3… never
/// collide with their neighbours' points, and every router/endpoint
/// stream is forked from the result (see `simcore::rng`). A fifth of
/// `cycles` warms up, the rest is measured (§4.3).
pub(crate) fn point_config(
    topology: NetTopology,
    router: RouterConfig,
    seed: u64,
    idx: usize,
    cycles: u64,
    fault: FaultConfig,
) -> NetworkConfig {
    NetworkConfig {
        topology,
        router,
        seed: seed ^ ((idx as u64) << 32),
        warmup_cycles: cycles / 5,
        measure_cycles: cycles - cycles / 5,
        fault,
    }
}

/// The one point runner: a batch of independent simulations, each
/// tagged with its swept coordinate, fanned over up to `workers` threads
/// (`0` = automatic), one simulation per thread; results in input order.
pub(crate) fn run_jobs(workers: usize, jobs: Vec<(f64, Job)>) -> Vec<Point> {
    parallel_map(workers, jobs, |(x, (net, wl))| {
        let (report, stats) = run_coherence_sim(net, wl);
        Point { x, report, stats }
    })
}

/// The default injection-rate grid: dense around the saturation bend
/// (≈0.02–0.04 transactions/node/cycle on the 8×8), with a short tail
/// into the post-saturation region where the rotary/base curves separate.
pub(crate) const DEFAULT_RATES: [f64; 15] = [
    0.001, 0.002, 0.004, 0.006, 0.008, 0.012, 0.016, 0.020, 0.024, 0.028, 0.034, 0.042, 0.055,
    0.075, 0.1,
];

/// The smoke grid: three load points spanning pre-bend, bend, and
/// post-saturation, short enough that every figure stays under a minute.
pub(crate) const SMOKE_RATES: [f64; 3] = [0.004, 0.02, 0.055];

#[cfg(test)]
mod tests {
    use super::*;
    use network::Torus;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new(
            ArbAlgorithm::SpaaBase,
            Torus::net_4x4(),
            TrafficPattern::Uniform,
            Scale::Quick,
        )
    }

    #[test]
    fn scales_resolve_the_standard_grid() {
        let cycles = |scale: Scale| scale.resolve(&Grid::STANDARD);
        assert_eq!(cycles(Scale::Smoke), (4_000, SMOKE_RATES.to_vec()));
        assert_eq!(cycles(Scale::Quick), (20_000, DEFAULT_RATES.to_vec()));
        assert_eq!(cycles(Scale::Paper), (75_000, DEFAULT_RATES.to_vec()));
    }

    #[test]
    fn default_rate_grid_is_monotone() {
        assert!(DEFAULT_RATES.windows(2).all(|w| w[0] < w[1]));
        assert!(DEFAULT_RATES.len() >= 10, "enough points to trace a curve");
    }

    #[test]
    fn tiny_sweep_produces_ordered_curve() {
        let mut spec = tiny_spec();
        spec.rates = vec![0.002, 0.02];
        spec.cycles = 3000;
        let curve = spec.run(2);
        assert_eq!(curve.points.len(), 2);
        assert!(
            curve.points[1].delivered_flits_per_router_ns
                > curve.points[0].delivered_flits_per_router_ns
        );
    }

    #[test]
    fn tiny_replicated_sweep_aggregates_seeds() {
        let mut spec = tiny_spec();
        spec.rates = vec![0.01];
        spec.cycles = 1500;
        let r = spec.run_replicated(2, &[1, 2, 3]);
        assert_eq!(r.replicate_count(), 3);
        let pts = r.points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].throughput.count(), 3);
        assert!(pts[0].throughput.mean() > 0.0);
        // Independent seeds genuinely differ (otherwise the CI is a lie).
        assert!(pts[0].throughput.sample_std_dev() > 0.0);
    }

    #[test]
    fn tables_render() {
        let mut spec = tiny_spec();
        spec.rates = vec![0.01];
        spec.cycles = 1500;
        let points = run_jobs(1, vec![(0.01, spec.job(spec.seed, 0, 0.01))]);
        let curves = [figure::Curve {
            label: "SPAA-base".into(),
            points,
        }];
        let t = figure::table(Some("algorithm"), &figure::bnf_columns("thr"), &curves);
        assert_eq!(t.len(), 1);
        assert!(t.to_text().contains("offered(pkt/node/cy)"));
        let s = figure::summary_table(&figure::bnf_curves(&curves), 80.0);
        assert!(s.to_text().contains("SPAA-base"));
        assert!(s.to_text().contains("thr @ 80 ns"));
    }

    #[test]
    fn fault_plane_and_seed_layout_reach_every_point_config() {
        let mut spec = tiny_spec();
        assert!(!spec.job(1, 0, 0.01).0.fault.injection_enabled());
        spec.fault.ber = 0.25;
        let (net, wl) = spec.job(1, 3, 0.01);
        assert_eq!(net.fault.ber, 0.25, "fault plane must reach the config");
        assert_eq!(net.seed, 1 ^ (3 << 32));
        assert_eq!(net.warmup_cycles + net.measure_cycles, spec.cycles);
        assert_eq!(wl.injection_rate, 0.01);
    }
}
