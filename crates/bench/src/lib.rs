//! Figure-regeneration harnesses for the arbitration study.
//!
//! Each binary in `src/bin/` regenerates one of the paper's figures (see
//! DESIGN.md's experiment index). This library holds the shared plumbing:
//! BNF sweeps over injection rates, fanned out across worker threads, and
//! consistent table output.
//!
//! Scale control: every harness accepts `--paper` for full paper fidelity
//! (75,000 cycles per point, §4.3) and defaults to a reduced but
//! shape-preserving quick mode so `cargo bench`/CI stay fast.

pub mod harness;

use network::{FaultConfig, NetTopology, NetworkConfig};
use router::{ArbAlgorithm, RouterConfig};
use simcore::bnf::{BnfCurve, BnfPoint, ReplicatedBnfCurve};
use simcore::sweep::parallel_map;
use simcore::table::Table;
use workload::{run_coherence_sim_with_workers, BurstConfig, TrafficPattern, WorkloadConfig};

/// How long each simulated point runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced cycle count: fast, same qualitative shape.
    Quick,
    /// The paper's 75,000-cycle runs.
    Paper,
}

impl Scale {
    /// Parses process arguments: `--paper` selects full scale.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }

    /// Total cycles per simulated point.
    pub fn cycles(self) -> u64 {
        match self {
            Scale::Quick => 20_000,
            Scale::Paper => 75_000,
        }
    }
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
    pub mshrs: u32,
    /// Use the Figure 11a 2× pipeline.
    pub scaled_2x: bool,
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
    /// Worker threads *inside* each simulation: `1` = run on the calling
    /// thread, anything else = that many shards, one thread each
    /// (`0` = automatic). Reports are bit-identical either way (pinned by
    /// `tests/shard_equivalence.rs`), so this is purely a wall-clock
    /// knob; big-torus harnesses set it, small-torus sweeps stay at 1 and
    /// parallelize across points instead.
    pub sim_workers: usize,
    /// Fault plane applied to every point of the sweep (default:
    /// disabled — no state allocated, no RNG drawn).
    pub fault: FaultConfig,
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
        SweepSpec {
            algorithm,
            topology: topology.into(),
            pattern,
            mshrs: u32::MAX,
            scaled_2x: false,
            rates: default_rates(),
            cycles: scale.cycles(),
            seed: 0x21364,
            burst: None,
            sim_workers: 1,
            fault: FaultConfig::default(),
        }
    }

    /// The same sweep with the closed-loop MSHR limit engaged (used by
    /// the Figure 11b outstanding-miss study).
    pub fn closed_loop(mut self, mshrs: u32) -> Self {
        self.mshrs = mshrs;
        self
    }

    /// The same sweep with bursty on/off arrivals.
    pub fn with_burst(mut self, burst: BurstConfig) -> Self {
        self.burst = Some(burst);
        self
    }

    /// The same sweep with the deterministic fault plane active (link
    /// corruption, flaps, scheduled kills, boot-time dead links — see
    /// `network::FaultConfig`).
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// The same sweep with each simulation split across `workers`
    /// threads (`0` = automatic sizing, which clamps to 1 inside a
    /// `parallel_map` worker so the two fan-outs never multiply).
    pub fn with_sim_workers(mut self, workers: usize) -> Self {
        self.sim_workers = workers;
        self
    }

    /// Seed-stream layout: one independent simulation seed per
    /// (replicate seed, load point). The rate index lives in the high
    /// half so replicate seeds like 1, 2, 3… never collide with their
    /// neighbours' points, and every router/endpoint stream is forked
    /// from the result (see `simcore::rng`).
    fn network_config(&self, seed: u64, rate_idx: usize) -> NetworkConfig {
        let router = if self.scaled_2x {
            RouterConfig::scaled_2x(self.algorithm)
        } else {
            RouterConfig::alpha_21364(self.algorithm)
        };
        NetworkConfig {
            topology: self.topology,
            router,
            seed: seed ^ ((rate_idx as u64) << 32),
            warmup_cycles: self.cycles / 5,
            measure_cycles: self.cycles - self.cycles / 5,
            fault: self.fault.clone(),
        }
    }

    fn point(&self, seed: u64, rate_idx: usize, rate: f64) -> BnfPoint {
        let net = self.network_config(seed, rate_idx);
        let wl = WorkloadConfig {
            pattern: self.pattern,
            injection_rate: rate,
            mshrs: self.mshrs,
            coherence: Default::default(),
            burst: self.burst,
        };
        let (report, _stats) = run_coherence_sim_with_workers(net, wl, self.sim_workers);
        BnfPoint {
            offered: rate,
            delivered_flits_per_router_ns: report.flits_per_router_ns,
            avg_latency_ns: report.avg_latency_ns(),
            packets: report.delivered_packets,
        }
    }

    /// Runs the sweep (points in parallel) into a labelled BNF curve.
    pub fn run(&self, workers: usize) -> BnfCurve {
        let jobs: Vec<(usize, f64)> = self.rates.iter().copied().enumerate().collect();
        let points = parallel_map(workers, jobs, |(idx, rate)| {
            self.point(self.seed, idx, rate)
        });
        let mut curve = BnfCurve::new(self.algorithm.to_string());
        for p in points {
            curve.push(p);
        }
        curve
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
        let jobs: Vec<(u64, usize, f64)> = seeds
            .iter()
            .flat_map(|&seed| {
                self.rates
                    .iter()
                    .copied()
                    .enumerate()
                    .map(move |(idx, rate)| (seed, idx, rate))
            })
            .collect();
        let points = parallel_map(workers, jobs, |(seed, idx, rate)| {
            self.point(seed, idx, rate)
        });
        let mut replicated = ReplicatedBnfCurve::new(self.algorithm.to_string());
        for (chunk, &seed) in points.chunks(self.rates.len()).zip(seeds) {
            let mut curve = BnfCurve::new(self.algorithm.to_string());
            for p in chunk {
                curve.push(*p);
            }
            replicated.merge(seed, curve);
        }
        replicated
    }
}

/// The default injection-rate grid: dense around the saturation bend
/// (≈0.02–0.04 transactions/node/cycle on the 8×8), with a short tail
/// into the post-saturation region where the rotary/base curves separate.
pub fn default_rates() -> Vec<f64> {
    vec![
        0.001, 0.002, 0.004, 0.006, 0.008, 0.012, 0.016, 0.020, 0.024, 0.028, 0.034, 0.042, 0.055,
        0.075, 0.1,
    ]
}

/// Renders a set of curves the way the paper's figures tabulate them:
/// one row per operating point.
pub fn curves_table(curves: &[BnfCurve]) -> Table {
    let mut t = Table::with_columns(&[
        "algorithm",
        "offered(pkt/node/cy)",
        "delivered(flits/router/ns)",
        "latency(ns)",
        "packets",
    ]);
    for c in curves {
        for p in &c.points {
            t.row(vec![
                c.label.clone(),
                format!("{:.4}", p.offered),
                format!("{:.4}", p.delivered_flits_per_router_ns),
                format!("{:.1}", p.avg_latency_ns),
                p.packets.to_string(),
            ]);
        }
    }
    t
}

/// Renders replicated curves with error bars: one row per load point
/// with mean, sample std-dev, and 95% CI half-width for both axes.
pub fn replicated_curves_table(curves: &[ReplicatedBnfCurve]) -> Table {
    let mut t = Table::with_columns(&[
        "algorithm",
        "offered(pkt/node/cy)",
        "seeds",
        "thr mean",
        "thr sd",
        "thr ±ci95",
        "lat mean(ns)",
        "lat sd",
        "lat ±ci95",
    ]);
    for c in curves {
        for p in c.points() {
            t.row(vec![
                c.label.clone(),
                format!("{:.4}", p.offered),
                p.throughput.count().to_string(),
                format!("{:.4}", p.throughput.mean()),
                format!("{:.4}", p.throughput.sample_std_dev()),
                format!("{:.4}", p.throughput_ci95()),
                format!("{:.1}", p.latency_ns.mean()),
                format!("{:.1}", p.latency_ns.sample_std_dev()),
                format!("{:.1}", p.latency_ci95()),
            ]);
        }
    }
    t
}

/// Summarizes the paper's headline comparisons for a figure: peak and
/// final throughput per algorithm plus throughput at a reference latency.
pub fn summary_table(curves: &[BnfCurve], ref_latency_ns: f64) -> Table {
    let mut t = Table::with_columns(&[
        "algorithm",
        "peak thr",
        "final thr",
        &format!("thr @ {ref_latency_ns} ns"),
        "zero-load lat (ns)",
    ]);
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

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into())
}

/// The value following `flag` in an argument list (`--out path` style),
/// shared by the figure binaries' hand-rolled CLI parsing.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The `--threads N` flag: worker threads *per simulation* for harnesses
/// that shard each simulation (see [`SweepSpec::with_sim_workers`]).
/// Absent or unparsable values fall back to `default`.
pub fn threads_flag(args: &[String], default: usize) -> usize {
    flag_value(args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use network::Torus;

    #[test]
    fn scale_cycles() {
        assert_eq!(Scale::Quick.cycles(), 20_000);
        assert_eq!(Scale::Paper.cycles(), 75_000);
    }

    #[test]
    fn default_rate_grid_is_monotone() {
        let rates = default_rates();
        assert!(rates.windows(2).all(|w| w[0] < w[1]));
        assert!(rates.len() >= 10, "enough points to trace a curve");
    }

    #[test]
    fn tiny_sweep_produces_ordered_curve() {
        let mut spec = SweepSpec::new(
            ArbAlgorithm::SpaaBase,
            Torus::net_4x4(),
            TrafficPattern::Uniform,
            Scale::Quick,
        );
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
        let mut spec = SweepSpec::new(
            ArbAlgorithm::SpaaBase,
            Torus::net_4x4(),
            TrafficPattern::Uniform,
            Scale::Quick,
        );
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
        let table = replicated_curves_table(&[r]);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn with_fault_threads_into_every_point_config() {
        let spec = SweepSpec::new(
            ArbAlgorithm::SpaaRotary,
            Torus::net_4x4(),
            TrafficPattern::Uniform,
            Scale::Quick,
        )
        .with_fault(FaultConfig {
            ber: 0.25,
            ..FaultConfig::default()
        });
        let cfg = spec.network_config(1, 0);
        assert_eq!(cfg.fault.ber, 0.25, "fault plane must reach the config");
        let plain = SweepSpec::new(
            ArbAlgorithm::SpaaRotary,
            Torus::net_4x4(),
            TrafficPattern::Uniform,
            Scale::Quick,
        );
        assert!(!plain.network_config(1, 0).fault.injection_enabled());
    }

    #[test]
    fn tables_render() {
        let mut c = BnfCurve::new("SPAA-base");
        c.push(BnfPoint {
            offered: 0.01,
            delivered_flits_per_router_ns: 0.3,
            avg_latency_ns: 60.0,
            packets: 500,
        });
        let t = curves_table(&[c.clone()]);
        assert_eq!(t.len(), 1);
        let s = summary_table(&[c], 80.0);
        assert!(s.to_text().contains("SPAA-base"));
    }
}
