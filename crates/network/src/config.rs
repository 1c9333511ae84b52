//! The configuration gate: every condition a run needs of its
//! configuration, stated once and checked before cycle 0.
//!
//! [`NetworkConfig::validate`] owns the network, router and fault-plane
//! conditions; `workload::WorkloadConfig::validate` calls it first and
//! then owns the workload's. The two entry points of a run —
//! [`NetworkSim::with_workers`](crate::NetworkSim::with_workers) and
//! `workload::build_endpoints` — call them and panic with the
//! [`ConfigError`]'s message, so a configuration the engine cannot run
//! is refused on the calling thread before any shard or worker exists,
//! instead of wedging, reporting NaN, or panicking mid-run. Type
//! invariants that their own constructors enforce (`Grid` extents,
//! `FullMesh` size, `HotspotTargets`) are not repeated here.

use crate::fault::LinkKill;
use crate::sim::NetworkConfig;
use crate::topology::NetTopology;
use arbitration::ports::OutputPort;
use router::ArbAlgorithm;
use std::fmt;

/// Why a configuration was refused: one variant per kind of violation,
/// each naming the offending field (spelled as a path from the config
/// root, e.g. `fault.ber`) or value.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A count that must be at least one is zero.
    AtLeastOne { field: &'static str },
    /// A probability is NaN or outside `[0, 1]`.
    Probability { field: &'static str, value: f64 },
    /// A geometric phase mean is not a finite number of at least one
    /// cycle (the per-cycle exit draw is `1 / mean`).
    PhaseMean { field: &'static str, value: f64 },
    /// An `ArbAlgorithm::SpaaDeep` latency below 2: LA and GA cannot
    /// share a cycle.
    SpaaLatency { latency: u8 },
    /// A scheduled kill names a link the topology does not wire.
    UnwiredKill { node: u16, port: OutputPort },
    /// The traffic pattern is undefined on the topology.
    Pattern {
        pattern: String,
        topology: NetTopology,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::AtLeastOne { field } => write!(f, "{field} must be at least 1, got 0"),
            ConfigError::Probability { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            ConfigError::PhaseMean { field, value } => write!(
                f,
                "{field} must be a finite mean of at least one cycle, got {value}"
            ),
            ConfigError::SpaaLatency { latency } => write!(
                f,
                "router.algorithm SPAA-deep needs at least 2 arbitration cycles \
                 (LA and GA cannot share one), got {latency}"
            ),
            ConfigError::UnwiredKill { node, port } => {
                write!(f, "fault.kill_links names an unwired link ({node}, {port})")
            }
            ConfigError::Pattern { pattern, topology } => {
                write!(f, "{pattern} is undefined on a {topology} network")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl NetworkConfig {
    /// Checks every network, router and fault-plane condition a run
    /// relies on and returns the first violation.
    /// [`NetworkSim::with_workers`](crate::NetworkSim::with_workers)
    /// refuses a configuration this refuses.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let router = &self.router;
        match router.algorithm {
            ArbAlgorithm::Islip { iterations: 0 }
            | ArbAlgorithm::Ilqf { iterations: 0 }
            | ArbAlgorithm::Iocf { iterations: 0 } => {
                return Err(ConfigError::AtLeastOne {
                    field: "router.algorithm.iterations",
                })
            }
            ArbAlgorithm::SpaaDeep { latency } if latency < 2 => {
                return Err(ConfigError::SpaaLatency { latency })
            }
            _ => {}
        }
        for (field, count) in [
            ("router.scan_window", router.scan_window as u64),
            ("measure_cycles", self.measure_cycles),
            (
                "fault.watchdog_cycles",
                self.fault.watchdog_cycles.unwrap_or(1),
            ),
        ] {
            if count == 0 {
                return Err(ConfigError::AtLeastOne { field });
            }
        }
        for (field, value) in [
            ("fault.ber", self.fault.ber),
            ("fault.dead_link_fraction", self.fault.dead_link_fraction),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::Probability { field, value });
            }
        }
        if let Some(flap) = self.fault.flap {
            for (field, value) in [
                ("fault.flap.mean_up_cycles", flap.mean_up_cycles),
                ("fault.flap.mean_down_cycles", flap.mean_down_cycles),
            ] {
                if !(value.is_finite() && value >= 1.0) {
                    return Err(ConfigError::PhaseMean { field, value });
                }
            }
        }
        let topo = &self.topology;
        for &LinkKill { node, port, .. } in &self.fault.kill_links {
            if node >= topo.nodes() || topo.link(node, port).is_none() {
                return Err(ConfigError::UnwiredKill { node, port });
            }
        }
        Ok(())
    }
}
