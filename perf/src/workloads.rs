//! The four benchmark workloads and the digest that checks their output.
//!
//! Each workload is one operating point a BNF sweep visits, chosen so
//! that a different layer does most of the host work (README.md,
//! "Workloads"). The simulator only ever receives the built
//! [`NetworkConfig`]/[`WorkloadConfig`] pair; `--seed` enters through
//! `NetworkConfig::seed`, from which every router, endpoint and fault
//! stream is forked.

use network::{FaultConfig, Mesh, NetTopology, NetworkConfig, NetworkReport, Torus};
use router::{ArbAlgorithm, RouterConfig};
use workload::{TrafficPattern, WorkloadConfig};

/// The seed the committed digests in `expected.txt` were taken at (the
/// same default `bench::SweepSpec` uses).
pub const DEFAULT_SEED: u64 = 0x21364;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// One line: which layer this workload loads and why it is here.
    pub why: &'static str,
    /// Simulated core cycles per repetition (warm-up included).
    pub cycles: u64,
    topology: fn() -> NetTopology,
    algorithm: ArbAlgorithm,
    traffic: fn() -> WorkloadConfig,
    fault: fn() -> FaultConfig,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "idle_16x16_closed",
        why: "near-idle 16x16 torus: wake bookkeeping and endpoint generation dominate, largest footprint",
        cycles: 40_000,
        topology: || Torus::net_16x16().into(),
        algorithm: ArbAlgorithm::SpaaRotary,
        traffic: || WorkloadConfig::paper(TrafficPattern::Uniform, 0.002),
        fault: FaultConfig::default,
    },
    Workload {
        name: "sat_8x8_spaa",
        why: "saturated 8x8 torus under SPAA: the pipelined router path (LA/GA, entry scans, wheels) dominates",
        cycles: 20_000,
        topology: || Torus::net_8x8().into(),
        algorithm: ArbAlgorithm::SpaaRotary,
        traffic: || WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.1),
        fault: FaultConfig::default,
    },
    Workload {
        name: "sat_8x8_wfa",
        why: "same load under WFA: windowed snapshot fill plus a matching kernel every third cycle",
        cycles: 20_000,
        topology: || Torus::net_8x8().into(),
        algorithm: ArbAlgorithm::WfaRotary,
        traffic: || WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.1),
        fault: FaultConfig::default,
    },
    Workload {
        name: "fault_8x8_mesh_closed",
        why: "8x8 mesh, 16-MSHR closed loop, BER 1e-3: XY-escape routing, CRC draws, retransmit timers",
        cycles: 30_000,
        topology: || Mesh::new(8, 8).into(),
        algorithm: ArbAlgorithm::SpaaRotary,
        traffic: || WorkloadConfig::closed_loop(TrafficPattern::Uniform, 0.03, 16),
        fault: || FaultConfig {
            ber: 1e-3,
            watchdog_cycles: Some(5000),
            ..FaultConfig::default()
        },
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Simulated cycles per repetition; `--quick` runs a tenth.
    pub fn cycles(&self, quick: bool) -> u64 {
        if quick {
            self.cycles / 10
        } else {
            self.cycles
        }
    }

    /// The inputs handed to the simulator. Warm-up is a fifth of the run,
    /// as `bench::SweepSpec` splits it.
    pub fn configs(&self, seed: u64, quick: bool) -> (NetworkConfig, WorkloadConfig) {
        let cycles = self.cycles(quick);
        let net = NetworkConfig {
            topology: (self.topology)(),
            router: RouterConfig::alpha_21364(self.algorithm),
            seed,
            warmup_cycles: cycles / 5,
            measure_cycles: cycles - cycles / 5,
            fault: (self.fault)(),
        };
        (net, (self.traffic)())
    }

    /// The committed default-seed digest of this workload at the given
    /// scale, from `expected.txt` (`<name> <cycles> <digest>` per line).
    pub fn expected_digest(&self, quick: bool) -> Option<u64> {
        let cycles = self.cycles(quick).to_string();
        include_str!("../expected.txt").lines().find_map(|line| {
            let mut f = line.split_whitespace();
            (f.next() == Some(self.name) && f.next() == Some(&cycles))
                .then(|| u64::from_str_radix(f.next()?, 16).ok())
                .flatten()
        })
    }
}

/// FNV-1a over everything a [`NetworkReport`] counts: every integer
/// counter and histogram bin, and the bit patterns of the floating-point
/// accumulators. Two reports with equal digests simulated the same thing.
pub fn digest(r: &NetworkReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in [
        r.delivered_packets,
        r.delivered_flits,
        r.injected_packets,
        r.injected_flits,
        r.in_flight_packets,
        r.nominations,
        r.grants,
        r.collisions,
        r.escape_dispatches,
        r.drain_engagements,
        r.matched_weight,
        r.mwm_weight,
        r.completed_txns,
        r.flits_corrupted,
        r.retransmissions,
        r.retry_exhaustions,
        r.links_dead,
        r.unreachable_drops,
        r.latency.count(),
        r.total_latency.count(),
        r.txn_latency.count(),
    ] {
        eat(v);
    }
    for v in [
        r.latency.mean(),
        r.latency.variance(),
        r.total_latency.mean(),
        r.total_latency.variance(),
        r.txn_latency.mean(),
        r.txn_latency.variance(),
        r.flits_per_router_ns,
    ] {
        eat(v.to_bits());
    }
    for hist in [
        &r.latency_hist,
        &r.txn_latency_hist,
        &r.retransmit_latency_hist,
    ] {
        eat(hist.underflow());
        hist.bins().iter().for_each(|&b| eat(b));
        eat(hist.overflow());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use network::NetworkSim;
    use workload::build_endpoints;

    fn quick_report(w: &Workload, seed: u64) -> NetworkReport {
        let (net, wl) = w.configs(seed, true);
        let endpoints = build_endpoints(&net, &wl);
        NetworkSim::new(net, endpoints).run()
    }

    #[test]
    fn digest_repeats_for_one_seed_and_separates_seeds_and_counters() {
        let w = by_name("fault_8x8_mesh_closed").unwrap();
        let a = quick_report(w, DEFAULT_SEED);
        assert_eq!(digest(&a), digest(&quick_report(w, DEFAULT_SEED)));
        assert_ne!(digest(&a), digest(&quick_report(w, DEFAULT_SEED + 1)));
        let mut bumped = a.clone();
        bumped.retransmissions += 1;
        assert_ne!(digest(&a), digest(&bumped));
        let mut nudged = a.clone();
        nudged.flits_per_router_ns = f64::from_bits(a.flits_per_router_ns.to_bits() + 1);
        assert_ne!(digest(&a), digest(&nudged));
    }

    #[test]
    fn every_workload_has_committed_digests_at_both_scales() {
        for w in &ALL {
            for quick in [false, true] {
                assert!(
                    w.expected_digest(quick).is_some(),
                    "expected.txt lacks {} at {} cycles",
                    w.name,
                    w.cycles(quick)
                );
            }
        }
    }

    #[test]
    fn quick_scale_matches_the_committed_digests() {
        for w in &ALL {
            assert_eq!(
                Some(digest(&quick_report(w, DEFAULT_SEED))),
                w.expected_digest(true),
                "{}",
                w.name
            );
        }
    }
}
