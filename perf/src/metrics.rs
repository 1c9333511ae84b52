//! The metric catalogue: every name the benchmark can print, with its
//! unit, direction and (for end-to-end metrics) regression bound.
//!
//! `--list` prints this table and every run prints its values in this
//! order, so a name missing from a run is a bug the run itself reports.

use std::collections::BTreeMap;

/// One metric of the catalogue.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics explain, they do not gate.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// What a user regenerating the paper's sweeps pays and gets.
///
/// Every bound is a little over three times the widest interquartile
/// spread ten runs of one commit showed (NOISE.md), capped at the 0.25
/// the driver allows. The two `sim_*` metrics are simulated time: for one
/// seed they repeat bit-exactly, and the digest check fails the run if
/// they do not; their bounds only cover what another seed does to the
/// simulated result.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("sim_cycles_per_s", "1/s", "higher", Some(0.25)),
        def("wall_ns_per_flit", "ns", "lower", Some(0.25)),
        def("setup_s", "s", "lower", Some(0.25)),
        def("peak_rss_mb", "MB", "lower", Some(0.08)),
        def("sim_latency_ns", "ns", "lower", Some(0.16)),
        def(
            "sim_throughput_flits_per_router_ns",
            "flits/ns",
            "higher",
            Some(0.12),
        ),
    ]
}

/// Arbiter kernels driven standalone, in catalogue order.
pub const KERNELS: [&str; 5] = ["spaa", "pim1", "wfa", "islip2", "ilqf2"];

/// Per-layer metrics of a traced run, named `<layer>.<what>` after the
/// workspace crates.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        // In situ: the traced repetition of the workload.
        def("network.step_cycle_ns_p50", "ns", "lower", None),
        def("network.step_cycle_ns_p99", "ns", "lower", None),
        def("network.step_cycle_self_s", "s", "lower", None),
        def("network.skip_fraction", "ratio", "higher", None),
        def("network.new_s", "s", "lower", None),
        def("network.report_s", "s", "lower", None),
        def("network.in_flight_packets", "count", "lower", None),
        def("network.flits_corrupted", "count", "lower", None),
        def("network.retransmissions", "count", "lower", None),
        def("router.nominations", "count", "lower", None),
        def("router.grants", "count", "higher", None),
        def("router.collisions", "count", "lower", None),
        def("router.grant_ratio", "ratio", "higher", None),
        def("router.escape_dispatches", "count", "lower", None),
        def("router.drain_engagements", "count", "lower", None),
        def("router.host_ns_per_grant", "ns", "lower", None),
        def("workload.on_cycle_ns", "ns", "lower", None),
        def("workload.on_cycle_calls", "count", "lower", None),
        def("workload.on_delivered_ns", "ns", "lower", None),
        def("workload.endpoint_share", "ratio", "lower", None),
        def("workload.build_endpoints_s", "s", "lower", None),
        def("workload.transactions_started", "count", "higher", None),
        def("workload.transactions_completed", "count", "higher", None),
        def("workload.mshr_stalls", "count", "lower", None),
        def("workload.mshr_stall_ratio", "ratio", "lower", None),
        def("workload.txn_latency_ns", "ns", "lower", None),
        def("trace.overhead_frac", "ratio", "lower", None),
        def("host.rep_p50_s", "s", "lower", None),
        def("host.rep_iqr_frac", "ratio", "lower", None),
        def("host.clock_slowdown", "ratio", "lower", None),
        def("host.loadavg1", "load", "lower", None),
        def("host.cpus", "count", "higher", None),
    ];
    // Standalone drivers, once per traced run.
    for k in KERNELS {
        m.push(def(
            &format!("arbitration.{k}.ns_per_arbitrate_d20"),
            "ns",
            "lower",
            None,
        ));
        m.push(def(
            &format!("arbitration.{k}.ns_per_arbitrate_d90"),
            "ns",
            "lower",
            None,
        ));
        m.push(def(
            &format!("arbitration.{k}.grants_per_call_d90"),
            "count",
            "higher",
            None,
        ));
    }
    m.extend([
        def("arbitration.mwm.ns_per_solve_d90", "ns", "lower", None),
        def("router.step_ns_quiescent", "ns", "lower", None),
        def("router.step_ns_loaded_spaa", "ns", "lower", None),
        def("router.step_ns_loaded_wfa", "ns", "lower", None),
        def("router.accept_packet_ns", "ns", "lower", None),
        def("simcore.wheel_ns_per_event", "ns", "lower", None),
        def("simcore.rng_ns_per_chance", "ns", "lower", None),
        def("workload.pattern_dest_ns", "ns", "lower", None),
        def("standalone.ns_per_iteration_spaa", "ns", "lower", None),
        def("standalone.ns_per_iteration_mcm", "ns", "lower", None),
        def("bench.sweep_overhead_frac", "ratio", "lower", None),
    ]);
    m
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Records one value.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already recorded or `value` is not finite: a
    /// run must not overwrite or invent a number.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        let previous = self.0.insert(name.to_string(), value);
        assert!(previous.is_none(), "{name} recorded twice");
    }

    /// The recorded value of `name`.
    ///
    /// # Panics
    ///
    /// Panics if the run did not record it.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("the run did not measure {name}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize) -> bool {
        let first_ok = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok && s.len() <= max
    }

    #[test]
    fn names_and_units_stay_inside_the_benchmark_contract() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            assert!(well_formed(&m.name, 64), "bad name {:?}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad character in {:?}",
                m.name
            );
            assert!(well_formed(m.unit, 16), "bad unit {:?}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad character in unit {:?}",
                m.unit
            );
            assert!(["higher", "lower"].contains(&m.better));
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
        }
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        for m in end_to_end() {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(per_layer().iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step with
    /// the catalogue without a JSON parser (the container has no serde).
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let flat: String = json.split_whitespace().collect();
        let entries = flat.matches("{\"name\":").count();
        let workloads = crate::workloads::ALL.len();
        assert_eq!(
            entries,
            workloads + end_to_end().len() + per_layer().len(),
            "BENCHMARK.json and the catalogue differ in length"
        );
        assert!(
            flat.contains(&format!("\"run_seconds\":{},", crate::DEFAULT_SECONDS)),
            "run_seconds differs from the program's default --seconds"
        );
        for w in crate::workloads::ALL {
            assert!(
                flat.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name)),
                "{} missing from BENCHMARK.json",
                w.name
            );
        }
        for m in end_to_end() {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                m.name,
                m.unit,
                m.better,
                m.bound.unwrap()
            );
            assert!(flat.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        for m in per_layer() {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(flat.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }
}
