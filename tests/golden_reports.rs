//! Golden end-to-end reports: every row of the case table
//! (`tests/golden/reports.txt`, read by `tests/common/mod.rs`) run at one
//! worker with idle-skip on must reproduce its committed line. Each fault
//! row must also conserve packets after every single step.
//!
//! A line's `report=` field is `NetworkReport::digest`, over every field
//! down to the raw `f64` bits and every histogram bucket, so any drift in
//! the hot path (a reordered grant, a different RNG draw, one bucket off)
//! fails the comparison. This is the safety net that licenses engine
//! restructuring: the refactored engine must reproduce the file
//! byte-for-byte.
//!
//! Regenerate (only when intentionally changing simulation semantics, or
//! after appending a label-only line) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_reports
//! ```

pub mod common;

use alpha21364::simcore::sweep::parallel_map;
use common::{
    check_every_row, counters, parse, rows, run, Axis, Engine, GOLDEN_PATH, REFERENCE, ROTATION,
};

/// The MWM oracle is a pure observer: switching it on must change
/// nothing the digests measure — it draws no RNG, feeds nothing back
/// into grants, and only accumulates two extra counters.
#[test]
fn oracle_observation_does_not_perturb_reports() {
    let [off, on] = ["", " oracle"]
        .map(|oracle| parse(&format!("4x4 iSLIP2 uniform rate=0.04 seed=3{oracle}")).unwrap());
    let (off, on) = (off.sim(1).run(), on.sim(1).run());
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
    if std::env::var("GOLDEN_UPDATE").as_deref() == Ok("1") {
        let lines = parallel_map(0, rows().iter().collect(), |row| {
            format!("{} | {}", row.label, counters(&run(&row.case, REFERENCE).0))
        });
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").expect("write golden digests");
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    check_every_row(|_| REFERENCE);
}

/// Packets are conserved after every cycle, not only at the end of a
/// run: `injected == delivered + in_flight + unreachable_drops` after
/// each `step_cycle` of every fault row, at one worker and over two
/// shards. Warm-up 0 moves the measurement window over every delivery
/// and changes nothing else in the run.
#[test]
fn fault_rows_conserve_packets_after_every_step() {
    let faulty = rows()
        .iter()
        .filter(|row| row.case.fault.injection_enabled());
    let runs: Vec<_> = faulty.flat_map(|row| [(row, 1), (row, 2)]).collect();
    assert_eq!(runs.len(), 2 * 11, "the table's fault rows");
    parallel_map(0, runs, |(row, workers)| {
        let mut case = row.case.clone();
        case.measure_cycles += std::mem::take(&mut case.warmup_cycles);
        let mut sim = case.sim(workers);
        for cycle in 1..=case.measure_cycles {
            sim.step_cycle();
            let r = sim.report();
            assert_eq!(
                r.injected_packets,
                r.delivered_packets + r.in_flight_packets + r.unreachable_drops,
                "{} over {workers} shard(s), after cycle {cycle}",
                row.label
            );
        }
    });
}

/// No simulation: in each equivalence binary every row is checked by
/// exactly one test, and the shard rotation reaches every worker count,
/// both idle-skip settings and inline stepping.
#[test]
fn every_row_is_checked_once_on_each_axis() {
    for (axis, source) in [
        (Axis::Skip, include_str!("idle_skip_equivalence.rs")),
        (Axis::Shard, include_str!("shard_equivalence.rs")),
    ] {
        for row in rows() {
            let (test, label) = (axis.test(&row.case), &row.label);
            let count = |needle: String| source.matches(&needle).count();
            assert_eq!(
                count(format!("fn {test}()")),
                1,
                "{axis:?}: {label}: no test {test}"
            );
            assert_eq!(
                count(format!("check(\"{test}\")")),
                1,
                "{axis:?}: {label}: {test} must check its rows exactly once"
            );
        }
        for call in source.split("check(\"").skip(1) {
            let test = &call[..call.find('"').unwrap()];
            assert!(
                rows().iter().any(|row| axis.test(&row.case) == test),
                "{axis:?}: {test} checks no row"
            );
        }
    }
    for workers in [2, 3, 4, 5, 8, 16] {
        for idle_skip in [false, true] {
            let engine = Engine::Fleet { workers, idle_skip };
            assert!(ROTATION.contains(&engine), "rotation misses {engine:?}");
        }
    }
    assert!(ROTATION.iter().any(|e| matches!(e, Engine::Inline { .. })));
    assert!(
        !ROTATION.contains(&REFERENCE),
        "the shard axis runs sharded engines"
    );
}

/// No simulation: a malformed label is refused, naming the token.
#[test]
fn malformed_labels_are_refused_by_token() {
    let row = "4x4 SPAA-rotary uniform rate=0.04 seed=1";
    assert!(parse(row).is_ok());
    for (label, error) in [
        (format!("{row} speed=3"), "unknown token speed=3"),
        (format!("{row} oracle=1"), "unknown token oracle=1"),
        (format!("{row} seed=2"), "repeated seed in seed=2"),
        ("4x4 SPAA-rotary uniform seed=1".into(), "no rate="),
        ("4x4 SPAA-rotary uniform rate=0.04".into(), "no seed="),
        (format!("{row} ber=0.o1"), "unparsable ber=0.o1"),
        (format!("{row} cycles=600"), "no + in cycles=600"),
        (
            "4x4 SPAA-fast uniform rate=0.04 seed=1".into(),
            "unknown arbiter SPAA-fast",
        ),
        (
            "4y4 SPAA-rotary uniform rate=0.04 seed=1".into(),
            "unknown topology 4y4",
        ),
        (
            "4x4 SPAA-rotary zipf rate=0.04 seed=1".into(),
            "unknown pattern zipf",
        ),
        (
            format!("{row} kill=5Up@500"),
            "unknown port Up in kill=5Up@500",
        ),
        ("4x4".into(), "no arbiter"),
        (
            "1x4 SPAA-rotary uniform rate=0.04 seed=1".into(),
            "unknown topology 1x4",
        ),
        (
            "256x257 SPAA-rotary uniform rate=0.04 seed=1".into(),
            "unknown topology 256x257",
        ),
        (
            "fullmesh6 SPAA-rotary uniform rate=0.04 seed=1".into(),
            "unknown topology fullmesh6",
        ),
        (
            "4x4 SPAA-rotary hotspot[5,5]@0.3 rate=0.04 seed=1".into(),
            "repeated hot node 5 in hotspot[5,5]@0.3",
        ),
        (
            "4x4 SPAA-rotary hotspot[1,2,3,4,5]@0.3 rate=0.04 seed=1".into(),
            "more than 4 hot nodes in hotspot[1,2,3,4,5]@0.3",
        ),
    ] {
        assert_eq!(parse(&label).err().as_deref(), Some(error), "{label}");
    }
}

/// No simulation: a label names one row, so `find` is never ambiguous.
#[test]
fn every_label_names_one_row() {
    let mut labels: Vec<&str> = rows().iter().map(|row| row.label.as_str()).collect();
    labels.sort_unstable();
    for pair in labels.windows(2) {
        assert_ne!(pair[0], pair[1], "two rows labelled {}", pair[0]);
    }
}
