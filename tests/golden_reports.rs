//! Golden end-to-end reports: every row of the case table
//! (`tests/common/mod.rs`) run at one worker with idle-skip on must
//! reproduce its committed line in `tests/golden/reports.txt`.
//!
//! A line's `report=` field is `NetworkReport::digest`, over every field
//! down to the raw `f64` bits and every histogram bucket, so any drift in
//! the hot path (a reordered grant, a different RNG draw, one bucket off)
//! fails the comparison. This is the safety net that licenses engine
//! restructuring: the refactored engine must reproduce the file
//! byte-for-byte.
//!
//! Regenerate (only when intentionally changing simulation semantics, or
//! after appending a row) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_reports
//! ```

pub mod common;

use alpha21364::simcore::sweep::parallel_map;
use common::{
    cases, check_rows, find, line, run, Axis, Case, Engine, GOLDEN_PATH, REFERENCE, ROTATION,
};

/// The MWM oracle is a pure observer: switching it on must change
/// nothing the digests measure — it draws no RNG, feeds nothing back
/// into grants, and only accumulates two extra counters.
#[test]
fn oracle_observation_does_not_perturb_reports() {
    let case = Case {
        seed: 3,
        ..find("4x4 iSLIP2 uniform rate=0.04 seed=1").clone()
    };
    let off = case.sim(1).run();
    let on = Case {
        oracle: true,
        ..case
    }
    .sim(1)
    .run();
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
        let lines = parallel_map(0, cases().iter().collect(), |case| {
            line(case, &run(case, REFERENCE).0)
        });
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").expect("write golden digests");
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    check_rows((0..cases().len()).collect(), |_| REFERENCE);
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
        for case in cases() {
            let test = axis.test(case.family);
            let label = case.label();
            let count = |needle: String| source.matches(&needle).count();
            assert_eq!(
                count(format!("fn {test}()")),
                1,
                "{axis:?}: {label}: no test {test}"
            );
            assert_eq!(
                count(format!("check(\"{test}\")")),
                1,
                "{axis:?}: {label}: {test} must check its families exactly once"
            );
        }
        for call in source.split("check(\"").skip(1) {
            let test = &call[..call.find('"').unwrap()];
            assert!(
                cases().iter().any(|c| axis.test(c.family) == test),
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
