//! Golden regression pins for the figures' stdout and JSON bytes.
//!
//! Every figure is deterministic end to end — seeded PCG streams (per
//! link, for the fault plane), `parallel_map` returning results in input
//! order, and the closed-loop and fault-storm probes asserting the
//! engine agrees with itself across worker counts and idle-skip modes
//! before a number is printed — so each invocation's output is a pure
//! function of the code. Any drift in an arbiter, the RNG, the traffic
//! generators, the saturation search, the transaction lifecycle, CRC
//! draw ordering, retransmit timing, link-death broadcast or fault-aware
//! routing shifts at least one cell and fails here instead of silently
//! changing committed `BENCH_*.json` data at the next regeneration; so
//! does any drift in the table or JSON rendering itself.
//!
//! The pins were captured from the per-figure binaries that predate the
//! `fig` driver (`bigtorus_quick` from `fig` itself, once that figure
//! stopped timing its host). When a change is *intended* to move the
//! numbers, regenerate the pin and review the diff like any other figure
//! change:
//!
//! ```text
//! cargo run --release -p bench --bin fig -- islip --quick \
//!     --out crates/bench/tests/golden/islip_quick.json \
//!     | grep -v '^wrote ' > crates/bench/tests/golden/islip_quick.txt
//! ```

use std::path::PathBuf;
use std::process::Command;

/// Pin stem under `tests/golden/` → the `fig` arguments that produce it,
/// and whether the invocation also writes a pinned `<stem>.json`.
const PINS: &[(&str, &[&str], bool)] = &[
    ("fig08_quick", &["fig08"], false),
    ("fig09_default", &["fig09"], false),
    ("islip_quick", &["islip", "--quick"], true),
    ("topology_quick", &["topology", "--quick"], true),
    ("scenarios_quick", &["scenarios", "--quick"], true),
    ("weighted_quick", &["weighted", "--quick"], true),
    ("closedloop_quick", &["closedloop", "--quick"], true),
    ("bigtorus_quick", &["bigtorus", "--quick"], true),
    ("faults_quick", &["faults", "--quick"], true),
];

fn golden(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs one pinned invocation; `Err` describes the first drift.
fn check(&(stem, args, has_json): &(&str, &[&str], bool)) -> Result<(), String> {
    let json_path = std::env::temp_dir().join(format!("{stem}_pin_{}.json", std::process::id()));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig"));
    cmd.args(args);
    if has_json {
        cmd.arg("--out").arg(&json_path);
    }
    let out = cmd.output().expect("run fig");
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("fig {args:?} failed:\n{stderr}"));
    }
    // The trailing "wrote <path>" line names a temp path; everything
    // above it is the pinned text.
    let stdout = String::from_utf8(out.stdout).expect("utf8 table");
    let text: String = stdout
        .lines()
        .filter(|l| !l.starts_with("wrote "))
        .flat_map(|l| [l, "\n"])
        .collect();
    let drift = |file: String, actual: &str| {
        let pinned = golden(&file);
        (actual == pinned).then_some(()).ok_or(format!(
            "fig {args:?} drifted from tests/golden/{file}.\n\
             If intended, regenerate it (see this test's module docs).\n\
             --- golden ---\n{pinned}\n--- actual ---\n{actual}"
        ))
    };
    drift(format!("{stem}.txt"), &text)?;
    if has_json {
        let json = std::fs::read_to_string(&json_path).expect("read the figure's JSON");
        let _ = std::fs::remove_file(&json_path);
        drift(format!("{stem}.json"), &json)?;
    }
    Ok(())
}

#[test]
fn figure_outputs_match_golden_pins() {
    // The invocations are independent processes; run them side by side.
    let results = simcore::sweep::parallel_map(0, PINS.to_vec(), |pin| check(&pin));
    let drifted: Vec<String> = results.into_iter().filter_map(Result::err).collect();
    assert!(drifted.is_empty(), "{}", drifted.join("\n\n"));
}
