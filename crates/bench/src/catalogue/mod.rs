//! The figure catalogue: every figure `fig` can regenerate, and so every
//! job `fig all` runs — there is no second list to fall out of step.
//!
//! [`paper`] holds the figures the paper itself plots (Fig. 8–11 and the
//! ablations its text quotes); [`extension`] holds the studies this
//! reproduction adds, each of which commits a `BENCH_<name>.json` table.
//! Adding a figure is one entry here plus the function it names.

pub mod extension;
pub mod paper;

use crate::figure::Figure;
use crate::figure::Run::{Table, Text};
use extension as ext;

/// Every figure, in the order `fig all` runs them.
pub const FIGURES: &[Figure] = &[
    Figure::new(
        "fig08",
        "standalone matches/cycle vs input load",
        Text(paper::fig08),
    ),
    Figure::new(
        "fig09",
        "standalone matches/cycle vs output occupancy",
        Text(paper::fig09),
    ),
    Figure {
        flags: &["--net", "--pattern"],
        jobs: &[
            &["--net", "4x4", "--pattern", "uniform"],
            &["--net", "8x8", "--pattern", "uniform"],
            &["--net", "8x8", "--pattern", "bitrev"],
            &["--net", "8x8", "--pattern", "shuffle"],
        ],
        ..Figure::new(
            "fig10",
            "BNF curves of the five algorithms, one panel",
            Text(paper::fig10),
        )
    },
    Figure::new(
        "fig11a",
        "scaling: 2x pipeline depth at 2x clock",
        Text(paper::fig11a),
    ),
    Figure::new(
        "fig11b",
        "scaling: 64 outstanding misses",
        Text(paper::fig11b),
    ),
    Figure::new(
        "fig11c",
        "scaling: 144-processor 12x12 network",
        Text(paper::fig11c),
    ),
    Figure::new(
        "islip",
        "iSLIP(1..3) vs SPAA-rotary and PIM1",
        Table(ext::islip),
    ),
    Figure::new(
        "topology",
        "torus vs mesh vs full mesh under the same arbiters",
        Table(ext::topology),
    ),
    Figure::new(
        "scenarios",
        "hotspot and bursty sweeps with 95% CIs",
        Table(ext::scenarios),
    ),
    Figure::new(
        "weighted",
        "iLQF/iOCF vs unweighted peers and the exact-MWM gap",
        Table(ext::weighted),
    ),
    Figure::new(
        "closedloop",
        "open loop vs the MSHR ladder {1,4,8,16}",
        Table(ext::closedloop),
    ),
    Figure::new(
        "bigtorus",
        "uniform BNF curves on the 16x16 and 32x32 tori",
        Table(ext::bigtorus),
    ),
    Figure::new(
        "faults",
        "degradation vs bit-error rate and dead-link fraction",
        Table(ext::faults),
    ),
    Figure::new(
        "ablation_pipeline_depth",
        "throughput cost per extra arbitration cycle (§1 footnote 1)",
        Text(paper::ablation_pipeline_depth),
    ),
    Figure::new(
        "ablation_wfa3",
        "pipelining in isolation: 3-cycle WFA vs SPAA (§5.2)",
        Text(paper::ablation_wfa3),
    ),
    Figure::new(
        "ablation_buffers",
        "SPAA's edge under shallow buffering (§6)",
        Text(paper::ablation_buffers),
    ),
];
