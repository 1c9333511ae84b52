//! The idle-skip engine must be *bit-for-bit* equivalent to stepping every
//! router on every core-clock edge.
//!
//! Every row of the case table (`tests/golden/reports.txt`) runs here at
//! one worker with idle-skip off and must reproduce the golden line that
//! `golden_reports` reproduces with idle-skip on — delivered counts, the
//! latency statistics on raw f64 bits, every histogram bucket, every
//! arbitration and fault counter. A mismatch reruns the row with skip on
//! and names the first field that differs. Each test below checks the
//! rows `common::Axis::test` reads off their scenario as its own; every
//! row is checked once.
//!
//! Endpoints sleep too (`Endpoint::next_wake`), and not everything an
//! endpoint counts reaches the report, so the directed tests at the end
//! compare every node's own statistics and MSHR occupancy, skip on
//! against skip off, and count the `on_cycle` calls the protocol saves.

pub mod common;

use alpha21364::prelude::*;
use common::{find, parse, run, Axis, Case, Engine};

#[test]
fn idle_skip_is_bit_for_bit_equivalent() {
    // Every arbiter at near-idle load (where skipping does the most), the
    // headline and weighted arbiters from low load to saturation, the
    // remaining kernels and ablations, and the 16x16 torus.
    Axis::Skip.check("idle_skip_is_bit_for_bit_equivalent");
}

#[test]
fn idle_skip_is_bit_for_bit_equivalent_under_hotspot_traffic() {
    // Concentrated destinations change *which* routers idle: cold-corner
    // routers sleep while the hot region churns, a very asymmetric wake
    // schedule.
    Axis::Skip.check("idle_skip_is_bit_for_bit_equivalent_under_hotspot_traffic");
}

#[test]
fn idle_skip_is_bit_for_bit_equivalent_under_bursty_traffic() {
    // ON/OFF phases swing routers between whole skippable OFF windows and
    // 5x-rate bursts. The endpoint draws its ON exits cycle by cycle and
    // its OFF exits ahead of the clock, sleeping to them with skip on;
    // both must land on the same cycles.
    Axis::Skip.check("idle_skip_is_bit_for_bit_equivalent_under_bursty_traffic");
}

#[test]
fn idle_skip_equivalence_holds_under_combined_hotspot_bursty() {
    // Both scenario axes at once, pushed to the saturation knee.
    Axis::Skip.check("idle_skip_equivalence_holds_under_combined_hotspot_bursty");
}

#[test]
fn idle_skip_equivalence_holds_after_drain_engagement() {
    // Anti-starvation drain mode must park the router awake until it is
    // released; every open-loop row engages it.
    Axis::Skip.check("idle_skip_equivalence_holds_after_drain_engagement");
}

#[test]
fn idle_skip_equivalence_on_mesh_and_full_mesh() {
    // Edge routers with unwired ports (mesh), and credits returning on
    // entry ports that are not the geometric opposite (full mesh).
    Axis::Skip.check("idle_skip_equivalence_on_mesh_and_full_mesh");
}

#[test]
fn idle_skip_equivalence_holds_with_matching_weight_oracle() {
    // The oracle observes the snapshots the kernels arbitrate on, so its
    // counters must replay identically when idle windows are skipped.
    Axis::Skip.check("idle_skip_equivalence_holds_with_matching_weight_oracle");
}

#[test]
fn idle_skip_equivalence_for_closed_loop_drivers() {
    // With the MSHRs throttling generation, it depends on reply arrival
    // times, so any divergence in delivery timing desynchronizes the RNG
    // draw stream.
    Axis::Skip.check("idle_skip_equivalence_for_closed_loop_drivers");
}

#[test]
fn idle_skip_equivalence_for_closed_loop_three_hop_extremes() {
    // All-two-hop and all-three-hop mixes drive different reply paths
    // (home-direct vs owner-forwarded) through the wake bookkeeping.
    Axis::Skip.check("idle_skip_equivalence_for_closed_loop_three_hop_extremes");
}

#[test]
fn idle_skip_equivalence_on_scaled_pipeline() {
    // The 2x pipeline halves the core period: catch-up arithmetic must not
    // assume the 20-tick base clock.
    Axis::Skip.check("idle_skip_equivalence_on_scaled_pipeline");
}

#[test]
fn idle_skip_equivalence_under_fault_storms() {
    // Retransmit timers park on the fault plane's wheel: skipping past a
    // due retransmission would shift a CRC draw and every later fault
    // event. Corruption, flaps, kills, dead links and retry exhaustion,
    // loaded and at near-idle load, where routers sleep with a retry due.
    Axis::Skip.check("idle_skip_equivalence_under_fault_storms");
}

/// Everything an endpoint can tell: its statistics through the derived
/// `Debug` (every field, so a new one cannot be missed — half of them are
/// not `pub`) and its MSHR occupancy.
fn endpoint_state(ep: &CoherenceEndpoint) -> String {
    format!(
        "{:?} outstanding={} idle={}",
        ep.stats(),
        ep.outstanding_misses(),
        ep.is_idle()
    )
}

/// Counts `on_cycle` calls and forwards `next_wake`, so the count is what
/// the idleness protocol leaves.
struct Counted {
    inner: CoherenceEndpoint,
    calls: u64,
}

impl Endpoint for Counted {
    fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
        self.calls += 1;
        self.inner.on_cycle(ctx);
    }

    fn next_wake(&self) -> Tick {
        self.inner.next_wake()
    }

    fn on_delivered(&mut self, packet: &Packet, now: Tick) -> Option<TxnCompletion> {
        self.inner.on_delivered(packet, now)
    }
}

/// The near-idle SPAA-rotary row both directed tests start from.
fn near_idle() -> &'static Case {
    find("4x4 SPAA-rotary uniform rate=0.002 seed=1 cycles=600+2400")
}

/// Runs `case` and, with `drain`, then `stop_generation()` everywhere and
/// steps until every endpoint `is_idle()`. Returns the report, the cycles
/// the drain took, and every node's [`endpoint_state`].
fn run_scenario(
    case: &Case,
    label: &str,
    drain: bool,
    workers: usize,
    idle_skip: bool,
) -> (NetworkReport, u64, Vec<String>) {
    let mut sim = case.sim(workers);
    sim.set_idle_skip(idle_skip);
    let mut report = sim.run();
    let mut drain_cycles = 0;
    if drain {
        for node in 0..16 {
            sim.endpoint_mut(node).stop_generation();
        }
        while !(0..16).all(|n| sim.endpoint(n).is_idle()) {
            sim.step_cycle();
            drain_cycles += 1;
            assert!(drain_cycles < 60_000, "{label}: drain never finished");
        }
        report = sim.report();
    }
    let states = (0..16).map(|n| endpoint_state(sim.endpoint(n))).collect();
    (report, drain_cycles, states)
}

#[test]
fn endpoint_state_is_identical_per_node_with_and_without_idle_skip() {
    // (scenario, drain after the timed window, an endpoint counter at
    // zero that some node must move)
    let scenarios = [
        ("uniform rate=0.002", true, None),
        ("uniform rate=0.05", false, None),
        (
            "uniform+burst=50.0/200.0 rate=0.004",
            true,
            Some("burst_on_cycles: 0,"),
        ),
        ("hotspot[5,10]@0.35 rate=0.01", false, None),
        ("hotspot[5,10]@0.35+burst=30.0/120.0 rate=0.02", true, None),
        // Past saturation: source queues grow behind full local inputs,
        // so nodes sleep on refused ports.
        (
            "uniform rate=0.1 mshrs=open",
            false,
            Some("peak_queue_depth: 0,"),
        ),
        // Stall-heavy: one attempt in five finds the only MSHR busy.
        ("uniform rate=0.2 mshrs=1", true, Some("mshr_stalls: 0,")),
        // Every output of node 5 dies mid-run: whatever it queues
        // afterwards is refused at injection, request and response alike.
        (
            "uniform rate=0.02 kill=5East@900 kill=5West@900 kill=5North@900 kill=5South@900",
            false,
            Some("unreachable_drops: 0 "),
        ),
    ];
    for (scenario, drain, moved) in scenarios {
        let label = format!("4x4 SPAA-rotary {scenario} seed=3741 cycles=600+2400");
        let case = parse(&label).unwrap();
        let (report, drain_cycles, states) = run_scenario(&case, &label, drain, 1, false);
        for workers in [1, 3] {
            let label = format!("{label} workers={workers}");
            let (r, d, s) = run_scenario(&case, &label, drain, workers, true);
            report.assert_bit_identical(&r, &label);
            assert_eq!(drain_cycles, d, "{label}: drain length");
            for (node, (off, on)) in states.iter().zip(&s).enumerate() {
                assert_eq!(off, on, "{label}: node {node}");
            }
        }
        if let Some(zero) = moved {
            let any = states.iter().any(|s| !s.contains(zero));
            assert!(any, "{label}: every node has {zero} {states:?}");
        }
        if drain {
            assert!(states
                .iter()
                .all(|s| s.ends_with("outstanding=0 idle=true")));
        }
    }
}

/// Runs `case` at one worker with every endpoint [`Counted`]. Returns
/// the report, every node's [`endpoint_state`], the `on_cycle` calls
/// made and the router steps skipped.
fn run_counted(case: &Case, idle_skip: bool) -> (NetworkReport, Vec<String>, u64, u64) {
    let cfg = case.config();
    let endpoints = build_endpoints(&cfg, &case.workload)
        .into_iter()
        .map(|inner| Counted { inner, calls: 0 })
        .collect();
    let mut sim = NetworkSim::new(cfg.clone(), endpoints);
    sim.set_idle_skip(idle_skip);
    let report = sim.run();
    let nodes = cfg.topology.nodes();
    let calls = (0..nodes).map(|n| sim.endpoint(n).calls).sum();
    let states = (0..nodes)
        .map(|n| endpoint_state(&sim.endpoint(n).inner))
        .collect();
    (report, states, calls, sim.skipped_router_steps())
}

#[test]
fn near_idle_endpoints_sleep_through_nine_cycles_in_ten() {
    // At the near-idle point a node generates once in 500 cycles and
    // serves a handful of lookups in between: it must not be run for the
    // rest, and most router steps must be skipped too.
    let case = near_idle();
    let steps = 16 * case.config().total_cycles();
    let (off, states_off, calls_off, _) = run_counted(case, false);
    let (on, states_on, calls_on, skipped) = run_counted(case, true);
    off.assert_bit_identical(&on, "counted near-idle");
    assert_eq!(states_off, states_on);
    assert_eq!(calls_off, steps, "skip off runs every endpoint every cycle");
    assert!(
        calls_on * 10 <= calls_off,
        "only {} of {calls_off} on_cycle calls avoided",
        calls_off - calls_on
    );
    assert!(
        skipped > steps / 4,
        "only {skipped}/{steps} router steps skipped"
    );
    // The counts are deterministic: a change to the wake rule shows as a
    // diff here.
    assert_eq!(calls_on, 487, "on_cycle calls");
    assert_eq!(skipped, 46_293, "router steps skipped");
}

#[test]
fn blocked_sources_sleep_until_their_port_frees_a_slot() {
    // Past saturation most of a node's cycles offer a queue head that its
    // full local input refuses. The node sleeps on the refused ports and
    // the engine wakes it when its router releases a slot on one, so
    // these rows make a third of the calls they made when every
    // non-empty queue woke its node every cycle (those counts are in the
    // comments). A closed-loop row, whose sources are rarely refused,
    // made the same number of calls then.
    for (label, want) in [
        // 109,885.
        (
            "4x4 SPAA-rotary uniform rate=0.1 seed=1 mshrs=open cycles=400+7600 window=1",
            36_011,
        ),
        // 111,963.
        (
            "4x4 WFA-rotary uniform rate=0.1 seed=1 mshrs=open cycles=400+7600 window=1",
            37_114,
        ),
        ("4x4 SPAA-rotary uniform rate=0.1 seed=1", 7_224),
    ] {
        let case = find(label);
        let (off, states_off, _, _) = run_counted(case, false);
        let (on, states_on, calls, _) = run_counted(case, true);
        off.assert_bit_identical(&on, label);
        assert_eq!(states_off, states_on, "{label}");
        assert_eq!(calls, want, "{label}: on_cycle calls");
    }
}

#[test]
fn skipped_router_steps_are_pinned_on_a_fault_and_a_saturated_row() {
    // The work idle-skip saves, pinned exactly where loaded SPAA routers
    // sleep: under a fault plane (which still runs every router's fault
    // slot) and past saturation, with anti-starvation drains; and at low
    // load on a 16x16 torus, where most routers sit empty between packets.
    for (label, want) in [
        (
            "4x4 SPAA-rotary uniform rate=0.04 seed=1 ber=0.002 flap=300.0/30.0 kill=5East@500 dead=0.05",
            12_370,
        ),
        (
            "4x4 SPAA-rotary uniform rate=0.1 seed=1 mshrs=open cycles=400+7600 window=1",
            5_854,
        ),
        (
            "16x16 SPAA-rotary uniform rate=0.01 seed=1 cycles=200+800",
            153_429,
        ),
    ] {
        let engine = Engine::Fleet {
            workers: 1,
            idle_skip: true,
        };
        let (_, skipped) = run(find(label), engine);
        assert_eq!(skipped, want, "{label}: router steps skipped");
    }
}
