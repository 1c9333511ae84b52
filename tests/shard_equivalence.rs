//! One engine, any worker count: the report must be *bit-for-bit*
//! identical however the network is sharded and however it is stepped.
//!
//! Every row of the case table (`tests/golden/reports.txt`) runs here on
//! one sharded engine — row `i` on `common::ROTATION[i % 13]`: 2, 3, 4, 5,
//! 8 or 16 workers with idle-skip on or off, or inline `step_cycle`
//! stepping over 3 shards — and must reproduce the golden line that
//! `golden_reports` reproduces on one shard. The line's digest covers
//! every field of `NetworkReport::for_each_field`, the latency statistics
//! on raw f64 bits, so a single reordered floating-point accumulation
//! (the classic parallel-reduction bug) fails the suite; a mismatch
//! reruns the row on one shard and names the first field that differs.
//! Each test below checks the rows `common::Axis::test` reads off their
//! scenario as its own; every row is checked once. This is what lets
//! `fig bigtorus` publish multi-threaded curves as *the* results rather
//! than an approximation.

pub mod common;

use common::{find, parse, stepped, Axis};

#[test]
fn sharded_engine_is_bit_for_bit_equivalent_across_worker_counts() {
    // Every arbitration driver (pipelined SPAA, windowed PIM1 and WFA,
    // iSLIP, the weighted iLQF/iOCF kernels, the ablations) from low load
    // to saturation, and the 2x pipeline; the rotation spreads each over
    // every worker count.
    Axis::Shard.check("sharded_engine_is_bit_for_bit_equivalent_across_worker_counts");
}

#[test]
fn sharded_engine_is_equivalent_with_idle_skip_off() {
    // The skip machinery is per shard. Every arbiter at near-idle load,
    // where skipping does the most: thirteen consecutive rows, so the
    // rotation runs them once on each of its engines, six of those with
    // idle-skip off.
    Axis::Shard.check("sharded_engine_is_equivalent_with_idle_skip_off");
}

#[test]
fn sharded_engine_is_equivalent_under_hotspot_and_bursty_traffic() {
    // Hotspot concentrates cross-shard traffic onto a few destination
    // routers (stressing canonical merge order at one receiver); bursts
    // make whole shards oscillate between idle and 5x load (stressing
    // the per-shard wake bookkeeping against cross-shard wakes).
    Axis::Shard.check("sharded_engine_is_equivalent_under_hotspot_and_bursty_traffic");
}

#[test]
fn sharded_engine_is_equivalent_on_a_larger_torus() {
    // 16x16: shards span several rows, so cross-shard links exist in both
    // dimensions and the wraparound rows land in the first/last shards.
    Axis::Shard.check("sharded_engine_is_equivalent_on_a_larger_torus");
}

#[test]
fn sharded_engine_is_equivalent_under_saturation_drain() {
    // Drain mode engages on every open-loop row; the engaged/released
    // transitions must replay identically when the triggering credits
    // arrive through the cross-shard outboxes.
    Axis::Shard.check("sharded_engine_is_equivalent_under_saturation_drain");
}

#[test]
fn sharded_engine_is_equivalent_on_mesh_and_full_mesh() {
    // The mesh loses its wrap links (edge shards have asymmetric
    // cross-shard degree) and the full mesh crosses shards on *every*
    // link with entry ports that are not the geometric opposite of the
    // exit port.
    Axis::Shard.check("sharded_engine_is_equivalent_on_mesh_and_full_mesh");
}

#[test]
fn sharded_engine_is_equivalent_with_matching_weight_oracle() {
    // The oracle's counters are plain per-router sums, but the windows
    // they observe depend on flit arrival timing — the exact thing shard
    // scheduling could perturb.
    Axis::Shard.check("sharded_engine_is_equivalent_with_matching_weight_oracle");
}

#[test]
fn sharded_engine_is_equivalent_for_closed_loop_drivers() {
    // The closed loop couples a node's future RNG draws to its reply
    // arrival cycles, so one perturbed delivery would cascade into a
    // different transaction trace.
    Axis::Shard.check("sharded_engine_is_equivalent_for_closed_loop_drivers");
}

#[test]
fn sharded_engine_is_equivalent_for_closed_loop_three_hop_on_8x8() {
    // An all-three-hop mix maximizes cross-shard reply forwarding
    // (requester → home → owner → requester), on the 8x8 as well.
    Axis::Shard.check("sharded_engine_is_equivalent_for_closed_loop_three_hop_on_8x8");
}

#[test]
fn sharded_engine_is_equivalent_under_fault_storms() {
    // A link's CRC and flap streams are owned by the *receiving* shard,
    // retry timers park on per-shard wheels, and an exhaustion death
    // broadcasts a LinkDead event to every shard's replica mask: a draw
    // taken by the wrong shard, or a broadcast applied at a different
    // stream position, shows up as a counter or raw-bit mismatch.
    Axis::Shard.check("sharded_engine_is_equivalent_under_fault_storms");
}

#[test]
fn sharded_worker_request_is_clamped_to_node_count() {
    let case = find("4x4 SPAA-rotary uniform rate=0.01 seed=1");
    assert_eq!(case.sim(1_000).workers(), 16, "one shard per node at most");
    assert_eq!(case.sim(1).workers(), 1);
}

#[test]
fn inline_stepping_matches_the_fleet_and_one_shard() {
    // `step_cycle` on a multi-shard sim runs the same two phases the
    // fleet does, on one thread: phase A over the shards in index order,
    // phase B routed to the owning shard. Uneven (3) and one-node (16)
    // shards, fault-free and under a storm that exercises the inline
    // `LinkDead` broadcast.
    for label in [
        "4x4 SPAA-rotary uniform rate=0.03 seed=61 cycles=600+2400 ber=0.05 retries=1",
        "4x4 SPAA-rotary uniform rate=0.03 seed=61 cycles=600+2400",
    ] {
        let case = parse(label).unwrap();
        let one = case.sim(1).run();
        for workers in [3, 16] {
            let label = format!("{label} workers={workers}");
            let inline = stepped(&case, workers, case.config().total_cycles()).report();
            inline.assert_bit_identical(&case.sim(workers).run(), &label);
            inline.assert_bit_identical(&one, &label);
        }
    }
}

#[test]
fn stepping_then_running_equals_an_uninterrupted_run() {
    // `run()` picks up wherever `step_cycle` left off — on the calling
    // thread (1 worker) and on the fleet (4), which carries on from the
    // shards' watchdog state and the exchange the stepping left.
    let case = parse("4x4 PIM1 uniform rate=0.05 seed=1 mshrs=4 watchdog=1000").unwrap();
    let whole = case.sim(1).run();
    for workers in [1, 4] {
        let resumed = stepped(&case, workers, case.config().total_cycles() / 3).run();
        resumed.assert_bit_identical(&whole, &format!("resumed workers={workers}"));
    }
}

#[test]
fn mid_run_report_is_identical_across_worker_counts() {
    // Mid-run the network is loaded (in-flight packets, partial
    // histograms in every shard), so the report's cross-shard sums are
    // all live.
    let case = find("4x4 iSLIP2 uniform rate=0.04 seed=1");
    let at = case.config().total_cycles() / 2;
    let one = stepped(case, 1, at).report();
    assert!(one.delivered_packets > 0 && one.in_flight_packets > 0);
    for workers in [2, 5] {
        let sharded = stepped(case, workers, at).report();
        sharded.assert_bit_identical(&one, &format!("mid-run workers={workers}"));
    }
}

#[test]
fn diagnostic_dump_lists_every_router_once_in_id_order() {
    let case = find("4x4 SPAA-rotary uniform rate=0.04 seed=1");
    let dump = stepped(case, 4, 500).diagnostic_dump();
    let routers: Vec<u16> = dump
        .lines()
        .filter_map(|l| l.strip_prefix("  router ")?.split(':').next()?.parse().ok())
        .collect();
    assert_eq!(routers, (0..16).collect::<Vec<u16>>(), "{dump}");
}
