//! Behavioural tests of a single router: arbitration timing, collisions,
//! credits and delivery — the §2.2/§3 mechanics the network model builds
//! on.

use arbitration::ports::{InputPort, OutputPort};
use router::packet::PacketId;
use router::{
    ArbAlgorithm, CoherenceClass, EscapeVc, IncomingPacket, Packet, RouteInfo, Router,
    RouterConfig, RouterOutput, VcId,
};
use simcore::{SimRng, Tick};

const CORE: u64 = 20; // core period in ticks (1.2 GHz)

fn router(algorithm: ArbAlgorithm) -> Router {
    Router::new(
        0,
        RouterConfig::alpha_21364(algorithm),
        SimRng::from_seed(1),
    )
}

fn packet(id: u64, class: CoherenceClass) -> Packet {
    Packet::new(PacketId(id), class, 0, 1, Tick::ZERO, id)
}

/// Steps the router over core edges `[from, to)` collecting events.
fn run(r: &mut Router, from: u64, to: u64) -> Vec<RouterOutput> {
    let mut out = Vec::new();
    for c in from..to {
        r.step(Tick::new(c * CORE), &mut out);
    }
    out
}

fn incoming_transit(id: u64, dir: OutputPort, pin: u64) -> IncomingPacket {
    IncomingPacket {
        packet: packet(id, CoherenceClass::Request),
        route: RouteInfo::transit(dir.mask() as u8, dir, EscapeVc::Vc0),
        vc: VcId::adaptive(CoherenceClass::Request),
        pin_time: Tick::new(pin),
        in_flit_period: Tick::new(30),
    }
}

fn incoming_local_delivery(id: u64, pin: u64) -> IncomingPacket {
    IncomingPacket {
        packet: packet(id, CoherenceClass::Request),
        route: RouteInfo::local((OutputPort::L0.mask() | OutputPort::L1.mask()) as u8),
        vc: VcId::adaptive(CoherenceClass::Request),
        pin_time: Tick::new(pin),
        in_flit_period: Tick::new(30),
    }
}

fn forwards(events: &[RouterOutput]) -> Vec<&RouterOutput> {
    events
        .iter()
        .filter(|e| matches!(e, RouterOutput::Forward(_)))
        .collect()
}

#[test]
fn spaa_forwards_a_transit_packet_with_pin_to_pin_13_cycles() {
    let mut r = router(ArbAlgorithm::SpaaBase);
    // Arrives on the North input, leaves through the South output.
    r.accept_packet(InputPort::North, incoming_transit(1, OutputPort::South, 0));
    let events = run(&mut r, 0, 40);
    let fw: Vec<_> = forwards(&events);
    assert_eq!(fw.len(), 1, "exactly one forward");
    if let RouterOutput::Forward(o) = fw[0] {
        assert_eq!(o.output, OutputPort::South);
        assert_eq!(o.downstream_vc, VcId::adaptive(CoherenceClass::Request));
        assert_eq!(o.packet.hops, 1);
        // input_delay(4) + LA..GA(2) + output_delay(7) = 13 core cycles =
        // 260 ticks, then aligned up to a 30-tick link edge => 270.
        assert_eq!(o.first_flit, Tick::new(270));
        assert_eq!(o.flit_period, Tick::new(30));
        // 3 flits: done = first + 3 * 30.
        assert_eq!(o.last_flit_done, Tick::new(270 + 90));
    }
    assert_eq!(r.stats().packets_in.get(), 1);
    assert_eq!(r.stats().packets_out.get(), 1);
    assert_eq!(r.stats().flits_out.get(), 3);
}

#[test]
fn local_delivery_emits_delivered_and_no_credit_events_for_local_inputs() {
    // Injected from the cache port, delivered to a local sink: the whole
    // path stays inside the node. The slot frees at the first step at or
    // after the tail, not before (injection reads its free space), and
    // that step, alone, reports the cache port freed.
    let mut r = router(ArbAlgorithm::SpaaBase);
    let vc = VcId::adaptive(CoherenceClass::Request);
    let full = r.free_space(InputPort::Cache, vc);
    r.accept_packet(InputPort::Cache, incoming_local_delivery(9, 0));
    let mut tail = None;
    let mut out = Vec::new();
    let mut was_freed = false;
    for cycle in 0..100 {
        let now = Tick::new(cycle * CORE);
        out.clear();
        let released = r.step(now, &mut out);
        for event in &out {
            match *event {
                RouterOutput::Delivered { packet, output, at } => {
                    assert_eq!(packet.id, PacketId(9));
                    assert!(output.is_local_sink());
                    tail = Some(at);
                }
                _ => panic!("local inputs do not return credits: {out:?}"),
            }
        }
        let freed = tail.is_some_and(|t| now >= t);
        assert_eq!(
            r.free_space(InputPort::Cache, vc),
            full - usize::from(!freed),
            "cycle {cycle}, tail {tail:?}"
        );
        let cache = 1 << InputPort::Cache.index();
        assert_eq!(released, if freed && !was_freed { cache } else { 0 });
        was_freed = freed;
    }
    assert!(
        tail.is_some_and(|t| t > Tick::new(CORE)),
        "delivered: {tail:?}"
    );
    assert_eq!(r.stats().packets_delivered.get(), 1);
}

#[test]
#[should_panic(expected = "flow control violated")]
fn a_hand_off_into_a_slot_still_streaming_out_is_refused() {
    // A grant frees a local entry, but its slot stays reserved until the
    // tail: with the VC full, a packet handed over before then overflows
    // it, and the hand-off itself says so.
    let mut r = router(ArbAlgorithm::SpaaBase);
    let vc = VcId::adaptive(CoherenceClass::Request);
    let capacity = r.free_space(InputPort::Cache, vc) as u64;
    for id in 0..capacity {
        r.accept_packet(InputPort::Cache, incoming_local_delivery(id, 0));
    }
    let mut out = Vec::new();
    let mut cycle = 0;
    while out.is_empty() {
        assert!(cycle < 60, "no grant");
        r.step(Tick::new(cycle * CORE), &mut out);
        cycle += 1;
    }
    let RouterOutput::Delivered { at: tail, .. } = out[0] else {
        panic!("a local delivery: {out:?}");
    };
    assert!(tail > Tick::new((cycle - 1) * CORE), "the tail is ahead");
    assert_eq!(r.free_space(InputPort::Cache, vc), 0, "reserved");
    r.accept_packet(InputPort::Cache, incoming_local_delivery(capacity, 0));
}

#[test]
fn network_input_returns_credit_when_buffer_frees() {
    // A transit packet and a packet ending here, both on a torus input:
    // the step that grants each emits its one credit right after its
    // `Forward` or `Delivered`, dated at the tail, and the slot is free
    // at once.
    let vc = VcId::adaptive(CoherenceClass::Request);
    let packets = [
        incoming_transit(1, OutputPort::South, 0),
        incoming_local_delivery(2, 0),
    ];
    for incoming in packets {
        let mut r = router(ArbAlgorithm::SpaaBase);
        let full = r.free_space(InputPort::North, vc);
        r.accept_packet(InputPort::North, incoming);
        let mut out = Vec::new();
        let mut cycle = 0;
        while out.is_empty() {
            assert_eq!(r.free_space(InputPort::North, vc), full - 1, "held");
            assert!(cycle < 60, "no grant");
            // A torus slot's release is its credit: the step reports no
            // local input freed.
            assert_eq!(r.step(Tick::new(cycle * CORE), &mut out), 0);
            cycle += 1;
        }
        let tail = match out[0] {
            RouterOutput::Forward(o) => o.last_flit_done,
            RouterOutput::Delivered { at, .. } => at,
            RouterOutput::Credit { .. } => panic!("credit before its packet: {out:?}"),
        };
        assert!(tail > Tick::new((cycle - 1) * CORE), "the tail is ahead");
        assert!(
            matches!(out[1..], [RouterOutput::Credit { input: InputPort::North, vc: v, at }]
                if v == vc && at == tail),
            "{out:?}"
        );
        assert_eq!(
            r.free_space(InputPort::North, vc),
            full,
            "freed at the grant"
        );
        assert!(run(&mut r, cycle, 60).is_empty(), "one slot, one credit");
    }
}

#[test]
fn contending_packets_serialize_through_one_output() {
    let mut r = router(ArbAlgorithm::SpaaBase);
    // Two packets from different inputs, both must exit South.
    r.accept_packet(InputPort::North, incoming_transit(1, OutputPort::South, 0));
    r.accept_packet(InputPort::East, incoming_transit(2, OutputPort::South, 0));
    let events = run(&mut r, 0, 100);
    let mut fw: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            RouterOutput::Forward(o) => Some(*o),
            _ => None,
        })
        .collect();
    assert_eq!(fw.len(), 2, "both eventually dispatched");
    fw.sort_by_key(|o| o.first_flit);
    assert!(
        fw[1].first_flit >= fw[0].last_flit_done,
        "flit trains must not overlap: {:?} then {:?}",
        fw[0],
        fw[1]
    );
    assert!(
        r.stats().collisions.get() > 0,
        "the loser collided at least once"
    );
}

#[test]
fn all_window_algorithms_forward_traffic() {
    for algo in [
        ArbAlgorithm::Pim1,
        ArbAlgorithm::WfaBase,
        ArbAlgorithm::WfaRotary,
        ArbAlgorithm::WfaBase3Cycle,
    ] {
        let mut r = router(algo);
        r.accept_packet(InputPort::North, incoming_transit(1, OutputPort::South, 0));
        r.accept_packet(InputPort::East, incoming_transit(2, OutputPort::West, 0));
        let events = run(&mut r, 0, 120);
        assert_eq!(forwards(&events).len(), 2, "{algo}: both packets forwarded");
    }
}

#[test]
fn wfa_window_matches_disjoint_pairs_in_one_pass() {
    let mut r = router(ArbAlgorithm::WfaBase);
    // Four packets to four distinct outputs: one window should grant all.
    r.accept_packet(InputPort::North, incoming_transit(1, OutputPort::South, 0));
    r.accept_packet(InputPort::South, incoming_transit(2, OutputPort::North, 0));
    r.accept_packet(InputPort::East, incoming_transit(3, OutputPort::West, 0));
    r.accept_packet(InputPort::West, incoming_transit(4, OutputPort::East, 0));
    let events = run(&mut r, 0, 40);
    let fw = forwards(&events);
    assert_eq!(fw.len(), 4);
    // All four left in the same arbitration window: first flits within
    // one link period of each other.
    let mut times: Vec<u64> = fw
        .iter()
        .map(|e| match e {
            RouterOutput::Forward(o) => o.first_flit.as_ticks(),
            _ => unreachable!(),
        })
        .collect();
    times.sort_unstable();
    assert!(
        times[3] - times[0] <= 30,
        "four dispatches in one window: {times:?}"
    );
}

#[test]
fn spaa_restarts_arbitration_faster_than_window_algorithms() {
    // Feed a stream of 1-flit specials to one output and compare dispatch
    // cadence: SPAA can re-arbitrate every cycle, WFA only per window.
    let stream = |algo: ArbAlgorithm| {
        let mut r = router(algo);
        // The special VC holds 4 packets per input port; stay within it.
        for i in 0..4 {
            r.accept_packet(
                InputPort::North,
                IncomingPacket {
                    packet: Packet::new(PacketId(i), CoherenceClass::Special, 0, 1, Tick::ZERO, i),
                    route: RouteInfo::transit(
                        OutputPort::South.mask() as u8,
                        OutputPort::South,
                        EscapeVc::Vc0,
                    ),
                    vc: VcId::special(),
                    pin_time: Tick::new(30 * i),
                    in_flit_period: Tick::new(30),
                },
            );
        }
        let events = run(&mut r, 0, 200);
        let mut times: Vec<u64> = forwards(&events)
            .iter()
            .map(|e| match e {
                RouterOutput::Forward(o) => o.first_flit.as_ticks(),
                _ => unreachable!(),
            })
            .collect();
        times.sort_unstable();
        assert_eq!(times.len(), 4, "{algo}: all specials forwarded");
        *times.last().unwrap()
    };
    let spaa_done = stream(ArbAlgorithm::SpaaBase);
    let wfa_done = stream(ArbAlgorithm::WfaBase);
    assert!(
        spaa_done <= wfa_done,
        "SPAA ({spaa_done}) should drain no slower than WFA ({wfa_done})"
    );
}

#[test]
fn escape_channel_used_when_adaptive_credits_exhausted() {
    let mut r = router(ArbAlgorithm::SpaaBase);
    // Saturate the adaptive credits for South (50 downstream slots) with
    // 51 packets spread over two input ports (each input buffers at most
    // 50); the 51st dispatch must fall back to the escape VC.
    for i in 0..30 {
        r.accept_packet(InputPort::North, incoming_transit(i, OutputPort::South, 0));
    }
    for i in 30..51 {
        r.accept_packet(InputPort::East, incoming_transit(i, OutputPort::South, 0));
    }
    // No credits ever return (no downstream router in this test), so the
    // 51st dispatch can only use the escape channel.
    let events = run(&mut r, 0, 4000);
    let fw = forwards(&events);
    assert_eq!(fw.len(), 51, "all 51 forwarded: 50 adaptive + 1 escape");
    let escapes = fw
        .iter()
        .filter(|e| match e {
            RouterOutput::Forward(o) => !o.downstream_vc.is_adaptive(),
            _ => false,
        })
        .count();
    assert_eq!(escapes, 1, "exactly one packet used the escape channel");
    assert_eq!(r.stats().escape_dispatches.get(), 1);
}

#[test]
fn credit_refund_reenables_adaptive_dispatch() {
    let mut r = router(ArbAlgorithm::SpaaBase);
    for i in 0..40 {
        r.accept_packet(InputPort::North, incoming_transit(i, OutputPort::South, 0));
    }
    for i in 40..52 {
        r.accept_packet(InputPort::East, incoming_transit(i, OutputPort::South, 0));
    }
    // Refund plenty of adaptive credits midway; the stragglers should go
    // adaptively rather than on the escape VC.
    let mut events = run(&mut r, 0, 2000);
    for _ in 0..4 {
        r.accept_credit(
            OutputPort::South,
            VcId::adaptive(CoherenceClass::Request),
            Tick::new(2000 * CORE),
        );
    }
    events.extend(run(&mut r, 2000, 5000));
    let fw = forwards(&events);
    assert_eq!(fw.len(), 52);
    let escapes = fw
        .iter()
        .filter(|e| match e {
            RouterOutput::Forward(o) => !o.downstream_vc.is_adaptive(),
            _ => false,
        })
        .count();
    // 50 adaptive up-front; two remain. The escape VC fits one packet (no
    // escape credits return either), so at least one of the two must have
    // waited for the refunded adaptive credits.
    assert!(
        escapes <= 1,
        "refunded credits should carry the last packets"
    );
}

#[test]
fn free_space_accounts_for_pending_arrivals() {
    let mut r = router(ArbAlgorithm::SpaaBase);
    let vc = VcId::adaptive(CoherenceClass::Request);
    assert_eq!(r.free_space(InputPort::Cache, vc), 50);
    r.accept_packet(InputPort::Cache, incoming_local_delivery(1, 0));
    assert_eq!(
        r.free_space(InputPort::Cache, vc),
        49,
        "pending arrival reserves a slot before decode"
    );
    let _ = run(&mut r, 0, 10);
    assert_eq!(r.free_space(InputPort::Cache, vc), 49, "now buffered");
}

#[test]
fn deterministic_replay() {
    let run_once = || {
        let mut r = router(ArbAlgorithm::Pim1);
        for i in 0..20 {
            let dir = [OutputPort::South, OutputPort::East, OutputPort::West][i as usize % 3];
            r.accept_packet(InputPort::North, incoming_transit(i, dir, 10 * i));
            r.accept_packet(
                InputPort::Cache,
                incoming_local_delivery(100 + i, 10 * i + 5),
            );
        }
        let events = run(&mut r, 0, 500);
        events
            .iter()
            .map(|e| match e {
                RouterOutput::Forward(o) => (0u8, o.packet.id.0, o.first_flit.as_ticks()),
                RouterOutput::Delivered { packet, at, .. } => (1, packet.id.0, at.as_ticks()),
                RouterOutput::Credit { at, .. } => (2, 0, at.as_ticks()),
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run_once(), run_once(), "same seed, same event trace");
}

#[test]
fn rotary_grant_prefers_network_over_local_nomination() {
    let mut r = router(ArbAlgorithm::SpaaRotary);
    // A cache-injected packet and a network packet race for the South
    // output. Stagger pin times so both are eligible at the same LA cycle
    // (network inputs take 4 decode cycles, local 3), then the rotary rule
    // must pick the network packet.
    r.accept_packet(InputPort::North, incoming_transit(1, OutputPort::South, 0));
    r.accept_packet(
        InputPort::Cache,
        IncomingPacket {
            packet: packet(2, CoherenceClass::Request),
            route: RouteInfo::transit(
                OutputPort::South.mask() as u8,
                OutputPort::South,
                EscapeVc::Vc0,
            ),
            vc: VcId::adaptive(CoherenceClass::Request),
            pin_time: Tick::new(CORE), // one cycle later: same LA cycle
            in_flit_period: Tick::new(20),
        },
    );
    let events = run(&mut r, 0, 100);
    let fw = forwards(&events);
    assert_eq!(fw.len(), 2);
    let first = fw
        .iter()
        .map(|e| match e {
            RouterOutput::Forward(o) => (o.first_flit, o.packet.id),
            _ => unreachable!(),
        })
        .min()
        .unwrap();
    assert_eq!(first.1, PacketId(1), "rotary: cross-traffic wins the tie");
}

#[test]
fn antistarvation_drains_old_packets_under_rotary_pressure() {
    let mut cfg = RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary);
    cfg.antistarvation.age_threshold = simcore::time::Cycles::new(100);
    cfg.antistarvation.count_threshold = 0;
    cfg.antistarvation.scan_period = simcore::time::Cycles::new(50);
    let mut r = Router::new(0, cfg, SimRng::from_seed(3));
    // A continuous stream of network packets for South: a 3-flit packet
    // occupies the South link for 90 ticks, so arrivals every 90 ticks
    // keep a contender present. Each is handed over on its pin cycle, as a
    // link delivers it. A local packet for South joins at cycle 40, once
    // the stream flows: the Rotary Rule holds it behind the stream until
    // a census finds it old and engages a drain, which must serve it.
    const JOIN: u64 = 40;
    let mut events = Vec::new();
    let (mut engaged, mut left) = (None, None);
    let mut next = 0;
    for c in 0..300 {
        while next * 90 / CORE == c {
            r.accept_packet(
                InputPort::North,
                incoming_transit(next, OutputPort::South, next * 90),
            );
            next += 1;
        }
        if c == JOIN {
            r.accept_packet(
                InputPort::Cache,
                IncomingPacket {
                    packet: packet(999, CoherenceClass::Request),
                    route: RouteInfo::transit(
                        OutputPort::South.mask() as u8,
                        OutputPort::South,
                        EscapeVc::Vc0,
                    ),
                    vc: VcId::adaptive(CoherenceClass::Request),
                    pin_time: Tick::new(JOIN * CORE),
                    in_flit_period: Tick::new(20),
                },
            );
        }
        events.clear();
        r.step(Tick::new(c * CORE), &mut events);
        if engaged.is_none() && r.stats().drain_engagements.get() > 0 {
            engaged = Some(c);
        }
        let local = |e: &RouterOutput| matches!(e, RouterOutput::Forward(o) if o.packet.id == PacketId(999));
        if events.iter().any(local) {
            left = Some(c);
            break;
        }
    }
    // The censuses run every 50 cycles. The local packet is eligible at
    // cycle 43, so the census at cycle 150 is the first to find it more
    // than 100 cycles old.
    assert_eq!(
        engaged,
        Some(150),
        "the first drain engages (left {left:?})"
    );
    let left = left.expect("anti-starvation must serve the local packet");
    assert!(
        (150..=158).contains(&left),
        "the drain serves the local packet within 8 cycles, not at {left}"
    );
}
