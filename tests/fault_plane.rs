//! End-to-end properties of the deterministic fault plane.
//!
//! The link layer promises *exactly-once, per-link in-order* delivery
//! while corruption is recoverable, and *accounted loss* once it is not:
//! a packet either arrives exactly once or is counted in
//! `unreachable_drops` — never duplicated, never silently dropped. This
//! suite pins those promises end to end through the real engines: a
//! lockstep ladder under a corruption storm, open-loop conservation with
//! duplicate detection, the exact bounded-retry → link-death transition,
//! panic propagation out of the sharded worker fleet, the forward-progress
//! watchdog actually firing, and the guard that a disabled fault plane
//! costs the simulation nothing.

use alpha21364::prelude::*;
use router::packet::PacketId;
use std::collections::HashSet;

fn storm_config(
    topology: NetTopology,
    seed: u64,
    cycles: u64,
    fault: FaultConfig,
) -> NetworkConfig {
    NetworkConfig {
        topology,
        router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
        seed,
        warmup_cycles: 0,
        measure_cycles: cycles,
        fault,
    }
}

/// A corruption storm that is heavy but always recoverable: the retry
/// bound is far beyond any failure streak the seeded BER can produce, so
/// no link ever dies and every packet must eventually cross.
fn recoverable_storm(ber: f64) -> FaultConfig {
    FaultConfig {
        ber,
        max_retries: 64,
        backoff_base_cycles: 4,
        ..FaultConfig::default()
    }
}

/// Lockstep ladder endpoint: node 0 sends sequence number `n` to `peer`
/// and only advances to `n + 1` after `peer`'s echo of `n` arrives back.
/// The peer records every sequence number it receives, so a duplicated
/// retransmission or a silently lost retry breaks the recorded ladder.
struct PingPong {
    node: u16,
    peer: u16,
    /// Sender state (node 0): next rung and whether its echo is pending.
    next_seq: u64,
    await_echo: bool,
    /// Receiver state (`peer`): echoes owed and the full receive log.
    pending_echo: Vec<u64>,
    seen: Vec<u64>,
    unreachable: u64,
}

impl PingPong {
    fn fleet(nodes: u16, peer: u16) -> Vec<PingPong> {
        (0..nodes)
            .map(|node| PingPong {
                node,
                peer,
                next_seq: 0,
                await_echo: false,
                pending_echo: Vec::new(),
                seen: Vec::new(),
                unreachable: 0,
            })
            .collect()
    }

    fn send(&mut self, ctx: &mut NodeCtx<'_>, dest: u16, seq: u64) -> bool {
        let packet = Packet::new(
            PacketId((self.node as u64) << 32 | seq),
            CoherenceClass::Request,
            self.node,
            dest,
            ctx.now(),
            seq,
        );
        match ctx.inject(InputPort::Cache, packet) {
            InjectionOutcome::Accepted => true,
            InjectionOutcome::NoBufferSpace => false,
            InjectionOutcome::Unreachable => {
                self.unreachable += 1;
                false
            }
        }
    }
}

impl Endpoint for PingPong {
    fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.node == 0 {
            if !self.await_echo {
                let seq = self.next_seq;
                let peer = self.peer;
                if self.send(ctx, peer, seq) {
                    self.await_echo = true;
                }
            }
        } else if self.node == self.peer {
            if let Some(&seq) = self.pending_echo.first() {
                if self.send(ctx, 0, seq) {
                    self.pending_echo.remove(0);
                }
            }
        }
    }

    fn on_delivered(&mut self, packet: &Packet, _now: Tick) -> Option<TxnCompletion> {
        if self.node == self.peer {
            self.seen.push(packet.txn);
            self.pending_echo.push(packet.txn);
        } else if self.node == 0 {
            // The echo of the outstanding rung releases the next one.
            if packet.txn == self.next_seq {
                self.next_seq += 1;
                self.await_echo = false;
            }
        }
        None
    }
}

#[test]
fn lockstep_delivery_is_exactly_once_in_order_under_corruption_storm() {
    // One rung in flight at a time across a heavily corrupted link
    // (≈15% of 3-flit packets fail CRC on first attempt): the peer's
    // receive log must be exactly 0, 1, 2, … — a duplicate from the
    // retransmit buffer or a lost retry shows up immediately.
    let cfg = storm_config(
        Torus::net_4x4().into(),
        0xfa17,
        20_000,
        recoverable_storm(0.05),
    );
    let endpoints = PingPong::fleet(16, 1);
    let mut sim = NetworkSim::new(cfg, endpoints);
    let report = sim.run();

    let rungs = sim.endpoint(0).next_seq;
    assert!(rungs > 50, "ladder barely moved ({rungs} rungs)");
    let seen = &sim.endpoint(1).seen;
    let expect: Vec<u64> = (0..seen.len() as u64).collect();
    assert_eq!(*seen, expect, "peer log must be the exact ladder");
    for node in 0..16 {
        assert_eq!(sim.endpoint(node).unreachable, 0, "no link ever died");
    }
    assert!(report.flits_corrupted > 0, "storm must corrupt flits");
    assert!(report.retransmissions > 0, "storm must force retries");
    assert_eq!(report.retry_exhaustions, 0, "recoverable storm");
    assert_eq!(report.links_dead, 0, "recoverable storm");
    assert_eq!(report.unreachable_drops, 0, "nothing may be dropped");
}

/// Open-loop storm source: a rate-throttled uniform-random injector that
/// logs every packet id it receives, so the whole fleet's logs can be
/// checked for duplicates after the drain.
struct StormSource {
    node: u16,
    nodes: u16,
    inject_cycles: u64,
    cycle: u64,
    rng: SimRng,
    injected: u64,
    received: Vec<u64>,
}

impl StormSource {
    fn fleet(topology: NetTopology, inject_cycles: u64, seed: u64) -> Vec<StormSource> {
        let root = SimRng::from_seed(seed);
        (0..topology.nodes())
            .map(|node| StormSource {
                node,
                nodes: topology.nodes(),
                inject_cycles,
                cycle: 0,
                rng: root.fork(node as u64),
                injected: 0,
                received: Vec::new(),
            })
            .collect()
    }
}

impl Endpoint for StormSource {
    fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
        self.cycle += 1;
        if self.cycle > self.inject_cycles || !self.rng.chance(0.05) {
            return;
        }
        let k = self.rng.below(self.nodes as usize - 1) as u16;
        let dest = if k >= self.node { k + 1 } else { k };
        let packet = Packet::new(
            PacketId((self.node as u64) << 32 | self.injected),
            CoherenceClass::Request,
            self.node,
            dest,
            ctx.now(),
            0,
        );
        if ctx.inject(InputPort::Cache, packet) == InjectionOutcome::Accepted {
            self.injected += 1;
        }
    }

    fn on_delivered(&mut self, packet: &Packet, _now: Tick) -> Option<TxnCompletion> {
        self.received.push(packet.id.0);
        None
    }
}

#[test]
fn open_loop_storm_conserves_and_never_duplicates() {
    // Sixteen uncoordinated sources through a recoverable corruption
    // storm, then a long drain: every injected packet must be delivered
    // exactly once — the union of all receive logs has no duplicate id
    // and its size equals the injection count — and the report's
    // conservation identity must close with zero drops.
    let cfg = storm_config(
        Torus::net_4x4().into(),
        0x570a,
        14_000,
        recoverable_storm(0.02),
    );
    let endpoints = StormSource::fleet(cfg.topology, 7_000, 0xbeef);
    let mut sim = NetworkSim::new(cfg, endpoints);
    let report = sim.run();

    let (mut injected, mut ids) = (0u64, Vec::new());
    for node in 0..16 {
        injected += sim.endpoint(node).injected;
        ids.extend_from_slice(&sim.endpoint(node).received);
    }
    assert!(injected > 1_000, "storm must carry real traffic");
    let unique: HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(
        unique.len(),
        ids.len(),
        "a retransmission was delivered twice"
    );
    assert_eq!(
        ids.len() as u64,
        injected,
        "every packet arrives exactly once"
    );
    assert_eq!(report.delivered_packets, injected);
    assert_eq!(report.in_flight_packets, 0, "drain must complete");
    assert_eq!(
        report.unreachable_drops, 0,
        "recoverable storm drops nothing"
    );
    assert_eq!(report.links_dead, 0);
    assert!(report.retransmissions > 0, "storm must force retries");
}

/// One packet into a link that always fails CRC, then a late probe to
/// the now-disconnected destination.
struct ExhaustOneShot {
    node: u16,
    cycle: u64,
    sent: bool,
    probe_outcome: Option<InjectionOutcome>,
}

impl Endpoint for ExhaustOneShot {
    fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
        self.cycle += 1;
        if self.node != 0 {
            return;
        }
        if !self.sent {
            let packet = Packet::new(PacketId(1), CoherenceClass::Request, 0, 1, ctx.now(), 0);
            if ctx.inject(InputPort::Cache, packet) == InjectionOutcome::Accepted {
                self.sent = true;
            }
        } else if self.cycle == 7_900 && self.probe_outcome.is_none() {
            // Long after retry exhaustion killed 0→East: the minimal set
            // and the escape path to node 1 both ride that link, so the
            // source must be refused at injection, not drop silently.
            let probe = Packet::new(PacketId(2), CoherenceClass::Request, 0, 1, ctx.now(), 0);
            self.probe_outcome = Some(ctx.inject(InputPort::Cache, probe));
        }
    }

    fn on_delivered(&mut self, _packet: &Packet, _now: Tick) -> Option<TxnCompletion> {
        None
    }
}

#[test]
fn bounded_retries_exhaust_into_link_death_with_exact_accounting() {
    // BER 1.0 makes every attempt fail deterministically: one 3-flit
    // packet pins the whole transition. Attempts = 1 inline + 8 retries,
    // each corrupting all 3 flits; the 9th failure exhausts the bound,
    // declares 0→East dead, and drops the queued packet with accounting.
    let fault = FaultConfig {
        ber: 1.0,
        ..FaultConfig::default()
    };
    assert_eq!(fault.max_retries, 8, "pin assumes the default retry bound");
    let cfg = storm_config(Torus::net_4x4().into(), 0xdead, 8_000, fault);
    let endpoints: Vec<ExhaustOneShot> = (0..16)
        .map(|node| ExhaustOneShot {
            node,
            cycle: 0,
            sent: false,
            probe_outcome: None,
        })
        .collect();
    let mut sim = NetworkSim::new(cfg, endpoints);
    let report = sim.run();

    assert_eq!(report.injected_packets, 1);
    assert_eq!(
        report.flits_corrupted,
        3 * 9,
        "3 flits × (1 inline + 8 retries)"
    );
    assert_eq!(report.retransmissions, 8, "exactly the retry bound");
    assert_eq!(report.retry_exhaustions, 1);
    assert_eq!(report.links_dead, 1, "exhaustion declared the link dead");
    assert_eq!(report.unreachable_drops, 1, "the queued packet, accounted");
    assert_eq!(report.delivered_packets, 0);
    assert_eq!(report.in_flight_packets, 0, "the drop refunded its slot");
    assert_eq!(
        sim.endpoint(0).probe_outcome,
        Some(InjectionOutcome::Unreachable),
        "post-death injection toward the cut destination is refused at the source"
    );
}

/// Panics on schedule inside the endpoint phase of node `exploding`.
struct PanicAt {
    node: u16,
    exploding: u16,
    cycle: u64,
}

impl Endpoint for PanicAt {
    fn on_cycle(&mut self, _ctx: &mut NodeCtx<'_>) {
        self.cycle += 1;
        if self.node == self.exploding && self.cycle == 500 {
            panic!("endpoint exploded on schedule");
        }
    }

    fn on_delivered(&mut self, _packet: &Packet, _now: Tick) -> Option<TxnCompletion> {
        None
    }
}

#[test]
fn disabled_fault_plane_taxes_nothing() {
    // Zero-fault-tax guard: with faults disabled (the default config
    // every figure and benchmark point runs under) the fault plane must
    // not perturb the simulation at all. A watchdog-only config arms the
    // forward-progress watchdog but enables no fault injection, so its
    // report must be bit-identical to the default's — any divergence
    // means the fault plane is taxing the fault-free hot path with RNG
    // draws or schedule changes, which would silently skew every
    // committed table and every `perf/` number.
    let run = |fault: FaultConfig| {
        let cfg = storm_config(Torus::net_4x4().into(), 0x21364, 5_000, fault);
        let wl = WorkloadConfig::open_loop(TrafficPattern::Uniform, 0.04);
        run_coherence_sim(cfg, wl).0
    };
    let plain = run(FaultConfig::default());
    let armed = run(FaultConfig {
        watchdog_cycles: Some(2_000),
        ..FaultConfig::default()
    });
    assert!(plain.delivered_packets > 1_000, "guard must carry traffic");
    assert_eq!(plain.flits_corrupted, 0, "fault-free run corrupted flits");
    assert_eq!(plain.retransmissions, 0, "fault-free run retransmitted");
    assert_eq!(plain.links_dead, 0, "fault-free run killed links");
    plain.assert_bit_identical(&armed, "watchdog-only run vs fault-free run");
}

#[test]
#[should_panic(expected = "worker fleet panicked: endpoint exploded on schedule")]
fn sharded_fleet_unwinds_with_the_original_panic_message() {
    // A panic inside any of four shards must not wedge the barrier: the
    // poisoned barrier unwinds every peer, and `run()` re-raises the
    // original message on the caller instead of spinning forever.
    let explode_at = |exploding: u16| {
        let cfg = storm_config(Torus::net_4x4().into(), 3, 2_000, FaultConfig::default());
        let endpoints = (0..16).map(|node| PanicAt {
            node,
            exploding,
            cycle: 0,
        });
        let _ = NetworkSim::with_workers(cfg, endpoints.collect(), 4).run();
    };
    // Node 1 lives in shard 0, which the calling thread steps itself.
    let payload = std::panic::catch_unwind(|| explode_at(1)).expect_err("shard 0 exploded");
    let text = payload.downcast_ref::<String>();
    assert!(
        text.is_some_and(|t| t == "worker fleet panicked: endpoint exploded on schedule"),
        "the caller's own shard unwound with {text:?}"
    );
    // Node 15 lives in the last shard, on a spawned worker; its unwind is
    // the panic this test expects.
    explode_at(15);
}

/// Remembers every thread that ever stepped it.
struct ThreadProbe {
    stepped_on: Vec<std::thread::ThreadId>,
}

impl Endpoint for ThreadProbe {
    fn on_cycle(&mut self, _ctx: &mut NodeCtx<'_>) {
        let id = std::thread::current().id();
        if self.stepped_on.last() != Some(&id) {
            self.stepped_on.push(id);
        }
    }

    fn on_delivered(&mut self, _packet: &Packet, _now: Tick) -> Option<TxnCompletion> {
        None
    }
}

#[test]
fn fleet_steps_w_shards_on_w_threads_with_shard_0_on_the_caller() {
    let cfg = storm_config(Torus::net_4x4().into(), 1, 100, FaultConfig::default());
    let endpoints = (0..16).map(|_| ThreadProbe {
        stepped_on: Vec::new(),
    });
    let mut sim = NetworkSim::with_workers(cfg, endpoints.collect(), 3);
    let _ = sim.run();
    let threads: HashSet<_> = (0..16)
        .flat_map(|node| sim.endpoint(node).stepped_on.iter().copied())
        .collect();
    assert_eq!(threads.len(), 3, "three shards, three threads in all");
    assert_eq!(
        sim.endpoint(0).stepped_on,
        [std::thread::current().id()],
        "shard 0 runs on the thread that called run()"
    );
}

#[test]
fn step_cycle_runs_every_shard_on_the_caller_and_run_still_spreads_them() {
    let cfg = storm_config(Torus::net_4x4().into(), 1, 100, FaultConfig::default());
    let endpoints = (0..16).map(|_| ThreadProbe {
        stepped_on: Vec::new(),
    });
    let mut sim = NetworkSim::with_workers(cfg, endpoints.collect(), 3);
    for _ in 0..10 {
        sim.step_cycle();
    }
    let caller = std::thread::current().id();
    for node in 0..16 {
        assert_eq!(
            sim.endpoint(node).stepped_on,
            [caller],
            "node {node}: step_cycle runs every shard on the calling thread"
        );
    }
    let _ = sim.run();
    let threads: HashSet<_> = (0..16)
        .flat_map(|node| sim.endpoint(node).stepped_on.iter().copied())
        .collect();
    assert_eq!(
        threads.len(),
        3,
        "run() after step_cycle still uses three threads"
    );
}

/// Node 0 sends one packet to the far corner of the torus; nobody else
/// sends anything.
struct SendOnce {
    node: u16,
    sent: bool,
}

impl Endpoint for SendOnce {
    fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.node == 0 && !self.sent {
            let packet = Packet::new(PacketId(1), CoherenceClass::Request, 0, 10, ctx.now(), 0);
            self.sent = ctx.inject(InputPort::Cache, packet) == InjectionOutcome::Accepted;
        }
    }

    fn on_delivered(&mut self, _packet: &Packet, _now: Tick) -> Option<TxnCompletion> {
        None
    }
}

#[test]
fn watchdog_barks_with_a_router_dump_on_every_engine_path() {
    // One router alone is 13 cycles pin to pin, so a packet four hops from
    // home is in flight, undelivered, for far longer than a 3-cycle
    // budget: the watchdog must fire under both drivers, stepped or run,
    // and say where the packets are.
    let build = |workers: usize| {
        let fault = FaultConfig {
            watchdog_cycles: Some(3),
            ..FaultConfig::default()
        };
        let cfg = storm_config(Torus::net_4x4().into(), 1, 200, fault);
        let endpoints = (0..16).map(|node| SendOnce { node, sent: false }).collect();
        NetworkSim::with_workers(cfg, endpoints, workers)
    };
    let panic_text = |f: &mut dyn FnMut()| -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("a 3-cycle budget cannot be met");
        let text = payload.downcast_ref::<String>().expect("formatted panic");
        text.clone()
    };
    const BARK: &str = "watchdog: no delivery for 3 cycles with packets in flight\n";

    // Stepping keeps each shard's stall count across `step_cycle` calls.
    let stepped = |workers: usize| {
        panic_text(&mut || {
            let mut sim = build(workers);
            for _ in 0..200 {
                sim.step_cycle();
            }
        })
    };
    let one = stepped(1);
    let dump = one.strip_prefix(BARK).expect("inline bark");
    assert!(
        dump.starts_with(
            "shard 0 diagnostic @ cycle 3: occupancy 1 packet(s), 0 delivered fleet-wide"
        ),
        "{dump}"
    );
    for node in 0..16 {
        assert!(dump.contains(&format!("  router {node}: ")), "{dump}");
    }
    let ran = panic_text(&mut || {
        let _ = build(1).run();
    });
    assert_eq!(ran, one, "run() at one worker is the inline path");

    // Three shards: the shard holding the packet barks with its own
    // routers only, whether stepped inline or run on the fleet, where the
    // poisoned barrier carries its message out to the caller.
    let three = stepped(3);
    let dump = three.strip_prefix(BARK).expect("inline bark");
    assert!(dump.starts_with("shard 0 diagnostic @ cycle 3: "), "{dump}");
    assert!(dump.contains("  router 0: "), "{dump}");
    assert!(
        !dump.contains("  router 15: "),
        "a shard dumps its own routers only: {dump}"
    );
    let fleet = panic_text(&mut || {
        let _ = build(3).run();
    });
    assert_eq!(
        fleet.strip_prefix("worker fleet panicked: "),
        Some(three.as_str()),
        "fleet bark: {fleet}"
    );
}
