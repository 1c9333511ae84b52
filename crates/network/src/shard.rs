//! Shard state: the per-worker slice of a simulation.
//!
//! [`crate::sim::NetworkSim`] is built from [`Shard`]s, one per worker.
//! A shard owns a contiguous node-id range of routers and endpoints
//! (see [`crate::topology::ShardMap`]), its own delivery wheel, the
//! idle-skip wake arrays of its routers and endpoints, its watchdog, and
//! its injection counters. Every cycle splits into:
//!
//! * **Phase A** ([`Shard::phase_a`]) — step the shard's routers, drain
//!   its due deliveries, let its endpoints inject. Deliveries are
//!   scheduled on the shard's own wheel immediately (a delivery is
//!   emitted by the destination's own router, so it never crosses a
//!   shard); forwards and credits are *deferred* to the caller's outbox
//!   as [`ShardEvent`]s, tagged with the emitting router.
//! * **Phase B** ([`Shard::apply`]) — apply the deferred events destined
//!   to this shard, in ascending `(source router, emission order)`
//!   sequence. This reproduces the order in which an engine that applies
//!   events inline inserts them into the destination's event wheel, and
//!   — because every event's effect tick lies strictly in the future —
//!   deferring the application to the end of the cycle is behaviorally
//!   invisible (the one-cycle-horizon argument; see DESIGN.md "One
//!   engine, N shards").
//!
//! Both phases run from the engine's one segment body, whichever driver
//! (the calling thread alone, or one thread per shard) runs it.
//!
//! A packet that crossed a link — a forward in phase B, a retransmission
//! in its receiver's fault slot — enters its router only through
//! `Shard::receive`. After every hand-off to a router (a step, a packet,
//! a credit, an injection) its wake becomes its `next_work`, in
//! `Shard::rearm`.
//!
//! The shard measures nothing itself: phase A emits one [`MeasureRecord`]
//! per delivery at or after warm-up, and [`replay_records`] — the one
//! function that says what a measured delivery adds to the report —
//! replays all shards' records in the canonical key order, so even the
//! floating-point Welford sums match the one-shard run bit for bit.

use crate::fault::{Admission, DeadLinks, FaultPlane, RetryOutcome};
use crate::routing::route_for;
use crate::sim::{Endpoint, NetworkConfig, NodeCtx};
use crate::topology::{LinkTarget, NetTopology, ShardMap};
use arbitration::ports::{InputPort, OutputPort};
use router::router::OutgoingPacket;
use router::{IncomingPacket, Packet, Router, RouterOutput, VcId};
use simcore::stats::{Histogram, OnlineStats};
use simcore::wheel::TimingWheel;
use simcore::{SimRng, Tick};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-cycle constants shared by both phases of every shard.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CycleEnv {
    pub(crate) topology: NetTopology,
    pub(crate) now: Tick,
    pub(crate) cycle: u64,
    pub(crate) warmup_end: Tick,
    pub(crate) core_period: Tick,
    pub(crate) link_latency: Tick,
}

impl CycleEnv {
    pub(crate) fn at(cfg: &NetworkConfig, cycle: u64) -> Self {
        let timing = cfg.router.timing();
        let core = timing.core;
        CycleEnv {
            topology: cfg.topology,
            now: core.edge(cycle),
            cycle,
            warmup_end: core.edge(cfg.warmup_cycles),
            core_period: core.period(),
            link_latency: timing.link_latency_ticks(),
        }
    }
}

/// A deferred cross-router event: a forward, a credit, or a fault-plane
/// link death that every shard must apply to its [`DeadLinks`] replica.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ShardEvent {
    /// A packet dispatched through `output`, applied at the link peer's
    /// shard.
    Forward(OutgoingPacket),
    /// A `vc` slot of `input` released at `at`, applied at the shard of
    /// the upstream router feeding `input`.
    Credit {
        input: InputPort,
        vc: VcId,
        at: Tick,
    },
    /// The directed link leaving `node` through `output` died (retry
    /// exhaustion). Broadcast to *every* shard so all [`DeadLinks`]
    /// replicas update in the same canonical event position.
    LinkDead { node: u16, output: OutputPort },
}

/// A deferred event, tagged with the router that emitted it. Within one
/// outbox bucket, events keep their emission order; across buckets the
/// engine establishes ascending-source order by visiting source shards
/// in index order (shards are contiguous).
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutEvent {
    pub(crate) src: u16,
    pub(crate) ev: ShardEvent,
}

/// The shards that must apply a deferred event emitted by router `src`: a
/// forward goes to the shard owning the link neighbour it enters, a
/// credit to the one owning the upstream router it returns to; a link
/// death is broadcast, because every shard must mask the link out of its
/// routing decisions (and the receiver-owning shard tears down the
/// retransmit state).
pub(crate) fn event_shards(
    topo: &NetTopology,
    map: &ShardMap,
    src: u16,
    ev: &ShardEvent,
) -> std::ops::Range<usize> {
    let dst = match *ev {
        ShardEvent::Forward(o) => {
            topo.link(src, o.output)
                .expect("forward along an unwired port")
                .peer
        }
        ShardEvent::Credit { input, .. } => {
            topo.feeder(src, input)
                .expect("credit for an unwired input")
                .0
        }
        ShardEvent::LinkDead { .. } => return 0..map.shards(),
    };
    let dst = map.shard_of(dst);
    dst..dst + 1
}

/// The due word of at most 64 nodes' `wakes`: bit `i` is set iff
/// `wakes[i] <= now`, built without a branch so that a walk pays a
/// find-first per due node instead of a test per node.
fn due_word(wakes: &[Tick], now: Tick) -> u64 {
    debug_assert!(wakes.len() <= 64);
    wakes
        .iter()
        .enumerate()
        .fold(0, |word, (bit, &wake)| word | u64::from(wake <= now) << bit)
}

/// A pending delivery on a shard's wheel, carrying the canonical emission
/// key of the `Delivered` event that scheduled it.
#[derive(Debug)]
struct Delivery {
    node: u16,
    emit_cycle: u64,
    emit_seq: u32,
    packet: Packet,
}

/// One measured delivery, keyed for the canonical cross-shard replay.
///
/// A one-shard run records latencies in its single delivery wheel's
/// drain order: `(delivery tick, wheel insertion order)`, where
/// insertion order is `(emission cycle, emitting router, per-step
/// emission index)` — routers are stepped in id order within a cycle.
/// Sorting records by [`MeasureRecord::key`] therefore reconstructs the
/// exact global sequence from per-shard streams.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MeasureRecord {
    at: Tick,
    emit_cycle: u64,
    node: u16,
    emit_seq: u32,
    flits: u32,
    transit_ns: f64,
    total_ns: f64,
    /// Round-trip latency of the closed-loop transaction this delivery
    /// completed (`None` for deliveries that are not terminal replies).
    txn_ns: Option<f64>,
}

impl MeasureRecord {
    fn key(&self) -> (u64, u64, u16, u32) {
        (
            self.at.as_ticks(),
            self.emit_cycle,
            self.node,
            self.emit_seq,
        )
    }
}

/// Everything the report measures about deliveries, fed only by
/// [`replay_records`]. The packet and transaction counts are the
/// `transit` and `txn` accumulators' sample counts.
pub(crate) struct Measured {
    pub(crate) flits: u64,
    pub(crate) transit: OnlineStats,
    pub(crate) total: OnlineStats,
    /// Transaction round trips, one per measured terminal reply.
    pub(crate) txn: OnlineStats,
    /// 10 ns bins up to 2 µs; saturated tails land in the overflow bucket.
    pub(crate) transit_hist: Histogram,
    /// A closed-loop round trip is two network transits plus the 73 ns
    /// memory (or L2) lookup plus source queueing, so the clamp sits 4×
    /// above the packet-transit histogram's.
    pub(crate) txn_hist: Histogram,
}

impl Default for Measured {
    fn default() -> Self {
        Measured {
            flits: 0,
            transit: OnlineStats::new(),
            total: OnlineStats::new(),
            txn: OnlineStats::new(),
            transit_hist: Histogram::new(0.0, 2000.0, 200),
            txn_hist: Histogram::new(0.0, 8000.0, 200),
        }
    }
}

/// Sorts one cycle's measurement records into canonical order and replays
/// them into `into`, draining the buffer: the one place that says what a
/// measured delivery adds to the report. Feeding each cycle's batch (from
/// any number of shards) through this reproduces the one-shard
/// floating-point accumulation bit for bit; the counts and histogram bins
/// are integers, which no order changes.
pub(crate) fn replay_records(records: &mut Vec<MeasureRecord>, into: &mut Measured) {
    records.sort_unstable_by_key(MeasureRecord::key);
    for r in records.drain(..) {
        into.flits += u64::from(r.flits);
        into.transit.record(r.transit_ns);
        into.transit_hist.record(r.transit_ns);
        into.total.record(r.total_ns);
        if let Some(txn_ns) = r.txn_ns {
            into.txn.record(txn_ns);
            into.txn_hist.record(txn_ns);
        }
    }
}

/// Forward-progress bookkeeping of one shard, kept across calls: with
/// packets in the shard but no delivery anywhere for `budget` consecutive
/// cycles, something is wedged (lost credit, dead escape path, protocol
/// bug).
#[derive(Default)]
struct Watchdog {
    /// This shard's deliveries already added to the fleet-wide counter.
    published: u64,
    /// The fleet-wide counter when it last moved.
    seen: u64,
    /// Consecutive cycles since.
    stall: u64,
}

/// The per-worker slice of a simulation: routers, endpoints, deliveries,
/// idle-skip state and injection counters for one contiguous node range.
pub(crate) struct Shard<E> {
    /// This shard's index in the engine's shard map.
    pub(crate) index: usize,
    /// First node id of this shard's contiguous range.
    base: u16,
    pub(crate) routers: Vec<Router>,
    pub(crate) endpoints: Vec<E>,
    /// Pending deliveries for this shard's nodes, keyed by last-flit time.
    /// Deliveries never cross shards (the destination's own router emits
    /// them), so per-shard wheels drain in the same relative order the
    /// single global wheel would.
    deliveries: TimingWheel<Delivery>,
    delivery_scratch: Vec<(Tick, Delivery)>,
    scratch: Vec<RouterOutput>,
    /// Idle-skip: step a router only while it has work (see
    /// [`crate::sim::NetworkSim::set_idle_skip`]).
    idle_skip: bool,
    /// Per local router: the earliest tick at which it must be stepped
    /// again, its [`Router::next_work`] since the last hand-off
    /// ([`Shard::rearm`]); `Tick::ZERO` throughout while idle-skip is off.
    wake_at: Vec<Tick>,
    /// Per local endpoint: its last [`Endpoint::next_wake`] answer
    /// (`Tick::ZERO` while idle-skip is off), lowered to "now" when its
    /// router frees a slot on a port in `refused`.
    ep_wake: Vec<Tick>,
    /// Per local endpoint: the local inputs its last `on_cycle` was
    /// refused for space at ([`NodeCtx::inject`]).
    refused: Vec<u8>,
    pub(crate) skipped_steps: u64,
    pub(crate) injected_packets: u64,
    pub(crate) injected_flits: u64,
    /// The fault plane, present only when fault injection is configured
    /// — `None` costs one branch per phase and guarantees zero RNG
    /// draws (the zero-fault tax pinned by `tests/fault_plane.rs`).
    faults: Option<FaultPlane>,
    /// Every delivery to a local endpoint, warmup included — the
    /// forward-progress signal the watchdog monitors.
    pub(crate) delivered_all: u64,
    watchdog: Watchdog,
    /// Phase A's deferred events, one buffer per destination shard,
    /// handed to the engine's outboxes when the phase ends.
    pub(crate) staged: Vec<Vec<OutEvent>>,
}

impl<E: Endpoint> Shard<E> {
    /// Builds shard `index` of `map`, owning `endpoints`. Router RNG
    /// streams are forked from the config seed by *global* node id, so
    /// the resulting simulation state is independent of the partition.
    pub(crate) fn new(
        cfg: &NetworkConfig,
        map: &ShardMap,
        index: usize,
        endpoints: Vec<E>,
    ) -> Self {
        let base = map.range(index).start;
        let root = SimRng::from_seed(cfg.seed);
        let routers: Vec<Router> = (0..endpoints.len() as u16)
            .map(|i| {
                let id = base + i;
                Router::new(id, cfg.router.clone(), root.fork(id as u64))
            })
            .collect();
        let timing = cfg.router.timing();
        let faults = cfg.fault.injection_enabled().then(|| {
            FaultPlane::new(
                &cfg.fault,
                &cfg.topology,
                cfg.seed,
                timing.core.period(),
                timing.link_latency_ticks(),
                base,
                endpoints.len() as u16,
            )
        });
        Shard {
            index,
            base,
            deliveries: TimingWheel::new(timing.core.period(), 256),
            delivery_scratch: Vec::with_capacity(64),
            scratch: Vec::with_capacity(64),
            idle_skip: true,
            wake_at: vec![Tick::ZERO; routers.len()],
            ep_wake: vec![Tick::ZERO; routers.len()],
            refused: vec![0; routers.len()],
            skipped_steps: 0,
            injected_packets: 0,
            injected_flits: 0,
            faults,
            delivered_all: 0,
            watchdog: Watchdog::default(),
            staged: vec![Vec::new(); map.shards()],
            routers,
            endpoints,
        }
    }

    pub(crate) fn set_idle_skip(&mut self, enabled: bool) {
        self.idle_skip = enabled;
        if !enabled {
            self.wake_at.fill(Tick::ZERO);
            self.ep_wake.fill(Tick::ZERO);
        }
    }

    /// Mutable access to local endpoint `i`. Whatever the caller changes
    /// may void the endpoint's last [`Endpoint::next_wake`] promise, so
    /// the next cycle calls it again.
    pub(crate) fn endpoint_mut(&mut self, i: usize) -> &mut E {
        self.ep_wake[i] = Tick::ZERO;
        &mut self.endpoints[i]
    }

    /// The shard's fault plane, when fault injection is configured.
    pub(crate) fn faults(&self) -> Option<&FaultPlane> {
        self.faults.as_ref()
    }

    /// Packets this shard is responsible for that have not reached an
    /// endpoint: buffered in routers, parked on the delivery wheel, or
    /// held in link retransmit buffers. The watchdog pairs this with
    /// [`Shard::delivered_all`]: occupancy without delivery is a wedge.
    pub(crate) fn occupancy(&self) -> u64 {
        let buffered: u64 = self
            .routers
            .iter()
            .map(|r| r.accounted_packets() as u64)
            .sum();
        buffered
            + self.deliveries.len() as u64
            + self.faults.as_ref().map_or(0, |p| p.queued_packets)
    }

    /// Appends this shard's section of a diagnostic dump after `cycle`
    /// cycles: a header with its occupancy and the fleet-wide delivery
    /// count `delivered`, then one line per router with occupancy and
    /// credit state, plus any interesting link-layer state.
    pub(crate) fn diagnostics(&self, cycle: u64, delivered: u64, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "shard {} diagnostic @ cycle {cycle}: occupancy {} packet(s), {delivered} delivered fleet-wide",
            self.index,
            self.occupancy(),
        );
        for (i, r) in self.routers.iter().enumerate() {
            let node = self.base + i as u16;
            let _ = writeln!(out, "  router {node}: {}", r.diagnostics());
        }
        if let Some(plane) = &self.faults {
            plane.diagnostics(out);
        }
    }

    /// Runs the watchdog once `cycle` cycles are complete: publishes this
    /// shard's new deliveries to the fleet-wide counter `delivered`, then
    /// counts the cycles in which that counter has not moved while this
    /// shard holds packets. Under the threaded driver a peer's
    /// publication may land a cycle late — benign against budgets of
    /// thousands of cycles.
    ///
    /// # Panics
    ///
    /// Panics with this shard's [`Shard::diagnostics`] once `budget`
    /// such cycles pass in a row.
    pub(crate) fn watchdog(&mut self, cycle: u64, budget: u64, delivered: &AtomicU64) {
        let fresh = self.delivered_all - self.watchdog.published;
        if fresh > 0 {
            delivered.fetch_add(fresh, Ordering::Relaxed);
            self.watchdog.published = self.delivered_all;
        }
        let seen = delivered.load(Ordering::Relaxed);
        if seen != self.watchdog.seen || self.occupancy() == 0 {
            self.watchdog.seen = seen;
            self.watchdog.stall = 0;
            return;
        }
        self.watchdog.stall += 1;
        if self.watchdog.stall >= budget {
            let mut bark =
                format!("watchdog: no delivery for {budget} cycles with packets in flight\n");
            self.diagnostics(cycle, seen, &mut bark);
            panic!("{bark}");
        }
    }

    /// Phase A of one core cycle, in the same order the original
    /// single-threaded engine used:
    ///
    /// 1. routers arbitrate and emit events (skipping a router until its
    ///    wake tick, its [`Router::next_work`] — a skipped step would have
    ///    been a no-op); `Delivered` lands on the shard's wheel, everything
    ///    else goes to `emit`; a step that frees a slot on a local input
    ///    that refused its endpoint's last `on_cycle` makes that endpoint
    ///    due now;
    /// 2. deliveries due now reach their endpoints, appending a
    ///    [`MeasureRecord`] per measured delivery;
    /// 3. endpoints generate new traffic (skipping an endpoint until the
    ///    tick its [`Endpoint::next_wake`] named — by that contract a
    ///    skipped `on_cycle` would have been a no-op; a delivery in step 2
    ///    re-asks, unless the endpoint is due already).
    ///
    /// Steps 1 and 3 visit only what is due: one due word per 64 nodes
    /// (bit set iff the wake tick has come), walked by find-first. Only
    /// a shard with a fault plane visits every router, for its fault slot.
    ///
    /// Endpoint decisions cannot observe the deferred events: injections
    /// check `free_space` on *local* input ports only, while forwards
    /// reserve torus-input slots, and a credit's effect tick lies cycles
    /// ahead — so deferring the application to [`Shard::apply`] after the
    /// barrier leaves phase A bit-identical to inline application.
    pub(crate) fn phase_a(
        &mut self,
        env: &CycleEnv,
        emit: &mut impl FnMut(u16, ShardEvent),
        records: &mut Vec<MeasureRecord>,
    ) {
        let now = env.now;
        // 0. Fault-plane cycle boundary: the scheduled kills due now,
        // before any router's slot.
        if let Some(plane) = self.faults.as_mut() {
            plane.begin_cycle(&env.topology, env.cycle);
        }
        // 1. Routers, by due word: a step re-arms only its own router, so a
        // word read before its walk stays exact throughout it. The fault
        // slot runs for every local router — including idle-skipped ones —
        // so refunds, retries, and death events hold their canonical
        // per-source position; it may hand its own router a retransmission,
        // so with a fault plane each wake is tested after the slot.
        let mut scratch = std::mem::take(&mut self.scratch);
        let n = self.routers.len();
        for base in (0..n).step_by(64) {
            let wakes = &self.wake_at[base..n.min(base + 64)];
            let mut visit = if self.faults.is_some() {
                u64::MAX >> (64 - wakes.len())
            } else {
                let due = due_word(wakes, now);
                self.skipped_steps += (wakes.len() - due.count_ones() as usize) as u64;
                due
            };
            while visit != 0 {
                let i = base + visit.trailing_zeros() as usize;
                visit &= visit - 1;
                let src = self.base + i as u16;
                if self.faults.is_some() {
                    self.fault_slot(env, i, emit);
                    if now < self.wake_at[i] {
                        self.skipped_steps += 1;
                        continue;
                    }
                }
                scratch.clear();
                if self.routers[i].step(now, &mut scratch) & self.refused[i] != 0 {
                    self.ep_wake[i] = self.ep_wake[i].min(now);
                }
                for (seq, ev) in scratch.drain(..).enumerate() {
                    match ev {
                        RouterOutput::Delivered { packet, at, .. } => {
                            self.deliveries.schedule(
                                at,
                                Delivery {
                                    node: src,
                                    emit_cycle: env.cycle,
                                    emit_seq: seq as u32,
                                    packet,
                                },
                            );
                        }
                        RouterOutput::Forward(o) => emit(src, ShardEvent::Forward(o)),
                        RouterOutput::Credit { input, vc, at } => {
                            emit(src, ShardEvent::Credit { input, vc, at })
                        }
                    }
                }
                self.rearm(i);
            }
        }
        self.scratch = scratch;

        // 2. Deliveries due now reach their endpoints.
        let mut due = std::mem::take(&mut self.delivery_scratch);
        due.clear();
        self.deliveries.drain_due(now, &mut due);
        for &(at, ref d) in &due {
            self.delivered_all += 1;
            let local = (d.node - self.base) as usize;
            let txn = self.endpoints[local].on_delivered(&d.packet, at);
            // A wake already due stays due: step 1 may have set it for a
            // freed slot that `next_wake` leaves out.
            if self.idle_skip && self.ep_wake[local] > now {
                self.ep_wake[local] = self.endpoints[local].next_wake();
            }
            if at >= env.warmup_end {
                records.push(MeasureRecord {
                    at,
                    emit_cycle: d.emit_cycle,
                    node: d.node,
                    emit_seq: d.emit_seq,
                    flits: d.packet.len(),
                    transit_ns: (at - d.packet.injected).as_ns(),
                    total_ns: (at - d.packet.birth).as_ns(),
                    txn_ns: txn.map(|t| (at - t.issued).as_ns()),
                });
            }
        }
        self.delivery_scratch = due;

        // 3. Endpoints generate new traffic, by due word: their wakes move
        // only in step 2 and in their own `on_cycle`.
        for base in (0..n).step_by(64) {
            let mut due = due_word(&self.ep_wake[base..n.min(base + 64)], now);
            while due != 0 {
                let i = base + due.trailing_zeros() as usize;
                due &= due - 1;
                let mut ctx = NodeCtx {
                    router: &mut self.routers[i],
                    topology: &env.topology,
                    dead: match &self.faults {
                        Some(p) => &p.dead,
                        None => DeadLinks::empty(),
                    },
                    node: self.base + i as u16,
                    now,
                    core_period: env.core_period,
                    injected_packets: &mut self.injected_packets,
                    injected_flits: &mut self.injected_flits,
                    woke: false,
                    refused: 0,
                };
                self.endpoints[i].on_cycle(&mut ctx);
                self.refused[i] = ctx.refused;
                if ctx.woke {
                    self.rearm(i);
                }
                if self.idle_skip {
                    self.ep_wake[i] = self.endpoints[i].next_wake();
                }
            }
        }
    }

    /// The one wake rule: after any hand-off to local router `i` — its own
    /// step, an arriving packet or credit, an injection — its wake is its
    /// [`Router::next_work`]. A hand-off only schedules on the router's
    /// housekeeping wheel, which can lower `next_work` and changes no
    /// other input of it. Applying it in phase B rather than at emission
    /// is exact because an event's earliest effect tick lies strictly
    /// after the cycle that emitted it.
    fn rearm(&mut self, i: usize) {
        if self.idle_skip {
            self.wake_at[i] = self.routers[i].next_work();
        }
    }

    /// The one path by which a packet that crossed a link enters a router:
    /// a forward in phase B, or a retransmission in its receiver's fault
    /// slot. Routes the packet at `to.peer` against the dead mask and
    /// hands it to the router through `to.entry`, re-arming its wake; with
    /// no route left it is dropped with a credit refund. Returns whether
    /// the router took it.
    fn receive(
        &mut self,
        topo: &NetTopology,
        to: LinkTarget,
        packet: Packet,
        vc: VcId,
        pin_time: Tick,
        in_flit_period: Tick,
    ) -> bool {
        let dead = self.faults.as_ref().map_or(DeadLinks::empty(), |p| &p.dead);
        let Some(route) = route_for(topo, dead, to.peer, &packet) else {
            self.faults
                .as_mut()
                .expect("routes only fail once links have died")
                .drop_with_refund(to.peer, to.entry, vc);
            return false;
        };
        let i = (to.peer - self.base) as usize;
        self.routers[i].accept_packet(
            to.entry,
            IncomingPacket {
                packet,
                route,
                vc,
                pin_time,
                in_flit_period,
            },
        );
        self.rearm(i);
        true
    }

    /// The fault-plane slot of local router `i` in phase A, which owns
    /// the state of `i`'s inbound links: step their flap machines, emit
    /// the credit refunds `i` owes, then fire `i`'s due retransmit timers
    /// in entry-port order. Runs just before `i`'s own step (and even
    /// when the step is idle-skipped), so every event it emits holds a
    /// deterministic per-source position.
    fn fault_slot(&mut self, env: &CycleEnv, i: usize, emit: &mut impl FnMut(u16, ShardEvent)) {
        let now = env.now;
        let src = self.base + i as u16;
        let plane = self.faults.as_mut().expect("fault_slot requires a plane");
        for r in plane.begin_slot(src) {
            let (input, vc) = (r.input, r.vc);
            emit(src, ShardEvent::Credit { input, vc, at: now });
        }
        let mut armed = plane.armed(src);
        while armed != 0 {
            let entry = InputPort::from_index(armed.trailing_zeros() as usize);
            armed &= armed - 1;
            let plane = self.faults.as_mut().expect("fault_slot requires a plane");
            match plane.fire(src, entry, now) {
                None | Some(RetryOutcome::Backoff) => {}
                Some(RetryOutcome::Deliver(tx)) => {
                    let to = LinkTarget { peer: src, entry };
                    if self.receive(&env.topology, to, tx.packet, tx.vc, now, tx.flit_period) {
                        let plane = self.faults.as_mut().expect("retransmits need a plane");
                        plane.record_retransmit_latency(now, tx.first_pin);
                    }
                }
                Some(RetryOutcome::Exhausted { src: node, output }) => {
                    // Broadcast so every shard's DeadLinks replica (and
                    // our own) applies the death at the same canonical
                    // event position.
                    emit(src, ShardEvent::LinkDead { node, output });
                }
            }
        }
    }

    /// Phase B: applies one deferred event to its destination, which must
    /// lie in this shard (link deaths are broadcast and applied by every
    /// shard). The caller supplies events in ascending `(source router,
    /// emission order)` sequence.
    pub(crate) fn apply(&mut self, env: &CycleEnv, src: u16, ev: ShardEvent) {
        match ev {
            ShardEvent::Forward(o) => {
                let to = env
                    .topology
                    .link(src, o.output)
                    .expect("forward along an unwired port");
                let packet = match self.faults.as_mut() {
                    Some(plane) => match plane.admit(to.peer, to.entry, o) {
                        Admission::Deliver(packet) => packet,
                        Admission::Held | Admission::Dropped => return,
                    },
                    None => o.packet,
                };
                let pin_time = o.first_flit + env.link_latency;
                self.receive(
                    &env.topology,
                    to,
                    packet,
                    o.downstream_vc,
                    pin_time,
                    o.flit_period,
                );
            }
            ShardEvent::Credit { input, vc, at } => {
                let (upstream, output) = env
                    .topology
                    .feeder(src, input)
                    .expect("credit for an unwired input");
                let i = (upstream - self.base) as usize;
                self.routers[i].accept_credit(output, vc, at + env.link_latency);
                self.rearm(i);
            }
            ShardEvent::LinkDead { node, output } => self
                .faults
                .as_mut()
                .expect("link deaths require a fault plane")
                .kill_link(&env.topology, node, output),
        }
    }
}
