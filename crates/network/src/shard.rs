//! Shard state: the per-worker slice of a simulation.
//!
//! [`crate::sim::NetworkSim`] is built from [`Shard`]s, one per worker.
//! A shard owns a contiguous node-id range of routers and endpoints
//! (see [`crate::topology::ShardMap`]), its own delivery wheel, the
//! idle-skip wake arrays of its routers and endpoints, its watchdog, and
//! the order-insensitive measurement accumulators (integer counters and
//! the latency histogram, whose merges are exact).
//! Every cycle splits into:
//!
//! * **Phase A** ([`Shard::phase_a`]) — step the shard's routers, drain
//!   its due deliveries, let its endpoints inject. `Delivered` events are
//!   scheduled on the shard's own wheel immediately (a delivery is
//!   emitted by the destination's own router, so it never crosses a
//!   shard); `Forward`/`Credit` events are *deferred* to the caller's
//!   outbox, tagged with the emitting router.
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
//! The only order-*sensitive* statistics — the Welford latency
//! accumulators, whose floating-point sums do not reassociate — are not
//! accumulated in the shard at all: phase A emits one [`MeasureRecord`]
//! per measured delivery, and the engine replays all shards' records
//! through [`replay_records`] in the canonical key order, reproducing the
//! one-shard accumulation bit for bit.

use crate::fault::{Admission, DeadLinks, FaultPlane, RetryOutcome};
use crate::routing::route_for;
use crate::sim::{Endpoint, NetworkConfig, NodeCtx};
use crate::topology::{NetTopology, ShardMap};
use arbitration::ports::{InputPort, OutputPort};
use router::{IncomingPacket, Packet, Router, RouterOutput};
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
        let core = cfg.router.timing.core;
        CycleEnv {
            topology: cfg.topology,
            now: core.edge(cycle),
            cycle,
            warmup_end: core.edge(cfg.warmup_cycles),
            core_period: core.period(),
            link_latency: cfg.router.timing.link_latency_ticks(),
        }
    }
}

/// A deferred cross-router event: a router's `Forward`/`Credit` output,
/// or a fault-plane link death that every shard must apply to its
/// [`DeadLinks`] replica.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ShardEvent {
    /// A router output (`Forward` or `Credit`), applied at its
    /// destination router's shard.
    Router(RouterOutput),
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

/// The destination router of a deferred event: the link neighbour a
/// forward enters, or the upstream neighbour a credit returns to.
fn event_destination(topo: &NetTopology, src: u16, ev: &RouterOutput) -> u16 {
    match ev {
        RouterOutput::Forward(o) => {
            topo.link(src, o.output)
                .expect("forward along an unwired port")
                .peer
        }
        RouterOutput::Credit { input, .. } => {
            topo.feeder(src, *input)
                .expect("credit for an unwired input")
                .0
        }
        RouterOutput::Delivered { .. } => src,
    }
}

/// The shards that must apply a deferred event emitted by router `src`: a
/// routed event goes to the shard owning its destination router; a link
/// death is broadcast, because every shard must mask the link out of its
/// routing decisions (and the receiver-owning shard tears down the
/// retransmit state).
pub(crate) fn event_shards(
    topo: &NetTopology,
    map: &ShardMap,
    src: u16,
    ev: &ShardEvent,
) -> std::ops::Range<usize> {
    match ev {
        ShardEvent::Router(out) => {
            let dst = map.shard_of(event_destination(topo, src, out));
            dst..dst + 1
        }
        ShardEvent::LinkDead { .. } => 0..map.shards(),
    }
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
    pub(crate) transit_ns: f64,
    pub(crate) total_ns: f64,
    /// Round-trip latency of the closed-loop transaction this delivery
    /// completed (`None` for deliveries that are not terminal replies).
    /// Riding the canonical replay keeps the per-transaction Welford
    /// accumulator bit-exact across worker counts.
    pub(crate) txn_ns: Option<f64>,
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

/// The order-sensitive latency accumulators, fed only by
/// [`replay_records`].
#[derive(Default)]
pub(crate) struct Latencies {
    pub(crate) transit: OnlineStats,
    pub(crate) total: OnlineStats,
    pub(crate) txn: OnlineStats,
}

/// Sorts one cycle's measurement records into canonical order and replays
/// them into `into`, draining the buffer. Feeding each cycle's batch
/// (from any number of shards) through this reproduces the one-shard
/// floating-point accumulation bit for bit.
pub(crate) fn replay_records(records: &mut Vec<MeasureRecord>, into: &mut Latencies) {
    records.sort_unstable_by_key(MeasureRecord::key);
    for r in records.drain(..) {
        into.transit.record(r.transit_ns);
        into.total.record(r.total_ns);
        if let Some(txn_ns) = r.txn_ns {
            into.txn.record(txn_ns);
        }
    }
}

/// The packet transit-latency histogram every shard partial and the
/// merged report use (`Histogram::merge` needs one shape): 10 ns bins
/// up to 2 µs; saturated tails beyond that land in the overflow bucket.
pub(crate) fn transit_histogram() -> Histogram {
    Histogram::new(0.0, 2000.0, 200)
}

/// The transaction-latency histogram every shard partial uses: a closed
/// -loop round trip is two network transits plus the 73 ns memory (or
/// L2) lookup plus source queueing, so the clamp sits 4× above the
/// packet-transit histogram; beyond-clamp round trips land in the
/// overflow bucket exactly like packet latencies.
pub(crate) fn txn_histogram() -> Histogram {
    Histogram::new(0.0, 8000.0, 200)
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
/// idle-skip state and order-insensitive accumulators for one contiguous
/// node range.
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
    /// Per local router: `Tick::ZERO` while awake; otherwise the earliest
    /// tick at which it must be stepped again.
    wake_at: Vec<Tick>,
    /// Per local endpoint: its last [`Endpoint::next_wake`] answer
    /// (`Tick::ZERO` while idle-skip is off).
    ep_wake: Vec<Tick>,
    pub(crate) skipped_steps: u64,
    pub(crate) injected_packets: u64,
    pub(crate) injected_flits: u64,
    pub(crate) measured_packets: u64,
    pub(crate) measured_flits: u64,
    /// Closed-loop transactions completed in the measurement window.
    pub(crate) measured_txns: u64,
    /// Transit-latency histogram partial (bin counts are integers, so
    /// shard partials merge exactly; see [`Histogram::merge`]).
    pub(crate) latency_hist: Histogram,
    /// Transaction round-trip latency histogram partial (merges exactly
    /// for the same reason).
    pub(crate) txn_latency_hist: Histogram,
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
        let faults = cfg.fault.injection_enabled().then(|| {
            FaultPlane::new(
                &cfg.fault,
                &cfg.topology,
                cfg.seed,
                cfg.router.timing.core.period(),
                cfg.router.timing.link_latency_ticks(),
                base,
                endpoints.len() as u16,
            )
        });
        Shard {
            index,
            base,
            deliveries: TimingWheel::new(cfg.router.timing.core.period(), 256),
            delivery_scratch: Vec::with_capacity(64),
            scratch: Vec::with_capacity(64),
            idle_skip: true,
            wake_at: vec![Tick::ZERO; routers.len()],
            ep_wake: vec![Tick::ZERO; routers.len()],
            skipped_steps: 0,
            injected_packets: 0,
            injected_flits: 0,
            measured_packets: 0,
            measured_flits: 0,
            measured_txns: 0,
            latency_hist: transit_histogram(),
            txn_latency_hist: txn_histogram(),
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

    /// Undelivered packets still parked on the delivery wheel.
    pub(crate) fn pending_deliveries(&self) -> usize {
        self.deliveries.len()
    }

    /// The shard's fault plane, when fault injection is configured.
    pub(crate) fn faults(&self) -> Option<&FaultPlane> {
        self.faults.as_ref()
    }

    /// Packets this shard is responsible for that have not reached an
    /// endpoint: buffered in routers, parked on the delivery wheel, or
    /// held in link retransmit buffers. The watchdog pairs this with
    /// [`Shard::delivered_all`]: occupancy without delivery is a wedge.
    fn occupancy(&self) -> u64 {
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
    /// 1. routers arbitrate and emit events (skipping quiescent routers
    ///    until their wake tick — a skipped step would have been a
    ///    no-op); `Delivered` lands on the shard's wheel, everything else
    ///    goes to `emit`;
    /// 2. deliveries due now reach their endpoints, appending a
    ///    [`MeasureRecord`] per measured delivery;
    /// 3. endpoints generate new traffic (skipping an endpoint until the
    ///    tick its [`Endpoint::next_wake`] named — by that contract a
    ///    skipped `on_cycle` would have been a no-op; a delivery in step 2
    ///    re-asks).
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
        // 1. Routers.
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in 0..self.routers.len() {
            let src = self.base + i as u16;
            // Fault slot: runs for every local router — including
            // idle-skipped ones — so refunds, retries, and death events
            // hold their canonical per-source position.
            if self.faults.is_some() {
                self.fault_slot(env, i, emit);
            }
            if self.idle_skip && now < self.wake_at[i] {
                self.skipped_steps += 1;
                continue;
            }
            self.wake_at[i] = Tick::ZERO;
            scratch.clear();
            self.routers[i].step(now, &mut scratch);
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
                    other => emit(src, ShardEvent::Router(other)),
                }
            }
            if self.idle_skip {
                self.wake_at[i] = self.routers[i].next_work();
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
            if self.idle_skip {
                self.ep_wake[local] = self.endpoints[local].next_wake();
            }
            if at >= env.warmup_end {
                let transit_ns = (at - d.packet.injected).as_ns();
                self.latency_hist.record(transit_ns);
                self.measured_packets += 1;
                self.measured_flits += d.packet.len() as u64;
                let txn_ns = txn.map(|t| (at - t.issued).as_ns());
                if let Some(txn_ns) = txn_ns {
                    self.measured_txns += 1;
                    self.txn_latency_hist.record(txn_ns);
                }
                records.push(MeasureRecord {
                    at,
                    emit_cycle: d.emit_cycle,
                    node: d.node,
                    emit_seq: d.emit_seq,
                    transit_ns,
                    total_ns: (at - d.packet.birth).as_ns(),
                    txn_ns,
                });
            }
        }
        self.delivery_scratch = due;

        // 3. Endpoints generate new traffic.
        for i in 0..self.routers.len() {
            if now < self.ep_wake[i] {
                continue;
            }
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
            };
            self.endpoints[i].on_cycle(&mut ctx);
            let woke = ctx.woke;
            if self.idle_skip {
                self.ep_wake[i] = self.endpoints[i].next_wake();
                if woke {
                    // An injection is processed by the router on a later
                    // edge; until then the router may stay asleep.
                    // Recompute the wake exactly (a `min` against the
                    // previous value could retain a stale earlier tick
                    // and trigger spurious steps).
                    self.wake_at[i] = self.routers[i].next_work();
                }
            }
        }
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
            emit(
                src,
                ShardEvent::Router(RouterOutput::Credit {
                    input: r.input,
                    vc: r.vc,
                    at: now,
                }),
            );
        }
        let mut armed = plane.armed(src);
        while armed != 0 {
            let entry = InputPort::from_index(armed.trailing_zeros() as usize);
            armed &= armed - 1;
            match plane.fire(src, entry, now) {
                None | Some(RetryOutcome::Backoff) => {}
                Some(RetryOutcome::Deliver(tx)) => {
                    match route_for(&env.topology, &plane.dead, src, &tx.packet) {
                        Some(route) => {
                            plane.record_retransmit_latency(now, tx.first_pin);
                            self.routers[i].accept_packet(
                                entry,
                                IncomingPacket {
                                    packet: tx.packet,
                                    route,
                                    vc: tx.vc,
                                    pin_time: now,
                                    in_flit_period: tx.flit_period,
                                },
                            );
                            // `next_wake` captures whether this arrival
                            // makes the upcoming step (or a later one)
                            // meaningful — the same invariant the apply
                            // path maintains.
                            self.wake_at[i] = self.wake_at[i].min(self.routers[i].next_wake());
                        }
                        None => plane.drop_with_refund(src, entry, tx.vc),
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
    ///
    /// The `next_wake` minimum re-arms idle-skip: applying it here rather
    /// than at emission time is exact because the event's earliest effect
    /// tick is strictly later than the cycle that emitted it, so the
    /// destination's skip decisions up to and including that cycle are
    /// unchanged, and `min(next_work(before), next_wake(after)) ==
    /// next_work(after)` re-establishes the invariant for the cycles
    /// after.
    pub(crate) fn apply(&mut self, env: &CycleEnv, src: u16, ev: ShardEvent) {
        let ev = match ev {
            ShardEvent::Router(ev) => ev,
            ShardEvent::LinkDead { node, output } => {
                let plane = self
                    .faults
                    .as_mut()
                    .expect("link deaths require a fault plane");
                plane.kill_link(&env.topology, node, output);
                return;
            }
        };
        match ev {
            RouterOutput::Forward(o) => {
                let target = env
                    .topology
                    .link(src, o.output)
                    .expect("forward along an unwired port");
                let (neighbor, entry) = (target.peer, target.entry);
                let pin_time = o.first_flit + env.link_latency;
                let local = (neighbor - self.base) as usize;
                let packet = if let Some(plane) = self.faults.as_mut() {
                    match plane.admit(neighbor, entry, o) {
                        Admission::Deliver(packet) => packet,
                        Admission::Held | Admission::Dropped => return,
                    }
                } else {
                    o.packet
                };
                let dead = match &self.faults {
                    Some(p) => &p.dead,
                    None => DeadLinks::empty(),
                };
                let Some(route) = route_for(&env.topology, dead, neighbor, &packet) else {
                    self.faults
                        .as_mut()
                        .expect("routes only fail once links have died")
                        .drop_with_refund(neighbor, entry, o.downstream_vc);
                    return;
                };
                self.routers[local].accept_packet(
                    entry,
                    IncomingPacket {
                        packet,
                        route,
                        vc: o.downstream_vc,
                        pin_time,
                        in_flit_period: o.flit_period,
                    },
                );
                self.wake_at[local] = self.wake_at[local].min(self.routers[local].next_wake());
            }
            RouterOutput::Credit { input, vc, at } => {
                let (upstream, output) = env
                    .topology
                    .feeder(src, input)
                    .expect("credit for an unwired input");
                let local = (upstream - self.base) as usize;
                self.routers[local].accept_credit(output, vc, at + env.link_latency);
                self.wake_at[local] = self.wake_at[local].min(self.routers[local].next_wake());
            }
            RouterOutput::Delivered { .. } => {
                unreachable!("deliveries are scheduled in phase A and never deferred")
            }
        }
    }
}
