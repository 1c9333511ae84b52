//! The network simulator: routers + links + endpoints.
//!
//! [`NetworkSim`] visits each 1.2 GHz core-clock edge, steps every router
//! that has work (quiescent routers are *skipped* — bit-for-bit
//! equivalently — until a packet, credit, or wake tick reaches them), and
//! moves the router outputs around:
//!
//! * **Forwards** cross a 0.8 GHz link with three link-clocks of wire
//!   latency (§4.1) and enter the neighbour through the opposite input
//!   port; the next hop's route is computed on arrival.
//! * **Credits** return to the upstream router with the same wire latency.
//! * **Deliveries** are handed to the destination node's [`Endpoint`] at
//!   last-flit time.
//!
//! Endpoints generate traffic: each core cycle, every node's endpoint may
//! inject packets through its local input ports (cache, memory
//! controllers, I/O), bounded by real buffer space. The `workload` crate's
//! coherence generator is the production endpoint; tests use simpler ones.
//!
//! The network is partitioned into contiguous node-range shards
//! ([`NetworkSim::with_workers`]); one shard runs inline on the calling
//! thread, several run on one thread each (the calling thread takes
//! shard 0), and the report is bit-for-bit identical either way.
//!
//! # Why a one-cycle horizon is safe
//!
//! Every inter-router interaction in the model crosses a network link,
//! and every link has the router timing's wire latency — three 0.8 GHz
//! link-clocks (= 4.5 core cycles) as shipped, and never less than one
//! core cycle ([`NetworkConfig::validate`] refuses a timing below that
//! floor); even a local injection is decoded cycles after it pins. So
//! any event a router emits at cycle *k* takes effect strictly after
//! cycle *k* — no router's cycle-*k* decisions can observe another
//! router's cycle-*k* outputs. That makes one core cycle a safe
//! parallelism quantum: run every shard's cycle-*k* phase A concurrently,
//! exchange the emitted `Forward`/`Credit` events at a barrier, apply
//! them (phase B), repeat. [`NetworkSim::step_cycle`] performs the same
//! two phases inline, so the equivalence is structural; the golden and
//! shard-equivalence suites pin it bit for bit.
//!
//! # Canonical order
//!
//! Determinism needs more than correctness of *values* — the events must
//! be applied to each destination router in the same *order* for every
//! shard count, and the order-sensitive floating-point latency
//! accumulators must see deliveries in the same sequence:
//!
//! * **Events**: the inline cycle applies events in emission order —
//!   ascending (source router, per-step emission index) within a cycle.
//!   Each worker writes per-destination outbox buckets in emission
//!   order; the destination drains source shards in index order, and
//!   because shards are contiguous node ranges that *is* ascending
//!   source order.
//! * **Latencies**: each measured delivery is tagged with its canonical
//!   key (delivery tick, emission cycle, destination router, emission
//!   index); each cycle's records are sorted on that key and replayed
//!   into one triple of Welford accumulators — the exact global
//!   wheel-drain order. All other statistics (counters, the latency
//!   histograms) merge exactly.
//!
//! # RNG streams
//!
//! Router and endpoint streams are forked per *node* from the run seed
//! (`seed.fork(node)` and `(seed ^ 0x5eed_f00d).fork(node)`), never per
//! shard, so partitioning cannot perturb a single random draw.

use crate::fault::{retransmit_histogram, DeadLinks, FaultConfig};
use crate::routing::route_for;
use crate::shard::{
    event_shards, replay_records, transit_histogram, txn_histogram, CycleEnv, MeasureRecord,
    OutEvent, Shard,
};
use crate::topology::{NetTopology, ShardMap};
use arbitration::ports::InputPort;
use router::{CoherenceClass, IncomingPacket, Packet, Router, RouterConfig, VcId};
use simcore::stats::{Histogram, OnlineStats};
use simcore::sweep::effective_workers;
use simcore::sync::SpinBarrier;
use simcore::Tick;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Result of an injection attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectionOutcome {
    /// The packet entered the router's input buffer.
    Accepted,
    /// The target virtual channel has no free buffer slot; try later.
    NoBufferSpace,
    /// Link deaths have disconnected the destination from this node: no
    /// route — minimal-adaptive or escape — survives the current
    /// [`DeadLinks`] mask. The packet never entered the network (it is
    /// not counted as injected); the endpoint must account for it rather
    /// than retry forever.
    Unreachable,
}

/// Per-node view handed to an [`Endpoint`] on every cycle it runs.
pub struct NodeCtx<'a> {
    pub(crate) router: &'a mut Router,
    pub(crate) topology: &'a NetTopology,
    pub(crate) node: u16,
    pub(crate) now: Tick,
    pub(crate) core_period: Tick,
    pub(crate) injected_packets: &'a mut u64,
    pub(crate) injected_flits: &'a mut u64,
    /// Link-death mask from the fault plane (the static empty mask when
    /// the fault plane is disabled); injection routes against it.
    pub(crate) dead: &'a DeadLinks,
    /// Set when an injection gave the router new work (idle-skip wake).
    pub(crate) woke: bool,
}

impl NodeCtx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// The run's core-clock period: `now() + core_period()` is the tick
    /// of the next cycle's [`Endpoint::on_cycle`].
    pub fn core_period(&self) -> Tick {
        self.core_period
    }

    /// The virtual channel an injected packet of `class` occupies at the
    /// source router: the class's adaptive channel for coherence traffic,
    /// the deadlock-free VC0 for the escape-only I/O classes, the special
    /// channel for specials.
    pub(crate) fn injection_vc(class: CoherenceClass) -> VcId {
        match class {
            CoherenceClass::Special => VcId::special(),
            CoherenceClass::ReadIo | CoherenceClass::WriteIo => {
                VcId::escape(class, router::EscapeVc::Vc0)
            }
            _ => VcId::adaptive(class),
        }
    }

    /// Injects a packet through a local input port.
    ///
    /// # Panics
    ///
    /// Panics if `input` is a torus port (local injection only) or if the
    /// packet's source is not this node.
    pub fn inject(&mut self, input: InputPort, mut packet: Packet) -> InjectionOutcome {
        assert!(input.is_local(), "injection uses local ports only");
        assert_eq!(packet.src, self.node, "packet source must be this node");
        let vc = Self::injection_vc(packet.class);
        if self.router.free_space(input, vc) == 0 {
            return InjectionOutcome::NoBufferSpace;
        }
        // Route before committing: a destination cut off by link deaths
        // is refused at the source instead of entering the network only
        // to be dropped at a dead hop.
        let Some(route) = route_for(self.topology, self.dead, self.node, &packet) else {
            return InjectionOutcome::Unreachable;
        };
        packet.injected = self.now;
        self.woke = true;
        *self.injected_packets += 1;
        *self.injected_flits += packet.len() as u64;
        self.router.accept_packet(
            input,
            IncomingPacket {
                packet,
                route,
                vc,
                pin_time: self.now,
                in_flit_period: self.core_period,
            },
        );
        InjectionOutcome::Accepted
    }
}

/// Reported by an endpoint whose delivery just completed a closed-loop
/// transaction (the terminal reply of a request→reply flow drained).
///
/// The engine turns the completion into a per-transaction latency sample
/// — `now - issued` nanoseconds, reply-drain minus request-issue — and
/// accumulates it through the same canonical-order replay as the packet
/// latencies, so the statistic is bit-exact across idle-skip settings
/// and worker counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnCompletion {
    /// Tick at which the requester *issued* the original request (packet
    /// creation, before source queueing — the closed-loop round trip
    /// includes the time spent waiting to enter the network).
    pub issued: Tick,
}

/// A per-node traffic agent. `Send` because a multi-shard
/// [`NetworkSim::run`] steps each shard's endpoints on its own thread.
pub trait Endpoint: Send {
    /// Called on every core cycle at or after the endpoint's last
    /// [`Endpoint::next_wake`] answer (so on every cycle, for an endpoint
    /// that keeps the default); may inject packets via `ctx`.
    fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>);

    /// The earliest tick at which `on_cycle` must run again — the
    /// endpoint's side of the idleness protocol (see
    /// [`NetworkSim::set_idle_skip`]). Returning `t` promises that every
    /// `on_cycle` before `t` would inject nothing, draw nothing observable
    /// and change no statistic, unless `on_delivered` is called first;
    /// the engine asks again after every `on_cycle` and `on_delivered`.
    /// The default, [`Tick::ZERO`], means "call me every cycle".
    fn next_wake(&self) -> Tick {
        Tick::ZERO
    }

    /// Called when a packet addressed to this node completes delivery.
    ///
    /// Returns `Some` when this delivery was the terminal reply of a
    /// closed-loop transaction; open-loop or packet-level endpoints
    /// return `None` and no transaction latency is recorded.
    fn on_delivered(&mut self, packet: &Packet, now: Tick) -> Option<TxnCompletion>;
}

/// Network configuration.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Network shape (torus, mesh, or full mesh).
    pub topology: NetTopology,
    /// Router configuration (shared by every node).
    pub router: RouterConfig,
    /// Simulation seed; routers fork per-node streams from it.
    pub seed: u64,
    /// Core cycles to run before statistics start (drains cold-start
    /// transients; the paper runs 75,000 cycles total, §4.3).
    pub warmup_cycles: u64,
    /// Core cycles measured after warmup.
    pub measure_cycles: u64,
    /// Deterministic fault plane: link BER, flaps, scheduled deaths, and
    /// the CRC/retransmission recovery protocol. The default config
    /// injects nothing and the engine then skips fault-plane construction
    /// entirely (zero cost, zero RNG draws).
    pub fault: FaultConfig,
}

impl NetworkConfig {
    /// Total simulated core cycles.
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles
    }
}

/// Aggregated results of one simulation.
#[derive(Clone, Debug)]
pub struct NetworkReport {
    /// Packets delivered inside the measurement window.
    pub delivered_packets: u64,
    /// Flits delivered inside the measurement window.
    pub delivered_flits: u64,
    /// Mean network-transit latency (ns), injection to last-flit delivery
    /// — the paper's "average latency of a packet through the network"
    /// (§4.3).
    pub latency: OnlineStats,
    /// Transit-latency distribution (ns).
    pub latency_hist: Histogram,
    /// Mean end-to-end latency (ns), packet creation to delivery,
    /// additionally counting source queueing.
    pub total_latency: OnlineStats,
    /// Delivered throughput in flits/router/ns — the paper's BNF x-axis.
    pub flits_per_router_ns: f64,
    /// Packets injected over the whole run (including warmup).
    pub injected_packets: u64,
    /// Flits injected over the whole run.
    pub injected_flits: u64,
    /// Packets still buffered in the network at the end.
    pub in_flight_packets: u64,
    /// Sum of router nomination counters.
    pub nominations: u64,
    /// Sum of router grant counters.
    pub grants: u64,
    /// Sum of router collision counters.
    pub collisions: u64,
    /// Sum of escape-channel dispatches.
    pub escape_dispatches: u64,
    /// Routers that engaged anti-starvation drain mode at least once.
    pub drain_engagements: u64,
    /// Sum of achieved window matching weights (nonzero only when
    /// `RouterConfig::measure_matching_weight` is set).
    pub matched_weight: u64,
    /// Sum of Hungarian maximum-weight-matching oracle weights over the
    /// same windows; `matched_weight / mwm_weight` is the network-wide
    /// optimality gap.
    pub mwm_weight: u64,
    /// Closed-loop transactions whose terminal reply drained inside the
    /// measurement window (0 for open-loop endpoints that never report a
    /// [`TxnCompletion`]).
    pub completed_txns: u64,
    /// Per-transaction round-trip latency (ns), request-issue to
    /// reply-drain — the closed-loop analogue of the BNF y-axis, immune
    /// to the open-loop backward bend because the requester cannot issue
    /// past its MSHR file.
    pub txn_latency: OnlineStats,
    /// Transaction-latency distribution (ns).
    pub txn_latency_hist: Histogram,
    /// Flits whose link traversal failed CRC (fault plane; 0 when off).
    pub flits_corrupted: u64,
    /// Timer-fired retransmission attempts (the inline first attempt of
    /// each hop is not counted).
    pub retransmissions: u64,
    /// Links declared dead after exhausting the bounded retry budget.
    pub retry_exhaustions: u64,
    /// Directed links dead at end of run (scheduled kills, dead-fraction
    /// selections, and retry exhaustions combined; each counted once).
    pub links_dead: u64,
    /// Packets dropped because link deaths severed every route to their
    /// destination — refused mid-network, never silently lost
    /// (`injected == delivered + in_flight + unreachable_drops`).
    pub unreachable_drops: u64,
    /// Extra latency (ns) imposed by the recovery protocol on packets
    /// that needed at least one retransmission: delivery-hop acceptance
    /// time minus the hop's first pin attempt.
    pub retransmit_latency_hist: Histogram,
}

impl NetworkReport {
    /// Mean latency in nanoseconds (NaN-free; 0 when nothing delivered).
    pub fn avg_latency_ns(&self) -> f64 {
        self.latency.mean()
    }

    /// Mean transaction round-trip latency in nanoseconds (0 when no
    /// closed-loop transaction completed in the measurement window).
    pub fn avg_txn_latency_ns(&self) -> f64 {
        self.txn_latency.mean()
    }

    /// Visits every field as `(name, exact u64 bits)`: counters as is,
    /// `f64` through `to_bits`, each `OnlineStats` as
    /// count/mean/variance/min/max, each `Histogram` as
    /// underflow/bins/overflow. The destructure below is exhaustive on
    /// purpose — a new field that is not visited fails to compile — so
    /// every comparison built on this covers the whole report.
    ///
    /// [`NetworkReport::digest`] and
    /// [`NetworkReport::assert_bit_identical`] both derive from this
    /// list. Only `perf/src/workloads.rs::digest`, frozen with the
    /// benchmark, still lists fields by hand.
    pub(crate) fn for_each_field(&self, mut visit: impl FnMut(&str, u64)) {
        let NetworkReport {
            delivered_packets,
            delivered_flits,
            latency,
            latency_hist,
            total_latency,
            flits_per_router_ns,
            injected_packets,
            injected_flits,
            in_flight_packets,
            nominations,
            grants,
            collisions,
            escape_dispatches,
            drain_engagements,
            matched_weight,
            mwm_weight,
            completed_txns,
            txn_latency,
            txn_latency_hist,
            flits_corrupted,
            retransmissions,
            retry_exhaustions,
            links_dead,
            unreachable_drops,
            retransmit_latency_hist,
        } = self;
        for (name, s) in [
            ("latency", latency),
            ("total_latency", total_latency),
            ("txn_latency", txn_latency),
        ] {
            visit(&format!("{name}.count"), s.count());
            visit(&format!("{name}.mean"), s.mean().to_bits());
            visit(&format!("{name}.variance"), s.variance().to_bits());
            visit(
                &format!("{name}.min"),
                s.min().unwrap_or(f64::NAN).to_bits(),
            );
            visit(
                &format!("{name}.max"),
                s.max().unwrap_or(f64::NAN).to_bits(),
            );
        }
        for (name, h) in [
            ("latency_hist", latency_hist),
            ("txn_latency_hist", txn_latency_hist),
            ("retransmit_latency_hist", retransmit_latency_hist),
        ] {
            visit(&format!("{name}.underflow"), h.underflow());
            for (i, &bin) in h.bins().iter().enumerate() {
                visit(&format!("{name}.bins[{i}]"), bin);
            }
            visit(&format!("{name}.overflow"), h.overflow());
        }
        for (name, value) in [
            ("delivered_packets", *delivered_packets),
            ("delivered_flits", *delivered_flits),
            ("flits_per_router_ns", flits_per_router_ns.to_bits()),
            ("injected_packets", *injected_packets),
            ("injected_flits", *injected_flits),
            ("in_flight_packets", *in_flight_packets),
            ("nominations", *nominations),
            ("grants", *grants),
            ("collisions", *collisions),
            ("escape_dispatches", *escape_dispatches),
            ("drain_engagements", *drain_engagements),
            ("matched_weight", *matched_weight),
            ("mwm_weight", *mwm_weight),
            ("completed_txns", *completed_txns),
            ("flits_corrupted", *flits_corrupted),
            ("retransmissions", *retransmissions),
            ("retry_exhaustions", *retry_exhaustions),
            ("links_dead", *links_dead),
            ("unreachable_drops", *unreachable_drops),
        ] {
            visit(name, value);
        }
    }

    /// 64-bit FNV-1a over the `(name, bits)` pairs `for_each_field`
    /// visits, skipping every pair whose bits are zero — so a field added
    /// later, zero in every existing run, leaves every existing digest
    /// unchanged. The golden report lines in `tests/golden/reports.txt`
    /// pin this value.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        self.for_each_field(|name, bits| {
            if bits != 0 {
                for &b in name.as_bytes().iter().chain(&bits.to_le_bytes()) {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        });
        hash
    }

    /// Asserts `self` and `other` agree on every field down to the raw
    /// `f64` bit patterns, so even one reordered floating-point
    /// accumulation fails.
    ///
    /// # Panics
    ///
    /// Panics naming the first differing field, prefixed with `label`.
    pub fn assert_bit_identical(&self, other: &NetworkReport, label: &str) {
        let mut theirs = Vec::new();
        other.for_each_field(|_, bits| theirs.push(bits));
        let mut theirs = theirs.into_iter();
        self.for_each_field(|name, bits| {
            let other_bits = theirs.next();
            assert!(
                other_bits == Some(bits),
                "{label}: reports differ at {name}: {bits} vs {other_bits:?}"
            );
        });
        assert_eq!(theirs.next(), None, "{label}: histogram shapes differ");
    }
}

/// Forward-progress watchdog: with packets buffered in the network but
/// no delivery for `budget` consecutive cycles, something is wedged (lost
/// credit, dead escape path, protocol bug) — panic with a structured
/// occupancy/credit dump instead of spinning silently. The inline cycle
/// and every fleet worker keep one; they differ only in which delivery
/// counter and which dump they hand it.
#[derive(Clone, Copy, Default)]
struct Watchdog {
    /// The delivery counter when it last moved.
    delivered: u64,
    /// Consecutive cycles since.
    stall: u64,
}

impl Watchdog {
    /// Records one cycle. `delivered` is any counter that moves whenever
    /// a packet is delivered; `occupancy` (consulted only when it has not
    /// moved) counts the packets that could still be.
    ///
    /// # Panics
    ///
    /// Panics with `dump()` once `budget` consecutive cycles pass without
    /// a delivery while packets are in flight.
    fn check(
        &mut self,
        budget: u64,
        delivered: u64,
        occupancy: impl FnOnce() -> u64,
        dump: impl FnOnce() -> String,
    ) {
        if delivered != self.delivered || occupancy() == 0 {
            self.delivered = delivered;
            self.stall = 0;
            return;
        }
        self.stall += 1;
        if self.stall >= budget {
            panic!(
                "watchdog: no delivery for {budget} cycles with packets in flight\n{}",
                dump()
            );
        }
    }
}

/// Extracts the human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "unknown panic"
    }
}

/// The simulator: the network partitioned into one or more contiguous
/// node-range `Shard`s, stepped one core cycle at a time.
///
/// Each cycle runs every shard's phase A (routers, deliveries,
/// endpoints) with `Forward`/`Credit` events deferred to an outbox, then
/// applies the outbox in canonical order (phase B). Deferring is
/// bit-for-bit equivalent to inline application because every event's
/// effect tick lies strictly beyond the emitting cycle (the
/// one-cycle-horizon argument in the module docs), so the report is
/// identical for every shard count; the golden-report and
/// shard-equivalence suites pin that.
///
/// [`NetworkSim::new`] builds one shard and runs everything on the
/// calling thread. [`NetworkSim::with_workers`] builds several;
/// [`NetworkSim::run`] then steps them on one thread each, while
/// [`NetworkSim::step_cycle`] steps them inline in index order.
pub struct NetworkSim<E: Endpoint> {
    cfg: NetworkConfig,
    topology: NetTopology,
    map: ShardMap,
    shards: Vec<Shard<E>>,
    outbox: Vec<OutEvent>,
    records: Vec<MeasureRecord>,
    cycle: u64,
    latency: OnlineStats,
    total_latency: OnlineStats,
    txn_latency: OnlineStats,
    /// Forward-progress bookkeeping of the inline cycle.
    watchdog: Watchdog,
}

impl<E: Endpoint> NetworkSim<E> {
    /// Builds a simulator with one endpoint per node, run on the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// As [`NetworkSim::with_workers`].
    pub fn new(cfg: NetworkConfig, endpoints: Vec<E>) -> Self {
        Self::with_workers(cfg, endpoints, 1)
    }

    /// Builds a simulator with one endpoint per node, split across
    /// `workers` shards that [`NetworkSim::run`] steps on one thread
    /// each, shard 0 on the calling thread. `workers == 0` means the
    /// machine's available parallelism; requests beyond the node count
    /// are clamped to one node per shard ([`effective_workers`]).
    /// Reports are bit-for-bit identical for every worker count.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError)'s message when
    /// [`NetworkConfig::validate`] refuses `cfg`, and unless
    /// `endpoints.len()` equals the node count.
    pub fn with_workers(cfg: NetworkConfig, endpoints: Vec<E>, workers: usize) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let topology = cfg.topology;
        assert_eq!(
            endpoints.len(),
            topology.nodes() as usize,
            "one endpoint per node"
        );
        let workers = effective_workers(workers, topology.nodes() as usize);
        let map = ShardMap::new(&topology, workers);
        // Peel shards off the back so each `split_off` moves only that
        // shard's endpoints, and shard 0 (the only one, for one worker)
        // keeps the caller's allocation without a copy.
        let mut rest = endpoints;
        let mut shards: Vec<Shard<E>> = (0..map.shards())
            .rev()
            .map(|s| {
                let base = map.range(s).start;
                Shard::new(&cfg, base, rest.split_off(base as usize))
            })
            .collect();
        shards.reverse();
        NetworkSim {
            map,
            shards,
            outbox: Vec::with_capacity(64),
            records: Vec::with_capacity(64),
            cycle: 0,
            latency: OnlineStats::new(),
            total_latency: OnlineStats::new(),
            txn_latency: OnlineStats::new(),
            watchdog: Watchdog::default(),
            topology,
            cfg,
        }
    }

    /// Number of shards (= threads [`NetworkSim::run`] uses, the calling
    /// one included).
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `node` and the node's index inside it.
    fn locate(&self, node: u16) -> (usize, usize) {
        let s = self.map.shard_of(node);
        (s, (node - self.map.range(s).start) as usize)
    }

    /// Endpoint access.
    pub fn endpoint(&self, node: u16) -> &E {
        let (s, i) = self.locate(node);
        &self.shards[s].endpoints[i]
    }

    /// Mutable endpoint access (drain control in conservation tests:
    /// e.g. halting a closed-loop generator before stepping the network
    /// to empty).
    pub fn endpoint_mut(&mut self, node: u16) -> &mut E {
        let (s, i) = self.locate(node);
        self.shards[s].endpoint_mut(i)
    }

    /// Enables or disables idle-skip (on by default): a router is not
    /// stepped, and an endpoint's `on_cycle` not called, before the tick
    /// it named as its next work ([`Router::next_work`],
    /// [`Endpoint::next_wake`]). The two modes produce bit-for-bit
    /// identical results; disabling exists for equivalence testing and
    /// engine benchmarking.
    pub fn set_idle_skip(&mut self, enabled: bool) {
        for shard in &mut self.shards {
            shard.set_idle_skip(enabled);
        }
    }

    /// Router steps avoided by idle-skip so far.
    pub fn skipped_router_steps(&self) -> u64 {
        self.shards.iter().map(|s| s.skipped_steps).sum()
    }

    /// Runs the configured warmup + measurement window and reports: one
    /// shard loops [`NetworkSim::step_cycle`] on the calling thread,
    /// several hand the remaining cycles to the worker fleet.
    pub fn run(&mut self) -> NetworkReport {
        let total = self.cfg.total_cycles();
        if self.shards.len() == 1 {
            while self.cycle < total {
                self.step_cycle();
            }
        } else if self.cycle < total {
            self.run_fleet(total);
            self.cycle = total;
        }
        self.report()
    }

    /// Advances exactly one core cycle on the calling thread, whatever
    /// the shard count (incremental tests, traced runs, post-run drains).
    pub fn step_cycle(&mut self) {
        let env = CycleEnv::at(&self.cfg, self.cycle);

        // Phase A: routers, deliveries, endpoints; Forward/Credit events
        // land in the outbox in emission order. Visiting shards in index
        // order makes that the canonical `(source router ascending,
        // per-step emission index)` order, because shards are contiguous
        // ascending node ranges and each visits its routers in id order.
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut records = std::mem::take(&mut self.records);
        for shard in &mut self.shards {
            shard.phase_a(
                &env,
                &mut |src, ev| outbox.push(OutEvent { src, ev }),
                &mut records,
            );
        }

        // Phase B: apply the deferred events in that order.
        if let [shard] = &mut self.shards[..] {
            for OutEvent { src, ev } in outbox.drain(..) {
                shard.apply(&env, src, ev);
            }
        } else {
            for OutEvent { src, ev } in outbox.drain(..) {
                for dst in event_shards(&self.topology, &self.map, src, &ev) {
                    self.shards[dst].apply(&env, src, ev);
                }
            }
        }
        self.outbox = outbox;

        // Latency accumulation in canonical delivery order.
        replay_records(
            &mut records,
            &mut self.latency,
            &mut self.total_latency,
            &mut self.txn_latency,
        );
        self.records = records;

        self.cycle += 1;
        if let Some(budget) = self.cfg.fault.watchdog_cycles {
            let mut watchdog = self.watchdog;
            watchdog.check(
                budget,
                self.delivered_all(),
                || self.occupancy(),
                || self.diagnostic_dump(),
            );
            self.watchdog = watchdog;
        }
    }

    /// Packets not yet at an endpoint, over all shards.
    fn occupancy(&self) -> u64 {
        self.shards.iter().map(Shard::occupancy).sum()
    }

    /// Deliveries so far (warmup included), over all shards.
    fn delivered_all(&self) -> u64 {
        self.shards.iter().map(|s| s.delivered_all).sum()
    }

    /// Structured per-router occupancy/credit/fault dump — the payload
    /// the watchdog panics with, also usable by hang-guarded tests.
    /// Routers are listed in ascending id order.
    pub fn diagnostic_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "network diagnostic @ cycle {}: occupancy {} packet(s), {} delivered so far",
            self.cycle,
            self.occupancy(),
            self.delivered_all(),
        );
        for shard in &self.shards {
            shard.diagnostics(&mut out);
        }
        out
    }

    /// Barrier-quantum fleet: W shards on W threads — W − 1 scoped
    /// workers plus the calling thread, which steps shard 0 itself.
    ///
    /// Segment *k* (between barrier crossings *k* and *k+1*) runs, on
    /// each thread: apply phase B of cycle *k−1* from the previous
    /// segment's outboxes, then phase A of cycle *k* into this segment's
    /// outboxes. Outboxes and record buffers are double-buffered by
    /// cycle parity, so one barrier per cycle suffices: parity-*p*
    /// buffers are written in segment *k* (p = k mod 2), drained in
    /// segment *k+1*, and not rewritten until *k+2*. The calling thread
    /// also replays cycle *k−1*'s measurement records in segment *k*.
    /// Each thread holds the exclusive borrow of its shard for the whole
    /// run; every mutex in the scheme (outboxes, record buffers) is
    /// uncontended by construction — locks only order memory, the
    /// barrier orders time.
    ///
    /// # Panic robustness
    ///
    /// A fixed-party barrier turns one dead party into a fleet-wide
    /// hang, so every party — the calling thread included — runs under
    /// `catch_unwind`: on panic it [poisons](SpinBarrier::poison) the
    /// barrier with the original message and exits. Every peer observes
    /// the poison at its next crossing and exits the same way; once the
    /// scope has joined, the calling thread re-raises
    /// `"worker fleet panicked: <original message>"`, whichever shard
    /// the panic started in.
    ///
    /// # Watchdog
    ///
    /// With `fault.watchdog_cycles = Some(n)`, workers publish delivery
    /// deltas to a shared counter each segment; a worker that sees no
    /// fleet-wide delivery for ~n consecutive cycles while its own shard
    /// still holds packets (the same [`Watchdog`] bookkeeping the inline
    /// cycle runs) panics with a structured occupancy dump —
    /// which the poisoning path then propagates to the whole fleet. The
    /// shared counter is read with one-cycle staleness (benign: budgets
    /// are thousands of cycles).
    fn run_fleet(&mut self, total: u64) {
        let w = self.shards.len();
        let start = self.cycle;
        let barrier = SpinBarrier::new(w);
        let fleet_delivered = AtomicU64::new(0);
        let watchdog_budget = self.cfg.fault.watchdog_cycles;
        let buckets = |n: usize| -> Vec<Mutex<Vec<OutEvent>>> {
            (0..n).map(|_| Mutex::new(Vec::new())).collect()
        };
        // outboxes[parity][src_shard][dst_shard]
        let outboxes: [Vec<Vec<Mutex<Vec<OutEvent>>>>; 2] = [
            (0..w).map(|_| buckets(w)).collect(),
            (0..w).map(|_| buckets(w)).collect(),
        ];
        // records[parity][shard]
        let mk_records = || -> Vec<Mutex<Vec<MeasureRecord>>> {
            (0..w).map(|_| Mutex::new(Vec::new())).collect()
        };
        let records: [Vec<Mutex<Vec<MeasureRecord>>>; 2] = [mk_records(), mk_records()];

        let map = &self.map;
        let topology = self.topology;
        let cfg = &self.cfg;

        // The one worker body. `replay` is the latency/total/transaction
        // accumulator triple, handed to exactly one party (the caller).
        let worker = |me: usize,
                      shard: &mut Shard<E>,
                      mut replay: Option<[&mut OnlineStats; 3]>| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // This shard's deliveries already published to the
                // fleet-wide counter its watchdog watches.
                let mut published = shard.delivered_all;
                let mut watchdog = Watchdog::default();
                let mut scratch: Vec<MeasureRecord> = Vec::new();
                for k in start..=total {
                    barrier.wait();
                    if k > start {
                        // Phase B of cycle k-1: events destined to this
                        // shard, source shards in index order = ascending
                        // source router (canonical).
                        let env = CycleEnv::at(cfg, k - 1);
                        let parity = ((k - 1) % 2) as usize;
                        for src_row in &outboxes[parity] {
                            let mut bucket = src_row[me].lock().expect("worker fleet panicked");
                            for OutEvent { src, ev } in bucket.drain(..) {
                                shard.apply(&env, src, ev);
                            }
                        }
                        if let Some(budget) = watchdog_budget {
                            let delivered = shard.delivered_all;
                            if delivered != published {
                                fleet_delivered.fetch_add(delivered - published, Ordering::Relaxed);
                                published = delivered;
                            }
                            let total_now = fleet_delivered.load(Ordering::Relaxed);
                            watchdog.check(
                                budget,
                                total_now,
                                || shard.occupancy(),
                                || {
                                    use std::fmt::Write as _;
                                    let mut dump = String::new();
                                    let _ = writeln!(
                                        dump,
                                        "shard {me} diagnostic @ cycle {}: occupancy {} packet(s), {} delivered fleet-wide",
                                        k - 1,
                                        shard.occupancy(),
                                        total_now,
                                    );
                                    shard.diagnostics(&mut dump);
                                    dump
                                },
                            );
                        }
                        // Cycle k-1's measurement records, in canonical
                        // key order across all shards.
                        if let Some([latency, total_latency, txn_latency]) = &mut replay {
                            for shard_records in &records[parity] {
                                scratch.append(
                                    &mut shard_records.lock().expect("worker fleet panicked"),
                                );
                            }
                            replay_records(&mut scratch, latency, total_latency, txn_latency);
                        }
                    }
                    if k < total {
                        // Phase A of cycle k into this parity's buckets
                        // (drained last segment, free now).
                        let env = CycleEnv::at(cfg, k);
                        let parity = (k % 2) as usize;
                        let mut rows: Vec<_> = outboxes[parity][me]
                            .iter()
                            .map(|m| m.lock().expect("worker fleet panicked"))
                            .collect();
                        let mut recs = records[parity][me].lock().expect("worker fleet panicked");
                        shard.phase_a(
                            &env,
                            &mut |src, ev| {
                                for dst in event_shards(&topology, map, src, &ev) {
                                    rows[dst].push(OutEvent { src, ev });
                                }
                            },
                            &mut recs,
                        );
                    }
                }
            }));
            if let Err(payload) = caught {
                barrier.poison(panic_message(payload.as_ref()));
            }
        };

        let (first, rest) = self
            .shards
            .split_first_mut()
            .expect("a simulator has at least one shard");
        let replay = [
            &mut self.latency,
            &mut self.total_latency,
            &mut self.txn_latency,
        ];
        std::thread::scope(|scope| {
            for (i, shard) in rest.iter_mut().enumerate() {
                let worker = &worker;
                scope.spawn(move || worker(i + 1, shard, None));
            }
            worker(0, first, Some(replay));
        });
        barrier.raise_if_poisoned();
    }

    /// Builds the report for the window simulated so far. Every merge in
    /// here is exact (integer sums and [`Histogram::merge`]) — the only
    /// order-sensitive state, the `OnlineStats` triple, was accumulated
    /// in canonical order by `replay_records`.
    pub fn report(&self) -> NetworkReport {
        let cfg = &self.cfg;
        let measure_ns = cfg.router.timing.core.cycles(cfg.measure_cycles).as_ns();
        let routers = cfg.topology.nodes() as f64;
        let mut nominations = 0;
        let mut grants = 0;
        let mut collisions = 0;
        let mut escapes = 0;
        let mut drains = 0;
        let mut matched_weight = 0;
        let mut mwm_weight = 0;
        let mut in_flight = 0u64;
        let mut injected_packets = 0;
        let mut injected_flits = 0;
        let mut measured_packets = 0;
        let mut measured_flits = 0;
        let mut measured_txns = 0;
        let mut latency_hist = transit_histogram();
        let mut txn_latency_hist = txn_histogram();
        let mut flits_corrupted = 0;
        let mut retransmissions = 0;
        let mut retry_exhaustions = 0;
        let mut links_dead = 0;
        let mut unreachable_drops = 0;
        let mut retransmit_latency_hist = retransmit_histogram();
        for shard in &self.shards {
            for r in &shard.routers {
                nominations += r.stats().nominations.get();
                grants += r.stats().grants.get();
                collisions += r.stats().collisions.get();
                escapes += r.stats().escape_dispatches.get();
                drains += r.stats().drain_engagements.get();
                matched_weight += r.stats().matched_weight.get();
                mwm_weight += r.stats().mwm_weight.get();
                in_flight += r.accounted_packets() as u64;
            }
            in_flight += shard.pending_deliveries() as u64;
            injected_packets += shard.injected_packets;
            injected_flits += shard.injected_flits;
            measured_packets += shard.measured_packets;
            measured_flits += shard.measured_flits;
            measured_txns += shard.measured_txns;
            latency_hist.merge(&shard.latency_hist);
            txn_latency_hist.merge(&shard.txn_latency_hist);
            if let Some(plane) = shard.faults() {
                flits_corrupted += plane.flits_corrupted;
                retransmissions += plane.retransmissions;
                retry_exhaustions += plane.retry_exhaustions;
                links_dead += plane.links_dead;
                unreachable_drops += plane.unreachable_drops;
                in_flight += plane.queued_packets;
                retransmit_latency_hist.merge(&plane.retransmit_hist);
            }
        }
        NetworkReport {
            delivered_packets: measured_packets,
            delivered_flits: measured_flits,
            latency: self.latency.clone(),
            latency_hist,
            total_latency: self.total_latency.clone(),
            flits_per_router_ns: measured_flits as f64 / (routers * measure_ns),
            injected_packets,
            injected_flits,
            in_flight_packets: in_flight,
            nominations,
            grants,
            collisions,
            escape_dispatches: escapes,
            drain_engagements: drains,
            matched_weight,
            mwm_weight,
            completed_txns: measured_txns,
            txn_latency: self.txn_latency.clone(),
            txn_latency_hist,
            flits_corrupted,
            retransmissions,
            retry_exhaustions,
            links_dead,
            unreachable_drops,
            retransmit_latency_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Torus;
    use router::ArbAlgorithm;

    /// Injects one request to a fixed destination, then goes quiet.
    struct OneShot {
        dest: u16,
        sent: bool,
        received: Vec<(u64, Tick)>,
    }

    impl Endpoint for OneShot {
        fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
            if !self.sent && ctx.node == 0 {
                let p = Packet::new(
                    router::packet::PacketId(1),
                    CoherenceClass::Request,
                    0,
                    self.dest,
                    ctx.now(),
                    0,
                );
                if ctx.inject(InputPort::Cache, p) == InjectionOutcome::Accepted {
                    self.sent = true;
                }
            }
        }

        fn on_delivered(&mut self, packet: &Packet, now: Tick) -> Option<TxnCompletion> {
            self.received.push((packet.id.0, now));
            None
        }
    }

    fn sim(dest: u16, algo: ArbAlgorithm) -> NetworkSim<OneShot> {
        let cfg = NetworkConfig {
            topology: Torus::net_4x4().into(),
            router: RouterConfig::alpha_21364(algo),
            seed: 7,
            warmup_cycles: 0,
            measure_cycles: 2000,
            fault: FaultConfig::default(),
        };
        let endpoints = (0..16)
            .map(|_| OneShot {
                dest,
                sent: false,
                received: Vec::new(),
            })
            .collect();
        NetworkSim::new(cfg, endpoints)
    }

    #[test]
    fn single_packet_crosses_the_torus() {
        for algo in ArbAlgorithm::ALL {
            let mut s = sim(10, algo); // (2,2): two hops in each dimension
            let report = s.run();
            assert_eq!(report.delivered_packets, 1, "{algo}");
            assert_eq!(report.delivered_flits, 3, "{algo}");
            let ep = s.endpoint(10);
            assert_eq!(ep.received.len(), 1, "{algo}");
            assert_eq!(report.in_flight_packets, 0, "{algo}: network drained");
        }
    }

    #[test]
    fn self_addressed_packet_is_delivered_locally() {
        let mut s = sim(0, ArbAlgorithm::SpaaBase);
        let report = s.run();
        assert_eq!(report.delivered_packets, 1);
        assert_eq!(s.endpoint(0).received.len(), 1);
    }

    #[test]
    fn zero_load_latency_matches_pipeline_arithmetic() {
        // One 3-flit request to an adjacent node (1 hop) under SPAA:
        //   inject:    3 cycles local decode (pin at t=0)
        //   LA..GA:    2 cycles
        //   to pin:    7 cycles, aligned to the link clock
        //   wire:      3 link clocks
        //   arrive:    decode 4 cycles, LA..GA 2, local output delay 7
        //   drain:     3 flits at core rate
        // The exact number is checked against the model once and pinned to
        // catch accidental pipeline regressions.
        let mut s = sim(1, ArbAlgorithm::SpaaBase);
        let report = s.run();
        assert_eq!(report.delivered_packets, 1);
        let lat = report.avg_latency_ns();
        // 12 core cycles + link alignment at hop 1; 13 cycles + drain at
        // the destination; 3.75 ns of wire. Expect ~25-35 ns.
        assert!(
            (20.0..40.0).contains(&lat),
            "unexpected zero-load latency {lat} ns"
        );
    }

    #[test]
    fn every_node_can_reach_every_other() {
        // One packet from node 0 to each destination in turn.
        for dest in 0..16u16 {
            let mut s = sim(dest, ArbAlgorithm::SpaaBase);
            let report = s.run();
            assert_eq!(report.delivered_packets, 1, "dest {dest}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut s = sim(9, ArbAlgorithm::Pim1);
            let r = s.run();
            (r.delivered_packets, r.latency.mean().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_histogram_accounts_every_delivery() {
        let mut s = sim(10, ArbAlgorithm::SpaaRotary);
        let report = s.run();
        let hist = &report.latency_hist;
        assert_eq!((hist.lo(), hist.hi()), (0.0, 2000.0));
        assert_eq!(
            report.latency_hist.count(),
            report.delivered_packets,
            "every measured delivery lands in a bin or the overflow bucket"
        );
        assert_eq!(
            report.latency_hist.overflow()
                + report.latency_hist.underflow()
                + report.latency_hist.bins().iter().sum::<u64>(),
            report.delivered_packets,
        );
    }

    /// Injects one packet long after the network has gone fully idle.
    struct SleepyInjector {
        fire_at_cycle: u64,
        cycle: u64,
        dest: u16,
        sent: bool,
        received: usize,
    }

    impl Endpoint for SleepyInjector {
        fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
            let cycle = self.cycle;
            self.cycle += 1;
            if ctx.node == 0 && !self.sent && cycle >= self.fire_at_cycle {
                let p = Packet::new(
                    router::packet::PacketId(7),
                    CoherenceClass::Request,
                    0,
                    self.dest,
                    ctx.now(),
                    0,
                );
                if ctx.inject(InputPort::Cache, p) == InjectionOutcome::Accepted {
                    self.sent = true;
                }
            }
        }

        fn on_delivered(&mut self, _packet: &Packet, _now: Tick) -> Option<TxnCompletion> {
            self.received += 1;
            None
        }
    }

    /// Wake-bookkeeping pin: a router that has been asleep for a long
    /// stretch (wake tick `Tick::MAX`) must be re-armed *exactly* when a
    /// local injection lands — the post-injection wake recompute may not
    /// retain a stale tick or miss the arrival's decode edge. If it did,
    /// the packet would sit undecoded forever and the skip-on run would
    /// diverge from the skip-off run.
    #[test]
    fn sleeping_router_never_misses_an_injection_wake() {
        let run = |idle_skip: bool| {
            let cfg = NetworkConfig {
                topology: Torus::net_4x4().into(),
                router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
                seed: 11,
                warmup_cycles: 0,
                measure_cycles: 4000,
                fault: FaultConfig::default(),
            };
            let endpoints = (0..16)
                .map(|_| SleepyInjector {
                    fire_at_cycle: 2500,
                    cycle: 0,
                    dest: 10,
                    sent: false,
                    received: 0,
                })
                .collect();
            let mut s = NetworkSim::new(cfg, endpoints);
            s.set_idle_skip(idle_skip);
            let r = s.run();
            let skipped = s.skipped_router_steps();
            let received = s.endpoint(10).received;
            (
                r.delivered_packets,
                r.latency.mean().to_bits(),
                received,
                skipped,
            )
        };
        let (d_off, lat_off, recv_off, _) = run(false);
        let (d_on, lat_on, recv_on, skipped) = run(true);
        assert_eq!(d_off, 1, "baseline delivers the late packet");
        assert_eq!((d_on, lat_on, recv_on), (d_off, lat_off, recv_off));
        // The 2500 idle prelude cycles must actually have been skipped —
        // otherwise this test isn't exercising the sleep/wake edge.
        assert!(
            skipped > 2000 * 16 / 2,
            "idle prelude was not skipped ({skipped} steps)"
        );
    }

    /// A fault-free 4x4 SPAA-rotary torus measured from cycle 0.
    fn quiet_4x4(cycles: u64) -> NetworkConfig {
        NetworkConfig {
            topology: Torus::net_4x4().into(),
            router: RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary),
            seed: 11,
            warmup_cycles: 0,
            measure_cycles: cycles,
            fault: FaultConfig::default(),
        }
    }

    /// The default `next_wake` means "every cycle", idle-skip or not —
    /// what an endpoint written before the idleness protocol (or a
    /// wrapper that does not forward `next_wake`) depends on.
    #[test]
    fn endpoint_without_next_wake_is_called_every_cycle() {
        let cfg = quiet_4x4(300);
        let endpoints = (0..16)
            .map(|_| SleepyInjector {
                fire_at_cycle: 100,
                cycle: 0,
                dest: 10,
                sent: false,
                received: 0,
            })
            .collect();
        let mut s = NetworkSim::new(cfg, endpoints);
        let _ = s.run();
        for node in 0..16 {
            assert_eq!(s.endpoint(node).cycle, 300, "node {node}");
        }
        assert_eq!(s.endpoint(10).received, 1);
    }

    /// Sleeps to cycle 30, then for good — until a delivery wakes it.
    struct Napper {
        wake: Tick,
        calls: Vec<Tick>,
        delivered_at: Option<Tick>,
    }

    impl Endpoint for Napper {
        fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.calls.is_empty() && ctx.node == 0 {
                let id = router::packet::PacketId(3);
                let p = Packet::new(id, CoherenceClass::Request, 0, 10, ctx.now(), 0);
                assert_eq!(ctx.inject(InputPort::Cache, p), InjectionOutcome::Accepted);
            }
            self.wake = match self.calls.len() {
                0 => ctx.now() + Tick::new(30 * ctx.core_period().as_ticks()),
                _ => Tick::MAX,
            };
            self.calls.push(ctx.now());
        }

        fn next_wake(&self) -> Tick {
            self.wake
        }

        fn on_delivered(&mut self, _packet: &Packet, now: Tick) -> Option<TxnCompletion> {
            self.delivered_at = Some(now);
            self.wake = now;
            None
        }
    }

    #[test]
    fn endpoint_sleeps_to_its_wake_unless_a_delivery_lowers_it() {
        let run = |idle_skip: bool| {
            let cfg = quiet_4x4(400);
            let endpoints = (0..16)
                .map(|_| Napper {
                    wake: Tick::ZERO,
                    calls: Vec::new(),
                    delivered_at: None,
                })
                .collect();
            let mut s = NetworkSim::new(cfg, endpoints);
            s.set_idle_skip(idle_skip);
            let _ = s.run();
            s
        };
        let core = quiet_4x4(400).router.timing.core;
        let s = run(true);
        for node in 0..16 {
            let ep = s.endpoint(node);
            let mut expect = vec![core.edge(0), core.edge(30)];
            if node == 10 {
                // The delivery lands mid-sleep and the endpoint runs on
                // that very cycle (deliveries precede endpoints in it).
                let at = ep.delivered_at.expect("the packet arrives");
                assert!(at > core.edge(30));
                expect.push(core.next_edge_at_or_after(at));
            }
            assert_eq!(ep.calls, expect, "node {node}");
        }
        // With idle-skip off the answer is never consulted.
        let s = run(false);
        for node in 0..16 {
            assert_eq!(s.endpoint(node).calls.len(), 400, "node {node}");
        }
    }
}
