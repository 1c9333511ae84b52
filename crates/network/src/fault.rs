//! The deterministic fault plane: link fault injection and the
//! link-level recovery protocol.
//!
//! The real 21364 interconnect assumed a hostile physical layer — links
//! carry CRC with hardware retry — while the rest of this reproduction
//! models perfect wires. This module adds the fault axis as pure,
//! seeded configuration ([`FaultConfig`]):
//!
//! * **Transient corruption** — every flit crossing a link fails CRC
//!   independently with probability [`FaultConfig::ber`], drawn from a
//!   dedicated per-link PCG stream forked from the run seed (label =
//!   directed link id), so adding faults to one link never perturbs the
//!   draws of another.
//! * **Intermittent flaps** — each link runs a geometric ON/OFF machine
//!   ([`LinkFlap`], the same per-cycle exit-draw machinery as the
//!   workload crate's `BurstConfig`): while OFF every transmission fails
//!   as if corrupted.
//! * **Permanent death** — scheduled [`LinkKill`]s, a seeded
//!   [`FaultConfig::dead_link_fraction`] killed at cycle 0, or
//!   *retry exhaustion* (below) mark a directed link dead in the
//!   replicated [`DeadLinks`] mask consulted by every routing scheme.
//!
//! **Recovery protocol.** A CRC-failed (or flapped-off) transmission
//! parks the packet in the receiving link's FIFO retransmit buffer and
//! arms the link's retry timer: the retry fires one round trip plus an
//! exponentially backed-off delay later (NACK travels upstream, the
//! sender replays from its retransmit buffer — modelled at the receiver,
//! where the per-link state lives). After
//! [`FaultConfig::max_retries`] failed retries the link is declared
//! dead; the declaring shard broadcasts the death so every shard's
//! [`DeadLinks`] replica updates in the same canonical event order, and
//! fault-aware routing masks the link from the adaptive candidate set
//! from the next cycle on. Packets that can no longer reach their
//! destination are dropped *with accounting* (`unreachable_drops`,
//! plus a synthetic credit refund upstream so the sender's credit
//! counters stay sound) — never silently.
//!
//! **Determinism.** The state of the directed link into router *r* —
//! streams, flap state, retransmit buffer, retry timer — and the refunds
//! *r* owes live in *r*'s slot of the plane (`NodeFaults`), on the
//! shard that owns *r*. They are touched only at deterministic points:
//! *r*'s phase-A fault slot, just before *r* steps (flap steps, then
//! owed refunds, then due retries in entry-port order); the application
//! of *r*'s inbound events in phase B (arrival CRC draws); and a link
//! kill, at the cycle boundary or as a phase-B death event, which drops
//! the link's buffer and disarms its timer. The engine's one
//! segment body visits slots in ascending router order for every worker
//! count and either driver, so a faulted run is bit-exact across
//! `{1,2,4,8,…}` workers and idle-skip on/off — the same argument that
//! makes fault-free runs agree (see DESIGN.md "Fault plane").
//!
//! When the plane is disabled (the [`FaultConfig::default`]), no
//! per-link state is allocated, no RNG stream is forked, and no draw is
//! ever taken: the only cost is one `Option` test per cycle phase.
//! `tests/fault_plane.rs` pins the zero-fault tax; the golden digests pin
//! byte-identical fault-off reports.

use crate::topology::NetTopology;
use arbitration::ports::{InputPort, OutputPort};
use router::router::OutgoingPacket;
use router::{Packet, VcId};
use simcore::stats::Histogram;
use simcore::{SimRng, Tick};
use std::collections::VecDeque;

/// Per-link CRC corruption draws fork from `seed ^ CRC_STREAM`.
const CRC_STREAM: u64 = 0xfa07_c5c5_0bad_c0de;
/// Per-link flap machines fork from `seed ^ FLAP_STREAM`.
const FLAP_STREAM: u64 = 0xfa07_f1a9_0bad_c0de;
/// The global dead-fraction selection draws from `seed ^ KILL_STREAM`.
const KILL_STREAM: u64 = 0xfa07_de1d_0bad_c0de;

/// Geometric ON/OFF link flapping: while ON, each cycle exits to OFF
/// with probability `1 / mean_up_cycles` (and symmetrically back), the
/// same per-cycle exit-draw machinery as the workload burst modulator.
/// While OFF every transmission on the link fails as if CRC-corrupted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFlap {
    /// Mean cycles a link stays up between flaps (finite, ≥ 1).
    pub(crate) mean_up_cycles: f64,
    /// Mean cycles a flap lasts (finite, ≥ 1).
    pub(crate) mean_down_cycles: f64,
}

impl LinkFlap {
    /// Creates a flap configuration; `NetworkConfig::validate` checks the
    /// means.
    pub fn new(mean_up_cycles: f64, mean_down_cycles: f64) -> Self {
        LinkFlap {
            mean_up_cycles,
            mean_down_cycles,
        }
    }
}

/// A scheduled permanent death of one *directed* link: the wire leaving
/// `node` through `port` stops carrying flits at the start of
/// `at_cycle`. (The reverse direction is a separate link; kill both to
/// model a severed cable.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkKill {
    /// Sender-side router of the directed link.
    pub node: u16,
    /// Sender-side network output port.
    pub port: OutputPort,
    /// Core cycle at which the link dies.
    pub at_cycle: u64,
}

/// Fault-plane configuration, carried by `NetworkConfig`. The default is
/// fully disabled: no state allocated, no RNG forked, no draw taken.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Per-flit CRC failure probability on every link traversal
    /// (0 disables corruption).
    pub ber: f64,
    /// Intermittent ON/OFF flapping applied to every link
    /// (`None` disables).
    pub flap: Option<LinkFlap>,
    /// Scheduled permanent link deaths.
    pub kill_links: Vec<LinkKill>,
    /// Fraction of directed links killed at cycle 0, selected by a
    /// seeded partial shuffle over the canonical link enumeration
    /// (0 disables).
    pub dead_link_fraction: f64,
    /// Failed retries after which a link is declared dead.
    pub max_retries: u32,
    /// Base retry backoff in core cycles; retry *k* waits one link round
    /// trip plus `backoff_base_cycles << (k-1)` cycles.
    pub backoff_base_cycles: u64,
    /// Forward-progress watchdog: if no packet is delivered for this
    /// many cycles while the network holds packets, the engine panics
    /// with a structured per-router occupancy/credit dump instead of
    /// wedging silently. Independent of fault injection (`None`
    /// disables).
    pub watchdog_cycles: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            ber: 0.0,
            flap: None,
            kill_links: Vec::new(),
            dead_link_fraction: 0.0,
            max_retries: 8,
            backoff_base_cycles: 16,
            watchdog_cycles: None,
        }
    }
}

impl FaultConfig {
    /// True when any fault *injection* is configured (the watchdog alone
    /// does not allocate a fault plane — it is a pure observer).
    pub fn injection_enabled(&self) -> bool {
        self.ber > 0.0
            || self.flap.is_some()
            || !self.kill_links.is_empty()
            || self.dead_link_fraction > 0.0
    }
}

/// The replicated dead-link mask consulted by every routing scheme: one
/// bit per directed network link, indexed `(node, output port)`.
///
/// Every shard holds an identical replica, updated in canonical event
/// order (scheduled kills at the cycle boundary; exhaustion deaths via
/// broadcast events), so route recomputations agree across worker
/// counts.
#[derive(Clone, Debug, Default)]
pub struct DeadLinks {
    words: Vec<u64>,
    dead: u32,
}

/// The shared all-alive mask used whenever the fault plane is disabled.
static NO_DEAD_LINKS: DeadLinks = DeadLinks {
    words: Vec::new(),
    dead: 0,
};

impl DeadLinks {
    /// A mask with every link alive, sized for `nodes` routers.
    pub fn new(nodes: u16) -> Self {
        DeadLinks {
            words: vec![0u64; (nodes as usize * 4).div_ceil(64)],
            dead: 0,
        }
    }

    /// The canonical empty mask (no dead links, usable for any shape).
    pub fn empty() -> &'static DeadLinks {
        &NO_DEAD_LINKS
    }

    #[inline]
    fn bit(node: u16, port: OutputPort) -> usize {
        debug_assert!(port.is_network(), "only network links can die");
        node as usize * 4 + port.index()
    }

    /// True when any link has died (fast path: routing skips masking
    /// entirely while this is false).
    #[inline]
    pub fn any(&self) -> bool {
        self.dead > 0
    }

    /// Number of dead directed links.
    pub fn count(&self) -> u32 {
        self.dead
    }

    /// True when the directed link leaving `node` through `port` is dead.
    #[inline]
    pub(crate) fn is_dead(&self, node: u16, port: OutputPort) -> bool {
        let idx = Self::bit(node, port);
        self.words
            .get(idx / 64)
            .is_some_and(|w| (w >> (idx % 64)) & 1 == 1)
    }

    /// Mask over output-port indices 0..4 of `node`'s *alive* network
    /// directions (a node's four link bits never straddle a word).
    #[inline]
    pub(crate) fn alive_mask(&self, node: u16) -> u8 {
        if self.dead == 0 {
            return 0b1111;
        }
        let idx = node as usize * 4;
        let dead_bits = self
            .words
            .get(idx / 64)
            .map_or(0, |w| (w >> (idx % 64)) & 0b1111);
        !(dead_bits as u8) & 0b1111
    }

    /// Marks a link dead. Returns `true` when the bit was newly set.
    pub fn kill(&mut self, node: u16, port: OutputPort) -> bool {
        let idx = Self::bit(node, port);
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.dead += 1;
        true
    }
}

/// Retransmit-latency histogram shape shared by the shard partials and
/// the report assembly: queue wait plus one-or-more backed-off retries
/// reaches a few microseconds under heavy corruption; later retries land
/// in the overflow bucket like every other histogram in the report.
pub(crate) fn retransmit_histogram() -> Histogram {
    Histogram::new(0.0, 4000.0, 200)
}

/// One packet parked in a link's retransmit buffer.
#[derive(Debug)]
pub(crate) struct PendingTx {
    pub(crate) packet: Packet,
    pub(crate) vc: VcId,
    pub(crate) flit_period: Tick,
    /// The original (first-attempt) arrival pin time; final acceptance
    /// minus this is the retransmit-latency sample.
    pub(crate) first_pin: Tick,
    /// Failed transmission attempts so far.
    attempts: u32,
}

/// Receiver-side state of one directed link.
#[derive(Debug)]
struct LinkState {
    /// Sender-side router of the link.
    src: u16,
    /// Sender-side output port.
    output: OutputPort,
    /// Per-link CRC stream (forked lazily never — eagerly at build, a
    /// pure function of seed and link id).
    rng: SimRng,
    /// Per-link flap machine stream (present only when flapping is
    /// configured, so a BER-only plane draws nothing extra).
    flap_rng: Option<SimRng>,
    /// Flap machine state: transmitting while true.
    up: bool,
    /// FIFO retransmit buffer; head is the packet whose retry timer is
    /// armed. FIFO order preserves per-link in-order delivery.
    queue: VecDeque<PendingTx>,
    /// When the head packet retries (meaningful while the link's
    /// [`NodeFaults::armed`] bit is set).
    retry_at: Tick,
}

/// A synthetic credit refund owed upstream for a packet dropped at a
/// link (dead link, unreachable destination, or retry exhaustion): the
/// sender consumed a downstream credit at dispatch, so the dropped
/// packet's buffer slot must be returned or the sender's credit counters
/// would leak. Refunds are emitted as ordinary `Credit` events in the
/// owning router's next phase-A slot.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Refund {
    pub(crate) input: InputPort,
    pub(crate) vc: VcId,
}

/// What the link layer decided about an arriving transmission.
pub(crate) enum Admission {
    /// CRC passed and the link is up: deliver into the router now.
    Deliver(Packet),
    /// Parked in the retransmit buffer; a retry timer is armed.
    Held,
    /// The link is permanently dead: dropped with accounting.
    Dropped,
}

/// What a fired retry timer decided.
pub(crate) enum RetryOutcome {
    /// The head packet finally crossed: deliver into the router.
    Deliver(PendingTx),
    /// The retry failed again; the next timer is armed.
    Backoff,
    /// Retries exhausted: the caller must broadcast a link-death event
    /// for `(src, output)`; the queue has been dropped with accounting.
    Exhausted { src: u16, output: OutputPort },
}

/// The fault state one local router owns: its inbound links and the
/// refunds it owes upstream, all serviced in its phase-A slot.
#[derive(Debug)]
struct NodeFaults {
    /// Inbound links by entry input-port index (`None` where unwired).
    links: [Option<LinkState>; 4],
    /// Bit `e` is set while link `e`'s retry timer is armed: at most one
    /// timer per link, for its queue head, so an armed link holds
    /// packets and is alive.
    armed: u8,
    /// Refunds to emit in this router's next slot, in staging order.
    refunds: Vec<Refund>,
}

/// Per-shard fault-plane state: the replicated [`DeadLinks`] mask plus,
/// per local router, the receiver-owned machinery (CRC/flap streams,
/// retransmit buffers, retry timers, owed refunds) of its inbound links.
pub(crate) struct FaultPlane {
    ber: f64,
    flap: Option<LinkFlap>,
    max_retries: u32,
    backoff_base_cycles: u64,
    /// One-way wire latency of a link (arrival pin time, NACK round trip).
    wire: Tick,
    core_period: Tick,
    /// Replicated dead mask (identical on every shard).
    pub(crate) dead: DeadLinks,
    /// Per local router, indexed `node - base`.
    nodes: Vec<NodeFaults>,
    /// First node id of this shard's range.
    base: u16,
    /// All scheduled kills (config kills plus the seeded dead-fraction
    /// picks), sorted by cycle; every shard holds the identical list.
    kills: Vec<LinkKill>,
    next_kill: usize,
    // Counters (whole-run, like the injection counters).
    pub(crate) flits_corrupted: u64,
    pub(crate) retransmissions: u64,
    pub(crate) retry_exhaustions: u64,
    pub(crate) links_dead: u64,
    pub(crate) unreachable_drops: u64,
    /// Packets currently parked in retransmit buffers (in-flight).
    pub(crate) queued_packets: u64,
    pub(crate) retransmit_hist: Histogram,
}

/// Canonical enumeration of every directed network link of `topo`:
/// ascending `(sender node, output-port index)` over wired ports. The
/// dead-fraction selection shuffles this list, so every shard computes
/// the identical pick set from the shared seed.
fn directed_links(topo: &NetTopology) -> Vec<(u16, OutputPort)> {
    let mut links = Vec::new();
    for node in 0..topo.nodes() {
        for port in [
            OutputPort::North,
            OutputPort::South,
            OutputPort::East,
            OutputPort::West,
        ] {
            if topo.link(node, port).is_some() {
                links.push((node, port));
            }
        }
    }
    links
}

impl FaultPlane {
    /// Builds the plane for the shard owning nodes `base..base+len`.
    /// Every RNG stream is a pure function of the run seed and a link
    /// id, so the partition cannot perturb a single draw.
    pub(crate) fn new(
        cfg: &FaultConfig,
        topo: &NetTopology,
        seed: u64,
        core_period: Tick,
        wire: Tick,
        base: u16,
        len: u16,
    ) -> Self {
        let crc_root = SimRng::from_seed(seed ^ CRC_STREAM);
        let flap_root = SimRng::from_seed(seed ^ FLAP_STREAM);
        let nodes = (base..base + len)
            .map(|node| NodeFaults {
                links: std::array::from_fn(|e| {
                    let (src, output) = topo.feeder(node, InputPort::from_index(e))?;
                    let link_id = (src as u64) << 3 | output.index() as u64;
                    Some(LinkState {
                        src,
                        output,
                        rng: crc_root.fork(link_id),
                        flap_rng: cfg.flap.map(|_| flap_root.fork(link_id)),
                        up: true,
                        queue: VecDeque::new(),
                        retry_at: Tick::ZERO,
                    })
                }),
                armed: 0,
                refunds: Vec::new(),
            })
            .collect();

        // Scheduled kills: explicit config kills plus the seeded
        // dead-fraction picks (killed at cycle 0). Every shard runs the
        // identical selection from the shared stream.
        let mut kills = cfg.kill_links.clone();
        debug_assert!(
            kills.iter().all(|k| topo.link(k.node, k.port).is_some()),
            "kill_links passed NetworkConfig::validate"
        );
        if cfg.dead_link_fraction > 0.0 {
            let mut pool = directed_links(topo);
            let picks = ((pool.len() as f64) * cfg.dead_link_fraction).round() as usize;
            let picks = picks.min(pool.len());
            let mut rng = SimRng::from_seed(seed ^ KILL_STREAM);
            for i in 0..picks {
                let j = i + rng.below(pool.len() - i);
                pool.swap(i, j);
                let (node, port) = pool[i];
                kills.push(LinkKill {
                    node,
                    port,
                    at_cycle: 0,
                });
            }
        }
        kills.sort_by_key(|k| (k.at_cycle, k.node, k.port.index()));

        FaultPlane {
            ber: cfg.ber,
            flap: cfg.flap,
            max_retries: cfg.max_retries,
            backoff_base_cycles: cfg.backoff_base_cycles,
            wire,
            core_period,
            dead: DeadLinks::new(topo.nodes()),
            nodes,
            base,
            kills,
            next_kill: 0,
            flits_corrupted: 0,
            retransmissions: 0,
            retry_exhaustions: 0,
            links_dead: 0,
            unreachable_drops: 0,
            queued_packets: 0,
            retransmit_hist: retransmit_histogram(),
        }
    }

    /// Marks a link dead (idempotent), counting it and dropping its
    /// retransmit queue (which disarms its timer) iff this shard owns
    /// the receiver. Used by both the scheduled-kill path and the
    /// broadcast exhaustion-death path, so the dead count is attributed
    /// exactly once fleet-wide.
    pub(crate) fn kill_link(&mut self, topo: &NetTopology, node: u16, port: OutputPort) {
        if !self.dead.kill(node, port) {
            return;
        }
        let target = topo.link(node, port).expect("killing an unwired link");
        let local = target.peer.checked_sub(self.base).map(usize::from);
        if let Some(local) = local.filter(|&l| l < self.nodes.len()) {
            self.links_dead += 1;
            self.drop_queue(local, target.entry.index());
        }
    }

    /// Drops the retransmit buffer of local router `local`'s inbound link
    /// `e` with accounting — each packet an unreachable drop that owes
    /// its sender a credit refund — and disarms the link's timer.
    fn drop_queue(&mut self, local: usize, e: usize) {
        let nf = &mut self.nodes[local];
        nf.armed &= !(1 << e);
        let st = nf.links[e].as_mut().expect("a wired link is tracked");
        let input = InputPort::from_index(e);
        let dropped = st.queue.len() as u64;
        nf.refunds
            .extend(st.queue.drain(..).map(|tx| Refund { input, vc: tx.vc }));
        self.unreachable_drops += dropped;
        self.queued_packets -= dropped;
    }

    /// Start-of-cycle bookkeeping, run at the top of every phase A:
    /// applies the scheduled kills due by `cycle`. Everything else the
    /// plane does at a cycle boundary happens per router, in
    /// [`FaultPlane::begin_slot`] and [`FaultPlane::fire`].
    pub(crate) fn begin_cycle(&mut self, topo: &NetTopology, cycle: u64) {
        while self.next_kill < self.kills.len() && self.kills[self.next_kill].at_cycle <= cycle {
            let k = self.kills[self.next_kill];
            self.next_kill += 1;
            self.kill_link(topo, k.node, k.port);
        }
    }

    /// Opens local router `node`'s phase-A slot: steps the flap machines
    /// of its live inbound links (one draw each, in entry-port order),
    /// then hands out the refunds it owes. A refund staged after this
    /// call — during the slot or in phase B — waits for the next slot.
    pub(crate) fn begin_slot(&mut self, node: u16) -> std::vec::Drain<'_, Refund> {
        let nf = &mut self.nodes[(node - self.base) as usize];
        if let Some(flap) = self.flap {
            for st in nf.links.iter_mut().flatten() {
                if self.dead.is_dead(st.src, st.output) {
                    continue;
                }
                if let Some(rng) = st.flap_rng.as_mut() {
                    let mean = if st.up {
                        flap.mean_up_cycles
                    } else {
                        flap.mean_down_cycles
                    };
                    if rng.chance(1.0 / mean) {
                        st.up = !st.up;
                    }
                }
            }
        }
        nf.refunds.drain(..)
    }

    /// Entry ports of local router `node`'s links with a retry timer
    /// armed, as a bit mask over input-port indices.
    #[inline]
    pub(crate) fn armed(&self, node: u16) -> u8 {
        self.nodes[(node - self.base) as usize].armed
    }

    /// Records a drop with accounting: bumps `unreachable_drops` and
    /// owes the upstream sender a credit refund for the consumed slot,
    /// emitted in local router `node`'s next slot.
    pub(crate) fn drop_with_refund(&mut self, node: u16, input: InputPort, vc: VcId) {
        self.unreachable_drops += 1;
        self.nodes[(node - self.base) as usize]
            .refunds
            .push(Refund { input, vc });
    }

    /// Retry delay for failed attempt number `attempts` (1-based): one
    /// NACK round trip plus exponential backoff.
    fn retry_time(
        backoff_base_cycles: u64,
        fail_time: Tick,
        wire: Tick,
        core_period: Tick,
        attempts: u32,
    ) -> Tick {
        let shift = (attempts.saturating_sub(1)).min(16);
        let cycles = backoff_base_cycles.saturating_mul(1u64 << shift);
        fail_time + wire + wire + Tick::new(core_period.as_ticks().saturating_mul(cycles))
    }

    /// One transmission attempt over `st`'s wire: draws per-flit CRC
    /// failures (counting corrupted flits) and consults the flap state.
    /// Returns true when the packet crossed intact.
    fn transmit(ber: f64, flits_corrupted: &mut u64, st: &mut LinkState, len_flits: u32) -> bool {
        let mut corrupted = false;
        if ber > 0.0 {
            for _ in 0..len_flits {
                if st.rng.chance(ber) {
                    *flits_corrupted += 1;
                    corrupted = true;
                }
            }
        }
        st.up && !corrupted
    }

    /// Link-layer admission of `forward` arriving at local router `dest`
    /// through `entry` (phase B), pinned one wire latency after its first
    /// flit. Exactly one of the variants: deliver (CRC passed, link up,
    /// no queue ahead), hold (parked in the retransmit buffer with a
    /// timer armed), or drop (link dead).
    pub(crate) fn admit(
        &mut self,
        dest: u16,
        entry: InputPort,
        forward: OutgoingPacket,
    ) -> Admission {
        let e = entry.index();
        let nf = &mut self.nodes[(dest - self.base) as usize];
        let st = nf.links[e]
            .as_mut()
            .expect("network arrival on an untracked link");
        if self.dead.is_dead(st.src, st.output) {
            self.unreachable_drops += 1;
            nf.refunds.push(Refund {
                input: entry,
                vc: forward.downstream_vc,
            });
            return Admission::Dropped;
        }
        let pin_time = forward.first_flit + self.wire;
        let mut tx = PendingTx {
            packet: forward.packet,
            vc: forward.downstream_vc,
            flit_period: forward.flit_period,
            first_pin: pin_time,
            attempts: 0,
        };
        if !st.queue.is_empty() {
            // FIFO behind an earlier failure: preserves per-link order.
            st.queue.push_back(tx);
            self.queued_packets += 1;
            return Admission::Held;
        }
        if Self::transmit(self.ber, &mut self.flits_corrupted, st, tx.packet.len()) {
            return Admission::Deliver(tx.packet);
        }
        tx.attempts = 1;
        st.queue.push_back(tx);
        self.queued_packets += 1;
        st.retry_at = Self::retry_time(
            self.backoff_base_cycles,
            pin_time,
            self.wire,
            self.core_period,
            1,
        );
        nf.armed |= 1 << e;
        Admission::Held
    }

    /// Fires the retry timer of the link entering local router `node`
    /// through `entry` (phase A, inside the router's slot). `None` means
    /// the timer is not due at `now` — disarmed, or armed for later —
    /// and nothing happened, with no draws.
    pub(crate) fn fire(&mut self, node: u16, entry: InputPort, now: Tick) -> Option<RetryOutcome> {
        let (local, e) = ((node - self.base) as usize, entry.index());
        let bit = 1 << e;
        let nf = &mut self.nodes[local];
        let st = nf.links[e].as_mut()?;
        if nf.armed & bit == 0 || st.retry_at > now {
            return None;
        }
        debug_assert!(!st.queue.is_empty() && !self.dead.is_dead(st.src, st.output));
        nf.armed &= !bit;
        self.retransmissions += 1;
        let len = st
            .queue
            .front()
            .expect("armed links hold packets")
            .packet
            .len();
        if Self::transmit(self.ber, &mut self.flits_corrupted, st, len) {
            let tx = st.queue.pop_front().expect("armed links hold packets");
            self.queued_packets -= 1;
            if let Some(next) = st.queue.front() {
                // The next packet waited behind this one; attempt it no
                // earlier than its own arrival and no earlier than the
                // next cycle.
                st.retry_at = next.first_pin.max(now + self.core_period);
                nf.armed |= bit;
            }
            return Some(RetryOutcome::Deliver(tx));
        }
        let head = st.queue.front_mut().expect("armed links hold packets");
        head.attempts += 1;
        if head.attempts <= self.max_retries {
            st.retry_at = Self::retry_time(
                self.backoff_base_cycles,
                now,
                self.wire,
                self.core_period,
                head.attempts,
            );
            nf.armed |= bit;
            return Some(RetryOutcome::Backoff);
        }
        // Exhausted: the link is declared dead. Drop the whole queue
        // with accounting; the caller broadcasts the death event so
        // every shard's mask replica updates in canonical order (this
        // shard counts `links_dead` when it applies its own broadcast).
        self.retry_exhaustions += 1;
        let (src, output) = (st.src, st.output);
        self.drop_queue(local, e);
        Some(RetryOutcome::Exhausted { src, output })
    }

    /// Records the retransmit-latency sample of a finally accepted
    /// packet.
    pub(crate) fn record_retransmit_latency(&mut self, accepted_at: Tick, first_pin: Tick) {
        self.retransmit_hist
            .record((accepted_at.saturating_sub(first_pin)).as_ns());
    }

    /// One diagnostic line per link with interesting state (dead, down,
    /// or holding packets), for the watchdog dump.
    pub(crate) fn diagnostics(&self, out: &mut String) {
        use std::fmt::Write;
        for (node, nf) in (self.base..).zip(&self.nodes) {
            for (entry, st) in nf.links.iter().enumerate() {
                let Some(st) = st else { continue };
                let dead = self.dead.is_dead(st.src, st.output);
                if !dead && st.up && st.queue.is_empty() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  link {}->{} (entry {}): {} queue={} head_attempts={}",
                    st.src,
                    node,
                    entry,
                    if dead {
                        "DEAD"
                    } else if st.up {
                        "up"
                    } else {
                        "down"
                    },
                    st.queue.len(),
                    st.queue.front().map_or(0, |t| t.attempts),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Torus;

    /// A request leaving node 0 through East with its first flit at tick
    /// 10, so it pins at node 1's West input at tick 100 (wire 90).
    fn forward_east_from_0() -> OutgoingPacket {
        OutgoingPacket {
            packet: Packet::new(
                router::PacketId(1),
                router::CoherenceClass::Request,
                0,
                1,
                Tick::ZERO,
                0,
            ),
            output: OutputPort::East,
            downstream_vc: VcId::adaptive(router::CoherenceClass::Request),
            first_flit: Tick::new(10),
            flit_period: Tick::new(30),
            last_flit_done: Tick::new(70),
        }
    }

    #[test]
    fn default_config_is_fully_disabled() {
        let cfg = FaultConfig::default();
        assert!(!cfg.injection_enabled());
        assert_eq!(cfg.watchdog_cycles, None);
    }

    #[test]
    fn dead_links_mask_lifecycle() {
        let mut d = DeadLinks::new(16);
        assert!(!d.any());
        assert_eq!(d.alive_mask(3), 0b1111);
        assert!(d.kill(3, OutputPort::East));
        assert!(!d.kill(3, OutputPort::East), "second kill is idempotent");
        assert!(d.any());
        assert_eq!(d.count(), 1);
        assert!(d.is_dead(3, OutputPort::East));
        assert!(!d.is_dead(3, OutputPort::West));
        assert_eq!(
            d.alive_mask(3),
            0b1111 & !(OutputPort::East.mask() as u8),
            "alive mask drops the dead direction"
        );
        assert_eq!(d.alive_mask(4), 0b1111, "other nodes unaffected");
    }

    #[test]
    fn empty_mask_reports_everything_alive() {
        let d = DeadLinks::empty();
        assert!(!d.any());
        assert!(!d.is_dead(1000, OutputPort::North));
        assert_eq!(d.alive_mask(1000), 0b1111);
    }

    #[test]
    fn dead_fraction_selection_is_seed_deterministic_and_partition_free() {
        let topo = NetTopology::from(Torus::net_4x4());
        let cfg = FaultConfig {
            dead_link_fraction: 0.25,
            ..FaultConfig::default()
        };
        let full = FaultPlane::new(&cfg, &topo, 42, Tick::new(20), Tick::new(90), 0, 16);
        let half_a = FaultPlane::new(&cfg, &topo, 42, Tick::new(20), Tick::new(90), 0, 8);
        let half_b = FaultPlane::new(&cfg, &topo, 42, Tick::new(20), Tick::new(90), 8, 8);
        assert_eq!(full.kills, half_a.kills, "kill schedule is partition-free");
        assert_eq!(full.kills, half_b.kills);
        // 4x4 torus: 64 directed links, 25% => 16 picks.
        assert_eq!(full.kills.len(), 16);
        let other_seed = FaultPlane::new(&cfg, &topo, 43, Tick::new(20), Tick::new(90), 0, 16);
        assert_ne!(full.kills, other_seed.kills, "selection is seeded");
    }

    #[test]
    fn scheduled_kill_applies_at_its_cycle_and_counts_once() {
        let topo = NetTopology::from(Torus::net_4x4());
        let cfg = FaultConfig {
            kill_links: vec![LinkKill {
                node: 0,
                port: OutputPort::East,
                at_cycle: 5,
            }],
            ..FaultConfig::default()
        };
        let mut plane = FaultPlane::new(&cfg, &topo, 1, Tick::new(20), Tick::new(90), 0, 16);
        plane.begin_cycle(&topo, 4);
        assert!(!plane.dead.is_dead(0, OutputPort::East));
        plane.begin_cycle(&topo, 5);
        assert!(plane.dead.is_dead(0, OutputPort::East));
        assert_eq!(plane.links_dead, 1, "owner shard counts the death");
        plane.begin_cycle(&topo, 6);
        assert_eq!(plane.links_dead, 1, "kill is applied once");
    }

    #[test]
    fn ber_one_always_corrupts_and_exhausts_into_link_death() {
        let topo = NetTopology::from(Torus::net_4x4());
        let cfg = FaultConfig {
            ber: 1.0,
            max_retries: 2,
            backoff_base_cycles: 1,
            ..FaultConfig::default()
        };
        let mut plane = FaultPlane::new(&cfg, &topo, 7, Tick::new(20), Tick::new(90), 0, 16);
        // Node 1's West feeder is node 0's East output.
        let admission = plane.admit(1, InputPort::West, forward_east_from_0());
        assert!(matches!(admission, Admission::Held));
        assert_eq!(plane.queued_packets, 1);
        assert!(plane.flits_corrupted >= 1);
        // Fire retries until exhaustion (attempts 2, 3 fail => dead).
        let mut died = false;
        for n in 0..cfg.max_retries + 1 {
            match plane.fire(1, InputPort::West, Tick::new(1000 * (n as u64 + 1))) {
                Some(RetryOutcome::Backoff) => {}
                Some(RetryOutcome::Exhausted { src, output }) => {
                    assert_eq!((src, output), (0, OutputPort::East));
                    died = true;
                    break;
                }
                other => panic!("unexpected outcome {:?}", other.is_some()),
            }
        }
        assert!(died, "bounded retries must exhaust");
        assert_eq!(plane.retry_exhaustions, 1);
        assert_eq!(plane.unreachable_drops, 1, "queued packet dropped");
        assert_eq!(plane.queued_packets, 0);
        assert_eq!(plane.retransmissions as u32, cfg.max_retries);
        // The death is applied via the broadcast path:
        plane.kill_link(&topo, 0, OutputPort::East);
        assert_eq!(plane.links_dead, 1);
        assert!(plane.dead.is_dead(0, OutputPort::East));
    }

    #[test]
    fn killing_an_armed_link_disarms_its_timer() {
        let topo = NetTopology::from(Torus::net_4x4());
        let cfg = FaultConfig {
            ber: 1.0,
            ..FaultConfig::default()
        };
        let mut plane = FaultPlane::new(&cfg, &topo, 7, Tick::new(20), Tick::new(90), 0, 16);
        let admission = plane.admit(1, InputPort::West, forward_east_from_0());
        assert!(matches!(admission, Admission::Held));
        assert_eq!(plane.armed(1), 1 << InputPort::West.index());
        plane.kill_link(&topo, 0, OutputPort::East);
        assert_eq!(plane.armed(1), 0, "the kill disarms the link");
        assert_eq!((plane.queued_packets, plane.unreachable_drops), (0, 1));
        assert!(plane.fire(1, InputPort::West, Tick::MAX).is_none());
        assert_eq!(plane.retransmissions, 0, "a disarmed link draws nothing");
    }

    #[test]
    fn a_refund_staged_inside_a_slot_waits_for_the_next_slot() {
        let topo = NetTopology::from(Torus::net_4x4());
        let cfg = FaultConfig {
            dead_link_fraction: 0.25,
            ..FaultConfig::default()
        };
        let mut plane = FaultPlane::new(&cfg, &topo, 3, Tick::new(20), Tick::new(90), 0, 16);
        let vc = VcId::adaptive(router::CoherenceClass::Request);
        assert_eq!(plane.begin_slot(1).count(), 0);
        // Staged after router 1's slot opened (and one for router 2).
        plane.drop_with_refund(1, InputPort::West, vc);
        plane.drop_with_refund(2, InputPort::North, vc);
        let next: Vec<_> = plane.begin_slot(1).map(|r| (r.input, r.vc)).collect();
        assert_eq!(next, [(InputPort::West, vc)], "only router 1's refund");
        assert_eq!(plane.begin_slot(1).count(), 0, "emitted exactly once");
        assert_eq!(plane.begin_slot(2).count(), 1);
        assert_eq!(plane.unreachable_drops, 2);
    }

    #[test]
    fn ber_zero_draws_nothing() {
        // With corruption disabled the CRC stream must never advance, so
        // a flap-only (or kill-only) plane cannot perturb draws.
        let topo = NetTopology::from(Torus::net_4x4());
        let cfg = FaultConfig {
            kill_links: vec![LinkKill {
                node: 2,
                port: OutputPort::West,
                at_cycle: 100,
            }],
            ..FaultConfig::default()
        };
        let mut plane = FaultPlane::new(&cfg, &topo, 9, Tick::new(20), Tick::new(90), 0, 16);
        let admission = plane.admit(1, InputPort::West, forward_east_from_0());
        assert!(matches!(admission, Admission::Deliver(_)));
        assert_eq!(plane.flits_corrupted, 0);
        let st = plane.nodes[1].links[InputPort::West.index()]
            .as_ref()
            .unwrap();
        let mut untouched = SimRng::from_seed(9 ^ CRC_STREAM).fork(OutputPort::East.index() as u64);
        assert_eq!(
            st.rng.clone().next_u64(),
            untouched.next_u64(),
            "no CRC draw was taken"
        );
    }
}
