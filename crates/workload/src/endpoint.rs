//! The per-node coherence traffic agent.
//!
//! Every node runs one [`CoherenceEndpoint`], which plays all three
//! protocol roles:
//!
//! * **Requester** — generates new transactions at the configured rate
//!   while an MSHR is free, injecting 3-flit requests through the cache
//!   port (the cache port "sends cache miss requests", §2.1);
//! * **Home** — on receiving a request, waits out the 73 ns memory lookup
//!   and then injects either the 19-flit block response (two-hop) or the
//!   3-flit forward (three-hop) through a memory-controller port (the MC
//!   ports "send responses to cache miss requests");
//! * **Owner** — on receiving a forward, waits the 25-cycle L2 lookup and
//!   injects the block response through a memory-controller port.
//!
//! Packets that cannot enter the router yet (no buffer space, or the port
//! already accepted a packet this cycle) wait in unbounded per-port source
//! queues; BNF latency deliberately includes that source queueing (§4.3).

use crate::pattern::TrafficPattern;
use crate::txn::{TxnTag, L2_LATENCY_CYCLES, MEMORY_LATENCY_NS, PAPER_THREE_HOP_FRACTION};
use arbitration::ports::InputPort;
use network::{
    ConfigError, Endpoint, InjectionOutcome, NetTopology, NetworkConfig, NodeCtx, TxnCompletion,
};
use router::packet::PacketId;
use router::{CoherenceClass, Packet};
use simcore::{SimRng, Tick};
use std::collections::{HashMap, VecDeque};

/// Fork label of the per-node burst phase-machine stream (see
/// `CoherenceEndpoint::burst_rng`). Forking is a function of the node
/// stream's seed and this label only, so the phase trace is unaffected
/// by how many draws the generation side takes.
const BURST_STREAM: u64 = 0xb0b5_7b0b;

/// On/off bursty temporal modulation of a node's request generation.
///
/// The classic two-state Markov-modulated arrival process: each node
/// alternates between an ON (burst) phase and an OFF (idle) phase whose
/// lengths are geometrically distributed with the configured means —
/// each core cycle the phase exits with probability `1 / mean`, drawn
/// from a dedicated stream forked off the node's RNG (so the ON/OFF
/// trace is identical at every point of a load sweep). During ON the
/// node generates at
/// `injection_rate / duty_cycle` (capped at one attempt per cycle), and
/// during OFF not at all, so `injection_rate` keeps its meaning as the
/// *average* offered load and bursty sweeps stay comparable point-for-
/// point with smooth ones.
///
/// ON phases run `on_cycle` every cycle; an OFF phase moves no counter
/// and takes nothing from the node stream, so its exit is drawn ahead on
/// the phase stream (the same draws in the same order) and the node
/// sleeps to it — burstiness preserves both determinism and the idle-skip
/// bit-exactness contract (proved by `tests/idle_skip_equivalence.rs`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstConfig {
    /// Mean ON-phase length in core cycles (geometric; must be ≥ 1).
    pub(crate) mean_burst_cycles: f64,
    /// Mean OFF-phase length in core cycles (geometric; must be ≥ 1).
    pub(crate) mean_idle_cycles: f64,
}

impl BurstConfig {
    /// Creates a burst configuration; [`WorkloadConfig::validate`] checks
    /// the means.
    pub fn new(mean_burst_cycles: f64, mean_idle_cycles: f64) -> Self {
        BurstConfig {
            mean_burst_cycles,
            mean_idle_cycles,
        }
    }

    /// Fraction of time spent in the ON phase.
    pub(crate) fn duty_cycle(&self) -> f64 {
        self.mean_burst_cycles / (self.mean_burst_cycles + self.mean_idle_cycles)
    }

    /// The ON-phase generation probability that preserves `average_rate`
    /// as the long-run mean (capped at 1 attempt/cycle; a cap hit means
    /// the requested average is unreachable at this duty cycle and the
    /// node simply generates every ON cycle).
    pub(crate) fn peak_rate(&self, average_rate: f64) -> f64 {
        (average_rate / self.duty_cycle()).min(1.0)
    }
}

/// Workload configuration for one simulation.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Destination pattern for requests (and forwards).
    pub pattern: TrafficPattern,
    /// Probability per core cycle that a node tries to start a new
    /// transaction (the offered-load knob swept to trace a BNF curve).
    /// With `burst` set this is the *average* rate; generation
    /// concentrates into ON phases at `BurstConfig::peak_rate`.
    pub injection_rate: f64,
    /// Outstanding-miss limit (16 for the 21364, 64 for Figure 11b).
    pub mshrs: u32,
    /// Fraction of transactions that take three coherence hops (0.3 in
    /// the paper's mix).
    pub three_hop_fraction: f64,
    /// Optional on/off bursty modulation of request generation
    /// (`None` = the paper's smooth Bernoulli process).
    pub burst: Option<BurstConfig>,
}

impl WorkloadConfig {
    /// The paper's base configuration at a given injection rate: 16
    /// outstanding misses, 70/30 transaction mix.
    pub fn paper(pattern: TrafficPattern, injection_rate: f64) -> Self {
        WorkloadConfig {
            pattern,
            injection_rate,
            mshrs: 16,
            three_hop_fraction: PAPER_THREE_HOP_FRACTION,
            burst: None,
        }
    }

    /// An effectively open-loop generator (unbounded outstanding misses).
    ///
    /// Our model's closed loop is *cleaner* than the authors' production
    /// Asim model: with 16 MSHRs the in-flight packet population (~2k on
    /// the 8×8) is two orders of magnitude below the network's 316
    /// packets/input-port buffering, so tree saturation — which requires
    /// buffers to fill and backpressure to propagate (§3.4) — cannot
    /// develop and throughput simply plateaus. Lifting the cap lets the
    /// injection-rate sweep push the network through the saturation point
    /// and reproduces the paper's post-saturation collapse and the Rotary
    /// Rule's protection. See DESIGN.md §3.
    pub fn open_loop(pattern: TrafficPattern, injection_rate: f64) -> Self {
        WorkloadConfig {
            pattern,
            injection_rate,
            mshrs: u32::MAX,
            three_hop_fraction: PAPER_THREE_HOP_FRACTION,
            burst: None,
        }
    }

    /// A closed-loop workload with an explicit MSHR capacity: each node
    /// self-throttles at `mshrs` outstanding transactions, the regime
    /// the 21364 actually ran in (its cache controller exposed 16
    /// MSHRs). Sweeping `mshrs` against [`WorkloadConfig::open_loop`]
    /// shows how the closed loop caps post-saturation latency — the
    /// `fig_closedloop` bench's headline.
    pub fn closed_loop(pattern: TrafficPattern, injection_rate: f64, mshrs: u32) -> Self {
        WorkloadConfig {
            pattern,
            injection_rate,
            mshrs,
            three_hop_fraction: PAPER_THREE_HOP_FRACTION,
            burst: None,
        }
    }

    /// The same workload with bursty on/off generation.
    pub fn with_burst(mut self, burst: BurstConfig) -> Self {
        self.burst = Some(burst);
        self
    }

    /// The same workload with a different three-hop transaction mix.
    pub fn with_three_hop_fraction(mut self, fraction: f64) -> Self {
        self.three_hop_fraction = fraction;
        self
    }

    /// Checks `net` ([`NetworkConfig::validate`]), then every workload
    /// condition a run relies on, and returns the first violation.
    /// [`build_endpoints`](crate::build_endpoints) refuses a pair this
    /// refuses.
    pub fn validate(&self, net: &NetworkConfig) -> Result<(), ConfigError> {
        net.validate()?;
        if !self.pattern.supports(&net.topology) {
            return Err(ConfigError::Pattern {
                pattern: self.pattern.to_string(),
                topology: net.topology,
            });
        }
        for (field, value) in [
            ("injection_rate", self.injection_rate),
            ("three_hop_fraction", self.three_hop_fraction),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::Probability { field, value });
            }
        }
        if self.mshrs == 0 {
            return Err(ConfigError::AtLeastOne { field: "mshrs" });
        }
        if let Some(b) = self.burst {
            for (field, value) in [
                ("burst.mean_burst_cycles", b.mean_burst_cycles),
                ("burst.mean_idle_cycles", b.mean_idle_cycles),
            ] {
                if !(value.is_finite() && value >= 1.0) {
                    return Err(ConfigError::PhaseMean { field, value });
                }
            }
        }
        Ok(())
    }
}

/// Aggregate per-node statistics (merged across nodes for reports).
#[derive(Clone, Copy, Debug, Default)]
pub struct EndpointStats {
    /// Transactions started.
    pub transactions_started: u64,
    /// Transactions fully completed (block response received).
    pub transactions_completed: u64,
    /// Generation attempts suppressed by a full MSHR table.
    pub mshr_stalls: u64,
    /// Packets delivered to this node in any role.
    pub packets_received: u64,
    /// Peak source-queue depth observed (congestion indicator).
    pub(crate) peak_queue_depth: usize,
    /// Cycles spent in an ON burst phase (0 without a burst config);
    /// `burst_on_cycles / cycles` across nodes estimates the realized
    /// duty cycle.
    pub(crate) burst_on_cycles: u64,
    /// Packets refused at injection because link deaths severed every
    /// route to their destination (fault plane; 0 in a healthy network).
    pub(crate) unreachable_drops: u64,
}

impl EndpointStats {
    /// Merges another node's statistics into this aggregate.
    pub fn merge(&mut self, other: &EndpointStats) {
        self.transactions_started += other.transactions_started;
        self.transactions_completed += other.transactions_completed;
        self.mshr_stalls += other.mshr_stalls;
        self.packets_received += other.packets_received;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.burst_on_cycles += other.burst_on_cycles;
        self.unreachable_drops += other.unreachable_drops;
    }
}

/// Draws one [`DrawAhead::look_ahead`] takes at most: one delivery-wheel
/// horizon. It bounds the work of a single `on_cycle` at rates like 1e-9,
/// where the next success is a billion draws away.
const LOOKAHEAD_DRAWS: u32 = 256;

/// A once-per-cycle Bernoulli stream drawn ahead of the clock, so that
/// its owner can sleep to the next success. Between two successes the
/// stream's RNG sees nothing but these draws, so taking them early
/// consumes the same values in the same order as one per cycle would.
#[derive(Clone, Copy, Debug)]
struct DrawAhead {
    /// Every cycle before `at` has had its draw taken, and failed.
    at: Tick,
    /// The draw of cycle `at` itself has been taken and succeeded.
    hit: bool,
}

impl DrawAhead {
    /// A stream whose first undrawn cycle is `at`.
    fn starting(at: Tick) -> Self {
        DrawAhead { at, hit: false }
    }

    /// Draws cycles from `at` on until one succeeds or the bound is
    /// spent; `at` then remembers "no success before here".
    fn look_ahead(&mut self, rng: &mut SimRng, p: f64, period: Tick) {
        for _ in 0..LOOKAHEAD_DRAWS {
            if rng.chance(p) {
                self.hit = true;
                return;
            }
            self.at += period;
        }
    }

    /// The outcome of cycle `now`'s draw. Must be asked for every cycle
    /// from `at` on (earlier ones are known failures and may be skipped).
    fn poll(&mut self, rng: &mut SimRng, p: f64, now: Tick, period: Tick) -> bool {
        if now < self.at {
            return false;
        }
        debug_assert_eq!(now, self.at, "slept past a cycle whose draw was due");
        if !self.hit {
            self.look_ahead(rng, p, period);
        }
        let hit_now = self.hit && self.at == now;
        if hit_now {
            *self = DrawAhead::starting(now + period);
        }
        hit_now
    }
}

/// The lookup kinds, indexing `CoherenceEndpoint::pending`: the home's
/// memory lookup and a remote owner's L2 lookup.
const MEMORY: usize = 0;
const L2: usize = 1;

/// How long a lookup of `kind` takes.
fn lookup_latency(kind: usize) -> Tick {
    if kind == MEMORY {
        Tick::from_ns(MEMORY_LATENCY_NS)
    } else {
        simcore::clock::Clock::alpha_21364_core().cycles(L2_LATENCY_CYCLES)
    }
}

/// The local injection ports, in the order their source queues are tried.
const PORTS: [InputPort; 3] = [InputPort::Cache, InputPort::Mc0, InputPort::Mc1];

/// The coherence agent for one node.
#[derive(Clone, Debug)]
pub struct CoherenceEndpoint {
    node: u16,
    topology: NetTopology,
    cfg: WorkloadConfig,
    rng: SimRng,
    /// Source queues, one per port of [`PORTS`]: requests wait in the
    /// cache port's, responses and forwards in the two MC ports'.
    queues: [VecDeque<Packet>; 3],
    /// The source queues, bit `q` each, whose head the last `on_cycle`
    /// offered and was refused for space: they wait for the engine's
    /// wake on a freed slot instead of keeping `next_wake` at "now".
    refused: u8,
    /// Which MC port takes the next response (alternation).
    mc_flip: bool,
    /// Lookups in progress, one FIFO per kind ([`MEMORY`], [`L2`]), as
    /// `(finish tick, transaction tag)`. Each kind has a fixed latency and
    /// `on_delivered`'s `now` never decreases, so each FIFO is in finish
    /// order. Two lookups finishing on the same tick leave memory first:
    /// that is issue order, because the L2 lookup is the shorter one, so
    /// it was issued later.
    pending: [VecDeque<(Tick, u64)>; 2],
    /// Bursty modulation state: currently in an ON phase? (Always `true`
    /// when no burst config is set.) Every node starts ON; the geometric
    /// phase machine decorrelates the nodes well within the warmup
    /// window.
    bursting: bool,
    /// Dedicated stream for the phase machine's exit draws, forked off
    /// the node stream. Generation and destination draws vary with the
    /// load knob; keeping the phase draws on their own stream makes a
    /// node's ON/OFF trace a function of (seed, node, burst config)
    /// only — identical across every point of a load sweep.
    burst_rng: SimRng,
    /// The OFF phase's exit draws, taken ahead on `burst_rng`.
    off_exit: DrawAhead,
    /// Precomputed ON-phase generation probability.
    burst_peak_rate: f64,
    /// The smooth (non-bursty) process's generation draws, taken ahead on
    /// `rng`: `start_transaction`'s own draws come after a success and
    /// before the next cycle's draw, exactly where the look-ahead stops
    /// and resumes.
    next_attempt: DrawAhead,
    /// `false` once [`CoherenceEndpoint::stop_generation`] is called:
    /// the node stops starting transactions but keeps serving its
    /// home/owner roles, so a drain window can run the network dry.
    generating: bool,
    /// Requester-side book of in-flight transactions — the MSHR file:
    /// `txn_seq` → the cycle the request entered the cache source queue,
    /// at most `cfg.mshrs` entries (§3.4: "only 16 outstanding cache
    /// miss requests", 64 in the Figure 11b scaling study). The matching
    /// block response removes the entry, which frees the MSHR, and
    /// reports the issue tick as a [`TxnCompletion`], from which the
    /// engine measures request-issue → reply-drain latency. Keyed
    /// lookups and `len()` only (never iterated), so the map's order
    /// cannot leak into any simulation output.
    inflight: HashMap<u32, Tick>,
    packet_seq: u64,
    txn_seq: u32,
    stats: EndpointStats,
}

impl CoherenceEndpoint {
    /// Creates the agent for `node`.
    pub(crate) fn new(node: u16, topology: NetTopology, cfg: WorkloadConfig, rng: SimRng) -> Self {
        let burst_peak_rate = match cfg.burst {
            Some(b) => b.peak_rate(cfg.injection_rate),
            None => cfg.injection_rate,
        };
        let burst_rng = rng.fork(BURST_STREAM);
        CoherenceEndpoint {
            node,
            topology,
            cfg,
            rng,
            queues: Default::default(),
            refused: 0,
            mc_flip: false,
            pending: Default::default(),
            bursting: true,
            burst_rng,
            off_exit: DrawAhead::starting(Tick::ZERO),
            burst_peak_rate,
            next_attempt: DrawAhead::starting(Tick::ZERO),
            generating: true,
            inflight: HashMap::new(),
            packet_seq: 0,
            txn_seq: 0,
            stats: EndpointStats::default(),
        }
    }

    /// This node's statistics.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// Outstanding misses right now: transactions this node has issued
    /// whose block response has not yet arrived.
    pub fn outstanding_misses(&self) -> usize {
        self.inflight.len()
    }

    /// Stops the requester role: no further transactions start, while
    /// home/owner service continues. Generation draws already taken ahead
    /// are discarded; nothing can observe them, because generation never
    /// restarts and the node stream feeds nothing else. Used by drain
    /// windows that run the network dry to check transaction
    /// conservation.
    pub fn stop_generation(&mut self) {
        self.generating = false;
    }

    /// `true` when this node holds no transaction state at all: no
    /// in-flight requests it issued, no memory/L2 lookups pending, and
    /// empty source queues. After generation stops, every node going
    /// idle (plus zero packets in flight in the network) means every
    /// transaction fully drained.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.next_lookup().is_none() && self.queued() == 0
    }

    fn next_packet_id(&mut self) -> PacketId {
        self.packet_seq += 1;
        PacketId(((self.node as u64) << 40) | self.packet_seq)
    }

    /// Creates and enqueues a new request transaction.
    fn start_transaction(&mut self, now: Tick) {
        let home = self
            .cfg
            .pattern
            .dest(&self.topology, self.node, &mut self.rng);
        let three_hop = self.rng.chance(self.cfg.three_hop_fraction);
        // "The second dimension selects the destination of the requests
        // and forwards": the forward target is drawn from the same
        // pattern, applied at the home node.
        let owner = if three_hop {
            self.cfg.pattern.dest(&self.topology, home, &mut self.rng)
        } else {
            0
        };
        // Sequence numbers live in the tag's 31-bit field; wrap early
        // enough that `TxnTag::pack` never sees an out-of-range value.
        // (A node would need 2^31 transactions to get there; at that
        // point any same-seq collision with a still-open entry would be
        // caught by the in-flight book's insert assertion.)
        self.txn_seq = (self.txn_seq + 1) & 0x7fff_ffff;
        if self.txn_seq == 0 {
            self.txn_seq = 1;
        }
        let prev = self.inflight.insert(self.txn_seq, now);
        debug_assert!(prev.is_none(), "transaction seq reused while in flight");
        let tag = TxnTag {
            requester: self.node,
            owner,
            three_hop,
            seq: self.txn_seq,
        };
        let id = self.next_packet_id();
        let req = Packet::new(
            id,
            CoherenceClass::Request,
            self.node,
            home,
            now,
            tag.pack(),
        );
        self.queues[0].push_back(req);
        self.stats.transactions_started += 1;
    }

    /// Queues a response-side packet for injection through an MC port.
    fn queue_mc(&mut self, packet: Packet) {
        self.queues[1 + usize::from(self.mc_flip)].push_back(packet);
        self.mc_flip = !self.mc_flip;
    }

    /// Starts a lookup of `kind` at `now` for the transaction `txn`.
    fn start_lookup(&mut self, kind: usize, now: Tick, txn: u64) {
        let at = now + lookup_latency(kind);
        let fifo = &mut self.pending[kind];
        debug_assert!(
            fifo.back().is_none_or(|&(last, _)| last <= at),
            "lookup FIFO {kind} out of order"
        );
        fifo.push_back((at, txn));
    }

    /// The lookup kind whose FIFO front finishes first, and when: memory
    /// on a tie (`min_by_key` keeps the first minimum; see `pending`).
    fn next_lookup(&self) -> Option<(usize, Tick)> {
        [MEMORY, L2]
            .into_iter()
            .filter_map(|kind| Some((kind, self.pending[kind].front()?.0)))
            .min_by_key(|&(_, at)| at)
    }

    /// Finished lookups enter the MC source queues: the home answers a
    /// two-hop request and forwards a three-hop one to its owner, and the
    /// owner answers.
    fn drain_pending(&mut self, now: Tick) {
        while let Some((kind, at)) = self.next_lookup() {
            if at > now {
                break;
            }
            let (_, txn) = self.pending[kind].pop_front().expect("a front was seen");
            let tag = TxnTag::unpack(txn);
            let (class, dest) = if kind == MEMORY && tag.three_hop {
                (CoherenceClass::Forward, tag.owner)
            } else {
                (CoherenceClass::BlockResponse, tag.requester)
            };
            let id = self.next_packet_id();
            self.queue_mc(Packet::new(id, class, self.node, dest, at, txn));
        }
    }

    /// Accounts a packet refused with [`InjectionOutcome::Unreachable`]:
    /// link deaths severed every route to its destination. A dropped
    /// `Request` is this node's own transaction — its in-flight entry
    /// (the MSHR) unwinds so the node keeps issuing toward reachable
    /// homes. A dropped response-side packet (`Forward`/`BlockResponse`)
    /// strands the remote requester's MSHR by design: a partitioned
    /// requester cannot be notified, and the loss stays visible in
    /// [`EndpointStats::unreachable_drops`] rather than silently leaking.
    fn drop_unreachable(&mut self, packet: &Packet) {
        self.stats.unreachable_drops += 1;
        if packet.class == CoherenceClass::Request {
            let tag = TxnTag::unpack(packet.txn);
            debug_assert_eq!(tag.requester, self.node);
            self.inflight.remove(&tag.seq);
        }
    }

    /// Packets waiting in the three source queues.
    fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn track_queue_depth(&mut self) {
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.queued());
    }

    /// Whether the requester role still draws: not after
    /// `stop_generation`, and never at rate 0 — `chance` draws nothing
    /// there, and a look-ahead would spin on a stream that cannot succeed.
    fn generates(&self) -> bool {
        self.generating && self.burst_peak_rate > 0.0
    }
}

impl Endpoint for CoherenceEndpoint {
    fn on_cycle(&mut self, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        // 1. Finished memory/L2 lookups enter the MC source queues.
        self.drain_pending(now);

        // 2. Bursty phase machine: one exit draw per cycle from the
        // dedicated `burst_rng` stream, so the ON/OFF trace is the same
        // at every point of a load sweep (generation draws, which vary
        // with the rate, live on the main node stream). An OFF phase's
        // draws are taken ahead, so the node can sleep through it.
        let period = ctx.core_period();
        if let Some(b) = self.cfg.burst {
            if !self.bursting {
                let exit_p = 1.0 / b.mean_idle_cycles;
                self.bursting = self.off_exit.poll(&mut self.burst_rng, exit_p, now, period);
            } else if self.burst_rng.chance(1.0 / b.mean_burst_cycles) {
                self.bursting = false;
                self.off_exit = DrawAhead::starting(now + period);
            }
            if self.bursting {
                self.stats.burst_on_cycles += 1;
            }
        }

        // 3. Possibly start a new transaction (closed-loop MSHR limit).
        let rate = self.burst_peak_rate;
        let attempt = if !self.generates() {
            false
        } else if self.cfg.burst.is_some() {
            self.bursting && self.rng.chance(rate)
        } else {
            self.next_attempt.poll(&mut self.rng, rate, now, period)
        };
        if attempt {
            if self.inflight.len() < self.cfg.mshrs as usize {
                self.start_transaction(now);
            } else {
                self.stats.mshr_stalls += 1;
            }
        }

        // 4. Each local port can accept at most one packet per cycle.
        // A destination severed by link deaths is dropped and accounted
        // (never retried: the route cannot come back).
        self.refused = 0;
        for (q, port) in PORTS.into_iter().enumerate() {
            let Some(&p) = self.queues[q].front() else {
                continue;
            };
            match ctx.inject(port, p) {
                InjectionOutcome::NoBufferSpace => {
                    self.refused |= 1 << q;
                    continue;
                }
                InjectionOutcome::Unreachable => self.drop_unreachable(&p),
                InjectionOutcome::Accepted => {}
            }
            self.queues[q].pop_front();
        }
        self.track_queue_depth();
    }

    /// Sleeps to the nearest of: a queued packet its port has not
    /// refused ("now"), the next finished lookup, and the next cycle whose
    /// phase or generation draw can change anything — every cycle of an
    /// ON phase, else the drawn-ahead OFF exit or generation attempt. A
    /// refused head is offered again when the engine wakes the node for a
    /// slot its router freed on that port, or on any earlier wake.
    fn next_wake(&self) -> Tick {
        let ready =
            (0..PORTS.len()).any(|q| self.refused & 1 << q == 0 && !self.queues[q].is_empty());
        if ready {
            return Tick::ZERO;
        }
        let lookup = self.next_lookup().map_or(Tick::MAX, |(_, at)| at);
        let draw = match self.cfg.burst {
            Some(_) if self.bursting => Tick::ZERO,
            Some(_) => self.off_exit.at,
            None if self.generates() => self.next_attempt.at,
            None => Tick::MAX,
        };
        lookup.min(draw)
    }

    fn on_delivered(&mut self, packet: &Packet, now: Tick) -> Option<TxnCompletion> {
        self.stats.packets_received += 1;
        let tag = TxnTag::unpack(packet.txn);
        match packet.class {
            CoherenceClass::Request => {
                // Home role: the memory lookup, then an answer or a forward.
                self.start_lookup(MEMORY, now, packet.txn);
                None
            }
            CoherenceClass::Forward => {
                // Owner role: the L2 lookup, then the data response.
                self.start_lookup(L2, now, packet.txn);
                None
            }
            CoherenceClass::BlockResponse => {
                // Requester role: the miss completes.
                debug_assert_eq!(tag.requester, self.node);
                let issued = self
                    .inflight
                    .remove(&tag.seq)
                    .expect("block response for a transaction this node never issued");
                self.stats.transactions_completed += 1;
                Some(TxnCompletion { issued })
            }
            other => {
                // The coherence workload does not generate these.
                debug_assert!(false, "unexpected {other} packet in coherence workload");
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use network::{Grid, NetworkConfig, NetworkSim, Torus};
    use router::{ArbAlgorithm, RouterConfig};

    fn net(torus: Grid, algo: ArbAlgorithm, cycles: u64) -> NetworkConfig {
        NetworkConfig {
            topology: torus.into(),
            router: RouterConfig::alpha_21364(algo),
            seed: 42,
            warmup_cycles: cycles / 5,
            measure_cycles: cycles - cycles / 5,
            fault: network::FaultConfig::default(),
        }
    }

    fn run(
        torus: Grid,
        algo: ArbAlgorithm,
        rate: f64,
        cycles: u64,
    ) -> (network::NetworkReport, EndpointStats) {
        let cfg = net(torus, algo, cycles);
        let wl = WorkloadConfig::paper(TrafficPattern::Uniform, rate);
        crate::run_coherence_sim(cfg, wl)
    }

    #[test]
    fn light_load_transactions_complete() {
        let (report, stats) = run(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 0.002, 6000);
        assert!(stats.transactions_started > 50, "{stats:?}");
        // Nearly all transactions finish (a few in flight at the end).
        assert!(
            stats.transactions_completed + 40 >= stats.transactions_started,
            "{stats:?}"
        );
        assert!(report.delivered_packets > 100);
        assert!(
            report.avg_latency_ns() > 40.0,
            "latency {}",
            report.avg_latency_ns()
        );
        assert!(
            report.avg_latency_ns() < 200.0,
            "latency {}",
            report.avg_latency_ns()
        );
    }

    #[test]
    fn packet_conservation_under_load() {
        // Whatever is injected is either delivered or still in flight
        // (source queues excluded: injected counts only router-accepted).
        let cfg = net(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 4000);
        let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.05);
        let endpoints = crate::build_endpoints(&cfg, &wl);
        let mut sim = NetworkSim::new(cfg, endpoints);
        // Count deliveries across the WHOLE run (no warmup exclusion) via
        // endpoint stats.
        let report = sim.run();
        let mut received = 0;
        for node in 0..16 {
            received += sim.endpoint(node).stats().packets_received;
        }
        assert_eq!(
            report.injected_packets,
            received + report.in_flight_packets,
            "packet conservation"
        );
    }

    #[test]
    fn mshr_limit_caps_outstanding_misses() {
        let cfg = net(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 3000);
        let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 1.0); // every cycle
        let endpoints = crate::build_endpoints(&cfg, &wl);
        let mut sim = NetworkSim::new(cfg, endpoints);
        for _ in 0..3000 {
            sim.step_cycle();
        }
        for node in 0..16 {
            assert!(sim.endpoint(node).outstanding_misses() <= 16);
        }
        let stats = sim.endpoint(0).stats();
        assert!(
            stats.mshr_stalls > 0,
            "full-rate generation must hit the limit"
        );
    }

    #[test]
    fn three_hop_transactions_involve_forwards() {
        let (_report, stats) = run(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 0.01, 8000);
        // With a 30% three-hop mix, packets received per completed
        // transaction averages between 2 and 3.
        let per_txn = stats.packets_received as f64 / stats.transactions_completed as f64;
        assert!(
            (2.0..3.0).contains(&per_txn),
            "packets per transaction = {per_txn} ({stats:?})"
        );
    }

    #[test]
    fn heavier_load_delivers_more_throughput_at_higher_latency() {
        let (light, _) = run(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 0.002, 5000);
        let (heavy, _) = run(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 0.02, 5000);
        assert!(heavy.flits_per_router_ns > light.flits_per_router_ns * 2.0);
        assert!(heavy.avg_latency_ns() >= light.avg_latency_ns() * 0.9);
    }

    #[test]
    fn burst_config_arithmetic() {
        let b = BurstConfig::new(60.0, 240.0);
        assert!((b.duty_cycle() - 0.2).abs() < 1e-12);
        assert!((b.peak_rate(0.01) - 0.05).abs() < 1e-12);
        // Unreachable averages cap at one attempt per cycle.
        assert_eq!(b.peak_rate(0.5), 1.0);
    }

    #[test]
    fn bursty_workload_realizes_duty_cycle_and_average_rate() {
        let cycles = 30_000u64;
        let cfg = net(Torus::net_4x4(), ArbAlgorithm::SpaaBase, cycles);
        let burst = BurstConfig::new(50.0, 200.0);
        let wl = WorkloadConfig::paper(TrafficPattern::Uniform, 0.004).with_burst(burst);
        let (_report, stats) = crate::run_coherence_sim(cfg.clone(), wl);

        // Realized duty cycle tracks the configured 20%.
        let total_node_cycles = cycles * 16;
        let duty = stats.burst_on_cycles as f64 / total_node_cycles as f64;
        assert!((0.16..0.25).contains(&duty), "realized duty cycle {duty}");

        // The long-run average generation rate matches the smooth
        // process within sampling noise: `injection_rate` keeps meaning
        // the average offered load.
        let smooth = WorkloadConfig::paper(TrafficPattern::Uniform, 0.004);
        let (_r2, smooth_stats) = crate::run_coherence_sim(cfg, smooth);
        let ratio = stats.transactions_started as f64 / smooth_stats.transactions_started as f64;
        assert!(
            (0.85..1.15).contains(&ratio),
            "bursty/smooth starts {ratio}"
        );
    }

    #[test]
    fn bursty_traffic_stresses_the_closed_loop_harder_than_smooth() {
        // The point of the scenario: same average load, spikier demand.
        // At 2% duty the ON-phase rate is 25× the average (0.25/cycle),
        // so a 40-cycle burst tries to start ~10 transactions while the
        // ~250-cycle round trip returns none — the 16-entry MSHR table
        // saturates and generation stalls, which the smooth process at
        // the same average rate almost never does.
        let cfg = net(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 30_000);
        let rate = 0.01;
        let smooth = WorkloadConfig::paper(TrafficPattern::Uniform, rate);
        let bursty = WorkloadConfig::paper(TrafficPattern::Uniform, rate)
            .with_burst(BurstConfig::new(40.0, 1960.0));
        let (_ra, sa) = crate::run_coherence_sim(cfg.clone(), smooth);
        let (_rb, sb) = crate::run_coherence_sim(cfg, bursty);
        assert!(
            sb.mshr_stalls > sa.mshr_stalls,
            "bursty MSHR stalls {} must exceed smooth {}",
            sb.mshr_stalls,
            sa.mshr_stalls
        );
    }

    #[test]
    fn burst_phase_history_is_identical_across_sweep_points() {
        // The phase machine draws from its own forked stream, so the
        // ON/OFF trace must be a function of (seed, node, burst config)
        // only — bit-identical at every load point of a sweep, even
        // though the generation side consumes different draw counts.
        let burst = BurstConfig::new(50.0, 200.0);
        let on_cycles = |rate: f64| {
            let cfg = net(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 5_000);
            let wl = WorkloadConfig::paper(TrafficPattern::Uniform, rate).with_burst(burst);
            let endpoints = crate::build_endpoints(&cfg, &wl);
            let mut sim = NetworkSim::new(cfg, endpoints);
            let _ = sim.run();
            (0..16)
                .map(|n| sim.endpoint(n).stats().burst_on_cycles)
                .collect::<Vec<_>>()
        };
        let near_idle = on_cycles(0.0005);
        let saturated = on_cycles(0.05);
        assert_eq!(near_idle, saturated, "per-node ON-cycle traces diverged");
        // And zero rate — no generation draws at all — matches too.
        assert_eq!(near_idle, on_cycles(0.0));
    }

    #[test]
    fn smooth_workload_reports_no_burst_cycles() {
        let (_report, stats) = run(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 0.005, 2000);
        assert_eq!(stats.burst_on_cycles, 0);
    }

    #[test]
    fn deterministic_workload_runs() {
        let a = run(Torus::net_4x4(), ArbAlgorithm::WfaRotary, 0.01, 2000);
        let b = run(Torus::net_4x4(), ArbAlgorithm::WfaRotary, 0.01, 2000);
        assert_eq!(a.0.delivered_packets, b.0.delivered_packets);
        assert_eq!(a.0.latency.mean().to_bits(), b.0.latency.mean().to_bits());
        assert_eq!(a.1.transactions_completed, b.1.transactions_completed);
    }

    #[test]
    fn draw_ahead_replays_the_per_cycle_stream() {
        // The same outcomes on the same cycles, and the RNG in the same
        // state whenever its owner looks at it (after a success) — at the
        // draw-free extremes and at rates whose next success lies far
        // beyond one look-ahead.
        let period = Tick::new(20);
        for p in [0.0, 1e-7, 0.002, 0.3, 1.0] {
            let mut per_cycle = SimRng::from_seed(5);
            let mut ahead_rng = per_cycle.clone();
            let mut ahead = DrawAhead::starting(Tick::ZERO);
            let mut slept = 0;
            for cycle in 0..20_000u64 {
                let now = Tick::new(cycle * 20);
                let expect = per_cycle.chance(p);
                // A sleeper is not even called before `at`.
                let got = if now < ahead.at {
                    slept += 1;
                    false
                } else {
                    ahead.poll(&mut ahead_rng, p, now, period)
                };
                assert_eq!(got, expect, "p={p} cycle {cycle}");
                if got {
                    assert_eq!(ahead_rng.next_u64(), per_cycle.next_u64(), "p={p}");
                }
            }
            if p < 0.01 {
                assert!(slept > 19_000, "p={p}: slept only {slept} cycles");
            }
        }
    }

    /// A memory lookup and an L2 lookup that finish on the same tick leave
    /// in issue order, memory first, each with the next packet id.
    #[test]
    fn lookups_finishing_together_leave_memory_first() {
        let (memory, l2) = (lookup_latency(MEMORY), lookup_latency(L2));
        assert!(l2 < memory, "the tie rule needs L2 {l2} < memory {memory}");
        assert_eq!(memory - l2, Tick::new(1_252));
        let cfg = WorkloadConfig::paper(TrafficPattern::Uniform, 0.0);
        let mut ep = CoherenceEndpoint::new(5, Torus::net_4x4().into(), cfg, SimRng::from_seed(1));
        let deliver = |ep: &mut CoherenceEndpoint, class, tag: TxnTag, at: Tick| {
            ep.on_delivered(&Packet::new(PacketId(0), class, 1, 5, at, tag.pack()), at);
        };
        let t = Tick::new(10_000);
        let home = TxnTag {
            requester: 1,
            owner: 2,
            three_hop: true,
            seq: 7,
        };
        deliver(&mut ep, CoherenceClass::Request, home, t);
        let owner = TxnTag {
            requester: 3,
            owner: 5,
            three_hop: true,
            seq: 9,
        };
        deliver(&mut ep, CoherenceClass::Forward, owner, t + memory - l2);
        let done = t + memory;
        ep.drain_pending(done - Tick::new(1));
        assert_eq!(ep.queued(), 0);
        ep.drain_pending(done);
        let sent = |q: usize| -> Vec<_> {
            let packets = ep.queues[q].iter();
            packets.map(|p| (p.class, p.dest, p.id, p.birth)).collect()
        };
        let id = |seq: u64| PacketId(5 << 40 | seq);
        assert_eq!(sent(0), vec![]);
        assert_eq!(sent(1), vec![(CoherenceClass::Forward, 2, id(1), done)]);
        assert_eq!(
            sent(2),
            vec![(CoherenceClass::BlockResponse, 3, id(2), done)]
        );
    }

    #[test]
    fn one_look_ahead_is_bounded() {
        let mut rng = SimRng::from_seed(1);
        let mut ahead = DrawAhead::starting(Tick::ZERO);
        ahead.look_ahead(&mut rng, 1e-12, Tick::new(20));
        assert!(!ahead.hit);
        assert_eq!(ahead.at, Tick::new(20 * LOOKAHEAD_DRAWS as u64));
    }

    #[test]
    fn vanishing_and_zero_rates_finish_and_match_with_idle_skip_off() {
        // A draw-until-success loop would spin for ~1/rate draws inside
        // one `on_cycle` at 1e-7 and forever at 0 (`chance(0)` draws
        // nothing and never succeeds).
        for rate in [1e-7, 0.0] {
            let run = |idle_skip: bool| {
                let cfg = net(Torus::net_4x4(), ArbAlgorithm::SpaaBase, 20_000);
                let wl = WorkloadConfig::paper(TrafficPattern::Uniform, rate);
                let endpoints = crate::build_endpoints(&cfg, &wl);
                let mut sim = NetworkSim::new(cfg, endpoints);
                sim.set_idle_skip(idle_skip);
                let report = sim.run();
                let starts: Vec<u64> = (0..16)
                    .map(|n| sim.endpoint(n).stats().transactions_started)
                    .collect();
                (report, starts)
            };
            let (off, starts_off) = run(false);
            let (on, starts_on) = run(true);
            off.assert_bit_identical(&on, &format!("rate {rate}"));
            assert_eq!(starts_off, starts_on);
            if rate == 0.0 {
                assert_eq!(starts_on, vec![0; 16]);
            }
        }
    }
}
