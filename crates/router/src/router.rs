//! The router proper: ports, entry tables, and the arbitration engines.
//!
//! A [`Router`] is stepped on every core-clock edge by the network layer.
//! Packets arrive through [`Router::accept_packet`] (from links or local
//! injection), credits through [`Router::accept_credit`], and everything
//! the router does to the outside world comes back as [`RouterOutput`]
//! events: packets forwarded onto links, packets delivered to the local
//! ports, and credits returned upstream.
//!
//! Flit movement is computed analytically (see [`crate::output`]); the
//! per-cycle work is exactly the arbitration the paper studies: the LA
//! (input-port) and GA (output-port) stages of §2.2, driven either as
//! SPAA's per-cycle pipeline or as PIM1/WFA's every-3-cycles matrix window
//! (§3).

use crate::antistarve::AntiStarvation;
use crate::arb::{Candidate, Nomination, ReadPortState, WindowSnapshot};
use crate::config::{RouterConfig, WeightKind};
use crate::entry::{
    Entry, EntryId, EntryMeta, EntryState, InputBuffer, META_LOCAL, META_WAITING, NIL_INDEX, NO_VC,
    REQ_ESCAPE_SHIFT,
};
use crate::output::{CreditBank, OutputState};
use crate::packet::Packet;
use crate::route::RouteInfo;
use crate::stats::RouterStats;
use crate::vc::{VcId, NUM_VCS};
use arbitration::arbiter::Arbiter;
use arbitration::matrix::ConnectionMatrix;
use arbitration::policy::{RotaryMode, Selector};
use arbitration::ports::{
    InputPort, OutputPort, NETWORK_ROW_MASK, NUM_ARBITER_ROWS, NUM_INPUT_PORTS, NUM_OUTPUT_PORTS,
};
use simcore::time::Cycles;
use simcore::wheel::TimingWheel;
use simcore::{SimRng, Tick};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// A packet being handed to a router, with its routing pre-computed.
#[derive(Clone, Copy, Debug)]
pub struct IncomingPacket {
    /// The packet.
    pub packet: Packet,
    /// Routing choices at this router (computed by the network layer).
    pub route: RouteInfo,
    /// Virtual channel whose buffer the packet occupies here.
    pub vc: VcId,
    /// Header arrival time at the input pin (or injection time for local
    /// ports).
    pub pin_time: Tick,
    /// Reception period of the packet's flits.
    pub in_flit_period: Tick,
}

/// A packet leaving through a torus output port.
#[derive(Clone, Copy, Debug)]
pub struct OutgoingPacket {
    /// The packet (hop count already incremented).
    pub packet: Packet,
    /// The torus output port used.
    pub output: OutputPort,
    /// The downstream virtual channel the packet will occupy.
    pub downstream_vc: VcId,
    /// First flit time at this router's output pin.
    pub first_flit: Tick,
    /// Flit serialization period on the wire.
    pub flit_period: Tick,
    /// Time the last flit clears this router.
    pub last_flit_done: Tick,
}

/// Everything a router tells the outside world during a step.
#[derive(Clone, Copy, Debug)]
pub enum RouterOutput {
    /// A packet was dispatched toward a torus neighbour.
    Forward(OutgoingPacket),
    /// A packet was delivered through a local sink port.
    Delivered {
        /// The delivered packet.
        packet: Packet,
        /// Which sink port it used.
        output: OutputPort,
        /// Delivery completion time (last flit).
        at: Tick,
    },
    /// A buffer slot freed: return one credit to the upstream router
    /// feeding `input`. Emitted only for torus input ports.
    Credit {
        /// The input port whose buffer released a slot.
        input: InputPort,
        /// The virtual channel of the freed slot.
        vc: VcId,
        /// Release time (upstream sees it one link latency later).
        at: Tick,
    },
}

/// A pending arrival awaiting its decode/eligibility tick. The timing
/// wheel it lives on keys it by `(eligible_at, insertion order)`, exactly
/// the total order the former binary heap used.
#[derive(Clone, Copy, Debug)]
struct PendingArrival {
    input: u8,
    incoming: IncomingPacket,
}

/// One deferred housekeeping event. All three kinds share a single
/// per-router timing wheel, so the every-cycle step pays one due-check
/// and one drain instead of three; the processing phases then run over
/// the drained batch kind-by-kind, in the same order the split queues
/// were drained in (each kind's relative `(time, insertion)` order is
/// preserved by the shared wheel).
#[derive(Clone, Copy, Debug)]
enum HouseEvent {
    /// An arrival finishing input synchronization/decode.
    Arrival(PendingArrival),
    /// An inbound credit refund `(output, vc)`.
    Credit(u8, u8),
    /// A buffer release `(input, entry)` at tail-done time.
    Release(u8, EntryId),
}

/// Ring lookahead of the per-router timing wheel, in core-clock edges.
///
/// Every event a router schedules for itself comes due a *bounded* number
/// of edges ahead: an arrival decodes `input_delay` cycles after its pin
/// time (itself at most the GA→pin plus wire latency ahead of the
/// dispatching step), a credit refund arrives one wire latency after a
/// release, and a buffer release waits out at most a 19-flit train at
/// link rate behind a bounded first-flit offset — all comfortably under
/// 64 core cycles for both the production and the 2× scaled pipelines.
/// Events past the ring (none in practice) spill into the wheel's
/// overflow heap, preserving exactness either way. 64 is also one
/// occupancy word: the wheel finds a router's next event in one masked
/// `trailing_zeros`.
const WHEEL_SLOTS: usize = 64;

/// What an entry could do this cycle, with the downstream VC resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Eligibility {
    /// Nothing possible right now.
    None,
    /// Deliverable through these local ports.
    Local {
        /// Free, wired sink ports.
        outputs: u8,
    },
    /// Forwardable adaptively through any of these torus ports.
    Adaptive {
        /// Free, wired, credited adaptive candidates.
        outputs: u8,
        /// The class's adaptive VC downstream.
        vc: VcId,
    },
    /// Only the dimension-order escape hop is available.
    Escape {
        /// The escape output port index.
        output: usize,
        /// The deadlock-free VC downstream.
        vc: VcId,
    },
}

/// The events that clear rows from the row gate's quiet memo: each can
/// turn an empty walk of those rows into a find ([`Router::wake_rows`]).
#[derive(Clone, Copy, Debug)]
enum RowWake {
    /// A credit refund on an output: the rows wired to it.
    Refund,
    /// An output is free that was not at the previous arbitration: the
    /// rows wired to it.
    OutputFreed,
    /// A decoded arrival: its input's rows.
    Arrival,
    /// A grant left its queue, promoting the entry queued behind the
    /// scan window into it: its input's rows.
    Departure,
    /// A nomination went back to `Waiting` (a GA loser or a cancelled
    /// sibling): its input's rows.
    Loser,
}

/// Per output: the rows the 21364 connection matrix wires to it. The
/// matrix is fixed, so the transpose is built once and every router
/// copies it (building it per router showed in set-up time).
fn rows_of_output() -> [u16; NUM_OUTPUT_PORTS] {
    static ROWS: OnceLock<[u16; NUM_OUTPUT_PORTS]> = OnceLock::new();
    *ROWS.get_or_init(|| {
        let conn = ConnectionMatrix::alpha_21364();
        std::array::from_fn(|o| {
            (0..NUM_ARBITER_ROWS)
                .filter(|&row| conn.connected(row, o))
                .fold(0u16, |rows, row| rows | 1 << row)
        })
    })
}

/// One read port's VC selection order, as recency stamps: the VC holding
/// the smallest stamp is the least recently selected. Picking the oldest
/// VC of a mask costs one pass over the mask's set bits, and selecting a
/// VC one store — where a move-to-back list pays a search and a shift.
/// Stamps stay distinct, so the order is total;
/// `vc_lru_matches_a_move_to_back_list` pins it against that list.
#[derive(Clone, Copy, Debug)]
struct VcLru {
    /// Per VC: when it was last selected (initially its index, so the
    /// lowest-numbered VC starts out least recent).
    stamp: [u16; NUM_VCS],
    /// The next stamp to hand out; every stamp is below it.
    clock: u16,
}

impl VcLru {
    fn new() -> Self {
        VcLru {
            stamp: std::array::from_fn(|v| v as u16),
            clock: NUM_VCS as u16,
        }
    }

    /// The least recently selected VC among the set bits of `mask`
    /// (non-empty).
    #[inline]
    fn oldest(&self, mask: u32) -> usize {
        debug_assert!(mask != 0, "oldest VC of an empty mask");
        let mut best = mask.trailing_zeros() as usize;
        let mut rest = mask & (mask - 1);
        while rest != 0 {
            let v = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if self.stamp[v] < self.stamp[best] {
                best = v;
            }
        }
        best
    }

    /// Makes `vc` the most recently selected VC. Before the clock runs
    /// out, the stamps are renumbered `0..NUM_VCS` in their current order.
    #[inline]
    fn touch(&mut self, vc: usize) {
        if self.clock == u16::MAX {
            let old = self.stamp;
            for (stamp, &s) in self.stamp.iter_mut().zip(&old) {
                *stamp = old.iter().filter(|&&o| o < s).count() as u16;
            }
            self.clock = NUM_VCS as u16;
        }
        self.stamp[vc] = self.clock;
        self.clock += 1;
        debug_assert!(
            self.stamp
                .iter()
                .enumerate()
                .all(|(v, s)| !self.stamp[v + 1..].contains(s)),
            "VC recency stamps collide: {:?}",
            self.stamp
        );
    }
}

/// One router of the 21364 torus.
#[derive(Debug)]
pub struct Router {
    cfg: RouterConfig,
    conn: ConnectionMatrix,
    inputs: Vec<InputBuffer>,
    outputs: Vec<OutputState>,
    credits: CreditBank,
    /// SPAA output arbiters (one selector per output port).
    selectors: Vec<Selector>,
    /// The windowed driver's matching kernel
    /// ([`ArbAlgorithm::kernel`](crate::config::ArbAlgorithm::kernel));
    /// `None` for the SPAA family.
    kernel: Option<Box<dyn Arbiter>>,
    /// The weight plane the window fill stamps: the algorithm's own kind
    /// for iLQF/iOCF, `Depth` when only oracle measurement asks for
    /// weights, `None` otherwise (fill passes weight 0 and skips all
    /// weight work).
    weight_kind: Option<WeightKind>,
    rng: SimRng,
    read_ports: Vec<ReadPortState>,
    /// Per read port: the VCs' least-recently-selected order.
    vc_lru: [VcLru; NUM_ARBITER_ROWS],
    /// LA-to-GA delay: a nomination (or window) decides this long after
    /// its LA cycle.
    ga_delay: Tick,
    /// The LA stage's port-free prediction horizon
    /// ([`RouterConfig::la_lookahead`]).
    lookahead: Tick,
    /// SPAA nominations one read port may have awaiting GA.
    max_inflight: u8,
    /// Spacing of the PIM1/WFA driver's windows.
    window_interval: Tick,
    /// All deferred housekeeping events (arrivals, credit refunds, buffer
    /// releases) on one bounded-horizon timing wheel keyed by due tick.
    house: TimingWheel<HouseEvent>,
    /// Arrivals pending on the wheel (for packet accounting).
    pending_arrival_count: u32,
    /// Slots reserved by pending arrivals, per (input, vc).
    reserved: [[u16; NUM_VCS]; NUM_INPUT_PORTS],
    /// The row gate, one bit per read port: bits `2i` and `2i + 1` are
    /// set exactly while input `i` holds a `Waiting` entry.
    waiting_rows: u16,
    /// Rows whose last walk found nothing, with nothing that walk depends
    /// on changed since (the clearing rules: `wake_rows`).
    quiet_rows: u16,
    /// The free-output mask of the previous arbitration.
    last_free: u8,
    /// Per output: the rows wired to it.
    rows_of_output: [u16; NUM_OUTPUT_PORTS],
    /// Test-only: both drivers visit every row, the literal reference
    /// the row gate is pinned against.
    #[cfg(test)]
    every_row: bool,
    /// Test-only: per [`RowWake`], how often it cleared a quiet row.
    #[cfg(test)]
    wakes: [u64; 5],
    /// Test-only: empty picks left unmemoised for a back-off.
    #[cfg(test)]
    deferred_picks: u64,
    /// SPAA nominations awaiting GA. Every nomination is decided the
    /// same fixed `ga_delay` after its LA cycle and `now` never goes
    /// back, so push order is decide order: a FIFO, drained from the
    /// front while `decide_at <= now`.
    ga_queue: VecDeque<Nomination>,
    /// Next window start for the PIM1/WFA driver.
    next_window: Tick,
    antistarve: AntiStarvation,
    stats: RouterStats,
    // ---- reusable per-cycle scratch (steady-state zero-allocation) ----
    /// Buffered entries still competing for arbitration (`Waiting` or
    /// `Nominated`; `Departing` entries only stream and release). Kept in
    /// step so quiescence checks are O(1).
    active_entries: u32,
    /// SPAA GA phase: nominations maturing this cycle.
    scratch_due: Vec<Nomination>,
    /// Housekeeping-wheel drain buffer.
    scratch_house: Vec<(Tick, HouseEvent)>,
    /// Release-reorder buffer (restores the split queues' release order).
    scratch_releases: Vec<(Tick, (u8, EntryId))>,
    /// Windowed driver: (input, entry) pairs dispatched this window.
    scratch_dispatched: Vec<(usize, EntryId)>,
    /// Windowed driver: the per-window offer table and the kernel input
    /// it builds, reset in place (its weight plane is present exactly
    /// when `weight_kind` is); `None` for the SPAA family.
    win_snapshot: Option<WindowSnapshot>,
}

impl Router {
    /// Builds a router. The node id is the caller's bookkeeping: nothing
    /// in a router depends on where it sits, so `_id` is not kept. The
    /// network's `NetworkConfig::validate` checks `cfg` before any router
    /// is built.
    pub fn new(_id: u16, cfg: RouterConfig, rng: SimRng) -> Self {
        let arb = cfg.arb_timing();
        debug_assert!(
            !cfg.algorithm.is_spaa() || arb.latency.get() >= 2,
            "SPAA needs at least LA and GA cycles"
        );
        let rotary = if cfg.algorithm.is_rotary() {
            RotaryMode::On
        } else {
            RotaryMode::Off
        };
        let selectors = (0..NUM_OUTPUT_PORTS)
            .map(|_| Selector::new(rotary, NETWORK_ROW_MASK, NUM_ARBITER_ROWS))
            .collect();
        let kernel = cfg
            .algorithm
            .kernel()
            .map(|kind| kind.build(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS));
        let weight_kind = cfg.algorithm.weight_kind().or_else(|| {
            (cfg.measure_matching_weight && !cfg.algorithm.is_spaa()).then_some(WeightKind::Depth)
        });
        let win_snapshot = kernel.is_some().then(|| {
            WindowSnapshot::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS, weight_kind.is_some())
        });
        let inputs = (0..NUM_INPUT_PORTS)
            .map(|_| InputBuffer::new(cfg.buffers.clone(), cfg.scan_window))
            .collect();
        let credits = CreditBank::new(&cfg.buffers);
        let antistarve = AntiStarvation::new(cfg.antistarvation);
        let core_period = cfg.timing.core.period();
        let ga_cycles = arb.latency.get() - 1;
        let ga_delay = cfg.timing.core_cycles(Cycles::new(ga_cycles));
        let lookahead = cfg.timing.core_cycles(cfg.la_lookahead());
        let window_interval = cfg.timing.core_cycles(arb.initiation_interval);
        Router {
            cfg,
            conn: ConnectionMatrix::alpha_21364(),
            inputs,
            outputs: OutputPort::ALL
                .iter()
                .map(|&p| OutputState::new(p))
                .collect(),
            credits,
            selectors,
            kernel,
            weight_kind,
            rng,
            read_ports: vec![ReadPortState::default(); NUM_ARBITER_ROWS],
            vc_lru: [VcLru::new(); NUM_ARBITER_ROWS],
            ga_delay,
            lookahead,
            max_inflight: ga_cycles.min(8) as u8,
            window_interval,
            house: TimingWheel::new(core_period, WHEEL_SLOTS),
            pending_arrival_count: 0,
            reserved: [[0; NUM_VCS]; NUM_INPUT_PORTS],
            waiting_rows: 0,
            quiet_rows: 0,
            last_free: 0,
            rows_of_output: rows_of_output(),
            #[cfg(test)]
            every_row: false,
            #[cfg(test)]
            wakes: [0; 5],
            #[cfg(test)]
            deferred_picks: 0,
            ga_queue: VecDeque::new(),
            next_window: Tick::ZERO,
            antistarve,
            stats: RouterStats::default(),
            active_entries: 0,
            scratch_due: Vec::new(),
            scratch_house: Vec::new(),
            scratch_releases: Vec::new(),
            scratch_dispatched: Vec::new(),
            win_snapshot,
        }
    }

    /// Statistics counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Total packets currently buffered (including pending arrivals).
    pub(crate) fn buffered_packets(&self) -> usize {
        self.inputs
            .iter()
            .map(|b| b.total_occupancy())
            .sum::<usize>()
            + self.pending_arrival_count as usize
    }

    /// Packets this router is accountable for: pending arrivals plus
    /// buffered entries that have not begun departing. Departing packets
    /// are already counted by their destination (the downstream router's
    /// pending arrivals, or the network's delivery queue), so summing
    /// `accounted_packets` across routers never double-counts.
    pub fn accounted_packets(&self) -> usize {
        self.inputs.iter().map(|b| b.owned_packets()).sum::<usize>()
            + self.pending_arrival_count as usize
    }

    /// One-line occupancy/credit snapshot for watchdog diagnostic dumps:
    /// how many packets this router owns, how many sit buffered, the GA
    /// queue depth, when each torus output frees, and the per-direction
    /// credit totals (a wedged router typically shows a direction pinned
    /// at zero credits or a port busy far in the future).
    pub fn diagnostics(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "owned {}, buffered {}, ga-queue {}, {};",
            self.accounted_packets(),
            self.buffered_packets(),
            self.ga_queue.len(),
            self.stats.summary(),
        );
        let _ = write!(s, " busy-until");
        for o in &self.outputs[..4] {
            let _ = write!(s, " {}:{}", o.port(), o.busy_until().as_ticks());
        }
        let _ = write!(s, "; credits");
        for port in &OutputPort::ALL[..4] {
            let _ = write!(s, " {}:{}", port, self.credits.port_total(*port));
        }
        // A missed wake reads as waiting rows that stay quiet beside a
        // free, credited output.
        let _ = write!(
            s,
            "; quiet-rows {:#06x} waiting-rows {:#06x}",
            self.quiet_rows, self.waiting_rows
        );
        s
    }

    /// Free buffer slots of `vc` at `input`, accounting for in-flight
    /// arrivals. Local injectors must check this before injecting.
    pub fn free_space(&self, input: InputPort, vc: VcId) -> usize {
        self.inputs[input.index()]
            .space(vc)
            .saturating_sub(self.reserved[input.index()][vc.index()] as usize)
    }

    /// Hands the router a packet. For torus inputs the caller must have
    /// consumed a credit upstream; for local inputs the caller must have
    /// checked [`Router::free_space`].
    pub fn accept_packet(&mut self, input: InputPort, incoming: IncomingPacket) {
        let delay = if input.is_network() {
            self.cfg.timing.input_delay
        } else {
            self.cfg.timing.local_input_delay
        };
        let eligible_at = incoming.pin_time + self.cfg.timing.core_cycles(delay);
        self.reserved[input.index()][incoming.vc.index()] += 1;
        self.pending_arrival_count += 1;
        self.house.schedule(
            eligible_at,
            HouseEvent::Arrival(PendingArrival {
                input: input.index() as u8,
                incoming,
            }),
        );
    }

    /// Hands the router a credit refund for torus output `output` (the
    /// downstream router released a `vc` buffer slot; `at` already
    /// includes the credit wire latency).
    pub fn accept_credit(&mut self, output: OutputPort, vc: VcId, at: Tick) {
        assert!(output.is_network(), "credits only exist for torus outputs");
        self.house.schedule(
            at,
            HouseEvent::Credit(output.index() as u8, vc.index() as u8),
        );
    }

    /// The earliest tick at which stepping this router can do anything at
    /// all. A network layer may skip stepping the router until then (or
    /// until it hands it a packet or credit) and observe bit-for-bit
    /// identical simulation results.
    ///
    /// **Empty router** — no buffered entry competing for arbitration
    /// (entries that are merely `Departing` stream on a precomputed
    /// schedule and free their slot at a known release tick), no
    /// nomination awaiting GA, anti-starvation not draining: only wheel
    /// events remain — a pending arrival becoming eligible, a streaming
    /// packet's buffer slot releasing, a credit refund coming due — so the
    /// answer is the housekeeping wheel's next due edge ([`Tick::MAX`]
    /// when it is empty: idle until an external packet or credit). Each
    /// such event carries its own due time and is drained in heap order on
    /// the first step at or after it, exactly as per-cycle stepping would
    /// have. [`Router::step`] catches up the anti-starvation scan cadence
    /// and the windowed driver's phase across the gap, and every skipped
    /// step provably emitted no events, mutated no entry state, and drew
    /// no random numbers (with no competing entry the LA scans and window
    /// snapshots of the skipped cycles were empty, and the
    /// anti-starvation old-census — which counts only `Waiting` entries —
    /// was zero).
    ///
    /// **Loaded router** — a *windowed* router with buffered work
    /// arbitrates only at its next window start; between windows a step
    /// with no due wheel event and no due anti-starvation census is
    /// provably a no-op (every phase short-circuits: the drains find
    /// nothing due, `scan_due` is false, and `now < next_window`). A
    /// loaded SPAA router must be stepped every cycle (`Tick::ZERO`) only
    /// while its row gate holds a row: otherwise the LA stage walks
    /// nothing until an output wired to a waiting row frees, and the GA
    /// stage decides nothing before the queue front's `decide_at`. So it
    /// sleeps until the earliest of the census, the wheel's next edge,
    /// that `decide_at`, and `busy_until − lookahead` of each output
    /// outside `last_free` wired to a waiting row. Nothing else a skipped
    /// step reads moves: no output is dispatched, so the free mask only
    /// grows, and the first step afterwards applies the output-freed wakes
    /// of all the skipped steps at once (they clear only quiet bits of
    /// rows that are not waiting). Drain mode needs no term of its own: it
    /// changes only which entries a walk or a GA pool prefers, a quiet row
    /// finds nothing with or without its cutoff, and it engages and ends
    /// only at a census.
    ///
    /// A hand-off ([`Router::accept_packet`], [`Router::accept_credit`])
    /// only schedules on the wheel, so it can lower this answer but
    /// changes nothing else it reads.
    pub fn next_work(&self) -> Tick {
        let wheel = || self.house.next_due_edge().unwrap_or(Tick::MAX);
        let busy =
            self.active_entries > 0 || !self.ga_queue.is_empty() || self.antistarve.draining();
        if busy {
            let due = self.antistarve.next_scan_tick().min(wheel());
            if !self.cfg.algorithm.is_spaa() {
                return self.next_window.min(due);
            }
            if self.gate_rows() != 0 {
                return Tick::ZERO;
            }
            let ga = self.ga_queue.front().map_or(Tick::MAX, |n| n.decide_at);
            let mut busy_outputs = !self.last_free & ((1 << NUM_OUTPUT_PORTS) - 1) as u8;
            let mut freeing = Tick::MAX;
            while busy_outputs != 0 {
                let o = busy_outputs.trailing_zeros() as usize;
                busy_outputs &= busy_outputs - 1;
                if self.rows_of_output[o] & self.waiting_rows != 0 {
                    let free_at = self.outputs[o].busy_until().saturating_sub(self.lookahead);
                    freeing = freeing.min(free_at);
                }
            }
            return due.min(ga).min(freeing);
        }
        // Empty router: wheel events only (the idle catch-up replays the
        // skipped empty census scans and window phases).
        wheel()
    }

    /// Replays the phase bookkeeping of skipped quiescent cycles: empty
    /// anti-starvation scans and empty arbitration windows advance their
    /// cadence counters but change nothing else, so only the counters need
    /// fast-forwarding. A no-op when the router is stepped every cycle, or
    /// sleeps loaded: its wake then holds the census tick and the next
    /// window start.
    fn catch_up_idle(&mut self, now: Tick) {
        if !self.cfg.algorithm.is_spaa() && self.next_window < now {
            self.next_window = self.next_window.advance_cadence(now, self.window_interval);
        }
        let period = self
            .cfg
            .timing
            .core_cycles(self.antistarve.config().scan_period);
        self.antistarve.catch_up_idle(now, period);
    }

    /// Advances the router by one core-clock edge at time `now`, appending
    /// its externally visible events to `out`.
    pub fn step(&mut self, now: Tick, out: &mut Vec<RouterOutput>) {
        self.catch_up_idle(now);
        self.process_housekeeping(now, out);
        self.antistarve_scan(now);
        if self.cfg.algorithm.is_spaa() {
            self.spaa_ga_phase(now, out);
            self.spaa_la_phase(now);
        } else if now >= self.next_window {
            self.run_window(now, out);
            self.next_window = now + self.window_interval;
        }
    }

    // ------------------------------------------------------------------
    // Housekeeping phases
    // ------------------------------------------------------------------

    /// Runs all due housekeeping events: one wheel drain, then the three
    /// former phases (arrivals, credit refunds, buffer releases) replayed
    /// kind-by-kind over the batch in their original phase order.
    fn process_housekeeping(&mut self, now: Tick, out: &mut Vec<RouterOutput>) {
        if !self.house.has_due(now) {
            return;
        }
        let mut due = std::mem::take(&mut self.scratch_house);
        due.clear();
        self.house.drain_due(now, &mut due);
        // Arrivals, in `(eligible_at, insertion)` order — the same total
        // order the former dedicated queue popped in.
        for &(eligible_at, ev) in &due {
            let HouseEvent::Arrival(head) = ev else {
                continue;
            };
            let incoming = head.incoming;
            let input = head.input as usize;
            self.pending_arrival_count -= 1;
            self.reserved[input][incoming.vc.index()] -= 1;
            self.inputs[input].insert(Entry {
                packet: incoming.packet,
                route: incoming.route,
                vc: incoming.vc,
                eligible_at,
                in_flit_period: incoming.in_flit_period,
                state: EntryState::Waiting {
                    not_before: Tick::ZERO,
                },
            });
            self.input_changed(input, RowWake::Arrival);
            self.active_entries += 1;
            self.stats.packets_in.bump();
        }
        // Credit refunds: commutative (each only increments one
        // `(output, vc)` counter), so batch order is immaterial.
        for &(_, ev) in &due {
            let HouseEvent::Credit(o, v) = ev else {
                continue;
            };
            self.credits.refund(
                OutputPort::from_index(o as usize),
                VcId::from_index(v as usize),
            );
            self.wake_rows(self.rows_of_output[o as usize], RowWake::Refund);
        }
        // Releases are order-sensitive: the order slots return to the
        // free lists decides which slot the next arrival claims. Restore
        // the former queue's `(time, input, slot)` order exactly.
        let mut rel = std::mem::take(&mut self.scratch_releases);
        rel.clear();
        for &(t, ev) in &due {
            if let HouseEvent::Release(p, id) = ev {
                rel.push((t, (p, id)));
            }
        }
        rel.sort_unstable_by_key(|&(t, (p, id))| (t, p, id.index()));
        for &(t, (p, id)) in &rel {
            let input = InputPort::from_index(p as usize);
            let entry = self.inputs[p as usize].release(id);
            if input.is_network() {
                out.push(RouterOutput::Credit {
                    input,
                    vc: entry.vc,
                    at: t,
                });
            }
        }
        self.scratch_releases = rel;
        self.scratch_house = due;
    }

    fn antistarve_scan(&mut self, now: Tick) {
        if !self.antistarve.scan_due(now) {
            return;
        }
        let cfg = *self.antistarve.config();
        let age = self.cfg.timing.core_cycles(cfg.age_threshold);
        let period = self.cfg.timing.core_cycles(cfg.scan_period);
        let cutoff = now.saturating_sub(age);
        let was_draining = self.antistarve.draining();
        let old: u32 = self.inputs.iter().map(|b| b.count_old(cutoff)).sum();
        self.antistarve.record_scan(now, old, age, period);
        if !was_draining && self.antistarve.draining() {
            self.stats.drain_engagements.bump();
        }
    }

    // ------------------------------------------------------------------
    // Shared arbitration helpers
    // ------------------------------------------------------------------

    /// Re-derives input `input`'s two `waiting_rows` bits after a
    /// transition of its buffer.
    #[inline]
    fn sync_waiting_rows(&mut self, input: usize) {
        let rows = 0b11 << (2 * input);
        if self.inputs[input].waiting_mask() != 0 {
            self.waiting_rows |= rows;
        } else {
            self.waiting_rows &= !rows;
        }
    }

    /// Drops `rows` from the quiet memo: `_why` may have given a pick of
    /// theirs an entry to find.
    #[inline]
    fn wake_rows(&mut self, rows: u16, _why: RowWake) {
        #[cfg(test)]
        if self.quiet_rows & rows != 0 {
            self.wakes[_why as usize] += 1;
        }
        self.quiet_rows &= !rows;
    }

    /// After a buffer transition of `input` that can add an eligible
    /// in-window entry: refreshes its waiting rows and wakes both.
    #[inline]
    fn input_changed(&mut self, input: usize, why: RowWake) {
        self.sync_waiting_rows(input);
        self.wake_rows(0b11 << (2 * input), why);
    }

    /// The request-tracking test at the heart of the LA prune: the VCs of
    /// `scannable` holding, among the `Waiting` entries an LA walk can
    /// reach (their first `scan_window` queued entries), one whose
    /// requested output is simultaneously wired for this row, free, and
    /// — for a torus hop — credited for its downstream VC.
    ///
    /// The buffer maintains each VC's request word at every queue and
    /// state transition ([`InputBuffer::window_requests`]); the bank
    /// maintains the credited masks at every consume/refund. Every entry
    /// of VC `v` resolves the same downstream adaptive VC and one of two
    /// escape VCs, so intersecting the VC's request word with one
    /// wired-and-credited word decides *exactly* whether any in-window
    /// waiting entry is eligible: a VC left out is one whose walk
    /// provably returns nothing, and a row with no live VC nominates
    /// nothing. The test ignores readiness and age, so a live VC may
    /// still walk to nothing — conservative, never wrong.
    #[inline]
    fn live_vcs(&self, buf: &InputBuffer, scannable: u32, wired: u8) -> u32 {
        // The request word's low byte is an output mask: torus nibble,
        // then the local sinks, which need no credit.
        const TORUS: u16 = OutputPort::NETWORK_MASK as u16;
        const SINKS: u16 = 0xFF & !TORUS;
        let torus = wired as u16 & TORUS;
        let wired_word = wired as u16 | torus << REQ_ESCAPE_SHIFT[0] | torus << REQ_ESCAPE_SHIFT[1];
        let special = VcId::special().index();
        let mut live = 0u32;
        let mut mask = scannable;
        while mask != 0 {
            let v = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let requests = buf.window_requests(v) & wired_word;
            if requests == 0 {
                continue;
            }
            let (avc, evc0, evc1) = if v == special {
                (special, special, special)
            } else {
                let base = 3 * (v / 3);
                (base, base + 1, base + 2)
            };
            let credited = |vc: usize| self.credits.credited_mask(VcId::from_index(vc)) as u16;
            let credited_word = credited(avc)
                | SINKS
                | credited(evc0) << REQ_ESCAPE_SHIFT[0]
                | credited(evc1) << REQ_ESCAPE_SHIFT[1];
            if requests & credited_word != 0 {
                live |= 1 << v;
            }
        }
        live
    }

    /// Mask of output ports the LA stage considers free at `now`: ports
    /// whose current packet clears within the entry table's fixed
    /// prediction horizon ([`RouterConfig::la_lookahead`]).
    fn free_outputs_for_la(&self, now: Tick) -> u8 {
        let horizon = now + self.lookahead;
        let mut mask = 0u8;
        for (i, o) in self.outputs.iter().enumerate() {
            if o.busy_until() <= horizon {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Picks one (output, downstream VC) from an eligibility result.
    /// Returns `None` when the eligibility is empty.
    fn choose_output(&self, elig: Eligibility) -> Option<(usize, Option<VcId>)> {
        match elig {
            Eligibility::None => None,
            Eligibility::Escape { output, vc } => Some((output, Some(vc))),
            Eligibility::Local { outputs } => {
                if outputs == 0 {
                    return None;
                }
                if outputs.count_ones() == 1 {
                    return Some((outputs.trailing_zeros() as usize, None));
                }
                // Among local sinks, prefer the one freeing earliest.
                let mut best = outputs.trailing_zeros() as usize;
                let mut m = outputs & (outputs - 1);
                while m != 0 {
                    let bit = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if self.outputs[bit].busy_until() < self.outputs[best].busy_until() {
                        best = bit;
                    }
                }
                Some((best, None))
            }
            Eligibility::Adaptive { outputs, vc } => {
                debug_assert!(outputs != 0);
                if outputs.count_ones() == 1 {
                    return Some((outputs.trailing_zeros() as usize, Some(vc)));
                }
                // Prefer the candidate whose downstream virtual channel
                // holds more credits (congestion-aware; ties go to the
                // lower port index).
                let mut out = usize::MAX;
                let mut best_credit = 0u16;
                let mut m = outputs;
                while m != 0 {
                    let bit = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let credit = self.credits.available(OutputPort::from_index(bit), vc);
                    if out == usize::MAX || credit > best_credit {
                        out = bit;
                        best_credit = credit;
                    }
                }
                Some((out, Some(vc)))
            }
        }
    }

    /// Walks one read port's VCs (least-recently-selected first) for the
    /// oldest nominable entry, returning its id, output and downstream VC.
    /// Anti-starvation drain: old packets take priority, so a drain walks
    /// for them first and falls back to a normal walk when none can move.
    /// A row whose normal walk finds nothing joins the quiet memo.
    fn pick_nomination(
        &mut self,
        row: usize,
        now: Tick,
        free: u8,
    ) -> Option<(EntryId, usize, Option<VcId>)> {
        let wired = self.conn.row_mask(row) as u8 & free;
        let (mut found, mut deferred) = (None, false);
        for cutoff in self.antistarve.cutoff().map(Some).into_iter().chain([None]) {
            deferred = self.walk_row(row, now, wired, cutoff, |vc, id, elig| {
                found = Some((vc, id, elig));
                true
            });
            if found.is_some() {
                break;
            }
        }
        let Some((vc, id, elig)) = found else {
            // A walk that passed over a backed-off loser is not memoised:
            // that entry becomes ready with time alone, which no clearing
            // rule sees.
            self.quiet_rows |= u16::from(!deferred) << row;
            #[cfg(test)]
            {
                self.deferred_picks += u64::from(deferred);
            }
            return None;
        };
        let (out, vc_down) = self.choose_output(elig)?;
        // Selecting from a VC makes it most-recently selected.
        self.vc_lru[row].touch(vc);
        Some((id, out, vc_down))
    }

    /// The one walk over a read port's candidates, shared by SPAA's LA
    /// pick and the window fill: the live VCs (the [`Router::live_vcs`]
    /// prune against `wired`) in the row's LRU order, at most
    /// `scan_window` queued entries of each. Every ready `Waiting` entry
    /// with a non-empty eligibility against `wired` — with
    /// `only_older_than = Some(cutoff)`, only anti-starvation "old" ones —
    /// goes to `stop` as (VC, id, eligibility), and the walk ends when
    /// `stop` returns true. Returns whether it passed over a `Waiting`
    /// entry not yet ready at `now`.
    ///
    /// The walk touches only the dense [`EntryMeta`] slab: readiness is
    /// one flag-and-tick test and eligibility a handful of mask ANDs
    /// against the cached candidate outputs and the bank's credited
    /// masks; the fat [`Entry`] payload is loaded only on the rare
    /// anti-starvation age check. The result is bit-identical to the
    /// payload-walking scan it replaces ([`InputBuffer::debug_validate`]
    /// proves `metadata ≡ entries`). Debug builds also walk the VCs the
    /// prune rejected, in the same order up to the stop, asserting that
    /// none holds an eligible entry.
    fn walk_row(
        &self,
        row: usize,
        now: Tick,
        wired: u8,
        only_older_than: Option<Tick>,
        mut stop: impl FnMut(usize, EntryId, Eligibility) -> bool,
    ) -> bool {
        let buf = &self.inputs[row / 2];
        let waiting = buf.waiting_mask();
        let live = self.live_vcs(buf, waiting, wired);
        let metas = buf.metas();
        let lru = &self.vc_lru[row];
        let mut vcs = if cfg!(debug_assertions) {
            waiting
        } else {
            live
        };
        let mut deferred = false;
        while vcs != 0 {
            let v = lru.oldest(vcs);
            vcs &= !(1 << v);
            let pruned = cfg!(debug_assertions) && live & 1 << v == 0;
            let mut cur = buf.queue_head(VcId::from_index(v));
            let mut scanned = 0;
            while cur != NIL_INDEX && scanned < self.cfg.scan_window {
                let m = &metas[cur as usize];
                let idx = cur;
                cur = m.next;
                scanned += 1;
                if m.flags & META_WAITING == 0 || m.ready_at > now {
                    deferred |= m.flags & META_WAITING != 0 && !pruned;
                    continue;
                }
                if only_older_than.is_some_and(|cutoff| buf.entry_eligible_at(idx) > cutoff) {
                    continue;
                }
                let elig = self.eligibility_meta(m, wired);
                if matches!(elig, Eligibility::None | Eligibility::Local { outputs: 0 }) {
                    continue;
                }
                debug_assert!(
                    !pruned,
                    "pruned VC {v} of row {row} holds an eligible entry"
                );
                if stop(v, EntryId::new(idx, m.gen), elig) {
                    return deferred;
                }
            }
        }
        deferred
    }

    /// The eligibility test over the cached scan metadata: identical to
    /// evaluating the entry's route against `wired` and the credit bank,
    /// without loading the entry.
    #[inline]
    fn eligibility_meta(&self, m: &EntryMeta, wired: u8) -> Eligibility {
        if m.flags & META_LOCAL != 0 {
            return Eligibility::Local {
                outputs: m.outputs & wired,
            };
        }
        if m.adaptive_vc != NO_VC {
            let vc = VcId::from_index(m.adaptive_vc as usize);
            let a = m.outputs & wired & self.credits.credited_mask(vc);
            if a != 0 {
                return Eligibility::Adaptive { outputs: a, vc };
            }
        }
        // Blocked adaptively (or an escape-only class): take the
        // dimension-order hop.
        let vc = VcId::from_index(m.escape_vc as usize);
        if m.escape_mask & wired != 0 && self.credits.credited_mask(vc) & m.escape_mask != 0 {
            Eligibility::Escape {
                output: m.escape_mask.trailing_zeros() as usize,
                vc,
            }
        } else {
            Eligibility::None
        }
    }

    /// Commits a grant: streams the packet out and emits events.
    fn dispatch(
        &mut self,
        row: usize,
        id: EntryId,
        output: usize,
        downstream_vc: Option<VcId>,
        ga: Tick,
        out: &mut Vec<RouterOutput>,
    ) {
        let input = row / 2;
        let entry = *self.inputs[input].entry(id);
        let sched = self.outputs[output].dispatch(
            ga,
            entry.packet.len(),
            entry.eligible_at,
            entry.in_flit_period,
            // A read port streams one packet at a time: the next train may
            // be granted early but starts after the previous one ends.
            self.read_ports[row].busy_until,
            &self.cfg.timing,
        );
        let port = OutputPort::from_index(output);
        let mut packet = entry.packet;
        self.stats.grants.bump();
        self.stats.packets_out.bump();
        self.stats.flits_out.add(packet.len() as u64);
        match downstream_vc {
            Some(vc) => {
                self.credits.consume(port, vc);
                if !vc.is_adaptive() && vc != VcId::special() {
                    self.stats.escape_dispatches.bump();
                }
                packet.hops += 1;
                out.push(RouterOutput::Forward(OutgoingPacket {
                    packet,
                    output: port,
                    downstream_vc: vc,
                    first_flit: sched.first_flit,
                    flit_period: self.outputs[output].flit_period(&self.cfg.timing),
                    last_flit_done: sched.done,
                }));
            }
            None => {
                self.stats.packets_delivered.bump();
                self.stats.flits_delivered.add(packet.len() as u64);
                out.push(RouterOutput::Delivered {
                    packet,
                    output: port,
                    at: sched.done,
                });
            }
        }
        // Dispatching from a VC makes it the most-recently-selected VC of
        // this read port (the LA ordering key, §3).
        self.vc_lru[row].touch(entry.vc.index());
        // The read port streams the flits; the buffer slot frees with the
        // tail.
        self.read_ports[row].busy_until = sched.done;
        self.inputs[input].begin_departure(id, sched.done);
        self.input_changed(input, RowWake::Departure);
        self.active_entries -= 1;
        self.house
            .schedule(sched.done, HouseEvent::Release(input as u8, id));
    }

    // ------------------------------------------------------------------
    // SPAA driver (§3.3)
    // ------------------------------------------------------------------

    /// The GA stage: resolves the nominations maturing at `now`, one
    /// [`Selector`] pick per output. `arbitration::spaa::SpaaArbiter::grant`
    /// is the same pick as a pure function and is not called here: this
    /// stage interleaves it with a port re-check, the anti-starvation
    /// narrowing of the pool and a credit re-check, all on router state.
    fn spaa_ga_phase(&mut self, now: Tick, out: &mut Vec<RouterOutput>) {
        if self.ga_queue.front().is_none_or(|n| n.decide_at > now) {
            return;
        }
        // Pop all nominations maturing now, grouped per output. The list
        // lives in a router-owned scratch buffer (moved out for the
        // duration of the phase) so the steady state never allocates.
        //
        // All nominations sharing a decide tick come from the same LA
        // cycle, which pushed them in ascending row order, so the FIFO
        // yields `(decide_at, row, …)` order.
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        while let Some(&n) = self.ga_queue.front() {
            if n.decide_at > now {
                break;
            }
            self.ga_queue.pop_front();
            // Stale-check: the entry must still hold this nomination
            // (grants of sibling nominations cancel the others; a
            // handle whose entry departed and was released reads as not
            // current).
            let live = self.inputs[n.input as usize]
                .entry_if_current(n.entry)
                .is_some_and(|entry| {
                    matches!(
                        entry.state,
                        EntryState::Nominated { read_port, output, decide_at }
                            if read_port == n.row % 2 && output == n.output && decide_at == n.decide_at
                    )
                });
            self.read_ports[n.row as usize].retire(n.entry);
            if live {
                due.push(n);
            }
        }
        if due.is_empty() {
            self.scratch_due = due;
            return;
        }
        for output in 0..NUM_OUTPUT_PORTS {
            let mut contenders = 0u32;
            for n in &due {
                if n.output as usize == output {
                    contenders |= 1 << n.row;
                }
            }
            if contenders == 0 {
                continue;
            }
            // Re-check the port (another grant may have claimed it since
            // LA time) and pick a winner. During an anti-starvation drain,
            // old contenders pre-empt everyone — including the Rotary
            // Rule, whose starvation this mechanism exists to break.
            let winner_row = if self.outputs[output].grantable(now, &self.cfg.timing) {
                let pool = match self.antistarve.cutoff() {
                    Some(cutoff) => {
                        let mut old = 0u32;
                        for n in &due {
                            if n.output as usize == output
                                && self.inputs[n.input as usize].entry(n.entry).eligible_at
                                    <= cutoff
                            {
                                old |= 1 << n.row;
                            }
                        }
                        if old != 0 {
                            old
                        } else {
                            contenders
                        }
                    }
                    None => contenders,
                };
                Some(self.selectors[output].select(pool))
            } else {
                None
            };
            for &n in &due {
                if n.output as usize != output {
                    continue;
                }
                if Some(n.row as usize) == winner_row {
                    // Double-check credit at GA: it was reserved
                    // implicitly at LA by eligibility, but a sibling grant
                    // may have raced it away.
                    let ok = match n.downstream_vc {
                        Some(vc) => self.credits.available(OutputPort::from_index(output), vc) > 0,
                        None => true,
                    };
                    if ok {
                        self.dispatch(n.row as usize, n.entry, output, n.downstream_vc, now, out);
                        // A granted read port abandons its other in-flight
                        // nominations (it is now busy streaming).
                        self.cancel_other_nominations(n.row as usize, n.entry, now);
                        continue;
                    }
                }
                // Loser (or no winner): reset for re-nomination next cycle
                // (SPAA step 3).
                self.stats.collisions.bump();
                self.inputs[n.input as usize]
                    .set_waiting(n.entry, now + self.cfg.timing.core.period());
                self.input_changed(n.input as usize, RowWake::Loser);
            }
        }
        self.scratch_due = due;
    }

    /// Resets any still-nominated entries of `row` other than `granted`
    /// (a granted read port is busy streaming and abandons its other
    /// in-flight nominations).
    fn cancel_other_nominations(&mut self, row: usize, granted: EntryId, now: Tick) {
        let input = row / 2;
        let rp = (row % 2) as u8;
        // Indexed re-borrow per iteration: the inflight list is tiny and
        // unchanged here, and this avoids cloning it every grant.
        for i in 0..self.read_ports[row].inflight.len() {
            let id = self.read_ports[row].inflight[i];
            if id == granted {
                continue;
            }
            let e = self.inputs[input].entry(id);
            if matches!(e.state, EntryState::Nominated { read_port, .. } if read_port == rp) {
                self.inputs[input].set_waiting(id, now + self.cfg.timing.core.period());
                self.input_changed(input, RowWake::Loser);
            }
        }
    }

    /// The rows both drivers visit: those holding a `Waiting` entry and
    /// not memoised quiet, in ascending order (the input-major order).
    #[inline]
    fn gate_rows(&self) -> u16 {
        #[cfg(test)]
        if self.every_row {
            return u16::MAX;
        }
        self.waiting_rows & !self.quiet_rows
    }

    /// The free-output mask an arbitration at `now` walks against, for
    /// both drivers. Losing a free output can only empty a walk; gaining
    /// one wakes the rows wired to it.
    fn gate_free(&mut self, now: Tick) -> u8 {
        let free = self.free_outputs_for_la(now);
        let mut freed = free & !self.last_free;
        self.last_free = free;
        let mut woken = 0u16;
        while freed != 0 {
            woken |= self.rows_of_output[freed.trailing_zeros() as usize];
            freed &= freed - 1;
        }
        self.wake_rows(woken, RowWake::OutputFreed);
        #[cfg(debug_assertions)]
        if free != 0 {
            self.debug_check_row_gate(now, free);
        }
        free
    }

    /// The LA stage. With no waiting row it returns before
    /// [`Router::gate_free`]: a row starts waiting only through
    /// [`Router::input_changed`], which wakes it, so the stale `last_free`
    /// can miss only wakes of rows that are not waiting, and the next LA
    /// that runs re-syncs it.
    fn spaa_la_phase(&mut self, now: Tick) {
        if self.waiting_rows == 0 {
            return;
        }
        let ga = now + self.ga_delay;
        let free = self.gate_free(now);
        if free == 0 {
            return;
        }
        let mut rows = self.gate_rows();
        while rows != 0 {
            let row = rows.trailing_zeros() as usize;
            rows &= rows - 1;
            if !self.read_ports[row].can_arbitrate(now, self.lookahead, self.max_inflight) {
                continue;
            }
            let Some((id, output, vc_down)) = self.pick_nomination(row, now, free) else {
                continue;
            };
            let input = row / 2;
            self.inputs[input].set_nominated(id, (row % 2) as u8, output as u8, ga);
            self.sync_waiting_rows(input);
            // The sibling row is skipped if that took the input's last
            // waiting entry.
            rows &= self.gate_rows();
            self.read_ports[row].inflight.push(id);
            self.stats.nominations.bump();
            self.ga_queue.push_back(Nomination {
                row: row as u8,
                input: input as u8,
                entry: id,
                output: output as u8,
                downstream_vc: vc_down,
                decide_at: ga,
            });
        }
    }

    /// The row gate's cross-check: `waiting_rows` matches the buffers,
    /// and every quiet waiting row that can arbitrate still finds nothing
    /// (a walk changes no state).
    #[cfg(debug_assertions)]
    fn debug_check_row_gate(&self, now: Tick, free: u8) {
        let derived = (0..NUM_INPUT_PORTS)
            .filter(|&i| self.inputs[i].waiting_mask() != 0)
            .fold(0u16, |rows, i| rows | 0b11 << (2 * i));
        assert_eq!(
            self.waiting_rows, derived,
            "waiting_rows out of step with the buffers"
        );
        let mut quiet = self.waiting_rows & self.quiet_rows;
        while quiet != 0 {
            let row = quiet.trailing_zeros() as usize;
            quiet &= quiet - 1;
            if !self.read_ports[row].can_arbitrate(now, self.lookahead, self.max_inflight) {
                continue;
            }
            let wired = self.conn.row_mask(row) as u8 & free;
            self.walk_row(row, now, wired, None, |_, _, _| {
                panic!("quiet row {row} holds an eligible entry")
            });
        }
    }

    // ------------------------------------------------------------------
    // Windowed driver for PIM1 / WFA (§3.1, §3.2) and the extension
    // kernels: iSLIP and the weighted pair iLQF / iOCF
    // ------------------------------------------------------------------

    fn run_window(&mut self, now: Tick, out: &mut Vec<RouterOutput>) {
        let ga = now + self.ga_delay;
        let free = self.gate_free(now);
        if free == 0 {
            return;
        }
        // The snapshot is router-owned scratch, moved out for the duration
        // of the window and rebuilt in place.
        let mut snapshot = self
            .win_snapshot
            .take()
            .expect("a windowed algorithm builds a snapshot");
        self.fill_window(&mut snapshot, now, free);
        let input = &snapshot.input;
        let requested = input.requests.request_count();
        if requested == 0 {
            self.win_snapshot = Some(snapshot);
            return;
        }
        self.stats.nominations.add(requested as u64);
        let kernel = self
            .kernel
            .as_mut()
            .expect("a windowed algorithm builds a kernel");
        let matching = kernel.arbitrate(input, &mut self.rng);
        // Oracle instrumentation (fig_weighted only): score this window's
        // matching against the exact maximum-weight matching on the same
        // weight plane. Pure observation — the oracle result never feeds
        // back into grants and the solve draws no random numbers, so
        // enabling it cannot perturb the simulation.
        if self.cfg.measure_matching_weight {
            let weights = input.weights.as_ref().expect("measurement stamps weights");
            self.stats
                .matched_weight
                .add(weights.matching_weight(&matching));
            let optimal = arbitration::mwm::maximum_weight_matching(&input.requests, weights);
            self.stats.mwm_weight.add(weights.matching_weight(&optimal));
        }
        // Apply grants; a packet reachable from both read ports of a port
        // pair must not dispatch twice ("the input port arbiters in a pair
        // must synchronize to ensure that they do not choose the same
        // packet", §3.3 — the same applies to the matrix algorithms).
        let mut dispatched = std::mem::take(&mut self.scratch_dispatched);
        dispatched.clear();
        for (row, col) in matching.pairs() {
            let cand: Candidate = snapshot
                .candidate(row, col)
                .expect("granted cell has candidate");
            let input = row / 2;
            if dispatched
                .iter()
                .any(|&(p, id)| p == input && id == cand.entry)
            {
                self.stats.collisions.bump();
                continue;
            }
            dispatched.push((input, cand.entry));
            self.dispatch(row, cand.entry, col, cand.downstream_vc, ga, out);
        }
        self.scratch_dispatched = dispatched;
        self.win_snapshot = Some(snapshot);
    }

    /// Rebuilds the window's offer table in `snap`, walking each gated
    /// row that can arbitrate. Anti-starvation: old entries claim matrix
    /// cells first (offers are first-writer-wins), then the general
    /// population fills in. A row offers only to its *open* cells —
    /// wired, free and still unclaimed — and stops at the first entry
    /// that leaves none open: an offer to a claimed cell is a no-op. The
    /// snapshot is bit-identical to the plain every-row walk offering
    /// every eligible output (`fill_matches_the_plain_walk` pins it).
    ///
    /// A row joins the quiet memo when its normal walk ends with
    /// `open == wired`: it offered nothing and the drain pre-pass claimed
    /// none of its cells, so it found no eligible entry at all — the same
    /// condition under which SPAA memoises a row — and it passed no
    /// backed-off entry.
    fn fill_window(&mut self, snap: &mut WindowSnapshot, now: Tick, free: u8) {
        snap.reset();
        for cutoff in self.antistarve.cutoff().map(Some).into_iter().chain([None]) {
            let mut rows = self.gate_rows();
            while rows != 0 {
                let row = rows.trailing_zeros() as usize;
                rows &= rows - 1;
                if !self.read_ports[row].can_arbitrate(now, self.lookahead, self.max_inflight) {
                    continue;
                }
                let wired = self.conn.row_mask(row) as u8 & free;
                let mut open = wired & !(snap.input.requests.row_mask(row) as u8);
                let buf = &self.inputs[row / 2];
                let deferred = open != 0
                    && self.walk_row(row, now, wired, cutoff, |v, entry, elig| {
                        // Eligibility is judged against every wired output,
                        // not just the open ones: narrowing it could turn
                        // an adaptive entry into an escape one.
                        let (outputs, downstream_vc) = match elig {
                            Eligibility::None => (0, None),
                            Eligibility::Local { outputs } => (outputs, None),
                            Eligibility::Adaptive { outputs, vc } => (outputs, Some(vc)),
                            Eligibility::Escape { output, vc } => (1 << output, Some(vc)),
                        };
                        let mut bits = outputs & open;
                        if bits == 0 {
                            return false;
                        }
                        open &= !bits;
                        let cand = Candidate {
                            entry,
                            downstream_vc,
                        };
                        let weight = self.offer_weight(buf, v, entry.index() as u32, now);
                        while bits != 0 {
                            snap.offer(row, bits.trailing_zeros() as usize, cand, weight);
                            bits &= bits - 1;
                        }
                        open == 0
                    });
                if cutoff.is_none() && open == wired && !deferred {
                    self.quiet_rows |= 1 << row;
                }
            }
        }
    }

    /// The scheduling weight an offer of entry slot `idx` of VC `v` in
    /// `buf` carries (iLQF/iOCF, or oracle measurement): depth is the
    /// VC's waiting-entry count behind the candidate (≥ 1, since the
    /// candidate itself waits there); age is the candidate's eligibility
    /// age in core cycles, floored at 1 so a requested cell never carries
    /// weight 0. Without a weight plane it is 0, computed from nothing.
    /// (The standalone model, with neither VCs nor a clock, defines both
    /// differently: its `weight_planes`.)
    #[inline]
    fn offer_weight(&self, buf: &InputBuffer, v: usize, idx: u32, now: Tick) -> u32 {
        match self.weight_kind {
            None => 0,
            Some(WeightKind::Depth) => buf.waiting_count(v) as u32,
            Some(WeightKind::Age) => {
                let core_period = self.cfg.timing.core.period().as_ticks().max(1);
                let age = now.saturating_sub(buf.entry_eligible_at(idx)).as_ticks() / core_period;
                age.min(u32::MAX as u64 - 1) as u32 + 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{CoherenceClass, PacketId};
    use crate::route::EscapeVc;
    use crate::ArbAlgorithm;
    use simcore::time::Cycles;

    #[test]
    fn vc_lru_matches_a_move_to_back_list() {
        // Random selections and oldest-of-mask queries against the plain
        // list (least recent first, a selected VC moves to the back). One
        // run of 200,000 selections wraps the 16-bit clock three times, so
        // the re-rank runs mid-sequence.
        let mut rng = SimRng::from_seed(11);
        let mut lru = VcLru::new();
        let mut list: [u8; NUM_VCS] = std::array::from_fn(|v| v as u8);
        let mut reranks = 0;
        for op in 0..200_000 {
            let mask = rng.next_u32() & ((1 << NUM_VCS) - 1);
            if mask != 0 {
                let want = list.iter().find(|&&v| mask & (1 << v) != 0).copied();
                assert_eq!(Some(lru.oldest(mask) as u8), want, "op {op} mask {mask:#x}");
            }
            let vc = rng.below(NUM_VCS);
            let pos = list.iter().position(|&v| v as usize == vc).unwrap();
            list[pos..].rotate_left(1);
            let clock = lru.clock;
            lru.touch(vc);
            if lru.clock < clock {
                reranks += 1;
            }
        }
        assert!(reranks >= 3, "the clock wrapped {reranks} times");
        for (rank, &v) in list.iter().enumerate() {
            let later = list[rank..].iter().fold(0u32, |m, &w| m | 1 << w);
            assert_eq!(lru.oldest(later), v as usize, "rank {rank}");
        }
    }

    /// The window fill as the plain statement of its semantics: for each
    /// row, in LRU VC order, each in-window, ready, `Waiting` entry (in
    /// queue order) offers every eligible output; the first writer wins.
    fn fill_reference(
        r: &Router,
        snap: &mut WindowSnapshot,
        now: Tick,
        free: u8,
        only_older_than: Option<Tick>,
    ) {
        for row in 0..NUM_ARBITER_ROWS {
            if !r.read_ports[row].can_arbitrate(now, r.lookahead, 1) {
                continue;
            }
            let wired = r.conn.row_mask(row) as u8 & free;
            let buf = &r.inputs[row / 2];
            let mut vcs: Vec<usize> = (0..NUM_VCS).collect();
            vcs.sort_by_key(|&v| r.vc_lru[row].stamp[v]);
            for v in vcs {
                let mut cur = buf.queue_head(VcId::from_index(v));
                for _ in 0..r.cfg.scan_window {
                    if cur == NIL_INDEX {
                        break;
                    }
                    let m = &buf.metas()[cur as usize];
                    let old_enough =
                        only_older_than.is_none_or(|c| buf.entry_eligible_at(cur) <= c);
                    if m.flags & META_WAITING != 0 && m.ready_at <= now && old_enough {
                        let (outputs, downstream_vc) = match r.eligibility_meta(m, wired) {
                            Eligibility::None => (0, None),
                            Eligibility::Local { outputs } => (outputs, None),
                            Eligibility::Adaptive { outputs, vc } => (outputs, Some(vc)),
                            Eligibility::Escape { output, vc } => (1 << output, Some(vc)),
                        };
                        for col in 0..NUM_OUTPUT_PORTS {
                            if outputs & (1 << col) != 0 {
                                let cand = Candidate {
                                    entry: EntryId::new(cur, m.gen),
                                    downstream_vc,
                                };
                                snap.offer(row, col, cand, r.offer_weight(buf, v, cur, now));
                            }
                        }
                    }
                    cur = m.next;
                }
            }
        }
    }

    /// A packet for `vc` at `input`: one in four terminates here, the rest
    /// transit with up to two adaptive choices (none for the escape-only
    /// classes) and an escape hop drawn independently among the torus
    /// outputs that are not a U-turn.
    fn arrival(rng: &mut SimRng, id: u64, input: InputPort, vc: VcId, now: Tick) -> IncomingPacket {
        let class = vc.class();
        let legal: Vec<OutputPort> = OutputPort::ALL[..4]
            .iter()
            .copied()
            .filter(|o| !input.is_network() || o.index() != input.index())
            .collect();
        let route = if rng.chance(0.25) {
            let sinks = if class.may_route_adaptively() {
                OutputPort::L0.mask() | OutputPort::L1.mask()
            } else {
                OutputPort::Io.mask()
            };
            RouteInfo::local(sinks as u8)
        } else {
            let escape = legal[rng.below(legal.len())];
            let adaptive = if class.may_route_adaptively() {
                legal[rng.below(legal.len())].mask() | legal[rng.below(legal.len())].mask()
            } else {
                0
            };
            let escape_vc = if rng.chance(0.5) {
                EscapeVc::Vc0
            } else {
                EscapeVc::Vc1
            };
            RouteInfo::transit(adaptive as u8, escape, escape_vc)
        };
        IncomingPacket {
            packet: Packet::new(PacketId(id), class, 0, 1, now, id),
            route,
            vc,
            pin_time: now,
            in_flit_period: Tick::new(30),
        }
    }

    #[test]
    fn fill_matches_the_plain_walk() {
        // Saturated routers, every input topped up each cycle across nine
        // VCs (adaptive, escape and special), every forward credited back
        // after up to 400 link clocks, so adaptive credits run dry and
        // entries fall back to escape hops outside their adaptive choices.
        // Each window's production fill must equal
        // the plain walk cell for cell: candidate, request bit and weight.
        // A short age threshold makes drain windows (the old-entries
        // pre-pass) occur.
        use CoherenceClass as C;
        let load: [(VcId, usize); 9] = [
            (VcId::adaptive(C::Request), 12),
            (VcId::adaptive(C::Forward), 6),
            (VcId::adaptive(C::BlockResponse), 6),
            (VcId::adaptive(C::NonBlockResponse), 4),
            (VcId::escape(C::Request, EscapeVc::Vc0), 1),
            (VcId::escape(C::Forward, EscapeVc::Vc1), 1),
            (VcId::escape(C::ReadIo, EscapeVc::Vc0), 1),
            (VcId::escape(C::WriteIo, EscapeVc::Vc1), 1),
            (VcId::special(), 2),
        ];
        for algorithm in [
            ArbAlgorithm::Pim1,
            ArbAlgorithm::WfaRotary,
            ArbAlgorithm::Ilqf { iterations: 2 },
            ArbAlgorithm::Iocf { iterations: 1 },
        ] {
            let mut cfg = RouterConfig::alpha_21364(algorithm);
            cfg.measure_matching_weight = true;
            cfg.antistarvation.age_threshold = Cycles::new(48);
            cfg.antistarvation.count_threshold = 8;
            cfg.antistarvation.scan_period = Cycles::new(16);
            let core = cfg.timing.core.period();
            let mut r = Router::new(0, cfg, SimRng::from_seed(7));
            let weighted = r.weight_kind.is_some();
            assert!(weighted, "{algorithm}: the oracle asks for weights");
            let mut rng = SimRng::from_seed(8);
            let (mut next_id, mut windows, mut drain_windows, mut offers) = (0u64, 0, 0, 0);
            let mut out = Vec::new();
            for cycle in 0..2_000u64 {
                let now = Tick::new(cycle * core.as_ticks());
                for input in InputPort::ALL {
                    for &(vc, depth) in &load {
                        let spare = r.cfg.buffers.capacity(vc) - depth;
                        while r.free_space(input, vc) > spare {
                            r.accept_packet(input, arrival(&mut rng, next_id, input, vc, now));
                            next_id += 1;
                        }
                    }
                }
                // The phases `step` runs before its window (each a no-op
                // when `step` repeats it at the same `now`), then both
                // fills of the window it is about to run, against the
                // free mask of the same gate.
                out.clear();
                r.catch_up_idle(now);
                r.process_housekeeping(now, &mut out);
                r.antistarve_scan(now);
                let free = if now >= r.next_window {
                    r.gate_free(now)
                } else {
                    0
                };
                if free != 0 {
                    let mut got = WindowSnapshot::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS, weighted);
                    r.fill_window(&mut got, now, free);
                    let mut want =
                        WindowSnapshot::new(NUM_ARBITER_ROWS, NUM_OUTPUT_PORTS, weighted);
                    if let Some(cutoff) = r.antistarve.cutoff() {
                        fill_reference(&r, &mut want, now, free, Some(cutoff));
                        drain_windows += 1;
                    }
                    fill_reference(&r, &mut want, now, free, None);
                    for row in 0..NUM_ARBITER_ROWS {
                        let (g, w) = (&got.input, &want.input);
                        assert_eq!(
                            g.requests.row_mask(row),
                            w.requests.row_mask(row),
                            "{algorithm} cycle {cycle} row {row}: request bits"
                        );
                        for col in 0..NUM_OUTPUT_PORTS {
                            let cell = |s: &WindowSnapshot| {
                                let weight = s.input.weights.as_ref().map(|p| p.weight(row, col));
                                (s.candidate(row, col), weight)
                            };
                            assert_eq!(
                                cell(&got),
                                cell(&want),
                                "{algorithm} cycle {cycle} cell ({row}, {col})"
                            );
                        }
                    }
                    windows += 1;
                    offers += got.input.requests.request_count();
                }
                r.step(now, &mut out);
                for event in &out {
                    if let RouterOutput::Forward(o) = *event {
                        let back = o.last_flit_done + Tick::new(30 * (3 + rng.below(400) as u64));
                        r.accept_credit(o.output, o.downstream_vc, back);
                    }
                }
            }
            assert!(
                r.stats().grants.get() > 100,
                "{algorithm}: the router moved traffic"
            );
            assert!(
                offers > windows,
                "{algorithm}: {offers} offers in {windows} windows"
            );
            assert!(
                drain_windows > 0 && drain_windows < windows,
                "{algorithm}: {drain_windows} drain windows of {windows}"
            );
        }
    }

    #[test]
    fn la_gate_matches_the_every_row_la() {
        // A saturated router per driver: every torus input starts full on
        // nine VCs and each released slot is refilled at once. Each forward
        // is credited back when the downstream router frees its slot, 3 to
        // 4,000 link clocks later, so credits run dry, entries fall back to
        // escape hops and whole outputs stall until a refund. The gated
        // router must emit the same events and counters as the every-row
        // one at every step, and every clearing rule must have woken a
        // quiet row (losers and back-offs exist under SPAA only).
        use CoherenceClass as C;
        let vcs = [
            VcId::adaptive(C::Request),
            VcId::adaptive(C::Forward),
            VcId::adaptive(C::BlockResponse),
            VcId::adaptive(C::NonBlockResponse),
            VcId::escape(C::Request, EscapeVc::Vc0),
            VcId::escape(C::Forward, EscapeVc::Vc1),
            VcId::escape(C::ReadIo, EscapeVc::Vc0),
            VcId::escape(C::WriteIo, EscapeVc::Vc1),
            VcId::special(),
        ];
        for algorithm in [
            ArbAlgorithm::SpaaRotary,
            ArbAlgorithm::WfaRotary,
            ArbAlgorithm::Pim1,
        ] {
            let cfg = RouterConfig::alpha_21364(algorithm);
            let core = cfg.timing.core.period();
            let mut gated = Router::new(0, cfg.clone(), SimRng::from_seed(3));
            let mut every = Router::new(0, cfg, SimRng::from_seed(3));
            every.every_row = true;
            let mut rng = SimRng::from_seed(4);
            let mut next_id = 0u64;
            for input in InputPort::ALL.into_iter().filter(|p| p.is_network()) {
                for &vc in &vcs {
                    for _ in 0..gated.free_space(input, vc) {
                        let incoming = arrival(&mut rng, next_id, input, vc, Tick::ZERO);
                        next_id += 1;
                        gated.accept_packet(input, incoming);
                        every.accept_packet(input, incoming);
                    }
                }
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for cycle in 0..20_000u64 {
                let now = Tick::new(cycle * core.as_ticks());
                got.clear();
                want.clear();
                gated.step(now, &mut got);
                every.step(now, &mut want);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{algorithm} cycle {cycle}: events"
                );
                assert_eq!(
                    format!("{:?}", gated.stats()),
                    format!("{:?}", every.stats()),
                    "{algorithm} cycle {cycle}: stats"
                );
                for event in &got {
                    match *event {
                        RouterOutput::Credit { input, vc, at } => {
                            let incoming = arrival(&mut rng, next_id, input, vc, at);
                            next_id += 1;
                            gated.accept_packet(input, incoming);
                            every.accept_packet(input, incoming);
                        }
                        RouterOutput::Forward(o) => {
                            let back =
                                o.last_flit_done + Tick::new(30 * (3 + rng.below(4_000) as u64));
                            gated.accept_credit(o.output, o.downstream_vc, back);
                            every.accept_credit(o.output, o.downstream_vc, back);
                        }
                        RouterOutput::Delivered { .. } => {}
                    }
                }
            }
            assert!(
                gated.stats().grants.get() > 5_000,
                "{algorithm}: the router moved traffic"
            );
            let spaa = algorithm.is_spaa();
            let rules = ["refund", "output freed", "arrival", "departure", "loser"];
            for (rule, &n) in rules.iter().zip(&gated.wakes) {
                assert!(
                    (n > 0) == (spaa || *rule != "loser"),
                    "{algorithm}: {rule} woke {n} rows: {:?}",
                    gated.wakes
                );
            }
            assert_eq!(
                gated.deferred_picks > 0,
                spaa,
                "{algorithm}: {} back-off picks went unmemoised",
                gated.deferred_picks
            );
        }
    }

    #[test]
    fn spaa_sleep_matches_every_cycle_stepping() {
        // One arrival and credit script drives two routers per SPAA
        // variant: one stepped every cycle, the other only at ticks at or
        // past its `next_work`, asked again after every step and hand-off
        // (the shard's wake rule). Credits come back 3 to 1,500 link
        // clocks after a forward, so outputs stall on credits and on long
        // trains while entries wait, and short anti-starvation thresholds
        // make the router drain. Both must emit the same events and
        // counters at every tick, and the sleeper must have slept while it
        // held competing entries, some of those cycles in drain mode.
        use CoherenceClass as C;
        let vcs = [
            VcId::adaptive(C::Request),
            VcId::adaptive(C::Forward),
            VcId::adaptive(C::BlockResponse),
            VcId::adaptive(C::NonBlockResponse),
            VcId::escape(C::Request, EscapeVc::Vc0),
            VcId::escape(C::Forward, EscapeVc::Vc1),
            VcId::special(),
        ];
        for algorithm in [ArbAlgorithm::SpaaRotary, ArbAlgorithm::SpaaBase] {
            let mut cfg = RouterConfig::alpha_21364(algorithm);
            cfg.antistarvation.age_threshold = Cycles::new(600);
            cfg.antistarvation.count_threshold = 4;
            cfg.antistarvation.scan_period = Cycles::new(64);
            let core = cfg.timing.core.period();
            let mut every = Router::new(0, cfg.clone(), SimRng::from_seed(9));
            let mut sleeper = Router::new(0, cfg, SimRng::from_seed(9));
            let mut rng = SimRng::from_seed(10);
            let (mut next_id, mut wake) = (0u64, Tick::ZERO);
            let (mut loaded_sleeps, mut draining_sleeps) = (0u64, 0u64);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for cycle in 0..40_000u64 {
                let now = Tick::new(cycle * core.as_ticks());
                got.clear();
                want.clear();
                every.step(now, &mut want);
                if now >= wake {
                    sleeper.step(now, &mut got);
                    wake = sleeper.next_work();
                } else if sleeper.active_entries > 0 {
                    loaded_sleeps += 1;
                    draining_sleeps += u64::from(sleeper.antistarve.draining());
                }
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{algorithm} cycle {cycle}: events"
                );
                assert_eq!(
                    format!("{:?}", sleeper.stats()),
                    format!("{:?}", every.stats()),
                    "{algorithm} cycle {cycle}: stats"
                );
                for event in &want {
                    if let RouterOutput::Forward(o) = *event {
                        let back = o.last_flit_done + Tick::new(30 * (3 + rng.below(1_500) as u64));
                        every.accept_credit(o.output, o.downstream_vc, back);
                        sleeper.accept_credit(o.output, o.downstream_vc, back);
                        wake = sleeper.next_work();
                    }
                }
                if rng.chance(0.1) {
                    let input = InputPort::ALL[rng.below(5)];
                    let vc = vcs[rng.below(vcs.len())];
                    if every.free_space(input, vc) > 0 {
                        let incoming = arrival(&mut rng, next_id, input, vc, now);
                        next_id += 1;
                        every.accept_packet(input, incoming);
                        sleeper.accept_packet(input, incoming);
                        wake = sleeper.next_work();
                    }
                }
            }
            assert!(
                every.stats().grants.get() > 2_000,
                "{algorithm}: the router moved traffic"
            );
            assert!(
                loaded_sleeps > 5_000 && draining_sleeps > 0,
                "{algorithm}: {loaded_sleeps} loaded sleeps, {draining_sleeps} of them draining"
            );
        }
    }

    #[test]
    fn diagnostics_show_the_row_gate() {
        let cfg = RouterConfig::alpha_21364(ArbAlgorithm::SpaaRotary);
        let core = cfg.timing.core.period();
        let mut r = Router::new(0, cfg, SimRng::from_seed(5));
        assert!(
            r.diagnostics()
                .ends_with("; quiet-rows 0x0000 waiting-rows 0x0000"),
            "{}",
            r.diagnostics()
        );
        let mut rng = SimRng::from_seed(6);
        let vc = VcId::adaptive(CoherenceClass::Request);
        for id in 0..20 {
            r.accept_packet(
                InputPort::ALL[1],
                arrival(&mut rng, id, InputPort::ALL[1], vc, Tick::ZERO),
            );
        }
        let mut out = Vec::new();
        for cycle in 0..40 {
            r.step(Tick::new(cycle * core.as_ticks()), &mut out);
        }
        assert_eq!(
            r.waiting_rows, 0b1100,
            "input 1 still holds waiting entries"
        );
        let dump = r.diagnostics();
        let field = format!("; quiet-rows {:#06x} waiting-rows 0x000c", r.quiet_rows);
        assert!(dump.ends_with(&field), "{dump}");
    }
}
