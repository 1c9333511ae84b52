//! The entry table: per-input-port packet buffering and arbitration state.
//!
//! The 21364's decode stage "writes the relevant information into an entry
//! table, which contains the arbitration status of packets and is used in
//! the subsequent arbitration pipeline stages" (§2.2). This module models
//! that table: a generational slab of [`Entry`] records per input port,
//! threaded into per-VC age-ordered intrusive lists that the input
//! arbiters scan during LA.
//!
//! The storage is shaped for the *saturated* hot path, where every cycle
//! touches these structures with hundreds of packets buffered:
//!
//! * **Slab + free list** — entries never move; an [`EntryId`] is a slot
//!   index plus a generation stamp, so a stale handle (a nomination that
//!   outlived its packet) is detectable instead of silently reading
//!   whatever reused the slot. Freed slots are recycled LIFO.
//! * **The scan record holds the arbitration status** — the decode stage
//!   distils everything arbitration reads into a compact 32-byte
//!   [`EntryMeta`] per slot: intrusive queue links, generation, the
//!   `Waiting`/nominated state with the nominating read port and output,
//!   a `ready_at` tick (the earliest nomination tick, or while nominated
//!   the GA decide tick), and the candidate-output masks with their
//!   resolved downstream VCs. LA walks, nominations, GA's stale check and
//!   lost nominations read and write only this dense array — one cache
//!   line covers two packets. The 64-byte [`Entry`] payload (packet,
//!   route, eligibility tick, flit period) is written at decode and read
//!   at the grant, by the anti-starvation age tests and by iOCF's age
//!   weight. [`InputBuffer::debug_validate`] checks `cached metadata ≡
//!   re-derivation from the entries` under `debug_assertions` (tests call
//!   it in release too).
//! * **Intrusive per-VC queues** — the links live in the metadata,
//!   making the grant-time release O(1) instead of the O(queue) shifting
//!   a `VecDeque::retain` pays. Every live entry is queued: it leaves its
//!   queue exactly once, at its grant, which frees its slot. Arrivals
//!   decode in eligibility order, so each queue is age-ordered and the
//!   anti-starvation census walks only its old prefix.
//! * **Incremental waiting masks** — the buffer tracks, per VC, how many
//!   queued entries are in the `Waiting` state. Only `Waiting` entries
//!   can ever be nominated, so VCs without one are never visited.
//! * **Window-exact request tracking** — an LA walk examines at most the
//!   first `scan_window` queued entries of a VC, so that prefix (the
//!   *scan window*) is the only part of the queue whose requests matter.
//!   Each entry inside it carries [`META_IN_WINDOW`], each VC remembers
//!   its window tail, and the buffer keeps, per VC, the union of the
//!   outputs requested by the `Waiting` entries inside the window
//!   ([`InputBuffer::window_requests`]) — the row of the request matrix
//!   the arbiters consume, maintained at insert / release / state
//!   transition instead of re-derived by walking the queue. A release
//!   inside the window promotes the next queued entry into it. A VC
//!   whose union misses every wired, free and credited output holds no
//!   eligible entry a walk could reach, so the scans skip it — and a
//!   whole read port — without touching a queue.

use crate::packet::{CoherenceClass, Packet};
use crate::route::RouteInfo;
use crate::vc::{BufferConfig, VcId, NUM_VCS};
use simcore::Tick;

/// Link terminator for the intrusive queue threading.
pub const NIL_INDEX: u32 = u32::MAX;

/// "No virtual channel" marker in [`EntryMeta`] VC fields.
pub(crate) const NO_VC: u8 = u8::MAX;

/// [`EntryMeta::flags`]: state is `Waiting` (the only nominable state);
/// clear on a live entry while a read port has it nominated.
pub(crate) const META_WAITING: u8 = 1 << 0;
/// [`EntryMeta::flags`]: the route is local delivery (no credits needed).
pub(crate) const META_LOCAL: u8 = 1 << 1;
/// [`EntryMeta::flags`]: among the first `scan_window` queued entries of
/// its VC — the only ones an LA walk can reach.
pub const META_IN_WINDOW: u8 = 1 << 2;
/// [`EntryMeta::flags`]: the slot holds a live entry.
const META_LIVE: u8 = 1 << 3;

/// Bit positions of a request word ([`InputBuffer::window_requests`]):
/// the low byte is laid out like an output mask — adaptive torus
/// directions in bits 0-3, local sink ports in bits 4-6 — and the high
/// byte holds the escape direction, one nibble per escape-VC group.
pub const REQ_ESCAPE_SHIFT: [u32; 2] = [8, 12];
/// Number of bit positions a request word uses.
const REQ_BITS: usize = 16;

/// Handle to an entry within one input port's slab: slot index plus the
/// slot's generation at allocation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryId {
    index: u32,
    gen: u32,
}

impl EntryId {
    /// Builds a handle from raw parts (tests and scaffolding).
    pub(crate) fn new(index: u32, gen: u32) -> Self {
        EntryId { index, gen }
    }

    /// The slab slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }
}

/// One buffered packet with its routing: the payload a grant reads. Its
/// arbitration status lives in the slot's [`EntryMeta`].
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// The packet itself.
    pub packet: Packet,
    /// Routing choices at this router.
    pub route: RouteInfo,
    /// The virtual channel whose buffer the packet occupies.
    pub vc: VcId,
    /// When the header became visible to the input arbiters (after input
    /// synchronization/decode delays).
    pub eligible_at: Tick,
    /// Reception period of this packet's flits (link period for network
    /// inputs, core period for local injections) — needed for cut-through
    /// tail timing on the way out.
    pub in_flit_period: Tick,
}

// One payload per cache line.
const _: () = assert!(std::mem::size_of::<Entry>() == 64);

/// The dense per-slot scan record, in 32 bytes: everything the LA
/// readiness and eligibility tests consume, and the entry's arbitration
/// status from nomination to GA. Derived from the [`Entry`] at insert
/// time and updated at every state transition, so arbitration loads the
/// payload of a packet only when it is granted or its age is asked.
#[derive(Clone, Copy, Debug)]
pub struct EntryMeta {
    /// Next entry in this VC's age queue (`NIL_INDEX` at the tail).
    pub(crate) next: u32,
    /// Previous entry in this VC's age queue.
    prev: u32,
    /// Slot generation; bumped on release.
    pub(crate) gen: u32,
    /// While `Waiting`: the earliest tick the entry can be nominated, its
    /// `eligible_at` on arrival and the back-off tick after a lost
    /// nomination. While nominated: the GA decide tick. An entry is
    /// nominable at `now` exactly when
    /// `flags & META_WAITING != 0 && ready_at <= now`.
    pub(crate) ready_at: Tick,
    /// `META_*` bits; 0 exactly when the slot is free.
    pub flags: u8,
    /// While nominated: `output | read_port << 3` of the nomination.
    nomination: u8,
    /// Candidate outputs: the adaptive torus directions for transit
    /// routes, or the wired sink ports for local routes.
    pub(crate) outputs: u8,
    /// The dimension-order escape output as a one-hot mask (0 for local).
    pub(crate) escape_mask: u8,
    /// Downstream adaptive VC index (`NO_VC` when the class must not
    /// route adaptively, or for local routes).
    pub(crate) adaptive_vc: u8,
    /// Downstream deadlock-free VC index for the escape hop (`NO_VC` for
    /// local routes).
    pub(crate) escape_vc: u8,
    /// The VC whose buffer the entry occupies here (for O(1) unlink).
    pub(crate) vc: u8,
}

// Two scan records per cache line; the window flag rides in `flags`.
const _: () = assert!(std::mem::size_of::<EntryMeta>() == 32);

impl EntryMeta {
    /// Derives the route-dependent fields from a freshly decoded entry.
    fn route_fields(entry: &Entry) -> (u8, u8, u8, u8, u8) {
        match &entry.route {
            RouteInfo::Local { outputs } => (META_LOCAL, *outputs, 0, NO_VC, NO_VC),
            RouteInfo::Transit {
                adaptive,
                escape,
                escape_vc,
            } => {
                let class = entry.packet.class;
                let avc = if class.may_route_adaptively() {
                    VcId::adaptive(class).index() as u8
                } else {
                    NO_VC
                };
                let evc = if class == CoherenceClass::Special {
                    VcId::special()
                } else {
                    VcId::escape(class, *escape_vc)
                };
                (0, *adaptive, 1u8 << escape.index(), avc, evc.index() as u8)
            }
        }
    }

    /// The outputs this entry requests, as a request word: its adaptive
    /// directions (only when its class may route adaptively) or local
    /// sinks in the low byte, its escape direction in the nibble of its
    /// escape-VC group (`escape_vc % 3 == 2` selects group 1; the special
    /// class and VC0 escapes land in group 0).
    #[inline]
    fn requests(&self) -> u16 {
        if self.flags & META_LOCAL != 0 {
            return self.outputs as u16;
        }
        let adaptive = if self.adaptive_vc != NO_VC {
            self.outputs
        } else {
            0
        };
        let group = (self.escape_vc % 3 == 2) as usize;
        adaptive as u16 | (self.escape_mask as u16) << REQ_ESCAPE_SHIFT[group]
    }
}

/// One input port's entry table and VC queues.
#[derive(Clone, Debug)]
pub struct InputBuffer {
    /// Dense scan metadata, indexed like `entries`.
    meta: Vec<EntryMeta>,
    /// The packet payloads (loaded only off the scan's hot path).
    entries: Vec<Option<Entry>>,
    /// Freed slot indices, recycled LIFO.
    free: Vec<u32>,
    /// Head (oldest) of each VC's age queue.
    head: [u32; NUM_VCS],
    /// Tail (youngest) of each VC's age queue.
    tail: [u32; NUM_VCS],
    /// Buffered packets per VC, all of them threaded into its age queue.
    occupancy: [u16; NUM_VCS],
    /// Sum of `occupancy` (kept in step so quiescence checks are O(1)).
    total: u16,
    /// Queued entries in the `Waiting` state, per VC.
    waiting: [u16; NUM_VCS],
    /// Bit `v` set while `waiting[v] > 0` (mask-parallel LA skipping:
    /// only `Waiting` entries can be nominated).
    waiting_mask: u32,
    /// How many queued entries per VC an LA walk examines; the first
    /// `scan_window` entries of a queue carry `META_IN_WINDOW`.
    scan_window: usize,
    /// The youngest in-window entry of each VC (`NIL_INDEX` while the
    /// window is empty): the entry queued behind it is the one a release
    /// inside the window promotes.
    window_tail: [u32; NUM_VCS],
    /// Per (VC, request-word bit): in-window `Waiting` entries requesting
    /// that output.
    request_count: [[u16; REQ_BITS]; NUM_VCS],
    /// Per VC: the union of the request words of its in-window `Waiting`
    /// entries (bit `b` set while `request_count[v][b] > 0`).
    requests: [u16; NUM_VCS],
    /// Bit `v` set while VC `v`'s age queue is non-empty.
    non_empty: u32,
    caps: BufferConfig,
    /// Test-only: payload loads by the simulation's own paths (debug
    /// cross-checks read the slab directly and are not counted).
    #[cfg(test)]
    payload_reads: std::cell::Cell<u64>,
}

impl InputBuffer {
    /// Creates an empty buffer with the given partition, tracking the
    /// requests of the first `scan_window` queued entries of each VC.
    pub fn new(caps: BufferConfig, scan_window: usize) -> Self {
        InputBuffer {
            meta: Vec::new(),
            entries: Vec::new(),
            free: Vec::new(),
            head: [NIL_INDEX; NUM_VCS],
            tail: [NIL_INDEX; NUM_VCS],
            occupancy: [0; NUM_VCS],
            total: 0,
            waiting: [0; NUM_VCS],
            waiting_mask: 0,
            scan_window,
            window_tail: [NIL_INDEX; NUM_VCS],
            request_count: [[0; REQ_BITS]; NUM_VCS],
            requests: [0; NUM_VCS],
            non_empty: 0,
            caps,
            #[cfg(test)]
            payload_reads: std::cell::Cell::new(0),
        }
    }

    /// Adds one in-window waiting entry's requests to VC `v`'s union.
    #[inline]
    fn add_requests(&mut self, v: usize, m: &EntryMeta) {
        let mut bits = m.requests();
        self.requests[v] |= bits;
        while bits != 0 {
            self.request_count[v][bits.trailing_zeros() as usize] += 1;
            bits &= bits - 1;
        }
    }

    /// Removes one in-window waiting entry's requests from VC `v`'s union.
    #[inline]
    fn remove_requests(&mut self, v: usize, m: &EntryMeta) {
        let mut bits = m.requests();
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.request_count[v][b] -= 1;
            if self.request_count[v][b] == 0 {
                self.requests[v] &= !(1 << b);
            }
        }
    }

    /// Queued `Waiting` entries of VC `v` (the depth weight of iLQF).
    #[inline]
    pub(crate) fn waiting_count(&self, v: usize) -> usize {
        self.waiting[v] as usize
    }

    /// The request word of VC `v`: the union of the outputs requested by
    /// exactly the `Waiting` entries among its first `scan_window` queued
    /// entries — the set an LA walk of `v` can reach. Zero intersection
    /// with the wired, free and credited outputs means no such entry is
    /// eligible, whatever its readiness or age.
    #[inline]
    pub fn window_requests(&self, v: usize) -> u16 {
        self.requests[v]
    }

    /// Bumps the waiting counter for one queued `Waiting` entry of `v`.
    #[inline]
    fn inc_waiting(&mut self, v: usize) {
        self.waiting[v] += 1;
        self.waiting_mask |= 1 << v;
    }

    /// Drops the waiting counter for one queued `Waiting` entry of `v`.
    #[inline]
    fn dec_waiting(&mut self, v: usize) {
        self.waiting[v] -= 1;
        if self.waiting[v] == 0 {
            self.waiting_mask &= !(1 << v);
        }
    }

    /// Mask (over VC indices) of VCs with at least one queued entry in
    /// the `Waiting` state — the only entries an LA scan can nominate.
    /// Maintained incrementally at insert/release/state transitions.
    #[inline]
    pub(crate) fn waiting_mask(&self) -> u32 {
        self.waiting_mask
    }

    /// The dense scan-metadata slab (parallel to the entry slots). The LA
    /// scans walk this directly via [`InputBuffer::queue_head`] and
    /// `EntryMeta::next`.
    #[inline]
    pub fn metas(&self) -> &[EntryMeta] {
        &self.meta
    }

    /// The head (oldest) slot index of one VC's age queue, or
    /// [`NIL_INDEX`].
    #[inline]
    pub fn queue_head(&self, vc: VcId) -> u32 {
        self.head[vc.index()]
    }

    /// Free packet slots remaining in `vc`.
    #[inline]
    pub fn space(&self, vc: VcId) -> usize {
        self.caps.capacity(vc) - self.occupancy[vc.index()] as usize
    }

    /// Total packets buffered across all VCs (O(1): kept in step).
    #[inline]
    pub fn total_occupancy(&self) -> usize {
        self.total as usize
    }

    /// Inserts a packet entry in the `Waiting` state, ready at its
    /// `eligible_at`, claiming one slot of its VC. Because arrivals decode
    /// in eligibility order, it must not be older than the current queue
    /// tail.
    ///
    /// # Panics
    ///
    /// Panics if the VC is full — credit-based flow control upstream must
    /// never let that happen, so it is a model invariant, not an expected
    /// runtime condition.
    pub fn insert(&mut self, entry: Entry) -> EntryId {
        let vc = entry.vc;
        let v = vc.index();
        assert!(
            self.space(vc) > 0,
            "buffer overflow on {vc}: flow control violated"
        );
        // Age order along each queue doubles as eligibility order; the
        // anti-starvation census relies on it to stop at the first young
        // entry.
        debug_assert!(
            self.tail[v] == NIL_INDEX
                || self.entries[self.tail[v] as usize]
                    .as_ref()
                    .is_some_and(|tail| tail.eligible_at <= entry.eligible_at),
            "arrivals must be inserted in eligibility order"
        );
        let (route_flags, outputs, escape_mask, adaptive_vc, escape_vc) =
            EntryMeta::route_fields(&entry);
        let ready_at = entry.eligible_at;
        let index = match self.free.pop() {
            Some(index) => {
                debug_assert!(self.entries[index as usize].is_none());
                self.entries[index as usize] = Some(entry);
                index
            }
            None => {
                self.entries.push(Some(entry));
                self.meta.push(EntryMeta {
                    next: NIL_INDEX,
                    prev: NIL_INDEX,
                    gen: 0,
                    ready_at: Tick::MAX,
                    flags: 0,
                    nomination: 0,
                    outputs: 0,
                    escape_mask: 0,
                    adaptive_vc: NO_VC,
                    escape_vc: NO_VC,
                    vc: 0,
                });
                (self.entries.len() - 1) as u32
            }
        };
        {
            let m = &mut self.meta[index as usize];
            m.ready_at = ready_at;
            m.flags = route_flags | META_WAITING | META_LIVE;
            m.outputs = outputs;
            m.escape_mask = escape_mask;
            m.adaptive_vc = adaptive_vc;
            m.escape_vc = escape_vc;
            m.vc = v as u8;
        }
        self.link_tail(v, index);
        self.occupancy[v] += 1;
        self.total += 1;
        self.inc_waiting(v);
        let m = self.meta[index as usize];
        if m.flags & META_IN_WINDOW != 0 {
            self.add_requests(v, &m);
        }
        EntryId { index, gen: m.gen }
    }

    /// Threads `index` at the tail of VC queue `v`; it lands inside the
    /// scan window while fewer than `scan_window` entries are queued.
    fn link_tail(&mut self, v: usize, index: u32) {
        let tail = self.tail[v];
        let in_window = (self.occupancy[v] as usize) < self.scan_window;
        {
            let m = &mut self.meta[index as usize];
            m.prev = tail;
            m.next = NIL_INDEX;
            if in_window {
                m.flags |= META_IN_WINDOW;
            }
        }
        if tail == NIL_INDEX {
            self.head[v] = index;
        } else {
            self.meta[tail as usize].next = index;
        }
        self.tail[v] = index;
        if in_window {
            self.window_tail[v] = index;
        }
        self.non_empty |= 1 << v;
    }

    #[inline]
    fn check_current(&self, id: EntryId) {
        let m = &self.meta[id.index()];
        assert!(m.gen == id.gen && m.flags != 0, "stale entry id");
    }

    /// The payload of the live entry in slot `index`: with `release`, the
    /// only place the simulation loads one (tests count the loads).
    #[inline]
    fn payload(&self, index: u32) -> &Entry {
        #[cfg(test)]
        self.payload_reads.set(self.payload_reads.get() + 1);
        self.entries[index as usize]
            .as_ref()
            .expect("queued slot is live")
    }

    /// Test-only: how many payload loads the simulation's paths made.
    #[cfg(test)]
    pub(crate) fn payload_reads(&self) -> u64 {
        self.payload_reads.get()
    }

    /// The eligibility tick of the live entry in `index` (anti-starvation
    /// age checks and iOCF's age weight; the dense metadata omits it).
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    #[inline]
    pub(crate) fn entry_eligible_at(&self, index: u32) -> Tick {
        self.payload(index).eligible_at
    }

    /// Whether `id` still holds the nomination of `read_port` for
    /// `output`, decided at `decide_at` — the GA stage's stale check, on
    /// the scan record alone. A grant releases the entry (its generation
    /// moves on) and a lost or abandoned nomination sets it `Waiting`, so
    /// only the nomination's own GA finds it current.
    #[inline]
    pub(crate) fn holds_nomination(
        &self,
        id: EntryId,
        read_port: u8,
        output: u8,
        decide_at: Tick,
    ) -> bool {
        let m = &self.meta[id.index()];
        m.gen == id.gen
            && m.flags != 0
            && m.flags & META_WAITING == 0
            && m.nomination == output | read_port << 3
            && m.ready_at == decide_at
    }

    /// Whether the live entry `id` is nominated by read port `read_port`.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    #[inline]
    pub(crate) fn nominated_by(&self, id: EntryId, read_port: u8) -> bool {
        self.check_current(id);
        let m = &self.meta[id.index()];
        m.flags & META_WAITING == 0 && m.nomination >> 3 == read_port
    }

    /// Transition a `Waiting` entry to nominated (LA nominated it for
    /// `output` from `read_port`; GA decides at `decide_at`).
    pub fn set_nominated(&mut self, id: EntryId, read_port: u8, output: u8, decide_at: Tick) {
        self.check_current(id);
        let m = self.meta[id.index()];
        debug_assert!(m.flags & META_WAITING != 0, "nominating a nominated entry");
        debug_assert!(read_port < 2 && output < 8, "nomination byte overflow");
        let v = m.vc as usize;
        if m.flags & META_IN_WINDOW != 0 {
            self.remove_requests(v, &m);
        }
        let m = &mut self.meta[id.index()];
        m.flags &= !META_WAITING;
        m.nomination = output | read_port << 3;
        m.ready_at = decide_at;
        self.dec_waiting(v);
    }

    /// Transition a nominated entry back to `Waiting` (its nomination
    /// lost output arbitration or was abandoned), ready at `not_before`.
    /// The entry was ready when it was nominated, so `not_before` is
    /// already at or past its `eligible_at`.
    pub fn set_waiting(&mut self, id: EntryId, not_before: Tick) {
        self.check_current(id);
        debug_assert!(
            self.meta[id.index()].flags & META_WAITING == 0,
            "a waiting entry lost a nomination"
        );
        debug_assert!(
            self.entries[id.index()]
                .as_ref()
                .is_some_and(|e| e.eligible_at <= not_before),
            "backed off to before its eligibility"
        );
        let m = &mut self.meta[id.index()];
        m.flags |= META_WAITING;
        m.ready_at = not_before;
        let m = *m;
        let v = m.vc as usize;
        self.inc_waiting(v);
        if m.flags & META_IN_WINDOW != 0 {
            self.add_requests(v, &m);
        }
    }

    /// Iterates a VC's age queue (oldest first), yielding live handles.
    #[inline]
    pub fn queue_iter(&self, vc: VcId) -> QueueIter<'_> {
        QueueIter {
            meta: &self.meta,
            next: self.head[vc.index()],
        }
    }

    /// Releases an entry's slot at its grant: unthreads it from its VC
    /// queue in O(1), keeping the waiting counter and the scan window in
    /// step (leaving the window promotes the entry queued behind the
    /// window tail into it), and frees the slot. Returns the freed entry;
    /// the handle (and any copies of it) goes stale.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn release(&mut self, id: EntryId) -> Entry {
        self.check_current(id);
        let index = id.index;
        let m = self.meta[index as usize];
        let v = m.vc as usize;
        if m.flags & META_WAITING != 0 {
            self.dec_waiting(v);
        }
        if m.flags & META_IN_WINDOW != 0 {
            if m.flags & META_WAITING != 0 {
                self.remove_requests(v, &m);
            }
            let promoted = self.meta[self.window_tail[v] as usize].next;
            if promoted != NIL_INDEX {
                self.meta[promoted as usize].flags |= META_IN_WINDOW;
                let p = self.meta[promoted as usize];
                if p.flags & META_WAITING != 0 {
                    self.add_requests(v, &p);
                }
                self.window_tail[v] = promoted;
            } else if self.window_tail[v] == index {
                self.window_tail[v] = m.prev;
            }
        }
        let (prev, next) = (m.prev, m.next);
        if prev == NIL_INDEX {
            self.head[v] = next;
        } else {
            self.meta[prev as usize].next = next;
        }
        if next == NIL_INDEX {
            self.tail[v] = prev;
        } else {
            self.meta[next as usize].prev = prev;
        }
        if self.head[v] == NIL_INDEX {
            self.non_empty &= !(1 << v);
        }
        self.occupancy[v] -= 1;
        self.total -= 1;
        let m = &mut self.meta[index as usize];
        m.gen = m.gen.wrapping_add(1);
        m.flags = 0;
        m.ready_at = Tick::MAX;
        self.free.push(index);
        #[cfg(test)]
        self.payload_reads.set(self.payload_reads.get() + 1);
        self.entries[index as usize].take().expect("checked")
    }

    /// The anti-starvation census: of the entries that became eligible
    /// at or before `cutoff` (the *old* ones), how many are `Waiting`
    /// (the count that trips and ends a drain), and how many there are in
    /// all (a drain's `old_left`). The queues are age-ordered, so the walk
    /// visits only each VC's old prefix instead of every buffered packet.
    pub(crate) fn count_old(&self, cutoff: Tick) -> (u32, u32) {
        #[cfg(debug_assertions)]
        self.debug_validate();
        let (mut waiting, mut all) = (0, 0);
        let mut mask = self.non_empty;
        while mask != 0 {
            let v = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let mut cur = self.head[v];
            // Age order: the first young entry ends the old prefix.
            while cur != NIL_INDEX && self.payload(cur).eligible_at <= cutoff {
                let m = &self.meta[cur as usize];
                all += 1;
                waiting += u32::from(m.flags & META_WAITING != 0);
                cur = m.next;
            }
        }
        (waiting, all)
    }

    /// A fresh count of the entries that became eligible at or before
    /// `cutoff`, in any state, from the slab alone: the debug reference
    /// for a drain's `old_left`.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_count_old(&self, cutoff: Tick) -> u32 {
        self.entries
            .iter()
            .flatten()
            .filter(|e| e.eligible_at <= cutoff)
            .count() as u32
    }

    /// Recomputes every cached mask, counter, and metadata record from a
    /// full slab re-scan — and the scan-window flags, window tails and
    /// request unions from a naive walk of the first `scan_window` queued
    /// entries of every VC — and asserts the incremental state matches.
    /// The census invokes it under `debug_assertions` only; release
    /// builds trust the incremental updates this assertion proves (tests
    /// may call it directly in any profile).
    pub fn debug_validate(&self) {
        assert_eq!(self.meta.len(), self.entries.len(), "slab split drifted");
        let mut waiting = [0u16; NUM_VCS];
        let mut occupancy = [0u16; NUM_VCS];
        let mut in_window = 0usize;
        for (i, slot) in self.entries.iter().enumerate() {
            let m = &self.meta[i];
            let Some(e) = slot.as_ref() else {
                assert_eq!(m.flags, 0, "freed slot still flagged");
                continue;
            };
            occupancy[e.vc.index()] += 1;
            // The dense metadata must agree with a fresh derivation.
            let (route_flags, outputs, escape_mask, adaptive_vc, escape_vc) =
                EntryMeta::route_fields(e);
            assert_eq!(m.flags & META_LOCAL, route_flags, "route flag drifted");
            assert_eq!(m.outputs, outputs, "candidate outputs drifted");
            assert_eq!(m.escape_mask, escape_mask, "escape mask drifted");
            assert_eq!(m.adaptive_vc, adaptive_vc, "adaptive VC drifted");
            assert_eq!(m.escape_vc, escape_vc, "escape VC drifted");
            assert_eq!(m.vc as usize, e.vc.index(), "buffer VC drifted");
            assert!(m.flags & META_LIVE != 0, "live slot not flagged live");
            // A waiting entry is ready no earlier than its eligibility; a
            // nominated one holds a read port and output (the router
            // checks them, and its decide tick, against its GA queue).
            if m.flags & META_WAITING != 0 {
                assert!(m.ready_at >= e.eligible_at, "readiness tick drifted");
            } else {
                assert!(m.nomination < 16, "nomination byte drifted");
            }
            if m.flags & META_IN_WINDOW != 0 {
                in_window += 1;
            }
            if m.flags & META_WAITING != 0 {
                waiting[e.vc.index()] += 1;
            }
        }
        let mut windowed = 0usize;
        for v in 0..NUM_VCS {
            let mut prev_eligible = Tick::ZERO;
            let mut cur = self.head[v];
            let mut len = 0usize;
            let mut window_tail = NIL_INDEX;
            let mut request_count = [0u16; REQ_BITS];
            while cur != NIL_INDEX {
                let m = &self.meta[cur as usize];
                let e = self.entries[cur as usize]
                    .as_ref()
                    .expect("queued slot is live");
                assert_eq!(e.vc.index(), v, "entry threaded into the wrong VC");
                assert!(prev_eligible <= e.eligible_at, "queue out of age order");
                prev_eligible = e.eligible_at;
                // The window is exactly the walk's reach: the first
                // `scan_window` queued entries.
                assert_eq!(
                    m.flags & META_IN_WINDOW != 0,
                    len < self.scan_window,
                    "scan-window flag drifted"
                );
                if len < self.scan_window {
                    window_tail = cur;
                    if m.flags & META_WAITING != 0 {
                        let mut bits = m.requests();
                        while bits != 0 {
                            request_count[bits.trailing_zeros() as usize] += 1;
                            bits &= bits - 1;
                        }
                    }
                }
                len += 1;
                cur = m.next;
            }
            windowed += len.min(self.scan_window);
            assert_eq!(occupancy[v] as usize, len, "a live entry is not queued");
            assert_eq!(self.window_tail[v], window_tail, "window tail drifted");
            assert_eq!(
                self.request_count[v], request_count,
                "window request counts drifted"
            );
            let mut requests = 0u16;
            for (b, &n) in request_count.iter().enumerate() {
                if n > 0 {
                    requests |= 1 << b;
                }
            }
            assert_eq!(self.requests[v], requests, "window request union drifted");
            assert_eq!(self.waiting[v], waiting[v], "waiting count drifted");
            assert_eq!(
                self.waiting_mask & (1 << v) != 0,
                waiting[v] > 0,
                "waiting mask drifted"
            );
            assert_eq!(
                self.non_empty & (1 << v) != 0,
                len > 0,
                "non-empty mask drifted"
            );
            assert_eq!(self.occupancy[v], occupancy[v], "occupancy drifted");
        }
        let live = self.entries.iter().filter(|s| s.is_some()).count();
        assert_eq!(self.total as usize, live, "total occupancy drifted");
        assert_eq!(
            in_window, windowed,
            "slot flagged in-window past the window"
        );
    }
}

/// Iterator over one VC's age-ordered live entry handles.
pub struct QueueIter<'a> {
    meta: &'a [EntryMeta],
    next: u32,
}

impl Iterator for QueueIter<'_> {
    type Item = EntryId;

    #[inline]
    fn next(&mut self) -> Option<EntryId> {
        if self.next == NIL_INDEX {
            return None;
        }
        let index = self.next;
        let m = &self.meta[index as usize];
        self.next = m.next;
        Some(EntryId { index, gen: m.gen })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{CoherenceClass, PacketId};
    use crate::route::RouteInfo;
    use arbitration::ports::OutputPort;

    fn entry(vc: VcId, at: u64) -> Entry {
        Entry {
            packet: Packet::new(
                PacketId(at),
                CoherenceClass::Request,
                0,
                1,
                Tick::new(at),
                0,
            ),
            route: RouteInfo::transit(
                OutputPort::North.mask() as u8,
                OutputPort::North,
                crate::route::EscapeVc::Vc0,
            ),
            vc,
            eligible_at: Tick::new(at),
            in_flit_period: Tick::new(30),
        }
    }

    fn vc() -> VcId {
        VcId::adaptive(CoherenceClass::Request)
    }

    fn queue_vec(buf: &InputBuffer, vc: VcId) -> Vec<EntryId> {
        buf.queue_iter(vc).collect()
    }

    #[test]
    fn insert_and_release_round_trip() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 8);
        assert_eq!(buf.space(vc()), 50);
        let id = buf.insert(entry(vc(), 5));
        assert_eq!(buf.space(vc()), 49);
        assert_eq!(buf.total_occupancy(), 1);
        assert_eq!(queue_vec(&buf, vc()).len(), 1);
        buf.debug_validate();
        let e = buf.release(id);
        assert_eq!(e.packet.id, PacketId(5));
        assert_eq!(buf.space(vc()), 50);
        assert!(queue_vec(&buf, vc()).is_empty());
        buf.debug_validate();
    }

    #[test]
    fn queue_preserves_age_order() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 8);
        let a = buf.insert(entry(vc(), 1));
        let b = buf.insert(entry(vc(), 2));
        let c = buf.insert(entry(vc(), 3));
        assert_eq!(queue_vec(&buf, vc()), vec![a, b, c]);
        buf.release(b);
        assert_eq!(queue_vec(&buf, vc()), vec![a, c]);
        buf.debug_validate();
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 8);
        let a = buf.insert(entry(vc(), 1));
        let decide = Tick::new(40);
        buf.set_nominated(a, 1, 3, decide);
        assert!(buf.holds_nomination(a, 1, 3, decide));
        buf.release(a);
        let b = buf.insert(entry(vc(), 2));
        assert_eq!(a.index(), b.index(), "freed slot is reused");
        assert_ne!(a.gen, b.gen, "reuse invalidates old handles");
        buf.set_nominated(b, 1, 3, decide);
        assert!(
            !buf.holds_nomination(a, 1, 3, decide),
            "stale handle detected"
        );
        assert!(buf.holds_nomination(b, 1, 3, decide));
    }

    #[test]
    #[should_panic(expected = "stale entry id")]
    fn stale_handle_panics() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 8);
        let a = buf.insert(entry(vc(), 1));
        buf.release(a);
        buf.insert(entry(vc(), 2));
        buf.release(a);
    }

    #[test]
    #[should_panic(expected = "flow control violated")]
    fn overflow_is_an_invariant_violation() {
        let mut buf = InputBuffer::new(BufferConfig::uniform(1), 8);
        buf.insert(entry(vc(), 1));
        buf.insert(entry(vc(), 2));
    }

    #[test]
    fn meta_mirrors_nominable() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 8);
        let a = buf.insert(entry(vc(), 100));
        let m = buf.metas()[a.index()];
        assert_eq!(m.ready_at, Tick::new(100), "ready_at = eligible_at");
        assert!(m.flags & META_WAITING != 0);
        // While nominated, the record holds the nomination: read port,
        // output and decide tick, each checked by the stale test.
        let decide = Tick::new(120);
        buf.set_nominated(a, 1, 5, decide);
        let m = buf.metas()[a.index()];
        assert_eq!(m.flags & META_WAITING, 0);
        assert_eq!(m.ready_at, decide, "ready_at = decide tick");
        assert!(buf.holds_nomination(a, 1, 5, decide));
        assert!(buf.nominated_by(a, 1) && !buf.nominated_by(a, 0));
        assert!(!buf.holds_nomination(a, 0, 5, decide), "other read port");
        assert!(!buf.holds_nomination(a, 1, 4, decide), "other output");
        assert!(!buf.holds_nomination(a, 1, 5, Tick::new(119)), "other GA");
        buf.debug_validate();
        // A GA loss pushes readiness to the backoff tick.
        buf.set_waiting(a, Tick::new(150));
        assert!(!buf.holds_nomination(a, 1, 5, decide), "lost");
        assert!(!buf.nominated_by(a, 1));
        let m = buf.metas()[a.index()];
        assert!(m.flags & META_WAITING != 0);
        assert_eq!(m.ready_at, Tick::new(150), "ready_at = not_before");
        buf.debug_validate();
    }

    #[test]
    fn old_census() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 8);
        buf.insert(entry(vc(), 10));
        buf.insert(entry(vc(), 20));
        buf.insert(entry(vc(), 300));
        assert_eq!(buf.count_old(Tick::new(25)), (2, 2));
        assert_eq!(buf.count_old(Tick::new(5)), (0, 0));
    }

    #[test]
    fn old_census_skips_non_waiting_states() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 8);
        let a = buf.insert(entry(vc(), 10));
        let b = buf.insert(entry(vc(), 20));
        buf.insert(entry(vc(), 30));
        buf.set_nominated(a, 0, 0, Tick::new(100));
        let old = buf.count_old(Tick::new(50));
        assert_eq!(old, (2, 3), "nominated: old, but not waiting");
        buf.release(b);
        assert_eq!(buf.count_old(Tick::new(50)), (1, 2), "granted not old");
        buf.set_waiting(a, Tick::new(101));
        let old = buf.count_old(Tick::new(50));
        assert_eq!(old, (2, 2), "re-waiting counts again");
        buf.debug_validate();
    }

    #[test]
    fn non_empty_mask_tracks_queues() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 8);
        assert_eq!(buf.non_empty, 0);
        let a = buf.insert(entry(vc(), 1));
        assert_eq!(buf.non_empty, 1 << vc().index());
        buf.release(a);
        assert_eq!(buf.non_empty, 0, "release clears the bit");
    }

    #[test]
    fn waiting_mask_follows_state_transitions() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 8);
        let bit = 1 << vc().index();
        assert_eq!(buf.waiting_mask(), 0);
        let a = buf.insert(entry(vc(), 1));
        let b = buf.insert(entry(vc(), 2));
        assert_eq!(buf.waiting_mask(), bit);
        buf.set_nominated(a, 0, 3, Tick::new(40));
        assert_eq!(buf.waiting_mask(), bit, "b still waits");
        buf.set_nominated(b, 1, 2, Tick::new(40));
        assert_eq!(buf.waiting_mask(), 0, "no waiting entries left");
        buf.set_waiting(a, Tick::new(60));
        assert_eq!(buf.waiting_mask(), bit);
        buf.release(a);
        assert_eq!(buf.waiting_mask(), 0);
        assert_eq!(buf.total_occupancy(), 1, "the grant frees its slot");
        buf.debug_validate();
    }

    #[test]
    fn window_requests_cover_exactly_the_scan_window() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 2);
        let mut local = entry(vc(), 1);
        local.route = RouteInfo::local(0b011_0000);
        let a = buf.insert(local);
        let m = buf.metas()[a.index()];
        assert!(m.flags & META_LOCAL != 0);
        assert_eq!(m.outputs, 0b011_0000, "local sinks cached");
        assert_eq!(m.adaptive_vc, NO_VC);
        let v = vc().index();
        assert_eq!(buf.window_requests(v), 0b011_0000, "local sinks requested");
        // A north-bound transit entry requests north adaptively and as
        // its VC0 escape hop.
        let north = 1 | 1 << REQ_ESCAPE_SHIFT[0];
        let b = buf.insert(entry(vc(), 2));
        assert_eq!(buf.window_requests(v), 0b011_0000 | north);
        // The third entry is beyond the two-entry window: no request yet.
        let mut south = entry(vc(), 3);
        south.route = RouteInfo::transit(
            OutputPort::South.mask() as u8,
            OutputPort::South,
            crate::route::EscapeVc::Vc1,
        );
        let c = buf.insert(south);
        assert_eq!(buf.metas()[c.index()].flags & META_IN_WINDOW, 0);
        assert_eq!(buf.window_requests(v), 0b011_0000 | north);
        buf.debug_validate();
        // A grant inside the window promotes it.
        buf.release(a);
        assert!(buf.metas()[c.index()].flags & META_IN_WINDOW != 0);
        assert_eq!(
            buf.window_requests(v),
            north | 2 | 2 << REQ_ESCAPE_SHIFT[1],
            "local request gone, promoted south request added"
        );
        // A nominated entry requests nothing until it loses.
        buf.set_nominated(b, 0, 0, Tick::new(60));
        assert_eq!(buf.window_requests(v), 2 | 2 << REQ_ESCAPE_SHIFT[1]);
        buf.set_waiting(b, Tick::new(70));
        assert_eq!(buf.window_requests(v), north | 2 | 2 << REQ_ESCAPE_SHIFT[1]);
        buf.debug_validate();
    }

    #[test]
    fn occupancy_counts_per_vc() {
        let mut buf = InputBuffer::new(BufferConfig::alpha_21364(), 8);
        let other = VcId::adaptive(CoherenceClass::BlockResponse);
        buf.insert(entry(vc(), 1));
        buf.insert(entry(other, 2));
        assert_eq!(buf.occupancy[vc().index()], 1);
        assert_eq!(buf.occupancy[other.index()], 1);
        assert_eq!(buf.total_occupancy(), 2);
    }
}
