//! A timing wheel for short-horizon event scheduling.
//!
//! Cycle-driven simulators schedule almost every future event a *bounded*
//! number of clock edges ahead (a packet's last flit, a wire's fixed
//! latency). A binary heap pays `O(log n)` per event and a cache miss per
//! comparison; a [`TimingWheel`] pays `O(1)`: an event joins the list of
//! the ring slot of the clock edge at which it comes due, and a drain
//! visits only the edges that hold something — an occupancy bitmap names
//! the next one in a masked find-first, however many empty edges lie
//! between. Events beyond the ring's horizon (rare by construction)
//! spill into an overflow heap.
//!
//! All events live in one slab of nodes threaded into per-slot lists, so
//! a wheel is three allocations however many slots it has, and a drained
//! node is the next one reused (the free list is LIFO). Each list is kept
//! in `(due time, insertion order)` order as it is built — an append,
//! unless a later schedule is due earlier within the same edge — so
//! draining an edge is a walk down its list.
//!
//! Drain order is deterministic and identical to a min-heap keyed on
//! `(due time, insertion order)`, so replacing a heap with a wheel changes
//! no observable simulation result.

use crate::time::Tick;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An overflow record ordered by `(at, seq)` only.
#[derive(Clone, Debug)]
struct Spill<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Spill<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Spill<T> {}
impl<T> PartialOrd for Spill<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Spill<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// End-of-list marker of the slab's `u32` links.
const NIL: u32 = u32::MAX;

/// One slab node: a scheduled event on its slot's list, or a free node on
/// the free list (`item` is `None`).
#[derive(Clone, Debug)]
struct Node<T> {
    at: u64,
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// One ring slot's event list, in `(at, seq)` order.
#[derive(Clone, Copy, Debug)]
struct SlotList {
    head: u32,
    tail: u32,
}

const EMPTY: SlotList = SlotList {
    head: NIL,
    tail: NIL,
};

/// A ring of per-edge event lists with an overflow heap behind it.
///
/// `granularity` is the tick distance between consecutive drain edges
/// (normally one core-clock period); an event due at tick `t` is
/// processed at the first edge `>= t`, exactly as a heap drained with
/// `while head.at <= now` would process it.
///
/// # Example
///
/// ```
/// use simcore::wheel::TimingWheel;
/// use simcore::Tick;
///
/// let mut w: TimingWheel<&str> = TimingWheel::new(Tick::new(20), 8);
/// w.schedule(Tick::new(25), "b");
/// w.schedule(Tick::new(21), "a");
/// let mut out = Vec::new();
/// w.drain_due(Tick::new(20), &mut out);
/// assert!(out.is_empty()); // neither is due yet
/// w.drain_due(Tick::new(40), &mut out);
/// let labels: Vec<_> = out.iter().map(|&(at, s)| (at.as_ticks(), s)).collect();
/// assert_eq!(labels, vec![(21, "a"), (25, "b")]); // (at, seq) order
/// ```
#[derive(Clone, Debug)]
pub struct TimingWheel<T> {
    granularity: u64,
    /// Every in-ring event and every free node.
    nodes: Vec<Node<T>>,
    /// Head of the LIFO free list threaded through `Node::next`.
    free: u32,
    /// Per ring slot, its event list. Edge number `k` always maps to
    /// slot `k % lists.len()`.
    lists: Vec<SlotList>,
    /// Bit `i % 64` of word `i / 64` is set iff `lists[i]` is not empty.
    occupied: Vec<u64>,
    /// Slot of `cursor_edge` (kept beside it so no step divides).
    cursor: usize,
    /// Number of the next undrained edge (its tick is `* granularity`).
    cursor_edge: u64,
    overflow: BinaryHeap<Reverse<Spill<T>>>,
    seq: u64,
    len: usize,
    /// Tick of the earliest edge holding an event: lowered by every
    /// `schedule`, recomputed by every drain that consumes it.
    /// Meaningless while `len == 0`.
    next_due: u64,
}

impl<T> TimingWheel<T> {
    /// Creates a wheel with `slots` edges of lookahead at the given edge
    /// spacing.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero or `slots < 2`.
    pub fn new(granularity: Tick, slots: usize) -> Self {
        assert!(granularity > Tick::ZERO, "granularity must be positive");
        assert!(slots >= 2, "a wheel needs at least two slots");
        TimingWheel {
            granularity: granularity.as_ticks(),
            nodes: Vec::new(),
            free: NIL,
            lists: vec![EMPTY; slots],
            occupied: vec![0; slots.div_ceil(64)],
            cursor: 0,
            cursor_edge: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
            next_due: u64::MAX,
        }
    }

    /// Number of scheduled events not yet drained.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` to be drained at the first edge at or after `at`.
    /// Events dated before the next edge are delivered at the next drain —
    /// the same first opportunity a heap would give them.
    pub fn schedule(&mut self, at: Tick, item: T) {
        let at = at.as_ticks();
        let edge = at.div_ceil(self.granularity).max(self.cursor_edge);
        let seq = self.seq;
        self.seq += 1;
        let due = edge * self.granularity;
        if self.len == 0 || due < self.next_due {
            self.next_due = due;
        }
        self.len += 1;
        let offset = edge - self.cursor_edge;
        if offset >= self.lists.len() as u64 {
            self.overflow.push(Reverse(Spill { at, seq, item }));
        } else {
            self.insert(self.slot_ahead(offset as usize), at, seq, item);
        }
    }

    /// Links a new node into `slot`'s list at its `(at, seq)` position.
    fn insert(&mut self, slot: usize, at: u64, seq: u64, item: T) {
        let SlotList { head, tail } = self.lists[slot];
        let follows = |n: &Node<T>| (n.at, n.seq) <= (at, seq);
        // The node the new one goes behind (`NIL`: in front of them all);
        // nearly always the tail, else found by a walk from the head.
        let mut prev = NIL;
        if tail != NIL && follows(&self.nodes[tail as usize]) {
            prev = tail;
        } else {
            let mut node = head;
            while node != NIL && follows(&self.nodes[node as usize]) {
                prev = node;
                node = self.nodes[node as usize].next;
            }
        }
        let next = match prev {
            NIL => head,
            _ => self.nodes[prev as usize].next,
        };
        let node = Node {
            at,
            seq,
            next,
            item: Some(item),
        };
        let idx = match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "wheel slab is full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            idx => {
                self.free = self.nodes[idx as usize].next;
                self.nodes[idx as usize] = node;
                idx
            }
        };
        match prev {
            NIL => self.lists[slot].head = idx,
            _ => self.nodes[prev as usize].next = idx,
        }
        if next == NIL {
            self.lists[slot].tail = idx;
        }
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// The slot `offset < lists.len()` edges ahead of the cursor.
    #[inline]
    fn slot_ahead(&self, offset: usize) -> usize {
        let slot = self.cursor + offset;
        if slot >= self.lists.len() {
            slot - self.lists.len()
        } else {
            slot
        }
    }

    /// Moves the cursor forward to edge number `edge`.
    #[inline]
    fn seek(&mut self, edge: u64) {
        let n = self.lists.len();
        let ahead = edge - self.cursor_edge;
        self.cursor = if ahead < n as u64 {
            self.slot_ahead(ahead as usize)
        } else {
            (edge % n as u64) as usize
        };
        self.cursor_edge = edge;
    }

    /// Distance in slots from the cursor to the first occupied slot in
    /// ring order — a masked find-first over the occupancy words: the
    /// cursor's word masked to the bits at or above it, then the words
    /// after it, wrapping round to end on the cursor's word again (whose
    /// high bits are by then known to be clear, so it needs no mask).
    #[inline]
    fn first_occupied(&self) -> Option<usize> {
        let words = self.occupied.len();
        let mut word = self.cursor / 64;
        let mut bits = self.occupied[word] & (!0u64 << (self.cursor % 64));
        for _ in 0..words {
            if bits != 0 {
                break;
            }
            word = if word + 1 == words { 0 } else { word + 1 };
            bits = self.occupied[word];
        }
        if bits == 0 {
            return None;
        }
        let slot = word * 64 + bits.trailing_zeros() as usize;
        Some(if slot >= self.cursor {
            slot - self.cursor
        } else {
            slot + self.lists.len() - self.cursor
        })
    }

    /// Number of the earliest edge holding an event — the nearer of the
    /// first occupied slot and the overflow head — or `u64::MAX`.
    #[inline]
    fn first_event_edge(&self) -> u64 {
        let ring = match self.first_occupied() {
            Some(ahead) => self.cursor_edge + ahead as u64,
            None => u64::MAX,
        };
        match self.overflow.peek() {
            // An overflow event pops at the first edge >= its due time.
            Some(Reverse(head)) => {
                ring.min(head.at.div_ceil(self.granularity).max(self.cursor_edge))
            }
            None => ring,
        }
    }

    /// The earliest edge at which [`TimingWheel::drain_due`] would yield
    /// an event, or `None` when nothing is scheduled. This is the wake
    /// tick an idle-skipping caller must not sleep past.
    #[inline]
    pub fn next_due_edge(&self) -> Option<Tick> {
        (self.len > 0).then_some(Tick::new(self.next_due))
    }

    /// True when a [`TimingWheel::drain_due`] at `now` would yield at
    /// least one event.
    #[inline]
    pub fn has_due(&self, now: Tick) -> bool {
        self.len > 0 && self.next_due <= now.as_ticks()
    }

    /// Appends all events due at or before `now` to `out` in
    /// `(at, insertion order)` order, advancing the wheel.
    ///
    /// The nothing-due case is one comparison: the cursor stays parked,
    /// so per-edge stepping costs nothing while the wheel idles. When
    /// something is due the drain hops from one event-holding edge to the
    /// next (one bitmap scan per hop, however long the gap), so a caller
    /// that left the wheel idle for a long stretch (an idle-skipped
    /// router) pays nothing for the skipped time. (A lagging cursor only
    /// shortens the ring's effective lookahead — late schedules spill to
    /// the overflow heap, which preserves exactness.)
    pub fn drain_due(&mut self, now: Tick, out: &mut Vec<(Tick, T)>) {
        if !self.has_due(now) {
            return;
        }
        // The last edge at or before `now`; stepping every edge, that is
        // the cursor's own, and needs no division.
        let now = now.as_ticks();
        let last = if now - self.cursor_edge * self.granularity < self.granularity {
            self.cursor_edge
        } else {
            now / self.granularity
        };
        let mut edge = self.first_event_edge();
        while edge <= last {
            self.seek(edge);
            self.drain_cursor_edge(out);
            edge = self.first_event_edge();
        }
        // Park on the first edge after `now`, as a walk over every edge
        // would have.
        self.seek(last + 1);
        if self.len > 0 {
            self.next_due = edge * self.granularity;
        }
    }

    /// Appends the events of the cursor's edge — its slot's list, with
    /// every overflow event due by then merged in — to `out`, returning
    /// the nodes to the free list.
    fn drain_cursor_edge(&mut self, out: &mut Vec<(Tick, T)>) {
        // Overflow events pop at exactly the edge `ceil(at/g)`, so any
        // head due at or before this edge belongs to this batch. One
        // edge's events — from the slot and the overflow alike — all have
        // `at` in the same half-open interval behind the edge, so the
        // list's (at, seq) order reproduces exact min-heap drain order
        // across the whole stream.
        let edge_tick = self.cursor_edge * self.granularity;
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.at > edge_tick {
                break;
            }
            let Reverse(spill) = self.overflow.pop().expect("peeked");
            self.insert(self.cursor, spill.at, spill.seq, spill.item);
        }
        let mut node = std::mem::replace(&mut self.lists[self.cursor], EMPTY).head;
        self.occupied[self.cursor / 64] &= !(1 << (self.cursor % 64));
        while node != NIL {
            let n = &mut self.nodes[node as usize];
            let item = n.item.take().expect("a listed node holds an event");
            out.push((Tick::new(n.at), item));
            let next = std::mem::replace(&mut n.next, self.free);
            self.free = node;
            node = next;
            self.len -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u32>, now: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        w.drain_due(Tick::new(now), &mut out);
        out.into_iter().map(|(t, v)| (t.as_ticks(), v)).collect()
    }

    #[test]
    fn heap_equivalent_order() {
        let mut w = TimingWheel::new(Tick::new(20), 4);
        w.schedule(Tick::new(45), 1);
        w.schedule(Tick::new(41), 2);
        w.schedule(Tick::new(60), 3);
        w.schedule(Tick::new(41), 4);
        assert_eq!(w.len(), 4);
        assert!(drain(&mut w, 40).is_empty());
        // Edge 60 drains everything <= 60: 41s before 45 before 60, ties
        // by insertion order.
        assert_eq!(drain(&mut w, 60), vec![(41, 2), (41, 4), (45, 1), (60, 3)]);
        assert!(w.is_empty());
    }

    #[test]
    fn exact_edge_events_drain_at_their_edge() {
        let mut w = TimingWheel::new(Tick::new(20), 4);
        w.schedule(Tick::new(20), 7);
        assert!(drain(&mut w, 0).is_empty());
        assert_eq!(drain(&mut w, 20), vec![(20, 7)]);
    }

    #[test]
    fn past_events_deliver_at_next_drain() {
        let mut w = TimingWheel::new(Tick::new(20), 4);
        let _ = drain(&mut w, 100); // advance the cursor
        w.schedule(Tick::new(5), 9); // dated before the cursor
        assert_eq!(drain(&mut w, 120), vec![(5, 9)]);
    }

    #[test]
    fn beyond_horizon_spills_and_returns() {
        let mut w = TimingWheel::new(Tick::new(20), 4);
        w.schedule(Tick::new(1000), 1); // far beyond 4 slots
        w.schedule(Tick::new(25), 2);
        assert_eq!(drain(&mut w, 40), vec![(25, 2)]);
        assert_eq!(w.len(), 1);
        let mut all = Vec::new();
        for t in (60..=1000).step_by(20) {
            all.extend(drain(&mut w, t));
        }
        assert_eq!(all, vec![(1000, 1)]);
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_and_slot_events_merge_in_time_order() {
        let mut w = TimingWheel::new(Tick::new(10), 2);
        w.schedule(Tick::new(95), 1); // overflow (horizon is 2 edges)
        w.schedule(Tick::new(5), 2); // slot
        let mut all = Vec::new();
        for t in (0..=100).step_by(10) {
            all.extend(drain(&mut w, t));
        }
        assert_eq!(all, vec![(5, 2), (95, 1)]);
    }

    #[test]
    fn next_due_edge_tracks_schedules_and_drains() {
        let mut w: TimingWheel<u32> = TimingWheel::new(Tick::new(10), 8);
        assert_eq!(w.next_due_edge(), None);
        assert!(!w.has_due(Tick::new(1_000_000)));
        w.schedule(Tick::new(35), 1);
        assert_eq!(w.next_due_edge(), Some(Tick::new(40)), "first edge >= 35");
        w.schedule(Tick::new(12), 2);
        assert_eq!(w.next_due_edge(), Some(Tick::new(20)), "earlier event wins");
        assert!(!w.has_due(Tick::new(10)));
        assert!(w.has_due(Tick::new(20)));
        assert_eq!(drain(&mut w, 20), vec![(12, 2)]);
        assert_eq!(w.next_due_edge(), Some(Tick::new(40)), "cache repaired");
        assert_eq!(drain(&mut w, 40), vec![(35, 1)]);
        assert_eq!(w.next_due_edge(), None);
    }

    #[test]
    fn next_due_edge_sees_overflow_events() {
        let mut w: TimingWheel<u32> = TimingWheel::new(Tick::new(10), 4);
        w.schedule(Tick::new(905), 1); // far past the 4-slot ring
        assert_eq!(w.next_due_edge(), Some(Tick::new(910)));
        let mut all = Vec::new();
        for t in (0..=1000).step_by(10) {
            all.extend(drain(&mut w, t));
        }
        assert_eq!(all, vec![(905, 1)]);
    }

    #[test]
    fn long_idle_gaps_cost_constant_time() {
        // A caller may leave the wheel idle for millions of ticks; the
        // next drain must not walk the elapsed edges one by one. Proxy
        // assertion: the results stay exact across a huge jump.
        let mut w: TimingWheel<u32> = TimingWheel::new(Tick::new(10), 8);
        w.schedule(Tick::new(15), 1);
        assert_eq!(drain(&mut w, 10_000_000), vec![(15, 1)]);
        w.schedule(Tick::new(10_000_005), 2);
        assert_eq!(w.next_due_edge(), Some(Tick::new(10_000_010)));
        assert_eq!(drain(&mut w, 20_000_000), vec![(10_000_005, 2)]);
        assert!(w.is_empty());
    }

    #[test]
    fn parked_cursor_keeps_order_via_overflow() {
        // The nothing-due fast path leaves the cursor behind; later
        // schedules then exceed the ring's effective lookahead and spill
        // to the overflow heap. Order must still be exact.
        let mut w: TimingWheel<u32> = TimingWheel::new(Tick::new(10), 4);
        w.schedule(Tick::new(500), 1);
        let mut out = Vec::new();
        w.drain_due(Tick::new(100), &mut out); // nothing due; cursor parks
        assert!(out.is_empty());
        w.schedule(Tick::new(130), 2); // within horizon of `now`, not of the cursor
        w.schedule(Tick::new(125), 3);
        assert_eq!(
            drain(&mut w, 200),
            vec![(125, 3), (130, 2)],
            "(at, insertion) order across the spill"
        );
        assert_eq!(drain(&mut w, 500), vec![(500, 1)]);
    }

    #[test]
    fn wraparound_reuses_slots() {
        let mut w = TimingWheel::new(Tick::new(10), 3);
        let mut all = Vec::new();
        for round in 0u64..10 {
            w.schedule(Tick::new(round * 10 + 1), round as u32);
            all.extend(drain(&mut w, round * 10 + 10));
        }
        assert_eq!(all.len(), 10);
        assert!(all.windows(2).all(|p| p[0].0 < p[1].0), "time ordered");
    }

    /// The wheel's specification: a min-heap on `(at, seq)` drained with
    /// `while head.at <= now`, plus the one thing a heap does not have —
    /// the edge an event was filed under (`ceil(at/g)*g`, or the cursor
    /// when it was dated before it), which is what `next_due_edge` and
    /// `has_due` answer from.
    struct HeapModel {
        g: u64,
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        /// `(seq, edge)` of every pending event.
        edges: Vec<(u64, u64)>,
        seq: u64,
        cursor_edge: u64,
    }

    impl HeapModel {
        fn schedule(&mut self, at: u64, item: u32) {
            let edge = (at.div_ceil(self.g) * self.g).max(self.cursor_edge);
            self.heap.push(Reverse((at, self.seq, item)));
            self.edges.push((self.seq, edge));
            self.seq += 1;
        }

        fn next_due_edge(&self) -> Option<u64> {
            self.edges.iter().map(|&(_, edge)| edge).min()
        }

        fn drain(&mut self, now: u64) -> Vec<(u64, u32)> {
            let mut out = Vec::new();
            while let Some(&Reverse((at, seq, item))) = self.heap.peek() {
                if at > now {
                    break;
                }
                self.heap.pop();
                self.edges.retain(|&(s, _)| s != seq);
                out.push((at, item));
            }
            // A drain that yields parks the cursor on the first edge
            // after `now`; one that yields nothing leaves it behind.
            if !out.is_empty() {
                self.cursor_edge = (now / self.g + 1) * self.g;
            }
            out
        }
    }

    /// One seeded script of `ops` mixed operations on a `slots`-slot
    /// wheel against the heap model. Drains run at strictly increasing
    /// edges, as every caller's do. Returns how often each case the
    /// slab/bitmap layout could get wrong was exercised.
    fn differential_script(slots: usize, seed: u64, ops: usize) -> [u32; 7] {
        const G: u64 = 20;
        let mut rng = crate::SimRng::from_seed(seed).fork(slots as u64);
        let mut w: TimingWheel<u32> = TimingWheel::new(Tick::new(G), slots);
        let mut m = HeapModel {
            g: G,
            heap: BinaryHeap::new(),
            edges: Vec::new(),
            seq: 0,
            cursor_edge: 0,
        };
        let n = slots as u64;
        let mut now = 0u64;
        let mut item = 0u32;
        // [spilled behind a parked cursor, gap >> ring, dated before the
        //  cursor, overflow + slot merged on one edge, drain ended on an
        //  occupied edge, slab node reused, bit 63 / word boundary]
        let mut seen = [0u32; 7];
        for _ in 0..ops {
            let roll = rng.below(100);
            if roll < 55 {
                let ahead = match rng.below(8) {
                    // Dense: within a few edges of `now`.
                    0..=2 => rng.below(4) as u64 * G + rng.below(G as usize) as u64,
                    // Anywhere in the ring, and a little past it.
                    3 | 4 => rng.below(slots + 2) as u64 * G + rng.below(G as usize) as u64,
                    // Far beyond the horizon.
                    5 => (n + rng.below(4 * slots) as u64) * G,
                    // The ring's last slots and the 64-bit word seams.
                    6 => [n - 1, n - 2, 62, 63, 64, 65, 127, 128][rng.below(8)] * G,
                    // Dated in the past.
                    _ => 0,
                };
                let at = if ahead == 0 {
                    now.saturating_sub(rng.below(3 * slots * G as usize) as u64)
                } else {
                    now + ahead
                };
                let edge = at.div_ceil(G).max(w.cursor_edge);
                let offset = edge - w.cursor_edge;
                let spills = offset >= n;
                seen[0] += (spills && at < now + n * G) as u32;
                seen[2] += (at < w.cursor_edge * G) as u32;
                seen[5] += (!spills && w.free != NIL) as u32;
                let slot = (edge % n) as usize;
                seen[6] += (!spills && matches!(slot % 64, 0 | 63)) as u32;
                let filed = w.overflow.iter().any(|Reverse(s)| s.at.div_ceil(G) == edge);
                seen[3] += (!spills && filed) as u32;
                w.schedule(Tick::new(at), item);
                m.schedule(at, item);
                item += 1;
            } else if roll < 90 {
                let step = match rng.below(10) {
                    0..=5 => 1,
                    6 | 7 => 1 + rng.below(slots) as u64,
                    8 => n + rng.below(3 * slots) as u64,
                    _ => 1_000 * n,
                };
                seen[1] += (step > 100 * n) as u32;
                now = (now / G + step) * G;
                // Half the time stop exactly on the next occupied edge.
                if let Some(due) = m.next_due_edge().filter(|&d| d > now - step * G) {
                    if rng.chance(0.5) && due <= now {
                        now = due;
                        seen[4] += 1;
                    }
                }
                assert_eq!(drain(&mut w, now), m.drain(now), "drain at {now}");
            }
            assert_eq!(w.len(), m.heap.len());
            assert_eq!(w.is_empty(), m.heap.is_empty());
            let due = m.next_due_edge();
            assert_eq!(w.next_due_edge().map(Tick::as_ticks), due);
            for probe in [now, now + G, now + rng.below(2 * slots) as u64 * G] {
                let expect = due.is_some_and(|d| d <= probe);
                assert_eq!(w.has_due(Tick::new(probe)), expect, "has_due({probe})");
            }
        }
        // Everything left comes out, in heap order, in one long hop.
        let end = now + 10_000 * n * G;
        assert_eq!(drain(&mut w, end), m.drain(end));
        assert!(w.is_empty());
        assert_eq!(w.next_due_edge(), None);
        seen
    }

    #[test]
    fn matches_a_binary_heap_under_random_scripts() {
        for slots in [2, 3, 4, 64, 65, 256] {
            let mut seen = [0u32; 7];
            for seed in [1, 0x21364] {
                let counts = differential_script(slots, seed, 10_000);
                for (total, c) in seen.iter_mut().zip(counts) {
                    *total += c;
                }
            }
            assert!(
                seen.iter().all(|&c| c > 0),
                "{slots} slots: a forced case never ran: {seen:?}"
            );
        }
    }
}
