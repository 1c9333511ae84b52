//! Window-exact request tracking of [`InputBuffer`]: the scan-window
//! flags and the per-VC request unions must equal, after every operation,
//! what a naive walk of the first `scan_window` queued entries derives.
//!
//! `InputBuffer::debug_validate` is that naive walk from the inside; the
//! shadow model here re-derives the same facts from the outside (queue
//! order, window membership and request words computed from the routes
//! the test itself generated), so the two references check each other.

use arbitration::ports::OutputPort;
use router::entry::{Entry, EntryId, InputBuffer, META_IN_WINDOW, NIL_INDEX, REQ_ESCAPE_SHIFT};
use router::packet::PacketId;
use router::vc::NUM_VCS;
use router::{BufferConfig, CoherenceClass, EscapeVc, Packet, RouteInfo, VcId};
use simcore::{SimRng, Tick};

/// What the shadow model remembers of one live (hence queued) entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Shadow {
    Waiting,
    Nominated,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    id: EntryId,
    vc: usize,
    state: Shadow,
    /// The request word the route implies (the test's own derivation).
    requests: u16,
}

struct Model {
    buf: InputBuffer,
    window: usize,
    /// Every live entry; queue order is insertion order among the slots
    /// of one VC.
    slots: Vec<Slot>,
    clock: u64,
}

fn make_entry(class: CoherenceClass, vc: VcId, route: RouteInfo, at: u64) -> Entry {
    Entry {
        packet: Packet::new(PacketId(at), class, 0, 1, Tick::new(at), 0),
        route,
        vc,
        eligible_at: Tick::new(at),
        in_flit_period: Tick::new(30),
    }
}

/// The request word a route implies, derived from first principles: the
/// adaptive directions when the class may use its adaptive VC, the escape
/// direction in the nibble of its escape group (VC1 escapes of an ordinary
/// class are group 1; VC0 escapes and the special class group 0), or the
/// local sinks.
fn expected_requests(class: CoherenceClass, route: &RouteInfo) -> u16 {
    match *route {
        RouteInfo::Local { outputs } => outputs as u16,
        RouteInfo::Transit {
            adaptive,
            escape,
            escape_vc,
        } => {
            let group = (escape_vc == EscapeVc::Vc1 && class != CoherenceClass::Special) as usize;
            let adaptive = if class.may_route_adaptively() {
                adaptive as u16
            } else {
                0
            };
            adaptive | (escape.mask() as u16) << REQ_ESCAPE_SHIFT[group]
        }
    }
}

fn random_route(rng: &mut SimRng) -> RouteInfo {
    if rng.chance(0.3) {
        // A non-empty subset of the three local sinks (bits 4-6).
        RouteInfo::local(((1 + rng.below(7)) as u8) << 4)
    } else {
        let escape = OutputPort::from_index(rng.below(4));
        let escape_vc = if rng.chance(0.5) {
            EscapeVc::Vc0
        } else {
            EscapeVc::Vc1
        };
        RouteInfo::transit(rng.below(16) as u8, escape, escape_vc)
    }
}

impl Model {
    fn new(caps: BufferConfig, window: usize) -> Self {
        Model {
            buf: InputBuffer::new(caps, window),
            window,
            slots: Vec::new(),
            clock: 0,
        }
    }

    fn insert(&mut self, class: CoherenceClass, vc: VcId, route: RouteInfo) -> EntryId {
        self.clock += 1;
        let id = self.buf.insert(make_entry(class, vc, route, self.clock));
        self.slots.push(Slot {
            id,
            vc: vc.index(),
            state: Shadow::Waiting,
            requests: expected_requests(class, &route),
        });
        id
    }

    fn slot(&mut self, id: EntryId) -> &mut Slot {
        self.slots
            .iter_mut()
            .find(|s| s.id == id)
            .expect("live entry")
    }

    fn nominate(&mut self, id: EntryId) {
        self.buf.set_nominated(id, 0, 0, Tick::new(self.clock + 40));
        self.slot(id).state = Shadow::Nominated;
    }

    fn lose(&mut self, id: EntryId) {
        self.buf.set_waiting(id, Tick::new(self.clock + 20));
        self.slot(id).state = Shadow::Waiting;
    }

    fn release(&mut self, id: EntryId) {
        self.buf.release(id);
        self.slots.retain(|s| s.id != id);
    }

    /// Ids of live entries in the given shadow state.
    fn ids(&self, state: Shadow) -> Vec<EntryId> {
        self.slots
            .iter()
            .filter(|s| s.state == state)
            .map(|s| s.id)
            .collect()
    }

    /// Checks the buffer against both references.
    fn check(&self) {
        self.buf.debug_validate();
        for v in 0..NUM_VCS {
            let queue: Vec<&Slot> = self.slots.iter().filter(|s| s.vc == v).collect();
            let got: Vec<EntryId> = self.buf.queue_iter(VcId::from_index(v)).collect();
            let want: Vec<EntryId> = queue.iter().map(|s| s.id).collect();
            assert_eq!(got, want, "queue order of VC {v}");
            let mut requests = 0u16;
            for (pos, s) in queue.iter().enumerate() {
                let flagged = self.buf.metas()[s.id.index()].flags & META_IN_WINDOW != 0;
                assert_eq!(flagged, pos < self.window, "window flag at {pos} of VC {v}");
                if pos < self.window && s.state == Shadow::Waiting {
                    requests |= s.requests;
                }
            }
            assert_eq!(
                self.buf.window_requests(v),
                requests,
                "request union of VC {v}"
            );
        }
    }
}

/// A north-bound request on the request class's adaptive VC.
fn north(m: &mut Model) -> EntryId {
    m.insert(
        CoherenceClass::Request,
        VcId::adaptive(CoherenceClass::Request),
        RouteInfo::transit(
            OutputPort::North.mask() as u8,
            OutputPort::North,
            EscapeVc::Vc0,
        ),
    )
}

/// A south-bound request escaping on VC1 (the other escape group).
fn south(m: &mut Model) -> EntryId {
    m.insert(
        CoherenceClass::Request,
        VcId::adaptive(CoherenceClass::Request),
        RouteInfo::transit(
            OutputPort::South.mask() as u8,
            OutputPort::South,
            EscapeVc::Vc1,
        ),
    )
}

const NORTH: u16 = 1 | 1 << REQ_ESCAPE_SHIFT[0];
const SOUTH: u16 = 2 | 2 << REQ_ESCAPE_SHIFT[1];

fn request_vc() -> usize {
    VcId::adaptive(CoherenceClass::Request).index()
}

#[test]
fn random_op_sequences_keep_the_window_exact() {
    for window in [1usize, 2, 8, 64] {
        for seed in 0..4u64 {
            let mut rng = SimRng::from_seed(0x21364 ^ seed << 8 ^ window as u64);
            // Twelve slots per VC: deep enough to overflow windows 1-8,
            // shallow enough that window 64 always covers the queue.
            let mut m = Model::new(BufferConfig::uniform(12), window);
            for _ in 0..3000 {
                match rng.below(10) {
                    0..=3 => {
                        let class = CoherenceClass::ALL[rng.below(7)];
                        let vc = if class == CoherenceClass::Special {
                            VcId::special()
                        } else {
                            match rng.below(3) {
                                0 => VcId::adaptive(class),
                                1 => VcId::escape(class, EscapeVc::Vc0),
                                _ => VcId::escape(class, EscapeVc::Vc1),
                            }
                        };
                        if m.buf.space(vc) > 0 {
                            let route = random_route(&mut rng);
                            m.insert(class, vc, route);
                        }
                    }
                    4 | 5 => {
                        let waiting = m.ids(Shadow::Waiting);
                        if !waiting.is_empty() {
                            m.nominate(waiting[rng.below(waiting.len())]);
                        }
                    }
                    6 => {
                        let nominated = m.ids(Shadow::Nominated);
                        if !nominated.is_empty() {
                            m.lose(nominated[rng.below(nominated.len())]);
                        }
                    }
                    _ => {
                        // A grant, from either state: SPAA grants
                        // `Nominated` entries, the windowed drivers
                        // `Waiting` ones.
                        if !m.slots.is_empty() {
                            m.release(m.slots[rng.below(m.slots.len())].id);
                        }
                    }
                }
                m.check();
            }
            // Drain everything: the tracking must return to empty.
            while let Some(s) = m.slots.last().copied() {
                m.release(s.id);
                m.check();
            }
            for v in 0..NUM_VCS {
                assert_eq!(m.buf.window_requests(v), 0);
                assert_eq!(m.buf.queue_head(VcId::from_index(v)), NIL_INDEX);
            }
        }
    }
}

#[test]
fn unlinking_the_window_tail_promotes_its_successor() {
    let mut m = Model::new(BufferConfig::alpha_21364(), 2);
    let a = north(&mut m);
    let b = north(&mut m);
    let c = south(&mut m);
    assert_eq!(m.buf.window_requests(request_vc()), NORTH);
    m.release(b);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), NORTH | SOUTH);
    // With nothing queued behind it, the tail's grant shrinks the
    // window back onto its predecessor.
    m.release(c);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), NORTH);
    // The next arrival re-extends the window from there.
    south(&mut m);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), NORTH | SOUTH);
    m.release(a);
    m.check();
}

#[test]
fn unlinking_the_head_of_a_deep_queue_slides_the_window() {
    let mut m = Model::new(BufferConfig::alpha_21364(), 2);
    let a = north(&mut m);
    let b = north(&mut m);
    let c = south(&mut m);
    let d = south(&mut m);
    m.release(a);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), NORTH | SOUTH);
    m.release(b);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), SOUTH);
    // A promoted entry that is not waiting contributes nothing.
    let e = north(&mut m);
    m.nominate(e);
    m.release(c);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), SOUTH);
    m.release(d);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), 0);
    m.lose(e);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), NORTH);
}

#[test]
fn inserts_at_the_window_boundary() {
    let mut m = Model::new(BufferConfig::alpha_21364(), 3);
    north(&mut m);
    north(&mut m);
    // Length W-1: the arrival takes the last window position.
    let c = south(&mut m);
    m.check();
    assert!(m.buf.metas()[c.index()].flags & META_IN_WINDOW != 0);
    assert_eq!(m.buf.window_requests(request_vc()), NORTH | SOUTH);
    // Length W: the arrival queues behind the window, unseen.
    let d = m.insert(
        CoherenceClass::Request,
        VcId::adaptive(CoherenceClass::Request),
        RouteInfo::local(OutputPort::L0.mask() as u8),
    );
    m.check();
    assert_eq!(m.buf.metas()[d.index()].flags & META_IN_WINDOW, 0);
    assert_eq!(m.buf.window_requests(request_vc()), NORTH | SOUTH);
}

#[test]
fn nominate_lose_round_trip_inside_the_window() {
    let mut m = Model::new(BufferConfig::alpha_21364(), 2);
    let a = north(&mut m);
    let b = south(&mut m);
    m.nominate(a);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), SOUTH);
    m.lose(a);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), NORTH | SOUTH);
    // Both requesters of one direction must leave before the bit clears.
    let c = north(&mut m);
    m.release(b);
    m.check();
    m.nominate(a);
    assert_eq!(m.buf.window_requests(request_vc()), NORTH);
    m.nominate(c);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), 0);
}

#[test]
fn releases_behind_and_inside_the_window_unthread_the_entry() {
    let mut m = Model::new(BufferConfig::alpha_21364(), 1);
    let a = north(&mut m);
    let b = south(&mut m);
    // Behind the window: invisible, and its release moves nothing.
    let c = north(&mut m);
    m.release(c);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), NORTH);
    // Inside the window, still waiting: the release promotes `b`.
    m.release(a);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), SOUTH);
    // Nominated, as SPAA grants it.
    m.nominate(b);
    m.release(b);
    m.check();
    assert_eq!(m.buf.window_requests(request_vc()), 0);
    assert_eq!(m.buf.total_occupancy(), 0);
}
