//! Per-hop route computation: [`route_for`] and one routing function
//! per shape.
//!
//! Routing is an axis orthogonal to the shape (see
//! [`crate::topology`]): a routing function turns `(here, packet)` into
//! the [`RouteInfo`] the router consumes — an adaptive candidate mask
//! plus a deadlock-free escape hop. [`route_for`] pairs each
//! [`NetTopology`] with its scheme:
//!
//! * **Grid — minimal rectangle + dimension-order dateline escape**
//!   (§2.1). Adaptive candidates are the productive direction of each
//!   unaligned dimension (≤ 2 bits): the shorter way around the ring on
//!   a torus, the sign of the offset on a mesh. Blocked packets fall
//!   back to VC0/VC1 escape channels routed in strict dimension order
//!   with a *dateline* switch: a hop whose remaining path in the current
//!   dimension still crosses the wrap edge travels on VC0, otherwise on
//!   VC1. VC0 chains move monotonically toward the wrap edge and VC1
//!   chains toward the destination, so neither can cycle — the standard
//!   torus dateline argument behind the 21364's Duato-style
//!   construction. A mesh path never crosses a wrap edge, so there the
//!   same function puts every escape hop on VC1 and the escape network
//!   is plain XY dimension-order routing, deadlock-free *without any VC
//!   switch* — no wrap edge means no cyclic channel dependency inside a
//!   dimension, and the x-before-y order forbids cycles across
//!   dimensions (the Papaphilippou & Chu, arXiv:2303.10526, scheme; see
//!   DESIGN.md "Topology axis").
//! * **Full mesh — VC-less direct + source misroute** (after Cano et
//!   al., arXiv:2510.14730). The escape is always the direct link
//!   (one hop, so the escape network
//!   is trivially acyclic and needs no dateline VCs — every escape hop
//!   uses VC0); the adaptive set adds non-minimal candidates through
//!   intermediate nodes, restricted to the source hop and to
//!   intermediates below the destination id, which bounds every path to
//!   two hops and keeps the channel-dependency graph acyclic.
//!
//! **Fault awareness.** Every scheme takes the network's
//! [`DeadLinks`] mask and removes dead links from the adaptive
//! candidate set. The escape path is *never rerouted* on the grids: a
//! torus or mesh packet whose dimension-order escape hop is dead has no
//! deadlock-free path in this scheme, so [`route_for`] returns `None`
//! and the engine drops the packet with accounting (`unreachable_drops`) rather
//! than risking the escape argument. Masking adaptive candidates cannot
//! introduce deadlock — it only removes edges from the channel
//! dependency graph — so the surviving escape network keeps its original
//! proof. The full mesh *can* reroute: a dead direct link at the source
//! hop falls back to a two-hop path through the lowest alive
//! intermediate below the destination id, which preserves the `m < dest`
//! acyclicity argument verbatim (see DESIGN.md "Fault plane").

use crate::fault::DeadLinks;
use crate::topology::{FullMesh, Grid, NetTopology};
use arbitration::ports::OutputPort;
use router::{EscapeVc, Packet, RouteInfo};

/// Computes the routing choices for `packet` sitting at router `here`,
/// using the deadlock-free scheme native to `topo`, masking `dead`
/// links. `None` means the destination is unreachable without breaking
/// the deadlock-freedom argument; the engine drops such packets with
/// accounting. Pass [`DeadLinks::empty`] when the fault plane is off.
///
/// Deterministic and stateless — the same `(dead, here, packet)` always
/// yields the same route, which is what lets the sharded engine
/// recompute routes at the receiving shard (the [`DeadLinks`] replica is
/// updated in canonical event order on every shard).
///
/// Delivery routes (always `Some`) target the two local sink ports for
/// coherence classes and the I/O port for I/O classes.
pub fn route_for(
    topo: &NetTopology,
    dead: &DeadLinks,
    here: u16,
    packet: &Packet,
) -> Option<RouteInfo> {
    if here == packet.dest {
        return Some(local_route(packet));
    }
    match topo {
        NetTopology::Grid(g) => grid_transit(g, dead, here, packet),
        NetTopology::FullMesh(f) => full_mesh_transit(f, dead, here, packet),
    }
}

/// The local-delivery route shared by every scheme: the two local sink
/// ports for coherence classes, the I/O port for I/O classes.
fn local_route(packet: &Packet) -> RouteInfo {
    let outputs = match packet.class {
        router::CoherenceClass::WriteIo | router::CoherenceClass::ReadIo => {
            OutputPort::Io.mask() as u8
        }
        _ => (OutputPort::L0.mask() | OutputPort::L1.mask()) as u8,
    };
    RouteInfo::local(outputs)
}

/// Minimal-rectangle adaptive + dimension-order dateline escape on a
/// grid — the 21364's scheme (§2.1) — for a packet not yet at its
/// destination. On a mesh no path crosses a wrap edge, so every escape
/// hop comes out on VC1 and the escape network is plain XY routing.
fn grid_transit(grid: &Grid, dead: &DeadLinks, here: u16, packet: &Packet) -> Option<RouteInfo> {
    use OutputPort::{East, North, South, West};
    let (hx, hy) = grid.coords(here);
    let (dx, dy) = grid.coords(packet.dest);
    let x_dir = axis_direction(grid.wrap(), hx, dx, grid.width(), East, West);
    let y_dir = axis_direction(grid.wrap(), hy, dy, grid.height(), South, North);

    let mut adaptive = 0u8;
    if let Some(d) = x_dir {
        adaptive |= d.mask() as u8;
    }
    if let Some(d) = y_dir {
        adaptive |= d.mask() as u8;
    }

    // Dimension-order escape: x first, then y.
    let (escape, escape_vc) = if let Some(d) = x_dir {
        (d, dateline_vc(hx, dx, d == East))
    } else {
        let d = y_dir.expect("transit packet must be unaligned in some dimension");
        (d, dateline_vc(hy, dy, d == South))
    };
    if dead.any() {
        // Dropping adaptive candidates only removes edges from the
        // channel dependency graph; the dateline argument is about
        // the escape chain, which we refuse to reroute.
        adaptive &= dead.alive_mask(here);
        if dead.is_dead(here, escape) {
            return None;
        }
    }
    Some(RouteInfo::transit(adaptive, escape, escape_vc))
}

/// VC-less deadlock-free full-mesh routing after Cano et al.
/// (arXiv:2510.14730).
///
/// The escape hop is always the direct link to the destination — a
/// one-hop escape network cannot hold a waiting cycle, so no dateline
/// VCs are needed (every escape hop uses VC0, leaving VC1 idle). The
/// adaptive set is the direct link plus, *at the source hop only*,
/// misroute candidates through any intermediate `m < dest`: a misrouted
/// packet re-routes at `m` with `here != src`, gets the direct link
/// alone, and terminates — so paths are at most two hops (no livelock)
/// and every channel dependency `c(s,m) → c(m,d)` steps from a channel
/// ending at `m` to one ending at `d > m`, making the dependency graph
/// acyclic.
fn full_mesh_transit(
    mesh: &FullMesh,
    dead: &DeadLinks,
    here: u16,
    packet: &Packet,
) -> Option<RouteInfo> {
    let direct = mesh.port_toward(here, packet.dest);
    if !dead.any() {
        let mut adaptive = direct.mask() as u8;
        if here == packet.src {
            for m in 0..packet.dest.min(mesh.nodes()) {
                if m != here {
                    adaptive |= mesh.port_toward(here, m).mask() as u8;
                }
            }
        }
        return Some(RouteInfo::transit(adaptive, direct, EscapeVc::Vc0));
    }

    // Fault-aware full mesh. Unlike the grids, the escape *can* be
    // rerouted: a two-hop path s -> m -> d with m < d only adds the
    // dependency c(s,m) -> c(m,d), stepping to a channel ending at a
    // strictly larger node — the original acyclicity argument — so
    // escaping through the lowest alive intermediate stays
    // deadlock-free. In transit (here != src) the direct link is the
    // only legal hop: rerouting there would break the two-hop bound.
    let direct_dead = dead.is_dead(here, direct);
    let mut adaptive = if direct_dead {
        0u8
    } else {
        direct.mask() as u8
    };
    let mut escape_via = None;
    if here == packet.src {
        for m in 0..packet.dest.min(mesh.nodes()) {
            if m == here {
                continue;
            }
            let hop1 = mesh.port_toward(here, m);
            if dead.is_dead(here, hop1) || dead.is_dead(m, mesh.port_toward(m, packet.dest)) {
                continue;
            }
            adaptive |= hop1.mask() as u8;
            if escape_via.is_none() {
                escape_via = Some(hop1);
            }
        }
    }
    let escape = if !direct_dead { direct } else { escape_via? };
    Some(RouteInfo::transit(adaptive, escape, EscapeVc::Vc0))
}

/// The productive direction in one grid dimension, or `None` when
/// aligned: the shorter way round the ring when the grid wraps (ties —
/// an offset of exactly half the extent — take the positive direction),
/// the sign of the offset when it does not.
fn axis_direction(
    wrap: bool,
    from: u16,
    to: u16,
    extent: u16,
    positive: OutputPort,
    negative: OutputPort,
) -> Option<OutputPort> {
    if from == to {
        return None;
    }
    let forward = if wrap {
        (to + extent - from) % extent * 2 <= extent
    } else {
        to > from
    };
    Some(if forward { positive } else { negative })
}

/// Dateline VC selection for an escape hop: VC0 while the remaining path
/// in this dimension still crosses the wrap edge, VC1 after (or when it
/// never does).
fn dateline_vc(from: u16, to: u16, moving_positive: bool) -> EscapeVc {
    let crosses = if moving_positive {
        // Travelling +: wraps iff the destination is "behind" us.
        to < from
    } else {
        // Travelling -: wraps iff the destination is "ahead" of us.
        to > from
    };
    if crosses {
        EscapeVc::Vc0
    } else {
        EscapeVc::Vc1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Mesh, Torus};
    use router::packet::PacketId;
    use router::CoherenceClass;
    use simcore::Tick;

    fn pkt(src: u16, dest: u16, class: CoherenceClass) -> Packet {
        Packet::new(PacketId(1), class, src, dest, Tick::ZERO, 0)
    }

    fn transit_parts(r: RouteInfo) -> (u8, OutputPort, EscapeVc) {
        match r {
            RouteInfo::Transit {
                adaptive,
                escape,
                escape_vc,
            } => (adaptive, escape, escape_vc),
            RouteInfo::Local { .. } => panic!("expected transit"),
        }
    }

    /// The fault-free route on any shape.
    fn live(topo: impl Into<NetTopology>, here: u16, p: &Packet) -> RouteInfo {
        route_for(&topo.into(), DeadLinks::empty(), here, p)
            .expect("fault-free routes always exist")
    }

    #[test]
    fn local_delivery_routes() {
        let t = Torus::net_4x4();
        let r = live(t, 5, &pkt(0, 5, CoherenceClass::Request));
        assert_eq!(
            r,
            RouteInfo::local((OutputPort::L0.mask() | OutputPort::L1.mask()) as u8)
        );
        let io = live(t, 5, &pkt(0, 5, CoherenceClass::ReadIo));
        assert_eq!(io, RouteInfo::local(OutputPort::Io.mask() as u8));
    }

    #[test]
    fn two_candidates_inside_the_rectangle() {
        let t = Torus::net_4x4();
        // (0,0) -> (1,1): East and South are both productive.
        let (adaptive, escape, _) = transit_parts(live(t, 0, &pkt(0, 5, CoherenceClass::Request)));
        assert_eq!(
            adaptive,
            (OutputPort::East.mask() | OutputPort::South.mask()) as u8
        );
        assert_eq!(escape, OutputPort::East, "x dimension first");
    }

    #[test]
    fn single_candidate_when_aligned() {
        let t = Torus::net_4x4();
        // (0,0) -> (2,0): only East (distance 2 both ways? no: east 2,
        // west 2 — a tie, positive direction wins).
        let (adaptive, escape, _) = transit_parts(live(t, 0, &pkt(0, 2, CoherenceClass::Request)));
        assert_eq!(adaptive, OutputPort::East.mask() as u8);
        assert_eq!(escape, OutputPort::East);
        // (0,0) -> (0,1): only South.
        let (adaptive, escape, _) = transit_parts(live(t, 0, &pkt(0, 4, CoherenceClass::Request)));
        assert_eq!(adaptive, OutputPort::South.mask() as u8);
        assert_eq!(escape, OutputPort::South);
    }

    #[test]
    fn wraparound_is_minimal() {
        let t = Torus::net_4x4();
        // (0,0) -> (3,0): West (1 hop) not East (3 hops).
        let (adaptive, escape, _) = transit_parts(live(t, 0, &pkt(0, 3, CoherenceClass::Request)));
        assert_eq!(adaptive, OutputPort::West.mask() as u8);
        assert_eq!(escape, OutputPort::West);
    }

    #[test]
    fn io_packets_still_get_escape_route() {
        let t = Torus::net_4x4();
        // I/O classes carry adaptive candidates in the route, but the
        // router's eligibility logic never uses them (escape-only class);
        // what matters is that the escape hop exists.
        let (_, escape, _) = transit_parts(live(t, 0, &pkt(0, 5, CoherenceClass::WriteIo)));
        assert_eq!(escape, OutputPort::East);
    }

    #[test]
    fn dateline_vc_selection() {
        let t = Torus::net_8x8();
        // (6,0) -> (1,0): East with wrap (6->7->0->1). Before the wrap
        // edge: remaining path crosses => VC0.
        let (_, escape, vc) = transit_parts(live(
            t,
            t.node(6, 0),
            &pkt(0, t.node(1, 0), CoherenceClass::Request),
        ));
        assert_eq!(escape, OutputPort::East);
        assert_eq!(vc, EscapeVc::Vc0);
        // After wrapping to (0,0), the remaining path 0->1 no longer
        // crosses => VC1.
        let (_, escape, vc) = transit_parts(live(
            t,
            t.node(0, 0),
            &pkt(0, t.node(1, 0), CoherenceClass::Request),
        ));
        assert_eq!(escape, OutputPort::East);
        assert_eq!(vc, EscapeVc::Vc1);
        // Negative direction: (1,0) -> (6,0) is West with wrap => VC0.
        let (_, escape, vc) = transit_parts(live(
            t,
            t.node(1, 0),
            &pkt(0, t.node(6, 0), CoherenceClass::Request),
        ));
        assert_eq!(escape, OutputPort::West);
        assert_eq!(vc, EscapeVc::Vc0);
        // Non-wrapping westward path => VC1.
        let (_, escape, vc) = transit_parts(live(
            t,
            t.node(6, 0),
            &pkt(0, t.node(3, 0), CoherenceClass::Request),
        ));
        assert_eq!(escape, OutputPort::West);
        assert_eq!(vc, EscapeVc::Vc1);
    }

    #[test]
    fn adaptive_candidates_never_exceed_two() {
        let t = Torus::net_8x8();
        for here in 0..t.nodes() {
            for dest in 0..t.nodes() {
                if here == dest {
                    continue;
                }
                let (adaptive, escape, _) =
                    transit_parts(live(t, here, &pkt(0, dest, CoherenceClass::Request)));
                assert!(adaptive.count_ones() <= 2);
                assert!(
                    adaptive & escape.mask() as u8 != 0,
                    "the escape direction is always productive"
                );
            }
        }
    }

    #[test]
    fn routes_always_make_progress() {
        // Following any adaptive candidate strictly decreases distance.
        let t = Torus::net_8x8();
        for here in 0..t.nodes() {
            for dest in 0..t.nodes() {
                if here == dest {
                    continue;
                }
                let p = pkt(0, dest, CoherenceClass::Request);
                let (adaptive, _, _) = transit_parts(live(t, here, &p));
                let mut m = adaptive;
                while m != 0 {
                    let dir = OutputPort::from_index(m.trailing_zeros() as usize);
                    m &= m - 1;
                    let next = t.neighbor(here, dir).expect("a torus has no edge");
                    assert_eq!(
                        t.distance(next, dest),
                        t.distance(here, dest) - 1,
                        "{here}->{dest} via {dir}"
                    );
                }
            }
        }
    }

    #[test]
    fn escape_walk_is_minimal_dimension_ordered_and_datelined_on_every_grid() {
        // Walk the escape network only, between every pair of nodes of
        // every grid the route digests pin: it must arrive in exactly
        // distance(src, dest) hops, x strictly before y, never returning
        // to VC0 after VC1 inside a dimension — and on a mesh, where no
        // path crosses a wrap edge, ride VC1 throughout and stay on the
        // grid.
        let x_axis = |d| matches!(d, OutputPort::East | OutputPort::West);
        for (w, h) in [(2, 2), (2, 3), (5, 3), (4, 4), (8, 8)] {
            for grid in [Torus::new(w, h), Mesh::new(w, h)] {
                let label = NetTopology::from(grid).to_string();
                for src in 0..grid.nodes() {
                    for dest in 0..grid.nodes() {
                        let p = pkt(src, dest, CoherenceClass::Request);
                        let (mut here, mut hops) = (src, 0);
                        let mut last: Option<(OutputPort, EscapeVc)> = None;
                        while here != dest {
                            let (_, escape, vc) = transit_parts(live(grid, here, &p));
                            if let Some((prev, prev_vc)) = last {
                                assert!(
                                    x_axis(prev) || !x_axis(escape),
                                    "{label} {src}->{dest}: x hop after y hop"
                                );
                                assert!(
                                    x_axis(prev) != x_axis(escape)
                                        || prev_vc == EscapeVc::Vc0
                                        || vc == EscapeVc::Vc1,
                                    "{label} {src}->{dest}: VC0 after VC1 in one dimension"
                                );
                            }
                            if !grid.wrap() {
                                assert_eq!(vc, EscapeVc::Vc1, "{label} {src}->{dest}");
                            }
                            last = Some((escape, vc));
                            here = grid
                                .neighbor(here, escape)
                                .unwrap_or_else(|| panic!("{label} {src}->{dest}: left the grid"));
                            hops += 1;
                            assert!(hops <= grid.distance(src, dest), "{label}: non-minimal");
                        }
                        assert_eq!(hops, grid.distance(src, dest), "{label} {src}->{dest}");
                    }
                }
            }
        }
    }

    #[test]
    fn mesh_routes_stay_inside_the_rectangle() {
        let m = Mesh::new(4, 4);
        for here in 0..m.nodes() {
            for dest in 0..m.nodes() {
                if here == dest {
                    continue;
                }
                let p = pkt(0, dest, CoherenceClass::Request);
                let (adaptive, escape, vc) = transit_parts(live(m, here, &p));
                assert_eq!(vc, EscapeVc::Vc1, "mesh escape never switches VCs");
                assert!(
                    adaptive & escape.mask() as u8 != 0,
                    "escape is always productive"
                );
                let mut mask = adaptive;
                while mask != 0 {
                    let dir = OutputPort::from_index(mask.trailing_zeros() as usize);
                    mask &= mask - 1;
                    let next = m.neighbor(here, dir).expect("candidate uses a real link");
                    assert_eq!(
                        m.distance(next, dest),
                        m.distance(here, dest) - 1,
                        "{here}->{dest} via {dir}"
                    );
                }
            }
        }
    }

    #[test]
    fn mesh_never_routes_off_the_edge() {
        // The corner-to-corner route has no wrap shortcut to offer.
        let m = Mesh::new(4, 4);
        let (adaptive, escape, _) = transit_parts(live(m, 0, &pkt(0, 15, CoherenceClass::Request)));
        assert_eq!(
            adaptive,
            (OutputPort::East.mask() | OutputPort::South.mask()) as u8
        );
        assert_eq!(escape, OutputPort::East);
        // From (3,3) back: only North/West.
        let (adaptive, _, _) = transit_parts(live(m, 15, &pkt(15, 0, CoherenceClass::Request)));
        assert_eq!(
            adaptive,
            (OutputPort::West.mask() | OutputPort::North.mask()) as u8
        );
    }

    #[test]
    fn full_mesh_escape_is_the_direct_link() {
        let f = FullMesh::new(5);
        for here in 0..5u16 {
            for dest in 0..5u16 {
                if here == dest {
                    continue;
                }
                let (adaptive, escape, vc) =
                    transit_parts(live(f, here, &pkt(here, dest, CoherenceClass::Request)));
                assert_eq!(escape, f.port_toward(here, dest));
                assert_eq!(vc, EscapeVc::Vc0, "VC-less: one escape channel");
                assert!(adaptive & escape.mask() as u8 != 0, "direct is a candidate");
            }
        }
    }

    #[test]
    fn full_mesh_misroutes_only_at_the_source_and_below_dest() {
        let f = FullMesh::new(5);
        // At the source 4 -> 3: direct plus intermediates {0,1,2}.
        let (adaptive, _, _) = transit_parts(live(f, 4, &pkt(4, 3, CoherenceClass::Request)));
        let mut expect = f.port_toward(4, 3).mask() as u8;
        for m in [0u16, 1, 2] {
            expect |= f.port_toward(4, m).mask() as u8;
        }
        assert_eq!(adaptive, expect);
        assert_eq!(adaptive.count_ones(), 4, "beyond the fixed two candidates");
        // 4 -> 0: no intermediate below 0, direct only.
        let (adaptive, _, _) = transit_parts(live(f, 4, &pkt(4, 0, CoherenceClass::Request)));
        assert_eq!(adaptive, f.port_toward(4, 0).mask() as u8);
        // In transit (here != src): direct only, so every path is ≤ 2 hops.
        let (adaptive, _, _) = transit_parts(live(f, 1, &pkt(4, 3, CoherenceClass::Request)));
        assert_eq!(adaptive, f.port_toward(1, 3).mask() as u8);
    }

    #[test]
    fn full_mesh_adaptive_walks_terminate_within_two_hops() {
        let f = FullMesh::new(5);
        let topo = NetTopology::from(f);
        for src in 0..5u16 {
            for dest in 0..5u16 {
                if src == dest {
                    continue;
                }
                let p = pkt(src, dest, CoherenceClass::Request);
                let (adaptive, _, _) = transit_parts(live(f, src, &p));
                let mut mask = adaptive;
                while mask != 0 {
                    let port = OutputPort::from_index(mask.trailing_zeros() as usize);
                    mask &= mask - 1;
                    let hop1 = topo
                        .link(src, port)
                        .expect("candidate uses a real link")
                        .peer;
                    if hop1 == dest {
                        continue;
                    }
                    assert!(hop1 < dest, "misroute intermediate stays below dest");
                    let (a2, _, _) = transit_parts(live(f, hop1, &p));
                    assert_eq!(a2, f.port_toward(hop1, dest).mask() as u8);
                    let hop2 = topo.link(hop1, f.port_toward(hop1, dest)).unwrap().peer;
                    assert_eq!(hop2, dest, "second hop lands");
                }
            }
        }
    }

    /// Builds a mask with the given links killed (node, output port).
    fn killed(kills: &[(u16, OutputPort)]) -> DeadLinks {
        let mut d = DeadLinks::new(64);
        for &(n, p) in kills {
            assert!(d.kill(n, p), "duplicate kill in test fixture");
        }
        d
    }

    #[test]
    fn torus_masks_dead_adaptive_candidates() {
        let t = Torus::net_4x4();
        // (0,0) -> (1,1): East and South productive, escape East.
        let p = pkt(0, 5, CoherenceClass::Request);
        let d = killed(&[(0, OutputPort::South)]);
        let (adaptive, escape, _) =
            transit_parts(route_for(&t.into(), &d, 0, &p).expect("escape alive"));
        assert_eq!(adaptive, OutputPort::East.mask() as u8);
        assert_eq!(escape, OutputPort::East);
    }

    #[test]
    fn torus_dead_escape_is_unreachable() {
        let t = Torus::net_4x4();
        let p = pkt(0, 5, CoherenceClass::Request);
        // The x-first escape hop is East; killing it ends the route even
        // though South is still productive — the dateline chain must not
        // be rerouted.
        let d = killed(&[(0, OutputPort::East)]);
        assert!(route_for(&t.into(), &d, 0, &p).is_none());
        // Local delivery and unrelated routers are unaffected.
        assert!(route_for(&t.into(), &d, 5, &p).is_some());
        assert!(route_for(&t.into(), &d, 1, &p).is_some());
    }

    #[test]
    fn mesh_dead_escape_is_unreachable_but_candidates_mask() {
        let m = Mesh::new(4, 4);
        let p = pkt(0, 15, CoherenceClass::Request);
        let d = killed(&[(0, OutputPort::East)]);
        assert!(route_for(&m.into(), &d, 0, &p).is_none());
        let d2 = killed(&[(0, OutputPort::South)]);
        let (adaptive, escape, _) =
            transit_parts(route_for(&m.into(), &d2, 0, &p).expect("escape alive"));
        assert_eq!(adaptive, OutputPort::East.mask() as u8);
        assert_eq!(escape, OutputPort::East);
    }

    #[test]
    fn full_mesh_reroutes_a_dead_direct_link_through_an_alive_intermediate() {
        let f = FullMesh::new(5);
        // 4 -> 3 with the direct link dead: the escape becomes the
        // two-hop path through the lowest alive intermediate below 3.
        let p = pkt(4, 3, CoherenceClass::Request);
        let d = killed(&[(4, f.port_toward(4, 3))]);
        let (adaptive, escape, vc) =
            transit_parts(route_for(&f.into(), &d, 4, &p).expect("reroutable"));
        assert_eq!(escape, f.port_toward(4, 0), "lowest alive intermediate");
        assert_eq!(vc, EscapeVc::Vc0);
        assert_eq!(
            adaptive & f.port_toward(4, 3).mask() as u8,
            0,
            "the dead direct link leaves the candidate set"
        );
        // Kill 4->0 as well: the escape advances to intermediate 1.
        let d = killed(&[(4, f.port_toward(4, 3)), (4, f.port_toward(4, 0))]);
        let (_, escape, _) = transit_parts(route_for(&f.into(), &d, 4, &p).expect("reroutable"));
        assert_eq!(escape, f.port_toward(4, 1));
        // An intermediate whose *second* hop is dead is skipped too.
        let d = killed(&[
            (4, f.port_toward(4, 3)),
            (4, f.port_toward(4, 0)),
            (1, f.port_toward(1, 3)),
        ]);
        let (_, escape, _) = transit_parts(route_for(&f.into(), &d, 4, &p).expect("reroutable"));
        assert_eq!(escape, f.port_toward(4, 2));
    }

    #[test]
    fn full_mesh_transit_never_reroutes_and_exhausted_sources_give_up() {
        let f = FullMesh::new(5);
        let p = pkt(4, 3, CoherenceClass::Request);
        // In transit (here != src) the direct link is the only legal
        // hop: rerouting there would break the two-hop bound.
        let d = killed(&[(1, f.port_toward(1, 3))]);
        assert!(route_for(&f.into(), &d, 1, &p).is_none());
        // 4 -> 0 has no intermediate below the destination id, so a dead
        // direct link is terminal even at the source.
        let p0 = pkt(4, 0, CoherenceClass::Request);
        let d = killed(&[(4, f.port_toward(4, 0))]);
        assert!(route_for(&f.into(), &d, 4, &p0).is_none());
    }
}
