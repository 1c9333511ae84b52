//! Property-based tests of the routing substrate: minimal progress,
//! dimension order, dateline discipline — the invariants deadlock freedom
//! rests on (§2.1).
//!
//! Cases are generated from a deterministic [`SimRng`] stream per test
//! (no external property-testing dependency), so failures reproduce
//! exactly from the test name alone.

use arbitration::ports::OutputPort;
use network::{route_for, DeadLinks, FullMesh, Grid, Mesh, NetTopology, Torus};
use router::packet::PacketId;
use router::{CoherenceClass, EscapeVc, Packet, RouteInfo};
use simcore::{SimRng, Tick};

const CASES: usize = 512;

/// Fault-free routing: every well-formed query has a route.
fn live(route: Option<RouteInfo>) -> RouteInfo {
    route.expect("fault-free routes always exist")
}

fn packet(src: u16, dest: u16) -> Packet {
    Packet::new(
        PacketId(0),
        CoherenceClass::Request,
        src,
        dest,
        Tick::ZERO,
        0,
    )
}

/// A torus between 2×2 and 12×12 plus two node indices.
fn torus_and_nodes(rng: &mut SimRng) -> (Grid, u16, u16) {
    let w = 2 + rng.below(11) as u16;
    let h = 2 + rng.below(11) as u16;
    let torus = Torus::new(w, h);
    let n = torus.nodes();
    let a = rng.below(n as usize) as u16;
    let b = rng.below(n as usize) as u16;
    (torus, a, b)
}

/// A mesh between 2×2 and 12×12 plus two node indices.
fn mesh_and_nodes(rng: &mut SimRng) -> (Grid, u16, u16) {
    let w = 2 + rng.below(11) as u16;
    let h = 2 + rng.below(11) as u16;
    let mesh = Mesh::new(w, h);
    let n = mesh.nodes();
    let a = rng.below(n as usize) as u16;
    let b = rng.below(n as usize) as u16;
    (mesh, a, b)
}

#[test]
fn adaptive_candidates_always_make_minimal_progress() {
    let mut gen = SimRng::from_seed(0x6164_6170);
    for case in 0..CASES {
        let (torus, here, dest) = torus_and_nodes(&mut gen);
        if here == dest {
            continue;
        }
        let route = live(route_for(
            &NetTopology::from(torus),
            DeadLinks::empty(),
            here,
            &packet(here, dest),
        ));
        let RouteInfo::Transit {
            adaptive, escape, ..
        } = route
        else {
            panic!("case {case}: transit expected");
        };
        // 1 or 2 candidates, all productive.
        assert!(
            adaptive.count_ones() >= 1 && adaptive.count_ones() <= 2,
            "case {case}"
        );
        let d0 = torus.distance(here, dest);
        let mut m = adaptive;
        while m != 0 {
            let dir = OutputPort::from_index(m.trailing_zeros() as usize);
            m &= m - 1;
            let next = torus.neighbor(here, dir).expect("a torus has no edge");
            assert_eq!(torus.distance(next, dest), d0 - 1, "case {case}");
        }
        // The escape hop is one of the adaptive candidates.
        assert!(adaptive & escape.mask() as u8 != 0, "case {case}");
    }
}

#[test]
fn escape_path_is_minimal_and_dimension_ordered() {
    let mut gen = SimRng::from_seed(0x6573_6331);
    for case in 0..CASES {
        let (torus, src, dest) = torus_and_nodes(&mut gen);
        // Walk the escape network all the way; it must arrive in exactly
        // distance(src,dest) hops with all x-hops before any y-hop.
        let mut here = src;
        let mut hops = 0u16;
        let mut seen_y = false;
        while here != dest {
            let route = live(route_for(
                &NetTopology::from(torus),
                DeadLinks::empty(),
                here,
                &packet(src, dest),
            ));
            let RouteInfo::Transit { escape, .. } = route else {
                panic!("case {case}: transit expected");
            };
            match escape {
                OutputPort::East | OutputPort::West => assert!(!seen_y, "case {case}"),
                _ => seen_y = true,
            }
            here = torus.neighbor(here, escape).expect("a torus has no edge");
            hops += 1;
            assert!(hops <= torus.distance(src, dest), "case {case}");
        }
        assert_eq!(hops, torus.distance(src, dest), "case {case}");
    }
}

#[test]
fn dateline_vc_switches_at_most_once_per_dimension() {
    let mut gen = SimRng::from_seed(0x6474_6c31);
    for case in 0..CASES {
        let (torus, src, dest) = torus_and_nodes(&mut gen);
        // Along an escape walk, within each dimension the VC sequence is
        // VC0* then VC1* (never back to VC0): the dateline is crossed at
        // most once.
        let mut here = src;
        let mut last_dim_dir: Option<OutputPort> = None;
        let mut seen_vc1_in_dim = false;
        while here != dest {
            let route = live(route_for(
                &NetTopology::from(torus),
                DeadLinks::empty(),
                here,
                &packet(src, dest),
            ));
            let RouteInfo::Transit {
                escape, escape_vc, ..
            } = route
            else {
                panic!("case {case}: transit expected");
            };
            let same_dim = matches!(
                (last_dim_dir, escape),
                (
                    Some(OutputPort::East | OutputPort::West),
                    OutputPort::East | OutputPort::West
                ) | (
                    Some(OutputPort::North | OutputPort::South),
                    OutputPort::North | OutputPort::South
                )
            );
            if !same_dim {
                seen_vc1_in_dim = false;
            }
            match escape_vc {
                EscapeVc::Vc0 => assert!(
                    !seen_vc1_in_dim,
                    "case {case}: VC0 after VC1 within one dimension breaks the dateline ordering"
                ),
                EscapeVc::Vc1 => seen_vc1_in_dim = true,
            }
            last_dim_dir = Some(escape);
            here = torus.neighbor(here, escape).expect("a torus has no edge");
        }
    }
}

#[test]
fn local_routes_only_at_destination() {
    let mut gen = SimRng::from_seed(0x6c6f_6331);
    for case in 0..CASES {
        let (torus, here, dest) = torus_and_nodes(&mut gen);
        let route = live(route_for(
            &NetTopology::from(torus),
            DeadLinks::empty(),
            here,
            &packet(here, dest),
        ));
        assert_eq!(route.is_local(), here == dest, "case {case}");
    }
}

#[test]
fn neighbor_walk_round_trips() {
    let mut gen = SimRng::from_seed(0x6e62_7231);
    for case in 0..CASES {
        let (torus, node, _) = torus_and_nodes(&mut gen);
        let dir = OutputPort::from_index(gen.below(4));
        let topo = NetTopology::from(torus);
        let there = topo.link(node, dir).expect("a torus has no edge");
        assert_eq!(
            topo.feeder(there.peer, there.entry),
            Some((node, dir)),
            "case {case}"
        );
        // Walking out of the port the link entered through returns home.
        let opposite = OutputPort::from_index(there.entry.index());
        assert_eq!(
            torus.neighbor(there.peer, opposite),
            Some(node),
            "case {case}"
        );
    }
}

#[test]
fn distance_is_a_metric() {
    let mut gen = SimRng::from_seed(0x6d65_7431);
    for case in 0..CASES {
        let (torus, a, b) = torus_and_nodes(&mut gen);
        assert_eq!(torus.distance(a, a), 0, "case {case}");
        assert_eq!(torus.distance(a, b), torus.distance(b, a), "case {case}");
        // Triangle inequality through an arbitrary midpoint.
        let mid = (a as u32 * 7 + b as u32 * 3) as u16 % torus.nodes();
        assert!(
            torus.distance(a, b) <= torus.distance(a, mid) + torus.distance(mid, b),
            "case {case}"
        );
    }
}

#[test]
fn mesh_adaptive_candidates_always_make_minimal_progress() {
    let mut gen = SimRng::from_seed(0x6d65_7368);
    for case in 0..CASES {
        let (mesh, here, dest) = mesh_and_nodes(&mut gen);
        if here == dest {
            continue;
        }
        let route = live(route_for(
            &mesh.into(),
            DeadLinks::empty(),
            here,
            &packet(here, dest),
        ));
        let RouteInfo::Transit {
            adaptive,
            escape,
            escape_vc,
        } = route
        else {
            panic!("case {case}: transit expected");
        };
        assert_eq!(
            escape_vc,
            EscapeVc::Vc1,
            "case {case}: the mesh never switches escape VCs"
        );
        assert!(
            adaptive.count_ones() >= 1 && adaptive.count_ones() <= 2,
            "case {case}"
        );
        let d0 = mesh.distance(here, dest);
        let mut m = adaptive;
        while m != 0 {
            let dir = OutputPort::from_index(m.trailing_zeros() as usize);
            m &= m - 1;
            let next = mesh
                .neighbor(here, dir)
                .unwrap_or_else(|| panic!("case {case}: candidate {dir} walks off the edge"));
            assert_eq!(mesh.distance(next, dest), d0 - 1, "case {case}");
        }
        assert!(adaptive & escape.mask() as u8 != 0, "case {case}");
    }
}

#[test]
fn mesh_escape_path_is_minimal_and_dimension_ordered() {
    let mut gen = SimRng::from_seed(0x6d65_7363);
    for case in 0..CASES {
        let (mesh, src, dest) = mesh_and_nodes(&mut gen);
        let mut here = src;
        let mut hops = 0u16;
        let mut seen_y = false;
        while here != dest {
            let route = live(route_for(
                &mesh.into(),
                DeadLinks::empty(),
                here,
                &packet(src, dest),
            ));
            let RouteInfo::Transit { escape, .. } = route else {
                panic!("case {case}: transit expected");
            };
            match escape {
                OutputPort::East | OutputPort::West => assert!(!seen_y, "case {case}"),
                _ => seen_y = true,
            }
            here = mesh
                .neighbor(here, escape)
                .unwrap_or_else(|| panic!("case {case}: escape {escape} walks off the edge"));
            hops += 1;
            assert!(hops <= mesh.distance(src, dest), "case {case}");
        }
        assert_eq!(hops, mesh.distance(src, dest), "case {case}");
    }
}

#[test]
fn full_mesh_routes_are_direct_or_bounded_misroutes() {
    let mut gen = SimRng::from_seed(0x666d_7274);
    for case in 0..CASES {
        let nodes = 2 + gen.below(4) as u16;
        let fm = FullMesh::new(nodes);
        let src = gen.below(nodes as usize) as u16;
        let dest = gen.below(nodes as usize) as u16;
        if src == dest {
            continue;
        }
        let p = packet(src, dest);
        let route = live(route_for(&fm.into(), DeadLinks::empty(), src, &p));
        let RouteInfo::Transit {
            adaptive,
            escape,
            escape_vc,
        } = route
        else {
            panic!("case {case}: transit expected");
        };
        assert_eq!(
            escape,
            fm.port_toward(src, dest),
            "case {case}: direct escape"
        );
        assert_eq!(escape_vc, EscapeVc::Vc0, "case {case}: one escape channel");
        // Every candidate is the direct link or a one-hop detour through
        // an intermediate below the destination; the second hop is
        // always direct — so no walk exceeds two hops.
        let mut m = adaptive;
        while m != 0 {
            let port = OutputPort::from_index(m.trailing_zeros() as usize);
            m &= m - 1;
            let hop1 = NetTopology::from(fm)
                .link(src, port)
                .unwrap_or_else(|| panic!("case {case}: candidate {port} is unwired"))
                .peer;
            if hop1 == dest {
                continue;
            }
            assert!(
                hop1 < dest,
                "case {case}: intermediate {hop1} not below {dest}"
            );
            let RouteInfo::Transit { adaptive: a2, .. } =
                live(route_for(&fm.into(), DeadLinks::empty(), hop1, &p))
            else {
                panic!("case {case}: transit expected at the intermediate");
            };
            assert_eq!(
                a2,
                fm.port_toward(hop1, dest).mask() as u8,
                "case {case}: in transit only the direct link remains"
            );
        }
    }
}

#[test]
fn link_feeder_inverse_across_all_shapes() {
    let mut gen = SimRng::from_seed(0x696e_7631);
    let mut shapes: Vec<NetTopology> = vec![
        FullMesh::new(2).into(),
        FullMesh::new(3).into(),
        FullMesh::new(4).into(),
        FullMesh::new(5).into(),
    ];
    for _ in 0..24 {
        let w = 2 + gen.below(11) as u16;
        let h = 2 + gen.below(11) as u16;
        shapes.push(Torus::new(w, h).into());
        shapes.push(Mesh::new(w, h).into());
    }
    for topo in shapes {
        for node in 0..topo.nodes() {
            for port in &OutputPort::ALL[..4] {
                if let Some(l) = topo.link(node, *port) {
                    assert_eq!(
                        topo.feeder(l.peer, l.entry),
                        Some((node, *port)),
                        "{topo}: feeder must invert link at node {node} port {port}"
                    );
                }
            }
        }
    }
}
