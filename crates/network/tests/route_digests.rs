//! Golden route digests: every shape's wiring and every route the
//! routing function can produce on it, pinned exhaustively.
//!
//! The report goldens see routing only through whole-network averages
//! and the property suites check invariants, not values; this suite pins
//! the values. For each shape — tori and meshes at 2x2, 2x3, 5x3, 4x4 and
//! 8x8 (the 2-extent rings, a non-square odd grid, the paper's two
//! networks) and every legal full mesh — and for both the all-alive
//! [`DeadLinks`] mask and one seeded ~10 % kill mask, an FNV-1a digest
//! folds
//!
//! * the wiring: every `(node, output port) → link`, every
//!   `(node, input port) → feeder`, and all-pairs `distance`;
//! * the routes: [`route_for`] at every `(here, dest)` on the grids and
//!   every `(src, here, dest)` on the full mesh (whose misroute set
//!   depends on the source), for one adaptive class (`Request`) and one
//!   escape-only class (`ReadIo`), unreachable (`None`) answers included.
//!
//! A neighbour computed the other way round a ring, a tie broken toward
//! the other direction, a dateline VC flipped or a dead escape hop
//! rerouted changes the digest of exactly the (shape, mask) at fault.
//!
//! Regenerate (only when intentionally changing wiring or routing) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p network --test route_digests
//! ```

use arbitration::ports::{InputPort, OutputPort};
use network::{route_for, DeadLinks, FullMesh, Mesh, NetTopology, Torus};
use router::packet::PacketId;
use router::{CoherenceClass, EscapeVc, Packet, RouteInfo};
use simcore::{SimRng, Tick};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/routes.txt");
const SEED: u64 = 0x726f_7574; // "rout"
const GRIDS: [(u16, u16); 5] = [(2, 2), (2, 3), (5, 3), (4, 4), (8, 8)];
/// Stands for `None` wherever an optional answer is folded (no node id,
/// port index or tag byte reaches it).
const ABSENT: u8 = 0xff;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn node(&mut self, n: u16) {
        for b in n.to_le_bytes() {
            self.byte(b);
        }
    }
}

fn shapes() -> Vec<NetTopology> {
    let mut shapes: Vec<NetTopology> = Vec::new();
    for (w, h) in GRIDS {
        shapes.push(Torus::new(w, h).into());
    }
    for (w, h) in GRIDS {
        shapes.push(Mesh::new(w, h).into());
    }
    for n in 2..=FullMesh::MAX_NODES {
        shapes.push(FullMesh::new(n).into());
    }
    shapes
}

/// Every wired directed link, in `(node, port)` order.
fn wired_links(topo: &NetTopology) -> Vec<(u16, OutputPort)> {
    (0..topo.nodes())
        .flat_map(|node| OutputPort::ALL[..4].iter().map(move |&port| (node, port)))
        .filter(|&(node, port)| topo.link(node, port).is_some())
        .collect()
}

/// Each wired directed link dies with probability 0.1, drawn from a
/// stream keyed by the shape's label (so adding a shape never moves
/// another shape's mask); a draw that spares every link of a small shape
/// kills one at random instead, so the masked line never degenerates
/// into the all-alive one.
fn kill_mask(topo: &NetTopology) -> DeadLinks {
    let stream = topo
        .to_string()
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131) + b as u64);
    let mut rng = SimRng::from_seed(SEED).fork(stream);
    let wired = wired_links(topo);
    let mut dead = DeadLinks::new(topo.nodes());
    for &(node, port) in &wired {
        if rng.chance(0.1) {
            dead.kill(node, port);
        }
    }
    if !dead.any() {
        let (node, port) = wired[rng.below(wired.len())];
        dead.kill(node, port);
    }
    dead
}

fn fold_wiring(topo: &NetTopology, digest: &mut Fnv) {
    for node in 0..topo.nodes() {
        for port in OutputPort::ALL {
            match topo.link(node, port) {
                Some(l) => {
                    digest.node(l.peer);
                    digest.byte(l.entry.index() as u8);
                }
                None => digest.byte(ABSENT),
            }
        }
        for input in InputPort::ALL {
            match topo.feeder(node, input) {
                Some((peer, port)) => {
                    digest.node(peer);
                    digest.byte(port.index() as u8);
                }
                None => digest.byte(ABSENT),
            }
        }
        for other in 0..topo.nodes() {
            digest.node(topo.distance(node, other));
        }
    }
}

fn fold_route(route: Option<RouteInfo>, digest: &mut Fnv) {
    match route {
        None => digest.byte(ABSENT),
        Some(RouteInfo::Local { outputs }) => {
            digest.byte(0);
            digest.byte(outputs);
        }
        Some(RouteInfo::Transit {
            adaptive,
            escape,
            escape_vc,
        }) => {
            digest.byte(1);
            digest.byte(adaptive);
            digest.byte(escape.index() as u8);
            digest.byte(match escape_vc {
                EscapeVc::Vc0 => 0,
                EscapeVc::Vc1 => 1,
            });
        }
    }
}

fn fold_routes(topo: &NetTopology, dead: &DeadLinks, digest: &mut Fnv) {
    let nodes = topo.nodes();
    for class in [CoherenceClass::Request, CoherenceClass::ReadIo] {
        for here in 0..nodes {
            for dest in 0..nodes {
                // Grid routes never read the source; the full mesh
                // misroutes at the source hop only, so there every
                // source is walked.
                let sources = if topo.grid().is_some() {
                    here..here + 1
                } else {
                    0..nodes
                };
                for src in sources {
                    let packet = Packet::new(PacketId(0), class, src, dest, Tick::ZERO, 0);
                    fold_route(route_for(topo, dead, here, &packet), digest);
                }
            }
        }
    }
}

/// One `label digest` line per (shape, mask).
fn digest_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for topo in shapes() {
        let killed = kill_mask(&topo);
        for (mask_name, dead) in [("live", DeadLinks::empty()), ("killed", &killed)] {
            let mut digest = Fnv::new();
            fold_wiring(&topo, &mut digest);
            fold_routes(&topo, dead, &mut digest);
            lines.push(format!("{topo}:{mask_name} {:016x}", digest.0));
        }
    }
    lines
}

#[test]
fn routes_match_golden_digests() {
    let lines = digest_lines();
    if std::env::var("GOLDEN_UPDATE").as_deref() == Ok("1") {
        std::fs::write(GOLDEN_PATH, lines.join("\n") + "\n").expect("write route digests");
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden/routes.txt missing — run with GOLDEN_UPDATE=1 to record");
    // Keyed by label so a failure names the drifting (shape, mask).
    for line in &lines {
        let label = line.split(' ').next().expect("label");
        let want = golden
            .lines()
            .find(|l| l.split(' ').next() == Some(label))
            .unwrap_or_else(|| panic!("no golden digest for {label}"));
        assert_eq!(line, want, "route digest drifted");
    }
    assert_eq!(
        lines.len(),
        golden.lines().count(),
        "golden shape count drifted — regenerate with GOLDEN_UPDATE=1"
    );
}

#[test]
fn kill_masks_are_nonempty_and_spare_most_links() {
    for topo in shapes() {
        let dead = kill_mask(&topo);
        let wired = wired_links(&topo).len() as u32;
        assert!(dead.any(), "{topo}: the masked line must differ from live");
        assert!(
            dead.count() <= 1.max(wired / 4),
            "{topo}: {} of {wired} links dead is not ~10 %",
            dead.count()
        );
    }
}
