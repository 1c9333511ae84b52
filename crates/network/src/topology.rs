//! Network shapes: who is wired to whom, and how far apart they are.
//!
//! The 21364 shipped on a 2D torus (§2.1, Figure 3), but nothing in the
//! router model depends on that shape — a router sees packets arriving
//! through four generic network ports with a pre-computed
//! [`RouteInfo`](router::RouteInfo). [`NetTopology`] answers what the
//! simulation engine actually needs from a shape: how many nodes exist,
//! which `(node, output port)` pairs carry a link and where that link
//! lands (peer node + entry input port), and the inverse feeder relation
//! used to return credits upstream. It is a closed, `Copy` set of shapes,
//! so configs stay plain data and the engine stays monomorphic.
//!
//! Shapes:
//!
//! * [`Grid`] — `width × height` nodes numbered row-major; the four
//!   directions map to router ports as **North = −y, South = +y,
//!   East = +x, West = −x** and every link connects an output port to
//!   the opposite input port. With `wrap` the edges join up and the grid
//!   is the paper's 2D torus ([`Torus::new`]); without it edge nodes
//!   simply lack the outward links, 2–4 neighbours per node
//!   ([`Mesh::new`]).
//! * [`FullMesh`] — up to [`FullMesh::MAX_NODES`] nodes, every pair
//!   directly linked. The four network ports become plain link indices:
//!   port *k* of node *a* reaches the *k*-th other node in id order, so
//!   the entry port at the peer depends on both endpoints rather than
//!   being the geometric opposite.

use arbitration::ports::{InputPort, OutputPort};
use std::fmt;

/// Where a link lands: the peer node and the input port through which
/// traffic enters it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkTarget {
    /// The node at the far end of the link.
    pub peer: u16,
    /// The peer's input port fed by this link.
    pub entry: InputPort,
}

/// The grid direction facing `dir`: a link leaving through `dir` arrives
/// on the neighbour's `opposite(dir)` side.
fn opposite(dir: OutputPort) -> OutputPort {
    match dir {
        OutputPort::North => OutputPort::South,
        OutputPort::South => OutputPort::North,
        OutputPort::East => OutputPort::West,
        OutputPort::West => OutputPort::East,
        _ => panic!("{dir} is not a grid direction"),
    }
}

/// A `width × height` grid of nodes, numbered row-major, whose edges
/// either join up (`wrap`: the paper's 2D torus) or end (a 2D mesh: edge
/// nodes have 2 or 3 neighbours and their outward-facing ports are
/// unwired). Built by [`Torus::new`] or [`Mesh::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    width: u16,
    height: u16,
    wrap: bool,
}

impl Grid {
    fn new(width: u16, height: u16, wrap: bool) -> Self {
        assert!(width >= 2 && height >= 2, "a grid needs at least 2x2 nodes");
        assert!(
            (width as u32) * (height as u32) <= u16::MAX as u32,
            "too many nodes"
        );
        Grid {
            width,
            height,
            wrap,
        }
    }

    /// Width (x extent).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Height (y extent).
    pub fn height(&self) -> u16 {
        self.height
    }

    /// True on a torus (the edges join up), false on a mesh.
    pub(crate) fn wrap(&self) -> bool {
        self.wrap
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.width * self.height
    }

    /// Node id of `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn node(&self, x: u16, y: u16) -> u16 {
        assert!(x < self.width && y < self.height, "coordinate out of range");
        y * self.width + x
    }

    /// Coordinates of a node id.
    pub(crate) fn coords(&self, node: u16) -> (u16, u16) {
        assert!(node < self.nodes(), "node {node} out of range");
        (node % self.width, node / self.width)
    }

    /// The neighbour through `dir`: always `Some` for a grid direction
    /// when the grid wraps, `None` off the edge of a mesh, and `None`
    /// for a port that is not a grid direction.
    pub fn neighbor(&self, node: u16, dir: OutputPort) -> Option<u16> {
        let (x, y) = self.coords(node);
        let (nx, ny) = match dir {
            OutputPort::North => (x, self.step(y, self.height, false)?),
            OutputPort::South => (x, self.step(y, self.height, true)?),
            OutputPort::East => (self.step(x, self.width, true)?, y),
            OutputPort::West => (self.step(x, self.width, false)?, y),
            _ => return None,
        };
        Some(self.node(nx, ny))
    }

    /// One step from `at` along an axis of `extent` nodes: past either
    /// end it comes round to the other when the grid wraps and falls off
    /// otherwise.
    fn step(&self, at: u16, extent: u16, forward: bool) -> Option<u16> {
        let last = extent - 1;
        match (forward, self.wrap) {
            (true, _) if at < last => Some(at + 1),
            (false, _) if at > 0 => Some(at - 1),
            (true, true) => Some(0),
            (false, true) => Some(last),
            (_, false) => None,
        }
    }

    /// Minimal hop distance between two nodes: per axis, the offset — or
    /// the shorter way round the ring when the grid wraps.
    pub fn distance(&self, a: u16, b: u16) -> u16 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let axis = |from: u16, to: u16, extent: u16| {
            let d = from.abs_diff(to);
            if self.wrap {
                d.min(extent - d)
            } else {
                d
            }
        };
        axis(ax, bx, self.width) + axis(ay, by, self.height)
    }
}

/// Constructors of the paper's shape, a [`Grid`] that wraps.
pub enum Torus {}

impl Torus {
    /// Creates a `width × height` torus.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are at least 2 (a 1-wide ring would
    /// make a direction its own opposite) and the node count fits `u16`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(width: u16, height: u16) -> Grid {
        Grid::new(width, height, true)
    }

    /// The paper's 16-processor network.
    pub fn net_4x4() -> Grid {
        Torus::new(4, 4)
    }

    /// The paper's 64-processor network.
    pub fn net_8x8() -> Grid {
        Torus::new(8, 8)
    }

    /// The §5.3 144-processor scaling network.
    pub fn net_12x12() -> Grid {
        Torus::new(12, 12)
    }

    /// A 256-processor network (beyond the paper's studies; reachable
    /// with the sharded engine).
    pub fn net_16x16() -> Grid {
        Torus::new(16, 16)
    }

    /// A 1024-processor network (sharded-engine scale).
    pub fn net_32x32() -> Grid {
        Torus::new(32, 32)
    }
}

/// Constructor of the 2D mesh, a [`Grid`] that does not wrap.
pub enum Mesh {}

impl Mesh {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are at least 2 and the node count
    /// fits `u16`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(width: u16, height: u16) -> Grid {
        Grid::new(width, height, false)
    }
}

/// A full mesh over up to [`FullMesh::MAX_NODES`] nodes: every pair of
/// nodes shares a direct link.
///
/// The router's four network ports become plain link indices: port *k*
/// of node *a* reaches the *k*-th other node in ascending id order
/// (skipping *a* itself). The entry port at the peer is *a*'s index in
/// the *peer's* neighbour list — unlike the grid, a link does *not*
/// connect an output to the geometrically opposite input, which is why
/// the engine routes packets and credits through
/// [`NetTopology::link`]/[`NetTopology::feeder`] rather than a static
/// direction map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FullMesh {
    nodes: u16,
}

impl FullMesh {
    /// Largest node count a 4-network-port router can fully connect.
    pub const MAX_NODES: u16 = 4 + 1;

    /// Creates a full mesh.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= nodes <= 5`: each node needs `nodes - 1`
    /// network ports and the 21364 router has four.
    pub fn new(nodes: u16) -> Self {
        assert!(
            (2..=Self::MAX_NODES).contains(&nodes),
            "a full mesh over the 4-port router supports 2..=5 nodes (got {nodes})"
        );
        FullMesh { nodes }
    }

    /// Number of nodes.
    pub(crate) fn nodes(&self) -> u16 {
        self.nodes
    }

    /// The peer reached through network port `port` of `node` — the
    /// `k`-th other node in ascending id order, `k` the port's index —
    /// or `None` beyond the peer count.
    fn peer_through(&self, node: u16, port: OutputPort) -> Option<u16> {
        let k = port.index() as u16;
        (k + 1 < self.nodes).then_some(if k < node { k } else { k + 1 })
    }

    /// The output port of `from` on its direct link toward `to`.
    ///
    /// # Panics
    ///
    /// Panics when `from == to` or either node is out of range.
    pub fn port_toward(&self, from: u16, to: u16) -> OutputPort {
        assert!(from < self.nodes && to < self.nodes, "node out of range");
        assert_ne!(from, to, "no self-link in a full mesh");
        let k = if to < from { to } else { to - 1 };
        OutputPort::from_index(k as usize)
    }
}

/// The shapes the simulator knows — a closed set, behind one `Copy`
/// value so configs stay plain data and the engine stays monomorphic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetTopology {
    /// 2D torus (the paper's network) or 2D mesh.
    Grid(Grid),
    /// Small-radix full mesh.
    FullMesh(FullMesh),
}

impl NetTopology {
    /// Grid extents when the shape is a grid (torus or mesh), `None` for
    /// the full mesh. Grids number nodes row-major, so
    /// `node = y * width + x` holds whenever this returns `Some`.
    pub fn grid(&self) -> Option<(u16, u16)> {
        match self {
            NetTopology::Grid(g) => Some((g.width(), g.height())),
            NetTopology::FullMesh(_) => None,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        match self {
            NetTopology::Grid(g) => g.nodes(),
            NetTopology::FullMesh(f) => f.nodes(),
        }
    }

    /// The far end of the wire on network side `side` of `node`: the
    /// peer, and the side of the peer the same wire is on. Wires are
    /// two-way, so this is its own inverse — asking the answer the same
    /// question names `(node, side)` again — which is what makes
    /// [`NetTopology::feeder`] the exact inverse of
    /// [`NetTopology::link`].
    fn across(&self, node: u16, side: OutputPort) -> Option<(u16, OutputPort)> {
        match self {
            NetTopology::Grid(g) => Some((g.neighbor(node, side)?, opposite(side))),
            NetTopology::FullMesh(f) => {
                let peer = f.peer_through(node, side)?;
                Some((peer, f.port_toward(peer, node)))
            }
        }
    }

    /// The link leaving `node` through network output `port`, or `None`
    /// when that port is unwired (a non-network port, a mesh edge, or a
    /// full-mesh port beyond the peer count).
    pub fn link(&self, node: u16, port: OutputPort) -> Option<LinkTarget> {
        if !port.is_network() {
            return None;
        }
        let (peer, side) = self.across(node, port)?;
        Some(LinkTarget {
            peer,
            entry: InputPort::from_index(side.index()),
        })
    }

    /// The upstream `(peer, peer's output port)` that feeds `input` at
    /// `node` — the inverse of [`NetTopology::link`]: credits for `input`
    /// return to that peer through that output port.
    pub fn feeder(&self, node: u16, input: InputPort) -> Option<(u16, OutputPort)> {
        if !input.is_network() {
            return None;
        }
        self.across(node, OutputPort::from_index(input.index()))
    }

    /// Minimal hop distance between two nodes.
    pub fn distance(&self, a: u16, b: u16) -> u16 {
        match self {
            NetTopology::Grid(g) => g.distance(a, b),
            NetTopology::FullMesh(f) => {
                assert!(a < f.nodes() && b < f.nodes(), "node out of range");
                u16::from(a != b)
            }
        }
    }
}

/// A compact shape label: `4x4` (torus, the historical spelling kept
/// stable for golden digests), `mesh4x4`, `fullmesh5`.
impl fmt::Display for NetTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetTopology::Grid(g) => {
                let kind = if g.wrap() { "" } else { "mesh" };
                write!(f, "{kind}{}x{}", g.width(), g.height())
            }
            NetTopology::FullMesh(m) => write!(f, "fullmesh{}", m.nodes()),
        }
    }
}

impl From<Grid> for NetTopology {
    fn from(g: Grid) -> Self {
        NetTopology::Grid(g)
    }
}

impl From<FullMesh> for NetTopology {
    fn from(f: FullMesh) -> Self {
        NetTopology::FullMesh(f)
    }
}

/// A partition of a topology's routers into contiguous near-equal shards.
///
/// The sharded engine assigns each worker thread one shard. Shards are
/// contiguous node-id ranges (on the grids, row-major order, so a shard
/// is a band of rows plus partial edge rows): contiguity is what lets
/// the engine apply deferred cross-shard events in ascending-source
/// order by simply visiting shards in index order. Sizes differ by at
/// most one node, with lower-indexed shards taking the remainder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// `bounds[s]..bounds[s + 1]` is shard `s`'s node range;
    /// `bounds[0] == 0` and `*bounds.last()` is the node count.
    bounds: Vec<u16>,
}

impl ShardMap {
    /// Partitions `topo` into `shards` contiguous node ranges. The
    /// request is clamped to `[1, nodes]` — asking for more shards than
    /// routers yields one single-node shard per router, and `0` is
    /// treated as 1 — so every shard is non-empty.
    pub fn new(topo: &NetTopology, shards: usize) -> Self {
        let nodes = topo.nodes() as usize;
        let shards = shards.clamp(1, nodes);
        let base = nodes / shards;
        let extra = nodes % shards;
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0u16);
        let mut at = 0usize;
        for s in 0..shards {
            at += base + usize::from(s < extra);
            bounds.push(at as u16);
        }
        ShardMap { bounds }
    }

    /// Number of shards (≥ 1).
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The contiguous node-id range owned by `shard`.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= self.shards()`.
    pub fn range(&self, shard: usize) -> std::ops::Range<u16> {
        self.bounds[shard]..self.bounds[shard + 1]
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is outside the partitioned topology.
    pub fn shard_of(&self, node: u16) -> usize {
        assert!(
            node < *self.bounds.last().expect("bounds never empty"),
            "node {node} outside the shard map"
        );
        self.bounds.partition_point(|&b| b <= node) - 1
    }

    /// Every ordered pair `(a, b)` where `a` and `b` are distinct linked
    /// neighbours living in different shards — the links across which
    /// the sharded engine must exchange packets and credits. Each
    /// undirected cross-shard link appears exactly twice, once per
    /// direction, so the relation is symmetric by construction checks
    /// (and deduplicated: on a 2-extent torus ring both directions reach
    /// the same neighbour).
    pub fn cross_shard_links(&self, topo: &NetTopology) -> Vec<(u16, u16)> {
        let mut links = Vec::new();
        for node in 0..topo.nodes() {
            for dir in &OutputPort::ALL[..4] {
                if let Some(l) = topo.link(node, *dir) {
                    if self.shard_of(node) != self.shard_of(l.peer) {
                        links.push((node, l.peer));
                    }
                }
            }
        }
        links.sort_unstable();
        links.dedup();
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coord_round_trip() {
        let t = Torus::net_8x8();
        for n in 0..t.nodes() {
            let (x, y) = t.coords(n);
            assert_eq!(t.node(x, y), n);
        }
    }

    #[test]
    fn neighbors_wrap() {
        let t = Torus::net_4x4();
        // Node 0 is (0,0): North wraps to (0,3) = 12, West wraps to (3,0).
        assert_eq!(t.neighbor(0, OutputPort::North), Some(12));
        assert_eq!(t.neighbor(0, OutputPort::West), Some(3));
        assert_eq!(t.neighbor(0, OutputPort::South), Some(4));
        assert_eq!(t.neighbor(0, OutputPort::East), Some(1));
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        // Both grids, the 2-extent rings included (where a node's two
        // neighbours in one dimension coincide but the wires do not).
        for (w, h) in [(2, 2), (2, 3), (4, 4), (5, 3)] {
            for grid in [Torus::new(w, h), Mesh::new(w, h)] {
                let topo = NetTopology::from(grid);
                for n in 0..topo.nodes() {
                    for &dir in &OutputPort::ALL[..4] {
                        let Some(l) = topo.link(n, dir) else {
                            assert!(!grid.wrap(), "only a mesh edge is unwired");
                            continue;
                        };
                        assert_eq!(
                            topo.feeder(l.peer, l.entry),
                            Some((n, dir)),
                            "{topo}: the entry port's feeder is the link just followed"
                        );
                        let back = topo
                            .link(l.peer, opposite(dir))
                            .expect("a link has a reverse");
                        assert_eq!(
                            (back.peer, back.entry.index()),
                            (n, dir.index()),
                            "{topo}: walking back the opposite way returns home"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distances() {
        let t = Torus::net_4x4();
        assert_eq!(t.distance(0, 0), 0);
        assert_eq!(t.distance(0, 3), 1, "wraparound shortcut");
        assert_eq!(t.distance(0, 10), 4, "(0,0) to (2,2): 2+2");
        assert_eq!(t.distance(0, 5), 2);
        // Symmetric.
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn local_port_is_not_a_direction() {
        for grid in [Torus::net_4x4(), Mesh::new(4, 4)] {
            assert_eq!(grid.neighbor(5, OutputPort::L0), None);
            assert_eq!(NetTopology::from(grid).link(5, OutputPort::L0), None);
            assert_eq!(NetTopology::from(grid).feeder(5, InputPort::Cache), None);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_torus_rejected() {
        let _ = Torus::new(1, 8);
    }

    /// The link/feeder relations must be mutual inverses on every shape:
    /// following a link and then asking the destination who feeds the
    /// entry port names the original `(node, port)`.
    fn assert_link_feeder_inverse(topo: impl Into<NetTopology>) {
        let topo = topo.into();
        for node in 0..topo.nodes() {
            for &port in &OutputPort::ALL[..4] {
                if let Some(l) = topo.link(node, port) {
                    assert_eq!(
                        topo.feeder(l.peer, l.entry),
                        Some((node, port)),
                        "feeder inverts link at node {node} port {port}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_link_feeder_inverse() {
        assert_link_feeder_inverse(Torus::net_4x4());
        assert_link_feeder_inverse(Torus::new(2, 3));
    }

    #[test]
    fn mesh_edges_are_unwired() {
        let m = NetTopology::from(Mesh::new(4, 4));
        // Corner (0,0): no North, no West.
        assert_eq!(m.link(0, OutputPort::North), None);
        assert_eq!(m.link(0, OutputPort::West), None);
        assert_eq!(
            m.link(0, OutputPort::East).map(|l| l.peer),
            Some(1),
            "interior links survive"
        );
        assert_eq!(m.link(0, OutputPort::South).map(|l| l.peer), Some(4));
        // Interior node (1,1) = 5 keeps all four.
        for &port in &OutputPort::ALL[..4] {
            assert!(m.link(5, port).is_some());
        }
        assert_link_feeder_inverse(m);
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let m = Mesh::new(4, 4);
        assert_eq!(m.distance(0, 3), 3, "no wraparound shortcut");
        assert_eq!(m.distance(0, 15), 6);
        assert_eq!(m.distance(5, 5), 0);
    }

    #[test]
    fn full_mesh_links_every_pair_exactly_once() {
        for n in 2..=FullMesh::MAX_NODES {
            let f = NetTopology::from(FullMesh::new(n));
            for a in 0..n {
                let mut peers: Vec<u16> = OutputPort::ALL[..4]
                    .iter()
                    .filter_map(|&port| f.link(a, port))
                    .map(|l| l.peer)
                    .collect();
                let expect: Vec<u16> = (0..n).filter(|&b| b != a).collect();
                peers.sort_unstable();
                assert_eq!(peers, expect, "node {a} of {n}");
            }
            assert_link_feeder_inverse(f);
        }
    }

    #[test]
    fn full_mesh_entry_port_is_not_the_opposite_direction() {
        // The property that forces the engine through `link`/`feeder`: on
        // the 5-node full mesh, node 0's port North (link 0) reaches node
        // 1, entering through node 1's input *North* (index of 0 in 1's
        // neighbour list) — not the grid opposite (South).
        let f = FullMesh::new(5);
        let topo = NetTopology::from(f);
        let l = topo.link(0, OutputPort::North).unwrap();
        assert_eq!(l.peer, 1);
        assert_eq!(l.entry, InputPort::North);
        // And 4's link toward 0 leaves through port North but enters 0
        // through input West (4 is the 3rd other node of 0).
        assert_eq!(f.port_toward(4, 0), OutputPort::North);
        let l = topo.link(4, OutputPort::North).unwrap();
        assert_eq!(l.peer, 0);
        assert_eq!(l.entry, InputPort::West);
    }

    #[test]
    fn full_mesh_distance() {
        let f = NetTopology::from(FullMesh::new(5));
        assert_eq!(f.distance(0, 0), 0);
        assert_eq!(f.distance(0, 4), 1);
    }

    #[test]
    #[should_panic(expected = "2..=5 nodes")]
    fn oversized_full_mesh_rejected() {
        let _ = FullMesh::new(6);
    }

    #[test]
    fn net_topology_labels() {
        assert_eq!(NetTopology::from(Torus::net_4x4()).to_string(), "4x4");
        assert_eq!(NetTopology::from(Mesh::new(8, 8)).to_string(), "mesh8x8");
        assert_eq!(NetTopology::from(FullMesh::new(5)).to_string(), "fullmesh5");
        assert_eq!(NetTopology::from(Mesh::new(4, 4)).grid(), Some((4, 4)));
        assert_eq!(NetTopology::from(FullMesh::new(3)).grid(), None);
    }

    #[test]
    fn shard_map_partitions_evenly() {
        let t = Torus::net_4x4().into();
        let m = ShardMap::new(&t, 4);
        assert_eq!(m.shards(), 4);
        for s in 0..4 {
            assert_eq!(m.range(s).len(), 4);
        }
        assert_eq!(m.range(0), 0..4);
        assert_eq!(m.range(3), 12..16);
    }

    #[test]
    fn shard_map_uneven_remainder_goes_to_low_shards() {
        let t: NetTopology = Torus::net_4x4().into(); // 16 nodes
        let m = ShardMap::new(&t, 3); // 6 + 5 + 5
        assert_eq!(m.range(0), 0..6);
        assert_eq!(m.range(1), 6..11);
        assert_eq!(m.range(2), 11..16);
        for node in 0..t.nodes() {
            let s = m.shard_of(node);
            assert!(m.range(s).contains(&node));
        }
    }

    #[test]
    fn shard_map_clamps_degenerate_requests() {
        let t = Torus::net_4x4().into();
        assert_eq!(ShardMap::new(&t, 0).shards(), 1, "0 behaves as 1");
        assert_eq!(ShardMap::new(&t, 1).range(0), 0..16);
        let per_node = ShardMap::new(&t, 1000);
        assert_eq!(per_node.shards(), 16, "clamped to one router per shard");
        for s in 0..16 {
            assert_eq!(per_node.range(s).len(), 1);
        }
    }

    #[test]
    fn single_shard_has_no_cross_links() {
        let t = Torus::net_8x8().into();
        assert!(ShardMap::new(&t, 1).cross_shard_links(&t).is_empty());
    }
}
