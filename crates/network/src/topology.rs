//! Network shapes: the [`Topology`] trait and its three implementations.
//!
//! The 21364 shipped on a 2D torus (§2.1, Figure 3), but nothing in the
//! router model depends on that shape — a router sees packets arriving
//! through four generic network ports with a pre-computed
//! [`RouteInfo`](router::RouteInfo). The [`Topology`] trait captures what
//! the simulation engine actually needs from a shape: how many nodes
//! exist, which `(node, output port)` pairs carry a link and where that
//! link lands (peer node + entry input port), and the inverse feeder
//! relation used to return credits upstream. The [`NetTopology`] enum
//! dispatches over the concrete shapes so the engine stays monomorphic.
//!
//! Shapes:
//!
//! * [`Torus`] — the paper's `width × height` 2D torus. Nodes are
//!   numbered row-major; the four directions map to router ports as
//!   **North = −y, South = +y, East = +x, West = −x**, all with
//!   wraparound. Every link connects an output port to the opposite
//!   input port.
//! * [`Mesh`] — the same grid without wrap links: edge nodes simply lack
//!   the outward links (2–4 neighbours per node).
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

/// A network shape: node enumeration, links, and the inverse feeder
/// relation. Everything the simulation engine needs to move packets and
/// credits between routers.
pub trait Topology {
    /// Number of nodes.
    fn nodes(&self) -> u16;

    /// The link leaving `node` through network output `port`, or `None`
    /// when that port is unwired (a non-network port, a mesh edge, or a
    /// full-mesh port beyond the peer count).
    fn link(&self, node: u16, port: OutputPort) -> Option<LinkTarget>;

    /// The upstream `(peer, peer's output port)` that feeds `input` at
    /// `node` — the inverse of [`Topology::link`]: credits for `input`
    /// return to that peer through that output port.
    fn feeder(&self, node: u16, input: InputPort) -> Option<(u16, OutputPort)>;

    /// Minimal hop distance between two nodes.
    fn distance(&self, a: u16, b: u16) -> u16;

    /// Average minimal hop distance over all (src, dest) pairs with
    /// uniform random destinations (used to sanity-check zero-load
    /// latencies against §4.3).
    fn mean_uniform_distance(&self) -> f64 {
        let n = self.nodes() as u32;
        let mut total = 0u64;
        for a in 0..self.nodes() {
            for b in 0..self.nodes() {
                total += self.distance(a, b) as u64;
            }
        }
        total as f64 / (n as f64 * n as f64)
    }
}

/// The entry input port of a grid link: always the geometric opposite of
/// the output direction.
fn grid_entry_port(dir: OutputPort) -> InputPort {
    match dir {
        OutputPort::North => InputPort::South,
        OutputPort::South => InputPort::North,
        OutputPort::East => InputPort::West,
        OutputPort::West => InputPort::East,
        _ => panic!("{dir} is not a grid direction"),
    }
}

/// The grid output port that feeds an input port (inverse of
/// [`grid_entry_port`]).
fn grid_feeder_port(input: InputPort) -> OutputPort {
    match input {
        InputPort::North => OutputPort::South,
        InputPort::South => OutputPort::North,
        InputPort::East => OutputPort::West,
        InputPort::West => OutputPort::East,
        _ => panic!("{input} is not a grid direction"),
    }
}

/// The grid direction an input port faces (which neighbour it receives
/// from).
fn grid_input_direction(input: InputPort) -> OutputPort {
    match input {
        InputPort::North => OutputPort::North,
        InputPort::South => OutputPort::South,
        InputPort::East => OutputPort::East,
        InputPort::West => OutputPort::West,
        _ => panic!("{input} is not a grid direction"),
    }
}

/// A `width × height` torus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Torus {
    width: u16,
    height: u16,
}

impl Torus {
    /// Creates a torus.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are at least 2 (a 1-wide ring would
    /// make a direction its own opposite) and the node count fits `u16`.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width >= 2 && height >= 2, "torus needs at least 2x2 nodes");
        assert!(
            (width as u32) * (height as u32) <= u16::MAX as u32,
            "too many nodes"
        );
        Torus { width, height }
    }

    /// The paper's 16-processor network.
    pub fn net_4x4() -> Self {
        Torus::new(4, 4)
    }

    /// The paper's 64-processor network.
    pub fn net_8x8() -> Self {
        Torus::new(8, 8)
    }

    /// The §5.3 144-processor scaling network.
    pub fn net_12x12() -> Self {
        Torus::new(12, 12)
    }

    /// A 256-processor network (beyond the paper's studies; reachable
    /// with the sharded engine).
    pub fn net_16x16() -> Self {
        Torus::new(16, 16)
    }

    /// A 1024-processor network (sharded-engine scale).
    pub fn net_32x32() -> Self {
        Torus::new(32, 32)
    }

    /// Width (x extent).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Height (y extent).
    pub fn height(&self) -> u16 {
        self.height
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
    pub fn coords(&self, node: u16) -> (u16, u16) {
        assert!(node < self.nodes(), "node {node} out of range");
        (node % self.width, node / self.width)
    }

    /// The neighbour reached through a torus output port.
    ///
    /// # Panics
    ///
    /// Panics if `dir` is not a torus port.
    pub fn neighbor(&self, node: u16, dir: OutputPort) -> u16 {
        let (x, y) = self.coords(node);
        let (nx, ny) = match dir {
            OutputPort::North => (x, (y + self.height - 1) % self.height),
            OutputPort::South => (x, (y + 1) % self.height),
            OutputPort::East => ((x + 1) % self.width, y),
            OutputPort::West => ((x + self.width - 1) % self.width, y),
            _ => panic!("{dir} is not a torus direction"),
        };
        self.node(nx, ny)
    }

    /// The input port through which traffic sent via `dir` enters the
    /// neighbour (always the opposite side).
    pub fn entry_port(dir: OutputPort) -> InputPort {
        grid_entry_port(dir)
    }

    /// The output port that feeds an input port (inverse of
    /// [`Torus::entry_port`]): credits for input `p` return to the
    /// neighbour in `p`'s direction, through this port.
    pub fn feeder_port(input: InputPort) -> OutputPort {
        grid_feeder_port(input)
    }

    /// The torus direction of an input port (which neighbour it faces).
    pub fn input_direction(input: InputPort) -> OutputPort {
        grid_input_direction(input)
    }

    /// Minimal hop distance between two nodes.
    pub fn distance(&self, a: u16, b: u16) -> u16 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let dx = ring_distance(ax, bx, self.width);
        let dy = ring_distance(ay, by, self.height);
        dx + dy
    }

    /// Average minimal hop distance over all (src, dest) pairs with
    /// uniform random destinations.
    pub fn mean_uniform_distance(&self) -> f64 {
        Topology::mean_uniform_distance(self)
    }
}

impl Topology for Torus {
    fn nodes(&self) -> u16 {
        Torus::nodes(self)
    }

    fn link(&self, node: u16, port: OutputPort) -> Option<LinkTarget> {
        if !port.is_network() {
            return None;
        }
        Some(LinkTarget {
            peer: self.neighbor(node, port),
            entry: Torus::entry_port(port),
        })
    }

    fn feeder(&self, node: u16, input: InputPort) -> Option<(u16, OutputPort)> {
        if !input.is_network() {
            return None;
        }
        let peer = self.neighbor(node, Torus::input_direction(input));
        Some((peer, Torus::feeder_port(input)))
    }

    fn distance(&self, a: u16, b: u16) -> u16 {
        Torus::distance(self, a, b)
    }
}

fn ring_distance(a: u16, b: u16, extent: u16) -> u16 {
    let d = (b + extent - a) % extent;
    d.min(extent - d)
}

/// A `width × height` 2D mesh: the torus grid without wrap links. Edge
/// nodes have 2 or 3 neighbours, corners 2; the outward-facing ports are
/// simply unwired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are at least 2 and the node count
    /// fits `u16`.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width >= 2 && height >= 2, "mesh needs at least 2x2 nodes");
        assert!(
            (width as u32) * (height as u32) <= u16::MAX as u32,
            "too many nodes"
        );
        Mesh { width, height }
    }

    /// Width (x extent).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Height (y extent).
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.width * self.height
    }

    /// Node id of `(x, y)` (row-major, like [`Torus::node`]).
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn node(&self, x: u16, y: u16) -> u16 {
        assert!(x < self.width && y < self.height, "coordinate out of range");
        y * self.width + x
    }

    /// Coordinates of a node id.
    pub fn coords(&self, node: u16) -> (u16, u16) {
        assert!(node < self.nodes(), "node {node} out of range");
        (node % self.width, node / self.width)
    }

    /// The neighbour through `dir`, or `None` at the grid edge.
    pub fn neighbor(&self, node: u16, dir: OutputPort) -> Option<u16> {
        let (x, y) = self.coords(node);
        let (nx, ny) = match dir {
            OutputPort::North => (x, y.checked_sub(1)?),
            OutputPort::South => (x, y + 1),
            OutputPort::East => (x + 1, y),
            OutputPort::West => (x.checked_sub(1)?, y),
            _ => return None,
        };
        if nx < self.width && ny < self.height {
            Some(self.node(nx, ny))
        } else {
            None
        }
    }
}

impl Topology for Mesh {
    fn nodes(&self) -> u16 {
        Mesh::nodes(self)
    }

    fn link(&self, node: u16, port: OutputPort) -> Option<LinkTarget> {
        if !port.is_network() {
            return None;
        }
        self.neighbor(node, port).map(|peer| LinkTarget {
            peer,
            entry: grid_entry_port(port),
        })
    }

    fn feeder(&self, node: u16, input: InputPort) -> Option<(u16, OutputPort)> {
        if !input.is_network() {
            return None;
        }
        let peer = self.neighbor(node, grid_input_direction(input))?;
        Some((peer, grid_feeder_port(input)))
    }

    fn distance(&self, a: u16, b: u16) -> u16 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }
}

/// A full mesh over up to [`FullMesh::MAX_NODES`] nodes: every pair of
/// nodes shares a direct link.
///
/// The router's four network ports become plain link indices: port *k*
/// of node *a* reaches the *k*-th other node in ascending id order
/// (skipping *a* itself). The entry port at the peer is *a*'s index in
/// the *peer's* neighbour list — unlike the grid shapes, a link does
/// *not* connect an output to the geometrically opposite input, which is
/// why the engines route packets and credits through
/// [`Topology::link`]/[`Topology::feeder`] rather than a static
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
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// The peer reached through link index `k` of `node`: the `k`-th
    /// other node in ascending id order.
    fn peer_of(&self, node: u16, k: u16) -> u16 {
        if k < node {
            k
        } else {
            k + 1
        }
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

impl Topology for FullMesh {
    fn nodes(&self) -> u16 {
        FullMesh::nodes(self)
    }

    fn link(&self, node: u16, port: OutputPort) -> Option<LinkTarget> {
        if !port.is_network() {
            return None;
        }
        let k = port.index() as u16;
        if k + 1 >= self.nodes {
            return None;
        }
        let peer = self.peer_of(node, k);
        let entry = if node < peer { node } else { node - 1 };
        Some(LinkTarget {
            peer,
            entry: InputPort::from_index(entry as usize),
        })
    }

    fn feeder(&self, node: u16, input: InputPort) -> Option<(u16, OutputPort)> {
        if !input.is_network() {
            return None;
        }
        let k = input.index() as u16;
        if k + 1 >= self.nodes {
            return None;
        }
        let peer = self.peer_of(node, k);
        Some((peer, self.port_toward(peer, node)))
    }

    fn distance(&self, a: u16, b: u16) -> u16 {
        assert!(a < self.nodes && b < self.nodes, "node out of range");
        u16::from(a != b)
    }
}

/// The concrete shapes the simulator knows, behind one `Copy` value so
/// configs stay plain data and the engine stays monomorphic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetTopology {
    /// 2D torus with wraparound (the paper's network).
    Torus(Torus),
    /// 2D mesh (no wrap links).
    Mesh(Mesh),
    /// Small-radix full mesh.
    FullMesh(FullMesh),
}

impl NetTopology {
    /// Grid extents when the shape is a grid (torus or mesh), `None` for
    /// the full mesh. Both grids number nodes row-major, so
    /// `node = y * width + x` holds whenever this returns `Some`.
    pub fn grid(&self) -> Option<(u16, u16)> {
        match self {
            NetTopology::Torus(t) => Some((t.width(), t.height())),
            NetTopology::Mesh(m) => Some((m.width(), m.height())),
            NetTopology::FullMesh(_) => None,
        }
    }

    /// Number of nodes (inherent convenience; also via [`Topology`]).
    pub fn nodes(&self) -> u16 {
        match self {
            NetTopology::Torus(t) => t.nodes(),
            NetTopology::Mesh(m) => m.nodes(),
            NetTopology::FullMesh(f) => f.nodes(),
        }
    }

    /// A compact shape label: `4x4` (torus, the historical spelling kept
    /// stable for golden digests), `mesh4x4`, `fullmesh5`.
    pub fn label(&self) -> String {
        match self {
            NetTopology::Torus(t) => format!("{}x{}", t.width(), t.height()),
            NetTopology::Mesh(m) => format!("mesh{}x{}", m.width(), m.height()),
            NetTopology::FullMesh(f) => format!("fullmesh{}", f.nodes()),
        }
    }
}

impl fmt::Display for NetTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl From<Torus> for NetTopology {
    fn from(t: Torus) -> Self {
        NetTopology::Torus(t)
    }
}

impl From<Mesh> for NetTopology {
    fn from(m: Mesh) -> Self {
        NetTopology::Mesh(m)
    }
}

impl From<FullMesh> for NetTopology {
    fn from(f: FullMesh) -> Self {
        NetTopology::FullMesh(f)
    }
}

impl Topology for NetTopology {
    fn nodes(&self) -> u16 {
        NetTopology::nodes(self)
    }

    fn link(&self, node: u16, port: OutputPort) -> Option<LinkTarget> {
        match self {
            NetTopology::Torus(t) => t.link(node, port),
            NetTopology::Mesh(m) => m.link(node, port),
            NetTopology::FullMesh(f) => f.link(node, port),
        }
    }

    fn feeder(&self, node: u16, input: InputPort) -> Option<(u16, OutputPort)> {
        match self {
            NetTopology::Torus(t) => t.feeder(node, input),
            NetTopology::Mesh(m) => m.feeder(node, input),
            NetTopology::FullMesh(f) => f.feeder(node, input),
        }
    }

    fn distance(&self, a: u16, b: u16) -> u16 {
        match self {
            NetTopology::Torus(t) => Topology::distance(t, a, b),
            NetTopology::Mesh(m) => Topology::distance(m, a, b),
            NetTopology::FullMesh(f) => Topology::distance(f, a, b),
        }
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
    pub fn new(topo: &impl Topology, shards: usize) -> Self {
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
    pub fn cross_shard_links(&self, topo: &impl Topology) -> Vec<(u16, u16)> {
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
        assert_eq!(t.neighbor(0, OutputPort::North), 12);
        assert_eq!(t.neighbor(0, OutputPort::West), 3);
        assert_eq!(t.neighbor(0, OutputPort::South), 4);
        assert_eq!(t.neighbor(0, OutputPort::East), 1);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let t = Torus::net_4x4();
        for n in 0..t.nodes() {
            for dir in [
                OutputPort::North,
                OutputPort::South,
                OutputPort::East,
                OutputPort::West,
            ] {
                let m = t.neighbor(n, dir);
                let back = Torus::feeder_port(Torus::entry_port(dir));
                assert_eq!(
                    t.neighbor(m, Torus::input_direction(Torus::entry_port(dir))),
                    n,
                    "walking back along the entry direction returns home"
                );
                assert_eq!(back, dir, "feeder/entry are inverses");
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
    fn mean_uniform_distance_4x4() {
        // Each dimension of extent 4 has ring distances {0,1,2,1} => mean
        // 1.0; two dimensions => 2.0 expected hops.
        let t = Torus::net_4x4();
        assert!((t.mean_uniform_distance() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a torus direction")]
    fn local_port_is_not_a_direction() {
        let t = Torus::net_4x4();
        let _ = t.neighbor(0, OutputPort::L0);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_torus_rejected() {
        let _ = Torus::new(1, 8);
    }

    /// The generic link/feeder relations must be mutual inverses on every
    /// shape: following a link and then asking the destination who feeds
    /// the entry port names the original `(node, port)`.
    fn assert_link_feeder_inverse(topo: &impl Topology) {
        for node in 0..topo.nodes() {
            for port in &OutputPort::ALL[..4] {
                if let Some(l) = topo.link(node, *port) {
                    assert_eq!(
                        topo.feeder(l.peer, l.entry),
                        Some((node, *port)),
                        "feeder inverts link at node {node} port {port}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_link_feeder_inverse() {
        assert_link_feeder_inverse(&Torus::net_4x4());
        assert_link_feeder_inverse(&Torus::new(2, 3));
    }

    #[test]
    fn mesh_edges_are_unwired() {
        let m = Mesh::new(4, 4);
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
        for port in &OutputPort::ALL[..4] {
            assert!(m.link(5, *port).is_some());
        }
        assert_link_feeder_inverse(&m);
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let m = Mesh::new(4, 4);
        assert_eq!(Topology::distance(&m, 0, 3), 3, "no wraparound shortcut");
        assert_eq!(Topology::distance(&m, 0, 15), 6);
        assert_eq!(Topology::distance(&m, 5, 5), 0);
    }

    #[test]
    fn full_mesh_links_every_pair_exactly_once() {
        for n in 2..=FullMesh::MAX_NODES {
            let f = FullMesh::new(n);
            for a in 0..n {
                let mut peers: Vec<u16> = Vec::new();
                for port in &OutputPort::ALL[..4] {
                    if let Some(l) = f.link(a, *port) {
                        peers.push(l.peer);
                    }
                }
                let mut expect: Vec<u16> = (0..n).filter(|&b| b != a).collect();
                expect.sort_unstable();
                peers.sort_unstable();
                assert_eq!(peers, expect, "node {a} of {n}");
            }
            assert_link_feeder_inverse(&f);
        }
    }

    #[test]
    fn full_mesh_entry_port_is_not_the_opposite_direction() {
        // The property that forces the engines through the trait: on the
        // 5-node full mesh, node 0's port North (link 0) reaches node 1,
        // entering through node 1's input *North* (index of 0 in 1's
        // neighbour list) — not the grid opposite (South).
        let f = FullMesh::new(5);
        let l = f.link(0, OutputPort::North).unwrap();
        assert_eq!(l.peer, 1);
        assert_eq!(l.entry, InputPort::North);
        // And 4's link toward 0 leaves through port North but enters 0
        // through input West (4 is the 3rd other node of 0).
        assert_eq!(f.port_toward(4, 0), OutputPort::North);
        let l = f.link(4, OutputPort::North).unwrap();
        assert_eq!(l.peer, 0);
        assert_eq!(l.entry, InputPort::West);
    }

    #[test]
    fn full_mesh_distance_and_mean() {
        let f = FullMesh::new(5);
        assert_eq!(Topology::distance(&f, 0, 0), 0);
        assert_eq!(Topology::distance(&f, 0, 4), 1);
        // Mean over all pairs incl. self: 20/25.
        assert!((Topology::mean_uniform_distance(&f) - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "2..=5 nodes")]
    fn oversized_full_mesh_rejected() {
        let _ = FullMesh::new(6);
    }

    #[test]
    fn net_topology_labels() {
        assert_eq!(NetTopology::from(Torus::net_4x4()).label(), "4x4");
        assert_eq!(NetTopology::from(Mesh::new(8, 8)).label(), "mesh8x8");
        assert_eq!(NetTopology::from(FullMesh::new(5)).label(), "fullmesh5");
        assert_eq!(NetTopology::from(Mesh::new(4, 4)).grid(), Some((4, 4)));
        assert_eq!(NetTopology::from(FullMesh::new(3)).grid(), None);
    }

    #[test]
    fn shard_map_partitions_evenly() {
        let t = Torus::net_4x4();
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
        let t = Torus::net_4x4(); // 16 nodes
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
        let t = Torus::net_4x4();
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
        let t = Torus::net_8x8();
        assert!(ShardMap::new(&t, 1).cross_shard_links(&t).is_empty());
    }
}
