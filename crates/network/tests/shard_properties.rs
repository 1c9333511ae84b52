//! Property tests for the shard map the parallel engine is built on.
//!
//! The sharded engine's correctness argument leans on structural facts
//! about the partition — every router owned exactly once, contiguous
//! ranges, near-equal sizes, and a symmetric cross-shard link relation —
//! so those facts are pinned here over a grid of (topology, shard-count)
//! combinations rather than assumed. The topology set spans all three
//! shapes: tori, meshes (whose edge nodes have asymmetric degree), and
//! full meshes (where *every* link crosses shards once the partition is
//! fine enough).

use network::{FullMesh, Mesh, NetTopology, ShardMap, Torus};

/// Shapes under test: tori including non-square and 2-extent rings
/// (where a node's two neighbours in one dimension coincide), meshes of
/// the same extents, and every legal full-mesh size.
fn shapes() -> Vec<NetTopology> {
    vec![
        Torus::new(2, 2).into(),
        Torus::new(4, 2).into(),
        Torus::new(2, 5).into(),
        Torus::net_4x4().into(),
        Torus::new(5, 3).into(),
        Torus::net_8x8().into(),
        Torus::new(7, 9).into(),
        Torus::net_12x12().into(),
        Torus::net_16x16().into(),
        Mesh::new(2, 2).into(),
        Mesh::new(4, 2).into(),
        Mesh::new(2, 5).into(),
        Mesh::new(4, 4).into(),
        Mesh::new(5, 3).into(),
        Mesh::new(8, 8).into(),
        Mesh::new(7, 9).into(),
        FullMesh::new(2).into(),
        FullMesh::new(3).into(),
        FullMesh::new(4).into(),
        FullMesh::new(5).into(),
    ]
}

/// Shard-count requests, from degenerate (0, 1) through non-dividing
/// counts to far beyond any node count.
fn shard_requests() -> Vec<usize> {
    vec![
        0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 16, 63, 64, 100, 1_000, 10_000,
    ]
}

#[test]
fn every_router_lives_in_exactly_one_shard() {
    for topo in shapes() {
        for request in shard_requests() {
            let map = ShardMap::new(&topo, request);
            let label = format!("{topo} request={request}");
            let mut owners = vec![0u32; topo.nodes() as usize];
            for s in 0..map.shards() {
                for node in map.range(s) {
                    owners[node as usize] += 1;
                    assert_eq!(
                        map.shard_of(node),
                        s,
                        "{label}: shard_of must agree with range"
                    );
                }
            }
            assert!(
                owners.iter().all(|&c| c == 1),
                "{label}: every node owned exactly once (got {owners:?})"
            );
        }
    }
}

#[test]
fn shards_are_contiguous_ascending_and_balanced() {
    for topo in shapes() {
        for request in shard_requests() {
            let map = ShardMap::new(&topo, request);
            let label = format!("{topo} request={request}");
            let mut next = 0u16;
            let mut sizes = Vec::new();
            for s in 0..map.shards() {
                let range = map.range(s);
                assert_eq!(range.start, next, "{label}: shard {s} not contiguous");
                assert!(!range.is_empty(), "{label}: shard {s} empty");
                sizes.push(range.len());
                next = range.end;
            }
            assert_eq!(next, topo.nodes(), "{label}: ranges must cover the network");
            let (min, max) = (
                *sizes.iter().min().expect("at least one shard"),
                *sizes.iter().max().expect("at least one shard"),
            );
            assert!(
                max - min <= 1,
                "{label}: sizes must differ by at most one (got {sizes:?})"
            );
        }
    }
}

#[test]
fn degenerate_requests_clamp_to_valid_partitions() {
    for topo in shapes() {
        let nodes = topo.nodes() as usize;
        assert_eq!(ShardMap::new(&topo, 0).shards(), 1, "0 clamps to 1");
        assert_eq!(ShardMap::new(&topo, 1).shards(), 1);
        // More shards than routers: one single-node shard per router.
        let max = ShardMap::new(&topo, nodes + 1_000);
        assert_eq!(max.shards(), nodes);
        for s in 0..max.shards() {
            assert_eq!(max.range(s).len(), 1);
        }
    }
}

#[test]
fn cross_shard_links_are_symmetric_and_complete() {
    use arbitration::ports::OutputPort;
    for topo in shapes() {
        for request in shard_requests() {
            let map = ShardMap::new(&topo, request);
            let label = format!("{topo} request={request}");
            let links = map.cross_shard_links(&topo);

            // Sorted and deduplicated (the engine relies on a canonical
            // listing).
            let mut sorted = links.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(links, sorted, "{label}: links sorted and unique");

            // Symmetric: (a, b) present iff (b, a) present.
            for &(a, b) in &links {
                assert!(
                    links.binary_search(&(b, a)).is_ok(),
                    "{label}: link ({a}, {b}) lacks its reverse"
                );
            }

            // Every listed pair is a genuine link that crosses a shard
            // boundary...
            for &(a, b) in &links {
                assert_eq!(topo.distance(a, b), 1, "{label}: ({a}, {b}) not a link");
                assert_ne!(
                    map.shard_of(a),
                    map.shard_of(b),
                    "{label}: ({a}, {b}) does not cross shards"
                );
            }
            // ...and every linked pair in different shards is listed
            // (completeness via the link relation itself).
            for node in 0..topo.nodes() {
                for dir in &OutputPort::ALL[..4] {
                    let Some(l) = topo.link(node, *dir) else {
                        continue;
                    };
                    if map.shard_of(node) != map.shard_of(l.peer) {
                        assert!(
                            links.binary_search(&(node, l.peer)).is_ok(),
                            "{label}: missing cross link ({node}, {})",
                            l.peer
                        );
                    }
                }
            }

            // A single shard has no cross links at all.
            if map.shards() == 1 {
                assert!(links.is_empty(), "{label}: one shard, no cross links");
            }
        }
    }
}

#[test]
fn mesh_edge_nodes_shed_their_unwired_links() {
    // Row-band partitions of a mesh cross only at the band boundary, and
    // — unlike the torus — there are no wrap links connecting the top
    // band to the bottom one. A 2-shard split of a w×h mesh therefore
    // crosses on exactly w links (2w ordered pairs); the matching torus
    // adds another w for the wrap seam (4w ordered pairs).
    for (w, h) in [(4u16, 4u16), (5, 3), (8, 8)] {
        let mesh = NetTopology::from(Mesh::new(w, h));
        let torus = NetTopology::from(Torus::new(w, h));
        let map = ShardMap::new(&mesh, 2);
        // Even h splits on a row boundary; odd h puts the extra row in
        // shard 0 but the boundary still severs exactly one row seam.
        let mesh_links = map.cross_shard_links(&mesh);
        let torus_links = ShardMap::new(&torus, 2).cross_shard_links(&torus);
        if (map.range(0).len() as u16).is_multiple_of(w) {
            assert_eq!(mesh_links.len(), 2 * w as usize, "mesh {w}x{h}");
            assert_eq!(torus_links.len(), 4 * w as usize, "torus {w}x{h}");
        }
        // Regardless of alignment, the mesh never has more cross links
        // than the torus of the same extents.
        assert!(mesh_links.len() <= torus_links.len());
    }
}

#[test]
fn full_mesh_per_node_shards_cross_on_every_link() {
    // With one node per shard, every link is a cross link: the full mesh
    // lists all ordered pairs of distinct nodes.
    for n in 2..=5u16 {
        let fm = NetTopology::from(FullMesh::new(n));
        let map = ShardMap::new(&fm, n as usize);
        let links = map.cross_shard_links(&fm);
        assert_eq!(links.len(), n as usize * (n as usize - 1), "fullmesh{n}");
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    assert!(
                        links.binary_search(&(a, b)).is_ok(),
                        "fullmesh{n}: missing ({a}, {b})"
                    );
                }
            }
        }
    }
}
