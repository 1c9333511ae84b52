//! Property tests for traffic patterns and transaction plumbing.
//!
//! Cases are generated from a deterministic [`SimRng`] stream per test
//! (no external property-testing dependency).

use network::{FullMesh, Mesh, NetTopology, Torus};
use simcore::SimRng;
use workload::txn::TxnTag;
use workload::TrafficPattern;

/// Power-of-two square tori the bit patterns are defined on.
const POW2_TORI: [(u16, u16); 5] = [(2, 2), (4, 4), (8, 8), (4, 8), (16, 4)];

/// Power-of-two node counts across all three shapes — the bit patterns
/// care only about the node count, never the wiring.
fn pow2_shapes() -> Vec<NetTopology> {
    let mut shapes: Vec<NetTopology> = POW2_TORI
        .iter()
        .map(|&(w, h)| Torus::new(w, h).into())
        .collect();
    shapes.extend(
        POW2_TORI
            .iter()
            .map(|&(w, h)| NetTopology::from(Mesh::new(w, h))),
    );
    shapes.push(FullMesh::new(2).into());
    shapes.push(FullMesh::new(4).into());
    shapes
}

#[test]
fn bit_patterns_are_permutations() {
    for topo in pow2_shapes() {
        let mut rng = SimRng::from_seed(1);
        for pattern in [TrafficPattern::BitReversal, TrafficPattern::PerfectShuffle] {
            let mut seen = vec![false; topo.nodes() as usize];
            for src in 0..topo.nodes() {
                let d = pattern.dest(&topo, src, &mut rng);
                assert!(d < topo.nodes());
                assert!(!seen[d as usize], "{topo} {pattern}: duplicate image {d}");
                seen[d as usize] = true;
            }
        }
    }
}

#[test]
fn bit_reversal_is_involutive() {
    let mut rng = SimRng::from_seed(2);
    for topo in pow2_shapes() {
        for src in 0..topo.nodes() {
            let once = TrafficPattern::BitReversal.dest(&topo, src, &mut rng);
            let twice = TrafficPattern::BitReversal.dest(&topo, once, &mut rng);
            assert_eq!(twice, src);
        }
    }
}

#[test]
fn shuffle_iterates_back_to_identity() {
    // Rotating n bits left n times is the identity.
    let mut rng = SimRng::from_seed(3);
    for topo in pow2_shapes() {
        let bits = topo.nodes().trailing_zeros();
        for src in 0..topo.nodes() {
            let mut x = src;
            for _ in 0..bits {
                x = TrafficPattern::PerfectShuffle.dest(&topo, x, &mut rng);
            }
            assert_eq!(x, src);
        }
    }
}

#[test]
fn uniform_excludes_self() {
    let mut gen = SimRng::from_seed(0x756e_6931);
    let shapes = pow2_shapes();
    for case in 0..256 {
        let topo = shapes[gen.below(shapes.len())];
        let src = gen.below(topo.nodes() as usize) as u16;
        let mut rng = SimRng::from_seed(gen.next_u64());
        for _ in 0..16 {
            let d = TrafficPattern::Uniform.dest(&topo, src, &mut rng);
            assert!(d < topo.nodes(), "case {case}");
            assert_ne!(d, src, "case {case}");
        }
    }
}

#[test]
fn txn_tags_round_trip() {
    let mut gen = SimRng::from_seed(0x7461_6731);
    for _ in 0..1024 {
        let tag = TxnTag {
            requester: gen.next_u32() as u16,
            owner: gen.next_u32() as u16,
            three_hop: gen.chance(0.5),
            seq: gen.next_u32() & 0x7fff_ffff,
        };
        assert_eq!(TxnTag::unpack(tag.pack()), tag);
    }
}
