//! Destination-selection patterns (§4.2).
//!
//! "If the bit-coordinate of the source processor can be represented as
//! (a_{n-1}, …, a_1, a_0), then the destination bit-coordinates for
//! bit-reversal and perfect-shuffle are (a_0, a_1, …, a_{n-2}, a_{n-1})
//! and (a_{n-2}, a_{n-3}, …, a_0, a_{n-1}) respectively."
//!
//! The bit patterns are defined only for power-of-two node counts; the
//! paper accordingly evaluates the 12×12 network with uniform traffic
//! only. Beyond the paper's three patterns, [`TrafficPattern::Tornado`]
//! and [`TrafficPattern::Hotspot`] are provided for extension studies.
//!
//! Patterns are checked against the [`NetTopology`] they will run on, by
//! [`WorkloadConfig::validate`](crate::WorkloadConfig::validate): the
//! index-permutation patterns need only a power-of-two node count (any
//! shape), while tornado is defined on coordinates, needs a grid and is
//! undefined on the full mesh.

use network::NetTopology;
use simcore::SimRng;
use std::fmt;

/// A destination-selection rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Uniformly random destination, excluding the source.
    Uniform,
    /// Bit-reversal permutation of the node index.
    BitReversal,
    /// Perfect-shuffle (rotate-left-by-one) of the node index.
    PerfectShuffle,
    /// Tornado: half-way around the ring in x (extension; needs a grid).
    /// On a mesh the destination still wraps modulo the width, making it
    /// an adversarial long-haul pattern rather than a ring rotation.
    Tornado,
    /// Hotspot (extension): a fraction of the traffic converges on a
    /// small set of hot nodes; the rest is uniform. The canonical
    /// non-uniform stress case of the input-queued-switch literature —
    /// the hot nodes' output links saturate first and tree saturation
    /// fans out from them.
    Hotspot {
        /// The hot node set (uniformly chosen among when a packet is
        /// hot). A hot draw that lands on the source is kept and
        /// delivered locally, like any self-mapping pattern.
        targets: HotspotTargets,
        /// Fraction of packets aimed at the hot set, in `[0, 1]`; the
        /// remainder draws uniformly over the other nodes.
        fraction: f64,
    },
}

/// The hot node set of [`TrafficPattern::Hotspot`]: up to
/// four (`HotspotTargets::MAX`) node ids in a fixed inline array, so the
/// pattern stays `Copy` and sweep configs remain plain values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotspotTargets {
    nodes: [u16; Self::MAX],
    len: u8,
}

impl HotspotTargets {
    /// Maximum hot-set size. A hotspot's point is concentration; a
    /// larger set is better expressed as a custom pattern.
    pub(crate) const MAX: usize = 4;

    /// Builds a hot set from up to four (`Self::MAX`) node ids.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, exceeds four, or contains a
    /// duplicate (a duplicate would silently skew the hot-draw weights).
    pub fn new(nodes: &[u16]) -> Self {
        assert!(!nodes.is_empty(), "a hotspot needs at least one target");
        assert!(
            nodes.len() <= Self::MAX,
            "at most {} hotspot targets (got {})",
            Self::MAX,
            nodes.len()
        );
        let mut arr = [0u16; Self::MAX];
        for (i, &n) in nodes.iter().enumerate() {
            assert!(
                !nodes[..i].contains(&n),
                "duplicate hotspot target node {n}"
            );
            arr[i] = n;
        }
        HotspotTargets {
            nodes: arr,
            len: nodes.len() as u8,
        }
    }

    /// The hot node ids.
    pub(crate) fn as_slice(&self) -> &[u16] {
        &self.nodes[..self.len as usize]
    }
}

impl TrafficPattern {
    /// True when the pattern is usable on the given topology.
    ///
    /// Tornado is defined on coordinates, so it needs a grid shape and
    /// is unsupported on the full mesh. It is defined on every grid (see [`tornado_shift`]) but degenerates to pure self-traffic
    /// when the x-extent is too short for a nonzero shift, so widths
    /// below 3 are reported as unsupported — a sweep config selecting
    /// tornado on such a shape should be rejected up front rather than
    /// silently measuring local delivery.
    pub(crate) fn supports(&self, topo: &NetTopology) -> bool {
        match self {
            TrafficPattern::Uniform => true,
            TrafficPattern::BitReversal | TrafficPattern::PerfectShuffle => {
                topo.nodes().is_power_of_two()
            }
            TrafficPattern::Tornado => {
                matches!(topo.grid(), Some((w, _)) if tornado_shift(w) > 0)
            }
            TrafficPattern::Hotspot { targets, fraction } => {
                fraction.is_finite()
                    && (0.0..=1.0).contains(fraction)
                    && targets.as_slice().iter().all(|&t| t < topo.nodes())
            }
        }
    }

    /// Picks a destination for traffic sourced at `src`.
    ///
    /// Deterministic patterns may map a node to itself (e.g. palindromic
    /// indices under bit-reversal); such packets are delivered locally.
    /// The pattern must support the topology, which
    /// [`WorkloadConfig::validate`](crate::WorkloadConfig::validate)
    /// checks once before a run instead of on every draw.
    pub fn dest(&self, topo: &NetTopology, src: u16, rng: &mut SimRng) -> u16 {
        debug_assert!(
            self.supports(topo),
            "{self} is undefined on a {topo} network"
        );
        let n = topo.nodes();
        match self {
            TrafficPattern::Uniform => uniform_other(n, src, rng),
            TrafficPattern::BitReversal => {
                let bits = n.trailing_zeros();
                let mut v = 0u16;
                for b in 0..bits {
                    if src & (1 << b) != 0 {
                        v |= 1 << (bits - 1 - b);
                    }
                }
                v
            }
            TrafficPattern::PerfectShuffle => {
                let bits = n.trailing_zeros();
                let msb = (src >> (bits - 1)) & 1;
                ((src << 1) & (n - 1)) | msb
            }
            TrafficPattern::Tornado => {
                let (w, _) = topo.grid().expect("supports() guarantees a grid");
                let (x, y) = (src % w, src / w);
                y * w + (x + tornado_shift(w)) % w
            }
            TrafficPattern::Hotspot { targets, fraction } => {
                // Hot draw first, then (only if cold) the target draw —
                // a fixed draw order keeps the per-node stream layout
                // stable for any fraction in (0, 1). At exactly 0 or 1
                // `chance` consumes no draw, so the endpoint fractions
                // use one fewer draw per destination.
                if rng.chance(*fraction) {
                    let t = targets.as_slice();
                    if t.len() == 1 {
                        t[0]
                    } else {
                        t[rng.below(t.len())]
                    }
                } else {
                    uniform_other(n, src, rng)
                }
            }
        }
    }
}

/// Uniform over the `n - 1` nodes other than `src` (self-traffic would
/// bypass the network entirely and dilute every load metric).
fn uniform_other(n: u16, src: u16, rng: &mut SimRng) -> u16 {
    if n == 1 {
        return src;
    }
    let k = rng.below(n as usize - 1) as u16;
    if k >= src {
        k + 1
    } else {
        k
    }
}

/// The tornado x-shift for a grid of width `w`: `(w - 1) / 2`, the
/// largest shift that keeps the minimal route strictly one-directional
/// (just under half-way around the ring), with no fudge factor.
///
/// Degenerate widths are defined rather than special-cased: any width
/// below 2 shifts by 0 (every source maps to itself — a width-1 "ring"
/// has nowhere else to go), and width 2 likewise yields 0 because a
/// 1-hop shift there would be exactly half-way around, where the
/// direction is ambiguous. [`TrafficPattern::supports`] reports tornado
/// as unusable whenever the shift is 0, so sweeps cannot silently
/// measure self-traffic.
pub(crate) fn tornado_shift(w: u16) -> u16 {
    if w < 2 {
        0
    } else {
        (w - 1) / 2
    }
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::BitReversal => "bit-reversal",
            TrafficPattern::PerfectShuffle => "perfect-shuffle",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::Hotspot { .. } => "hotspot",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use network::{FullMesh, Mesh, Torus};

    fn rng() -> SimRng {
        SimRng::from_seed(11)
    }

    fn t4() -> NetTopology {
        Torus::net_4x4().into()
    }

    fn t8() -> NetTopology {
        Torus::net_8x8().into()
    }

    #[test]
    fn uniform_never_targets_self_and_covers_everyone() {
        let t = t4();
        let mut r = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let d = TrafficPattern::Uniform.dest(&t, 5, &mut r);
            assert_ne!(d, 5);
            seen[d as usize] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 15);
    }

    #[test]
    fn uniform_is_roughly_balanced() {
        let t = t4();
        let mut r = rng();
        let mut counts = [0usize; 16];
        for _ in 0..15_000 {
            counts[TrafficPattern::Uniform.dest(&t, 0, &mut r) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            if i == 0 {
                assert_eq!(c, 0);
            } else {
                assert!((800..1200).contains(&c), "node {i}: {c}");
            }
        }
    }

    #[test]
    fn bit_reversal_matches_definition() {
        let t = t4(); // 16 nodes, 4 bits
        let mut r = rng();
        // 0b0001 -> 0b1000, 0b0110 -> 0b0110 (palindrome), 0b0011 -> 0b1100.
        assert_eq!(TrafficPattern::BitReversal.dest(&t, 0b0001, &mut r), 0b1000);
        assert_eq!(TrafficPattern::BitReversal.dest(&t, 0b0110, &mut r), 0b0110);
        assert_eq!(TrafficPattern::BitReversal.dest(&t, 0b0011, &mut r), 0b1100);
    }

    #[test]
    fn bit_reversal_is_an_involution() {
        let t = t8();
        let mut r = rng();
        for src in 0..64 {
            let once = TrafficPattern::BitReversal.dest(&t, src, &mut r);
            let twice = TrafficPattern::BitReversal.dest(&t, once, &mut r);
            assert_eq!(twice, src);
        }
    }

    #[test]
    fn perfect_shuffle_matches_definition() {
        let t = t4();
        let mut r = rng();
        // (a2,a1,a0,a3): 0b1000 -> 0b0001; 0b0001 -> 0b0010.
        assert_eq!(
            TrafficPattern::PerfectShuffle.dest(&t, 0b1000, &mut r),
            0b0001
        );
        assert_eq!(
            TrafficPattern::PerfectShuffle.dest(&t, 0b0001, &mut r),
            0b0010
        );
        assert_eq!(
            TrafficPattern::PerfectShuffle.dest(&t, 0b1111, &mut r),
            0b1111
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let t = t8();
        let mut r = rng();
        let mut hit = [false; 64];
        for src in 0..64 {
            let d = TrafficPattern::PerfectShuffle.dest(&t, src, &mut r);
            assert!(!hit[d as usize], "duplicate image {d}");
            hit[d as usize] = true;
        }
    }

    #[test]
    fn bit_patterns_require_power_of_two() {
        let t12 = NetTopology::from(Torus::net_12x12());
        assert!(!TrafficPattern::BitReversal.supports(&t12));
        assert!(!TrafficPattern::PerfectShuffle.supports(&t12));
        assert!(TrafficPattern::Uniform.supports(&t12));
        // The check is about node count, not shape: a 4-node full mesh
        // supports the bit permutations, a 5-node one does not.
        let fm4 = NetTopology::from(FullMesh::new(4));
        let fm5 = NetTopology::from(FullMesh::new(5));
        assert!(TrafficPattern::BitReversal.supports(&fm4));
        assert!(TrafficPattern::PerfectShuffle.supports(&fm4));
        assert!(!TrafficPattern::BitReversal.supports(&fm5));
        assert!(!TrafficPattern::PerfectShuffle.supports(&fm5));
    }

    #[test]
    fn tornado_shifts_along_x() {
        let torus = Torus::net_4x4();
        let t = NetTopology::from(torus);
        let mut r = rng();
        let d = TrafficPattern::Tornado.dest(&t, torus.node(0, 0), &mut r);
        assert_eq!(d, torus.node(1, 0));
    }

    #[test]
    fn tornado_works_on_the_mesh_grid_too() {
        let mesh = Mesh::new(4, 4);
        let t = NetTopology::from(mesh);
        let mut r = rng();
        assert!(TrafficPattern::Tornado.supports(&t));
        // Tornado still wraps the coordinate even though the mesh has no
        // wrap link — the route is just longer.
        assert_eq!(
            TrafficPattern::Tornado.dest(&t, mesh.node(3, 1), &mut r),
            mesh.node(0, 1)
        );
    }

    #[test]
    fn tornado_is_undefined_on_the_full_mesh() {
        let fm = NetTopology::from(FullMesh::new(4));
        assert!(!TrafficPattern::Tornado.supports(&fm));
        assert!(TrafficPattern::Uniform.supports(&fm));
        assert!(hotspot(&[3], 0.5).supports(&fm));
        assert!(!hotspot(&[4], 0.5).supports(&fm), "target off the mesh");
    }

    #[test]
    fn tornado_shift_pinned_for_small_widths() {
        // The defined behavior for degenerate and small rings: no max(1)
        // fudge, shift 0 (self-mapping) below width 3.
        assert_eq!(tornado_shift(1), 0, "width 1: nowhere else to go");
        assert_eq!(tornado_shift(2), 0, "width 2: half-way is ambiguous");
        assert_eq!(tornado_shift(3), 1);
        assert_eq!(tornado_shift(4), 1);
        assert_eq!(tornado_shift(5), 2);
    }

    #[test]
    fn tornado_dest_on_widths_3_to_5() {
        let mut r = rng();
        for (w, shift) in [(3u16, 1u16), (4, 1), (5, 2)] {
            let torus = Torus::new(w, 2);
            let t = NetTopology::from(torus);
            for y in 0..2 {
                for x in 0..w {
                    let d = TrafficPattern::Tornado.dest(&t, torus.node(x, y), &mut r);
                    assert_eq!(d, torus.node((x + shift) % w, y), "width {w} src ({x},{y})");
                    assert_ne!(d, torus.node(x, y), "tornado must never self-map here");
                }
            }
        }
    }

    #[test]
    fn tornado_supports_only_widths_with_nonzero_shift() {
        let shape = |w, h| NetTopology::from(Torus::new(w, h));
        assert!(!TrafficPattern::Tornado.supports(&shape(2, 4)));
        assert!(TrafficPattern::Tornado.supports(&shape(3, 2)));
        assert!(TrafficPattern::Tornado.supports(&t4()));
        assert!(TrafficPattern::Tornado.supports(&shape(5, 2)));
    }

    fn hotspot(nodes: &[u16], fraction: f64) -> TrafficPattern {
        TrafficPattern::Hotspot {
            targets: HotspotTargets::new(nodes),
            fraction,
        }
    }

    #[test]
    fn hotspot_concentrates_the_configured_fraction() {
        let t = t4();
        let mut r = rng();
        let p = hotspot(&[5, 10], 0.4);
        assert!(p.supports(&t));
        let mut hot = 0usize;
        let mut counts = [0usize; 16];
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            let d = p.dest(&t, 0, &mut r);
            counts[d as usize] += 1;
            if d == 5 || d == 10 {
                hot += 1;
            }
        }
        // Hot share = fraction + the uniform remainder's own mass on the
        // two hot nodes: 0.4 + 0.6 * 2/15 = 0.48.
        let share = hot as f64 / DRAWS as f64;
        assert!((0.44..0.52).contains(&share), "hot share {share}");
        // The two hot nodes split the hot mass roughly evenly.
        let ratio = counts[5] as f64 / counts[10] as f64;
        assert!((0.85..1.18).contains(&ratio), "hot split ratio {ratio}");
        // Cold traffic still reaches everyone else, but far less often.
        for (i, &c) in counts.iter().enumerate() {
            match i {
                0 => assert_eq!(c, 0, "uniform remainder excludes the source"),
                5 | 10 => {}
                _ => assert!(
                    (0..DRAWS / 15).contains(&c),
                    "cold node {i} drew {c} of {DRAWS}"
                ),
            }
        }
    }

    #[test]
    fn hotspot_extremes_degenerate_sensibly() {
        let t = t4();
        let mut r = rng();
        // fraction 1: every packet hits the single hot node — including
        // from the hot node itself (local delivery, documented).
        let all_hot = hotspot(&[7], 1.0);
        for src in [0u16, 7] {
            for _ in 0..50 {
                assert_eq!(all_hot.dest(&t, src, &mut r), 7);
            }
        }
        // fraction 0: indistinguishable from uniform (never self).
        let none_hot = hotspot(&[7], 0.0);
        for _ in 0..500 {
            assert_ne!(none_hot.dest(&t, 3, &mut r), 3);
        }
    }

    #[test]
    fn hotspot_support_validates_targets_and_fraction() {
        let t = t4();
        assert!(hotspot(&[0, 15], 0.5).supports(&t));
        assert!(!hotspot(&[16], 0.5).supports(&t), "target off the torus");
        assert!(!hotspot(&[3], -0.1).supports(&t));
        assert!(!hotspot(&[3], 1.5).supports(&t));
        assert!(!hotspot(&[3], f64::NAN).supports(&t));
        assert_eq!(hotspot(&[3], 0.5).to_string(), "hotspot");
    }

    #[test]
    fn hotspot_target_set_invariants() {
        let ts = HotspotTargets::new(&[4, 2, 9]);
        assert_eq!(ts.as_slice(), &[4, 2, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn hotspot_rejects_empty_target_set() {
        let _ = HotspotTargets::new(&[]);
    }

    #[test]
    #[should_panic(expected = "duplicate hotspot target node 4")]
    fn hotspot_rejects_duplicate_targets() {
        let _ = HotspotTargets::new(&[4, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "at most 4 hotspot targets")]
    fn hotspot_rejects_oversized_target_set() {
        let _ = HotspotTargets::new(&[1, 2, 3, 4, 5]);
    }
}
