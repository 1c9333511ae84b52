//! Burton Normal Form (BNF) performance curves.
//!
//! The paper expresses every timing result as a BNF graph (§4.3): average
//! packet latency in nanoseconds on the vertical axis against delivered
//! throughput in flits/router/ns on the horizontal axis. Each point of a
//! curve comes from one simulation at a fixed offered load; sweeping the
//! offered load traces the curve. Saturation collapse appears as the curve
//! bending *backwards* — higher offered load yielding lower delivered
//! throughput at much higher latency — which is exactly the behaviour the
//! Rotary Rule is designed to prevent (§3.4).

use crate::stats::OnlineStats;
use std::fmt;

/// One measured operating point of a network configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BnfPoint {
    /// The offered load knob that produced this point (new-packet
    /// generation probability per processor per core cycle).
    pub offered: f64,
    /// Delivered throughput in flits/router/ns.
    pub delivered_flits_per_router_ns: f64,
    /// Average packet latency in nanoseconds (creation to last-flit
    /// delivery, including source queueing).
    pub avg_latency_ns: f64,
    /// Number of packets the latency average is over.
    pub packets: u64,
}

impl fmt::Display for BnfPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offered={:.4} delivered={:.4} flits/router/ns latency={:.1} ns (n={})",
            self.offered, self.delivered_flits_per_router_ns, self.avg_latency_ns, self.packets
        )
    }
}

/// A labelled series of [`BnfPoint`]s (one algorithm on one figure).
#[derive(Clone, Debug, Default)]
pub struct BnfCurve {
    /// Series label, e.g. `"SPAA-rotary"`.
    pub label: String,
    /// Points in offered-load order.
    pub points: Vec<BnfPoint>,
}

impl BnfCurve {
    /// Creates an empty curve with a label.
    pub fn new(label: impl Into<String>) -> Self {
        BnfCurve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point (points should be pushed in offered-load order).
    pub fn push(&mut self, p: BnfPoint) {
        self.points.push(p);
    }

    /// The highest delivered throughput on the curve, if any.
    pub fn peak_throughput(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.delivered_flits_per_router_ns)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Delivered throughput at the largest offered load — used to detect
    /// post-saturation collapse (`final_throughput() << peak_throughput()`).
    pub fn final_throughput(&self) -> Option<f64> {
        self.points.last().map(|p| p.delivered_flits_per_router_ns)
    }

    /// Interpolated delivered throughput at a given latency level.
    ///
    /// This is how the paper quotes comparisons ("at about 122 ns of
    /// average packet latency, SPAA provides 24% higher throughput"): find
    /// where each curve crosses the latency level and compare throughputs.
    ///
    /// The latency sequence need not be monotone: past saturation a curve
    /// can bend backwards, and the measured mean latency itself can
    /// *fall* between points (when collapse leaves only short-haul
    /// packets delivered). Each consecutive segment is therefore tested
    /// for a crossing on its own — ascending, descending, or flat — and
    /// the first crossing in offered-load order wins, so a level reached
    /// both before and after the bend reports the pre-saturation branch,
    /// which is the comparison the paper makes. A flat segment sitting
    /// exactly on the level reports its higher throughput (either
    /// endpoint is "at" the level; the curve delivers at least that
    /// much there).
    ///
    /// Levels below the curve's first point clamp to that point's
    /// throughput; returns `None` if no segment ever reaches
    /// `latency_ns`.
    pub fn throughput_at_latency(&self, latency_ns: f64) -> Option<f64> {
        for w in self.points.windows(2) {
            let (q, p) = (&w[0], &w[1]);
            let lo = q.avg_latency_ns.min(p.avg_latency_ns);
            let hi = q.avg_latency_ns.max(p.avg_latency_ns);
            if latency_ns < lo || latency_ns > hi {
                continue;
            }
            if p.avg_latency_ns == q.avg_latency_ns {
                // Degenerate (flat-at-level) segment: no unique abscissa.
                return Some(
                    q.delivered_flits_per_router_ns
                        .max(p.delivered_flits_per_router_ns),
                );
            }
            let t = (latency_ns - q.avg_latency_ns) / (p.avg_latency_ns - q.avg_latency_ns);
            return Some(
                q.delivered_flits_per_router_ns
                    + t * (p.delivered_flits_per_router_ns - q.delivered_flits_per_router_ns),
            );
        }
        // No segment crosses: clamp below the curve's start, otherwise
        // the level was never reached.
        match self.points.first() {
            Some(first) if first.avg_latency_ns >= latency_ns => {
                Some(first.delivered_flits_per_router_ns)
            }
            _ => None,
        }
    }

    /// Minimum (zero-load) latency of the curve, if any.
    pub fn zero_load_latency(&self) -> Option<f64> {
        self.points.first().map(|p| p.avg_latency_ns)
    }
}

/// One load point of a replicated curve: per-seed throughput and latency
/// samples folded into online moments, ready for mean ± CI error bars.
#[derive(Clone, Debug)]
pub struct ReplicatedBnfPoint {
    /// The offered load that produced every replicate of this point.
    pub offered: f64,
    /// Delivered throughput across replicates (flits/router/ns).
    pub throughput: OnlineStats,
    /// Average packet latency across replicates (ns).
    pub latency_ns: OnlineStats,
    /// Total packets across all replicates.
    pub packets: u64,
}

impl ReplicatedBnfPoint {
    /// 95% confidence half-width on the mean delivered throughput
    /// (normal approximation, see `OnlineStats::confidence_interval`).
    pub fn throughput_ci95(&self) -> f64 {
        self.throughput.confidence_interval(0.95)
    }

    /// 95% confidence half-width on the mean latency.
    pub fn latency_ci95(&self) -> f64 {
        self.latency_ns.confidence_interval(0.95)
    }

    /// The replicate-mean operating point (for mean-curve comparisons
    /// through the existing [`BnfCurve`] analysis methods).
    pub(crate) fn mean_point(&self) -> BnfPoint {
        BnfPoint {
            offered: self.offered,
            delivered_flits_per_router_ns: self.throughput.mean(),
            avg_latency_ns: self.latency_ns.mean(),
            packets: self.packets,
        }
    }
}

/// A BNF curve replicated across independent seeds: per load point, the
/// mean ± confidence interval over one [`BnfCurve`] per seed.
///
/// Determinism contract: the aggregate is a function of the *set* of
/// `(seed, curve)` replicates only. Replicates are stored sorted by seed
/// and every statistic folds them in that canonical order, so the result
/// is bit-identical regardless of the order replicates were merged in
/// (seed-list order, worker-completion order, …). Seeds must be unique —
/// a duplicate seed would silently double-weight one RNG stream.
#[derive(Clone, Debug, Default)]
pub struct ReplicatedBnfCurve {
    /// Series label, e.g. `"SPAA-rotary"`.
    pub label: String,
    /// Per-seed curves, kept sorted by seed.
    replicates: Vec<(u64, BnfCurve)>,
}

impl ReplicatedBnfCurve {
    /// Creates an empty replicated curve with a label.
    pub fn new(label: impl Into<String>) -> Self {
        ReplicatedBnfCurve {
            label: label.into(),
            replicates: Vec::new(),
        }
    }

    /// Merges one seed's curve into the replicate set.
    ///
    /// Merge order is irrelevant to the aggregate (see the type-level
    /// determinism contract); callers may merge in input order or as
    /// parallel workers complete.
    ///
    /// # Panics
    ///
    /// Panics if `seed` was already merged, or if the curve's offered
    /// grid differs from the replicates already present (replication
    /// means re-running the *same* sweep under a different RNG stream).
    pub fn merge(&mut self, seed: u64, curve: BnfCurve) {
        if let Some((_, first)) = self.replicates.first() {
            assert_eq!(
                first.points.len(),
                curve.points.len(),
                "replicate point-count mismatch for {}",
                self.label
            );
            for (a, b) in first.points.iter().zip(&curve.points) {
                assert_eq!(
                    a.offered.to_bits(),
                    b.offered.to_bits(),
                    "replicate offered-load grid mismatch for {}",
                    self.label
                );
            }
        }
        match self.replicates.binary_search_by_key(&seed, |&(s, _)| s) {
            Ok(_) => panic!("duplicate replicate seed {seed} for {}", self.label),
            Err(pos) => self.replicates.insert(pos, (seed, curve)),
        }
    }

    /// Number of replicates merged so far.
    pub fn replicate_count(&self) -> usize {
        self.replicates.len()
    }

    /// The replicate seeds, ascending.
    pub fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        self.replicates.iter().map(|&(s, _)| s)
    }

    /// One seed's curve (for drill-down reporting).
    pub fn replicate(&self, seed: u64) -> Option<&BnfCurve> {
        self.replicates
            .binary_search_by_key(&seed, |&(s, _)| s)
            .ok()
            .map(|i| &self.replicates[i].1)
    }

    /// Aggregated points: one [`ReplicatedBnfPoint`] per load point, each
    /// folding every replicate in ascending-seed order.
    pub fn points(&self) -> Vec<ReplicatedBnfPoint> {
        let Some((_, first)) = self.replicates.first() else {
            return Vec::new();
        };
        (0..first.points.len())
            .map(|i| {
                let mut throughput = OnlineStats::new();
                let mut latency_ns = OnlineStats::new();
                let mut packets = 0;
                for (_, curve) in &self.replicates {
                    let p = &curve.points[i];
                    throughput.record(p.delivered_flits_per_router_ns);
                    latency_ns.record(p.avg_latency_ns);
                    packets += p.packets;
                }
                ReplicatedBnfPoint {
                    offered: first.points[i].offered,
                    throughput,
                    latency_ns,
                    packets,
                }
            })
            .collect()
    }

    /// The replicate-mean curve, for the established single-curve
    /// analyses ([`BnfCurve::throughput_at_latency`] etc.).
    pub fn mean_curve(&self) -> BnfCurve {
        BnfCurve {
            label: self.label.clone(),
            points: self.points().iter().map(|p| p.mean_point()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(offered: f64, thr: f64, lat: f64) -> BnfPoint {
        BnfPoint {
            offered,
            delivered_flits_per_router_ns: thr,
            avg_latency_ns: lat,
            packets: 1000,
        }
    }

    #[test]
    fn peak_and_final() {
        let mut c = BnfCurve::new("SPAA-base");
        c.push(pt(0.01, 0.2, 50.0));
        c.push(pt(0.02, 0.5, 60.0));
        c.push(pt(0.04, 0.7, 90.0));
        c.push(pt(0.08, 0.4, 300.0)); // saturation collapse
        assert_eq!(c.peak_throughput(), Some(0.7));
        assert_eq!(c.final_throughput(), Some(0.4));
        assert_eq!(c.zero_load_latency(), Some(50.0));
    }

    #[test]
    fn throughput_at_latency_interpolates() {
        let mut c = BnfCurve::new("x");
        c.push(pt(0.01, 0.2, 50.0));
        c.push(pt(0.02, 0.6, 100.0));
        // Halfway in latency => halfway in throughput.
        let t = c.throughput_at_latency(75.0).unwrap();
        assert!((t - 0.4).abs() < 1e-12);
        // Below the first point: clamps to the first point's throughput.
        assert_eq!(c.throughput_at_latency(10.0), Some(0.2));
        // Beyond the curve: not reached.
        assert_eq!(c.throughput_at_latency(500.0), None);
    }

    #[test]
    fn throughput_at_latency_handles_collapsing_curve() {
        // Post-saturation collapse: offered load keeps rising while
        // delivered throughput falls, and the measured mean latency dips
        // (only short-haul packets survive) before blowing up. The level
        // is crossed three times; the pre-saturation branch must win.
        let mut c = BnfCurve::new("collapse");
        c.push(pt(0.01, 0.2, 50.0));
        c.push(pt(0.02, 0.6, 100.0));
        c.push(pt(0.04, 0.7, 240.0));
        c.push(pt(0.08, 0.4, 160.0)); // backward bend, latency falls
        c.push(pt(0.16, 0.2, 500.0));
        // Level 75 crossed only on the ascending first segment.
        assert!((c.throughput_at_latency(75.0).unwrap() - 0.4).abs() < 1e-12);
        // Level 200 is crossed ascending (100→240), then descending
        // (240→160), then ascending again (160→500): first crossing wins.
        let t200 = c.throughput_at_latency(200.0).unwrap();
        let expect = 0.6 + (200.0 - 100.0) / (240.0 - 100.0) * (0.7 - 0.6);
        assert!((t200 - expect).abs() < 1e-12, "got {t200}, want {expect}");
        assert_eq!(c.throughput_at_latency(600.0), None, "never reached");
    }

    #[test]
    fn throughput_at_latency_descending_crossing_interpolates() {
        // A level reached only inside the backward bend must interpolate
        // along the descending segment instead of returning a raw point.
        let mut c = BnfCurve::new("bend-only");
        c.push(pt(0.02, 0.5, 240.0));
        c.push(pt(0.04, 0.7, 160.0));
        c.push(pt(0.08, 0.2, 500.0));
        let t = c.throughput_at_latency(200.0).unwrap();
        let expect = 0.5 + (200.0 - 240.0) / (160.0 - 240.0) * (0.7 - 0.5);
        assert!((t - expect).abs() < 1e-12, "got {t}, want {expect}");
    }

    #[test]
    fn throughput_at_latency_flat_segment_at_level() {
        // Two consecutive points measuring the same mean latency, with
        // the level exactly on them: no unique crossing abscissa exists,
        // so the higher throughput achieved at that latency is reported.
        let mut c = BnfCurve::new("flat");
        c.push(pt(0.02, 0.6, 90.0));
        c.push(pt(0.04, 0.5, 90.0));
        c.push(pt(0.08, 0.3, 400.0));
        assert_eq!(c.throughput_at_latency(90.0), Some(0.6));
        // And a level between the plateau and the blow-up interpolates
        // on the following ascending segment.
        let t = c.throughput_at_latency(245.0).unwrap();
        let expect = 0.5 + (245.0 - 90.0) / (400.0 - 90.0) * (0.3 - 0.5);
        assert!((t - expect).abs() < 1e-12);
    }

    fn replicate_curve(label: &str, thrs: &[f64], lats: &[f64]) -> BnfCurve {
        let mut c = BnfCurve::new(label);
        for (i, (&t, &l)) in thrs.iter().zip(lats).enumerate() {
            c.push(pt(0.01 * (i + 1) as f64, t, l));
        }
        c
    }

    #[test]
    fn replicated_curve_aggregates_mean_and_ci() {
        let mut r = ReplicatedBnfCurve::new("SPAA-rotary");
        r.merge(1, replicate_curve("s", &[0.2, 0.5], &[50.0, 80.0]));
        r.merge(2, replicate_curve("s", &[0.4, 0.7], &[60.0, 100.0]));
        r.merge(3, replicate_curve("s", &[0.3, 0.6], &[70.0, 90.0]));
        assert_eq!(r.replicate_count(), 3);
        let pts = r.points();
        assert_eq!(pts.len(), 2);
        assert!((pts[0].throughput.mean() - 0.3).abs() < 1e-12);
        assert!((pts[0].latency_ns.mean() - 60.0).abs() < 1e-12);
        assert_eq!(pts[0].packets, 3000);
        // CI half-width: z * s / sqrt(n) with s = 0.1, n = 3.
        let want = 1.959964 * 0.1 / 3.0f64.sqrt();
        assert!((pts[0].throughput_ci95() - want).abs() < 1e-5);
        assert!(pts[1].latency_ci95() > 0.0);
        let mean = r.mean_curve();
        assert_eq!(mean.points.len(), 2);
        assert!((mean.points[1].delivered_flits_per_router_ns - 0.6).abs() < 1e-12);
    }

    #[test]
    fn replicated_curve_is_merge_order_invariant() {
        let reps = [
            (11u64, replicate_curve("s", &[0.2, 0.5], &[50.0, 80.0])),
            (7, replicate_curve("s", &[0.25, 0.55], &[52.0, 83.0])),
            (23, replicate_curve("s", &[0.21, 0.52], &[51.0, 81.0])),
        ];
        let merged = |reps: Vec<(u64, BnfCurve)>| {
            let mut c = ReplicatedBnfCurve::new("x");
            for (seed, curve) in reps {
                c.merge(seed, curve);
            }
            c
        };
        let forward = merged(reps.to_vec());
        let backward = merged(reps.into_iter().rev().collect());
        assert_eq!(
            forward.seeds().collect::<Vec<_>>(),
            backward.seeds().collect::<Vec<_>>()
        );
        for (a, b) in forward.points().iter().zip(backward.points()) {
            assert_eq!(a.offered.to_bits(), b.offered.to_bits());
            // Bit-identical moments: the fold order is canonical.
            assert_eq!(a.throughput.mean().to_bits(), b.throughput.mean().to_bits());
            assert_eq!(
                a.throughput.sample_variance().to_bits(),
                b.throughput.sample_variance().to_bits()
            );
            assert_eq!(a.latency_ns.mean().to_bits(), b.latency_ns.mean().to_bits());
            assert_eq!(a.packets, b.packets);
        }
    }

    #[test]
    fn replicated_curve_drilldown_and_empty() {
        let empty = ReplicatedBnfCurve::new("none");
        assert_eq!(empty.replicate_count(), 0);
        assert!(empty.points().is_empty());
        assert!(empty.mean_curve().points.is_empty());

        let mut r = ReplicatedBnfCurve::new("one");
        r.merge(5, replicate_curve("s", &[0.2], &[50.0]));
        assert!(r.replicate(5).is_some());
        assert!(r.replicate(6).is_none());
        // A single replicate has a zero-width interval, not NaN.
        assert_eq!(r.points()[0].throughput_ci95(), 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate replicate seed 9")]
    fn replicated_curve_rejects_duplicate_seed() {
        let mut r = ReplicatedBnfCurve::new("dup");
        r.merge(9, replicate_curve("s", &[0.2], &[50.0]));
        r.merge(9, replicate_curve("s", &[0.3], &[60.0]));
    }

    #[test]
    #[should_panic(expected = "offered-load grid mismatch")]
    fn replicated_curve_rejects_grid_mismatch() {
        let mut r = ReplicatedBnfCurve::new("grid");
        r.merge(1, replicate_curve("s", &[0.2], &[50.0]));
        let mut other = BnfCurve::new("s");
        other.push(pt(0.5, 0.2, 50.0));
        r.merge(2, other);
    }

    #[test]
    fn empty_curve() {
        let c = BnfCurve::new("empty");
        assert_eq!(c.peak_throughput(), None);
        assert_eq!(c.final_throughput(), None);
        assert_eq!(c.throughput_at_latency(100.0), None);
    }
}
