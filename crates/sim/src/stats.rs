//! Online statistics: running moments, histograms and event counters.
//!
//! The timing model runs for tens of thousands of cycles per configuration
//! point (§4.3 runs 75,000 cycles), so all statistics are single-pass and
//! constant-memory.

use std::fmt;

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use simcore::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.max(), Some(6.0));
/// ```
#[derive(Clone, Debug)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample variance (Bessel-corrected, `n - 1` denominator; 0 with
    /// fewer than 2 samples). This is the estimator the replicated-sweep
    /// confidence intervals use: each replicate is one independent draw
    /// of the simulated metric, and the population parameters are
    /// unknown.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation (square root of [`sample_variance`]).
    ///
    /// [`sample_variance`]: OnlineStats::sample_variance
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Half-width of the two-sided confidence interval on the mean at
    /// `confidence` (e.g. `0.95`), under the **normal approximation**:
    ///
    /// ```text
    /// half_width = z · s / √n
    /// ```
    ///
    /// where `s` is the sample standard deviation and `z` the standard
    /// normal quantile at `(1 + confidence) / 2` (≈1.96 for 95%). The
    /// replicated sweeps this serves run ≥5 independent seeds per point;
    /// with such small `n` the normal approximation understates the
    /// interval versus Student's t (by ~29% at n=5: z = 1.960 against
    /// t₀.₉₇₅,₄ = 2.776), which is
    /// acceptable for error bars whose job is to separate algorithm
    /// curves from RNG noise — and it keeps the formula dependency-free
    /// and exactly reproducible. The interval is then
    /// `mean() ± half_width`.
    ///
    /// Returns 0 with fewer than 2 samples (no spread is estimable).
    ///
    /// # Panics
    ///
    /// Panics unless `confidence` lies in the open interval `(0, 1)`.
    pub(crate) fn confidence_interval(&self, confidence: f64) -> f64 {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence level must be in (0, 1), got {confidence}"
        );
        if self.count < 2 {
            return 0.0;
        }
        let z = standard_normal_quantile(0.5 + confidence / 2.0);
        z * self.sample_std_dev() / (self.count as f64).sqrt()
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

/// The standard normal quantile function (probit), via Acklam's rational
/// approximation (relative error < 1.15e-9 over the whole domain) — the
/// workspace carries no statistics dependency, so the inverse CDF is
/// implemented here directly.
///
/// # Panics
///
/// Panics unless `p` lies in the open interval `(0, 1)`.
pub(crate) fn standard_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0, 1)");
    // Coefficients from Peter Acklam's algorithm (2003).
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        // Lower tail.
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        // Central region.
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        // Upper tail, by symmetry.
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Fixed-width linear histogram with overflow bin.
///
/// Used for packet-latency distributions; the paper reports means, but the
/// histogram exposes the tails under saturation.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    overflow: u64,
    underflow: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            bins: vec![0; bins],
            overflow: 0,
            underflow: 0,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Total samples recorded, including under/overflow.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.overflow + self.underflow
    }

    /// Samples that fell above the covered range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Lower edge of the covered range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the covered range (samples at or beyond it land in
    /// the overflow bin, never dropped).
    pub fn hi(&self) -> f64 {
        self.lo + self.width * self.bins.len() as f64
    }

    /// Samples that fell below the covered range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Merges another histogram with identical binning into this one.
    ///
    /// Bin counts are integers, so — unlike a merge of [`OnlineStats`],
    /// which would reassociate floating-point sums — this is *exact*: merging
    /// per-shard partials in any order equals recording every sample into
    /// one histogram in any order. The sharded network engine relies on
    /// this to keep its latency histograms bit-identical to the
    /// single-threaded engine's.
    ///
    /// # Panics
    ///
    /// Panics unless `other` covers the same range with the same bin
    /// count.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo.to_bits() == other.lo.to_bits()
                && self.width.to_bits() == other.width.to_bits()
                && self.bins.len() == other.bins.len(),
            "histogram merge requires identical binning"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += *b;
        }
        self.overflow += other.overflow;
        self.underflow += other.underflow;
    }

    /// Approximate quantile `q` in `[0,1]` using bin midpoints.
    ///
    /// Returns `None` when empty. Overflowed samples are treated as lying at
    /// the top edge.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = self.underflow;
        if seen >= target && self.underflow > 0 {
            return Some(self.lo);
        }
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target && c > 0 {
                return Some(self.lo + (i as f64 + 0.5) * self.width);
            }
        }
        Some(self.lo + self.width * self.bins.len() as f64)
    }
}

/// A labelled monotonically increasing event counter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn default_is_new() {
        let bits = |s: &OnlineStats| {
            [
                s.count,
                s.mean.to_bits(),
                s.m2.to_bits(),
                s.min.to_bits(),
                s.max.to_bits(),
            ]
        };
        let (mut built, mut defaulted) = (OnlineStats::new(), OnlineStats::default());
        assert_eq!(bits(&defaulted), bits(&built));
        for x in [3.5, 1.25, 8.0] {
            built.record(x);
            defaulted.record(x);
        }
        assert_eq!(bits(&defaulted), bits(&built));
        assert_eq!(defaulted.min(), Some(1.25));
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn standard_normal_quantile_matches_tables() {
        // Reference values from standard normal tables.
        for (p, z) in [
            (0.975, 1.959964),
            (0.995, 2.575829),
            (0.95, 1.644854),
            (0.5, 0.0),
            (0.025, -1.959964),
            (0.0001, -3.719016),
            (0.9999, 3.719016),
        ] {
            let got = standard_normal_quantile(p);
            assert!((got - z).abs() < 1e-5, "quantile({p}) = {got}, want {z}");
        }
        // Symmetry.
        let a = standard_normal_quantile(0.31);
        let b = standard_normal_quantile(0.69);
        assert!((a + b).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn quantile_rejects_zero() {
        let _ = standard_normal_quantile(0.0);
    }

    #[test]
    fn sample_variance_uses_bessel_correction() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 6.0] {
            s.record(x);
        }
        // Population variance 8/3, sample variance 8/2 = 4.
        assert!((s.variance() - 8.0 / 3.0).abs() < 1e-12);
        assert!((s.sample_variance() - 4.0).abs() < 1e-12);
        assert!((s.sample_std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn confidence_interval_matches_hand_computation() {
        // Five "replicates" with known spread: mean 3, sample sd 1.5811.
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(x);
        }
        let sd = s.sample_std_dev();
        assert!((sd - 2.5f64.sqrt()).abs() < 1e-12);
        let ci = s.confidence_interval(0.95);
        let want = 1.959964 * sd / 5.0f64.sqrt();
        assert!((ci - want).abs() < 1e-5, "ci={ci}, want {want}");
        // Wider confidence level => wider interval.
        assert!(s.confidence_interval(0.99) > ci);
    }

    #[test]
    fn confidence_interval_degenerate_cases() {
        let empty = OnlineStats::new();
        assert_eq!(empty.confidence_interval(0.95), 0.0);
        let mut one = OnlineStats::new();
        one.record(7.0);
        assert_eq!(one.confidence_interval(0.95), 0.0);
        assert_eq!(one.sample_variance(), 0.0);
        // Identical samples: zero-width interval.
        let mut same = OnlineStats::new();
        for _ in 0..5 {
            same.record(3.25);
        }
        assert_eq!(same.confidence_interval(0.95), 0.0);
    }

    #[test]
    #[should_panic(expected = "confidence level must be in (0, 1)")]
    fn confidence_interval_rejects_bad_level() {
        let mut s = OnlineStats::new();
        s.record(1.0);
        s.record(2.0);
        let _ = s.confidence_interval(1.0);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0);
        h.record(0.0);
        h.record(9.999);
        h.record(10.0);
        h.record(55.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn latency_histogram_clamp_overflows_not_drops() {
        // The network layer's transit-latency histogram is clamped at
        // [0, 2000) ns with 200 bins; transit times past the clamp must
        // land in the dedicated overflow bin so every delivered packet
        // stays accounted for (saturated tails routinely exceed 2 µs).
        let mut h = Histogram::new(0.0, 2000.0, 200);
        assert_eq!(h.lo(), 0.0);
        assert_eq!(h.hi(), 2000.0);
        h.record(1999.999); // just inside: top bin
        h.record(2000.0); // exactly at the clamp: overflow, not a bin
        h.record(123_456.7); // far tail: overflow
        assert_eq!(h.bins()[199], 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3, "no sample silently dropped");
        // Overflowed samples keep influencing quantiles as top-edge mass.
        assert_eq!(h.quantile(1.0), Some(2000.0));
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 49.5).abs() <= 1.0, "median={median}");
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), None);
    }

    #[test]
    fn histogram_merge_is_exact() {
        // Split a sample stream across partials in an arbitrary order;
        // the merged histogram must equal the sequentially-built one bin
        // for bin (this is the sharded engine's correctness contract).
        let samples: Vec<f64> = (0..500).map(|i| (i as f64 * 7.3) % 130.0 - 5.0).collect();
        let mut whole = Histogram::new(0.0, 100.0, 10);
        for &x in &samples {
            whole.record(x);
        }
        let mut parts: Vec<Histogram> = (0..3).map(|_| Histogram::new(0.0, 100.0, 10)).collect();
        for (i, &x) in samples.iter().enumerate() {
            parts[(i * 31) % 3].record(x);
        }
        let mut merged = Histogram::new(0.0, 100.0, 10);
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.bins(), whole.bins());
        assert_eq!(merged.overflow(), whole.overflow());
        assert_eq!(merged.underflow(), whole.underflow());
        assert_eq!(merged.count(), whole.count());
    }

    #[test]
    #[should_panic(expected = "identical binning")]
    fn histogram_merge_rejects_mismatched_binning() {
        let mut a = Histogram::new(0.0, 100.0, 10);
        a.merge(&Histogram::new(0.0, 100.0, 20));
    }

    #[test]
    fn counter_ops() {
        let mut c = Counter::default();
        c.bump();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.to_string(), "5");
    }
}
