//! Deterministic random-number streams.
//!
//! Every stochastic element of the models (traffic generation, PIM's random
//! grant/accept selections, occupancy masks) draws from a [`SimRng`]. A
//! simulation is a pure function of its configuration and one `u64` seed;
//! independent components *fork* their own streams so that adding a
//! component never perturbs the draws seen by another (a classic
//! reproducibility pitfall in network simulators).
//!
//! The generator is a self-contained PCG-64 MCG (the `mcg_xsl_rr_128_64`
//! member of the PCG family): a 128-bit multiplicative congruential state
//! with an xorshift-low/random-rotate output function. It is implemented
//! here directly so the workspace carries no external dependencies.

/// The PCG-64 MCG multiplier (O'Neill, "PCG: A Family of Simple Fast
/// Space-Efficient Statistically Good Algorithms for Random Number
/// Generation").
const PCG_MULTIPLIER: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

/// A deterministic PCG-64 stream with cheap, collision-resistant forking.
///
/// # Example
///
/// ```
/// use simcore::rng::SimRng;
///
/// let mut a = SimRng::from_seed(42);
/// let mut b = SimRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Forks with distinct labels are independent but reproducible.
/// let mut r1 = SimRng::from_seed(7).fork(1);
/// let mut r2 = SimRng::from_seed(7).fork(2);
/// assert_ne!(r1.next_u64(), r2.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    seed: u64,
    state: u128,
}

/// SplitMix64 finalizer; used to expand seeds and mix fork labels.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a stream from a bare `u64` seed.
    pub fn from_seed(seed: u64) -> Self {
        let lo = splitmix64(seed) as u128;
        let hi = splitmix64(seed ^ 0xdead_beef_cafe_f00d) as u128;
        SimRng {
            seed,
            // An MCG state must be odd for full period; setting the low
            // bits mirrors the reference implementation.
            state: (lo | (hi << 64)) | 3,
        }
    }

    /// Derives an independent child stream labelled by `stream`.
    ///
    /// Forking is a function of the *original seed* and the label only, so
    /// the order in which forks are taken (and any draws taken in between)
    /// does not change what a fork produces.
    pub fn fork(&self, stream: u64) -> SimRng {
        SimRng::from_seed(splitmix64(self.seed ^ splitmix64(stream.wrapping_add(1))))
    }

    /// The next 64 random bits: advance the MCG, then apply the XSL-RR
    /// output function to the new state.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(PCG_MULTIPLIER);
        let rot = (self.state >> 122) as u32;
        let xsl = ((self.state >> 64) as u64) ^ (self.state as u64);
        xsl.rotate_right(rot)
    }

    /// The next 32 random bits (the low half of one 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    /// A uniformly random boolean that is `true` with probability `p`.
    ///
    /// Out-of-range probabilities are clamped to `[0, 1]`: `p <= 0`
    /// never fires and `p >= 1` always fires — so a sweep config whose
    /// computed probability lands exactly on 1.0 (or drifts past it
    /// through floating-point accumulation) fires on every draw instead
    /// of silently under-firing by one ULP. Either clamped extreme still
    /// consumes no random number, keeping streams reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN — a NaN probability is always an upstream
    /// arithmetic bug (e.g. `0.0 / 0.0` in a rate computation), and every
    /// comparison-based clamp would silently map it to "never fire".
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!(!p.is_nan(), "chance(NaN): probability must be a number");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        self.bounded(n as u64) as usize
    }

    /// Unbiased uniform draw in `[0, n)` via Lemire's widening-multiply
    /// rejection method.
    #[inline]
    fn bounded(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut m = (self.next_u64() as u128).wrapping_mul(n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = (self.next_u64() as u128).wrapping_mul(n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Picks a uniformly random set bit index of a nonzero 32-bit mask.
    ///
    /// This is the hot operation in PIM's random grant/accept steps.
    ///
    /// # Panics
    ///
    /// Panics if `mask == 0`.
    #[inline]
    pub fn pick_bit(&mut self, mask: u32) -> u32 {
        let n = mask.count_ones();
        assert!(n > 0, "pick_bit on empty mask");
        let mut k = self.bounded(n as u64) as u32;
        let mut m = mask;
        loop {
            let bit = m.trailing_zeros();
            if k == 0 {
                return bit;
            }
            k -= 1;
            m &= m - 1;
        }
    }

    /// A uniform `f64` in `[0, 1)` (53 random mantissa bits).
    #[inline]
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(123);
        let mut b = SimRng::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_order_independent() {
        let root = SimRng::from_seed(99);
        let mut f1 = root.fork(5);
        // Interleave other activity; fork(5) must be unaffected.
        let mut root2 = SimRng::from_seed(99);
        let _ = root2.next_u64();
        let _ = root2.fork(7).next_u64();
        let mut f2 = root2.fork(5);
        for _ in 0..32 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(2.0));
        assert!(r.chance(f64::INFINITY));
        assert!(!r.chance(f64::NEG_INFINITY));
        assert!(!r.chance(-f64::MIN_POSITIVE), "negative subnormal clamps");
    }

    #[test]
    fn chance_of_exactly_one_always_fires() {
        // A computed probability landing exactly on 1.0 must not
        // under-fire: unit() returns values in [0, 1) so `unit() < 1.0`
        // would *usually* pass, but the clamp guarantees it always does.
        let mut r = SimRng::from_seed(42);
        for _ in 0..10_000 {
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn chance_extremes_draw_nothing() {
        // Clamped extremes must not consume random numbers, or adding a
        // certainty branch to a model would perturb every later draw.
        let mut a = SimRng::from_seed(9);
        let mut b = SimRng::from_seed(9);
        let _ = a.chance(0.0);
        let _ = a.chance(1.0);
        let _ = a.chance(-1.0);
        let _ = a.chance(7.5);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "chance(NaN)")]
    fn chance_nan_panics() {
        let _ = SimRng::from_seed(0).chance(f64::NAN);
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::from_seed(17);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..=3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn pick_bit_only_returns_set_bits() {
        let mut r = SimRng::from_seed(3);
        let mask = 0b1010_0110u32;
        for _ in 0..200 {
            let b = r.pick_bit(mask);
            assert!(mask & (1 << b) != 0);
        }
    }

    #[test]
    fn pick_bit_is_roughly_uniform() {
        let mut r = SimRng::from_seed(4);
        let mask = 0b111u32;
        let mut counts = [0usize; 3];
        for _ in 0..9_000 {
            counts[r.pick_bit(mask) as usize] += 1;
        }
        for c in counts {
            assert!((2_600..=3_400).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn below_bounds() {
        let mut r = SimRng::from_seed(5);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn unit_is_in_half_open_range() {
        let mut r = SimRng::from_seed(6);
        for _ in 0..10_000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "pick_bit on empty mask")]
    fn pick_bit_empty_panics() {
        SimRng::from_seed(0).pick_bit(0);
    }
}
