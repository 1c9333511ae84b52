//! Output-port selection, including the Rotary Rule (§3.4).
//!
//! When several input arbiters nominate packets to the same output port,
//! the output arbiter must pick one. The paper lists the design space —
//! random, round-robin, least-recently selected, priority chains, or the
//! Rotary Rule — and uses:
//!
//! * **random** inside PIM's grant/accept steps (§3.1; [`crate::pim`]),
//! * **least-recently selected (LRS)** for SPAA-base (§3.3 step 2),
//! * **Rotary Rule, then LRS** for SPAA-rotary: "output port arbiters
//!   select packets nominated by the input port arbiters for the network
//!   ports before they select packets from the local ports. Within the
//!   network ports, we use least-recently used selection" (§3.4).
//!
//! A [`Selector`] holds one SPAA output port's LRS state and picks one
//! row from a requester mask.

/// The first set bit of `pool` at or after `ptr`, wrapping — the shared
/// round-robin primitive behind the iSLIP grant/accept pointers
/// ([`crate::islip`]) and the weighted kernel's tie-breaks
/// ([`crate::lqf`]).
///
/// Branch-free rotate-and-`trailing_zeros` kernel: rotating the pool right
/// by `ptr` renames bit `ptr` to bit 0, so the priority-encode is a single
/// count-trailing-zeros, and the rename is undone by adding `ptr` back
/// modulo the mask width. This is the mask-based formulation of a
/// programmable-priority round-robin arbiter (the same rotate/encode/
/// counter-rotate structure hardware designs use); the exhaustive
/// `matches_linear_scan_reference` test pins it bit-exact against the
/// naive linear scan over every 8-bit pool × every pointer position.
///
/// # Panics
///
/// Panics (in debug builds) if `pool == 0`.
#[inline]
pub(crate) fn round_robin_first(pool: u32, ptr: u32) -> usize {
    debug_assert!(pool != 0, "round-robin pick from an empty pool");
    let ptr = ptr & 31;
    let rotated = pool.rotate_right(ptr);
    ((rotated.trailing_zeros() + ptr) & 31) as usize
}

/// Whether the Rotary Rule pre-filter is applied before the LRS pick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RotaryMode {
    /// No prioritization: all requesters compete directly.
    Off,
    /// Requesters on network (torus) input rows are served before local
    /// rows; ties within the preferred class fall through to the LRS
    /// pick. This is the §3.4 prioritization that keeps a saturated
    /// network draining ("vehicles in the rotary exit before vehicles may
    /// enter").
    On,
}

/// One output arbiter's selection state: least-recently-selected,
/// optionally behind the Rotary Rule.
///
/// # Example
///
/// ```
/// use arbitration::policy::{RotaryMode, Selector};
/// use arbitration::ports::NETWORK_ROW_MASK;
///
/// let mut sel = Selector::new(RotaryMode::On, NETWORK_ROW_MASK, 16);
/// // Rows 8 (cache) and 3 (torus) both request: the rotary rule picks 3.
/// assert_eq!(sel.select(1 << 8 | 1 << 3), 3);
/// ```
#[derive(Clone, Debug)]
pub struct Selector {
    rotary: RotaryMode,
    network_rows: u32,
    rows: usize,
    /// LRS recency stamps: larger = selected more recently.
    stamps: Vec<u64>,
    clock: u64,
}

impl Selector {
    /// Creates a selector for an output arbiter over `rows` requester rows.
    ///
    /// `network_rows` is the mask of rows fed by torus input ports (used
    /// only when `rotary` is [`RotaryMode::On`]).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is 0 or exceeds 32.
    pub fn new(rotary: RotaryMode, network_rows: u32, rows: usize) -> Self {
        assert!(rows > 0 && rows <= 32, "rows out of range: {rows}");
        Selector {
            rotary,
            network_rows,
            rows,
            stamps: vec![0; rows],
            clock: 0,
        }
    }

    /// Picks the least-recently-selected requester row from a nonzero
    /// mask (network rows first under the Rotary Rule) and stamps it.
    ///
    /// # Panics
    ///
    /// Panics if `requesters == 0` or contains bits at or above `rows`.
    pub fn select(&mut self, requesters: u32) -> usize {
        assert!(requesters != 0, "select with no requesters");
        assert!(
            self.rows == 32 || requesters < (1u32 << self.rows),
            "requester mask out of range"
        );
        let pool = match self.rotary {
            RotaryMode::On => {
                let net = requesters & self.network_rows;
                if net != 0 {
                    net
                } else {
                    requesters
                }
            }
            RotaryMode::Off => requesters,
        };
        // A lone requester is the least recent of its one-bit pool: no
        // stamp needs reading.
        let row = if pool & (pool - 1) == 0 {
            pool.trailing_zeros() as usize
        } else {
            self.least_recent(pool)
        };
        self.clock += 1;
        self.stamps[row] = self.clock;
        row
    }

    fn least_recent(&self, pool: u32) -> usize {
        let mut best = usize::MAX;
        let mut best_stamp = u64::MAX;
        let mut m = pool;
        while m != 0 {
            let row = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.stamps[row] < best_stamp {
                best_stamp = self.stamps[row];
                best = row;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::NETWORK_ROW_MASK;

    fn lrs(rotary: RotaryMode) -> Selector {
        Selector::new(rotary, NETWORK_ROW_MASK, 16)
    }

    #[test]
    fn lrs_cycles_through_contenders() {
        let mut s = lrs(RotaryMode::Off);
        let contenders = 0b1011u32; // rows 0,1,3
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.push(s.select(contenders));
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![0, 1, 3],
            "each contender served once before repeats"
        );
        // Fourth pick starts the cycle again.
        let fourth = s.select(contenders);
        assert!(contenders & (1 << fourth) != 0);
    }

    #[test]
    fn lrs_prefers_never_selected() {
        let mut s = lrs(RotaryMode::Off);
        assert_eq!(s.select(0b0001), 0);
        assert_eq!(s.select(0b0011), 1, "row 1 never selected yet");
        assert_eq!(s.select(0b0011), 0, "row 0 now older");
    }

    #[test]
    fn rotary_prefers_network_rows() {
        let mut s = lrs(RotaryMode::On);
        // Cache row 8 and torus row 5 compete: torus wins regardless of LRS.
        for _ in 0..5 {
            assert_eq!(s.select((1 << 8) | (1 << 5)), 5);
        }
        // With only local rows requesting, they are served normally.
        assert_eq!(s.select(1 << 8), 8);
    }

    #[test]
    fn rotary_uses_lrs_within_network_class() {
        let mut s = lrs(RotaryMode::On);
        let pool = (1 << 2) | (1 << 6); // two torus rows
        let first = s.select(pool);
        let second = s.select(pool);
        assert_ne!(first, second, "LRS alternates within the network class");
    }

    #[test]
    #[should_panic(expected = "no requesters")]
    fn empty_pool_panics() {
        let mut s = lrs(RotaryMode::Off);
        let _ = s.select(0);
    }

    #[test]
    fn round_robin_first_wraps_and_masks_pointer() {
        assert_eq!(round_robin_first(0b0100_0001, 0), 0);
        assert_eq!(round_robin_first(0b0100_0001, 1), 6);
        assert_eq!(round_robin_first(0b0100_0001, 7), 0, "wraps past the top");
        // Pointers beyond 31 behave modulo the mask width.
        assert_eq!(round_robin_first(0b0100_0001, 33), 6);
    }

    /// The reference implementation the mask kernel replaced: walk the
    /// positions one by one starting at `ptr`, wrapping, and return the
    /// first set bit.
    fn linear_scan_reference(pool: u32, ptr: u32) -> usize {
        assert!(pool != 0);
        let mut pos = (ptr % 32) as usize;
        loop {
            if pool & (1 << pos) != 0 {
                return pos;
            }
            pos = (pos + 1) % 32;
        }
    }

    #[test]
    fn matches_linear_scan_reference() {
        // Exhaustive over every non-empty 8-bit pool at every bit offset
        // within the 32-bit word, for every pointer position including the
        // wrapped range above 31 — the bit-exact pin for the rotate-and-
        // trailing_zeros kernel.
        for bits in 1u32..=255 {
            for shift in [0u32, 7, 13, 24] {
                let pool = bits.rotate_left(shift);
                for ptr in 0..64u32 {
                    assert_eq!(
                        round_robin_first(pool, ptr),
                        linear_scan_reference(pool, ptr),
                        "pool={pool:#034b} ptr={ptr}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_requester_fast_path() {
        assert_eq!(lrs(RotaryMode::Off).select(1 << 11), 11);
    }

    #[test]
    fn lone_requester_matches_the_plain_least_recent_pick() {
        // Seeded masks, half of them one bit wide (a lone requester, or a
        // lone network row under the Rotary Rule): every pick and the
        // whole stamp vector must equal the plain statement — the
        // smallest stamp of the pool, lowest row on ties — after every
        // call.
        let mut rng = simcore::SimRng::from_seed(44);
        for rotary in [RotaryMode::Off, RotaryMode::On] {
            let mut s = lrs(rotary);
            let (mut stamps, mut clock) = (vec![0u64; 16], 0u64);
            let mut lone = 0;
            for call in 0..20_000 {
                let mask = if rng.chance(0.5) {
                    1 << rng.below(16)
                } else {
                    (rng.next_u32() & 0xFFFF).max(1)
                };
                let net = mask & NETWORK_ROW_MASK;
                let pool = if rotary == RotaryMode::On && net != 0 {
                    net
                } else {
                    mask
                };
                lone += usize::from(pool.count_ones() == 1);
                let want = (0..16)
                    .filter(|&row| pool & (1 << row) != 0)
                    .min_by_key(|&row| stamps[row])
                    .unwrap();
                clock += 1;
                stamps[want] = clock;
                assert_eq!(
                    s.select(mask),
                    want,
                    "{rotary:?} call {call} mask {mask:#x}"
                );
                assert_eq!(s.stamps, stamps, "{rotary:?} call {call}: stamps");
            }
            assert!(lone > 5_000, "{rotary:?}: {lone} lone requesters");
        }
    }
}
