//! Virtual channels and the 316-packet buffer partition (§2.1).
//!
//! The 21364 assigns each coherence class a virtual-channel *group*; each
//! group (except the special class) holds three channels — one adaptive
//! and two deadlock-free dimension-order channels (VC0/VC1) — for a total
//! of 19 VCs. "For performance reasons, the adaptive channels have the
//! bulk of the packet buffers, whereas the VC0 and VC1 typically have one
//! or two buffers"; the whole input port provides space for 316 packets.

use crate::packet::CoherenceClass;
use crate::route::EscapeVc;
use std::fmt;

/// Number of virtual channels per input port (6 classes × 3 + special).
pub const NUM_VCS: usize = 19;

/// A virtual-channel identifier in `0..19`.
///
/// Layout: class `c` in `0..6` owns VCs `3c` (adaptive), `3c+1` (VC0) and
/// `3c+2` (VC1); the special class uses VC 18.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcId(u8);

/// The role a VC plays within its class group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum VcKind {
    /// Minimal-rectangle adaptive channel.
    Adaptive,
    /// Deadlock-free dimension-order channel, pre-dateline.
    Escape0,
    /// Deadlock-free dimension-order channel, post-dateline.
    Escape1,
    /// The single special-class channel.
    Special,
}

impl VcId {
    /// The adaptive VC of a class.
    ///
    /// # Panics
    ///
    /// Panics for [`CoherenceClass::Special`], which has no adaptive VC.
    pub fn adaptive(class: CoherenceClass) -> Self {
        assert!(
            class != CoherenceClass::Special,
            "the special class has a single non-adaptive VC"
        );
        VcId(3 * class.index() as u8)
    }

    /// The escape VC of a class for a given dateline state.
    ///
    /// # Panics
    ///
    /// Panics for [`CoherenceClass::Special`].
    pub fn escape(class: CoherenceClass, which: EscapeVc) -> Self {
        assert!(
            class != CoherenceClass::Special,
            "the special class has a single non-escape VC"
        );
        let off = match which {
            EscapeVc::Vc0 => 1,
            EscapeVc::Vc1 => 2,
        };
        VcId(3 * class.index() as u8 + off)
    }

    /// The special-class VC.
    pub const fn special() -> Self {
        VcId(18)
    }

    /// Constructs from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 19`.
    pub fn from_index(i: usize) -> Self {
        assert!(i < NUM_VCS, "vc index {i} out of range");
        VcId(i as u8)
    }

    /// Raw index in `0..19`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The coherence class this VC carries.
    pub fn class(self) -> CoherenceClass {
        if self.0 == 18 {
            CoherenceClass::Special
        } else {
            CoherenceClass::ALL[(self.0 / 3) as usize]
        }
    }

    /// The role of this VC within its group.
    pub(crate) fn kind(self) -> VcKind {
        if self.0 == 18 {
            VcKind::Special
        } else {
            match self.0 % 3 {
                0 => VcKind::Adaptive,
                1 => VcKind::Escape0,
                _ => VcKind::Escape1,
            }
        }
    }

    /// True for adaptive VCs.
    #[inline]
    pub fn is_adaptive(self) -> bool {
        self.0 != 18 && self.0.is_multiple_of(3)
    }

    /// All VC ids.
    pub(crate) fn all() -> impl Iterator<Item = VcId> {
        (0..NUM_VCS).map(VcId::from_index)
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            VcKind::Adaptive => write!(f, "{}.adp", self.class()),
            VcKind::Escape0 => write!(f, "{}.vc0", self.class()),
            VcKind::Escape1 => write!(f, "{}.vc1", self.class()),
            VcKind::Special => write!(f, "spc"),
        }
    }
}

/// Per-input-port packet-buffer capacities, per VC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BufferConfig {
    caps: [u16; NUM_VCS],
}

impl BufferConfig {
    /// The 21364 partition: 50 packets per adaptive channel, 1 per escape
    /// channel, 4 for the special class — 6×(50+1+1)+4 = 316 packets per
    /// input port, matching §2.1.
    pub fn alpha_21364() -> Self {
        let mut caps = [0u16; NUM_VCS];
        for class in CoherenceClass::ALL {
            if class == CoherenceClass::Special {
                caps[VcId::special().index()] = 4;
            } else {
                caps[VcId::adaptive(class).index()] = 50;
                caps[VcId::escape(class, EscapeVc::Vc0).index()] = 1;
                caps[VcId::escape(class, EscapeVc::Vc1).index()] = 1;
            }
        }
        BufferConfig { caps }
    }

    /// A uniform partition (testing / sensitivity studies).
    pub fn uniform(per_vc: u16) -> Self {
        BufferConfig {
            caps: [per_vc; NUM_VCS],
        }
    }

    /// A scaled variant of the 21364 partition with `adaptive` packets per
    /// adaptive VC and `escape` per escape VC (buffer-depth ablations).
    pub fn scaled(adaptive: u16, escape: u16) -> Self {
        let mut caps = [0u16; NUM_VCS];
        for class in CoherenceClass::ALL {
            if class == CoherenceClass::Special {
                caps[VcId::special().index()] = escape.max(1) * 4;
            } else {
                caps[VcId::adaptive(class).index()] = adaptive;
                caps[VcId::escape(class, EscapeVc::Vc0).index()] = escape;
                caps[VcId::escape(class, EscapeVc::Vc1).index()] = escape;
            }
        }
        BufferConfig { caps }
    }

    /// Capacity of one VC, in packets.
    #[inline]
    pub(crate) fn capacity(&self, vc: VcId) -> usize {
        self.caps[vc.index()] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total packets one input port can buffer.
    fn total(cfg: &BufferConfig) -> usize {
        cfg.caps.iter().map(|&c| c as usize).sum()
    }

    #[test]
    fn alpha_partition_totals_316() {
        // §2.1: "buffer space for 316 packets per input port".
        assert_eq!(total(&BufferConfig::alpha_21364()), 316);
    }

    #[test]
    fn nineteen_vcs() {
        // §2.1: "in the 21364 there is a total of 19 virtual channels".
        assert_eq!(VcId::all().count(), 19);
        assert_eq!(NUM_VCS, 19);
    }

    #[test]
    fn vc_round_trips() {
        for class in CoherenceClass::ALL {
            if class == CoherenceClass::Special {
                continue;
            }
            let a = VcId::adaptive(class);
            assert_eq!(a.class(), class);
            assert_eq!(a.kind(), VcKind::Adaptive);
            assert!(a.is_adaptive());
            for which in [EscapeVc::Vc0, EscapeVc::Vc1] {
                let e = VcId::escape(class, which);
                assert_eq!(e.class(), class);
                assert!(!e.is_adaptive());
            }
        }
        assert_eq!(VcId::special().class(), CoherenceClass::Special);
        assert_eq!(VcId::special().kind(), VcKind::Special);
    }

    #[test]
    fn escape_kinds_distinguish_datelines() {
        let c = CoherenceClass::Request;
        assert_eq!(VcId::escape(c, EscapeVc::Vc0).kind(), VcKind::Escape0);
        assert_eq!(VcId::escape(c, EscapeVc::Vc1).kind(), VcKind::Escape1);
    }

    #[test]
    fn capacities() {
        let cfg = BufferConfig::alpha_21364();
        assert_eq!(cfg.capacity(VcId::adaptive(CoherenceClass::Request)), 50);
        assert_eq!(
            cfg.capacity(VcId::escape(CoherenceClass::Request, EscapeVc::Vc0)),
            1
        );
        assert_eq!(cfg.capacity(VcId::special()), 4);
        let uni = BufferConfig::uniform(3);
        assert_eq!(total(&uni), 3 * 19);
    }

    #[test]
    #[should_panic(expected = "special class")]
    fn special_has_no_adaptive() {
        let _ = VcId::adaptive(CoherenceClass::Special);
    }

    #[test]
    fn display_names() {
        assert_eq!(
            VcId::adaptive(CoherenceClass::Request).to_string(),
            "req.adp"
        );
        assert_eq!(VcId::special().to_string(), "spc");
    }
}
