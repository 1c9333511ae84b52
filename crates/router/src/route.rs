//! Per-hop routing state handed to the router by the network layer.
//!
//! On the 21364's torus, packets route adaptively within the *minimum
//! rectangle* (§2.1) — at most two candidate productive directions —
//! and blocked packets fall back to the deadlock-free channels VC0/VC1,
//! which follow strict dimension-order routing with a dateline VC
//! switch: the Duato-style escape construction that makes the adaptive
//! network deadlock-free. Packets may return from the escape channels to
//! the adaptive channel at a later router (virtual cut-through permits
//! this).
//!
//! The router crate is topology-agnostic: it receives this pre-computed
//! [`RouteInfo`] with each arriving packet from the `network` crate's
//! routing functions (`network::routing`), one per topology.
//! The adaptive mask may name *any* subset of the four network ports —
//! the torus scheme never sets more than two bits, but the full-mesh
//! scheme's misroute candidates can fill all four — and the escape
//! channel discipline is likewise the routing function's to choose (the
//! torus switches VC0→VC1 at the dateline; the mesh and full-mesh
//! schemes each ride a single escape VC).

use arbitration::ports::OutputPort;

/// Which deadlock-free channel an escape hop must use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EscapeVc {
    /// Before crossing the dimension's dateline.
    Vc0,
    /// After crossing the dimension's dateline.
    Vc1,
}

/// Routing information for one packet at one router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteInfo {
    /// The packet terminates here; it may be delivered through any output
    /// port in `outputs` (for coherence traffic the two local sink ports
    /// L0/L1; for I/O traffic the I/O port).
    Local {
        /// Mask of acceptable delivery output ports.
        outputs: u8,
    },
    /// The packet continues through the network.
    Transit {
        /// Mask of productive adaptive candidates among the four network
        /// output ports — the minimal rectangle on the grids (≤ 2 bits),
        /// direct-plus-misroute links on the full mesh (up to 4 bits).
        adaptive: u8,
        /// The deadlock-free escape output port.
        escape: OutputPort,
        /// The escape channel the scheme prescribes for that hop.
        escape_vc: EscapeVc,
    },
}

impl RouteInfo {
    /// Builds a local-delivery route.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is empty or names a torus output.
    pub fn local(outputs: u8) -> Self {
        assert!(outputs != 0, "local route needs at least one sink port");
        assert!(
            u32::from(outputs) & OutputPort::NETWORK_MASK == 0,
            "local delivery cannot use network ports"
        );
        RouteInfo::Local { outputs }
    }

    /// Builds a transit route.
    ///
    /// # Panics
    ///
    /// Panics if `adaptive` has any non-network bit or if `escape` is
    /// not a network port. An empty adaptive mask is legal (I/O-class
    /// packets route exclusively on the escape channels); so is a full
    /// four-bit mask (full-mesh misrouting).
    pub fn transit(adaptive: u8, escape: OutputPort, escape_vc: EscapeVc) -> Self {
        assert!(
            u32::from(adaptive) & !OutputPort::NETWORK_MASK == 0,
            "adaptive candidates must be network ports"
        );
        assert!(escape.is_network(), "escape must be a network port");
        RouteInfo::Transit {
            adaptive,
            escape,
            escape_vc,
        }
    }

    /// True when the packet is at its destination router.
    pub fn is_local(&self) -> bool {
        matches!(self, RouteInfo::Local { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_route() {
        let r = RouteInfo::local((OutputPort::L0.mask() | OutputPort::L1.mask()) as u8);
        assert!(r.is_local());
        assert_eq!(
            r,
            RouteInfo::Local {
                outputs: 0b0011_0000
            }
        );
    }

    #[test]
    fn transit_route() {
        let r = RouteInfo::transit(
            (OutputPort::North.mask() | OutputPort::East.mask()) as u8,
            OutputPort::East,
            EscapeVc::Vc0,
        );
        assert!(!r.is_local());
        assert_eq!(
            r,
            RouteInfo::Transit {
                adaptive: 0b0101,
                escape: OutputPort::East,
                escape_vc: EscapeVc::Vc0,
            }
        );
    }

    #[test]
    fn escape_only_transit_is_legal() {
        // I/O packets: no adaptive candidates at all.
        let r = RouteInfo::transit(0, OutputPort::West, EscapeVc::Vc1);
        assert!(matches!(r, RouteInfo::Transit { adaptive: 0, .. }));
    }

    #[test]
    fn wide_adaptive_masks_are_legal() {
        // Full-mesh misrouting can nominate every network port at once.
        let r = RouteInfo::transit(0b1111, OutputPort::North, EscapeVc::Vc0);
        assert!(matches!(
            r,
            RouteInfo::Transit {
                adaptive: 0b1111,
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "network ports")]
    fn local_sink_in_adaptive_rejected() {
        let _ = RouteInfo::transit(0b1_0000, OutputPort::North, EscapeVc::Vc0);
    }

    #[test]
    #[should_panic(expected = "local delivery cannot use network ports")]
    fn torus_bit_in_local_rejected() {
        let _ = RouteInfo::local(0b0000_0001);
    }

    #[test]
    #[should_panic(expected = "at least one sink")]
    fn empty_local_rejected() {
        let _ = RouteInfo::local(0);
    }
}
