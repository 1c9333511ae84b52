//! Coherence transactions and their packet-level encoding (§4.2).
//!
//! A transaction is either:
//!
//! * **two-hop** (70%): requester → home (3-flit request), home →
//!   requester (19-flit block response after the 73 ns memory lookup); or
//! * **three-hop** (30%): requester → home (request), home → owner
//!   (3-flit forward after the directory/memory lookup), owner → requester
//!   (block response after the 25-cycle L2 lookup).
//!
//! The routers treat packets as opaque; the participants recover the
//! transaction roles from a [`TxnTag`] packed into `Packet::txn` —
//! [`crate::endpoint::CoherenceEndpoint`] drives both flows end to end,
//! and the requester matches the terminal block response back to its
//! in-flight book by `(requester, seq)` to free the MSHR and report
//! the transaction's issue→drain latency to the engine.

/// Memory response time at the home node (§4.1).
pub(crate) const MEMORY_LATENCY_NS: f64 = 73.0;

/// On-chip L2 lookup time at a remote owner, in core cycles (§4.1).
pub(crate) const L2_LATENCY_CYCLES: u64 = 25;

/// The paper's fraction of transactions that take three coherence hops
/// (§4.2); [`crate::WorkloadConfig::with_three_hop_fraction`] varies it.
pub(crate) const PAPER_THREE_HOP_FRACTION: f64 = 0.3;

/// Transaction metadata packed into the 64-bit `Packet::txn` field.
///
/// Layout: bits 0..16 requester node, 16..32 owner node (three-hop only),
/// bit 32 three-hop flag, bits 33..64 sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TxnTag {
    /// The node whose cache miss started the transaction.
    pub requester: u16,
    /// The remote owner a three-hop transaction forwards to.
    pub owner: u16,
    /// Whether this is a three-hop transaction.
    pub three_hop: bool,
    /// Per-requester sequence number.
    pub seq: u32,
}

impl TxnTag {
    /// Packs into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` does not fit the 31-bit field — a tag that could
    /// not round-trip must never reach the network.
    pub fn pack(self) -> u64 {
        assert!(self.seq < (1 << 31), "TxnTag seq exceeds the 31-bit field");
        (self.requester as u64)
            | ((self.owner as u64) << 16)
            | ((self.three_hop as u64) << 32)
            | ((self.seq as u64) << 33)
    }

    /// Unpacks from a `u64`.
    pub fn unpack(v: u64) -> Self {
        TxnTag {
            requester: (v & 0xffff) as u16,
            owner: ((v >> 16) & 0xffff) as u16,
            three_hop: (v >> 32) & 1 == 1,
            seq: (v >> 33) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trip() {
        let tag = TxnTag {
            requester: 63,
            owner: 17,
            three_hop: true,
            seq: 123_456,
        };
        assert_eq!(TxnTag::unpack(tag.pack()), tag);
        let two = TxnTag {
            requester: 0,
            owner: 0,
            three_hop: false,
            seq: 0,
        };
        assert_eq!(TxnTag::unpack(two.pack()), two);
    }

    #[test]
    fn tag_fields_do_not_alias() {
        let a = TxnTag {
            requester: 0xffff,
            owner: 0,
            three_hop: false,
            seq: 0,
        };
        let u = TxnTag::unpack(a.pack());
        assert_eq!(u.owner, 0);
        assert!(!u.three_hop);
        assert_eq!(u.seq, 0);
    }
}
