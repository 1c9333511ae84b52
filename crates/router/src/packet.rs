//! Packets and the seven 21364 coherence packet classes (§2.1).
//!
//! The network carries seven classes of coherence packets. Flit counts are
//! taken directly from the paper: requests and forwards are 3 flits, block
//! responses 18–19, non-block responses 2–3, write I/O 19, read I/O 3 and
//! specials 1. Each 39-bit flit moves in one clock of whichever port it
//! crosses, so "when an input or an output port is scheduled to deliver a
//! packet, the port can be busy for two, three, 18, or 19 cycles".

use simcore::Tick;
use std::fmt;

/// The seven coherence packet classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum CoherenceClass {
    /// Cache-miss request (3 flits).
    Request = 0,
    /// Directory forward to a remote owner (3 flits).
    Forward = 1,
    /// Data-bearing block response (19 flits with a 64-byte cache block;
    /// 18 when headerless — we model the 19-flit common case).
    BlockResponse = 2,
    /// Non-data response such as an ack (3 flits; can be 2).
    NonBlockResponse = 3,
    /// Write I/O (19 flits).
    WriteIo = 4,
    /// Read I/O (3 flits).
    ReadIo = 5,
    /// Special packets, e.g. no-ops (1 flit).
    Special = 6,
}

impl CoherenceClass {
    /// All classes, in virtual-channel-group order.
    pub const ALL: [CoherenceClass; 7] = [
        CoherenceClass::Request,
        CoherenceClass::Forward,
        CoherenceClass::BlockResponse,
        CoherenceClass::NonBlockResponse,
        CoherenceClass::WriteIo,
        CoherenceClass::ReadIo,
        CoherenceClass::Special,
    ];

    /// Class index in `0..7`.
    #[inline]
    pub(crate) const fn index(self) -> usize {
        self as usize
    }

    /// Default flit count for this class (the paper's common cases).
    pub(crate) const fn flits(self) -> u8 {
        match self {
            CoherenceClass::Request => 3,
            CoherenceClass::Forward => 3,
            CoherenceClass::BlockResponse => 19,
            CoherenceClass::NonBlockResponse => 3,
            CoherenceClass::WriteIo => 19,
            CoherenceClass::ReadIo => 3,
            CoherenceClass::Special => 1,
        }
    }

    /// Whether packets of this class may use the adaptive virtual channel.
    ///
    /// "Read and Write I/O packets only route in the deadlock-free
    /// channels to adhere to the Alpha 21364's I/O ordering rules" (§2.1
    /// footnote 2). The special class owns a single dedicated VC and is
    /// likewise routed dimension-order only.
    pub const fn may_route_adaptively(self) -> bool {
        !matches!(
            self,
            CoherenceClass::WriteIo | CoherenceClass::ReadIo | CoherenceClass::Special
        )
    }
}

impl fmt::Display for CoherenceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CoherenceClass::Request => "req",
            CoherenceClass::Forward => "fwd",
            CoherenceClass::BlockResponse => "blkrsp",
            CoherenceClass::NonBlockResponse => "rsp",
            CoherenceClass::WriteIo => "wio",
            CoherenceClass::ReadIo => "rio",
            CoherenceClass::Special => "spc",
        };
        f.write_str(s)
    }
}

/// Globally unique packet identifier (assigned by the traffic source).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// A network packet in flight.
///
/// The router treats `txn` as opaque; the workload layer uses it to map a
/// delivered packet back to its coherence transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Coherence class (fixes the flit count and virtual-channel group).
    pub class: CoherenceClass,
    /// Packet length in flits.
    pub(crate) len_flits: u8,
    /// Source node (flat index in the network).
    pub src: u16,
    /// Destination node.
    pub dest: u16,
    /// Time the packet was created by its traffic source.
    pub birth: Tick,
    /// Time the packet entered its source router (set at injection).
    /// `delivery − injected` is the paper's "latency of a packet through
    /// the network" (§4.3); `delivery − birth` additionally includes
    /// source queueing.
    pub injected: Tick,
    /// Router hops taken so far.
    pub hops: u8,
    /// Opaque transaction tag for the workload layer.
    pub txn: u64,
}

impl Packet {
    /// Creates a packet with the class's default flit count.
    pub fn new(
        id: PacketId,
        class: CoherenceClass,
        src: u16,
        dest: u16,
        birth: Tick,
        txn: u64,
    ) -> Self {
        Packet {
            id,
            class,
            len_flits: class.flits(),
            src,
            dest,
            birth,
            injected: birth,
            hops: 0,
            txn,
        }
    }

    /// Packet length in flits (always at least 1, so there is no
    /// `is_empty` counterpart).
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u32 {
        self.len_flits as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_flit_counts() {
        assert_eq!(CoherenceClass::Request.flits(), 3);
        assert_eq!(CoherenceClass::Forward.flits(), 3);
        assert_eq!(CoherenceClass::BlockResponse.flits(), 19);
        assert_eq!(CoherenceClass::WriteIo.flits(), 19);
        assert_eq!(CoherenceClass::ReadIo.flits(), 3);
        assert_eq!(CoherenceClass::Special.flits(), 1);
    }

    #[test]
    fn io_classes_are_escape_only() {
        assert!(!CoherenceClass::WriteIo.may_route_adaptively());
        assert!(!CoherenceClass::ReadIo.may_route_adaptively());
        assert!(!CoherenceClass::Special.may_route_adaptively());
        assert!(CoherenceClass::Request.may_route_adaptively());
        assert!(CoherenceClass::BlockResponse.may_route_adaptively());
    }

    #[test]
    fn class_indices_are_dense() {
        for (i, c) in CoherenceClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn packet_construction() {
        let p = Packet::new(
            PacketId(7),
            CoherenceClass::BlockResponse,
            3,
            12,
            Tick::new(100),
            42,
        );
        assert_eq!(p.len(), 19);
        assert_eq!(p.hops, 0);
        assert_eq!(p.txn, 42);
        assert_eq!(p.id.to_string(), "pkt#7");
        assert_eq!(p.class.to_string(), "blkrsp");
    }
}
