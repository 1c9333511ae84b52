//! Canonical port naming for the Alpha 21364 router (§2.1 "Ports").
//!
//! The router has **eight input ports** — four 2D-torus ports (north,
//! south, east, west), one cache port, two memory-controller ports and one
//! I/O port — and **seven output ports** — the four torus ports, two
//! memory-controller/"local" ports (which inside the processor are also
//! tied to the cache, so there is no separate cache output) and one I/O
//! port.
//!
//! Each input port's buffer has **two read ports**, each with its own input
//! arbiter, so the arbitration problem has 16 rows; the row order matches
//! Figure 5 of the paper (`L-N rp0`, `L-N rp1`, `L-S rp0`, …, `L-I/O rp1`).

use std::fmt;

/// Number of router input ports.
pub const NUM_INPUT_PORTS: usize = 8;
/// Number of router output ports.
pub const NUM_OUTPUT_PORTS: usize = 7;
/// Buffer read ports (and hence input arbiters) per input port.
pub(crate) const READ_PORTS_PER_INPUT: usize = 2;
/// Total input arbiter rows in the connection matrix (16 in the 21364).
pub const NUM_ARBITER_ROWS: usize = NUM_INPUT_PORTS * READ_PORTS_PER_INPUT;

/// An input port of the 21364 router.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum InputPort {
    /// Torus link from the north neighbour.
    North = 0,
    /// Torus link from the south neighbour.
    South = 1,
    /// Torus link from the east neighbour.
    East = 2,
    /// Torus link from the west neighbour.
    West = 3,
    /// The processor's cache port (sources cache-miss requests).
    Cache = 4,
    /// Memory controller 0 (sources responses to cache-miss requests).
    Mc0 = 5,
    /// Memory controller 1.
    Mc1 = 6,
    /// The I/O port.
    Io = 7,
}

impl InputPort {
    /// All input ports in Figure 5 row order.
    pub const ALL: [InputPort; NUM_INPUT_PORTS] = [
        InputPort::North,
        InputPort::South,
        InputPort::East,
        InputPort::West,
        InputPort::Cache,
        InputPort::Mc0,
        InputPort::Mc1,
        InputPort::Io,
    ];

    /// Index in `0..8`.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Constructs from an index in `0..8`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    pub fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }

    /// True for the four torus (interprocessor network) input ports.
    ///
    /// The Rotary Rule (§3.4) prioritizes packets arriving on these ports
    /// over packets injected from the local (cache/MC/I-O) ports.
    #[inline]
    pub const fn is_network(self) -> bool {
        (self as usize) < 4
    }

    /// True for the local processor-side ports (cache, MC0, MC1, I/O).
    #[inline]
    pub const fn is_local(self) -> bool {
        !self.is_network()
    }
}

impl fmt::Display for InputPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InputPort::North => "L-N",
            InputPort::South => "L-S",
            InputPort::East => "L-E",
            InputPort::West => "L-W",
            InputPort::Cache => "L-Cache",
            InputPort::Mc0 => "L-MC0",
            InputPort::Mc1 => "L-MC1",
            InputPort::Io => "L-I/O",
        };
        f.write_str(s)
    }
}

/// An output port of the 21364 router.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum OutputPort {
    /// Torus link toward the north neighbour.
    North = 0,
    /// Torus link toward the south neighbour.
    South = 1,
    /// Torus link toward the east neighbour.
    East = 2,
    /// Torus link toward the west neighbour.
    West = 3,
    /// Local port 0 (memory controller 0, also tied to the cache).
    L0 = 4,
    /// Local port 1 (memory controller 1, also tied to the cache).
    L1 = 5,
    /// The I/O port.
    Io = 6,
}

impl OutputPort {
    /// All output ports in Figure 5 column order.
    pub const ALL: [OutputPort; NUM_OUTPUT_PORTS] = [
        OutputPort::North,
        OutputPort::South,
        OutputPort::East,
        OutputPort::West,
        OutputPort::L0,
        OutputPort::L1,
        OutputPort::Io,
    ];

    /// Index in `0..7`.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Constructs from an index in `0..7`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 7`.
    pub fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }

    /// Single-bit column mask for this output.
    #[inline]
    pub const fn mask(self) -> u32 {
        1 << (self as u32)
    }

    /// True for the four torus output ports.
    #[inline]
    pub const fn is_network(self) -> bool {
        (self as usize) < 4
    }

    /// True for the two local sink ports (L0/L1); at most one flit per
    /// cycle can be delivered through each, which bounds delivered
    /// throughput at 2 flits/router/cycle (§4.3).
    #[inline]
    pub const fn is_local_sink(self) -> bool {
        matches!(self, OutputPort::L0 | OutputPort::L1)
    }

    /// Mask of the four network output ports.
    pub const NETWORK_MASK: u32 = 0b0000_1111;
}

impl fmt::Display for OutputPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OutputPort::North => "G-N",
            OutputPort::South => "G-S",
            OutputPort::East => "G-E",
            OutputPort::West => "G-W",
            OutputPort::L0 => "G-L0",
            OutputPort::L1 => "G-L1",
            OutputPort::Io => "G-I/O",
        };
        f.write_str(s)
    }
}

/// One of the 16 input arbiters: an (input port, read port) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct ReadPort {
    /// The owning input port.
    pub(crate) port: InputPort,
    /// Which of the two buffer read ports (0 or 1).
    pub(crate) rp: u8,
}

impl ReadPort {
    /// Creates a read-port handle.
    ///
    /// # Panics
    ///
    /// Panics if `rp >= 2`.
    pub(crate) fn new(port: InputPort, rp: u8) -> Self {
        assert!(
            (rp as usize) < READ_PORTS_PER_INPUT,
            "read port {rp} out of range"
        );
        ReadPort { port, rp }
    }

    /// The Figure 5 row index of this arbiter (`0..16`).
    #[inline]
    pub(crate) const fn row(self) -> usize {
        self.port as usize * READ_PORTS_PER_INPUT + self.rp as usize
    }
}

impl fmt::Display for ReadPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rp{}", self.port, self.rp)
    }
}

/// Mask of connection-matrix rows belonging to network (torus) input ports.
///
/// Rows 0..8 in Figure 5 order: N rp0, N rp1, S rp0, S rp1, E rp0, E rp1,
/// W rp0, W rp1.
pub const NETWORK_ROW_MASK: u32 = 0x00ff;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_row_order() {
        assert_eq!(ReadPort::new(InputPort::North, 0).row(), 0);
        assert_eq!(ReadPort::new(InputPort::North, 1).row(), 1);
        assert_eq!(ReadPort::new(InputPort::West, 1).row(), 7);
        assert_eq!(ReadPort::new(InputPort::Cache, 0).row(), 8);
        assert_eq!(ReadPort::new(InputPort::Io, 1).row(), 15);
    }

    #[test]
    fn network_row_mask_matches_predicate() {
        let mut mask = 0u32;
        for port in InputPort::ALL {
            for rp in 0..READ_PORTS_PER_INPUT as u8 {
                let read_port = ReadPort::new(port, rp);
                if port.is_network() {
                    mask |= 1 << read_port.row();
                }
            }
        }
        assert_eq!(mask, NETWORK_ROW_MASK);
    }

    #[test]
    fn port_classification() {
        assert!(InputPort::North.is_network());
        assert!(InputPort::Cache.is_local());
        assert!(OutputPort::L0.is_local_sink());
        assert!(!OutputPort::Io.is_local_sink());
        assert!(OutputPort::East.is_network());
        assert_eq!(
            OutputPort::NETWORK_MASK
                | OutputPort::L0.mask()
                | OutputPort::L1.mask()
                | OutputPort::Io.mask(),
            0b0111_1111
        );
    }

    #[test]
    fn display_matches_figure5_names() {
        assert_eq!(InputPort::Mc0.to_string(), "L-MC0");
        assert_eq!(OutputPort::L1.to_string(), "G-L1");
        assert_eq!(ReadPort::new(InputPort::South, 1).to_string(), "L-S rp1");
    }

    #[test]
    #[should_panic(expected = "read port")]
    fn bad_read_port_rejected() {
        let _ = ReadPort::new(InputPort::North, 2);
    }

    #[test]
    fn index_round_trip() {
        for p in InputPort::ALL {
            assert_eq!(InputPort::from_index(p.index()), p);
        }
        for p in OutputPort::ALL {
            assert_eq!(OutputPort::from_index(p.index()), p);
            assert_eq!(p.mask().trailing_zeros() as usize, p.index());
        }
    }
}
