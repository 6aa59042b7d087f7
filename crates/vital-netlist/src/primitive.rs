//! Netlist primitives: the leaves of the technology-mapped design.

use std::fmt;

use serde::{Deserialize, Serialize};
use vital_fabric::Resources;

/// Direction of a top-level I/O port primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortDirection {
    /// Data flows into the design (e.g. a DRAM read channel).
    Input,
    /// Data flows out of the design.
    Output,
}

impl fmt::Display for PortDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PortDirection::Input => "input",
            PortDirection::Output => "output",
        })
    }
}

/// The kind of one netlist primitive after technology mapping (paper Fig. 3b).
///
/// Besides single LUTs and flip-flops, the IR supports `Slice` primitives —
/// pre-packed CLB-granularity bundles — so that very large accelerators
/// (hundreds of thousands of LUTs) can be represented and partitioned at a
/// tractable node count, exactly as commercial tools coarsen netlists before
/// placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrimitiveKind {
    /// A `k`-input look-up table.
    Lut {
        /// Number of logic inputs (1..=6).
        inputs: u8,
    },
    /// A D flip-flop.
    FlipFlop,
    /// A pre-packed logic slice bundling several LUTs and flip-flops.
    Slice {
        /// LUTs in the bundle.
        luts: u16,
        /// Flip-flops in the bundle.
        ffs: u16,
    },
    /// A DSP48-style hard multiply-accumulate slice.
    Dsp,
    /// A block-RAM instance of the given capacity in kilobits.
    Bram {
        /// Capacity in kilobits (36 for a RAMB36).
        kb: u16,
    },
    /// A top-level I/O port (stream, DRAM channel, control).
    Io {
        /// Port direction.
        direction: PortDirection,
    },
}

impl PrimitiveKind {
    /// Convenience constructor for a `k`-input LUT.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero or greater than 6 (the paper's target
    /// architecture uses 6-input LUTs, §2.1).
    pub fn lut(inputs: u8) -> Self {
        assert!(
            (1..=6).contains(&inputs),
            "LUT inputs must be 1..=6, got {inputs}"
        );
        PrimitiveKind::Lut { inputs }
    }

    /// Convenience constructor for a packed slice.
    pub fn slice(luts: u16, ffs: u16) -> Self {
        PrimitiveKind::Slice { luts, ffs }
    }

    /// Convenience constructor for a RAMB36 block RAM.
    pub(crate) fn bram36() -> Self {
        PrimitiveKind::Bram { kb: 36 }
    }

    /// Convenience constructor for an I/O port.
    pub fn io(direction: PortDirection) -> Self {
        PrimitiveKind::Io { direction }
    }

    /// Fabric resources consumed by this primitive.
    pub fn resources(&self) -> Resources {
        match *self {
            PrimitiveKind::Lut { .. } => Resources::new(1, 0, 0, 0),
            PrimitiveKind::FlipFlop => Resources::new(0, 1, 0, 0),
            PrimitiveKind::Slice { luts, ffs } => {
                Resources::new(u64::from(luts), u64::from(ffs), 0, 0)
            }
            PrimitiveKind::Dsp => Resources::new(0, 0, 1, 0),
            PrimitiveKind::Bram { kb } => Resources::new(0, 0, 0, u64::from(kb)),
            PrimitiveKind::Io { .. } => Resources::ZERO,
        }
    }

    /// `true` for top-level I/O ports.
    pub fn is_io(&self) -> bool {
        matches!(self, PrimitiveKind::Io { .. })
    }
}

impl fmt::Display for PrimitiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PrimitiveKind::Lut { inputs } => write!(f, "LUT{inputs}"),
            PrimitiveKind::FlipFlop => write!(f, "FF"),
            PrimitiveKind::Slice { luts, ffs } => write!(f, "SLICE({luts}L/{ffs}F)"),
            PrimitiveKind::Dsp => write!(f, "DSP48"),
            PrimitiveKind::Bram { kb } => write!(f, "BRAM{kb}"),
            PrimitiveKind::Io { direction } => write!(f, "IO[{direction}]"),
        }
    }
}

/// Index of a primitive within its [`crate::Netlist`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PrimitiveId(pub(crate) u32);

impl PrimitiveId {
    /// Creates an id from a raw index. Useful for tools (packers, placers)
    /// that iterate primitives by position; ids are only meaningful for the
    /// netlist they came from.
    pub const fn new(raw: u32) -> Self {
        PrimitiveId(raw)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw index as `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PrimitiveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One instantiated primitive of a netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Primitive {
    pub(crate) id: PrimitiveId,
    pub(crate) kind: PrimitiveKind,
}

impl Primitive {
    /// The primitive's id within its netlist.
    pub fn id(&self) -> PrimitiveId {
        self.id
    }

    /// The primitive's kind.
    pub fn kind(&self) -> PrimitiveKind {
        self.kind
    }

    /// Fabric resources consumed by the primitive.
    pub fn resources(&self) -> Resources {
        self.kind.resources()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resources_by_kind() {
        assert_eq!(PrimitiveKind::lut(6).resources().lut, 1);
        assert_eq!(PrimitiveKind::FlipFlop.resources().ff, 1);
        assert_eq!(PrimitiveKind::Dsp.resources().dsp, 1);
        assert_eq!(PrimitiveKind::bram36().resources().bram_kb, 36);
        assert_eq!(
            PrimitiveKind::slice(8, 16).resources(),
            Resources::new(8, 16, 0, 0)
        );
        assert!(PrimitiveKind::io(PortDirection::Input)
            .resources()
            .is_zero());
    }

    #[test]
    #[should_panic(expected = "LUT inputs")]
    fn lut_inputs_validated() {
        let _ = PrimitiveKind::lut(7);
    }

    #[test]
    fn io_detection() {
        assert!(PrimitiveKind::io(PortDirection::Output).is_io());
        assert!(!PrimitiveKind::Dsp.is_io());
    }

    #[test]
    fn display_formats() {
        assert_eq!(PrimitiveKind::lut(4).to_string(), "LUT4");
        assert_eq!(PrimitiveKind::slice(8, 16).to_string(), "SLICE(8L/16F)");
    }
}
