//! Tiles and resource columns of the island-style fabric.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Resources;

/// The kind of tile occupying one (column, row) site of the fabric grid.
///
/// Commercial FPGAs are column-based: every column contains a single kind of
/// tile, repeated down the full height of the die (paper §2.1 / §3.2). ViTAL
/// exploits this by partitioning the device in the *row* direction, which
/// preserves the column periodicity and keeps physical blocks identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileKind {
    /// Configurable logic block: LUTs plus flip-flops.
    Clb,
    /// Block RAM tile (one RAMB36 every `BRAM_ROW_PERIOD` rows).
    Bram,
    /// DSP slice tile (one DSP48 every `DSP_ROW_PERIOD` rows).
    Dsp,
    /// High-speed serial transceiver (GT) tile.
    Transceiver,
    /// I/O or configuration tile (no user resources).
    Io,
}

impl TileKind {
    /// LUTs per CLB tile row.
    pub(crate) const CLB_LUTS: u64 = 8;
    /// Flip-flops per CLB tile row.
    pub(crate) const CLB_FFS: u64 = 16;
    /// A BRAM column carries one 36 kb RAMB36 every this many rows.
    pub const BRAM_ROW_PERIOD: u64 = 5;
    /// Kilobits per RAMB36.
    pub(crate) const BRAM_KB: u64 = 36;
    /// A DSP column carries one DSP48 every this many rows.
    pub const DSP_ROW_PERIOD: u64 = 3;

    /// User-visible resources contributed by a column of this tile kind over
    /// `rows` consecutive rows.
    ///
    /// Row counts that are not multiples of the BRAM/DSP periods floor the
    /// hard-block count, mirroring how a partial column slice on real silicon
    /// cannot split a hard block.
    pub(crate) fn column_resources(self, rows: u64) -> Resources {
        match self {
            TileKind::Clb => Resources::new(rows * Self::CLB_LUTS, rows * Self::CLB_FFS, 0, 0),
            TileKind::Bram => {
                Resources::new(0, 0, 0, (rows / Self::BRAM_ROW_PERIOD) * Self::BRAM_KB)
            }
            TileKind::Dsp => Resources::new(0, 0, rows / Self::DSP_ROW_PERIOD, 0),
            TileKind::Transceiver | TileKind::Io => Resources::ZERO,
        }
    }
}

impl fmt::Display for TileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TileKind::Clb => "CLB",
            TileKind::Bram => "BRAM",
            TileKind::Dsp => "DSP",
            TileKind::Transceiver => "GT",
            TileKind::Io => "IO",
        };
        f.write_str(s)
    }
}

/// A run-length-encoded group of adjacent identical columns.
///
/// Device column layouts repeat small patterns many times
/// (`CLB CLB … BRAM CLB … DSP`), so layouts are described as a sequence of
/// `ColumnSpec`s rather than one entry per column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnSpec {
    /// Tile kind for every column in the group.
    pub kind: TileKind,
    /// Number of adjacent columns of this kind.
    pub count: u32,
}

impl ColumnSpec {
    /// Creates a column group.
    pub const fn new(kind: TileKind, count: u32) -> Self {
        ColumnSpec { kind, count }
    }

    /// Resources contributed by the whole group over `rows` rows.
    pub fn resources(&self, rows: u64) -> Resources {
        self.kind.column_resources(rows) * u64::from(self.count)
    }
}

impl fmt::Display for ColumnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.count, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clb_column_resources() {
        let r = TileKind::Clb.column_resources(60);
        assert_eq!(r, Resources::new(480, 960, 0, 0));
    }

    #[test]
    fn bram_column_floors_partial_blocks() {
        // 60 rows -> 12 RAMB36 -> 432 kb; 59 rows -> 11 RAMB36.
        assert_eq!(TileKind::Bram.column_resources(60).bram_kb, 432);
        assert_eq!(TileKind::Bram.column_resources(59).bram_kb, 11 * 36);
    }

    #[test]
    fn dsp_column_period() {
        assert_eq!(TileKind::Dsp.column_resources(60).dsp, 20);
        assert_eq!(TileKind::Dsp.column_resources(2).dsp, 0);
    }

    #[test]
    fn non_user_tiles_have_no_resources() {
        assert!(TileKind::Transceiver.column_resources(100).is_zero());
        assert!(TileKind::Io.column_resources(100).is_zero());
    }

    #[test]
    fn column_spec_multiplies() {
        let spec = ColumnSpec::new(TileKind::Clb, 165);
        let r = spec.resources(60);
        assert_eq!(r.lut, 165 * 60 * 8);
        assert_eq!(r.ff, 165 * 60 * 16);
    }
}
