//! Commercial FPGA device models.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::tile::{ColumnSpec, TileKind};
use crate::{FabricError, Resources};

/// Bandwidth and latency parameters of the interconnect technologies that
/// cross physical-block boundaries.
///
/// The paper's latency-insensitive interface must hide exactly these
/// differences (§3.2): on-chip routing is fast and deterministic, inter-die
/// (SLR) crossings are slower, and inter-FPGA links (QSFP optics over the
/// cluster ring) are slower still. Table 4 reports the measured maxima.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkTechnology {
    /// Aggregate inter-FPGA bandwidth in Gb/s (the 100 Gb/s bidirectional
    /// ring of the paper's custom cluster, §5.2).
    pub inter_fpga_gbps: f64,
    /// Inter-die (SLR crossing) bandwidth in Gb/s (Table 4: 312.5 Gb/s).
    pub inter_die_gbps: f64,
    /// One-way inter-FPGA link latency in nanoseconds (serdes + optics).
    pub inter_fpga_latency_ns: f64,
    /// One-way inter-die crossing latency in nanoseconds.
    pub inter_die_latency_ns: f64,
    /// On-chip (intra-die) block-to-block routing latency in nanoseconds;
    /// deterministic, which is what allows ViTAL to elide buffers for
    /// intra-FPGA channels (§3.5.2).
    pub intra_die_latency_ns: f64,
}

impl LinkTechnology {
    /// Link parameters of the paper's custom-built cluster (§5.2, Table 4).
    pub const fn paper_cluster() -> Self {
        LinkTechnology {
            inter_fpga_gbps: 100.0,
            inter_die_gbps: 312.5,
            inter_fpga_latency_ns: 520.0,
            inter_die_latency_ns: 12.0,
            intra_die_latency_ns: 4.0,
        }
    }
}

impl Default for LinkTechnology {
    fn default() -> Self {
        Self::paper_cluster()
    }
}

/// A model of one commercial FPGA device.
///
/// The model captures exactly the architectural features ViTAL's architecture
/// layer must reason about: the column-based resource layout, the clock-region
/// grid, and the multi-die (SLR) package (§3.2 "key learning").
///
/// # Example
///
/// ```
/// use vital_fabric::DeviceModel;
///
/// let d = DeviceModel::xcvu37p();
/// assert_eq!(d.dies(), 3);
/// assert!(d.total_resources().lut > 1_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    name: String,
    dies: u32,
    rows_per_die: u64,
    clock_region_rows: u64,
    user_columns: Vec<ColumnSpec>,
    edge_columns: Vec<ColumnSpec>,
    links: LinkTechnology,
}

impl DeviceModel {
    /// Builds a device model from raw geometry.
    ///
    /// `user_columns` are the columns available for partitioning into
    /// physical blocks; `edge_columns` (transceivers, I/O, configuration)
    /// are permanently owned by the communication/service regions.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidGeometry`] if any dimension is zero, if
    /// the die height is not a whole number of clock regions, or if the user
    /// area has no user-consumable resources.
    pub(crate) fn from_geometry(
        name: impl Into<String>,
        dies: u32,
        rows_per_die: u64,
        clock_region_rows: u64,
        user_columns: Vec<ColumnSpec>,
        edge_columns: Vec<ColumnSpec>,
        links: LinkTechnology,
    ) -> Result<Self, FabricError> {
        let name = name.into();
        if dies == 0 || rows_per_die == 0 || clock_region_rows == 0 {
            return Err(FabricError::InvalidGeometry(format!(
                "device {name}: dies, rows and clock-region height must be non-zero"
            )));
        }
        if !rows_per_die.is_multiple_of(clock_region_rows) {
            return Err(FabricError::InvalidGeometry(format!(
                "device {name}: die height {rows_per_die} is not a multiple of \
                 the clock-region height {clock_region_rows}"
            )));
        }
        let user: Resources = user_columns.iter().map(|c| c.resources(rows_per_die)).sum();
        if user.is_zero() {
            return Err(FabricError::InvalidGeometry(format!(
                "device {name}: user columns provide no resources"
            )));
        }
        Ok(DeviceModel {
            name,
            dies,
            rows_per_die,
            clock_region_rows,
            user_columns,
            edge_columns,
            links,
        })
    }

    /// The Xilinx UltraScale+ XCVU37P model used throughout the paper's
    /// evaluation (§5.2): three SLR dies, HBM-class capacity, clock regions
    /// of 60 rows.
    ///
    /// The column mix is chosen so that one 60-row band of the user area
    /// provides exactly the physical-block resources the paper reports in
    /// Table 4: 79.2k LUTs, 158.4k DFFs, 580 DSPs, ~4.22 Mb BRAM.
    pub fn xcvu37p() -> Self {
        // 9 x [9 CLB, 2 DSP, 9 CLB, 1 BRAM]  = 162 CLB + 18 DSP + 9 BRAM
        // + [3 CLB, 11 DSP, 1 BRAM]          =   3 CLB + 11 DSP + 1 BRAM
        // total                              = 165 CLB + 29 DSP + 10 BRAM
        let mut user = Vec::new();
        for _ in 0..9 {
            user.push(ColumnSpec::new(TileKind::Clb, 9));
            user.push(ColumnSpec::new(TileKind::Dsp, 2));
            user.push(ColumnSpec::new(TileKind::Clb, 9));
            user.push(ColumnSpec::new(TileKind::Bram, 1));
        }
        user.push(ColumnSpec::new(TileKind::Clb, 3));
        user.push(ColumnSpec::new(TileKind::Dsp, 11));
        user.push(ColumnSpec::new(TileKind::Bram, 1));

        // Edge strip hosting the communication/service regions: I/O and
        // transceiver columns plus the fabric (CLB/BRAM) the system circuits
        // are built from. ~7.8 % of device LUTs, matching the paper's "<10 %
        // reserved" result (§5.3).
        let edge = vec![
            ColumnSpec::new(TileKind::Io, 4),
            ColumnSpec::new(TileKind::Clb, 14),
            ColumnSpec::new(TileKind::Bram, 2),
            ColumnSpec::new(TileKind::Transceiver, 4),
        ];
        DeviceModel::from_geometry(
            "XCVU37P",
            3,
            300,
            60,
            user,
            edge,
            LinkTechnology::paper_cluster(),
        )
        .expect("XCVU37P geometry is statically valid")
    }

    /// A *periodic* XCVU37P variant whose user-column layout consists of
    /// two identical segments, so each row band can also be split into two
    /// side-by-side physical blocks — the paper's Fig. 7 notes each
    /// physical block contains two sub-blocks (regions 1a/1b). The real
    /// part's layout is not this regular (which is why [`DeviceModel::xcvu37p`]
    /// only partitions in the row direction); this variant exists to study
    /// the finer-granularity design point.
    pub fn xcvu37p_periodic() -> Self {
        let segment = [
            ColumnSpec::new(TileKind::Clb, 41),
            ColumnSpec::new(TileKind::Dsp, 7),
            ColumnSpec::new(TileKind::Clb, 41),
            ColumnSpec::new(TileKind::Bram, 5),
            ColumnSpec::new(TileKind::Dsp, 7),
        ];
        let mut user = Vec::with_capacity(2 * segment.len());
        user.extend_from_slice(&segment);
        user.extend_from_slice(&segment);
        let edge = vec![
            ColumnSpec::new(TileKind::Io, 4),
            ColumnSpec::new(TileKind::Clb, 14),
            ColumnSpec::new(TileKind::Bram, 2),
            ColumnSpec::new(TileKind::Transceiver, 4),
        ];
        DeviceModel::from_geometry(
            "XCVU37P-periodic",
            3,
            300,
            60,
            user,
            edge,
            LinkTechnology::paper_cluster(),
        )
        .expect("periodic geometry is statically valid")
    }

    /// The migration-target sibling of [`DeviceModel::xcvu37p`]: the same
    /// per-band resource capacity delivered through a **different column
    /// layout** (coarse CLB slabs with BRAM pulled ahead of the DSP strips,
    /// instead of the VU37P's fine CLB/DSP interleave).
    ///
    /// Identical 60-row-band totals mean a bitstream compiled for the
    /// default geometry's block size *fits* here, but the per-block site
    /// grid differs — so the relocatable images themselves do **not**
    /// transfer, which is exactly the situation portable checkpoints exist
    /// for: capture logical state through the scan interface on one
    /// geometry, recompile (or hit the build farm's cache) for the other,
    /// and restore.
    pub fn xcvu37p_alt() -> Self {
        // 5 x [33 CLB, 2 BRAM, 5 DSP] = 165 CLB + 10 BRAM + 25 DSP
        // + [4 DSP]                   =                      4 DSP
        // totals match xcvu37p: 165 CLB + 29 DSP + 10 BRAM columns.
        let mut user = Vec::new();
        for _ in 0..5 {
            user.push(ColumnSpec::new(TileKind::Clb, 33));
            user.push(ColumnSpec::new(TileKind::Bram, 2));
            user.push(ColumnSpec::new(TileKind::Dsp, 5));
        }
        user.push(ColumnSpec::new(TileKind::Dsp, 4));
        let edge = vec![
            ColumnSpec::new(TileKind::Transceiver, 4),
            ColumnSpec::new(TileKind::Bram, 2),
            ColumnSpec::new(TileKind::Clb, 14),
            ColumnSpec::new(TileKind::Io, 4),
        ];
        DeviceModel::from_geometry(
            "XCVU37P-ALT",
            3,
            300,
            60,
            user,
            edge,
            LinkTechnology::paper_cluster(),
        )
        .expect("XCVU37P-ALT geometry is statically valid")
    }

    /// Looks a built-in device model up by its name (case-insensitive):
    /// `"XCVU37P"`, `"XCVU37P-ALT"`, `"XCVU37P-periodic"` or `"XCVU13P"`.
    /// This is what `vitald --geometry <name>` resolves through.
    pub fn by_name(name: &str) -> Option<DeviceModel> {
        let models = [
            DeviceModel::xcvu37p(),
            DeviceModel::xcvu37p_alt(),
            DeviceModel::xcvu37p_periodic(),
            DeviceModel::vu13p(),
        ];
        models
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// The Xilinx UltraScale+ XCVU13P model, used as the normalization
    /// reference of the paper's Fig. 1a.
    pub fn vu13p() -> Self {
        let mut user = Vec::new();
        for _ in 0..15 {
            user.push(ColumnSpec::new(TileKind::Clb, 12));
            user.push(ColumnSpec::new(TileKind::Dsp, 2));
            user.push(ColumnSpec::new(TileKind::Bram, 1));
        }
        user.push(ColumnSpec::new(TileKind::Dsp, 1));
        let edge = vec![
            ColumnSpec::new(TileKind::Io, 4),
            ColumnSpec::new(TileKind::Clb, 16),
            ColumnSpec::new(TileKind::Bram, 2),
            ColumnSpec::new(TileKind::Transceiver, 4),
        ];
        DeviceModel::from_geometry(
            "XCVU13P",
            4,
            300,
            60,
            user,
            edge,
            LinkTechnology::paper_cluster(),
        )
        .expect("XCVU13P geometry is statically valid")
    }

    /// Device name (e.g. `"XCVU37P"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of SLR dies in the package.
    pub fn dies(&self) -> u32 {
        self.dies
    }

    /// Fabric rows per die.
    pub(crate) fn rows_per_die(&self) -> u64 {
        self.rows_per_die
    }

    /// Total fabric rows across all dies.
    pub fn total_rows(&self) -> u64 {
        self.rows_per_die * u64::from(self.dies)
    }

    /// Height of one clock region in rows.
    pub(crate) fn clock_region_rows(&self) -> u64 {
        self.clock_region_rows
    }

    /// The partitionable (user-area) column layout.
    pub fn user_columns(&self) -> &[ColumnSpec] {
        &self.user_columns
    }

    /// The permanently reserved edge columns (I/O, transceivers).
    pub(crate) fn edge_columns(&self) -> &[ColumnSpec] {
        &self.edge_columns
    }

    /// Resources of a horizontal band of the user area spanning `rows` rows.
    pub(crate) fn band_resources(&self, rows: u64) -> Resources {
        self.user_columns.iter().map(|c| c.resources(rows)).sum()
    }

    /// Total user-area resources of the whole device.
    pub fn user_area_resources(&self) -> Resources {
        self.band_resources(self.total_rows())
    }

    /// Total device resources (user area plus edge columns).
    pub fn total_resources(&self) -> Resources {
        self.user_area_resources()
            + self
                .edge_columns
                .iter()
                .map(|c| c.resources(self.total_rows()))
                .sum()
    }
}

impl fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} dies x {} rows, {})",
            self.name,
            self.dies,
            self.rows_per_die,
            self.total_resources()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xcvu37p_band_matches_paper_table4() {
        let d = DeviceModel::xcvu37p();
        let band = d.band_resources(60);
        assert_eq!(band.lut, 79_200);
        assert_eq!(band.ff, 158_400);
        assert_eq!(band.dsp, 580);
        assert_eq!(band.bram_kb, 4_320); // paper reports 4.22 Mb
    }

    #[test]
    fn xcvu37p_totals_are_vu37p_scale() {
        let d = DeviceModel::xcvu37p();
        let total = d.total_resources();
        // User area 1,188,000 LUTs + 100,800 in the reserved edge strip:
        // within 2% of the real XCVU37P's 1,304k LUTs.
        assert_eq!(total.lut, 1_288_800);
        assert_eq!(d.user_area_resources().lut, 1_188_000);
        assert_eq!(d.user_area_resources().dsp, 8_700);
        assert_eq!(d.rows_per_die() / d.clock_region_rows(), 5);
    }

    #[test]
    fn periodic_variant_splits_into_identical_segments() {
        let d = DeviceModel::xcvu37p_periodic();
        let cols = d.user_columns();
        let half = cols.len() / 2;
        assert_eq!(&cols[..half], &cols[half..]);
        // Capacity stays VU37P-scale.
        let band = d.band_resources(60);
        assert!(band.lut > 70_000 && band.lut < 90_000);
        assert!(band.dsp >= 500);
    }

    #[test]
    fn alt_geometry_matches_band_capacity_with_different_layout() {
        let a = DeviceModel::xcvu37p();
        let b = DeviceModel::xcvu37p_alt();
        // Same per-band capacity: apps sized for the default block fit.
        assert_eq!(a.band_resources(60), b.band_resources(60));
        assert_eq!(a.clock_region_rows(), b.clock_region_rows());
        // ...but genuinely different column layouts (not a reordering of
        // the same Vec — a different interleave entirely).
        assert_ne!(a.user_columns(), b.user_columns());
        assert_ne!(a.user_columns().len(), b.user_columns().len());
    }

    #[test]
    fn by_name_resolves_builtin_models() {
        assert_eq!(
            DeviceModel::by_name("XCVU37P").unwrap(),
            DeviceModel::xcvu37p()
        );
        assert_eq!(
            DeviceModel::by_name("xcvu37p-alt").unwrap(),
            DeviceModel::xcvu37p_alt()
        );
        assert_eq!(
            DeviceModel::by_name("XCVU37P-PERIODIC").unwrap(),
            DeviceModel::xcvu37p_periodic()
        );
        assert_eq!(
            DeviceModel::by_name("XCVU13P").unwrap(),
            DeviceModel::vu13p()
        );
        assert!(DeviceModel::by_name("XCVU99P").is_none());
    }

    #[test]
    fn vu13p_is_larger_than_vu37p() {
        let big = DeviceModel::vu13p().total_resources();
        let small = DeviceModel::xcvu37p().total_resources();
        assert!(big.lut > small.lut);
    }

    #[test]
    fn geometry_validation_rejects_misaligned_clock_regions() {
        let err = DeviceModel::from_geometry(
            "bad",
            1,
            100,
            60,
            vec![ColumnSpec::new(TileKind::Clb, 1)],
            vec![],
            LinkTechnology::paper_cluster(),
        )
        .unwrap_err();
        assert!(matches!(err, FabricError::InvalidGeometry(_)));
    }

    #[test]
    fn geometry_validation_rejects_empty_user_area() {
        let err = DeviceModel::from_geometry(
            "bad",
            1,
            60,
            60,
            vec![ColumnSpec::new(TileKind::Io, 3)],
            vec![],
            LinkTechnology::paper_cluster(),
        )
        .unwrap_err();
        assert!(matches!(err, FabricError::InvalidGeometry(_)));
    }

    #[test]
    fn serde_roundtrip() {
        let d = DeviceModel::xcvu37p();
        let json = serde_json::to_string(&d).unwrap();
        let back: DeviceModel = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
