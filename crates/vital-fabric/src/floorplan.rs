//! Partitioning a physical FPGA into user / communication / service regions.
//!
//! ViTAL divides each FPGA into three regions (paper Fig. 4b):
//!
//! * the **user region**, an array of *identical* physical blocks, each of
//!   which can host any compiled virtual block;
//! * the **communication region**, buffers and control logic implementing the
//!   latency-insensitive interface (plus transceiver columns);
//! * the **service region**, the circuits virtualizing peripherals (DRAM,
//!   Ethernet).
//!
//! The partition honours the two commercial-silicon constraints of §3.2:
//! physical blocks never cross a die (SLR) boundary, and every block sits at
//! the same offset relative to the clock-region grid so clock skew inside a
//! block is the same for all blocks.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{DeviceModel, FabricError, PhysicalBlockId, Resources};

/// The role of a reserved region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegionKind {
    /// User region: the array of identical physical blocks.
    User,
    /// Communication region: latency-insensitive interface buffers, control
    /// logic, transceivers and the pipeline registers feeding them
    /// (paper Fig. 7 regions 2, 3, 5, 6).
    Communication,
    /// Service region: peripheral-virtualization circuits such as the shared
    /// DRAM interface (paper Fig. 7 region 4).
    Service,
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegionKind::User => "user",
            RegionKind::Communication => "communication",
            RegionKind::Service => "service",
        };
        f.write_str(s)
    }
}

/// A reserved (non-user) region of the floorplan and the fabric resources it
/// owns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// What the region is reserved for.
    pub kind: RegionKind,
    /// Resources owned by the region.
    pub resources: Resources,
    /// Human-readable placement note (e.g. `"edge strip, die 0"`).
    pub note: String,
}

/// One physical block of the user region.
///
/// All blocks of a valid floorplan are identical in resources, column layout
/// and clock-region offset, which is what makes runtime relocation without
/// recompilation possible (paper Fig. 4c).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhysicalBlock {
    id: PhysicalBlockId,
    die: u32,
    band_index: u64,
    row_start: u64,
    rows: u64,
    clock_region_offset: u64,
    resources: Resources,
}

impl PhysicalBlock {
    /// Device-local identifier of this block.
    pub fn id(&self) -> PhysicalBlockId {
        self.id
    }

    /// The SLR die that contains the block (blocks never cross dies).
    pub fn die(&self) -> u32 {
        self.die
    }

    /// Absolute first fabric row of the block.
    pub fn row_start(&self) -> u64 {
        self.row_start
    }

    /// Height of the block in rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Programmable resources provided by the block.
    pub fn resources(&self) -> Resources {
        self.resources
    }
}

/// Builder for [`Floorplan`] (see [`Floorplan::builder`]).
///
/// # Example
///
/// ```
/// use vital_fabric::{DeviceModel, Floorplan};
///
/// let device = DeviceModel::xcvu37p();
/// let plan = Floorplan::builder(&device).block_rows(60).build()?;
/// assert_eq!(plan.user_blocks().len(), 15);
/// # Ok::<(), vital_fabric::FabricError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FloorplanBuilder<'d> {
    device: &'d DeviceModel,
    block_rows: u64,
    column_splits: u32,
}

impl<'d> FloorplanBuilder<'d> {
    fn new(device: &'d DeviceModel) -> Self {
        FloorplanBuilder {
            device,
            block_rows: device.clock_region_rows(),
            column_splits: 1,
        }
    }

    /// Sets the height of each physical block in fabric rows.
    ///
    /// Must be a multiple of the clock-region height (so every block has the
    /// same clock-skew profile) and divide the die height (so no block
    /// crosses a die boundary).
    pub fn block_rows(&mut self, rows: u64) -> &mut Self {
        self.block_rows = rows;
        self
    }

    /// Splits each row band into `splits` side-by-side blocks in the column
    /// direction. Only valid when the user-column layout divides into
    /// `splits` identical segments; commercial layouts rarely do, which is
    /// why the paper partitions in the row direction (§3.2).
    pub fn column_splits(&mut self, splits: u32) -> &mut Self {
        self.column_splits = splits;
        self
    }

    /// Validates the constraints and constructs the floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidFloorplan`] if
    /// * the block height is zero, does not divide the die height, or is not
    ///   a multiple of the clock-region height (clock-skew constraint), or
    /// * a column split does not divide the layout into identical segments.
    pub fn build(&self) -> Result<Floorplan, FabricError> {
        let d = self.device;
        if self.block_rows == 0 {
            return Err(FabricError::InvalidFloorplan(
                "block height must be non-zero".into(),
            ));
        }
        if !d.rows_per_die().is_multiple_of(self.block_rows) {
            return Err(FabricError::InvalidFloorplan(format!(
                "block height {} does not divide the die height {} — a block \
                 would cross a die boundary",
                self.block_rows,
                d.rows_per_die()
            )));
        }
        // Clock-skew constraint: every block must occupy the same position
        // relative to the clock-region grid. That holds exactly when the
        // block height is a whole number of clock regions.
        if !self.block_rows.is_multiple_of(d.clock_region_rows()) {
            return Err(FabricError::InvalidFloorplan(format!(
                "block height {} is not a multiple of the clock-region height \
                 {} — blocks would differ in clock skew",
                self.block_rows,
                d.clock_region_rows()
            )));
        }
        if self.column_splits == 0 {
            return Err(FabricError::InvalidFloorplan(
                "column splits must be at least 1".into(),
            ));
        }
        if self.column_splits > 1 {
            // A column split is only legal if the user-column layout is a
            // concatenation of `splits` identical segments; otherwise the
            // resulting blocks would not be identical.
            let cols = d.user_columns();
            if !cols.len().is_multiple_of(self.column_splits as usize) {
                return Err(FabricError::InvalidFloorplan(format!(
                    "user column layout ({} groups) does not divide into {} \
                     identical segments",
                    cols.len(),
                    self.column_splits
                )));
            }
            let seg = cols.len() / self.column_splits as usize;
            let first = &cols[..seg];
            for k in 1..self.column_splits as usize {
                if &cols[k * seg..(k + 1) * seg] != first {
                    return Err(FabricError::InvalidFloorplan(format!(
                        "user column layout segments are not identical; \
                         cannot split each band into {} blocks",
                        self.column_splits
                    )));
                }
            }
        }

        let bands_per_die = d.rows_per_die() / self.block_rows;
        let band = d.band_resources(self.block_rows);
        let block_res = if self.column_splits > 1 {
            band.scale(1.0 / f64::from(self.column_splits))
        } else {
            band
        };

        let mut blocks = Vec::new();
        let mut next = 0u32;
        for die in 0..d.dies() {
            for band_index in 0..bands_per_die {
                for _split in 0..self.column_splits {
                    let row_start =
                        u64::from(die) * d.rows_per_die() + band_index * self.block_rows;
                    blocks.push(PhysicalBlock {
                        id: PhysicalBlockId::new(next),
                        die,
                        band_index,
                        row_start,
                        rows: self.block_rows,
                        clock_region_offset: row_start % d.clock_region_rows(),
                        resources: block_res,
                    });
                    next += 1;
                }
            }
        }

        // Reserved edge strip: the bottom clock-region band of the edge
        // columns hosts the service region (shared DRAM interface, Fig. 7
        // region 4); the remainder is communication region (interface
        // buffers, transceivers, pipeline registers — regions 2/3/5/6).
        let edge_total: Resources = d
            .edge_columns()
            .iter()
            .map(|c| c.resources(d.total_rows()))
            .sum();
        let edge_service: Resources = d
            .edge_columns()
            .iter()
            .map(|c| c.resources(d.clock_region_rows()))
            .sum();
        let edge_comm = edge_total.saturating_sub(&edge_service);
        let regions = vec![
            Region {
                kind: RegionKind::Communication,
                resources: edge_comm,
                note: "edge strip: interface buffers, transceivers, pipeline registers".into(),
            },
            Region {
                kind: RegionKind::Service,
                resources: edge_service,
                note: "edge strip, bottom clock region of die 0: shared DRAM interface".into(),
            },
        ];

        Ok(Floorplan {
            device_name: d.name().to_string(),
            block_rows: self.block_rows,
            column_splits: self.column_splits,
            blocks,
            regions,
            device_total: d.total_resources(),
        })
    }
}

/// A validated partition of one FPGA into user blocks and reserved regions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    device_name: String,
    block_rows: u64,
    column_splits: u32,
    blocks: Vec<PhysicalBlock>,
    regions: Vec<Region>,
    device_total: Resources,
}

impl Floorplan {
    /// Starts building a floorplan for `device`.
    pub fn builder(device: &DeviceModel) -> FloorplanBuilder<'_> {
        FloorplanBuilder::new(device)
    }

    /// The optimal floorplan found by the design-space exploration of §5.3
    /// (see [`crate::explore_partitions`]).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::NoFeasiblePartition`] if no candidate satisfies
    /// the constraints (cannot happen for the built-in device models).
    pub fn optimal_for(device: &DeviceModel) -> Result<Floorplan, FabricError> {
        crate::explore_partitions(device, &crate::PartitionObjective::default())?
            .into_iter()
            .find(|c| c.feasible)
            .map(|c| c.floorplan.expect("feasible candidate carries a floorplan"))
            .ok_or(FabricError::NoFeasiblePartition)
    }

    /// Column splits per row band (1 = full-width blocks).
    pub fn column_splits(&self) -> u32 {
        self.column_splits
    }

    /// The identical physical blocks of the user region.
    pub fn user_blocks(&self) -> &[PhysicalBlock] {
        &self.blocks
    }

    /// The reserved communication/service regions.
    pub fn reserved_regions(&self) -> &[Region] {
        &self.regions
    }

    /// Resources of one physical block.
    ///
    /// # Panics
    ///
    /// Panics if the floorplan has no blocks, which `build` never produces.
    pub fn block_resources(&self) -> Resources {
        self.blocks
            .first()
            .expect("a valid floorplan has at least one block")
            .resources()
    }

    /// Total resources reserved by the system (communication + service).
    pub fn reserved_resources(&self) -> Resources {
        self.regions.iter().map(|r| r.resources).sum()
    }

    /// Fraction of the device's LUTs reserved by the system. The paper keeps
    /// this below 10 % after the buffer-elimination optimization (§5.3).
    pub fn reserved_fraction(&self) -> f64 {
        let total = self.device_total.lut;
        if total == 0 {
            return 0.0;
        }
        self.reserved_resources().lut as f64 / total as f64
    }

    /// Verifies the identity invariant: every block has the same resources,
    /// height and clock-region offset, so any virtual block can be relocated
    /// to any physical block without recompilation.
    pub fn blocks_identical(&self) -> bool {
        let Some(first) = self.blocks.first() else {
            return true;
        };
        self.blocks.iter().all(|b| {
            b.resources == first.resources
                && b.rows == first.rows
                && b.clock_region_offset == first.clock_region_offset
        })
    }
}

impl fmt::Display for Floorplan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} blocks of {} rows ({} per band), reserved {:.1}%",
            self.device_name,
            self.blocks.len(),
            self.block_rows,
            self.column_splits,
            self.reserved_fraction() * 100.0
        )
    }
}

#[cfg(test)]
impl Floorplan {
    /// Looks up a block by id.
    pub(crate) fn block(&self, id: PhysicalBlockId) -> Option<&PhysicalBlock> {
        self.blocks.get(id.index() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> DeviceModel {
        DeviceModel::xcvu37p()
    }

    #[test]
    fn default_floorplan_has_identical_blocks() {
        let plan = Floorplan::builder(&device()).build().unwrap();
        assert_eq!(plan.user_blocks().len(), 15); // 5 bands x 3 dies
        assert!(plan.blocks_identical());
        assert_eq!(
            plan.block_resources(),
            Resources::new(79_200, 158_400, 580, 4_320)
        );
    }

    #[test]
    fn blocks_never_cross_die_boundaries() {
        let plan = Floorplan::builder(&device()).build().unwrap();
        for b in plan.user_blocks() {
            let die_start = u64::from(b.die()) * 300;
            assert!(b.row_start() >= die_start);
            assert!(b.row_start() + b.rows() <= die_start + 300);
        }
    }

    #[test]
    fn clock_skew_constraint_rejects_sub_region_blocks() {
        let err = Floorplan::builder(&device())
            .block_rows(30)
            .build()
            .unwrap_err();
        assert!(matches!(err, FabricError::InvalidFloorplan(_)));
    }

    #[test]
    fn die_boundary_constraint_rejects_non_dividing_heights() {
        // 120 is a multiple of the 60-row clock region but does not divide
        // the 300-row die.
        let err = Floorplan::builder(&device())
            .block_rows(120)
            .build()
            .unwrap_err();
        assert!(matches!(err, FabricError::InvalidFloorplan(_)));
    }

    #[test]
    fn full_die_blocks_are_allowed() {
        let plan = Floorplan::builder(&device())
            .block_rows(300)
            .build()
            .unwrap();
        assert_eq!(plan.user_blocks().len(), 3);
        assert!(plan.blocks_identical());
    }

    #[test]
    fn column_split_rejected_for_non_periodic_layout() {
        // The XCVU37P layout's tail group breaks the periodicity, exactly the
        // commercial-silicon heterogeneity the paper calls out.
        let err = Floorplan::builder(&device())
            .column_splits(2)
            .build()
            .unwrap_err();
        assert!(matches!(err, FabricError::InvalidFloorplan(_)));
    }

    #[test]
    fn reserved_fraction_is_below_ten_percent() {
        let plan = Floorplan::builder(&device()).build().unwrap();
        assert!(
            plan.reserved_fraction() < 0.10,
            "reserved fraction {} should be < 10% (paper §5.3)",
            plan.reserved_fraction()
        );
    }

    #[test]
    fn crosses_die_detection() {
        let plan = Floorplan::builder(&device()).build().unwrap();
        let die = |id: u32| plan.block(PhysicalBlockId::new(id)).map(|b| b.die());
        assert_eq!(die(0), Some(0));
        assert_eq!(die(1), Some(0));
        assert_eq!(die(5), Some(1)); // 5 bands per die
        assert_eq!(die(99), None);
    }

    #[test]
    fn compatibility_across_devices() {
        // Blocks can host each other's virtual blocks when resources, height
        // and clock-region offset all match (paper §7: devices may differ,
        // their blocks must not).
        let compatible = |a: &Floorplan, b: &Floorplan| {
            let (x, y) = (&a.blocks[0], &b.blocks[0]);
            x.resources == y.resources
                && x.rows == y.rows
                && x.clock_region_offset == y.clock_region_offset
        };
        let a = Floorplan::builder(&device()).build().unwrap();
        let b = Floorplan::builder(&device()).build().unwrap();
        assert!(compatible(&a, &b));
        // A full-die partition of the same device is NOT compatible.
        let coarse = Floorplan::builder(&device())
            .block_rows(300)
            .build()
            .unwrap();
        assert!(!compatible(&a, &coarse));
        // A different device with a different column mix is not compatible.
        let other = Floorplan::builder(&DeviceModel::vu13p()).build().unwrap();
        assert!(!compatible(&a, &other));
    }

    #[test]
    fn regions_cover_comm_and_service() {
        let plan = Floorplan::builder(&device()).build().unwrap();
        let kinds: Vec<_> = plan.reserved_regions().iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RegionKind::Communication));
        assert!(kinds.contains(&RegionKind::Service));
    }
}
