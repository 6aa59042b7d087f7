//! The static accelerator template: a pool of identical compute tiles.

use serde::{Deserialize, Serialize};

/// Post-P&R clock of the template, matched to the DNN suite's ~265 MHz
/// (`vital-workloads::DnnBenchmark::throughput_ops` uses the same clock).
const TEMPLATE_CLOCK_HZ: f64 = 265.0e6;

/// DSPs per template tile: the Table 2 suite's per-tile DSP counts span
/// 42–52, so the shared template provisions the suite median. Calibration
/// error against any one benchmark is bounded by (52-48)/48 ≈ 8 %.
const TEMPLATE_TILE_DSP: u64 = 48;

/// The static multi-tile accelerator template flashed once per FPGA.
///
/// Unlike ViTAL's per-tenant bitstreams, the template never changes at
/// runtime: tenants differ only in which instruction stream each tile
/// executes. The template is calibrated so one tile matches one ViTAL
/// virtual block at the 33 % routability fill, keeping ISA-vs-fabric
/// comparisons silicon-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IsaTemplate {
    tiles: usize,
    tile_dsp: u64,
    clock_hz: f64,
}

impl IsaTemplate {
    /// A template with `tiles` compute tiles at the paper calibration.
    pub fn new(tiles: usize) -> Self {
        IsaTemplate {
            tiles,
            tile_dsp: TEMPLATE_TILE_DSP,
            clock_hz: TEMPLATE_CLOCK_HZ,
        }
    }

    /// The paper-cluster-equivalent pool: 60 tiles, matching the 4 FPGAs ×
    /// 15 virtual blocks of `ClusterConfig::paper_cluster` one-for-one.
    pub fn paper_pool() -> Self {
        IsaTemplate::new(60)
    }

    /// Number of compute tiles in the pool.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Peak rate of one tile in MAC ops/s (two MACs per DSP per cycle,
    /// the same model `DnnBenchmark::throughput_ops` uses).
    pub(crate) fn tile_ops_per_s(&self) -> f64 {
        self.tile_dsp as f64 * 2.0 * self.clock_hz
    }

    /// Aggregate rate of a tenant owning `tiles` tiles, in ops/s.
    pub(crate) fn tenant_ops_per_s(&self, tiles: usize) -> f64 {
        tiles as f64 * self.tile_ops_per_s()
    }
}

#[cfg(test)]
impl IsaTemplate {
    /// DSPs per tile.
    pub(crate) fn tile_dsp(&self) -> u64 {
        self.tile_dsp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_fabric::Resources;
    use vital_workloads::{benchmarks, Size};

    /// LUTs per template tile (suite average of Table 2's tile LUT budgets).
    const TEMPLATE_TILE_LUT: u64 = 25_000;

    /// BRAM kilobits per template tile.
    const TEMPLATE_TILE_BRAM_KB: u64 = 2_940;

    #[test]
    fn tile_matches_one_vital_block_at_routability_fill() {
        // One template tile must fit one ViTAL virtual block at the same
        // 33 % fill the DNN sizing model uses, so the two backends compare
        // equal silicon.
        let block = Resources::new(79_200, 158_400, 580, 4_320);
        let t = IsaTemplate::paper_pool();
        let tile = Resources::new(
            TEMPLATE_TILE_LUT,
            2 * TEMPLATE_TILE_LUT,
            t.tile_dsp(),
            TEMPLATE_TILE_BRAM_KB,
        );
        assert_eq!(tile.blocks_needed(&block, 0.33), 1);
    }

    #[test]
    fn template_rate_calibrates_against_table2_throughput() {
        // A tenant owning a benchmark's natural tile count must match the
        // fabric backend's standalone throughput model within the spread
        // of per-benchmark tile DSP counts (42–52 vs the template's 48).
        let t = IsaTemplate::paper_pool();
        for b in benchmarks() {
            for s in Size::ALL {
                let tiles = b.tile_count(s) as usize;
                let isa = t.tenant_ops_per_s(tiles);
                let fabric = b.throughput_ops(s);
                let err = (isa - fabric).abs() / fabric;
                assert!(
                    err < 0.15,
                    "{} {s:?}: template {isa:.3e} vs fabric {fabric:.3e} ({:.1} % off)",
                    b.name(),
                    err * 100.0
                );
            }
        }
    }

    #[test]
    fn paper_pool_matches_cluster_block_budget() {
        assert_eq!(IsaTemplate::paper_pool().tiles(), 60);
    }
}
