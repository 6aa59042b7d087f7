//! Compiler configuration.

use crate::placer::PlacerConfig;
use vital_fabric::{DeviceModel, Floorplan, Resources};
use vital_interface::InterfaceConfig;

use crate::pnr::PnrConfig;

/// Configuration of the six-step compilation flow.
///
/// The defaults target the paper's platform: an XCVU37P partitioned by the
/// optimal floorplan of §5.3, with the block fill margin calibrated to the
/// paper's Table 2 block counts (~30 % effective LUT fill, which is the
/// routability/packing headroom commercial P&R needs inside a partially
/// reconfigurable region).
#[derive(Debug, Clone)]
pub struct CompilerConfig {
    /// Resources of one physical (and hence virtual) block.
    pub block_resources: Resources,
    /// Effective fill margin when sizing the virtual-block allocation.
    pub fill_margin: f64,
    /// The §4 partition engine's parameters.
    pub placer: PlacerConfig,
    /// Channel-planning parameters for the latency-insensitive interface.
    pub interface: InterfaceConfig,
    /// Local place-and-route effort.
    pub pnr: PnrConfig,
    /// Worker threads for step 4 (per-block local P&R): `0` uses the
    /// machine's available parallelism, `1` forces the serial path. The
    /// produced bitstream is bit-identical for every worker count because
    /// each block's P&R is seeded independently (`pnr.seed ^ block`).
    pub workers: usize,
}

impl CompilerConfig {
    /// The virtual-block capacity the partitioner targets: general fabric
    /// at `fill_margin`, hard DSP/BRAM columns at their own fill factors
    /// (see [`Resources::block_fill`]).
    pub fn effective_block_capacity(&self) -> Resources {
        self.block_resources.block_fill(self.fill_margin)
    }

    /// The worker count step 4 actually runs with when placing `blocks`
    /// virtual blocks: the configured [`workers`](Self::workers) (or the
    /// machine's available parallelism for `0`), capped at the number of
    /// blocks and never below one.
    pub(crate) fn effective_workers(&self, blocks: usize) -> usize {
        let configured = match self.workers {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        configured.min(blocks).max(1)
    }
}

impl Default for CompilerConfig {
    fn default() -> Self {
        let device = DeviceModel::xcvu37p();
        let plan = Floorplan::optimal_for(&device)
            .expect("the built-in XCVU37P model always has a feasible floorplan");
        CompilerConfig {
            block_resources: plan.block_resources(),
            fill_margin: 0.33,
            placer: PlacerConfig::default(),
            interface: InterfaceConfig::default(),
            pnr: PnrConfig::default(),
            workers: 0,
        }
    }
}

#[cfg(test)]
impl CompilerConfig {
    /// Configuration for a specific device floorplan.
    pub(crate) fn for_floorplan(plan: &Floorplan) -> Self {
        CompilerConfig {
            block_resources: plan.block_resources(),
            ..CompilerConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_block() {
        let cfg = CompilerConfig::default();
        assert_eq!(cfg.block_resources.lut, 79_200);
        let eff = cfg.effective_block_capacity();
        assert!(eff.lut > 20_000 && eff.lut < 30_000);
    }

    #[test]
    fn effective_workers_is_capped_and_positive() {
        let cfg = CompilerConfig {
            workers: 8,
            ..CompilerConfig::default()
        };
        assert_eq!(cfg.effective_workers(3), 3);
        assert_eq!(cfg.effective_workers(100), 8);
        assert_eq!(cfg.effective_workers(0), 1);
        let serial = CompilerConfig {
            workers: 1,
            ..CompilerConfig::default()
        };
        assert_eq!(serial.effective_workers(64), 1);
        let auto = CompilerConfig::default();
        assert!(auto.effective_workers(64) >= 1);
    }

    #[test]
    fn for_floorplan_copies_block_resources() {
        let device = DeviceModel::xcvu37p();
        let plan = Floorplan::optimal_for(&device).unwrap();
        let cfg = CompilerConfig::for_floorplan(&plan);
        assert_eq!(cfg.block_resources, plan.block_resources());
    }
}
