//! Comparison systems for the paper's evaluation (§5.2, §6.2):
//!
//! * [`PerDeviceBaseline`] — the management method of existing FPGA clouds
//!   (e.g. AWS F1): one physical FPGA allocated *exhaustively* to one
//!   application, programmed with a full-device bitstream (paper Fig. 2a).
//! * [`AmorphOsLowLatency`] — the slot-based method (paper Fig. 2b):
//!   FPGAs are split into fixed-size slots; an application occupies a whole
//!   slot regardless of its real size (internal fragmentation), and
//!   applications larger than a slot take the whole device.
//! * [`AmorphOsHighThroughput`] — AmorphOS's high-throughput mode (paper
//!   Fig. 2c): multiple applications are combined into one full-device
//!   image, achieving fine-grained sharing *within* one FPGA, but (a) every
//!   deployment reprograms the whole device, pausing co-runners, (b) no
//!   application can span FPGAs, and (c) every application combination must
//!   be compiled offline — [`count_feasible_combinations`] models that
//!   compile-time explosion (§5.4 mentions "hundreds of combinations").
//! * [`IsaElastic`] — instruction-level virtualization (the Tsinghua
//!   FCCM'20 design, [`crate::isa`]): a static accelerator template whose
//!   compute tiles switch tenants by instruction-stream pointer, so
//!   capacity changes cost micro-seconds and the policy time-slices on a
//!   quantum 50× finer than ViTAL's.
//!
//! All of these implement [`vital_cluster::Scheduler`] so they run on the
//! same discrete-event simulator as ViTAL's policy.

use vital_cluster::{ClusterView, Deployment, PendingRequest, ReconfigKind, Scheduler};
use vital_fabric::BlockAddr;

/// The existing-cloud baseline: whole-FPGA exhaustive allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerDeviceBaseline;

impl PerDeviceBaseline {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        PerDeviceBaseline
    }
}

impl Scheduler for PerDeviceBaseline {
    fn name(&self) -> &str {
        "per-device-baseline"
    }

    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        let mut out = Vec::new();
        let mut idle: Vec<usize> = (0..view.fpga_count())
            .filter(|&f| view.fpga_idle(f))
            .collect();
        for p in pending {
            // Every request gets a whole device, however small the app is.
            let Some(f) = idle.pop() else { break };
            out.push(Deployment {
                request: p.request.id,
                blocks: view.free_blocks_of(f),
                reconfig: ReconfigKind::FullDevice,
            });
        }
        out
    }
}

/// The slot-based method (including AmorphOS's low-latency mode).
#[derive(Debug, Clone, Copy)]
pub struct AmorphOsLowLatency {
    slots_per_fpga: usize,
}

impl AmorphOsLowLatency {
    /// Creates the policy with the conventional two slots per FPGA.
    pub fn new() -> Self {
        AmorphOsLowLatency { slots_per_fpga: 2 }
    }

    fn slot_blocks(&self, blocks_per_fpga: usize) -> usize {
        blocks_per_fpga.div_ceil(self.slots_per_fpga)
    }
}

impl Default for AmorphOsLowLatency {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for AmorphOsLowLatency {
    fn name(&self) -> &str {
        "amorphos-low-latency"
    }

    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        let mut out = Vec::new();
        // Track blocks consumed by this pass.
        let mut taken: Vec<Vec<BlockAddr>> = (0..view.fpga_count())
            .map(|f| view.free_blocks_of(f))
            .collect();
        for p in pending {
            let need = p.request.blocks_needed as usize;
            let max_slot = (0..view.fpga_count())
                .map(|f| self.slot_blocks(view.blocks_per_fpga_of(f)))
                .max()
                .unwrap_or(0);
            if need > max_slot {
                // Larger than a slot: needs the whole device.
                if let Some(f) = (0..view.fpga_count())
                    .find(|&f| view.fpga_idle(f) && taken[f].len() == view.blocks_per_fpga_of(f))
                {
                    out.push(Deployment {
                        request: p.request.id,
                        blocks: std::mem::take(&mut taken[f]),
                        reconfig: ReconfigKind::FullDevice,
                    });
                }
                continue;
            }
            // One whole slot, aligned to slot boundaries: the app gets
            // slot_size blocks even if it needs fewer (internal
            // fragmentation of the slot-based method).
            #[allow(clippy::needless_range_loop)] // `f` indexes both the view and `taken`
            'fpga: for f in 0..view.fpga_count() {
                let blocks_here = view.blocks_per_fpga_of(f);
                let slot_size = self.slot_blocks(blocks_here.max(1));
                for s in 0..self.slots_per_fpga {
                    let lo = s * slot_size;
                    let hi = (lo + slot_size).min(blocks_here);
                    if hi - lo < need {
                        continue;
                    }
                    let slot_addrs: Vec<BlockAddr> = taken[f]
                        .iter()
                        .copied()
                        .filter(|b| {
                            let i = b.block.index() as usize;
                            i >= lo && i < hi
                        })
                        .collect();
                    if slot_addrs.len() == hi - lo {
                        taken[f].retain(|b| !slot_addrs.contains(b));
                        out.push(Deployment {
                            request: p.request.id,
                            blocks: slot_addrs,
                            reconfig: ReconfigKind::PartialPerBlock,
                        });
                        break 'fpga;
                    }
                }
            }
        }
        out
    }
}

/// AmorphOS's high-throughput mode: fine-grained sharing on one FPGA via
/// offline-combined full-device images.
#[derive(Debug, Clone, Copy, Default)]
pub struct AmorphOsHighThroughput;

impl AmorphOsHighThroughput {
    /// Creates the policy.
    pub fn new() -> Self {
        AmorphOsHighThroughput
    }
}

impl Scheduler for AmorphOsHighThroughput {
    fn name(&self) -> &str {
        "amorphos-high-throughput"
    }

    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        let mut out = Vec::new();
        let mut free: Vec<Vec<BlockAddr>> = (0..view.fpga_count())
            .map(|f| view.free_blocks_of(f))
            .collect();
        for p in pending {
            let need = p.request.blocks_needed as usize;
            // Best fit on a single FPGA — combining with whatever already
            // runs there. No multi-FPGA support: requests larger than any
            // single FPGA's free space wait.
            let best = (0..free.len())
                .filter(|&f| free[f].len() >= need)
                .min_by_key(|&f| free[f].len());
            let Some(f) = best else { continue };
            let blocks: Vec<BlockAddr> = free[f].drain(..need).collect();
            out.push(Deployment {
                request: p.request.id,
                blocks,
                // The combined image is a full-device bitstream: deploying
                // it disturbs the co-running applications on that FPGA.
                reconfig: ReconfigKind::FullDevice,
            });
        }
        out
    }
}

/// ISA-level virtualization (the Tsinghua FCCM'20 design reproduced by
/// [`crate::isa`]), expressed as a cluster scheduling policy so it runs
/// head-to-head with ViTAL on the same discrete-event simulator.
///
/// The fabric holds a static accelerator template, so each "block" is a
/// resident compute tile: deployments carry
/// [`ReconfigKind::Instruction`] (micro-second stream-pointer switches
/// instead of millisecond partial reconfiguration) and the policy
/// declares a fine time-slicing quantum — preemption is cheap when a
/// capacity change costs µs, which is exactly the elasticity argument
/// the `fig_isa_elastic` bench quantifies.
#[derive(Debug, Clone, Copy)]
pub struct IsaElastic {
    quantum_s: f64,
}

/// Default ISA scheduling quantum (10 ms): three orders of magnitude
/// finer than ViTAL's 0.5 s slice because switching costs µs, not ms.
pub(crate) const ISA_QUANTUM_S: f64 = 0.01;

impl IsaElastic {
    /// Creates the policy with the default 10 ms quantum.
    pub fn new() -> Self {
        IsaElastic {
            quantum_s: ISA_QUANTUM_S,
        }
    }

    /// Creates the policy with an explicit quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum_s` is not positive.
    pub fn with_quantum(quantum_s: f64) -> Self {
        assert!(quantum_s > 0.0, "quantum must be positive");
        IsaElastic { quantum_s }
    }
}

impl Default for IsaElastic {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for IsaElastic {
    fn name(&self) -> &str {
        "isa-elastic"
    }

    fn quantum_s(&self) -> Option<f64> {
        Some(self.quantum_s)
    }

    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        let mut out = Vec::new();
        let mut free: Vec<Vec<BlockAddr>> = (0..view.fpga_count())
            .map(|f| view.free_blocks_of(f))
            .collect();
        for p in pending {
            let need = p.request.blocks_needed as usize;
            // Best fit on a single FPGA first (tiles sharing a device share
            // the template's on-chip interconnect)...
            if let Some(f) = (0..free.len())
                .filter(|&f| free[f].len() >= need)
                .min_by_key(|&f| free[f].len())
            {
                let blocks: Vec<BlockAddr> = free[f].drain(..need).collect();
                out.push(Deployment {
                    request: p.request.id,
                    blocks,
                    reconfig: ReconfigKind::Instruction,
                });
                continue;
            }
            // ...otherwise span: every FPGA runs the same template, so an
            // instruction stream can tile across devices.
            let total_free: usize = free.iter().map(Vec::len).sum();
            if total_free < need {
                continue;
            }
            let mut blocks = Vec::with_capacity(need);
            for f in free.iter_mut() {
                let take = (need - blocks.len()).min(f.len());
                blocks.extend(f.drain(..take));
                if blocks.len() == need {
                    break;
                }
            }
            out.push(Deployment {
                request: p.request.id,
                blocks,
                reconfig: ReconfigKind::Instruction,
            });
        }
        out
    }
}

/// Counts the application combinations AmorphOS's high-throughput mode must
/// compile offline: subsets of the library (each app at most once, up to
/// `max_apps` co-residents) whose combined block demand fits one FPGA.
///
/// The count is capped at `u64::MAX` arithmetic but explodes combinatorially
/// — exactly the offline-compilation burden the paper contrasts with
/// ViTAL's one-compile-per-app (§5.4).
pub fn count_feasible_combinations(app_blocks: &[u32], capacity: u32, max_apps: usize) -> u64 {
    fn dfs(blocks: &[u32], start: usize, left: u32, depth: usize, max_depth: usize) -> u64 {
        if depth == max_depth {
            return 0;
        }
        let mut count = 0u64;
        for i in start..blocks.len() {
            if blocks[i] <= left {
                count += 1 + dfs(blocks, i + 1, left - blocks[i], depth + 1, max_depth);
            }
        }
        count
    }
    dfs(app_blocks, 0, capacity, 0, max_apps.max(1))
}
