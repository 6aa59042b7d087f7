//! Placement: planning and claiming blocks through the §3.4 allocator,
//! and what follows from a block list alone — the binding, the primary
//! FPGA, the reconfiguration time, channel link classes, the hop cost.

use std::collections::HashMap;
use std::time::Duration;

use vital_checkpoint::TenantCheckpoint;
use vital_compiler::{RelocationTarget, BLOCK_CONFIG_BITS};
use vital_fabric::{BlockAddr, FpgaId};
use vital_interface::{Channel, ChannelPlan, ChannelSpec, LinkClass};
use vital_periph::TenantId;

use super::SystemController;
use crate::{allocate_blocks_on, AllocationOutcome, FpgaHealth, RuntimeError};

/// How many times [`SystemController::place`] plans one placement before
/// giving up: each further attempt means yet another concurrent request
/// took a planned block in the microseconds between plan and claim.
const PLACE_ATTEMPTS: usize = 8;

/// The binding of a placement: virtual block `i` lands on `blocks[i]`.
pub(super) fn targets_for(blocks: &[BlockAddr]) -> Vec<RelocationTarget> {
    blocks
        .iter()
        .enumerate()
        .map(|(vb, &addr)| RelocationTarget {
            virtual_block: vb as u32,
            addr,
        })
        .collect()
}

impl SystemController {
    /// Plans `needed` blocks for `tenant` with the §3.4 allocator and makes
    /// them its holdings. Blocks the tenant already holds on Online
    /// devices count as free for the plan and are released by the commit
    /// (a tenant being deployed or restored holds none).
    ///
    /// Plan and claim are two steps under two lock acquisitions, so a
    /// concurrent request can take a planned block in between. That lost
    /// claim is not the cluster being full: the old holdings are restored
    /// and the plan is made again over the new free lists. On failure the
    /// allocator's verdict tells a genuinely full cluster
    /// ([`RuntimeError::InsufficientResources`]) apart from capacity
    /// parked on a [`Draining`](FpgaHealth::Draining) device
    /// ([`RuntimeError::Draining`], a typed retry-after rejection).
    pub(super) fn place(
        &self,
        tenant: TenantId,
        needed: usize,
    ) -> Result<AllocationOutcome, RuntimeError> {
        for _ in 0..PLACE_ATTEMPTS {
            let (free_lists, held) = self.free_lists_for(tenant);
            let Some(alloc) = allocate_blocks_on(&self.topology, &free_lists, needed) else {
                break;
            };
            self.resources.release(tenant);
            if self.resources.claim(tenant, &alloc.blocks) {
                return Ok(alloc);
            }
            self.telemetry.inc_counter("runtime.claim_replans", 1);
            let _ = self.resources.claim(tenant, &held);
        }
        let draining = (0..self.resources.fpga_count()).find(|&f| {
            self.resources.health_of(f) == FpgaHealth::Draining
                && self.resources.idle_count_of(f) >= needed
        });
        Err(match draining {
            Some(fpga) => RuntimeError::Draining { fpga, needed },
            None => RuntimeError::InsufficientResources {
                needed,
                free: self.resources.total_free(),
            },
        })
    }

    /// What the allocator may give `tenant`: every device's free blocks
    /// plus the blocks the tenant itself holds on Online devices (also
    /// returned on their own).
    pub(super) fn free_lists_for(&self, tenant: TenantId) -> (Vec<Vec<BlockAddr>>, Vec<BlockAddr>) {
        let mut free_lists: Vec<_> = (0..self.resources.fpga_count())
            .map(|f| self.resources.free_blocks_of(f))
            .collect();
        let mut held = self.resources.holdings(tenant);
        held.retain(|b| self.resources.health_of(b.fpga.index() as usize) == FpgaHealth::Online);
        for b in &held {
            free_lists[b.fpga.index() as usize].push(*b);
        }
        if !held.is_empty() {
            for l in &mut free_lists {
                l.sort();
            }
        }
        (free_lists, held)
    }

    /// Primary FPGA = the one hosting the most blocks (lowest index wins
    /// ties).
    pub(super) fn primary_of(blocks: &[BlockAddr]) -> usize {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for b in blocks {
            *counts.entry(b.fpga.index() as usize).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(f, n)| (n, std::cmp::Reverse(f)))
            .map(|(f, _)| f)
            .unwrap_or(0)
    }

    /// Per-block partial reconfiguration over the FPGA-local ICAPs
    /// (parallel across FPGAs, sequential within one).
    pub(super) fn reconfig_of(&self, blocks: &[BlockAddr]) -> Duration {
        let per_block = BLOCK_CONFIG_BITS as f64 / (self.config.icap_gbps * 1.0e9);
        let mut per_fpga: HashMap<u32, u32> = HashMap::new();
        for b in blocks {
            *per_fpga.entry(b.fpga.index()).or_insert(0) += 1;
        }
        let worst = per_fpga.values().copied().max().unwrap_or(0);
        Duration::from_secs_f64(per_block * f64::from(worst))
    }

    /// The link class a channel between two virtual blocks rides on under
    /// a placement: same FPGA → on-chip, different FPGAs → the ring. (The
    /// finer intra/inter-die distinction is the interface planner's
    /// concern; the runtime channel model keys on the FPGA boundary, which
    /// is what changes under migration.)
    fn link_class_of(blocks: &[BlockAddr], from: u32, to: u32) -> LinkClass {
        match (blocks.get(from as usize), blocks.get(to as usize)) {
            (Some(a), Some(b)) if a.fpga != b.fpga => LinkClass::InterFpga,
            _ => LinkClass::IntraDie,
        }
    }

    /// Builds idle live channels for a placement from the application's
    /// channel plan.
    pub(super) fn channels_for(plan: &ChannelPlan, blocks: &[BlockAddr]) -> Vec<Channel> {
        plan.channels()
            .iter()
            .map(|pc| {
                let link = Self::link_class_of(blocks, pc.from_block, pc.to_block);
                Channel::new(ChannelSpec::for_link(link, pc.width_bits.max(1)))
            })
            .collect()
    }

    /// Rebuilds a capsule's channels on a new placement, with the clock
    /// they resume at: the interface timeline continues past the longest
    /// drain so every restored flit keeps its age.
    pub(super) fn restored_channels(
        checkpoint: &TenantCheckpoint,
        blocks: &[BlockAddr],
    ) -> (Vec<Channel>, u64) {
        let clock = checkpoint.placement.clock
            + checkpoint
                .channels
                .iter()
                .map(|c| c.snapshot.drain_cycles)
                .max()
                .unwrap_or(0);
        let channels = checkpoint
            .channels
            .iter()
            .map(|cc| {
                let link = Self::link_class_of(blocks, cc.from_block, cc.to_block);
                if link == cc.snapshot.spec.link {
                    Channel::restore(&cc.snapshot, clock)
                } else {
                    // The placement changed the boundary the channel
                    // crosses: re-derive the spec, transplant the state.
                    let mut snap = cc.snapshot.clone();
                    snap.spec = ChannelSpec::for_link(link, snap.spec.width_bits.max(1));
                    Channel::restore(&snap, clock)
                }
            })
            .collect();
        (channels, clock)
    }

    /// Total ring-hop distance from every spanned FPGA to the placement's
    /// primary (0 for single-FPGA placements).
    pub(super) fn placement_hop_cost(&self, blocks: &[BlockAddr]) -> usize {
        if blocks.is_empty() {
            return 0;
        }
        let primary = Self::primary_of(blocks) as u32;
        let mut fpgas: Vec<u32> = blocks.iter().map(|b| b.fpga.index()).collect();
        fpgas.sort_unstable();
        fpgas.dedup();
        fpgas
            .into_iter()
            .filter(|&f| f != primary)
            .map(|f| self.topology.hops(FpgaId::new(primary), FpgaId::new(f)))
            .sum()
    }
}
