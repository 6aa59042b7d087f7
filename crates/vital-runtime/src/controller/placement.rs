//! Placement: one-request decisions of the simulator's [`Scheduler`]
//! policies, claimed under one write guard, and what follows from a block
//! list alone — the binding, the primary FPGA, the reconfiguration time,
//! channel link classes, the hop cost.

use std::time::Duration;

use crate::checkpoint::TenantCheckpoint;
use vital_cluster::{ClusterView, Deployment, PendingRequest, RequestId, Scheduler, Topology};
use vital_compiler::{RelocationTarget, BLOCK_CONFIG_BITS};
use vital_fabric::{BlockAddr, FpgaId};
use vital_interface::{Channel, ChannelPlan, ChannelSpec, LinkClass};
use vital_periph::TenantId;

use super::SystemController;
use crate::{FpgaHealth, PodScheduler, RuntimeError, VitalScheduler};

/// A placement policy: one [`Scheduler::schedule`] call.
pub(super) type Policy = fn(&ClusterView, &[PendingRequest]) -> Vec<Deployment>;

/// The policy the simulator's experiments run on `topology`:
/// [`VitalScheduler`] on a ring, [`PodScheduler`] on pods (which never
/// spans pods).
pub(super) fn policy_for(topology: &Topology) -> Policy {
    if topology.pod_count() > 1 {
        |view, pending| PodScheduler::new().schedule(view, pending)
    } else {
        |view, pending| VitalScheduler::new().schedule(view, pending)
    }
}

/// Why no placement fits on `view`: capacity parked on a draining device
/// ([`RuntimeError::Draining`], a typed retry-after rejection), else a
/// full cluster ([`RuntimeError::InsufficientResources`]).
fn refusal(view: &ClusterView, needed: usize) -> RuntimeError {
    let draining = (0..view.fpga_count())
        .find(|&f| view.health_of(f) == FpgaHealth::Draining && view.vacant_count_of(f) >= needed);
    match draining {
        Some(fpga) => RuntimeError::Draining { fpga, needed },
        None => RuntimeError::InsufficientResources {
            needed,
            free: view.total_free(),
        },
    }
}

/// A placement's blocks per FPGA, as `(fpga, count)` in ascending FPGA
/// order.
fn tally(blocks: &[BlockAddr]) -> Vec<(usize, usize)> {
    let mut tally: Vec<(usize, usize)> = Vec::new();
    for b in blocks {
        let fpga = b.fpga.index() as usize;
        match tally.binary_search_by_key(&fpga, |&(f, _)| f) {
            Ok(i) => tally[i].1 += 1,
            Err(i) => tally.insert(i, (fpga, 1)),
        }
    }
    tally
}

/// The FPGA of a tally hosting the most blocks (lowest index wins ties).
fn primary(tally: &[(usize, usize)]) -> usize {
    tally
        .iter()
        .max_by_key(|&&(f, n)| (n, std::cmp::Reverse(f)))
        .map_or(0, |&(f, _)| f)
}

/// Distinct FPGAs a placement spans.
pub(super) fn fpgas_of(blocks: &[BlockAddr]) -> usize {
    tally(blocks).len()
}

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
    /// Places `needed` blocks for `tenant` and makes them its holdings,
    /// all under one write guard of the block table: the tenant's blocks
    /// on Online devices count as free (a tenant being deployed or
    /// restored holds none), the controller's policy makes a one-request
    /// decision on that view, and the decision is claimed — or, if there
    /// is none, the holdings stay and the view says why
    /// ([`RuntimeError::Draining`] or
    /// [`RuntimeError::InsufficientResources`]). Nothing can take a block
    /// between the decision and the claim.
    pub(super) fn place(
        &self,
        tenant: TenantId,
        needed: usize,
    ) -> Result<Vec<BlockAddr>, RuntimeError> {
        self.resources.place(tenant, true, |view| {
            self.decide(view, needed)
                .ok_or_else(|| refusal(view, needed))
        })
    }

    /// The blocks [`SystemController::place`] would give `tenant` now;
    /// nothing changes.
    pub(super) fn probe(&self, tenant: TenantId, needed: usize) -> Option<Vec<BlockAddr>> {
        self.resources
            .place(tenant, false, |view| self.decide(view, needed).ok_or(()))
            .ok()
    }

    /// The policy's decision for one request of `needed` blocks on `view`.
    fn decide(&self, view: &ClusterView, needed: usize) -> Option<Vec<BlockAddr>> {
        // Policies assume a request needs at least one block.
        if needed == 0 {
            return Some(Vec::new());
        }
        let pending = PendingRequest {
            id: RequestId(0),
            blocks_needed: u32::try_from(needed).unwrap_or(u32::MAX),
            arrived_s: view.now_s(),
        };
        (self.policy)(view, &[pending]).pop().map(|d| d.blocks)
    }

    /// Primary FPGA = the one hosting the most blocks (lowest index wins
    /// ties).
    pub(super) fn primary_of(blocks: &[BlockAddr]) -> usize {
        primary(&tally(blocks))
    }

    /// Per-block partial reconfiguration over the FPGA-local ICAPs
    /// (parallel across FPGAs, sequential within one).
    pub(super) fn reconfig_of(&self, blocks: &[BlockAddr]) -> Duration {
        let per_block = BLOCK_CONFIG_BITS as f64 / (self.config.icap_gbps * 1.0e9);
        let worst = tally(blocks).iter().map(|&(_, n)| n).max().unwrap_or(0);
        Duration::from_secs_f64(per_block * worst as f64)
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
        let tally = tally(blocks);
        let primary = FpgaId::new(primary(&tally) as u32);
        tally
            .iter()
            .map(|&(f, _)| self.topology.hops(primary, FpgaId::new(f as u32)))
            .sum()
    }
}
