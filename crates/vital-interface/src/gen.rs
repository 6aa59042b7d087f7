//! Interface generation and resource costing (paper §3.3 step 3 and §3.5.2).
//!
//! Given the cut edges of a partitioned application, this module plans the
//! physical channels of the latency-insensitive interface and costs the
//! circuits that implement them. It also models the per-FPGA communication
//! region and the paper's buffer-elimination optimization: channels between
//! blocks on the same FPGA have deterministic latency, so their buffers can
//! be replaced by cycle-counting control logic, cutting the system-reserved
//! resources by ~82 % (§5.3).

use serde::{Deserialize, Serialize};
use vital_fabric::{Floorplan, Resources};

/// One cut edge of a partitioned netlist: traffic between two virtual
/// blocks, in bits per firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CutEdge {
    /// Producing virtual block.
    pub from_block: u32,
    /// Consuming virtual block.
    pub to_block: u32,
    /// Bits per firing crossing the boundary.
    pub bits: u64,
}

/// Whether intra-FPGA channels keep their buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BufferPolicy {
    /// Every channel endpoint gets a full FIFO (the naive design).
    BufferAll,
    /// Intra-FPGA channels use timing-counter control instead of FIFOs;
    /// only off-chip gateways (inter-die, inter-FPGA) keep buffers
    /// (the §3.5.2 optimization).
    EliminateIntraFpga,
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterfaceConfig {
    /// Maximum physical channel width in bits; wider cuts are split.
    pub max_channel_width: u32,
    /// Receiver FIFO depth in flits for buffered channels.
    pub(crate) fifo_depth: usize,
}

impl Default for InterfaceConfig {
    fn default() -> Self {
        InterfaceConfig {
            max_channel_width: 512,
            fifo_depth: 64,
        }
    }
}

/// One planned physical channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedChannel {
    /// Producing virtual block.
    pub from_block: u32,
    /// Consuming virtual block.
    pub to_block: u32,
    /// Flit width in bits.
    pub width_bits: u32,
}

/// The channel plan of one application's interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelPlan {
    channels: Vec<PlannedChannel>,
    config: InterfaceConfig,
}

impl ChannelPlan {
    /// The planned channels.
    pub fn channels(&self) -> &[PlannedChannel] {
        &self.channels
    }

    /// Number of physical channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Total bits per firing crossing block boundaries.
    pub fn total_cut_bits(&self) -> u64 {
        self.channels.iter().map(|c| u64::from(c.width_bits)).sum()
    }

    /// `true` if the block-level channel graph has no directed cycle.
    /// Placement-based partitions of deep pipelines are usually *cyclic*
    /// (stages of one block feed stages of another and vice versa), which
    /// is exactly why the interface controls user logic in a fine-grained
    /// manner instead of treating a block as one atomic stage (§3.5.1).
    pub fn is_acyclic(&self) -> bool {
        use std::collections::HashMap;
        let mut succ: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut nodes: Vec<u32> = Vec::new();
        for c in &self.channels {
            succ.entry(c.from_block).or_default().push(c.to_block);
            nodes.push(c.from_block);
            nodes.push(c.to_block);
        }
        nodes.sort_unstable();
        nodes.dedup();
        // Iterative three-colour DFS.
        let mut colour: HashMap<u32, u8> = HashMap::new(); // 0 new, 1 open, 2 done
        for &start in &nodes {
            if colour.get(&start).copied().unwrap_or(0) != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            colour.insert(start, 1);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let next = succ.get(&node).and_then(|v| v.get(*idx)).copied();
                *idx += 1;
                match next {
                    Some(child) => match colour.get(&child).copied().unwrap_or(0) {
                        0 => {
                            colour.insert(child, 1);
                            stack.push((child, 0));
                        }
                        1 => return false, // back edge
                        _ => {}
                    },
                    None => {
                        colour.insert(node, 2);
                        stack.pop();
                    }
                }
            }
        }
        true
    }

    /// The heaviest per-block boundary traffic in bits per firing — the
    /// bandwidth the block's interface must sustain (§5.4's quality metric).
    pub fn max_block_bits(&self) -> u64 {
        let max_block = self
            .channels
            .iter()
            .map(|c| c.from_block.max(c.to_block))
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0);
        let mut per_block = vec![0u64; max_block];
        for c in &self.channels {
            per_block[c.from_block as usize] += u64::from(c.width_bits);
            per_block[c.to_block as usize] += u64::from(c.width_bits);
        }
        per_block.into_iter().max().unwrap_or(0)
    }
}

/// Plans the physical channels for a set of cut edges: parallel edges
/// between the same block pair are aggregated, then split into channels of
/// at most `config.max_channel_width` bits.
pub fn plan_channels(cut_edges: &[CutEdge], config: &InterfaceConfig) -> ChannelPlan {
    use std::collections::BTreeMap;
    let mut agg: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for e in cut_edges {
        if e.from_block == e.to_block || e.bits == 0 {
            continue;
        }
        *agg.entry((e.from_block, e.to_block)).or_insert(0) += e.bits;
    }
    let mut channels = Vec::new();
    for ((from, to), mut bits) in agg {
        while bits > 0 {
            let w = bits.min(u64::from(config.max_channel_width)) as u32;
            channels.push(PlannedChannel {
                from_block: from,
                to_block: to,
                width_bits: w,
            });
            bits -= u64::from(w);
        }
    }
    ChannelPlan {
        channels,
        config: *config,
    }
}

/// Area weights used to compare heterogeneous resources as a single scalar:
/// one RAMB36 occupies roughly the silicon of a thousand LUTs, a flip-flop
/// half a LUT, a DSP slice a few dozen LUTs.
pub(crate) fn lut_equivalents(r: &Resources) -> f64 {
    r.lut as f64 + 0.5 * r.ff as f64 + (1000.0 / 36.0) * r.bram_kb as f64 + 25.0 * r.dsp as f64
}

/// Circuit cost of one buffered FIFO endpoint of `width` bits × `depth`
/// flits: shallow/narrow FIFOs map to LUT-RAM, deep/wide ones to BRAM.
fn fifo_resources(width: u32, depth: usize) -> Resources {
    let bits = u64::from(width) * depth as u64;
    let ctrl = Resources::new(40, 80, 0, 0);
    if bits <= 4096 {
        // Distributed LUT-RAM: 64 bits per LUT.
        ctrl + Resources::new(bits.div_ceil(64), 0, 0, 0)
    } else {
        ctrl + Resources::new(0, 0, 0, bits.div_ceil(36 * 1024) * 36)
    }
}

/// Circuit cost of a timing-counter endpoint (the buffer-eliminated form):
/// an arrival-time counter plus the clock-enable gate.
fn counter_resources() -> Resources {
    Resources::new(12, 24, 0, 0)
}

/// Resources consumed by one application's interface circuits under the
/// given policy, assuming (conservatively) that under
/// [`BufferPolicy::EliminateIntraFpga`] the fraction `offchip_fraction` of
/// channels crosses a chip boundary and keeps its buffers.
pub fn interface_resources(
    plan: &ChannelPlan,
    policy: BufferPolicy,
    offchip_fraction: f64,
) -> Resources {
    let n = plan.channel_count();
    let fifo = |c: &PlannedChannel| fifo_resources(c.width_bits, plan.config.fifo_depth);
    match policy {
        BufferPolicy::BufferAll => plan.channels.iter().map(fifo).sum(),
        BufferPolicy::EliminateIntraFpga => {
            let buffered = ((n as f64 * offchip_fraction).ceil() as usize).min(n);
            let mut total = Resources::ZERO;
            for (i, c) in plan.channels.iter().enumerate() {
                total += if i < buffered {
                    fifo(c)
                } else {
                    counter_resources()
                };
            }
            total
        }
    }
}

/// Static model of one FPGA's communication region: every physical block
/// exposes `ports_per_block` interface ports, and the device provides
/// `offchip_gateways` buffered endpoints toward other dies and FPGAs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommRegionModel {
    /// Physical blocks served.
    pub blocks: usize,
    /// Interface ports per block.
    pub(crate) ports_per_block: usize,
    /// Buffered off-chip gateway endpoints (inter-die lanes + ring lanes).
    pub(crate) offchip_gateways: usize,
    /// Gateway FIFO width in bits.
    pub(crate) fifo_width_bits: u32,
    /// Gateway FIFO depth in flits.
    pub(crate) fifo_depth: usize,
}

impl CommRegionModel {
    /// Derives the model from a floorplan: 6 ports per block, inter-die
    /// lanes on every die boundary (2 lanes × 2 directions) plus 4 ring
    /// lanes.
    pub fn for_floorplan(plan: &Floorplan) -> Self {
        let dies = plan
            .user_blocks()
            .iter()
            .map(|b| b.die())
            .max()
            .map(|d| d as usize + 1)
            .unwrap_or(1);
        CommRegionModel {
            blocks: plan.user_blocks().len(),
            ports_per_block: 6,
            offchip_gateways: (dies.saturating_sub(1)) * 4 + 4,
            fifo_width_bits: 512,
            fifo_depth: 64,
        }
    }

    /// Total resources of the communication region under `policy`.
    pub fn resources(&self, policy: BufferPolicy) -> Resources {
        let ports = self.blocks * self.ports_per_block;
        let fifo = fifo_resources(self.fifo_width_bits, self.fifo_depth);
        match policy {
            BufferPolicy::BufferAll => fifo * ports as u64,
            BufferPolicy::EliminateIntraFpga => {
                fifo * self.offchip_gateways as u64 + counter_resources() * ports as u64
            }
        }
    }

    /// Fractional reduction in system-reserved resources (LUT-equivalent
    /// area) achieved by the buffer-elimination optimization — the paper
    /// reports 82.3 % (§5.3).
    pub fn elimination_reduction(&self) -> f64 {
        let before = lut_equivalents(&self.resources(BufferPolicy::BufferAll));
        let after = lut_equivalents(&self.resources(BufferPolicy::EliminateIntraFpga));
        if before <= 0.0 {
            0.0
        } else {
            1.0 - after / before
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_fabric::DeviceModel;

    #[test]
    fn plan_aggregates_and_splits() {
        let cuts = [
            CutEdge {
                from_block: 0,
                to_block: 1,
                bits: 700,
            },
            CutEdge {
                from_block: 0,
                to_block: 1,
                bits: 100,
            },
            CutEdge {
                from_block: 1,
                to_block: 2,
                bits: 64,
            },
        ];
        let plan = plan_channels(&cuts, &InterfaceConfig::default());
        // 800 bits 0->1 splits into 512 + 288; 64 bits 1->2 is one channel.
        assert_eq!(plan.channel_count(), 3);
        assert_eq!(plan.total_cut_bits(), 864);
        // Block 1 touches all three channels: 512 + 288 + 64.
        assert_eq!(plan.max_block_bits(), 864);
    }

    #[test]
    fn plan_ignores_self_edges_and_zero_bits() {
        let cuts = [
            CutEdge {
                from_block: 2,
                to_block: 2,
                bits: 128,
            },
            CutEdge {
                from_block: 0,
                to_block: 1,
                bits: 0,
            },
        ];
        let plan = plan_channels(&cuts, &InterfaceConfig::default());
        assert_eq!(plan.channel_count(), 0);
        assert_eq!(plan.max_block_bits(), 0);
    }

    #[test]
    fn acyclicity_detection() {
        let chain = plan_channels(
            &[
                CutEdge {
                    from_block: 0,
                    to_block: 1,
                    bits: 8,
                },
                CutEdge {
                    from_block: 1,
                    to_block: 2,
                    bits: 8,
                },
            ],
            &InterfaceConfig::default(),
        );
        assert!(chain.is_acyclic());
        let cycle = plan_channels(
            &[
                CutEdge {
                    from_block: 0,
                    to_block: 1,
                    bits: 8,
                },
                CutEdge {
                    from_block: 1,
                    to_block: 0,
                    bits: 8,
                },
            ],
            &InterfaceConfig::default(),
        );
        assert!(!cycle.is_acyclic());
        let empty = plan_channels(&[], &InterfaceConfig::default());
        assert!(empty.is_acyclic());
    }

    #[test]
    fn elimination_reduces_app_interface_resources() {
        let cuts: Vec<CutEdge> = (0..8)
            .map(|i| CutEdge {
                from_block: i,
                to_block: i + 1,
                bits: 512,
            })
            .collect();
        let plan = plan_channels(&cuts, &InterfaceConfig::default());
        let all = interface_resources(&plan, BufferPolicy::BufferAll, 1.0);
        let opt = interface_resources(&plan, BufferPolicy::EliminateIntraFpga, 0.25);
        assert!(lut_equivalents(&opt) < lut_equivalents(&all));
    }

    #[test]
    fn comm_region_reduction_matches_paper_magnitude() {
        let device = DeviceModel::xcvu37p();
        let plan = Floorplan::optimal_for(&device).unwrap();
        let model = CommRegionModel::for_floorplan(&plan);
        let reduction = model.elimination_reduction();
        // Paper §5.3: 82.3 % reduction. Our model must land in the same
        // regime (within a few points).
        assert!(
            (0.70..=0.95).contains(&reduction),
            "reduction was {reduction}"
        );
    }

    #[test]
    fn optimized_comm_region_fits_reserved_strip() {
        let device = DeviceModel::xcvu37p();
        let plan = Floorplan::optimal_for(&device).unwrap();
        let model = CommRegionModel::for_floorplan(&plan);
        let needed = model.resources(BufferPolicy::EliminateIntraFpga);
        let reserved = plan.reserved_resources();
        assert!(
            needed.fits_within(&reserved),
            "comm region needs {needed} but only {reserved} is reserved"
        );
    }

    #[test]
    fn small_fifo_uses_lutram_large_uses_bram() {
        let small = fifo_resources(32, 64); // 2048 bits
        assert_eq!(small.bram_kb, 0);
        assert!(small.lut > 0);
        let large = fifo_resources(512, 64); // 32k bits
        assert!(large.bram_kb >= 36);
    }
}
