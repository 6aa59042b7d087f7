//! Compiled artifacts: position-independent virtual-block images and the
//! application bitstream stored in the system layer's bitstream database.

use serde::{Deserialize, Serialize};
use vital_fabric::{BlockAddr, Resources};
use vital_interface::ChannelPlan;

use crate::pnr::{LocalPlacement, RoutingResult};
use crate::{CompileError, NetlistDigest};

/// Estimated configuration bits of one physical block's partial bitstream
/// (a 60-row band of an XCVU37P is roughly 1/16 of the ~1.3 Gb full-device
/// bitstream). Drives the partial-reconfiguration latency model.
pub const BLOCK_CONFIG_BITS: u64 = 79_000_000;

/// Width of the scan data path the interface generator weaves through each
/// block's state elements. 64 state bits shift per scan clock; with scan
/// running at the block clock this sets capture/restore latency.
pub(crate) const SCAN_WIDTH_BITS: u64 = 64;

/// The state-capture chain of one virtual block (SYNERGY-style, see
/// DESIGN.md §17): during interface generation the compiler threads every
/// user register and BRAM through a scan path, so the runtime can shift the
/// block's *logical* state out (capture) or in (restore) without knowing
/// where place-and-route put anything. Sized from the netlist's actual
/// register/BRAM usage, not the block's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanChain {
    /// The virtual block this chain captures.
    pub virtual_block: u32,
    /// Flip-flop bits on the chain (one per placed register).
    pub ff_bits: u64,
    /// BRAM bits reachable through the chain's memory port mux.
    pub bram_bits: u64,
}

impl ScanChain {
    /// Total state bits this chain captures.
    pub fn total_bits(&self) -> u64 {
        self.ff_bits + self.bram_bits
    }

    /// Scan-clock cycles to shift the whole chain in or out.
    pub fn shift_cycles(&self) -> u64 {
        self.total_bits().div_ceil(SCAN_WIDTH_BITS)
    }
}

/// The application's state-capture interface: one [`ScanChain`] per virtual
/// block, recorded in the compiled image alongside the latency and channel
/// metadata. This is what makes checkpoints *portable*: the capsule stores
/// chain contents keyed by virtual block, and any bitstream compiled from
/// the same netlist digest exposes identical chains.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScanInterface {
    /// Per-virtual-block chains, dense and sorted by `virtual_block`.
    pub chains: Vec<ScanChain>,
}

impl ScanInterface {
    /// Derives the chains from per-block images: every flip-flop is one
    /// chain bit, every BRAM kilobit contributes its 1024 data bits.
    pub(crate) fn from_images(images: &[BlockImage]) -> Self {
        ScanInterface {
            chains: images
                .iter()
                .map(|img| ScanChain {
                    virtual_block: img.virtual_block,
                    ff_bits: img.resources.ff,
                    bram_bits: img.resources.bram_kb * 1024,
                })
                .collect(),
        }
    }

    /// Total state bits across all chains.
    pub fn total_bits(&self) -> u64 {
        self.chains.iter().map(ScanChain::total_bits).sum()
    }

    /// Scan cycles to capture (or restore) the whole application; chains
    /// shift in parallel, so the longest chain governs.
    pub fn shift_cycles(&self) -> u64 {
        self.chains
            .iter()
            .map(ScanChain::shift_cycles)
            .max()
            .unwrap_or(0)
    }
}

/// The compiled image of one virtual block.
///
/// The image is **position independent**: its placement refers to the site
/// indices of the (identical) physical-block geometry, so binding it to any
/// physical block is a constant-time operation — this is what the paper's
/// relocation step (§3.3 step 5) buys over recompiling for every possible
/// block (>10× compile time otherwise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockImage {
    /// The virtual block index within the application (0-based, dense).
    pub virtual_block: u32,
    /// Resources consumed by the user logic in this block.
    pub resources: Resources,
    /// Number of placed primitives.
    pub primitive_count: usize,
    /// The detailed placement onto the canonical block geometry.
    pub placement: LocalPlacement,
}

/// A physical destination for one virtual block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelocationTarget {
    /// The virtual block being bound.
    pub virtual_block: u32,
    /// The physical block receiving it.
    pub addr: BlockAddr,
}

/// The bitstream-database entry of one compiled application (paper Fig. 6):
/// a set of relocatable virtual-block images plus the interface plan that
/// connects them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppBitstream {
    name: String,
    digest: NetlistDigest,
    images: Vec<BlockImage>,
    channel_plan: ChannelPlan,
    pub(crate) routing: RoutingResult,
    achieved_mhz: f64,
    scan: ScanInterface,
}

impl AppBitstream {
    pub(crate) fn new(
        name: String,
        digest: NetlistDigest,
        images: Vec<BlockImage>,
        channel_plan: ChannelPlan,
        routing: RoutingResult,
    ) -> Self {
        let achieved_mhz = images
            .iter()
            .map(|i| i.placement.achieved_mhz)
            .fold(f64::INFINITY, f64::min)
            .min(300.0);
        let scan = ScanInterface::from_images(&images);
        AppBitstream {
            name,
            digest,
            images,
            channel_plan,
            routing,
            achieved_mhz: if achieved_mhz.is_finite() {
                achieved_mhz
            } else {
                300.0
            },
            scan,
        }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Content digest of the compile input that produced this bitstream.
    /// Equal digests mean the images are interchangeable, whatever the
    /// registered name — the key of the compile cache.
    pub fn digest(&self) -> NetlistDigest {
        self.digest
    }

    /// A copy registered under a different application name. The images
    /// are reused as-is (content addressing makes them interchangeable);
    /// no recompilation happens.
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        AppBitstream {
            name: name.into(),
            ..self.clone()
        }
    }

    /// The per-virtual-block images.
    pub fn images(&self) -> &[BlockImage] {
        &self.images
    }

    /// Number of virtual blocks the application needs.
    pub fn block_count(&self) -> usize {
        self.images.len()
    }

    /// The planned inter-block channels.
    pub fn channel_plan(&self) -> &ChannelPlan {
        &self.channel_plan
    }

    /// Post-P&R clock estimate (the slowest block governs).
    pub fn achieved_mhz(&self) -> f64 {
        self.achieved_mhz
    }

    /// The state-capture interface the compiler emitted during interface
    /// generation: one scan chain per virtual block, sized from the
    /// netlist's register and BRAM usage. Two bitstreams compiled from the
    /// same netlist digest expose identical chains even on different device
    /// geometries — the hook portable checkpoints hang off.
    pub fn scan(&self) -> &ScanInterface {
        &self.scan
    }

    /// Total resources across all blocks.
    pub fn total_resources(&self) -> Resources {
        self.images.iter().map(|i| i.resources).sum()
    }

    /// Binds every virtual block to a physical block — the runtime
    /// relocation of paper Fig. 4c. Constant work per block: no
    /// recompilation happens, only address binding, which is the entire
    /// point of the homogeneous abstraction.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::IncompatibleRelocation`] if the target list
    /// does not cover every virtual block exactly once or reuses a physical
    /// block.
    pub fn bind(&self, targets: &[RelocationTarget]) -> Result<PlacedBitstream, CompileError> {
        if targets.len() != self.images.len() {
            return Err(CompileError::IncompatibleRelocation(format!(
                "{} targets for {} virtual blocks",
                targets.len(),
                self.images.len()
            )));
        }
        let mut seen_vb = vec![false; self.images.len()];
        let mut addrs: Vec<BlockAddr> = Vec::with_capacity(targets.len());
        for t in targets {
            let vb = t.virtual_block as usize;
            if vb >= self.images.len() {
                return Err(CompileError::IncompatibleRelocation(format!(
                    "virtual block {} does not exist",
                    t.virtual_block
                )));
            }
            if seen_vb[vb] {
                return Err(CompileError::IncompatibleRelocation(format!(
                    "virtual block {} bound twice",
                    t.virtual_block
                )));
            }
            seen_vb[vb] = true;
            if addrs.contains(&t.addr) {
                return Err(CompileError::IncompatibleRelocation(format!(
                    "physical block {} bound twice",
                    t.addr
                )));
            }
            addrs.push(t.addr);
        }
        Ok(PlacedBitstream {
            app: self.name.clone(),
            bindings: targets.to_vec(),
        })
    }
}

/// A bitstream bound to concrete physical blocks, ready for partial
/// reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedBitstream {
    /// The application name.
    pub app: String,
    /// One binding per virtual block.
    pub bindings: Vec<RelocationTarget>,
}

impl PlacedBitstream {
    /// The physical blocks this deployment occupies.
    pub fn addresses(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.bindings.iter().map(|b| b.addr)
    }

    /// Distinct FPGAs touched by the deployment.
    pub fn fpga_count(&self) -> usize {
        let mut fpgas: Vec<_> = self.bindings.iter().map(|b| b.addr.fpga).collect();
        fpgas.sort_unstable();
        fpgas.dedup();
        fpgas.len()
    }
}

#[cfg(test)]
impl ScanInterface {
    /// The chain of one virtual block, if it exists.
    pub(crate) fn chain(&self, virtual_block: u32) -> Option<&ScanChain> {
        self.chains
            .iter()
            .find(|c| c.virtual_block == virtual_block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pnr::RoutingResult;
    use vital_fabric::{FpgaId, PhysicalBlockId};
    use vital_interface::{plan_channels, InterfaceConfig};

    fn two_block_bitstream() -> AppBitstream {
        let image = |vb: u32| BlockImage {
            virtual_block: vb,
            resources: Resources::new(100, 200, 1, 36),
            primitive_count: 10,
            placement: LocalPlacement {
                site_of: Vec::new(),
                wirelength: 0.0,
                initial_wirelength: 0.0,
                max_edge: 0.0,
                achieved_mhz: 250.0,
            },
        };
        AppBitstream::new(
            "t".into(),
            NetlistDigest::from_raw(0x7e57),
            vec![image(0), image(1)],
            plan_channels(&[], &InterfaceConfig::default()),
            RoutingResult {
                lane_of: Vec::new(),
                peak_lane_utilization: 0.0,
                global: crate::route::GlobalRouting {
                    routed: Vec::new(),
                    max_edge_load_bits: 0,
                    edge_capacity_bits: 2048,
                    iterations: 0,
                    converged: true,
                    wirelength_bit_hops: 0,
                },
            },
        )
    }

    fn addr(f: u32, b: u32) -> BlockAddr {
        BlockAddr::new(FpgaId::new(f), PhysicalBlockId::new(b))
    }

    #[test]
    fn bind_accepts_valid_targets_on_any_blocks() {
        let bs = two_block_bitstream();
        // Relocation freedom: any physical blocks, even on different FPGAs.
        let placed = bs
            .bind(&[
                RelocationTarget {
                    virtual_block: 0,
                    addr: addr(0, 14),
                },
                RelocationTarget {
                    virtual_block: 1,
                    addr: addr(2, 3),
                },
            ])
            .unwrap();
        assert_eq!(placed.fpga_count(), 2);
    }

    #[test]
    fn bind_rejects_wrong_count() {
        let bs = two_block_bitstream();
        assert!(bs
            .bind(&[RelocationTarget {
                virtual_block: 0,
                addr: addr(0, 0),
            }])
            .is_err());
    }

    #[test]
    fn bind_rejects_duplicate_virtual_or_physical() {
        let bs = two_block_bitstream();
        let dup_vb = [
            RelocationTarget {
                virtual_block: 0,
                addr: addr(0, 0),
            },
            RelocationTarget {
                virtual_block: 0,
                addr: addr(0, 1),
            },
        ];
        assert!(bs.bind(&dup_vb).is_err());
        let dup_pb = [
            RelocationTarget {
                virtual_block: 0,
                addr: addr(0, 0),
            },
            RelocationTarget {
                virtual_block: 1,
                addr: addr(0, 0),
            },
        ];
        assert!(bs.bind(&dup_pb).is_err());
    }

    #[test]
    fn bind_rejects_unknown_virtual_block() {
        let bs = two_block_bitstream();
        assert!(bs
            .bind(&[
                RelocationTarget {
                    virtual_block: 0,
                    addr: addr(0, 0),
                },
                RelocationTarget {
                    virtual_block: 7,
                    addr: addr(0, 1),
                },
            ])
            .is_err());
    }

    #[test]
    fn aggregates() {
        let bs = two_block_bitstream();
        assert_eq!(bs.block_count(), 2);
        assert_eq!(bs.total_resources().lut, 200);
        assert_eq!(bs.achieved_mhz(), 250.0);
    }

    #[test]
    fn scan_chains_are_sized_from_register_and_bram_usage() {
        let bs = two_block_bitstream();
        let scan = bs.scan();
        assert_eq!(scan.chains.len(), 2);
        let chain = scan.chain(0).expect("block 0 has a chain");
        // 200 flip-flops + 36 Kb of BRAM from the fixture's Resources.
        assert_eq!(chain.ff_bits, 200);
        assert_eq!(chain.bram_bits, 36 * 1024);
        assert_eq!(chain.total_bits(), 200 + 36 * 1024);
        assert_eq!(scan.total_bits(), 2 * (200 + 36 * 1024));
        // Chains shift in parallel: app latency is the longest chain.
        assert_eq!(scan.shift_cycles(), chain.shift_cycles());
        assert_eq!(
            chain.shift_cycles(),
            (200u64 + 36 * 1024).div_ceil(SCAN_WIDTH_BITS)
        );
        assert!(scan.chain(7).is_none());
    }
}
