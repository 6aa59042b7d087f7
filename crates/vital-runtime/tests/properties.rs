//! Property-based tests of the system layer: the allocation policy and the
//! resource database must uphold ViTAL's isolation and accounting
//! invariants under arbitrary request sequences.

use proptest::prelude::*;
use vital_cluster::Topology;
use vital_fabric::{BlockAddr, FpgaId, PhysicalBlockId};
use vital_runtime::allocate_blocks_on;

fn free_lists_from(counts: &[usize]) -> Vec<Vec<BlockAddr>> {
    counts
        .iter()
        .enumerate()
        .map(|(f, &n)| {
            (0..n)
                .map(|b| BlockAddr::new(FpgaId::new(f as u32), PhysicalBlockId::new(b as u32)))
                .collect()
        })
        .collect()
}

proptest! {
    /// The multi-round policy allocates exactly `needed` distinct free
    /// blocks whenever the cluster has them, uses one FPGA when any single
    /// FPGA suffices, and reports the exact FPGA count it used.
    #[test]
    fn allocation_invariants(
        counts in prop::collection::vec(0usize..16, 1..6),
        needed in 0usize..40,
    ) {
        let free_lists = free_lists_from(&counts);
        let total: usize = counts.iter().sum();
        match allocate_blocks_on(&Topology::ring(counts.len()), &free_lists, needed) {
            Some(out) => {
                prop_assert!(needed <= total);
                prop_assert_eq!(out.blocks.len(), needed);
                // Distinct blocks, all from the free lists.
                let mut seen = out.blocks.clone();
                seen.sort_unstable();
                seen.dedup();
                prop_assert_eq!(seen.len(), needed);
                for b in &out.blocks {
                    prop_assert!(free_lists[b.fpga.index() as usize].contains(b));
                }
                // Round-1 guarantee.
                if needed > 0 && counts.iter().any(|&c| c >= needed) {
                    prop_assert_eq!(out.fpgas_used, 1);
                }
                // Reported FPGA count matches the blocks.
                let mut fpgas: Vec<_> = out.blocks.iter().map(|b| b.fpga).collect();
                fpgas.sort_unstable();
                fpgas.dedup();
                prop_assert_eq!(out.fpgas_used, if needed == 0 { 0 } else { fpgas.len() });
            }
            None => prop_assert!(needed > total),
        }
    }
}
