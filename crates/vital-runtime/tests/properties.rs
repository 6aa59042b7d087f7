//! Property-based tests of the system layer: the allocation policy and the
//! resource database must uphold ViTAL's isolation and accounting
//! invariants under arbitrary request sequences.

use proptest::prelude::*;
use vital_cluster::Topology;
use vital_fabric::{BlockAddr, FpgaId, PhysicalBlockId};
use vital_periph::TenantId;
use vital_runtime::{allocate_blocks_on, ResourceDatabase};

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

/// A randomized claim/release schedule against the resource database.
#[derive(Debug, Clone)]
enum DbOp {
    Claim { tenant: u64, blocks: Vec<(u8, u8)> },
    Release { tenant: u64 },
}

fn arb_db_op() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        (0u64..6, prop::collection::vec((0u8..4, 0u8..8), 1..6))
            .prop_map(|(tenant, blocks)| DbOp::Claim { tenant, blocks }),
        (0u64..6).prop_map(|tenant| DbOp::Release { tenant }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any schedule: free + held always equals the cluster size, no
    /// block is ever held by two tenants, and claims are all-or-nothing.
    #[test]
    fn resource_db_conservation(ops in prop::collection::vec(arb_db_op(), 1..40)) {
        let db = ResourceDatabase::new(4, 8);
        let total = 32usize;
        let mut live: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                DbOp::Claim { tenant, blocks } => {
                    let addrs: Vec<BlockAddr> = blocks
                        .iter()
                        .map(|&(f, b)| BlockAddr::new(
                            FpgaId::new(u32::from(f)),
                            PhysicalBlockId::new(u32::from(b)),
                        ))
                        .collect();
                    let t = TenantId::new(tenant);
                    let before_free = db.total_free();
                    let before_held = db.holdings(t).len();
                    if db.claim(t, &addrs) {
                        prop_assert_eq!(db.total_free(), before_free - addrs.len());
                        if !live.contains(&tenant) {
                            live.push(tenant);
                        }
                    } else {
                        // All-or-nothing: nothing changed.
                        prop_assert_eq!(db.total_free(), before_free);
                        prop_assert_eq!(db.holdings(t).len(), before_held);
                    }
                }
                DbOp::Release { tenant } => {
                    let t = TenantId::new(tenant);
                    let held = db.holdings(t).len();
                    let before_free = db.total_free();
                    let released = db.release(t);
                    prop_assert_eq!(released.len(), held);
                    prop_assert_eq!(db.total_free(), before_free + held);
                    live.retain(|&x| x != tenant);
                }
            }
            // Global conservation and exclusivity.
            let held_total: usize = (0..6)
                .map(|t| db.holdings(TenantId::new(t)).len())
                .sum();
            prop_assert_eq!(db.total_free() + held_total, total);
            let mut all_held: Vec<BlockAddr> = (0..6)
                .flat_map(|t| db.holdings(TenantId::new(t)))
                .collect();
            let n = all_held.len();
            all_held.sort_unstable();
            all_held.dedup();
            prop_assert_eq!(all_held.len(), n, "a block is held twice");
        }
    }
}
