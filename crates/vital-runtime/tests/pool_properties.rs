//! Property tests for the hardware-level tile allocator: any sequence of
//! grow/shrink/set-share/release requests keeps the pool conserving, and
//! replaying the sequence on a fresh pool reproduces identical
//! assignments (ISSUE 9 satellite).

use proptest::prelude::*;
use vital_runtime::isa::TilePool;

#[derive(Debug, Clone)]
enum Op {
    Grow { tenant: u64, n: usize },
    Shrink { tenant: u64, n: usize },
    SetShare { tenant: u64, target: usize },
    Release { tenant: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let tenant = 1u64..=6;
    prop_oneof![
        (tenant.clone(), 0usize..20).prop_map(|(tenant, n)| Op::Grow { tenant, n }),
        (tenant.clone(), 0usize..20).prop_map(|(tenant, n)| Op::Shrink { tenant, n }),
        (tenant.clone(), 0usize..20).prop_map(|(tenant, target)| Op::SetShare { tenant, target }),
        tenant.prop_map(|tenant| Op::Release { tenant }),
    ]
}

fn apply(pool: &mut TilePool, op: &Op) {
    match *op {
        Op::Grow { tenant, n } => {
            // Over-asking is a typed error and must not disturb the pool.
            let _ = pool.grow(tenant, n);
        }
        Op::Shrink { tenant, n } => {
            pool.shrink(tenant, n);
        }
        Op::SetShare { tenant, target } => {
            let _ = pool.set_share(tenant, target);
        }
        Op::Release { tenant } => {
            pool.release(tenant);
        }
    }
}

fn snapshot(pool: &TilePool) -> Vec<(u64, Vec<u32>)> {
    pool.tenants()
        .into_iter()
        .map(|t| (t, pool.assignment(t).to_vec()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reallocation_is_conserving_and_deterministic(
        total in 1usize..64,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut pool = TilePool::new(total);
        for op in &ops {
            apply(&mut pool, op);
            // Conservation holds after every single step, not just at the
            // end: free + owned tiles always sum to the pool size with no
            // tile owned twice.
            prop_assert!(pool.is_conserving(), "pool lost tiles after {op:?}");
        }

        // Replaying the same sequence on a fresh pool yields identical
        // per-tenant assignments, tile for tile.
        let mut replay = TilePool::new(total);
        for op in &ops {
            apply(&mut replay, op);
        }
        prop_assert_eq!(snapshot(&pool), snapshot(&replay));
        prop_assert_eq!(pool.free_count(), replay.free_count());
    }

    #[test]
    fn shares_never_exceed_pool(
        total in 1usize..32,
        targets in proptest::collection::vec((1u64..=4, 0usize..64), 1..20),
    ) {
        let mut pool = TilePool::new(total);
        for &(tenant, target) in &targets {
            match pool.set_share(tenant, target) {
                Ok(_) => prop_assert!(pool.assignment(tenant).len() == target),
                Err(e) => {
                    // A rejected grow leaves the previous share intact.
                    prop_assert!(e.requested > e.free);
                    prop_assert!(pool.assignment(tenant).len() < target);
                }
            }
            let owned: usize = pool
                .tenants()
                .iter()
                .map(|&t| pool.assignment(t).len())
                .sum();
            prop_assert_eq!(owned + pool.free_count(), pool.total());
        }
    }
}
