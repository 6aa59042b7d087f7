//! Property-based tests of the resource algebra and floorplan invariants.

use proptest::prelude::*;
use vital_fabric::{DeviceModel, Floorplan, Resources};

fn arb_resources() -> impl Strategy<Value = Resources> {
    (
        0u64..1_000_000,
        0u64..2_000_000,
        0u64..10_000,
        0u64..400_000,
    )
        .prop_map(|(lut, ff, dsp, bram_kb)| Resources::new(lut, ff, dsp, bram_kb))
}

proptest! {
    /// Addition and subtraction are inverses whenever subtraction is legal.
    #[test]
    fn add_sub_roundtrip(a in arb_resources(), b in arb_resources()) {
        let sum = a + b;
        prop_assert_eq!(sum.checked_sub(&b), Some(a));
        prop_assert_eq!(sum.saturating_sub(&a), b);
    }

    /// `fits_within` is reflexive and monotone under addition.
    #[test]
    fn fits_within_monotone(a in arb_resources(), b in arb_resources()) {
        prop_assert!(a.fits_within(&a));
        prop_assert!(a.fits_within(&(a + b)));
        if !b.is_zero() {
            prop_assert!(!(a + b).fits_within(&a) || b.is_zero());
        }
    }

    /// Scaling by 1.0 is the identity; by 0.0 yields zero.
    #[test]
    fn scale_identity_and_annihilation(a in arb_resources()) {
        prop_assert_eq!(a.scale(1.0), a);
        prop_assert_eq!(a.scale(0.0), Resources::ZERO);
    }

    /// The block count is monotone in the application's demand and inversely
    /// monotone in the fill margin.
    #[test]
    fn blocks_needed_monotone(
        a in arb_resources(),
        extra in arb_resources(),
        margin in 0.1f64..1.0,
    ) {
        let block = Resources::new(79_200, 158_400, 580, 4_320);
        let n1 = a.blocks_needed(&block, margin);
        let n2 = (a + extra).blocks_needed(&block, margin);
        prop_assert!(n2 >= n1);
        let tighter = a.blocks_needed(&block, margin / 2.0);
        prop_assert!(tighter >= n1);
    }

    /// A `blocks_needed`-sized allocation really holds the application: the
    /// demand fits within `n` effective blocks.
    #[test]
    fn blocks_needed_is_sufficient(a in arb_resources(), margin in 0.1f64..1.0) {
        let block = Resources::new(79_200, 158_400, 580, 4_320);
        let n = a.blocks_needed(&block, margin);
        let capacity = block.block_fill(margin) * n;
        prop_assert!(a.fits_within(&capacity));
    }

    /// Utilization bottleneck is consistent with `fits_within`.
    #[test]
    fn utilization_matches_fits(a in arb_resources(), cap in arb_resources()) {
        let u = a.utilization_of(&cap);
        if a.fits_within(&cap) {
            prop_assert!(u.is_feasible());
        } else {
            prop_assert!(!u.is_feasible());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every feasible floorplan keeps the identity invariant and covers the
    /// whole user area with blocks.
    #[test]
    fn feasible_floorplans_have_identical_blocks(rows in prop::sample::select(vec![60u64, 300])) {
        let device = DeviceModel::xcvu37p();
        let plan = Floorplan::builder(&device).block_rows(rows).build().unwrap();
        prop_assert!(plan.blocks_identical());
        let covered: u64 = plan.user_blocks().iter().map(|b| b.rows()).sum();
        prop_assert_eq!(covered, device.total_rows());
        prop_assert_eq!(
            plan.user_blocks().iter().map(|b| b.resources()).sum::<Resources>(),
            device.user_area_resources()
        );
    }
}
