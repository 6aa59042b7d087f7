//! Quality metric of a partition: inter-block bandwidth.

use crate::placer::Placement;

/// Total bits crossing virtual-block boundaries (edges touching I/O pads are
/// external traffic, not inter-block traffic, and are excluded).
pub fn cut_bits(placement: &Placement) -> u64 {
    placement
        .graph()
        .edges()
        .filter_map(|(a, b, w)| {
            let sa = placement.assignment()[a.index()]?;
            let sb = placement.assignment()[b.index()]?;
            (sa != sb).then_some(w)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::{random_assignment, Placer, PlacerConfig, VirtualGrid};
    use vital_fabric::Resources;
    use vital_netlist::hls::{synthesize, AppSpec, Operator};

    /// Quality summary of a placement-based partition.
    #[derive(Debug, Clone, PartialEq)]
    struct PartitionQuality {
        /// Total bits crossing virtual-block boundaries.
        cut_bits: u64,
        /// The worst per-block boundary traffic (the bandwidth the
        /// latency-insensitive interface of that block must sustain).
        max_block_cut_bits: u64,
        /// Number of virtual blocks actually used.
        blocks_used: usize,
        /// Bottleneck utilization of the fullest block.
        peak_utilization: f64,
    }

    impl PartitionQuality {
        /// Computes the quality summary of a placement on `grid`.
        fn of(placement: &Placement, grid: &VirtualGrid) -> Self {
            let mut per_block = vec![0u64; grid.slot_count()];
            let mut total = 0u64;
            for (a, b, w) in placement.graph().edges() {
                let (Some(sa), Some(sb)) = (
                    placement.assignment()[a.index()],
                    placement.assignment()[b.index()],
                ) else {
                    continue;
                };
                if sa != sb {
                    total += w;
                    per_block[sa as usize] += w;
                    per_block[sb as usize] += w;
                }
            }
            let cap = grid.capacity();
            let mut usage = vec![Resources::ZERO; grid.slot_count()];
            for (i, slot) in placement.assignment().iter().enumerate() {
                if let Some(s) = slot {
                    usage[*s as usize] += placement.packing().clusters()[i].resources();
                }
            }
            let peak = usage
                .iter()
                .map(|u| u.utilization_of(&cap).bottleneck())
                .fold(0.0, f64::max);
            PartitionQuality {
                cut_bits: total,
                max_block_cut_bits: per_block.into_iter().max().unwrap_or(0),
                blocks_used: usage.iter().filter(|u| !u.is_zero()).count(),
                peak_utilization: peak,
            }
        }
    }

    fn pipeline_app(stages: u32) -> vital_netlist::Netlist {
        let mut spec = AppSpec::new("pipe");
        let mut prev = None;
        for i in 0..stages {
            let op = spec.add_operator(format!("s{i}"), Operator::Pipeline { slices: 50 });
            if let Some(p) = prev {
                spec.add_edge(p, op, 64).unwrap();
            }
            prev = Some(op);
        }
        synthesize(&spec).unwrap()
    }

    #[test]
    fn placement_beats_random_on_cut_bits() {
        let netlist = pipeline_app(8);
        // Two blocks, each able to hold half the design with slack.
        let total = netlist.resource_usage();
        let grid = VirtualGrid::uniform(2, total.scale(0.7));
        let placed = Placer::new(PlacerConfig::default())
            .run(&netlist, &grid)
            .unwrap();
        let random = random_assignment(&netlist, &grid, 3).unwrap();
        let placed_cut = cut_bits(&placed);
        let random_cut = cut_bits(&random);
        assert!(
            placed_cut <= random_cut,
            "placement-based cut {placed_cut} should not exceed random cut {random_cut}"
        );
    }

    #[test]
    fn quality_summary_is_consistent() {
        let netlist = pipeline_app(6);
        let total = netlist.resource_usage();
        let grid = VirtualGrid::uniform(3, total.scale(0.5));
        let placed = Placer::new(PlacerConfig::default())
            .run(&netlist, &grid)
            .unwrap();
        let q = PartitionQuality::of(&placed, &grid);
        assert_eq!(q.cut_bits, cut_bits(&placed));
        assert!(q.max_block_cut_bits <= q.cut_bits * 2);
        assert!(q.blocks_used >= 2);
        assert!(q.peak_utilization <= 1.0 + 1e-9 || !placed.is_legal());
    }

    #[test]
    fn single_block_has_zero_cut() {
        let netlist = pipeline_app(3);
        let total = netlist.resource_usage();
        let grid = VirtualGrid::uniform(1, total);
        let placed = Placer::new(PlacerConfig::default())
            .run(&netlist, &grid)
            .unwrap();
        assert_eq!(cut_bits(&placed), 0);
    }
}
