//! Property-based tests of the six-step compiler's end-to-end invariants
//! and of the partition pipeline's invariants.

use proptest::prelude::*;
use vital_compiler::placer::{
    cut_bits, pack, ClusterGraph, Packing, PackingConfig, Placer, PlacerConfig, VirtualGrid,
};
use vital_compiler::{Compiler, CompilerConfig, RelocationTarget};
use vital_fabric::{BlockAddr, FpgaId, PhysicalBlockId};
use vital_netlist::hls::{synthesize, AppSpec, Operator};
use vital_netlist::DataflowGraph;

/// Random small accelerators (kept small so the detailed placer stays fast
/// under dozens of proptest cases).
fn arb_spec() -> impl Strategy<Value = AppSpec> {
    (
        prop::collection::vec(
            prop_oneof![
                (1u32..24).prop_map(|pes| Operator::MacArray { pes }),
                (36u32..300, 1u32..4).prop_map(|(kb, banks)| Operator::Buffer { kb, banks }),
                (4u32..120).prop_map(|slices| Operator::Pipeline { slices }),
            ],
            1..5,
        ),
        any::<u64>(),
    )
        .prop_map(|(ops, seed)| {
            let mut spec = AppSpec::new(format!("p{seed}"));
            let ids: Vec<_> = ops
                .into_iter()
                .enumerate()
                .map(|(i, op)| spec.add_operator(format!("o{i}"), op))
                .collect();
            for w in ids.windows(2) {
                spec.add_edge(w[0], w[1], 64).unwrap();
            }
            spec.add_input("in", ids[0], 64).unwrap();
            spec.add_output("out", *ids.last().unwrap(), 64).unwrap();
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every compiled application: covers all non-I/O primitives exactly
    /// once, respects the block capacity per image, uses distinct sites
    /// within each image, references only channel endpoints that exist, and
    /// binds to arbitrary physical blocks.
    #[test]
    fn compiled_artifacts_are_well_formed(spec in arb_spec()) {
        let compiler = Compiler::new(CompilerConfig::default());
        let compiled = compiler.compile(&spec).unwrap();
        let bs = compiled.bitstream();
        let netlist = synthesize(&spec).unwrap();

        // Coverage: placed primitive count equals the non-I/O count.
        let non_io = netlist.primitives().iter().filter(|p| !p.kind().is_io()).count();
        let placed: usize = bs.images().iter().map(|i| i.primitive_count).sum();
        prop_assert_eq!(placed, non_io);

        // Per-image invariants.
        let cap = compiler.config().block_resources;
        for img in bs.images() {
            prop_assert!(img.resources.fits_within(&cap));
            let mut sites: Vec<u32> = img.placement.site_of.iter().map(|&(_, s)| s).collect();
            let n = sites.len();
            sites.sort_unstable();
            sites.dedup();
            prop_assert_eq!(sites.len(), n, "duplicate sites in an image");
            prop_assert!(img.placement.wirelength <= img.placement.initial_wirelength + 1e-9);
        }

        // Channel endpoints are valid virtual blocks.
        let vb_count = bs.block_count() as u32;
        for c in bs.channel_plan().channels() {
            prop_assert!(c.from_block < vb_count);
            prop_assert!(c.to_block < vb_count);
            prop_assert_ne!(c.from_block, c.to_block);
        }

        // Relocation freedom: bind to scattered physical blocks.
        let targets: Vec<RelocationTarget> = (0..bs.block_count())
            .map(|vb| RelocationTarget {
                virtual_block: vb as u32,
                addr: BlockAddr::new(
                    FpgaId::new((vb % 4) as u32),
                    PhysicalBlockId::new((14 - vb % 15) as u32),
                ),
            })
            .collect();
        prop_assert!(bs.bind(&targets).is_ok());

        // Total resources are conserved through the pipeline.
        prop_assert_eq!(bs.total_resources(), netlist.resource_usage());
    }
}

/// Builds a random chained accelerator spec (no top-level ports needed).
fn app(ops: usize, slices: u32, seed: u64) -> AppSpec {
    let mut spec = AppSpec::new("prop");
    let mut prev = None;
    for i in 0..ops {
        let op = if (seed >> (i % 60)) & 1 == 0 {
            Operator::Pipeline { slices }
        } else {
            Operator::MacArray {
                pes: slices / 4 + 1,
            }
        };
        let id = spec.add_operator(format!("o{i}"), op);
        if let Some(p) = prev {
            spec.add_edge(p, id, 32).unwrap();
        }
        prev = Some(id);
    }
    spec
}

fn check_packing_complete(netlist: &vital_netlist::Netlist, packing: &Packing) -> bool {
    let total: usize = packing.clusters().iter().map(|c| c.members().len()).sum();
    if total != netlist.primitive_count() {
        return false;
    }
    // Membership is consistent with the assignment map.
    packing
        .clusters()
        .iter()
        .all(|c| c.members().iter().all(|&m| packing.cluster_of(m) == c.id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packing is a partition: complete, consistent, resource-conserving,
    /// for any seed and capacity.
    #[test]
    fn packing_is_a_partition(
        ops in 2usize..7,
        slices in 10u32..60,
        seed in any::<u64>(),
        cap in 4usize..64,
    ) {
        let spec = app(ops, slices, seed);
        let netlist = synthesize(&spec).unwrap();
        let dfg = DataflowGraph::from_netlist(&netlist);
        let cfg = PackingConfig { seed, max_primitives: cap, merge_below: cap / 4 };
        let packing = pack(&netlist, &dfg, &cfg);
        prop_assert!(check_packing_complete(&netlist, &packing));
        let packed: vital_fabric::Resources =
            packing.clusters().iter().map(|c| c.resources()).sum();
        prop_assert_eq!(packed, netlist.resource_usage());
    }

    /// The contracted cluster graph never loses or invents edge weight:
    /// its total equals the netlist's inter-cluster bits.
    #[test]
    fn cluster_graph_conserves_cut_weight(
        ops in 2usize..6,
        slices in 10u32..40,
        seed in any::<u64>(),
    ) {
        let spec = app(ops, slices, seed);
        let netlist = synthesize(&spec).unwrap();
        let dfg = DataflowGraph::from_netlist(&netlist);
        let packing = pack(&netlist, &dfg, &PackingConfig::default());
        let graph = ClusterGraph::from_packing(&dfg, &packing);
        let expected: u64 = dfg
            .undirected_edges()
            .filter(|&(a, b, _)| packing.cluster_of(a) != packing.cluster_of(b))
            .map(|(_, _, w)| w)
            .sum();
        prop_assert_eq!(graph.edges().map(|(_, _, w)| w).sum::<u64>(), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full placer always produces a legal placement when the grid has
    /// comfortable slack, and its cut never exceeds the total edge weight.
    #[test]
    fn placer_produces_legal_placements(
        ops in 3usize..6,
        seed in any::<u64>(),
    ) {
        let spec = app(ops, 40, seed);
        let netlist = synthesize(&spec).unwrap();
        let total = netlist.resource_usage();
        let grid = VirtualGrid::uniform(4, total.scale(0.6));
        let placement = Placer::new(PlacerConfig { seed, ..PlacerConfig::default() })
            .run(&netlist, &grid)
            .unwrap();
        prop_assert!(placement.is_legal());
        // Every non-I/O primitive landed in a slot.
        for prim in netlist.primitives().iter().filter(|p| !p.kind().is_io()) {
            prop_assert!(placement.block_of(prim.id()).is_some());
        }
        let dfg = DataflowGraph::from_netlist(&netlist);
        let all_bits: u64 = dfg.undirected_edges().map(|(_, _, w)| w).sum();
        prop_assert!(cut_bits(&placement) <= all_bits);
    }
}
