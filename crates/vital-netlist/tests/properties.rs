//! Property-based tests of the netlist IR and dataflow-graph view.

use proptest::prelude::*;
use vital_netlist::hls::{synthesize, AppSpec, Operator};
use vital_netlist::{DataflowGraph, Netlist, PrimitiveId, PrimitiveKind};

fn arb_operator() -> impl Strategy<Value = Operator> {
    prop_oneof![
        (1u32..40).prop_map(|pes| Operator::MacArray { pes }),
        (1u32..400, 1u32..5).prop_map(|(kb, banks)| Operator::Buffer { kb, banks }),
        (1u32..80).prop_map(|slices| Operator::Pipeline { slices }),
        (1u32..40, 0u32..8, 0u32..4).prop_map(|(slices, dsps, brams)| Operator::Custom {
            slices,
            dsps,
            brams
        }),
    ]
}

fn arb_spec() -> impl Strategy<Value = AppSpec> {
    (prop::collection::vec(arb_operator(), 1..8), any::<u64>()).prop_map(|(ops, seed)| {
        let mut spec = AppSpec::new("prop");
        let ids: Vec<_> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| spec.add_operator(format!("op{i}"), op))
            .collect();
        // Chain + a few extra forward edges derived from the seed.
        for w in ids.windows(2) {
            spec.add_edge(w[0], w[1], 32).unwrap();
        }
        if ids.len() > 2 && seed % 2 == 0 {
            spec.add_edge(ids[0], ids[ids.len() - 1], 64).unwrap();
        }
        spec.add_input("in", ids[0], 64).unwrap();
        spec.add_output("out", *ids.last().unwrap(), 64).unwrap();
        spec
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Synthesis always yields a structurally valid netlist whose resources
    /// match the specification's estimate for estimate-exact operators.
    #[test]
    fn synthesis_is_valid_and_conserves_resources(spec in arb_spec()) {
        let netlist = synthesize(&spec).unwrap();
        prop_assert!(netlist.validate().is_ok());
        let r = netlist.resource_usage();
        let est = spec.resource_estimate();
        // DSP and BRAM estimates are exact for every operator.
        prop_assert_eq!(r.dsp, est.dsp);
        prop_assert_eq!(r.bram_kb, est.bram_kb);
        // LUTs never exceed the estimate (Buffer banks may round down).
        prop_assert!(r.lut <= est.lut);
    }

    /// The dataflow graph is symmetric: every undirected edge appears in
    /// both adjacency lists with the same accumulated weight, and degree
    /// sums equal twice the edge sum.
    #[test]
    fn dfg_symmetry(spec in arb_spec()) {
        let netlist = synthesize(&spec).unwrap();
        let g = DataflowGraph::from_netlist(&netlist);
        let mut degree_sum = 0u64;
        for i in 0..netlist.primitive_count() {
            let p = PrimitiveId::new(i as u32);
            degree_sum += g.neighbors(p).iter().map(|e| e.bits).sum::<u64>();
            for e in g.neighbors(p) {
                let back = g
                    .neighbors(e.other)
                    .iter()
                    .find(|b| b.other == p)
                    .map(|b| b.bits);
                prop_assert_eq!(back, Some(e.bits));
            }
        }
        let edge_sum: u64 = g.undirected_edges().map(|(_, _, w)| w).sum();
        prop_assert_eq!(degree_sum, 2 * edge_sum);
    }

    /// Stats are internally consistent with direct recomputation.
    #[test]
    fn stats_consistency(spec in arb_spec()) {
        let netlist = synthesize(&spec).unwrap();
        let s = netlist.stats();
        prop_assert_eq!(s.primitives, netlist.primitive_count());
        prop_assert_eq!(s.nets, netlist.nets().len());
        prop_assert_eq!(s.resources, netlist.resource_usage());
        prop_assert_eq!(s.io_ports, netlist.io_ports().count());
    }
}

proptest! {
    /// Hand-built netlists: connect never corrupts earlier state on error.
    #[test]
    fn failed_connect_leaves_netlist_unchanged(bits in 0u32..4, n_sinks in 0usize..3) {
        let mut n = Netlist::new("t");
        let a = n.add_primitive(PrimitiveKind::lut(6));
        let b = n.add_primitive(PrimitiveKind::lut(6));
        n.connect(a, [b], 8).unwrap();
        let before_nets = n.nets().len();
        let sinks: Vec<PrimitiveId> = std::iter::repeat_n(b, n_sinks).collect();
        let result = n.connect(a, sinks.clone(), bits);
        if bits == 0 || sinks.is_empty() {
            prop_assert!(result.is_err());
            prop_assert_eq!(n.nets().len(), before_nets);
        } else {
            prop_assert!(result.is_ok());
        }
    }
}
