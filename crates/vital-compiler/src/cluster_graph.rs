//! Contracted connectivity graph over packed clusters.

use std::collections::HashMap;

use vital_netlist::DataflowGraph;

use crate::placer::{ClusterId, Packing};

/// The cluster-level connectivity graph: nodes are packed clusters, edge
/// weights are accumulated bits between clusters. This is the `w_ij` matrix
/// of the paper's Eq. 1.
#[derive(Debug, Clone)]
pub struct ClusterGraph {
    adj: Vec<Vec<(ClusterId, u64)>>,
}

impl ClusterGraph {
    /// Contracts the primitive-level dataflow graph by the packing.
    pub fn from_packing(dfg: &DataflowGraph, packing: &Packing) -> Self {
        let n = packing.cluster_count();
        let mut maps: Vec<HashMap<u32, u64>> = vec![HashMap::new(); n];
        for (a, b, bits) in dfg.undirected_edges() {
            let ca = packing.cluster_of(a);
            let cb = packing.cluster_of(b);
            if ca == cb {
                continue;
            }
            *maps[ca.index()].entry(cb.0).or_insert(0) += bits;
            *maps[cb.index()].entry(ca.0).or_insert(0) += bits;
        }
        let adj = maps
            .into_iter()
            .map(|m| {
                let mut v: Vec<(ClusterId, u64)> =
                    m.into_iter().map(|(c, w)| (ClusterId(c), w)).collect();
                v.sort_by_key(|&(c, _)| c);
                v
            })
            .collect();
        ClusterGraph { adj }
    }

    /// Number of clusters.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Weighted neighbours of cluster `c`.
    pub fn neighbors(&self, c: ClusterId) -> &[(ClusterId, u64)] {
        &self.adj[c.index()]
    }

    /// Iterates all edges once (`a < b`).
    pub fn edges(&self) -> impl Iterator<Item = (ClusterId, ClusterId, u64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, list)| {
            list.iter()
                .filter(move |(b, _)| b.index() > a)
                .map(move |&(b, w)| (ClusterId(a as u32), b, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::{pack, PackingConfig};
    use vital_netlist::hls::{synthesize, AppSpec, Operator};

    #[test]
    fn contraction_conserves_cut_weight_symmetry() {
        let mut spec = AppSpec::new("t");
        let a = spec.add_operator("a", Operator::Pipeline { slices: 30 });
        let b = spec.add_operator("b", Operator::Pipeline { slices: 30 });
        spec.add_edge(a, b, 128).unwrap();
        let n = synthesize(&spec).unwrap();
        let dfg = DataflowGraph::from_netlist(&n);
        let p = pack(&n, &dfg, &PackingConfig::default());
        let g = ClusterGraph::from_packing(&dfg, &p);
        assert_eq!(g.node_count(), p.cluster_count());
        // Every edge appears in both adjacency lists with equal weight.
        for (x, y, w) in g.edges() {
            let back = g
                .neighbors(y)
                .iter()
                .find(|&&(c, _)| c == x)
                .map(|&(_, w)| w);
            assert_eq!(back, Some(w));
        }
    }

    #[test]
    fn fully_packed_single_cluster_has_no_edges() {
        let mut spec = AppSpec::new("t");
        spec.add_operator("a", Operator::Pipeline { slices: 4 });
        let n = synthesize(&spec).unwrap();
        let dfg = DataflowGraph::from_netlist(&n);
        let p = pack(
            &n,
            &dfg,
            &PackingConfig {
                max_primitives: 64,
                ..PackingConfig::default()
            },
        );
        let g = ClusterGraph::from_packing(&dfg, &p);
        assert_eq!(g.edges().count(), 0);
    }
}
