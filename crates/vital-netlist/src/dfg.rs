//! Dataflow-graph view of a netlist.
//!
//! The packing, placement and partition steps of ViTAL's compilation flow
//! (paper §4) all operate on the netlist's connectivity. This module
//! flattens the net list into per-node adjacency with edge weights in bits,
//! using the star model (driver → each sink) for multi-sink nets.

use serde::{Deserialize, Serialize};

use crate::{Netlist, PrimitiveId};

/// A weighted adjacency entry of the [`DataflowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DfgEdge {
    /// The neighbouring primitive.
    pub other: PrimitiveId,
    /// Total bits exchanged with that neighbour (accumulated over nets).
    pub bits: u64,
}

/// Weighted connectivity extracted from a [`Netlist`].
///
/// Both a directed view (`succ`) — needed to generate the
/// latency-insensitive interface for cut edges — and an undirected merged
/// view (`neighbors`) — needed by the quadratic placer — are provided.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataflowGraph {
    nodes: usize,
    succ: Vec<Vec<DfgEdge>>,
    neighbors: Vec<Vec<DfgEdge>>,
}

impl DataflowGraph {
    /// Builds the graph from a netlist.
    pub fn from_netlist(netlist: &Netlist) -> Self {
        let nodes = netlist.primitive_count();
        let mut succ: Vec<Vec<DfgEdge>> = vec![Vec::new(); nodes];
        let mut undirected: Vec<Vec<DfgEdge>> = vec![Vec::new(); nodes];
        for net in netlist.nets() {
            let d = net.driver();
            for &s in net.sinks() {
                let bits = u64::from(net.bits());
                succ[d.index()].push(DfgEdge { other: s, bits });
                undirected[d.index()].push(DfgEdge { other: s, bits });
                undirected[s.index()].push(DfgEdge { other: d, bits });
            }
        }
        // Merge parallel edges so each neighbour appears once with the
        // accumulated weight.
        let merge = |lists: Vec<Vec<DfgEdge>>| -> Vec<Vec<DfgEdge>> {
            lists
                .into_iter()
                .map(|mut edges| {
                    edges.sort_by_key(|e| e.other);
                    let mut merged: Vec<DfgEdge> = Vec::with_capacity(edges.len());
                    for e in edges {
                        match merged.last_mut() {
                            Some(last) if last.other == e.other => last.bits += e.bits,
                            _ => merged.push(e),
                        }
                    }
                    merged
                })
                .collect()
        };
        DataflowGraph {
            nodes,
            succ: merge(succ),
            neighbors: merge(undirected),
        }
    }

    /// Undirected neighbours of `node`, merged per neighbour.
    pub fn neighbors(&self, node: PrimitiveId) -> &[DfgEdge] {
        &self.neighbors[node.index()]
    }

    /// Iterates all undirected edges once (`a < b`), with accumulated bits.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (PrimitiveId, PrimitiveId, u64)> + '_ {
        self.neighbors.iter().enumerate().flat_map(|(a, edges)| {
            edges
                .iter()
                .filter(move |e| e.other.index() > a)
                .map(move |e| (PrimitiveId(a as u32), e.other, e.bits))
        })
    }
}

#[cfg(test)]
impl DataflowGraph {
    /// Number of nodes (primitives).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes
    }

    /// Total undirected edge weight incident to `node`.
    pub(crate) fn degree_bits(&self, node: PrimitiveId) -> u64 {
        self.neighbors[node.index()].iter().map(|e| e.bits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrimitiveKind;

    #[test]
    fn merges_parallel_edges() {
        let mut n = Netlist::new("t");
        let a = n.add_primitive(PrimitiveKind::lut(6));
        let b = n.add_primitive(PrimitiveKind::lut(6));
        n.connect(a, [b], 8).unwrap();
        n.connect(a, [b], 24).unwrap();
        let g = DataflowGraph::from_netlist(&n);
        assert_eq!(g.neighbors(a).len(), 1);
        assert_eq!(g.neighbors(a)[0].bits, 32);
        assert_eq!(g.degree_bits(b), 32);
        assert_eq!(g.succ[a.index()].len(), 1);
        assert!(g.succ[b.index()].is_empty());
    }

    #[test]
    fn star_model_for_fanout() {
        let mut n = Netlist::new("t");
        let d = n.add_primitive(PrimitiveKind::lut(6));
        let s1 = n.add_primitive(PrimitiveKind::lut(6));
        let s2 = n.add_primitive(PrimitiveKind::lut(6));
        n.connect(d, [s1, s2], 4).unwrap();
        let g = DataflowGraph::from_netlist(&n);
        assert_eq!(g.neighbors(d).len(), 2);
        assert_eq!(g.degree_bits(d), 8);
        // No sink-to-sink edge in the star model.
        assert!(g.neighbors(s1).iter().all(|e| e.other == d));
    }

    #[test]
    fn undirected_edges_visits_each_pair_once() {
        let mut n = Netlist::new("t");
        let a = n.add_primitive(PrimitiveKind::lut(6));
        let b = n.add_primitive(PrimitiveKind::lut(6));
        let c = n.add_primitive(PrimitiveKind::lut(6));
        n.connect(a, [b, c], 2).unwrap();
        n.connect(b, [c], 3).unwrap();
        let g = DataflowGraph::from_netlist(&n);
        let edges: Vec<_> = g.undirected_edges().collect();
        assert_eq!(edges.len(), 3);
        let total: u64 = edges.iter().map(|(_, _, w)| w).sum();
        assert_eq!(total, 2 + 2 + 3);
    }

    #[test]
    fn empty_netlist() {
        let g = DataflowGraph::from_netlist(&Netlist::new("empty"));
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.undirected_edges().count(), 0);
    }
}
