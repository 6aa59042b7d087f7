//! Negotiated-congestion global routing of inter-block channels
//! (paper §3.3 step 6: "the interconnection between these components are
//! routed to generate the final mapping results").
//!
//! The planned channels are routed over the virtual-block grid: nodes are
//! block slots, edges are the boundary wire bundles between adjacent slots,
//! each with a finite bit capacity. Routing uses the PathFinder recipe the
//! commercial tools this step stands in for are built on: every channel is
//! routed by Dijkstra under a cost that combines base wirelength, *present*
//! congestion and accumulated *history*, and the iteration repeats — ripping
//! up and re-routing everything — until no edge is over capacity.

use serde::{Deserialize, Serialize};
use vital_interface::ChannelPlan;

/// Most rip-up/re-route iterations.
const MAX_ITERATIONS: usize = 8;

/// Weight of present congestion in the edge cost.
const PRESENT_WEIGHT: f64 = 4.0;

/// Per-iteration increment of the history cost on overused edges.
const HISTORY_INCREMENT: f64 = 1.0;

/// The route of one planned channel: slot indices from producer to consumer
/// (inclusive). Single-slot entries mean producer and consumer share a slot
/// (possible after relocation merges neighbours, though plans never emit
/// self-channels).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct RoutedChannel {
    /// Index into the channel plan.
    pub channel: usize,
    /// Slot indices along the path.
    pub path: Vec<u32>,
}

/// The result of global routing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct GlobalRouting {
    /// One routed path per planned channel, in plan order.
    pub(crate) routed: Vec<RoutedChannel>,
    /// Worst edge load in bits after the final iteration.
    pub(crate) max_edge_load_bits: u64,
    /// The capacity the router negotiated against.
    pub(crate) edge_capacity_bits: u64,
    /// Rip-up/re-route iterations performed.
    pub iterations: usize,
    /// `true` if no edge ended over capacity.
    pub(crate) converged: bool,
    /// Total routed wire length in slot hops (bit-weighted).
    pub(crate) wirelength_bit_hops: u64,
}

/// Grid helper: undirected edges of a `cols x rows` 4-neighbour mesh.
struct Mesh {
    cols: usize,
    rows: usize,
}

impl Mesh {
    fn nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Edge id between two adjacent nodes (canonical order).
    fn edge_id(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if hi == lo + 1 {
            // Horizontal edge at lo (one per node except last column).
            lo
        } else {
            // Vertical edge: offset by the horizontal-edge count.
            self.nodes() + lo
        }
    }

    fn edge_count(&self) -> usize {
        2 * self.nodes()
    }

    fn neighbors(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        let (c, r) = (n % self.cols, n / self.cols);
        let mut out = [usize::MAX; 4];
        let mut k = 0;
        if c + 1 < self.cols {
            out[k] = n + 1;
            k += 1;
        }
        if c > 0 {
            out[k] = n - 1;
            k += 1;
        }
        if r + 1 < self.rows {
            out[k] = n + self.cols;
            k += 1;
        }
        if r > 0 {
            out[k] = n - self.cols;
            k += 1;
        }
        out.into_iter().take(k)
    }
}

/// Routes every channel of `plan` over a `cols x rows` slot mesh whose
/// slot-to-slot boundaries carry `edge_capacity_bits` each.
/// `slot_of_vb[v]` gives the mesh slot of virtual block `v`.
///
/// # Panics
///
/// Panics if a channel endpoint has no slot (`slot_of_vb` too short) or a
/// slot index is outside the mesh.
pub(crate) fn route_global(
    plan: &ChannelPlan,
    slot_of_vb: &[u32],
    cols: usize,
    rows: usize,
    edge_capacity_bits: u64,
) -> GlobalRouting {
    let mesh = Mesh {
        cols: cols.max(1),
        rows: rows.max(1),
    };
    let demands: Vec<(usize, usize, u64)> = plan
        .channels()
        .iter()
        .map(|c| {
            let s = slot_of_vb[c.from_block as usize] as usize;
            let t = slot_of_vb[c.to_block as usize] as usize;
            assert!(
                s < mesh.nodes() && t < mesh.nodes(),
                "slot outside the {cols}x{rows} mesh"
            );
            (s, t, u64::from(c.width_bits))
        })
        .collect();

    let mut history = vec![0.0f64; mesh.edge_count()];
    let mut paths: Vec<Vec<u32>> = vec![Vec::new(); demands.len()];
    let mut load = vec![0u64; mesh.edge_count()];
    let mut iterations = 0usize;

    for iter in 0..MAX_ITERATIONS {
        iterations = iter + 1;
        load.iter_mut().for_each(|l| *l = 0);
        for (i, &(s, t, bits)) in demands.iter().enumerate() {
            let path = dijkstra(&mesh, s, t, bits, &load, &history, edge_capacity_bits);
            for w in path.windows(2) {
                load[mesh.edge_id(w[0] as usize, w[1] as usize)] += bits;
            }
            paths[i] = path;
        }
        let overused = load.iter().any(|&l| l > edge_capacity_bits);
        if !overused {
            break;
        }
        for (e, &l) in load.iter().enumerate() {
            if l > edge_capacity_bits {
                history[e] += HISTORY_INCREMENT;
            }
        }
    }

    let max_edge_load_bits = load.iter().copied().max().unwrap_or(0);
    let wirelength_bit_hops = demands
        .iter()
        .zip(&paths)
        .map(|(&(_, _, bits), p)| bits * (p.len().saturating_sub(1)) as u64)
        .sum();
    GlobalRouting {
        routed: paths
            .into_iter()
            .enumerate()
            .map(|(channel, path)| RoutedChannel { channel, path })
            .collect(),
        max_edge_load_bits,
        edge_capacity_bits,
        iterations,
        converged: max_edge_load_bits <= edge_capacity_bits,
        wirelength_bit_hops,
    }
}

/// Dijkstra under the PathFinder cost: each edge costs
/// `(1 + history) * (1 + PRESENT_WEIGHT * overuse_after)`.
fn dijkstra(
    mesh: &Mesh,
    s: usize,
    t: usize,
    bits: u64,
    load: &[u64],
    history: &[f64],
    capacity: u64,
) -> Vec<u32> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry(f64, usize);
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            other.0.total_cmp(&self.0) // min-heap
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    if s == t {
        return vec![s as u32];
    }
    let n = mesh.nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[s] = 0.0;
    heap.push(Entry(0.0, s));
    while let Some(Entry(d, node)) = heap.pop() {
        if node == t {
            break;
        }
        if d > dist[node] {
            continue;
        }
        for nb in mesh.neighbors(node) {
            let e = mesh.edge_id(node, nb);
            let after = load[e] + bits;
            let overuse = after.saturating_sub(capacity) as f64 / capacity as f64;
            let cost = (1.0 + history[e]) * (1.0 + PRESENT_WEIGHT * overuse);
            let nd = d + cost;
            if nd < dist[nb] {
                dist[nb] = nd;
                prev[nb] = node;
                heap.push(Entry(nd, nb));
            }
        }
    }
    // Reconstruct.
    let mut path = vec![t as u32];
    let mut cur = t;
    while cur != s {
        cur = prev[cur];
        debug_assert_ne!(cur, usize::MAX, "mesh is connected");
        path.push(cur as u32);
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_interface::{plan_channels, CutEdge, InterfaceConfig};

    fn plan(cuts: &[(u32, u32, u64)]) -> ChannelPlan {
        let cuts: Vec<CutEdge> = cuts
            .iter()
            .map(|&(from_block, to_block, bits)| CutEdge {
                from_block,
                to_block,
                bits,
            })
            .collect();
        plan_channels(&cuts, &InterfaceConfig::default())
    }

    #[test]
    fn straight_line_routes_take_the_manhattan_path() {
        // 1x4 mesh, channel 0 -> 3: path length 4 nodes.
        let p = plan(&[(0, 3, 64)]);
        let routing = route_global(&p, &[0, 1, 2, 3], 4, 1, 2048);
        assert!(routing.converged);
        assert_eq!(routing.routed[0].path, vec![0, 1, 2, 3]);
        assert_eq!(routing.wirelength_bit_hops, 64 * 3);
    }

    #[test]
    fn congestion_forces_detours() {
        // 3x2 mesh. Saturate the bottom edge 0-1 with many parallel
        // channels; the router must spread them over the top row.
        let cuts: Vec<(u32, u32, u64)> = (0..8).map(|_| (0u32, 1u32, 512u64)).collect();
        let p = plan(&cuts);
        // 8 channels x 512 bits = 4096 bits > 2048 capacity on edge 0-1.
        let routing = route_global(&p, &[0, 1], 3, 2, 2048);
        assert!(
            routing.converged,
            "peak {} over {}",
            routing.max_edge_load_bits, routing.edge_capacity_bits
        );
        // Some channel detoured via the second row (path longer than 2).
        assert!(routing.routed.iter().any(|r| r.path.len() > 2));
        // Both direct and detour paths stay within capacity.
        assert!(routing.max_edge_load_bits <= 2048);
    }

    #[test]
    fn infeasible_demand_reports_nonconvergence() {
        // 1x2 mesh: a single edge; demand far beyond its capacity with no
        // detour available.
        let cuts: Vec<(u32, u32, u64)> = (0..10).map(|_| (0u32, 1u32, 512u64)).collect();
        let p = plan(&cuts);
        let routing = route_global(&p, &[0, 1], 2, 1, 2048);
        assert!(!routing.converged);
        assert!(routing.max_edge_load_bits > routing.edge_capacity_bits);
    }

    #[test]
    fn empty_plan_routes_trivially() {
        let p = plan(&[]);
        let routing = route_global(&p, &[], 2, 2, 2048);
        assert!(routing.converged);
        assert!(routing.routed.is_empty());
        assert_eq!(routing.wirelength_bit_hops, 0);
    }

    #[test]
    fn paths_connect_their_endpoints() {
        let p = plan(&[(0, 3, 100), (1, 2, 200), (3, 0, 50)]);
        let slots = [0u32, 1, 2, 3];
        let routing = route_global(&p, &slots, 2, 2, 2048);
        for (r, c) in routing.routed.iter().zip(p.channels()) {
            assert_eq!(r.path.first().copied(), Some(slots[c.from_block as usize]));
            assert_eq!(r.path.last().copied(), Some(slots[c.to_block as usize]));
            // Consecutive slots are mesh-adjacent.
            for w in r.path.windows(2) {
                let (a, b) = (w[0] as i64, w[1] as i64);
                let d = (a - b).abs();
                assert!(d == 1 || d == 2, "non-adjacent hop {a}->{b}");
            }
        }
    }
}
