//! Simulated-annealing legalization (paper §4.2 step 2, Eq. 3) plus the
//! wirelength-recovery refinement pass.

use rand::rngs::StdRng;
use rand::Rng;
use vital_fabric::Resources;

use crate::placement::{VirtualGrid, PLACER};
use crate::placer::{Cluster, ClusterGraph, ClusterId};

/// Simulated-annealing schedule for the legalization step. Its one value
/// is `PLACER.sa`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SaConfig {
    /// Starting temperature.
    pub(crate) t0: f64,
    /// Geometric cooling factor per temperature step.
    pub(crate) cooling: f64,
    /// Proposed moves per cluster per temperature step.
    pub(crate) moves_per_cluster: usize,
    /// Temperature at which annealing stops.
    pub(crate) t_min: f64,
    /// Refinement (recovery) passes after annealing.
    pub(crate) refine_passes: usize,
}

/// Penalty magnitude for an over-utilized block: the "large positive number"
/// of the paper's `f_i`. A small proportional term is added so the annealer
/// can feel the *direction* of improvement while still being dominated by
/// the feasibility cliff.
const OVERFLOW_PENALTY: f64 = 1.0e4;

/// The internal legalization state: assignment plus incremental bookkeeping.
pub(crate) struct Legalizer<'a> {
    clusters: &'a [Cluster],
    graph: &'a ClusterGraph,
    grid: &'a VirtualGrid,
    start: &'a [(f64, f64)],
    alpha: f64,
    /// Cluster -> slot (None for I/O pad clusters).
    assignment: Vec<Option<u32>>,
    usage: Vec<Resources>,
}

impl<'a> Legalizer<'a> {
    pub(crate) fn new(
        clusters: &'a [Cluster],
        graph: &'a ClusterGraph,
        grid: &'a VirtualGrid,
        start: &'a [(f64, f64)],
        alpha: f64,
    ) -> Self {
        let mut l = Legalizer {
            clusters,
            graph,
            grid,
            start,
            alpha,
            assignment: vec![None; clusters.len()],
            usage: vec![Resources::ZERO; grid.slot_count()],
        };
        l.initial_assignment();
        l
    }

    /// Greedy initial assignment: clusters sorted by continuous x then y,
    /// first slot (in x-major order) that still fits; falls back to the
    /// least-utilized slot when nothing fits.
    fn initial_assignment(&mut self) {
        let mut order: Vec<usize> = (0..self.clusters.len())
            .filter(|&i| !self.clusters[i].is_io())
            .collect();
        order.sort_by(|&a, &b| {
            let (xa, ya) = self.start[a];
            let (xb, yb) = self.start[b];
            xa.partial_cmp(&xb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ya.partial_cmp(&yb).unwrap_or(std::cmp::Ordering::Equal))
        });
        let cap = self.grid.capacity();
        for i in order {
            let need = self.clusters[i].resources();
            let fit = (0..self.grid.slot_count())
                .find(|&s| (self.usage[s] + need).fits_within(&cap))
                .or_else(|| {
                    (0..self.grid.slot_count()).min_by(|&a, &b| {
                        let ua = self.usage[a].utilization_of(&cap).bottleneck();
                        let ub = self.usage[b].utilization_of(&cap).bottleneck();
                        ua.partial_cmp(&ub).unwrap_or(std::cmp::Ordering::Equal)
                    })
                })
                .expect("grid has at least one slot");
            self.assignment[i] = Some(fit as u32);
            self.usage[fit] += need;
        }
    }

    /// The Eq. 3 cost of the current assignment.
    pub(crate) fn cost(&self) -> f64 {
        let n_cluster = self.clusters.iter().filter(|c| !c.is_io()).count().max(1);
        let mut move_dist = 0.0;
        for (i, slot) in self.assignment.iter().enumerate() {
            if let Some(s) = slot {
                move_dist += self.move_dist(i, *s);
            }
        }
        let overflow: f64 = (0..self.grid.slot_count())
            .map(|s| self.slot_overflow(s))
            .sum();
        move_dist / n_cluster as f64 + overflow / self.grid.slot_count() as f64
    }

    /// Eq. 3 distance term for one cluster placed in `slot`.
    fn move_dist(&self, cluster: usize, slot: u32) -> f64 {
        let (sx, sy) = self.grid.position(slot as usize);
        let (x0, y0) = self.start[cluster];
        self.alpha * (sx - x0).abs() + (sy - y0).abs()
    }

    /// The paper's `f_i`: zero when feasible, a large positive number (with
    /// a small proportional term) when over-utilized.
    fn slot_overflow(&self, slot: usize) -> f64 {
        let cap = self.grid.capacity();
        let b = self.usage[slot].utilization_of(&cap).bottleneck();
        if b > 1.0 {
            OVERFLOW_PENALTY * (1.0 + (b - 1.0))
        } else {
            0.0
        }
    }

    /// Runs the annealing schedule `PLACER.sa` followed by refinement;
    /// returns the final assignment (cluster -> slot; `None` for I/O pads).
    pub(crate) fn run(mut self, rng: &mut StdRng) -> Vec<Option<u32>> {
        let sa = &PLACER.sa;
        let movable: Vec<usize> = (0..self.clusters.len())
            .filter(|&i| !self.clusters[i].is_io())
            .collect();
        if movable.is_empty() || self.grid.slot_count() < 2 {
            self.refine(sa.refine_passes);
            return self.assignment;
        }

        let n_cluster = movable.len().max(1) as f64;
        let n_slot = self.grid.slot_count() as f64;
        let mut cost = self.cost();
        let mut best = self.assignment.clone();
        let mut best_cost = cost;
        let mut t = sa.t0;
        while t > sa.t_min {
            let moves = movable.len() * sa.moves_per_cluster;
            for _ in 0..moves {
                let i = movable[rng.gen_range(0..movable.len())];
                let from = self.assignment[i].expect("movable clusters are assigned");
                let to = rng.gen_range(0..self.grid.slot_count()) as u32;
                if to == from {
                    continue;
                }
                // Incremental Eq. 3 delta: only cluster i's distance term
                // and the two touched slots' overflow terms change.
                let before = self.move_dist(i, from) / n_cluster
                    + (self.slot_overflow(from as usize) + self.slot_overflow(to as usize))
                        / n_slot;
                self.apply_move(i, to);
                let after = self.move_dist(i, to) / n_cluster
                    + (self.slot_overflow(from as usize) + self.slot_overflow(to as usize))
                        / n_slot;
                let delta = after - before;
                if delta <= 0.0 || rng.gen::<f64>() < (-delta / t).exp() {
                    cost += delta;
                    if cost < best_cost {
                        best_cost = cost;
                        best.clone_from(&self.assignment);
                    }
                } else {
                    self.apply_move(i, from);
                }
            }
            t *= sa.cooling;
        }
        // Restore the best assignment seen.
        self.restore(best);
        self.refine(sa.refine_passes);
        self.assignment
    }

    fn apply_move(&mut self, cluster: usize, to: u32) {
        let need = self.clusters[cluster].resources();
        if let Some(from) = self.assignment[cluster] {
            self.usage[from as usize] = self.usage[from as usize].saturating_sub(&need);
        }
        self.usage[to as usize] += need;
        self.assignment[cluster] = Some(to);
    }

    fn restore(&mut self, assignment: Vec<Option<u32>>) {
        self.usage = vec![Resources::ZERO; self.grid.slot_count()];
        for (i, slot) in assignment.iter().enumerate() {
            if let Some(s) = slot {
                self.usage[*s as usize] += self.clusters[i].resources();
            }
        }
        self.assignment = assignment;
    }

    /// Density-preserving wirelength recovery (stand-in for the POLAR-based
    /// refinement the paper adapts, §4.2 step 2): greedily relocate clusters
    /// to the slot of their strongest neighbours when that reduces the
    /// connected wirelength and keeps every block feasible.
    fn refine(&mut self, passes: usize) {
        let cap = self.grid.capacity();
        for _ in 0..passes {
            let mut improved = false;
            for i in 0..self.clusters.len() {
                let Some(from) = self.assignment[i] else {
                    continue;
                };
                let need = self.clusters[i].resources();
                // Candidate slots: where the neighbours live.
                let mut candidates: Vec<u32> = self
                    .graph
                    .neighbors(ClusterId(i as u32))
                    .iter()
                    .filter_map(|&(nb, _)| self.assignment[nb.index()])
                    .collect();
                candidates.sort_unstable();
                candidates.dedup();
                let base = self.local_wirelength(i, from);
                let mut best: Option<(u32, f64)> = None;
                for &cand in &candidates {
                    if cand == from {
                        continue;
                    }
                    let fits = (self.usage[cand as usize] + need).fits_within(&cap);
                    if !fits {
                        continue;
                    }
                    let wl = self.local_wirelength(i, cand);
                    if wl < base && best.is_none_or(|(_, b)| wl < b) {
                        best = Some((cand, wl));
                    }
                }
                if let Some((to, _)) = best {
                    self.apply_move(i, to);
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// Wirelength of cluster `i`'s incident edges if it were placed in
    /// `slot`, using slot centres (pads use their continuous position).
    fn local_wirelength(&self, i: usize, slot: u32) -> f64 {
        let (xi, yi) = self.grid.position(slot as usize);
        self.graph
            .neighbors(ClusterId(i as u32))
            .iter()
            .map(|&(nb, w)| {
                let (xj, yj) = match self.assignment[nb.index()] {
                    Some(s) => self.grid.position(s as usize),
                    None => self.start[nb.index()], // I/O pad
                };
                w as f64 * (self.alpha * (xi - xj).abs() + (yi - yj).abs())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::{pack, PackingConfig};
    use rand::SeedableRng;
    use vital_netlist::hls::{synthesize, AppSpec, Operator};
    use vital_netlist::DataflowGraph;

    fn setup(ops: u32) -> (Vec<Cluster>, ClusterGraph) {
        let mut spec = AppSpec::new("t");
        let mut prev = None;
        for i in 0..ops {
            let op = spec.add_operator(format!("o{i}"), Operator::Pipeline { slices: 24 });
            if let Some(p) = prev {
                spec.add_edge(p, op, 32).unwrap();
            }
            prev = Some(op);
        }
        let n = synthesize(&spec).unwrap();
        let dfg = DataflowGraph::from_netlist(&n);
        let p = pack(
            &n,
            &dfg,
            &PackingConfig {
                max_primitives: 24,
                ..PackingConfig::default()
            },
        );
        let g = ClusterGraph::from_packing(&dfg, &p);
        (p.clusters().to_vec(), g)
    }

    #[test]
    fn legalization_removes_overflow() {
        let (clusters, graph) = setup(8);
        // Capacity sized so roughly half the clusters fit per slot.
        let total: Resources = clusters.iter().map(|c| c.resources()).sum();
        let cap = total.scale(0.6);
        let grid = VirtualGrid::uniform(2, cap);
        let start: Vec<(f64, f64)> = (0..clusters.len()).map(|_| (0.0, 0.0)).collect();
        let legalizer = Legalizer::new(&clusters, &graph, &grid, &start, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let assignment = legalizer.run(&mut rng);
        // Recompute usage and verify feasibility.
        let mut usage = vec![Resources::ZERO; grid.slot_count()];
        for (i, slot) in assignment.iter().enumerate() {
            if let Some(s) = slot {
                usage[*s as usize] += clusters[i].resources();
            }
        }
        assert!(usage.iter().all(|u| u.fits_within(&cap)));
    }

    #[test]
    fn single_slot_grid_degenerates_gracefully() {
        let (clusters, graph) = setup(3);
        let total: Resources = clusters.iter().map(|c| c.resources()).sum();
        let grid = VirtualGrid::uniform(1, total);
        let start = vec![(0.0, 0.0); clusters.len()];
        let legalizer = Legalizer::new(&clusters, &graph, &grid, &start, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let assignment = legalizer.run(&mut rng);
        assert!(assignment
            .iter()
            .enumerate()
            .all(|(i, s)| clusters[i].is_io() || *s == Some(0)));
    }
}
