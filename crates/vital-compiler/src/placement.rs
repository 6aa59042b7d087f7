//! The full §4 pipeline: packing → quadratic placement → legalization →
//! pseudo-cluster anchoring, iterated to convergence.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vital_fabric::Resources;
use vital_netlist::{DataflowGraph, Netlist, PortDirection, PrimitiveId, PrimitiveKind};

use crate::legalize::Legalizer;
use crate::placer::{pack, ClusterGraph, Packing, PackingConfig, PlacerError, SaConfig};
use crate::quadratic::{solve_quadratic, QuadraticPlacement};

/// The pre-defined 2D space of virtual-block slots the application is placed
/// onto (paper §4.2: each virtual block is assigned a position and an aspect
/// ratio).
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualGrid {
    cols: usize,
    rows: usize,
    capacity: Resources,
}

impl VirtualGrid {
    /// A near-square grid of `n_blocks` slots, each with `capacity`
    /// effective resources.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero.
    pub fn uniform(n_blocks: usize, capacity: Resources) -> Self {
        assert!(n_blocks > 0, "grid needs at least one slot");
        let cols = (n_blocks as f64).sqrt().ceil() as usize;
        let rows = n_blocks.div_ceil(cols);
        VirtualGrid {
            cols,
            rows,
            capacity,
        }
    }

    /// Number of slots. Note this may slightly exceed the requested block
    /// count for non-rectangular `n`; unused slots simply stay empty.
    pub fn slot_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Effective per-slot capacity.
    pub fn capacity(&self) -> Resources {
        self.capacity
    }

    /// Grid width in slots.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid height in slots.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Centre position of slot `i` (unit spacing, x-major order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn position(&self, i: usize) -> (f64, f64) {
        assert!(i < self.slot_count(), "slot {i} out of range");
        ((i % self.cols) as f64, (i / self.cols) as f64)
    }

    /// The centre of the whole grid.
    pub(crate) fn center(&self) -> (f64, f64) {
        (
            (self.cols as f64 - 1.0) / 2.0,
            (self.rows as f64 - 1.0) / 2.0,
        )
    }
}

/// Configuration of the full placement/partition pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerConfig {
    /// RNG seed; the pipeline is deterministic for a fixed seed.
    pub seed: u64,
    /// Packing parameters (§4.1).
    pub packing: PackingConfig,
    /// Aspect-ratio weight `α` of Eq. 1/Eq. 3.
    pub alpha: f64,
    /// Annealing schedule of the legalization step.
    pub sa: SaConfig,
    /// Initial pseudo-cluster anchor weight `β` (Eq. 4).
    pub beta0: f64,
    /// Multiplicative growth of `β` per iteration ("slowly increased").
    pub beta_growth: f64,
    /// Termination threshold on the wirelength gap between the solved and
    /// legalized placements (paper: 20 %).
    pub gap_tolerance: f64,
    /// Hard cap on anchoring iterations.
    pub max_iterations: usize,
    /// FM-style cut-refinement sweeps applied to the final assignment
    /// (the partition step's explicit objective is minimizing inter-block
    /// connections, §3.3); 0 disables.
    pub cut_refine_passes: usize,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            seed: 0x71741,
            packing: PackingConfig::default(),
            alpha: 1.0,
            sa: SaConfig::default(),
            beta0: 0.05,
            beta_growth: 3.0,
            gap_tolerance: 0.20,
            max_iterations: 5,
            cut_refine_passes: 2,
        }
    }
}

/// The §4 placement/partition engine.
#[derive(Debug, Clone, Default)]
pub struct Placer {
    config: PlacerConfig,
}

impl Placer {
    /// Creates a placer with the given configuration.
    pub fn new(config: PlacerConfig) -> Self {
        Placer { config }
    }

    /// Runs the full pipeline on `netlist` over `grid`.
    ///
    /// # Errors
    ///
    /// * [`PlacerError::EmptyNetlist`] if the netlist has no primitives.
    /// * [`PlacerError::CapacityExceeded`] if the netlist cannot fit in the
    ///   grid even at 100 % utilization.
    pub fn run(&self, netlist: &Netlist, grid: &VirtualGrid) -> Result<Placement, PlacerError> {
        if netlist.primitive_count() == 0 {
            return Err(PlacerError::EmptyNetlist);
        }
        let usage = netlist.resource_usage();
        let total_cap = grid.capacity() * grid.slot_count() as u64;
        if !usage.fits_within(&total_cap) {
            return Err(PlacerError::CapacityExceeded {
                required: usage,
                available: total_cap,
            });
        }

        let dfg = DataflowGraph::from_netlist(netlist);
        let packing = pack(netlist, &dfg, &self.config.packing);
        let graph = ClusterGraph::from_packing(&dfg, &packing);
        let pads = io_pads(netlist, &packing, grid);
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Step 1: unconstrained quadratic solve.
        let mut qp = solve_quadratic(&graph, &pads, None, grid.center(), None);
        apply_pad_positions(&mut qp, &pads);

        let mut beta = self.config.beta0;
        let mut iterations = 0usize;
        let mut assignment: Vec<Option<u32>> = Vec::new();
        while iterations < self.config.max_iterations {
            iterations += 1;
            // Step 2: legalize the continuous placement.
            let start: Vec<(f64, f64)> = qp.x.iter().zip(&qp.y).map(|(&x, &y)| (x, y)).collect();
            let legalizer =
                Legalizer::new(packing.clusters(), &graph, grid, &start, self.config.alpha);
            assignment = legalizer.run(&self.config.sa, &mut rng);
            let legal_positions = positions_of(&assignment, &start, grid);
            let l_legal = linear_wirelength(&graph, &legal_positions, self.config.alpha);

            // Step 3: re-solve with pseudo-cluster anchors at the legalized
            // positions.
            qp = solve_quadratic(
                &graph,
                &pads,
                Some((&legal_positions, beta)),
                grid.center(),
                Some(&qp),
            );
            apply_pad_positions(&mut qp, &pads);
            let solved_positions: Vec<(f64, f64)> =
                qp.x.iter().zip(&qp.y).map(|(&x, &y)| (x, y)).collect();
            let l_solved = linear_wirelength(&graph, &solved_positions, self.config.alpha);

            // Step 4: terminate when the two lengths agree within tolerance.
            let gap = (l_legal - l_solved).abs() / l_solved.max(1e-9);
            if gap < self.config.gap_tolerance {
                break;
            }
            beta *= self.config.beta_growth;
        }

        // Cut-driven FM refinement on the final assignment.
        if self.config.cut_refine_passes > 0 {
            crate::cut_refine::refine_cut(
                packing.clusters(),
                &graph,
                grid,
                &mut assignment,
                self.config.cut_refine_passes,
            );
        }

        let legal = check_legal(&assignment, packing.clusters(), grid);
        Ok(Placement {
            packing,
            graph,
            assignment,
            legal,
        })
    }
}

/// Boundary pad positions for I/O clusters: inputs spread along the left
/// edge, outputs along the right edge.
fn io_pads(netlist: &Netlist, packing: &Packing, grid: &VirtualGrid) -> Vec<(usize, f64, f64)> {
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for c in packing.clusters().iter().filter(|c| c.is_io()) {
        let prim = netlist
            .primitive(c.members()[0])
            .expect("I/O cluster members come from this netlist");
        match prim.kind() {
            PrimitiveKind::Io {
                direction: PortDirection::Input,
            } => inputs.push(c.id().index()),
            _ => outputs.push(c.id().index()),
        }
    }
    let height = grid.rows() as f64;
    let spread = |ids: &[usize], x: f64| -> Vec<(usize, f64, f64)> {
        let n = ids.len().max(1) as f64;
        ids.iter()
            .enumerate()
            .map(|(k, &i)| (i, x, height * (k as f64 + 0.5) / n - 0.5))
            .collect()
    };
    let mut pads = spread(&inputs, -1.0);
    pads.extend(spread(&outputs, grid.cols() as f64));
    pads
}

fn apply_pad_positions(qp: &mut QuadraticPlacement, pads: &[(usize, f64, f64)]) {
    for &(i, x, y) in pads {
        qp.x[i] = x;
        qp.y[i] = y;
    }
}

/// Discrete positions: slot centre for assigned clusters, continuous
/// position for pads.
fn positions_of(
    assignment: &[Option<u32>],
    fallback: &[(f64, f64)],
    grid: &VirtualGrid,
) -> Vec<(f64, f64)> {
    assignment
        .iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(s) => grid.position(*s as usize),
            None => fallback[i],
        })
        .collect()
}

/// Total linear (half-perimeter-style) wirelength over cluster edges.
fn linear_wirelength(graph: &ClusterGraph, positions: &[(f64, f64)], alpha: f64) -> f64 {
    graph
        .edges()
        .map(|(a, b, w)| {
            let (xa, ya) = positions[a.index()];
            let (xb, yb) = positions[b.index()];
            w as f64 * (alpha * (xa - xb).abs() + (ya - yb).abs())
        })
        .sum()
}

fn check_legal(
    assignment: &[Option<u32>],
    clusters: &[crate::placer::Cluster],
    grid: &VirtualGrid,
) -> bool {
    let mut usage = vec![Resources::ZERO; grid.slot_count()];
    for (i, slot) in assignment.iter().enumerate() {
        if let Some(s) = slot {
            usage[*s as usize] += clusters[i].resources();
        }
    }
    let cap = grid.capacity();
    usage.iter().all(|u| u.fits_within(&cap))
}

/// The final output of the §4 pipeline: every packed cluster assigned to a
/// virtual-block slot.
#[derive(Debug, Clone)]
pub struct Placement {
    packing: Packing,
    graph: ClusterGraph,
    assignment: Vec<Option<u32>>,
    legal: bool,
}

impl Placement {
    /// The cluster-level connectivity graph.
    pub fn graph(&self) -> &ClusterGraph {
        &self.graph
    }

    /// Cluster-to-slot assignment (`None` for I/O pad clusters).
    pub fn assignment(&self) -> &[Option<u32>] {
        &self.assignment
    }

    /// The virtual-block slot of primitive `p` (`None` if `p` is an I/O
    /// port or out of range).
    pub fn block_of(&self, p: PrimitiveId) -> Option<u32> {
        self.assignment
            .get(self.packing.cluster_of(p).index())
            .copied()
            .flatten()
    }

    /// `true` if no virtual block is over-utilized.
    pub fn is_legal(&self) -> bool {
        self.legal
    }
}

/// A *naive* partition used as the ablation baseline for the paper's §5.4
/// claim (placement-based partitioning reduces inter-block bandwidth ~2.1×):
/// same packing, but clusters are shuffled and first-fit assigned to slots
/// with no regard for connectivity.
///
/// # Errors
///
/// * [`PlacerError::EmptyNetlist`] if the netlist has no primitives.
/// * [`PlacerError::CapacityExceeded`] if the netlist cannot fit in the grid.
pub fn random_assignment(
    netlist: &Netlist,
    grid: &VirtualGrid,
    seed: u64,
) -> Result<Placement, PlacerError> {
    if netlist.primitive_count() == 0 {
        return Err(PlacerError::EmptyNetlist);
    }
    let usage = netlist.resource_usage();
    let total_cap = grid.capacity() * grid.slot_count() as u64;
    if !usage.fits_within(&total_cap) {
        return Err(PlacerError::CapacityExceeded {
            required: usage,
            available: total_cap,
        });
    }
    let dfg = DataflowGraph::from_netlist(netlist);
    let packing = pack(netlist, &dfg, &PackingConfig::default());
    let graph = ClusterGraph::from_packing(&dfg, &packing);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..packing.cluster_count())
        .filter(|&i| !packing.clusters()[i].is_io())
        .collect();
    order.shuffle(&mut rng);

    let cap = grid.capacity();
    let mut slot_usage = vec![Resources::ZERO; grid.slot_count()];
    let mut assignment: Vec<Option<u32>> = vec![None; packing.cluster_count()];
    for i in order {
        let need = packing.clusters()[i].resources();
        let slot = (0..grid.slot_count())
            .find(|&s| (slot_usage[s] + need).fits_within(&cap))
            .or_else(|| {
                (0..grid.slot_count()).min_by(|&a, &b| {
                    let ua = slot_usage[a].utilization_of(&cap).bottleneck();
                    let ub = slot_usage[b].utilization_of(&cap).bottleneck();
                    ua.partial_cmp(&ub).unwrap_or(std::cmp::Ordering::Equal)
                })
            })
            .expect("grid has at least one slot");
        slot_usage[slot] += need;
        assignment[i] = Some(slot as u32);
    }
    let legal = check_legal(&assignment, packing.clusters(), grid);
    Ok(Placement {
        packing,
        graph,
        assignment,
        legal,
    })
}

#[cfg(test)]
impl Placement {
    /// The packing used by this placement.
    pub(crate) fn packing(&self) -> &Packing {
        &self.packing
    }
}
