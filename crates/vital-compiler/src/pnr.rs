//! Local and global place-and-route.
//!
//! Local P&R (paper §3.3 step 4) maps the user logic of one virtual block
//! onto the sites of a physical block; the paper reuses the commercial
//! (Vivado) P&R stage here, and this module is the reproduction's stand-in:
//! a wirelength-driven simulated-annealing detailed placer over the block's
//! real site geometry plus an analytic timing estimate. Exactly as in the
//! paper's Fig. 8, this stage performs by far the most work of the flow —
//! it anneals hundreds of thousands of primitive-level moves while the
//! custom tools only manipulate a few hundred clusters.
//!
//! Global P&R (step 6) stitches the per-block images together by assigning
//! every planned channel to a boundary lane (`route_channels`).

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vital_fabric::{DeviceModel, TileKind};
use vital_interface::ChannelPlan;
use vital_netlist::{DataflowGraph, Netlist, PrimitiveId, PrimitiveKind};

use crate::CompileError;

/// Effort knobs of the local P&R annealer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PnrConfig {
    /// RNG seed.
    pub seed: u64,
    /// Proposed moves per primitive per temperature (split across shards).
    pub(crate) moves_per_primitive: usize,
    /// Number of temperature steps.
    pub(crate) temperatures: usize,
    /// Initial temperature (in units of edge-length cost).
    pub t0: f64,
    /// Geometric cooling factor.
    pub(crate) cooling: f64,
    /// Boundary lanes available per block for global routing.
    pub(crate) lanes_per_block: usize,
    /// Independent annealing shards per block. Each shard runs
    /// `moves_per_primitive / shards` of the move budget from its own RNG
    /// stream and the best shard (by wirelength, ties to the lowest shard
    /// index) wins, so the result is identical whether shards run serially
    /// or spread over worker threads — this is what lets the pipeline
    /// parallelize *within* a block when there are fewer blocks than
    /// workers. `1` reproduces the unsharded annealer exactly.
    pub shards: usize,
}

fn default_shards() -> usize {
    4
}

impl Default for PnrConfig {
    fn default() -> Self {
        PnrConfig {
            seed: 0x9a7,
            moves_per_primitive: 24,
            temperatures: 10,
            t0: 40.0,
            cooling: 0.6,
            lanes_per_block: 6,
            shards: default_shards(),
        }
    }
}

/// The kind of a physical site inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum SiteKind {
    /// A CLB slice site (hosts `Slice`, `Lut` and `FlipFlop` primitives).
    Slice,
    /// A RAMB36 site.
    Bram,
    /// A DSP48 site.
    Dsp,
}

impl SiteKind {
    fn of_primitive(kind: PrimitiveKind) -> Option<SiteKind> {
        match kind {
            PrimitiveKind::Lut { .. } | PrimitiveKind::FlipFlop | PrimitiveKind::Slice { .. } => {
                Some(SiteKind::Slice)
            }
            PrimitiveKind::Dsp => Some(SiteKind::Dsp),
            PrimitiveKind::Bram { .. } => Some(SiteKind::Bram),
            PrimitiveKind::Io { .. } => None,
        }
    }
}

/// One placeable site of a physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Site {
    /// Column coordinate.
    pub x: u32,
    /// Row coordinate.
    pub y: u32,
    /// The site kind.
    pub kind: SiteKind,
}

/// The site geometry of one physical block, derived from the device's
/// column layout. Because all physical blocks are identical, one model
/// serves every block — which is precisely what makes relocation free.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SiteModel {
    sites: Vec<Site>,
    slice_sites: Vec<u32>,
    bram_sites: Vec<u32>,
    dsp_sites: Vec<u32>,
}

impl SiteModel {
    /// Builds the site model of one `block_rows`-tall block of `device`.
    pub(crate) fn for_block(device: &DeviceModel, block_rows: u64) -> Self {
        let mut sites = Vec::new();
        let mut x = 0u32;
        for group in device.user_columns() {
            for _ in 0..group.count {
                for y in 0..block_rows {
                    let site = match group.kind {
                        TileKind::Clb => Some(SiteKind::Slice),
                        TileKind::Bram if y % TileKind::BRAM_ROW_PERIOD == 0 => {
                            Some(SiteKind::Bram)
                        }
                        TileKind::Dsp if y % TileKind::DSP_ROW_PERIOD == 0 => Some(SiteKind::Dsp),
                        _ => None,
                    };
                    if let Some(kind) = site {
                        sites.push(Site {
                            x,
                            y: y as u32,
                            kind,
                        });
                    }
                }
                x += 1;
            }
        }
        let mut model = SiteModel {
            sites,
            slice_sites: Vec::new(),
            bram_sites: Vec::new(),
            dsp_sites: Vec::new(),
        };
        for (i, s) in model.sites.iter().enumerate() {
            match s.kind {
                SiteKind::Slice => model.slice_sites.push(i as u32),
                SiteKind::Bram => model.bram_sites.push(i as u32),
                SiteKind::Dsp => model.dsp_sites.push(i as u32),
            }
        }
        model
    }

    /// All sites.
    pub(crate) fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Site indices of one kind.
    pub(crate) fn sites_of(&self, kind: SiteKind) -> &[u32] {
        match kind {
            SiteKind::Slice => &self.slice_sites,
            SiteKind::Bram => &self.bram_sites,
            SiteKind::Dsp => &self.dsp_sites,
        }
    }
}

/// The detailed placement of one virtual block's sub-netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalPlacement {
    /// `(primitive, site index)` pairs.
    pub site_of: Vec<(PrimitiveId, u32)>,
    /// Final intra-block wirelength (bit-weighted Manhattan).
    pub wirelength: f64,
    /// Wirelength of the compact initial assignment, before annealing.
    pub initial_wirelength: f64,
    /// Longest single placed edge in Manhattan tiles.
    pub(crate) max_edge: f64,
    /// Analytic post-P&R frequency estimate in MHz.
    pub achieved_mhz: f64,
}

/// One virtual block's local P&R problem in dense local indices: the
/// feasibility-checked, preprocessed form the annealing shards share
/// read-only. Building it once per block (instead of re-deriving site
/// kinds and adjacency from the netlist inside the move loop) is what
/// removes the per-move hash lookups and allocation churn that made the
/// parallel path slower than serial.
#[derive(Debug)]
pub(crate) struct BlockProblem {
    /// The virtual block being placed.
    pub(crate) block: u32,
    /// Original primitive ids in local-index order.
    prims: Vec<PrimitiveId>,
    /// `kind_index` of each local primitive (0 = Slice, 1 = Bram, 2 = Dsp).
    kind_of_local: Vec<u8>,
    /// Block-internal edges `(local a, local b, bit weight)`.
    edges: Vec<(u32, u32, f64)>,
    /// CSR offsets into `incident_edges`, length `prims.len() + 1`.
    incident_start: Vec<u32>,
    /// Edge indices incident to each local primitive (CSR payload).
    incident_edges: Vec<u32>,
    /// Compact initial assignment (site per local primitive).
    initial: Vec<u32>,
    /// Wirelength of `initial`.
    pub(crate) initial_wirelength: f64,
    /// Mean edge bit weight; scales the annealing temperature.
    avg_edge_bits: f64,
}

impl BlockProblem {
    /// Preprocesses `prims` into a placement problem, performing the
    /// feasibility checks that used to live at the head of `place_block`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::PlacementInfeasible`] if a primitive is not
    /// placeable or the block lacks sites of some kind.
    pub(crate) fn build(
        netlist: &Netlist,
        dfg: &DataflowGraph,
        block: u32,
        prims: &[PrimitiveId],
        sites: &SiteModel,
    ) -> Result<Self, CompileError> {
        // Local index per primitive.
        let mut local_of = std::collections::HashMap::with_capacity(prims.len());
        for (i, &p) in prims.iter().enumerate() {
            local_of.insert(p, i as u32);
        }

        // Partition primitives by site kind and check feasibility.
        let mut kind_of_local = Vec::with_capacity(prims.len());
        let mut by_kind: [Vec<u32>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, &p) in prims.iter().enumerate() {
            let kind = netlist
                .primitive(p)
                .and_then(|pr| SiteKind::of_primitive(pr.kind()));
            let Some(kind) = kind else {
                return Err(CompileError::PlacementInfeasible {
                    block,
                    reason: format!("primitive {p} is not placeable in a block"),
                });
            };
            kind_of_local.push(kind_index(kind) as u8);
            by_kind[kind_index(kind)].push(i as u32);
        }
        for (ki, kind) in [SiteKind::Slice, SiteKind::Bram, SiteKind::Dsp]
            .into_iter()
            .enumerate()
        {
            if by_kind[ki].len() > sites.sites_of(kind).len() {
                return Err(CompileError::PlacementInfeasible {
                    block,
                    reason: format!(
                        "needs {} {kind:?} sites but the block has {}",
                        by_kind[ki].len(),
                        sites.sites_of(kind).len()
                    ),
                });
            }
        }

        // Block-internal edges in local indices, plus the incident lists
        // in compressed-sparse-row form (two passes: count, then fill).
        let mut edges: Vec<(u32, u32, f64)> = Vec::new();
        let mut degree: Vec<u32> = vec![0; prims.len()];
        for &p in prims {
            for e in dfg.neighbors(p) {
                if e.other <= p {
                    continue; // visit each edge once
                }
                if let Some(&other_local) = local_of.get(&e.other) {
                    let a = local_of[&p];
                    edges.push((a, other_local, e.bits as f64));
                    degree[a as usize] += 1;
                    degree[other_local as usize] += 1;
                }
            }
        }
        let mut incident_start: Vec<u32> = Vec::with_capacity(prims.len() + 1);
        incident_start.push(0);
        for &d in &degree {
            incident_start.push(incident_start.last().unwrap() + d);
        }
        let mut cursor: Vec<u32> = incident_start[..prims.len()].to_vec();
        let mut incident_edges: Vec<u32> = vec![0; edges.len() * 2];
        for (ei, &(a, b, _)) in edges.iter().enumerate() {
            incident_edges[cursor[a as usize] as usize] = ei as u32;
            cursor[a as usize] += 1;
            incident_edges[cursor[b as usize] as usize] = ei as u32;
            cursor[b as usize] += 1;
        }

        // Initial assignment: k-th primitive of a kind onto the k-th site
        // of that kind (sites are in column-major order — a compact start).
        let mut initial: Vec<u32> = vec![0; prims.len()];
        for (ki, kind) in [SiteKind::Slice, SiteKind::Bram, SiteKind::Dsp]
            .into_iter()
            .enumerate()
        {
            let pool = sites.sites_of(kind);
            for (k, &local) in by_kind[ki].iter().enumerate() {
                initial[local as usize] = pool[k];
            }
        }

        let initial_wirelength: f64 = edges
            .iter()
            .map(|e| e.2 * site_dist(sites, initial[e.0 as usize], initial[e.1 as usize]))
            .sum();
        let avg_edge_bits = if edges.is_empty() {
            1.0
        } else {
            edges.iter().map(|e| e.2).sum::<f64>() / edges.len() as f64
        };
        Ok(BlockProblem {
            block,
            prims: prims.to_vec(),
            kind_of_local,
            edges,
            incident_start,
            incident_edges,
            initial,
            initial_wirelength,
            avg_edge_bits,
        })
    }

    /// Number of primitives to place.
    pub(crate) fn len(&self) -> usize {
        self.prims.len()
    }

    fn wirelength_of(&self, sites: &SiteModel, assignment: &[u32]) -> f64 {
        self.edges
            .iter()
            .map(|e| e.2 * site_dist(sites, assignment[e.0 as usize], assignment[e.1 as usize]))
            .sum()
    }
}

/// Reusable per-worker annealing buffers. One scratch serves any number of
/// `anneal_shard` calls (across blocks and shards), so a worker thread
/// allocates once instead of once per block — the other half of the
/// parallel-slowdown fix. The `occupant` vector is sized to the site count
/// with `u32::MAX` marking empty sites; each run restores its entries on
/// exit, so clearing costs O(primitives), not O(sites).
#[derive(Debug)]
pub(crate) struct PnrScratch {
    site_of_local: Vec<u32>,
    best: Vec<u32>,
    occupant: Vec<u32>,
}

/// Occupancy sentinel: no primitive on this site.
const EMPTY_SITE: u32 = u32::MAX;

impl PnrScratch {
    /// A scratch for blocks placed on a geometry of `site_count` sites.
    pub(crate) fn new(site_count: usize) -> Self {
        PnrScratch {
            site_of_local: Vec::new(),
            best: Vec::new(),
            occupant: vec![EMPTY_SITE; site_count],
        }
    }
}

/// The best placement one annealing shard found.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlacement {
    /// Site per local primitive.
    pub(crate) assignment: Vec<u32>,
    /// Its wirelength.
    pub(crate) wirelength: f64,
}

/// Mixes the shard index into the per-block seed; shard 0 keeps the
/// unsharded seed so `shards: 1` reproduces the original annealer bit for
/// bit.
fn shard_seed(cfg: &PnrConfig, block: u32, shard: usize) -> u64 {
    cfg.seed ^ u64::from(block) ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn site_dist(sites: &SiteModel, sa: u32, sb: u32) -> f64 {
    let a = sites.sites[sa as usize];
    let b = sites.sites[sb as usize];
    (f64::from(a.x) - f64::from(b.x)).abs() + (f64::from(a.y) - f64::from(b.y)).abs()
}

/// Runs one annealing shard of `problem`: hill-climb at a geometric
/// temperature schedule followed by two greedy passes, snapshotting the
/// best placement at every temperature boundary (so a shard can never end
/// worse than the compact initial assignment). The shard's RNG stream and
/// move budget depend only on `(cfg, problem.block, shard)`, never on the
/// thread that runs it.
pub(crate) fn anneal_shard(
    problem: &BlockProblem,
    sites: &SiteModel,
    cfg: &PnrConfig,
    shard: usize,
    scratch: &mut PnrScratch,
) -> ShardPlacement {
    let n = problem.len();
    let shards = cfg.shards.max(1);
    // Split the block's move budget across shards, remainder to the low
    // shards, so the total annealing work is independent of `shards`.
    let total_moves = n * cfg.moves_per_primitive;
    let moves = total_moves / shards + usize::from(shard < total_moves % shards);

    let PnrScratch {
        site_of_local,
        best,
        occupant,
    } = scratch;
    site_of_local.clone_from(&problem.initial);
    best.clone_from(&problem.initial);
    for (local, &s) in site_of_local.iter().enumerate() {
        occupant[s as usize] = local as u32;
    }
    let mut best_wirelength = problem.initial_wirelength;

    let eval = |local: u32, site_of_local: &[u32]| -> f64 {
        let lo = problem.incident_start[local as usize] as usize;
        let hi = problem.incident_start[local as usize + 1] as usize;
        let mut acc = 0.0;
        for &ei in &problem.incident_edges[lo..hi] {
            let e = &problem.edges[ei as usize];
            acc += e.2
                * site_dist(
                    sites,
                    site_of_local[e.0 as usize],
                    site_of_local[e.1 as usize],
                );
        }
        acc
    };

    let mut rng = StdRng::seed_from_u64(shard_seed(cfg, problem.block, shard));
    let mut t = cfg.t0 * problem.avg_edge_bits;
    // The final two schedule entries run greedy (temperature zero).
    for step in 0..cfg.temperatures + 2 {
        let greedy = step >= cfg.temperatures;
        if greedy {
            // Start the greedy finish from the best placement seen so far.
            for &s in site_of_local.iter() {
                occupant[s as usize] = EMPTY_SITE;
            }
            site_of_local.clone_from(best);
            for (local, &s) in site_of_local.iter().enumerate() {
                occupant[s as usize] = local as u32;
            }
        }
        for _ in 0..moves {
            let a_local = rng.gen_range(0..n) as u32;
            let pool = match problem.kind_of_local[a_local as usize] {
                0 => &sites.slice_sites,
                1 => &sites.bram_sites,
                _ => &sites.dsp_sites,
            };
            let target = pool[rng.gen_range(0..pool.len())];
            let from = site_of_local[a_local as usize];
            if target == from {
                continue;
            }
            let swap_with = match occupant[target as usize] {
                EMPTY_SITE => None,
                b_local => Some(b_local),
            };

            // Cost delta over incident edges of the moved primitive(s).
            let mut before = eval(a_local, site_of_local);
            if let Some(b_local) = swap_with {
                before += eval(b_local, site_of_local);
            }
            // Apply tentatively.
            site_of_local[a_local as usize] = target;
            if let Some(b_local) = swap_with {
                site_of_local[b_local as usize] = from;
            }
            let mut after = eval(a_local, site_of_local);
            if let Some(b_local) = swap_with {
                after += eval(b_local, site_of_local);
            }
            let delta = after - before;
            let accept = if greedy {
                delta < 0.0
            } else {
                delta <= 0.0 || rng.gen::<f64>() < (-delta / t).exp()
            };
            if accept {
                // Accept: update occupancy.
                occupant[target as usize] = a_local;
                occupant[from as usize] = match swap_with {
                    Some(b_local) => b_local,
                    None => EMPTY_SITE,
                };
            } else {
                // Revert.
                site_of_local[a_local as usize] = from;
                if let Some(b_local) = swap_with {
                    site_of_local[b_local as usize] = target;
                }
            }
        }
        t *= cfg.cooling;
        // Snapshot at every temperature boundary: the shard can never end
        // worse than the best placement it visited.
        let wl = problem.wirelength_of(sites, site_of_local);
        if wl <= best_wirelength {
            best_wirelength = wl;
            best.clone_from(site_of_local);
        }
    }

    // Leave the scratch clean (all occupancy entries back to empty) for
    // whatever block or shard this worker anneals next.
    for &s in site_of_local.iter() {
        occupant[s as usize] = EMPTY_SITE;
    }
    ShardPlacement {
        assignment: best.clone(),
        wirelength: best_wirelength,
    }
}

/// Expands the winning shard's assignment into the public
/// [`LocalPlacement`] with its analytic timing estimate.
pub(crate) fn finalize_placement(
    problem: &BlockProblem,
    sites: &SiteModel,
    best: &ShardPlacement,
) -> LocalPlacement {
    let max_edge = problem
        .edges
        .iter()
        .map(|e| {
            site_dist(
                sites,
                best.assignment[e.0 as usize],
                best.assignment[e.1 as usize],
            )
        })
        .fold(0.0, f64::max);
    // Analytic timing: base logic delay plus ~12 ps per routed tile of the
    // longest edge, capped at the shell clock.
    let achieved_mhz = (1000.0 / (1.8 + 0.012 * max_edge)).min(300.0);
    LocalPlacement {
        site_of: problem
            .prims
            .iter()
            .zip(&best.assignment)
            .map(|(&p, &s)| (p, s))
            .collect(),
        wirelength: best.wirelength,
        initial_wirelength: problem.initial_wirelength,
        max_edge,
        achieved_mhz,
    }
}

fn kind_index(kind: SiteKind) -> usize {
    match kind {
        SiteKind::Slice => 0,
        SiteKind::Bram => 1,
        SiteKind::Dsp => 2,
    }
}

/// Result of global routing: the lane assignment of every planned channel
/// plus the congestion-negotiated paths over the virtual-block mesh.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct RoutingResult {
    /// `(channel index, lane)` per planned channel.
    pub(crate) lane_of: Vec<(usize, u32)>,
    /// Worst per-block lane demand over supply (1.0 = fully subscribed).
    pub(crate) peak_lane_utilization: f64,
    /// The PathFinder-style mesh routing (paper §3.3 step 6).
    pub global: crate::route::GlobalRouting,
}

/// Global place-and-route (step 6): assigns every planned channel to the
/// least-loaded (by bits) boundary lane of its producing block, then routes
/// the channels over the virtual-block mesh with negotiated congestion
/// (`slot_of_vb` gives each virtual block's mesh slot; `cols x rows` is the
/// mesh shape).
pub(crate) fn route_channels_on(
    plan: &ChannelPlan,
    cfg: &PnrConfig,
    slot_of_vb: &[u32],
    cols: usize,
    rows: usize,
) -> RoutingResult {
    let mut result = route_channels(plan, cfg);
    let route_cfg = crate::route::RouteConfig {
        edge_capacity_bits: cfg.lanes_per_block.max(1) as u64 * 512,
        ..crate::route::RouteConfig::default()
    };
    result.global = crate::route::route_global(plan, slot_of_vb, cols, rows, &route_cfg);
    result
}

/// Lane assignment only (see [`route_channels_on`] for the full step 6);
/// channels route on a degenerate 1x1 mesh.
pub(crate) fn route_channels(plan: &ChannelPlan, cfg: &PnrConfig) -> RoutingResult {
    use std::collections::HashMap;
    let lanes = cfg.lanes_per_block.max(1) as u32;
    // (block, lane) -> (accumulated bits, channel count).
    let mut load: HashMap<(u32, u32), (u64, u32)> = HashMap::new();
    let mut lane_of = Vec::with_capacity(plan.channel_count());
    for (i, c) in plan.channels().iter().enumerate() {
        let lane = (0..lanes)
            .min_by_key(|&l| {
                let (bits, count) = load.get(&(c.from_block, l)).copied().unwrap_or((0, 0));
                (bits, count, l)
            })
            .expect("at least one lane");
        let entry = load.entry((c.from_block, lane)).or_insert((0, 0));
        entry.0 += u64::from(c.width_bits);
        entry.1 += 1;
        lane_of.push((i, lane));
    }
    let peak = load.values().map(|&(_, count)| count).max().unwrap_or(0);
    let vb_count = plan
        .channels()
        .iter()
        .map(|c| c.from_block.max(c.to_block) as usize + 1)
        .max()
        .unwrap_or(0);
    RoutingResult {
        lane_of,
        peak_lane_utilization: f64::from(peak),
        global: crate::route::route_global(
            plan,
            &vec![0u32; vb_count],
            1,
            1,
            &crate::route::RouteConfig::default(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_netlist::hls::{synthesize, AppSpec, Operator};

    /// Places the primitives `prims` (one virtual block's logic) onto `sites`:
    /// the compiler's per-block path, run serially over every shard.
    ///
    /// The annealer minimizes bit-weighted Manhattan wirelength over the
    /// block-internal edges of `dfg`; cross-block edges are handled by the
    /// latency-insensitive interface and do not constrain local timing.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::PlacementInfeasible`] if the block needs more
    /// sites of some kind than the physical block provides.
    fn place_block(
        netlist: &Netlist,
        dfg: &DataflowGraph,
        block: u32,
        prims: &[PrimitiveId],
        sites: &SiteModel,
        cfg: &PnrConfig,
    ) -> Result<LocalPlacement, CompileError> {
        let problem = BlockProblem::build(netlist, dfg, block, prims, sites)?;
        let mut scratch = PnrScratch::new(sites.sites().len());
        let shards = cfg.shards.max(1);
        let mut best: Option<ShardPlacement> = None;
        for shard in 0..shards {
            let candidate = anneal_shard(&problem, sites, cfg, shard, &mut scratch);
            if best
                .as_ref()
                .is_none_or(|b| candidate.wirelength < b.wirelength)
            {
                best = Some(candidate);
            }
        }
        let best = best.expect("shards >= 1");
        Ok(finalize_placement(&problem, sites, &best))
    }

    fn block_prims(n: &Netlist) -> Vec<PrimitiveId> {
        n.primitives()
            .iter()
            .filter(|p| !p.kind().is_io())
            .map(|p| p.id())
            .collect()
    }

    fn small_netlist() -> Netlist {
        let mut spec = AppSpec::new("t");
        let m = spec.add_operator("m", Operator::MacArray { pes: 10 });
        let b = spec.add_operator("b", Operator::Buffer { kb: 144, banks: 2 });
        spec.add_edge(b, m, 128).unwrap();
        synthesize(&spec).unwrap()
    }

    #[test]
    fn site_model_matches_block_resources() {
        let device = DeviceModel::xcvu37p();
        let model = SiteModel::for_block(&device, 60);
        // 165 CLB columns x 60 rows.
        assert_eq!(model.sites_of(SiteKind::Slice).len(), 9_900);
        // 10 BRAM columns x 12 sites.
        assert_eq!(model.sites_of(SiteKind::Bram).len(), 120);
        // 29 DSP columns x 20 sites.
        assert_eq!(model.sites_of(SiteKind::Dsp).len(), 580);
    }

    #[test]
    fn placement_assigns_unique_sites() {
        let n = small_netlist();
        let dfg = DataflowGraph::from_netlist(&n);
        let device = DeviceModel::xcvu37p();
        let sites = SiteModel::for_block(&device, 60);
        let prims = block_prims(&n);
        let p = place_block(&n, &dfg, 0, &prims, &sites, &PnrConfig::default()).unwrap();
        assert_eq!(p.site_of.len(), prims.len());
        let mut used: Vec<u32> = p.site_of.iter().map(|&(_, s)| s).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), prims.len(), "sites must be exclusive");
        // Kind compatibility.
        for &(prim, site) in &p.site_of {
            let kind = SiteKind::of_primitive(n.primitive(prim).unwrap().kind()).unwrap();
            assert_eq!(sites.sites()[site as usize].kind, kind);
        }
    }

    #[test]
    fn annealing_never_worse_than_initial_assignment() {
        let n = small_netlist();
        let dfg = DataflowGraph::from_netlist(&n);
        let device = DeviceModel::xcvu37p();
        let sites = SiteModel::for_block(&device, 60);
        let prims = block_prims(&n);
        let annealed = place_block(&n, &dfg, 0, &prims, &sites, &PnrConfig::default()).unwrap();
        assert!(
            annealed.wirelength <= annealed.initial_wirelength,
            "annealed {} vs initial {}",
            annealed.wirelength,
            annealed.initial_wirelength
        );
        assert!(annealed.achieved_mhz > 0.0 && annealed.achieved_mhz <= 300.0);
    }

    #[test]
    fn infeasible_when_too_many_dsps() {
        let mut spec = AppSpec::new("dsp-heavy");
        spec.add_operator("m", Operator::MacArray { pes: 600 }); // 600 DSPs > 580
        let n = synthesize(&spec).unwrap();
        let dfg = DataflowGraph::from_netlist(&n);
        let device = DeviceModel::xcvu37p();
        let sites = SiteModel::for_block(&device, 60);
        let prims = block_prims(&n);
        let err = place_block(&n, &dfg, 3, &prims, &sites, &PnrConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            CompileError::PlacementInfeasible { block: 3, .. }
        ));
    }

    #[test]
    fn io_primitives_are_rejected() {
        let n = {
            let mut spec = AppSpec::new("io");
            let m = spec.add_operator("m", Operator::Pipeline { slices: 2 });
            spec.add_input("i", m, 8).unwrap();
            synthesize(&spec).unwrap()
        };
        let dfg = DataflowGraph::from_netlist(&n);
        let device = DeviceModel::xcvu37p();
        let sites = SiteModel::for_block(&device, 60);
        let all: Vec<PrimitiveId> = n.primitives().iter().map(|p| p.id()).collect();
        assert!(place_block(&n, &dfg, 0, &all, &sites, &PnrConfig::default()).is_err());
    }

    #[test]
    fn routing_balances_lanes() {
        use vital_interface::{plan_channels, CutEdge, InterfaceConfig};
        let cuts: Vec<CutEdge> = (0..12)
            .map(|i| CutEdge {
                from_block: 0,
                to_block: 1 + (i % 3),
                bits: 512,
            })
            .collect();
        let plan = plan_channels(&cuts, &InterfaceConfig::default());
        let routing = route_channels(&plan, &PnrConfig::default());
        assert_eq!(routing.lane_of.len(), plan.channel_count());
        // 12 channels from block 0 over 6 lanes -> at most 2 per lane.
        assert!(routing.peak_lane_utilization <= 2.0);
    }
}
