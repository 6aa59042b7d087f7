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
//! every planned channel to a boundary lane and routes the channels over
//! the virtual-block mesh (`route_channels`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use vital_fabric::{DeviceModel, TileKind};
use vital_interface::ChannelPlan;
use vital_netlist::{DataflowGraph, Netlist, PrimitiveId, PrimitiveKind};

use crate::CompileError;

/// The local P&R annealer's schedule and step 6's boundary lanes. They tune
/// this stand-in for the vendor P&R, not ViTAL, so there is one value,
/// [`PNR`]. [`NetlistDigest`](crate::NetlistDigest) hashes its `Debug`
/// text, so the struct's name, fields and field order are part of every
/// stored image's key: a changed value moves the digest, a renamed field
/// would too.
#[derive(Debug)]
pub(crate) struct PnrConfig {
    /// RNG seed.
    seed: u64,
    /// Proposed moves per primitive per temperature step.
    moves_per_primitive: usize,
    /// Most annealing temperature steps before the greedy finish.
    temperatures: usize,
    /// Geometric cooling factor.
    cooling: f64,
    /// Boundary lanes available per block for global routing.
    lanes_per_block: usize,
}

/// The one local P&R configuration.
pub(crate) const PNR: PnrConfig = PnrConfig {
    seed: 0x9a7,
    moves_per_primitive: 20,
    temperatures: 5,
    cooling: 0.6,
    lanes_per_block: 6,
};

/// The kind of a physical site inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SiteModel {
    sites: Vec<Site>,
    /// The sites of each kind, indexed by `kind_index`.
    lattices: [Lattice; 3],
}

/// The sites of one kind as a lattice. Every column of a kind holds the
/// same rows, so `pool` (site indices, column by column) puts lattice point
/// `(c, k)`, the `k`-th site of the kind's `c`-th column, at
/// `c * per_col + k`. Move windows are measured in lattice steps, so a
/// window of 1 reaches the neighbouring DSP column however many CLB
/// columns lie between.
#[derive(Debug, Clone, PartialEq, Default)]
struct Lattice {
    pool: Vec<u32>,
    /// Lattice column of each device column of this kind (`u32::MAX` for
    /// the device's other columns left of the last one).
    col_of_x: Vec<u32>,
    cols: u32,
    per_col: u32,
    /// Rows between two sites of a column.
    period: u32,
}

impl Lattice {
    /// The lattice point of the site at `(x, y)`, which holds this kind.
    fn point(&self, (x, y): (u32, u32)) -> (u32, u32) {
        (self.col_of_x[x as usize], y / self.period)
    }
}

impl SiteModel {
    /// Builds the site model of one `block_rows`-tall block of `device`.
    pub(crate) fn for_block(device: &DeviceModel, block_rows: u64) -> Self {
        let mut sites = Vec::new();
        let mut lattices: [Lattice; 3] = Default::default();
        let mut x = 0u32;
        for group in device.user_columns() {
            let (kind, period) = match group.kind {
                TileKind::Clb => (SiteKind::Slice, 1),
                TileKind::Bram => (SiteKind::Bram, TileKind::BRAM_ROW_PERIOD),
                TileKind::Dsp => (SiteKind::Dsp, TileKind::DSP_ROW_PERIOD),
                _ => {
                    x += group.count;
                    continue;
                }
            };
            let lattice = &mut lattices[kind_index(kind)];
            lattice.period = period as u32;
            lattice.per_col = block_rows.div_ceil(period) as u32;
            for _ in 0..group.count {
                lattice.col_of_x.resize(x as usize + 1, u32::MAX);
                lattice.col_of_x[x as usize] = lattice.cols;
                lattice.cols += 1;
                for y in (0..block_rows as u32).step_by(period as usize) {
                    lattice.pool.push(sites.len() as u32);
                    sites.push(Site { x, y, kind });
                }
                x += 1;
            }
        }
        SiteModel { sites, lattices }
    }

    /// All sites.
    pub(crate) fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Site indices of one kind.
    pub(crate) fn sites_of(&self, kind: SiteKind) -> &[u32] {
        &self.lattices[kind_index(kind)].pool
    }

    /// The widest move window any kind can use: its lattice's longer side,
    /// less one, and at least 1.
    fn extent(&self) -> u32 {
        self.lattices
            .iter()
            .fold(1, |e, l| e.max(l.cols.max(l.per_col).saturating_sub(1)))
    }

    /// Draws a site uniformly from the window of half-width `w` lattice
    /// steps around the site at `at`, other than that site, in the lattice
    /// of `kind` (a `kind_index`), which that site belongs to. Returns the
    /// site itself only when the window holds no other.
    fn draw_in_window(&self, kind: u8, at: (u32, u32), w: u32, rng: &mut StdRng) -> u32 {
        let l = &self.lattices[kind as usize];
        let (c, k) = l.point(at);
        let (c0, k0) = (c.saturating_sub(w), k.saturating_sub(w));
        let cols = (c + w).min(l.cols - 1) - c0 + 1;
        let rows = (k + w).min(l.per_col - 1) - k0 + 1;
        let (mut tc, mut tk) = (c, k);
        while cols * rows > 1 && (tc, tk) == (c, k) {
            // One draw, split into two multiply-shift picks.
            let r = rng.next_u64();
            tc = c0 + (((r >> 32) * u64::from(cols)) >> 32) as u32;
            tk = k0 + (((r & 0xFFFF_FFFF) * u64::from(rows)) >> 32) as u32;
        }
        l.pool[(tc * l.per_col + tk) as usize]
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
    pub max_edge: f64,
    /// Analytic post-P&R frequency estimate in MHz.
    pub achieved_mhz: f64,
}

/// One virtual block's local P&R problem in dense local indices: the
/// feasibility-checked, preprocessed form its annealing chain reads.
/// Building it once per block (instead of re-deriving site
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
    /// CSR offsets into `adj`, length `prims.len() + 1`.
    incident_start: Vec<u32>,
    /// `(other endpoint, bit weight)` of each edge incident to each local
    /// primitive, in edge order (CSR payload): pricing a move reads one
    /// packed run per moved primitive instead of chasing edge indices.
    adj: Vec<(u32, f64)>,
    /// Compact initial assignment (site per local primitive).
    initial: Vec<u32>,
    /// Wirelength of `initial`.
    pub(crate) initial_wirelength: f64,
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

        // Partition primitives by site kind.
        let mut kind_of_local = Vec::with_capacity(prims.len());
        let mut by_kind: [Vec<u32>; 3] = Default::default();
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

        // Initial assignment: k-th primitive of a kind onto the k-th site
        // of that kind (sites are in column-major order — a compact start),
        // if the block has enough sites of every kind.
        let mut initial: Vec<u32> = vec![0; prims.len()];
        for (ki, kind) in [SiteKind::Slice, SiteKind::Bram, SiteKind::Dsp]
            .into_iter()
            .enumerate()
        {
            let pool = sites.sites_of(kind);
            if by_kind[ki].len() > pool.len() {
                return Err(CompileError::PlacementInfeasible {
                    block,
                    reason: format!(
                        "needs {} {kind:?} sites but the block has {}",
                        by_kind[ki].len(),
                        pool.len()
                    ),
                });
            }
            for (k, &local) in by_kind[ki].iter().enumerate() {
                initial[local as usize] = pool[k];
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
        let mut adj: Vec<(u32, f64)> = vec![(0, 0.0); edges.len() * 2];
        for &(a, b, w) in &edges {
            adj[cursor[a as usize] as usize] = (b, w);
            cursor[a as usize] += 1;
            adj[cursor[b as usize] as usize] = (a, w);
            cursor[b as usize] += 1;
        }

        let mut problem = BlockProblem {
            block,
            prims: prims.to_vec(),
            kind_of_local,
            edges,
            incident_start,
            adj,
            initial,
            initial_wirelength: 0.0,
        };
        problem.initial_wirelength = problem.wirelength_of(sites, &problem.initial);
        Ok(problem)
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

    /// How much the bit-weighted Manhattan length of the edges at `local`
    /// changes if it moves to `to` while `swap` (`EMPTY_SITE` for none)
    /// moves onto its site, given every primitive's coordinates. Each term
    /// is an integer far below 2^53, so the sum is exact in any order: the
    /// same f64 as the length after the move less the length before.
    fn delta_of(&self, local: u32, to: (u32, u32), swap: u32, pos: &[(u32, u32)]) -> f64 {
        let lo = self.incident_start[local as usize] as usize;
        let hi = self.incident_start[local as usize + 1] as usize;
        let (x, y) = pos[local as usize];
        let mut acc = 0.0;
        for &(other, w) in &self.adj[lo..hi] {
            let (ox, oy) = pos[other as usize];
            let (nx, ny) = if other == swap { (x, y) } else { (ox, oy) };
            let before = x.abs_diff(ox) + y.abs_diff(oy);
            let after = to.0.abs_diff(nx) + to.1.abs_diff(ny);
            acc += w * (f64::from(after) - f64::from(before));
        }
        acc
    }
}

/// Reusable per-worker annealing buffers. One scratch serves any number of
/// `anneal_block` calls, so a worker thread allocates once instead of once
/// per block — the other half of the parallel-slowdown fix. The `occupant`
/// vector is sized to the site count with `u32::MAX` marking empty sites;
/// each run restores its entries on exit, so clearing costs O(primitives),
/// not O(sites). `pos` mirrors `site_of_local` as coordinates, and a move
/// is priced from `pos` alone, without writing anything.
#[derive(Debug)]
pub(crate) struct PnrScratch {
    site_of_local: Vec<u32>,
    best: Vec<u32>,
    occupant: Vec<u32>,
    pos: Vec<(u32, u32)>,
}

/// Occupancy sentinel: no primitive on this site.
const EMPTY_SITE: u32 = u32::MAX;

/// Passes at zero temperature that finish every chain.
const GREEDY_STEPS: usize = 2;

/// A step that lowers the chain's best wirelength by less than this
/// fraction ends its phase: the last annealing step hands over to the
/// greedy finish, and the last greedy pass ends the chain.
const STOP_FRACTION: f64 = 0.02;

/// The acceptance rate the move window is steered toward (VPR's 0.44).
const TARGET_ACCEPTANCE: f64 = 0.44;

/// The starting temperature, as a multiple of the mean cost rise of the
/// uphill moves sampled on the initial assignment: a cool start, since
/// the compact initial assignment is already good.
const T0_OF_MEAN_RISE: f64 = 0.1;

impl PnrScratch {
    /// A scratch for blocks placed on a geometry of `site_count` sites.
    pub(crate) fn new(site_count: usize) -> Self {
        PnrScratch {
            site_of_local: Vec::new(),
            best: Vec::new(),
            occupant: vec![EMPTY_SITE; site_count],
            pos: Vec::new(),
        }
    }

    /// Empties the sites `site_of_local` holds.
    fn unseat(&mut self) {
        for &s in &self.site_of_local {
            self.occupant[s as usize] = EMPTY_SITE;
        }
    }

    /// Seats every local primitive on its site in `best`, in
    /// `site_of_local`, `occupant` and `pos`.
    fn seat_best(&mut self, sites: &SiteModel) {
        self.unseat();
        self.site_of_local.clone_from(&self.best);
        self.pos.clear();
        for (local, &s) in self.site_of_local.iter().enumerate() {
            self.occupant[s as usize] = local as u32;
            self.pos.push(site_xy(sites, s));
        }
    }
}

fn site_dist(sites: &SiteModel, sa: u32, sb: u32) -> f64 {
    let a = sites.sites[sa as usize];
    let b = sites.sites[sb as usize];
    (f64::from(a.x) - f64::from(b.x)).abs() + (f64::from(a.y) - f64::from(b.y)).abs()
}

fn site_xy(sites: &SiteModel, s: u32) -> (u32, u32) {
    let site = sites.sites[s as usize];
    (site.x, site.y)
}

/// The next move window: VPR's range-limit update, which widens the
/// window while the acceptance `rate` of the last moves is above
/// `TARGET_ACCEPTANCE` and narrows it while it is below, kept within
/// `[1, extent]`.
fn next_window(window: f64, rate: f64, extent: u32) -> f64 {
    (window * (1.0 - TARGET_ACCEPTANCE + rate)).clamp(1.0, f64::from(extent))
}

/// A proposed move, priced but not made: `a` from `from` to `target`, and
/// `b`, the occupant of `target` (or `EMPTY_SITE`), back to `from`.
struct Move {
    a: u32,
    b: u32,
    from: u32,
    target: u32,
    delta: f64,
}

/// One block's annealing chain over a scratch.
struct Chain<'a> {
    problem: &'a BlockProblem,
    sites: &'a SiteModel,
    scratch: &'a mut PnrScratch,
    rng: StdRng,
    /// Half-width of the move window in lattice steps.
    window: f64,
    proposed: u64,
    accepted: u64,
}

impl Chain<'_> {
    /// Draws a primitive and a target in its window and prices the move
    /// without making it. `None` if the target is the primitive's own site.
    fn draw(&mut self) -> Option<Move> {
        self.proposed += 1;
        let (problem, sites) = (self.problem, self.sites);
        let a = self.rng.gen_range(0..problem.len()) as u32;
        let PnrScratch {
            site_of_local,
            occupant,
            pos,
            ..
        } = &mut *self.scratch;
        let from = site_of_local[a as usize];
        let target = sites.draw_in_window(
            problem.kind_of_local[a as usize],
            pos[a as usize],
            self.window as u32,
            &mut self.rng,
        );
        if target == from {
            return None;
        }
        let b = occupant[target as usize];
        let to = site_xy(sites, target);
        let mut delta = problem.delta_of(a, to, b, pos);
        if b != EMPTY_SITE {
            delta += problem.delta_of(b, pos[a as usize], a, pos);
        }
        Some(Move {
            a,
            b,
            from,
            target,
            delta,
        })
    }

    /// Makes a drawn move. `from` holds `a` and `target` holds `b` or
    /// nothing, so swapping the two occupancy entries is the move.
    fn make(&mut self, m: &Move) {
        self.accepted += 1;
        let s = &mut *self.scratch;
        s.site_of_local[m.a as usize] = m.target;
        s.occupant.swap(m.from as usize, m.target as usize);
        s.pos[m.a as usize] = site_xy(self.sites, m.target);
        if m.b != EMPTY_SITE {
            s.site_of_local[m.b as usize] = m.from;
            s.pos[m.b as usize] = site_xy(self.sites, m.from);
        }
    }

    /// Prices `count` moves without making any and returns the mean cost
    /// rise of the uphill ones (0 if none rises).
    fn mean_rise(&mut self, count: usize) -> f64 {
        let (mut sum, mut uphill) = (0.0, 0.0);
        for _ in 0..count {
            if let Some(m) = self.draw() {
                if m.delta > 0.0 {
                    sum += m.delta;
                    uphill += 1.0;
                }
            }
        }
        sum / f64::max(uphill, 1.0)
    }

    /// Proposes `moves` moves at temperature `t` (0: only strict
    /// improvements), steering the window after every sweep of one
    /// proposal per primitive.
    fn step(&mut self, moves: usize, t: f64) {
        let sweep = self.problem.len() as u64;
        let mut mark = (self.proposed, self.accepted);
        for _ in 0..moves {
            if let Some(m) = self.draw() {
                let accept = m.delta < 0.0
                    || (t > 0.0
                        && (m.delta == 0.0 || self.rng.gen::<f64>() < (-m.delta / t).exp()));
                if accept {
                    self.make(&m);
                }
            }
            if self.proposed - mark.0 == sweep {
                let rate = (self.accepted - mark.1) as f64 / sweep as f64;
                self.window = next_window(self.window, rate, self.sites.extent());
                mark = (self.proposed, self.accepted);
            }
        }
    }
}

/// Runs `problem`'s annealing chain and returns its placement with the
/// moves the chain proposed and accepted.
///
/// The chain starts cool, at a temperature taken from the uphill moves it
/// samples on the compact initial assignment. It then runs up to
/// `PNR.temperatures` geometrically cooled steps and `GREEDY_STEPS` passes
/// at zero temperature from the best placement seen, each proposing
/// `PNR.moves_per_primitive` moves per primitive. A move's target lies in a
/// window around the primitive's site: one lattice step wide at the start,
/// then steered after every sweep to hold the acceptance rate near
/// `TARGET_ACCEPTANCE`. A step that improves the best placement
/// by less than `STOP_FRACTION` ends its phase. The best placement is
/// snapshotted at every step boundary, so a chain never ends worse than
/// the initial assignment. Every draw comes from one RNG seeded by
/// `(PNR.seed, problem.block)`, never from the thread that runs it.
pub(crate) fn anneal_block(
    problem: &BlockProblem,
    sites: &SiteModel,
    scratch: &mut PnrScratch,
) -> (LocalPlacement, u64, u64) {
    let n = problem.len();
    let moves = n * PNR.moves_per_primitive;
    scratch.best.clone_from(&problem.initial);
    scratch.seat_best(sites);
    let mut chain = Chain {
        problem,
        sites,
        scratch: &mut *scratch,
        rng: StdRng::seed_from_u64(PNR.seed ^ u64::from(problem.block)),
        window: 1.0,
        proposed: 0,
        accepted: 0,
    };
    let mut best_wirelength = problem.initial_wirelength;
    let mut t = T0_OF_MEAN_RISE * chain.mean_rise(n);
    let mut step = 0;
    while step < PNR.temperatures + GREEDY_STEPS {
        let greedy = step >= PNR.temperatures;
        chain.step(moves, if greedy { 0.0 } else { t });
        t *= PNR.cooling;
        step += 1;
        let s = &mut *chain.scratch;
        let wl = problem.wirelength_of(sites, &s.site_of_local);
        let stalled = best_wirelength - wl < STOP_FRACTION * best_wirelength;
        if wl <= best_wirelength {
            best_wirelength = wl;
            s.best.clone_from(&s.site_of_local);
        }
        if stalled && !greedy {
            step = PNR.temperatures;
        } else if stalled {
            break;
        }
        if step == PNR.temperatures {
            // The greedy finish starts from the best placement seen.
            s.seat_best(sites);
        }
    }
    let (proposed, accepted) = (chain.proposed, chain.accepted);
    // Leave the scratch clean (all occupancy entries back to empty) for
    // whatever block this worker anneals next.
    scratch.unseat();
    let placement = finalize_placement(problem, sites, &scratch.best, best_wirelength);
    (placement, proposed, accepted)
}

/// Expands a chain's best assignment into the public [`LocalPlacement`]
/// with its analytic timing estimate.
fn finalize_placement(
    problem: &BlockProblem,
    sites: &SiteModel,
    assignment: &[u32],
    wirelength: f64,
) -> LocalPlacement {
    let max_edge = problem
        .edges
        .iter()
        .map(|e| site_dist(sites, assignment[e.0 as usize], assignment[e.1 as usize]))
        .fold(0.0, f64::max);
    // Analytic timing: base logic delay plus ~12 ps per routed tile of the
    // longest edge, capped at the shell clock.
    let achieved_mhz = (1000.0 / (1.8 + 0.012 * max_edge)).min(300.0);
    LocalPlacement {
        site_of: problem
            .prims
            .iter()
            .zip(assignment)
            .map(|(&p, &s)| (p, s))
            .collect(),
        wirelength,
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
/// the channels over the virtual-block mesh with negotiated congestion,
/// each slot-to-slot boundary carrying one 512-bit bundle per lane
/// (`slot_of_vb` gives each virtual block's mesh slot; `cols x rows` is the
/// mesh shape).
pub(crate) fn route_channels(
    plan: &ChannelPlan,
    slot_of_vb: &[u32],
    cols: usize,
    rows: usize,
) -> RoutingResult {
    use std::collections::HashMap;
    let lanes = PNR.lanes_per_block as u32;
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
    let edge_capacity_bits = u64::from(lanes) * 512;
    RoutingResult {
        lane_of,
        peak_lane_utilization: f64::from(peak),
        global: crate::route::route_global(plan, slot_of_vb, cols, rows, edge_capacity_bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_netlist::hls::{synthesize, AppSpec, Operator};

    /// Places the primitives `prims` (one virtual block's logic) onto `sites`:
    /// the compiler's per-block path, run serially.
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
    ) -> Result<LocalPlacement, CompileError> {
        let problem = BlockProblem::build(netlist, dfg, block, prims, sites)?;
        let mut scratch = PnrScratch::new(sites.sites().len());
        Ok(anneal_block(&problem, sites, &mut scratch).0)
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
        let p = place_block(&n, &dfg, 0, &prims, &sites).unwrap();
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
        let annealed = place_block(&n, &dfg, 0, &prims, &sites).unwrap();
        assert!(
            annealed.wirelength <= annealed.initial_wirelength,
            "annealed {} vs initial {}",
            annealed.wirelength,
            annealed.initial_wirelength
        );
        assert!(annealed.achieved_mhz > 0.0 && annealed.achieved_mhz <= 300.0);
    }

    #[test]
    fn packed_cost_equals_edge_list_cost_bit_for_bit() {
        let n = small_netlist();
        let dfg = DataflowGraph::from_netlist(&n);
        let sites = SiteModel::for_block(&DeviceModel::xcvu37p(), 60);
        let problem = BlockProblem::build(&n, &dfg, 0, &block_prims(&n), &sites).unwrap();
        assert!(problem.edges.len() > 10, "needs a real edge list");
        let mut rng = StdRng::seed_from_u64(45);
        for _ in 0..20 {
            let assignment: Vec<u32> = (0..problem.len())
                .map(|_| rng.gen_range(0..sites.sites().len()) as u32)
                .collect();
            let pos: Vec<(u32, u32)> = assignment.iter().map(|&s| site_xy(&sites, s)).collect();
            for a in 0..problem.len() as u32 {
                // Move `a` to a random site, or swap it with another
                // primitive, and price it both ways: the packed delta
                // against the whole edge list before and after.
                let swap = match rng.gen_range(0..2u32) {
                    0 => EMPTY_SITE,
                    _ => rng.gen_range(0..problem.len() as u32),
                };
                if swap == a {
                    continue;
                }
                let mut after = assignment.clone();
                after[a as usize] = match swap {
                    EMPTY_SITE => rng.gen_range(0..sites.sites().len()) as u32,
                    b => assignment[b as usize],
                };
                let mut delta = problem.delta_of(a, site_xy(&sites, after[a as usize]), swap, &pos);
                if swap != EMPTY_SITE {
                    after[swap as usize] = assignment[a as usize];
                    delta += problem.delta_of(swap, pos[a as usize], a, &pos);
                }
                let exact = problem.wirelength_of(&sites, &after)
                    - problem.wirelength_of(&sites, &assignment);
                assert_eq!(delta.to_bits(), exact.to_bits(), "move of {a}");
            }
        }
    }

    /// A chain of two to five random operators with random edge widths.
    fn random_netlist(rng: &mut StdRng) -> Netlist {
        let mut spec = AppSpec::new("random");
        let ops: Vec<_> = (0..rng.gen_range(2..6))
            .map(|i| {
                let op = match rng.gen_range(0..3) {
                    0 => Operator::MacArray {
                        pes: rng.gen_range(1..24),
                    },
                    1 => Operator::Buffer {
                        kb: 36 * rng.gen_range(1..8u32),
                        banks: rng.gen_range(1..4),
                    },
                    _ => Operator::Pipeline {
                        slices: rng.gen_range(1..60),
                    },
                };
                spec.add_operator(format!("o{i}"), op)
            })
            .collect();
        for pair in ops.windows(2) {
            spec.add_edge(pair[0], pair[1], 8 * rng.gen_range(1..32u32))
                .unwrap();
        }
        synthesize(&spec).unwrap()
    }

    #[test]
    fn random_blocks_never_end_worse_than_initial() {
        let sites = SiteModel::for_block(&DeviceModel::xcvu37p(), 60);
        let mut rng = StdRng::seed_from_u64(46);
        // Each block number seeds its own chain.
        for block in 0..20u32 {
            let n = random_netlist(&mut rng);
            let dfg = DataflowGraph::from_netlist(&n);
            let p = place_block(&n, &dfg, block, &block_prims(&n), &sites).unwrap();
            assert!(
                p.wirelength <= p.initial_wirelength,
                "block {block}: {} vs initial {}",
                p.wirelength,
                p.initial_wirelength
            );
        }
    }

    #[test]
    fn targets_are_other_sites_of_the_kind_inside_the_window() {
        let sites = SiteModel::for_block(&DeviceModel::xcvu37p(), 60);
        let extent = sites.extent();
        let mut rng = StdRng::seed_from_u64(46);
        for kind in [SiteKind::Slice, SiteKind::Bram, SiteKind::Dsp] {
            let lattice = &sites.lattices[kind_index(kind)];
            let pool = sites.sites_of(kind);
            for _ in 0..5_000 {
                let at = site_xy(&sites, pool[rng.gen_range(0..pool.len())]);
                let w = [1, 2, 3, 8, extent][rng.gen_range(0..5usize)];
                let target = sites.draw_in_window(kind_index(kind) as u8, at, w, &mut rng);
                let site = sites.sites()[target as usize];
                assert_eq!(site.kind, kind);
                assert_ne!((site.x, site.y), at, "a window of {w} holds other sites");
                let (c, k) = lattice.point(at);
                let (tc, tk) = lattice.point((site.x, site.y));
                assert!(
                    c.abs_diff(tc) <= w && k.abs_diff(tk) <= w,
                    "{kind:?} ({c}, {k}) -> ({tc}, {tk}) outside window {w}"
                );
            }
        }
    }

    #[test]
    fn window_stays_between_one_and_the_block_extent() {
        let extent = SiteModel::for_block(&DeviceModel::xcvu37p(), 60).extent();
        let in_range = |w: f64| (1.0..=f64::from(extent)).contains(&w);
        let mut rng = StdRng::seed_from_u64(46);
        let mut w = f64::from(extent);
        for _ in 0..10_000 {
            let rate = [0.0, 1.0, rng.gen::<f64>()][rng.gen_range(0..3usize)];
            w = next_window(w, rate, extent);
            assert!(in_range(w), "window {w} outside [1, {extent}]");
        }
        for _ in 0..100 {
            w = next_window(w, 0.0, extent);
        }
        assert_eq!(w, 1.0);
        for _ in 0..100 {
            w = next_window(w, 1.0, extent);
        }
        assert_eq!(w, f64::from(extent));
    }

    #[test]
    fn an_optimal_block_stops_before_its_budget() {
        let sites = SiteModel::for_block(&DeviceModel::xcvu37p(), 60);
        let slices = sites.sites_of(SiteKind::Slice);
        // Two connected slices on vertically adjacent sites: no move can
        // shorten their edge.
        let problem = BlockProblem {
            block: 0,
            prims: vec![PrimitiveId::new(0), PrimitiveId::new(1)],
            kind_of_local: vec![0, 0],
            edges: vec![(0, 1, 8.0)],
            incident_start: vec![0, 1, 2],
            adj: vec![(1, 8.0), (0, 8.0)],
            initial: vec![slices[0], slices[1]],
            initial_wirelength: 8.0,
        };
        assert_eq!(problem.wirelength_of(&sites, &problem.initial), 8.0);
        let mut scratch = PnrScratch::new(sites.sites().len());
        let (placement, proposed, _) = anneal_block(&problem, &sites, &mut scratch);
        let budget =
            problem.len() * (1 + (PNR.temperatures + GREEDY_STEPS) * PNR.moves_per_primitive);
        assert!(proposed < budget as u64, "{proposed} of {budget}");
        assert_eq!(placement.wirelength, 8.0);
        assert_eq!(placement.site_of.len(), 2);
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
        let err = place_block(&n, &dfg, 3, &prims, &sites).unwrap_err();
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
        assert!(place_block(&n, &dfg, 0, &all, &sites).is_err());
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
        let routing = route_channels(&plan, &[0, 1, 2, 3], 2, 2);
        assert_eq!(routing.lane_of.len(), plan.channel_count());
        // 12 channels from block 0 over 6 lanes -> at most 2 per lane.
        assert!(routing.peak_lane_utilization <= 2.0);
        // Six lanes of 512 bits per boundary.
        assert_eq!(routing.global.edge_capacity_bits, 3_072);
        assert_eq!(routing.global.routed.len(), plan.channel_count());
    }
}
