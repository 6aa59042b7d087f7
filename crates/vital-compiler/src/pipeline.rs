//! The compiler driver: runs the six steps in order and measures each.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::placer::{Placer, VirtualGrid};
use vital_fabric::DeviceModel;
use vital_interface::{plan_channels, ChannelPlan, CutEdge};
use vital_netlist::hls::{synthesize, AppSpec};
use vital_netlist::{DataflowGraph, Netlist, PrimitiveId};
use vital_telemetry::{Span, Telemetry};

use crate::image::{AppBitstream, BlockImage};
use crate::pnr::{
    anneal_shard, finalize_placement, BlockProblem, LocalPlacement, PnrScratch, ShardPlacement,
    SiteModel,
};
use crate::{CompileError, CompilerConfig, NetlistDigest, StageTimings};

/// Outcome of local P&R for one virtual block, with its wall time.
type BlockPnr = (Result<LocalPlacement, CompileError>, Duration);

/// The result of compiling one application.
#[derive(Debug, Clone)]
pub struct CompiledApp {
    bitstream: AppBitstream,
    timings: StageTimings,
    cut_bits: u64,
}

impl CompiledApp {
    /// The relocatable bitstream (what the bitstream database stores).
    pub fn bitstream(&self) -> &AppBitstream {
        &self.bitstream
    }

    /// Consumes the result, returning the bitstream.
    pub fn into_bitstream(self) -> AppBitstream {
        self.bitstream
    }

    /// Per-stage compile times (Fig. 8).
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// Total bits per firing crossing virtual-block boundaries.
    pub fn cut_bits(&self) -> u64 {
        self.cut_bits
    }
}

/// The six-step ViTAL compiler.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Compiler {
    config: CompilerConfig,
    site_model: SiteModel,
    telemetry: Telemetry,
}

impl Compiler {
    /// Creates a compiler targeting the default device (XCVU37P with the
    /// optimal §5.3 floorplan).
    pub fn new(config: CompilerConfig) -> Self {
        let device = DeviceModel::xcvu37p();
        Self::for_device(&device, 60, config)
    }

    /// Creates a compiler for an explicit device and block height.
    pub fn for_device(device: &DeviceModel, block_rows: u64, config: CompilerConfig) -> Self {
        Compiler {
            site_model: SiteModel::for_block(device, block_rows),
            config,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle: every compile then emits one span per
    /// stage (`compile.synthesis` … `compile.global_pnr`) plus one span
    /// per virtual block under local P&R, and records per-stage duration
    /// histograms. The default handle is disabled and costs nothing.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Compiles an application through all six steps.
    ///
    /// # Errors
    ///
    /// Propagates failures of any stage; see [`CompileError`].
    pub fn compile(&self, spec: &AppSpec) -> Result<CompiledApp, CompileError> {
        let mut timings = StageTimings::default();
        let mut root = self.telemetry.span("compile");
        root.field("app", spec.name());

        // Step 1: synthesis.
        let t = Instant::now();
        let stage = root.child("compile.synthesis");
        let netlist = synthesize(spec)?;
        netlist.validate()?;
        let digest = NetlistDigest::of(&netlist, &self.config);
        stage.finish();
        timings.synthesis = t.elapsed();

        // Step 2: partition (placement-based, §4).
        let t = Instant::now();
        let stage = root.child("compile.partition");
        let usage = netlist.resource_usage();
        let capacity = self.config.effective_block_capacity();
        let n_blocks = usage.blocks_needed(&self.config.block_resources, self.config.fill_margin);
        let grid = VirtualGrid::uniform(n_blocks as usize, capacity);
        let placer = Placer::new(self.config.placer.clone());
        let placement = placer.run(&netlist, &grid)?;
        stage.finish();
        timings.partition = t.elapsed();

        // Step 3: latency-insensitive interface generation.
        let t = Instant::now();
        let stage = root.child("compile.interface_gen");
        // Slots may be sparsely used; renumber used slots to dense virtual
        // block ids.
        let mut slot_to_vb: Vec<Option<u32>> = vec![None; grid.slot_count()];
        let mut next_vb = 0u32;
        for (slot, vb_entry) in slot_to_vb.iter_mut().enumerate() {
            if placement.assignment().contains(&Some(slot as u32)) {
                *vb_entry = Some(next_vb);
                next_vb += 1;
            }
        }
        let mut cuts: Vec<CutEdge> = Vec::new();
        for (a, b, bits) in placement.graph().edges() {
            let (Some(sa), Some(sb)) = (
                placement.assignment()[a.index()],
                placement.assignment()[b.index()],
            ) else {
                continue; // I/O pad edges terminate in the service region
            };
            if sa != sb {
                cuts.push(CutEdge {
                    from_block: slot_to_vb[sa as usize].expect("used slot has a vb id"),
                    to_block: slot_to_vb[sb as usize].expect("used slot has a vb id"),
                    bits,
                });
            }
        }
        let plan: ChannelPlan = plan_channels(&cuts, &self.config.interface);
        let cut_bits: u64 = cuts.iter().map(|c| c.bits).sum();
        stage.finish();
        timings.interface_gen = t.elapsed();

        // Step 4: local place-and-route per virtual block. Blocks are
        // independent (each seeds its own RNG from `pnr.seed ^ block`), so
        // they fan out across a scoped thread pool; results are collected
        // in block order and are bit-identical to the serial path.
        let t = Instant::now();
        let mut stage = root.child("compile.local_pnr");
        let dfg = DataflowGraph::from_netlist(&netlist);
        let mut prims_per_vb: Vec<Vec<PrimitiveId>> = vec![Vec::new(); next_vb as usize];
        for prim in netlist.primitives() {
            if prim.kind().is_io() {
                continue;
            }
            if let Some(slot) = placement.block_of(prim.id()) {
                if let Some(vb) = slot_to_vb[slot as usize] {
                    prims_per_vb[vb as usize].push(prim.id());
                }
            }
        }
        // Workers are sized to the (block x shard) work-item count, not the
        // block count, so a compile with fewer blocks than cores still
        // parallelizes within each block.
        let shards = self.config.pnr.shards.max(1);
        let workers = self
            .config
            .effective_workers(prims_per_vb.len().saturating_mul(shards));
        stage.field("blocks", prims_per_vb.len());
        stage.field("workers", workers);
        let placed = self.place_all_blocks(&netlist, &dfg, &prims_per_vb, workers, &stage);
        let mut images = Vec::with_capacity(prims_per_vb.len());
        timings.per_block_pnr = Vec::with_capacity(prims_per_vb.len());
        for ((vb, prims), (local, block_time)) in prims_per_vb.iter().enumerate().zip(placed) {
            let local = local?;
            timings.per_block_pnr.push(block_time);
            let resources = prims
                .iter()
                .map(|&p| {
                    netlist
                        .primitive(p)
                        .expect("primitive ids come from this netlist")
                        .resources()
                })
                .sum();
            images.push(BlockImage {
                virtual_block: vb as u32,
                resources,
                primitive_count: prims.len(),
                placement: local,
            });
        }
        timings.workers = workers;
        stage.finish();
        timings.local_pnr = t.elapsed();

        let stage = root.child("compile.relocation");
        // Step 5: relocation — verify the images are position independent
        // by checking every placed site exists in the canonical geometry
        // (any identical physical block can therefore host the image).
        let t = Instant::now();
        let site_count = self.site_model.sites().len() as u32;
        for img in &images {
            for &(_, site) in &img.placement.site_of {
                if site >= site_count {
                    return Err(CompileError::IncompatibleRelocation(format!(
                        "image of virtual block {} references site {site} outside \
                         the canonical block geometry",
                        img.virtual_block
                    )));
                }
            }
        }
        stage.finish();
        timings.relocation = t.elapsed();

        // Step 6: global place-and-route over the virtual-block mesh.
        let t = Instant::now();
        let stage = root.child("compile.global_pnr");
        let mut slot_of_vb = vec![0u32; next_vb as usize];
        for (slot, vb) in slot_to_vb.iter().enumerate() {
            if let Some(vb) = vb {
                slot_of_vb[*vb as usize] = slot as u32;
            }
        }
        let routing = crate::pnr::route_channels_on(
            &plan,
            &self.config.pnr,
            &slot_of_vb,
            grid.cols(),
            grid.rows(),
        );
        stage.finish();
        timings.global_pnr = t.elapsed();

        root.field("cut_bits", cut_bits);
        self.telemetry
            .record_hist("compile.total_s", timings.total().as_secs_f64());

        let bitstream = AppBitstream::new(spec.name().to_string(), digest, images, plan, routing);
        Ok(CompiledApp {
            bitstream,
            timings,
            cut_bits,
        })
    }

    /// The content digest compiling `spec` would stamp on the bitstream,
    /// computed from synthesis output alone — no partitioning or P&R runs.
    /// The system layer uses this to probe the compile cache before paying
    /// for steps 2–6.
    ///
    /// # Errors
    ///
    /// Propagates synthesis/validation failures, exactly as
    /// [`compile`](Self::compile) would.
    pub fn digest_of(&self, spec: &AppSpec) -> Result<NetlistDigest, CompileError> {
        let netlist = synthesize(spec)?;
        netlist.validate()?;
        Ok(NetlistDigest::of(&netlist, &self.config))
    }

    /// Runs local P&R for every virtual block on `workers` threads,
    /// returning results in virtual-block order with per-block times
    /// (the sum of a block's shard times, i.e. its one-worker cost).
    ///
    /// The stage runs in three phases. Phase 1 builds every block's
    /// [`BlockProblem`] serially — cheap preprocessing that also surfaces
    /// infeasibility errors deterministically. Phase 2 fans the
    /// `(block, shard)` work items out over a shared atomic counter, so
    /// threads stay busy regardless of per-block cost skew and a compile
    /// with fewer blocks than workers still saturates the pool; each
    /// worker reuses one [`PnrScratch`] across all items it claims. Phase 3
    /// reduces each block's shards to the winner (lowest wirelength, ties
    /// to the lowest shard index) in block order, which makes the output —
    /// including which error surfaces first — independent of thread
    /// scheduling and hence bit-identical to the serial path.
    ///
    /// A panicking shard is caught per work item ([`catch_unwind`]) and
    /// surfaces as [`CompileError::PnrWorkerPanicked`] on its block: one
    /// poisoned block fails that compile, never the process.
    fn place_all_blocks(
        &self,
        netlist: &Netlist,
        dfg: &DataflowGraph,
        prims_per_vb: &[Vec<PrimitiveId>],
        workers: usize,
        pnr_span: &Span,
    ) -> Vec<BlockPnr> {
        let shards = self.config.pnr.shards.max(1);
        let site_count = self.site_model.sites().len();

        // Phase 1: preprocess every block (feasibility + dense adjacency).
        let problems: Vec<Result<BlockProblem, CompileError>> = prims_per_vb
            .iter()
            .enumerate()
            .map(|(vb, prims)| {
                BlockProblem::build(netlist, dfg, vb as u32, prims, &self.site_model)
            })
            .collect();

        // Phase 2: anneal the (block, shard) items of feasible blocks.
        let items: Vec<(usize, usize)> = problems
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_ok())
            .flat_map(|(vb, _)| (0..shards).map(move |s| (vb, s)))
            .collect();
        // Per item: the shard's placement (or the panic message that killed
        // it) and its wall time. `None` = the worker thread died before
        // reporting, which phase 3 also treats as a panicked shard.
        type ItemOutcome = (Result<ShardPlacement, String>, Duration);
        let mut outcomes: Vec<Option<ItemOutcome>> = (0..items.len()).map(|_| None).collect();
        let mut worker_panics: Vec<String> = Vec::new();

        let run_item = |idx: usize, scratch: &mut PnrScratch| -> ItemOutcome {
            let (vb, shard) = items[idx];
            let problem = problems[vb]
                .as_ref()
                .expect("items are built from feasible blocks only");
            let t = Instant::now();
            // One span per shard, on its own track so parallel shards
            // render side by side in the trace viewer.
            let mut span = pnr_span.child_on_track("compile.pnr_shard", idx as u32);
            span.field("block", vb);
            span.field("shard", shard);
            let result = catch_unwind(AssertUnwindSafe(|| {
                anneal_shard(problem, &self.site_model, &self.config.pnr, shard, scratch)
            }))
            .map_err(|payload| panic_message(payload.as_ref()));
            span.field("ok", result.is_ok());
            span.finish();
            (result, t.elapsed())
        };

        if workers <= 1 {
            let mut scratch = PnrScratch::new(site_count);
            for (idx, slot) in outcomes.iter_mut().enumerate() {
                let outcome = run_item(idx, &mut scratch);
                if outcome.0.is_err() {
                    // The scratch may hold stale occupancy from the
                    // aborted run; start the next item from a fresh one.
                    scratch = PnrScratch::new(site_count);
                }
                *slot = Some(outcome);
            }
        } else {
            let next = AtomicUsize::new(0);
            let per_worker: Vec<Result<Vec<(usize, ItemOutcome)>, String>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| {
                            scope.spawn(|| {
                                let mut scratch = PnrScratch::new(site_count);
                                let mut out = Vec::new();
                                loop {
                                    let idx = next.fetch_add(1, Ordering::Relaxed);
                                    if idx >= items.len() {
                                        break;
                                    }
                                    let outcome = run_item(idx, &mut scratch);
                                    if outcome.0.is_err() {
                                        scratch = PnrScratch::new(site_count);
                                    }
                                    out.push((idx, outcome));
                                }
                                out
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().map_err(|p| panic_message(p.as_ref())))
                        .collect()
                });
            for result in per_worker {
                match result {
                    Ok(done) => {
                        for (idx, outcome) in done {
                            outcomes[idx] = Some(outcome);
                        }
                    }
                    // A worker died outside catch_unwind; its unreported
                    // items fail their blocks in phase 3. Every dead
                    // worker's message is kept — attribution per item is
                    // lost with the thread, so unreported items carry the
                    // union of them rather than silently dropping any.
                    Err(msg) => worker_panics.push(msg),
                }
            }
        }
        let worker_panic = if worker_panics.is_empty() {
            None
        } else {
            Some(worker_panics.join("; "))
        };

        // Phase 3: reduce shards to one placement per block, in order.
        let mut out = Vec::with_capacity(prims_per_vb.len());
        let mut cursor = 0usize;
        for (vb, problem) in problems.iter().enumerate() {
            let mut span = pnr_span.child_on_track("compile.block_pnr", vb as u32);
            span.field("block", vb);
            let (result, dur) = match problem {
                Err(e) => (Err(e.clone()), Duration::ZERO),
                Ok(problem) => {
                    let mut best: Option<ShardPlacement> = None;
                    let mut dur = Duration::ZERO;
                    let mut panicked: Option<String> = None;
                    for _ in 0..shards {
                        match outcomes[cursor].take() {
                            Some((Ok(placement), d)) => {
                                dur += d;
                                if best
                                    .as_ref()
                                    .is_none_or(|b| placement.wirelength < b.wirelength)
                                {
                                    best = Some(placement);
                                }
                            }
                            Some((Err(msg), d)) => {
                                dur += d;
                                panicked.get_or_insert(msg);
                            }
                            None => {
                                let msg = worker_panic
                                    .clone()
                                    .unwrap_or_else(|| "P&R worker exited early".to_string());
                                panicked.get_or_insert(msg);
                            }
                        }
                        cursor += 1;
                    }
                    match panicked {
                        // Any panicked shard fails the whole block: picking
                        // the best *surviving* shard would make the output
                        // depend on which thread crashed.
                        Some(message) => (
                            Err(CompileError::PnrWorkerPanicked {
                                block: vb as u32,
                                message,
                            }),
                            dur,
                        ),
                        None => {
                            let best = best.expect("shards >= 1 and none panicked");
                            (
                                Ok(finalize_placement(problem, &self.site_model, &best)),
                                dur,
                            )
                        }
                    }
                }
            };
            span.field("ok", result.is_ok());
            span.finish();
            self.telemetry
                .record_hist("compile.block_pnr_s", dur.as_secs_f64());
            out.push((result, dur));
        }
        out
    }
}

/// Renders a panic payload (from [`catch_unwind`] or a failed join) as the
/// human-readable message for [`CompileError::PnrWorkerPanicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "local P&R worker panicked".to_string()
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new(CompilerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_netlist::hls::Operator;

    fn spec(pes: u32, pipelines: u32) -> AppSpec {
        let mut s = AppSpec::new(format!("app-{pes}-{pipelines}"));
        let buf = s.add_operator("w", Operator::Buffer { kb: 720, banks: 4 });
        let mac = s.add_operator("mac", Operator::MacArray { pes });
        s.add_edge(buf, mac, 256).unwrap();
        let mut prev = mac;
        for i in 0..pipelines {
            let p = s.add_operator(format!("p{i}"), Operator::Pipeline { slices: 200 });
            s.add_edge(prev, p, 64).unwrap();
            prev = p;
        }
        s.add_input("ifm", mac, 128).unwrap();
        s.add_output("ofm", prev, 128).unwrap();
        s
    }

    #[test]
    fn small_app_compiles_to_one_block() {
        let compiled = Compiler::default().compile(&spec(16, 2)).unwrap();
        assert_eq!(compiled.bitstream().block_count(), 1);
        assert_eq!(compiled.cut_bits(), 0);
        assert!(compiled.bitstream().achieved_mhz() > 0.0);
    }

    #[test]
    fn large_app_spans_multiple_blocks_with_channels() {
        // ~64 PEs + 40 pipelines x 200 slices = ~8.5k slices = ~68k LUTs:
        // needs 3 blocks at the 26k effective fill.
        let compiled = Compiler::default().compile(&spec(64, 40)).unwrap();
        assert!(compiled.bitstream().block_count() >= 2);
        assert!(compiled.bitstream().channel_plan().channel_count() > 0);
        assert!(compiled.cut_bits() > 0);
    }

    #[test]
    fn images_cover_all_non_io_primitives() {
        let s = spec(32, 10);
        let compiled = Compiler::default().compile(&s).unwrap();
        let netlist = synthesize(&s).unwrap();
        let non_io = netlist
            .primitives()
            .iter()
            .filter(|p| !p.kind().is_io())
            .count();
        let placed: usize = compiled
            .bitstream()
            .images()
            .iter()
            .map(|i| i.primitive_count)
            .sum();
        assert_eq!(placed, non_io);
    }

    #[test]
    fn timings_are_recorded_and_pnr_dominates() {
        let compiled = Compiler::default().compile(&spec(48, 20)).unwrap();
        let t = compiled.timings();
        assert!(t.total().as_nanos() > 0);
        // Fig. 8 shape: the reused P&R dwarfs the custom tools.
        assert!(t.commercial_pnr() > t.custom_tools());
    }

    #[test]
    fn global_routing_is_attached_and_converged() {
        let compiled = Compiler::default().compile(&spec(64, 40)).unwrap();
        let bs = compiled.bitstream();
        let routing = &bs.routing;
        assert_eq!(
            routing.global.routed.len(),
            bs.channel_plan().channel_count()
        );
        assert!(
            routing.global.converged,
            "peak load {} over {}",
            routing.global.max_edge_load_bits, routing.global.edge_capacity_bits
        );
        // Paths are non-empty and bit-weighted wirelength is consistent.
        if bs.channel_plan().channel_count() > 0 {
            assert!(routing.global.routed.iter().all(|r| !r.path.is_empty()));
            assert!(routing.global.wirelength_bit_hops >= compiled.cut_bits());
        }
    }

    #[test]
    fn telemetry_spans_cover_every_stage_and_block() {
        let tel = Telemetry::recording();
        let compiler = Compiler::default().with_telemetry(tel.clone());
        let compiled = compiler.compile(&spec(64, 40)).unwrap();
        let names: Vec<&str> = tel.records().iter().map(|r| r.name).collect();
        for stage in [
            "compile.synthesis",
            "compile.partition",
            "compile.interface_gen",
            "compile.local_pnr",
            "compile.relocation",
            "compile.global_pnr",
            "compile",
        ] {
            assert!(names.contains(&stage), "missing span {stage} in {names:?}");
        }
        let block_spans = names.iter().filter(|n| **n == "compile.block_pnr").count();
        assert_eq!(block_spans, compiled.bitstream().block_count());
        assert_eq!(
            tel.metrics().histograms["compile.block_pnr_s"].count,
            block_spans as u64
        );
        // Stage spans nest under the root compile span.
        let recs = tel.records();
        let root = recs.iter().find(|r| r.name == "compile").unwrap();
        let partition = recs.iter().find(|r| r.name == "compile.partition").unwrap();
        assert_eq!(partition.parent, Some(root.id));
    }

    #[test]
    fn compile_is_deterministic() {
        let a = Compiler::default().compile(&spec(24, 6)).unwrap();
        let b = Compiler::default().compile(&spec(24, 6)).unwrap();
        assert_eq!(a.bitstream().block_count(), b.bitstream().block_count());
        assert_eq!(a.cut_bits(), b.cut_bits());
        assert_eq!(
            a.bitstream().images()[0].placement.site_of,
            b.bitstream().images()[0].placement.site_of
        );
    }
}
