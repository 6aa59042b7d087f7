//! The compiler driver: runs the six steps in order and measures each.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::placer::{Placer, VirtualGrid};
use vital_fabric::DeviceModel;
use vital_interface::{plan_channels, ChannelPlan, CutEdge, InterfaceConfig};
use vital_netlist::hls::{synthesize, AppSpec};
use vital_netlist::{DataflowGraph, Netlist, PrimitiveId};
use vital_telemetry::{Span, Telemetry};

use crate::image::{AppBitstream, BlockImage};
use crate::pnr::{
    anneal_block, route_channels, BlockProblem, LocalPlacement, PnrScratch, SiteModel,
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
        let plan: ChannelPlan = plan_channels(&cuts, &InterfaceConfig::default());
        let cut_bits: u64 = cuts.iter().map(|c| c.bits).sum();
        stage.finish();
        timings.interface_gen = t.elapsed();

        // Step 4: local place-and-route per virtual block. Blocks are
        // independent (each seeds its own RNG from `PNR.seed ^ block`), so
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
        let workers = self.config.effective_workers(prims_per_vb.len());
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
        let routing = route_channels(&plan, &slot_of_vb, grid.cols(), grid.rows());
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
    /// returning results in virtual-block order with each block's
    /// annealing time.
    ///
    /// The stage runs in three phases. Phase 1 builds every block's
    /// [`BlockProblem`] serially — cheap preprocessing that also surfaces
    /// infeasibility errors deterministically. Phase 2 fans the feasible
    /// blocks out over a shared atomic counter, one annealing chain each,
    /// so threads stay busy regardless of per-block cost skew; each worker
    /// reuses one [`PnrScratch`] across all blocks it claims. Phase 3
    /// collects the results in block order, which makes the output —
    /// including which error surfaces first — independent of thread
    /// scheduling and hence bit-identical to the serial path.
    ///
    /// A panicking chain is caught per block ([`catch_unwind`]) and
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
        let site_count = self.site_model.sites().len();

        // Phase 1: preprocess every block (feasibility + dense adjacency).
        let problems: Vec<Result<BlockProblem, CompileError>> = prims_per_vb
            .iter()
            .enumerate()
            .map(|(vb, prims)| {
                BlockProblem::build(netlist, dfg, vb as u32, prims, &self.site_model)
            })
            .collect();

        // Phase 2: anneal the feasible blocks.
        // Per block: its placement (or the panic message that killed its
        // chain) and its wall time. `None` = the worker thread died before
        // reporting, which phase 3 also treats as a panicked chain.
        type Outcome = (Result<LocalPlacement, String>, Duration);
        let mut outcomes: Vec<Option<Outcome>> = (0..problems.len()).map(|_| None).collect();

        let run_block = |problem: &BlockProblem, scratch: &mut PnrScratch| -> Outcome {
            let t = Instant::now();
            // One span per block, on its own track so parallel blocks
            // render side by side in the trace viewer.
            let mut span = pnr_span.child_on_track("compile.block_pnr", problem.block);
            span.field("block", problem.block);
            let result = catch_unwind(AssertUnwindSafe(|| {
                anneal_block(problem, &self.site_model, scratch)
            }))
            .map(|(placement, proposed, accepted)| {
                self.telemetry
                    .inc_counter("compile.pnr.moves_proposed", proposed);
                self.telemetry
                    .inc_counter("compile.pnr.moves_accepted", accepted);
                placement
            })
            .map_err(|payload| panic_message(payload.as_ref()));
            span.field("ok", result.is_ok());
            span.finish();
            let dur = t.elapsed();
            self.telemetry
                .record_hist("compile.block_pnr_s", dur.as_secs_f64());
            (result, dur)
        };

        // One worker's loop: claim blocks until none is left. A chain that
        // panicked may leave stale occupancy in its scratch, so the next
        // block starts from a fresh one.
        let next = AtomicUsize::new(0);
        let work = || {
            let mut scratch = PnrScratch::new(site_count);
            let mut out = Vec::new();
            while let Some(problem) = problems.get(next.fetch_add(1, Ordering::Relaxed)) {
                let Ok(problem) = problem else { continue };
                let outcome = run_block(problem, &mut scratch);
                if outcome.0.is_err() {
                    scratch = PnrScratch::new(site_count);
                }
                out.push((problem.block as usize, outcome));
            }
            out
        };
        let per_worker: Vec<Result<Vec<(usize, Outcome)>, String>> = if workers <= 1 {
            vec![Ok(work())]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|p| panic_message(p.as_ref())))
                    .collect()
            })
        };
        let mut worker_panics: Vec<String> = Vec::new();
        for result in per_worker {
            match result {
                Ok(done) => {
                    for (vb, outcome) in done {
                        outcomes[vb] = Some(outcome);
                    }
                }
                // A worker died outside catch_unwind; its unreported
                // blocks fail in phase 3. Every dead worker's message is
                // kept — attribution per block is lost with the thread, so
                // unreported blocks carry the union of them rather than
                // silently dropping any.
                Err(msg) => worker_panics.push(msg),
            }
        }

        // Phase 3: one result per block, in order.
        problems
            .into_iter()
            .zip(outcomes)
            .enumerate()
            .map(|(vb, (problem, outcome))| {
                let panicked = |message| CompileError::PnrWorkerPanicked {
                    block: vb as u32,
                    message,
                };
                match (problem, outcome) {
                    (Err(e), _) => (Err(e), Duration::ZERO),
                    (Ok(_), Some((result, dur))) => (result.map_err(panicked), dur),
                    (Ok(_), None) => {
                        let message = if worker_panics.is_empty() {
                            "P&R worker exited early".to_string()
                        } else {
                            worker_panics.join("; ")
                        };
                        (Err(panicked(message)), Duration::ZERO)
                    }
                }
            })
            .collect()
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
