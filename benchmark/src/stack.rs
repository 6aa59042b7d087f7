//! The set-up the three service workloads share: what a tenant of
//! `vitald` meets. 64 FPGAs in four pods, the ISA backend on, all 21
//! Table-2 designs compiled and registered, the shipped `ServiceConfig`
//! behind a TCP listener, and a seeded standing population filling about
//! half of the 960 blocks so the allocator walks real free lists.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vital::cluster::Topology;
use vital::compiler::{AppBitstream, Compiler, CompilerConfig, StageTimings};
use vital::fabric::DeviceModel;
use vital::isa::IsaProgram;
use vital::netlist::hls::AppSpec;
use vital::runtime::{
    ControlRequest, ControlResponse, DeployRequest, RuntimeConfig, StatusSummary, SystemController,
};
use vital::service::{ServiceConfig, ServiceServer, Vitald};
use vital::workloads::{benchmarks, Size};

use crate::spans::Recorder;

/// FPGAs of the service cluster: four pods of sixteen.
pub const FPGAS: usize = 64;
/// Pods of the service cluster.
pub const PODS: usize = 4;
/// Compute tiles of the ISA backend's template pool.
pub const ISA_TILES: usize = 60;
/// Share of the blocks the standing population fills.
const STANDING_FILL: f64 = 0.5;
/// ISA tenants in the standing population.
const STANDING_ISA: usize = 2;

/// What the generators need to know of one registered design.
#[derive(Debug, Clone, PartialEq)]
pub struct AppInfo {
    /// `<benchmark>-<S|M|L>`.
    pub name: String,
    /// Physical blocks a fabric deployment takes.
    pub blocks: usize,
    /// Tiles an ISA deployment is granted from a pool with room.
    pub isa_tiles: usize,
}

/// The 21 compiled designs.
pub struct Apps {
    /// The registered images, in suite order (7 benchmarks × S/M/L).
    pub bitstreams: Vec<AppBitstream>,
    /// Per-design facts, same order.
    pub info: Vec<AppInfo>,
    /// Stage timings summed over the 21 compiles.
    pub timings: StageTimings,
}

/// The 21 Table-2 designs (7 benchmarks × S/M/L), in suite order.
pub fn app_specs() -> Vec<AppSpec> {
    benchmarks()
        .iter()
        .flat_map(|b| Size::ALL.map(|s| b.spec(s)))
        .collect()
}

/// The compiler every design of the benchmark is built with.
pub fn compiler() -> Compiler {
    Compiler::for_device(&DeviceModel::xcvu37p(), 60, CompilerConfig::default())
}

/// Compiles the 21 designs, one span per compile when `rec` is given.
pub fn compile_all(mut rec: Option<&mut Recorder>) -> Apps {
    let compiler = compiler();
    let mut timings = StageTimings::default();
    let mut bitstreams = Vec::new();
    let mut info = Vec::new();
    for (i, spec) in app_specs().iter().enumerate() {
        let start = Instant::now();
        let compiled = compiler.compile(spec).expect("Table-2 designs compile");
        if let Some(rec) = rec.as_deref_mut() {
            rec.push("compiler.compile", "setup", i as u64, start, Instant::now());
        }
        timings.accumulate(compiled.timings());
        let bitstream = compiled.into_bitstream();
        info.push(AppInfo {
            name: bitstream.name().to_string(),
            blocks: bitstream.block_count(),
            isa_tiles: IsaProgram::for_app(bitstream.name())
                .expect("suite names are ISA programs")
                .natural_tiles()
                .max(1),
        });
        bitstreams.push(bitstream);
    }
    Apps {
        bitstreams,
        info,
        timings,
    }
}

/// The cluster shape of the service workloads.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        fpgas: FPGAS,
        ..RuntimeConfig::paper_cluster()
    }
}

/// Blocks of the whole service cluster.
pub fn total_blocks() -> usize {
    let c = runtime_config();
    c.fpgas * c.blocks_per_fpga
}

/// An empty controller in the service shape: pods topology, ISA backend
/// on, telemetry left at its default (off).
pub fn empty_controller() -> SystemController {
    SystemController::new(runtime_config())
        .with_topology(Topology::pods(PODS, FPGAS / PODS, 100.0, 25.0))
        .expect("pod topology matches the layout")
        .with_isa_backend(ISA_TILES)
}

/// [`empty_controller`] with the 21 designs registered.
pub fn controller(apps: &Apps) -> SystemController {
    let ctl = empty_controller();
    for b in &apps.bitstreams {
        ctl.register(b.clone())
            .expect("fresh controller, distinct names");
    }
    ctl
}

/// The tenants deployed during set-up and never touched by a generator.
#[derive(Debug, Clone, PartialEq)]
pub struct Standing {
    /// Fabric tenants, ascending.
    pub tenants: Vec<u64>,
    /// ISA tenants, ascending.
    pub isa_tenants: Vec<u64>,
    /// Blocks the fabric tenants hold.
    pub blocks: usize,
    /// Tiles the ISA tenants hold.
    pub isa_tiles: usize,
}

/// Deploys the seeded standing population: designs drawn uniformly until
/// the next one would pass half of the blocks, plus two small ISA tenants.
pub fn populate(ctl: &SystemController, apps: &Apps, seed: u64) -> Standing {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57a4_d146);
    let target = (total_blocks() as f64 * STANDING_FILL) as usize;
    let mut standing = Standing {
        tenants: Vec::new(),
        isa_tenants: Vec::new(),
        blocks: 0,
        isa_tiles: 0,
    };
    loop {
        let app = &apps.info[rng.gen_range(0..apps.info.len())];
        if standing.blocks + app.blocks > target {
            break;
        }
        match ctl.execute(ControlRequest::deploy(app.name.clone())) {
            ControlResponse::Deployed(d) => {
                standing.tenants.push(d.tenant);
                standing.blocks += d.blocks;
            }
            other => panic!("standing deploy of {} failed: {other:?}", app.name),
        }
    }
    let small: Vec<&AppInfo> = apps
        .info
        .iter()
        .filter(|a| a.name.ends_with("-S"))
        .collect();
    for _ in 0..STANDING_ISA {
        let app = small[rng.gen_range(0..small.len())];
        match ctl.execute(ControlRequest::Deploy(DeployRequest::isa(app.name.clone()))) {
            ControlResponse::Deployed(d) => {
                standing.isa_tenants.push(d.tenant);
                standing.isa_tiles += d.blocks;
            }
            other => panic!("standing ISA deploy of {} failed: {other:?}", app.name),
        }
    }
    standing
}

/// Checks over a `Status` reply that the cluster is back to the standing
/// population: every block is free or owned, the owned ones belong to the
/// standing tenants, nothing is parked, and the ISA pool holds only the
/// standing tiles.
pub fn check_conservation(status: &StatusSummary, standing: &Standing) -> Result<(), String> {
    let free: usize = status.fpgas.iter().map(|f| f.free).sum();
    let owned: usize = status
        .fpgas
        .iter()
        .map(|f| f.blocks.iter().filter(|&&t| t != 0).count())
        .sum();
    if free + owned != total_blocks() {
        return Err(format!(
            "free {free} + owned {owned} != {} blocks",
            total_blocks()
        ));
    }
    if owned != standing.blocks {
        return Err(format!(
            "{owned} blocks owned, the standing population holds {}",
            standing.blocks
        ));
    }
    if status.live_tenants != standing.tenants {
        return Err(format!(
            "{} live tenants, {} standing",
            status.live_tenants.len(),
            standing.tenants.len()
        ));
    }
    if !status.suspended_tenants.is_empty() {
        return Err(format!(
            "{} tenants left parked",
            status.suspended_tenants.len()
        ));
    }
    if status.isa_tenants != standing.isa_tenants {
        return Err(format!(
            "{} ISA tenants, {} standing",
            status.isa_tenants.len(),
            standing.isa_tenants.len()
        ));
    }
    if status.isa_tiles_total != ISA_TILES
        || status.isa_tiles_free + standing.isa_tiles != ISA_TILES
    {
        return Err(format!(
            "{} of {} ISA tiles free, the standing population holds {}",
            status.isa_tiles_free, status.isa_tiles_total, standing.isa_tiles
        ));
    }
    Ok(())
}

/// A `vitald` with the shipped configuration behind a TCP listener on a
/// free loopback port.
pub struct Service {
    /// The daemon.
    pub vitald: Vitald,
    server: ServiceServer,
}

impl Service {
    /// Spawns the daemon over `ctl` and starts serving.
    pub fn start(ctl: Arc<SystemController>) -> Service {
        let vitald = Vitald::spawn(ctl, ServiceConfig::default());
        let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind a loopback port");
        Service { vitald, server }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Stops the listener, drains the daemon and joins every thread.
    pub fn stop(self) {
        self.server.stop();
        self.vitald.shutdown();
    }
}

/// The shipped service configuration as recorded in every result:
/// workers / shards / I/O threads / queue / per-session limit.
pub fn service_config_line() -> String {
    let c = ServiceConfig::default();
    format!(
        "workers={} shards={} io_threads={} queue={} per_session={} batch_max={}",
        c.workers, c.shards, c.io_threads, c.queue_capacity, c.per_session_limit, c.batch_max
    )
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Generator threads and connections: `min(nproc, 2)`.
pub fn generators() -> usize {
    nproc().min(2)
}
