//! The `vitald` daemon: a `SystemController` over the paper cluster,
//! fronted by the admission pipeline and the TCP wire protocol.
//!
//! ```text
//! vitald [--listen ADDR] [--workers N] [--shards N] [--io-threads N]
//!        [--queue-depth N] [--timeout-ms MS] [--batch-max N]
//!        [--persist PATH] [--speculate-ms MS] [--isa-tiles N]
//!        [--geometry NAME]
//! ```
//!
//! `--geometry NAME` selects the fabric's device model (`XCVU37P`,
//! `XCVU37P-ALT`, …): bitstreams compile against that column layout and
//! portable checkpoints are stamped with it, so capsules exported here
//! can be restored on a daemon running a different geometry
//! (DESIGN.md §17).
//!
//! `--isa-tiles N` (0 = off) enables the instruction-level deployment
//! backend with an `N`-tile shared template: ISA deploys and `scale`
//! requests then resize tenant shares at micro-second cost instead of
//! partial reconfiguration (DESIGN.md §16).
//!
//! `--persist PATH` makes the bitstream database durable (DESIGN.md §14):
//! every compiled bitstream is written once to `PATH.objects/`, `PATH`
//! holds the manifest naming them, and both are reloaded on the next
//! start, so a daemon restart serves warm deploys with zero P&R.
//! `--speculate-ms MS` (0 = off) runs the build farm's speculative
//! compile hook on that period, pre-compiling the hottest not-yet-cached
//! apps by recent demand.
//!
//! Connect with `vitalctl --connect ADDR` or any client speaking the
//! length-prefixed protocol of DESIGN.md §13 (binary or JSON frames —
//! the daemon answers each request in the format it arrived in).
//! Benchmarks of the
//! paper suite deploy by name (`lenet-S` … `vgg-L`): the daemon installs
//! a resolver that compiles them on first use.

use std::sync::Arc;
use std::time::Duration;

use vital_runtime::{RuntimeConfig, SystemController};
use vital_service::{benchmark_resolver_for, DeviceModel, ServiceConfig, ServiceServer, Vitald};
use vital_telemetry::Telemetry;

struct Options {
    listen: String,
    config: ServiceConfig,
    persist: Option<String>,
    speculate_every: Option<Duration>,
    isa_tiles: usize,
    geometry: DeviceModel,
}

fn parse_args() -> Result<Options, String> {
    let mut listen = "127.0.0.1:7700".to_string();
    let mut config = ServiceConfig::default();
    let mut persist = None;
    let mut speculate_every = None;
    let mut isa_tiles = 0usize;
    let mut geometry = DeviceModel::xcvu37p();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--listen" => listen = value("--listen")?,
            "--workers" => {
                config = config.with_workers(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--shards" => {
                config = config.with_shards(
                    value("--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                );
            }
            "--io-threads" => {
                config = config.with_io_threads(
                    value("--io-threads")?
                        .parse()
                        .map_err(|e| format!("--io-threads: {e}"))?,
                );
            }
            "--queue-depth" => {
                config = config.with_queue_capacity(
                    value("--queue-depth")?
                        .parse()
                        .map_err(|e| format!("--queue-depth: {e}"))?,
                );
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?;
                if ms == 0 {
                    // Every job would expire at enqueue and be answered
                    // `Timeout` without running.
                    return Err("--timeout-ms: must be at least 1".into());
                }
                config = config.with_request_timeout(Duration::from_millis(ms));
            }
            "--batch-max" => {
                config = config.with_batch_max(
                    value("--batch-max")?
                        .parse()
                        .map_err(|e| format!("--batch-max: {e}"))?,
                );
            }
            "--persist" => persist = Some(value("--persist")?),
            "--isa-tiles" => {
                isa_tiles = value("--isa-tiles")?
                    .parse()
                    .map_err(|e| format!("--isa-tiles: {e}"))?;
            }
            "--speculate-ms" => {
                let ms: u64 = value("--speculate-ms")?
                    .parse()
                    .map_err(|e| format!("--speculate-ms: {e}"))?;
                speculate_every = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--geometry" => {
                let name = value("--geometry")?;
                geometry = DeviceModel::by_name(&name)
                    .ok_or_else(|| format!("--geometry: unknown device model {name:?}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "vitald [--listen ADDR] [--workers N] [--shards N] [--io-threads N] \
                     [--queue-depth N] [--timeout-ms MS] [--batch-max N] \
                     [--persist PATH] [--speculate-ms MS] [--isa-tiles N] [--geometry NAME]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        listen,
        config,
        persist,
        speculate_every,
        isa_tiles,
        geometry,
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vitald: {e}");
            std::process::exit(2);
        }
    };
    let telemetry = Telemetry::recording();
    let mut controller = SystemController::new(RuntimeConfig::paper_cluster())
        .with_telemetry(telemetry.clone())
        .with_geometry(opts.geometry.name());
    if opts.geometry.name() != "XCVU37P" {
        println!("vitald: fabric geometry {}", opts.geometry.name());
    }
    if let Some(path) = &opts.persist {
        controller = match controller.with_persistence(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("vitald: cannot load bitstream database from {path}: {e}");
                std::process::exit(1);
            }
        };
        let loaded = controller.farm_stats().persist_loaded;
        println!("vitald: bitstream database at {path} ({loaded} bitstream(s) loaded warm)");
    }
    if opts.isa_tiles > 0 {
        controller = controller.with_isa_backend(opts.isa_tiles);
        println!(
            "vitald: ISA backend enabled ({} shared compute tiles)",
            opts.isa_tiles
        );
    }
    let controller = Arc::new(controller);
    controller.set_app_resolver(benchmark_resolver_for(opts.geometry.clone(), telemetry));
    if let Some(every) = opts.speculate_every {
        let controller = Arc::clone(&controller);
        std::thread::Builder::new()
            .name("vitald-speculate".to_string())
            .spawn(move || loop {
                std::thread::sleep(every);
                for app in controller.speculate_compile(4) {
                    println!("vitald: speculatively compiled {app}");
                }
            })
            .expect("spawn speculation thread");
    }
    let vitald = Vitald::spawn(controller, opts.config.clone());
    let server = match ServiceServer::serve(&vitald, &opts.listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vitald: cannot listen on {}: {e}", opts.listen);
            std::process::exit(1);
        }
    };
    println!(
        "vitald listening on {} ({} workers, {} shards, {} io threads, queue depth {})",
        server.local_addr(),
        opts.config.workers,
        opts.config.effective_shards(),
        opts.config.io_threads,
        opts.config.queue_capacity
    );
    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
