//! `vitalctl` — a scriptable console for the ViTAL control plane.
//!
//! Every command is one typed [`ControlRequest`] answered by one
//! [`ControlResponse`] — the unified request API of DESIGN.md §12. By
//! default the console runs an **in-process** `vitald` (daemon core plus
//! controller in this process); with `--connect HOST:PORT` the same
//! commands go to a **remote** daemon over the wire protocol instead, and
//! the rendering is identical because the response types are.
//!
//! Reads commands from stdin (one per line; `#` comments allowed):
//!
//! ```text
//! compile  <name> <S|M|L>    # prepare a Table 2 benchmark (compile + register)
//! deploy   <name> [quota-mb] # allocate blocks + partial reconfiguration
//! deploy   <name> --isa      # deploy onto the shared ISA tile pool instead
//! scale    <tenant-id> <tiles> # elastically resize an ISA tenant's tile share
//! undeploy <tenant-id>       # tear a deployment down
//! checkpoint <tenant-id>     # quiesce + park a checkpoint capsule
//! checkpoint export <tenant-id> <file>  # write the portable capsule (local only)
//! checkpoint import <file>   # restore a portable capsule (local only)
//! restore  <tenant-id>       # re-admit a checkpointed tenant losslessly
//! migrate  <tenant-id> [--portable|--auto]  # live-migrate (checkpoint + restore)
//! defrag                     # migrate spanning tenants onto fewer FPGAs
//! fail     <fpga>            # crash an FPGA (tenants migrate or die)
//! recover  <fpga>            # bring a failed FPGA back online
//! evacuate <fpga>            # drain an FPGA by live migration
//! status                     # occupancy map + live tenants
//! quit
//! ```
//!
//! Example:
//!
//! ```text
//! printf 'compile lenet S\ndeploy lenet-S\nstatus\nquit\n' | cargo run --bin vitalctl
//! ```

use std::io::BufRead;
use std::sync::Arc;

use vital::runtime::{
    ControlRequest, ControlResponse, DeployRequest, MigratePolicy, PortableCheckpoint,
    RuntimeConfig, SystemController,
};
use vital::service::{
    benchmark_resolver, RemoteClient, ServiceClient, ServiceConfig, Vitald, WireFormat,
};
use vital::telemetry::Telemetry;

/// Where commands are executed: an in-process daemon core, or a remote
/// `vitald` over TCP. Both speak `ControlRequest` → `ControlResponse`.
enum Backend {
    Local {
        /// Kept alive for the session; dropped (drained) on exit.
        _vitald: Vitald,
        client: ServiceClient,
        /// Direct controller handle for the capsule file commands
        /// (`checkpoint export`/`import`), which move state the wire
        /// protocol does not carry.
        controller: Arc<SystemController>,
    },
    Remote(RemoteClient),
}

impl Backend {
    fn call(&self, req: ControlRequest) -> ControlResponse {
        match self {
            Backend::Local { client, .. } => client.call(req),
            Backend::Remote(remote) => remote
                .call(req)
                .unwrap_or_else(|e| ControlResponse::Err((&e).into())),
        }
    }

    fn controller(&self) -> Option<&SystemController> {
        match self {
            Backend::Local { controller, .. } => Some(controller),
            Backend::Remote(_) => None,
        }
    }
}

/// `checkpoint export <tenant-id> <file>`: lift the parked capsule into
/// the portable format and write it as JSON.
fn export_checkpoint(backend: &Backend, tenant: u64, path: &str) {
    let Some(controller) = backend.controller() else {
        println!("checkpoint export needs a local session (capsules do not cross the wire)");
        return;
    };
    let portable = match controller.portable_of(vital::periph::TenantId::new(tenant)) {
        Ok(p) => p,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    match portable.to_json() {
        Ok(json) => match std::fs::write(path, json) {
            Ok(()) => println!(
                "tenant{tenant} exported to {path}: {} scan bit(s), {} flit(s), {} DRAM byte(s), \
                 geometry {}",
                portable.scan_bits(),
                portable.total_flits(),
                portable.dram_bytes(),
                portable.source_geometry
            ),
            Err(e) => println!("error: cannot write {path}: {e}"),
        },
        Err(e) => println!("error: cannot serialize capsule: {e}"),
    }
}

/// `checkpoint import <file>`: parse a portable capsule and restore it
/// onto this controller's fabric (recompiling the app if needed).
fn import_checkpoint(backend: &Backend, path: &str) {
    let Some(controller) = backend.controller() else {
        println!("checkpoint import needs a local session (capsules do not cross the wire)");
        return;
    };
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            println!("error: cannot read {path}: {e}");
            return;
        }
    };
    let portable = match PortableCheckpoint::from_json(&json) {
        Ok(p) => p,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    match controller.restore_portable(&portable) {
        Ok(handle) => println!(
            "tenant{} restored from {path} (source geometry {}, now on {}) on {} FPGA(s)",
            portable.tenant.raw(),
            portable.source_geometry,
            controller.geometry(),
            handle.fpga_count()
        ),
        Err(e) => println!("error: {e}"),
    }
}

fn parse_tenant(token: Option<&str>) -> Option<u64> {
    token.and_then(|t| t.trim_start_matches("tenant").parse::<u64>().ok())
}

fn render(resp: &ControlResponse) {
    match resp {
        ControlResponse::Deployed(s) => println!(
            "deployed {} as tenant{} on {} FPGA(s) ({} blocks, primary fpga{}, \
             reconfig {} us, {:.1} Gb/s)",
            s.app, s.tenant, s.fpgas, s.blocks, s.primary_fpga, s.reconfig_us, s.granted_gbps
        ),
        ControlResponse::Undeployed { tenant } => println!("tenant{tenant} undeployed"),
        ControlResponse::Scaled(s) => println!(
            "tenant{} rescaled {} -> {} tile(s) in {} us (stream switch, no reconfiguration)",
            s.tenant, s.tiles_before, s.tiles_after, s.realloc_us
        ),
        ControlResponse::Suspended(s) => {
            let portability = if s.portable {
                format!(
                    ", portable ({} scan bit(s), capsule {})",
                    s.scan_bits, s.capsule_version
                )
            } else {
                String::new()
            };
            println!(
                "tenant{} checkpointed: {} flit(s) in {} channel(s), {} DRAM byte(s) \
                 parked{portability}",
                s.tenant, s.flits, s.channels, s.dram_bytes
            );
        }
        ControlResponse::Resumed(s) => println!(
            "tenant{} resumed on {} FPGA(s), reconfig {} us",
            s.tenant, s.fpgas, s.reconfig_us
        ),
        ControlResponse::Migrated(m) => println!(
            "migrated tenant{} ({:?}): {} -> {} FPGA(s), hop cost {} -> {}, reconfig {} us",
            m.tenant,
            m.policy,
            m.fpgas_before,
            m.fpgas_after,
            m.hop_cost_before,
            m.hop_cost_after,
            m.reconfig_us
        ),
        ControlResponse::Evacuated(e) => println!(
            "fpga{} draining: {} migrated, {} could not move",
            e.fpga,
            e.migrated.len(),
            e.unmoved.len()
        ),
        ControlResponse::FpgaFailed(r) => println!(
            "fpga{} offline: {} tenant(s) migrated, {} torn down",
            r.fpga,
            r.migrated.len(),
            r.torn_down.len()
        ),
        ControlResponse::Recovered { fpga } => println!("fpga{fpga} back online"),
        ControlResponse::Defragmented { migrations } => {
            if migrations.is_empty() {
                println!("nothing to defragment");
            } else {
                for m in migrations {
                    println!(
                        "migrated tenant{}: {} -> {} FPGA(s), reconfig {} us",
                        m.tenant, m.fpgas_before, m.fpgas_after, m.reconfig_us
                    );
                }
            }
        }
        ControlResponse::Status(s) => {
            println!("cluster occupancy ('.' = free, digit = tenant id % 10):");
            for f in &s.fpgas {
                let row: String = f
                    .blocks
                    .iter()
                    .map(|&t| {
                        if t == 0 {
                            '.'
                        } else {
                            char::from_digit((t % 10) as u32, 10).unwrap_or('?')
                        }
                    })
                    .collect();
                println!("  fpga{}: {row}  [{}]", f.fpga, f.health);
            }
            let ids = |v: &[u64]| {
                v.iter()
                    .map(|t| format!("tenant{t}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            println!(
                "{} blocks free, {} live tenant(s): {}",
                s.total_free,
                s.live_tenants.len(),
                ids(&s.live_tenants)
            );
            if s.isa_tiles_total > 0 {
                println!(
                    "isa pool: {}/{} tile(s) free, {} isa tenant(s): {}",
                    s.isa_tiles_free,
                    s.isa_tiles_total,
                    s.isa_tenants.len(),
                    ids(&s.isa_tenants)
                );
            }
            if !s.suspended_tenants.is_empty() {
                println!(
                    "{} suspended tenant(s): {}",
                    s.suspended_tenants.len(),
                    ids(&s.suspended_tenants)
                );
            }
            if s.fpga_failures + s.evacuations > 0 {
                println!(
                    "failures: {} crash(es), {} recover(ies), {} evacuation(s); \
                     {} tenant(s) migrated, {} torn down",
                    s.fpga_failures,
                    s.fpga_recoveries,
                    s.evacuations,
                    s.tenants_migrated,
                    s.tenants_torn_down
                );
            }
        }
        ControlResponse::Prepared { app, cache_hit } => {
            if *cache_hit {
                println!("{app} already registered");
            } else {
                println!("{app} compiled and registered");
            }
        }
        ControlResponse::Err(e) => println!("error: {e}"),
        other => println!("{other:?}"),
    }
}

fn main() {
    let mut connect: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--connect" => match args.next() {
                Some(addr) => connect = Some(addr),
                None => {
                    eprintln!("vitalctl: --connect needs HOST:PORT");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("vitalctl [--connect HOST:PORT]  (commands on stdin; see source header)");
                return;
            }
            other => {
                eprintln!("vitalctl: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let backend = match &connect {
        // JSON frames: keeps `vitalctl --connect` wire-compatible with
        // older daemons (the server answers in the request's format).
        Some(addr) => match RemoteClient::connect_with(addr, WireFormat::Json) {
            Ok(remote) => {
                println!("vitalctl: connected to vitald at {addr}");
                Backend::Remote(remote)
            }
            Err(e) => {
                eprintln!("vitalctl: cannot connect to {addr}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let controller = Arc::new(
                SystemController::new(RuntimeConfig::paper_cluster())
                    .with_telemetry(Telemetry::recording())
                    // A paper-pool ISA template so `deploy --isa` and
                    // `scale` work out of the box.
                    .with_isa_backend(vital::isa::IsaTemplate::paper_pool().tiles()),
            );
            controller.set_app_resolver(benchmark_resolver());
            let vitald = Vitald::spawn(controller.clone(), ServiceConfig::default());
            let client = vitald.client();
            println!(
                "vitalctl: in-process vitald over the paper cluster \
                 (use --connect HOST:PORT for a remote daemon)"
            );
            Backend::Local {
                _vitald: vitald,
                client,
                controller,
            }
        }
    };

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let cmd = tokens.next().unwrap_or("");
        let req = match cmd {
            "compile" => {
                let (Some(name), Some(size)) = (tokens.next(), tokens.next()) else {
                    println!("usage: compile <benchmark> <S|M|L>");
                    continue;
                };
                let size = size.to_ascii_uppercase();
                if !matches!(size.as_str(), "S" | "M" | "L") {
                    println!("unknown size {size:?} (use S, M or L)");
                    continue;
                }
                ControlRequest::Prepare {
                    app: format!("{name}-{size}"),
                }
            }
            "deploy" => {
                let Some(name) = tokens.next() else {
                    println!("usage: deploy <name> [quota-mb] [--isa]");
                    continue;
                };
                let rest: Vec<&str> = tokens.by_ref().collect();
                if rest.contains(&"--isa") {
                    ControlRequest::Deploy(DeployRequest::isa(name))
                } else {
                    let mut dr = DeployRequest::app(name);
                    if let Some(mb) = rest.first().and_then(|t| t.parse::<u64>().ok()) {
                        dr = dr.with_quota_bytes(mb << 20);
                    }
                    ControlRequest::Deploy(dr)
                }
            }
            "scale" => {
                let tenant = parse_tenant(tokens.next());
                let tiles = tokens.next().and_then(|t| t.parse::<u32>().ok());
                match (tenant, tiles) {
                    (Some(tenant), Some(tiles)) => ControlRequest::Scale { tenant, tiles },
                    _ => {
                        println!("usage: scale <tenant-id> <tiles>");
                        continue;
                    }
                }
            }
            "undeploy" => match parse_tenant(tokens.next()) {
                Some(tenant) => ControlRequest::Undeploy { tenant },
                None => {
                    println!("usage: undeploy <tenant-id>");
                    continue;
                }
            },
            "checkpoint" => match tokens.next() {
                Some("export") => {
                    match (parse_tenant(tokens.next()), tokens.next()) {
                        (Some(tenant), Some(path)) => export_checkpoint(&backend, tenant, path),
                        _ => println!("usage: checkpoint export <tenant-id> <file>"),
                    }
                    continue;
                }
                Some("import") => {
                    match tokens.next() {
                        Some(path) => import_checkpoint(&backend, path),
                        None => println!("usage: checkpoint import <file>"),
                    }
                    continue;
                }
                token => match parse_tenant(token) {
                    Some(tenant) => ControlRequest::Checkpoint { tenant },
                    None => {
                        println!("usage: checkpoint <tenant-id> | export <tenant-id> <file> | import <file>");
                        continue;
                    }
                },
            },
            "restore" => match parse_tenant(tokens.next()) {
                Some(tenant) => ControlRequest::Restore { tenant },
                None => {
                    println!("usage: restore <tenant-id>");
                    continue;
                }
            },
            "migrate" => match parse_tenant(tokens.next()) {
                Some(tenant) => {
                    let policy = match tokens.next() {
                        Some("--portable") => MigratePolicy::Portable,
                        Some("--auto") => MigratePolicy::Auto,
                        Some(other) => {
                            println!("unknown migrate flag {other:?} (use --portable or --auto)");
                            continue;
                        }
                        None => MigratePolicy::SameGeometry,
                    };
                    ControlRequest::Migrate { tenant, policy }
                }
                None => {
                    println!("usage: migrate <tenant-id> [--portable|--auto]");
                    continue;
                }
            },
            "defrag" => ControlRequest::Defragment,
            "fail" => match tokens.next().and_then(|t| t.parse::<usize>().ok()) {
                Some(fpga) => ControlRequest::Fail { fpga },
                None => {
                    println!("usage: fail <fpga>");
                    continue;
                }
            },
            "recover" => match tokens.next().and_then(|t| t.parse::<usize>().ok()) {
                Some(fpga) => ControlRequest::Recover { fpga },
                None => {
                    println!("usage: recover <fpga>");
                    continue;
                }
            },
            "evacuate" => match tokens.next().and_then(|t| t.parse::<usize>().ok()) {
                Some(fpga) => ControlRequest::Evacuate { fpga },
                None => {
                    println!("usage: evacuate <fpga>");
                    continue;
                }
            },
            "status" => ControlRequest::Status,
            "quit" | "exit" => break,
            other => {
                println!(
                    "unknown command {other:?} (compile/deploy/scale/undeploy/checkpoint/restore/\
                     migrate/defrag/fail/recover/evacuate/status/quit)"
                );
                continue;
            }
        };
        render(&backend.call(req));
    }
    println!("bye");
}
