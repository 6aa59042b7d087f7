//! `cold_farm`: the paper's other half — compile once, deploy many.
//!
//! A round starts from an empty persistence directory. Both connections
//! walk the 21 app names in one seeded order, the second four names ahead
//! of the first, each doing Prepare → Deploy → Undeploy, so the
//! build farm compiles each design exactly once while prepares of the same
//! name collide in flight. Then the service is stopped and a second
//! controller is started from the persisted database; the round ends with
//! its first Deploy over TCP. Local P&R, single-flight, whole-database
//! saves and the database reload do all the work; the service layer is
//! noise here.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vital::compiler::AppBitstream;
use vital::runtime::{ControlRequest, ControlResponse, FarmStats, SystemController};
use vital::service::{benchmark_resolver, RemoteClient};

use crate::gen::MAX_ATTEMPTS;
use crate::spans::Recorder;
use crate::stack::{self, Service};
use crate::stats;

/// Designs of the suite.
pub const APPS: usize = 21;
/// How many names further into the walk each connection starts than the
/// one before it. Four makes about a third of the 42 prepares of a round
/// collide in flight (14–16 single-flight waits measured); with seven,
/// the connections leapfrog and only 6–9 collide.
const LANE_OFFSET: usize = 4;

/// A freshly started service over a persistence path, with its clients.
pub struct Farm {
    service: Service,
    clients: Vec<RemoteClient>,
}

impl Farm {
    /// Starts a controller persisted at `path` (loading what is there),
    /// serves it and connects one client per generator.
    pub fn start(path: &Path) -> Result<Farm, String> {
        let ctl = stack::empty_controller()
            .with_persistence(path)
            .map_err(|e| format!("with_persistence: {e}"))?;
        ctl.set_app_resolver(benchmark_resolver());
        let service = Service::start(Arc::new(ctl));
        let clients = (0..stack::generators())
            .map(|_| RemoteClient::connect(&service.addr()).map_err(|e| format!("connect: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Farm { service, clients })
    }

    fn controller(&self) -> &Arc<SystemController> {
        self.service.vitald.controller()
    }

    /// Stops the service and joins its threads.
    pub fn stop(self) {
        drop(self.clients);
        self.service.stop();
    }
}

/// What one round measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Wall time of the walk that fills the farm, in seconds.
    pub fill_s: f64,
    /// Prepare → Deployed of each design whose Prepare compiled it, in ms,
    /// ascending.
    pub cold_ms: Vec<f64>,
    /// The `Prepare` alone of each of those designs, in ms.
    pub miss_ms: Vec<f64>,
    /// Second controller: `with_persistence` → first Deployed, in seconds.
    pub restart_s: f64,
    /// Farm counters after the walk.
    pub farm: FarmStats,
    /// Prepares sent during the walk.
    pub prepares: u64,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that did not get the right reply.
    pub failed: u64,
    /// Output checks that did not hold.
    pub broken: Vec<String>,
}

impl Round {
    /// Designs compiled cold per second of the walk.
    pub fn cold_apps_per_s(&self) -> f64 {
        APPS as f64 / self.fill_s
    }

    /// The longest wait of the round a tenant can meet, in ms: the
    /// slowest cold Prepare+Deploy or the restart, whichever is longer.
    pub fn slowest_ms(&self) -> f64 {
        self.cold_ms
            .last()
            .copied()
            .unwrap_or(0.0)
            .max(self.restart_s * 1e3)
    }
}

/// The order the connections walk the suite in: a seeded shuffle.
fn walk_order(seed: u64, names: &[String]) -> Vec<String> {
    let mut order = names.to_vec();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xc01d_fa43));
    order
}

/// Sends `req` until the answer is not a retryable refusal (a claim race
/// can refuse a Deploy on an empty cluster), as `vitalctl` would.
fn call(
    client: &RemoteClient,
    req: ControlRequest,
) -> Result<ControlResponse, vital::service::ServiceError> {
    let mut resp = client.call(req.clone())?;
    for _ in 1..MAX_ATTEMPTS {
        match resp.err() {
            Some(e) if e.is_retryable() => resp = client.call(req.clone())?,
            _ => break,
        }
    }
    Ok(resp)
}

/// One `Prepare` of a walk.
struct Prepared {
    /// It compiled the design (`cache_hit: false`).
    compiled: bool,
    /// Position in the walk.
    seq: u64,
    start: Instant,
    end: Instant,
}

/// What one connection's walk did.
#[derive(Default)]
struct Walked {
    /// Prepare→Deployed of every design this connection compiled, in ms.
    cold_ms: Vec<f64>,
    prepares: Vec<Prepared>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Walked {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why.chars().take(200).collect());
    }
}

/// One connection's walk: Prepare → Deploy → Undeploy per name.
fn walk(client: &RemoteClient, order: &[String]) -> Walked {
    let mut out = Walked::default();
    for (seq, app) in order.iter().enumerate() {
        out.attempted += 1;
        let start = Instant::now();
        let prepared = call(client, ControlRequest::Prepare { app: app.clone() });
        let end = Instant::now();
        let compiled = match &prepared {
            Ok(ControlResponse::Prepared { app: a, cache_hit }) if a == app => !cache_hit,
            other => {
                out.fail(format!("Prepare {app}: {other:?}"));
                continue;
            }
        };
        out.prepares.push(Prepared {
            compiled,
            seq: seq as u64,
            start,
            end,
        });
        out.attempted += 1;
        let tenant = match call(client, ControlRequest::deploy(app.clone())) {
            Ok(ControlResponse::Deployed(d)) if d.app == *app && d.blocks > 0 => d.tenant,
            other => {
                out.fail(format!("Deploy {app}: {other:?}"));
                continue;
            }
        };
        if compiled {
            out.cold_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        out.attempted += 1;
        match call(client, ControlRequest::Undeploy { tenant }) {
            Ok(ControlResponse::Undeployed { tenant: t }) if t == tenant => {}
            other => out.fail(format!("Undeploy {app}: {other:?}")),
        }
    }
    out
}

/// A digest of every image by name, ascending: what the farm must build
/// and a restart must bring back bit for bit.
pub fn digests(images: impl IntoIterator<Item = AppBitstream>) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = images
        .into_iter()
        .map(|image| {
            let json = serde_json::to_string(&image).expect("images serialize");
            (image.name().to_string(), stats::fnv48(json.as_bytes()))
        })
        .collect();
    out.sort();
    out
}

fn image_digests(ctl: &SystemController) -> Vec<(String, u64)> {
    let db = ctl.bitstreams();
    digests(
        db.names()
            .iter()
            .map(|name| db.get(name).expect("a listed name resolves")),
    )
}

/// Runs one round on `farm`, a service freshly started over the empty
/// persistence `path`. With `rec`, the walk's prepares and the restart's
/// parts are recorded as spans under id `round`.
pub fn round(
    farm: Farm,
    path: &Path,
    seed: u64,
    round: u64,
    reference: &[(String, u64)],
    mut rec: Option<&mut Recorder>,
) -> Round {
    let mut broken = Vec::new();
    let names: Vec<String> = stack::app_specs()
        .iter()
        .map(|s| s.name().to_string())
        .collect();
    let order = walk_order(seed.wrapping_add(round), &names);
    let lanes = farm.clients.len();

    // The fill: every lane walks the same order, lane i a few names
    // further in than lane i - 1.
    let t0 = Instant::now();
    let walked: Vec<Walked> = std::thread::scope(|scope| {
        let handles: Vec<_> = farm
            .clients
            .iter()
            .enumerate()
            .map(|(i, client)| {
                let mut order = order.clone();
                order.rotate_left(i * LANE_OFFSET % APPS);
                scope.spawn(move || walk(client, &order))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("walk thread panicked"))
            .collect()
    });
    let fill_s = t0.elapsed().as_secs_f64();
    if let Some(rec) = rec.as_deref_mut() {
        rec.push(
            "cold_farm.fill",
            "cold_farm.round",
            round,
            t0,
            Instant::now(),
        );
    }

    let (mut cold_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for lane in walked {
        cold_ms.extend(lane.cold_ms);
        attempted += lane.attempted;
        failed += lane.failed;
        broken.extend(lane.failures);
        for p in lane.prepares {
            let name = if p.compiled {
                miss_ms.push((p.end - p.start).as_secs_f64() * 1e3);
                "runtime.prepare.miss"
            } else {
                "runtime.prepare.hit"
            };
            if let Some(rec) = rec.as_deref_mut() {
                rec.push(name, "cold_farm.fill", round * 1000 + p.seq, p.start, p.end);
            }
        }
    }
    cold_ms.sort_by(f64::total_cmp);
    let farm_stats = farm.controller().farm_stats();
    if farm_stats.compiles != APPS as u64 || cold_ms.len() != APPS {
        broken.push(format!(
            "{} compiles and {} cold prepares for {APPS} designs",
            farm_stats.compiles,
            cold_ms.len()
        ));
    }
    if farm_stats.persist_errors != 0 {
        broken.push(format!("{} persist errors", farm_stats.persist_errors));
    }
    let cold_digests = image_digests(farm.controller());
    if cold_digests != *reference {
        broken.push("farm-built images differ from a direct Compiler::compile".to_string());
    }
    farm.stop();

    // The restart: a second controller over the same path, up to its
    // first Deploy over TCP.
    let t1 = Instant::now();
    let mut restart_s = 0.0;
    match Farm::start(path) {
        Ok(warm) => {
            let loaded_at = Instant::now();
            let app = &order[0];
            let first = call(&warm.clients[0], ControlRequest::deploy(app.clone()));
            restart_s = t1.elapsed().as_secs_f64();
            if let Some(rec) = rec {
                rec.push(
                    "cold_farm.restart",
                    "cold_farm.round",
                    round,
                    t1,
                    Instant::now(),
                );
                rec.push(
                    "runtime.with_persistence",
                    "cold_farm.restart",
                    round,
                    t1,
                    loaded_at,
                );
            }
            attempted += 2;
            match first {
                Ok(ControlResponse::Deployed(d)) if d.app == *app => {
                    let undeploy = ControlRequest::Undeploy { tenant: d.tenant };
                    if !matches!(
                        call(&warm.clients[0], undeploy),
                        Ok(ControlResponse::Undeployed { .. })
                    ) {
                        failed += 1;
                        broken.push("Undeploy after the restart failed".to_string());
                    }
                }
                other => {
                    failed += 2;
                    broken.push(format!("first Deploy after the restart: {other:?}"));
                }
            }
            let stats = warm.controller().farm_stats();
            if stats.persist_loaded != APPS as u64 || stats.compiles != 0 {
                broken.push(format!(
                    "restart loaded {} designs and compiled {}",
                    stats.persist_loaded, stats.compiles
                ));
            }
            if image_digests(warm.controller()) != cold_digests {
                broken.push("restarted images differ from the cold ones".to_string());
            }
            warm.stop();
        }
        Err(why) => broken.push(format!("restart: {why}")),
    }

    Round {
        fill_s,
        cold_ms,
        miss_ms,
        restart_s,
        farm: farm_stats,
        prepares: (lanes * APPS) as u64,
        attempted,
        failed,
        broken,
    }
}

/// A scratch directory under the benchmark's `out/`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `out/tmp-<pid>/`.
    pub fn new() -> std::io::Result<Scratch> {
        let dir = crate::out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// An empty directory for one round's persistence files.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir.join("bitstreams.json"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
