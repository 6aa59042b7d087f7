//! Build-farm integration (DESIGN.md §14): single-flight dedupe —
//! concurrent registrations of one digest run exactly one compile — and
//! the persistent bitstream database — a restarted controller (or
//! `vitald`) serves previously compiled apps from the warm cache with
//! zero place-and-route.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use vital::compiler::{Compiler, CompilerConfig};
use vital::netlist::hls::{AppSpec, Operator};
use vital::periph::TenantId;
use vital::runtime::{ControlRequest, ControlResponse, RuntimeConfig, SystemController};
use vital::service::{ServiceConfig, Vitald};

/// A small two-operator design; the digest depends on the operators, not
/// the name, so differently named specs share one compile.
fn small_spec(name: &str, pes: u32, slices: u32) -> AppSpec {
    let mut spec = AppSpec::new(name);
    let m = spec.add_operator("m", Operator::MacArray { pes });
    let p = spec.add_operator("p", Operator::Pipeline { slices });
    spec.add_edge(m, p, 64).unwrap();
    spec
}

/// Undeploys `tenant`, which must exist.
fn undeploy(controller: &SystemController, tenant: TenantId) {
    let resp = controller.execute(ControlRequest::undeploy(tenant));
    assert_eq!(
        resp,
        ControlResponse::Undeployed {
            tenant: tenant.raw()
        }
    );
}

/// A unique on-disk database path, deleted (with its `.tmp` sibling, its
/// demand sidecar and its image objects) when the guard drops.
struct TempDb(PathBuf);

impl TempDb {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempDb(std::env::temp_dir().join(format!(
            "vital_build_farm_{tag}_{}_{n}.json",
            std::process::id()
        )))
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl TempDb {
    /// The demand-profile sidecar `with_persistence` pairs with the
    /// database path.
    fn demand_path(&self) -> PathBuf {
        self.beside(".demand")
    }

    /// The directory of image objects `with_persistence` pairs with the
    /// database path.
    fn objects_path(&self) -> PathBuf {
        self.beside(".objects")
    }

    fn beside(&self, suffix: &str) -> PathBuf {
        let mut os = self.0.as_os_str().to_os_string();
        os.push(suffix);
        PathBuf::from(os)
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("tmp"));
        let demand = self.demand_path();
        let _ = std::fs::remove_file(demand.with_extension("tmp"));
        let _ = std::fs::remove_file(demand);
        let _ = std::fs::remove_dir_all(self.objects_path());
    }
}

/// Eight threads race to register the same netlist under different names:
/// single-flight must run exactly one compile, with every other caller
/// either waiting on the leader's flight or hitting the cache it filled.
#[test]
fn concurrent_registrations_compile_exactly_once() {
    let controller = Arc::new(SystemController::new(RuntimeConfig::paper_cluster()));
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let controller = Arc::clone(&controller);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let compiler = Compiler::new(CompilerConfig::default());
                    let spec = small_spec(&format!("racer-{i}"), 8, 120);
                    barrier.wait();
                    controller
                        .register_compiled(&compiler, &spec)
                        .expect("registration succeeds")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = controller.farm_stats();
    assert_eq!(
        stats.compiles, 1,
        "one digest must compile exactly once, not {} times",
        stats.compiles
    );
    let cold: Vec<_> = outcomes.iter().filter(|o| !o.cache_hit).collect();
    assert_eq!(cold.len(), 1, "exactly one caller paid the compile");
    assert!(
        cold[0].timings.is_some(),
        "the compiling caller has timings"
    );
    for o in &outcomes {
        assert_eq!(o.digest, cold[0].digest, "all callers agree on the digest");
        if o.cache_hit {
            assert!(o.timings.is_none(), "cache hits ran zero P&R");
        }
    }
    // Every name points at the same image.
    let reference = controller.bitstreams().get("racer-0").unwrap();
    for i in 1..threads {
        let other = controller.bitstreams().get(&format!("racer-{i}")).unwrap();
        assert_eq!(reference.renamed("x"), other.renamed("x"));
    }
}

/// A controller restarted onto the same database file serves the app it
/// compiled in its previous life as a pure cache hit — zero P&R — and can
/// deploy it.
#[test]
fn restarted_controller_serves_warm_cache_with_zero_pnr() {
    let db = TempDb::new("restart");
    let compiler = Compiler::new(CompilerConfig::default());
    {
        let controller = SystemController::new(RuntimeConfig::paper_cluster())
            .with_persistence(db.path())
            .expect("fresh database starts empty");
        assert_eq!(controller.farm_stats().persist_loaded, 0);
        let cold = controller
            .register_compiled(&compiler, &small_spec("hot", 12, 200))
            .unwrap();
        assert!(!cold.cache_hit && cold.timings.is_some());
        assert!(controller.farm_stats().persist_saves >= 1);
        assert_eq!(controller.farm_stats().persist_errors, 0);
    }

    let reborn = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(db.path())
        .expect("database written by the first life parses");
    assert!(
        reborn.farm_stats().persist_loaded >= 1,
        "the compiled bitstream survives the restart"
    );
    let warm = reborn
        .register_compiled(&compiler, &small_spec("hot-replay", 12, 200))
        .unwrap();
    assert!(warm.cache_hit, "the reloaded digest is a cache hit");
    assert!(warm.timings.is_none(), "a warm deploy runs zero P&R");
    assert_eq!(reborn.farm_stats().compiles, 0, "nothing recompiled");
    let handle = reborn.deploy("hot").expect("reloaded image deploys");
    undeploy(&reborn, handle.tenant());
}

/// The same warm-restart contract through the whole daemon: a second
/// `vitald` on the same database answers `Prepare` for an app compiled by
/// the first one without ever calling the resolver.
#[test]
fn vitald_restart_prepares_warm_without_recompiling() {
    let db = TempDb::new("vitald");

    let resolver = |calls: &Arc<AtomicU64>| {
        let calls = Arc::clone(calls);
        Box::new(move |name: &str| {
            calls.fetch_add(1, Ordering::Relaxed);
            Compiler::new(CompilerConfig::default())
                .compile(&small_spec(name, 10, 150))
                .map(vital::compiler::CompiledApp::into_bitstream)
                .map_err(Into::into)
        })
    };

    let first_life_calls = Arc::new(AtomicU64::new(0));
    {
        let controller = Arc::new(
            SystemController::new(RuntimeConfig::paper_cluster())
                .with_persistence(db.path())
                .unwrap(),
        );
        controller.set_app_resolver(resolver(&first_life_calls));
        let vitald = Vitald::spawn(Arc::clone(&controller), ServiceConfig::default());
        let client = vitald.client();
        match client.call(ControlRequest::Prepare { app: "farm".into() }) {
            ControlResponse::Prepared { cache_hit, .. } => assert!(!cache_hit),
            other => panic!("prepare failed: {other:?}"),
        }
        assert_eq!(first_life_calls.load(Ordering::Relaxed), 1);
        vitald.shutdown();
    }

    let second_life_calls = Arc::new(AtomicU64::new(0));
    let controller = Arc::new(
        SystemController::new(RuntimeConfig::paper_cluster())
            .with_persistence(db.path())
            .unwrap(),
    );
    controller.set_app_resolver(resolver(&second_life_calls));
    let vitald = Vitald::spawn(Arc::clone(&controller), ServiceConfig::default());
    let client = vitald.client();
    match client.call(ControlRequest::Prepare { app: "farm".into() }) {
        ControlResponse::Prepared { cache_hit, .. } => {
            assert!(cache_hit, "the restarted daemon has the app warm");
        }
        other => panic!("warm prepare failed: {other:?}"),
    }
    assert_eq!(
        second_life_calls.load(Ordering::Relaxed),
        0,
        "a warm restart never calls the resolver"
    );
    assert_eq!(controller.farm_stats().compiles, 0);
    let resp = client.call(ControlRequest::deploy("farm"));
    assert!(resp.is_ok(), "warm deploy failed: {resp:?}");
    vitald.shutdown();
}

/// Concurrent mutators (eight threads registering distinct designs) all
/// trigger saves of the same persistence path; the serialized save path
/// must never tear the file or lose a registration — the final snapshot
/// parses and holds every app.
#[test]
fn concurrent_registrations_never_tear_the_persisted_database() {
    let db = TempDb::new("race");
    let threads = 8;
    let controller = Arc::new(
        SystemController::new(RuntimeConfig::paper_cluster())
            .with_persistence(db.path())
            .expect("fresh database starts empty"),
    );
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|s| {
        for i in 0..threads {
            let controller = Arc::clone(&controller);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                // Distinct operators => distinct digests => every thread
                // leads its own compile and its own save.
                let compiler = Compiler::new(CompilerConfig::default());
                let spec = small_spec(&format!("racer-{i}"), 4 + i as u32, 100 + 10 * i as u32);
                barrier.wait();
                controller
                    .register_compiled(&compiler, &spec)
                    .expect("registration succeeds");
            });
        }
    });
    assert_eq!(
        controller.farm_stats().persist_errors,
        0,
        "no save may fail under concurrency"
    );

    let reborn = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(db.path())
        .expect("the racing saves never publish a torn snapshot");
    assert_eq!(
        reborn.farm_stats().persist_loaded,
        threads as u64,
        "the final snapshot holds every registration"
    );
    for i in 0..threads {
        reborn
            .bitstreams()
            .get(&format!("racer-{i}"))
            .expect("every racer's bitstream survives the restart");
    }
}

/// Speculation is demand-driven and counted: a failed deploy records
/// demand, `speculate_compile` warms exactly that app (bumping both the
/// `compiles` and `speculative_compiles` counters), and the next deploy
/// is a pure cache hit.
#[test]
fn speculation_warms_demanded_apps_and_counts_compiles() {
    let controller = SystemController::new(RuntimeConfig::paper_cluster());
    controller.set_app_resolver(Box::new(|name: &str| {
        Compiler::new(CompilerConfig::default())
            .compile(&small_spec(name, 10, 150))
            .map(vital::compiler::CompiledApp::into_bitstream)
            .map_err(Into::into)
    }));
    assert!(controller.deploy("wanted").is_err(), "unknown app yet");
    assert_eq!(controller.speculate_compile(4), vec!["wanted".to_string()]);
    let stats = controller.farm_stats();
    assert_eq!(
        stats.compiles, 1,
        "a speculative compile is still a compile"
    );
    assert_eq!(stats.speculative_compiles, 1);
    let handle = controller.deploy("wanted").expect("speculation warmed it");
    undeploy(&controller, handle.tenant());
    assert!(
        controller.speculate_compile(4).is_empty(),
        "nothing left to warm"
    );
    assert_eq!(controller.farm_stats().compiles, 1, "no recompile");
}

/// Speculation must not duplicate a compile that a prepare leader is
/// already running: while the resolver is parked inside the prepare
/// flight, a concurrent `speculate_compile` of the same app skips it
/// (follower role) instead of resolving it a second time.
#[test]
fn speculation_dedupes_against_inflight_prepare() {
    use std::sync::mpsc;
    use std::sync::Mutex;
    use std::time::Duration;

    let controller = Arc::new(SystemController::new(RuntimeConfig::paper_cluster()));
    let calls = Arc::new(AtomicU64::new(0));
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
    controller.set_app_resolver(Box::new({
        let calls = Arc::clone(&calls);
        move |name: &str| {
            calls.fetch_add(1, Ordering::Relaxed);
            let _ = entered_tx.lock().unwrap().send(());
            // Park until the main thread has speculated (bounded, so a
            // regression fails the call-count assert instead of hanging).
            let _ = release_rx
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(10));
            Compiler::new(CompilerConfig::default())
                .compile(&small_spec(name, 10, 150))
                .map(vital::compiler::CompiledApp::into_bitstream)
                .map_err(Into::into)
        }
    }));

    let preparer = {
        let controller = Arc::clone(&controller);
        std::thread::spawn(move || {
            controller.execute(ControlRequest::Prepare { app: "slow".into() })
        })
    };
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the prepare leader reaches the resolver");
    // The prepare above already recorded demand for "slow"; with its
    // leader parked in the resolver, speculation must stand down.
    assert!(
        controller.speculate_compile(4).is_empty(),
        "speculation must skip an app a prepare leader is compiling"
    );
    release_tx
        .send(())
        .expect("resolver is parked on the channel");
    match preparer.join().expect("prepare thread") {
        ControlResponse::Prepared { cache_hit, .. } => assert!(!cache_hit),
        other => panic!("unexpected prepare answer: {other:?}"),
    }
    assert_eq!(calls.load(Ordering::Relaxed), 1, "exactly one resolution");
    let stats = controller.farm_stats();
    assert_eq!(stats.compiles, 1);
    assert_eq!(stats.speculative_compiles, 0);
}

/// The demand profile survives a restart alongside the bitstream
/// database: demand recorded (and checkpointed) in the first life ranks
/// speculation in the second. Before the fix, `vitald --persist
/// --speculate-ms` restarted with a warm cache but a cold ranking, so
/// speculation sat idle until traffic re-taught it what was hot.
#[test]
fn demand_profile_survives_restart_and_feeds_speculation() {
    let db = TempDb::new("demand");
    {
        let controller = SystemController::new(RuntimeConfig::paper_cluster())
            .with_persistence(db.path())
            .unwrap();
        assert_eq!(controller.farm_stats().demand_loaded, 0);
        // Failed deploys of an unregistered app still record demand.
        for _ in 0..3 {
            assert!(controller.deploy("hot-app").is_err());
        }
        // The speculation tick checkpoints the profile even when there is
        // no resolver and nothing compiles.
        assert!(controller.speculate_compile(4).is_empty());
        let stats = controller.farm_stats();
        assert!(stats.demand_saves >= 1, "tick must checkpoint demand");
        assert_eq!(stats.persist_errors, 0);
        assert!(db.demand_path().exists(), "sidecar file written");
    }

    let reborn = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(db.path())
        .unwrap();
    assert!(
        reborn.farm_stats().demand_loaded >= 1,
        "the demand ranking survives the restart"
    );
    reborn.set_app_resolver(Box::new(|name: &str| {
        Compiler::new(CompilerConfig::default())
            .compile(&small_spec(name, 10, 150))
            .map(vital::compiler::CompiledApp::into_bitstream)
            .map_err(Into::into)
    }));
    // No new traffic in this life: speculation runs purely on the
    // restored ranking.
    assert_eq!(
        reborn.speculate_compile(4),
        vec!["hot-app".to_string()],
        "restored demand must drive speculation"
    );
    let handle = reborn.deploy("hot-app").expect("speculation warmed it");
    undeploy(&reborn, handle.tenant());
}

/// A corrupt demand sidecar is surfaced as a typed error, exactly like a
/// corrupt bitstream database — never silently discarded.
#[test]
fn corrupt_demand_sidecar_is_rejected() {
    let db = TempDb::new("demand_corrupt");
    std::fs::write(db.demand_path(), "{not json").unwrap();
    let err = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(db.path())
        .expect_err("corrupt sidecar must fail startup");
    let msg = err.to_string();
    assert!(msg.contains("demand profile"), "unexpected error: {msg}");
}

/// Persisted files from an incompatible build — wrong `format_version`
/// header — are refused with a typed error, for both the bitstream
/// database and the demand sidecar (DESIGN.md §17).
#[test]
fn wrong_format_version_headers_are_rejected() {
    let db = TempDb::new("db_version");
    std::fs::write(db.path(), "{\"format_version\":99,\"apps\":{}}").unwrap();
    let err = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(db.path())
        .expect_err("future database version must fail startup");
    assert!(matches!(
        err,
        vital::runtime::RuntimeError::InvalidConfig(_)
    ));
    assert!(err.to_string().contains("version 99"), "{err}");

    let db = TempDb::new("demand_version");
    std::fs::write(
        db.demand_path(),
        "{\"format_version\":99,\"counts\":{},\"events\":0}",
    )
    .unwrap();
    let err = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(db.path())
        .expect_err("future sidecar version must fail startup");
    assert!(matches!(
        err,
        vital::runtime::RuntimeError::InvalidConfig(_)
    ));
    assert!(err.to_string().contains("version 99"), "{err}");
}

/// The image objects a persisted store holds, sorted by path.
fn objects(db: &TempDb) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(db.objects_path())
        .map(|dir| dir.map(|entry| entry.unwrap().path()).collect())
        .unwrap_or_default();
    files.retain(|file| file.extension().is_some_and(|ext| ext == "json"));
    files.sort();
    files
}

/// A controller persisted at `db` holding one compiled design, dropped
/// again: what a store looks like after a clean shutdown.
fn persist_one(db: &TempDb) {
    let controller = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(db.path())
        .unwrap();
    controller
        .register_compiled(
            &Compiler::new(CompilerConfig::default()),
            &small_spec("one", 6, 90),
        )
        .unwrap();
    assert_eq!(controller.farm_stats().persist_errors, 0);
}

/// Starts a controller on `db`, which must fail with `InvalidConfig`; the
/// error's message is returned.
fn refused(db: &TempDb) -> String {
    let err = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(db.path())
        .expect_err("a damaged store must fail startup");
    assert!(
        matches!(err, vital::runtime::RuntimeError::InvalidConfig(_)),
        "{err}"
    );
    err.to_string()
}

/// Each image is written once: the k-th registration adds the k-th object
/// and leaves the earlier ones untouched, so the store's write volume is
/// the images' size plus a small manifest per save, not the whole
/// database per save.
#[test]
fn each_image_is_written_once() {
    let db = TempDb::new("write_once");
    let compiler = Compiler::new(CompilerConfig::default());
    let controller = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(db.path())
        .unwrap();
    let contents = |file: &PathBuf| {
        let modified = std::fs::metadata(file).unwrap().modified().unwrap();
        (std::fs::read(file).unwrap(), modified)
    };
    let names = ["first", "second", "third"];
    let mut first = None;
    for (k, name) in names.iter().enumerate() {
        let spec = small_spec(name, 4 + 2 * k as u32, 60 + 30 * k as u32);
        controller.register_compiled(&compiler, &spec).unwrap();
        let files = objects(&db);
        assert_eq!(files.len(), k + 1, "one object per registered image");
        let (file, seen) = first.get_or_insert_with(|| (files[0].clone(), contents(&files[0])));
        assert!(
            *seen == contents(file),
            "an object on disk is never rewritten"
        );
    }
    let stats = controller.farm_stats();
    assert_eq!((stats.persist_saves, stats.persist_errors), (3, 0));
    let written: u64 = objects(&db)
        .iter()
        .map(|file| std::fs::metadata(file).unwrap().len())
        .sum();
    let images: u64 = names
        .iter()
        .map(|name| {
            let image = controller.bitstreams().get(name).unwrap();
            serde_json::to_string(&image).unwrap().len() as u64
        })
        .sum();
    assert_eq!(written, images, "the objects are the images, once each");
}

/// What a crash can leave behind. An object the manifest does not name
/// (its save died before the manifest landed) and stale temp files load
/// cleanly; a manifest naming a missing object, or an object whose bytes
/// no longer hash to its id, fails startup naming that file.
#[test]
fn crash_leftovers_load_and_damaged_objects_are_named() {
    let db = TempDb::new("leftovers");
    persist_one(&db);
    std::fs::write(db.objects_path().join("0123456789abcdef.json"), "{}").unwrap();
    std::fs::write(db.objects_path().join("0123456789abcdef.tmp"), "{tor").unwrap();
    std::fs::write(db.path().with_extension("tmp"), "{tor").unwrap();
    let reborn = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(db.path())
        .expect("orphans and temp files are ignored");
    assert_eq!(reborn.farm_stats().persist_loaded, 1);

    let db = TempDb::new("missing_object");
    persist_one(&db);
    let [object] = objects(&db).try_into().unwrap();
    std::fs::remove_file(&object).unwrap();
    let msg = refused(&db);
    assert!(msg.contains(&object.display().to_string()), "{msg}");
    assert!(msg.contains("missing"), "{msg}");

    let db = TempDb::new("mismatched_object");
    persist_one(&db);
    let [object] = objects(&db).try_into().unwrap();
    let mut bytes = std::fs::read(&object).unwrap();
    bytes.push(b' ');
    std::fs::write(&object, bytes).unwrap();
    let msg = refused(&db);
    assert!(msg.contains(&object.display().to_string()), "{msg}");
    assert!(msg.contains("hash"), "{msg}");

    // An id is a file name: one that is not 16 hex digits never reaches
    // the file system.
    let db = TempDb::new("bad_id");
    let manifest = "{\"format_version\":1,\"objects\":{\"x\":\"../x\"}}";
    std::fs::write(db.path(), manifest).unwrap();
    let msg = refused(&db);
    assert!(msg.contains("no object id"), "{msg}");
}

/// A file in the old layout (the whole database in one file, as
/// `BitstreamDatabase::to_json` writes it) is refused, not converted: the
/// operator deletes it and the farm recompiles.
#[test]
fn old_single_file_layout_is_refused() {
    let db = TempDb::new("old_layout");
    let old = vital::runtime::BitstreamDatabase::new();
    old.insert(
        Compiler::new(CompilerConfig::default())
            .compile(&small_spec("old", 6, 90))
            .unwrap()
            .into_bitstream(),
    )
    .unwrap();
    std::fs::write(db.path(), old.to_json().unwrap()).unwrap();
    let msg = refused(&db);
    assert!(msg.contains(&db.path().display().to_string()), "{msg}");
    assert!(msg.contains("delete it"), "{msg}");
}

/// A persistence path in a directory that does not exist: registrations
/// still succeed, every save is a counted error, and the store creates
/// no directory but its own objects directory.
#[test]
fn a_missing_directory_counts_errors_and_creates_nothing() {
    let dir = TempDb::new("missing_dir");
    let controller = SystemController::new(RuntimeConfig::paper_cluster())
        .with_persistence(dir.path().join("db.json"))
        .expect("nothing to load");
    controller
        .register_compiled(
            &Compiler::new(CompilerConfig::default()),
            &small_spec("homeless", 6, 90),
        )
        .expect("a failed save never fails the registration");
    let stats = controller.farm_stats();
    assert!(stats.persist_errors >= 1, "{stats:?}");
    assert_eq!(stats.persist_saves, 0, "{stats:?}");
    assert!(!dir.path().exists(), "the missing directory stays missing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Persistence round-trip property: whatever design was compiled and
    /// saved, a reloaded database serves the *same bits* through
    /// `register_compiled` — the warm image equals the cold one exactly.
    #[test]
    fn persisted_database_serves_bit_identical_bitstreams(
        pes in 4u32..16,
        slices in 1u32..20,
    ) {
        let db = TempDb::new("prop");
        let compiler = Compiler::new(CompilerConfig::default());
        let cold_digest;
        let cold_image;
        {
            let controller = SystemController::new(RuntimeConfig::paper_cluster())
                .with_persistence(db.path())
                .unwrap();
            let cold = controller
                .register_compiled(&compiler, &small_spec("cold", pes, slices * 10))
                .unwrap();
            prop_assert!(!cold.cache_hit);
            cold_digest = cold.digest;
            cold_image = controller.bitstreams().get("cold").unwrap();
        }
        let reborn = SystemController::new(RuntimeConfig::paper_cluster())
            .with_persistence(db.path())
            .unwrap();
        let warm = reborn
            .register_compiled(&compiler, &small_spec("warm", pes, slices * 10))
            .unwrap();
        prop_assert!(warm.cache_hit && warm.timings.is_none());
        prop_assert_eq!(warm.digest, cold_digest);
        let warm_image = reborn.bitstreams().get("warm").unwrap();
        // Bit-identical through rename normalization: the reloaded entry
        // is the cold compile's image, not a recompile.
        prop_assert_eq!(cold_image.renamed("x"), warm_image.renamed("x"));
    }
}
