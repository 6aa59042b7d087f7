//! The build farm (DESIGN.md §14): the content-addressed
//! [`BitstreamDatabase`] plus the three mechanisms that let the control
//! plane lean on it, owned by one [`BuildFarm`] per controller.
//!
//! * **Single-flight dedupe** ([`SingleFlight::run`]): concurrent compiles
//!   of the same key (netlist digest, or app name for resolver-driven
//!   prepares) elect one leader; everyone else blocks until the leader
//!   publishes, then serves the result from the cache. N identical
//!   requests cost one place-and-route.
//! * **Persistence**: every image is written once, as an immutable
//!   content-addressed object file, and a small manifest naming the
//!   objects is rewritten (atomically, via a temp file + rename) after
//!   every mutation. Both are loaded at startup, so a restarted `vitald`
//!   serves warm-cache deploys with zero P&R.
//! * **Demand profile** ([`DemandProfile`]): an exponentially decayed
//!   per-app deploy counter that ranks which footprints the speculative
//!   compile hook should pre-compile next.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use vital_compiler::{AppBitstream, Compiler, NetlistDigest, StageTimings};
use vital_fabric::Fnv1a;
use vital_interface::FormatVersion;
use vital_netlist::hls::AppSpec;
use vital_telemetry::Telemetry;

use crate::{BitstreamDatabase, RuntimeError};

/// A pluggable compiler hook for
/// [`ControlRequest::Prepare`](crate::ControlRequest::Prepare): given an
/// application name the controller has never seen, produce (usually
/// compile) its bitstream. Installed with
/// [`SystemController::set_app_resolver`](crate::SystemController::set_app_resolver);
/// a controller without one answers `Prepare` for unknown names with
/// [`RuntimeError::UnknownApp`].
pub type AppResolver = Box<dyn Fn(&str) -> Result<AppBitstream, RuntimeError> + Send + Sync>;

/// What
/// [`SystemController::register_compiled`](crate::SystemController::register_compiled)
/// did for a spec.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// Content digest of the spec's compile input.
    pub digest: NetlistDigest,
    /// `true` if a cached image was reused and no place-and-route ran.
    pub cache_hit: bool,
    /// `true` if this request blocked on another request's in-flight
    /// compile of the same digest (single-flight follower) instead of
    /// compiling itself; such outcomes are also cache hits.
    pub shared: bool,
    /// Stage timings of the compile that ran; `None` on a cache hit.
    pub timings: Option<StageTimings>,
}

/// Monotonic counters of the build-farm layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Full compiles actually executed (cache misses that led a flight).
    pub compiles: u64,
    /// Requests that blocked on another request's in-flight compile
    /// instead of compiling themselves.
    pub single_flight_waits: u64,
    /// Compiles triggered by [`speculate`](crate::SystemController::speculate_compile)
    /// rather than demand.
    pub speculative_compiles: u64,
    /// Successful bitstream-database saves to the persistence path.
    pub persist_saves: u64,
    /// Failed (and skipped) save attempts; saving is best-effort and
    /// never fails the triggering operation.
    pub persist_errors: u64,
    /// Entries loaded from the persistence path at startup.
    pub persist_loaded: u64,
    /// Demand-profile entries restored from the sidecar file at startup.
    pub demand_loaded: u64,
    /// Successful demand-profile saves to the sidecar file.
    pub demand_saves: u64,
}

/// Atomic backing store for [`FarmStats`].
#[derive(Debug, Default)]
struct FarmCounters {
    compiles: AtomicU64,
    speculative_compiles: AtomicU64,
    persist_saves: AtomicU64,
    persist_errors: AtomicU64,
    persist_loaded: AtomicU64,
    demand_loaded: AtomicU64,
    demand_saves: AtomicU64,
}

impl FarmCounters {
    /// `single_flight_waits` is the flight tables' to report.
    fn snapshot(&self, single_flight_waits: u64) -> FarmStats {
        FarmStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            single_flight_waits,
            speculative_compiles: self.speculative_compiles.load(Ordering::Relaxed),
            persist_saves: self.persist_saves.load(Ordering::Relaxed),
            persist_errors: self.persist_errors.load(Ordering::Relaxed),
            persist_loaded: self.persist_loaded.load(Ordering::Relaxed),
            demand_loaded: self.demand_loaded.load(Ordering::Relaxed),
            demand_saves: self.demand_saves.load(Ordering::Relaxed),
        }
    }
}

/// What a finished flight left behind for its followers.
#[derive(Debug, Clone)]
enum FlightResult {
    /// The leader finished; `Ok` means the cache now holds the artifact.
    Done(Result<(), RuntimeError>),
    /// The leader panicked (or otherwise unwound) before publishing.
    /// Followers retry — the next one through elects itself leader.
    Aborted,
}

/// One in-flight compilation: a rendezvous the followers block on.
#[derive(Debug)]
struct Flight {
    state: Mutex<Option<FlightResult>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, result: FlightResult) {
        let mut state = self.state.lock();
        *state = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> FlightResult {
        let mut state = self.state.lock();
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            self.done.wait(&mut state);
        }
    }
}

/// Single-flight table: concurrent callers of the same key share one
/// in-flight execution.
#[derive(Debug)]
struct SingleFlight<K> {
    inflight: Mutex<HashMap<K, Arc<Flight>>>,
    /// Callers that blocked on another caller's flight so far.
    waits: AtomicU64,
}

impl<K: Eq + Hash + Clone> Default for SingleFlight<K> {
    fn default() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
            waits: AtomicU64::new(0),
        }
    }
}

/// The caller's role in a flight (see [`SingleFlight::join`]).
enum FlightRole<'a, K: Eq + Hash + Clone> {
    /// This caller leads: it must execute the work and publish through the
    /// guard. Dropping the guard without publishing marks the flight
    /// aborted, so followers never hang on a panicked leader.
    Leader(LeaderGuard<'a, K>),
    /// Another caller is already executing; wait on the handle.
    Follower(Arc<Flight>),
}

impl<K: Eq + Hash + Clone> SingleFlight<K> {
    /// Joins the flight for `key`: the first caller in becomes the leader,
    /// everyone else a follower of that leader's flight.
    fn join(&self, key: K) -> FlightRole<'_, K> {
        let mut inflight = self.inflight.lock();
        if let Some(flight) = inflight.get(&key) {
            return FlightRole::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        inflight.insert(key.clone(), Arc::clone(&flight));
        FlightRole::Leader(LeaderGuard {
            table: self,
            key,
            flight,
            published: false,
        })
    }
}

/// How one [`SingleFlight::run`] call was served.
enum Flown<T> {
    /// The cache already held the artifact — after blocking on another
    /// caller's flight if `waited`.
    Cached { waited: bool },
    /// This caller led the flight and produced the artifact.
    Produced { value: T, waited: bool },
    /// Another caller is producing it and this one was told not to wait.
    Busy,
}

impl<K: Eq + Hash + Clone> SingleFlight<K> {
    /// Makes sure the artifact for `key` is cached, producing it at most
    /// once across concurrent callers: probe → join → (leader) re-probe,
    /// produce, publish / (follower) wait, probe again. `cached` must not
    /// block; `produce` caches the artifact itself and runs outside every
    /// farm lock. A follower is counted in `waits` and receives the
    /// leader's error verbatim; if the leader unwound instead, the next waiter
    /// stands for election. With `follow == false` a caller that would
    /// have to wait returns [`Flown::Busy`] at once.
    fn run<T>(
        &self,
        key: K,
        follow: bool,
        cached: impl Fn() -> bool,
        produce: impl FnOnce() -> Result<T, RuntimeError>,
    ) -> Result<Flown<T>, RuntimeError> {
        let mut waited = false;
        loop {
            if cached() {
                return Ok(Flown::Cached { waited });
            }
            match self.join(key.clone()) {
                FlightRole::Leader(flight) => {
                    // A previous leader may have published between this
                    // caller's probe and its election.
                    if cached() {
                        flight.publish(Ok(()));
                        return Ok(Flown::Cached { waited });
                    }
                    let produced = produce();
                    flight.publish(produced.as_ref().map(|_| ()).map_err(Clone::clone));
                    return produced.map(|value| Flown::Produced { value, waited });
                }
                FlightRole::Follower(_) if !follow => return Ok(Flown::Busy),
                FlightRole::Follower(flight) => {
                    self.waits.fetch_add(1, Ordering::Relaxed);
                    waited = true;
                    if let FlightResult::Done(Err(e)) = flight.wait() {
                        return Err(e);
                    }
                }
            }
        }
    }
}

/// Leadership of one flight; publishes the outcome exactly once and
/// retires the flight from the table.
struct LeaderGuard<'a, K: Eq + Hash + Clone> {
    table: &'a SingleFlight<K>,
    key: K,
    flight: Arc<Flight>,
    published: bool,
}

impl<K: Eq + Hash + Clone> LeaderGuard<'_, K> {
    /// Publishes the leader's result to every follower and removes the
    /// flight, so later callers start fresh (re-probing the cache first).
    fn publish(mut self, result: Result<(), RuntimeError>) {
        self.finish(FlightResult::Done(result));
    }

    fn finish(&mut self, result: FlightResult) {
        if self.published {
            return;
        }
        self.published = true;
        self.table.inflight.lock().remove(&self.key);
        self.flight.publish(result);
    }
}

impl<K: Eq + Hash + Clone> Drop for LeaderGuard<'_, K> {
    fn drop(&mut self) {
        // Reached only when the leader unwound before publishing.
        self.finish(FlightResult::Aborted);
    }
}

/// How many demand events accumulate before every count is halved. The
/// decay keeps the ranking biased toward *recent* demand: an app that was
/// hot yesterday but idle today loses its slot to today's traffic.
const DECAY_EVERY_EVENTS: u64 = 1024;

/// Exponentially decayed per-application demand counter.
#[derive(Debug, Default)]
struct DemandProfile {
    inner: Mutex<DemandInner>,
}

#[derive(Debug, Default)]
struct DemandInner {
    counts: HashMap<String, u64>,
    events: u64,
    /// Monotonic total of `record` calls — unlike `events`, never reset
    /// by decay, so periodic persistence triggers at a steady cadence.
    recorded: u64,
}

/// Serializable image of the demand profile. `BTreeMap` keeps the JSON
/// byte-deterministic for a given state, so repeated saves of an unchanged
/// profile write identical files. The sidecar carries the same
/// [`FormatVersion`] header as the image manifest; the loader checks it
/// before restoring.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
struct DemandSnapshot {
    format_version: FormatVersion,
    counts: BTreeMap<String, u64>,
    events: u64,
}

impl DemandProfile {
    /// How many `record` calls elapse between periodic demand-profile
    /// saves when persistence is armed.
    const PERSIST_EVERY_RECORDS: u64 = 64;

    /// Records one demand event (a deploy or prepare) for `app`. Returns
    /// `true` every [`DemandProfile::PERSIST_EVERY_RECORDS`] calls — the
    /// caller's cue to persist the profile if a sidecar path is armed.
    fn record(&self, app: &str) -> bool {
        let mut inner = self.inner.lock();
        *inner.counts.entry(app.to_string()).or_insert(0) += 1;
        inner.events += 1;
        inner.recorded += 1;
        if inner.events >= DECAY_EVERY_EVENTS {
            inner.counts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
            inner.events = inner.counts.values().sum();
        }
        inner.recorded.is_multiple_of(Self::PERSIST_EVERY_RECORDS)
    }

    /// A serializable copy of the current profile.
    fn snapshot(&self) -> DemandSnapshot {
        let inner = self.inner.lock();
        DemandSnapshot {
            format_version: FormatVersion::CURRENT,
            counts: inner.counts.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            events: inner.events,
        }
    }

    /// Replaces the profile with a previously saved snapshot (warm
    /// restart). Returns the number of apps restored.
    fn restore(&self, snapshot: DemandSnapshot) -> usize {
        let mut inner = self.inner.lock();
        let apps = snapshot.counts.len();
        inner.counts = snapshot.counts.into_iter().collect();
        inner.events = snapshot.events;
        inner.recorded = 0;
        apps
    }

    /// The `limit` most-demanded apps for which `keep` returns true,
    /// highest count first (ties broken by name, so the ranking is
    /// deterministic).
    fn top(&self, limit: usize, mut keep: impl FnMut(&str) -> bool) -> Vec<String> {
        let inner = self.inner.lock();
        let mut ranked: Vec<(&String, u64)> = inner
            .counts
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(name, &count)| (name, count))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        ranked
            .into_iter()
            .take(limit)
            .map(|(name, _)| name.clone())
            .collect()
    }
}

/// One controller's build farm: the bitstream database, the single-flight
/// tables, the demand profile, the compile hook, the persistence path and
/// the stat counters.
#[derive(Default)]
pub(crate) struct BuildFarm {
    db: BitstreamDatabase,
    /// Digest-keyed flights for [`BuildFarm::register_compiled`].
    by_digest: SingleFlight<NetlistDigest>,
    /// Name-keyed flights for resolver-driven prepares and speculation.
    by_name: SingleFlight<String>,
    demand: DemandProfile,
    counters: FarmCounters,
    /// Behind an `Arc` so the resolver runs *outside* the lock: prepares
    /// of different apps compile in parallel, and same-app prepares
    /// dedupe through `by_name` instead of serializing on this mutex.
    resolver: Mutex<Option<Arc<AppResolver>>>,
    /// Where the image manifest is saved after every mutation; `None`
    /// disables persistence.
    persist_path: Option<PathBuf>,
    /// The manifest as it is (or is about to be) on disk. Held across a
    /// whole save, so overlapping saves from concurrent mutators can
    /// neither tear a temp file nor rename an older manifest over a newer
    /// one.
    persist_lock: Mutex<Manifest>,
}

/// The file at the persistence path: every persisted image's name and
/// object id under a [`FormatVersion`] header. `BTreeMap` keeps its bytes
/// deterministic.
#[derive(Debug, Default, Serialize, Deserialize)]
struct Manifest {
    format_version: FormatVersion,
    objects: BTreeMap<String, String>,
}

/// The manifest's header alone, checked before the rest is parsed, so a
/// file from another build is refused by its version whatever its layout.
#[derive(Deserialize)]
struct ManifestHeader {
    format_version: FormatVersion,
}

impl Manifest {
    /// Parses a manifest, refusing another version and the old layout (one
    /// file holding the whole database, which is not converted).
    fn parse(json: &str) -> Result<Manifest, String> {
        let corrupt = |e: serde_json::Error| format!("bitstream manifest is corrupt: {e}");
        let header: ManifestHeader = serde_json::from_str(json).map_err(corrupt)?;
        header.format_version.check("bitstream database")?;
        match serde_json::from_str(json) {
            Ok(manifest) => Ok(manifest),
            Err(_) if BitstreamDatabase::from_json(json).is_ok() => Err(
                "this is a whole-database snapshot, a layout this build does not read; \
                 delete it and the farm recompiles its images on demand"
                    .to_string(),
            ),
            Err(e) => Err(corrupt(e)),
        }
    }
}

/// An image object's id: the FNV-1a of its bytes, as 16 hex digits.
fn object_id(json: &str) -> String {
    let mut h = Fnv1a::default();
    for b in json.bytes() {
        h.byte(b);
    }
    format!("{:016x}", h.finish())
}

/// Reads a persisted file; `None` if it does not exist yet.
fn read_persisted(path: &Path, what: &str) -> Result<Option<String>, RuntimeError> {
    match std::fs::read_to_string(path) {
        Ok(json) => Ok(Some(json)),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
        Err(e) => Err(RuntimeError::InvalidConfig(format!(
            "cannot read persisted {what} {}: {e}",
            path.display()
        ))),
    }
}

/// Writes `contents` to a sibling temp file and renames it over `target`,
/// so a reader (or a crash) never sees a torn file.
fn write_atomic(target: &Path, contents: &str) -> Option<()> {
    let tmp = target.with_extension("tmp");
    std::fs::write(&tmp, contents).ok()?;
    std::fs::rename(&tmp, target).ok()
}

/// A file next to the persistence path: `suffix` appended (not
/// substituted), so `cache.json` pairs with `cache.json.demand` (the
/// demand profile) and `cache.json.objects` (the image objects).
fn beside(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// The demand profile's sidecar file.
fn demand_sidecar(path: &Path) -> PathBuf {
    beside(path, ".demand")
}

/// The directory of image objects, `<id>.json` each.
fn objects_dir(path: &Path) -> PathBuf {
    beside(path, ".objects")
}

impl BuildFarm {
    /// Arms persistence on `path`, loading the manifest, every image it
    /// names and the demand profile's sidecar if they exist. A file that
    /// exists but cannot be read or parsed, and an image the manifest
    /// names that is missing or does not hash to its id, is an
    /// [`RuntimeError::InvalidConfig`] naming the file: a corrupt cache
    /// should be surfaced, not silently rebuilt from scratch. Objects the
    /// manifest does not name (left by a save that crashed before its
    /// manifest landed) and stale temp files are ignored.
    pub(crate) fn arm_persistence(&mut self, path: PathBuf) -> Result<(), RuntimeError> {
        let corrupt = |file: &Path, e: String| {
            RuntimeError::InvalidConfig(format!("persisted {}: {e}", file.display()))
        };
        if let Some(json) = read_persisted(&path, "bitstream manifest")? {
            let manifest = Manifest::parse(&json).map_err(|e| corrupt(&path, e))?;
            let dir = objects_dir(&path);
            for (name, id) in &manifest.objects {
                // The id becomes a file name: nothing but the 16 hex
                // digits a save writes may reach the file system.
                if id.len() != 16 || !id.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(corrupt(&path, format!("{name:?} has no object id: {id:?}")));
                }
                let file = dir.join(format!("{id}.json"));
                let json = read_persisted(&file, "bitstream image")?
                    .ok_or_else(|| corrupt(&file, format!("image of {name:?} is missing")))?;
                if object_id(&json) != *id {
                    return Err(corrupt(&file, "image does not hash to its id".to_string()));
                }
                let image: AppBitstream = serde_json::from_str(&json)
                    .map_err(|e| corrupt(&file, format!("image is corrupt: {e}")))?;
                if image.name() != name {
                    return Err(corrupt(&file, format!("image is not {name:?}")));
                }
                self.db.insert(image)?;
            }
            self.counters
                .persist_loaded
                .store(self.db.len() as u64, Ordering::Relaxed);
            *self.persist_lock.get_mut() = manifest;
        }
        let sidecar = demand_sidecar(&path);
        if let Some(json) = read_persisted(&sidecar, "demand profile")? {
            let snapshot: DemandSnapshot = serde_json::from_str(&json)
                .map_err(|e| corrupt(&sidecar, format!("demand profile is corrupt: {e}")))?;
            snapshot
                .format_version
                .check("demand profile")
                .map_err(|e| corrupt(&sidecar, e))?;
            let apps = self.demand.restore(snapshot);
            self.counters
                .demand_loaded
                .store(apps as u64, Ordering::Relaxed);
        }
        self.persist_path = Some(path);
        Ok(())
    }

    pub(crate) fn db(&self) -> &BitstreamDatabase {
        &self.db
    }

    pub(crate) fn stats(&self) -> FarmStats {
        let waits = |table: &AtomicU64| table.load(Ordering::Relaxed);
        self.counters
            .snapshot(waits(&self.by_digest.waits) + waits(&self.by_name.waits))
    }

    pub(crate) fn set_resolver(&self, resolver: AppResolver) {
        *self.resolver.lock() = Some(Arc::new(resolver));
    }

    /// Best-effort save (a failure bumps `persist_errors`, never fails
    /// the caller): `write` runs under `persist_lock`, so saves never
    /// interleave and a newer file is never overwritten by an older one.
    fn save(&self, saves: &AtomicU64, write: impl FnOnce(&mut Manifest) -> Option<()>) {
        let counter = match write(&mut self.persist_lock.lock()) {
            Some(()) => saves,
            None => &self.counters.persist_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Saves the bitstream database (no-op when persistence is off): an
    /// object for each image the manifest lacks, then the manifest. An
    /// object on disk is never rewritten, so a save writes what changed
    /// plus the small manifest. A crash between the two leaves the old
    /// manifest, which names only objects already on disk.
    fn save_db(&self) {
        if let Some(path) = self.persist_path.as_ref() {
            self.save(&self.counters.persist_saves, |manifest| {
                let dir = objects_dir(path);
                for name in self.db.names() {
                    if manifest.objects.contains_key(&name) {
                        continue;
                    }
                    let json = serde_json::to_string(&self.db.get(&name).ok()?).ok()?;
                    let id = object_id(&json);
                    let object = dir.join(format!("{id}.json"));
                    if !object.exists() {
                        // Only the directory itself: a persistence path in
                        // a missing directory stays a counted error.
                        match std::fs::create_dir(&dir) {
                            Err(e) if e.kind() != ErrorKind::AlreadyExists => return None,
                            _ => write_atomic(&object, &json)?,
                        }
                    }
                    manifest.objects.insert(name, id);
                }
                write_atomic(path, &serde_json::to_string(&*manifest).ok()?)
            });
        }
    }

    /// Saves the demand profile to its sidecar (no-op when persistence is
    /// off), so a restarted daemon ranks speculation by what traffic
    /// asked for in its previous life.
    fn save_demand(&self) {
        if let Some(path) = self.persist_path.as_ref() {
            self.save(&self.counters.demand_saves, |_| {
                let json = serde_json::to_string(&self.demand.snapshot()).ok()?;
                write_atomic(&demand_sidecar(path), &json)
            });
        }
    }

    /// Feeds one deploy or prepare of `app` into the demand profile, so
    /// speculative compiles chase what traffic actually asks for —
    /// including apps that are not registered yet.
    pub(crate) fn record_demand(&self, app: &str) {
        if self.demand.record(app) {
            self.save_demand();
        }
    }

    pub(crate) fn register(&self, bitstream: AppBitstream) -> Result<(), RuntimeError> {
        self.db.insert(bitstream)?;
        self.save_db();
        Ok(())
    }

    /// See [`SystemController::register_compiled`](crate::SystemController::register_compiled).
    pub(crate) fn register_compiled(
        &self,
        compiler: &Compiler,
        spec: &AppSpec,
    ) -> Result<CompileOutcome, RuntimeError> {
        let digest = compiler.digest_of(spec).map_err(RuntimeError::Compile)?;
        // `get_by_digest` is the counted probe; the flight's own probes
        // leave the hit/miss counters alone.
        let (cached, shared) = match self.db.get_by_digest(digest) {
            Some(cached) => (cached, false),
            None => {
                let flown = self.by_digest.run(
                    digest,
                    true,
                    || self.db.contains_digest(digest),
                    || {
                        self.counters.compiles.fetch_add(1, Ordering::Relaxed);
                        let compiled = compiler.compile(spec).map_err(RuntimeError::Compile)?;
                        let timings = compiled.timings().clone();
                        self.db.insert_or_get(compiled.into_bitstream())?;
                        Ok(timings)
                    },
                )?;
                match flown {
                    Flown::Produced { value, waited } => {
                        self.save_db();
                        return Ok(CompileOutcome {
                            digest,
                            cache_hit: false,
                            shared: waited,
                            timings: Some(value),
                        });
                    }
                    Flown::Cached { waited } => {
                        let unregistered = || RuntimeError::UnknownApp(spec.name().to_string());
                        let cached = self.db.get_by_digest(digest).ok_or_else(unregistered)?;
                        (cached, waited)
                    }
                    Flown::Busy => unreachable!("a following run never stands down"),
                }
            }
        };
        self.db.insert_or_get(cached.renamed(spec.name()))?;
        self.save_db();
        Ok(CompileOutcome {
            digest,
            cache_hit: true,
            shared,
            timings: None,
        })
    }

    /// Runs the resolver for `app` and caches what it produced. Counts a
    /// compile only when there is a resolver to run.
    fn resolve(&self, app: &str) -> Result<(), RuntimeError> {
        let resolver = self.resolver.lock().clone();
        let resolver = resolver.ok_or_else(|| RuntimeError::UnknownApp(app.to_string()))?;
        self.counters.compiles.fetch_add(1, Ordering::Relaxed);
        let bitstream = resolver(app)?;
        self.db.insert_or_get(bitstream.renamed(app))?;
        Ok(())
    }

    /// [`ControlRequest::Prepare`](crate::ControlRequest::Prepare): makes
    /// sure `app` is registered, resolving (compiling) it if needed;
    /// `true` if it already was. Prepares of the **same** app dedupe
    /// through the name-keyed flights — the followers report a cache hit
    /// once the leader publishes.
    pub(crate) fn prepare(&self, app: &str, telemetry: &Telemetry) -> Result<bool, RuntimeError> {
        self.record_demand(app);
        let flown = self.by_name.run(
            app.to_string(),
            true,
            || self.db.get(app).is_ok(),
            || {
                let mut span = telemetry.span("runtime.prepare");
                span.field("app", app);
                self.resolve(app)
            },
        )?;
        let produced = matches!(flown, Flown::Produced { .. });
        if produced {
            self.save_db();
        }
        Ok(!produced)
    }

    /// See [`SystemController::speculate_compile`](crate::SystemController::speculate_compile).
    pub(crate) fn speculate(&self, limit: usize, telemetry: &Telemetry) -> Vec<String> {
        let has_resolver = self.resolver.lock().is_some();
        let candidates = if has_resolver {
            self.demand.top(limit, |name| self.db.get(name).is_err())
        } else {
            Vec::new()
        };
        let mut compiled = Vec::new();
        for name in candidates {
            // Speculation shares the prepare path's flights and does not
            // follow: an app a prepare (or another speculation round) is
            // already compiling is skipped, not awaited.
            let flown = self.by_name.run(
                name.clone(),
                false,
                || self.db.get(&name).is_ok(),
                || {
                    let mut span = telemetry.span("runtime.speculate");
                    span.field("app", name.as_str());
                    let resolved = self.resolve(&name);
                    span.field("ok", resolved.is_ok());
                    resolved
                },
            );
            if let Ok(Flown::Produced { .. }) = flown {
                self.counters
                    .speculative_compiles
                    .fetch_add(1, Ordering::Relaxed);
                compiled.push(name);
            }
        }
        if !compiled.is_empty() {
            self.save_db();
        }
        // The speculation tick doubles as the demand profile's checkpoint:
        // even a round that compiled nothing (or a daemon without a
        // resolver) persists the ranking, so a restart never loses more
        // than one tick of demand history.
        self.save_demand();
        compiled
    }

    /// Resolves an app image whose netlist digest must equal `digest`: by
    /// name, by the digest index (re-registering under `app`), or by
    /// recompiling through [`BuildFarm::prepare`].
    pub(crate) fn image_for_digest(
        &self,
        app: &str,
        digest: u64,
        telemetry: &Telemetry,
    ) -> Result<AppBitstream, RuntimeError> {
        let verify = |bs: AppBitstream| {
            if bs.digest().as_u64() == digest {
                Ok(bs)
            } else {
                Err(RuntimeError::InvalidConfig(format!(
                    "app {app:?} resolves to netlist digest {:016x}, capsule expects {digest:016x}",
                    bs.digest().as_u64()
                )))
            }
        };
        if let Ok(bs) = self.db.get(app) {
            return verify(bs);
        }
        if let Some(bs) = self.db.get_by_digest(NetlistDigest::from_raw(digest)) {
            let bs = self.db.insert_or_get(bs.renamed(app))?;
            self.save_db();
            return Ok(bs);
        }
        self.prepare(app, telemetry)?;
        verify(self.db.get(app)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_flight_elects_one_leader() {
        let sf: SingleFlight<u64> = SingleFlight::default();
        let FlightRole::Leader(leader) = sf.join(7) else {
            panic!("first caller must lead");
        };
        let FlightRole::Follower(follower) = sf.join(7) else {
            panic!("second caller must follow");
        };
        leader.publish(Ok(()));
        assert!(matches!(follower.wait(), FlightResult::Done(Ok(()))));
        // The flight retired: the next caller leads a fresh one.
        assert!(matches!(sf.join(7), FlightRole::Leader(_)));
    }

    #[test]
    fn dropped_leader_marks_flight_aborted() {
        let sf: SingleFlight<u64> = SingleFlight::default();
        let FlightRole::Leader(leader) = sf.join(1) else {
            panic!("first caller must lead");
        };
        let FlightRole::Follower(follower) = sf.join(1) else {
            panic!("second caller must follow");
        };
        drop(leader);
        assert!(matches!(follower.wait(), FlightResult::Aborted));
        assert!(matches!(sf.join(1), FlightRole::Leader(_)));
    }

    #[test]
    fn followers_unblock_across_threads() {
        let sf = Arc::new(SingleFlight::<u64>::default());
        let FlightRole::Leader(leader) = sf.join(3) else {
            panic!("first caller must lead");
        };
        let woken = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let woken = Arc::clone(&woken);
                std::thread::spawn(move || {
                    if let FlightRole::Follower(f) = sf.join(3) {
                        f.wait();
                        woken.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Give the followers a moment to block, then publish.
        std::thread::sleep(std::time::Duration::from_millis(10));
        leader.publish(Err(RuntimeError::UnknownApp("x".into())));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(woken.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn demand_profile_ranks_and_decays() {
        let d = DemandProfile::default();
        for _ in 0..5 {
            d.record("hot");
        }
        for _ in 0..2 {
            d.record("warm");
        }
        d.record("cold");
        assert_eq!(d.top(2, |_| true), vec!["hot", "warm"]);
        assert_eq!(d.top(10, |name| name != "hot"), vec!["warm", "cold"]);
        // Push past the decay threshold; "cold" (count 1) halves to zero
        // and drops out, the newly hot app leads.
        for _ in 0..DECAY_EVERY_EVENTS {
            d.record("new-hot");
        }
        let top = d.top(10, |_| true);
        assert_eq!(top.first().map(String::as_str), Some("new-hot"));
        assert!(!top.iter().any(|n| n == "cold"));
    }

    #[test]
    fn demand_snapshot_roundtrips_and_record_signals_persistence() {
        let d = DemandProfile::default();
        let mut signals = 0;
        for i in 0..(2 * DemandProfile::PERSIST_EVERY_RECORDS) {
            if d.record(if i % 2 == 0 { "a" } else { "b" }) {
                signals += 1;
            }
        }
        assert_eq!(signals, 2, "one signal per PERSIST_EVERY_RECORDS calls");
        let snap = d.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: DemandSnapshot = serde_json::from_str(&json).unwrap();
        let restored = DemandProfile::default();
        assert_eq!(restored.restore(back), 2);
        assert_eq!(restored.top(2, |_| true), d.top(2, |_| true));
        assert_eq!(restored.snapshot().events, snap.events);
    }

    #[test]
    fn ties_rank_by_name() {
        let d = DemandProfile::default();
        d.record("b");
        d.record("a");
        assert_eq!(d.top(2, |_| true), vec!["a", "b"]);
    }
}
