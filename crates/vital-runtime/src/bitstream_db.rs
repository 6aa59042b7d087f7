//! The bitstream database: compiled, relocatable application images
//! (paper Fig. 6), doubling as a content-addressed compile cache.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use vital_compiler::{AppBitstream, NetlistDigest};
use vital_interface::FormatVersion;

use crate::RuntimeError;

/// Envelope of [`BitstreamDatabase::to_json`]: the entry map wrapped in
/// a [`FormatVersion`] header, so a reader refuses (instead of
/// misreading) output of an incompatible build (DESIGN.md §17).
#[derive(Serialize, Deserialize)]
struct PersistEnvelope {
    format_version: FormatVersion,
    apps: HashMap<String, AppBitstream>,
}

/// Hit/miss counters of the content-addressed compile cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Digest probes that found an already-compiled image.
    pub hits: u64,
    /// Digest probes that found nothing (a full compile followed).
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of probes served from the cache (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Name and digest indices, kept consistent under one lock.
struct Inner {
    by_name: HashMap<String, AppBitstream>,
    /// Digest → name of a registered bitstream carrying that digest.
    by_digest: HashMap<NetlistDigest, String>,
}

impl Inner {
    /// Re-derives the digest index after deserialization. First name in
    /// sorted order wins, so the index is deterministic.
    fn rebuild_digest_index(&mut self) {
        self.by_digest.clear();
        let mut names: Vec<&String> = self.by_name.keys().collect();
        names.sort();
        for name in names {
            let digest = self.by_name[name].digest();
            self.by_digest.entry(digest).or_insert_with(|| name.clone());
        }
    }
}

/// Thread-safe store of compiled applications, keyed by name.
///
/// Because ViTAL decouples compilation from resource allocation, one entry
/// per application suffices: the same image deploys to *any* set of free
/// physical blocks. (Contrast with AmorphOS's high-throughput mode, which
/// must store an image per application *combination*.)
///
/// Entries are additionally indexed by their [`NetlistDigest`], making the
/// database a compile cache: a digest lookup answers
/// "has this exact netlist + configuration been compiled before?" so the
/// system controller can skip place-and-route entirely on repeat deploys.
pub struct BitstreamDatabase {
    inner: RwLock<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl fmt::Debug for BitstreamDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitstreamDatabase")
            .field("entries", &self.inner.read().by_name.len())
            .field("cache", &self.cache_stats())
            .finish()
    }
}

impl Default for BitstreamDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl BitstreamDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        BitstreamDatabase {
            inner: RwLock::new(Inner {
                by_name: HashMap::new(),
                by_digest: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Registers a compiled application.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::AppExists`] if the name is taken.
    pub fn insert(&self, bitstream: AppBitstream) -> Result<(), RuntimeError> {
        let mut inner = self.inner.write();
        let name = bitstream.name().to_string();
        if inner.by_name.contains_key(&name) {
            return Err(RuntimeError::AppExists(name));
        }
        inner
            .by_digest
            .entry(bitstream.digest())
            .or_insert_with(|| name.clone());
        inner.by_name.insert(name, bitstream);
        Ok(())
    }

    /// Idempotent registration: inserting a bitstream whose name is already
    /// taken by a **byte-identical** image succeeds and returns the stored
    /// entry, so replaying a deploy script is harmless. Only a *conflicting*
    /// image under the same name is an error.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::AppExists`] if the name is taken by a
    /// different image.
    pub(crate) fn insert_or_get(
        &self,
        bitstream: AppBitstream,
    ) -> Result<AppBitstream, RuntimeError> {
        let mut inner = self.inner.write();
        let name = bitstream.name().to_string();
        if let Some(existing) = inner.by_name.get(&name) {
            if *existing == bitstream {
                return Ok(existing.clone());
            }
            return Err(RuntimeError::AppExists(name));
        }
        inner
            .by_digest
            .entry(bitstream.digest())
            .or_insert_with(|| name.clone());
        inner.by_name.insert(name, bitstream.clone());
        Ok(bitstream)
    }

    /// Fetches a clone of an application's image.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownApp`] if not registered.
    pub fn get(&self, name: &str) -> Result<AppBitstream, RuntimeError> {
        self.inner
            .read()
            .by_name
            .get(name)
            .cloned()
            .ok_or_else(|| RuntimeError::UnknownApp(name.to_string()))
    }

    /// Probes the compile cache: a registered image whose compile input had
    /// this digest, whatever name it was registered under. Counts a cache
    /// hit or miss (see [`cache_stats`](Self::cache_stats)).
    pub(crate) fn get_by_digest(&self, digest: NetlistDigest) -> Option<AppBitstream> {
        let inner = self.inner.read();
        let found = inner
            .by_digest
            .get(&digest)
            .and_then(|name| inner.by_name.get(name))
            .cloned();
        match found {
            Some(bs) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(bs)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Digest probe that leaves the hit/miss counters untouched. The
    /// single-flight leader uses this to re-check the cache after winning
    /// the election (a previous leader may have published between the
    /// caller's probe and its join) without double-counting the probe.
    pub(crate) fn contains_digest(&self, digest: NetlistDigest) -> bool {
        self.inner.read().by_digest.contains_key(&digest)
    }

    /// Hit/miss counters accumulated by digest lookups.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Registered application names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().by_name.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered applications.
    pub(crate) fn len(&self) -> usize {
        self.inner.read().by_name.len()
    }

    /// Serializes the whole database to versioned JSON, for inspection or
    /// export. The build farm persists each image on its own instead
    /// (DESIGN.md §14.2) and refuses a file in this layout.
    ///
    /// # Errors
    ///
    /// Returns a [`serde_json::Error`] if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(&PersistEnvelope {
            format_version: FormatVersion::CURRENT,
            apps: self.inner.read().by_name.clone(),
        })
    }

    /// Restores a database from [`BitstreamDatabase::to_json`] output,
    /// checking the envelope's format version first. The digest index is
    /// rebuilt; cache counters start at zero.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on malformed input or a format
    /// version this build does not read; the controller wraps it in
    /// [`RuntimeError::InvalidConfig`].
    pub fn from_json(json: &str) -> Result<Self, String> {
        let envelope: PersistEnvelope = serde_json::from_str(json)
            .map_err(|e| format!("bitstream database is corrupt: {e}"))?;
        envelope.format_version.check("bitstream database")?;
        let mut inner = Inner {
            by_name: envelope.apps,
            by_digest: HashMap::new(),
        };
        inner.rebuild_digest_index();
        Ok(BitstreamDatabase {
            inner: RwLock::new(inner),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_compiler::{Compiler, CompilerConfig};
    use vital_netlist::hls::{AppSpec, Operator};

    fn bitstream_sized(name: &str, pes: u32) -> AppBitstream {
        let mut spec = AppSpec::new(name);
        spec.add_operator("m", Operator::MacArray { pes });
        Compiler::new(CompilerConfig::default())
            .compile(&spec)
            .unwrap()
            .into_bitstream()
    }

    fn bitstream(name: &str) -> AppBitstream {
        bitstream_sized(name, 4)
    }

    #[test]
    fn insert_get_and_refuse_a_taken_name() {
        let db = BitstreamDatabase::new();
        assert_eq!(db.len(), 0);
        db.insert(bitstream("a")).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.get("a").unwrap().name(), "a");
        assert!(matches!(
            db.insert(bitstream("a")),
            Err(RuntimeError::AppExists(_))
        ));
        assert!(matches!(db.get("b"), Err(RuntimeError::UnknownApp(_))));
    }

    #[test]
    fn insert_or_get_is_idempotent_for_identical_images() {
        let db = BitstreamDatabase::new();
        let bs = bitstream("a");
        let stored = db.insert_or_get(bs.clone()).unwrap();
        assert_eq!(stored, bs);
        // Replaying the exact same registration is a no-op, not an error.
        let again = db.insert_or_get(bs.clone()).unwrap();
        assert_eq!(again, bs);
        assert_eq!(db.len(), 1);
        // A *different* image under the same name still conflicts.
        let conflicting = bitstream_sized("a", 16);
        assert!(matches!(
            db.insert_or_get(conflicting),
            Err(RuntimeError::AppExists(_))
        ));
    }

    #[test]
    fn digest_lookup_hits_across_names_and_counts() {
        let db = BitstreamDatabase::new();
        let a = bitstream("a");
        let digest = a.digest();
        assert!(db.get_by_digest(digest).is_none()); // miss on empty
        db.insert(a).unwrap();
        // Same netlist registered under another name shares the digest.
        db.insert(bitstream("b").renamed("b2")).unwrap();
        let hit = db.get_by_digest(digest).expect("digest is registered");
        assert_eq!(hit.digest(), digest);
        let stats = db.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let db = BitstreamDatabase::new();
        db.insert(bitstream("a")).unwrap();
        db.insert(bitstream("b")).unwrap();
        let json = db.to_json().unwrap();
        let back = BitstreamDatabase::from_json(&json).unwrap();
        assert_eq!(back.names(), vec!["a", "b"]);
        assert_eq!(
            back.get("a").unwrap().block_count(),
            db.get("a").unwrap().block_count()
        );
        // The digest index survives the roundtrip.
        let digest = db.get("a").unwrap().digest();
        assert!(back.get_by_digest(digest).is_some());
    }

    #[test]
    fn json_carries_the_format_version() {
        let db = BitstreamDatabase::new();
        db.insert(bitstream("a")).unwrap();
        let json = db.to_json().unwrap();
        assert!(json.contains("\"format_version\":1"));
    }

    #[test]
    fn from_json_refuses_corrupt_and_wrong_version_input() {
        let err = BitstreamDatabase::from_json("{not json").unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        // A future version must be refused, not misread.
        let future = "{\"format_version\":99,\"apps\":{}}";
        let err = BitstreamDatabase::from_json(future).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        // The pre-versioning layout (a bare entry map) has no header and
        // reads as corrupt.
        let err = BitstreamDatabase::from_json("{}").unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
    }
}
