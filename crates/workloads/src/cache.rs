//! The on-disk compiled-workload cache.
//!
//! The `experiments` binary no longer uses this module: it compiles each
//! workload in process, at most once per process and only when one of its
//! sweep points misses the result store, because loading a paper-scale
//! artifact is slower than compiling it. The cache stays only until the
//! pipeline benchmark's traced replay (`perfbench/replay`) moves off it;
//! then it and the artifact codec can go.
//!
//! A [`WorkloadCache`] persists [`CompiledWorkload`] artifacts as JSON under
//! a cache directory so a second request for the same workload performs
//! **zero** compilation:
//!
//! * **Location** — the directory passed to [`WorkloadCache::at`];
//!   [`WorkloadCache::disabled`] never touches disk.
//! * **Key** — the [`workload_key`]: the
//!   workload-generator descriptor (every generator parameter **plus the
//!   generator's emission-logic revision**, see
//!   [`BenchmarkConfig::descriptor`](crate::registry::BenchmarkConfig::descriptor)),
//!   the compiler configuration's canonical encoding,
//!   [`ISA_VERSION`](lsqca_isa::ISA_VERSION), and
//!   [`TRACE_REVISION`](lsqca_isa::TRACE_REVISION). Changing any of them changes the file name, so stale
//!   entries are simply never found again. Result-store keys are built on the
//!   same workload key.
//!
//! # When to bump what
//!
//! The workload key protects against different kinds of staleness; each has
//! its own version knob, and using the wrong one over-invalidates. Result-store
//! keys start with the workload key, so every bump below also re-keys the
//! stored results of the workloads it covers.
//!
//! * **A generator's emission logic changed** (the circuit emitted for an
//!   *unchanged* configuration is different — reordered gates, a fixed
//!   off-by-one, a new decomposition): bump that generator module's
//!   `REVISION` constant (e.g. `lsqca_workloads::select::REVISION`). Only
//!   that generator's artifacts and records are invalidated. A
//!   `Debug`-rendered config alone cannot catch this case — the descriptor
//!   text would be byte-identical before and after the logic change, and no
//!   hash of the compiled program is part of a generator's key.
//! * **The instruction set changed** (new opcode, changed operand meaning,
//!   different latency-class mapping): bump
//!   [`ISA_VERSION`](lsqca_isa::ISA_VERSION) in `lsqca-isa`. Every cached
//!   artifact of every generator is invalidated, because all of them embed
//!   instruction streams in the old dialect.
//! * **The trace changed** (new [`ExecKind`](lsqca_isa::ExecKind),
//!   different flag bits or fixed-beat values, a changed trace text format):
//!   bump [`TRACE_REVISION`](lsqca_isa::TRACE_REVISION) in `lsqca-isa`.
//!   The trace is the only compiled form an artifact stores, and such a
//!   change leaves the instruction set itself unchanged, which is exactly
//!   why `ISA_VERSION` alone cannot catch this case. Every cached artifact
//!   is invalidated and recompiled. An artifact found under an old key path
//!   anyway (hand-copied file) is quarantined by
//!   [`ArtifactError::TraceRevisionMismatch`] at load time and recompiled.
//! * **The artifact document changed shape** (fields added, removed or
//!   re-encoded): bump [`ARTIFACT_SCHEMA`](crate::compiled::ARTIFACT_SCHEMA).
//!   It is not part of the key, so an old file is still found, fails with
//!   [`ArtifactError::SchemaMismatch`] and is recompiled and rewritten. (v1
//!   documents, which also carried program text and a latency-class
//!   vector, take this path.)
//! * **The simulator's result semantics changed** (same artifact, different
//!   numbers): that is `lsqca_sim::RESULTS_REVISION`'s job, keyed by the
//!   *result store* only. Bump it only when a change alters what the
//!   simulator reports for an unchanged workload.
//! * **A generator config field was renamed or added**: nothing to bump —
//!   the `Debug` rendering (and therefore the key) already changed; the old
//!   entries are simply never found again. A compiler config field added to
//!   [`CompilerConfig`] must be added to its `canonical_encoding` (which
//!   fails to compile until it is).
//! * **Integrity** — each artifact stores the key it was compiled for, the ISA
//!   version, and a payload hash. A truncated file, a hand-edited field, a
//!   hash-colliding key, or a version mismatch is detected at load time and
//!   the artifact is transparently recompiled (and rewritten).
//! * **Concurrency & durability** — writes go through
//!   [`lsqca_store::atomic_write`]: a temporary file, an fsync, a `rename`,
//!   and a directory fsync, so concurrent sweep threads never observe a torn
//!   artifact and a crash cannot publish a truncated one.
//! * **Degradation** — all filesystem access goes through the
//!   [`lsqca_store::StoreIo`] trait (swappable for fault injection in tests).
//!   The first filesystem error — an unreadable or unwritable cache directory
//!   — degrades the cache to in-memory compilation for the rest of the
//!   process with a single stderr warning, instead of erroring per entry.

use crate::compiled::{fnv1a64, workload_key, ArtifactError, CompiledWorkload};
use lsqca_circuit::Circuit;
use lsqca_compiler::CompilerConfig;
use lsqca_store::{atomic_write, slug, DiskIo, StoreIo};
use std::fmt;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How a [`WorkloadCache::load_or_compile`] request was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheEvent {
    /// A valid artifact was loaded from disk; no compilation happened.
    Hit,
    /// No artifact existed (or caching is disabled); the workload was compiled.
    Compiled,
    /// An artifact existed but failed validation; it was recompiled.
    Invalidated(InvalidationReason),
}

/// Why a cached artifact was rejected and recompiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidationReason {
    /// The file exists but could not be read. (Filesystem errors now degrade
    /// the whole cache instead of invalidating per entry, so this variant is
    /// kept only for callers matching on historical events.)
    Unreadable(String),
    /// The file is not valid JSON (e.g. truncated mid-write).
    NotJson(String),
    /// The document failed artifact validation (schema, ISA version, payload
    /// hash, malformed field).
    Artifact(ArtifactError),
    /// The artifact was compiled for a different cache key (hash collision or
    /// a renamed/copied file).
    KeyMismatch {
        /// The key recorded in the artifact.
        stored: String,
    },
}

impl fmt::Display for InvalidationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidationReason::Unreadable(e) => write!(f, "unreadable: {e}"),
            InvalidationReason::NotJson(e) => write!(f, "not valid JSON: {e}"),
            InvalidationReason::Artifact(e) => write!(f, "{e}"),
            InvalidationReason::KeyMismatch { stored } => {
                write!(f, "artifact belongs to key `{stored}`")
            }
        }
    }
}

/// Counters of one cache instance (monotonic over its lifetime).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from disk without compiling.
    pub hits: u64,
    /// Requests that compiled because no artifact existed (or disk is off).
    pub compiled: u64,
    /// Requests that recompiled because a cached artifact failed validation.
    pub invalidated: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} compiled, {} hits, {} invalidated",
            self.compiled, self.hits, self.invalidated
        )
    }
}

/// An on-disk cache of [`CompiledWorkload`] artifacts.
#[derive(Debug)]
pub struct WorkloadCache {
    io: Arc<dyn StoreIo>,
    /// `None` when caching is disabled: every request compiles.
    dir: Option<PathBuf>,
    /// Set after the first filesystem error: the cache stops touching disk
    /// and compiles in memory for the rest of the process.
    degraded: AtomicBool,
    hits: AtomicU64,
    compiled: AtomicU64,
    invalidated: AtomicU64,
}

impl WorkloadCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self::with_io(Some(dir.into()), Arc::new(DiskIo))
    }

    /// A cache that never touches disk; every request compiles.
    pub fn disabled() -> Self {
        Self::with_io(None, Arc::new(DiskIo))
    }

    /// A cache over an explicit [`StoreIo`] backend — the fault-injection
    /// entry point.
    pub fn with_io(dir: Option<PathBuf>, io: Arc<dyn StoreIo>) -> Self {
        WorkloadCache {
            io,
            dir,
            degraded: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            compiled: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// The directory artifacts are stored in; `None` when disabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Whether the cache has degraded to in-memory compilation after a
    /// filesystem error.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// This instance's hit/compile/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            compiled: self.compiled.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
        }
    }

    /// The on-disk path the artifact for `(descriptor, config)` lives at.
    /// Returns `None` when caching is disabled.
    pub fn path_for(&self, descriptor: &str, config: &CompilerConfig) -> Option<PathBuf> {
        let key = workload_key(descriptor, config);
        self.dir.as_ref().map(|d| {
            d.join(format!(
                "{}-{:016x}.json",
                slug(descriptor),
                fnv1a64(key.as_bytes())
            ))
        })
    }

    /// Loads the artifact for `(descriptor, config)`, or compiles it by
    /// generating the circuit with `build` and stores the result. Returns the
    /// artifact and how it was obtained.
    pub fn load_or_compile(
        &self,
        descriptor: &str,
        config: CompilerConfig,
        build: impl FnOnce() -> Circuit,
    ) -> (CompiledWorkload, CacheEvent) {
        let key = workload_key(descriptor, &config);
        let path = if self.is_degraded() {
            None
        } else {
            self.path_for(descriptor, &config)
        };
        let Some(path) = path else {
            self.compiled.fetch_add(1, Ordering::Relaxed);
            let _span = lsqca_telemetry::span("workload.compile");
            return (
                CompiledWorkload::compile(key, &build(), config),
                CacheEvent::Compiled,
            );
        };
        let miss = {
            let _span = lsqca_telemetry::span("workload.cache_load");
            match load_artifact(self.io.as_ref(), &path, &key) {
                Ok(artifact) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (artifact, CacheEvent::Hit);
                }
                Err(miss) => miss,
            }
        };
        let compile_span = lsqca_telemetry::span("workload.compile");
        let artifact = CompiledWorkload::compile(key, &build(), config);
        drop(compile_span);
        if let Miss::Io(err) = &miss {
            // An unreadable cache (not just a missing or corrupt entry) means
            // the directory itself is unhealthy: degrade once instead of
            // warning on every entry.
            self.degrade("read", err);
        } else if let Err(err) = store_artifact(self.io.as_ref(), &path, &artifact) {
            self.degrade("write", &err);
        }
        let event = match miss {
            Miss::Absent | Miss::Io(_) => {
                self.compiled.fetch_add(1, Ordering::Relaxed);
                CacheEvent::Compiled
            }
            Miss::Invalid(reason) => {
                self.invalidated.fetch_add(1, Ordering::Relaxed);
                CacheEvent::Invalidated(reason)
            }
        };
        (artifact, event)
    }

    /// Deletes every artifact in the cache directory. A missing directory is
    /// not an error.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than the directory not existing.
    pub fn clear(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        match self.io.list_dir(dir) {
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
            Ok(entries) => {
                for path in entries {
                    if path.extension().is_some_and(|ext| ext == "json") {
                        self.io.remove_file(&path)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Flip to in-memory compilation, warning exactly once.
    fn degrade(&self, what: &str, err: &io::Error) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            let dir = self
                .dir
                .as_deref()
                .map(|d| d.display().to_string())
                .unwrap_or_default();
            eprintln!(
                "warning: workload cache: {what} failed in {dir} ({err}); \
                 compiling in memory for the rest of this run"
            );
        }
    }
}

enum Miss {
    Absent,
    /// The filesystem failed (permissions, I/O error) — distinct from a
    /// present-but-invalid entry, this degrades the whole cache.
    Io(io::Error),
    Invalid(InvalidationReason),
}

fn load_artifact(io: &dyn StoreIo, path: &Path, key: &str) -> Result<CompiledWorkload, Miss> {
    let text = match io.read(path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => return Err(Miss::Absent),
        Err(e) => return Err(Miss::Io(e)),
    };
    let doc = lsqca_json::parse(&text)
        .map_err(|e| Miss::Invalid(InvalidationReason::NotJson(e.to_string())))?;
    let artifact = CompiledWorkload::from_json(&doc)
        .map_err(|e| Miss::Invalid(InvalidationReason::Artifact(e)))?;
    if artifact.descriptor() != key {
        return Err(Miss::Invalid(InvalidationReason::KeyMismatch {
            stored: artifact.descriptor().to_string(),
        }));
    }
    Ok(artifact)
}

fn store_artifact(io: &dyn StoreIo, path: &Path, artifact: &CompiledWorkload) -> io::Result<()> {
    atomic_write(io, path, artifact.to_json().pretty().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::thread_compile_count;
    use crate::registry::{Benchmark, InstanceSize};
    use lsqca_isa::{ISA_VERSION, TRACE_REVISION};
    use lsqca_store::{FaultyIo, TempDir};
    use std::fs;

    /// A cache in a fresh directory, which the returned guard removes.
    fn temp_cache(tag: &str) -> (TempDir, WorkloadCache) {
        let dir = TempDir::new(&format!("cache-test-{tag}"));
        let cache = WorkloadCache::at(dir.path());
        (dir, cache)
    }

    fn ghz() -> (String, impl Fn() -> Circuit) {
        let cfg = Benchmark::Ghz.config(InstanceSize::Reduced);
        (cfg.descriptor(), move || cfg.build())
    }

    #[test]
    fn second_request_is_a_hit_with_zero_compilation() {
        let (_dir, cache) = temp_cache("hit");
        let (desc, build) = ghz();
        let config = CompilerConfig::default();

        let (first, event) = cache.load_or_compile(&desc, config, &build);
        assert_eq!(event, CacheEvent::Compiled);

        let before = thread_compile_count();
        let (second, event) = cache.load_or_compile(&desc, config, &build);
        assert_eq!(event, CacheEvent::Hit);
        assert_eq!(
            thread_compile_count(),
            before,
            "a cache hit must not compile"
        );
        assert_eq!(first, second);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                compiled: 1,
                invalidated: 0
            }
        );
    }

    #[test]
    fn mutated_generator_config_changes_the_key() {
        let (_dir, cache) = temp_cache("config-key");
        let a = Benchmark::Ghz.config(InstanceSize::Reduced);
        let b = Benchmark::Ghz.config(InstanceSize::Paper);
        assert_ne!(a.descriptor(), b.descriptor());
        assert_ne!(
            cache.path_for(&a.descriptor(), &CompilerConfig::default()),
            cache.path_for(&b.descriptor(), &CompilerConfig::default()),
        );
        let (_, event) =
            cache.load_or_compile(&a.descriptor(), CompilerConfig::default(), || a.build());
        assert_eq!(event, CacheEvent::Compiled);
        // The paper-sized GHZ is cheap enough to build here; its mutated
        // config must not be served the reduced artifact.
        let (w, event) =
            cache.load_or_compile(&b.descriptor(), CompilerConfig::default(), || b.build());
        assert_eq!(event, CacheEvent::Compiled);
        assert_eq!(w.num_qubits(), 127);
    }

    #[test]
    fn compiler_config_participates_in_the_key() {
        let (_dir, cache) = temp_cache("compiler-key");
        let (desc, build) = ghz();
        let in_memory = CompilerConfig::default();
        let load_store = CompilerConfig {
            use_in_memory_ops: false,
        };
        cache.load_or_compile(&desc, in_memory, &build);
        let (w, event) = cache.load_or_compile(&desc, load_store, &build);
        assert_eq!(event, CacheEvent::Compiled);
        assert!(w
            .trace()
            .ops()
            .iter()
            .any(|&op| lsqca_isa::OpInfo::of(op).exec == lsqca_isa::ExecKind::Load));
        // Both artifacts now hit independently.
        assert_eq!(
            cache.load_or_compile(&desc, in_memory, &build).1,
            CacheEvent::Hit
        );
        assert_eq!(
            cache.load_or_compile(&desc, load_store, &build).1,
            CacheEvent::Hit
        );
    }

    #[test]
    fn truncated_artifact_is_recompiled_not_served() {
        let (_dir, cache) = temp_cache("truncated");
        let (desc, build) = ghz();
        let config = CompilerConfig::default();
        let (original, _) = cache.load_or_compile(&desc, config, &build);

        let path = cache.path_for(&desc, &config).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();

        let (recompiled, event) = cache.load_or_compile(&desc, config, &build);
        assert!(
            matches!(
                event,
                CacheEvent::Invalidated(InvalidationReason::NotJson(_))
            ),
            "unexpected event {event:?}"
        );
        assert_eq!(recompiled, original);
        // The rewrite repaired the entry.
        assert_eq!(
            cache.load_or_compile(&desc, config, &build).1,
            CacheEvent::Hit
        );
        assert_eq!(cache.stats().invalidated, 1);
    }

    #[test]
    fn bumped_isa_version_is_recompiled_not_served() {
        let (_dir, cache) = temp_cache("isa-version");
        let (desc, build) = ghz();
        let config = CompilerConfig::default();
        cache.load_or_compile(&desc, config, &build);

        let path = cache.path_for(&desc, &config).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(
            &path,
            text.replace(
                &format!("\"isa_version\": {ISA_VERSION}"),
                "\"isa_version\": 999",
            ),
        )
        .unwrap();

        let (_, event) = cache.load_or_compile(&desc, config, &build);
        assert!(
            matches!(
                event,
                CacheEvent::Invalidated(InvalidationReason::Artifact(
                    ArtifactError::IsaVersionMismatch { found: 999, .. }
                ))
            ),
            "unexpected event {event:?}"
        );
    }

    #[test]
    fn bumped_trace_revision_is_quarantined_and_recompiled() {
        let (_dir, cache) = temp_cache("trace-revision");
        let (desc, build) = ghz();
        let config = CompilerConfig::default();
        cache.load_or_compile(&desc, config, &build);

        // Simulate an artifact written by a different trace revision landing
        // at this key's path (the key normally shifts with the revision, so
        // this is the hand-copied-file case).
        let path = cache.path_for(&desc, &config).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(
            &path,
            text.replace(
                &format!("\"trace_revision\": {TRACE_REVISION}"),
                "\"trace_revision\": 777",
            ),
        )
        .unwrap();

        let (w, event) = cache.load_or_compile(&desc, config, &build);
        assert!(
            matches!(
                &event,
                CacheEvent::Invalidated(InvalidationReason::Artifact(
                    ArtifactError::TraceRevisionMismatch { found: 777, .. }
                ))
            ),
            "unexpected event {event:?}"
        );
        assert_eq!(
            w.trace(),
            CompiledWorkload::compile(desc.as_str(), &build(), config).trace(),
            "recompiled on reject"
        );
        // The quarantined entry was rewritten at the current revision.
        assert_eq!(
            cache.load_or_compile(&desc, config, &build).1,
            CacheEvent::Hit
        );
    }

    #[test]
    fn corrupted_payload_is_recompiled_not_served() {
        let (_dir, cache) = temp_cache("payload");
        let (desc, build) = ghz();
        let config = CompilerConfig::default();
        cache.load_or_compile(&desc, config, &build);

        let path = cache.path_for(&desc, &config).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        // Swap one instruction for another (trace opcode `e`, HD.M, for
        // `f`, PH.M): valid JSON, valid trace text, wrong content — only the
        // payload hash catches it.
        assert!(text.contains(";e."));
        fs::write(&path, text.replacen(";e.", ";f.", 1)).unwrap();

        let (_, event) = cache.load_or_compile(&desc, config, &build);
        assert!(
            matches!(
                event,
                CacheEvent::Invalidated(InvalidationReason::Artifact(
                    ArtifactError::PayloadHashMismatch { .. }
                ))
            ),
            "unexpected event {event:?}"
        );
    }

    #[test]
    fn foreign_artifact_at_the_key_path_is_rejected() {
        let (_dir, cache) = temp_cache("key-mismatch");
        let (desc, build) = ghz();
        let config = CompilerConfig::default();
        cache.load_or_compile(&desc, config, &build);

        let other = Benchmark::Cat.config(InstanceSize::Reduced);
        let from = cache.path_for(&desc, &config).unwrap();
        let to = cache.path_for(&other.descriptor(), &config).unwrap();
        fs::create_dir_all(to.parent().unwrap()).unwrap();
        fs::copy(&from, &to).unwrap();

        let (w, event) = cache.load_or_compile(&other.descriptor(), config, || other.build());
        assert!(
            matches!(
                event,
                CacheEvent::Invalidated(InvalidationReason::KeyMismatch { .. })
            ),
            "unexpected event {event:?}"
        );
        assert_eq!(w.num_qubits(), 32, "the cat workload must be recompiled");
    }

    #[test]
    fn disabled_cache_always_compiles() {
        let cache = WorkloadCache::disabled();
        let (desc, build) = ghz();
        assert!(cache.dir().is_none());
        assert!(cache.path_for(&desc, &CompilerConfig::default()).is_none());
        for _ in 0..2 {
            let (_, event) = cache.load_or_compile(&desc, CompilerConfig::default(), &build);
            assert_eq!(event, CacheEvent::Compiled);
        }
        assert_eq!(cache.stats().compiled, 2);
    }

    #[test]
    fn clear_removes_entries() {
        let (_dir, cache) = temp_cache("clear");
        let (desc, build) = ghz();
        let config = CompilerConfig::default();
        cache.load_or_compile(&desc, config, &build);
        assert!(cache.path_for(&desc, &config).unwrap().exists());
        cache.clear().unwrap();
        assert!(!cache.path_for(&desc, &config).unwrap().exists());
        // Clearing a never-created cache directory is fine too.
        temp_cache("clear-missing").1.clear().unwrap();
    }

    #[test]
    fn slugs_are_filesystem_friendly() {
        assert_eq!(
            slug("Ghz(GhzConfig { qubits: 16 })"),
            "ghz-ghzconfig---qubits--16"
        );
        assert_eq!(slug(""), "workload");
        assert!(slug(&"x".repeat(100)).len() <= 48);
    }

    #[test]
    fn unwritable_cache_degrades_once_and_still_compiles() {
        let cache = WorkloadCache::with_io(
            Some(PathBuf::from("/cache")),
            Arc::new(FaultyIo::unwritable()),
        );
        let (desc, build) = ghz();
        for _ in 0..3 {
            let (_, event) = cache.load_or_compile(&desc, CompilerConfig::default(), &build);
            assert_eq!(event, CacheEvent::Compiled);
        }
        assert!(cache.is_degraded());
        assert_eq!(cache.stats().compiled, 3);
        assert_eq!(cache.stats().invalidated, 0, "no per-entry errors");
    }

    #[test]
    fn stored_artifacts_survive_a_crash() {
        // The fsync-before-rename contract: an artifact served as a hit after
        // a simulated power cut must be the complete one.
        let io = Arc::new(FaultyIo::reliable());
        let cache = WorkloadCache::with_io(Some(PathBuf::from("/cache")), io.clone());
        let (desc, build) = ghz();
        let (first, event) = cache.load_or_compile(&desc, CompilerConfig::default(), &build);
        assert_eq!(event, CacheEvent::Compiled);
        io.crash();

        let fresh = WorkloadCache::with_io(Some(PathBuf::from("/cache")), io);
        let before = thread_compile_count();
        let (second, event) = fresh.load_or_compile(&desc, CompilerConfig::default(), &build);
        assert_eq!(event, CacheEvent::Hit);
        assert_eq!(thread_compile_count(), before);
        assert_eq!(first, second);
    }

    #[test]
    fn events_and_stats_render() {
        assert!(InvalidationReason::Unreadable("denied".into())
            .to_string()
            .contains("denied"));
        assert!(InvalidationReason::KeyMismatch { stored: "k".into() }
            .to_string()
            .contains("k"));
        let stats = CacheStats {
            hits: 2,
            compiled: 1,
            invalidated: 0,
        };
        assert_eq!(stats.to_string(), "1 compiled, 2 hits, 0 invalidated");
    }
}
