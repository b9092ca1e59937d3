//! Content-addressed result store for sweep points.
//!
//! # Record contract
//!
//! One record file per result key, named `<slug>-<fnv64>.json`. The document
//! carries the full key, the JSON payload, and an FNV-1a checksum over
//! `key + "\n" + compact(payload)`; a record is served only if the schema tag,
//! the key, and the checksum all verify. Anything else — truncated JSON from a
//! torn write, a hand-edited payload, a hash-collision record for another key
//! — is quarantined (renamed to `*.quarantined`), reported once on stderr, and
//! recomputed.
//!
//! # Durability contract
//!
//! Records are published with [`atomic_write`] (tmp + fsync + rename + dir
//! fsync) and each publication is journaled (see
//! [`ShardJournal`](crate::journal::ShardJournal)), so a SIGKILL at any point
//! loses at most the in-flight point: a resumed run replays every surviving
//! record as a hit and recomputes only what never became durable, which makes
//! the merged report byte-identical to an uninterrupted run's.
//!
//! An unwritable or failing store directory never aborts a sweep: after the
//! first filesystem error the store degrades to a process-local in-memory map
//! with a single stderr warning.

use crate::hash::{fnv1a64, slug};
use crate::io::{atomic_write, DiskIo, StoreIo};
use crate::journal::{JournalEntry, ShardJournal};
use crate::merge::{merge_audit, MergeError, MergeReport};
use crate::shard::{validate_shard_label, ShardLabelError};
use lsqca_json::Json;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Schema tag every result record carries.
pub const RESULT_SCHEMA: &str = "lsqca-result-v1";

/// How a [`ResultStore::load_or_compute`] request was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreEvent {
    /// A verified record was served; no computation happened.
    Hit,
    /// No record existed (or the store is disabled/degraded); computed.
    Computed,
    /// A record existed but failed verification; it was quarantined and the
    /// point recomputed.
    Quarantined(QuarantineReason),
}

/// What [`ResultStore::lookup`] found for a key.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A verified record's payload; nothing needs computing.
    Hit(Json),
    /// No servable record: the point must be computed, and its payload handed
    /// to [`ResultStore::store_computed`] with this event
    /// ([`StoreEvent::Computed`] or [`StoreEvent::Quarantined`]).
    Miss(StoreEvent),
}

/// Why a stored record was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The file is not valid JSON (e.g. truncated by a torn write).
    NotJson(String),
    /// The document is JSON but not a result record of the expected schema.
    Schema(String),
    /// The record's checksum does not match its content (bit rot, hand edit).
    Checksum {
        /// Checksum stored in the record.
        stored: String,
        /// Checksum recomputed from the record's key and payload.
        actual: String,
    },
    /// The record belongs to a different key (hash collision or copied file).
    KeyMismatch {
        /// The key recorded in the file.
        stored: String,
    },
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::NotJson(e) => write!(f, "not valid JSON: {e}"),
            QuarantineReason::Schema(e) => write!(f, "not a result record: {e}"),
            QuarantineReason::Checksum { stored, actual } => {
                write!(f, "checksum mismatch: stored {stored}, computed {actual}")
            }
            QuarantineReason::KeyMismatch { stored } => {
                write!(f, "record belongs to key `{stored}`")
            }
        }
    }
}

/// Counters of one store instance (monotonic over its lifetime).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Points computed because no verified record existed.
    pub computed: u64,
    /// Points served from a verified record (disk or in-process memory).
    pub hits: u64,
    /// Records that failed verification and were quarantined.
    pub quarantined: u64,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} computed, {} hits, {} quarantined",
            self.computed, self.hits, self.quarantined
        )
    }
}

/// What a resume verification pass found in the journals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResumeReport {
    /// Journal entries across all shards (after deduplication).
    pub journaled: usize,
    /// Entries whose record verified against its journaled checksum.
    pub verified: usize,
    /// Entries whose record file no longer exists.
    pub missing: usize,
    /// Entries whose record existed but failed verification (quarantined).
    pub quarantined: usize,
    /// Torn journal lines tolerated (at most one per killed shard).
    pub torn_lines: usize,
}

impl fmt::Display for ResumeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} journaled, {} verified, {} missing, {} quarantined, {} torn lines",
            self.journaled, self.verified, self.missing, self.quarantined, self.torn_lines
        )
    }
}

/// A crash-safe, content-addressed store of JSON result payloads.
#[derive(Debug)]
pub struct ResultStore {
    io: Arc<dyn StoreIo>,
    /// `None` when persistence is disabled: every request computes (but the
    /// in-process memo still serves repeats).
    dir: Option<PathBuf>,
    shard: String,
    /// In-process memo and the fallback medium once the store degrades.
    memory: Mutex<HashMap<String, Json>>,
    degraded: AtomicBool,
    computed: AtomicU64,
    hits: AtomicU64,
    quarantined: AtomicU64,
}

impl ResultStore {
    /// A store rooted at `dir` on the real filesystem.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self::with_io(Some(dir.into()), Arc::new(DiskIo))
    }

    /// A store that never persists and never memoizes: every request computes.
    /// This is the `--no-store` escape hatch, and what benchmarks run under so
    /// repeated timed sweeps really re-simulate (unlike a *degraded* store,
    /// which keeps memoizing in memory after losing its directory).
    pub fn disabled() -> Self {
        Self::with_io(None, Arc::new(DiskIo))
    }

    /// A store over an explicit [`StoreIo`] backend — the fault-injection
    /// entry point.
    pub fn with_io(dir: Option<PathBuf>, io: Arc<dyn StoreIo>) -> Self {
        ResultStore {
            io,
            dir,
            shard: env_shard_label(),
            memory: Mutex::new(HashMap::new()),
            degraded: AtomicBool::new(false),
            computed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The store the environment selects: `$LSQCA_STORE_DIR` if set, disabled
    /// if `$LSQCA_NO_STORE` is set to anything but `0`/empty, otherwise
    /// `lsqca-store/` inside the build's `target/` directory.
    pub fn from_env() -> Self {
        if let Ok(no_store) = std::env::var("LSQCA_NO_STORE") {
            if !no_store.is_empty() && no_store != "0" {
                return ResultStore::disabled();
            }
        }
        if let Ok(dir) = std::env::var("LSQCA_STORE_DIR") {
            if !dir.is_empty() {
                return ResultStore::at(dir);
            }
        }
        ResultStore::at(default_store_dir())
    }

    /// The directory records are stored in; `None` when disabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The shard label this store journals publications under.
    pub fn shard_label(&self) -> &str {
        &self.shard
    }

    /// Override the shard label (validated) — used by the supervisor and the
    /// merge path, which must not journal under a worker's label.
    ///
    /// # Errors
    ///
    /// [`ShardLabelError`] when `label` violates the `[A-Za-z0-9_-]{1,64}`
    /// contract; the current label is kept.
    pub fn set_shard_label(&mut self, label: &str) -> Result<(), ShardLabelError> {
        validate_shard_label(label)?;
        self.shard = label.to_string();
        Ok(())
    }

    /// Whether the store has degraded to in-memory operation after a
    /// filesystem error.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// This instance's computed/hit/quarantine counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            computed: self.computed.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// The on-disk path the record for `key` lives at. `None` when disabled.
    pub fn path_for(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| {
            d.join(format!(
                "{}-{:016x}.json",
                slug(key),
                fnv1a64(key.as_bytes())
            ))
        })
    }

    /// Serve the payload for `key` from a verified record, or compute it with
    /// `compute` and publish it durably. Returns the payload and how it was
    /// obtained.
    ///
    /// The payload returned on the computed path is the same value later hits
    /// will see (the compute result itself), so mixed hit/computed sweeps are
    /// value-identical to all-computed ones.
    pub fn load_or_compute(&self, key: &str, compute: impl FnOnce() -> Json) -> (Json, StoreEvent) {
        match self.lookup(key) {
            Lookup::Hit(payload) => (payload, StoreEvent::Hit),
            Lookup::Miss(event) => {
                let payload = compute();
                self.store_computed(key, &payload, &event);
                (payload, event)
            }
        }
    }

    /// The first half of [`ResultStore::load_or_compute`], for callers that
    /// compute several missing keys at once: serve a verified record, or
    /// report the miss. A record that fails verification is quarantined and
    /// reported as a [`StoreEvent::Quarantined`] miss. Hand every miss's
    /// computed payload to [`ResultStore::store_computed`] with its event.
    pub fn lookup(&self, key: &str) -> Lookup {
        // A disabled store (no directory) computes every time; memoization is
        // reserved for real stores, where it backs the degraded-mode fallback.
        if self.dir.is_some() {
            if let Some(payload) = self.memory.lock().unwrap().get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Hit(payload.clone());
            }
        }
        let mut event = StoreEvent::Computed;
        if let Some(path) = self.usable_path(key) {
            match load_record(self.io.as_ref(), &path, key) {
                Ok(payload) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.memory
                        .lock()
                        .unwrap()
                        .insert(key.to_string(), payload.clone());
                    return Lookup::Hit(payload);
                }
                Err(Miss::Absent) => {}
                Err(Miss::Io(err)) => self.degrade("read", &err),
                Err(Miss::Corrupt(reason)) => {
                    self.quarantine(&path, &reason);
                    event = StoreEvent::Quarantined(reason);
                }
            }
        }
        Lookup::Miss(event)
    }

    /// The second half of [`ResultStore::load_or_compute`]: counts the
    /// computation under the `event` [`ResultStore::lookup`] reported for
    /// `key`, then publishes `payload` durably and memoizes it.
    pub fn store_computed(&self, key: &str, payload: &Json, event: &StoreEvent) {
        match event {
            StoreEvent::Quarantined(_) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.computed.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(path) = self.usable_path(key) {
            if let Err(err) = self.publish(&path, key, payload) {
                self.degrade("write", &err);
            }
        }
        if self.dir.is_some() {
            self.memory
                .lock()
                .unwrap()
                .insert(key.to_string(), payload.clone());
        }
    }

    /// Serve the payload for `key` only if a verified record already exists
    /// (in memory or on disk); never computes, never publishes.
    ///
    /// This is how a process renders sweep points *owned by other shards*: a
    /// record published by any shard is served, an absent record stays absent
    /// (the caller substitutes a placeholder). A corrupt record is
    /// quarantined as usual so the owning shard recomputes it.
    pub fn probe(&self, key: &str) -> Option<Json> {
        if self.dir.is_some() {
            if let Some(payload) = self.memory.lock().unwrap().get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(payload.clone());
            }
        }
        let path = self.usable_path(key)?;
        match load_record(self.io.as_ref(), &path, key) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.memory
                    .lock()
                    .unwrap()
                    .insert(key.to_string(), payload.clone());
                Some(payload)
            }
            Err(Miss::Absent) => None,
            Err(Miss::Io(err)) => {
                self.degrade("read", &err);
                None
            }
            Err(Miss::Corrupt(reason)) => {
                self.quarantine(&path, &reason);
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Audit all shard journals in this store's directory for a merge — see
    /// [`merge_audit`](crate::merge_audit). A disabled store merges trivially.
    ///
    /// # Errors
    ///
    /// Propagates [`MergeError`] from the underlying audit.
    pub fn merge_audit(&self) -> Result<MergeReport, MergeError> {
        match self.dir.as_deref() {
            Some(dir) => merge_audit(self.io.as_ref(), dir),
            None => Ok(MergeReport::default()),
        }
    }

    /// Cross-check every journaled record against its on-disk checksum; call
    /// before resuming an interrupted sweep. Corrupt records are quarantined
    /// so the resumed run recomputes them.
    pub fn verify_resume(&self) -> ResumeReport {
        let mut report = ResumeReport::default();
        let Some(dir) = self.usable_dir() else {
            return report;
        };
        let journal_files: Vec<PathBuf> = match self.io.list_dir(dir) {
            Ok(entries) => entries
                .into_iter()
                .filter(|p| ShardJournal::is_journal_file(p))
                .collect(),
            Err(_) => return report,
        };
        let mut seen = std::collections::BTreeMap::new();
        for journal in journal_files {
            let Ok(text) = self.io.read(&journal) else {
                continue;
            };
            let load = ShardJournal::parse(&text);
            report.torn_lines += load.torn_lines;
            for entry in load.entries {
                seen.insert(entry.file.clone(), entry);
            }
        }
        report.journaled = seen.len();
        for entry in seen.values() {
            let path = dir.join(&entry.file);
            match verify_record(self.io.as_ref(), &path, &entry.checksum) {
                Ok(()) => report.verified += 1,
                Err(Miss::Absent) | Err(Miss::Io(_)) => report.missing += 1,
                Err(Miss::Corrupt(reason)) => {
                    self.quarantine(&path, &reason);
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    report.quarantined += 1;
                }
            }
        }
        report
    }

    fn usable_dir(&self) -> Option<&Path> {
        if self.degraded.load(Ordering::Relaxed) {
            None
        } else {
            self.dir.as_deref()
        }
    }

    fn usable_path(&self, key: &str) -> Option<PathBuf> {
        self.usable_dir()?;
        self.path_for(key)
    }

    /// Publish a record durably and journal the publication.
    fn publish(&self, path: &Path, key: &str, payload: &Json) -> io::Result<()> {
        let _span = lsqca_telemetry::span("store.publish");
        let record = encode_record(key, payload);
        atomic_write(self.io.as_ref(), path, record.text.as_bytes())?;
        let dir = path.parent().expect("record paths have a parent directory");
        let file = path
            .file_name()
            .expect("record paths have a file name")
            .to_string_lossy()
            .into_owned();
        ShardJournal::new(self.io.clone(), dir, &self.shard).append(&JournalEntry {
            checksum: record.checksum,
            file,
        })
    }

    /// Flip to in-memory operation, warning exactly once.
    fn degrade(&self, what: &str, err: &io::Error) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            let dir = self
                .dir
                .as_deref()
                .map(|d| d.display().to_string())
                .unwrap_or_default();
            eprintln!(
                "warning: result store: {what} failed in {dir} ({err}); \
                 degrading to in-memory results for the rest of this run"
            );
        }
    }

    /// Move a corrupt record out of the addressable namespace, best-effort.
    fn quarantine(&self, path: &Path, reason: &QuarantineReason) {
        eprintln!(
            "warning: result store: quarantined {}: {reason}",
            path.display()
        );
        let target = path.with_extension("json.quarantined");
        if self.io.rename(path, &target).is_err() {
            // Removal is the fallback so the recomputed record can publish.
            let _ = self.io.remove_file(path);
        }
    }
}

/// The default store location: `lsqca-store/` inside the `target/` directory
/// the running executable was built into, next to the workload cache, so
/// binaries, tests, and benches all share one store per checkout. Falls back
/// to `./target/lsqca-store` when no ancestor directory is named `target`.
pub fn default_store_dir() -> PathBuf {
    if let Ok(exe) = std::env::current_exe() {
        for ancestor in exe.ancestors().skip(1) {
            if ancestor.file_name().is_some_and(|n| n == "target") {
                return ancestor.join("lsqca-store");
            }
        }
    }
    PathBuf::from("target").join("lsqca-store")
}

struct EncodedRecord {
    text: String,
    checksum: String,
}

/// Render the record document for `(key, payload)`.
fn encode_record(key: &str, payload: &Json) -> EncodedRecord {
    let checksum = format!("{:016x}", record_checksum(key, payload));
    let doc = Json::obj([
        ("schema", Json::Str(RESULT_SCHEMA.to_string())),
        ("key", Json::Str(key.to_string())),
        ("checksum", Json::Str(checksum.clone())),
        ("payload", payload.clone()),
    ]);
    EncodedRecord {
        text: doc.pretty(),
        checksum,
    }
}

/// The integrity checksum: FNV-1a over the key and the compact payload
/// rendering. The pretty/compact printers are deterministic and parsing
/// round-trips, so the loader can recompute this from the parsed document.
fn record_checksum(key: &str, payload: &Json) -> u64 {
    let mut hash = crate::hash::Fnv1a::new();
    hash.update(key.as_bytes());
    hash.update(b"\n");
    hash.update(payload.compact().as_bytes());
    hash.finish()
}

/// The shard label the environment selects, falling back to `0` (with a
/// warning) when `LSQCA_SHARD` is set to something that could escape the
/// store directory once interpolated into a journal filename.
fn env_shard_label() -> String {
    let label = std::env::var("LSQCA_SHARD").unwrap_or_else(|_| "0".to_string());
    match validate_shard_label(&label) {
        Ok(()) => label,
        Err(err) => {
            eprintln!("warning: result store: ignoring LSQCA_SHARD: {err}; using shard label `0`");
            "0".to_string()
        }
    }
}

pub(crate) enum Miss {
    Absent,
    Io(io::Error),
    Corrupt(QuarantineReason),
}

/// Parse and verify a record document, returning its key, payload, and
/// stored checksum.
fn decode_record(text: &str) -> Result<(String, Json, String), QuarantineReason> {
    let doc = lsqca_json::parse(text).map_err(|e| QuarantineReason::NotJson(e.to_string()))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| QuarantineReason::Schema("missing `schema`".to_string()))?;
    if schema != RESULT_SCHEMA {
        return Err(QuarantineReason::Schema(format!(
            "schema `{schema}`, expected `{RESULT_SCHEMA}`"
        )));
    }
    let key = doc
        .get("key")
        .and_then(Json::as_str)
        .ok_or_else(|| QuarantineReason::Schema("missing `key`".to_string()))?;
    let stored = doc
        .get("checksum")
        .and_then(Json::as_str)
        .ok_or_else(|| QuarantineReason::Schema("missing `checksum`".to_string()))?;
    let payload = doc
        .get("payload")
        .ok_or_else(|| QuarantineReason::Schema("missing `payload`".to_string()))?;
    let actual = format!("{:016x}", record_checksum(key, payload));
    if stored != actual {
        return Err(QuarantineReason::Checksum {
            stored: stored.to_string(),
            actual,
        });
    }
    Ok((key.to_string(), payload.clone(), stored.to_string()))
}

fn read_record(io: &dyn StoreIo, path: &Path) -> Result<(String, Json, String), Miss> {
    let text = match io.read(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(Miss::Absent),
        Err(e) => return Err(Miss::Io(e)),
    };
    decode_record(&text).map_err(Miss::Corrupt)
}

fn load_record(io: &dyn StoreIo, path: &Path, key: &str) -> Result<Json, Miss> {
    let (stored_key, payload, _checksum) = read_record(io, path)?;
    if stored_key != key {
        return Err(Miss::Corrupt(QuarantineReason::KeyMismatch {
            stored: stored_key,
        }));
    }
    Ok(payload)
}

pub(crate) fn verify_record(
    io: &dyn StoreIo,
    path: &Path,
    journaled_checksum: &str,
) -> Result<(), Miss> {
    let (_key, _payload, checksum) = read_record(io, path)?;
    if checksum != journaled_checksum {
        return Err(Miss::Corrupt(QuarantineReason::Checksum {
            stored: checksum,
            actual: journaled_checksum.to_string(),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultPlan, FaultyIo};

    fn payload(n: u64) -> Json {
        Json::obj([("point", Json::U64(n)), ("cpi", Json::F64(1.5 + n as f64))])
    }

    fn mem_store() -> (Arc<FaultyIo>, ResultStore) {
        let io = Arc::new(FaultyIo::reliable());
        let store = ResultStore::with_io(Some(PathBuf::from("/store")), io.clone());
        (io, store)
    }

    #[test]
    fn second_request_is_a_hit_even_from_a_fresh_process() {
        let (io, store) = mem_store();
        let (first, event) = store.load_or_compute("k1", || payload(1));
        assert_eq!(event, StoreEvent::Computed);

        // Same process: served from memory.
        let (second, event) = store.load_or_compute("k1", || panic!("must not recompute"));
        assert_eq!(event, StoreEvent::Hit);
        assert_eq!(first, second);

        // Fresh process over the same backend: served from disk.
        let fresh = ResultStore::with_io(Some(PathBuf::from("/store")), io);
        let (third, event) = fresh.load_or_compute("k1", || panic!("must not recompute"));
        assert_eq!(event, StoreEvent::Hit);
        assert_eq!(first, third);
        assert_eq!(
            fresh.stats(),
            StoreStats {
                computed: 0,
                hits: 1,
                quarantined: 0
            }
        );
    }

    #[test]
    fn published_records_survive_a_crash() {
        let (io, store) = mem_store();
        let (first, _) = store.load_or_compute("k1", || payload(1));
        io.crash();
        let fresh = ResultStore::with_io(Some(PathBuf::from("/store")), io);
        let (second, event) = fresh.load_or_compute("k1", || panic!("must not recompute"));
        assert_eq!(event, StoreEvent::Hit);
        assert_eq!(first, second);
    }

    #[test]
    fn tampered_record_is_quarantined_and_recomputed() {
        let (io, store) = mem_store();
        store.load_or_compute("k1", || payload(1));
        let path = store.path_for("k1").unwrap();
        let mut text = io.read(&path).unwrap();
        text = text.replace("2.5", "9.5");
        io.tamper(&path, text.as_bytes());

        let fresh = ResultStore::with_io(Some(PathBuf::from("/store")), io.clone());
        let (value, event) = fresh.load_or_compute("k1", || payload(1));
        assert!(matches!(
            event,
            StoreEvent::Quarantined(QuarantineReason::Checksum { .. })
        ));
        assert_eq!(value, payload(1));
        assert_eq!(fresh.stats().quarantined, 1);
        // The corrupt bytes moved aside and a clean record took their place.
        assert!(io
            .read(&path.with_extension("json.quarantined"))
            .unwrap()
            .contains("9.5"));
        assert!(io.read(&path).unwrap().contains("2.5"));
    }

    #[test]
    fn truncated_record_is_detected() {
        let (io, store) = mem_store();
        store.load_or_compute("k1", || payload(1));
        let path = store.path_for("k1").unwrap();
        let text = io.read(&path).unwrap();
        io.tamper(&path, &text.as_bytes()[..text.len() / 2]);

        let fresh = ResultStore::with_io(Some(PathBuf::from("/store")), io);
        let (value, event) = fresh.load_or_compute("k1", || payload(1));
        assert!(matches!(
            event,
            StoreEvent::Quarantined(QuarantineReason::NotJson(_))
        ));
        assert_eq!(value, payload(1));
    }

    #[test]
    fn unwritable_store_degrades_once_and_still_serves_results() {
        let io = Arc::new(FaultyIo::unwritable());
        let store = ResultStore::with_io(Some(PathBuf::from("/store")), io);
        let (first, event) = store.load_or_compute("k1", || payload(1));
        assert_eq!(event, StoreEvent::Computed);
        assert_eq!(first, payload(1));
        assert!(store.is_degraded());
        // Degraded operation memoizes in-process.
        let (second, event) = store.load_or_compute("k1", || panic!("must not recompute"));
        assert_eq!(event, StoreEvent::Hit);
        assert_eq!(first, second);
    }

    #[test]
    fn disabled_store_always_computes() {
        let store = ResultStore::disabled();
        let (_, event) = store.load_or_compute("k1", || payload(1));
        assert_eq!(event, StoreEvent::Computed);
        // No memoization either: `--no-store` (and the benchmarks that run
        // under it) must re-simulate every request.
        let (_, event) = store.load_or_compute("k1", || payload(1));
        assert_eq!(event, StoreEvent::Computed);
        assert_eq!(store.stats().computed, 2);
        assert_eq!(store.path_for("k1"), None);
    }

    #[test]
    fn verify_resume_reports_journal_state() {
        let (io, store) = mem_store();
        store.load_or_compute("k1", || payload(1));
        store.load_or_compute("k2", || payload(2));
        let report = store.verify_resume();
        assert_eq!(report.journaled, 2);
        assert_eq!(report.verified, 2);
        assert_eq!(report.missing, 0);
        assert_eq!(report.quarantined, 0);

        // Corrupt one record: resume verification quarantines it.
        let path = store.path_for("k2").unwrap();
        io.tamper(&path, b"{\"schema\": \"lsqca-result-v1\"");
        let fresh = ResultStore::with_io(Some(PathBuf::from("/store")), io);
        let report = fresh.verify_resume();
        assert_eq!(report.journaled, 2);
        assert_eq!(report.verified, 1);
        assert_eq!(report.quarantined, 1);
    }

    #[test]
    fn kill_mid_sweep_then_resume_recomputes_only_the_lost_tail() {
        // First pass: kill the backend partway through a 8-point sweep.
        let io = Arc::new(FaultyIo::with_plan(FaultPlan {
            kill_at_op: Some(40),
            ..FaultPlan::default()
        }));
        let store = ResultStore::with_io(Some(PathBuf::from("/store")), io.clone());
        for n in 0..8 {
            // After the kill-point the store degrades but still returns
            // correct values; the process would normally be dead here.
            let (value, _) = store.load_or_compute(&format!("k{n}"), || payload(n));
            assert_eq!(value, payload(n));
        }
        io.revive();

        // Resumed process: everything durable is a hit, the rest recomputes,
        // and the merged values match an uninterrupted run exactly.
        let resumed = ResultStore::with_io(Some(PathBuf::from("/store")), io);
        for n in 0..8 {
            let (value, _) = resumed.load_or_compute(&format!("k{n}"), || payload(n));
            assert_eq!(value, payload(n));
        }
        let stats = resumed.stats();
        assert_eq!(stats.hits + stats.computed, 8);
        assert!(stats.hits > 0, "the survived prefix must be served as hits");
        assert!(stats.computed > 0, "the lost tail must recompute");
    }

    #[test]
    fn probe_serves_hits_but_never_computes() {
        let (io, store) = mem_store();
        assert_eq!(store.probe("k1"), None);
        assert_eq!(store.stats().computed, 0);
        store.load_or_compute("k1", || payload(1));

        // A fresh process probes the record published by the first.
        let fresh = ResultStore::with_io(Some(PathBuf::from("/store")), io.clone());
        assert_eq!(fresh.probe("k1"), Some(payload(1)));
        assert_eq!(fresh.stats().hits, 1);
        assert_eq!(fresh.stats().computed, 0);

        // A corrupt record is quarantined, not served.
        let path = store.path_for("k1").unwrap();
        io.tamper(&path, b"{ torn");
        let fresh = ResultStore::with_io(Some(PathBuf::from("/store")), io);
        assert_eq!(fresh.probe("k1"), None);
        assert_eq!(fresh.stats().quarantined, 1);
    }

    #[test]
    fn shard_label_override_is_validated() {
        let (_io, mut store) = mem_store();
        store.set_shard_label("merge").unwrap();
        assert_eq!(store.shard_label(), "merge");
        assert!(store.set_shard_label("../evil").is_err());
        assert_eq!(store.shard_label(), "merge");
    }

    #[test]
    fn shards_journal_under_their_own_label() {
        let io = Arc::new(FaultyIo::reliable());
        let mut store = ResultStore::with_io(Some(PathBuf::from("/store")), io.clone());
        store.set_shard_label("w3").unwrap();
        store.load_or_compute("k1", || payload(1));
        let journal = crate::journal::ShardJournal::new(io, Path::new("/store"), "w3");
        assert_eq!(journal.load().unwrap().entries.len(), 1);
    }

    #[test]
    fn record_encoding_round_trips() {
        let record = encode_record("k1", &payload(7));
        let (key, value, checksum) = decode_record(&record.text).unwrap();
        assert_eq!(key, "k1");
        assert_eq!(value, payload(7));
        assert_eq!(checksum, record.checksum);
    }
}
