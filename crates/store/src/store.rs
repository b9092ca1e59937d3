//! Content-addressed result store for sweep points.
//!
//! # Record contract
//!
//! Every result is one line of its shard's results log
//! (`results-<shard>.log`): the full key, the JSON payload, and an FNV-1a
//! checksum over `key + "\n" + compact(payload)`. The first lookup reads
//! every results log in the directory once, under the `store.open` span,
//! into the in-memory map that serves all later lookups. A line that does
//! not parse is torn: counted and ignored. A line that
//! parses but fails its checksum makes its key suspect: unless another line
//! for that key verifies, the key is reported as quarantined once on stderr
//! and recomputed, while the bad bytes stay in the log for inspection. When
//! several valid lines name one key, the first in (file name, line) order is
//! served.
//!
//! # Durability contract
//!
//! Publishing a record appends its line and fsyncs the log (plus one
//! directory fsync when this store creates the log), under a lock that
//! keeps concurrent threads from interleaving lines, and
//! [`ResultStore::store_computed`] returns only after that fsync. A SIGKILL
//! at any point therefore loses at most the in-flight point: a resumed run
//! replays every surviving line as a hit and recomputes only what never
//! became durable, which makes the merged report byte-identical to an
//! uninterrupted run's. A kill mid-append leaves a torn tail; the next
//! store to append to that log starts on a fresh line, so a torn tail never
//! swallows the next record.
//!
//! An unwritable or failing store directory never aborts a sweep: after the
//! first filesystem error the store degrades to a process-local in-memory map
//! with a single stderr warning.

use crate::io::{DiskIo, StoreIo};
use crate::journal::{journal_path, load_journals, JournalEntry};
use crate::merge::{merge_audit, MergeError, MergeReport};
use crate::shard::{validate_shard_label, ShardLabelError};
use lsqca_json::Json;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Schema tag of the store layout: one `results-<shard>.log` per shard, one
/// checksummed record per line. (`lsqca-result-v1` wrote one `.json` file
/// per record and journaled its name in `journal-<shard>.log`.)
pub const RESULT_SCHEMA: &str = "lsqca-result-v2";

/// How a [`ResultStore::load_or_compute`] request was satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreEvent {
    /// A verified record was served; no computation happened.
    Hit,
    /// No record existed (or the store is disabled/degraded); computed.
    Computed,
    /// The key's only records failed verification; the point was recomputed.
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
    /// The record's checksum does not match its content (bit rot, hand edit).
    Checksum {
        /// Checksum stored in the record.
        stored: String,
        /// Checksum recomputed from the record's key and payload.
        actual: String,
    },
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Checksum { stored, actual } => {
                write!(f, "checksum mismatch: stored {stored}, computed {actual}")
            }
        }
    }
}

/// Counters of one store instance (monotonic over its lifetime).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Points computed because no verified record existed.
    pub computed: u64,
    /// Points served from a verified record (on disk or published in-process).
    pub hits: u64,
    /// Keys whose records failed verification and were recomputed.
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

/// What opening the store found in the results logs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResumeReport {
    /// Distinct keys with at least one parsed line, across all shards.
    pub journaled: usize,
    /// Keys with a line whose checksum verifies; these are served as hits.
    pub verified: usize,
    /// Keys whose every line fails its checksum; these are recomputed.
    pub quarantined: usize,
    /// Torn lines tolerated (at most one per killed shard).
    pub torn_lines: usize,
}

impl fmt::Display for ResumeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} journaled, {} verified, {} quarantined, {} torn lines",
            self.journaled, self.verified, self.quarantined, self.torn_lines
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
    /// Verified payloads by key: every results log as read when the store
    /// opened, plus this process's publications. The memo, and the fallback
    /// medium once the store degrades.
    memory: Mutex<HashMap<String, Json>>,
    /// Keys whose only lines failed their checksum; each is taken (and
    /// reported) once.
    suspects: Mutex<HashMap<String, QuarantineReason>>,
    /// Set by the first lookup, probe, resume check or publication.
    opened: OnceLock<Opened>,
    /// The state of this shard's log as the next append finds it; `None`
    /// until the first publication. The lock serializes appends.
    tail: Mutex<Option<Tail>>,
    degraded: AtomicBool,
    computed: AtomicU64,
    hits: AtomicU64,
    quarantined: AtomicU64,
}

/// What [`ResultStore`] read when it opened.
#[derive(Debug, Default)]
struct Opened {
    report: ResumeReport,
    /// Every log read, with whether it ended mid-line.
    torn_tails: HashMap<PathBuf, bool>,
}

/// The end of this shard's log, as the next append must treat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// No log yet: create the directory, and sync it after the append.
    Absent,
    /// The log ends with a newline.
    Clean,
    /// The log ends mid-line: start the append with a newline.
    Torn,
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
            suspects: Mutex::new(HashMap::new()),
            opened: OnceLock::new(),
            tail: Mutex::new(None),
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

    /// The directory the results logs live in; `None` when disabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The shard label this store publishes under.
    pub fn shard_label(&self) -> &str {
        &self.shard
    }

    /// Override the shard label (validated) — used by the supervisor and the
    /// merge path, which must not publish under a worker's label.
    ///
    /// # Errors
    ///
    /// [`ShardLabelError`] when `label` violates the `[A-Za-z0-9_-]{1,64}`
    /// contract; the current label is kept.
    pub fn set_shard_label(&mut self, label: &str) -> Result<(), ShardLabelError> {
        validate_shard_label(label)?;
        self.shard = label.to_string();
        *self.tail.get_mut().unwrap() = None;
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
    /// report the miss. A key whose records all failed verification is
    /// reported (once) as a [`StoreEvent::Quarantined`] miss. Hand every
    /// miss's computed payload to [`ResultStore::store_computed`] with its
    /// event.
    pub fn lookup(&self, key: &str) -> Lookup {
        // A disabled store (no directory) computes every time; memoization is
        // reserved for real stores, where it backs the degraded-mode fallback.
        let Some(dir) = self.dir.as_deref() else {
            return Lookup::Miss(StoreEvent::Computed);
        };
        self.open();
        if let Some(payload) = self.memory.lock().unwrap().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Hit(payload.clone());
        }
        match self.suspects.lock().unwrap().remove(key) {
            Some(reason) => {
                eprintln!(
                    "warning: result store: quarantined `{key}` in {}: {reason}; \
                     recomputing (the bad line stays in the log)",
                    dir.display()
                );
                Lookup::Miss(StoreEvent::Quarantined(reason))
            }
            None => Lookup::Miss(StoreEvent::Computed),
        }
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
        if self.dir.is_none() {
            return;
        }
        self.open();
        if let Some(dir) = self.usable_dir() {
            if let Err(err) = self.publish(dir, key, payload) {
                self.degrade("write", &err);
            }
        }
        self.memory
            .lock()
            .unwrap()
            .insert(key.to_string(), payload.clone());
    }

    /// Serve the payload for `key` only if a verified record already exists;
    /// never computes, never publishes.
    ///
    /// This is how a process renders sweep points *owned by other shards*.
    /// It answers from the logs as they were when this store opened, plus
    /// this process's own publications: a record published by any shard
    /// before then is served, an absent record stays absent (the caller
    /// substitutes a placeholder). A quarantined key counts as such and
    /// stays absent, so the owning shard recomputes it.
    pub fn probe(&self, key: &str) -> Option<Json> {
        match self.lookup(key) {
            Lookup::Hit(payload) => Some(payload),
            Lookup::Miss(StoreEvent::Quarantined(_)) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                None
            }
            Lookup::Miss(_) => None,
        }
    }

    /// Audit all shard logs in this store's directory for a merge — see
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

    /// What the results logs held when this store opened (opening it now if
    /// nothing has yet); `--resume` prints it before the sweep resumes.
    pub fn verify_resume(&self) -> ResumeReport {
        self.open().report
    }

    /// Read every results log into memory, once.
    fn open(&self) -> &Opened {
        self.opened.get_or_init(|| {
            let mut opened = Opened::default();
            let Some(dir) = self.usable_dir() else {
                return opened;
            };
            let _span = lsqca_telemetry::span("store.open");
            let logs = match load_journals(self.io.as_ref(), dir) {
                Ok(logs) => logs,
                Err(err) => {
                    if err.kind() != io::ErrorKind::NotFound {
                        self.degrade("read", &err);
                    }
                    return opened;
                }
            };
            let mut memory = self.memory.lock().unwrap();
            let mut suspects = self.suspects.lock().unwrap();
            for (path, load) in logs {
                opened.report.torn_lines += load.torn_lines;
                opened.torn_tails.insert(path, load.torn_tail);
                for entry in load.entries {
                    match entry.verify() {
                        Ok(()) => {
                            memory.entry(entry.key).or_insert(entry.payload);
                        }
                        Err(reason) => {
                            suspects.entry(entry.key).or_insert(reason);
                        }
                    }
                }
            }
            suspects.retain(|key, _| !memory.contains_key(key));
            opened.report.verified = memory.len();
            opened.report.quarantined = suspects.len();
            opened.report.journaled = memory.len() + suspects.len();
            opened
        })
    }

    fn usable_dir(&self) -> Option<&Path> {
        if self.degraded.load(Ordering::Relaxed) {
            None
        } else {
            self.dir.as_deref()
        }
    }

    /// Append the record's line to this shard's log and fsync it.
    fn publish(&self, dir: &Path, key: &str, payload: &Json) -> io::Result<()> {
        let _span = lsqca_telemetry::span("store.publish");
        let line = JournalEntry::new(key, payload).line();
        let path = journal_path(dir, &self.shard);
        let mut tail = self.tail.lock().unwrap();
        let state = *tail.get_or_insert_with(|| match self.open().torn_tails.get(&path) {
            None => Tail::Absent,
            Some(false) => Tail::Clean,
            Some(true) => Tail::Torn,
        });
        if state == Tail::Absent {
            self.io.create_dir_all(dir)?;
        }
        let bytes = match state {
            Tail::Torn => format!("\n{line}"),
            Tail::Absent | Tail::Clean => line,
        };
        self.io.append(&path, bytes.as_bytes())?;
        self.io.sync_file(&path)?;
        if state == Tail::Absent {
            self.io.sync_dir(dir)?;
        }
        *tail = Some(Tail::Clean);
        Ok(())
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

/// The shard label the environment selects, falling back to `0` (with a
/// warning) when `LSQCA_SHARD` is set to something that could escape the
/// store directory once interpolated into a log filename.
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

    fn reopen(io: &Arc<FaultyIo>) -> ResultStore {
        ResultStore::with_io(Some(PathBuf::from("/store")), io.clone())
    }

    /// The log `store` publishes into.
    fn log_of(store: &ResultStore) -> PathBuf {
        journal_path(Path::new("/store"), store.shard_label())
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

        // Fresh process over the same backend: served from the log.
        let fresh = reopen(&io);
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
        let fresh = reopen(&io);
        let (second, event) = fresh.load_or_compute("k1", || panic!("must not recompute"));
        assert_eq!(event, StoreEvent::Hit);
        assert_eq!(first, second);
    }

    #[test]
    fn one_file_holds_every_record() {
        let (io, store) = mem_store();
        for n in 0..4 {
            store.load_or_compute(&format!("k{n}"), || payload(n));
        }
        let files = io.files_snapshot();
        assert_eq!(files.keys().collect::<Vec<_>>(), vec![&log_of(&store)]);
        let text = String::from_utf8(files[&log_of(&store)].clone()).unwrap();
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn tampered_line_is_quarantined_recomputed_and_kept() {
        let (io, store) = mem_store();
        store.load_or_compute("k1", || payload(1));
        let path = log_of(&store);
        let text = io.read(&path).unwrap().replace("2.5", "9.5");
        io.tamper(&path, text.as_bytes());

        let fresh = reopen(&io);
        assert_eq!(fresh.verify_resume().quarantined, 1);
        let (value, event) = fresh.load_or_compute("k1", || payload(1));
        assert!(matches!(
            event,
            StoreEvent::Quarantined(QuarantineReason::Checksum { .. })
        ));
        assert_eq!(value, payload(1));
        assert_eq!(fresh.stats().quarantined, 1);
        // The corrupt bytes stay in the log, and a clean line follows them.
        let log = io.read(&path).unwrap();
        assert!(log.contains("9.5") && log.contains("2.5"), "{log}");
        let again = reopen(&io);
        assert_eq!(
            again.load_or_compute("k1", || payload(0)).1,
            StoreEvent::Hit
        );
        assert_eq!(again.verify_resume().quarantined, 0);
    }

    #[test]
    fn a_verifying_line_outranks_a_corrupt_one() {
        let (io, store) = mem_store();
        store.load_or_compute("k1", || payload(1));
        let path = log_of(&store);
        let good = io.read(&path).unwrap();
        let bad = good.replace("2.5", "9.5");
        io.tamper(&path, (bad + &good).as_bytes());

        let fresh = reopen(&io);
        let (value, event) = fresh.load_or_compute("k1", || panic!("must not recompute"));
        assert_eq!(event, StoreEvent::Hit);
        assert_eq!(value, payload(1));
    }

    #[test]
    fn truncated_log_is_a_torn_line() {
        let (io, store) = mem_store();
        store.load_or_compute("k1", || payload(1));
        let path = log_of(&store);
        let text = io.read(&path).unwrap();
        io.tamper(&path, &text.as_bytes()[..text.len() / 2]);

        let fresh = reopen(&io);
        let (value, event) = fresh.load_or_compute("k1", || payload(1));
        assert_eq!(event, StoreEvent::Computed);
        assert_eq!(value, payload(1));
        assert_eq!(fresh.verify_resume().torn_lines, 1);
    }

    /// A torn tail never swallows the record appended after it.
    #[test]
    fn append_after_a_torn_tail_starts_a_fresh_line() {
        let (io, store) = mem_store();
        store.load_or_compute("k1", || payload(1));
        let path = log_of(&store);
        let k2 = JournalEntry::new("k2", &payload(2)).line();
        io.append(&path, &k2.as_bytes()[..k2.len() / 2]).unwrap();

        let reopened = reopen(&io);
        assert_eq!(reopened.verify_resume().torn_lines, 1);
        reopened.load_or_compute("k3", || payload(3));

        let again = reopen(&io);
        let (_, k1) = again.load_or_compute("k1", || payload(1));
        let (_, k3) = again.load_or_compute("k3", || payload(3));
        let (_, k2) = again.load_or_compute("k2", || payload(2));
        assert_eq!(
            (k1, k3, k2),
            (StoreEvent::Hit, StoreEvent::Hit, StoreEvent::Computed)
        );
        assert_eq!(again.verify_resume().torn_lines, 1);
    }

    /// The `lsqca-result-v1` layout is ignored, never misread: everything
    /// computes, and nothing counts as torn or quarantined.
    #[test]
    fn a_v1_directory_is_ignored() {
        let io = Arc::new(FaultyIo::reliable());
        let v1 = "{\n  \"schema\": \"lsqca-result-v1\",\n  \"key\": \"k1\",\n  \
                  \"checksum\": \"0123456789abcdef\",\n  \"payload\": {\"point\": 1}\n}";
        io.tamper(Path::new("/store/k1-0123456789abcdef.json"), v1.as_bytes());
        io.tamper(
            Path::new("/store/journal-0.log"),
            b"v1 0123456789abcdef k1-0123456789abcdef.json\n",
        );

        let store = reopen(&io);
        assert_eq!(store.verify_resume(), ResumeReport::default());
        assert_eq!(
            store.load_or_compute("k1", || payload(1)).1,
            StoreEvent::Computed
        );
        assert_eq!(store.stats().quarantined, 0);
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
        assert_eq!(store.probe("k1"), None);
    }

    #[test]
    fn verify_resume_reports_log_state() {
        let (io, store) = mem_store();
        store.load_or_compute("k1", || payload(1));
        store.load_or_compute("k2", || payload(2));
        let report = reopen(&io).verify_resume();
        assert_eq!(report.journaled, 2);
        assert_eq!(report.verified, 2);
        assert_eq!(report.quarantined, 0);

        // Corrupt one line: the resume report counts its key as quarantined.
        let path = log_of(&store);
        let text = io.read(&path).unwrap().replace("3.5", "0.5");
        io.tamper(&path, text.as_bytes());
        let report = reopen(&io).verify_resume();
        assert_eq!(report.journaled, 2);
        assert_eq!(report.verified, 1);
        assert_eq!(report.quarantined, 1);
    }

    #[test]
    fn kill_mid_sweep_then_resume_recomputes_only_the_lost_tail() {
        // First pass: kill the backend partway through an 8-point sweep.
        let io = Arc::new(FaultyIo::with_plan(FaultPlan {
            kill_at_op: Some(12),
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
        let resumed = reopen(&io);
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
        let fresh = reopen(&io);
        assert_eq!(fresh.probe("k1"), Some(payload(1)));
        assert_eq!(fresh.stats().hits, 1);
        assert_eq!(fresh.stats().computed, 0);

        // A corrupt record is quarantined, not served.
        let path = log_of(&store);
        let text = io.read(&path).unwrap().replace("2.5", "7.5");
        io.tamper(&path, text.as_bytes());
        let fresh = reopen(&io);
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
    fn shards_publish_under_their_own_label() {
        let io = Arc::new(FaultyIo::reliable());
        let mut store = ResultStore::with_io(Some(PathBuf::from("/store")), io.clone());
        store.set_shard_label("w3").unwrap();
        store.load_or_compute("k1", || payload(1));
        let log = io.read(&journal_path(Path::new("/store"), "w3")).unwrap();
        assert_eq!(log.lines().count(), 1);
    }
}
