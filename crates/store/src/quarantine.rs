//! Poisoned-point quarantine records and in-flight point markers.
//!
//! Both files live next to the shard results logs in the store directory
//! and are written by the sharded-sweep supervisor machinery:
//!
//! * `quarantine-<shard>.log` — append-only list of result keys a supervisor
//!   gave up on after a shard died repeatedly while computing them. A worker
//!   reloads the union of all quarantine logs at startup and *skips* those
//!   points instead of wedging the sweep; the merge audit surfaces them in
//!   the final report.
//! * `inflight-<shard>.log` — the set of result keys a worker is currently
//!   computing, rewritten on every point boundary. After a worker dies the
//!   supervisor reads this post-mortem to attribute the crash to a point.
//!
//! Unlike the results log, these files are not JSON: quarantine keys are
//! free-form result keys that contain spaces, so the line format is
//! `v1 <attempts> <key-to-end-of-line>`.

use crate::io::StoreIo;
use crate::journal::journal_path;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Quarantine line format version tag.
const LINE_TAG: &str = "v1";

/// One quarantined sweep point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// How many times a worker died while this point was in flight.
    pub attempts: u32,
    /// The result key of the quarantined point.
    pub key: String,
}

/// Append-only quarantine record for one shard.
#[derive(Debug, Clone)]
pub struct QuarantineLog {
    io: Arc<dyn StoreIo>,
    path: PathBuf,
}

impl QuarantineLog {
    /// Quarantine log for shard `label` inside `dir`.
    ///
    /// `label` must have passed
    /// [`validate_shard_label`](crate::validate_shard_label); this
    /// constructor interpolates it into a filename verbatim.
    pub fn new(io: Arc<dyn StoreIo>, dir: &Path, label: &str) -> Self {
        QuarantineLog {
            io,
            path: dir.join(format!("quarantine-{label}.log")),
        }
    }

    /// The quarantine file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether `path` names a quarantine log.
    pub fn is_quarantine_file(path: &Path) -> bool {
        matches!(
            path.file_name().and_then(|n| n.to_str()),
            Some(name) if name.starts_with("quarantine-") && name.ends_with(".log")
        )
    }

    /// Append one quarantined point and fsync, so the decision survives a
    /// supervisor crash.
    pub fn append(&self, entry: &QuarantineEntry) -> io::Result<()> {
        let line = format!("{LINE_TAG} {} {}\n", entry.attempts, entry.key);
        self.io.append(&self.path, line.as_bytes())?;
        self.io.sync_file(&self.path)
    }

    /// Load all entries; a missing log is an empty one. Malformed lines are
    /// skipped (the results log's torn-line tolerance, applied here too).
    pub fn load(&self) -> io::Result<Vec<QuarantineEntry>> {
        let text = match self.io.read(&self.path) {
            Ok(text) => text,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(err) => return Err(err),
        };
        Ok(Self::parse(&text))
    }

    /// Parse quarantine text: `v1 <attempts> <key...>` per line, keys keep
    /// their embedded spaces.
    pub fn parse(text: &str) -> Vec<QuarantineEntry> {
        let mut entries = Vec::new();
        for line in text.split('\n') {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, ' ');
            if let (Some(LINE_TAG), Some(attempts), Some(key)) =
                (parts.next(), parts.next(), parts.next())
            {
                if let Ok(attempts) = attempts.parse() {
                    if !key.is_empty() {
                        entries.push(QuarantineEntry {
                            attempts,
                            key: key.to_string(),
                        });
                    }
                }
            }
        }
        entries
    }
}

/// The union of quarantined result keys across every shard's quarantine log
/// in `dir`, sorted. Unreadable logs are skipped (best effort: quarantine is
/// an availability mechanism, never a correctness gate).
pub fn quarantined_keys(io: &dyn StoreIo, dir: &Path) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let Ok(entries) = io.list_dir(dir) else {
        return keys;
    };
    for path in entries {
        if !QuarantineLog::is_quarantine_file(&path) {
            continue;
        }
        if let Ok(text) = io.read(&path) {
            keys.extend(QuarantineLog::parse(&text).into_iter().map(|e| e.key));
        }
    }
    keys
}

/// The in-flight marker for one worker shard: the result keys currently being
/// computed, one per line, rewritten at every point boundary. Advisory — the
/// supervisor reads it post-mortem to attribute a crash to a point, so plain
/// (un-fsynced) writes are enough: file content survives process death, and a
/// machine crash merely loses the attribution, not any result.
#[derive(Debug, Clone)]
pub struct InflightLog {
    io: Arc<dyn StoreIo>,
    path: PathBuf,
}

impl InflightLog {
    /// In-flight marker for shard `label` inside `dir` (validated label, as
    /// for [`QuarantineLog::new`]).
    pub fn new(io: Arc<dyn StoreIo>, dir: &Path, label: &str) -> Self {
        InflightLog {
            io,
            path: Self::new_path(dir, label),
        }
    }

    /// The marker file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Replace the marker with `keys`, one per line.
    pub fn set(&self, keys: &BTreeSet<String>) -> io::Result<()> {
        let mut text = String::new();
        for key in keys {
            text.push_str(key);
            text.push('\n');
        }
        self.io.write(&self.path, text.as_bytes())
    }

    /// Read the marker; a missing file is an empty set.
    pub fn read(&self) -> BTreeSet<String> {
        match self.io.read(&self.path) {
            Ok(text) => text
                .split('\n')
                .filter(|l| !l.is_empty())
                .map(str::to_string)
                .collect(),
            Err(_) => BTreeSet::new(),
        }
    }
}

/// What the supervisor polls as a liveness heartbeat: the byte length of the
/// shard's results log plus its in-flight marker content. Any change — a
/// point published, a new point started — counts as progress. The length
/// comes from file metadata, so a poll costs the same however long the log
/// grows.
pub fn progress_signature(io: &dyn StoreIo, dir: &Path, label: &str) -> (u64, String) {
    let log_len = io.len(&journal_path(dir, label)).unwrap_or(0);
    let inflight = io
        .read(&InflightLog::new_path(dir, label))
        .unwrap_or_default();
    (log_len, inflight)
}

impl InflightLog {
    /// The path an in-flight marker for shard `label` in `dir` would live at.
    pub fn new_path(dir: &Path, label: &str) -> PathBuf {
        dir.join(format!("inflight-{label}.log"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FaultyIo;
    use crate::journal::is_journal_file;
    use crate::store::ResultStore;
    use lsqca_json::Json;

    fn setup() -> (Arc<FaultyIo>, QuarantineLog) {
        let io = Arc::new(FaultyIo::reliable());
        let log = QuarantineLog::new(io.clone(), Path::new("/store"), "3");
        (io, log)
    }

    fn entry(key: &str) -> QuarantineEntry {
        QuarantineEntry {
            attempts: 3,
            key: key.to_string(),
        }
    }

    #[test]
    fn keys_with_spaces_round_trip() {
        let (_io, log) = setup();
        let spaced = entry("Ghz(GhzConfig { qubits: 4 })|experiment=Foo { bar: 1 }");
        log.append(&spaced).unwrap();
        log.append(&entry("plain-key")).unwrap();
        assert_eq!(log.load().unwrap(), vec![spaced, entry("plain-key")]);
    }

    #[test]
    fn missing_log_is_empty_and_entries_survive_crashes() {
        let (io, log) = setup();
        assert_eq!(log.load().unwrap(), Vec::new());
        log.append(&entry("k1")).unwrap();
        io.crash();
        assert_eq!(log.load().unwrap(), vec![entry("k1")]);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let (io, log) = setup();
        log.append(&entry("good")).unwrap();
        io.append(log.path(), b"v1 not-a-number key\nv9 3 key\nv1 2")
            .unwrap();
        assert_eq!(log.load().unwrap(), vec![entry("good")]);
    }

    #[test]
    fn quarantined_keys_unions_every_shard() {
        let io = Arc::new(FaultyIo::reliable());
        let dir = Path::new("/store");
        QuarantineLog::new(io.clone(), dir, "0")
            .append(&entry("b"))
            .unwrap();
        QuarantineLog::new(io.clone(), dir, "1")
            .append(&entry("a"))
            .unwrap();
        QuarantineLog::new(io.clone(), dir, "1")
            .append(&entry("b"))
            .unwrap();
        let keys: Vec<String> = quarantined_keys(io.as_ref(), dir).into_iter().collect();
        assert_eq!(keys, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn inflight_marker_replaces_and_reads_back() {
        let io = Arc::new(FaultyIo::reliable());
        let log = InflightLog::new(io.clone(), Path::new("/store"), "0");
        assert!(log.read().is_empty());
        let keys: BTreeSet<String> = ["k a", "k b"].iter().map(|s| s.to_string()).collect();
        log.set(&keys).unwrap();
        assert_eq!(log.read(), keys);
        log.set(&BTreeSet::new()).unwrap();
        assert!(log.read().is_empty());
    }

    #[test]
    fn file_name_classifiers_do_not_overlap() {
        let q = Path::new("/store/quarantine-0.log");
        let j = Path::new("/store/results-0.log");
        assert!(QuarantineLog::is_quarantine_file(q));
        assert!(!QuarantineLog::is_quarantine_file(j));
        assert!(!is_journal_file(q));
    }

    #[test]
    fn progress_signature_tracks_log_and_inflight() {
        let io = Arc::new(FaultyIo::reliable());
        let dir = Path::new("/store");
        let before = progress_signature(io.as_ref(), dir, "0");
        let inflight = InflightLog::new(io.clone(), dir, "0");
        let mut keys = BTreeSet::new();
        keys.insert("k1".to_string());
        inflight.set(&keys).unwrap();
        let after = progress_signature(io.as_ref(), dir, "0");
        assert_ne!(before, after);
    }

    #[test]
    fn progress_signature_grows_on_a_publish_and_not_on_a_hit() {
        let io = Arc::new(FaultyIo::reliable());
        let dir = Path::new("/store");
        let mut store = ResultStore::with_io(Some(dir.to_path_buf()), io.clone());
        store.set_shard_label("0").unwrap();
        let payload = Json::obj([("point", Json::U64(1))]);
        let empty = progress_signature(io.as_ref(), dir, "0");
        assert_eq!(empty.0, 0);
        store.load_or_compute("k1", || payload.clone());
        let published = progress_signature(io.as_ref(), dir, "0");
        assert!(published.0 > empty.0);
        let log = journal_path(dir, "0");
        assert_eq!(published.0, io.read(&log).unwrap().len() as u64);
        store.load_or_compute("k1", || unreachable!("a hit"));
        assert_eq!(progress_signature(io.as_ref(), dir, "0"), published);
    }
}
