//! Deterministic cross-shard merge audit.
//!
//! After a sharded sweep, each worker shard has appended its records to its
//! own `results-<shard>.log` in the shared store directory. [`merge_audit`]
//! reconciles all of it, read-only, from the logs alone:
//!
//! * every results log is parsed (torn lines tolerated and counted);
//! * lines whose checksum fails are counted as corrupt (the store recomputes
//!   their keys);
//! * duplicate publications of the same key are resolved by checksum —
//!   identical records merge silently, while two verifying lines with
//!   *different* checksums for the same key are a hard
//!   [`MergeError::ChecksumConflict`], because one of them would silently
//!   lose data;
//! * quarantined sweep points from every `quarantine-<shard>.log` are
//!   surfaced so the merged report can disclose what was skipped.
//!
//! The audit never mutates the store: merging is a property of the
//! content-addressed layout (all shards compute identical bytes for
//! identical keys), so "merge" is verification plus disclosure, after which
//! any single process can serve the merged sweep entirely from hits.

use crate::io::StoreIo;
use crate::journal::load_journals;
use crate::quarantine::quarantined_keys;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::io;
use std::path::Path;

/// What a cross-shard merge audit found.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MergeReport {
    /// Results logs present in the store directory.
    pub shards: usize,
    /// Distinct keys with a verifying line across all logs.
    pub journaled: usize,
    /// Verifying lines beyond the first for a key (identical re-publications,
    /// e.g. after a worker restart replayed a point).
    pub duplicates: usize,
    /// Lines that parse but fail their checksum.
    pub corrupt: usize,
    /// Torn lines tolerated across all shards.
    pub torn_lines: usize,
    /// Sweep points quarantined by the supervisor, sorted.
    pub quarantined_points: Vec<String>,
}

impl fmt::Display for MergeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shards, {} journaled ({} duplicates), {} corrupt, {} torn lines, \
             {} quarantined points",
            self.shards,
            self.journaled,
            self.duplicates,
            self.corrupt,
            self.torn_lines,
            self.quarantined_points.len()
        )
    }
}

/// Why a merge audit refused to merge.
#[derive(Debug)]
pub enum MergeError {
    /// Two verifying lines carry different checksums for the same key — the
    /// shards did not compute identical bytes, so a silent merge would lose
    /// one of the results.
    ChecksumConflict {
        /// The result key both lines name.
        key: String,
        /// The distinct checksums claimed, sorted.
        checksums: Vec<String>,
    },
    /// The store directory itself could not be audited.
    Io(io::Error),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::ChecksumConflict { key, checksums } => write!(
                f,
                "shard logs disagree on `{key}`: checksums {}",
                checksums.join(" vs ")
            ),
            MergeError::Io(err) => write!(f, "store directory unreadable: {err}"),
        }
    }
}

impl Error for MergeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MergeError::ChecksumConflict { .. } => None,
            MergeError::Io(err) => Some(err),
        }
    }
}

/// Audit every results log in `dir`.
///
/// # Errors
///
/// [`MergeError::ChecksumConflict`] when two verifying lines carry different
/// checksums for the same key; [`MergeError::Io`] when the directory listing
/// or a log read fails outright (a corrupt line is a tally, not an error).
pub fn merge_audit(io: &dyn StoreIo, dir: &Path) -> Result<MergeReport, MergeError> {
    let _span = lsqca_telemetry::span("merge.audit");
    let logs = load_journals(io, dir).map_err(MergeError::Io)?;
    let mut report = MergeReport {
        shards: logs.len(),
        ..MergeReport::default()
    };

    // key -> distinct checksums of its verifying lines, plus the line count
    // to derive how many lines were identical duplicates.
    let mut claims: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut lines = 0usize;
    for (_, load) in logs {
        report.torn_lines += load.torn_lines;
        for entry in load.entries {
            if entry.verify().is_err() {
                report.corrupt += 1;
                continue;
            }
            lines += 1;
            claims.entry(entry.key).or_default().insert(entry.checksum);
        }
    }
    report.journaled = claims.len();
    report.duplicates = lines - claims.len();
    if let Some((key, checksums)) = claims.into_iter().find(|(_, c)| c.len() > 1) {
        return Err(MergeError::ChecksumConflict {
            key,
            checksums: checksums.into_iter().collect(),
        });
    }

    report.quarantined_points = quarantined_keys(io, dir).into_iter().collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FaultyIo;
    use crate::journal::journal_path;
    use crate::quarantine::{QuarantineEntry, QuarantineLog};
    use crate::store::{ResultStore, StoreEvent};
    use lsqca_json::Json;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn payload(n: u64) -> Json {
        Json::obj([("point", Json::U64(n))])
    }

    fn shard_store(io: &Arc<FaultyIo>, label: &str) -> ResultStore {
        let mut store = ResultStore::with_io(Some(PathBuf::from("/store")), io.clone());
        store.set_shard_label(label).unwrap();
        store
    }

    #[test]
    fn disjoint_shards_merge_cleanly() {
        let io = Arc::new(FaultyIo::reliable());
        shard_store(&io, "0").load_or_compute("k1", || payload(1));
        shard_store(&io, "1").load_or_compute("k2", || payload(2));

        let report = merge_audit(io.as_ref(), Path::new("/store")).unwrap();
        assert_eq!(report.shards, 2);
        assert_eq!(report.journaled, 2);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.corrupt, 0);
        assert!(report.quarantined_points.is_empty());
    }

    #[test]
    fn identical_duplicates_merge_silently() {
        let io = Arc::new(FaultyIo::reliable());
        // Both shards compute the same point (e.g. a restart replayed it):
        // same key, same payload, same checksum — two lines, one key.
        shard_store(&io, "0").load_or_compute("k1", || payload(1));
        shard_store(&io, "1").store_computed("k1", &payload(1), &StoreEvent::Computed);

        let report = merge_audit(io.as_ref(), Path::new("/store")).unwrap();
        assert_eq!(report.journaled, 1);
        assert_eq!(report.duplicates, 1);
    }

    #[test]
    fn conflicting_checksums_are_a_hard_error() {
        let io = Arc::new(FaultyIo::reliable());
        shard_store(&io, "0").load_or_compute("k1", || payload(1));
        // A second shard computed different bytes for the same key.
        shard_store(&io, "1").store_computed("k1", &payload(2), &StoreEvent::Computed);

        let err = merge_audit(io.as_ref(), Path::new("/store")).unwrap_err();
        match err {
            MergeError::ChecksumConflict { key, checksums } => {
                assert_eq!(key, "k1");
                assert_eq!(checksums.len(), 2);
            }
            other => panic!("expected a checksum conflict, got {other}"),
        }
    }

    #[test]
    fn corrupt_lines_and_quarantined_points_are_tallied() {
        let io = Arc::new(FaultyIo::reliable());
        let store = shard_store(&io, "0");
        store.load_or_compute("k1", || payload(1));
        store.load_or_compute("k2", || payload(2));
        let log = journal_path(Path::new("/store"), "0");
        let text = io.read(&log).unwrap().replace("\"point\":2", "\"point\":7");
        io.tamper(&log, format!("{text}{{ torn").as_bytes());
        QuarantineLog::new(io.clone(), Path::new("/store"), "0")
            .append(&QuarantineEntry {
                attempts: 3,
                key: "k3".to_string(),
            })
            .unwrap();

        let report = merge_audit(io.as_ref(), Path::new("/store")).unwrap();
        assert_eq!(report.journaled, 1);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.torn_lines, 1);
        assert_eq!(report.quarantined_points, vec!["k3".to_string()]);
    }
}
