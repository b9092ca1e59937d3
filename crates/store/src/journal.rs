//! The results log: one append-only file per shard, one result record per
//! line.
//!
//! Each shard publishes into `results-<shard>.log` in the store directory. A
//! line is a compact JSON object `{"key", "checksum", "payload"}`; the
//! checksum is FNV-1a over `key + "\n" + compact(payload)`. Publishing a
//! record is one appended line plus one fsync, so the log is the store: no
//! other file exists per result.
//!
//! A process killed mid-append leaves at most one torn line, at the tail.
//! The parser counts and skips every line that is not a well-formed entry,
//! and reports whether the text ends mid-line so that the next writer starts
//! on a fresh line instead of gluing its record onto the torn one. A line
//! that parses but fails its checksum is still an entry:
//! [`JournalEntry::verify`] says so, and its bytes stay in the log for
//! inspection.
//!
//! Logs of the `lsqca-result-v1` layout (`journal-<shard>.log` beside one
//! `.json` file per record) do not match [`is_journal_file`],
//! so a v1 directory reads as empty and is recomputed, never misread.

use crate::hash::Fnv1a;
use crate::io::StoreIo;
use crate::store::QuarantineReason;
use lsqca_json::Json;
use std::io;
use std::path::{Path, PathBuf};

/// One results-log line: a published record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournalEntry {
    /// The result key.
    pub(crate) key: String,
    /// Hex checksum the line was written with.
    pub(crate) checksum: String,
    /// The result payload.
    pub(crate) payload: Json,
}

impl JournalEntry {
    /// The entry for `(key, payload)`, with its checksum.
    pub(crate) fn new(key: &str, payload: &Json) -> Self {
        JournalEntry {
            key: key.to_string(),
            checksum: record_checksum(key, payload),
            payload: payload.clone(),
        }
    }

    /// The log line: compact JSON and a trailing newline.
    pub(crate) fn line(self) -> String {
        let mut line = Json::obj([
            ("key", Json::Str(self.key)),
            ("checksum", Json::Str(self.checksum)),
            ("payload", self.payload),
        ])
        .compact();
        line.push('\n');
        line
    }

    /// Check the stored checksum against the key and payload.
    ///
    /// # Errors
    ///
    /// [`QuarantineReason::Checksum`] when they disagree (bit rot, a hand
    /// edit).
    pub(crate) fn verify(&self) -> Result<(), QuarantineReason> {
        let actual = record_checksum(&self.key, &self.payload);
        if actual == self.checksum {
            Ok(())
        } else {
            Err(QuarantineReason::Checksum {
                stored: self.checksum.clone(),
                actual,
            })
        }
    }

    /// Parse one line; `None` when it is not a JSON object with a string
    /// `key`, a string `checksum` and a `payload` (a torn line).
    fn parse(line: &str) -> Option<Self> {
        let doc = lsqca_json::parse(line).ok()?;
        Some(JournalEntry {
            key: doc.get("key")?.as_str()?.to_string(),
            checksum: doc.get("checksum")?.as_str()?.to_string(),
            payload: doc.get("payload")?.clone(),
        })
    }
}

/// The integrity checksum, as 16 hex digits: FNV-1a over the key and the
/// compact payload rendering. The printer is deterministic and parsing
/// round-trips, so a reader recomputes it from the parsed line.
fn record_checksum(key: &str, payload: &Json) -> String {
    let mut hash = Fnv1a::new();
    hash.update(key.as_bytes());
    hash.update(b"\n");
    hash.update(payload.compact().as_bytes());
    format!("{:016x}", hash.finish())
}

/// One parsed results log.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct JournalLoad {
    /// Entries parsed from well-formed lines, in append order, whether or not
    /// their checksum verifies.
    pub(crate) entries: Vec<JournalEntry>,
    /// Lines that did not parse: at most the final line after a kill, but
    /// counted at every position so that tampering shows too.
    pub(crate) torn_lines: usize,
    /// Whether the text ends mid-line, so an append must start with `\n`.
    pub(crate) torn_tail: bool,
}

/// The path of shard `label`'s results log in `dir`: `results-<label>.log`.
///
/// `label` must have passed
/// [`validate_shard_label`](crate::validate_shard_label); it is interpolated
/// into the file name verbatim.
pub(crate) fn journal_path(dir: &Path, label: &str) -> PathBuf {
    dir.join(format!("results-{label}.log"))
}

/// Whether `path` names a results log.
pub(crate) fn is_journal_file(path: &Path) -> bool {
    matches!(
        path.file_name().and_then(|n| n.to_str()),
        Some(name) if name.starts_with("results-") && name.ends_with(".log")
    )
}

/// Parse results-log text, one entry per line.
pub(crate) fn parse_journal(text: &str) -> JournalLoad {
    let mut load = JournalLoad {
        torn_tail: !text.is_empty() && !text.ends_with('\n'),
        ..JournalLoad::default()
    };
    for line in text.split('\n').filter(|line| !line.is_empty()) {
        match JournalEntry::parse(line) {
            Some(entry) => load.entries.push(entry),
            None => load.torn_lines += 1,
        }
    }
    load
}

/// Every results log in `dir`, parsed, in file-name order. A log that
/// vanishes between the listing and its read is skipped.
///
/// # Errors
///
/// The listing's error (`NotFound` for a missing directory), or the first
/// failed read.
pub(crate) fn load_journals(
    io: &dyn StoreIo,
    dir: &Path,
) -> io::Result<Vec<(PathBuf, JournalLoad)>> {
    let mut paths: Vec<PathBuf> = io
        .list_dir(dir)?
        .into_iter()
        .filter(|p| is_journal_file(p))
        .collect();
    paths.sort();
    let mut logs = Vec::with_capacity(paths.len());
    for path in paths {
        match io.read(&path) {
            Ok(text) => logs.push((path, parse_journal(&text))),
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => return Err(err),
        }
    }
    Ok(logs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{DiskIo, FaultyIo};

    fn entry(n: u64) -> JournalEntry {
        JournalEntry::new(&format!("k{n}"), &Json::obj([("point", Json::U64(n))]))
    }

    #[test]
    fn lines_round_trip_and_verify() {
        let text = entry(1).line() + &entry(2).line();
        let load = parse_journal(&text);
        assert_eq!(load.entries, vec![entry(1), entry(2)]);
        assert_eq!(load.torn_lines, 0);
        assert!(!load.torn_tail);
        assert!(load.entries.iter().all(|e| e.verify().is_ok()));
        assert_eq!(text.lines().count(), 2, "one compact line per record");
    }

    #[test]
    fn only_results_logs_are_loaded_and_a_missing_dir_is_not_found() {
        let io = FaultyIo::reliable();
        assert!(load_journals(&io, Path::new("/store")).unwrap().is_empty());
        io.append(
            &journal_path(Path::new("/store"), "1"),
            entry(1).line().as_bytes(),
        )
        .unwrap();
        io.append(Path::new("/store/journal-0.log"), b"v1 00ff x.json\n")
            .unwrap();
        let logs = load_journals(&io, Path::new("/store")).unwrap();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].1.entries, vec![entry(1)]);
        let dir = std::env::temp_dir().join(format!("lsqca-no-store-{}", std::process::id()));
        let missing = load_journals(&DiskIo, &dir);
        assert_eq!(missing.unwrap_err().kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn torn_tail_is_tolerated_counted_and_flagged() {
        let line = entry(2).line();
        let text = entry(1).line() + &line[..line.len() / 2];
        let load = parse_journal(&text);
        assert_eq!(load.entries, vec![entry(1)]);
        assert_eq!(load.torn_lines, 1);
        assert!(load.torn_tail);
    }

    #[test]
    fn edited_payload_parses_but_fails_its_checksum() {
        let text = entry(1).line().replace("\"point\":1", "\"point\":9");
        let load = parse_journal(&text);
        assert_eq!(load.torn_lines, 0);
        assert!(matches!(
            load.entries[0].verify(),
            Err(QuarantineReason::Checksum { .. })
        ));
    }

    #[test]
    fn only_results_logs_are_recognized() {
        assert!(is_journal_file(Path::new("/store/results-0.log")));
        for other in [
            "/store/journal-0.log",
            "/store/point-1.json",
            "/store/quarantine-0.log",
        ] {
            assert!(!is_journal_file(Path::new(other)), "{other}");
        }
    }
}
