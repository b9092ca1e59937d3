//! Crash-safe persistence layer for sweep results.
//!
//! The crate provides these pieces, deliberately independent of the
//! simulation stack so lower layers (the workload cache) can reuse them:
//!
//! - [`StoreIo`]/[`DiskIo`]/[`FaultyIo`]: a filesystem trait with a production
//!   backend and a deterministic fault-injection backend (seeded short writes,
//!   `ENOSPC`, `EIO`, torn renames, kill-points) plus the shared
//!   [`atomic_write`] primitive (tmp + fsync + rename + directory fsync) that
//!   the workload cache and the metrics files use.
//! - [`ResultStore`]: a content-addressed store of checksummed JSON payloads,
//!   one append-only results log per shard holding the records themselves
//!   (one line and one fsync per result; a torn tail left by a killed
//!   process is tolerated, so an interrupted sweep resumes exactly where it
//!   died), quarantining anything that fails verification and degrading to
//!   in-memory operation when the filesystem does.
//! - Sharded-execution records: [`validate_shard_label`] guards every label
//!   interpolated into a store filename, [`QuarantineLog`]/[`InflightLog`]
//!   record poisoned and in-flight sweep points for the supervisor, and
//!   [`merge_audit`] reconciles all shard logs into one deterministic
//!   merged view (conflicting checksums for the same key are a hard
//!   [`MergeError`], never a silent overwrite).
//!
//! Callers decide what the payloads mean; this crate only promises that a
//! payload read back equals a payload written, or is loudly recomputed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
mod io;
mod journal;
mod merge;
mod quarantine;
mod shard;
mod store;

pub use hash::{fnv1a64, slug, Fnv1a};
pub use io::{atomic_write, DiskIo, FaultPlan, FaultyIo, StoreIo, TempDir};
pub use merge::{merge_audit, MergeError, MergeReport};
pub use quarantine::{
    progress_signature, quarantined_keys, InflightLog, QuarantineEntry, QuarantineLog,
};
pub use shard::{validate_shard_label, ShardLabelError, MAX_SHARD_LABEL_LEN};
pub use store::{
    default_store_dir, Lookup, QuarantineReason, ResultStore, ResumeReport, StoreEvent, StoreStats,
    RESULT_SCHEMA,
};
