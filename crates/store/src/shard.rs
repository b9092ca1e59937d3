//! Shard label validation.
//!
//! Shard labels come from the environment (`LSQCA_SHARD`) and from CLI flags,
//! and are interpolated into store-directory filenames (`results-<label>.log`,
//! `quarantine-<label>.log`, `inflight-<label>.log`). An unvalidated label
//! containing `/`, `\`, or `..` would escape the store directory, so every
//! external label must pass [`validate_shard_label`] before it reaches a
//! filename.

use std::error::Error;
use std::fmt;

/// Maximum accepted shard-label length, in bytes.
pub const MAX_SHARD_LABEL_LEN: usize = 64;

/// Why a shard label was rejected.
///
/// The accepted alphabet is `[A-Za-z0-9_-]`, which structurally rules out
/// path separators, `..`, and every other traversal trick — rejection happens
/// *before* the label is interpolated into any filename.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardLabelError {
    /// The label is empty.
    Empty,
    /// The label exceeds [`MAX_SHARD_LABEL_LEN`] bytes.
    TooLong {
        /// Actual length of the rejected label.
        len: usize,
    },
    /// The label contains a character outside `[A-Za-z0-9_-]`.
    BadChar {
        /// The rejected label.
        label: String,
        /// The first offending character.
        ch: char,
    },
}

impl fmt::Display for ShardLabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardLabelError::Empty => write!(f, "shard label is empty"),
            ShardLabelError::TooLong { len } => write!(
                f,
                "shard label is {len} bytes long (maximum {MAX_SHARD_LABEL_LEN})"
            ),
            ShardLabelError::BadChar { label, ch } => write!(
                f,
                "shard label `{label}` contains {ch:?}; only [A-Za-z0-9_-] is allowed"
            ),
        }
    }
}

impl Error for ShardLabelError {}

/// Validates a shard label against the `[A-Za-z0-9_-]{1,64}` contract.
///
/// # Errors
///
/// Returns the first violation found: empty label, over-long label, or a
/// character outside the allowed alphabet (which includes every path
/// separator and the `.` needed to spell `..`).
pub fn validate_shard_label(label: &str) -> Result<(), ShardLabelError> {
    if label.is_empty() {
        return Err(ShardLabelError::Empty);
    }
    if label.len() > MAX_SHARD_LABEL_LEN {
        return Err(ShardLabelError::TooLong { len: label.len() });
    }
    if let Some(ch) = label
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || *c == '_' || *c == '-'))
    {
        return Err(ShardLabelError::BadChar {
            label: label.to_string(),
            ch,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_labels_pass() {
        for label in ["0", "7", "merge", "worker-3", "A_b-9", &"x".repeat(64)] {
            assert_eq!(validate_shard_label(label), Ok(()), "{label}");
        }
    }

    #[test]
    fn traversal_and_separator_labels_are_rejected() {
        for label in ["..", "../x", "a/b", "a\\b", ".", "a.b", "/etc", "a b"] {
            assert!(
                matches!(
                    validate_shard_label(label),
                    Err(ShardLabelError::BadChar { .. })
                ),
                "{label} must be rejected"
            );
        }
    }

    #[test]
    fn empty_and_overlong_labels_are_rejected() {
        assert_eq!(validate_shard_label(""), Err(ShardLabelError::Empty));
        assert_eq!(
            validate_shard_label(&"x".repeat(65)),
            Err(ShardLabelError::TooLong { len: 65 })
        );
    }

    #[test]
    fn errors_render_a_useful_message() {
        let err = validate_shard_label("../etc").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("../etc"), "{text}");
        assert!(text.contains("A-Za-z0-9_-"), "{text}");
    }
}
