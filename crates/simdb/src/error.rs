//! Error types for database operations.

use std::fmt;

/// Errors returned by simdb operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// (De)serialization of a log record or snapshot failed.
    Serialization(String),
    /// The write-ahead log contains an undecodable record.
    WalCorrupt {
        /// Zero-based index of the corrupt record.
        record: usize,
        /// Decoder error description.
        reason: String,
    },
    /// A filesystem operation on a file-backed log failed.
    Io(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Serialization(e) => write!(f, "serialization failed: {e}"),
            DbError::WalCorrupt { record, reason } => {
                write!(f, "wal record {record} is corrupt: {reason}")
            }
            DbError::Io(e) => write!(f, "wal file i/o failed: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Result alias for database operations.
pub type Result<T> = std::result::Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        assert_eq!(
            DbError::Io("disk full".into()).to_string(),
            "wal file i/o failed: disk full"
        );
        assert!(DbError::WalCorrupt {
            record: 3,
            reason: "eof".into()
        }
        .to_string()
        .contains("record 3"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<DbError>();
    }
}
