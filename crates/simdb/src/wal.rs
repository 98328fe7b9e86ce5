//! Write-ahead log.
//!
//! A durable host's runtime appends every capsule, purchase record and
//! profile delta to the log before acting on it. Recovery replays the log
//! over the last snapshot, so a crash between checkpoint and crash-point
//! loses nothing. The encoding is newline-delimited JSON, chosen for
//! debuggability.

use crate::error::{DbError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// An agent capsule captured at a migration or lifecycle boundary.
    /// `active` distinguishes a running agent (journalled after a
    /// callback) from one deactivated into long-term storage.
    Capsule {
        /// Raw agent id (`AgentId.0`).
        agent: u64,
        /// The serialized [`AgentCapsule`] as produced by the runtime,
        /// shared with the durable state that materializes it.
        capsule: Arc<serde_json::Value>,
        /// Whether the agent was active (vs deactivated) when logged.
        active: bool,
    },
    /// The agent left this host (dispatched away) or was disposed; any
    /// earlier capsule record for it no longer applies here.
    CapsuleGone {
        /// Raw agent id.
        agent: u64,
    },
    /// A purchase is about to be attempted. Logged before the buyer
    /// dispatches toward the marketplace; always forced to the synced
    /// prefix (fsync-on-intent).
    PurchaseIntent {
        /// Globally unique intent id (stable across retries), as the
        /// journaling agent spells it.
        intent: String,
        /// Free-form detail (consumer, item, market) for diagnostics,
        /// shared with the durable state that materializes it.
        detail: Arc<serde_json::Value>,
    },
    /// The purchase identified by `intent` definitely happened.
    PurchaseCommit {
        /// Intent id from the matching [`LogRecord::PurchaseIntent`].
        intent: String,
        /// Outcome detail (item, price, channel), shared like an intent's.
        detail: Arc<serde_json::Value>,
    },
    /// The purchase identified by `intent` definitely did not happen.
    PurchaseAbort {
        /// Intent id from the matching [`LogRecord::PurchaseIntent`].
        intent: String,
        /// Why the purchase was abandoned.
        reason: String,
    },
    /// An incremental profile-update delta for a learning agent that
    /// journals deltas instead of whole capsules.
    ProfileDelta {
        /// Raw agent id of the profile owner (the journaling agent).
        agent: u64,
        /// The delta payload, replayed through `Agent::on_recovered`;
        /// shared with the durable state like a capsule.
        delta: Arc<serde_json::Value>,
    },
}

/// An append-only operation log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wal {
    records: Vec<LogRecord>,
}

impl Wal {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn append(&mut self, record: LogRecord) {
        self.records.push(record);
    }

    /// Records in append order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all records (after a checkpoint).
    pub fn truncate(&mut self) {
        self.records.clear();
    }

    /// Keep only the first `n` records, dropping the tail. Models the
    /// crash-time loss of an unsynced suffix: everything past the fsync
    /// watermark never reached stable storage. A prefix longer than the
    /// log is a no-op.
    pub fn retain_prefix(&mut self, n: usize) {
        self.records.truncate(n);
    }

    /// Serialize to newline-delimited JSON.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in &self.records {
            // a LogRecord is a plain enum of strings/values; serialization
            // cannot fail
            let line = serde_json::to_string(r).expect("log record serializes");
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        out
    }

    /// Decode a log previously produced by [`Wal::encode`]. Trailing
    /// partial lines (a torn write from a crash) are tolerated and
    /// truncated; corruption in the middle is an error.
    ///
    /// # Errors
    ///
    /// [`DbError::WalCorrupt`] if a non-final record fails to parse.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let text = String::from_utf8_lossy(bytes);
        let lines: Vec<&str> = text.split('\n').filter(|l| !l.is_empty()).collect();
        let mut records = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match serde_json::from_str::<LogRecord>(line) {
                Ok(r) => records.push(r),
                Err(e) if i + 1 == lines.len() => {
                    // torn final record: drop it, the mutation was never
                    // acknowledged
                    let _ = e;
                    break;
                }
                Err(e) => {
                    return Err(DbError::WalCorrupt {
                        record: i,
                        reason: e.to_string(),
                    })
                }
            }
        }
        Ok(Wal { records })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn capsule(agent: u64, v: i64) -> LogRecord {
        LogRecord::Capsule {
            agent,
            capsule: serde_json::json!({ "v": v }).into(),
            active: true,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut wal = Wal::new();
        wal.append(capsule(1, 1));
        wal.append(LogRecord::ProfileDelta {
            agent: 1,
            delta: serde_json::json!({ "d": 2 }).into(),
        });
        wal.append(LogRecord::CapsuleGone { agent: 1 });
        let decoded = Wal::decode(&wal.encode()).unwrap();
        assert_eq!(decoded, wal);
    }

    #[test]
    fn torn_final_record_is_dropped() {
        let mut wal = Wal::new();
        wal.append(capsule(1, 1));
        wal.append(capsule(2, 2));
        let mut bytes = wal.encode();
        // simulate crash mid-write of a third record
        bytes.extend_from_slice(b"{\"Capsule\":{\"agent\":3,\"capsu");
        let decoded = Wal::decode(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let mut wal = Wal::new();
        wal.append(capsule(1, 1));
        let mut bytes = b"garbage-record\n".to_vec();
        bytes.extend_from_slice(&wal.encode());
        match Wal::decode(&bytes) {
            Err(DbError::WalCorrupt { record, .. }) => assert_eq!(record, 0),
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncate_empties_the_log() {
        let mut wal = Wal::new();
        wal.append(capsule(1, 1));
        wal.truncate();
        assert!(wal.is_empty());
        assert_eq!(wal.encode(), b"");
    }

    #[test]
    fn empty_log_decodes_empty() {
        assert!(Wal::decode(b"").unwrap().is_empty());
    }

    #[test]
    fn durability_records_round_trip() {
        let mut wal = Wal::new();
        wal.append(LogRecord::Capsule {
            agent: 7,
            capsule: serde_json::json!({"state": {"x": 1}}).into(),
            active: true,
        });
        wal.append(LogRecord::PurchaseIntent {
            intent: "42".into(),
            detail: serde_json::json!({"item": 3}).into(),
        });
        wal.append(LogRecord::PurchaseCommit {
            intent: "42".into(),
            detail: serde_json::json!({"price": 9.5}).into(),
        });
        wal.append(LogRecord::PurchaseAbort {
            intent: "43".into(),
            reason: "mba lost".into(),
        });
        wal.append(LogRecord::ProfileDelta {
            agent: 9,
            delta: serde_json::json!({"kind": "Purchase"}).into(),
        });
        wal.append(LogRecord::CapsuleGone { agent: 7 });
        let decoded = Wal::decode(&wal.encode()).unwrap();
        assert_eq!(decoded, wal);
    }

    #[test]
    fn retain_prefix_drops_the_tail() {
        let mut wal = Wal::new();
        wal.append(capsule(1, 1));
        wal.append(capsule(2, 2));
        wal.append(capsule(3, 3));
        wal.retain_prefix(2);
        assert_eq!(wal.len(), 2);
        // longer than the log: no-op
        wal.retain_prefix(10);
        assert_eq!(wal.len(), 2);
    }
}
