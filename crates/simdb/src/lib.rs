//! # simdb — the write-ahead log durable hosts journal through
//!
//! The paper's Buyer Agent Server keeps two databases (§3.3): **UserDB**
//! (*"records the consumer user profile and consumer transaction
//! records"*) and **BSMDB** (*"records the E-commerce platform's
//! marketplaces, sell server and coordinator server information"*, plus
//! online BRA/MBA bookkeeping). Here they are the typed state of the
//! agents that own them — the PA's profile store and transaction
//! records, the BSMA's marketplaces, sessions and MBA watch list — made
//! durable by the host journalling that state as capsules and deltas.
//! This crate is that journal:
//!
//! * [`wal::Wal`] — the in-memory write-ahead log and its
//!   newline-delimited JSON encoding;
//! * [`file_wal::FileWal`] — the same encoding on a real file, with
//!   torn-tail repair at open.
//!
//! ```
//! use simdb::{LogRecord, Wal};
//!
//! # fn main() -> Result<(), simdb::DbError> {
//! let mut wal = Wal::new();
//! wal.append(LogRecord::ProfileDelta {
//!     agent: 7,
//!     delta: serde_json::json!({ "consumer": 42, "kind": "Query" }).into(),
//! });
//! let bytes = wal.encode();
//! // a torn final record is dropped, not an error
//! let recovered = Wal::decode(&bytes[..bytes.len() - 3])?;
//! assert!(recovered.is_empty());
//! assert_eq!(Wal::decode(&bytes)?.records(), wal.records());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod file_wal;
pub mod wal;

pub use error::{DbError, Result};
pub use file_wal::FileWal;
pub use wal::{LogRecord, Wal};
