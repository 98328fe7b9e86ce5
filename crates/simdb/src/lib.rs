//! # simdb — database substrate for the recommendation mechanism
//!
//! The paper's Buyer Agent Server keeps two databases (§3.3): **UserDB**
//! (*"records the consumer user profile and consumer transaction
//! records"*) and **BSMDB** (*"records the E-commerce platform's
//! marketplaces, sell server and coordinator server information"*, plus
//! online BRA/MBA bookkeeping). This crate provides their storage engine:
//!
//! * [`table::Table`] — typed, ordered tables with multi-valued secondary
//!   indexes (used embedded, e.g. profiles indexed by category);
//! * [`store::JsonStore`] — a multi-table JSON document store with
//!   field-path secondary indexes and snapshot/restore;
//! * [`wal::Wal`] and [`file_wal::FileWal`] — the write-ahead log (in
//!   memory and file-backed) the agent runtime journals durable hosts
//!   through.
//!
//! ```
//! use simdb::store::JsonStore;
//!
//! # fn main() -> Result<(), simdb::error::DbError> {
//! let mut userdb = JsonStore::new("userdb");
//! userdb.create_table("transactions")?;
//! userdb.put("transactions", "tx-1", serde_json::json!({
//!     "consumer": "u42", "item": "rust-book", "price": 35
//! }))?;
//! assert_eq!(userdb.table_len("transactions"), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod file_wal;
pub mod store;
pub mod table;
pub mod wal;

pub use error::{DbError, Result};
pub use file_wal::FileWal;
pub use store::JsonStore;
pub use table::Table;
pub use wal::{LogRecord, Wal};
