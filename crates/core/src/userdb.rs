//! UserDB — durable storage of profiles and transactions on the simdb
//! substrate.
//!
//! §3.3: *"UserDB records the consumer user profile and consumer
//! transaction records."* The [`UserDb`] wraps a [`simdb::JsonStore`]
//! with a typed API and syncs to/from the in-memory
//! [`crate::store::RecommendStore`]. The PA carries it in its state, so
//! it is as durable as the PA's journalled capsule; [`UserDb::snapshot`]
//! and [`UserDb::restore`] round-trip it on their own.

use crate::profile::{ConsumerId, Profile};
use crate::store::RecommendStore;
use ecp::merchandise::{ItemId, Money};
use serde::{Deserialize, Serialize};
use simdb::{DbError, JsonStore};

/// One consumer transaction record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransactionRecord {
    /// Buyer.
    pub consumer: ConsumerId,
    /// Item traded.
    pub item: ItemId,
    /// Price paid.
    pub price: Money,
    /// How the trade happened.
    pub channel: TradeChannel,
    /// Simulated-time microsecond stamp.
    pub at_us: u64,
}

/// The trade path a transaction took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TradeChannel {
    /// Direct buy at list price.
    Direct,
    /// Agreed through negotiation.
    Negotiated,
    /// Won at auction.
    Auction,
}

const PROFILES: &str = "profiles";
const TRANSACTIONS: &str = "transactions";

/// Typed facade over the UserDB store.
#[derive(Debug, Serialize, Deserialize)]
pub struct UserDb {
    store: JsonStore,
    tx_seq: u64,
}

impl UserDb {
    /// Fresh UserDB with its tables and indexes created.
    pub fn new() -> Self {
        let mut store = JsonStore::new("userdb");
        store.create_table(PROFILES).expect("create profiles table");
        store
            .create_table(TRANSACTIONS)
            .expect("create transactions table");
        store
            .add_index(TRANSACTIONS, "by-consumer", "consumer")
            .expect("index transactions by consumer");
        UserDb { store, tx_seq: 0 }
    }

    /// Persist `profile` for `consumer`.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the store.
    pub fn save_profile(&mut self, consumer: ConsumerId, profile: &Profile) -> Result<(), DbError> {
        self.store
            .put_typed(PROFILES, &consumer.0.to_string(), profile)
    }

    /// Load the profile of `consumer`, if saved.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the store.
    pub fn load_profile(&self, consumer: ConsumerId) -> Result<Option<Profile>, DbError> {
        self.store.get_typed(PROFILES, &consumer.0.to_string())
    }

    /// All saved profiles.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the store.
    pub fn all_profiles(&self) -> Result<Vec<(ConsumerId, Profile)>, DbError> {
        let mut out = Vec::new();
        for (key, value) in self.store.scan(PROFILES)? {
            let id: u64 = key
                .parse()
                .map_err(|e| DbError::Serialization(format!("bad profile key {key}: {e}")))?;
            let profile: Profile = serde_json::from_value(value.clone())
                .map_err(|e| DbError::Serialization(e.to_string()))?;
            out.push((ConsumerId(id), profile));
        }
        Ok(out)
    }

    /// Append a transaction record.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the store.
    pub fn record_transaction(&mut self, tx: &TransactionRecord) -> Result<(), DbError> {
        let key = format!("{:012}", self.tx_seq);
        self.tx_seq += 1;
        self.store.put_typed(TRANSACTIONS, &key, tx)
    }

    /// All transactions in append order.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the store.
    pub fn transactions(&self) -> Result<Vec<TransactionRecord>, DbError> {
        let mut out = Vec::new();
        for (_, value) in self.store.scan(TRANSACTIONS)? {
            out.push(
                serde_json::from_value(value.clone())
                    .map_err(|e| DbError::Serialization(e.to_string()))?,
            );
        }
        Ok(out)
    }

    /// Transactions of one consumer, served from the `by-consumer`
    /// secondary index rather than a full scan.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the store.
    pub fn transactions_of(&self, consumer: ConsumerId) -> Result<Vec<TransactionRecord>, DbError> {
        let rows = self
            .store
            .lookup_rows(TRANSACTIONS, "by-consumer", &consumer.0.to_string())?;
        rows.into_iter()
            .map(|(_, v)| {
                serde_json::from_value(v.clone()).map_err(|e| DbError::Serialization(e.to_string()))
            })
            .collect()
    }

    /// Number of stored profiles.
    pub fn profile_count(&self) -> usize {
        self.store.table_len(PROFILES)
    }

    /// Number of stored transactions.
    pub fn transaction_count(&self) -> usize {
        self.store.table_len(TRANSACTIONS)
    }

    /// Persist every profile of the in-memory store.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the store.
    pub fn sync_from(&mut self, memory: &RecommendStore) -> Result<(), DbError> {
        for (consumer, profile) in memory.profiles() {
            self.save_profile(consumer, profile)?;
        }
        Ok(())
    }

    /// Load every saved profile into the in-memory store.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the store.
    pub fn sync_into(&self, memory: &mut RecommendStore) -> Result<(), DbError> {
        for (consumer, profile) in self.all_profiles()? {
            memory.put_profile(consumer, profile);
        }
        Ok(())
    }

    /// The store's tables and indexes; see [`simdb::JsonStore::snapshot`].
    pub fn snapshot(&self) -> Vec<u8> {
        self.store.snapshot()
    }

    /// Rebuild from a [`UserDb::snapshot`]. The transaction sequence
    /// carries on after the restored records; an empty snapshot gives a
    /// fresh UserDB.
    ///
    /// # Errors
    ///
    /// Propagates [`DbError`] from the restore.
    pub fn restore(snapshot: &[u8]) -> Result<Self, DbError> {
        let mut store = JsonStore::restore("userdb", snapshot)?;
        // tables exist even when restored from nothing; the index is
        // derived data, rebuilt so any snapshot of the tables serves it
        store.create_table(PROFILES)?;
        store.create_table(TRANSACTIONS)?;
        store.add_index(TRANSACTIONS, "by-consumer", "consumer")?;
        let tx_seq = store.table_len(TRANSACTIONS) as u64;
        Ok(UserDb { store, tx_seq })
    }
}

impl Default for UserDb {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_with(cat: &str, term: &str, w: f64) -> Profile {
        let mut p = Profile::new();
        p.category_mut(cat).terms.set(term, w);
        p
    }

    fn tx(consumer: u64, item: u64, price: u64) -> TransactionRecord {
        TransactionRecord {
            consumer: ConsumerId(consumer),
            item: ItemId(item),
            price: Money::from_units(price),
            channel: TradeChannel::Direct,
            at_us: 0,
        }
    }

    #[test]
    fn profile_save_load_round_trip() {
        let mut db = UserDb::new();
        let p = profile_with("books", "rust", 1.0);
        db.save_profile(ConsumerId(1), &p).unwrap();
        assert_eq!(db.load_profile(ConsumerId(1)).unwrap(), Some(p));
        assert_eq!(db.load_profile(ConsumerId(2)).unwrap(), None);
        assert_eq!(db.profile_count(), 1);
    }

    #[test]
    fn transactions_append_in_order() {
        let mut db = UserDb::new();
        db.record_transaction(&tx(1, 10, 5)).unwrap();
        db.record_transaction(&tx(2, 11, 6)).unwrap();
        db.record_transaction(&tx(1, 12, 7)).unwrap();
        let all = db.transactions().unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].item, ItemId(10));
        assert_eq!(all[2].item, ItemId(12));
        assert_eq!(db.transactions_of(ConsumerId(1)).unwrap().len(), 2);
    }

    #[test]
    fn restore_preserves_everything() {
        let mut db = UserDb::new();
        db.save_profile(ConsumerId(1), &profile_with("books", "rust", 1.0))
            .unwrap();
        db.record_transaction(&tx(1, 10, 5)).unwrap();
        let restored = UserDb::restore(&db.snapshot()).unwrap();
        assert_eq!(restored.profile_count(), 1);
        assert_eq!(restored.transaction_count(), 1);
        assert_eq!(
            restored.load_profile(ConsumerId(1)).unwrap(),
            db.load_profile(ConsumerId(1)).unwrap()
        );
        assert_eq!(restored.snapshot(), db.snapshot());
    }

    #[test]
    fn restored_db_continues_transaction_sequence() {
        let mut db = UserDb::new();
        db.record_transaction(&tx(1, 10, 5)).unwrap();
        let mut restored = UserDb::restore(&db.snapshot()).unwrap();
        assert_eq!(restored.tx_seq, db.tx_seq);
        restored.record_transaction(&tx(2, 11, 6)).unwrap();
        db.record_transaction(&tx(2, 11, 6)).unwrap();
        assert_eq!(
            restored.transaction_count(),
            2,
            "sequence must not overwrite"
        );
        assert_eq!(restored.snapshot(), db.snapshot());
    }

    #[test]
    fn restore_from_nothing_yields_a_working_db() {
        let mut db = UserDb::restore(b"").unwrap();
        assert_eq!(db.profile_count(), 0);
        db.record_transaction(&tx(1, 10, 5)).unwrap();
        assert_eq!(db.transactions_of(ConsumerId(1)).unwrap().len(), 1);
        assert_eq!(db.snapshot(), {
            let mut fresh = UserDb::new();
            fresh.record_transaction(&tx(1, 10, 5)).unwrap();
            fresh.snapshot()
        });
    }

    #[test]
    fn transactions_of_uses_the_index_after_restore() {
        let mut db = UserDb::new();
        db.record_transaction(&tx(1, 10, 5)).unwrap();
        db.record_transaction(&tx(2, 11, 6)).unwrap();
        db.record_transaction(&tx(1, 12, 7)).unwrap();
        let restored = UserDb::restore(&db.snapshot()).unwrap();
        let mine = restored.transactions_of(ConsumerId(1)).unwrap();
        assert_eq!(mine.len(), 2);
        assert!(mine.iter().all(|t| t.consumer == ConsumerId(1)));
        assert_eq!(mine, db.transactions_of(ConsumerId(1)).unwrap());
    }

    #[test]
    fn pa_state_with_a_legacy_wal_field_restores() {
        let mut db = UserDb::new();
        db.record_transaction(&tx(1, 10, 5)).unwrap();
        let state = serde_json::to_string(&db).unwrap();
        let legacy = state.replacen(
            r#""name":"userdb","#,
            r#""name":"userdb","wal":{"records":[{"CreateTable":{"table":"profiles"}}]},"#,
            1,
        );
        assert_ne!(legacy, state);
        let back: UserDb = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.tx_seq, 1);
        assert_eq!(back.transactions_of(ConsumerId(1)).unwrap().len(), 1);
        assert_eq!(back.snapshot(), db.snapshot());
    }

    #[test]
    fn sync_round_trip_with_memory_store() {
        let mut memory = RecommendStore::new();
        memory.put_profile(ConsumerId(1), profile_with("books", "rust", 1.0));
        memory.put_profile(ConsumerId(2), profile_with("music", "jazz", 0.5));
        let mut db = UserDb::new();
        db.sync_from(&memory).unwrap();
        assert_eq!(db.profile_count(), 2);
        let mut restored = RecommendStore::new();
        db.sync_into(&mut restored).unwrap();
        assert_eq!(
            restored.profile(ConsumerId(1)),
            memory.profile(ConsumerId(1))
        );
        assert_eq!(restored.consumer_count(), 2);
    }
}
