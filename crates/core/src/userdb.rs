//! UserDB — the consumer transaction records.
//!
//! §3.3: *"UserDB records the consumer user profile and consumer
//! transaction records."* The profiles live once, in the PA's
//! [`crate::store::RecommendStore`]; [`UserDb`] holds the Fig 4.3 step
//! 13 transaction records. The PA carries both in its state, so they are
//! exactly as durable as the PA's journalled capsule and deltas.

use crate::profile::ConsumerId;
use ecp::merchandise::{ItemId, Money};
use serde::{Deserialize, Serialize};

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

/// The transaction records, in append order.
///
/// `transactions` has no serde default: a state without it (such as the
/// older table-store shape) is refused on restore, not read as an empty
/// history.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct UserDb {
    transactions: Vec<TransactionRecord>,
}

impl UserDb {
    /// Empty UserDB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a transaction record.
    pub fn record_transaction(&mut self, tx: TransactionRecord) {
        self.transactions.push(tx);
    }

    /// All transactions in append order.
    pub fn transactions(&self) -> &[TransactionRecord] {
        &self.transactions
    }

    /// Transactions of one consumer, in append order.
    pub fn transactions_of(
        &self,
        consumer: ConsumerId,
    ) -> impl Iterator<Item = &TransactionRecord> + '_ {
        self.transactions
            .iter()
            .filter(move |t| t.consumer == consumer)
    }

    /// Number of stored transactions.
    pub fn transaction_count(&self) -> usize {
        self.transactions.len()
    }

    /// Mark `consumer`'s latest direct transaction of `item` at `price`
    /// as negotiated. A negotiated deal reaches the PA as a purchase
    /// record (which appends the transaction) followed by a negotiation
    /// record for the same item and price; the second one names the
    /// channel.
    pub(crate) fn mark_negotiated(&mut self, consumer: ConsumerId, item: ItemId, price: Money) {
        if let Some(tx) = self.transactions.iter_mut().rev().find(|t| {
            t.consumer == consumer
                && t.item == item
                && t.price == price
                && t.channel == TradeChannel::Direct
        }) {
            tx.channel = TradeChannel::Negotiated;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn transactions_append_in_order() {
        let mut db = UserDb::new();
        db.record_transaction(tx(1, 10, 5));
        db.record_transaction(tx(2, 11, 6));
        db.record_transaction(tx(1, 12, 7));
        let all = db.transactions();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].item, ItemId(10));
        assert_eq!(all[2].item, ItemId(12));
        let mine: Vec<ItemId> = db.transactions_of(ConsumerId(1)).map(|t| t.item).collect();
        assert_eq!(mine, vec![ItemId(10), ItemId(12)]);
    }

    #[test]
    fn restore_round_trips_and_carries_on_the_sequence() {
        let mut db = UserDb::new();
        db.record_transaction(tx(1, 10, 5));
        let mut restored: UserDb =
            serde_json::from_str(&serde_json::to_string(&db).unwrap()).unwrap();
        assert_eq!(restored, db);
        restored.record_transaction(tx(2, 11, 6));
        db.record_transaction(tx(2, 11, 6));
        assert_eq!(
            restored.transaction_count(),
            2,
            "appends after the restored"
        );
        assert_eq!(restored, db);
    }

    #[test]
    fn mark_negotiated_relabels_the_latest_matching_direct_sale() {
        let mut db = UserDb::new();
        db.record_transaction(tx(1, 10, 5));
        db.record_transaction(tx(1, 10, 5));
        db.record_transaction(tx(2, 10, 5));
        db.mark_negotiated(ConsumerId(1), ItemId(10), Money::from_units(5));
        // no direct sale at this price: nothing changes
        db.mark_negotiated(ConsumerId(1), ItemId(10), Money::from_units(4));
        let channels: Vec<TradeChannel> = db.transactions().iter().map(|t| t.channel).collect();
        assert_eq!(
            channels,
            [
                TradeChannel::Direct,
                TradeChannel::Negotiated,
                TradeChannel::Direct
            ]
        );
    }
}
