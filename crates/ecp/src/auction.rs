//! Auction engines: English (open ascending) and Vickrey (sealed
//! second-price).
//!
//! The marketplace's third trading service (§3.2). The engines are pure
//! state machines; [`crate::marketplace`] drives the English auction over
//! messages and timers, and workloads use both engines directly.

use crate::merchandise::{ItemId, Money};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier a bidder uses inside one auction (the MBA's agent id in the
/// platform, an arbitrary u64 in pure use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BidderId(pub u64);

impl fmt::Display for BidderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bidder-{}", self.0)
    }
}

/// Errors returned by auction operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuctionError {
    /// Bid below the reserve or below the current minimum acceptable bid.
    BidTooLow {
        /// Offered amount.
        offered: Money,
        /// Minimum that would have been accepted.
        minimum: Money,
    },
    /// The auction has already closed.
    Closed,
    /// A bidder tried to bid twice in a sealed auction.
    AlreadyBid(BidderId),
}

impl fmt::Display for AuctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuctionError::BidTooLow { offered, minimum } => {
                write!(f, "bid {offered} is below the minimum {minimum}")
            }
            AuctionError::Closed => write!(f, "auction is closed"),
            AuctionError::AlreadyBid(b) => write!(f, "{b} already placed a sealed bid"),
        }
    }
}

impl std::error::Error for AuctionError {}

/// Result of a closed auction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuctionOutcome {
    /// Sold to `winner` at `price`.
    Sold {
        /// Winning bidder.
        winner: BidderId,
        /// Price paid.
        price: Money,
    },
    /// No bid met the reserve.
    Unsold,
}

impl AuctionOutcome {
    /// The sale price, if sold.
    pub fn price(&self) -> Option<Money> {
        match self {
            AuctionOutcome::Sold { price, .. } => Some(*price),
            AuctionOutcome::Unsold => None,
        }
    }
}

/// Open ascending-price (English) auction.
///
/// Bids must beat the current high bid by at least the increment; the
/// winner pays their own bid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnglishAuction {
    /// Item under the hammer.
    pub item: ItemId,
    reserve: Money,
    increment: Money,
    high: Option<(BidderId, Money)>,
    bids: u32,
    closed: bool,
}

impl EnglishAuction {
    /// Open an auction with a reserve price and minimum increment.
    pub fn open(item: ItemId, reserve: Money, increment: Money) -> Self {
        EnglishAuction {
            item,
            reserve,
            increment,
            high: None,
            bids: 0,
            closed: false,
        }
    }

    /// Lowest bid that would currently be accepted.
    pub fn minimum_bid(&self) -> Money {
        match self.high {
            None => self.reserve,
            Some((_, high)) => high + self.increment,
        }
    }

    /// Current leader, if any.
    pub fn leader(&self) -> Option<(BidderId, Money)> {
        self.high
    }

    /// Number of accepted bids.
    pub fn bids(&self) -> u32 {
        self.bids
    }

    /// Whether the auction has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Place a bid.
    ///
    /// # Errors
    ///
    /// [`AuctionError::Closed`] after closing;
    /// [`AuctionError::BidTooLow`] below [`EnglishAuction::minimum_bid`].
    pub fn place_bid(&mut self, bidder: BidderId, amount: Money) -> Result<(), AuctionError> {
        if self.closed {
            return Err(AuctionError::Closed);
        }
        let minimum = self.minimum_bid();
        if amount < minimum {
            return Err(AuctionError::BidTooLow {
                offered: amount,
                minimum,
            });
        }
        self.high = Some((bidder, amount));
        self.bids += 1;
        Ok(())
    }

    /// Close and settle.
    pub fn close(&mut self) -> AuctionOutcome {
        self.closed = true;
        match self.high {
            Some((winner, price)) if price >= self.reserve => {
                AuctionOutcome::Sold { winner, price }
            }
            _ => AuctionOutcome::Unsold,
        }
    }
}

/// Sealed-bid second-price (Vickrey) auction.
///
/// Each bidder bids once; the highest bidder wins and pays the
/// second-highest bid (or the reserve if there is no second bid above it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VickreyAuction {
    /// Item under the hammer.
    pub item: ItemId,
    reserve: Money,
    bids: Vec<(BidderId, Money)>,
    closed: bool,
}

impl VickreyAuction {
    /// Open a sealed-bid auction with a reserve price.
    pub fn open(item: ItemId, reserve: Money) -> Self {
        VickreyAuction {
            item,
            reserve,
            bids: Vec::new(),
            closed: false,
        }
    }

    /// Number of sealed bids received.
    pub fn bids(&self) -> usize {
        self.bids.len()
    }

    /// The reserve price.
    pub fn reserve(&self) -> Money {
        self.reserve
    }

    /// Whether the auction has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Submit a sealed bid.
    ///
    /// # Errors
    ///
    /// [`AuctionError::Closed`] after closing;
    /// [`AuctionError::AlreadyBid`] on a second bid from the same bidder;
    /// [`AuctionError::BidTooLow`] below the reserve.
    pub fn place_bid(&mut self, bidder: BidderId, amount: Money) -> Result<(), AuctionError> {
        if self.closed {
            return Err(AuctionError::Closed);
        }
        if self.bids.iter().any(|(b, _)| *b == bidder) {
            return Err(AuctionError::AlreadyBid(bidder));
        }
        if amount < self.reserve {
            return Err(AuctionError::BidTooLow {
                offered: amount,
                minimum: self.reserve,
            });
        }
        self.bids.push((bidder, amount));
        Ok(())
    }

    /// Close and settle: highest bidder pays `max(second bid, reserve)`.
    /// Ties go to the earliest bidder.
    pub fn close(&mut self) -> AuctionOutcome {
        self.closed = true;
        if self.bids.is_empty() {
            return AuctionOutcome::Unsold;
        }
        let mut sorted = self.bids.clone();
        // stable sort: ties keep submission order, earliest wins
        sorted.sort_by_key(|b| std::cmp::Reverse(b.1));
        let (winner, _) = sorted[0];
        let price = sorted
            .get(1)
            .map(|(_, p)| *p)
            .unwrap_or(self.reserve)
            .max(self.reserve);
        AuctionOutcome::Sold { winner, price }
    }
}

/// Descending-price (Dutch) auction.
///
/// The price starts high and drops by `decrement` per tick; the first
/// bidder at (or above) the current price wins immediately at the
/// current price. If the price would fall below the floor, the auction
/// closes unsold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DutchAuction {
    /// Item under the hammer.
    pub item: ItemId,
    current: Money,
    floor: Money,
    decrement: Money,
    closed: bool,
    winner: Option<(BidderId, Money)>,
}

impl DutchAuction {
    /// Open with a starting price, a floor, and a per-tick decrement.
    pub fn open(item: ItemId, start: Money, floor: Money, decrement: Money) -> Self {
        DutchAuction {
            item,
            current: start.max(floor),
            floor,
            decrement,
            closed: false,
            winner: None,
        }
    }

    /// The price a bid must meet right now.
    pub fn current_price(&self) -> Money {
        self.current
    }

    /// Whether the auction has closed (sold or floored out).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Advance one tick: drop the price by the decrement. Returns `false`
    /// (and closes the auction) when the price would fall below the
    /// floor.
    pub fn tick(&mut self) -> bool {
        if self.closed {
            return false;
        }
        if self.current == self.floor {
            self.closed = true;
            return false;
        }
        self.current = self.current.saturating_sub(self.decrement).max(self.floor);
        true
    }

    /// Take the item at the current price. First valid bid wins and
    /// closes the auction immediately.
    ///
    /// # Errors
    ///
    /// [`AuctionError::Closed`] after closing;
    /// [`AuctionError::BidTooLow`] below the current price.
    pub fn place_bid(&mut self, bidder: BidderId, amount: Money) -> Result<(), AuctionError> {
        if self.closed {
            return Err(AuctionError::Closed);
        }
        if amount < self.current {
            return Err(AuctionError::BidTooLow {
                offered: amount,
                minimum: self.current,
            });
        }
        self.winner = Some((bidder, self.current));
        self.closed = true;
        Ok(())
    }

    /// Settle.
    pub fn close(&mut self) -> AuctionOutcome {
        self.closed = true;
        match self.winner {
            Some((winner, price)) => AuctionOutcome::Sold { winner, price },
            None => AuctionOutcome::Unsold,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::panic)]

    use super::*;

    fn money(u: u64) -> Money {
        Money::from_units(u)
    }

    #[test]
    fn english_bids_must_ascend_by_increment() {
        let mut a = EnglishAuction::open(ItemId(1), money(10), money(1));
        a.place_bid(BidderId(1), money(10)).unwrap();
        assert!(matches!(
            a.place_bid(BidderId(2), money(10)),
            Err(AuctionError::BidTooLow { .. })
        ));
        a.place_bid(BidderId(2), money(11)).unwrap();
        assert_eq!(a.leader(), Some((BidderId(2), money(11))));
        assert_eq!(a.bids(), 2);
    }

    #[test]
    fn english_below_reserve_rejected() {
        let mut a = EnglishAuction::open(ItemId(1), money(10), money(1));
        assert!(matches!(
            a.place_bid(BidderId(1), money(9)),
            Err(AuctionError::BidTooLow { .. })
        ));
    }

    #[test]
    fn english_winner_pays_own_bid() {
        let mut a = EnglishAuction::open(ItemId(1), money(10), money(1));
        a.place_bid(BidderId(1), money(10)).unwrap();
        a.place_bid(BidderId(2), money(15)).unwrap();
        match a.close() {
            AuctionOutcome::Sold { winner, price } => {
                assert_eq!(winner, BidderId(2));
                assert_eq!(price, money(15));
            }
            AuctionOutcome::Unsold => panic!("expected sale"),
        }
        assert!(a.is_closed());
        assert!(matches!(
            a.place_bid(BidderId(3), money(99)),
            Err(AuctionError::Closed)
        ));
    }

    #[test]
    fn english_no_bids_is_unsold() {
        let mut a = EnglishAuction::open(ItemId(1), money(10), money(1));
        assert_eq!(a.close(), AuctionOutcome::Unsold);
    }

    #[test]
    fn vickrey_winner_pays_second_price() {
        let mut a = VickreyAuction::open(ItemId(1), money(10));
        a.place_bid(BidderId(1), money(30)).unwrap();
        a.place_bid(BidderId(2), money(20)).unwrap();
        a.place_bid(BidderId(3), money(25)).unwrap();
        match a.close() {
            AuctionOutcome::Sold { winner, price } => {
                assert_eq!(winner, BidderId(1));
                assert_eq!(price, money(25), "pays the second-highest bid");
            }
            AuctionOutcome::Unsold => panic!("expected sale"),
        }
    }

    #[test]
    fn vickrey_single_bid_pays_reserve() {
        let mut a = VickreyAuction::open(ItemId(1), money(10));
        a.place_bid(BidderId(1), money(30)).unwrap();
        assert_eq!(
            a.close(),
            AuctionOutcome::Sold {
                winner: BidderId(1),
                price: money(10)
            }
        );
    }

    #[test]
    fn vickrey_duplicate_bidder_rejected() {
        let mut a = VickreyAuction::open(ItemId(1), money(10));
        a.place_bid(BidderId(1), money(30)).unwrap();
        assert!(matches!(
            a.place_bid(BidderId(1), money(40)),
            Err(AuctionError::AlreadyBid(_))
        ));
    }

    #[test]
    fn vickrey_tie_goes_to_earliest() {
        let mut a = VickreyAuction::open(ItemId(1), money(10));
        a.place_bid(BidderId(7), money(30)).unwrap();
        a.place_bid(BidderId(8), money(30)).unwrap();
        match a.close() {
            AuctionOutcome::Sold { winner, price } => {
                assert_eq!(winner, BidderId(7));
                assert_eq!(price, money(30));
            }
            AuctionOutcome::Unsold => panic!("expected sale"),
        }
    }

    #[test]
    fn vickrey_below_reserve_rejected_and_unsold_without_bids() {
        let mut a = VickreyAuction::open(ItemId(1), money(10));
        assert!(a.place_bid(BidderId(1), money(5)).is_err());
        assert_eq!(a.close(), AuctionOutcome::Unsold);
    }

    #[test]
    fn outcome_price_accessor() {
        assert_eq!(
            AuctionOutcome::Sold {
                winner: BidderId(1),
                price: money(5)
            }
            .price(),
            Some(money(5))
        );
        assert_eq!(AuctionOutcome::Unsold.price(), None);
    }

    #[test]
    fn dutch_price_descends_to_the_floor() {
        let mut a = DutchAuction::open(ItemId(1), money(100), money(70), money(10));
        assert_eq!(a.current_price(), money(100));
        assert!(a.tick());
        assert_eq!(a.current_price(), money(90));
        assert!(a.tick());
        assert!(a.tick());
        assert_eq!(a.current_price(), money(70), "clamped at the floor");
        assert!(!a.tick(), "at the floor the next tick closes");
        assert!(a.is_closed());
        assert_eq!(a.close(), AuctionOutcome::Unsold);
    }

    #[test]
    fn dutch_first_taker_wins_at_current_price() {
        let mut a = DutchAuction::open(ItemId(1), money(100), money(50), money(10));
        a.tick();
        a.tick(); // current = 80
        assert!(matches!(
            a.place_bid(BidderId(1), money(79)),
            Err(AuctionError::BidTooLow { .. })
        ));
        a.place_bid(BidderId(2), money(85)).unwrap();
        assert!(a.is_closed());
        assert_eq!(
            a.close(),
            AuctionOutcome::Sold {
                winner: BidderId(2),
                price: money(80)
            },
            "winner pays the clock price, not their bid"
        );
        assert!(matches!(
            a.place_bid(BidderId(3), money(100)),
            Err(AuctionError::Closed)
        ));
    }

    #[test]
    fn dutch_start_below_floor_clamps_up() {
        let a = DutchAuction::open(ItemId(1), money(10), money(40), money(5));
        assert_eq!(a.current_price(), money(40));
    }
}
