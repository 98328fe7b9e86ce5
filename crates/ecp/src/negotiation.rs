//! Alternating-offers price negotiation.
//!
//! The paper's Marketplace *"provide\[s\] kinds of trading services such as:
//! information query, negotiations, and auctions"* (§3.2). This module is
//! the negotiation engine: a seller session (run by the marketplace on
//! behalf of the listing) and a buyer session (run by the visiting MBA),
//! exchanging offers until acceptance or abort.
//!
//! The engines are pure state machines — independently testable, and
//! wrapped in messages by [`crate::marketplace`].

use crate::merchandise::Money;
use serde::{Deserialize, Serialize};

/// How the seller's ask descends over the rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ConcessionStrategy {
    /// Multiplicative: each round the ask shrinks by the policy's
    /// `concession` fraction (floored at the reservation).
    #[default]
    Proportional,
    /// Time-dependent tactic: after `t` of `deadline_rounds` rounds the
    /// ask is `list − span·(t/deadline)^exponent`. `exponent > 1` is
    /// *Boulware* (stubborn, concedes late); `exponent < 1` is
    /// *Conceder* (gives ground early). At the deadline the ask reaches
    /// the reservation.
    TimeDependent {
        /// Rounds until the ask reaches the reservation.
        deadline_rounds: u32,
        /// Curve shape (see variant docs).
        exponent: f64,
    },
}

/// Seller-side negotiation parameters for one listing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SellerPolicy {
    /// Advertised price (the opening ask).
    pub list: Money,
    /// Lowest acceptable price.
    pub reservation: Money,
    /// Per-round fractional concession on the ask, in `[0, 1]`
    /// ([`ConcessionStrategy::Proportional`] only).
    pub concession: f64,
    /// Concession curve.
    #[serde(default)]
    pub strategy: ConcessionStrategy,
}

impl SellerPolicy {
    /// Policy with a reservation at `fraction` of list and the given
    /// proportional concession rate.
    pub fn with_margin(list: Money, fraction: f64, concession: f64) -> Self {
        SellerPolicy {
            list,
            reservation: list.scale(fraction.clamp(0.0, 1.0)),
            concession,
            strategy: ConcessionStrategy::Proportional,
        }
    }

    /// Switch to a time-dependent concession curve.
    pub fn with_strategy(mut self, strategy: ConcessionStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Buyer-side negotiation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuyerPolicy {
    /// Hard ceiling the buyer will never exceed.
    pub budget: Money,
    /// Opening offer as a fraction of the seller's list price.
    pub opening_fraction: f64,
    /// Per-round fractional raise of the buyer's offer.
    pub raise: f64,
    /// Buyer walks away after this many of their own offers.
    pub max_rounds: u32,
}

/// Seller's reply to a buyer offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SellerResponse {
    /// Deal at the buyer's offered price.
    Accept(Money),
    /// Counter-offer at the given ask.
    Counter(Money),
}

/// Result of a finished negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Agreement at `price` after `rounds` buyer offers.
    Deal {
        /// Agreed price.
        price: Money,
        /// Number of buyer offers made.
        rounds: u32,
    },
    /// The buyer walked away after `rounds` offers.
    NoDeal {
        /// Number of buyer offers made.
        rounds: u32,
    },
}

impl Outcome {
    /// The agreed price, if a deal was struck.
    pub fn price(&self) -> Option<Money> {
        match self {
            Outcome::Deal { price, .. } => Some(*price),
            Outcome::NoDeal { .. } => None,
        }
    }
}

/// Seller's side of one negotiation, owned by the marketplace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SellerSession {
    policy: SellerPolicy,
    ask: Money,
    rounds: u32,
}

impl SellerSession {
    /// Open a session; the initial ask is the list price.
    pub fn open(policy: SellerPolicy) -> Self {
        SellerSession {
            policy,
            ask: policy.list,
            rounds: 0,
        }
    }

    /// Current ask.
    pub fn ask(&self) -> Money {
        self.ask
    }

    /// The ask the seller would counter with on round `round`.
    fn ask_at(&self, round: u32) -> Money {
        match self.policy.strategy {
            ConcessionStrategy::Proportional => self
                .policy
                .reservation
                .max(self.ask.scale(1.0 - self.policy.concession)),
            ConcessionStrategy::TimeDependent {
                deadline_rounds,
                exponent,
            } => {
                let t = (round as f64 / deadline_rounds.max(1) as f64).clamp(0.0, 1.0);
                let span = self.policy.list.saturating_sub(self.policy.reservation);
                let conceded = span.scale(t.powf(exponent.max(1e-6)));
                self.policy
                    .reservation
                    .max(self.policy.list.saturating_sub(conceded))
            }
        }
    }

    /// Respond to a buyer `offer`: accept anything at or above the
    /// current acceptance threshold, otherwise concede and counter.
    ///
    /// The acceptance threshold walks down from the ask toward the
    /// reservation as rounds pass; the seller never accepts below
    /// reservation.
    pub fn respond(&mut self, offer: Money) -> SellerResponse {
        self.rounds += 1;
        // Accept if the offer beats what we'd counter with next.
        let next_ask = self.ask_at(self.rounds);
        if offer >= next_ask {
            return SellerResponse::Accept(offer.min(self.ask));
        }
        self.ask = next_ask.min(self.ask);
        SellerResponse::Counter(self.ask)
    }

    /// Buyer offers answered so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

/// Buyer's side of one negotiation, carried by the MBA.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BuyerSession {
    policy: BuyerPolicy,
    offer: Money,
    rounds: u32,
    opened: bool,
}

/// Buyer's next move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BuyerMove {
    /// Offer this price.
    Offer(Money),
    /// Accept the seller's last counter.
    Accept(Money),
    /// Walk away.
    Abort,
}

impl BuyerSession {
    /// Open a session against a listing advertised at `list`.
    pub fn open(policy: BuyerPolicy, list: Money) -> Self {
        let opening = list
            .scale(policy.opening_fraction.clamp(0.0, 1.0))
            .min(policy.budget);
        BuyerSession {
            policy,
            offer: opening,
            rounds: 0,
            opened: false,
        }
    }

    /// The buyer's first offer.
    pub fn opening_offer(&mut self) -> Money {
        self.opened = true;
        self.rounds = 1;
        self.offer
    }

    /// Decide the next move given the seller's counter-ask.
    pub fn respond(&mut self, counter: Money) -> BuyerMove {
        if counter <= self.policy.budget && counter <= self.offer.scale(1.0 + self.policy.raise) {
            // The counter is affordable and close to what we'd offer next:
            // take it.
            return BuyerMove::Accept(counter);
        }
        if self.rounds >= self.policy.max_rounds {
            return BuyerMove::Abort;
        }
        self.rounds += 1;
        self.offer = self
            .offer
            .scale(1.0 + self.policy.raise)
            .min(self.policy.budget);
        BuyerMove::Offer(self.offer)
    }

    /// Offers made so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

/// Run a complete negotiation between the two policies.
///
/// This is the closed-form simulation used by workloads and benches; the
/// message-passing version in [`crate::marketplace`] produces the same
/// outcomes.
pub fn negotiate(seller: SellerPolicy, buyer: BuyerPolicy) -> Outcome {
    let mut s = SellerSession::open(seller);
    let mut b = BuyerSession::open(buyer, seller.list);
    let mut offer = b.opening_offer();
    loop {
        match s.respond(offer) {
            SellerResponse::Accept(price) => {
                return Outcome::Deal {
                    price,
                    rounds: b.rounds(),
                }
            }
            SellerResponse::Counter(counter) => match b.respond(counter) {
                BuyerMove::Accept(price) => {
                    return Outcome::Deal {
                        price,
                        rounds: b.rounds(),
                    }
                }
                BuyerMove::Offer(next) => offer = next,
                BuyerMove::Abort => return Outcome::NoDeal { rounds: b.rounds() },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::panic)]

    use super::*;

    fn seller(list: u64, reservation: u64) -> SellerPolicy {
        SellerPolicy {
            list: Money::from_units(list),
            reservation: Money::from_units(reservation),
            concession: 0.1,
            strategy: ConcessionStrategy::Proportional,
        }
    }

    fn buyer(budget: u64) -> BuyerPolicy {
        BuyerPolicy {
            budget: Money::from_units(budget),
            opening_fraction: 0.6,
            raise: 0.1,
            max_rounds: 20,
        }
    }

    #[test]
    fn generous_buyer_gets_a_deal() {
        match negotiate(seller(100, 70), buyer(120)) {
            Outcome::Deal { price, rounds } => {
                assert!(
                    price >= Money::from_units(70),
                    "never below reservation: {price}"
                );
                assert!(
                    price <= Money::from_units(120),
                    "never above budget: {price}"
                );
                assert!(rounds >= 1);
            }
            Outcome::NoDeal { .. } => panic!("expected a deal"),
        }
    }

    #[test]
    fn poor_buyer_walks_away() {
        // budget far below reservation
        match negotiate(seller(100, 90), buyer(30)) {
            Outcome::NoDeal { rounds } => assert!(rounds <= 20),
            Outcome::Deal { price, .. } => panic!("impossible deal at {price}"),
        }
    }

    #[test]
    fn deal_price_is_at_most_list() {
        for budget in [80u64, 100, 150, 500] {
            if let Outcome::Deal { price, .. } = negotiate(seller(100, 60), buyer(budget)) {
                assert!(price <= Money::from_units(100), "deal above list: {price}");
            }
        }
    }

    #[test]
    fn seller_never_concedes_below_reservation() {
        let mut s = SellerSession::open(seller(100, 80));
        for _ in 0..50 {
            match s.respond(Money::from_units(1)) {
                SellerResponse::Counter(ask) => {
                    assert!(ask >= Money::from_units(80));
                }
                SellerResponse::Accept(_) => panic!("must not accept $1"),
            }
        }
        assert_eq!(s.ask(), Money::from_units(80));
    }

    #[test]
    fn buyer_never_offers_above_budget() {
        let mut b = BuyerSession::open(buyer(100), Money::from_units(200));
        let mut last = b.opening_offer();
        assert!(last <= Money::from_units(100));
        for _ in 0..30 {
            match b.respond(Money::from_units(500)) {
                BuyerMove::Offer(o) => {
                    assert!(o <= Money::from_units(100));
                    assert!(o >= last, "offers must be monotone");
                    last = o;
                }
                BuyerMove::Abort => return,
                BuyerMove::Accept(_) => panic!("cannot accept above budget"),
            }
        }
        panic!("buyer must eventually abort against an immovable seller");
    }

    #[test]
    fn buyer_accepts_affordable_near_counter() {
        let mut b = BuyerSession::open(buyer(100), Money::from_units(100));
        let opening = b.opening_offer(); // 60
        let close = opening.scale(1.05);
        match b.respond(close) {
            BuyerMove::Accept(p) => assert_eq!(p, close),
            other => panic!("expected accept, got {other:?}"),
        }
    }

    #[test]
    fn with_margin_builds_reservation() {
        let p = SellerPolicy::with_margin(Money::from_units(100), 0.7, 0.1);
        assert_eq!(p.reservation, Money::from_units(70));
        let p = SellerPolicy::with_margin(Money::from_units(100), 2.0, 0.1);
        assert_eq!(
            p.reservation,
            Money::from_units(100),
            "fraction clamps to 1"
        );
    }

    #[test]
    fn outcome_price_accessor() {
        assert_eq!(
            Outcome::Deal {
                price: Money(5),
                rounds: 1
            }
            .price(),
            Some(Money(5))
        );
        assert_eq!(Outcome::NoDeal { rounds: 3 }.price(), None);
    }

    #[test]
    fn time_dependent_ask_reaches_reservation_at_the_deadline() {
        let policy = SellerPolicy::with_margin(Money::from_units(100), 0.6, 0.0).with_strategy(
            ConcessionStrategy::TimeDependent {
                deadline_rounds: 5,
                exponent: 2.0,
            },
        );
        let mut s = SellerSession::open(policy);
        let mut last_ask = policy.list;
        for round in 1..=5 {
            match s.respond(Money::from_units(1)) {
                SellerResponse::Counter(ask) => {
                    assert!(ask <= last_ask, "asks never rise: round {round}");
                    last_ask = ask;
                }
                SellerResponse::Accept(_) => panic!("$1 is never acceptable"),
            }
        }
        assert_eq!(
            last_ask,
            Money::from_units(60),
            "deadline ask = reservation"
        );
    }

    #[test]
    fn boulware_holds_higher_asks_than_conceder_early() {
        let base = SellerPolicy::with_margin(Money::from_units(100), 0.5, 0.0);
        let mut boulware =
            SellerSession::open(base.with_strategy(ConcessionStrategy::TimeDependent {
                deadline_rounds: 10,
                exponent: 4.0,
            }));
        let mut conceder =
            SellerSession::open(base.with_strategy(ConcessionStrategy::TimeDependent {
                deadline_rounds: 10,
                exponent: 0.25,
            }));
        // after 3 lowball rounds, the Boulware ask is far above the
        // Conceder ask
        let mut asks = (Money(0), Money(0));
        for _ in 0..3 {
            if let SellerResponse::Counter(a) = boulware.respond(Money::from_units(1)) {
                asks.0 = a;
            }
            if let SellerResponse::Counter(a) = conceder.respond(Money::from_units(1)) {
                asks.1 = a;
            }
        }
        assert!(
            asks.0 > asks.1,
            "boulware {} must stay above conceder {}",
            asks.0,
            asks.1
        );
    }

    #[test]
    fn boulware_extracts_no_less_than_conceder_from_the_same_buyer() {
        let base = SellerPolicy::with_margin(Money::from_units(100), 0.5, 0.0);
        let buyer = BuyerPolicy {
            budget: Money::from_units(95),
            opening_fraction: 0.4,
            raise: 0.15,
            max_rounds: 20,
        };
        let boulware = negotiate(
            base.with_strategy(ConcessionStrategy::TimeDependent {
                deadline_rounds: 12,
                exponent: 4.0,
            }),
            buyer,
        );
        let conceder = negotiate(
            base.with_strategy(ConcessionStrategy::TimeDependent {
                deadline_rounds: 12,
                exponent: 0.25,
            }),
            buyer,
        );
        let (Some(pb), Some(pc)) = (boulware.price(), conceder.price()) else {
            panic!("both tactics must close against a 95-budget buyer: {boulware:?} {conceder:?}");
        };
        assert!(pb >= pc, "stubbornness must not sell cheaper: {pb} vs {pc}");
    }

    #[test]
    fn higher_budget_never_hurts() {
        // monotonicity: raising the budget cannot turn a deal into no-deal
        let s = seller(100, 70);
        let low = negotiate(s, buyer(90));
        let high = negotiate(s, buyer(140));
        if low.price().is_some() {
            assert!(high.price().is_some());
        }
    }
}
