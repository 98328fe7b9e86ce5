//! The Marketplace agent (MSA).
//!
//! Paper §3.2: *"Marketplace is a place that lets the Mobile Agent of the
//! Buyer and the Mobile Agent of the Seller trade with each other. And
//! provide kinds of trading services such as: information query,
//! negotiations, and auctions."*
//!
//! One [`MarketplaceAgent`] runs per marketplace host. Sellers push
//! listings via [`kinds::CATALOG_SYNC`]; visiting MBAs (or any agent)
//! query, buy, negotiate and bid via the [`crate::protocol`] messages. A
//! per-item sales ledger answers [`kinds::TOP_SELLERS`] — the
//! non-personalized baseline recommender of §2.3 ("top overall sellers on
//! a site") reads it.

use crate::auction::{AuctionOutcome, BidderId, DutchAuction, EnglishAuction, VickreyAuction};
use crate::merchandise::{ItemId, Merchandise, Money};
use crate::negotiation::{SellerPolicy, SellerResponse, SellerSession};
use crate::protocol::{
    kinds, AuctionBid, AuctionClosed, AuctionJoin, AuctionOpen, AuctionStatus, BuyConfirm,
    BuyRequest, CatalogSync, DutchOpen, IntentId, LedgerQuery, LedgerReply, Listing,
    NegotiateAccept, NegotiateCounter, NegotiateOffer, Offer, QueryRequest, QueryResponse,
    TopSellers, TopSellersList,
};
use agentsim::agent::{Agent, Ctx, DurablePolicy};
use agentsim::clock::SimDuration;
use agentsim::ids::AgentId;
use agentsim::message::Message;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// Agent-type tag of [`MarketplaceAgent`].
pub const MARKETPLACE_TYPE: &str = "marketplace";

#[derive(Debug, Serialize, Deserialize)]
struct OpenNegotiation {
    buyer: AgentId,
    item: u64,
    session: SellerSession,
}

/// Either auction engine behind one listing.
#[derive(Debug, Serialize, Deserialize)]
enum AuctionEngine {
    /// Open ascending-price.
    English(EnglishAuction),
    /// Sealed-bid second-price.
    Sealed(VickreyAuction),
    /// Descending-price clock.
    Dutch(DutchAuction),
}

impl AuctionEngine {
    fn minimum_bid(&self) -> crate::merchandise::Money {
        match self {
            AuctionEngine::English(a) => a.minimum_bid(),
            AuctionEngine::Sealed(a) => a.reserve(),
            AuctionEngine::Dutch(a) => a.current_price(),
        }
    }

    fn leading_bid(&self) -> Option<crate::merchandise::Money> {
        match self {
            AuctionEngine::English(a) => a.leader().map(|(_, p)| p),
            AuctionEngine::Sealed(_) => None, // sealed bids stay sealed
            AuctionEngine::Dutch(_) => None,  // nobody is "leading" a clock
        }
    }

    fn is_sealed(&self) -> bool {
        matches!(self, AuctionEngine::Sealed(_))
    }

    fn is_closed(&self) -> bool {
        match self {
            AuctionEngine::English(a) => a.is_closed(),
            AuctionEngine::Sealed(a) => a.is_closed(),
            AuctionEngine::Dutch(a) => a.is_closed(),
        }
    }

    fn place_bid(
        &mut self,
        bidder: BidderId,
        amount: crate::merchandise::Money,
    ) -> Result<(), crate::auction::AuctionError> {
        match self {
            AuctionEngine::English(a) => a.place_bid(bidder, amount),
            AuctionEngine::Sealed(a) => a.place_bid(bidder, amount),
            AuctionEngine::Dutch(a) => a.place_bid(bidder, amount),
        }
    }

    fn close(&mut self) -> AuctionOutcome {
        match self {
            AuctionEngine::English(a) => a.close(),
            AuctionEngine::Sealed(a) => a.close(),
            AuctionEngine::Dutch(a) => a.close(),
        }
    }
}

/// Timer-tag bit distinguishing a Dutch price-drop tick from an auction
/// close deadline (both carry the item id in the low bits).
const DUTCH_TICK_BIT: u64 = 1 << 63;

#[derive(Debug, Serialize, Deserialize)]
struct OpenAuction {
    engine: AuctionEngine,
    joiners: BTreeSet<AgentId>,
    /// Tick interval for Dutch auctions (None otherwise).
    #[serde(default)]
    tick_us: Option<u64>,
    /// Sim time an English or sealed auction closes (None for Dutch).
    #[serde(default)]
    closes_at_us: Option<u64>,
}

/// A BRA's latest settled purchase: the ledger keeps one per BRA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LedgerEntry {
    /// Sequence number of the BRA's latest settled intent.
    seq: u64,
    /// The confirmation that intent was sold under.
    confirm: BuyConfirm,
}

/// One journalled change of marketplace state. A delta records the input
/// of a deterministic state transition, so replaying the deltas logged
/// since a capsule over that capsule rebuilds the state exactly.
#[derive(Debug, Serialize, Deserialize)]
enum MarketDelta {
    /// Listings added or replaced by a seller's catalog sync.
    Catalog(Vec<Listing>),
    /// A sale settled at `confirm` under `intent`.
    Sale {
        intent: IntentId,
        confirm: BuyConfirm,
    },
    /// A negotiation offer from `buyer` on `item`: opens the session or
    /// steps it (an accepted offer closes it).
    Offer {
        buyer: AgentId,
        item: u64,
        offer: Money,
    },
    /// An English or sealed auction opened, to close at `closes_at_us`.
    Open {
        open: AuctionOpen,
        closes_at_us: u64,
    },
    /// A Dutch auction opened.
    OpenDutch(DutchOpen),
    /// `joiner` joined the auction on `item`.
    Join { item: u64, joiner: AgentId },
    /// `bidder` bid `amount` on `item`; the bidder joins whether or not
    /// the bid is accepted.
    Bid {
        item: u64,
        bidder: AgentId,
        amount: Money,
    },
    /// One Dutch clock tick on the auction of this item.
    Tick(u64),
    /// The auction on this item closed.
    Close(u64),
}

/// How [`MarketplaceAgent::settle`] resolved a sale.
enum Settlement {
    /// A new sale, journalled and recorded.
    Sold(BuyConfirm),
    /// The intent already settled here: its recorded confirmation.
    Duplicate(BuyConfirm),
    /// The intent is older than the latest its BRA settled here.
    Stale,
}

/// The marketplace service agent.
///
/// On a durable host it journals one small forced delta per state change
/// — reads journal nothing — and the host captures its capsule only at
/// creation and at checkpoints ([`DurablePolicy::Deltas`]).
#[derive(Debug, Serialize, Deserialize)]
pub struct MarketplaceAgent {
    name: String,
    listings: BTreeMap<u64, Listing>,
    sales: BTreeMap<u64, u32>,
    negotiations: Vec<OpenNegotiation>,
    auctions: BTreeMap<u64, OpenAuction>,
    /// Purchase ledger keyed by BRA (raw agent id): the latest intent
    /// each BRA settled here and its confirmation. A BRA drives one
    /// purchase at a time, so its latest intent is the only one it can
    /// still retry or ask about; the ledger grows with the number of
    /// BRAs, not of purchases. A repeated [`kinds::BUY_REQUEST`] under
    /// the recorded intent resends the original confirmation, an older
    /// intent is refused, and [`kinds::LEDGER_QUERY`] answers from it —
    /// together these give crashed buyers at-most-once purchases.
    #[serde(default)]
    ledger: BTreeMap<u64, LedgerEntry>,
}

impl MarketplaceAgent {
    /// Create an empty marketplace.
    pub fn new(name: impl Into<String>) -> Self {
        MarketplaceAgent {
            name: name.into(),
            listings: BTreeMap::new(),
            sales: BTreeMap::new(),
            negotiations: Vec::new(),
            auctions: BTreeMap::new(),
            ledger: BTreeMap::new(),
        }
    }

    /// The confirmation recorded for `intent`, if that purchase settled
    /// and is still its BRA's latest.
    pub fn ledger_entry(&self, intent: IntentId) -> Option<&BuyConfirm> {
        self.ledger
            .get(&intent.bra().0)
            .filter(|e| e.seq == intent.seq())
            .map(|e| &e.confirm)
    }

    /// Number of BRAs with a settled purchase in the ledger.
    pub fn ledger_len(&self) -> usize {
        self.ledger.len()
    }

    /// Number of live listings.
    pub fn listing_count(&self) -> usize {
        self.listings.len()
    }

    /// Units sold of `item`.
    pub fn units_sold(&self, item: ItemId) -> u32 {
        self.sales.get(&item.0).copied().unwrap_or(0)
    }

    /// Re-apply journalled deltas (as logged through
    /// [`Ctx::journal_forced_delta`]) in log order; returns how many
    /// applied. Unreadable deltas are skipped.
    pub fn replay(&mut self, deltas: &[serde_json::Value]) -> usize {
        let mut applied = 0;
        for delta in deltas {
            if let Ok(delta) = serde_json::from_value::<MarketDelta>(delta.clone()) {
                self.apply(delta);
                applied += 1;
            }
        }
        applied
    }

    /// Journal `delta` as a forced record, before the reply it justifies
    /// is sent. Builds nothing on a non-durable host.
    fn journal(ctx: &mut Ctx<'_>, delta: &MarketDelta) {
        if ctx.durable() {
            match serde_json::to_value(delta) {
                Ok(value) => ctx.journal_forced_delta(value),
                Err(e) => ctx.note(format!("marketplace: delta serialize failed: {e}")),
            }
        }
    }

    /// Apply one state change; the live handlers and [`Self::replay`]
    /// share these transitions.
    fn apply(&mut self, delta: MarketDelta) {
        match delta {
            MarketDelta::Catalog(listings) => {
                for listing in listings {
                    self.listings.insert(listing.item.id.0, listing);
                }
            }
            MarketDelta::Sale { intent, confirm } => self.apply_sale(intent, confirm),
            MarketDelta::Offer { buyer, item, offer } => {
                self.apply_offer(buyer, item, offer);
            }
            MarketDelta::Open { open, closes_at_us } => self.apply_open(&open, closes_at_us),
            MarketDelta::OpenDutch(open) => self.apply_open_dutch(&open),
            MarketDelta::Join { item, joiner } => {
                if let Some(entry) = self.auctions.get_mut(&item) {
                    entry.joiners.insert(joiner);
                }
            }
            MarketDelta::Bid {
                item,
                bidder,
                amount,
            } => {
                let _ = self.apply_bid(item, bidder, amount);
            }
            MarketDelta::Tick(item) => {
                self.apply_tick(item);
            }
            MarketDelta::Close(item) => {
                self.apply_close(item);
            }
        }
    }

    fn apply_sale(&mut self, intent: IntentId, confirm: BuyConfirm) {
        *self.sales.entry(confirm.item.id.0).or_insert(0) += 1;
        self.ledger.insert(
            intent.bra().0,
            LedgerEntry {
                seq: intent.seq(),
                confirm,
            },
        );
    }

    /// Step (or open) `buyer`'s negotiation on `item`; an accepted offer
    /// closes the session. `None` if the item is not listed.
    fn apply_offer(&mut self, buyer: AgentId, item: u64, offer: Money) -> Option<SellerResponse> {
        let listing = self.listings.get(&item)?;
        let policy = SellerPolicy {
            list: listing.item.list_price,
            reservation: listing.reservation,
            concession: listing.concession,
            strategy: Default::default(),
        };
        let idx = match self
            .negotiations
            .iter()
            .position(|n| n.buyer == buyer && n.item == item)
        {
            Some(i) => i,
            None => {
                self.negotiations.push(OpenNegotiation {
                    buyer,
                    item,
                    session: SellerSession::open(policy),
                });
                self.negotiations.len() - 1
            }
        };
        let response = self.negotiations[idx].session.respond(offer);
        if matches!(response, SellerResponse::Accept(_)) {
            self.negotiations.swap_remove(idx);
        }
        Some(response)
    }

    fn apply_open(&mut self, open: &AuctionOpen, closes_at_us: u64) {
        let engine = if open.sealed {
            AuctionEngine::Sealed(VickreyAuction::open(open.item, open.reserve))
        } else {
            AuctionEngine::English(EnglishAuction::open(
                open.item,
                open.reserve,
                open.increment,
            ))
        };
        self.auctions.insert(
            open.item.0,
            OpenAuction {
                engine,
                joiners: BTreeSet::new(),
                tick_us: None,
                closes_at_us: Some(closes_at_us),
            },
        );
    }

    fn apply_open_dutch(&mut self, open: &DutchOpen) {
        let engine = AuctionEngine::Dutch(DutchAuction::open(
            open.item,
            open.start,
            open.floor,
            open.decrement,
        ));
        self.auctions.insert(
            open.item.0,
            OpenAuction {
                engine,
                joiners: BTreeSet::new(),
                tick_us: Some(open.tick_us),
                closes_at_us: None,
            },
        );
    }

    /// `None` if no auction runs on `item`.
    fn apply_bid(
        &mut self,
        item: u64,
        bidder: AgentId,
        amount: Money,
    ) -> Option<Result<(), crate::auction::AuctionError>> {
        let entry = self.auctions.get_mut(&item)?;
        entry.joiners.insert(bidder);
        Some(entry.engine.place_bid(BidderId(bidder.0), amount))
    }

    /// Whether the Dutch clock on `item` dropped its price (`false`: it
    /// floored out and closed, or no open Dutch auction runs there).
    fn apply_tick(&mut self, item: u64) -> bool {
        match self.auctions.get_mut(&item).map(|a| &mut a.engine) {
            Some(AuctionEngine::Dutch(dutch)) => dutch.tick(),
            _ => false,
        }
    }

    /// Close and remove the auction on `item`, counting a sale.
    fn apply_close(&mut self, item: u64) -> Option<(OpenAuction, AuctionOutcome)> {
        let mut entry = self.auctions.remove(&item)?;
        let outcome = entry.engine.close();
        if matches!(outcome, AuctionOutcome::Sold { .. }) {
            *self.sales.entry(item).or_insert(0) += 1;
        }
        Some((entry, outcome))
    }

    /// What the ledger says about a sale under `intent`: `None` if it is
    /// fresh (newer than the latest its BRA settled here), else the
    /// recorded duplicate or a stale refusal.
    fn ledger_check(&self, intent: IntentId) -> Option<Settlement> {
        let entry = self.ledger.get(&intent.bra().0)?;
        match intent.seq().cmp(&entry.seq) {
            Ordering::Greater => None,
            Ordering::Equal => Some(Settlement::Duplicate(entry.confirm.clone())),
            Ordering::Less => Some(Settlement::Stale),
        }
    }

    /// Settle a sale under `intent` at `confirm`: dedupe against the
    /// ledger, then journal the sale (forced) and record it. Every sale a
    /// buyer is told about — direct or negotiated — goes through here.
    fn settle(&mut self, ctx: &mut Ctx<'_>, intent: IntentId, confirm: BuyConfirm) -> Settlement {
        match self.ledger_check(intent) {
            Some(Settlement::Duplicate(confirm)) => {
                ctx.note(format!(
                    "marketplace {}: duplicate buy for intent {intent} answered from ledger",
                    self.name
                ));
                Settlement::Duplicate(confirm)
            }
            Some(_) => {
                ctx.note(format!(
                    "marketplace {}: stale intent {intent} refused",
                    self.name
                ));
                Settlement::Stale
            }
            None => {
                let sold = confirm.clone();
                let delta = MarketDelta::Sale { intent, confirm };
                Self::journal(ctx, &delta);
                self.apply(delta);
                Settlement::Sold(sold)
            }
        }
    }

    fn merchandise(&self, item: ItemId) -> Option<&Merchandise> {
        self.listings.get(&item.0).map(|l| &l.item)
    }

    fn answer_query(&self, ctx: &mut Ctx<'_>, msg: &Message, req: QueryRequest) {
        let mut scored: Vec<(&Listing, f64)> = self
            .listings
            .values()
            .filter(|l| {
                req.category
                    .as_ref()
                    .map(|c| &l.item.category == c)
                    .unwrap_or(true)
            })
            .map(|l| (l, l.item.keyword_score(&req.keywords)))
            .filter(|(l, s)| {
                *s > 0.0
                    || (req.keywords.is_empty() && req.category.is_some() && {
                        let _ = l;
                        true
                    })
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.item.id.cmp(&b.0.item.id))
        });
        let offers: Vec<Offer> = scored
            .into_iter()
            .take(req.max_results)
            .map(|(l, _)| Offer {
                item: l.item.clone(),
                marketplace: ctx.host(),
                price: l.item.list_price,
            })
            .collect();
        let reply = Message::new(kinds::QUERY_RESPONSE)
            .with_payload(&QueryResponse { offers })
            .expect("query response serializes");
        ctx.reply(msg, reply);
    }

    fn handle_buy(&mut self, ctx: &mut Ctx<'_>, msg: &Message, req: BuyRequest) {
        let Some(item) = self.merchandise(req.item).cloned() else {
            ctx.reply(msg, Message::new(kinds::BUY_REJECT));
            return;
        };
        let price = item.list_price;
        match self.settle(ctx, req.intent, BuyConfirm { item, price }) {
            Settlement::Sold(confirm) | Settlement::Duplicate(confirm) => {
                let reply = Message::new(kinds::BUY_CONFIRM)
                    .with_payload(&confirm)
                    .expect("buy confirm serializes");
                ctx.reply(msg, reply);
            }
            Settlement::Stale => ctx.reply(msg, Message::new(kinds::BUY_REJECT)),
        }
    }

    fn handle_ledger_query(&self, ctx: &mut Ctx<'_>, msg: &Message, query: LedgerQuery) {
        let reply = Message::new(kinds::LEDGER_REPLY)
            .with_payload(&LedgerReply {
                intent: query.intent,
                committed: self.ledger_entry(query.intent).cloned(),
            })
            .expect("ledger reply serializes");
        ctx.reply(msg, reply);
    }

    fn handle_negotiate(&mut self, ctx: &mut Ctx<'_>, msg: &Message, offer: NegotiateOffer) {
        let Some(buyer) = msg.from else {
            ctx.note("marketplace: negotiation from outside the world ignored");
            return;
        };
        if !self.listings.contains_key(&offer.item.0) {
            ctx.reply(msg, Message::new(kinds::NEGOTIATE_REJECT));
            return;
        }
        let delta = MarketDelta::Offer {
            buyer,
            item: offer.item.0,
            offer: offer.offer,
        };
        Self::journal(ctx, &delta);
        match self.apply_offer(buyer, offer.item.0, offer.offer) {
            Some(SellerResponse::Accept(price)) => {
                let item = self
                    .merchandise(offer.item)
                    .cloned()
                    .expect("listing checked above");
                let reply = match self.settle(ctx, offer.intent, BuyConfirm { item, price }) {
                    Settlement::Sold(c) | Settlement::Duplicate(c) => {
                        Message::new(kinds::NEGOTIATE_ACCEPT)
                            .with_payload(&NegotiateAccept {
                                item: c.item,
                                price: c.price,
                            })
                            .expect("accept serializes")
                    }
                    Settlement::Stale => Message::new(kinds::NEGOTIATE_REJECT),
                };
                ctx.reply(msg, reply);
            }
            Some(SellerResponse::Counter(ask)) => {
                let reply = Message::new(kinds::NEGOTIATE_COUNTER)
                    .with_payload(&NegotiateCounter {
                        item: offer.item,
                        ask,
                    })
                    .expect("counter serializes");
                ctx.reply(msg, reply);
            }
            None => ctx.reply(msg, Message::new(kinds::NEGOTIATE_REJECT)),
        }
    }

    fn auction_status(&self, item: ItemId) -> Option<AuctionStatus> {
        self.auctions.get(&item.0).map(|a| AuctionStatus {
            item,
            minimum_bid: a.engine.minimum_bid(),
            leading_bid: a.engine.leading_bid(),
            open: !a.engine.is_closed(),
            sealed: a.engine.is_sealed(),
        })
    }

    fn reply_status(&self, ctx: &mut Ctx<'_>, msg: &Message, kind: &str, item: ItemId) {
        if let Some(status) = self.auction_status(item) {
            let reply = Message::new(kind)
                .with_payload(&status)
                .expect("status serializes");
            ctx.reply(msg, reply);
        }
    }

    fn handle_auction_open(&mut self, ctx: &mut Ctx<'_>, msg: &Message, open: AuctionOpen) {
        if self.merchandise(open.item).is_none() {
            ctx.reply(msg, Message::new(kinds::BID_REJECTED));
            return;
        }
        if !self.auctions.contains_key(&open.item.0) {
            // one auction per item at a time: a second open only reads
            let delta = MarketDelta::Open {
                open,
                closes_at_us: ctx.now().as_micros() + open.duration_us,
            };
            Self::journal(ctx, &delta);
            self.apply(delta);
            ctx.set_timer(SimDuration::from_micros(open.duration_us), open.item.0);
            ctx.note(format!(
                "auction opened on {} ({})",
                open.item,
                if open.sealed { "sealed" } else { "english" }
            ));
        }
        self.reply_status(ctx, msg, kinds::AUCTION_STATUS, open.item);
    }

    fn handle_dutch_open(&mut self, ctx: &mut Ctx<'_>, msg: &Message, open: DutchOpen) {
        if self.merchandise(open.item).is_none() || self.auctions.contains_key(&open.item.0) {
            ctx.reply(msg, Message::new(kinds::BID_REJECTED));
            return;
        }
        let delta = MarketDelta::OpenDutch(open);
        Self::journal(ctx, &delta);
        self.apply(delta);
        ctx.set_timer(
            SimDuration::from_micros(open.tick_us),
            open.item.0 | DUTCH_TICK_BIT,
        );
        ctx.note(format!("auction opened on {} (dutch)", open.item));
        self.reply_status(ctx, msg, kinds::AUCTION_STATUS, open.item);
    }

    /// One Dutch clock tick: drop the price and tell the joiners, or
    /// settle unsold at the floor.
    fn dutch_tick(&mut self, ctx: &mut Ctx<'_>, item_key: u64) {
        let Some(entry) = self.auctions.get(&item_key) else {
            return; // sold (and settled) before this tick fired
        };
        if !matches!(&entry.engine, AuctionEngine::Dutch(d) if !d.is_closed()) {
            return;
        }
        Self::journal(ctx, &MarketDelta::Tick(item_key));
        if self.apply_tick(item_key) {
            let Some(entry) = self.auctions.get(&item_key) else {
                return;
            };
            let tick_us = entry.tick_us.unwrap_or(1_000_000);
            let joiners: Vec<AgentId> = entry.joiners.iter().copied().collect();
            let status = self.auction_status(ItemId(item_key)).expect("entry exists");
            for joiner in joiners {
                let notice = Message::new(kinds::AUCTION_STATUS)
                    .with_payload(&status)
                    .expect("status serializes");
                ctx.send(joiner, notice);
            }
            ctx.set_timer(SimDuration::from_micros(tick_us), item_key | DUTCH_TICK_BIT);
        } else {
            // floored out: settle unsold
            self.settle_auction(ctx, item_key);
        }
    }

    fn handle_auction_join(&mut self, ctx: &mut Ctx<'_>, msg: &Message, join: AuctionJoin) {
        let Some(from) = msg.from else {
            return;
        };
        if !self.auctions.contains_key(&join.item.0) {
            ctx.reply(msg, Message::new(kinds::BID_REJECTED));
            return;
        }
        let delta = MarketDelta::Join {
            item: join.item.0,
            joiner: from,
        };
        Self::journal(ctx, &delta);
        self.apply(delta);
        self.reply_status(ctx, msg, kinds::AUCTION_STATUS, join.item);
    }

    fn handle_auction_bid(&mut self, ctx: &mut Ctx<'_>, msg: &Message, bid: AuctionBid) {
        let Some(from) = msg.from else {
            return;
        };
        if !self.auctions.contains_key(&bid.item.0) {
            ctx.reply(msg, Message::new(kinds::BID_REJECTED));
            return;
        }
        Self::journal(
            ctx,
            &MarketDelta::Bid {
                item: bid.item.0,
                bidder: from,
                amount: bid.amount,
            },
        );
        match self.apply_bid(bid.item.0, from, bid.amount) {
            Some(Ok(())) => {
                let Some(entry) = self.auctions.get(&bid.item.0) else {
                    return;
                };
                let sealed = entry.engine.is_sealed();
                let joiners: Vec<AgentId> = entry.joiners.iter().copied().collect();
                let settled_by_bid = entry.engine.is_closed(); // Dutch: first taker wins
                let status = self.auction_status(bid.item).expect("entry exists");
                let reply = Message::new(kinds::BID_ACCEPTED)
                    .with_payload(&status)
                    .expect("status serializes");
                ctx.reply(msg, reply);
                if settled_by_bid {
                    self.settle_auction(ctx, bid.item.0);
                    return;
                }
                // outbid notification (open auctions only — sealed bids
                // are secret): every other joiner learns the new price
                // floor and may counter-bid
                if !sealed {
                    for joiner in joiners {
                        if joiner != from {
                            let notice = Message::new(kinds::AUCTION_STATUS)
                                .with_payload(&status)
                                .expect("status serializes");
                            ctx.send(joiner, notice);
                        }
                    }
                }
            }
            Some(Err(_)) => self.reply_status(ctx, msg, kinds::BID_REJECTED, bid.item),
            None => {}
        }
    }

    fn settle_auction(&mut self, ctx: &mut Ctx<'_>, item_key: u64) {
        if !self.auctions.contains_key(&item_key) {
            return;
        }
        Self::journal(ctx, &MarketDelta::Close(item_key));
        let Some((entry, outcome)) = self.apply_close(item_key) else {
            return;
        };
        let Some(item) = self.merchandise(ItemId(item_key)).cloned() else {
            return;
        };
        ctx.note(format!("auction closed on {}", ItemId(item_key)));
        for joiner in &entry.joiners {
            let you_won = matches!(
                outcome,
                AuctionOutcome::Sold { winner, .. } if winner == BidderId(joiner.0)
            );
            let notice = Message::new(kinds::AUCTION_CLOSED)
                .with_payload(&AuctionClosed {
                    item: item.clone(),
                    outcome,
                    you_won,
                })
                .expect("closed notice serializes");
            ctx.send(*joiner, notice);
        }
    }

    fn handle_top_sellers(&self, ctx: &mut Ctx<'_>, msg: &Message, req: TopSellers) {
        let mut ranked: Vec<(&Listing, u32)> = self
            .sales
            .iter()
            .filter_map(|(item, n)| self.listings.get(item).map(|l| (l, *n)))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.item.id.cmp(&b.0.item.id)));
        let items: Vec<(Merchandise, u32)> = ranked
            .into_iter()
            .take(req.k)
            .map(|(l, n)| (l.item.clone(), n))
            .collect();
        let reply = Message::new(kinds::TOP_SELLERS_LIST)
            .with_payload(&TopSellersList { items })
            .expect("top sellers serializes");
        ctx.reply(msg, reply);
    }
}

impl Agent for MarketplaceAgent {
    fn agent_type(&self) -> &'static str {
        MARKETPLACE_TYPE
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("marketplace state serializes")
    }

    fn durable_policy(&self) -> DurablePolicy {
        DurablePolicy::Deltas
    }

    fn on_recovered(&mut self, ctx: &mut Ctx<'_>, deltas: &[serde_json::Value]) {
        let replayed = self.replay(deltas);
        if replayed < deltas.len() {
            ctx.note(format!(
                "marketplace {}: {} unreadable journalled deltas skipped",
                self.name,
                deltas.len() - replayed
            ));
        }
        if replayed > 0 {
            ctx.note(format!(
                "marketplace {}: recovered, replayed {replayed} journalled deltas",
                self.name
            ));
        }
        // The auction timers died with the host: re-arm each open
        // auction's close for the instant it was due, and a Dutch clock
        // one tick from now.
        let now_us = ctx.now().as_micros();
        for (key, entry) in &self.auctions {
            if let Some(close) = entry.closes_at_us {
                ctx.set_timer(SimDuration::from_micros(close.saturating_sub(now_us)), *key);
            } else if let Some(tick) = entry.tick_us {
                ctx.set_timer(SimDuration::from_micros(tick), key | DUTCH_TICK_BIT);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.kind.as_str() {
            kinds::CATALOG_SYNC => {
                if let Ok(sync) = msg.payload_as::<CatalogSync>() {
                    let delta = MarketDelta::Catalog(sync.listings);
                    Self::journal(ctx, &delta);
                    self.apply(delta);
                    ctx.reply(&msg, Message::new(kinds::CATALOG_ACK));
                }
            }
            kinds::QUERY_REQUEST => {
                if let Ok(req) = msg.payload_as::<QueryRequest>() {
                    self.answer_query(ctx, &msg, req);
                }
            }
            kinds::BUY_REQUEST => {
                if let Ok(req) = msg.payload_as::<BuyRequest>() {
                    self.handle_buy(ctx, &msg, req);
                }
            }
            kinds::NEGOTIATE_OFFER => {
                if let Ok(offer) = msg.payload_as::<NegotiateOffer>() {
                    self.handle_negotiate(ctx, &msg, offer);
                }
            }
            kinds::AUCTION_OPEN => {
                if let Ok(open) = msg.payload_as::<AuctionOpen>() {
                    self.handle_auction_open(ctx, &msg, open);
                }
            }
            kinds::DUTCH_OPEN => {
                if let Ok(open) = msg.payload_as::<DutchOpen>() {
                    self.handle_dutch_open(ctx, &msg, open);
                }
            }
            kinds::AUCTION_JOIN => {
                if let Ok(join) = msg.payload_as::<AuctionJoin>() {
                    self.handle_auction_join(ctx, &msg, join);
                }
            }
            kinds::AUCTION_BID => {
                if let Ok(bid) = msg.payload_as::<AuctionBid>() {
                    self.handle_auction_bid(ctx, &msg, bid);
                }
            }
            kinds::TOP_SELLERS => {
                if let Ok(req) = msg.payload_as::<TopSellers>() {
                    self.handle_top_sellers(ctx, &msg, req);
                }
            }
            kinds::LEDGER_QUERY => {
                if let Ok(query) = msg.payload_as::<LedgerQuery>() {
                    self.handle_ledger_query(ctx, &msg, query);
                }
            }
            other => {
                ctx.note(format!("marketplace {}: unhandled kind {other}", self.name));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag & DUTCH_TICK_BIT != 0 {
            self.dutch_tick(ctx, tag & !DUTCH_TICK_BIT);
        } else {
            self.settle_auction(ctx, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::panic)]

    use super::*;
    use crate::merchandise::{CategoryPath, Money};
    use crate::terms::TermVector;
    use agentsim::sim::SimWorld;

    fn listing(id: u64, name: &str, price: u64) -> Listing {
        Listing {
            item: Merchandise {
                id: ItemId(id),
                name: name.into(),
                category: CategoryPath::new("books", "programming"),
                terms: TermVector::from_pairs([(name.to_lowercase(), 1.0)]),
                list_price: Money::from_units(price),
                seller: 1,
            },
            reservation: Money::from_units(price * 7 / 10),
            concession: 0.1,
        }
    }

    /// Test probe: records the last reply it received.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Probe {
        last_kind: Option<String>,
        last_payload: Option<serde_json::Value>,
        kinds_seen: Vec<String>,
    }

    impl Agent for Probe {
        fn agent_type(&self) -> &'static str {
            "probe"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Some(fwd) = msg.payload.get("__forward_to_market") {
                // instruction: send inner message to the marketplace
                let market = AgentId(fwd.as_u64().unwrap());
                let kind = msg.payload["kind"].as_str().unwrap().to_string();
                let inner = Message::new(kind).carrying(msg.payload.project("payload"));
                ctx.send(market, inner);
                return;
            }
            self.last_kind = Some(msg.kind.to_string());
            self.kinds_seen.push(msg.kind.to_string());
            self.last_payload = Some(msg.payload.to_value());
        }
    }

    struct Fixture {
        world: SimWorld,
        market: AgentId,
        probe: AgentId,
    }

    fn fixture() -> Fixture {
        fixture_with(None)
    }

    fn fixture_with(durability: Option<agentsim::durable::DurabilityConfig>) -> Fixture {
        let mut world = SimWorld::new(77);
        if let Some(cfg) = durability {
            world.enable_durability(cfg);
        }
        world
            .registry_mut()
            .register_serde::<MarketplaceAgent>(MARKETPLACE_TYPE);
        world.registry_mut().register_serde::<Probe>("probe");
        let mh = world.add_host("market");
        let bh = world.add_host("buyer");
        let mut m = MarketplaceAgent::new("m1");
        for (i, (name, price)) in [("Rust Book", 30u64), ("Go Book", 25), ("Cook Book", 20)]
            .iter()
            .enumerate()
        {
            m.listings
                .insert(i as u64 + 1, listing(i as u64 + 1, name, *price));
        }
        let market = world.create_agent(mh, Box::new(m)).unwrap();
        let probe = world.create_agent(bh, Box::new(Probe::default())).unwrap();
        Fixture {
            world,
            market,
            probe,
        }
    }

    /// Sends `kind`+`payload` from the probe to the market and runs idle.
    fn via_probe<T: Serialize>(f: &mut Fixture, kind: &str, payload: &T) {
        send_via_probe(f, kind, payload);
        f.world.run_until_idle();
    }

    /// Sends without draining the event queue (so pending timers, e.g. an
    /// auction deadline, do not fire); runs a bounded slice of time.
    fn via_probe_bounded<T: Serialize>(f: &mut Fixture, kind: &str, payload: &T) {
        send_via_probe(f, kind, payload);
        f.world
            .run_for(agentsim::clock::SimDuration::from_millis(10));
    }

    fn send_via_probe<T: Serialize>(f: &mut Fixture, kind: &str, payload: &T) {
        let instruction = serde_json::json!({
            "__forward_to_market": f.market.0,
            "kind": kind,
            "payload": serde_json::to_value(payload).unwrap(),
        });
        let mut msg = Message::new("instruction");
        msg.payload = instruction.into();
        f.world.send_external(f.probe, msg).unwrap();
    }

    fn probe_state(f: &Fixture) -> Probe {
        serde_json::from_value(f.world.snapshot_of(f.probe).unwrap()).unwrap()
    }

    #[test]
    fn query_returns_ranked_offers() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::QUERY_REQUEST,
            &QueryRequest {
                keywords: vec!["book".into()],
                category: None,
                max_results: 10,
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::QUERY_RESPONSE));
        let resp: QueryResponse = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(resp.offers.len(), 3);
    }

    #[test]
    fn query_respects_category_and_limit() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::QUERY_REQUEST,
            &QueryRequest {
                keywords: vec!["book".into()],
                category: Some(CategoryPath::new("books", "programming")),
                max_results: 1,
            },
        );
        let p = probe_state(&f);
        let resp: QueryResponse = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(resp.offers.len(), 1);
    }

    #[test]
    fn buy_confirms_and_counts_sale() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::BUY_REQUEST,
            &BuyRequest {
                item: ItemId(1),
                intent: IntentId::new(AgentId(40), 1),
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::BUY_CONFIRM));
        let market: MarketplaceAgent =
            serde_json::from_value(f.world.snapshot_of(f.market).unwrap()).unwrap();
        assert_eq!(market.units_sold(ItemId(1)), 1);
    }

    #[test]
    fn buy_unknown_item_rejected() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::BUY_REQUEST,
            &BuyRequest {
                item: ItemId(999),
                intent: IntentId::new(AgentId(40), 1),
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::BUY_REJECT)
        );
    }

    #[test]
    fn negotiation_low_offer_gets_counter_high_offer_accepted() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::NEGOTIATE_OFFER,
            &NegotiateOffer {
                item: ItemId(1),
                offer: Money::from_units(1),
                intent: IntentId::new(AgentId(40), 1),
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::NEGOTIATE_COUNTER)
        );
        via_probe(
            &mut f,
            kinds::NEGOTIATE_OFFER,
            &NegotiateOffer {
                item: ItemId(1),
                offer: Money::from_units(30),
                intent: IntentId::new(AgentId(40), 1),
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::NEGOTIATE_ACCEPT));
        let accept: NegotiateAccept = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert!(accept.price <= Money::from_units(30));
    }

    #[test]
    fn negotiation_unknown_item_rejected() {
        let mut f = fixture();
        via_probe(
            &mut f,
            kinds::NEGOTIATE_OFFER,
            &NegotiateOffer {
                item: ItemId(42),
                offer: Money::from_units(10),
                intent: IntentId::new(AgentId(40), 1),
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::NEGOTIATE_REJECT)
        );
    }

    #[test]
    fn auction_full_cycle_with_winner_notification() {
        let mut f = fixture();
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_OPEN,
            &AuctionOpen {
                item: ItemId(2),
                reserve: Money::from_units(10),
                increment: Money::from_units(1),
                duration_us: 1_000_000,
                sealed: false,
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::AUCTION_STATUS)
        );
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(2),
                amount: Money::from_units(12),
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::BID_ACCEPTED)
        );
        // low bid rejected
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(2),
                amount: Money::from_units(5),
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::BID_REJECTED)
        );
        // run past the deadline: timer fires, auction settles
        f.world.run_until_idle();
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_CLOSED));
        let closed: AuctionClosed = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert!(closed.you_won);
        assert_eq!(closed.outcome.price(), Some(Money::from_units(12)));
        let market: MarketplaceAgent =
            serde_json::from_value(f.world.snapshot_of(f.market).unwrap()).unwrap();
        assert_eq!(market.units_sold(ItemId(2)), 1);
    }

    #[test]
    fn sealed_auction_hides_bids_and_settles_second_price() {
        let mut f = fixture();
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_OPEN,
            &AuctionOpen {
                item: ItemId(2),
                reserve: Money::from_units(10),
                increment: Money::from_units(0),
                duration_us: 1_000_000,
                sealed: true,
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_STATUS));
        let status: AuctionStatus = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert!(status.sealed);
        assert_eq!(status.leading_bid, None);
        // the probe seals a bid; status must still hide it
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(2),
                amount: Money::from_units(40),
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::BID_ACCEPTED));
        let status: AuctionStatus = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(status.leading_bid, None, "sealed bids must stay sealed");
        // duplicate sealed bid rejected
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(2),
                amount: Money::from_units(50),
            },
        );
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::BID_REJECTED)
        );
        // sole sealed bidder wins at the reserve
        f.world.run_until_idle();
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_CLOSED));
        let closed: AuctionClosed = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert!(closed.you_won);
        assert_eq!(closed.outcome.price(), Some(Money::from_units(10)));
    }

    #[test]
    fn dutch_auction_ticks_down_and_floors_out_unsold() {
        let mut f = fixture();
        via_probe_bounded(
            &mut f,
            kinds::DUTCH_OPEN,
            &DutchOpen {
                item: ItemId(1),
                start: Money::from_units(20),
                floor: Money::from_units(10),
                decrement: Money::from_units(5),
                tick_us: 1_000_000,
            },
        );
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_STATUS));
        let status: AuctionStatus = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(status.minimum_bid, Money::from_units(20));
        // join so we hear the price drops and the close
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_JOIN,
            &AuctionJoin { item: ItemId(1) },
        );
        // a Dutch clock closes at the floor on its own, so running idle
        // is safe
        f.world.run_until_idle();
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_CLOSED));
        let drops = p
            .kinds_seen
            .iter()
            .filter(|k| *k == kinds::AUCTION_STATUS)
            .count();
        assert!(
            drops >= 2,
            "price-drop broadcasts must have arrived: {drops}"
        );
        let closed: AuctionClosed = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(
            closed.outcome.price(),
            None,
            "nobody bid: unsold at the floor"
        );
    }

    #[test]
    fn dutch_auction_first_bid_settles_immediately() {
        let mut f = fixture();
        via_probe_bounded(
            &mut f,
            kinds::DUTCH_OPEN,
            &DutchOpen {
                item: ItemId(1),
                start: Money::from_units(20),
                floor: Money::from_units(10),
                decrement: Money::from_units(5),
                tick_us: 60_000_000, // slow clock: stays at $20
            },
        );
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(1),
                amount: Money::from_units(25),
            },
        );
        let p = probe_state(&f);
        // accepted, then immediately closed at the clock price
        assert!(p.kinds_seen.contains(&kinds::BID_ACCEPTED.to_string()));
        assert_eq!(p.last_kind.as_deref(), Some(kinds::AUCTION_CLOSED));
        let closed: AuctionClosed = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert!(closed.you_won);
        assert_eq!(
            closed.outcome.price(),
            Some(Money::from_units(20)),
            "winner pays the clock price, not the bid"
        );
        let market: MarketplaceAgent =
            serde_json::from_value(f.world.snapshot_of(f.market).unwrap()).unwrap();
        assert_eq!(market.units_sold(ItemId(1)), 1);
    }

    fn buy(f: &mut Fixture, item: u64, intent: IntentId) -> String {
        via_probe(
            f,
            kinds::BUY_REQUEST,
            &BuyRequest {
                item: ItemId(item),
                intent,
            },
        );
        probe_state(f).last_kind.unwrap_or_default()
    }

    fn market_state(f: &Fixture) -> MarketplaceAgent {
        serde_json::from_value(f.world.snapshot_of(f.market).unwrap()).unwrap()
    }

    #[test]
    fn ledger_dedupes_the_latest_intent_and_refuses_older_ones() {
        let mut f = fixture();
        let bra = AgentId(40);
        let first = IntentId::new(bra, 1);
        let second = IntentId::new(bra, 2);
        assert_eq!(buy(&mut f, 1, first), kinds::BUY_CONFIRM);
        // a retry of the same intent is answered, not sold again
        assert_eq!(buy(&mut f, 1, first), kinds::BUY_CONFIRM);
        assert_eq!(market_state(&f).units_sold(ItemId(1)), 1);
        assert_eq!(buy(&mut f, 2, second), kinds::BUY_CONFIRM);
        // the first intent is now older than the BRA's latest: refused
        assert_eq!(buy(&mut f, 1, first), kinds::BUY_REJECT);
        let m = market_state(&f);
        assert_eq!(m.units_sold(ItemId(1)), 1);
        assert_eq!(m.units_sold(ItemId(2)), 1);
        assert_eq!(m.ledger_len(), 1, "one entry per BRA");
        assert!(m.ledger_entry(first).is_none());
        assert_eq!(m.ledger_entry(second).unwrap().item.id, ItemId(2));
    }

    #[test]
    fn negotiated_sales_settle_through_the_ledger() {
        let mut f = fixture();
        let intent = IntentId::new(AgentId(40), 1);
        let offer = NegotiateOffer {
            item: ItemId(1),
            offer: Money::from_units(30),
            intent,
        };
        via_probe(&mut f, kinds::NEGOTIATE_OFFER, &offer);
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::NEGOTIATE_ACCEPT)
        );
        // the same intent negotiated again is the recorded deal
        via_probe(&mut f, kinds::NEGOTIATE_OFFER, &offer);
        assert_eq!(
            probe_state(&f).last_kind.as_deref(),
            Some(kinds::NEGOTIATE_ACCEPT)
        );
        let m = market_state(&f);
        assert_eq!(m.units_sold(ItemId(1)), 1);
        assert!(m.ledger_entry(intent).is_some());
    }

    #[test]
    fn minted_intents_never_wrap_and_each_is_fresh_to_the_ledger() {
        let bra = AgentId(7);
        let mut minted = 0u64;
        let mut market = MarketplaceAgent::new("m");
        let confirm = BuyConfirm {
            item: listing(1, "Rust Book", 30).item,
            price: Money::from_units(30),
        };
        let mut seen = std::collections::HashSet::new();
        let mut first = None;
        for _ in 0..65_537 {
            let intent = IntentId::mint(bra, &mut minted);
            assert!(seen.insert(intent), "intent {intent} minted twice");
            first.get_or_insert(intent);
            assert!(
                market.ledger_check(intent).is_none(),
                "intent {intent} not fresh to the ledger"
            );
            market.apply_sale(intent, confirm.clone());
        }
        // the 65,537th intent differs from the first; the first is now stale
        assert!(matches!(
            market.ledger_check(first.unwrap()),
            Some(Settlement::Stale)
        ));
        assert_eq!(market.units_sold(ItemId(1)), 65_537);
        assert_eq!(market.ledger_len(), 1);
    }

    #[test]
    fn queries_journal_nothing_and_state_changes_journal_forced_deltas() {
        let mut f = fixture_with(Some(agentsim::durable::DurabilityConfig {
            checkpoint_every: 0,
            sync_every: 64,
        }));
        let Some(agentsim::sim::Location::Active(host)) = f.world.location(f.market) else {
            panic!("marketplace active");
        };
        let store = |f: &Fixture| f.world.durable_store(host).unwrap().clone();
        // created with its listings: one forced first capsule
        assert_eq!(store(&f).wal_len(), 1);
        assert_eq!(store(&f).synced_len(), 1, "first capsule forced");
        let query = QueryRequest {
            keywords: vec!["book".into()],
            category: None,
            max_results: 10,
        };
        via_probe(&mut f, kinds::QUERY_REQUEST, &query);
        via_probe(&mut f, kinds::TOP_SELLERS, &TopSellers { k: 2 });
        via_probe(
            &mut f,
            kinds::LEDGER_QUERY,
            &LedgerQuery {
                intent: IntentId::new(AgentId(40), 1),
            },
        );
        assert_eq!(store(&f).wal_len(), 1, "reads journal nothing");
        assert_eq!(
            buy(&mut f, 1, IntentId::new(AgentId(40), 1)),
            kinds::BUY_CONFIRM
        );
        let after = store(&f);
        assert_eq!(after.wal_len(), 2, "one delta for the sale");
        assert_eq!(after.synced_len(), 2, "the sale is forced");
        assert_eq!(after.state().deltas_for(f.market.0).len(), 1);
    }

    /// A crash kills the auction timers with the host; the recovered
    /// marketplace re-arms them, so an English auction still closes at
    /// its deadline and a Dutch clock still runs down, each exactly once.
    #[test]
    fn auctions_open_across_a_host_crash_still_close_once() {
        let mut f = fixture_with(Some(agentsim::durable::DurabilityConfig::default()));
        let Some(agentsim::sim::Location::Active(host)) = f.world.location(f.market) else {
            panic!("marketplace active");
        };
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_OPEN,
            &AuctionOpen {
                item: ItemId(2),
                reserve: Money::from_units(10),
                increment: Money::from_units(1),
                duration_us: 1_000_000,
                sealed: false,
            },
        );
        let opened_at = f.world.now();
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_BID,
            &AuctionBid {
                item: ItemId(2),
                amount: Money::from_units(12),
            },
        );
        via_probe_bounded(
            &mut f,
            kinds::DUTCH_OPEN,
            &DutchOpen {
                item: ItemId(1),
                start: Money::from_units(20),
                floor: Money::from_units(10),
                decrement: Money::from_units(5),
                tick_us: 300_000,
            },
        );
        via_probe_bounded(
            &mut f,
            kinds::AUCTION_JOIN,
            &AuctionJoin { item: ItemId(1) },
        );
        f.world
            .run_for(agentsim::clock::SimDuration::from_millis(400));
        f.world.crash_host(host).unwrap();
        f.world.restart_host(host).unwrap();
        f.world.run_until_idle();
        let closed = probe_state(&f)
            .kinds_seen
            .iter()
            .filter(|k| *k == kinds::AUCTION_CLOSED)
            .count();
        assert_eq!(closed, 2, "each auction closes once");
        let english_close = f
            .world
            .trace()
            .events()
            .iter()
            .find(|e| e.label == "auction closed on item-2")
            .map(|e| e.at)
            .expect("the english auction closed");
        assert!(
            english_close < opened_at + agentsim::clock::SimDuration::from_millis(1_001),
            "closed at its deadline, not a fresh duration after the restart: {english_close:?}"
        );
        let market: MarketplaceAgent =
            serde_json::from_value(f.world.snapshot_of(f.market).unwrap()).unwrap();
        assert_eq!(market.units_sold(ItemId(2)), 1);
    }

    #[test]
    fn top_sellers_ranks_by_units() {
        let mut f = fixture();
        let bra = AgentId(40);
        let mut minted = 0;
        for _ in 0..3 {
            buy(&mut f, 2, IntentId::mint(bra, &mut minted));
        }
        buy(&mut f, 1, IntentId::mint(bra, &mut minted));
        via_probe(&mut f, kinds::TOP_SELLERS, &TopSellers { k: 2 });
        let p = probe_state(&f);
        assert_eq!(p.last_kind.as_deref(), Some(kinds::TOP_SELLERS_LIST));
        let list: TopSellersList = serde_json::from_value(p.last_payload.unwrap()).unwrap();
        assert_eq!(list.items.len(), 2);
        assert_eq!(list.items[0].0.id, ItemId(2));
        assert_eq!(list.items[0].1, 3);
    }
}
