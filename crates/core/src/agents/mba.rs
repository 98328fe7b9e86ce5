//! The Mobile Buyer Agent (MBA).
//!
//! §3.3: *"MBA created by BRA. When consumer decides to query, buy or
//! auction BRA will create MBA and assign specified tasks. MBA will
//! migrate to marketplaces in E-Commerce and represent consumer to
//! complete the assigned task."*
//!
//! The MBA is the only routinely-migrating agent: it carries its task and
//! collected results as serde state, visits one or more marketplaces
//! (§5.1 claim 3: *"the MBA can collect merchandise information between
//! more th\[a\]n two online marketplaces"*), then returns home where the
//! platform authenticates its travel permit before the BSMA reactivates
//! the waiting BRA.

use crate::agents::msg::{
    kinds, BuyMode, MarketRef, MarketReport, MarketStatus, MbaResult, MbaReturned,
};
use crate::profile::ConsumerId;
use agentsim::agent::{Agent, Ctx};
use agentsim::clock::SimDuration;
use agentsim::ids::{AgentId, HostId};
use agentsim::message::Message;
use ecp::merchandise::{CategoryPath, ItemId, Money};
use ecp::negotiation::{BuyerMove, BuyerPolicy, BuyerSession};
use ecp::protocol::{
    self as ecpk, AuctionBid, AuctionClosed, AuctionJoin, AuctionStatus, BuyConfirm, BuyRequest,
    IntentId, LedgerQuery, LedgerReply, NegotiateAccept, NegotiateCounter, NegotiateOffer, Offer,
    QueryRequest, QueryResponse,
};
use serde::{Deserialize, Serialize};

/// Agent-type tag of [`MobileBuyerAgent`].
pub const MBA_TYPE: &str = "mba";

/// Timer tag for retrying the trip home when the home host is
/// unreachable. Market-wait timers use the market index as tag, so this
/// sentinel can never collide.
const HOME_RETRY_TAG: u64 = u64::MAX;

/// Backoff base for home-trip retries (doubles per attempt).
const HOME_RETRY_BASE_US: u64 = 100_000;
/// Cap on a single home-trip retry delay.
const HOME_RETRY_CAP_US: u64 = 2_000_000;
/// Home-trip retries before the MBA gives up and disposes itself (the
/// BSMA watchdog has long since declared it lost by then).
const HOME_RETRY_LIMIT: u32 = 16;

/// The MBA's assigned task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MbaTask {
    /// Collect offers across the itinerary.
    Query {
        /// Search keywords.
        keywords: Vec<String>,
        /// Optional category filter.
        category: Option<CategoryPath>,
        /// Offers per marketplace.
        max_results: usize,
    },
    /// Buy one item at the (single) target marketplace.
    Buy {
        /// Item to buy.
        item: ItemId,
        /// Buying mode.
        mode: BuyMode,
        /// Purchase-intent id minted by the BRA. Carried on every
        /// buy/negotiate message so the marketplace ledger can dedupe
        /// retries of the same purchase (at-most-once).
        intent: IntentId,
    },
    /// Bid in an auction up to `limit`.
    Auction {
        /// Auctioned item.
        item: ItemId,
        /// Price ceiling.
        limit: Money,
    },
}

impl MbaTask {
    fn figure(&self) -> &'static str {
        match self {
            MbaTask::Query { .. } => "fig4.2",
            _ => "fig4.3",
        }
    }
}

/// The Mobile Buyer Agent.
#[derive(Debug, Serialize, Deserialize)]
pub struct MobileBuyerAgent {
    home: HostId,
    bsma: AgentId,
    bra: AgentId,
    consumer: ConsumerId,
    task: MbaTask,
    markets: Vec<MarketRef>,
    next_market: usize,
    offers: Vec<Offer>,
    result: Option<MbaResult>,
    negotiation: Option<BuyerSession>,
    my_last_bid: Option<Money>,
    bids_placed: u32,
    /// Per-marketplace outcome tags carried home for the BRA.
    #[serde(default)]
    reports: Vec<MarketReport>,
    /// True between sending a request to the current marketplace and
    /// receiving its first reply; gates the no-reply watchdog.
    #[serde(default)]
    awaiting_reply: bool,
    /// How long to wait for the first reply at a marketplace before
    /// marking it [`MarketStatus::NoReply`] and moving on. 0 disables the
    /// watchdog (pre-chaos behaviour).
    #[serde(default)]
    market_wait_us: u64,
    /// Home-trip retry attempts so far.
    #[serde(default)]
    home_attempts: u32,
}

impl MobileBuyerAgent {
    /// Create an MBA for `task`, visiting `markets` in order.
    pub fn new(
        home: HostId,
        bsma: AgentId,
        bra: AgentId,
        consumer: ConsumerId,
        task: MbaTask,
        markets: Vec<MarketRef>,
    ) -> Self {
        MobileBuyerAgent {
            home,
            bsma,
            bra,
            consumer,
            task,
            markets,
            next_market: 0,
            offers: Vec::new(),
            result: None,
            negotiation: None,
            my_last_bid: None,
            bids_placed: 0,
            reports: Vec::new(),
            awaiting_reply: false,
            market_wait_us: 0,
            home_attempts: 0,
        }
    }

    /// Enable the per-marketplace no-reply watchdog with the given wait.
    pub fn with_market_wait_us(mut self, market_wait_us: u64) -> Self {
        self.market_wait_us = market_wait_us;
        self
    }

    fn current_market(&self) -> Option<MarketRef> {
        self.markets.get(self.next_market).copied()
    }

    fn go_home(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.host() == self.home {
            // never left (all dispatches refused): report in place
            self.deliver_result_local(ctx);
        } else {
            ctx.dispatch_self(self.home);
        }
    }

    /// Hand the result to the BRA, notify the BSMA and dispose — the MBA
    /// is already on its home host (arrived, or never managed to leave).
    fn deliver_result_local(&mut self, ctx: &mut Ctx<'_>) {
        // The trip is over and the result is in hand: hand it over even
        // if the deadline lapsed en route — dropping the final local hop
        // would waste the whole trip.
        if ctx.deadline().is_some() {
            ctx.clear_deadline();
        }
        let result = self.result.clone().unwrap_or(MbaResult::Offers {
            offers: self.offers.clone(),
            reports: self.reports.clone(),
        });
        let msg = Message::new(kinds::MBA_RESULT)
            .with_payload(&result)
            .expect("result serializes");
        ctx.send(self.bra, msg);
        let notice = Message::new(kinds::MBA_RETURNED)
            .with_payload(&MbaReturned {
                mba: ctx.self_id(),
                bra: self.bra,
                reports: self.reports.clone(),
            })
            .expect("returned serializes");
        ctx.send(self.bsma, notice);
        ctx.dispose_self();
    }

    fn advance_or_home(&mut self, ctx: &mut Ctx<'_>) {
        self.next_market += 1;
        match self.current_market() {
            Some(market) if matches!(self.task, MbaTask::Query { .. }) => {
                ctx.dispatch_self(market.host);
            }
            _ => {
                if self.result.is_none() {
                    self.result = Some(MbaResult::Offers {
                        offers: self.offers.clone(),
                        reports: self.reports.clone(),
                    });
                }
                self.go_home(ctx);
            }
        }
    }

    fn finish_with(&mut self, ctx: &mut Ctx<'_>, result: MbaResult) {
        let fig = self.task.figure();
        let step = if fig == "fig4.2" { "step11" } else { "step10" };
        ctx.note(format!("{fig}/{step} marketplace result received by mba"));
        self.result = Some(result);
        self.go_home(ctx);
    }

    fn start_at_market(&mut self, ctx: &mut Ctx<'_>) {
        let Some(market) = self.current_market() else {
            // empty itinerary: nothing to do
            self.result = Some(MbaResult::Offers {
                offers: Vec::new(),
                reports: self.reports.clone(),
            });
            self.go_home(ctx);
            return;
        };
        let fig = self.task.figure();
        let step = if fig == "fig4.2" { "step10" } else { "step09" };
        ctx.note(format!("{fig}/{step} mba at {} executing task", ctx.host()));
        self.awaiting_reply = true;
        if self.market_wait_us > 0 {
            ctx.set_timer(
                SimDuration::from_micros(self.market_wait_us),
                self.next_market as u64,
            );
        }
        match &self.task {
            MbaTask::Query {
                keywords,
                category,
                max_results,
            } => {
                let req = QueryRequest {
                    keywords: keywords.clone(),
                    category: category.clone(),
                    max_results: *max_results,
                };
                let msg = Message::new(ecpk::kinds::QUERY_REQUEST)
                    .with_payload(&req)
                    .expect("query serializes");
                ctx.send(market.agent, msg);
            }
            MbaTask::Buy { item, mode, intent } => match mode {
                BuyMode::Direct => {
                    let msg = Message::new(ecpk::kinds::BUY_REQUEST)
                        .with_payload(&BuyRequest {
                            item: *item,
                            intent: *intent,
                        })
                        .expect("buy serializes");
                    ctx.send(market.agent, msg);
                }
                BuyMode::Negotiate {
                    budget,
                    opening_fraction,
                    raise,
                    max_rounds,
                } => {
                    let policy = BuyerPolicy {
                        budget: *budget,
                        opening_fraction: *opening_fraction,
                        raise: *raise,
                        max_rounds: *max_rounds,
                    };
                    // the budget doubles as the price reference for the
                    // opening offer; the seller's counters steer from there
                    let mut session = BuyerSession::open(policy, *budget);
                    let opening = session.opening_offer();
                    self.negotiation = Some(session);
                    let msg = Message::new(ecpk::kinds::NEGOTIATE_OFFER)
                        .with_payload(&NegotiateOffer {
                            item: *item,
                            offer: opening,
                            intent: *intent,
                        })
                        .expect("offer serializes");
                    ctx.send(market.agent, msg);
                }
            },
            MbaTask::Auction { item, .. } => {
                let msg = Message::new(ecpk::kinds::AUCTION_JOIN)
                    .with_payload(&AuctionJoin { item: *item })
                    .expect("join serializes");
                ctx.send(market.agent, msg);
            }
        }
    }

    fn maybe_bid(&mut self, ctx: &mut Ctx<'_>, status: &AuctionStatus) {
        let MbaTask::Auction { item, limit } = &self.task else {
            return;
        };
        if !status.open {
            return;
        }
        if status.sealed {
            // Vickrey: bid the true limit once — the dominant strategy —
            // then wait for the close.
            if self.my_last_bid.is_none() && status.minimum_bid <= *limit {
                let Some(market) = self.current_market() else {
                    return;
                };
                self.my_last_bid = Some(*limit);
                self.bids_placed += 1;
                let msg = Message::new(ecpk::kinds::AUCTION_BID)
                    .with_payload(&AuctionBid {
                        item: *item,
                        amount: *limit,
                    })
                    .expect("bid serializes");
                ctx.send(market.agent, msg);
            }
            return;
        }
        let leading_ours = match (self.my_last_bid, status.leading_bid) {
            (Some(mine), Some(lead)) => lead <= mine,
            _ => false,
        };
        if leading_ours {
            return; // still winning; wait
        }
        if status.minimum_bid <= *limit {
            let Some(market) = self.current_market() else {
                return;
            };
            let amount = status.minimum_bid;
            self.my_last_bid = Some(amount);
            self.bids_placed += 1;
            let msg = Message::new(ecpk::kinds::AUCTION_BID)
                .with_payload(&AuctionBid {
                    item: *item,
                    amount,
                })
                .expect("bid serializes");
            ctx.send(market.agent, msg);
        }
        // above the limit: stay joined, await the close notification
    }
}

impl Agent for MobileBuyerAgent {
    fn agent_type(&self) -> &'static str {
        MBA_TYPE
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("mba state serializes")
    }

    fn on_creation(&mut self, ctx: &mut Ctx<'_>) {
        // created at home by the BRA; head straight out
        match self.current_market() {
            Some(market) => ctx.dispatch_self(market.host),
            None => {
                // degenerate task with no marketplaces
                self.result = Some(MbaResult::Offers {
                    offers: Vec::new(),
                    reports: Vec::new(),
                });
                self.deliver_result_local(ctx);
            }
        }
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.host() == self.home {
            // back home; the platform already verified the travel permit
            let fig = self.task.figure();
            let step = if fig == "fig4.2" { "step12" } else { "step11" };
            ctx.note(format!("{fig}/{step} mba returned home and authenticated"));
            self.deliver_result_local(ctx);
        } else {
            self.start_at_market(ctx);
        }
    }

    fn on_rehomed(&mut self, ctx: &mut Ctx<'_>, new_home: HostId) {
        // The buyer server we left from died and its state failed over to
        // a standby: steer the return trip there, and reset the trip-home
        // backoff — the retries burned against the dead host say nothing
        // about the standby's reachability.
        self.home = new_home;
        self.home_attempts = 0;
        ctx.note(format!("mba: rehomed to failover host {new_home}"));
    }

    fn on_recovered(&mut self, ctx: &mut Ctx<'_>, _deltas: &[serde_json::Value]) {
        // Restored on a marketplace host that crashed under it: a request
        // in flight, its reply and any timer armed before the crash died
        // with the host.
        if ctx.host() == self.home {
            return;
        }
        if self.result.is_some() {
            ctx.note("mba: recovered at marketplace with its result, heading home");
            self.go_home(ctx);
            return;
        }
        match &self.task {
            MbaTask::Query { .. } => {
                // a read is safe to repeat
                ctx.note("mba: recovered at marketplace, re-sending the query");
                self.start_at_market(ctx);
            }
            MbaTask::Buy { intent, .. } => {
                // Never buy again: the host may have been down long enough
                // for the BRA to give this intent up, and the ledger would
                // take a re-sent buy as fresh. Ask the ledger what the
                // crash left and carry that home.
                let Some(market) = self.current_market() else {
                    return;
                };
                ctx.note(format!(
                    "mba: recovered at marketplace, asking the ledger about intent {intent}"
                ));
                let query = Message::new(ecpk::kinds::LEDGER_QUERY)
                    .with_payload(&LedgerQuery { intent: *intent })
                    .expect("ledger query serializes");
                ctx.send(market.agent, query);
            }
            // An auction's bids are replayed with the marketplace, whose
            // close still reaches us here: stay put, as before a crash.
            MbaTask::Auction { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == HOME_RETRY_TAG {
            ctx.dispatch_self(self.home);
            return;
        }
        // market no-reply watchdog; stale once a reply arrived or the
        // itinerary advanced past the tagged market
        if !self.awaiting_reply || tag != self.next_market as u64 {
            return;
        }
        let Some(market) = self.current_market() else {
            return;
        };
        self.awaiting_reply = false;
        ctx.note(format!(
            "mba: no reply from marketplace at {} within {}us",
            market.host, self.market_wait_us
        ));
        self.reports.push(MarketReport {
            market,
            status: MarketStatus::NoReply,
        });
        match &self.task {
            MbaTask::Query { .. } => self.advance_or_home(ctx),
            MbaTask::Buy { item, .. } | MbaTask::Auction { item, .. } => {
                let item = *item;
                self.result = Some(MbaResult::BuyFailed {
                    item,
                    reason: "marketplace did not respond".into(),
                });
                self.go_home(ctx);
            }
        }
    }

    fn on_dispatch_failed(&mut self, ctx: &mut Ctx<'_>, dest: HostId) {
        if dest == self.home {
            // stranded at a marketplace: retry the trip home with a
            // doubling backoff until the fault heals, then give up
            if self.home_attempts >= HOME_RETRY_LIMIT {
                ctx.note("mba: home unreachable, giving up".to_string());
                ctx.dispose_self();
                return;
            }
            let mut delay = HOME_RETRY_BASE_US
                .saturating_mul(1 << self.home_attempts.min(5))
                .min(HOME_RETRY_CAP_US);
            // under a request deadline, compress the wait into whatever
            // budget remains — home is where the degraded reply happens
            if let Some(rem) = ctx.remaining_us() {
                if rem == 0 {
                    ctx.note("mba: home unreachable and deadline spent, giving up".to_string());
                    ctx.dispose_self();
                    return;
                }
                delay = delay.min(rem);
            }
            self.home_attempts += 1;
            ctx.set_timer(SimDuration::from_micros(delay), HOME_RETRY_TAG);
            return;
        }
        let Some(market) = self.current_market() else {
            return;
        };
        if market.host != dest {
            return;
        }
        ctx.note(format!("mba: marketplace at {dest} unreachable"));
        self.reports.push(MarketReport {
            market,
            status: MarketStatus::Unreachable,
        });
        match &self.task {
            MbaTask::Query { .. } => self.advance_or_home(ctx),
            MbaTask::Buy { item, .. } | MbaTask::Auction { item, .. } => {
                let item = *item;
                self.result = Some(MbaResult::BuyFailed {
                    item,
                    reason: "marketplace unreachable".into(),
                });
                self.go_home(ctx);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // buy/auction tasks visit a single marketplace, so any reply
        // disarms the no-reply watchdog; query replies are matched against
        // the current market below before disarming
        if msg.kind != ecpk::kinds::QUERY_RESPONSE {
            self.awaiting_reply = false;
        }
        match msg.kind.as_str() {
            ecpk::kinds::QUERY_RESPONSE => {
                if let Ok(resp) = msg.payload_as::<QueryResponse>() {
                    let Some(market) = self.current_market() else {
                        return;
                    };
                    if msg.from != Some(market.agent) {
                        // a reply from a marketplace already written off
                        // as NoReply chased us here; the itinerary moved on
                        ctx.note("mba: stale query response ignored".to_string());
                        return;
                    }
                    self.awaiting_reply = false;
                    ctx.note(format!(
                        "fig4.2/step11 offers received at {} ({})",
                        ctx.host(),
                        resp.offers.len()
                    ));
                    self.reports.push(MarketReport {
                        market,
                        status: MarketStatus::Visited,
                    });
                    self.offers.extend(resp.offers);
                    self.advance_or_home(ctx);
                }
            }
            ecpk::kinds::BUY_CONFIRM => {
                if let Ok(confirm) = msg.payload_as::<BuyConfirm>() {
                    self.finish_with(
                        ctx,
                        MbaResult::Bought {
                            item: confirm.item,
                            price: confirm.price,
                            negotiated: false,
                            rounds: 0,
                        },
                    );
                }
            }
            ecpk::kinds::BUY_REJECT => {
                let item = match &self.task {
                    MbaTask::Buy { item, .. } => *item,
                    _ => ItemId(0),
                };
                self.finish_with(
                    ctx,
                    MbaResult::BuyFailed {
                        item,
                        reason: "marketplace rejected".into(),
                    },
                );
            }
            ecpk::kinds::NEGOTIATE_COUNTER => {
                let (Ok(counter), MbaTask::Buy { intent, .. }) =
                    (msg.payload_as::<NegotiateCounter>(), &self.task)
                else {
                    return;
                };
                let intent = *intent;
                let Some(session) = self.negotiation.as_mut() else {
                    return;
                };
                match session.respond(counter.ask) {
                    BuyerMove::Offer(next) | BuyerMove::Accept(next) => {
                        let offer = Message::new(ecpk::kinds::NEGOTIATE_OFFER)
                            .with_payload(&NegotiateOffer {
                                item: counter.item,
                                offer: next,
                                intent,
                            })
                            .expect("offer serializes");
                        ctx.reply(&msg, offer);
                    }
                    BuyerMove::Abort => {
                        let rounds = session.rounds();
                        self.finish_with(
                            ctx,
                            MbaResult::BuyFailed {
                                item: counter.item,
                                reason: format!("no deal after {rounds} offers"),
                            },
                        );
                    }
                }
            }
            ecpk::kinds::NEGOTIATE_ACCEPT => {
                if let Ok(accept) = msg.payload_as::<NegotiateAccept>() {
                    let rounds = self.negotiation.as_ref().map(|s| s.rounds()).unwrap_or(0);
                    self.finish_with(
                        ctx,
                        MbaResult::Bought {
                            item: accept.item,
                            price: accept.price,
                            negotiated: true,
                            rounds,
                        },
                    );
                }
            }
            ecpk::kinds::LEDGER_REPLY => {
                // the ledger's word on a buy whose visit a crash cut short
                let (Ok(reply), MbaTask::Buy { item, mode, .. }) =
                    (msg.payload_as::<LedgerReply>(), &self.task)
                else {
                    return;
                };
                if self.result.is_some() {
                    return;
                }
                let result = match reply.committed {
                    Some(confirm) => MbaResult::Bought {
                        item: confirm.item,
                        price: confirm.price,
                        negotiated: matches!(mode, BuyMode::Negotiate { .. }),
                        rounds: self.negotiation.as_ref().map_or(0, |s| s.rounds()),
                    },
                    None => MbaResult::BuyFailed {
                        item: *item,
                        reason: "marketplace crashed before the sale".into(),
                    },
                };
                self.finish_with(ctx, result);
            }
            ecpk::kinds::NEGOTIATE_REJECT => {
                let item = match &self.task {
                    MbaTask::Buy { item, .. } => *item,
                    _ => ItemId(0),
                };
                self.finish_with(
                    ctx,
                    MbaResult::BuyFailed {
                        item,
                        reason: "negotiation rejected".into(),
                    },
                );
            }
            ecpk::kinds::AUCTION_STATUS | ecpk::kinds::BID_ACCEPTED => {
                if let Ok(status) = msg.payload_as::<AuctionStatus>() {
                    self.maybe_bid(ctx, &status);
                }
            }
            ecpk::kinds::BID_REJECTED => {
                match msg.payload_as::<AuctionStatus>() {
                    Ok(status) if status.sealed => {
                        // sealed bids are one-shot; stay joined and wait
                        // for the close notification
                    }
                    Ok(status) => {
                        // our optimistic last bid never landed
                        self.my_last_bid = None;
                        self.maybe_bid(ctx, &status)
                    }
                    Err(_) => {
                        // no auction exists at all
                        let item = match &self.task {
                            MbaTask::Auction { item, .. } => *item,
                            _ => ItemId(0),
                        };
                        self.finish_with(
                            ctx,
                            MbaResult::BuyFailed {
                                item,
                                reason: "auction unavailable".into(),
                            },
                        );
                    }
                }
            }
            ecpk::kinds::AUCTION_CLOSED => {
                if let Ok(closed) = msg.payload_as::<AuctionClosed>() {
                    let bids = self.bids_placed;
                    self.finish_with(
                        ctx,
                        MbaResult::AuctionDone {
                            item: closed.item,
                            won: closed.you_won,
                            price: closed.outcome.price(),
                            bids,
                        },
                    );
                }
            }
            other => {
                ctx.note(format!("mba: unhandled kind {other}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::panic)]

    use super::*;
    use agentsim::sim::SimWorld;
    use ecp::marketplace::{MarketplaceAgent, MARKETPLACE_TYPE};
    use ecp::protocol::Listing;
    use ecp::seller::{SellerAgent, SELLER_TYPE};
    use ecp::terms::TermVector;

    fn listing(id: u64, name: &str, price: u64) -> Listing {
        Listing {
            item: ecp::merchandise::Merchandise {
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

    /// Collects MBA_RESULT / MBA_RETURNED messages (stands in for BRA and
    /// BSMA).
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Home {
        results: Vec<MbaResult>,
        returned: u32,
    }

    impl Agent for Home {
        fn agent_type(&self) -> &'static str {
            "home"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            match msg.kind.as_str() {
                kinds::MBA_RESULT => {
                    self.results.push(msg.payload_as().unwrap());
                }
                kinds::MBA_RETURNED => {
                    self.returned += 1;
                }
                _ => {}
            }
        }
    }

    struct Fix {
        world: SimWorld,
        home_host: HostId,
        home_agent: AgentId,
        markets: Vec<MarketRef>,
    }

    fn fix(n_markets: usize) -> Fix {
        let mut world = SimWorld::new(21);
        world
            .registry_mut()
            .register_serde::<MobileBuyerAgent>(MBA_TYPE);
        world
            .registry_mut()
            .register_serde::<MarketplaceAgent>(MARKETPLACE_TYPE);
        world
            .registry_mut()
            .register_serde::<SellerAgent>(SELLER_TYPE);
        world.registry_mut().register_serde::<Home>("home");
        let home_host = world.add_host("buyer-server");
        let home_agent = world
            .create_agent(home_host, Box::new(Home::default()))
            .unwrap();
        let mut markets = Vec::new();
        for i in 0..n_markets {
            let mh = world.add_host(format!("market-{i}"));
            let agent = world
                .create_agent(mh, Box::new(MarketplaceAgent::new(format!("m{i}"))))
                .unwrap();
            markets.push(MarketRef { host: mh, agent });
            // each market gets two listings, ids disjoint per market
            let base = (i as u64) * 10;
            let sh = world.add_host(format!("seller-{i}"));
            world
                .create_agent(
                    sh,
                    Box::new(SellerAgent::new(
                        i as u32 + 1,
                        format!("s{i}"),
                        vec![
                            listing(base + 1, &format!("rustbook{}", base + 1), 30),
                            listing(base + 2, &format!("gobook{}", base + 2), 25),
                        ],
                        vec![agent],
                    )),
                )
                .unwrap();
        }
        world.run_until_idle();
        Fix {
            world,
            home_host,
            home_agent,
            markets,
        }
    }

    fn launch(f: &mut Fix, task: MbaTask, markets: Vec<MarketRef>) -> AgentId {
        let mba = MobileBuyerAgent::new(
            f.home_host,
            f.home_agent,
            f.home_agent,
            ConsumerId(1),
            task,
            markets,
        );
        f.world.create_agent(f.home_host, Box::new(mba)).unwrap()
    }

    fn home_state(f: &Fix) -> Home {
        serde_json::from_value(f.world.snapshot_of(f.home_agent).unwrap()).unwrap()
    }

    #[test]
    fn query_task_collects_offers_from_all_markets_and_returns() {
        let mut f = fix(3);
        let markets = f.markets.clone();
        let mba = launch(
            &mut f,
            MbaTask::Query {
                keywords: vec!["rustbook1".into(), "rustbook11".into(), "rustbook21".into()],
                category: None,
                max_results: 5,
            },
            markets,
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        assert_eq!(h.returned, 1);
        assert_eq!(h.results.len(), 1);
        match &h.results[0] {
            MbaResult::Offers { offers, reports } => {
                assert_eq!(offers.len(), 3, "one matching offer per market");
                assert_eq!(reports.len(), 3, "every market tagged");
                assert!(
                    reports.iter().all(|r| r.status == MarketStatus::Visited),
                    "clean run visits every market: {reports:?}"
                );
                let hosts: std::collections::BTreeSet<_> =
                    offers.iter().map(|o| o.marketplace).collect();
                assert_eq!(
                    hosts.len(),
                    3,
                    "offers must come from 3 distinct marketplaces"
                );
            }
            other => panic!("expected offers, got {other:?}"),
        }
        // the MBA disposed itself after reporting
        assert_eq!(f.world.location(mba), None);
        // 4 migrations: home->m0->m1->m2->home
        assert_eq!(f.world.metrics().migrations, 4);
        assert_eq!(f.world.metrics().migrations_rejected, 0);
    }

    #[test]
    fn direct_buy_returns_receipt() {
        let mut f = fix(1);
        let market = f.markets[0];
        launch(
            &mut f,
            MbaTask::Buy {
                item: ItemId(1),
                mode: BuyMode::Direct,
                intent: IntentId::new(AgentId(3), 1),
            },
            vec![market],
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        match &h.results[0] {
            MbaResult::Bought {
                item,
                price,
                negotiated,
                rounds,
            } => {
                assert_eq!(item.id, ItemId(1));
                assert_eq!(*price, Money::from_units(30));
                assert!(!negotiated);
                assert_eq!(*rounds, 0);
            }
            other => panic!("expected purchase, got {other:?}"),
        }
    }

    #[test]
    fn buy_unknown_item_fails_gracefully() {
        let mut f = fix(1);
        let market = f.markets[0];
        launch(
            &mut f,
            MbaTask::Buy {
                item: ItemId(999),
                mode: BuyMode::Direct,
                intent: IntentId::new(AgentId(3), 1),
            },
            vec![market],
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        assert!(matches!(&h.results[0], MbaResult::BuyFailed { item, .. } if *item == ItemId(999)));
        assert_eq!(h.returned, 1, "mba must still come home after failure");
    }

    #[test]
    fn negotiation_with_sufficient_budget_closes_a_deal() {
        let mut f = fix(1);
        let market = f.markets[0];
        launch(
            &mut f,
            MbaTask::Buy {
                item: ItemId(1),
                mode: BuyMode::Negotiate {
                    budget: Money::from_units(28),
                    opening_fraction: 0.6,
                    raise: 0.1,
                    max_rounds: 20,
                },
                intent: IntentId::new(AgentId(3), 1),
            },
            vec![market],
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        match &h.results[0] {
            MbaResult::Bought {
                price,
                negotiated,
                rounds,
                ..
            } => {
                assert!(*negotiated);
                assert!(*rounds >= 1);
                assert!(*price <= Money::from_units(28), "never above budget");
                assert!(
                    *price >= Money::from_units(21),
                    "never below the seller's reservation (21): {price}"
                );
            }
            other => panic!("expected negotiated purchase, got {other:?}"),
        }
    }

    #[test]
    fn negotiation_with_hopeless_budget_walks_away() {
        let mut f = fix(1);
        let market = f.markets[0];
        launch(
            &mut f,
            MbaTask::Buy {
                item: ItemId(1),
                mode: BuyMode::Negotiate {
                    budget: Money::from_units(5), // reservation is 21
                    opening_fraction: 0.5,
                    raise: 0.1,
                    max_rounds: 10,
                },
                intent: IntentId::new(AgentId(3), 1),
            },
            vec![market],
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        assert!(
            matches!(&h.results[0], MbaResult::BuyFailed { reason, .. } if reason.contains("no deal")),
            "got {:?}",
            h.results[0]
        );
    }

    #[test]
    fn auction_task_bids_and_learns_outcome() {
        let mut f = fix(1);
        let market = f.markets[0];
        // open an auction externally (a seller would normally do this)
        let open = Message::new(ecpk::kinds::AUCTION_OPEN)
            .with_payload(&ecp::protocol::AuctionOpen {
                item: ItemId(1),
                reserve: Money::from_units(10),
                increment: Money::from_units(1),
                duration_us: 50_000_000,
                sealed: false,
            })
            .unwrap();
        f.world.send_external(market.agent, open).unwrap();
        f.world
            .run_for(agentsim::clock::SimDuration::from_millis(10));
        launch(
            &mut f,
            MbaTask::Auction {
                item: ItemId(1),
                limit: Money::from_units(50),
            },
            vec![market],
        );
        f.world.run_until_idle(); // runs past the deadline; auction settles
        let h = home_state(&f);
        match &h.results[0] {
            MbaResult::AuctionDone {
                won, price, bids, ..
            } => {
                assert!(*won, "sole bidder must win");
                assert_eq!(*price, Some(Money::from_units(10)), "wins at the reserve");
                assert_eq!(*bids, 1);
            }
            other => panic!("expected auction outcome, got {other:?}"),
        }
    }

    #[test]
    fn two_mbas_bid_against_each_other() {
        let mut f = fix(1);
        let market = f.markets[0];
        let open = Message::new(ecpk::kinds::AUCTION_OPEN)
            .with_payload(&ecp::protocol::AuctionOpen {
                item: ItemId(1),
                reserve: Money::from_units(10),
                increment: Money::from_units(1),
                duration_us: 50_000_000,
                sealed: false,
            })
            .unwrap();
        f.world.send_external(market.agent, open).unwrap();
        f.world
            .run_for(agentsim::clock::SimDuration::from_millis(1));
        launch(
            &mut f,
            MbaTask::Auction {
                item: ItemId(1),
                limit: Money::from_units(20),
            },
            vec![market],
        );
        launch(
            &mut f,
            MbaTask::Auction {
                item: ItemId(1),
                limit: Money::from_units(40),
            },
            vec![market],
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        assert_eq!(h.results.len(), 2);
        let wins: Vec<bool> = h
            .results
            .iter()
            .map(|r| matches!(r, MbaResult::AuctionDone { won: true, .. }))
            .collect();
        assert_eq!(wins.iter().filter(|w| **w).count(), 1, "exactly one winner");
        // the deeper-pocketed MBA wins, paying above the poorer one's limit
        for r in &h.results {
            if let MbaResult::AuctionDone {
                won: true, price, ..
            } = r
            {
                let p = price.expect("sold");
                assert!(
                    p > Money::from_units(20),
                    "winner outbid the $20 limit: {p}"
                );
                assert!(p <= Money::from_units(40));
            }
        }
    }

    #[test]
    fn auction_on_missing_item_fails_gracefully() {
        let mut f = fix(1);
        let market = f.markets[0];
        launch(
            &mut f,
            MbaTask::Auction {
                item: ItemId(777),
                limit: Money::from_units(50),
            },
            vec![market],
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        assert!(
            matches!(&h.results[0], MbaResult::BuyFailed { reason, .. } if reason.contains("auction unavailable"))
        );
    }

    #[test]
    fn empty_itinerary_reports_immediately() {
        let mut f = fix(0);
        launch(
            &mut f,
            MbaTask::Query {
                keywords: vec!["x".into()],
                category: None,
                max_results: 5,
            },
            vec![],
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        assert!(matches!(&h.results[0], MbaResult::Offers { offers, .. } if offers.is_empty()));
        assert_eq!(h.returned, 1);
    }

    #[test]
    fn lost_mba_never_reports() {
        let mut f = fix(1);
        let market = f.markets[0];
        // make the link fully lossy: the MBA dies in transit
        f.world
            .topology_mut()
            .set_link_symmetric(f.home_host, market.host, ecp_lossy_link());
        let mba = launch(
            &mut f,
            MbaTask::Buy {
                item: ItemId(1),
                mode: BuyMode::Direct,
                intent: IntentId::new(AgentId(3), 1),
            },
            vec![market],
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        assert!(h.results.is_empty());
        assert_eq!(h.returned, 0);
        assert_eq!(f.world.location(mba), None);
    }

    fn ecp_lossy_link() -> agentsim::net::LinkSpec {
        agentsim::net::LinkSpec::lan().lossy(1.0)
    }

    #[test]
    fn partitioned_market_is_skipped_and_tagged_unreachable() {
        let mut f = fix(2);
        let markets = f.markets.clone();
        // the first market is cut off; the MBA must skip it, visit the
        // second and come home with a partial result
        f.world
            .topology_mut()
            .partition(f.home_host, markets[0].host);
        launch(
            &mut f,
            MbaTask::Query {
                keywords: vec!["rustbook1".into(), "rustbook11".into()],
                category: None,
                max_results: 5,
            },
            markets.clone(),
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        assert_eq!(h.returned, 1, "mba must still report home");
        match &h.results[0] {
            MbaResult::Offers { offers, reports } => {
                assert_eq!(offers.len(), 1, "only the reachable market answered");
                assert_eq!(reports.len(), 2);
                assert_eq!(reports[0].market, markets[0]);
                assert_eq!(reports[0].status, MarketStatus::Unreachable);
                assert_eq!(reports[1].status, MarketStatus::Visited);
            }
            other => panic!("expected offers, got {other:?}"),
        }
        assert!(
            f.world.metrics().chaos_drops >= 1,
            "refused dispatch counted"
        );
    }

    #[test]
    fn fully_partitioned_query_reports_home_without_leaving() {
        let mut f = fix(1);
        let markets = f.markets.clone();
        f.world
            .topology_mut()
            .partition(f.home_host, markets[0].host);
        launch(
            &mut f,
            MbaTask::Query {
                keywords: vec!["rustbook1".into()],
                category: None,
                max_results: 5,
            },
            markets,
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        assert_eq!(h.returned, 1);
        match &h.results[0] {
            MbaResult::Offers { offers, reports } => {
                assert!(offers.is_empty());
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].status, MarketStatus::Unreachable);
            }
            other => panic!("expected empty offers, got {other:?}"),
        }
        assert_eq!(f.world.metrics().migrations, 0, "mba never left home");
    }

    #[test]
    fn unreachable_market_fails_a_buy_cleanly() {
        let mut f = fix(1);
        let market = f.markets[0];
        f.world.topology_mut().partition(f.home_host, market.host);
        launch(
            &mut f,
            MbaTask::Buy {
                item: ItemId(1),
                mode: BuyMode::Direct,
                intent: IntentId::new(AgentId(3), 1),
            },
            vec![market],
        );
        f.world.run_until_idle();
        let h = home_state(&f);
        assert!(
            matches!(&h.results[0], MbaResult::BuyFailed { reason, .. }
                if reason.contains("unreachable")),
            "got {:?}",
            h.results[0]
        );
    }

    /// A marketplace stand-in that swallows every message.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct SilentMarket;

    impl Agent for SilentMarket {
        fn agent_type(&self) -> &'static str {
            "silent-market"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    #[test]
    fn unresponsive_market_times_out_with_noreply_report() {
        let mut world = SimWorld::new(33);
        world
            .registry_mut()
            .register_serde::<MobileBuyerAgent>(MBA_TYPE);
        world.registry_mut().register_serde::<Home>("home");
        world
            .registry_mut()
            .register_serde::<SilentMarket>("silent-market");
        let home_host = world.add_host("buyer-server");
        let home_agent = world
            .create_agent(home_host, Box::new(Home::default()))
            .unwrap();
        let mh = world.add_host("mute-market");
        let market_agent = world.create_agent(mh, Box::new(SilentMarket)).unwrap();
        let market = MarketRef {
            host: mh,
            agent: market_agent,
        };
        let mba = MobileBuyerAgent::new(
            home_host,
            home_agent,
            home_agent,
            ConsumerId(1),
            MbaTask::Query {
                keywords: vec!["x".into()],
                category: None,
                max_results: 5,
            },
            vec![market],
        )
        .with_market_wait_us(250_000);
        world.create_agent(home_host, Box::new(mba)).unwrap();
        world.run_until_idle();
        let h: Home = serde_json::from_value(world.snapshot_of(home_agent).unwrap()).unwrap();
        assert_eq!(h.returned, 1, "watchdog must bring the mba home");
        match &h.results[0] {
            MbaResult::Offers { offers, reports } => {
                assert!(offers.is_empty());
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].status, MarketStatus::NoReply);
            }
            other => panic!("expected empty offers, got {other:?}"),
        }
    }

    #[test]
    fn mba_state_round_trips_serde() {
        let mba = MobileBuyerAgent::new(
            HostId(1),
            AgentId(2),
            AgentId(3),
            ConsumerId(4),
            MbaTask::Query {
                keywords: vec!["x".into()],
                category: None,
                max_results: 5,
            },
            vec![MarketRef {
                host: HostId(9),
                agent: AgentId(10),
            }],
        );
        let v = mba.snapshot();
        let back: MobileBuyerAgent = serde_json::from_value(v).unwrap();
        assert_eq!(back.home, HostId(1));
        assert_eq!(back.task, mba.task);
    }
}
