//! The Buyer Recommend Agent (BRA).
//!
//! §3.3: *"A BRA stands for online consumer. The main functions of BRA
//! are: (1) Loading Profiles. (2) Providing the assistance of merchandise
//! query and the other bargain functions. (3) Creating recommendation
//! information."*
//!
//! One BRA exists per logged-in consumer (§4.1 principle 1: created at
//! login, disposed at logout). On a task it loads the profile from the
//! PA, creates and dispatches an MBA, and is deactivated by the BSMA
//! while the MBA roams. When the MBA returns (and its result is replayed
//! to the reactivated BRA) the BRA asks the PA for similar users'
//! preferences and generates the recommendation information it sends back
//! through the HttpA.

use crate::agents::mba::{MbaTask, MobileBuyerAgent};
use crate::agents::msg::{
    kinds, BraResponse, ConsumerTask, FrontTask, MarketRef, MarketStatus, MbaLost, MbaRegister,
    MbaResult, PaLoad, PaProfile, PaRecord, PaSimilar, PaSimilarReply, RecommendedItem,
    ResponseBody,
};
use crate::learning::BehaviorKind;
use crate::profile::{ConsumerId, Profile};
use crate::retry::BackoffPolicy;
use agentsim::agent::{Agent, Ctx};
use agentsim::clock::{SimDuration, SimTime};
use agentsim::ids::{AgentId, HostId};
use agentsim::message::Message;
use ecp::merchandise::{ItemId, Merchandise, Money};
use ecp::protocol::{self as ecpk, BuyConfirm, IntentId, LedgerQuery, LedgerReply, Offer};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Agent-type tag of [`BuyerRecommendAgent`].
pub const BRA_TYPE: &str = "bra";

/// Timer tag for re-dispatching an MBA after a backoff delay.
const RETRY_TAG: u64 = 0x42_52_41; // "BRA"

/// Timer tag for re-sending an unanswered ledger query; the query's
/// number is added, so a timer left from an earlier query is told apart.
const LEDGER_TAG: u64 = 0x4C_44_47; // "LDG"

/// Task state the BRA is driving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::enum_variant_names)] // Await* reads better than bare nouns
enum Pending {
    /// Waiting for the PA profile before dispatching the MBA.
    AwaitProfile { task: ConsumerTask },
    /// MBA dispatched; awaiting its result (arrives after reactivation).
    AwaitMba {
        task: ConsumerTask,
        /// The MBA whose result (or loss notice) we expect.
        mba: AgentId,
        /// Dispatch attempts so far (0 = first try).
        attempt: u32,
        /// The buy's purchase-intent id (buy tasks only).
        #[serde(default)]
        intent: Option<IntentId>,
    },
    /// Last MBA lost; backoff timer armed before the next dispatch.
    AwaitRetry {
        task: ConsumerTask,
        attempt: u32,
        /// The buy's purchase-intent id, carried unchanged into the retry
        /// (buy tasks only).
        #[serde(default)]
        intent: Option<IntentId>,
    },
    /// Buy whose MBA was lost with the outcome in doubt; the marketplace
    /// ledger has been asked whether the intent committed.
    AwaitLedger {
        task: ConsumerTask,
        intent: IntentId,
        market: MarketRef,
        attempt: u32,
        /// Ledger queries re-sent so far for lack of an answer.
        #[serde(default)]
        queries: u32,
    },
    /// Offers in hand; awaiting the PA's similar-user data.
    AwaitSimilar {
        task: ConsumerTask,
        offers: Vec<Offer>,
        /// True when falling back to CF-only (no marketplace reached).
        degraded: bool,
        /// Marketplaces that produced no offers this task.
        unreachable: Vec<MarketRef>,
    },
}

/// The Buyer Recommend Agent.
#[derive(Debug, Serialize, Deserialize)]
pub struct BuyerRecommendAgent {
    consumer: ConsumerId,
    bsma: AgentId,
    pa: AgentId,
    httpa: AgentId,
    markets: Vec<MarketRef>,
    profile: Option<Profile>,
    pending: Option<Pending>,
    /// Weight of the collaborative term when ranking.
    collaborative_weight: f64,
    /// Neighbours requested from the PA.
    k_neighbours: usize,
    /// Microseconds before a roaming MBA is presumed lost.
    mba_timeout_us: u64,
    /// Recommendations produced over this session (for inspection).
    recommendations_made: u32,
    /// Backoff schedule for re-dispatching a lost MBA.
    #[serde(default)]
    retry: BackoffPolicy,
    /// Marketplaces the BSMA flagged as circuit-open for the current
    /// task; the MBA must skip them.
    #[serde(default)]
    blocked_markets: Vec<MarketRef>,
    /// Purchase intents minted by this BRA so far (intent-id sequence).
    #[serde(default)]
    intents_minted: u64,
    /// Front-door request id of the current task, echoed in its reply.
    #[serde(default)]
    request: u64,
}

impl BuyerRecommendAgent {
    /// Create a BRA for `consumer`, wired to its server-side peers.
    pub fn new(
        consumer: ConsumerId,
        bsma: AgentId,
        pa: AgentId,
        httpa: AgentId,
        markets: Vec<MarketRef>,
    ) -> Self {
        BuyerRecommendAgent {
            consumer,
            bsma,
            pa,
            httpa,
            markets,
            profile: None,
            pending: None,
            collaborative_weight: 0.7,
            k_neighbours: 10,
            mba_timeout_us: 600_000_000, // 10 simulated minutes
            recommendations_made: 0,
            retry: BackoffPolicy::default(),
            blocked_markets: Vec::new(),
            intents_minted: 0,
            request: 0,
        }
    }

    /// Override the MBA re-dispatch backoff schedule.
    pub fn with_retry_policy(mut self, retry: BackoffPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Override the hybrid ranking weight (ablation knob).
    pub fn with_collaborative_weight(mut self, w: f64) -> Self {
        self.collaborative_weight = w.clamp(0.0, 1.0);
        self
    }

    /// Override the MBA loss timeout.
    pub fn with_mba_timeout_us(mut self, us: u64) -> Self {
        self.mba_timeout_us = us;
        self
    }

    /// Answer the current task's request.
    fn respond(&self, ctx: &mut Ctx<'_>, body: ResponseBody) {
        self.respond_to(ctx, self.request, body);
    }

    fn respond_to(&self, ctx: &mut Ctx<'_>, request: u64, body: ResponseBody) {
        // The reply itself must never be dropped as expired: a degraded
        // answer at (or just past) the deadline still beats silence, so
        // strip the deadline before the send stamps it.
        if ctx.deadline().is_some() {
            ctx.clear_deadline();
        }
        let msg = Message::new(kinds::BRA_RESPONSE)
            .with_payload(&BraResponse {
                consumer: self.consumer,
                request,
                body,
            })
            .expect("response serializes");
        ctx.send(self.httpa, msg);
    }

    fn start_task(&mut self, ctx: &mut Ctx<'_>, routed: FrontTask) {
        if self.pending.is_some() {
            self.respond_to(
                ctx,
                routed.request,
                ResponseBody::Error("busy with a previous task".into()),
            );
            return;
        }
        let FrontTask {
            task,
            blocked_markets,
            request,
            ..
        } = routed;
        self.request = request;
        self.blocked_markets = blocked_markets;
        // A buy/auction aimed at a circuit-open marketplace cannot
        // proceed at all: fail fast rather than loading a profile for a
        // dispatch that is already refused.
        if let ConsumerTask::Buy { market, .. } | ConsumerTask::Auction { market, .. } = &task {
            if self.blocked_markets.contains(market) {
                ctx.note(format!(
                    "bra: marketplace {} circuit open, refusing transaction",
                    market.agent
                ));
                self.respond(
                    ctx,
                    ResponseBody::Error("marketplace unavailable: circuit open".into()),
                );
                return;
            }
        }
        let fig = task.figure();
        ctx.note(format!("{fig}/step04 bra requests profile from pa"));
        let load = Message::new(kinds::PA_LOAD)
            .with_payload(&PaLoad {
                consumer: self.consumer,
                figure: fig.to_string(),
            })
            .expect("load serializes");
        ctx.send(self.pa, load);
        self.pending = Some(Pending::AwaitProfile { task });
    }

    /// Mint a fresh purchase-intent id for a buy of `item` at `market`
    /// (this BRA and the next number of its own 64-bit intent sequence)
    /// and journal it write-ahead on a durable host.
    fn mint_intent(&mut self, ctx: &mut Ctx<'_>, item: ItemId, market: MarketRef) -> IntentId {
        let intent = IntentId::mint(ctx.self_id(), &mut self.intents_minted);
        if ctx.durable() {
            ctx.journal_intent(
                intent.to_string(),
                serde_json::json!({
                    "consumer": self.consumer,
                    "item": item,
                    "market": market.agent,
                }),
            );
        }
        intent
    }

    /// Journal that `intent` committed as a sale of `item` at `price`.
    /// Builds nothing on a non-durable host.
    fn journal_commit(ctx: &mut Ctx<'_>, intent: IntentId, item: &Merchandise, price: Money) {
        if ctx.durable() {
            let confirm = BuyConfirm {
                item: item.clone(),
                price,
            };
            ctx.journal_commit(
                intent.to_string(),
                serde_json::to_value(&confirm).unwrap_or(serde_json::Value::Null),
            );
        }
    }

    /// Ask the marketplace ledger whether `intent` committed, and arm the
    /// timer that re-sends the query if no answer comes: a marketplace
    /// host that is down dead-letters the query, and nothing else would
    /// ever ask again. The `queries`-th re-send waits the MBA's
    /// marketplace patience plus the retry backoff, under a timer tagged
    /// with `queries`.
    fn query_ledger(&self, ctx: &mut Ctx<'_>, intent: IntentId, market: MarketRef, queries: u32) {
        let query = Message::new(ecpk::kinds::LEDGER_QUERY)
            .with_payload(&LedgerQuery { intent })
            .expect("ledger query serializes");
        ctx.send(market.agent, query);
        let wait = self.mba_timeout_us / 4 + self.retry.delay_us(queries);
        ctx.set_timer(
            SimDuration::from_micros(wait),
            LEDGER_TAG + u64::from(queries),
        );
    }

    fn dispatch_mba(
        &mut self,
        ctx: &mut Ctx<'_>,
        task: ConsumerTask,
        attempt: u32,
        prior_intent: Option<IntentId>,
    ) {
        let fig = task.figure();
        let (mba_task, itinerary, intent) = match &task {
            ConsumerTask::Query {
                keywords,
                category,
                max_results,
            } => (
                MbaTask::Query {
                    keywords: keywords.clone(),
                    category: category.clone(),
                    max_results: *max_results,
                },
                self.markets
                    .iter()
                    .filter(|m| !self.blocked_markets.contains(m))
                    .copied()
                    .collect(),
                None,
            ),
            ConsumerTask::Buy { item, market, mode } => {
                // A buy carries its intent id so the marketplace can dedupe
                // a re-driven purchase. Minted once, before the first
                // dispatch; retries reuse it unchanged.
                let intent = match prior_intent {
                    Some(intent) => intent,
                    None => self.mint_intent(ctx, *item, *market),
                };
                (
                    MbaTask::Buy {
                        item: *item,
                        mode: *mode,
                        intent,
                    },
                    vec![*market],
                    Some(intent),
                )
            }
            ConsumerTask::Auction {
                item,
                market,
                limit,
            } => (
                MbaTask::Auction {
                    item: *item,
                    limit: *limit,
                },
                vec![*market],
                None,
            ),
        };
        if itinerary.is_empty() && !self.blocked_markets.is_empty() {
            // every marketplace is circuit-open: skip the doomed trip and
            // answer immediately from the cached profile (CF-only)
            ctx.note("bra: all marketplaces circuit open, degrading to cached-profile cf");
            let similar = Message::new(kinds::PA_SIMILAR)
                .with_payload(&PaSimilar {
                    consumer: self.consumer,
                    offers: Vec::new(),
                    k_neighbours: self.k_neighbours,
                })
                .expect("similar serializes");
            ctx.send(self.pa, similar);
            self.pending = Some(Pending::AwaitSimilar {
                task,
                offers: Vec::new(),
                degraded: true,
                unreachable: self.blocked_markets.clone(),
            });
            return;
        }
        let create_step = if fig == "fig4.2" { "step07" } else { "step06" };
        ctx.note(format!(
            "{fig}/{create_step} bra creates mba and assigns task"
        ));
        let mba = ctx.create_agent(Box::new(
            MobileBuyerAgent::new(
                ctx.host(),
                self.bsma,
                ctx.self_id(),
                self.consumer,
                mba_task,
                itinerary,
            )
            // give up on an unresponsive marketplace well before the BSMA
            // watchdog gives up on the whole trip
            .with_market_wait_us(self.mba_timeout_us / 4),
        ));
        let register_step = if fig == "fig4.2" { "step08" } else { "step07" };
        ctx.note(format!("{fig}/{register_step} bra registers mba with bsma"));
        let register = Message::new(kinds::MBA_REGISTER)
            .with_payload(&MbaRegister {
                mba,
                bra: ctx.self_id(),
                consumer: self.consumer,
                timeout_us: self.mba_timeout_us,
                figure: fig.to_string(),
            })
            .expect("register serializes");
        ctx.send(self.bsma, register);
        self.pending = Some(Pending::AwaitMba {
            task,
            mba,
            attempt,
            intent,
        });
    }

    /// Rank candidates: the paper's combination of similar users'
    /// preferences with the queried merchandise information and the
    /// consumer's own profile.
    /// `cw` is the collaborative weight for this reply — normally
    /// [`Self::collaborative_weight`], forced to 1.0 for a degraded
    /// CF-only reply where no fresh offers exist to content-rank.
    fn generate_recommendations(
        &self,
        offers: &[Offer],
        data: &PaSimilarReply,
        task: &ConsumerTask,
        k: usize,
        cw: f64,
    ) -> Vec<RecommendedItem> {
        let (keywords, category) = match task {
            ConsumerTask::Query {
                keywords, category, ..
            } => (keywords.clone(), category.clone()),
            _ => (Vec::new(), None),
        };
        let context = crate::recommend::QueryContext { keywords, category };
        // candidate pool: queried offers + neighbour preferences
        let mut pool: BTreeMap<u64, (Merchandise, f64)> = BTreeMap::new();
        for (m, w) in &data.neighbour_preferences {
            pool.insert(m.id.0, (m.clone(), *w));
        }
        for offer in offers {
            pool.entry(offer.item.id.0)
                .or_insert((offer.item.clone(), 0.0));
        }
        let n_neighbours = data.neighbours.len();
        let mut recs: Vec<RecommendedItem> = pool
            .into_values()
            .map(|(m, collab)| {
                let affinity = {
                    let a = data.profile.affinity(&m.category, &m.terms);
                    a / (1.0 + a)
                };
                let relevance = context.relevance(&m);
                let content = 0.5 * affinity + 0.5 * relevance;
                let score = cw * collab + (1.0 - cw) * content;
                // explanation: name the dominant signal
                let collab_part = cw * collab;
                let affinity_part = (1.0 - cw) * 0.5 * affinity;
                let relevance_part = (1.0 - cw) * 0.5 * relevance;
                let reason = if collab_part >= affinity_part && collab_part >= relevance_part {
                    format!("preferred by {n_neighbours} consumers with similar taste")
                } else if affinity_part >= relevance_part {
                    format!("matches your interest in {}", m.category)
                } else {
                    "matches your search".to_string()
                };
                RecommendedItem {
                    item: m,
                    score,
                    reason,
                }
            })
            .filter(|r| r.score > 0.0)
            .collect();
        recs.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.item.id.cmp(&b.item.id))
        });
        recs.truncate(k);
        recs
    }

    fn record_behavior(
        &self,
        ctx: &mut Ctx<'_>,
        item: &Merchandise,
        kind: BehaviorKind,
        price: Option<ecp::merchandise::Money>,
    ) {
        let record = Message::new(kinds::PA_RECORD)
            .with_payload(&PaRecord {
                consumer: self.consumer,
                item: item.clone(),
                kind,
                price,
                at_us: ctx.now().as_micros(),
            })
            .expect("record serializes");
        ctx.send(self.pa, record);
    }

    fn handle_mba_result(&mut self, ctx: &mut Ctx<'_>, from: Option<AgentId>, result: MbaResult) {
        // match non-destructively: a stale result from a superseded MBA
        // must not wipe whatever state the live attempt is in
        let (task, mba, intent) = match &self.pending {
            Some(Pending::AwaitMba {
                task, mba, intent, ..
            }) => (task.clone(), *mba, *intent),
            _ => {
                ctx.note("bra: unexpected mba result dropped");
                return;
            }
        };
        if from.is_some() && from != Some(mba) {
            // a superseded MBA (already retried or written off) made it
            // home after all; the live attempt's result is the one we want
            ctx.note("bra: stale result from superseded mba ignored");
            return;
        }
        self.pending = None;
        match result {
            MbaResult::Offers { offers, reports } => {
                // record the query behaviour against the top offers
                for offer in offers.iter().take(3) {
                    self.record_behavior(ctx, &offer.item, BehaviorKind::Query, None);
                }
                // partial-result tagging: marketplaces that never answered
                let unreachable: Vec<MarketRef> = reports
                    .iter()
                    .filter(|r| r.status != MarketStatus::Visited)
                    .map(|r| r.market)
                    .collect();
                let degraded = !reports.is_empty()
                    && !reports.iter().any(|r| r.status == MarketStatus::Visited);
                if degraded {
                    ctx.note("bra: no marketplace reachable, degrading to cached-profile cf");
                }
                let similar = Message::new(kinds::PA_SIMILAR)
                    .with_payload(&PaSimilar {
                        consumer: self.consumer,
                        offers: offers.iter().map(|o| o.item.clone()).collect(),
                        k_neighbours: self.k_neighbours,
                    })
                    .expect("similar serializes");
                ctx.send(self.pa, similar);
                self.pending = Some(Pending::AwaitSimilar {
                    task,
                    offers,
                    degraded,
                    unreachable,
                });
            }
            MbaResult::Bought {
                item,
                price,
                negotiated,
                rounds,
            } => {
                ctx.note("fig4.3/step13 bra records transaction and pa updates profile");
                if let Some(intent) = intent {
                    Self::journal_commit(ctx, intent, &item, price);
                }
                let kind = if negotiated {
                    BehaviorKind::Negotiate
                } else {
                    BehaviorKind::Purchase
                };
                // negotiation that closed a deal is still a purchase
                self.record_behavior(ctx, &item, BehaviorKind::Purchase, Some(price));
                if negotiated {
                    self.record_behavior(ctx, &item, kind, Some(price));
                }
                ctx.note("fig4.3/step14 bra responds with receipt");
                self.respond(
                    ctx,
                    ResponseBody::Receipt {
                        item,
                        price,
                        channel: if negotiated {
                            format!("negotiated in {rounds} rounds")
                        } else {
                            "direct".into()
                        },
                    },
                );
            }
            MbaResult::BuyFailed { reason, .. } => {
                ctx.note("fig4.3/step13 bra records failed trade");
                if let Some(intent) = intent {
                    // the marketplace definitively rejected/failed the buy,
                    // so the intent resolves to a clean abort
                    ctx.journal_abort(intent.to_string(), reason.clone());
                }
                ctx.note("fig4.3/step14 bra responds with failure");
                self.respond(ctx, ResponseBody::Error(reason));
            }
            MbaResult::AuctionDone {
                item,
                won,
                price,
                bids,
            } => {
                ctx.note("fig4.3/step13 bra records auction outcome");
                if bids > 0 {
                    self.record_behavior(ctx, &item, BehaviorKind::Bid, None);
                }
                if won {
                    self.record_behavior(ctx, &item, BehaviorKind::AuctionWin, price);
                }
                ctx.note("fig4.3/step14 bra responds with auction result");
                self.respond(ctx, ResponseBody::AuctionResult { item, won, price });
            }
        }
    }

    /// Ledger query number `query` of the task in [`Pending::AwaitLedger`]
    /// went unanswered: re-send it while the retry budget lasts, then give
    /// up with a journalled abort and an explicit error reply.
    fn ledger_query_timed_out(&mut self, ctx: &mut Ctx<'_>, query: u32) {
        if !matches!(self.pending, Some(Pending::AwaitLedger { queries, .. }) if queries == query) {
            // answered meanwhile, or the timer of an earlier query (one
            // armed before a crash, say): leave the live state alone
            return;
        }
        let Some(Pending::AwaitLedger {
            task,
            intent,
            market,
            attempt,
            queries,
        }) = self.pending.take()
        else {
            return;
        };
        if queries < self.retry.max_retries {
            ctx.note(format!(
                "bra: ledger query for intent {intent} unanswered, re-sending (attempt {})",
                queries + 1
            ));
            ctx.count_retry();
            self.query_ledger(ctx, intent, market, queries + 1);
            self.pending = Some(Pending::AwaitLedger {
                task,
                intent,
                market,
                attempt,
                queries: queries + 1,
            });
            return;
        }
        ctx.note(format!(
            "bra: intent {intent} aborted, marketplace ledger unreachable"
        ));
        ctx.journal_abort(
            intent.to_string(),
            "mba lost; marketplace ledger unreachable and retries exhausted",
        );
        self.respond(
            ctx,
            ResponseBody::Error(
                "purchase aborted: buyer agent lost and marketplace ledger unreachable".into(),
            ),
        );
    }
}

impl Agent for BuyerRecommendAgent {
    fn agent_type(&self) -> &'static str {
        BRA_TYPE
    }

    fn snapshot(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("bra state serializes")
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.kind.as_str() {
            kinds::BRA_TASK => {
                if let Ok(routed) = msg.payload_as::<FrontTask>() {
                    self.start_task(ctx, routed);
                }
            }
            kinds::PA_PROFILE => {
                let Ok(profile) = msg.payload_as::<PaProfile>() else {
                    return;
                };
                self.profile = Some(profile.profile);
                let task = match &self.pending {
                    Some(Pending::AwaitProfile { task }) => task.clone(),
                    _ => return, // stale profile; keep the live state
                };
                self.pending = None;
                let fig = task.figure();
                let step = if fig == "fig4.2" { "step06" } else { "step05" };
                ctx.note(format!("{fig}/{step} bra received profile"));
                self.dispatch_mba(ctx, task, 0, None);
            }
            kinds::MBA_RESULT => {
                if let Ok(result) = msg.payload_as::<MbaResult>() {
                    self.handle_mba_result(ctx, msg.from, result);
                }
            }
            kinds::PA_SIMILAR_REPLY => {
                let Ok(data) = msg.payload_as::<PaSimilarReply>() else {
                    return;
                };
                let (task, offers, degraded, unreachable) = match &self.pending {
                    Some(Pending::AwaitSimilar {
                        task,
                        offers,
                        degraded,
                        unreachable,
                    }) => (task.clone(), offers.clone(), *degraded, unreachable.clone()),
                    _ => return, // stale similar-reply; keep the live state
                };
                self.pending = None;
                ctx.note(
                    "fig4.2/step14 bra generates recommendation from similar users and offers",
                );
                self.profile = Some(data.profile.clone());
                let max = match &task {
                    ConsumerTask::Query { max_results, .. } => (*max_results).max(5),
                    _ => 5,
                };
                // a degraded reply has no fresh offers to content-rank, so
                // it leans entirely on the neighbours' preferences
                let cw = if degraded {
                    1.0
                } else {
                    self.collaborative_weight
                };
                let recommendations = self.generate_recommendations(&offers, &data, &task, max, cw);
                self.recommendations_made += 1;
                if degraded {
                    ctx.note("fig4.2/step15 bra responds with degraded cf-only recommendations");
                    ctx.count_degraded_reply();
                } else {
                    ctx.note("fig4.2/step15 bra responds with recommendations");
                }
                self.respond(
                    ctx,
                    ResponseBody::Recommendations {
                        offers,
                        recommendations,
                        degraded,
                        unreachable_markets: unreachable,
                    },
                );
            }
            kinds::MBA_LOST => {
                let Ok(lost) = msg.payload_as::<MbaLost>() else {
                    return;
                };
                let (task, mba, attempt, intent) = match &self.pending {
                    Some(Pending::AwaitMba {
                        task,
                        mba,
                        attempt,
                        intent,
                    }) => (task.clone(), *mba, *attempt, *intent),
                    _ => {
                        ctx.note(format!(
                            "bra: loss notice for {} with no task in flight",
                            lost.mba
                        ));
                        return;
                    }
                };
                if lost.mba != mba {
                    ctx.note(format!("bra: stale loss notice for {} ignored", lost.mba));
                    return;
                }
                self.pending = None;
                ctx.note(format!("bra: mba {mba} presumed lost"));
                // A buy whose MBA vanished has an unknown outcome: the
                // purchase may or may not have gone through. Ask the
                // marketplace ledger before deciding to retry or abort —
                // never blindly re-run a buy (at-most-once).
                if let (ConsumerTask::Buy { market, .. }, Some(intent)) = (&task, intent) {
                    let market = *market;
                    ctx.note(format!(
                        "bra: purchase intent {intent} in doubt, querying marketplace ledger"
                    ));
                    self.query_ledger(ctx, intent, market, 0);
                    self.pending = Some(Pending::AwaitLedger {
                        task,
                        intent,
                        market,
                        attempt,
                        queries: 0,
                    });
                    return;
                }
                if attempt < self.retry.max_retries {
                    // clamp the retry to the request's remaining deadline
                    // budget: a retry that would land after the reply was
                    // due degrades instead. The loss notice travels
                    // deadline-free, so the budget arrives in its payload.
                    let budget = lost
                        .deadline_us
                        .map(|d| d.saturating_sub(ctx.now().as_micros()))
                        .or_else(|| ctx.remaining_us());
                    match self.retry.delay_within(attempt, budget) {
                        Some(delay) => {
                            ctx.note(format!(
                                "bra: retrying task in {delay}us (attempt {})",
                                attempt + 1
                            ));
                            ctx.count_retry();
                            // the retried dispatch still runs under the
                            // original request deadline
                            if let Some(d) = lost.deadline_us {
                                ctx.set_deadline(SimTime(d));
                            }
                            self.pending = Some(Pending::AwaitRetry {
                                task,
                                attempt: attempt + 1,
                                intent: None,
                            });
                            ctx.set_timer(SimDuration::from_micros(delay), RETRY_TAG);
                            return;
                        }
                        None => {
                            ctx.note("bra: no deadline budget for another dispatch, degrading now");
                        }
                    }
                }
                match &task {
                    ConsumerTask::Query { .. } => {
                        // retries exhausted: degrade to CF-only built from
                        // the cached profile rather than failing the query
                        ctx.note("bra: retries exhausted, degrading to cached-profile cf");
                        let similar = Message::new(kinds::PA_SIMILAR)
                            .with_payload(&PaSimilar {
                                consumer: self.consumer,
                                offers: Vec::new(),
                                k_neighbours: self.k_neighbours,
                            })
                            .expect("similar serializes");
                        ctx.send(self.pa, similar);
                        self.pending = Some(Pending::AwaitSimilar {
                            task,
                            offers: Vec::new(),
                            degraded: true,
                            unreachable: self.markets.clone(),
                        });
                    }
                    _ => {
                        // an auction out of retries (or deadline budget)
                        // fails explicitly; buys never get here, the
                        // ledger settles them
                        self.respond(
                            ctx,
                            ResponseBody::Error("mobile buyer agent lost in transit".into()),
                        );
                    }
                }
            }
            ecpk::kinds::LEDGER_REPLY => {
                let Ok(reply) = msg.payload_as::<LedgerReply>() else {
                    return;
                };
                let (task, intent, attempt) = match &self.pending {
                    Some(Pending::AwaitLedger {
                        task,
                        intent,
                        attempt,
                        ..
                    }) => (task.clone(), *intent, *attempt),
                    _ => {
                        ctx.note("bra: stale ledger reply dropped");
                        return;
                    }
                };
                if reply.intent != intent {
                    ctx.note(format!(
                        "bra: ledger reply for foreign intent {}",
                        reply.intent
                    ));
                    return;
                }
                self.pending = None;
                match reply.committed {
                    Some(confirm) => {
                        // the lost MBA did complete the purchase before
                        // vanishing: honour it exactly once from the ledger
                        ctx.note(format!(
                            "bra: intent {intent} committed at marketplace, recovered from ledger"
                        ));
                        ctx.count_ledger_resolution();
                        Self::journal_commit(ctx, intent, &confirm.item, confirm.price);
                        self.record_behavior(
                            ctx,
                            &confirm.item,
                            BehaviorKind::Purchase,
                            Some(confirm.price),
                        );
                        self.respond(
                            ctx,
                            ResponseBody::Receipt {
                                item: confirm.item,
                                price: confirm.price,
                                channel: "recovered from marketplace ledger".into(),
                            },
                        );
                    }
                    None => {
                        // never committed: a retry under the same intent is
                        // safe (the ledger will dedupe a late duplicate)
                        if attempt < self.retry.max_retries {
                            let budget = ctx.remaining_us();
                            if let Some(delay) = self.retry.delay_within(attempt, budget) {
                                ctx.note(format!(
                                    "bra: intent {intent} not committed, retrying in {delay}us (attempt {})",
                                    attempt + 1
                                ));
                                ctx.count_retry();
                                self.pending = Some(Pending::AwaitRetry {
                                    task,
                                    attempt: attempt + 1,
                                    intent: Some(intent),
                                });
                                ctx.set_timer(SimDuration::from_micros(delay), RETRY_TAG);
                                return;
                            }
                        }
                        ctx.note(format!("bra: intent {intent} aborted after ledger check"));
                        ctx.journal_abort(
                            intent.to_string(),
                            "mba lost; marketplace ledger shows no commit and retries exhausted",
                        );
                        self.respond(
                            ctx,
                            ResponseBody::Error(
                                "purchase aborted: buyer agent lost and marketplace ledger shows no commit"
                                    .into(),
                            ),
                        );
                    }
                }
            }
            other => {
                ctx.note(format!("bra: unhandled kind {other}"));
            }
        }
    }

    fn on_rehomed(&mut self, ctx: &mut Ctx<'_>, new_home: HostId) {
        // BRAs keep no host field of their own (peers are agent ids, and
        // MBA placement follows the BSMA's target) — just log the move.
        ctx.note(format!("bra: rehomed to failover host {new_home}"));
    }

    fn on_recovered(&mut self, ctx: &mut Ctx<'_>, _deltas: &[serde_json::Value]) {
        // The host died and came back: the WAL restored our state, but any
        // message already sent to a peer may have produced a reply that
        // died with the host, and armed timers are gone. Re-drive whatever
        // stage the task was in; every peer handler tolerates duplicates.
        match self.pending.clone() {
            Some(Pending::AwaitProfile { task }) => {
                ctx.note("bra: recovered mid profile-load, re-requesting profile");
                let load = Message::new(kinds::PA_LOAD)
                    .with_payload(&PaLoad {
                        consumer: self.consumer,
                        figure: task.figure().to_string(),
                    })
                    .expect("load serializes");
                ctx.send(self.pa, load);
            }
            Some(Pending::AwaitSimilar { offers, .. }) => {
                ctx.note("bra: recovered mid similar-query, re-requesting neighbours");
                let similar = Message::new(kinds::PA_SIMILAR)
                    .with_payload(&PaSimilar {
                        consumer: self.consumer,
                        offers: offers.iter().map(|o| o.item.clone()).collect(),
                        k_neighbours: self.k_neighbours,
                    })
                    .expect("similar serializes");
                ctx.send(self.pa, similar);
            }
            Some(Pending::AwaitRetry { .. }) => {
                // the backoff timer died with the host; re-arm it
                ctx.note("bra: recovered mid retry-backoff, re-arming dispatch timer");
                ctx.set_timer(SimDuration::from_micros(1_000), RETRY_TAG);
            }
            Some(Pending::AwaitLedger {
                intent,
                market,
                queries,
                ..
            }) => {
                ctx.note(format!(
                    "bra: recovered mid ledger-query, re-querying intent {intent}"
                ));
                self.query_ledger(ctx, intent, market, queries);
            }
            Some(Pending::AwaitMba { task, mba, .. }) => {
                // The MBA is out roaming (or lost). Normally the BSMA's
                // own recovery re-arms the watchdog, but if the crash hit
                // between MBA creation and registration the BSMA never
                // saw this trip — re-register so the watchdog exists.
                // The BSMA dedupes by MBA id, so this is a no-op when the
                // watch survived.
                ctx.note(format!(
                    "bra: recovered with mba {mba} outstanding, re-registering watch"
                ));
                let register = Message::new(kinds::MBA_REGISTER)
                    .with_payload(&MbaRegister {
                        mba,
                        bra: ctx.self_id(),
                        consumer: self.consumer,
                        timeout_us: self.mba_timeout_us,
                        figure: task.figure().to_string(),
                    })
                    .expect("register serializes");
                ctx.send(self.bsma, register);
            }
            None => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if let Some(query) = tag.checked_sub(LEDGER_TAG) {
            self.ledger_query_timed_out(ctx, u32::try_from(query).unwrap_or(u32::MAX));
            return;
        }
        // a stale timer (the re-armed copy after a recovery, say) must
        // not take the live state of a later stage
        if tag != RETRY_TAG || !matches!(self.pending, Some(Pending::AwaitRetry { .. })) {
            return;
        }
        let Some(Pending::AwaitRetry {
            task,
            attempt,
            intent,
        }) = self.pending.take()
        else {
            return;
        };
        ctx.note(format!("bra: re-dispatching mba (attempt {attempt})"));
        self.dispatch_mba(ctx, task, attempt, intent);
    }

    fn on_disposal(&mut self, ctx: &mut Ctx<'_>) {
        ctx.note(format!("bra for {} terminated at logout", self.consumer));
    }
}

// Integration-style tests for the BRA live in the server module and the
// workspace `tests/` directory, where a full Buyer Agent Server exists;
// unit tests here cover the pure ranking logic.
#[cfg(test)]
mod tests {
    use super::*;
    use ecp::merchandise::{CategoryPath, ItemId, Money};
    use ecp::terms::TermVector;

    fn merch(id: u64, name: &str) -> Merchandise {
        Merchandise {
            id: ItemId(id),
            name: name.into(),
            category: CategoryPath::new("books", "programming"),
            terms: TermVector::from_pairs([(name.to_lowercase(), 1.0)]),
            list_price: Money::from_units(10),
            seller: 1,
        }
    }

    fn bra() -> BuyerRecommendAgent {
        BuyerRecommendAgent::new(ConsumerId(1), AgentId(2), AgentId(3), AgentId(4), vec![])
    }

    fn reply_with(prefs: Vec<(Merchandise, f64)>) -> PaSimilarReply {
        let mut profile = Profile::new();
        profile
            .category_mut("books")
            .sub_mut("programming")
            .set("rustbook1", 1.0);
        PaSimilarReply {
            consumer: ConsumerId(1),
            profile,
            neighbours: vec![(ConsumerId(2), 0.9)],
            neighbour_preferences: prefs,
        }
    }

    #[test]
    fn recommendations_prefer_neighbour_endorsed_items() {
        let b = bra();
        let offers = vec![Offer {
            item: merch(1, "rustbook1"),
            marketplace: agentsim::ids::HostId(1),
            price: Money::from_units(10),
        }];
        let data = reply_with(vec![(merch(2, "rustbook2"), 0.9)]);
        let task = ConsumerTask::Query {
            keywords: vec!["rustbook1".into()],
            category: None,
            max_results: 5,
        };
        let recs = b.generate_recommendations(&offers, &data, &task, 5, b.collaborative_weight);
        assert_eq!(recs.len(), 2);
        // neighbour-endorsed item 2 has collab 0.9; offer item 1 has high
        // content relevance. With cw=0.7, item 2 should lead.
        assert_eq!(recs[0].item.id, ItemId(2));
        assert!(recs[0].score > recs[1].score);
        // explanations name the dominant signal
        assert!(
            recs[0].reason.contains("similar taste"),
            "neighbour-driven item must say so: {}",
            recs[0].reason
        );
    }

    #[test]
    fn zero_collaborative_weight_makes_content_dominate() {
        let b = bra().with_collaborative_weight(0.0);
        let offers = vec![Offer {
            item: merch(1, "rustbook1"),
            marketplace: agentsim::ids::HostId(1),
            price: Money::from_units(10),
        }];
        let data = reply_with(vec![(merch(2, "unrelated-thing"), 0.99)]);
        let task = ConsumerTask::Query {
            keywords: vec!["rustbook1".into()],
            category: None,
            max_results: 5,
        };
        let recs = b.generate_recommendations(&offers, &data, &task, 5, b.collaborative_weight);
        assert_eq!(
            recs[0].item.id,
            ItemId(1),
            "pure content ranks the matching offer first"
        );
    }

    #[test]
    fn recommendations_truncate_at_k() {
        let b = bra();
        let data = reply_with(
            (1..=20)
                .map(|i| (merch(i, &format!("rustbook{i}")), 0.5))
                .collect(),
        );
        let task = ConsumerTask::Query {
            keywords: vec![],
            category: None,
            max_results: 20,
        };
        let recs = b.generate_recommendations(&[], &data, &task, 3, b.collaborative_weight);
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn bra_state_round_trips_serde() {
        let b = bra().with_collaborative_weight(0.4);
        let v = serde_json::to_value(&b).unwrap();
        let back: BuyerRecommendAgent = serde_json::from_value(v).unwrap();
        assert_eq!(back.consumer, ConsumerId(1));
        assert!((back.collaborative_weight - 0.4).abs() < 1e-12);
    }
}
