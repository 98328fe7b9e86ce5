//! Internal message protocol of the Buyer Agent Server.
//!
//! §4.1 principle 6: *"The coordination of functional agents in
//! recommendation mechanism is through the message passing."* These are
//! the kinds and payloads exchanged between HttpA, BSMA, PA, BRA and MBA.

use crate::learning::BehaviorKind;
use crate::profile::{ConsumerId, Profile};
use agentsim::ids::{AgentId, HostId};
use ecp::merchandise::{CategoryPath, ItemId, Merchandise, Money};
use ecp::protocol::Offer;
use serde::{Deserialize, Serialize};

/// Message kinds internal to the Buyer Agent Server.
pub mod kinds {
    /// Browser → HttpA: a front request ([`super::FrontRequest`]).
    pub const FRONT_REQUEST: &str = "front-request";

    /// HttpA → BSMA: log a consumer in (create their BRA).
    pub const LOGIN: &str = "login";
    /// BSMA → HttpA: session opened; carries the BRA id.
    pub const SESSION_OPEN: &str = "session-open";
    /// HttpA → BSMA: log a consumer out (dispose their BRA).
    pub const LOGOUT: &str = "logout";
    /// BSMA → HttpA: session closed.
    pub const SESSION_CLOSED: &str = "session-closed";
    /// HttpA → BSMA: route a consumer task to their BRA
    /// ([`super::FrontTask`]).
    pub const ROUTE_TASK: &str = "route-task";
    /// BSMA → HttpA: routing failed (no session); carries the refused
    /// [`super::FrontTask`] back.
    pub const NO_SESSION: &str = "no-session";

    /// BSMA → BRA: perform a task ([`super::FrontTask`]).
    pub const BRA_TASK: &str = "bra-task";
    /// BRA → HttpA: response for the consumer ([`super::BraResponse`]).
    pub const BRA_RESPONSE: &str = "bra-response";

    /// BRA → PA: load (or create) the consumer's profile.
    pub const PA_LOAD: &str = "pa-load";
    /// PA → BRA: the profile.
    pub const PA_PROFILE: &str = "pa-profile";
    /// BRA → PA: record a behaviour / transaction.
    pub const PA_RECORD: &str = "pa-record";
    /// BRA → PA: request recommendation data (similar users' preferences).
    pub const PA_SIMILAR: &str = "pa-similar";
    /// PA → BRA: recommendation data.
    pub const PA_SIMILAR_REPLY: &str = "pa-similar-reply";

    /// BRA → BSMA: register a dispatched MBA (kept in BSMDB, §4.1 p.2).
    pub const MBA_REGISTER: &str = "mba-register";
    /// MBA → BSMA: returned home (post-authentication notice).
    pub const MBA_RETURNED: &str = "mba-returned";
    /// MBA → BRA: the task result.
    pub const MBA_RESULT: &str = "mba-result";
    /// BSMA → BRA: your MBA is overdue and presumed lost.
    pub const MBA_LOST: &str = "mba-lost";

    /// Anyone → BSMA: ask for the EC domain information the mechanism
    /// holds (§3.3 BSMA ability 1: "the E-Commerce information
    /// providing").
    pub const EC_INFO: &str = "ec-info";
    /// BSMA's answer to [`EC_INFO`].
    pub const EC_INFO_REPLY: &str = "ec-info-reply";
}

/// A reference to a marketplace (host + service agent), as stored in
/// BSMDB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarketRef {
    /// Host the marketplace runs on.
    pub host: HostId,
    /// The marketplace service agent.
    pub agent: AgentId,
}

/// How the MBA fared at one marketplace on its itinerary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MarketStatus {
    /// The marketplace was reached and answered the query.
    Visited,
    /// Migration to the marketplace was refused (partition or crash).
    Unreachable,
    /// The MBA reached the marketplace but gave up waiting for a reply.
    NoReply,
}

/// Per-marketplace outcome tag carried home by the MBA so the BRA can
/// label partial results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarketReport {
    /// The marketplace in question.
    pub market: MarketRef,
    /// What happened there.
    pub status: MarketStatus,
}

/// What a consumer asks the mechanism to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConsumerTask {
    /// Search marketplaces and receive recommendations (Fig 4.2).
    Query {
        /// Search keywords.
        keywords: Vec<String>,
        /// Optional category filter.
        category: Option<CategoryPath>,
        /// Cap on offers per marketplace.
        max_results: usize,
    },
    /// Buy an item (Fig 4.3), directly or by negotiation.
    Buy {
        /// Item to buy.
        item: ItemId,
        /// Marketplace holding the listing.
        market: MarketRef,
        /// Buying mode.
        mode: BuyMode,
    },
    /// Bid in an auction up to a limit (Fig 4.3).
    Auction {
        /// Auctioned item.
        item: ItemId,
        /// Marketplace running the auction.
        market: MarketRef,
        /// Highest price the consumer will pay.
        limit: Money,
    },
}

impl ConsumerTask {
    /// The figure this task's workflow reproduces ("fig4.2" or "fig4.3").
    pub fn figure(&self) -> &'static str {
        match self {
            ConsumerTask::Query { .. } => "fig4.2",
            _ => "fig4.3",
        }
    }
}

/// How to buy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BuyMode {
    /// Pay the list price.
    Direct,
    /// Negotiate with the given buyer policy.
    Negotiate {
        /// Hard price ceiling.
        budget: Money,
        /// Opening offer as a fraction of list.
        opening_fraction: f64,
        /// Per-round raise.
        raise: f64,
        /// Give up after this many offers.
        max_rounds: u32,
    },
}

/// A request from the consumer's browser.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontRequest {
    /// The consumer issuing the request.
    pub consumer: ConsumerId,
    /// What they want.
    pub body: FrontRequestBody,
}

/// Request bodies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FrontRequestBody {
    /// Log in (creates the BRA — §4.1 principle 1).
    Login,
    /// Log out (disposes the BRA).
    Logout,
    /// Run a task.
    Task(ConsumerTask),
}

/// Response delivered to the consumer's browser: emitted by the HttpA to
/// its outbox, where the platform takes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontResponse {
    /// Position of this reply in its HttpA's output: 0, 1, 2, … with no
    /// gaps, so a reader can check it saw every reply exactly once.
    pub seq: u64,
    /// Consumer the response is for.
    pub consumer: ConsumerId,
    /// Response body.
    pub body: ResponseBody,
}

/// Response bodies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// Session opened.
    LoggedIn,
    /// Session closed.
    LoggedOut,
    /// Query results: raw offers plus generated recommendations.
    Recommendations {
        /// Offers collected from the marketplaces.
        offers: Vec<Offer>,
        /// Recommendation information generated by the mechanism.
        recommendations: Vec<RecommendedItem>,
        /// True when the reply fell back to CF-only recommendations from
        /// the cached profile because no marketplace could be reached.
        #[serde(default)]
        degraded: bool,
        /// Marketplaces the MBA could not collect offers from (partial
        /// result tagging; empty on a clean run).
        #[serde(default)]
        unreachable_markets: Vec<MarketRef>,
    },
    /// Purchase receipt.
    Receipt {
        /// Item bought.
        item: Merchandise,
        /// Price paid.
        price: Money,
        /// Trade channel description.
        channel: String,
    },
    /// Auction result.
    AuctionResult {
        /// Item auctioned.
        item: Merchandise,
        /// Whether this consumer won.
        won: bool,
        /// Closing price, if sold.
        price: Option<Money>,
    },
    /// Something went wrong.
    Error(String),
    /// The server shed the request at ingress (admission control).
    Overloaded {
        /// Suggested microseconds to wait before retrying.
        retry_after_us: u64,
    },
}

/// One recommended item with its score and a consumer-facing reason.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendedItem {
    /// The item.
    pub item: Merchandise,
    /// Relative score.
    pub score: f64,
    /// Why the mechanism recommends it (dominant signal: similar
    /// consumers, the consumer's own profile, or the current query).
    #[serde(default)]
    pub reason: String,
}

/// Payload of [`kinds::LOGIN`] / [`kinds::LOGOUT`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionRequest {
    /// Consumer logging in/out.
    pub consumer: ConsumerId,
}

/// Payload of [`kinds::SESSION_OPEN`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionOpen {
    /// Consumer whose session opened.
    pub consumer: ConsumerId,
    /// Their BRA.
    pub bra: AgentId,
}

/// A task injected straight at the BSMA ([`kinds::ROUTE_TASK`]) without
/// a front-door request id; it reads as a [`FrontTask`] of request 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedTask {
    /// Consumer the task belongs to.
    pub consumer: ConsumerId,
    /// The task.
    pub task: ConsumerTask,
    /// Marketplaces whose circuit breaker is open: the BRA must not
    /// route the MBA there (empty when breakers are off or all closed).
    #[serde(default)]
    pub blocked_markets: Vec<MarketRef>,
}

/// Payload of [`kinds::ROUTE_TASK`], [`kinds::BRA_TASK`] and
/// [`kinds::NO_SESSION`]: the [`RoutedTask`] fields plus the id of the
/// front-door request the task answers, which the BRA echoes in its
/// [`BraResponse`] so the HttpA settles exactly that request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontTask {
    /// Consumer the task belongs to.
    pub consumer: ConsumerId,
    /// The task.
    pub task: ConsumerTask,
    /// Marketplaces whose circuit breaker is open: the BRA must not
    /// route the MBA there (empty when breakers are off or all closed).
    #[serde(default)]
    pub blocked_markets: Vec<MarketRef>,
    /// The HttpA's id for the request (0 = not from the HttpA).
    #[serde(default)]
    pub request: u64,
}

/// Payload of [`kinds::PA_LOAD`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaLoad {
    /// Consumer whose profile to load.
    pub consumer: ConsumerId,
    /// Workflow figure this load belongs to (`"fig4.2"` / `"fig4.3"`),
    /// used for trace-step attribution; empty for out-of-workflow loads.
    #[serde(default)]
    pub figure: String,
}

/// Payload of [`kinds::PA_PROFILE`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaProfile {
    /// Consumer the profile belongs to.
    pub consumer: ConsumerId,
    /// The (possibly fresh) profile.
    pub profile: Profile,
}

/// Payload of [`kinds::PA_RECORD`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaRecord {
    /// Consumer who acted.
    pub consumer: ConsumerId,
    /// Merchandise involved.
    pub item: Merchandise,
    /// Behaviour kind.
    pub kind: BehaviorKind,
    /// Price, for transactions.
    pub price: Option<Money>,
    /// Simulated timestamp (microseconds).
    pub at_us: u64,
}

/// Payload of [`kinds::PA_SIMILAR`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaSimilar {
    /// Consumer seeking recommendations.
    pub consumer: ConsumerId,
    /// Queried merchandise information (offers just collected).
    pub offers: Vec<Merchandise>,
    /// How many neighbours to consider.
    pub k_neighbours: usize,
}

/// Payload of [`kinds::PA_SIMILAR_REPLY`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaSimilarReply {
    /// Consumer the data is for.
    pub consumer: ConsumerId,
    /// Their current profile.
    pub profile: Profile,
    /// Similar users found in UserDB, best first.
    pub neighbours: Vec<(ConsumerId, f64)>,
    /// Similarity-weighted neighbour preferences over known items
    /// (normalized to `[0, 1]`), with the merchandise data.
    pub neighbour_preferences: Vec<(Merchandise, f64)>,
}

/// Payload of [`kinds::MBA_REGISTER`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MbaRegister {
    /// The MBA being dispatched.
    pub mba: AgentId,
    /// The BRA that owns it (to deactivate now, reactivate on return).
    pub bra: AgentId,
    /// Consumer served.
    pub consumer: ConsumerId,
    /// Microseconds after which the MBA is presumed lost.
    pub timeout_us: u64,
    /// Workflow figure (`"fig4.2"` / `"fig4.3"`) for trace attribution.
    #[serde(default)]
    pub figure: String,
}

/// Payload of [`kinds::MBA_RETURNED`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MbaReturned {
    /// The returning MBA.
    pub mba: AgentId,
    /// Its BRA.
    pub bra: AgentId,
    /// Per-marketplace outcomes from the trip, so the BSMA can feed its
    /// circuit breakers (empty on pre-breaker capsules).
    #[serde(default)]
    pub reports: Vec<MarketReport>,
}

/// Payload of [`kinds::MBA_RESULT`]: what the MBA brought home.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MbaResult {
    /// Offers collected across marketplaces (query task).
    Offers {
        /// Offers gathered at the marketplaces that answered.
        offers: Vec<Offer>,
        /// Per-marketplace outcome tags (empty on pre-chaos capsules).
        #[serde(default)]
        reports: Vec<MarketReport>,
    },
    /// Purchase completed.
    Bought {
        /// Item bought.
        item: Merchandise,
        /// Price paid.
        price: Money,
        /// Whether negotiation was used.
        negotiated: bool,
        /// Buyer offers made (0 for direct buys).
        rounds: u32,
    },
    /// Purchase failed (no deal / rejected / unknown item).
    BuyFailed {
        /// Item attempted.
        item: ItemId,
        /// Reason.
        reason: String,
    },
    /// Auction finished.
    AuctionDone {
        /// Item auctioned.
        item: Merchandise,
        /// Whether we won.
        won: bool,
        /// Closing price, if sold.
        price: Option<Money>,
        /// Bids we placed.
        bids: u32,
    },
}

/// Payload of [`kinds::EC_INFO_REPLY`]: what the Buyer Agent Server
/// knows about its EC domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EcInfo {
    /// Marketplaces recorded in BSMDB.
    pub marketplaces: Vec<MarketRef>,
    /// Consumers currently logged in.
    pub online_consumers: u32,
    /// MBAs currently roaming.
    pub roaming_mbas: u32,
}

/// Payload of [`kinds::BRA_RESPONSE`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BraResponse {
    /// Consumer the response is for.
    pub consumer: ConsumerId,
    /// The front-door request answered ([`FrontTask::request`]).
    #[serde(default)]
    pub request: u64,
    /// The response body, forwarded verbatim to the browser.
    pub body: ResponseBody,
}

/// Payload of [`kinds::MBA_LOST`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MbaLost {
    /// The MBA that never came back.
    pub mba: AgentId,
    /// Absolute request deadline (µs) the lost trip ran under, if any.
    /// The notice itself travels deadline-free (it IS the recovery path),
    /// so the budget rides in the payload for the BRA's retry decision.
    #[serde(default)]
    pub deadline_us: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumer_task_maps_to_figures() {
        let q = ConsumerTask::Query {
            keywords: vec![],
            category: None,
            max_results: 5,
        };
        assert_eq!(q.figure(), "fig4.2");
        let b = ConsumerTask::Buy {
            item: ItemId(1),
            market: MarketRef {
                host: HostId(1),
                agent: AgentId(1),
            },
            mode: BuyMode::Direct,
        };
        assert_eq!(b.figure(), "fig4.3");
        let a = ConsumerTask::Auction {
            item: ItemId(1),
            market: MarketRef {
                host: HostId(1),
                agent: AgentId(1),
            },
            limit: Money(100),
        };
        assert_eq!(a.figure(), "fig4.3");
    }

    #[test]
    fn front_request_round_trips() {
        let req = FrontRequest {
            consumer: ConsumerId(7),
            body: FrontRequestBody::Task(ConsumerTask::Query {
                keywords: vec!["rust".into()],
                category: None,
                max_results: 3,
            }),
        };
        let v = serde_json::to_value(&req).unwrap();
        let back: FrontRequest = serde_json::from_value(v).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn mba_result_variants_round_trip() {
        let results = vec![
            MbaResult::Offers {
                offers: vec![],
                reports: vec![MarketReport {
                    market: MarketRef {
                        host: HostId(3),
                        agent: AgentId(9),
                    },
                    status: MarketStatus::Unreachable,
                }],
            },
            MbaResult::BuyFailed {
                item: ItemId(1),
                reason: "no deal".into(),
            },
        ];
        for r in results {
            let v = serde_json::to_value(&r).unwrap();
            let back: MbaResult = serde_json::from_value(v).unwrap();
            assert_eq!(back, r);
        }
    }
}
