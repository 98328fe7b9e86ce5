//! Typed message payloads and kind constants for the e-commerce platform.
//!
//! Every inter-agent message has a string `kind` (listed here as
//! constants) and a serde payload (the structs here). Keeping them in one
//! module makes the wire protocol auditable at a glance — the paper's
//! §4.1 principle 5: *"The MBA created by the recommendation mechanism
//! will use the same message type."*

use crate::auction::AuctionOutcome;
use crate::merchandise::{CategoryPath, ItemId, Merchandise, Money};
use agentsim::ids::{AgentId, HostId};
use serde::{Deserialize, Serialize};

/// Message kinds used across the platform.
pub mod kinds {
    /// Register a server with the coordinator.
    pub const REGISTER_SERVER: &str = "register-server";
    /// Coordinator acknowledgement of a registration.
    pub const REGISTER_ACK: &str = "register-ack";
    /// Ask the coordinator for servers of a role.
    pub const LIST_SERVERS: &str = "list-servers";
    /// Coordinator's answer to [`LIST_SERVERS`].
    pub const SERVER_LIST: &str = "server-list";
    /// Ask the coordinator to provision a Buyer Agent Server (Fig 4.1
    /// step 1).
    pub const REQUEST_BUYER_SERVER: &str = "request-buyer-server";

    /// Seller pushes (part of) its catalog to a marketplace.
    pub const CATALOG_SYNC: &str = "catalog-sync";
    /// Marketplace confirms a catalog sync.
    pub const CATALOG_ACK: &str = "catalog-ack";

    /// Keyword/category query against a marketplace.
    pub const QUERY_REQUEST: &str = "query-request";
    /// Offers answering a query.
    pub const QUERY_RESPONSE: &str = "query-response";

    /// Buy an item at its listed price.
    pub const BUY_REQUEST: &str = "buy-request";
    /// Purchase confirmation.
    pub const BUY_CONFIRM: &str = "buy-confirm";
    /// Purchase rejection (unknown item).
    pub const BUY_REJECT: &str = "buy-reject";

    /// Buyer's price offer in a negotiation.
    pub const NEGOTIATE_OFFER: &str = "negotiate-offer";
    /// Seller's counter-offer.
    pub const NEGOTIATE_COUNTER: &str = "negotiate-counter";
    /// Seller accepts; deal closed at the carried price.
    pub const NEGOTIATE_ACCEPT: &str = "negotiate-accept";
    /// Negotiation refused (unknown item).
    pub const NEGOTIATE_REJECT: &str = "negotiate-reject";

    /// Open an auction on a listed item.
    pub const AUCTION_OPEN: &str = "auction-open";
    /// Open a descending-price (Dutch) auction on a listed item.
    pub const DUTCH_OPEN: &str = "dutch-open";
    /// Join an open auction (subscribe to its close).
    pub const AUCTION_JOIN: &str = "auction-join";
    /// Auction state (minimum acceptable bid, current leader).
    pub const AUCTION_STATUS: &str = "auction-status";
    /// Place a bid.
    pub const AUCTION_BID: &str = "auction-bid";
    /// Bid acknowledged as the new high bid.
    pub const BID_ACCEPTED: &str = "bid-accepted";
    /// Bid refused (too low / closed / unknown auction).
    pub const BID_REJECTED: &str = "bid-rejected";
    /// Auction settled; sent to every joiner.
    pub const AUCTION_CLOSED: &str = "auction-closed";

    /// Ask a marketplace for its best-selling items.
    pub const TOP_SELLERS: &str = "top-sellers";
    /// Answer to [`TOP_SELLERS`].
    pub const TOP_SELLERS_LIST: &str = "top-sellers-list";

    /// Ask a marketplace whether a purchase intent committed (crash
    /// recovery: resolve an in-doubt purchase before retrying).
    pub const LEDGER_QUERY: &str = "ledger-query";
    /// Answer to [`LEDGER_QUERY`].
    pub const LEDGER_REPLY: &str = "ledger-reply";
}

/// Roles a server can register under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServerRole {
    /// A marketplace hosting trading services.
    Marketplace,
    /// A seller server providing merchandise.
    Seller,
    /// A buyer agent server (recommendation mechanism).
    BuyerServer,
}

/// Registration payload ([`kinds::REGISTER_SERVER`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegisterServer {
    /// Role being registered.
    pub role: ServerRole,
    /// Host the server runs on.
    pub host: HostId,
    /// The server's front agent.
    pub agent: AgentId,
    /// Display name.
    pub name: String,
}

/// Server listing request ([`kinds::LIST_SERVERS`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ListServers {
    /// Role to filter by.
    pub role: ServerRole,
}

/// One entry of a [`ServerList`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerInfo {
    /// Registered role.
    pub role: ServerRole,
    /// Host id.
    pub host: HostId,
    /// Front agent id.
    pub agent: AgentId,
    /// Display name.
    pub name: String,
}

/// Answer to [`kinds::LIST_SERVERS`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerList {
    /// Matching servers, registration order.
    pub servers: Vec<ServerInfo>,
}

/// Ask the coordinator to provision a Buyer Agent Server on `host`
/// ([`kinds::REQUEST_BUYER_SERVER`], Fig 4.1 step 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestBuyerServer {
    /// Host that wants to become a Buyer Agent Server.
    pub host: HostId,
    /// Agent-type tag of the BSMA implementation to instantiate.
    pub bsma_type: String,
    /// Extra state handed to the BSMA factory.
    pub config: serde_json::Value,
}

/// Catalog push from a seller ([`kinds::CATALOG_SYNC`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogSync {
    /// Seller server id.
    pub seller: u32,
    /// Items offered, with their negotiation policies.
    pub listings: Vec<Listing>,
}

/// One marketplace listing: an item plus its seller-side negotiation
/// policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Listing {
    /// The item.
    pub item: Merchandise,
    /// Reservation price (lowest the seller accepts in negotiation).
    pub reservation: Money,
    /// Per-round concession rate.
    pub concession: f64,
}

/// Query payload ([`kinds::QUERY_REQUEST`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Free-text keywords.
    pub keywords: Vec<String>,
    /// Optional category filter.
    pub category: Option<CategoryPath>,
    /// Cap on returned offers.
    pub max_results: usize,
}

/// One offer inside a [`QueryResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Offer {
    /// The offered item.
    pub item: Merchandise,
    /// Marketplace hosting the listing.
    pub marketplace: HostId,
    /// Current asking price.
    pub price: Money,
}

/// Answer to a query ([`kinds::QUERY_RESPONSE`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Matching offers, best match first.
    pub offers: Vec<Offer>,
}

/// A purchase-intent id: the BRA that minted it and that BRA's own
/// sequence number. A BRA drives one purchase at a time and numbers its
/// intents 1, 2, 3, … with a full 64-bit sequence, so an id never
/// repeats and a later intent of a BRA always compares greater than an
/// earlier one. Serialized as `[bra, seq]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IntentId(AgentId, u64);

impl IntentId {
    /// The `seq`-th intent of `bra`.
    pub fn new(bra: AgentId, seq: u64) -> Self {
        IntentId(bra, seq)
    }

    /// Mint the next intent of `bra`, advancing `minted`, its count of
    /// intents minted so far. The sequence is a full `u64`, so it cannot
    /// wrap within any BRA's lifetime.
    pub fn mint(bra: AgentId, minted: &mut u64) -> Self {
        *minted += 1;
        IntentId(bra, *minted)
    }

    /// The BRA that minted the intent.
    pub fn bra(self) -> AgentId {
        self.0
    }

    /// The intent's place in its BRA's sequence.
    pub fn seq(self) -> u64 {
        self.1
    }
}

impl std::fmt::Display for IntentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.0, self.1)
    }
}

/// Direct purchase ([`kinds::BUY_REQUEST`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuyRequest {
    /// Item to buy at list price.
    pub item: ItemId,
    /// Purchase intent id, stable across retries of the same buy. The
    /// marketplace's ledger keeps the latest intent of every BRA: it
    /// answers a repeated intent with the original confirmation instead
    /// of selling twice, and refuses an intent older than the latest
    /// (at-most-once purchases).
    pub intent: IntentId,
}

/// Purchase confirmation ([`kinds::BUY_CONFIRM`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuyConfirm {
    /// Purchased item.
    pub item: Merchandise,
    /// Price paid.
    pub price: Money,
}

/// Negotiation offer from a buyer ([`kinds::NEGOTIATE_OFFER`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NegotiateOffer {
    /// Item under negotiation.
    pub item: ItemId,
    /// Offered price.
    pub offer: Money,
    /// Purchase intent id (see [`BuyRequest::intent`]); an accepted
    /// negotiation records into the ledger under this id.
    pub intent: IntentId,
}

/// Seller counter ([`kinds::NEGOTIATE_COUNTER`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NegotiateCounter {
    /// Item under negotiation.
    pub item: ItemId,
    /// Counter ask.
    pub ask: Money,
}

/// Deal closed ([`kinds::NEGOTIATE_ACCEPT`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NegotiateAccept {
    /// Item sold.
    pub item: Merchandise,
    /// Agreed price.
    pub price: Money,
}

/// Open an auction ([`kinds::AUCTION_OPEN`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuctionOpen {
    /// Item to auction (must be listed).
    pub item: ItemId,
    /// Reserve price.
    pub reserve: Money,
    /// Minimum bid increment (ignored for sealed auctions).
    pub increment: Money,
    /// Auction duration in simulated microseconds.
    pub duration_us: u64,
    /// `true` for a sealed-bid second-price (Vickrey) auction; `false`
    /// (default) for open ascending (English).
    #[serde(default)]
    pub sealed: bool,
}

/// Open a Dutch auction ([`kinds::DUTCH_OPEN`]): the price starts at
/// `start` and drops by `decrement` every `tick_us` of simulated time
/// until someone takes it or it reaches `floor`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DutchOpen {
    /// Item to auction (must be listed).
    pub item: ItemId,
    /// Opening (high) price.
    pub start: Money,
    /// Lowest price before closing unsold.
    pub floor: Money,
    /// Price drop per tick.
    pub decrement: Money,
    /// Microseconds between price drops.
    pub tick_us: u64,
}

/// Join an auction ([`kinds::AUCTION_JOIN`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuctionJoin {
    /// Auctioned item.
    pub item: ItemId,
}

/// Auction state ([`kinds::AUCTION_STATUS`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuctionStatus {
    /// Auctioned item.
    pub item: ItemId,
    /// Lowest acceptable next bid (the reserve, for sealed auctions).
    pub minimum_bid: Money,
    /// Current high bid — always `None` for sealed auctions.
    pub leading_bid: Option<Money>,
    /// Whether the auction is still open.
    pub open: bool,
    /// Whether this is a sealed-bid (Vickrey) auction: bid your true
    /// limit once; the winner pays the second price.
    #[serde(default)]
    pub sealed: bool,
}

/// Place a bid ([`kinds::AUCTION_BID`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuctionBid {
    /// Auctioned item.
    pub item: ItemId,
    /// Bid amount.
    pub amount: Money,
}

/// Auction settled ([`kinds::AUCTION_CLOSED`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuctionClosed {
    /// Auctioned item.
    pub item: Merchandise,
    /// Result.
    pub outcome: AuctionOutcome,
    /// Whether the receiving joiner is the winner.
    pub you_won: bool,
}

/// Ask whether an intent committed ([`kinds::LEDGER_QUERY`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LedgerQuery {
    /// The purchase intent in doubt.
    pub intent: IntentId,
}

/// Answer to [`kinds::LEDGER_QUERY`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerReply {
    /// The queried intent.
    pub intent: IntentId,
    /// The recorded sale, if the intent committed; `None` = the
    /// marketplace never completed a sale under this intent.
    pub committed: Option<BuyConfirm>,
}

/// Top-sellers request ([`kinds::TOP_SELLERS`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopSellers {
    /// How many items to return.
    pub k: usize,
}

/// Answer to [`kinds::TOP_SELLERS`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopSellersList {
    /// `(item, units sold)`, best first.
    pub items: Vec<(Merchandise, u32)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::TermVector;

    fn item() -> Merchandise {
        Merchandise {
            id: ItemId(1),
            name: "Rust Book".into(),
            category: CategoryPath::new("books", "programming"),
            terms: TermVector::from_pairs([("rust", 1.0)]),
            list_price: Money::from_units(30),
            seller: 1,
        }
    }

    #[test]
    fn payloads_round_trip_through_messages() {
        use agentsim::message::Message;
        let q = QueryRequest {
            keywords: vec!["rust".into()],
            category: Some(CategoryPath::new("books", "programming")),
            max_results: 5,
        };
        let msg = Message::new(kinds::QUERY_REQUEST).with_payload(&q).unwrap();
        assert_eq!(msg.payload_as::<QueryRequest>().unwrap(), q);

        let r = QueryResponse {
            offers: vec![Offer {
                item: item(),
                marketplace: HostId(2),
                price: Money(100),
            }],
        };
        let msg = Message::new(kinds::QUERY_RESPONSE)
            .with_payload(&r)
            .unwrap();
        assert_eq!(msg.payload_as::<QueryResponse>().unwrap(), r);
    }

    #[test]
    fn server_roles_serialize_distinctly() {
        let roles = [
            ServerRole::Marketplace,
            ServerRole::Seller,
            ServerRole::BuyerServer,
        ];
        let encoded: Vec<String> = roles
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        let mut unique = encoded.clone();
        unique.dedup();
        assert_eq!(encoded.len(), unique.len());
    }

    #[test]
    fn auction_closed_carries_outcome() {
        let closed = AuctionClosed {
            item: item(),
            outcome: AuctionOutcome::Sold {
                winner: crate::auction::BidderId(9),
                price: Money(500),
            },
            you_won: true,
        };
        let json = serde_json::to_value(&closed).unwrap();
        let back: AuctionClosed = serde_json::from_value(json).unwrap();
        assert_eq!(back, closed);
    }
}
