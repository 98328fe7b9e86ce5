//! The full platform harness: builds the Fig 3.1 architecture and drives
//! consumer workflows end to end.
//!
//! [`PlatformOf`] assembles a Coordinator Server, N Marketplaces with
//! their Seller Servers, and one Buyer Agent Server per shard, each
//! provisioned through the Coordinator exactly as Fig 4.1 describes. It
//! then exposes browser-level operations (`login`, `query`, `buy`,
//! `auction`, `logout`) that inject [`FrontRequest`]s at the consumer's
//! HttpA and read back the [`FrontResponse`]s — every hop in between is
//! real agent traffic on the simulated network. [`Platform`] is the
//! 1-shard platform, whose accessors hand out its one shard directly;
//! [`ShardedPlatform`] has any number of shards.

use crate::admission::AdmissionConfig;
use crate::agents::msg::{
    kinds as msgkinds, BuyMode, ConsumerTask, FrontRequest, FrontRequestBody, FrontResponse,
    MarketRef, ResponseBody,
};
use crate::agents::{register_all, Bsma, BsmaConfig};
use crate::breaker::BreakerConfig;
use crate::learning::BehaviorKind;
use crate::profile::ConsumerId;
use crate::retry::BackoffPolicy;
use crate::similarity::SimilarityConfig;
use agentsim::chaos::ChaosPlan;
use agentsim::clock::SimDuration;
use agentsim::durable::DurabilityConfig;
use agentsim::ids::{AgentId, HostId};
use agentsim::message::Message;
use agentsim::overload::MailboxConfig;
use agentsim::shard::ShardedSimWorld;
use agentsim::sim::SimWorld;
use agentsim::supervise::SupervisionConfig;
use ecp::merchandise::{ItemId, Merchandise, Money};
use ecp::protocol::{
    kinds as ecpk, AuctionOpen, Listing, RegisterServer, RequestBuyerServer, ServerRole,
};
use ecp::{CoordinatorAgent, MarketplaceAgent, SellerAgent};
use std::marker::PhantomData;

/// Builder for a [`Platform`] or, as [`ShardedPlatformBuilder`], a
/// [`ShardedPlatform`]. Every setting applies to every shard.
#[derive(Debug)]
pub struct PlatformBuilder<S = Single> {
    seed: u64,
    shards: usize,
    listings_per_market: Vec<Vec<Listing>>,
    similarity: SimilarityConfig,
    mba_timeout_us: u64,
    bra_retry: BackoffPolicy,
    telemetry: bool,
    admission: Option<AdmissionConfig>,
    request_deadline_us: u64,
    breaker: Option<BreakerConfig>,
    mailbox: Option<MailboxConfig>,
    durability: Option<DurabilityConfig>,
    supervision: Option<SupervisionConfig>,
    shape: PhantomData<fn() -> S>,
}

/// Builder for a [`ShardedPlatform`].
///
/// Partitions the buyer side of the platform across `shards` parallel
/// DES shards: the Coordinator, Marketplaces and Seller Servers live on
/// shard 0, and each shard runs its own Buyer Agent Server (BSMA + HttpA +
/// PA) provisioned through the shard-0 Coordinator exactly as Fig 4.1
/// describes — for shards other than 0 the BSMA's self-dispatch is a real
/// cross-shard migration. Consumers are routed to buyer servers by
/// consistent hash of their id, so a consumer's whole session stays on
/// one shard while marketplace traffic crosses the conservative
/// time-window boundary.
pub type ShardedPlatformBuilder = PlatformBuilder<Sharded>;

impl PlatformBuilder {
    /// Start building with a seed; defaults to one marketplace with no
    /// listings and a LAN topology.
    pub fn new(seed: u64) -> Self {
        Self::with_shards(seed, 1)
    }
}

impl<S> PlatformBuilder<S> {
    /// The defaults of [`PlatformBuilder::new`] at `shards` shards
    /// (clamped to at least 1).
    fn with_shards(seed: u64, shards: usize) -> Self {
        PlatformBuilder {
            seed,
            shards: shards.max(1),
            listings_per_market: vec![Vec::new()],
            similarity: SimilarityConfig::default(),
            mba_timeout_us: 600_000_000,
            bra_retry: BackoffPolicy::default(),
            telemetry: false,
            admission: None,
            request_deadline_us: 0,
            breaker: None,
            mailbox: None,
            durability: None,
            supervision: None,
            shape: PhantomData,
        }
    }

    /// One entry per marketplace: the listings its seller provides.
    pub fn marketplaces(mut self, listings_per_market: Vec<Vec<Listing>>) -> Self {
        self.listings_per_market = listings_per_market;
        self
    }

    /// Similarity configuration.
    pub fn similarity(mut self, similarity: SimilarityConfig) -> Self {
        self.similarity = similarity;
        self
    }

    /// MBA loss timeout in simulated microseconds.
    pub fn mba_timeout_us(mut self, us: u64) -> Self {
        self.mba_timeout_us = us;
        self
    }

    /// Backoff schedule BRAs use to re-dispatch a lost MBA.
    pub fn bra_retry(mut self, policy: BackoffPolicy) -> Self {
        self.bra_retry = policy;
        self
    }

    /// Enable token-bucket admission control with priority shedding at
    /// every shard's HttpA ingress.
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Mint an end-to-end deadline of `us` microseconds for every
    /// admitted task; it propagates on each message and migration hop
    /// (0, the default, keeps deadlines off).
    pub fn request_deadline_us(mut self, us: u64) -> Self {
        self.request_deadline_us = us;
        self
    }

    /// Guard each marketplace with a circuit breaker fed by MBA trip
    /// reports (each shard's BSMA keeps its own breaker state).
    pub fn breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = Some(config);
        self
    }

    /// Bound every agent mailbox (applied after the creation workflow so
    /// provisioning traffic is never shed).
    pub fn mailbox(mut self, config: MailboxConfig) -> Self {
        self.mailbox = Some(config);
        self
    }

    /// Turn on end-to-end request tracing and the latency registry
    /// (enabled before the world is assembled, so the Fig 4.1 creation
    /// workflow itself is traced).
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Give every host a WAL-backed [`DurableStore`]: BRAs journal their
    /// purchase intents and outcomes, the PA its profile deltas and the
    /// marketplaces their sales, so a
    /// [`SimWorld::crash_host`]/`restart_host` cycle recovers in-flight
    /// work instead of dropping it. The intent/ledger purchase protocol
    /// runs either way; durability only adds the journal, so the workflow
    /// trace is the same with or without it. Off by default.
    ///
    /// [`DurableStore`]: agentsim::durable::DurableStore
    /// [`SimWorld::crash_host`]: agentsim::sim::SimWorld::crash_host
    pub fn durability(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Arm self-healing supervision: heartbeat leases detect crashed and
    /// hung hosts, and expiry triggers an automatic failover (recovery
    /// onto a standby host) without any scripted `restart_host` call.
    /// Pairs naturally with [`PlatformBuilder::durability`] — without
    /// durable stores a failed-over host has no capsules to restore. Off
    /// by default; absent, traces are byte-identical to a platform built
    /// before supervision existed.
    pub fn supervision(mut self, config: SupervisionConfig) -> Self {
        self.supervision = Some(config);
        self
    }

    /// Assemble the world and run the Fig 4.1 creation workflow once per
    /// shard. A 1-shard world installs no boundary state: it is the
    /// unsharded world, event for event.
    pub fn build(self) -> PlatformOf<S> {
        let shards = self.shards;
        let mut world = ShardedSimWorld::new(self.seed, shards);
        if let Some(cfg) = self.durability {
            world.enable_durability(cfg);
        }
        if let Some(cfg) = self.supervision {
            world.enable_supervision(cfg);
        }
        if self.telemetry {
            world.enable_telemetry();
        }
        for k in 0..shards {
            register_all(world.shard_mut(k).registry_mut());
        }

        // Coordinator Server with its CA — shard 0 owns the market side.
        let coordinator_host = world.add_host(0, "coordinator-server");
        let coordinator = world
            .create_agent(coordinator_host, Box::new(CoordinatorAgent::new()))
            .expect("create coordinator");

        // Marketplaces + their seller servers, all on shard 0.
        let mut markets = Vec::new();
        for (i, listings) in self.listings_per_market.iter().enumerate() {
            let market_host = world.add_host(0, format!("marketplace-{i}"));
            let market_agent = world
                .create_agent(
                    market_host,
                    Box::new(MarketplaceAgent::new(format!("m{i}"))),
                )
                .expect("create marketplace");
            markets.push(MarketRef {
                host: market_host,
                agent: market_agent,
            });
            let reg = Message::new(ecpk::REGISTER_SERVER)
                .with_payload(&RegisterServer {
                    role: ServerRole::Marketplace,
                    host: market_host,
                    agent: market_agent,
                    name: format!("m{i}"),
                })
                .expect("register serializes");
            world
                .send_external(coordinator, reg)
                .expect("register marketplace");
            let seller_host = world.add_host(0, format!("seller-{i}"));
            world
                .create_agent(
                    seller_host,
                    Box::new(SellerAgent::new(
                        i as u32 + 1,
                        format!("seller-{i}"),
                        listings.clone(),
                        vec![market_agent],
                    )),
                )
                .expect("create seller");
        }
        world.run_until_idle();

        // One Buyer Agent Server per shard, each provisioned through the
        // shard-0 Coordinator (Fig 4.1 steps 1-6). For k > 0 the BSMA's
        // step-3 self-dispatch crosses the shard boundary. A lone server
        // keeps the plain name.
        let mut buyer_hosts = Vec::new();
        for k in 0..shards {
            let name = if shards == 1 {
                "buyer-agent-server".to_string()
            } else {
                format!("buyer-agent-server-{k}")
            };
            let buyer_host = world.add_host(k, name.clone());
            buyer_hosts.push(buyer_host);
            let config = BsmaConfig {
                target: buyer_host,
                coordinator,
                markets: markets.clone(),
                name,
                similarity: self.similarity.with_ann_seed(self.seed),
                mba_timeout_us: self.mba_timeout_us,
                bra_retry: self.bra_retry,
                admission: self.admission,
                request_deadline_us: self.request_deadline_us,
                breaker: self.breaker,
                ..BsmaConfig::default()
            };
            let request = Message::new(ecpk::REQUEST_BUYER_SERVER)
                .with_payload(&RequestBuyerServer {
                    host: buyer_host,
                    bsma_type: crate::agents::BSMA_TYPE.to_string(),
                    config: serde_json::json!({ "config": config }),
                })
                .expect("request serializes");
            world
                .send_external(coordinator, request)
                .expect("request buyer server");
        }
        world.run_until_idle();

        // Locate each shard's BSMA (it migrated to that shard's buyer
        // host) and its children.
        let mut stacks = Vec::new();
        for (k, &buyer_host) in buyer_hosts.iter().enumerate() {
            let shard = world.shard(k);
            let mut found = None;
            for id in shard.agents_on(buyer_host) {
                if let Ok(snapshot) = shard.snapshot_of(id) {
                    if let Ok(state) = serde_json::from_value::<Bsma>(snapshot) {
                        if state.is_ready() {
                            found = Some((id, state));
                            break;
                        }
                    }
                }
            }
            let (bsma, state) = found.expect("bsma reached its shard's buyer host and set up");
            stacks.push(BuyerStack {
                buyer_host,
                bsma,
                httpa: state.httpa().expect("httpa created"),
                pa: state.pa().expect("pa created"),
                unclaimed: Vec::new(),
            });
        }

        // Bound mailboxes only once the platform stands: provisioning
        // traffic must never be shed.
        if let Some(mailbox) = self.mailbox {
            world.set_mailbox(mailbox);
        }

        PlatformOf {
            world,
            coordinator,
            markets,
            stacks,
            shape: PhantomData,
        }
    }
}

/// One shard's buyer-side stack (Buyer Agent Server host, BSMA, HttpA,
/// PA) plus the replies taken from the HttpA's outbox which no call has
/// claimed yet.
#[derive(Debug)]
struct BuyerStack {
    buyer_host: HostId,
    bsma: AgentId,
    httpa: AgentId,
    pa: AgentId,
    unclaimed: Vec<FrontResponse>,
}

impl BuyerStack {
    /// Take the replies for `consumer` (for every consumer, with `None`)
    /// from the unclaimed ones and those the HttpA emitted since the last
    /// drain, in emit order; every other reply stays unclaimed.
    fn drain(&mut self, shard: &mut SimWorld, consumer: Option<ConsumerId>) -> Vec<FrontResponse> {
        self.unclaimed.extend(
            shard
                .take_outbox(self.httpa)
                .iter()
                .map(|p| p.typed::<FrontResponse>().expect("httpa reply decodes")),
        );
        let (mine, rest) = std::mem::take(&mut self.unclaimed)
            .into_iter()
            .partition(|r| consumer.is_none_or(|c| r.consumer == c));
        self.unclaimed = rest;
        mine
    }
}

/// Shape of a [`Platform`]: one shard, whose world and buyer-side agents
/// its accessors hand out directly.
#[derive(Debug)]
pub enum Single {}

/// Shape of a [`ShardedPlatform`]: any number of shards, addressed by
/// index.
#[derive(Debug)]
pub enum Sharded {}

/// A fully assembled e-commerce platform with one Buyer Agent Server.
pub type Platform = PlatformOf<Single>;

/// A platform whose buyer side is partitioned across parallel DES shards.
///
/// Shard 0 hosts the Coordinator, Marketplaces and Seller Servers; every
/// shard runs a full Buyer Agent Server. Consumers hash onto shards by
/// id, and each browser-level call routes to the owning shard's HttpA.
pub type ShardedPlatform = PlatformOf<Sharded>;

/// The platform, with the shape `S` choosing its accessors: [`Single`]
/// for [`Platform`], [`Sharded`] for [`ShardedPlatform`]. Everything
/// else — the build, the session operations and the reply drain — is one
/// code path, and a [`Platform`] is exactly the 1-shard
/// [`ShardedPlatform`].
pub struct PlatformOf<S> {
    world: ShardedSimWorld,
    coordinator: AgentId,
    markets: Vec<MarketRef>,
    stacks: Vec<BuyerStack>,
    shape: PhantomData<fn() -> S>,
}

impl Platform {
    /// Start building a platform.
    pub fn builder(seed: u64) -> PlatformBuilder {
        PlatformBuilder::new(seed)
    }

    /// The underlying world (trace, metrics, clock).
    pub fn world(&self) -> &SimWorld {
        self.world.shard(0)
    }

    /// Mutable world access (topology changes, manual messages).
    pub fn world_mut(&mut self) -> &mut SimWorld {
        self.world.shard_mut(0)
    }

    /// The telemetry sink (span trees + latency registry). Empty unless
    /// the platform was built with [`PlatformBuilder::telemetry`].
    pub fn telemetry(&self) -> &agentsim::telemetry::Telemetry {
        self.world().telemetry()
    }

    /// The BSMA's agent id.
    pub fn bsma(&self) -> AgentId {
        self.stacks[0].bsma
    }

    /// The PA's agent id.
    pub fn pa(&self) -> AgentId {
        self.stacks[0].pa
    }

    /// The HttpA's agent id.
    pub fn httpa(&self) -> AgentId {
        self.stacks[0].httpa
    }

    /// The Buyer Agent Server's host.
    pub fn buyer_host(&self) -> HostId {
        self.stacks[0].buyer_host
    }

    /// Snapshot of the BSMA for inspection.
    pub fn bsma_state(&self) -> Bsma {
        self.state_of(0, self.stacks[0].bsma)
    }

    /// Snapshot of the PA (store + UserDB) for inspection.
    pub fn pa_state(&self) -> crate::agents::ProfileAgent {
        self.state_of(0, self.stacks[0].pa)
    }
}

impl ShardedPlatform {
    /// Start building a platform with `shards` Buyer Agent Servers
    /// (clamped to at least 1); defaults match [`Platform::builder`].
    pub fn builder(seed: u64, shards: usize) -> ShardedPlatformBuilder {
        ShardedPlatformBuilder::with_shards(seed, shards)
    }

    /// The underlying sharded world (merged trace, metrics, clock).
    pub fn world(&self) -> &ShardedSimWorld {
        &self.world
    }

    /// Mutable world access (per-shard topology changes, manual messages).
    pub fn world_mut(&mut self) -> &mut ShardedSimWorld {
        &mut self.world
    }

    /// Counters merged across every shard.
    pub fn metrics(&self) -> agentsim::metrics::Metrics {
        self.world.metrics()
    }

    /// Shard `k`'s Buyer Agent Server host.
    pub fn buyer_host(&self, k: usize) -> HostId {
        self.stacks[k].buyer_host
    }

    /// Shard `k`'s BSMA agent id.
    pub fn bsma(&self, k: usize) -> AgentId {
        self.stacks[k].bsma
    }

    /// Snapshot of shard `k`'s BSMA for inspection.
    pub fn bsma_state(&self, k: usize) -> Bsma {
        self.state_of(k, self.stacks[k].bsma)
    }

    /// Snapshot of shard `k`'s PA (store + UserDB) for inspection.
    pub fn pa_state(&self, k: usize) -> crate::agents::ProfileAgent {
        self.state_of(k, self.stacks[k].pa)
    }
}

impl<S> PlatformOf<S> {
    /// Number of shards (== number of Buyer Agent Servers).
    pub fn shard_count(&self) -> usize {
        self.stacks.len()
    }

    /// The shard that owns `consumer`'s session.
    pub fn shard_of(&self, consumer: ConsumerId) -> usize {
        agentsim::ids::shard_of(AgentId(consumer.0), self.stacks.len())
    }

    /// Install a [`ChaosPlan`] on every shard: its faults fire at their
    /// scheduled sim times as the platform runs.
    pub fn install_chaos(&mut self, plan: &ChaosPlan) {
        self.world.install_chaos(plan);
    }

    /// Marketplace references, in creation order (all on shard 0).
    pub fn markets(&self) -> &[MarketRef] {
        &self.markets
    }

    /// The Coordinator Agent's id.
    pub fn coordinator(&self) -> AgentId {
        self.coordinator
    }

    /// Snapshot of agent `id` on shard `k`, parsed as its state type.
    fn state_of<T: serde::de::DeserializeOwned>(&self, k: usize, id: AgentId) -> T {
        let snapshot = self.world.shard(k).snapshot_of(id).expect("agent active");
        serde_json::from_value(snapshot).expect("agent state parses")
    }

    fn send_front(&mut self, request: FrontRequest) {
        let shard = self.shard_of(request.consumer);
        let msg = Message::new(msgkinds::FRONT_REQUEST)
            .with_payload(&request)
            .expect("front request serializes");
        self.world
            .send_external(self.stacks[shard].httpa, msg)
            .expect("httpa reachable");
    }

    /// Drain the replies for `consumer` that its shard's HttpA emitted and
    /// no earlier call claimed.
    fn drain_responses(&mut self, consumer: ConsumerId) -> Vec<ResponseBody> {
        let k = self.shard_of(consumer);
        self.stacks[k]
            .drain(self.world.shard_mut(k), Some(consumer))
            .into_iter()
            .map(|r| r.body)
            .collect()
    }

    fn run_task(&mut self, consumer: ConsumerId, body: FrontRequestBody) -> Vec<ResponseBody> {
        self.send_front(FrontRequest { consumer, body });
        self.world.run_until_idle();
        self.drain_responses(consumer)
    }

    /// Log `consumer` in (creates their BRA on their shard).
    pub fn login(&mut self, consumer: ConsumerId) -> Vec<ResponseBody> {
        self.run_task(consumer, FrontRequestBody::Login)
    }

    /// Log `consumer` out (disposes their BRA).
    pub fn logout(&mut self, consumer: ConsumerId) -> Vec<ResponseBody> {
        self.run_task(consumer, FrontRequestBody::Logout)
    }

    /// Run the Fig 4.2 merchandise-query workflow on `consumer`'s shard;
    /// its MBA migrates to the shard-0 marketplaces and back.
    pub fn query(
        &mut self,
        consumer: ConsumerId,
        keywords: &[&str],
        max_results: usize,
    ) -> Vec<ResponseBody> {
        self.run_task(
            consumer,
            FrontRequestBody::Task(ConsumerTask::Query {
                keywords: keywords.iter().map(|s| s.to_string()).collect(),
                category: None,
                max_results,
            }),
        )
    }

    /// Run the Fig 4.3 buy workflow against marketplace `market_index`.
    pub fn buy(
        &mut self,
        consumer: ConsumerId,
        item: ItemId,
        market_index: usize,
        mode: BuyMode,
    ) -> Vec<ResponseBody> {
        let market = self.markets[market_index];
        self.run_task(
            consumer,
            FrontRequestBody::Task(ConsumerTask::Buy { item, market, mode }),
        )
    }

    /// Open an English auction on `item` at marketplace `market_index`
    /// (a seller action, injected directly).
    pub fn open_auction(
        &mut self,
        market_index: usize,
        item: ItemId,
        reserve: Money,
        increment: Money,
        duration: SimDuration,
    ) {
        self.open_auction_with(market_index, item, reserve, increment, duration, false);
    }

    /// Open a descending-price (Dutch) auction: the price starts at
    /// `start` and drops by `decrement` every `tick` until taken or
    /// `floor` is reached.
    pub fn open_dutch_auction(
        &mut self,
        market_index: usize,
        item: ItemId,
        start: Money,
        floor: Money,
        decrement: Money,
        tick: SimDuration,
    ) {
        let market = self.markets[market_index];
        let msg = Message::new(ecpk::DUTCH_OPEN)
            .with_payload(&ecp::protocol::DutchOpen {
                item,
                start,
                floor,
                decrement,
                tick_us: tick.as_micros(),
            })
            .expect("dutch open serializes");
        self.world
            .send_external(market.agent, msg)
            .expect("marketplace reachable");
        self.world.run_for(SimDuration::from_millis(5));
    }

    /// Open a sealed-bid second-price (Vickrey) auction.
    pub fn open_sealed_auction(
        &mut self,
        market_index: usize,
        item: ItemId,
        reserve: Money,
        duration: SimDuration,
    ) {
        self.open_auction_with(market_index, item, reserve, Money(0), duration, true);
    }

    fn open_auction_with(
        &mut self,
        market_index: usize,
        item: ItemId,
        reserve: Money,
        increment: Money,
        duration: SimDuration,
        sealed: bool,
    ) {
        let market = self.markets[market_index];
        let msg = Message::new(ecpk::AUCTION_OPEN)
            .with_payload(&AuctionOpen {
                item,
                reserve,
                increment,
                duration_us: duration.as_micros(),
                sealed,
            })
            .expect("auction open serializes");
        self.world
            .send_external(market.agent, msg)
            .expect("marketplace reachable");
        // deliver the open without firing the close timer
        self.world.run_for(SimDuration::from_millis(5));
    }

    /// Run the Fig 4.3 auction workflow: the consumer's MBA joins and
    /// bids up to `limit`. Runs until the auction settles.
    pub fn auction(
        &mut self,
        consumer: ConsumerId,
        item: ItemId,
        market_index: usize,
        limit: Money,
    ) -> Vec<ResponseBody> {
        let market = self.markets[market_index];
        self.run_task(
            consumer,
            FrontRequestBody::Task(ConsumerTask::Auction {
                item,
                market,
                limit,
            }),
        )
    }

    /// Submit a task without running the world — use with
    /// [`PlatformOf::run_and_drain`] to let several consumers' tasks
    /// (e.g. competing auction bids) overlap in time across shards.
    pub fn submit_task(&mut self, consumer: ConsumerId, task: ConsumerTask) {
        self.send_front(FrontRequest {
            consumer,
            body: FrontRequestBody::Task(task),
        });
    }

    /// Run the world to idle, then return every reply no per-consumer
    /// call has claimed, as `(consumer, body)` pairs in shard order and
    /// arrival order within a shard.
    pub fn run_and_drain(&mut self) -> Vec<(ConsumerId, ResponseBody)> {
        self.world.run_until_idle();
        let mut out = Vec::new();
        for (k, stack) in self.stacks.iter_mut().enumerate() {
            out.extend(
                stack
                    .drain(self.world.shard_mut(k), None)
                    .into_iter()
                    .map(|r| (r.consumer, r.body)),
            );
        }
        out
    }

    /// Seed the PAs' UserDBs offline with behaviour history (population
    /// bootstrap for experiments). Each tuple is one event, recorded by
    /// the PA on the consumer's own shard.
    pub fn seed_events(&mut self, events: &[(ConsumerId, Merchandise, BehaviorKind)]) {
        for (consumer, item, kind) in events {
            let record = Message::new(msgkinds::PA_RECORD)
                .with_payload(&crate::agents::msg::PaRecord {
                    consumer: *consumer,
                    item: item.clone(),
                    kind: *kind,
                    price: None,
                    at_us: self.world.now().as_micros(),
                })
                .expect("record serializes");
            let pa = self.stacks[self.shard_of(*consumer)].pa;
            self.world.send_external(pa, record).expect("pa reachable");
        }
        self.world.run_until_idle();
    }
}

impl<S> std::fmt::Debug for PlatformOf<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("shards", &self.stacks.len())
            .field("markets", &self.markets.len())
            .finish()
    }
}

/// Convenience: build a listing.
pub fn listing(
    id: u64,
    name: &str,
    category: &str,
    sub: &str,
    price_units: u64,
    terms: &[(&str, f64)],
) -> Listing {
    let mut tv = ecp::terms::TermVector::from_pairs(terms.iter().map(|(t, w)| (t.to_string(), *w)));
    tv.add(name.to_lowercase(), 1.0);
    Listing {
        item: Merchandise {
            id: ItemId(id),
            name: name.into(),
            category: ecp::merchandise::CategoryPath::new(category, sub),
            terms: tv,
            list_price: Money::from_units(price_units),
            seller: 0,
        },
        reservation: Money::from_units(price_units * 7 / 10),
        concession: 0.1,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::panic)]

    use super::*;
    use crate::workflow;

    fn small_platform(seed: u64) -> Platform {
        Platform::builder(seed)
            .marketplaces(vec![
                vec![
                    listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
                    listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
                ],
                vec![listing(
                    11,
                    "Jazz Record",
                    "music",
                    "jazz",
                    15,
                    &[("jazz", 1.0)],
                )],
            ])
            .build()
    }

    #[test]
    fn creation_workflow_matches_fig_4_1() {
        let p = small_platform(1);
        workflow::validate(p.world().trace(), workflow::FIG_CREATION)
            .expect("fig 4.1 trace must be complete and ordered");
        let state = p.bsma_state();
        assert!(state.is_ready());
        assert_eq!(state.config.markets.len(), 2);
    }

    #[test]
    fn login_creates_bra_and_logout_disposes_it() {
        let mut p = small_platform(2);
        let responses = p.login(ConsumerId(1));
        assert_eq!(responses, vec![ResponseBody::LoggedIn]);
        assert_eq!(p.bsma_state().sessions().len(), 1);
        let responses = p.logout(ConsumerId(1));
        assert_eq!(responses, vec![ResponseBody::LoggedOut]);
        assert_eq!(p.bsma_state().sessions().len(), 0);
    }

    #[test]
    fn query_without_login_is_an_error() {
        let mut p = small_platform(3);
        let responses = p.query(ConsumerId(1), &["rust"], 5);
        assert!(matches!(&responses[0], ResponseBody::Error(e) if e.contains("not logged in")));
    }

    #[test]
    fn query_workflow_matches_fig_4_2_and_returns_offers() {
        let mut p = small_platform(4);
        p.login(ConsumerId(1));
        let responses = p.query(ConsumerId(1), &["book"], 5);
        assert_eq!(responses.len(), 1);
        match &responses[0] {
            ResponseBody::Recommendations {
                offers,
                recommendations,
                degraded,
                unreachable_markets,
            } => {
                assert_eq!(offers.len(), 2, "both books match, jazz does not");
                assert!(!recommendations.is_empty());
                assert!(!degraded, "clean run is never degraded");
                assert!(unreachable_markets.is_empty());
            }
            other => panic!("expected recommendations, got {other:?}"),
        }
        workflow::validate(p.world().trace(), workflow::FIG_QUERY)
            .expect("fig 4.2 trace must be complete and ordered");
    }

    #[test]
    fn buy_workflow_matches_fig_4_3_and_updates_profile() {
        let mut p = small_platform(5);
        p.login(ConsumerId(1));
        let responses = p.buy(ConsumerId(1), ItemId(1), 0, BuyMode::Direct);
        match &responses[0] {
            ResponseBody::Receipt {
                item,
                price,
                channel,
            } => {
                assert_eq!(item.id, ItemId(1));
                assert_eq!(*price, Money::from_units(30));
                assert_eq!(channel, "direct");
            }
            other => panic!("expected receipt, got {other:?}"),
        }
        workflow::validate(p.world().trace(), workflow::FIG_TRANSACT)
            .expect("fig 4.3 trace must be complete and ordered");
        // the PA recorded the purchase and persisted the profile
        let pa = p.pa_state();
        assert!(pa.store().profile(ConsumerId(1)).unwrap().total_interest() > 0.0);
        assert_eq!(pa.userdb().transaction_count(), 1);
    }

    #[test]
    fn negotiated_buy_closes_within_budget() {
        let mut p = small_platform(6);
        p.login(ConsumerId(1));
        let responses = p.buy(
            ConsumerId(1),
            ItemId(1),
            0,
            BuyMode::Negotiate {
                budget: Money::from_units(28),
                opening_fraction: 0.6,
                raise: 0.1,
                max_rounds: 20,
            },
        );
        match &responses[0] {
            ResponseBody::Receipt { price, channel, .. } => {
                assert!(*price <= Money::from_units(28));
                assert!(channel.contains("negotiated"));
            }
            other => panic!("expected receipt, got {other:?}"),
        }
    }

    #[test]
    fn negotiated_buy_is_recorded_as_negotiated() {
        let mut p = small_platform(6);
        p.login(ConsumerId(1));
        let responses = p.buy(
            ConsumerId(1),
            ItemId(1),
            0,
            BuyMode::Negotiate {
                budget: Money::from_units(28),
                opening_fraction: 0.6,
                raise: 0.1,
                max_rounds: 20,
            },
        );
        let ResponseBody::Receipt { price, .. } = &responses[0] else {
            panic!("expected receipt, got {responses:?}");
        };
        let pa = p.pa_state();
        let txs = pa.userdb().transactions();
        assert_eq!(txs.len(), 1, "{txs:?}");
        assert_eq!(txs[0].channel, crate::userdb::TradeChannel::Negotiated);
        assert_eq!(txs[0].price, *price);
    }

    #[test]
    fn auction_workflow_reports_result() {
        let mut p = small_platform(7);
        p.login(ConsumerId(1));
        p.open_auction(
            0,
            ItemId(2),
            Money::from_units(5),
            Money::from_units(1),
            SimDuration::from_secs(30),
        );
        let responses = p.auction(ConsumerId(1), ItemId(2), 0, Money::from_units(40));
        match &responses[0] {
            ResponseBody::AuctionResult { won, price, .. } => {
                assert!(won);
                assert_eq!(*price, Some(Money::from_units(5)));
            }
            other => panic!("expected auction result, got {other:?}"),
        }
        workflow::validate(p.world().trace(), workflow::FIG_TRANSACT)
            .expect("fig 4.3 trace for auctions");
    }

    #[test]
    fn bra_is_deactivated_while_mba_roams() {
        let mut p = small_platform(8);
        p.login(ConsumerId(1));
        // run the query only partway: the MBA is out, the BRA must be
        // in stable storage
        p.send_front(FrontRequest {
            consumer: ConsumerId(1),
            body: FrontRequestBody::Task(ConsumerTask::Query {
                keywords: vec!["book".into()],
                category: None,
                max_results: 5,
            }),
        });
        // enough time for dispatch + deactivation (~6us of local hops)
        // but well under the ~200us LAN migration to the marketplace
        p.world_mut().run_for(SimDuration::from_micros(100));
        assert!(
            p.world().stored_count(p.buyer_host()) >= 1,
            "the BRA must be deactivated to storage while its MBA roams"
        );
        assert!(p.world().stored_bytes(p.buyer_host()) > 0);
        p.world_mut().run_until_idle();
        // afterwards the BRA is live again and produced a response
        let got = p.drain_responses(ConsumerId(1));
        assert!(got
            .iter()
            .any(|r| matches!(r, ResponseBody::Recommendations { .. })));
        assert_eq!(p.world().metrics().deactivations, 1);
        assert_eq!(p.world().metrics().activations, 1);
    }

    #[test]
    fn lost_mba_retries_then_degrades_to_cf_only() {
        let mut p = Platform::builder(9)
            .marketplaces(vec![vec![listing(
                1,
                "Rust Book",
                "books",
                "programming",
                30,
                &[("rust", 1.0)],
            )]])
            .mba_timeout_us(2_000_000)
            .build();
        p.login(ConsumerId(1));
        // kill the link so every MBA dies in transit
        let market_host = p.markets()[0].host;
        let buyer_host = p.buyer_host();
        p.world_mut().topology_mut().set_link_symmetric(
            buyer_host,
            market_host,
            agentsim::net::LinkSpec::lan().lossy(1.0),
        );
        let responses = p.query(ConsumerId(1), &["rust"], 5);
        match &responses[0] {
            ResponseBody::Recommendations {
                offers,
                degraded,
                unreachable_markets,
                ..
            } => {
                assert!(offers.is_empty(), "nothing was collected");
                assert!(degraded, "total loss must degrade the reply");
                assert_eq!(unreachable_markets.len(), 1);
            }
            other => panic!("expected degraded recommendations, got {other:?}"),
        }
        let m = p.world().metrics().clone();
        assert!(m.retries >= 1, "the bra must have retried: {m:?}");
        assert_eq!(m.degraded_replies, 1);
        // the BRA is active again and can serve new tasks after healing
        p.world_mut().topology_mut().set_link_symmetric(
            buyer_host,
            market_host,
            agentsim::net::LinkSpec::lan(),
        );
        let responses = p.query(ConsumerId(1), &["rust"], 5);
        assert!(matches!(
            &responses[0],
            ResponseBody::Recommendations {
                degraded: false,
                ..
            }
        ));
    }

    #[test]
    fn lost_buy_mba_still_fails_with_an_error() {
        // a query degrades, but a buy whose MBA vanished must NOT be
        // blindly retried into a double purchase — it errors out
        let mut p = Platform::builder(19)
            .marketplaces(vec![vec![listing(
                1,
                "Rust Book",
                "books",
                "programming",
                30,
                &[("rust", 1.0)],
            )]])
            .mba_timeout_us(2_000_000)
            .bra_retry(BackoffPolicy::none())
            .build();
        p.login(ConsumerId(1));
        let market_host = p.markets()[0].host;
        let buyer_host = p.buyer_host();
        p.world_mut().topology_mut().set_link_symmetric(
            buyer_host,
            market_host,
            agentsim::net::LinkSpec::lan().lossy(1.0),
        );
        let responses = p.buy(ConsumerId(1), ItemId(1), 0, BuyMode::Direct);
        assert!(
            matches!(&responses[0], ResponseBody::Error(e) if e.contains("lost")),
            "lost buy must error: {responses:?}"
        );
    }

    fn small_sharded_platform(seed: u64, shards: usize) -> ShardedPlatform {
        ShardedPlatform::builder(seed, shards)
            .marketplaces(vec![
                vec![
                    listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
                    listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
                ],
                vec![listing(
                    11,
                    "Jazz Record",
                    "music",
                    "jazz",
                    15,
                    &[("jazz", 1.0)],
                )],
            ])
            .build()
    }

    /// One consumer id per shard, found by walking the hash.
    fn consumer_on_each_shard(p: &ShardedPlatform) -> Vec<ConsumerId> {
        let mut picks: Vec<Option<ConsumerId>> = vec![None; p.shard_count()];
        for c in 1..10_000u64 {
            let shard = p.shard_of(ConsumerId(c));
            if picks[shard].is_none() {
                picks[shard] = Some(ConsumerId(c));
            }
            if picks.iter().all(Option::is_some) {
                break;
            }
        }
        picks
            .into_iter()
            .map(|c| c.expect("hash covers shard"))
            .collect()
    }

    #[test]
    fn sharded_platform_serves_consumers_on_every_shard() {
        let mut p = small_sharded_platform(21, 2);
        assert_eq!(p.shard_count(), 2);
        let consumers = consumer_on_each_shard(&p);
        for &consumer in &consumers {
            assert_eq!(p.login(consumer), vec![ResponseBody::LoggedIn]);
            let responses = p.query(consumer, &["book"], 5);
            match &responses[0] {
                ResponseBody::Recommendations {
                    offers, degraded, ..
                } => {
                    assert_eq!(offers.len(), 2, "both books match for {consumer:?}");
                    assert!(!degraded);
                }
                other => panic!("expected recommendations, got {other:?}"),
            }
        }
        // the shard-1 consumer's MBA crossed the boundary to the shard-0
        // marketplaces and returned; the shard-1 BSMA itself arrived over
        // the boundary at build time
        let m = p.metrics();
        assert!(m.boundary_migrations >= 3, "bsma + mba round trip: {m:?}");
        assert!(
            m.boundary_messages >= 1,
            "provisioning crossed shards: {m:?}"
        );
        assert_eq!(m.migrations_rejected, 0);
        // buys settle on the right shard and record into that shard's PA
        let far = consumers[1];
        let responses = p.buy(far, ItemId(1), 0, BuyMode::Direct);
        assert!(
            matches!(&responses[0], ResponseBody::Receipt { .. }),
            "cross-shard buy must settle: {responses:?}"
        );
        assert_eq!(p.pa_state(1).userdb().transaction_count(), 1);
        assert_eq!(p.pa_state(0).userdb().transaction_count(), 0);
    }

    #[test]
    fn replies_for_other_consumers_wait_to_be_claimed() {
        let book_query = || ConsumerTask::Query {
            keywords: vec!["book".into()],
            category: None,
            max_results: 5,
        };
        for shards in [1, 2] {
            let mut p = small_sharded_platform(23, shards);
            // two consumers whose replies land in the same HttpA log
            let a = ConsumerId(1);
            let b = (2u64..)
                .map(ConsumerId)
                .find(|&c| p.shard_of(c) == p.shard_of(a))
                .expect("hash covers shard");
            p.login(a);
            p.submit_task(a, book_query());
            assert_eq!(p.login(b), vec![ResponseBody::LoggedIn]);
            let left = p.run_and_drain();
            assert!(
                matches!(left.as_slice(), [(c, ResponseBody::Recommendations { .. })] if *c == a),
                "{shards} shards: a's reply outlives b's login: {left:?}"
            );
            // a consumer's own next call also collects what others left
            p.submit_task(a, book_query());
            assert_eq!(p.logout(b), vec![ResponseBody::LoggedOut]);
            let got = p.query(a, &["book"], 5);
            assert_eq!(got.len(), 2, "{shards} shards: {got:?}");
            assert!(p.run_and_drain().is_empty());
        }
    }

    /// Serialized size of each shard's HttpA and the front requests it
    /// has seen.
    fn front_doors(p: &ShardedPlatform) -> Vec<(usize, u32)> {
        (0..p.shard_count())
            .map(|k| {
                let snapshot = p.world.shard(k).snapshot_of(p.stacks[k].httpa).unwrap();
                let state: crate::agents::HttpAgent =
                    serde_json::from_value(snapshot.clone()).unwrap();
                (snapshot.to_string().len(), state.requests_seen())
            })
            .collect()
    }

    #[test]
    fn front_door_state_is_constant_and_replies_are_sequenced() {
        for shards in [1, 2] {
            let mut p = small_sharded_platform(26, shards);
            let consumers: Vec<ConsumerId> = (1..=8).map(ConsumerId).collect();
            let mut replies: Vec<Vec<FrontResponse>> = vec![Vec::new(); shards];
            let mut sent = std::collections::BTreeMap::<ConsumerId, usize>::new();
            // Send `n` requests, at most one per consumer in flight, and
            // collect every reply with its seq straight from the stacks.
            let mut run =
                |p: &mut ShardedPlatform, n: usize, body: &dyn Fn() -> FrontRequestBody| {
                    for wave in (0..n).collect::<Vec<_>>().chunks(consumers.len()) {
                        for &i in wave {
                            let consumer = consumers[i % consumers.len()];
                            p.send_front(FrontRequest {
                                consumer,
                                body: body(),
                            });
                            *sent.entry(consumer).or_default() += 1;
                        }
                        p.world.run_until_idle();
                        for (k, got) in replies.iter_mut().enumerate() {
                            got.extend(p.stacks[k].drain(p.world.shard_mut(k), None));
                        }
                    }
                };
            let query = || {
                FrontRequestBody::Task(ConsumerTask::Query {
                    keywords: vec!["book".into()],
                    category: None,
                    max_results: 5,
                })
            };
            run(&mut p, consumers.len(), &|| FrontRequestBody::Login);
            // Counters serialise as decimal: warm up until every shard's
            // have three digits, so the two probes below compare like
            // with like.
            while front_doors(&p).iter().any(|&(_, seen)| seen < 100) {
                run(&mut p, consumers.len(), &query);
            }
            run(&mut p, 20, &query);
            let after_20 = front_doors(&p);
            run(&mut p, 180, &query);
            let after_200 = front_doors(&p);
            for k in 0..shards {
                let (bytes, seen) = after_200[k];
                assert!(seen < 1000, "{shards} shards: still three digits");
                assert_eq!(after_20[k].0, bytes, "{shards} shards, shard {k}");
                assert!(bytes <= 1024, "{shards} shards, shard {k}: {bytes} bytes");
                let seqs: Vec<u64> = replies[k].iter().map(|r| r.seq).collect();
                let expected: Vec<u64> = (0..seqs.len() as u64).collect();
                assert_eq!(seqs, expected, "{shards} shards, shard {k}: gapless seqs");
            }
            let mut answered = std::collections::BTreeMap::<ConsumerId, usize>::new();
            for r in replies.iter().flatten() {
                assert!(
                    matches!(
                        r.body,
                        ResponseBody::LoggedIn | ResponseBody::Recommendations { .. }
                    ),
                    "{shards} shards: {r:?}"
                );
                *answered.entry(r.consumer).or_default() += 1;
            }
            assert_eq!(answered, sent, "{shards} shards: one reply per request");
        }
    }

    /// Encoded size of every shard's BSMA state.
    fn bsma_state_bytes(p: &ShardedPlatform) -> Vec<usize> {
        (0..p.shard_count())
            .map(|k| {
                let snapshot = p.world.shard(k).snapshot_of(p.stacks[k].bsma).unwrap();
                snapshot.to_string().len()
            })
            .collect()
    }

    #[test]
    fn bsma_state_is_constant_across_sessions() {
        for shards in [1, 2] {
            let mut p = small_sharded_platform(27, shards);
            let consumers: Vec<ConsumerId> = (1..=8).map(ConsumerId).collect();
            // `n` login → query → logout sessions, one wave per step.
            let sessions = |p: &mut ShardedPlatform, n: usize| {
                let mut answered = 0;
                for wave in (0..n).collect::<Vec<_>>().chunks(consumers.len()) {
                    let task = FrontRequestBody::Task(ConsumerTask::Query {
                        keywords: vec!["book".into()],
                        category: None,
                        max_results: 5,
                    });
                    for body in [FrontRequestBody::Login, task, FrontRequestBody::Logout] {
                        for &i in wave {
                            p.send_front(FrontRequest {
                                consumer: consumers[i % consumers.len()],
                                body: body.clone(),
                            });
                        }
                        p.world.run_until_idle();
                        for k in 0..p.shard_count() {
                            for r in p.stacks[k].drain(p.world.shard_mut(k), None) {
                                assert!(
                                    matches!(
                                        r.body,
                                        ResponseBody::LoggedIn
                                            | ResponseBody::LoggedOut
                                            | ResponseBody::Recommendations { .. }
                                    ),
                                    "{shards} shards: {r:?}"
                                );
                                answered += 1;
                            }
                        }
                    }
                }
                assert_eq!(answered, 3 * n, "{shards} shards: one reply per request");
            };
            sessions(&mut p, 20);
            let after_20 = bsma_state_bytes(&p);
            sessions(&mut p, 180);
            let after_200 = bsma_state_bytes(&p);
            assert_eq!(after_20, after_200, "{shards} shards");
            for bytes in after_200 {
                assert!(bytes <= 1024, "{shards} shards: {bytes} bytes");
            }
        }
    }

    #[test]
    fn pa_userdb_is_constant_across_query_events() {
        let mut p = small_platform(28);
        let userdb_bytes = |p: &Platform| {
            let state = p.world().snapshot_of(p.stacks[0].pa).unwrap();
            state.get("userdb").unwrap().to_string()
        };
        // login → query → logout, each session by a new consumer whose
        // profile the query creates
        let sessions = |p: &mut Platform, consumers: std::ops::Range<u64>| {
            for c in consumers.map(ConsumerId) {
                p.login(c);
                let replies = p.query(c, &["book"], 5);
                assert!(
                    matches!(replies[..], [ResponseBody::Recommendations { .. }]),
                    "{replies:?}"
                );
                p.logout(c);
            }
        };
        sessions(&mut p, 1..21);
        let after_20 = userdb_bytes(&p);
        sessions(&mut p, 21..201);
        let after_200 = userdb_bytes(&p);
        assert_eq!(after_20, after_200);
        let pa = p.pa_state();
        assert_eq!(
            pa.store().consumer_count(),
            200,
            "one profile each, in the store"
        );
        assert_eq!(pa.userdb().transaction_count(), 0);
    }

    /// Length of `v` as JSON with every run of digits collapsed to one
    /// digit: the size the state would have with fixed-width counters.
    fn shape_len(v: &serde_json::Value) -> usize {
        let text = v.to_string();
        let mut len = 0;
        let mut in_digits = false;
        for c in text.chars() {
            let digit = c.is_ascii_digit();
            if !(digit && in_digits) {
                len += 1;
            }
            in_digits = digit;
        }
        len
    }

    #[test]
    fn marketplace_state_is_constant_across_purchases() {
        let mut p = Platform::builder(29)
            .marketplaces(vec![vec![
                listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
                listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
            ]])
            .durability(DurabilityConfig::default())
            .build();
        let consumers: Vec<ConsumerId> = (1..=4).map(ConsumerId).collect();
        for &c in &consumers {
            p.login(c);
        }
        let market = p.markets()[0];
        // `n` more purchases, one wave of a Direct buy per consumer at a
        // time; each consumer always buys the same item.
        let purchases = |p: &mut Platform, n: usize| {
            for _ in 0..n / consumers.len() {
                for &c in &consumers {
                    let item = ItemId(1 + c.0 % 2);
                    p.submit_task(
                        c,
                        ConsumerTask::Buy {
                            item,
                            market,
                            mode: BuyMode::Direct,
                        },
                    );
                }
                let wave = p.run_and_drain();
                assert_eq!(wave.len(), consumers.len(), "{wave:?}");
                assert!(wave
                    .iter()
                    .all(|(_, r)| matches!(r, ResponseBody::Receipt { .. })));
            }
            p.world().snapshot_of(market.agent).unwrap()
        };
        let after_20 = purchases(&mut p, 20);
        let after_200 = purchases(&mut p, 180);
        let state: ecp::MarketplaceAgent = serde_json::from_value(after_200.clone()).unwrap();
        assert_eq!(
            state.units_sold(ItemId(1)) + state.units_sold(ItemId(2)),
            200
        );
        assert_eq!(state.ledger_len(), consumers.len(), "one entry per BRA");
        // only the counters' decimal widths grew
        assert_eq!(shape_len(&after_20), shape_len(&after_200));
    }

    #[test]
    fn seed_events_land_in_the_owning_shards_pa() {
        let mut p = small_sharded_platform(24, 2);
        let consumers = consumer_on_each_shard(&p);
        let rust = listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]).item;
        let events: Vec<_> = consumers
            .iter()
            .map(|&c| (c, rust.clone(), BehaviorKind::Purchase))
            .collect();
        p.seed_events(&events);
        for (k, &consumer) in consumers.iter().enumerate() {
            let own = p.pa_state(k);
            let other = p.pa_state(1 - k);
            assert!(own.store().profile(consumer).is_some(), "shard {k}");
            assert!(other.store().profile(consumer).is_none(), "shard {k}");
        }
    }

    #[test]
    fn auction_from_a_far_shard_settles_across_the_boundary() {
        let mut p = small_sharded_platform(25, 2);
        let far = consumer_on_each_shard(&p)[1];
        p.login(far);
        p.open_auction(
            0,
            ItemId(2),
            Money::from_units(5),
            Money::from_units(1),
            SimDuration::from_secs(30),
        );
        let before = p.metrics().boundary_migrations;
        let responses = p.auction(far, ItemId(2), 0, Money::from_units(40));
        match &responses[0] {
            ResponseBody::AuctionResult { won, price, .. } => {
                assert!(won);
                assert_eq!(*price, Some(Money::from_units(5)));
            }
            other => panic!("expected auction result, got {other:?}"),
        }
        let crossed = p.metrics().boundary_migrations - before;
        assert!(crossed >= 2, "the MBA went to shard 0 and back: {crossed}");
    }

    #[test]
    fn one_shard_platform_is_byte_identical_to_unsharded() {
        let mut flat = small_platform(22);
        let mut sharded = ShardedPlatform::builder(22, 1)
            .marketplaces(vec![
                vec![
                    listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
                    listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
                ],
                vec![listing(
                    11,
                    "Jazz Record",
                    "music",
                    "jazz",
                    15,
                    &[("jazz", 1.0)],
                )],
            ])
            .build();
        for consumer in [ConsumerId(1), ConsumerId(2)] {
            let a = flat.login(consumer);
            let b = sharded.login(consumer);
            assert_eq!(a, b);
            let a = flat.query(consumer, &["book"], 5);
            let b = sharded.query(consumer, &["book"], 5);
            assert_eq!(a, b);
        }
        let flat_labels: Vec<String> = flat
            .world()
            .trace()
            .labels()
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flat_labels, sharded.world().trace_labels());
        assert_eq!(flat.world().metrics(), &sharded.metrics());
        assert_eq!(sharded.metrics().boundary_messages, 0);
    }

    #[test]
    fn recommendations_reflect_similar_users() {
        let mut p = small_platform(10);
        // seed: consumers 2 and 3 share user 1's taste and also bought
        // the go book
        let rust = listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]).item;
        let go = listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]).item;
        let mut events = Vec::new();
        for c in [2u64, 3] {
            events.push((ConsumerId(c), rust.clone(), BehaviorKind::Purchase));
            events.push((ConsumerId(c), go.clone(), BehaviorKind::Purchase));
        }
        events.push((ConsumerId(1), rust, BehaviorKind::Purchase));
        p.seed_events(&events);
        p.login(ConsumerId(1));
        let responses = p.query(ConsumerId(1), &["book"], 5);
        match &responses[0] {
            ResponseBody::Recommendations {
                recommendations, ..
            } => {
                assert!(
                    recommendations.iter().any(|r| r.item.id == ItemId(2)),
                    "neighbours' go book must be recommended: {recommendations:?}"
                );
                // and the already-purchased rust book is not re-recommended
                // at the top via collaborative weight alone
                assert_eq!(recommendations[0].item.id, ItemId(2));
            }
            other => panic!("expected recommendations, got {other:?}"),
        }
    }
}
