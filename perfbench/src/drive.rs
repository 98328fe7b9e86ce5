//! Building the platform under test and driving requests through its
//! public API, with the output checks every run makes.

use crate::inputs::{similarity, Class, Inputs, Request, Session, Workload};
use crate::stats::Digest;
use abcrm_core::agents::msg::{
    kinds, FrontRequest, FrontRequestBody, MarketRef, PaRecord, ResponseBody,
};
use abcrm_core::profile::ConsumerId;
use abcrm_core::{Platform, ShardedPlatform};
use agentsim::durable::DurabilityConfig;
use agentsim::ids::AgentId;
use agentsim::message::Message;
use agentsim::metrics::Metrics;
use agentsim::sim::SimWorld;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The platform under test: the unsharded [`Platform`] (`browse`,
/// `checkout`) or a [`ShardedPlatform`] (`crowd`). One lives at a
/// time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Stack {
    /// One simulated world.
    Flat(Platform),
    /// Buyer side partitioned over shards; per-shard HttpA, PA and BSMA.
    Sharded {
        /// The platform.
        platform: ShardedPlatform,
        /// HttpA of each shard.
        httpa: Vec<AgentId>,
        /// PA of each shard.
        pa: Vec<AgentId>,
        /// BSMA of each shard.
        bsma: Vec<AgentId>,
    },
}

/// Simulated counters that must repeat exactly for one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Messages delivered.
    pub messages: u64,
    /// Agent migrations.
    pub migrations: u64,
    /// Bytes moved by migrations.
    pub migration_bytes: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// Two-phase purchases committed.
    pub purchases_committed: u64,
    /// Simulated clock, microseconds.
    pub clock_us: u64,
}

impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "messages={} migrations={} migration_bytes={} wal_records={} \
             purchases_committed={} sim_clock_us={}",
            self.messages,
            self.migrations,
            self.migration_bytes,
            self.wal_records,
            self.purchases_committed,
            self.clock_us
        )
    }
}

impl Stack {
    /// Build the workload's platform from `inputs`, seed the residents'
    /// history and (for `crowd`) log every resident in. Returns the stack
    /// and how long that set-up took.
    pub fn build(inputs: &Inputs, shards: usize) -> (Stack, Duration) {
        let t0 = Instant::now();
        let stack = match inputs.workload {
            Workload::Browse | Workload::Checkout => {
                let mut builder = Platform::builder(inputs.seed)
                    .marketplaces(inputs.markets.clone())
                    .similarity(similarity());
                if inputs.workload == Workload::Checkout {
                    builder = builder.durability(DurabilityConfig::default());
                }
                let mut platform = builder.build();
                platform.seed_events(&inputs.history);
                Stack::Flat(platform)
            }
            Workload::Crowd => {
                let platform = ShardedPlatform::builder(inputs.seed, shards)
                    .marketplaces(inputs.markets.clone())
                    .similarity(similarity())
                    .build();
                let states: Vec<_> = (0..shards).map(|k| platform.bsma_state(k)).collect();
                let mut stack = Stack::Sharded {
                    httpa: states.iter().map(|s| s.httpa().expect("httpa")).collect(),
                    pa: states.iter().map(|s| s.pa().expect("pa")).collect(),
                    bsma: (0..shards).map(|k| platform.bsma(k)).collect(),
                    platform,
                };
                stack.seed_sharded(inputs);
                stack.login_residents(inputs);
                stack
            }
        };
        (stack, t0.elapsed())
    }

    /// Seed each shard's PA with the history of the consumers it owns,
    /// the way `Platform::seed_events` does for one PA.
    fn seed_sharded(&mut self, inputs: &Inputs) {
        let Stack::Sharded { platform, pa, .. } = self else {
            unreachable!("sharded seeding on a sharded stack");
        };
        for (consumer, item, kind) in &inputs.history {
            let record = Message::new(kinds::PA_RECORD)
                .with_payload(&PaRecord {
                    consumer: *consumer,
                    item: item.clone(),
                    kind: *kind,
                    price: None,
                    at_us: platform.world().now().as_micros(),
                })
                .expect("record serializes");
            let to = pa[platform.shard_of(*consumer)];
            platform
                .world_mut()
                .send_external(to, record)
                .expect("pa reachable");
        }
        platform.world_mut().run_until_idle();
    }

    /// Log every resident in, a wave at a time.
    fn login_residents(&mut self, inputs: &Inputs) {
        let ids: Vec<ConsumerId> = (0..inputs.scale.residents)
            .map(|i| ConsumerId(i as u64 + 1))
            .collect();
        for chunk in ids.chunks(64) {
            for &consumer in chunk {
                self.send(&Request {
                    consumer,
                    body: FrontRequestBody::Login,
                    class: Class::Login,
                });
            }
            let replies = self.run_and_drain();
            assert!(
                replies.len() == chunk.len()
                    && replies.iter().all(|(_, r)| *r == ResponseBody::LoggedIn),
                "set-up logins must all succeed: {replies:?}"
            );
        }
    }

    /// Reference to marketplace `index`.
    pub fn market_ref(&self, index: usize) -> MarketRef {
        match self {
            Stack::Flat(p) => p.markets()[index],
            Stack::Sharded { platform, .. } => platform.markets()[index],
        }
    }

    /// Inject one browser-level request at the owning HttpA without
    /// running the world: tasks through the platform's `submit_task`,
    /// logins and logouts (which have no submit call) as the same
    /// front-door message the platform's `login`/`logout` send.
    pub fn send(&mut self, request: &Request) {
        if let FrontRequestBody::Task(task) = &request.body {
            match self {
                Stack::Flat(p) => p.submit_task(request.consumer, task.clone()),
                Stack::Sharded { platform, .. } => {
                    platform.submit_task(request.consumer, task.clone())
                }
            }
            return;
        }
        let msg = Message::new(kinds::FRONT_REQUEST)
            .with_payload(&FrontRequest {
                consumer: request.consumer,
                body: request.body.clone(),
            })
            .expect("front request serializes");
        match self {
            Stack::Flat(p) => {
                let httpa = p.httpa();
                p.world_mut().send_external(httpa, msg)
            }
            Stack::Sharded {
                platform, httpa, ..
            } => {
                let to = httpa[platform.shard_of(request.consumer)];
                platform.world_mut().send_external(to, msg)
            }
        }
        .expect("httpa reachable");
    }

    /// Run the world to idle and collect every fresh reply.
    pub fn run_and_drain(&mut self) -> Vec<(ConsumerId, ResponseBody)> {
        match self {
            Stack::Flat(p) => p.run_and_drain(),
            Stack::Sharded { platform, .. } => platform.run_and_drain(),
        }
    }

    /// Run the world to idle (closes telemetry spans when tracing).
    pub fn run_until_idle(&mut self) {
        match self {
            Stack::Flat(p) => p.world_mut().run_until_idle(),
            Stack::Sharded { platform, .. } => platform.world_mut().run_until_idle(),
        }
    }

    /// The single world to step event by event, when there is exactly
    /// one (the unsharded platform or a 1-shard one).
    pub fn single_world(&mut self) -> Option<&mut SimWorld> {
        match self {
            Stack::Flat(p) => Some(p.world_mut()),
            Stack::Sharded { platform, .. } if platform.shard_count() == 1 => {
                Some(platform.world_mut().shard_mut(0))
            }
            Stack::Sharded { .. } => None,
        }
    }

    /// Every shard's world (one for the unsharded platform).
    pub fn worlds(&self) -> Vec<&SimWorld> {
        match self {
            Stack::Flat(p) => vec![p.world()],
            Stack::Sharded { platform, .. } => (0..platform.shard_count())
                .map(|k| platform.world().shard(k))
                .collect(),
        }
    }

    /// Counters merged over shards.
    pub fn metrics(&self) -> Metrics {
        match self {
            Stack::Flat(p) => p.world().metrics().clone(),
            Stack::Sharded { platform, .. } => platform.metrics(),
        }
    }

    /// The simulated counters the output check compares.
    pub fn counters(&self) -> Counters {
        let m = self.metrics();
        Counters {
            messages: m.messages_delivered,
            migrations: m.migrations,
            migration_bytes: m.migration_bytes,
            wal_records: m.wal_records_appended,
            purchases_committed: m.purchases_committed,
            clock_us: match self {
                Stack::Flat(p) => p.world().now().as_micros(),
                Stack::Sharded { platform, .. } => platform.world().now().as_micros(),
            },
        }
    }

    /// Switch request tracing on (after set-up, so seeding is not traced).
    pub fn enable_telemetry(&mut self) {
        match self {
            Stack::Flat(p) => p.world_mut().enable_telemetry(),
            Stack::Sharded { platform, .. } => platform.world_mut().enable_telemetry(),
        }
    }

    /// HttpA agents, one per shard.
    pub fn httpas(&self) -> Vec<AgentId> {
        match self {
            Stack::Flat(p) => vec![p.httpa()],
            Stack::Sharded { httpa, .. } => httpa.clone(),
        }
    }

    /// PA agents, one per shard.
    pub fn pas(&self) -> Vec<AgentId> {
        match self {
            Stack::Flat(p) => vec![p.pa()],
            Stack::Sharded { pa, .. } => pa.clone(),
        }
    }

    /// BSMA agents, one per shard.
    pub fn bsmas(&self) -> Vec<AgentId> {
        match self {
            Stack::Flat(p) => vec![p.bsma()],
            Stack::Sharded { bsma, .. } => bsma.clone(),
        }
    }

    /// Marketplace agents.
    pub fn market_agents(&self) -> Vec<AgentId> {
        match self {
            Stack::Flat(p) => p.markets().iter().map(|m| m.agent).collect(),
            Stack::Sharded { platform, .. } => platform.markets().iter().map(|m| m.agent).collect(),
        }
    }

    /// BRAs of the currently open sessions, `(consumer, bra)`.
    pub fn sessions(&self) -> Vec<(u64, AgentId)> {
        match self {
            Stack::Flat(p) => p.bsma_state().sessions().to_vec(),
            Stack::Sharded { platform, .. } => (0..platform.shard_count())
                .flat_map(|k| platform.bsma_state(k).sessions().to_vec())
                .collect(),
        }
    }

    /// Agents on the coordinator and seller hosts (infrastructure that no
    /// per-layer metric names).
    pub fn infrastructure(&self) -> BTreeSet<AgentId> {
        let mut out = BTreeSet::new();
        for w in self.worlds() {
            for host in w.hosts() {
                let name = w.host_name(host).unwrap_or("");
                if name.starts_with("coordinator") || name.starts_with("seller") {
                    out.extend(w.agents_on(host));
                }
            }
        }
        out
    }
}

/// Whether `body` is the reply variant `class` must get on a clean run.
fn expected(class: Class, body: &ResponseBody) -> bool {
    match (class, body) {
        (Class::Login, ResponseBody::LoggedIn) | (Class::Logout, ResponseBody::LoggedOut) => true,
        (
            Class::Query,
            ResponseBody::Recommendations {
                degraded,
                unreachable_markets,
                ..
            },
        ) => !degraded && unreachable_markets.is_empty(),
        (Class::Buy, ResponseBody::Receipt { .. }) => true,
        _ => false,
    }
}

/// Per-request outcomes of one run phase.
#[derive(Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests without exactly one reply of the expected variant.
    pub failed: u64,
    /// Host time of every driver call (one request, or one crowd wave),
    /// ms: the independent timings of the phase.
    pub exchange_ms: Vec<f64>,
    /// Host time of every request, ms.
    pub request_ms: Vec<f64>,
    /// Host time of query requests, ms.
    pub query_ms: Vec<f64>,
    /// Host time of buy requests, ms.
    pub buy_ms: Vec<f64>,
    /// Recommendations shown.
    pub shown: u64,
    /// Shown recommendations with true affinity >= 1.0.
    pub relevant: u64,
    /// Receipts received.
    pub receipts: u64,
    /// The largest `Recommendations` reply, by encoded size.
    pub largest_reply: Option<(usize, ResponseBody)>,
    /// Residents that issued queries (in first-query order, distinct).
    pub queried: Vec<usize>,
    /// First few failure descriptions.
    pub failures: Vec<String>,
}

impl Tally {
    /// Check and record the replies one request got, folding them into
    /// `digest`.
    pub fn record(
        &mut self,
        inputs: &Inputs,
        resident: usize,
        request: &Request,
        replies: &[ResponseBody],
        host_ms: f64,
        digest: &mut Digest,
    ) {
        self.attempted += 1;
        self.request_ms.push(host_ms);
        match request.class {
            Class::Query => self.query_ms.push(host_ms),
            Class::Buy => self.buy_ms.push(host_ms),
            Class::Login | Class::Logout => {}
        }
        let ok = replies.len() == 1 && expected(request.class, &replies[0]);
        if !ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!(
                    "consumer {} {:?}: got {replies:?}",
                    request.consumer.0, request.class
                ));
            }
        }
        for body in replies {
            let text = serde_json::to_string(body).expect("reply serializes");
            digest.update(&request.consumer.0.to_le_bytes());
            digest.update(text.as_bytes());
            match body {
                ResponseBody::Recommendations {
                    recommendations, ..
                } => {
                    let truth = inputs.truth(resident);
                    self.shown += recommendations.len() as u64;
                    self.relevant += recommendations
                        .iter()
                        .filter(|r| truth.affinity(&r.item) >= 1.0)
                        .count() as u64;
                    if self
                        .largest_reply
                        .as_ref()
                        .is_none_or(|(n, _)| text.len() > *n)
                    {
                        self.largest_reply = Some((text.len(), body.clone()));
                    }
                    if !self.queried.contains(&resident) {
                        self.queried.push(resident);
                    }
                }
                ResponseBody::Receipt { .. } => self.receipts += 1,
                _ => {}
            }
        }
    }

    /// Share of shown recommendations that are truly relevant.
    pub fn precision(&self) -> f64 {
        self.relevant as f64 / self.shown.max(1) as f64
    }
}

/// Replies addressed to `consumer`, in arrival order.
pub fn replies_for(all: &[(ConsumerId, ResponseBody)], consumer: ConsumerId) -> Vec<ResponseBody> {
    all.iter()
        .filter(|(c, _)| *c == consumer)
        .map(|(_, b)| b.clone())
        .collect()
}

/// What the phase driver calls for each request (or wave): the plain
/// path (`send`, then `run_and_drain`) or an instrumented one.
pub trait Driver {
    /// Send `requests` (one, or a whole wave), run them to completion and
    /// return every fresh reply with the host time the requests took.
    fn exchange(
        &mut self,
        stack: &mut Stack,
        requests: &[Request],
    ) -> (Vec<(ConsumerId, ResponseBody)>, Duration);
}

/// Submit, then `run_and_drain`: what a user of the platform does.
pub struct Plain;

impl Driver for Plain {
    fn exchange(
        &mut self,
        stack: &mut Stack,
        requests: &[Request],
    ) -> (Vec<(ConsumerId, ResponseBody)>, Duration) {
        let t0 = Instant::now();
        for r in requests {
            stack.send(r);
        }
        let replies = stack.run_and_drain();
        (replies, t0.elapsed())
    }
}

/// Result of one phase: its size, and the reply digest and simulated
/// counters it ended with.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Sessions (or waves) run.
    pub units: usize,
    /// Digest of every reply, in order.
    pub digest: u64,
    /// Simulated counters at the end of the phase.
    pub counters: Counters,
}

/// Drive `stack` with the workload's first `units` sessions (or waves),
/// recording every request into `tally`.
pub fn run_phase(
    stack: &mut Stack,
    inputs: &mut Inputs,
    units: usize,
    driver: &mut dyn Driver,
    tally: &mut Tally,
) -> Phase {
    let mut digest = Digest::default();
    let markets = [stack.market_ref(0), stack.market_ref(1)];
    let market_ref = |i: usize| markets[i];
    for _ in 0..units {
        if inputs.workload == Workload::Crowd {
            let wave = inputs.next_wave(&market_ref);
            let requests: Vec<Request> = wave.iter().map(|(_, r)| r.clone()).collect();
            let (replies, took) = driver.exchange(stack, &requests);
            // every task in a wave has that wave's time
            let wave_ms = crate::stats::ms(took);
            tally.exchange_ms.push(wave_ms);
            let mut sorted: Vec<&(usize, Request)> = wave.iter().collect();
            sorted.sort_by_key(|(_, r)| r.consumer);
            for (resident, request) in sorted {
                let mine = replies_for(&replies, request.consumer);
                tally.record(inputs, *resident, request, &mine, wave_ms, &mut digest);
            }
        } else {
            let Session { resident, requests } = inputs.next_session(&market_ref);
            for request in &requests {
                let (replies, took) = driver.exchange(stack, std::slice::from_ref(request));
                let mine = replies_for(&replies, request.consumer);
                let stray = replies.len() - mine.len();
                let ms = crate::stats::ms(took);
                tally.exchange_ms.push(ms);
                tally.record(inputs, resident, request, &mine, ms, &mut digest);
                if stray > 0 {
                    tally.failed += 1;
                    tally
                        .failures
                        .push(format!("{stray} replies to other consumers"));
                }
            }
        }
    }
    Phase {
        units,
        digest: digest.value(),
        counters: stack.counters(),
    }
}
