//! Indexed hot path ≡ reference implementation, and DES ≡ threaded
//! runtime.
//!
//! The store's query-serving index (flat-profile cache, posting lists,
//! bounded top-k selection, memoized item cosines) promises
//! *byte-identical* answers to the naive full-scan
//! implementations it replaced. These tests hold it to that promise on
//! randomized stores: every comparison is exact `==` on `f64` scores —
//! no tolerances.
//!
//! The `cross_runtime` module extends the promise to the two runtimes:
//! the same seeded query workflow produces the same workflow trace
//! labels and the same reply payload *bytes* on [`agentsim::sim::SimWorld`]
//! and [`agentsim::thread_net::ThreadWorld`].

use abcrm_core::learning::BehaviorKind;
use abcrm_core::profile::ConsumerId;
use abcrm_core::recommend::{
    CfRecommender, ContentRecommender, HybridRecommender, QueryContext, Recommendation,
    Recommender, TopSellerRecommender,
};
use abcrm_core::similarity::{SimilarityConfig, SimilarityMethod};
use abcrm_core::store::RecommendStore;
use abcrm_core::{ItemCfRecommender, RandomRecommender};
use ecp::merchandise::{CategoryPath, ItemId, Merchandise, Money};
use ecp::terms::TermVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CATEGORIES: [(&str, &str); 4] = [
    ("books", "programming"),
    ("books", "scifi"),
    ("music", "jazz"),
    ("garden", "tools"),
];

fn merch(id: u64) -> Merchandise {
    let (cat, sub) = CATEGORIES[(id % CATEGORIES.len() as u64) as usize];
    Merchandise {
        id: ItemId(id),
        name: format!("item{id}"),
        category: CategoryPath::new(cat, sub),
        terms: TermVector::from_pairs([
            (format!("item{id}"), 1.0),
            (format!("shard{}", id % 7), 0.5),
            (sub.to_string(), 0.3),
        ]),
        list_price: Money::from_units(10 + id % 40),
        seller: 1 + (id % 3) as u32,
    }
}

/// A randomized store: `users` consumers exercising every behaviour kind
/// over a shared catalog, so profiles overlap partially, ratings are
/// sparse, and some consumers stay cold.
fn random_store(seed: u64, users: u64, items: u64) -> RecommendStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = RecommendStore::new();
    for id in 1..=items {
        store.upsert_item(merch(id));
    }
    let kinds = [
        BehaviorKind::Query,
        BehaviorKind::Browse,
        BehaviorKind::Negotiate,
        BehaviorKind::Bid,
        BehaviorKind::AuctionWin,
        BehaviorKind::Purchase,
    ];
    for user in 1..=users {
        // a few users stay completely cold
        if rng.gen_bool(0.1) {
            continue;
        }
        for _ in 0..rng.gen_range(1..10u32) {
            let item = ItemId(rng.gen_range(1..=items));
            let kind = kinds[rng.gen_range(0..kinds.len())];
            store.record_event(ConsumerId(user), item, kind);
        }
    }
    store
}

fn contexts() -> Vec<QueryContext> {
    vec![
        QueryContext::default(),
        QueryContext::keywords(["item3", "jazz"]),
        QueryContext {
            keywords: vec![],
            category: Some(CategoryPath::new("books", "programming")),
        },
        QueryContext {
            keywords: vec!["shard2".into()],
            category: Some(CategoryPath::new("music", "jazz")),
        },
    ]
}

fn similarity_configs() -> Vec<SimilarityConfig> {
    let mut cfgs = Vec::new();
    for method in [
        SimilarityMethod::Cosine,
        SimilarityMethod::Pearson,
        SimilarityMethod::Jaccard,
    ] {
        for discard_threshold in [Some(2.0), Some(4.0), None] {
            for min_overlap in [1usize, 2] {
                cfgs.push(SimilarityConfig {
                    method,
                    discard_threshold,
                    min_overlap,
                    ..SimilarityConfig::default()
                });
            }
        }
    }
    // negative floor: pruning is lossy there, so the store must fall
    // back to the full scan — and still match exactly
    cfgs.push(SimilarityConfig {
        method: SimilarityMethod::Pearson,
        neighbour_floor: -1.5,
        min_overlap: 2,
        ..SimilarityConfig::default()
    });
    cfgs
}

/// Exact-equality helper with a readable failure message.
fn assert_same_recs(indexed: &[Recommendation], naive: &[Recommendation], what: &str) {
    assert_eq!(indexed.len(), naive.len(), "{what}: lengths differ");
    for (a, b) in indexed.iter().zip(naive) {
        assert_eq!(a.item, b.item, "{what}: items diverge");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{what}: score bits diverge on {:?}",
            a.item
        );
    }
}

#[test]
fn indexed_neighbour_search_matches_full_scan() {
    for seed in [1u64, 2, 3, 4, 5] {
        let store = random_store(seed, 40, 25);
        for cfg in similarity_configs() {
            for user in (1..=40u64).step_by(3) {
                for k in [1usize, 5, 100] {
                    let indexed = store.nearest_neighbours(ConsumerId(user), &cfg, k);
                    let naive = store.nearest_neighbours_naive(ConsumerId(user), &cfg, k);
                    assert_eq!(indexed, naive, "seed {seed} user {user} k {k} cfg {cfg:?}");
                }
            }
        }
    }
}

#[test]
fn hybrid_indexed_matches_naive() {
    for seed in [7u64, 8, 9] {
        let store = random_store(seed, 35, 20);
        for cfg in similarity_configs() {
            let rec = HybridRecommender {
                k_neighbours: 8,
                similarity: cfg,
                collaborative_weight: 0.7,
            };
            for ctx in contexts() {
                for user in [1u64, 5, 13, 27, 999] {
                    let indexed = rec.recommend(&store, ConsumerId(user), &ctx, 10);
                    let naive = rec.recommend_naive(&store, ConsumerId(user), &ctx, 10);
                    assert_same_recs(&indexed, &naive, &format!("hybrid seed {seed} user {user}"));
                }
            }
        }
    }
}

#[test]
fn itemcf_cached_matches_naive_and_repeated_queries() {
    for seed in [11u64, 12, 13] {
        let store = random_store(seed, 30, 18);
        let rec = ItemCfRecommender::default();
        for ctx in contexts() {
            for user in [1u64, 4, 17, 999] {
                let cached = rec.recommend(&store, ConsumerId(user), &ctx, 10);
                let naive = rec.recommend_naive(&store, ConsumerId(user), &ctx, 10);
                assert_same_recs(&cached, &naive, &format!("itemcf seed {seed} user {user}"));
                // second call answers from the warm cache — still identical
                let warm = rec.recommend(&store, ConsumerId(user), &ctx, 10);
                assert_same_recs(&warm, &naive, "itemcf warm cache");
            }
        }
    }
}

#[test]
fn mutations_invalidate_every_cache() {
    let mut store = random_store(21, 30, 18);
    let hybrid = HybridRecommender::default();
    let itemcf = ItemCfRecommender::default();
    let cfg = SimilarityConfig::default();
    let ctx = QueryContext::default();
    // warm all caches
    for user in 1..=30u64 {
        hybrid.recommend(&store, ConsumerId(user), &ctx, 10);
        itemcf.recommend(&store, ConsumerId(user), &ctx, 10);
    }
    type Mutation = Box<dyn Fn(&mut RecommendStore)>;
    let mutations: Vec<Mutation> = vec![
        Box::new(|s| s.record_event(ConsumerId(3), ItemId(5), BehaviorKind::Purchase)),
        Box::new(|s| {
            let mut p = abcrm_core::Profile::new();
            p.category_mut("garden").sub_mut("tools").set("spade", 3.0);
            s.put_profile(ConsumerId(7), p);
        }),
        Box::new(|s| s.record_basket(ConsumerId(9), &[ItemId(1), ItemId(2)])),
        Box::new(|s| s.decay_all_profiles(0.5)),
        Box::new(|s| s.decay_all_profiles(1e-12)),
    ];
    for (i, mutate) in mutations.iter().enumerate() {
        mutate(&mut store);
        for user in (1..=30u64).step_by(4) {
            assert_eq!(
                store.nearest_neighbours(ConsumerId(user), &cfg, 10),
                store.nearest_neighbours_naive(ConsumerId(user), &cfg, 10),
                "neighbours stale after mutation {i}"
            );
            assert_same_recs(
                &hybrid.recommend(&store, ConsumerId(user), &ctx, 10),
                &hybrid.recommend_naive(&store, ConsumerId(user), &ctx, 10),
                &format!("hybrid stale after mutation {i}"),
            );
            assert_same_recs(
                &itemcf.recommend(&store, ConsumerId(user), &ctx, 10),
                &itemcf.recommend_naive(&store, ConsumerId(user), &ctx, 10),
                &format!("itemcf stale after mutation {i}"),
            );
        }
    }
}

#[test]
fn serde_round_trip_preserves_every_recommender_answer() {
    let store = random_store(31, 30, 18);
    let back: RecommendStore =
        serde_json::from_value(serde_json::to_value(&store).unwrap()).unwrap();
    let recommenders: Vec<Box<dyn Recommender>> = vec![
        Box::new(HybridRecommender::default()),
        Box::new(ItemCfRecommender::default()),
        Box::new(CfRecommender::default()),
        Box::new(ContentRecommender),
        Box::new(TopSellerRecommender),
        Box::new(RandomRecommender { seed: 42 }),
    ];
    for rec in &recommenders {
        for ctx in contexts() {
            for user in [1u64, 6, 14, 999] {
                let original = rec.recommend(&store, ConsumerId(user), &ctx, 10);
                let reloaded = rec.recommend(&back, ConsumerId(user), &ctx, 10);
                assert_same_recs(&reloaded, &original, &format!("round-trip {}", rec.name()));
            }
        }
    }
    // the rebuilt index also serves neighbour queries identically
    let cfg = SimilarityConfig::default();
    for user in 1..=30u64 {
        assert_eq!(
            back.nearest_neighbours(ConsumerId(user), &cfg, 10),
            store.nearest_neighbours(ConsumerId(user), &cfg, 10),
        );
    }
}

#[test]
fn cloned_store_serves_identical_answers_independently() {
    let mut store = random_store(41, 25, 15);
    let copy = store.clone();
    let hybrid = HybridRecommender::default();
    let ctx = QueryContext::default();
    let before: Vec<_> = (1..=25u64)
        .map(|u| hybrid.recommend(&copy, ConsumerId(u), &ctx, 10))
        .collect();
    // mutating the original must not leak into the clone (separate
    // indexes, separate caches)
    store.record_event(ConsumerId(1), ItemId(2), BehaviorKind::Purchase);
    store.decay_all_profiles(0.1);
    for (u, expected) in (1..=25u64).zip(before) {
        assert_same_recs(
            &hybrid.recommend(&copy, ConsumerId(u), &ctx, 10),
            &expected,
            "clone drifted",
        );
        assert_same_recs(
            &hybrid.recommend(&copy, ConsumerId(u), &ctx, 10),
            &hybrid.recommend_naive(&copy, ConsumerId(u), &ctx, 10),
            "clone index stale",
        );
    }
}

/// DES ≡ threaded runtime: the same query workflow — profile load, MBA
/// round trip with BRA deactivation, recommendation generation — yields
/// the same fig4.2 trace labels and byte-identical reply payloads on
/// both runtimes.
mod cross_runtime {
    use abcrm::core::agents::msg::{kinds as msgkinds, ConsumerTask, MarketRef, RoutedTask};
    use abcrm::core::agents::{register_all, Bsma, BsmaConfig, BuyerRecommendAgent, ProfileAgent};
    use abcrm::core::learning::LearnerConfig;
    use abcrm::core::profile::ConsumerId;
    use abcrm::core::server::listing;
    use abcrm::core::similarity::SimilarityConfig;
    use abcrm::ecp::{MarketplaceAgent, SellerAgent};
    use agentsim::agent::{Agent, Ctx};
    use agentsim::ids::AgentId;
    use agentsim::message::Message;
    use agentsim::sim::SimWorld;
    use agentsim::thread_net::ThreadWorldBuilder;
    use agentsim::trace::Trace;
    use serde::{Deserialize, Serialize};
    use std::time::Duration;

    /// Stands in for the HttpA front: forwards `__send_to` instructions
    /// and writes every reply's kind + payload bytes into the trace, the
    /// one observation channel both runtimes share.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Probe;

    impl Agent for Probe {
        fn agent_type(&self) -> &'static str {
            "probe"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::json!(null)
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Some(target) = msg.payload.get("__send_to") {
                let to = AgentId(target.as_u64().unwrap());
                let inner = Message::new(msg.payload["kind"].as_str().unwrap())
                    .carrying(msg.payload.project("payload"));
                ctx.send(to, inner);
                return;
            }
            ctx.note(format!("probe-reply {} {}", msg.kind, msg.payload));
        }
    }

    fn instruction(to: AgentId, kind: &str, payload: &impl Serialize) -> Message {
        Message::new("instr").carrying(serde_json::json!({
            "__send_to": to.0,
            "kind": kind,
            "payload": serde_json::to_value(payload).unwrap(),
        }))
    }

    fn catalog() -> Vec<ecp::protocol::Listing> {
        vec![
            listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
            listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
            listing(3, "Jazz LP", "music", "jazz", 18, &[("jazz", 1.0)]),
        ]
    }

    fn task() -> RoutedTask {
        RoutedTask {
            consumer: ConsumerId(1),
            task: ConsumerTask::Query {
                keywords: vec!["rust".into()],
                category: None,
                max_results: 5,
            },
            blocked_markets: Vec::new(),
        }
    }

    /// Workflow-step labels (sorted: thread scheduling may interleave
    /// hosts) plus the probe's captured reply bytes, in arrival order.
    fn observations(trace: &Trace) -> (Vec<String>, Vec<String>) {
        let mut steps: Vec<String> = trace
            .labels_with_prefix("fig4.2/")
            .into_iter()
            .map(String::from)
            .collect();
        steps.sort();
        let replies = trace
            .labels_with_prefix("probe-reply ")
            .into_iter()
            .map(String::from)
            .collect();
        (steps, replies)
    }

    fn run_on_des() -> (Vec<String>, Vec<String>) {
        let mut world = SimWorld::new(1234);
        register_all(world.registry_mut());
        world.registry_mut().register_serde::<Probe>("probe");
        let market_host = world.add_host("marketplace");
        let seller_host = world.add_host("seller");
        let buyer_host = world.add_host("buyer-agent-server");
        let market = world
            .create_agent(market_host, Box::new(MarketplaceAgent::new("m0")))
            .unwrap();
        world
            .create_agent(
                seller_host,
                Box::new(SellerAgent::new(1, "s0", catalog(), vec![market])),
            )
            .unwrap();
        world.run_until_idle();
        let markets = vec![MarketRef {
            host: market_host,
            agent: market,
        }];
        let bsma = world
            .create_agent(
                buyer_host,
                Box::new(Bsma::new(BsmaConfig {
                    target: buyer_host,
                    markets: markets.clone(),
                    ..BsmaConfig::default()
                })),
            )
            .unwrap();
        world.run_until_idle();
        let pa = world
            .create_agent(
                buyer_host,
                Box::new(ProfileAgent::new(
                    LearnerConfig::default(),
                    SimilarityConfig::default(),
                )),
            )
            .unwrap();
        let probe = world.create_agent(buyer_host, Box::new(Probe)).unwrap();
        let bra = world
            .create_agent(
                buyer_host,
                Box::new(BuyerRecommendAgent::new(
                    ConsumerId(1),
                    bsma,
                    pa,
                    probe,
                    markets,
                )),
            )
            .unwrap();
        world.run_until_idle();
        world
            .send_external(probe, instruction(bra, msgkinds::BRA_TASK, &task()))
            .unwrap();
        world.run_until_idle();
        observations(world.trace())
    }

    fn run_on_threads() -> (Vec<String>, Vec<String>) {
        let mut builder = ThreadWorldBuilder::new(1234);
        register_all(builder.registry_mut());
        builder.registry_mut().register_serde::<Probe>("probe");
        let market_host = builder.add_host("marketplace");
        let seller_host = builder.add_host("seller");
        let buyer_host = builder.add_host("buyer-agent-server");
        let world = builder.start();
        let market = world
            .create_agent(market_host, Box::new(MarketplaceAgent::new("m0")))
            .unwrap();
        world
            .create_agent(
                seller_host,
                Box::new(SellerAgent::new(1, "s0", catalog(), vec![market])),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        let markets = vec![MarketRef {
            host: market_host,
            agent: market,
        }];
        let bsma = world
            .create_agent(
                buyer_host,
                Box::new(Bsma::new(BsmaConfig {
                    target: buyer_host,
                    markets: markets.clone(),
                    ..BsmaConfig::default()
                })),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        let pa = world
            .create_agent(
                buyer_host,
                Box::new(ProfileAgent::new(
                    LearnerConfig::default(),
                    SimilarityConfig::default(),
                )),
            )
            .unwrap();
        let probe = world.create_agent(buyer_host, Box::new(Probe)).unwrap();
        let bra = world
            .create_agent(
                buyer_host,
                Box::new(
                    BuyerRecommendAgent::new(ConsumerId(1), bsma, pa, probe, markets)
                        // the MBA watchdog timer runs on the wall clock
                        // here; keep the idle-wait short
                        .with_mba_timeout_us(300_000),
                ),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        world
            .send_external(probe, instruction(bra, msgkinds::BRA_TASK, &task()))
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(20)).is_idle());
        let (_metrics, trace) = world.shutdown();
        observations(&trace)
    }

    #[test]
    fn query_workflow_is_identical_across_runtimes() {
        let (des_steps, des_replies) = run_on_des();
        let (thread_steps, thread_replies) = run_on_threads();
        assert!(
            !des_steps.is_empty(),
            "workflow must produce fig4.2 steps on the DES"
        );
        assert_eq!(des_steps, thread_steps, "workflow step labels diverge");
        assert_eq!(
            des_replies.len(),
            1,
            "exactly one recommendation reply: {des_replies:?}"
        );
        assert_eq!(
            des_replies, thread_replies,
            "reply payload bytes diverge between runtimes"
        );
        assert!(
            des_replies[0].starts_with(&format!("probe-reply {} ", msgkinds::BRA_RESPONSE)),
            "reply is the BRA's recommendation response: {}",
            des_replies[0]
        );
    }
}

/// DES ≡ threaded runtime under *faults*: the four failure-injection
/// scenarios (total loss degrades the reply, the platform recovers after
/// healing, a dead marketplace yields a partial result, a doomed buy
/// fails cleanly) produce the same *outcome class* on both runtimes.
///
/// Only the synchronous fault vocabulary (partitions, host crashes) is
/// used here — those are the faults whose semantics the two runtimes
/// share exactly, so the equivalence is deterministic, not statistical.
mod cross_runtime_faults {
    use abcrm::core::agents::msg::{
        kinds as msgkinds, BraResponse, BuyMode, ConsumerTask, MarketRef, ResponseBody, RoutedTask,
    };
    use abcrm::core::agents::{register_all, Bsma, BsmaConfig, BuyerRecommendAgent, ProfileAgent};
    use abcrm::core::learning::LearnerConfig;
    use abcrm::core::profile::ConsumerId;
    use abcrm::core::server::listing;
    use abcrm::core::similarity::SimilarityConfig;
    use abcrm::core::BackoffPolicy;
    use abcrm::ecp::merchandise::ItemId;
    use abcrm::ecp::{MarketplaceAgent, SellerAgent};
    use agentsim::agent::{Agent, Ctx};
    use agentsim::ids::AgentId;
    use agentsim::message::Message;
    use agentsim::sim::SimWorld;
    use agentsim::thread_net::ThreadWorldBuilder;
    use agentsim::trace::Trace;
    use serde::{Deserialize, Serialize};
    use std::time::Duration;

    /// What a fault scenario does between queries.
    #[derive(Clone, Copy)]
    enum Step {
        /// Partition the buyer server from market `i`.
        Partition(usize),
        /// Heal that partition.
        Heal(usize),
        /// Crash market host `i`.
        Crash(usize),
        /// Run a query task.
        Query,
        /// Try to buy a nonexistent item from market 0.
        BuyUnknown,
    }

    /// Collapse a reply into its outcome class — the unit of equivalence.
    fn classify(body: &ResponseBody) -> String {
        match body {
            ResponseBody::Recommendations { degraded: true, .. } => "degraded".into(),
            ResponseBody::Recommendations {
                unreachable_markets,
                ..
            } if !unreachable_markets.is_empty() => {
                format!("partial:{}", unreachable_markets.len())
            }
            ResponseBody::Recommendations { .. } => "full".into(),
            ResponseBody::Receipt { .. } => "receipt".into(),
            ResponseBody::Error(_) => "error".into(),
            other => format!("other:{other:?}"),
        }
    }

    /// Front stand-in: forwards instructions, classifies every reply.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct ClassifierProbe;

    impl Agent for ClassifierProbe {
        fn agent_type(&self) -> &'static str {
            "classifier-probe"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::json!(null)
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Some(target) = msg.payload.get("__send_to") {
                let to = AgentId(target.as_u64().unwrap());
                let inner = Message::new(msg.payload["kind"].as_str().unwrap())
                    .carrying(msg.payload.project("payload"));
                ctx.send(to, inner);
                return;
            }
            if msg.kind == msgkinds::BRA_RESPONSE {
                let reply: BraResponse = msg.payload_as().expect("bra response parses");
                ctx.note(format!("outcome {}", classify(&reply.body)));
            }
        }
    }

    fn instruction(to: AgentId, task: &ConsumerTask) -> Message {
        let routed = RoutedTask {
            consumer: ConsumerId(1),
            task: task.clone(),
            blocked_markets: Vec::new(),
        };
        Message::new("instr").carrying(serde_json::json!({
            "__send_to": to.0,
            "kind": msgkinds::BRA_TASK,
            "payload": serde_json::to_value(&routed).unwrap(),
        }))
    }

    fn query() -> ConsumerTask {
        ConsumerTask::Query {
            keywords: vec!["rust".into()],
            category: None,
            max_results: 5,
        }
    }

    fn catalogs() -> Vec<Vec<ecp::protocol::Listing>> {
        vec![
            vec![listing(
                1,
                "Rust Book",
                "books",
                "programming",
                30,
                &[("rust", 1.0)],
            )],
            vec![listing(
                11,
                "Systems Programming",
                "books",
                "programming",
                40,
                &[("rust", 0.8)],
            )],
        ]
    }

    fn outcomes(trace: &Trace) -> Vec<String> {
        trace
            .labels_with_prefix("outcome ")
            .into_iter()
            .map(String::from)
            .collect()
    }

    // Both runtimes share this timeout: timers are wall-clock threads on
    // the threaded runtime, so the window must be short.
    const MBA_TIMEOUT_US: u64 = 300_000;

    fn retry() -> BackoffPolicy {
        BackoffPolicy::new(100_000, 400_000, 1)
    }

    fn run_on_des(steps: &[Step]) -> Vec<String> {
        let mut world = SimWorld::new(77);
        register_all(world.registry_mut());
        world
            .registry_mut()
            .register_serde::<ClassifierProbe>("classifier-probe");
        let market_hosts = [world.add_host("m0"), world.add_host("m1")];
        let seller_host = world.add_host("seller");
        let buyer_host = world.add_host("buyer-agent-server");
        let mut markets = Vec::new();
        for (i, (host, catalog)) in market_hosts.iter().zip(catalogs()).enumerate() {
            let agent = world
                .create_agent(*host, Box::new(MarketplaceAgent::new(format!("m{i}"))))
                .unwrap();
            markets.push(MarketRef { host: *host, agent });
            world
                .create_agent(
                    seller_host,
                    Box::new(SellerAgent::new(1, format!("s{i}"), catalog, vec![agent])),
                )
                .unwrap();
        }
        world.run_until_idle();
        let bsma = world
            .create_agent(
                buyer_host,
                Box::new(Bsma::new(BsmaConfig {
                    target: buyer_host,
                    markets: markets.clone(),
                    mba_timeout_us: MBA_TIMEOUT_US,
                    bra_retry: retry(),
                    ..BsmaConfig::default()
                })),
            )
            .unwrap();
        world.run_until_idle();
        let pa = world
            .create_agent(
                buyer_host,
                Box::new(ProfileAgent::new(
                    LearnerConfig::default(),
                    SimilarityConfig::default(),
                )),
            )
            .unwrap();
        let probe = world
            .create_agent(buyer_host, Box::new(ClassifierProbe))
            .unwrap();
        let bra = world
            .create_agent(
                buyer_host,
                Box::new(
                    BuyerRecommendAgent::new(ConsumerId(1), bsma, pa, probe, markets.clone())
                        .with_mba_timeout_us(MBA_TIMEOUT_US)
                        .with_retry_policy(retry()),
                ),
            )
            .unwrap();
        world.run_until_idle();
        for step in steps {
            match *step {
                Step::Partition(i) => {
                    world.topology_mut().partition(buyer_host, market_hosts[i]);
                }
                Step::Heal(i) => {
                    world
                        .topology_mut()
                        .heal_partition(buyer_host, market_hosts[i]);
                }
                Step::Crash(i) => world.crash_host(market_hosts[i]).unwrap(),
                Step::Query => {
                    world
                        .send_external(probe, instruction(bra, &query()))
                        .unwrap();
                    world.run_until_idle();
                }
                Step::BuyUnknown => {
                    let task = ConsumerTask::Buy {
                        item: ItemId(999),
                        market: markets[0],
                        mode: BuyMode::Direct,
                    };
                    world.send_external(probe, instruction(bra, &task)).unwrap();
                    world.run_until_idle();
                }
            }
        }
        outcomes(world.trace())
    }

    fn run_on_threads(steps: &[Step]) -> Vec<String> {
        let mut builder = ThreadWorldBuilder::new(77);
        register_all(builder.registry_mut());
        builder
            .registry_mut()
            .register_serde::<ClassifierProbe>("classifier-probe");
        let market_hosts = [builder.add_host("m0"), builder.add_host("m1")];
        let seller_host = builder.add_host("seller");
        let buyer_host = builder.add_host("buyer-agent-server");
        let world = builder.start();
        let mut markets = Vec::new();
        for (i, (host, catalog)) in market_hosts.iter().zip(catalogs()).enumerate() {
            let agent = world
                .create_agent(*host, Box::new(MarketplaceAgent::new(format!("m{i}"))))
                .unwrap();
            markets.push(MarketRef { host: *host, agent });
            world
                .create_agent(
                    seller_host,
                    Box::new(SellerAgent::new(1, format!("s{i}"), catalog, vec![agent])),
                )
                .unwrap();
        }
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        let bsma = world
            .create_agent(
                buyer_host,
                Box::new(Bsma::new(BsmaConfig {
                    target: buyer_host,
                    markets: markets.clone(),
                    mba_timeout_us: MBA_TIMEOUT_US,
                    bra_retry: retry(),
                    ..BsmaConfig::default()
                })),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        let pa = world
            .create_agent(
                buyer_host,
                Box::new(ProfileAgent::new(
                    LearnerConfig::default(),
                    SimilarityConfig::default(),
                )),
            )
            .unwrap();
        let probe = world
            .create_agent(buyer_host, Box::new(ClassifierProbe))
            .unwrap();
        let bra = world
            .create_agent(
                buyer_host,
                Box::new(
                    BuyerRecommendAgent::new(ConsumerId(1), bsma, pa, probe, markets.clone())
                        .with_mba_timeout_us(MBA_TIMEOUT_US)
                        .with_retry_policy(retry()),
                ),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        for step in steps {
            match *step {
                Step::Partition(i) => world.partition(buyer_host, market_hosts[i]),
                Step::Heal(i) => world.heal_partition(buyer_host, market_hosts[i]),
                Step::Crash(i) => world.crash_host(market_hosts[i]).unwrap(),
                Step::Query => {
                    world
                        .send_external(probe, instruction(bra, &query()))
                        .unwrap();
                    assert!(world.run_until_idle(Duration::from_secs(30)).is_idle());
                }
                Step::BuyUnknown => {
                    let task = ConsumerTask::Buy {
                        item: ItemId(999),
                        market: markets[0],
                        mode: BuyMode::Direct,
                    };
                    world.send_external(probe, instruction(bra, &task)).unwrap();
                    assert!(world.run_until_idle(Duration::from_secs(30)).is_idle());
                }
            }
        }
        let (_metrics, trace) = world.shutdown();
        outcomes(&trace)
    }

    fn assert_equivalent(steps: &[Step], expected: &[&str], what: &str) {
        let des = run_on_des(steps);
        let threads = run_on_threads(steps);
        let expected: Vec<String> = expected.iter().map(|c| format!("outcome {c}")).collect();
        assert_eq!(des, expected, "{what}: DES outcome classes");
        assert_eq!(des, threads, "{what}: runtimes disagree on outcome classes");
    }

    /// failure_injection scenario 1: total loss of every marketplace
    /// degrades the reply to CF-only instead of erroring or hanging.
    #[test]
    fn total_partition_degrades_identically() {
        assert_equivalent(
            &[Step::Partition(0), Step::Partition(1), Step::Query],
            &["degraded"],
            "total partition",
        );
    }

    /// failure_injection scenario 2: once the network heals the next
    /// query is served in full again.
    #[test]
    fn platform_recovers_after_heal_identically() {
        assert_equivalent(
            &[
                Step::Partition(0),
                Step::Partition(1),
                Step::Query,
                Step::Heal(0),
                Step::Heal(1),
                Step::Query,
            ],
            &["degraded", "full"],
            "heal recovery",
        );
    }

    /// One dead marketplace out of two: the reply is partial — offers
    /// from the live market, the dead one tagged unreachable.
    #[test]
    fn crashed_market_yields_partial_result_identically() {
        assert_equivalent(
            &[Step::Crash(1), Step::Query],
            &["partial:1"],
            "crashed market",
        );
    }

    /// failure_injection scenario 6: a doomed buy fails cleanly and the
    /// platform stays healthy for the next query.
    #[test]
    fn doomed_buy_fails_cleanly_identically() {
        assert_equivalent(
            &[Step::BuyUnknown, Step::Query],
            &["error", "full"],
            "doomed buy",
        );
    }
}

/// Unsharded ≡ sharded platform: a 1-shard [`ShardedPlatform`] replays
/// the unsharded [`Platform`] byte for byte, and at 2/4/8 shards the
/// fig 4.2/4.3 workflows — clean and under a seeded fault sweep —
/// produce the same *outcome class* as the unsharded run.
///
/// Outcome classes (full / partial:N / degraded / receipt / error) are
/// the unit of equivalence across shard counts: shard RNG streams and
/// boundary latencies legitimately change timings and tie-breaks, but
/// never whether a workflow succeeds, degrades or fails.
mod shard_sweep {
    use abcrm::core::agents::msg::{BuyMode, ResponseBody};
    use abcrm::core::profile::ConsumerId;
    use abcrm::core::server::{listing, Platform, ShardedPlatform};
    use abcrm::ecp::merchandise::ItemId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn catalogs() -> Vec<Vec<ecp::protocol::Listing>> {
        vec![
            vec![
                listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
                listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
            ],
            vec![listing(
                11,
                "Systems Programming",
                "books",
                "programming",
                40,
                &[("rust", 0.8)],
            )],
        ]
    }

    fn platform(seed: u64) -> Platform {
        Platform::builder(seed).marketplaces(catalogs()).build()
    }

    fn sharded(seed: u64, shards: usize) -> ShardedPlatform {
        ShardedPlatform::builder(seed, shards)
            .marketplaces(catalogs())
            .build()
    }

    /// Collapse a reply into its outcome class — the unit of equivalence.
    fn classify(body: &ResponseBody) -> String {
        match body {
            ResponseBody::Recommendations { degraded: true, .. } => "degraded".into(),
            ResponseBody::Recommendations {
                unreachable_markets,
                ..
            } if !unreachable_markets.is_empty() => {
                format!("partial:{}", unreachable_markets.len())
            }
            ResponseBody::Recommendations { .. } => "full".into(),
            ResponseBody::Receipt { .. } => "receipt".into(),
            ResponseBody::Error(_) => "error".into(),
            other => format!("other:{other:?}"),
        }
    }

    fn classify_all(responses: &[ResponseBody]) -> Vec<String> {
        responses.iter().map(classify).collect()
    }

    /// The 1-shard sharded platform is *byte-identical* to the unsharded
    /// one over the whole fig 4.1/4.2/4.3 surface: same trace labels in
    /// the same order, same responses, same metrics.
    #[test]
    fn one_shard_run_is_byte_identical_to_unsharded() {
        let mut flat = platform(1234);
        let mut one = sharded(1234, 1);
        let alice = ConsumerId(1);
        assert_eq!(flat.login(alice), one.login(alice));
        assert_eq!(
            flat.query(alice, &["rust"], 5),
            one.query(alice, &["rust"], 5)
        );
        assert_eq!(
            flat.buy(alice, ItemId(1), 0, BuyMode::Direct),
            one.buy(alice, ItemId(1), 0, BuyMode::Direct)
        );
        assert_eq!(flat.logout(alice), one.logout(alice));
        let flat_labels: Vec<String> = flat
            .world()
            .trace()
            .labels()
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            flat_labels,
            one.world().trace_labels(),
            "1-shard trace must replay the unsharded trace byte for byte"
        );
        assert_eq!(flat.world().metrics(), &one.metrics());
        assert_eq!(one.metrics().boundary_messages, 0);
        assert_eq!(one.metrics().boundary_migrations, 0);
    }

    /// Clean fig 4.2 query and fig 4.3 buy keep their outcome classes at
    /// every shard count, for a consumer on every shard.
    #[test]
    fn clean_workflows_keep_outcome_class_at_2_4_8_shards() {
        // unsharded baseline
        let mut flat = platform(55);
        flat.login(ConsumerId(1));
        let base_query = classify_all(&flat.query(ConsumerId(1), &["rust"], 5));
        let base_buy = classify_all(&flat.buy(ConsumerId(1), ItemId(1), 0, BuyMode::Direct));
        assert_eq!(base_query, vec!["full"]);
        assert_eq!(base_buy, vec!["receipt"]);
        for shards in [2usize, 4, 8] {
            let mut p = sharded(55, shards);
            // one consumer per shard, found by walking the hash
            let mut picks: Vec<Option<ConsumerId>> = vec![None; shards];
            for c in 1..10_000u64 {
                let s = p.shard_of(ConsumerId(c));
                if picks[s].is_none() {
                    picks[s] = Some(ConsumerId(c));
                }
                if picks.iter().all(Option::is_some) {
                    break;
                }
            }
            for consumer in picks.into_iter().map(Option::unwrap) {
                p.login(consumer);
                assert_eq!(
                    classify_all(&p.query(consumer, &["rust"], 5)),
                    base_query,
                    "{shards}-shard query class for {consumer:?}"
                );
                assert_eq!(
                    classify_all(&p.buy(consumer, ItemId(1), 0, BuyMode::Direct)),
                    base_buy,
                    "{shards}-shard buy class for {consumer:?}"
                );
            }
            assert_eq!(p.metrics().migrations_rejected, 0);
        }
    }

    /// What a seeded fault scenario does between tasks. Only the
    /// synchronous fault vocabulary (partitions, host crashes) is used —
    /// its semantics are identical on both platform shapes, so the
    /// equivalence is deterministic, not statistical.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Partition the consumer's buyer host from market `i`.
        Partition(usize),
        /// Heal that partition.
        Heal(usize),
        /// Crash market host `i`.
        Crash(usize),
        /// Run a fig 4.2 query.
        Query,
        /// Direct-buy item 1 from market 0 (fig 4.3).
        Buy,
    }

    /// A deterministic scenario per seed: a few faults/heals interleaved
    /// with tasks, always ending with a query and a buy so every seed
    /// exercises both workflows.
    fn scenario(seed: u64) -> Vec<Step> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut steps = Vec::new();
        for _ in 0..rng.gen_range(2..=4u32) {
            steps.push(match rng.gen_range(0..7u32) {
                0 => Step::Partition(0),
                1 => Step::Partition(1),
                2 => Step::Heal(0),
                3 => Step::Heal(1),
                4 => Step::Crash(1),
                5 => Step::Query,
                _ => Step::Buy,
            });
        }
        steps.push(Step::Query);
        steps.push(Step::Buy);
        steps
    }

    fn run_flat(seed: u64, steps: &[Step]) -> Vec<String> {
        let mut p = platform(seed);
        let consumer = ConsumerId(1);
        p.login(consumer);
        let buyer = p.buyer_host();
        let market_hosts = [p.markets()[0].host, p.markets()[1].host];
        let mut classes = Vec::new();
        for step in steps {
            match *step {
                Step::Partition(i) => {
                    p.world_mut()
                        .topology_mut()
                        .partition(buyer, market_hosts[i]);
                }
                Step::Heal(i) => {
                    p.world_mut()
                        .topology_mut()
                        .heal_partition(buyer, market_hosts[i]);
                }
                Step::Crash(i) => p.world_mut().crash_host(market_hosts[i]).unwrap(),
                Step::Query => classes.extend(classify_all(&p.query(consumer, &["rust"], 5))),
                Step::Buy => classes.extend(classify_all(&p.buy(
                    consumer,
                    ItemId(1),
                    0,
                    BuyMode::Direct,
                ))),
            }
        }
        classes
    }

    fn run_sharded(seed: u64, shards: usize, steps: &[Step]) -> Vec<String> {
        let mut p = sharded(seed, shards);
        // pick a consumer on the last shard so every fault scenario
        // crosses the boundary (shard 0 would stay local)
        let consumer = (1..10_000u64)
            .map(ConsumerId)
            .find(|c| p.shard_of(*c) == shards - 1)
            .expect("hash covers the last shard");
        p.login(consumer);
        let buyer = p.buyer_host(p.shard_of(consumer));
        let market_hosts = [p.markets()[0].host, p.markets()[1].host];
        let mut classes = Vec::new();
        for step in steps {
            match *step {
                Step::Partition(i) => p.world_mut().partition(buyer, market_hosts[i]),
                Step::Heal(i) => p.world_mut().heal_partition(buyer, market_hosts[i]),
                Step::Crash(i) => p.world_mut().crash_host(market_hosts[i]).unwrap(),
                Step::Query => classes.extend(classify_all(&p.query(consumer, &["rust"], 5))),
                Step::Buy => classes.extend(classify_all(&p.buy(
                    consumer,
                    ItemId(1),
                    0,
                    BuyMode::Direct,
                ))),
            }
        }
        classes
    }

    /// 32-seed fault sweep: every seeded scenario produces the same
    /// outcome-class sequence unsharded and at 2 and 4 shards.
    #[test]
    fn fault_sweep_keeps_outcome_classes_across_shard_counts() {
        for seed in 0..32u64 {
            let steps = scenario(seed);
            let flat = run_flat(seed, &steps);
            for shards in [2usize, 4] {
                let got = run_sharded(seed, shards, &steps);
                assert_eq!(
                    flat, got,
                    "seed {seed} {shards}-shard outcome classes diverge on {steps:?}"
                );
            }
        }
    }
}

/// DES ≡ threaded runtime on the host lifecycle itself: create, dispatch,
/// return authentication, retract, deactivate/activate/dispose, parked
/// mail, dead letters, crashes, restarts and hangs. Both runtimes run
/// agents and faults through the same host kernel, so each scripted case
/// must leave the same trace lines and lifecycle and fault counters on
/// both, and the counters the table pins.
mod cross_runtime_lifecycle {
    use agentsim::agent::{Agent, Ctx};
    use agentsim::clock::SimDuration;
    use agentsim::durable::DurabilityConfig;
    use agentsim::ids::{AgentId, HostId};
    use agentsim::message::Message;
    use agentsim::metrics::Metrics;
    use agentsim::sim::SimWorld;
    use agentsim::thread_net::{DrainStatus, ThreadWorldBuilder};
    use agentsim::trace::Trace;
    use serde::{Deserialize, Serialize};
    use std::time::{Duration, Instant};

    /// Carries out the lifecycle request each message names.
    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Rover;

    impl Agent for Rover {
        fn agent_type(&self) -> &'static str {
            "rover"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::json!(null)
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let (agent, host): (u64, u32) = msg.payload_as().unwrap_or((0, 0));
            let (agent, host) = (AgentId(agent), HostId(host));
            match msg.kind.as_str() {
                "go" => ctx.dispatch_self(host),
                "sleep" => ctx.deactivate_self(),
                "retract" => ctx.retract(agent, host),
                "deactivate" => ctx.deactivate(agent),
                "activate" => ctx.activate(agent),
                "dispose" => ctx.dispose(agent),
                "sendto" => ctx.send(agent, Message::new("ping")),
                "arm" => {
                    ctx.set_timer(SimDuration::from_millis(300), 0);
                    ctx.note(format!("{} armed a timer", ctx.self_id()));
                    // tells the script the timer is armed
                    ctx.emit(serde_json::json!("armed"));
                }
                _ => {}
            }
        }
        fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
            ctx.note(format!("{} arrived at {}", ctx.self_id(), ctx.host()));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            ctx.note(format!("{} timer fired", ctx.self_id()));
        }
    }

    const A: HostId = HostId(1);
    const B: HostId = HostId(2);

    /// One scripted step. Rovers are numbered by creation order from 1;
    /// rover 0 names an agent that never existed.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Create a rover on the host.
        Create(HostId),
        /// Send rover `n` a request about `(rover, host)`.
        Tell(usize, &'static str, usize, HostId),
        Crash(HostId),
        Restart(HostId),
        /// Operator-side activation of a stored agent.
        Activate(usize),
        /// Rover `n` arms a 300 ms timer; the script goes on once it is
        /// armed, without waiting for it to fire.
        Arm(usize),
        /// Crash the host and restart it at once.
        Bounce(HostId),
        Hang(HostId),
        Unhang(HostId),
        /// Let a rover timer armed 300 ms ago come due (the DES settles
        /// past it anyway).
        Pause,
    }

    struct Case {
        name: &'static str,
        durable: bool,
        steps: &'static [Step],
        /// Trace lines that must appear (substring match).
        labels: &'static [&'static str],
        /// Trace lines that must not appear (substring match).
        absent: &'static [&'static str],
        /// `(migrations, migrations_rejected, messages_dead_lettered,
        /// deactivations, agents_disposed)`.
        counters: (u64, u64, u64, u64, u64),
    }

    use Step::*;

    const CASES: &[Case] = &[
        Case {
            name: "retract follows the agent to another host",
            durable: false,
            steps: &[
                Create(A),
                Create(A),
                Tell(1, "go", 0, B),
                Tell(2, "retract", 1, A),
            ],
            labels: &["rover-1 arrived at host-2", "rover-1 arrived at host-1"],
            absent: &[],
            counters: (2, 0, 0, 0, 0),
        },
        Case {
            name: "retract of an unknown agent traces a failure, not a dead letter",
            durable: false,
            steps: &[Create(A), Tell(1, "retract", 0, A)],
            labels: &["retract failed: rover-0 not active (None)"],
            absent: &[],
            counters: (0, 0, 0, 0, 0),
        },
        Case {
            name: "a home arrival without a permit is an authentication rejection",
            durable: true,
            steps: &[
                Create(A),
                Tell(1, "go", 0, B),
                Tell(1, "sleep", 0, A),
                Crash(B),
                Restart(B),
                Activate(1),
                Tell(1, "go", 0, A),
            ],
            labels: &["arrival rejected at host-1: authentication failed"],
            absent: &[],
            counters: (1, 1, 0, 1, 0),
        },
        Case {
            name: "a restart without durability is traced and serves again",
            durable: false,
            steps: &[
                Create(A),
                Crash(A),
                Restart(A),
                Create(A),
                Tell(2, "go", 0, B),
            ],
            labels: &["chaos: host-1 restarted", "rover-2 arrived at host-2"],
            absent: &[],
            counters: (1, 0, 0, 0, 0),
        },
        Case {
            name: "undeliverable sends write a dead-letter trace line",
            durable: false,
            steps: &[Create(A), Tell(1, "sendto", 0, A)],
            labels: &["dead-letter: ping to rover-0 (unreachable)"],
            absent: &[],
            counters: (0, 0, 1, 0, 0),
        },
        Case {
            name: "disposing a deactivated agent dead-letters its parked mail",
            durable: false,
            steps: &[
                Create(A),
                Create(A),
                Tell(2, "sleep", 0, A),
                Tell(1, "sendto", 2, A),
                Tell(1, "dispose", 2, A),
            ],
            labels: &["dead-letter: ping to rover-2 (recipient disposed while parked)"],
            absent: &[],
            counters: (0, 0, 1, 1, 1),
        },
        Case {
            name: "a timer armed before a crash does not fire after the restart",
            durable: true,
            steps: &[Create(A), Arm(1), Bounce(A)],
            labels: &["rover-1 armed a timer", "chaos: host-1 restarted"],
            absent: &["timer fired"],
            counters: (0, 0, 0, 0, 0),
        },
        Case {
            name: "lifecycle requests about an agent on another host are ignored",
            durable: false,
            steps: &[
                Create(A),
                Create(B),
                Tell(1, "deactivate", 2, A),
                Tell(1, "activate", 2, A),
                Tell(1, "dispose", 2, A),
            ],
            labels: &[
                "deactivate ignored: rover-2 not active on host-1",
                "activate ignored: rover-2 not stored on host-1",
                "dispose ignored: rover-2 not on host-1",
            ],
            absent: &[],
            counters: (0, 0, 0, 0, 0),
        },
        Case {
            name: "a delivery to a hung host stalls and replays on unhang",
            durable: false,
            steps: &[Create(A), Hang(A), Tell(1, "sendto", 0, A), Unhang(A)],
            labels: &[
                "chaos: host-1 hung (deliveries stalling)",
                "chaos: host-1 unhung (1 stalled deliveries replayed)",
                "dead-letter: ping to rover-0 (unreachable)",
            ],
            absent: &[],
            counters: (0, 0, 1, 0, 0),
        },
        Case {
            name: "a crash while hung loses the stalled delivery",
            durable: false,
            steps: &[
                Create(A),
                Hang(A),
                Tell(1, "sendto", 0, A),
                Crash(A),
                Restart(A),
            ],
            labels: &[
                "chaos: host-1 hung (deliveries stalling)",
                "chaos: host-1 crashed (1 agents lost)",
                "chaos: host-1 restarted",
            ],
            absent: &["dead-letter", "unhung"],
            counters: (0, 0, 0, 0, 0),
        },
        Case {
            name: "a timer that comes due while hung fires once after unhang",
            durable: false,
            steps: &[Create(A), Arm(1), Hang(A), Pause, Unhang(A)],
            labels: &[
                "chaos: host-1 unhung (0 stalled deliveries replayed)",
                "rover-1 timer fired",
            ],
            absent: &[],
            counters: (0, 0, 0, 0, 0),
        },
    ];

    /// The id of an agent that never existed.
    const NOBODY: AgentId = AgentId(4_000_000_000);

    /// Rover `n`'s id (the runtimes allocate ids differently).
    fn rover(ids: &[AgentId], n: usize) -> AgentId {
        if n == 0 {
            NOBODY
        } else {
            ids[n - 1]
        }
    }

    fn tell(ids: &[AgentId], kind: &str, n: usize, host: HostId) -> Message {
        let target = rover(ids, n).0;
        Message::new(kind).with_payload(&(target, host.0)).unwrap()
    }

    /// Rewrite every agent id in `label` as its rover name.
    fn rename(label: &str, ids: &[AgentId]) -> String {
        let mut out = String::new();
        let mut rest = label;
        while let Some(at) = rest.find("agent-") {
            out.push_str(&rest[..at]);
            let digits = rest[at + 6..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len() - at - 6);
            let raw: u64 = rest[at + 6..at + 6 + digits].parse().unwrap_or(0);
            let n = ids.iter().position(|id| id.0 == raw).map_or(0, |i| i + 1);
            out.push_str(&format!("rover-{n}"));
            rest = &rest[at + 6 + digits..];
        }
        out.push_str(rest);
        out
    }

    /// Every trace line with agent ids renamed, sorted, plus the compared
    /// counters including the migration bytes and the fault counters.
    fn observe(trace: &Trace, m: &Metrics, ids: &[AgentId]) -> (Vec<String>, [u64; 11]) {
        let mut labels: Vec<String> = trace.labels().into_iter().map(|l| rename(l, ids)).collect();
        labels.sort();
        let counters = [
            m.migrations,
            m.migrations_rejected,
            m.messages_dead_lettered,
            m.deactivations,
            m.agents_disposed,
            m.activations,
            m.migration_bytes,
            m.messages_lost,
            m.host_crashes,
            m.hangs_injected,
            m.timers_fired,
        ];
        (labels, counters)
    }

    /// The DES settles by running until idle after each step: a hang
    /// never blocks it, and it lets pending timers come due.
    fn run_on_des(case: &Case) -> (Vec<String>, [u64; 11]) {
        let mut w = SimWorld::new(5);
        w.registry_mut().register_serde::<Rover>("rover");
        w.add_host("a");
        w.add_host("b");
        if case.durable {
            w.enable_durability(DurabilityConfig::default());
        }
        let mut ids = Vec::new();
        for step in case.steps {
            match *step {
                Create(host) => ids.push(w.create_agent(host, Box::new(Rover)).unwrap()),
                Tell(n, kind, target, host) => {
                    let msg = tell(&ids, kind, target, host);
                    w.send_external(rover(&ids, n), msg).unwrap();
                }
                Crash(host) => w.crash_host(host).unwrap(),
                Restart(host) => w.restart_host(host).unwrap(),
                Activate(n) => w.activate_agent(rover(&ids, n)).unwrap(),
                Arm(n) => {
                    w.send_external(rover(&ids, n), Message::new("arm"))
                        .unwrap();
                    while w.take_outbox(rover(&ids, n)).is_empty() {
                        assert!(w.step(), "{}: the rover never armed", case.name);
                    }
                    continue;
                }
                Bounce(host) => {
                    w.crash_host(host).unwrap();
                    w.restart_host(host).unwrap();
                }
                Hang(host) => w.hang_host(host).unwrap(),
                Unhang(host) => w.unhang_host(host).unwrap(),
                Pause => {}
            }
            w.run_until_idle();
        }
        observe(w.trace(), w.metrics(), &ids)
    }

    /// Threads settle by waiting for idle after each step. While a host is
    /// hung, stalled work keeps the world busy, so they wait instead until
    /// every sent delivery has been admitted (stalled or handled).
    fn run_on_threads(case: &Case) -> (Vec<String>, [u64; 11]) {
        let mut builder = ThreadWorldBuilder::new(5);
        builder.register_serde::<Rover>("rover");
        builder.add_host("a");
        builder.add_host("b");
        if case.durable {
            builder.durability(DurabilityConfig::default());
        }
        let world = builder.start();
        let mut ids = Vec::new();
        let mut hung = Vec::new();
        for step in case.steps {
            match *step {
                Create(host) => ids.push(world.create_agent(host, Box::new(Rover)).unwrap()),
                Tell(n, kind, target, host) => {
                    let msg = tell(&ids, kind, target, host);
                    world.send_external(rover(&ids, n), msg).unwrap();
                }
                Crash(host) => {
                    world.crash_host(host).unwrap();
                    hung.retain(|h| *h != host);
                }
                Restart(host) => world.restart_host(host).unwrap(),
                Activate(n) => world.activate_agent(rover(&ids, n)).unwrap(),
                Arm(n) => {
                    world
                        .send_external(rover(&ids, n), Message::new("arm"))
                        .unwrap();
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while world.take_outbox(rover(&ids, n)).is_empty() {
                        assert!(Instant::now() < deadline, "{}: never armed", case.name);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    continue;
                }
                Bounce(host) => {
                    world.crash_host(host).unwrap();
                    world.restart_host(host).unwrap();
                }
                Hang(host) => {
                    world.hang_host(host).unwrap();
                    hung.push(host);
                }
                Unhang(host) => {
                    world.unhang_host(host).unwrap();
                    hung.retain(|h| *h != host);
                }
                Pause => std::thread::sleep(Duration::from_millis(400)),
            }
            if hung.is_empty() {
                let status = world.run_until_idle(Duration::from_secs(10));
                assert!(status.is_idle(), "{}: {status}", case.name);
                continue;
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match world.run_until_idle(Duration::ZERO) {
                    DrainStatus::TimedOut(d) if !d.queued.is_empty() => {
                        assert!(Instant::now() < deadline, "{}: {d}", case.name);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    _ => break,
                }
            }
        }
        let (metrics, trace) = world.shutdown();
        observe(&trace, &metrics, &ids)
    }

    #[test]
    fn lifecycle_cases_agree_across_runtimes() {
        for case in CASES {
            let des = run_on_des(case);
            let threads = run_on_threads(case);
            assert_eq!(des, threads, "{}: DES and threads diverge", case.name);
            for (runtime, (labels, _)) in [("DES", &des), ("threads", &threads)] {
                for label in case.labels {
                    assert!(
                        labels.iter().any(|l| l.contains(label)),
                        "{}: {runtime} misses {label:?} in {labels:?}",
                        case.name,
                    );
                }
                for label in case.absent {
                    assert!(
                        !labels.iter().any(|l| l.contains(label)),
                        "{}: {runtime} has {label:?} in {labels:?}",
                        case.name,
                    );
                }
            }
            let (mig, rejected, dead, deact, disposed) = case.counters;
            assert_eq!(
                &des.1[..5],
                &[mig, rejected, dead, deact, disposed],
                "{}: counters",
                case.name
            );
        }
    }
}
