//! Seed-sweep fault-model suite: the platform under deterministic chaos.
//!
//! Every run derives a [`ChaosPlan`] from its seed — partition windows
//! with scheduled healing, lossy and slow links, marketplace host
//! crashes, message duplication and bounded-jitter reordering — installs
//! it on the world, and drives real query workflows through the faults.
//! Whatever the plan does, four invariants must hold at quiescence:
//!
//! 1. every submitted query produces exactly one [`ResponseBody`]
//!    (degraded CF-only replies are acceptable; silence is not);
//! 2. no BRA is stuck deactivated — each ends `Location::Active` on the
//!    buyer host;
//! 3. the BSMA's roaming-MBA registry is empty (`roaming_mbas() == 0`);
//! 4. the world drains to quiescence (`run_until_idle` returns).
//!
//! Failures print the `(seed, plan)` pair; the plan's `Display` is one
//! JSON line, so a failing run reproduces exactly:
//!
//! ```bash
//! CHAOS_SEED=<seed> cargo test --test chaos repro_single_seed -- --nocapture
//! ```
//!
//! The DES sweep always covers 32 seeds. The threaded sweep applies the
//! same plans through [`ThreadWorld`]'s live fault switches (partitions
//! and crashes — the synchronous faults whose semantics are identical on
//! both runtimes) and defaults to 8 seeds; set `CHAOS_SEEDS=32` for the
//! full sweep.

use abcrm::core::agents::msg::{BuyMode, ConsumerTask, ResponseBody};
use abcrm::core::profile::ConsumerId;
use abcrm::core::server::{listing, Platform};
use abcrm::core::BackoffPolicy;
use abcrm::ecp::merchandise::ItemId;
use abcrm::ecp::MarketplaceAgent;
use agentsim::chaos::{ChaosConfig, ChaosPlan, Fault};
use agentsim::clock::SimTime;
use agentsim::ids::HostId;
use agentsim::sim::Location;

/// Faults may strike anywhere in the first 8 simulated seconds — wide
/// enough to straddle the query workflows, retries and watchdog grace
/// periods they trigger.
const HORIZON_US: u64 = 8_000_000;

const CONSUMERS: [ConsumerId; 3] = [ConsumerId(1), ConsumerId(2), ConsumerId(3)];

fn two_market_platform(seed: u64) -> Platform {
    Platform::builder(seed)
        .marketplaces(vec![
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
        ])
        .mba_timeout_us(2_000_000)
        .bra_retry(BackoffPolicy::new(200_000, 1_600_000, 2))
        .build()
}

fn query_task() -> ConsumerTask {
    ConsumerTask::Query {
        keywords: vec!["rust".into()],
        category: None,
        max_results: 5,
    }
}

/// Invariant 1: each consumer got exactly one reply, and a query reply is
/// always `Recommendations` — possibly degraded, never an error and never
/// missing.
fn assert_one_reply_each(
    wave: &[(ConsumerId, ResponseBody)],
    seed: u64,
    plan: &ChaosPlan,
    when: &str,
) {
    for consumer in CONSUMERS {
        let replies: Vec<_> = wave.iter().filter(|(c, _)| *c == consumer).collect();
        assert_eq!(
            replies.len(),
            1,
            "seed {seed} ({when}): consumer {consumer:?} expected exactly one reply, \
             got {replies:?}; repro plan: {plan}"
        );
        assert!(
            matches!(replies[0].1, ResponseBody::Recommendations { .. }),
            "seed {seed} ({when}): query reply must be Recommendations, got {:?}; \
             repro plan: {plan}",
            replies[0].1
        );
    }
}

/// One full DES chaos run: generate the plan, install it, drive a query
/// wave through the fault windows, a second wave after everything healed,
/// and check all four invariants.
fn run_des_seed(seed: u64) {
    let mut p = two_market_platform(seed);
    for consumer in CONSUMERS {
        p.login(consumer);
    }
    let buyer = p.buyer_host();
    let links: Vec<(HostId, HostId)> = p.markets().iter().map(|m| (buyer, m.host)).collect();
    let crashable: Vec<HostId> = p.markets().iter().map(|m| m.host).collect();
    let plan = ChaosPlan::generate(seed, &ChaosConfig::new(HORIZON_US, links, crashable));
    p.install_chaos(&plan);

    // Wave 1 rides through the fault windows: all three workflows are in
    // flight while partitions open, hosts crash and messages duplicate.
    for consumer in CONSUMERS {
        p.submit_task(consumer, query_task());
    }
    let wave = p.run_and_drain();
    assert_one_reply_each(&wave, seed, &plan, "mid-chaos");

    // run_and_drain ran until idle, so every scheduled fault has now both
    // struck and healed. Wave 2 exercises the recovered platform; a
    // crashed marketplace restarts empty, so degraded replies are still
    // legitimate — silence or an error is not.
    for consumer in CONSUMERS {
        p.submit_task(consumer, query_task());
    }
    let wave = p.run_and_drain();
    assert_one_reply_each(&wave, seed, &plan, "post-heal");

    // Invariant 4: quiescence. run_until_idle returning *is* the check —
    // a retry loop that never converges would hang the test here.
    p.world_mut().run_until_idle();

    let bsma = p.bsma_state();
    assert_eq!(
        bsma.roaming_mbas(),
        0,
        "seed {seed}: MBA registry not cleaned up at quiescence; repro plan: {plan}"
    );
    for (consumer, bra) in bsma.sessions() {
        assert_eq!(
            p.world().location(*bra),
            Some(Location::Active(buyer)),
            "seed {seed}: BRA of consumer {consumer} stuck deactivated; repro plan: {plan}"
        );
    }
}

// The 32-seed DES sweep, split so test threads run the quarters in
// parallel.

#[test]
fn des_sweep_seeds_01_to_08() {
    for seed in 1..=8 {
        run_des_seed(seed);
    }
}

#[test]
fn des_sweep_seeds_09_to_16() {
    for seed in 9..=16 {
        run_des_seed(seed);
    }
}

#[test]
fn des_sweep_seeds_17_to_24() {
    for seed in 17..=24 {
        run_des_seed(seed);
    }
}

#[test]
fn des_sweep_seeds_25_to_32() {
    for seed in 25..=32 {
        run_des_seed(seed);
    }
}

/// Repro hook: `CHAOS_SEED=<n> cargo test --test chaos repro_single_seed`
/// replays exactly one failing sweep entry.
#[test]
fn repro_single_seed() {
    if let Ok(seed) = std::env::var("CHAOS_SEED") {
        let seed: u64 = seed.parse().expect("CHAOS_SEED must be a u64");
        run_des_seed(seed);
    }
}

/// Units of item 1 sold at marketplace 0, read from its live state.
fn units_sold(p: &Platform) -> usize {
    let market = p
        .world()
        .snapshot_of(p.markets()[0].agent)
        .expect("marketplace 0 active");
    let market: MarketplaceAgent = serde_json::from_value(market).expect("state parses");
    market.units_sold(ItemId(1)) as usize
}

/// Buys under chaos must settle cleanly: a `Receipt` when the purchase
/// went through, an `Error` when the MBA or marketplace was lost — never
/// silence, and never a duplicated purchase, on either side: the
/// marketplace sells exactly as many units as the buyer holds receipts.
#[test]
fn buys_under_chaos_settle_cleanly() {
    for seed in [101u64, 102, 103, 104] {
        let mut p = two_market_platform(seed);
        p.login(ConsumerId(1));
        let buyer = p.buyer_host();
        let links: Vec<(HostId, HostId)> = p.markets().iter().map(|m| (buyer, m.host)).collect();
        let crashable: Vec<HostId> = p.markets().iter().map(|m| m.host).collect();
        let plan = ChaosPlan::generate(seed, &ChaosConfig::new(HORIZON_US, links, crashable));
        p.install_chaos(&plan);
        let market = p.markets()[0];
        // without durability a crash of marketplace 0's host wipes its
        // state, sales included: count them just before the first such
        // crash, or at quiescence if the plan spares the host
        let first_crash = plan
            .events
            .iter()
            .filter(|e| matches!(e.fault, Fault::CrashHost { host } if host == market.host))
            .map(|e| e.at_us)
            .min();
        p.submit_task(
            ConsumerId(1),
            ConsumerTask::Buy {
                item: ItemId(1),
                market,
                mode: BuyMode::Direct,
            },
        );
        let sold_before_crash = first_crash.map(|at| {
            p.world_mut().run_until(SimTime(at.saturating_sub(1)));
            units_sold(&p)
        });
        let responses: Vec<ResponseBody> = p.run_and_drain().into_iter().map(|(_, r)| r).collect();
        assert_eq!(
            responses.len(),
            1,
            "seed {seed}: buy must produce exactly one response; repro plan: {plan}"
        );
        assert!(
            matches!(
                responses[0],
                ResponseBody::Receipt { .. } | ResponseBody::Error(_)
            ),
            "seed {seed}: buy must settle as Receipt or Error, got {:?}; repro plan: {plan}",
            responses[0]
        );
        let receipts = p.pa_state().userdb().transaction_count();
        assert!(
            receipts <= 1,
            "seed {seed}: chaos must never duplicate a purchase ({receipts} recorded); \
             repro plan: {plan}"
        );
        let sold = sold_before_crash.unwrap_or_else(|| units_sold(&p));
        assert_eq!(
            sold, receipts,
            "seed {seed}: marketplace sales must equal the buyer's receipts; repro plan: {plan}"
        );
    }
}

/// The same fault model on the threaded runtime: plans derived from the
/// same generator, applied through [`ThreadWorld`]'s live switches. Link
/// faults map to partitions (the synchronous fault class whose semantics
/// the two runtimes share exactly); crashes map to crashes.
mod threaded {
    use super::{ChaosConfig, ChaosPlan, Fault, HostId};
    use abcrm::core::agents::msg::{kinds as msgkinds, ConsumerTask, MarketRef, RoutedTask};
    use abcrm::core::agents::{register_all, Bsma, BsmaConfig, BuyerRecommendAgent, ProfileAgent};
    use abcrm::core::learning::LearnerConfig;
    use abcrm::core::profile::ConsumerId;
    use abcrm::core::server::listing;
    use abcrm::core::similarity::SimilarityConfig;
    use abcrm::core::BackoffPolicy;
    use abcrm::ecp::{MarketplaceAgent, SellerAgent};
    use agentsim::agent::{Agent, Ctx};
    use agentsim::ids::AgentId;
    use agentsim::message::Message;
    use agentsim::thread_net::ThreadWorldBuilder;
    use serde::{Deserialize, Serialize};
    use std::time::Duration;

    /// Stand-in for the HttpA front (same as the equivalence suite): it
    /// forwards instructions and traces every reply it receives.
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
            ctx.note(format!("probe-reply {}", msg.kind));
        }
    }

    fn instruction(to: AgentId, task: &RoutedTask) -> Message {
        Message::new("instr").carrying(serde_json::json!({
            "__send_to": to.0,
            "kind": msgkinds::BRA_TASK,
            "payload": serde_json::to_value(task).unwrap(),
        }))
    }

    /// One threaded chaos run. Wall-clock timers mean wait windows must
    /// stay short: 300 ms MBA watchdog, 100 ms retry base.
    fn run_thread_seed(seed: u64) {
        let mut builder = ThreadWorldBuilder::new(seed);
        register_all(builder.registry_mut());
        builder.registry_mut().register_serde::<Probe>("probe");
        let market_hosts = [builder.add_host("m0"), builder.add_host("m1")];
        let seller_host = builder.add_host("seller");
        let buyer_host = builder.add_host("buyer-agent-server");
        let world = builder.start();

        let mut markets = Vec::new();
        for (i, host) in market_hosts.iter().enumerate() {
            let agent = world
                .create_agent(*host, Box::new(MarketplaceAgent::new(format!("m{i}"))))
                .unwrap();
            markets.push(MarketRef { host: *host, agent });
        }
        world
            .create_agent(
                seller_host,
                Box::new(SellerAgent::new(
                    1,
                    "s0",
                    vec![
                        listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
                        listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
                    ],
                    markets.iter().map(|m| m.agent).collect(),
                )),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());

        let retry = BackoffPolicy::new(100_000, 400_000, 1);
        let bsma = world
            .create_agent(
                buyer_host,
                Box::new(Bsma::new(BsmaConfig {
                    target: buyer_host,
                    markets: markets.clone(),
                    mba_timeout_us: 300_000,
                    bra_retry: retry,
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
                    BuyerRecommendAgent::new(ConsumerId(1), bsma, pa, probe, markets.clone())
                        .with_mba_timeout_us(300_000)
                        .with_retry_policy(retry),
                ),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());

        // Derive the plan from the same generator the DES sweep uses,
        // then apply its faults through the live switches.
        let links: Vec<(HostId, HostId)> = market_hosts.iter().map(|m| (buyer_host, *m)).collect();
        let plan = ChaosPlan::generate(
            seed,
            &ChaosConfig::new(super::HORIZON_US, links, market_hosts.to_vec()),
        );
        let mut partitions = Vec::new();
        let mut crashed = Vec::new();
        let mut hung = Vec::new();
        for ev in &plan.events {
            match ev.fault {
                // every link-fault class maps to the runtime-shared
                // synchronous fault: a hard partition
                Fault::Partition { a, b }
                | Fault::LinkLoss { a, b, .. }
                | Fault::SlowLink { a, b, .. } => {
                    world.partition(a, b);
                    partitions.push((a, b));
                }
                Fault::CrashHost { host } => {
                    world.crash_host(host).unwrap();
                    crashed.push(host);
                }
                // this config declares no hangable hosts, so the plan
                // never draws one — the arm keeps the mapping total
                Fault::Hang { host } => {
                    world.hang_host(host).unwrap();
                    hung.push(host);
                }
            }
        }
        world.set_duplication_probability(plan.dup_probability);

        let task = RoutedTask {
            consumer: ConsumerId(1),
            task: ConsumerTask::Query {
                keywords: vec!["rust".into()],
                category: None,
                max_results: 5,
            },
            blocked_markets: Vec::new(),
        };
        // Query 1 runs against the broken world.
        world.send_external(probe, instruction(bra, &task)).unwrap();
        let status = world.run_until_idle(Duration::from_secs(60));
        assert!(
            status.is_idle(),
            "seed {seed}: threaded world failed to drain mid-chaos: {status}; repro plan: {plan}"
        );
        // Heal everything; query 2 runs against the recovered world.
        for (a, b) in partitions {
            world.heal_partition(a, b);
        }
        for host in crashed {
            world.restart_host(host).unwrap();
        }
        for host in hung {
            world.unhang_host(host).unwrap();
        }
        world.send_external(probe, instruction(bra, &task)).unwrap();
        let status = world.run_until_idle(Duration::from_secs(60));
        assert!(
            status.is_idle(),
            "seed {seed}: threaded world failed to drain post-heal: {status}; repro plan: {plan}"
        );

        // run_until_idle returning true is the quiescence check: it only
        // returns once the in-flight counter has settled at zero.
        let (_metrics, trace) = world.shutdown();
        let replies = trace.labels_with_prefix("probe-reply ");
        assert_eq!(
            replies.len(),
            2,
            "seed {seed}: both queries must be answered (got {replies:?}); repro plan: {plan}"
        );
        for reply in &replies {
            assert_eq!(
                *reply,
                format!("probe-reply {}", msgkinds::BRA_RESPONSE),
                "seed {seed}: reply must be a BRA response; repro plan: {plan}"
            );
        }
    }

    /// `CHAOS_SEEDS=<n>` widens the sweep (full mode uses 32);
    /// `CHAOS_SEED=<n>` pins it to a single seed for reproduction.
    #[test]
    fn threaded_sweep_honours_the_same_fault_model() {
        if let Ok(seed) = std::env::var("CHAOS_SEED") {
            run_thread_seed(seed.parse().expect("CHAOS_SEED must be a u64"));
            return;
        }
        let count: u64 = std::env::var("CHAOS_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8);
        for seed in 1..=count {
            run_thread_seed(seed);
        }
    }
}
