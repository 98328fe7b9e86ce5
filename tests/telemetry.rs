//! End-to-end tracing suite: span trees across both runtimes, under
//! clean runs and the chaos sweep.
//!
//! Invariants:
//!
//! 1. a clean (fault-free) run closes every span exactly once
//!    (`double_closes() == 0`) and nests children fully inside their
//!    parents in sim-time;
//! 2. those same closure/containment rules survive the 32-seed chaos
//!    sweep (double closes are tolerated there: a message parked for a
//!    deactivated agent can be replayed after an earlier finalize pass
//!    already closed its hop);
//! 3. every trace that served a degraded reply carries at least one
//!    chaos or retry annotation — degraded responses are explainable
//!    from the trace alone;
//! 4. the DES and threaded runtimes produce isomorphic span trees
//!    (same hop structure, same kinds and names) for the same query
//!    workflow;
//! 5. dead-lettered messages are annotated on their hop span and
//!    tallied per message kind in the registry;
//! 6. a delivery stalled on a hung host that then crashes is lost with
//!    the host: its hop span ends at the crash with a chaos event, on
//!    both runtimes.

use abcrm::core::agents::msg::ConsumerTask;
use abcrm::core::profile::ConsumerId;
use abcrm::core::server::{listing, Platform};
use abcrm::core::BackoffPolicy;
use agentsim::chaos::{ChaosConfig, ChaosPlan};
use agentsim::ids::HostId;
use agentsim::telemetry::{SpanEventKind, Telemetry};
use std::collections::BTreeMap;

const HORIZON_US: u64 = 8_000_000;
const CONSUMERS: [ConsumerId; 3] = [ConsumerId(1), ConsumerId(2), ConsumerId(3)];

fn traced_platform(seed: u64) -> Platform {
    Platform::builder(seed)
        .telemetry(true)
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

/// Closure + containment: every span closed, children nested fully
/// inside their parents in sim-time.
fn assert_spans_closed_and_contained(t: &Telemetry, context: &str) {
    assert!(!t.spans().is_empty(), "{context}: no spans recorded");
    for s in t.spans() {
        let end = s
            .end
            .unwrap_or_else(|| panic!("{context}: span {} ({}) never closed", s.id, s.name));
        if let Some(pid) = s.parent {
            let p = t
                .span(pid)
                .unwrap_or_else(|| panic!("{context}: span {} has unknown parent {pid}", s.id));
            assert!(
                p.start <= s.start,
                "{context}: child span {} starts at {:?} before parent {} at {:?}",
                s.id,
                s.start,
                p.id,
                p.start
            );
            assert!(
                end <= p.end.expect("parent closed"),
                "{context}: child span {} ends at {end:?} after parent {} at {:?}",
                s.id,
                p.id,
                p.end
            );
        }
    }
}

/// Every trace that carries a `Degraded` event must also carry at least
/// one `Chaos` or `Retry` event; returns (degraded, annotated) counts.
fn assert_degraded_replies_attributable(t: &Telemetry, context: &str) -> (usize, usize) {
    let mut per_trace: BTreeMap<u64, (bool, bool)> = BTreeMap::new();
    for s in t.spans() {
        let entry = per_trace.entry(s.trace_id).or_default();
        for e in &s.events {
            match e.kind {
                SpanEventKind::Degraded => entry.0 = true,
                SpanEventKind::Chaos | SpanEventKind::Retry => entry.1 = true,
                _ => {}
            }
        }
    }
    let degraded = per_trace.values().filter(|(d, _)| *d).count();
    let annotated = per_trace.values().filter(|(_, a)| *a).count();
    for (trace_id, (was_degraded, was_annotated)) in &per_trace {
        if *was_degraded {
            assert!(
                was_annotated,
                "{context}: trace {trace_id} served a degraded reply with no chaos/retry \
                 annotation — the degradation is unexplainable from the trace"
            );
        }
    }
    (degraded, annotated)
}

/// One chaos run with tracing on; returns (degraded traces, annotated
/// traces) so sweeps can check the invariants are not vacuous.
fn run_chaos_seed(seed: u64) -> (usize, usize) {
    let mut p = traced_platform(seed);
    for consumer in CONSUMERS {
        p.login(consumer);
    }
    let buyer = p.buyer_host();
    let links: Vec<(HostId, HostId)> = p.markets().iter().map(|m| (buyer, m.host)).collect();
    let crashable: Vec<HostId> = p.markets().iter().map(|m| m.host).collect();
    let plan = ChaosPlan::generate(seed, &ChaosConfig::new(HORIZON_US, links, crashable));
    p.install_chaos(&plan);
    for consumer in CONSUMERS {
        p.submit_task(consumer, query_task());
    }
    p.run_and_drain();
    for consumer in CONSUMERS {
        p.submit_task(consumer, query_task());
    }
    p.run_and_drain();
    p.world_mut().run_until_idle();

    let t = p.telemetry();
    let context = format!("seed {seed} (repro plan: {plan})");
    assert_spans_closed_and_contained(t, &context);
    assert_degraded_replies_attributable(t, &context)
}

// ---------------------------------------------------------------- clean run

/// Fault-free runs never double-close a span, and the full figure
/// narrative (every numbered workflow step) lands as span events.
#[test]
fn clean_run_closes_every_span_exactly_once() {
    let mut p = traced_platform(42);
    p.login(ConsumerId(1));
    p.query(ConsumerId(1), &["rust"], 5);
    p.buy(
        ConsumerId(1),
        abcrm::ecp::merchandise::ItemId(1),
        0,
        abcrm::core::agents::msg::BuyMode::Direct,
    );
    p.logout(ConsumerId(1));
    p.world_mut().run_until_idle();

    let t = p.telemetry();
    assert_eq!(t.double_closes(), 0, "clean run must never double-close");
    assert_spans_closed_and_contained(t, "clean run");
    let (degraded, _) = assert_degraded_replies_attributable(t, "clean run");
    assert_eq!(degraded, 0, "clean run must not degrade any reply");

    // Figs 4.1–4.3: every numbered step is recoverable from span events.
    for (prefix, expected) in [("fig4.1/", 6), ("fig4.2/", 15), ("fig4.3/", 14)] {
        let steps = t
            .spans()
            .iter()
            .flat_map(|s| s.events.iter())
            .filter(|e| e.label.starts_with(prefix))
            .count();
        assert!(
            steps >= expected,
            "span events cover only {steps}/{expected} steps of {prefix}"
        );
    }
}

/// With telemetry off (the default), the platform mints nothing at all.
#[test]
fn disabled_telemetry_records_no_spans() {
    let mut p = Platform::builder(42)
        .marketplaces(vec![vec![listing(
            1,
            "Rust Book",
            "books",
            "programming",
            30,
            &[("rust", 1.0)],
        )]])
        .build();
    p.login(ConsumerId(1));
    p.query(ConsumerId(1), &["rust"], 5);
    assert!(p.telemetry().spans().is_empty());
    assert!(p.telemetry().registry().histograms().is_empty());
}

// ---------------------------------------------------------------- chaos sweep

#[test]
fn chaos_span_invariants_seeds_01_to_08() {
    let mut annotated_total = 0;
    for seed in 1..=8 {
        annotated_total += run_chaos_seed(seed).1;
    }
    // non-vacuity: across eight chaos plans at least one trace must have
    // actually been hit by an annotated fault
    assert!(
        annotated_total > 0,
        "no trace in seeds 1–8 carries a chaos/retry annotation — instrumentation dead?"
    );
}

#[test]
fn chaos_span_invariants_seeds_09_to_16() {
    for seed in 9..=16 {
        run_chaos_seed(seed);
    }
}

#[test]
fn chaos_span_invariants_seeds_17_to_24() {
    for seed in 17..=24 {
        run_chaos_seed(seed);
    }
}

#[test]
fn chaos_span_invariants_seeds_25_to_32() {
    for seed in 25..=32 {
        run_chaos_seed(seed);
    }
}

// ------------------------------------------------------------- dead letters

/// A message to a never-created agent dead-letters: the hop span gets a
/// `DeadLetter` event and the registry tallies the kind.
mod dead_letters {
    use agentsim::agent::{Agent, Ctx};
    use agentsim::ids::AgentId;
    use agentsim::message::Message;
    use agentsim::sim::SimWorld;
    use agentsim::telemetry::SpanEventKind;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Shouter;

    impl Agent for Shouter {
        fn agent_type(&self) -> &'static str {
            "shouter"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::json!(null)
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.is("go") {
                ctx.send(AgentId(9999), Message::new("orphan"));
            }
        }
    }

    #[test]
    fn dead_lettered_messages_are_annotated_and_tallied() {
        let mut world = SimWorld::new(7);
        world.enable_telemetry();
        world.registry_mut().register_serde::<Shouter>("shouter");
        let host = world.add_host("a");
        let agent = world.create_agent(host, Box::new(Shouter)).unwrap();
        world.send_external(agent, Message::new("go")).unwrap();
        world.run_until_idle();

        let t = world.telemetry();
        assert_eq!(t.registry().dead_letter_kinds().get("orphan"), Some(&1));
        assert_eq!(t.registry().counter("dead_letters_total"), 1);
        let annotated = t.spans().iter().any(|s| {
            s.name.as_str() == "orphan"
                && s.events
                    .iter()
                    .any(|e| e.kind == SpanEventKind::DeadLetter && e.label.contains("9999"))
        });
        assert!(
            annotated,
            "the orphan hop span must carry a DeadLetter event naming the addressee"
        );
        assert_eq!(world.metrics().messages_dead_lettered, 1);
    }
}

// -------------------------------------------------- DES ≡ threaded span trees

/// The same query workflow on both runtimes yields the same span-tree
/// *signature*: identical hop structure, kinds and names. (Ids, hosts
/// and timings differ — the canonical signature sorts siblings, so
/// thread interleavings don't matter.)
mod runtime_isomorphism {
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
    use agentsim::telemetry::Telemetry;
    use agentsim::thread_net::ThreadWorldBuilder;
    use serde::{Deserialize, Serialize};
    use std::time::Duration;

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

    /// Signature of the single request trace the run produced.
    fn sole_signature(t: &Telemetry) -> String {
        let roots: Vec<_> = t.roots().collect();
        assert_eq!(roots.len(), 1, "expected exactly one request trace");
        t.signature(roots[0].trace_id)
    }

    fn run_on_des() -> String {
        let mut world = SimWorld::new(1234);
        world.enable_telemetry();
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
                Box::new(
                    BuyerRecommendAgent::new(ConsumerId(1), bsma, pa, probe, markets)
                        .with_mba_timeout_us(300_000),
                ),
            )
            .unwrap();
        world.run_until_idle();
        world
            .send_external(probe, instruction(bra, &task()))
            .unwrap();
        world.run_until_idle();
        sole_signature(world.telemetry())
    }

    fn run_on_threads() -> String {
        let mut builder = ThreadWorldBuilder::new(1234);
        builder.enable_telemetry();
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
                        .with_mba_timeout_us(300_000),
                ),
            )
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(10)).is_idle());
        world
            .send_external(probe, instruction(bra, &task()))
            .unwrap();
        assert!(world.run_until_idle(Duration::from_secs(20)).is_idle());
        let (_metrics, _trace, telemetry) = world.shutdown_with_telemetry();
        sole_signature(&telemetry)
    }

    #[test]
    fn des_and_threaded_span_trees_are_isomorphic() {
        let des = run_on_des();
        let threads = run_on_threads();
        assert!(
            des.starts_with("request:instr"),
            "DES trace must be rooted at the external instr request: {des}"
        );
        assert_eq!(
            des, threads,
            "span trees diverge between the DES and threaded runtimes"
        );
    }
}

// ---------------------------------------------------------------------
// stalled work lost in a crash closes its hop at the crash
// ---------------------------------------------------------------------

mod crash_while_hung {
    use agentsim::agent::{Agent, Ctx};
    use agentsim::chaos::{ChaosEvent, ChaosPlan, Fault};
    use agentsim::clock::SimDuration;
    use agentsim::message::Message;
    use agentsim::sim::SimWorld;
    use agentsim::telemetry::{HopKind, SpanEventKind, Telemetry};
    use agentsim::thread_net::{DrainStatus, ThreadWorldBuilder};
    use serde::{Deserialize, Serialize};
    use std::time::{Duration, Instant};

    #[derive(Debug, Default, Serialize, Deserialize)]
    struct Sink;

    impl Agent for Sink {
        fn agent_type(&self) -> &'static str {
            "sink"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::json!(null)
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    /// The request's one message hop ends at the chaos event that dropped
    /// it (the threaded clock is read twice, so allow it 1 ms), not at
    /// the quiescence that follows much later.
    fn assert_hop_ends_at_the_crash(t: &Telemetry, runtime: &str) {
        let hop = t
            .spans()
            .iter()
            .find(|s| s.kind == HopKind::Message)
            .unwrap_or_else(|| panic!("{runtime}: no message hop"));
        let event = hop
            .events
            .iter()
            .find(|e| e.kind == SpanEventKind::Chaos)
            .unwrap_or_else(|| panic!("{runtime}: the lost hop has no chaos event: {hop:?}"));
        assert!(event.label.contains("crashed"), "{runtime}: {event:?}");
        let end = hop.end.expect("closed").as_micros();
        let at = event.at.as_micros();
        assert!(
            (at..at + 1_000).contains(&end),
            "{runtime}: the hop ends at {end} µs, not at the crash ({at} µs)"
        );
    }

    #[test]
    fn a_stalled_delivery_lost_in_a_crash_ends_its_span_at_the_crash() {
        let mut w = SimWorld::new(3);
        w.registry_mut().register_serde::<Sink>("sink");
        w.enable_telemetry();
        let host = w.add_host("a");
        let sink = w.create_agent(host, Box::new(Sink)).unwrap();
        let mut plan = ChaosPlan::quiet(3);
        plan.events.push(ChaosEvent {
            at_us: 0,
            heal_after_us: 1_000_000,
            fault: Fault::Hang { host },
        });
        w.install_chaos(&plan);
        w.send_external(sink, Message::new("ping")).unwrap();
        w.run_for(SimDuration::from_millis(10));
        w.crash_host(host).unwrap();
        w.run_until_idle();
        // Quiescence, which closes any open span, comes at the heal (1 s).
        assert_eq!(w.now().as_micros(), 1_000_000);
        assert_hop_ends_at_the_crash(w.telemetry(), "DES");

        let mut builder = ThreadWorldBuilder::new(3);
        builder.register_serde::<Sink>("sink");
        builder.enable_telemetry();
        let host = builder.add_host("a");
        let world = builder.start();
        let sink = world.create_agent(host, Box::new(Sink)).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        world.hang_host(host).unwrap();
        world.send_external(sink, Message::new("ping")).unwrap();
        // Crash only once the delivery was admitted, and so stalled.
        let deadline = Instant::now() + Duration::from_secs(5);
        while let DrainStatus::TimedOut(d) = world.run_until_idle(Duration::ZERO) {
            if d.queued.is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "the delivery never stalled: {d}");
            std::thread::sleep(Duration::from_millis(1));
        }
        world.crash_host(host).unwrap();
        assert!(world.run_until_idle(Duration::from_secs(5)).is_idle());
        std::thread::sleep(Duration::from_millis(20));
        let (_, _, t) = world.shutdown_with_telemetry();
        assert_hop_ends_at_the_crash(&t, "threads");
    }
}
