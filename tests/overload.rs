//! Overload-protection integration tests: admission shedding, bounded
//! mailboxes, deadline propagation and per-marketplace circuit breakers,
//! all driven through the full platform.

use abcrm::agentsim::clock::SimDuration;
use abcrm::agentsim::message::Message;
use abcrm::agentsim::net::LinkSpec;
use abcrm::agentsim::overload::MailboxConfig;
use abcrm::core::admission::AdmissionConfig;
use abcrm::core::agents::msg::{
    kinds as msgkinds, ConsumerTask, FrontRequest, FrontRequestBody, ResponseBody,
};
use abcrm::core::breaker::BreakerConfig;
use abcrm::core::profile::ConsumerId;
use abcrm::core::server::{listing, Platform, PlatformBuilder};

fn builder(seed: u64) -> PlatformBuilder {
    Platform::builder(seed)
        .telemetry(true)
        .marketplaces(vec![vec![
            listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
            listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
        ]])
        .mba_timeout_us(2_000_000)
}

/// A tight token bucket sheds the overflow with an explicit `Overloaded`
/// reply (never a silent drop), the admitted requests still complete, and
/// the shed counter records every rejection.
#[test]
fn admission_sheds_the_overflow_explicitly() {
    let mut p = builder(7)
        .admission(AdmissionConfig {
            rate_per_sec: 0.001,
            burst: 4.0,
            transaction_reserve: 0.25,
            query_reserve: 0.25,
        })
        .build();
    let consumer = ConsumerId(1);
    assert_eq!(p.login(consumer), vec![ResponseBody::LoggedIn]);

    let mut recommendations = 0u32;
    let mut overloaded = 0u32;
    for _ in 0..6 {
        for body in p.query(consumer, &["rust"], 5) {
            match body {
                ResponseBody::Recommendations { .. } => recommendations += 1,
                ResponseBody::Overloaded { retry_after_us } => {
                    assert!(retry_after_us > 0, "shed replies carry a retry hint");
                    overloaded += 1;
                }
                other => panic!("unexpected reply under overload: {other:?}"),
            }
        }
    }
    assert!(recommendations >= 1, "admitted queries still complete");
    assert!(overloaded >= 1, "the overflow is shed explicitly");
    assert_eq!(
        recommendations + overloaded,
        6,
        "every request gets exactly one reply"
    );
    assert_eq!(u64::from(overloaded), p.world().metrics().requests_shed);
}

/// Transactions survive a bucket that sheds queries: the reserve keeps
/// the last tokens for buys.
#[test]
fn transactions_outlive_queries_under_pressure() {
    let mut p = builder(11)
        .admission(AdmissionConfig {
            rate_per_sec: 0.001,
            burst: 4.0,
            transaction_reserve: 0.5,
            query_reserve: 0.25,
        })
        .build();
    let consumer = ConsumerId(1);
    p.login(consumer);
    // drain the unreserved part of the bucket with queries
    let mut saw_query_shed = false;
    for _ in 0..4 {
        for body in p.query(consumer, &["rust"], 5) {
            if matches!(body, ResponseBody::Overloaded { .. }) {
                saw_query_shed = true;
            }
        }
    }
    assert!(saw_query_shed, "queries must hit the transaction reserve");
    // a buy still gets through on the reserved tokens
    let replies = p.buy(
        consumer,
        abcrm::ecp::merchandise::ItemId(1),
        0,
        abcrm::core::agents::msg::BuyMode::Direct,
    );
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, ResponseBody::Receipt { .. })),
        "the reserve keeps transactions alive: {replies:?}"
    );
}

/// A bounded mailbox under a request flood rejects the newest overflow,
/// keeps the observed depth at the bound, and the world still drains.
/// The 24 requests land at the HttpA at once: 3 fit its mailbox and are
/// answered, the other 21 are rejected. The figures are the
/// deterministic sim-time outcome of seed 3.
#[test]
fn bounded_mailbox_rejects_overflow_and_never_deadlocks() {
    let capacity = 3usize;
    let mut p = builder(3).mailbox(MailboxConfig::new(capacity)).build();
    let consumer = ConsumerId(1);
    p.login(consumer);
    // flood the HttpA without letting the world drain in between
    let httpa = p.httpa();
    for _ in 0..24 {
        let msg = Message::new(msgkinds::FRONT_REQUEST)
            .with_payload(&FrontRequest {
                consumer,
                body: FrontRequestBody::Task(ConsumerTask::Query {
                    keywords: vec!["rust".into()],
                    category: None,
                    max_results: 5,
                }),
            })
            .expect("front request serializes");
        p.world_mut()
            .send_external(httpa, msg)
            .expect("httpa reachable");
    }
    let replies = p.run_and_drain();
    assert_eq!(
        replies.len(),
        3,
        "the admitted requests answer: {replies:?}"
    );
    assert_eq!(p.world().metrics().mailbox_rejections, 21);
    assert_eq!(p.world().mailbox_max_depth(), capacity);
}

/// With a request deadline and a marketplace link slower than the whole
/// budget, expired work is dropped mid-pipeline but the consumer still
/// hears back explicitly — a degraded reply or a deadline error, never
/// silence.
#[test]
fn deadline_expiry_still_answers_the_consumer() {
    let mut p = builder(5).request_deadline_us(50_000).build();
    let consumer = ConsumerId(1);
    p.login(consumer);
    // make the marketplace unreachable within the budget: the MBA capsule
    // lands only after the deadline and is cancelled on arrival
    let buyer = p.buyer_host();
    let market_host = p.markets()[0].host;
    p.world_mut().topology_mut().set_link_symmetric(
        buyer,
        market_host,
        LinkSpec::with_latency(SimDuration::from_micros(200_000)),
    );
    let replies = p.query(consumer, &["rust"], 5);
    assert_eq!(
        replies.len(),
        1,
        "an expired request is answered exactly once: {replies:?}"
    );
    for body in &replies {
        assert!(
            matches!(
                body,
                ResponseBody::Error(_) | ResponseBody::Recommendations { degraded: true, .. }
            ),
            "replies past the deadline are explicit about it: {body:?}"
        );
    }
    assert!(
        p.world().metrics().deadline_drops >= 1,
        "the stale work itself was dropped"
    );
}

/// A deadline watchdog answers only the request that armed it: a stale
/// watchdog from an earlier, already answered request must not settle the
/// same consumer's next request with a deadline error.
#[test]
fn stale_deadline_watchdog_leaves_the_next_request_alone() {
    let mut p = builder(5).request_deadline_us(50_000).build();
    let consumer = ConsumerId(1);
    p.login(consumer);
    let buyer = p.buyer_host();
    let market_host = p.markets()[0].host;
    p.world_mut().topology_mut().set_link_symmetric(
        buyer,
        market_host,
        LinkSpec::with_latency(SimDuration::from_micros(20_000)),
    );
    let query = || ConsumerTask::Query {
        keywords: vec!["rust".into()],
        category: None,
        max_results: 5,
    };
    // A is answered in ~40 ms; B arrives before A's watchdog (75 ms) fires
    p.submit_task(consumer, query());
    p.world_mut().run_for(SimDuration::from_micros(45_000));
    p.submit_task(consumer, query());
    let replies: Vec<ResponseBody> = p.run_and_drain().into_iter().map(|(_, r)| r).collect();
    assert_eq!(replies.len(), 2, "one reply per request: {replies:?}");
    assert!(
        replies
            .iter()
            .all(|r| matches!(r, ResponseBody::Recommendations { .. })),
        "both requests complete within their deadline: {replies:?}"
    );
}

/// A request whose real reply comes back after its deadline watchdog
/// already answered it gets no second reply: the watchdog's error was the
/// answer, and the late one is dropped at the front door.
#[test]
fn late_reply_after_the_watchdog_is_not_a_second_answer() {
    let mut p = builder(5).request_deadline_us(50_000).build();
    let consumer = ConsumerId(1);
    p.login(consumer);
    // slow local hops: the pipeline's deadline-free reply reaches the
    // HttpA only after the watchdog (75 ms) has answered
    p.world_mut()
        .topology_mut()
        .set_local_delay(SimDuration::from_micros(10_000));
    let replies = p.query(consumer, &["rust"], 5);
    assert_eq!(
        replies,
        vec![ResponseBody::Error("request deadline exceeded".into())],
        "the watchdog's answer is the only one"
    );
    assert!(
        !p.world()
            .trace()
            .labels_with_prefix("httpa: late reply")
            .is_empty(),
        "a late reply did arrive and was dropped"
    );
}

/// Repeated marketplace failures open its breaker (requests degrade
/// immediately, without burning the MBA retry budget); after the cooldown
/// a probe closes it again and service recovers fully.
#[test]
fn breaker_opens_on_failures_and_recovers_after_cooldown() {
    // each failed query consumes several seconds of simulated time (MBA
    // watchdog plus grace), so the cooldown must comfortably outlast it
    // for the open state to be observable
    let cooldown_us = 60_000_000;
    let mut p = builder(9)
        .breaker(BreakerConfig {
            window: 4,
            failure_threshold: 0.5,
            min_samples: 2,
            cooldown_us,
        })
        .build();
    let consumer = ConsumerId(1);
    p.login(consumer);
    let buyer = p.buyer_host();
    let market_host = p.markets()[0].host;
    // partition the market: MBA dispatches fail fast and come home with
    // an Unreachable report, which is what feeds the breaker
    p.world_mut().topology_mut().partition(buyer, market_host);

    // enough failed trips to cross min_samples and open the circuit
    for _ in 0..2 {
        let replies = p.query(consumer, &["rust"], 5);
        assert!(
            replies
                .iter()
                .any(|r| matches!(r, ResponseBody::Recommendations { degraded: true, .. })),
            "a dead marketplace degrades the reply: {replies:?}"
        );
    }
    // circuit now open: the next query is served CF-only with no dispatch
    let shortcut = p.query(consumer, &["rust"], 5);
    assert!(
        shortcut
            .iter()
            .any(|r| matches!(r, ResponseBody::Recommendations { degraded: true, .. })),
        "an open circuit degrades immediately: {shortcut:?}"
    );
    assert!(
        p.world().metrics().breaker_rejections >= 1,
        "the suppressed dispatch is counted"
    );

    // heal, wait out the cooldown, and the probe restores full service
    p.world_mut()
        .topology_mut()
        .heal_partition(buyer, market_host);
    p.world_mut()
        .run_for(SimDuration::from_micros(2 * cooldown_us));
    let recovered = p.query(consumer, &["rust"], 5);
    assert!(
        recovered.iter().any(|r| matches!(
            r,
            ResponseBody::Recommendations {
                degraded: false,
                ..
            }
        )),
        "the half-open probe must close the circuit: {recovered:?}"
    );
}

/// Protection off (all defaults) leaves the workflow untouched: no shed,
/// breaker, deadline or mailbox counter ever moves.
#[test]
fn disabled_protection_never_counts_anything() {
    let mut p = builder(13).build();
    let consumer = ConsumerId(1);
    p.login(consumer);
    let replies = p.query(consumer, &["rust"], 5);
    assert!(replies.iter().any(|r| matches!(
        r,
        ResponseBody::Recommendations {
            degraded: false,
            ..
        }
    )));
    let metrics = p.world().metrics();
    assert_eq!(metrics.requests_shed, 0);
    assert_eq!(metrics.breaker_rejections, 0);
    assert_eq!(metrics.deadline_drops, 0);
    assert_eq!(metrics.mailbox_rejections, 0);
    assert_eq!(p.world().mailbox_max_depth(), 0);
}
