//! E2–E4 — the paper's numbered workflows as executable traces.
//!
//! Fig 4.1 (creation, 6 steps), Fig 4.2 (merchandise query, 15 steps),
//! Fig 4.3 (buy/auction, 14 steps). Tests assert the traces are
//! complete, ordered and attributable to the right actors.

use abcrm::core::agents::msg::{BuyMode, ResponseBody};
use abcrm::core::profile::ConsumerId;
use abcrm::core::server::{listing, Platform};
use abcrm::core::workflow::{self, FIG_CREATION, FIG_QUERY, FIG_TRANSACT};
use abcrm::ecp::merchandise::{ItemId, Money};
use agentsim::clock::SimDuration;

fn platform(seed: u64) -> Platform {
    Platform::builder(seed)
        .marketplaces(vec![
            vec![
                listing(1, "Rust Book", "books", "programming", 30, &[("rust", 1.0)]),
                listing(2, "Go Book", "books", "programming", 25, &[("go", 1.0)]),
            ],
            vec![listing(
                11,
                "Rust Atlas",
                "books",
                "programming",
                28,
                &[("rust", 0.9)],
            )],
            vec![listing(
                21,
                "Rust Map",
                "books",
                "programming",
                26,
                &[("rust", 0.8)],
            )],
        ])
        .build()
}

#[test]
fn fig_4_1_creation_runs_exactly_six_steps() {
    let p = platform(1);
    workflow::validate(p.world().trace(), FIG_CREATION).unwrap();
    let steps = workflow::steps_of(p.world().trace(), FIG_CREATION);
    assert_eq!(
        steps,
        vec![1, 2, 3, 4, 5, 6],
        "creation steps run exactly once, in order"
    );
}

#[test]
fn fig_4_2_query_covers_all_15_steps_across_three_marketplaces() {
    let mut p = platform(2);
    p.login(ConsumerId(1));
    let responses = p.query(ConsumerId(1), &["rust"], 5);
    assert!(
        matches!(&responses[0], ResponseBody::Recommendations { offers, .. } if offers.len() == 3)
    );
    workflow::validate(p.world().trace(), FIG_QUERY).unwrap();
    let steps = workflow::steps_of(p.world().trace(), FIG_QUERY);
    // the market-visit steps (10, 11) repeat once per marketplace
    assert_eq!(steps.iter().filter(|s| **s == 10).count(), 3);
    assert_eq!(steps.iter().filter(|s| **s == 11).count(), 3);
    // the terminal steps run once
    assert_eq!(steps.iter().filter(|s| **s == 15).count(), 1);
}

#[test]
fn fig_4_2_step_times_are_monotone() {
    let mut p = platform(3);
    p.login(ConsumerId(1));
    p.query(ConsumerId(1), &["rust"], 5);
    let times = workflow::step_times(p.world().trace(), FIG_QUERY);
    let mut last = None;
    for (step, time) in times.iter().enumerate().skip(1) {
        let t = time.unwrap_or_else(|| panic!("step {step} missing"));
        if let Some(prev) = last {
            assert!(
                t >= prev,
                "step {step} at {t} precedes its predecessor at {prev}"
            );
        }
        last = Some(t);
    }
}

#[test]
fn fig_4_3_direct_buy_covers_all_14_steps() {
    let mut p = platform(4);
    p.login(ConsumerId(1));
    let responses = p.buy(ConsumerId(1), ItemId(1), 0, BuyMode::Direct);
    assert!(matches!(&responses[0], ResponseBody::Receipt { .. }));
    workflow::validate(p.world().trace(), FIG_TRANSACT).unwrap();
}

#[test]
fn fig_4_3_negotiated_buy_also_covers_the_workflow() {
    let mut p = platform(5);
    p.login(ConsumerId(1));
    let responses = p.buy(
        ConsumerId(1),
        ItemId(1),
        0,
        BuyMode::Negotiate {
            budget: Money::from_units(29),
            opening_fraction: 0.5,
            raise: 0.15,
            max_rounds: 15,
        },
    );
    match &responses[0] {
        ResponseBody::Receipt { price, channel, .. } => {
            assert!(*price <= Money::from_units(29));
            assert!(channel.contains("negotiated"));
        }
        other => panic!("unexpected {other:?}"),
    }
    workflow::validate(p.world().trace(), FIG_TRANSACT).unwrap();
}

#[test]
fn fig_4_3_auction_covers_the_workflow() {
    let mut p = platform(6);
    p.login(ConsumerId(1));
    p.open_auction(
        0,
        ItemId(2),
        Money::from_units(10),
        Money::from_units(1),
        SimDuration::from_secs(20),
    );
    let responses = p.auction(ConsumerId(1), ItemId(2), 0, Money::from_units(50));
    assert!(matches!(
        &responses[0],
        ResponseBody::AuctionResult { won: true, .. }
    ));
    workflow::validate(p.world().trace(), FIG_TRANSACT).unwrap();
}

#[test]
fn sealed_auction_two_bidders_pay_second_price() {
    let mut p = platform(16);
    for c in [1u64, 2] {
        p.login(ConsumerId(c));
    }
    p.open_sealed_auction(
        0,
        ItemId(2),
        Money::from_units(5),
        SimDuration::from_secs(30),
    );
    // both bidders' MBAs bid their true limits (Vickrey dominant strategy)
    let market = p.markets()[0];
    p.submit_task(
        ConsumerId(1),
        abcrm::core::agents::msg::ConsumerTask::Auction {
            item: ItemId(2),
            market,
            limit: Money::from_units(20),
        },
    );
    p.submit_task(
        ConsumerId(2),
        abcrm::core::agents::msg::ConsumerTask::Auction {
            item: ItemId(2),
            market,
            limit: Money::from_units(30),
        },
    );
    let responses = p.run_and_drain();
    let mut winner_price = None;
    let mut losers = 0;
    for (consumer, response) in responses {
        if let ResponseBody::AuctionResult { won, price, .. } = response {
            if won {
                assert_eq!(consumer, ConsumerId(2), "the higher true limit wins");
                winner_price = price;
            } else {
                losers += 1;
            }
        }
    }
    assert_eq!(losers, 1);
    assert_eq!(
        winner_price,
        Some(Money::from_units(20)),
        "Vickrey: the winner pays the second price (the loser's limit)"
    );
    workflow::validate(p.world().trace(), FIG_TRANSACT).unwrap();
}

#[test]
fn dutch_auction_mba_takes_at_the_clock_price() {
    let mut p = platform(17);
    p.login(ConsumerId(1));
    // clock: $50 start, $20 floor, -$5 per second; consumer limit $33
    p.open_dutch_auction(
        0,
        ItemId(2),
        Money::from_units(50),
        Money::from_units(20),
        Money::from_units(5),
        SimDuration::from_secs(1),
    );
    let responses = p.auction(ConsumerId(1), ItemId(2), 0, Money::from_units(33));
    match &responses[0] {
        ResponseBody::AuctionResult { won, price, .. } => {
            assert!(
                *won,
                "the MBA must take the item once the clock is affordable"
            );
            // clock prices: 50,45,40,35,30 — first affordable is 30
            assert_eq!(*price, Some(Money::from_units(30)));
        }
        other => panic!("expected auction result, got {other:?}"),
    }
    workflow::validate(p.world().trace(), FIG_TRANSACT).unwrap();
}

#[test]
fn dutch_auction_floors_out_when_nobody_can_pay() {
    let mut p = platform(18);
    p.login(ConsumerId(1));
    p.open_dutch_auction(
        0,
        ItemId(2),
        Money::from_units(50),
        Money::from_units(40),
        Money::from_units(5),
        SimDuration::from_secs(1),
    );
    // limit below the floor: the clock runs out
    let responses = p.auction(ConsumerId(1), ItemId(2), 0, Money::from_units(10));
    match &responses[0] {
        ResponseBody::AuctionResult { won, price, .. } => {
            assert!(!won);
            assert_eq!(*price, None, "floored-out auction is unsold");
        }
        other => panic!("expected auction result, got {other:?}"),
    }
}

#[test]
fn profile_grows_with_every_workflow() {
    let mut p = platform(7);
    p.login(ConsumerId(1));
    let interest = |p: &Platform| -> f64 {
        p.pa_state()
            .store()
            .profile(ConsumerId(1))
            .map(|pr| pr.total_interest())
            .unwrap_or(0.0)
    };
    assert_eq!(interest(&p), 0.0);
    p.query(ConsumerId(1), &["rust"], 5);
    let after_query = interest(&p);
    assert!(
        after_query > 0.0,
        "query behaviour must update the profile (§3.3 PA role)"
    );
    p.buy(ConsumerId(1), ItemId(1), 0, BuyMode::Direct);
    let after_buy = interest(&p);
    assert!(after_buy > after_query, "purchase reinforces more");
    // UserDB persisted both
    assert!(p.pa_state().store().consumer_count() >= 1);
    assert_eq!(p.pa_state().userdb().transaction_count(), 1);
}

#[test]
fn busy_bra_rejects_overlapping_tasks() {
    let mut p = platform(8);
    p.login(ConsumerId(1));
    // submit two tasks back to back without draining
    p.submit_task(
        ConsumerId(1),
        abcrm::core::agents::msg::ConsumerTask::Query {
            keywords: vec!["rust".into()],
            category: None,
            max_results: 5,
        },
    );
    p.submit_task(
        ConsumerId(1),
        abcrm::core::agents::msg::ConsumerTask::Query {
            keywords: vec!["go".into()],
            category: None,
            max_results: 5,
        },
    );
    let responses = p.run_and_drain();
    let errors = responses
        .iter()
        .filter(|(_, r)| matches!(r, ResponseBody::Error(e) if e.contains("busy")))
        .count();
    let recs = responses
        .iter()
        .filter(|(_, r)| matches!(r, ResponseBody::Recommendations { .. }))
        .count();
    assert_eq!(
        errors, 1,
        "the second task must be refused while the first runs"
    );
    assert_eq!(recs, 1, "the first task must still complete");
}

#[test]
fn consecutive_workflows_reuse_the_same_bra() {
    let mut p = platform(9);
    p.login(ConsumerId(1));
    let bra = p.bsma_state().sessions()[0].1;
    for _ in 0..3 {
        let r = p.query(ConsumerId(1), &["rust"], 5);
        assert!(matches!(&r[0], ResponseBody::Recommendations { .. }));
    }
    assert_eq!(p.bsma_state().sessions()[0].1, bra);
    // three query workflows = three deactivate/activate cycles
    assert_eq!(p.world().metrics().deactivations, 3);
    assert_eq!(p.world().metrics().activations, 3);
}
