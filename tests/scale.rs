//! Scale test: a larger domain (4 marketplaces, 200 items, 30 consumers)
//! exercising many interleaved workflows — the "consumer community"
//! service the Buyer Agent Server claims to provide (§3.2).

use abcrm::core::agents::msg::{BuyMode, ConsumerTask, ResponseBody};
use abcrm::core::profile::ConsumerId;
use abcrm::core::server::Platform;
use abcrm::workload::catalog::{generate_listings, split_across_markets, CatalogSpec};
use abcrm::workload::taxonomy::{Taxonomy, TaxonomySpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn big_platform(seed: u64) -> (Platform, Vec<String>) {
    let taxonomy = Taxonomy::generate(TaxonomySpec {
        categories: 6,
        subs_per_category: 3,
        terms_per_sub: 10,
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let listings = generate_listings(
        &taxonomy,
        &CatalogSpec {
            items: 200,
            ..CatalogSpec::default()
        },
        1,
        &mut rng,
    );
    let names: Vec<String> = listings.iter().map(|l| l.item.name.clone()).collect();
    let platform = Platform::builder(seed)
        .marketplaces(split_across_markets(listings, 4))
        .build();
    (platform, names)
}

#[test]
fn thirty_consumers_run_interleaved_query_workflows() {
    let (mut p, names) = big_platform(1);
    for c in 1..=30u64 {
        p.login(ConsumerId(c));
    }
    assert_eq!(p.bsma_state().sessions().len(), 30);
    // baseline: the BSMA's own Fig 4.1 dispatch already counted one hop
    let migrations_before = p.world().metrics().migrations;
    // all 30 queries submitted before the world runs: 30 MBAs tour 4
    // marketplaces concurrently while 30 BRAs sit in stable storage
    for c in 1..=30u64 {
        let keyword = &names[(c as usize * 6) % names.len()];
        p.submit_task(
            ConsumerId(c),
            ConsumerTask::Query {
                keywords: vec![keyword.clone()],
                category: None,
                max_results: 5,
            },
        );
    }
    let responses = p.run_and_drain();
    let recommendations = responses
        .iter()
        .filter(|(_, r)| matches!(r, ResponseBody::Recommendations { .. }))
        .count();
    assert_eq!(
        recommendations, 30,
        "every consumer must get an answer: {responses:?}"
    );
    let m = p.world().metrics();
    // each MBA: 1 hop out + 3 between marketplaces + 1 home = 5
    assert_eq!(m.migrations - migrations_before, 30 * 5);
    assert_eq!(m.migrations_rejected, 0);
    assert_eq!(m.deactivations, 30);
    assert_eq!(m.activations, 30);
    assert_eq!(
        m.messages_dead_lettered, 0,
        "no message may fall on the floor"
    );
}

#[test]
fn mixed_workload_with_purchases_keeps_userdb_consistent() {
    let (mut p, names) = big_platform(2);
    for c in 1..=10u64 {
        p.login(ConsumerId(c));
    }
    let mut expected_tx = 0u32;
    for round in 0..3 {
        for c in 1..=10u64 {
            let keyword = &names[((c + round * 7) as usize) % names.len()];
            let responses = p.query(ConsumerId(c), &[keyword.as_str()], 3);
            // buy the first offer every other round
            if round % 2 == 0 {
                if let Some(ResponseBody::Recommendations { offers, .. }) = responses.first() {
                    if let Some(offer) = offers.first() {
                        let market = p
                            .markets()
                            .iter()
                            .position(|m| m.host == offer.marketplace)
                            .unwrap();
                        let bought = p.buy(ConsumerId(c), offer.item.id, market, BuyMode::Direct);
                        if matches!(bought.first(), Some(ResponseBody::Receipt { .. })) {
                            expected_tx += 1;
                        }
                    }
                }
            }
        }
    }
    let pa = p.pa_state();
    assert_eq!(pa.userdb().transaction_count() as u32, expected_tx);
    assert!(expected_tx > 0, "some purchases must have happened");
    // every consumer who queried has a persisted profile
    assert!(pa.store().consumer_count() >= 10);
    // logout everyone; sessions drain
    for c in 1..=10u64 {
        p.logout(ConsumerId(c));
    }
    assert_eq!(p.bsma_state().sessions().len(), 0);
}
