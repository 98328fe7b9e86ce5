//! ANN query tier at population scale: oracle equivalence and measured
//! recall on a seeded clustered workload.
//!
//! The population size comes from `ANN_USERS` (default 2000, so the
//! suite stays fast in `cargo test`); `ci.sh ann` re-runs it at 10^4.
//! Everything is seeded — the measured recall is a deterministic number,
//! not a flaky estimate.
//!
//! The store's planner answers every cosine query from the exact
//! score-bounded source, `ann` or not, so the tests that grade LSH query
//! the LSH source directly (`RecommendStore::nearest_neighbours_lsh`).
//!
//! Recall matching is *tie-tolerant*: an exact top-k entry counts as
//! recalled if the ANN list contains the same consumer **or** any
//! consumer with a score within `1e-9` of it. Rank-k score ties are real
//! in clustered populations (twin consumers with identical purchase
//! sets), and which twin wins the last slot is not a property the index
//! should be graded on.

use abcrm_core::learning::BehaviorKind;
use abcrm_core::profile::ConsumerId;
use abcrm_core::similarity::SimilarityConfig;
use abcrm_core::store::RecommendStore;
use abcrm_core::{AnnConfig, NeighbourSource};
use ecp::merchandise::{CategoryPath, ItemId, Merchandise, Money};
use ecp::terms::TermVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Population size: `ANN_USERS` env override, default 2000.
fn ann_users() -> u64 {
    std::env::var("ANN_USERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
}

const CLUSTERS: u64 = 8;
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

/// Clustered population: each consumer belongs to one of [`CLUSTERS`]
/// taste clusters and buys mostly from its cluster's slice of the
/// catalog (85%), with 15% exploration noise — so genuine neighbour
/// structure exists for the index to find.
fn clustered_store(seed: u64, users: u64, items: u64) -> RecommendStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = RecommendStore::new();
    for id in 1..=items {
        store.upsert_item(merch(id));
    }
    let kinds = [
        BehaviorKind::Query,
        BehaviorKind::Browse,
        BehaviorKind::Purchase,
    ];
    let slice = (items / CLUSTERS).max(1);
    for user in 1..=users {
        let cluster = user % CLUSTERS;
        for _ in 0..rng.gen_range(3..8u32) {
            let item = if rng.gen_bool(0.85) {
                1 + cluster * slice + rng.gen_range(0..slice)
            } else {
                rng.gen_range(1..=items)
            };
            let kind = kinds[rng.gen_range(0..kinds.len())];
            store.record_event(ConsumerId(user), ItemId(item.min(items)), kind);
        }
    }
    store
}

/// The ANN parameters the scale tests grade: moderate signature width
/// (buckets stay small but collision probability for close neighbours
/// stays high), eight tables, eight probes.
fn graded_ann() -> AnnConfig {
    AnnConfig {
        bits: 8,
        tables: 8,
        probes: 8,
        seed: 42,
    }
}

fn sample_users(users: u64, n: u64) -> impl Iterator<Item = u64> {
    let step = (users / n).max(1);
    (1..=users).step_by(step as usize)
}

/// The exact indexed path is the oracle: at this population size it
/// still matches the naive full-scan bit for bit (smoke-level repeat of
/// `tests/equivalence.rs` so `ci.sh ann` proves it at 10^4 users). The
/// cosine takes the bounded exact source whether or not `ann` allows
/// LSH, so the planned query under the graded ANN config is exact too.
#[test]
fn exact_path_matches_naive_oracle_at_scale() {
    let users = ann_users();
    let store = clustered_store(0xA11, users, 96);
    let exact_cfg = SimilarityConfig::default();
    let ann_cfg = SimilarityConfig {
        ann: Some(graded_ann()),
        ..SimilarityConfig::default()
    };
    for user in sample_users(users, 5) {
        let naive = store.nearest_neighbours_naive(ConsumerId(user), &exact_cfg, 10);
        for cfg in [&exact_cfg, &ann_cfg] {
            assert_eq!(
                store.neighbour_source(ConsumerId(user), cfg),
                Some(NeighbourSource::CosineBound)
            );
            let indexed = store.nearest_neighbours(ConsumerId(user), cfg, 10);
            assert_eq!(indexed, naive, "user {user} of {users}");
        }
    }
}

/// ANN answers are always a subset of the exact scan's admitted
/// candidates, with scores agreeing to 1e-9 — the index can miss
/// neighbours but never invent or mis-score them.
#[test]
fn ann_results_are_subset_of_exact_with_matching_scores() {
    let users = ann_users();
    let store = clustered_store(0xA11, users, 96);
    let exact_cfg = SimilarityConfig::default();
    let ann_cfg = SimilarityConfig {
        ann: Some(graded_ann()),
        ..SimilarityConfig::default()
    };
    store.warm_ann(&ann_cfg);
    for user in sample_users(users, 25) {
        let consumer = ConsumerId(user);
        let exact: HashMap<u64, f64> = store
            .nearest_neighbours(consumer, &exact_cfg, users as usize)
            .into_iter()
            .map(|(c, s)| (c.0, s))
            .collect();
        for (c, s) in store.nearest_neighbours_lsh(consumer, &ann_cfg, 50) {
            let reference = exact
                .get(&c.0)
                .unwrap_or_else(|| panic!("ANN invented {c} for user {user}"));
            assert!(
                (reference - s).abs() < 1e-9,
                "score mismatch for {c}: ann {s} vs exact {reference}"
            );
        }
    }
}

/// ANN scores are not merely close to the exact scan's: both paths score
/// through the same kernel over the same term-ordered rows, so every ANN
/// neighbour's score has exactly the exact score's `f64` bits.
#[test]
fn ann_scores_are_bit_identical_to_exact() {
    let users = ann_users();
    let store = clustered_store(0xA11, users, 96);
    let exact_cfg = SimilarityConfig::default();
    let ann_cfg = SimilarityConfig {
        ann: Some(graded_ann()),
        ..SimilarityConfig::default()
    };
    store.warm_ann(&ann_cfg);
    let (mut checked, mut differing) = (0usize, Vec::new());
    for user in sample_users(users, 50) {
        let consumer = ConsumerId(user);
        let exact: HashMap<u64, f64> = store
            .nearest_neighbours(consumer, &exact_cfg, users as usize)
            .into_iter()
            .map(|(c, s)| (c.0, s))
            .collect();
        for (c, s) in store.nearest_neighbours_lsh(consumer, &ann_cfg, 50) {
            let reference = exact
                .get(&c.0)
                .unwrap_or_else(|| panic!("ANN invented {c} for user {user}"));
            checked += 1;
            if reference.to_bits() != s.to_bits() {
                differing.push((user, c.0, s, *reference));
            }
        }
    }
    assert!(checked > 0, "sample produced no ANN neighbours");
    assert!(
        differing.is_empty(),
        "{} of {checked} ANN scores differ from exact in their bits, first (user, neighbour, ann, exact): {:?}",
        differing.len(),
        &differing[..differing.len().min(5)]
    );
}

/// Aggregate recall@10 across a 50-user sample stays at or above the
/// 0.95 floor the config promises (tie-tolerant matching, see module
/// docs). Printed so `ci.sh ann` logs the measured value.
#[test]
fn measured_recall_at_10_meets_floor() {
    let users = ann_users();
    let store = clustered_store(0xA11, users, 96);
    let exact_cfg = SimilarityConfig::default();
    let ann_cfg = SimilarityConfig {
        ann: Some(graded_ann()),
        ..SimilarityConfig::default()
    };
    store.warm_ann(&ann_cfg);
    let k = 10;
    let (mut hit, mut total) = (0u64, 0u64);
    for user in sample_users(users, 50) {
        let consumer = ConsumerId(user);
        let exact_top = store.nearest_neighbours(consumer, &exact_cfg, k);
        let ann_top = store.nearest_neighbours_lsh(consumer, &ann_cfg, k);
        total += exact_top.len() as u64;
        hit += exact_top
            .iter()
            .filter(|(c, s)| {
                ann_top
                    .iter()
                    .any(|(ac, asc)| ac == c || (asc - s).abs() < 1e-9)
            })
            .count() as u64;
    }
    assert!(total > 0, "sample produced no neighbours at all");
    let recall = hit as f64 / total as f64;
    eprintln!("ann recall@{k} over {users} users: {recall:.4} ({hit}/{total})");
    assert!(
        recall >= 0.95,
        "recall@{k} {recall:.4} below the 0.95 floor at {users} users"
    );
}

/// Incremental maintenance keeps the live LSH index fresh: feedback
/// recorded *after* the index is built is immediately visible —
/// twin consumers created post-build find each other.
#[test]
fn post_build_feedback_is_immediately_queryable() {
    let users = ann_users().min(2000);
    let mut store = clustered_store(0xA11, users, 96);
    let ann_cfg = SimilarityConfig {
        ann: Some(graded_ann()),
        ..SimilarityConfig::default()
    };
    store.warm_ann(&ann_cfg);
    let (a, b) = (ConsumerId(users + 1), ConsumerId(users + 2));
    for item in [3u64, 17, 41] {
        store.record_event(a, ItemId(item), BehaviorKind::Purchase);
        store.record_event(b, ItemId(item), BehaviorKind::Purchase);
    }
    let neighbours = store.nearest_neighbours_lsh(a, &ann_cfg, users as usize);
    assert!(
        neighbours.iter().any(|(c, _)| *c == b),
        "identical twin added after the build must be reachable: {:?}",
        &neighbours[..neighbours.len().min(5)]
    );
}
