//! Property-based tests over the core data structures and protocol
//! invariants (proptest).

use abcrm::core::learning::{BehaviorEvent, BehaviorKind, LearnerConfig, ProfileLearner};
use abcrm::core::profile::{ConsumerId, Profile};
use abcrm::core::ratings::RatingsMatrix;
use abcrm::core::similarity::{profile_similarity, SimilarityConfig};
use abcrm::ecp::auction::{BidderId, EnglishAuction, VickreyAuction};
use abcrm::ecp::merchandise::{CategoryPath, ItemId, Money};
use abcrm::ecp::negotiation::{negotiate, BuyerPolicy, Outcome, SellerPolicy};
use abcrm::ecp::terms::TermVector;
use abcrm::simdb::Wal;
use proptest::prelude::*;

fn term_vector_strategy() -> impl Strategy<Value = TermVector> {
    proptest::collection::vec(("[a-f]{1,4}", 0.01f64..10.0), 0..8).prop_map(TermVector::from_pairs)
}

fn profile_strategy() -> impl Strategy<Value = Profile> {
    proptest::collection::vec(("[a-c]{1}", "[x-z]{1}", "[a-f]{1,4}", 0.01f64..5.0), 0..10).prop_map(
        |entries| {
            let mut p = Profile::new();
            for (cat, sub, term, w) in entries {
                p.category_mut(&cat).sub_mut(&sub).add(term, w);
            }
            p
        },
    )
}

proptest! {
    #[test]
    fn cosine_is_bounded_and_symmetric(a in term_vector_strategy(), b in term_vector_strategy()) {
        let ab = a.cosine(&b);
        let ba = b.cosine(&a);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
        // self-similarity is 1 for non-empty vectors
        if !a.is_empty() {
            prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn term_vector_weights_never_negative(
        ops in proptest::collection::vec(("[a-d]{1,2}", -5.0f64..5.0), 0..30)
    ) {
        let mut v = TermVector::new();
        for (t, delta) in ops {
            v.add(t, delta);
        }
        for (_, w) in v.iter() {
            prop_assert!(w > 0.0, "stored weights are strictly positive: {w}");
        }
    }

    #[test]
    fn profile_similarity_bounded_symmetric(a in profile_strategy(), b in profile_strategy()) {
        let cfg = SimilarityConfig::default();
        let ab = profile_similarity(&a, &b, &cfg);
        let ba = profile_similarity(&b, &a, &cfg);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn learner_never_creates_unbounded_profiles(
        events in proptest::collection::vec(
            ("[a-c]{1}", "[x-z]{1}", proptest::collection::vec(("[a-f]{1,3}", 0.01f64..3.0), 1..5)),
            0..40,
        ),
        alpha in 0.01f64..1.0,
    ) {
        let learner = ProfileLearner::new(LearnerConfig { alpha, max_terms: 16, ..LearnerConfig::default() });
        let mut profile = Profile::new();
        for (cat, sub, terms) in events {
            let event = BehaviorEvent::new(
                BehaviorKind::Purchase,
                CategoryPath::new(cat, sub),
                TermVector::from_pairs(terms),
            );
            learner.apply(&mut profile, &event);
        }
        for (_, cp) in profile.iter() {
            prop_assert!(cp.terms.len() <= 16);
            for (_, sub) in cp.subs.iter() {
                prop_assert!(sub.len() <= 16);
            }
        }
        prop_assert!(profile.total_interest().is_finite());
    }

    #[test]
    fn negotiation_deals_respect_both_parties(
        list in 10u64..500,
        reservation_frac in 0.1f64..1.0,
        budget in 1u64..600,
        opening in 0.1f64..1.0,
        raise in 0.01f64..0.5,
        concession in 0.01f64..0.5,
    ) {
        let seller = SellerPolicy {
            list: Money::from_units(list),
            reservation: Money::from_units(list).scale(reservation_frac),
            concession,
            strategy: Default::default(),
        };
        let buyer = BuyerPolicy {
            budget: Money::from_units(budget),
            opening_fraction: opening,
            raise,
            max_rounds: 30,
        };
        match negotiate(seller, buyer) {
            Outcome::Deal { price, rounds } => {
                prop_assert!(price >= seller.reservation, "deal below reservation: {price}");
                prop_assert!(price <= buyer.budget, "deal above budget: {price}");
                prop_assert!(price <= seller.list, "deal above list: {price}");
                prop_assert!((1..=30).contains(&rounds));
            }
            Outcome::NoDeal { rounds } => {
                prop_assert!(rounds <= 30);
            }
        }
    }

    #[test]
    fn english_auction_winner_paid_a_valid_bid(
        reserve in 1u64..100,
        increment in 1u64..10,
        bids in proptest::collection::vec((1u64..20, 1u64..500), 0..30),
    ) {
        let mut auction = EnglishAuction::open(
            ItemId(1),
            Money::from_units(reserve),
            Money::from_units(increment),
        );
        let mut highest_accepted: Option<Money> = None;
        for (bidder, amount) in bids {
            let amount = Money::from_units(amount);
            if auction.place_bid(BidderId(bidder), amount).is_ok() {
                if let Some(prev) = highest_accepted {
                    prop_assert!(amount >= prev + Money::from_units(increment));
                }
                highest_accepted = Some(amount);
            }
        }
        match auction.close() {
            abcrm::ecp::auction::AuctionOutcome::Sold { price, .. } => {
                prop_assert_eq!(Some(price), highest_accepted);
                prop_assert!(price >= Money::from_units(reserve));
            }
            abcrm::ecp::auction::AuctionOutcome::Unsold => {
                prop_assert!(highest_accepted.is_none());
            }
        }
    }

    #[test]
    fn vickrey_price_never_exceeds_winning_bid(
        reserve in 1u64..100,
        bids in proptest::collection::vec((1u64..50, 1u64..500), 0..20),
    ) {
        let mut auction = VickreyAuction::open(ItemId(1), Money::from_units(reserve));
        let mut accepted: Vec<(BidderId, Money)> = Vec::new();
        for (bidder, amount) in bids {
            let amount = Money::from_units(amount);
            if auction.place_bid(BidderId(bidder), amount).is_ok() {
                accepted.push((BidderId(bidder), amount));
            }
        }
        match auction.close() {
            abcrm::ecp::auction::AuctionOutcome::Sold { winner, price } => {
                let winning_bid = accepted
                    .iter()
                    .find(|(b, _)| *b == winner)
                    .map(|(_, a)| *a)
                    .expect("winner placed a bid");
                let max_bid = accepted.iter().map(|(_, a)| *a).max().unwrap();
                prop_assert_eq!(winning_bid, max_bid, "highest bidder wins");
                prop_assert!(price <= winning_bid, "second-price never above the winning bid");
                prop_assert!(price >= Money::from_units(reserve));
            }
            abcrm::ecp::auction::AuctionOutcome::Unsold => {
                prop_assert!(accepted.is_empty());
            }
        }
    }

    #[test]
    fn ratings_observe_is_monotone_and_bounded(
        observations in proptest::collection::vec((1u64..10, 1u64..10, -1.0f64..2.0), 0..50)
    ) {
        let mut m = RatingsMatrix::new();
        for (user, item, rating) in observations {
            let before = m.rating(ConsumerId(user), ItemId(item));
            m.observe(ConsumerId(user), ItemId(item), rating);
            let after = m.rating(ConsumerId(user), ItemId(item)).unwrap();
            prop_assert!((0.0..=1.0).contains(&after));
            if let Some(b) = before {
                prop_assert!(after >= b, "ratings keep the strongest signal");
            }
        }
        prop_assert!((0.0..=1.0).contains(&m.sparsity()));
    }

    #[test]
    fn wal_encode_decode_round_trips(
        records in proptest::collection::vec(
            (0u64..64, "[a-z0-9]{1,8}", 0i64..1000),
            0..30,
        )
    ) {
        let mut wal = Wal::new();
        for (agent, key, value) in &records {
            wal.append(if value % 2 == 0 {
                abcrm::simdb::LogRecord::Capsule {
                    agent: *agent,
                    capsule: serde_json::json!({ "key": key, "v": value }).into(),
                    active: value % 4 == 0,
                }
            } else {
                abcrm::simdb::LogRecord::ProfileDelta {
                    agent: *agent,
                    delta: serde_json::json!({ "key": key, "v": value }).into(),
                }
            });
        }
        let decoded = Wal::decode(&wal.encode()).unwrap();
        prop_assert_eq!(decoded, wal);
    }

    #[test]
    fn money_scale_is_monotone_and_bounded(cents in 0u64..1_000_000, f in 0.0f64..4.0) {
        let m = Money(cents);
        let scaled = m.scale(f);
        if f <= 1.0 {
            prop_assert!(scaled <= m + Money(1)); // rounding slack
        }
        prop_assert!(scaled.cents() < u64::MAX);
    }

    #[test]
    fn payload_encoded_len_matches_serialization(tokens in proptest::collection::vec(0u64..u64::MAX, 1..48)) {
        let value = arbitrary_json(&tokens);
        let payload = Payload::from(value.clone());
        let text = serde_json::to_string(&value).unwrap();
        // the cached length is exact, stable, and consistent with the
        // materialized encoding
        prop_assert_eq!(payload.encoded_len(), text.len());
        prop_assert_eq!(payload.encoded_len(), text.len());
        prop_assert_eq!(&payload.encoded()[..], text.as_bytes());
        prop_assert_eq!(payload.encoded_len(), text.len());
    }

    #[test]
    fn capsule_wire_size_is_stable_and_matches_encoding(
        tokens in proptest::collection::vec(0u64..u64::MAX, 1..48),
        agent_type in "[a-z-]{1,12}",
    ) {
        let state = arbitrary_json(&tokens);
        let encoded = serde_json::to_string(&state).unwrap();
        let capsule = AgentCapsule {
            id: AgentId(1),
            agent_type: agent_type.as_str().into(),
            state: state.into(),
            home: HostId(0),
            permit: None,
            trace: None,
            deadline: None,
        };
        // wire_size no longer re-serializes: repeated calls agree with
        // each other and with encoded length + header
        let first = capsule.wire_size();
        prop_assert_eq!(first, 64 + agent_type.len() + encoded.len());
        for _ in 0..3 {
            prop_assert_eq!(capsule.wire_size(), first);
        }
        // clones share the cached encoding and report the same size
        let copy = capsule.state.clone();
        prop_assert_eq!(copy.encoded_len(), capsule.state.encoded_len());
        prop_assert_eq!(copy.encoded_len(), encoded.len());
    }
}

use abcrm::agentsim::agent::AgentCapsule;
use abcrm::agentsim::ids::{AgentId, HostId};
use abcrm::agentsim::payload::Payload;

// --- fault-model properties -------------------------------------------

proptest! {
    /// The retry schedule is a pure function of the attempt number:
    /// deterministic, monotone non-decreasing, and capped.
    #[test]
    fn backoff_is_deterministic_monotone_and_capped(
        base in 0u64..10_000_000,
        cap in 0u64..20_000_000,
        retries in 0u32..10,
        attempts in 0u32..80,
    ) {
        let policy = abcrm::core::BackoffPolicy::new(base, cap, retries);
        let twin = abcrm::core::BackoffPolicy::new(base, cap, retries);
        let mut prev = 0u64;
        for attempt in 0..attempts {
            let delay = policy.delay_us(attempt);
            prop_assert_eq!(delay, twin.delay_us(attempt), "deterministic");
            prop_assert!(delay <= cap, "capped: {delay} > {cap}");
            prop_assert!(delay >= prev, "monotone: {delay} < {prev} at attempt {attempt}");
            prev = delay;
        }
        // the round-tripped policy replays the same schedule
        let back: abcrm::core::BackoffPolicy =
            serde_json::from_str(&serde_json::to_string(&policy).unwrap()).unwrap();
        prop_assert_eq!(back.delay_us(attempts), policy.delay_us(attempts));
    }

    /// `LinkSpec::lossy` always stores a probability: any input — NaN,
    /// infinities, negatives, huge values — clamps into `[0, 1]`.
    #[test]
    fn link_loss_always_clamps_to_unit_interval(raw in -1.0e12f64..1.0e12, scale in 0.0f64..4.0) {
        for input in [
            raw,
            raw * scale,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            -1.0,
            2.0,
            f64::MIN_POSITIVE,
        ] {
            let spec = abcrm::agentsim::net::LinkSpec::lan().lossy(input);
            prop_assert!(
                (0.0..=1.0).contains(&spec.loss),
                "loss {} escaped [0,1] for input {input}", spec.loss
            );
        }
    }
}

// --- overload-protection properties -----------------------------------

proptest! {
    /// The circuit breaker is a deterministic FSM: identical event
    /// sequences produce identical states (and a serde round trip mid-run
    /// changes nothing); an Open breaker refuses dispatch until its
    /// cooldown elapses; a failure never closes the circuit.
    #[test]
    fn breaker_fsm_is_deterministic_and_open_refuses(
        window in 1usize..12,
        min_samples in 1usize..8,
        cooldown_us in 1u64..10_000,
        ops in proptest::collection::vec((0u8..3, 0u64..5_000), 1..60),
    ) {
        use abcrm::core::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
        let config = BreakerConfig {
            window,
            failure_threshold: 0.5,
            min_samples,
            cooldown_us,
        };
        let mut breaker = CircuitBreaker::new(config);
        let mut twin = CircuitBreaker::new(config);
        let mut now = 0u64;
        for (op, dt) in ops {
            now += dt;
            match op {
                0 => {
                    let before = breaker.state();
                    let allowed = breaker.allow(now);
                    prop_assert_eq!(allowed, twin.allow(now), "deterministic allow");
                    if before == BreakerState::Open && dt < cooldown_us && allowed {
                        // an Open breaker may only admit once a full
                        // cooldown has passed since it opened; dt alone
                        // can't prove that, but an instant re-allow after
                        // opening must fail
                        prop_assert!(now >= cooldown_us, "open breaker admitted too early");
                    }
                }
                1 => {
                    breaker.record_success(now);
                    twin.record_success(now);
                }
                _ => {
                    let before = breaker.state();
                    breaker.record_failure(now);
                    twin.record_failure(now);
                    prop_assert!(
                        !(before != BreakerState::Closed
                            && breaker.state() == BreakerState::Closed),
                        "a failure never closes the circuit"
                    );
                }
            }
            prop_assert_eq!(breaker.state(), twin.state(), "twin states agree");
            // serde round trip preserves the whole FSM
            let back: CircuitBreaker =
                serde_json::from_str(&serde_json::to_string(&breaker).unwrap()).unwrap();
            prop_assert_eq!(&back, &breaker);
        }
    }

    /// Deadline arithmetic never panics, never goes negative, and the
    /// expiry predicate is exactly `now > deadline` (a zero-latency hop
    /// at the deadline instant still delivers).
    #[test]
    fn deadline_arithmetic_saturates_and_expiry_is_strict(
        deadline in 0u64..u64::MAX,
        now in 0u64..u64::MAX,
    ) {
        use abcrm::agentsim::clock::SimTime;
        use abcrm::agentsim::overload::{deadline_expired, remaining_us};
        prop_assert_eq!(remaining_us(None, SimTime(now)), None);
        prop_assert!(!deadline_expired(None, SimTime(now)));
        let d = Some(SimTime(deadline));
        let rem = remaining_us(d, SimTime(now)).expect("a set deadline always yields a budget");
        prop_assert_eq!(rem, deadline.saturating_sub(now), "saturating, never negative");
        prop_assert_eq!(deadline_expired(d, SimTime(now)), now > deadline, "strictly past");
        if deadline_expired(d, SimTime(now)) {
            prop_assert_eq!(rem, 0, "an expired deadline has no budget left");
        }
    }

    /// A deadline-clamped retry never outlives the remaining budget: the
    /// schedule either fits strictly inside it or refuses outright.
    #[test]
    fn clamped_retries_fit_inside_the_budget(
        base in 0u64..1_000_000,
        cap in 0u64..2_000_000,
        attempt in 0u32..70,
        bounded in 0u8..2,
        budget in 0u64..2_000_000,
    ) {
        let remaining = (bounded == 1).then_some(budget);
        let policy = abcrm::core::BackoffPolicy::new(base, cap, 3);
        match policy.delay_within(attempt, remaining) {
            Some(delay) => {
                prop_assert_eq!(delay, policy.delay_us(attempt), "clamping never stretches");
                if let Some(rem) = remaining {
                    prop_assert!(delay < rem, "a scheduled retry lands before the reply is due");
                }
            }
            None => {
                let rem = remaining.expect("only a finite budget can refuse");
                prop_assert!(policy.delay_us(attempt) >= rem, "refusal only when it cannot fit");
            }
        }
    }
}

// --- query-tier properties (ANN index, incremental maintenance) -------

proptest! {
    /// The incremental index maintenance path (Fig 4.5 learning applied
    /// as a [`ProfileDelta`], folded in with `apply_delta`) is
    /// indistinguishable from rebuilding the whole index, no matter how
    /// feedback events, wholesale profile replacements and removals
    /// interleave: same consumers, same rows (terms in term order, weight
    /// *bits*), same norm *bits*, same posting-list answers.
    #[test]
    fn incremental_index_matches_rebuild_after_interleavings(
        ops in proptest::collection::vec(
            (
                1u64..6,
                0u8..8,
                "[a-c]{1}",
                "[x-z]{1}",
                proptest::collection::vec(("[a-f]{1,3}", 0.01f64..3.0), 1..5),
            ),
            1..40,
        ),
        decay in 0.8f64..1.0,
    ) {
        use abcrm::core::index::ProfileIndex;
        use std::collections::BTreeMap;

        let learner = ProfileLearner::new(LearnerConfig {
            decay,
            max_terms: 8,
            ..LearnerConfig::default()
        });
        let mut mirror: BTreeMap<u64, Profile> = BTreeMap::new();
        let mut index = ProfileIndex::new();
        for (id, op, cat, sub, terms) in ops {
            match op {
                // rare: the consumer is forgotten outright
                0 => {
                    mirror.remove(&id);
                    index.remove(id);
                }
                // occasional wholesale replacement (profile import)
                1 => {
                    let mut p = Profile::new();
                    for (t, w) in &terms {
                        p.category_mut(&cat).sub_mut(&sub).add(t.clone(), *w);
                    }
                    index.update(id, &p);
                    mirror.insert(id, p);
                }
                // the common case: one feedback event through the
                // incremental O(changed terms) path
                _ => {
                    let profile = mirror.entry(id).or_default();
                    let event = BehaviorEvent::new(
                        BehaviorKind::Purchase,
                        CategoryPath::new(cat, sub),
                        TermVector::from_pairs(terms),
                    );
                    let delta = learner.apply_indexed(profile, &event);
                    index.apply_delta(id, &delta);
                }
            }
        }
        let rebuilt = ProfileIndex::rebuild(mirror.iter().map(|(id, p)| (*id, p)));
        prop_assert_eq!(index.len(), rebuilt.len(), "consumer count drifted");
        prop_assert_eq!(index.term_count(), rebuilt.term_count(), "posting lists drifted");
        let row = |index: &ProfileIndex, id: u64| -> Vec<(String, u64)> {
            index
                .terms(id)
                .expect("indexed consumer")
                .map(|(t, w)| (t.to_string(), w.to_bits()))
                .collect()
        };
        for (&id, profile) in &mirror {
            let (live, fresh) = (row(&index, id), row(&rebuilt, id));
            // same terms in the same (term) order with the same weight bits
            prop_assert_eq!(&live, &fresh, "row drifted for {}", id);
            prop_assert!(
                live.windows(2).all(|w| w[0].0 < w[1].0),
                "row of {} out of term order", id
            );
            prop_assert_eq!(
                index.norm(id).map(f64::to_bits),
                rebuilt.norm(id).map(f64::to_bits),
                "cached norm drifted for {}", id
            );
            let vector = profile.flatten();
            prop_assert_eq!(
                index.candidates(&vector),
                rebuilt.candidates(&vector),
                "candidate pruning drifted for {}", id
            );
        }
    }

    /// The ANN path never *invents* neighbours: with arbitrary LSH
    /// parameters, every `(consumer, score)` it returns also appears in
    /// the exact scan with the same score; repeated queries are
    /// deterministic. And with structurally exhaustive parameters (one
    /// table, one bit, one probe — the probe flips the only bit, so the
    /// two buckets together cover every consumer) recall@k is exactly
    /// 1.0 under tie-tolerant matching. The LSH source is queried
    /// directly: the planner answers every cosine query exactly.
    #[test]
    fn ann_neighbours_subset_of_exact_and_exhaustive_probing_has_full_recall(
        events in proptest::collection::vec((1u64..12, 0u64..6), 1..60),
        bits in 1u8..5,
        tables in 1u8..4,
        probes in 0u8..3,
        seed in 0u64..1_000,
    ) {
        use abcrm::core::store::RecommendStore;
        use abcrm::core::AnnConfig;
        use abcrm::ecp::merchandise::{Merchandise, Money};
        use std::collections::HashMap;

        const CATS: [(&str, &str); 3] =
            [("books", "programming"), ("music", "jazz"), ("garden", "tools")];
        let mut store = RecommendStore::new();
        for id in 1..=6u64 {
            let (cat, sub) = CATS[(id % 3) as usize];
            store.upsert_item(Merchandise {
                id: ItemId(id),
                name: format!("item{id}"),
                category: CategoryPath::new(cat, sub),
                terms: TermVector::from_pairs([
                    (format!("item{id}"), 1.0),
                    (sub.to_string(), 0.4),
                ]),
                list_price: Money::from_units(10 + id),
                seller: 1,
            });
        }
        for &(user, item) in &events {
            store.record_event(
                ConsumerId(user),
                ItemId(1 + item),
                BehaviorKind::Purchase,
            );
        }

        let exact_cfg = SimilarityConfig::default();
        let ann_cfg = SimilarityConfig {
            ann: Some(AnnConfig { bits, tables, probes, seed }),
            ..SimilarityConfig::default()
        };
        // one bit, one table, one probe: the probe flips the only bit,
        // so candidates = both buckets = every consumer
        let exhaustive_cfg = SimilarityConfig {
            ann: Some(AnnConfig { bits: 1, tables: 1, probes: 1, seed }),
            ..SimilarityConfig::default()
        };
        for user in 1..12u64 {
            let consumer = ConsumerId(user);
            let exact_all = store.nearest_neighbours(consumer, &exact_cfg, 1_000);
            let exact: HashMap<u64, f64> =
                exact_all.iter().map(|(c, s)| (c.0, *s)).collect();

            let approx = store.nearest_neighbours_lsh(consumer, &ann_cfg, 1_000);
            prop_assert_eq!(
                &approx,
                &store.nearest_neighbours_lsh(consumer, &ann_cfg, 1_000),
                "ANN query is not deterministic for {}", user
            );
            for (c, s) in &approx {
                let reference = exact.get(&c.0);
                prop_assert!(
                    reference.is_some(),
                    "ANN invented neighbour {} (score {}) absent from the exact scan", c, s
                );
                prop_assert!(
                    (reference.unwrap() - s).abs() < 1e-9,
                    "ANN score {} for {} disagrees with exact {}", s, c, reference.unwrap()
                );
            }

            // tie-tolerant recall@10: every exact top-10 neighbour is
            // either returned by id or substituted by an equal-score tie
            let k = 10;
            let exact_top = store.nearest_neighbours(consumer, &exact_cfg, k);
            let ann_top = store.nearest_neighbours_lsh(consumer, &exhaustive_cfg, k);
            for (c, s) in &exact_top {
                prop_assert!(
                    ann_top.iter().any(|(ac, asc)| ac == c || (asc - s).abs() < 1e-9),
                    "exhaustive probing missed {} (score {}) for {}", c, s, user
                );
            }
        }
    }
}

proptest! {
    /// The planned neighbour query is the exact scan, bit for bit: on
    /// random stores driven by feedback events, wholesale profile imports
    /// (some with weights so small that their products underflow to
    /// `0.0`), empty imports, and maintenance decay that drops emptied
    /// profiles and rebuilds the index, the planner picks the
    /// bounded cosine source and its answer equals
    /// `nearest_neighbours_naive` in ids, order and score bits, for every
    /// discard / `min_overlap` / floor / `k` combination.
    #[test]
    fn planned_cosine_neighbours_equal_the_naive_scan_bit_for_bit(
        ops in proptest::collection::vec((1u64..14, 0u8..10, 0u64..6, 0u8..4), 1..70),
        threshold in 1.5f64..4.0,
    ) {
        use abcrm::core::store::{NeighbourSource, RecommendStore};
        use abcrm::ecp::merchandise::{Merchandise, Money};

        const CATS: [(&str, &str); 3] =
            [("books", "programming"), ("music", "jazz"), ("garden", "tools")];
        const KINDS: [BehaviorKind; 4] = [
            BehaviorKind::Query,
            BehaviorKind::Browse,
            BehaviorKind::Bid,
            BehaviorKind::Purchase,
        ];
        // a tiny weight survives compaction beside a normal one, and its
        // product with another tiny weight underflows
        const TINY: f64 = 1e-170;
        let mut store = RecommendStore::new();
        for id in 0..6u64 {
            let (cat, sub) = CATS[(id % 3) as usize];
            store.upsert_item(Merchandise {
                id: ItemId(id),
                name: format!("item{id}"),
                category: CategoryPath::new(cat, sub),
                terms: TermVector::from_pairs([
                    (format!("t{id}"), 1.0),
                    (format!("t{}", (id + 1) % 6), 0.3),
                    (sub.to_string(), 0.4),
                ]),
                list_price: Money::from_units(10 + id),
                seller: 1,
            });
        }
        for (user, op, item, weight) in ops {
            let (cat, sub) = CATS[(item % 3) as usize];
            match op {
                0 => store.decay_all_profiles(if weight < 2 { 0.5 } else { 1e-3 }),
                // a profile faint enough that the next decay drops it
                1 => {
                    let mut p = Profile::new();
                    p.category_mut(cat).sub_mut(sub).set(format!("t{item}"), 1e-9);
                    store.put_profile(ConsumerId(user), p);
                }
                2 => {
                    let mut p = Profile::new();
                    let w = [1.0, 0.5, 2.0, TINY][usize::from(weight)];
                    p.category_mut(cat).sub_mut(sub).set(format!("t{item}"), w);
                    p.category_mut(cat).sub_mut(sub).set(format!("t{}", (item + 1) % 6), TINY);
                    p.category_mut(cat).sub_mut(sub).set(sub, 1.0);
                    store.put_profile(ConsumerId(user), p);
                }
                3 => store.put_profile(ConsumerId(user), Profile::new()),
                _ => store.record_event(
                    ConsumerId(user),
                    ItemId(item),
                    KINDS[usize::from(op) % KINDS.len()],
                ),
            }
        }
        let mut configs = Vec::new();
        for discard_threshold in [None, Some(threshold)] {
            for min_overlap in 0..=3 {
                for neighbour_floor in [0.0, 0.3] {
                    configs.push(SimilarityConfig {
                        discard_threshold,
                        min_overlap,
                        neighbour_floor,
                        ..SimilarityConfig::default()
                    });
                }
            }
        }
        let bits = |found: Vec<(ConsumerId, f64)>| -> Vec<(u64, u64)> {
            found.into_iter().map(|(c, s)| (c.0, s.to_bits())).collect()
        };
        for config in &configs {
            for user in 1..14u64 {
                let consumer = ConsumerId(user);
                if store.profile(consumer).is_none() {
                    continue;
                }
                prop_assert_eq!(
                    store.neighbour_source(consumer, config),
                    Some(NeighbourSource::CosineBound)
                );
                for k in [1, 10] {
                    prop_assert_eq!(
                        bits(store.nearest_neighbours(consumer, config, k)),
                        bits(store.nearest_neighbours_naive(consumer, config, k)),
                        "consumer {} at k = {} under {:?}", user, k, config
                    );
                }
            }
        }
    }
}

/// Message duplication and bounded reordering are *masked* faults: the
/// dedupe layer and per-pair FIFO clamp mean an idempotent query returns
/// byte-identical recommendations with and without them. (Each case runs
/// two full platforms, so this is a hand-rolled sweep rather than a
/// 128-case `proptest!` block.)
mod dup_reorder_idempotence {
    use abcrm::agentsim::chaos::ChaosPlan;
    use abcrm::core::agents::msg::ResponseBody;
    use abcrm::core::profile::ConsumerId;
    use abcrm::core::server::{listing, Platform};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn platform(seed: u64) -> Platform {
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
            .build()
    }

    fn query_bytes(p: &mut Platform) -> Vec<String> {
        p.login(ConsumerId(1));
        p.query(ConsumerId(1), &["rust"], 5)
            .iter()
            .map(|r| {
                assert!(
                    matches!(
                        r,
                        ResponseBody::Recommendations {
                            degraded: false,
                            ..
                        }
                    ),
                    "dup/reorder alone must not degrade a reply: {r:?}"
                );
                serde_json::to_string(r).unwrap()
            })
            .collect()
    }

    #[test]
    fn dup_and_reorder_never_change_recommendation_bytes() {
        let mut params = StdRng::seed_from_u64(0xd0_0b1e);
        for case in 0..12u64 {
            let seed = params.gen_range(0u64..10_000);
            let dup = params.gen_range(0.0..1.0);
            let reorder = params.gen_range(0.0..1.0);
            let jitter = params.gen_range(1u64..5_000);
            let clean = query_bytes(&mut platform(seed));
            let mut mangled_world = platform(seed);
            // dup/reorder knobs only — no loss, no partitions, no crashes
            mangled_world.install_chaos(&ChaosPlan {
                seed,
                dup_probability: dup,
                reorder_probability: reorder,
                max_jitter_us: jitter,
                events: Vec::new(),
            });
            let mangled = query_bytes(&mut mangled_world);
            assert_eq!(
                clean, mangled,
                "case {case}: seed={seed} dup={dup} reorder={reorder} jitter={jitter}us \
                 changed the reply bytes"
            );
        }
    }
}

/// Deterministic arbitrary JSON tree from a token stream: each token picks
/// a node shape (scalars, strings with escapes, arrays, objects), so the
/// generated values cover every encoder arm without needing a recursive
/// strategy.
fn arbitrary_json(tokens: &[u64]) -> serde_json::Value {
    fn build(tokens: &mut std::slice::Iter<'_, u64>, depth: u32) -> serde_json::Value {
        let Some(&t) = tokens.next() else {
            return serde_json::Value::Null;
        };
        match t % if depth == 0 { 7 } else { 9 } {
            0 => serde_json::json!(null),
            1 => serde_json::json!(t % 2 == 0),
            2 => serde_json::json!(t),
            3 => serde_json::json!(-((t % 1_000_000) as i64)),
            4 => serde_json::json!((t as f64) / 7.0 - 1e15),
            5 => serde_json::json!((t % 1000) as f64),
            6 => {
                // strings exercising escapes, control chars and unicode
                let palette = ['a', '"', '\\', '\n', '\t', '\u{01}', 'ü', '✓'];
                let s: String = (0..t % 12)
                    .map(|i| palette[((t >> (i % 8)) % 8) as usize])
                    .collect();
                serde_json::json!(s)
            }
            7 => serde_json::Value::Array((0..t % 4).map(|_| build(tokens, depth - 1)).collect()),
            _ => {
                let mut map = serde_json::Map::new();
                for i in 0..t % 4 {
                    map.insert(format!("k{i}"), build(tokens, depth - 1));
                }
                serde_json::Value::Object(map)
            }
        }
    }
    build(&mut tokens.iter(), 3)
}

// --- durability / WAL replay properties -------------------------------

use abcrm::agentsim::durable::{DurabilityConfig, DurableStore, IntentState};

/// One durability op per tuple: `(kind, agent, intent, value)`.
fn durable_ops_strategy() -> impl Strategy<Value = Vec<(u8, u64, u64, i64)>> {
    proptest::collection::vec((0u8..8, 0u64..6, 0u64..24, 0i64..1000), 1..60)
}

fn apply_durable_op(store: &mut DurableStore, op: (u8, u64, u64, i64)) {
    let (kind, agent, intent, value) = op;
    let v = serde_json::json!({ "v": value });
    match kind {
        0 | 1 => store.put_capsule(agent, v, value % 2 == 0).unwrap(),
        2 => store.remove_capsule(agent).unwrap(),
        3 => store.log_intent(intent.to_string(), v).unwrap(),
        4 => store.log_commit(intent.to_string(), v).unwrap(),
        5 => store
            .log_abort(intent.to_string(), format!("abort {value}"))
            .unwrap(),
        6 => store.log_delta(agent, v).unwrap(),
        // half the checkpoints fold in a fresh capsule, as the runtime
        // does for delta-journalled agents
        _ if value % 2 == 0 => store.checkpoint(vec![(agent, v, value % 4 == 0)]).unwrap(),
        _ => store.checkpoint(Vec::new()).unwrap(),
    }
}

proptest! {
    /// Recovery (snapshot + WAL replay) materializes exactly the live
    /// state, for any interleaving of capsule journals, removals,
    /// two-phase purchase records, profile deltas and checkpoints — and
    /// it is a pure function: recovering twice from the same bytes gives
    /// the same state.
    #[test]
    fn durable_replay_equals_live_state_for_any_interleaving(
        ops in durable_ops_strategy(),
        sync_every in 1usize..5,
    ) {
        let mut store = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            sync_every,
        });
        for op in ops {
            apply_durable_op(&mut store, op);
        }
        let first =
            DurableStore::replay_bytes(&store.snapshot_bytes(), &store.wal_bytes()).unwrap();
        prop_assert_eq!(&first.state, store.state(), "recovery diverged from live state");
        let second =
            DurableStore::replay_bytes(&store.snapshot_bytes(), &store.wal_bytes()).unwrap();
        prop_assert_eq!(first.state, second.state, "recovery is not a pure function");
    }

    /// The tree path and the byte path recover the same state: a crash
    /// (the snapshot's shared trees plus the surviving records) gives
    /// exactly what replaying the encoded snapshot and the encoded synced
    /// log prefix gives, and recovering a live store gives its live
    /// state.
    #[test]
    fn durable_crash_tree_path_equals_byte_replay(
        ops in durable_ops_strategy(),
        sync_every in 1usize..5,
    ) {
        let mut store = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            sync_every,
        });
        for op in ops {
            apply_durable_op(&mut store, op);
        }
        prop_assert_eq!(&store.recover().state, store.state(), "recover() diverged from state()");
        let mut synced = Wal::decode(&store.wal_bytes()).unwrap();
        synced.retain_prefix(store.synced_len());
        let bytes = DurableStore::replay_bytes(&store.snapshot_bytes(), &synced.encode()).unwrap();
        store.crash().unwrap();
        prop_assert_eq!(store.state(), &bytes.state, "crash state diverged from the byte replay");
    }

    /// A log torn at *any* record boundary still recovers (the fsync
    /// model only ever loses whole-record suffixes), and growing the
    /// surviving prefix never un-commits a purchase: once an intent is
    /// `Committed` at prefix `n`, it is `Committed` at every longer
    /// prefix.
    #[test]
    fn any_torn_log_prefix_recovers_and_never_loses_a_commit(
        ops in durable_ops_strategy(),
    ) {
        let mut store = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            sync_every: 1,
        });
        for op in ops {
            apply_durable_op(&mut store, op);
        }
        let snapshot = store.snapshot_bytes().to_vec();
        let full = Wal::decode(&store.wal_bytes()).unwrap();
        let mut prev_committed: Vec<String> = Vec::new();
        for n in 0..=full.len() {
            let mut prefix = full.clone();
            prefix.retain_prefix(n);
            let rec = DurableStore::replay_bytes(&snapshot, &prefix.encode())
                .unwrap_or_else(|e| panic!("prefix {n} failed to recover: {e:?}"));
            prop_assert_eq!(rec.replayed, n, "replayed record count at prefix {}", n);
            let committed: Vec<String> = rec
                .state
                .intents
                .iter()
                .filter(|(_, s)| matches!(s, IntentState::Committed(_)))
                .map(|(id, _)| id.clone())
                .collect();
            for id in &prev_committed {
                prop_assert!(
                    committed.contains(id),
                    "intent {} committed at prefix {} was lost at prefix {}", id, n - 1, n
                );
            }
            prev_committed = committed;
        }
    }

    /// Crashing loses only the unsynced suffix: every *forced* record
    /// (intent, commit, abort — the two-phase purchase protocol) survives
    /// any crash, committed purchases stay committed, and crashing twice
    /// without new writes changes nothing.
    #[test]
    fn crash_preserves_every_forced_purchase_record(
        ops in durable_ops_strategy(),
        sync_every in 1usize..6,
    ) {
        let mut store = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            sync_every,
        });
        let mut forced_intents = std::collections::BTreeSet::new();
        let mut forced_commits = std::collections::BTreeSet::new();
        for op in ops {
            match op.0 {
                3 | 5 => {
                    forced_intents.insert(op.2);
                }
                4 => {
                    forced_intents.insert(op.2);
                    forced_commits.insert(op.2);
                }
                _ => {}
            }
            apply_durable_op(&mut store, op);
        }
        store.crash().unwrap();
        for id in &forced_commits {
            prop_assert!(
                matches!(store.state().intents.get(&id.to_string()), Some(IntentState::Committed(_))),
                "commit for intent {} was lost in the crash", id
            );
        }
        for id in &forced_intents {
            prop_assert!(
                store.state().intents.contains_key(&id.to_string()),
                "forced intent {} vanished in the crash", id
            );
        }
        let after = store.state().clone();
        store.crash().unwrap();
        prop_assert_eq!(store.state(), &after, "crash is not idempotent");
    }
}

/// Encoded bytes of `value`: what the checkpoint rule's tallies measure,
/// recomputed here by the serializer itself.
fn encoded_bytes(value: &serde_json::Value) -> usize {
    serde_json::to_string(value).unwrap().len()
}

proptest! {
    /// The amortised checkpoint rule bounds what recovery decodes: when
    /// the runtime re-captures exactly the delta agents the store asks
    /// for ([`DurableStore::needs_capture`]), then after every
    /// checkpoint each agent's carried deltas encode to fewer bytes than
    /// its capsule — for any mix of landings, deltas of any size,
    /// departures and crashes (which rebuild the tallies from the
    /// recovered state).
    #[test]
    fn checkpoint_rule_keeps_carried_deltas_below_their_capsule(
        ops in proptest::collection::vec((0u8..8, 0u64..4, 0usize..120), 1..80),
        sync_every in 1usize..4,
    ) {
        let mut store = DurableStore::new(DurabilityConfig {
            checkpoint_every: 0,
            sync_every,
        });
        let body = |n: usize| "x".repeat(n);
        for (kind, agent, size) in ops {
            match kind {
                0 => store
                    .put_capsule(agent, serde_json::json!({ "s": body(size) }), true)
                    .unwrap(),
                1..=3 => store
                    .log_delta(agent, serde_json::json!({ "d": body(size) }))
                    .unwrap(),
                4 => store.remove_capsule(agent).unwrap(),
                5 => store.crash().unwrap(),
                _ => {
                    // the runtime's side: every agent with an active
                    // capsule is a live delta agent; `size` stands in for
                    // the size of its live state
                    let capsules = store.state().capsules.clone();
                    let fresh = capsules
                        .iter()
                        .filter(|(_, rec)| rec.active)
                        .map(|(a, _)| *a)
                        .filter(|a| store.needs_capture(*a))
                        .map(|a| (a, serde_json::json!({ "s": body(size) }), true))
                        .collect();
                    store.checkpoint(fresh).unwrap();
                    let state = store.state();
                    for (agent, rec) in &state.capsules {
                        let carried: usize =
                            state.deltas_for(*agent).iter().map(encoded_bytes).sum();
                        let baseline = encoded_bytes(&rec.capsule);
                        prop_assert!(
                            carried < baseline,
                            "agent {} carries {} delta bytes over a {}-byte capsule",
                            agent, carried, baseline
                        );
                    }
                }
            }
        }
    }
}

// --- marketplace delta journaling ---------------------------------------

mod marketplace_replay {
    use abcrm::agentsim::agent::{Agent, Ctx};
    use abcrm::agentsim::clock::SimDuration;
    use abcrm::agentsim::durable::DurabilityConfig;
    use abcrm::agentsim::ids::AgentId;
    use abcrm::agentsim::message::Message;
    use abcrm::agentsim::sim::{Location, SimWorld};
    use abcrm::core::server::listing;
    use abcrm::ecp::marketplace::{MarketplaceAgent, MARKETPLACE_TYPE};
    use abcrm::ecp::merchandise::{ItemId, Money};
    use abcrm::ecp::protocol::{
        kinds, AuctionBid, AuctionJoin, AuctionOpen, BuyRequest, CatalogSync, DutchOpen, IntentId,
        LedgerQuery, NegotiateOffer, QueryRequest, TopSellers,
    };
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};

    /// Forwards every message from outside the world to the marketplace
    /// and drops the marketplace's replies: one buyer identity.
    #[derive(Debug, Serialize, Deserialize)]
    struct Relay {
        market: AgentId,
    }

    impl Agent for Relay {
        fn agent_type(&self) -> &'static str {
            "relay"
        }
        fn snapshot(&self) -> serde_json::Value {
            serde_json::to_value(self).unwrap()
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.from.is_none() {
                let inner = Message::new(msg.kind.clone()).carrying(msg.payload);
                ctx.send(self.market, inner);
            }
        }
    }

    fn message<T>(kind: &str, payload: &T) -> Message
    where
        T: Serialize + Clone + Send + Sync + 'static,
    {
        Message::new(kind).with_payload(payload).unwrap()
    }

    /// One marketplace message from drawn scalars: `kind` picks the
    /// message, `a` the item, `b` the buyer-side choice, `c` a price.
    fn op_message(kind: u8, a: u64, b: u64, c: u64) -> Message {
        let item = ItemId(a + 1);
        let units = Money::from_units;
        let intent = IntentId::new(AgentId(100 + b % 2), b);
        match kind {
            0 => message(
                kinds::CATALOG_SYNC,
                &CatalogSync {
                    seller: 1,
                    listings: vec![listing(a + 1, "Item", "books", "misc", c, &[("item", 1.0)])],
                },
            ),
            1 => message(kinds::BUY_REQUEST, &BuyRequest { item, intent }),
            2 => message(
                kinds::NEGOTIATE_OFFER,
                &NegotiateOffer {
                    item,
                    offer: units(c),
                    intent,
                },
            ),
            3 => message(
                kinds::AUCTION_OPEN,
                &AuctionOpen {
                    item,
                    reserve: units(c),
                    increment: units(1),
                    duration_us: 4_000 * (b + 1),
                    sealed: b.is_multiple_of(2),
                },
            ),
            4 => message(
                kinds::DUTCH_OPEN,
                &DutchOpen {
                    item,
                    start: units(c + 10),
                    floor: units(c),
                    decrement: units(3),
                    tick_us: 1_500,
                },
            ),
            5 => message(kinds::AUCTION_JOIN, &AuctionJoin { item }),
            6 => message(
                kinds::AUCTION_BID,
                &AuctionBid {
                    item,
                    amount: units(c),
                },
            ),
            7 => match b % 3 {
                0 => message(
                    kinds::QUERY_REQUEST,
                    &QueryRequest {
                        keywords: vec!["item".into()],
                        category: None,
                        max_results: 3,
                    },
                ),
                1 => message(kinds::TOP_SELLERS, &TopSellers { k: 2 }),
                _ => message(
                    kinds::LEDGER_QUERY,
                    &LedgerQuery {
                        intent: IntentId::new(AgentId(100), c % 4),
                    },
                ),
            },
            _ => Message::new("unknown-kind"),
        }
    }

    proptest! {
        /// For any sequence of marketplace messages (catalog syncs, buys
        /// under fresh, repeated and stale intents, negotiations, English,
        /// sealed and Dutch auctions with their timers, and reads), the state the
        /// marketplace host recovers — the last checkpoint capsule plus a
        /// replay of the deltas logged since — equals the live
        /// marketplace the crash interrupted.
        #[test]
        fn marketplace_checkpoint_plus_deltas_equals_live_state(
            ops in proptest::collection::vec((0u8..9, 0u64..3, 0u64..4, 1u64..60), 1..40),
            checkpoint_every in 0usize..6,
        ) {
            let mut world = SimWorld::new(7);
            world.enable_durability(DurabilityConfig {
                checkpoint_every,
                sync_every: 64,
            });
            world
                .registry_mut()
                .register_serde::<MarketplaceAgent>(MARKETPLACE_TYPE);
            world.registry_mut().register_serde::<Relay>("relay");
            let market_host = world.add_host("market");
            let buyer_host = world.add_host("buyers");
            let market = world
                .create_agent(market_host, Box::new(MarketplaceAgent::new("m")))
                .unwrap();
            let relays: Vec<AgentId> = (0..2)
                .map(|_| world.create_agent(buyer_host, Box::new(Relay { market })).unwrap())
                .collect();
            for (kind, a, b, c) in ops {
                if kind == 8 {
                    world.run_for(SimDuration::from_micros(500 * c));
                    continue;
                }
                let relay = relays[(b % 2) as usize];
                world.send_external(relay, op_message(kind, a, b, c)).unwrap();
                world.run_for(SimDuration::from_millis(2));
            }
            world.run_for(SimDuration::from_millis(2));
            prop_assert_eq!(world.location(market), Some(Location::Active(market_host)));
            let live = world.snapshot_of(market).unwrap();
            world.crash_host(market_host).unwrap();
            world.restart_host(market_host).unwrap();
            let recovered = world.snapshot_of(market).unwrap();
            prop_assert_eq!(recovered, live);
        }
    }
}

// --- typed payloads ≡ their trees ---------------------------------------

/// A payload built with `Payload::encode` holds the Rust value and builds
/// its JSON tree only on demand. For every payload type the agents send,
/// drawn values must read back exactly as the tree-decoded value would,
/// and once the tree exists it must be the one `to_value` builds, with
/// the same encoded length and bytes; reading the payload as a `Value` or
/// as another message type must give what decoding the tree gives.
mod typed_payloads {
    use abcrm::agentsim::ids::{AgentId, HostId};
    use abcrm::agentsim::payload::Payload;
    use abcrm::core::agents::msg::*;
    use abcrm::core::learning::BehaviorKind;
    use abcrm::core::profile::{ConsumerId, Profile};
    use abcrm::ecp::auction::{AuctionOutcome, BidderId};
    use abcrm::ecp::merchandise::{CategoryPath, ItemId, Merchandise, Money};
    use abcrm::ecp::protocol::*;
    use abcrm::ecp::terms::TermVector;
    use proptest::prelude::*;
    use proptest::{TestCaseError, TestRng};
    use serde::de::DeserializeOwned;
    use serde::Serialize;
    use serde_json::Value;
    use std::fmt::Debug;

    /// Draws message values from one seed.
    struct Draw(TestRng);

    impl Draw {
        fn n(&mut self, bound: u64) -> u64 {
            self.0.below(bound)
        }
        fn flip(&mut self) -> bool {
            self.n(2) == 1
        }
        fn f(&mut self) -> f64 {
            // negative, fractional, integral and tiny weights alike
            match self.n(4) {
                0 => self.n(100) as f64,
                1 => -self.0.unit_f64(),
                2 => self.0.unit_f64() * 1e-9,
                _ => self.0.unit_f64() * 1e3,
            }
        }
        fn text(&mut self) -> String {
            const PARTS: [&str; 6] = ["rust", "Go Book", "quote\"d", "tab\tnew\nline", "ünï ✓", ""];
            (0..self.n(3))
                .map(|_| PARTS[self.n(PARTS.len() as u64) as usize])
                .collect::<Vec<_>>()
                .join(" ")
        }
        fn vec<T>(&mut self, max: u64, mut one: impl FnMut(&mut Self) -> T) -> Vec<T> {
            (0..self.n(max + 1)).map(|_| one(self)).collect()
        }
        fn opt<T>(&mut self, one: impl FnOnce(&mut Self) -> T) -> Option<T> {
            if self.flip() {
                Some(one(self))
            } else {
                None
            }
        }
        fn money(&mut self) -> Money {
            Money(self.n(1 << 40))
        }
        fn consumer(&mut self) -> ConsumerId {
            ConsumerId(self.n(u64::MAX))
        }
        fn agent(&mut self) -> AgentId {
            AgentId(self.n(1 << 20))
        }
        fn host(&mut self) -> HostId {
            HostId(self.n(64) as u32)
        }
        fn terms(&mut self) -> TermVector {
            let pairs = self.vec(4, |d| (d.text(), d.f()));
            TermVector::from_pairs(pairs)
        }
        fn category(&mut self) -> CategoryPath {
            CategoryPath::new(self.text(), self.text())
        }
        fn merch(&mut self) -> Merchandise {
            Merchandise {
                id: ItemId(self.n(1000)),
                name: self.text(),
                category: self.category(),
                terms: self.terms(),
                list_price: self.money(),
                seller: self.n(8) as u32,
            }
        }
        fn profile(&mut self) -> Profile {
            let mut p = Profile::new();
            for _ in 0..self.n(3) {
                let (cat, sub) = (self.text(), self.text());
                let slice = p.category_mut(&cat);
                slice.terms = self.terms();
                *slice.sub_mut(&sub) = self.terms();
            }
            p
        }
        fn market(&mut self) -> MarketRef {
            MarketRef {
                host: self.host(),
                agent: self.agent(),
            }
        }
        fn intent(&mut self) -> IntentId {
            IntentId::new(self.agent(), self.n(1 << 30))
        }
        fn offer(&mut self) -> Offer {
            Offer {
                item: self.merch(),
                marketplace: self.host(),
                price: self.money(),
            }
        }
        fn task(&mut self) -> ConsumerTask {
            match self.n(3) {
                0 => ConsumerTask::Query {
                    keywords: self.vec(3, Draw::text),
                    category: self.opt(Draw::category),
                    max_results: self.n(20) as usize,
                },
                1 => ConsumerTask::Buy {
                    item: ItemId(self.n(1000)),
                    market: self.market(),
                    mode: if self.flip() {
                        BuyMode::Direct
                    } else {
                        BuyMode::Negotiate {
                            budget: self.money(),
                            opening_fraction: self.f(),
                            raise: self.f(),
                            max_rounds: self.n(10) as u32,
                        }
                    },
                },
                _ => ConsumerTask::Auction {
                    item: ItemId(self.n(1000)),
                    market: self.market(),
                    limit: self.money(),
                },
            }
        }
        fn body(&mut self) -> ResponseBody {
            match self.n(7) {
                0 => ResponseBody::LoggedIn,
                1 => ResponseBody::LoggedOut,
                2 => ResponseBody::Recommendations {
                    offers: self.vec(3, Draw::offer),
                    recommendations: self.vec(3, |d| RecommendedItem {
                        item: d.merch(),
                        score: d.f(),
                        reason: d.text(),
                    }),
                    degraded: self.flip(),
                    unreachable_markets: self.vec(2, Draw::market),
                },
                3 => ResponseBody::Receipt {
                    item: self.merch(),
                    price: self.money(),
                    channel: self.text(),
                },
                4 => ResponseBody::AuctionResult {
                    item: self.merch(),
                    won: self.flip(),
                    price: self.opt(Draw::money),
                },
                5 => ResponseBody::Error(self.text()),
                _ => ResponseBody::Overloaded {
                    retry_after_us: self.n(u64::MAX),
                },
            }
        }
        fn mba_result(&mut self) -> MbaResult {
            match self.n(4) {
                0 => MbaResult::Offers {
                    offers: self.vec(3, Draw::offer),
                    reports: self.vec(2, |d| MarketReport {
                        market: d.market(),
                        status: [
                            MarketStatus::Visited,
                            MarketStatus::Unreachable,
                            MarketStatus::NoReply,
                        ][d.n(3) as usize],
                    }),
                },
                1 => MbaResult::Bought {
                    item: self.merch(),
                    price: self.money(),
                    negotiated: self.flip(),
                    rounds: self.n(9) as u32,
                },
                2 => MbaResult::BuyFailed {
                    item: ItemId(self.n(1000)),
                    reason: self.text(),
                },
                _ => MbaResult::AuctionDone {
                    item: self.merch(),
                    won: self.flip(),
                    price: self.opt(Draw::money),
                    bids: self.n(9) as u32,
                },
            }
        }
        fn confirm(&mut self) -> BuyConfirm {
            BuyConfirm {
                item: self.merch(),
                price: self.money(),
            }
        }
        fn role(&mut self) -> ServerRole {
            [
                ServerRole::Marketplace,
                ServerRole::Seller,
                ServerRole::BuyerServer,
            ][self.n(3) as usize]
        }
    }

    /// `x` as a typed payload ≡ `x` as a tree payload.
    fn check<T>(x: &T) -> Result<(), TestCaseError>
    where
        T: Serialize + DeserializeOwned + Clone + PartialEq + Debug + Send + Sync + 'static,
    {
        let tree = serde_json::to_value(x).unwrap();
        let text = serde_json::to_string(x).unwrap();
        let p = Payload::encode(x).unwrap();
        let typed = p.typed::<T>().unwrap();
        prop_assert!(
            !p.is_materialised(),
            "a read of the held type builds no tree"
        );
        prop_assert_eq!(&typed, &T::deserialize_value(&tree).unwrap());
        prop_assert_eq!(&typed, x);
        // a read as another type decodes the tree, as a tree payload does
        prop_assert_eq!(p.typed::<Value>().unwrap(), tree);
        prop_assert!(p.is_materialised());
        prop_assert_eq!(p.value(), &tree);
        prop_assert_eq!(p.encoded_len(), text.len());
        prop_assert_eq!(&p.encoded()[..], text.as_bytes());
        let as_tree = Payload::from(tree.clone());
        prop_assert_eq!(&p, &as_tree);
        prop_assert_eq!(format!("{p:?}"), format!("{as_tree:?}"));
        // reading a fresh typed payload as another type materialises it
        // and gives exactly what the tree gives, error or value
        let fresh = Payload::encode(x).unwrap();
        prop_assert_eq!(
            format!("{:?}", fresh.typed::<PaLoad>()),
            format!("{:?}", as_tree.typed::<PaLoad>())
        );
        prop_assert_eq!(
            format!("{:?}", fresh.typed::<SessionRequest>()),
            format!("{:?}", as_tree.typed::<SessionRequest>())
        );
        prop_assert_eq!(
            format!("{:?}", fresh.typed::<MbaResult>()),
            format!("{:?}", as_tree.typed::<MbaResult>())
        );
        prop_assert_eq!(fresh.into_value(), tree);
        Ok(())
    }

    proptest! {
        #[test]
        fn typed_payloads_read_back_as_their_trees(seed in 0u64..u64::MAX) {
            let mut d = Draw(TestRng::seed_from_u64(seed));
            let d = &mut d;
            // abcrm_core::agents::msg
            check(&FrontRequest {
                consumer: d.consumer(),
                body: match d.n(3) {
                    0 => FrontRequestBody::Login,
                    1 => FrontRequestBody::Logout,
                    _ => FrontRequestBody::Task(d.task()),
                },
            })?;
            check(&FrontResponse { seq: d.n(1 << 32), consumer: d.consumer(), body: d.body() })?;
            check(&d.body())?;
            check(&SessionRequest { consumer: d.consumer() })?;
            check(&SessionOpen { consumer: d.consumer(), bra: d.agent() })?;
            check(&FrontTask {
                consumer: d.consumer(),
                task: d.task(),
                blocked_markets: d.vec(2, Draw::market),
                request: d.n(1 << 32),
            })?;
            check(&PaLoad { consumer: d.consumer(), figure: d.text() })?;
            check(&PaProfile { consumer: d.consumer(), profile: d.profile() })?;
            check(&PaRecord {
                consumer: d.consumer(),
                item: d.merch(),
                kind: [BehaviorKind::Query, BehaviorKind::Browse, BehaviorKind::Purchase]
                    [d.n(3) as usize],
                price: d.opt(Draw::money),
                at_us: d.n(u64::MAX),
            })?;
            check(&PaSimilar {
                consumer: d.consumer(),
                offers: d.vec(4, Draw::merch),
                k_neighbours: d.n(50) as usize,
            })?;
            check(&PaSimilarReply {
                consumer: d.consumer(),
                profile: d.profile(),
                neighbours: d.vec(4, |d| (d.consumer(), d.f())),
                neighbour_preferences: d.vec(4, |d| (d.merch(), d.f())),
            })?;
            check(&MbaRegister {
                mba: d.agent(),
                bra: d.agent(),
                consumer: d.consumer(),
                timeout_us: d.n(1 << 32),
                figure: d.text(),
            })?;
            check(&MbaReturned { mba: d.agent(), bra: d.agent(), reports: Vec::new() })?;
            check(&d.mba_result())?;
            check(&BraResponse { consumer: d.consumer(), request: d.n(1 << 32), body: d.body() })?;
            check(&MbaLost { mba: d.agent(), deadline_us: d.opt(|d| d.n(1 << 40)) })?;
            check(&EcInfo {
                marketplaces: d.vec(3, Draw::market),
                online_consumers: d.n(100) as u32,
                roaming_mbas: d.n(100) as u32,
            })?;
            // ecp::protocol, as a marketplace or the coordinator receives it
            check(&RegisterServer { role: d.role(), host: d.host(), agent: d.agent(), name: d.text() })?;
            check(&ListServers { role: d.role() })?;
            check(&ServerList {
                servers: d.vec(3, |d| ServerInfo {
                    role: d.role(),
                    host: d.host(),
                    agent: d.agent(),
                    name: d.text(),
                }),
            })?;
            check(&RequestBuyerServer {
                host: d.host(),
                bsma_type: d.text(),
                config: serde_json::json!({"markets": d.n(9), "name": d.text()}),
            })?;
            check(&CatalogSync {
                seller: d.n(8) as u32,
                listings: d.vec(3, |d| Listing {
                    item: d.merch(),
                    reservation: d.money(),
                    concession: d.f(),
                }),
            })?;
            check(&QueryRequest {
                keywords: d.vec(3, Draw::text),
                category: d.opt(Draw::category),
                max_results: d.n(20) as usize,
            })?;
            check(&QueryResponse { offers: d.vec(3, Draw::offer) })?;
            check(&BuyRequest { item: ItemId(d.n(1000)), intent: d.intent() })?;
            check(&d.confirm())?;
            check(&NegotiateOffer { item: ItemId(d.n(1000)), offer: d.money(), intent: d.intent() })?;
            check(&NegotiateCounter { item: ItemId(d.n(1000)), ask: d.money() })?;
            check(&NegotiateAccept { item: d.merch(), price: d.money() })?;
            check(&AuctionOpen {
                item: ItemId(d.n(1000)),
                reserve: d.money(),
                increment: d.money(),
                duration_us: d.n(1 << 32),
                sealed: d.flip(),
            })?;
            check(&DutchOpen {
                item: ItemId(d.n(1000)),
                start: d.money(),
                floor: d.money(),
                decrement: d.money(),
                tick_us: d.n(1 << 32),
            })?;
            check(&AuctionJoin { item: ItemId(d.n(1000)) })?;
            check(&AuctionStatus {
                item: ItemId(d.n(1000)),
                minimum_bid: d.money(),
                leading_bid: d.opt(Draw::money),
                open: d.flip(),
                sealed: d.flip(),
            })?;
            check(&AuctionBid { item: ItemId(d.n(1000)), amount: d.money() })?;
            check(&AuctionClosed {
                item: d.merch(),
                outcome: if d.flip() {
                    AuctionOutcome::Sold { winner: BidderId(d.n(99)), price: d.money() }
                } else {
                    AuctionOutcome::Unsold
                },
                you_won: d.flip(),
            })?;
            check(&LedgerQuery { intent: d.intent() })?;
            check(&LedgerReply { intent: d.intent(), committed: d.opt(Draw::confirm) })?;
            check(&TopSellers { k: d.n(10) as usize })?;
            check(&TopSellersList { items: d.vec(3, |d| (d.merch(), d.n(99) as u32)) })?;
        }
    }
}
