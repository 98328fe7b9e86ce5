//! Recommenders: the paper's hybrid mechanism plus every baseline §2.3
//! names.
//!
//! * [`HybridRecommender`] — the paper's algorithm (§4.3.1/§4.4): find
//!   similar users by *profile* similarity, take their merchandise
//!   preferences, and compare against the queried merchandise
//!   information.
//! * [`CfRecommender`] — pure collaborative filtering (user-kNN over
//!   observational ratings), the technique §2.3 credits with serendipity
//!   but charges with sparsity and cold-start.
//! * [`ContentRecommender`] — pure information filtering: match the
//!   consumer's own profile against item content; *"do\[es\] not depend on
//!   having other users in the system"*.
//! * [`TopSellerRecommender`] — "top overall sellers on a site", the
//!   non-personalized baseline.
//! * [`RandomRecommender`] — the floor.
//!
//! All implement one [`Recommender`] trait over a shared
//! [`RecommendStore`], so experiment E6 compares like with like.

use crate::profile::ConsumerId;
use crate::similarity::{nearest_neighbours, SimilarityConfig};
use crate::store::RecommendStore;
use ecp::merchandise::{CategoryPath, ItemId, Merchandise};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What the consumer is looking at right now — "the queried merchandise
/// information" of §4.3.1. Empty context means a general recommendation
/// (e.g. the storefront page).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryContext {
    /// Query keywords, if the consumer searched.
    pub keywords: Vec<String>,
    /// Category the consumer is browsing, if any.
    pub category: Option<CategoryPath>,
}

impl QueryContext {
    /// Context from a keyword search.
    pub fn keywords<I, S>(keywords: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        QueryContext {
            keywords: keywords.into_iter().map(Into::into).collect(),
            category: None,
        }
    }

    /// How relevant `item` is to this context, in `[0, 1]`-ish range.
    /// 1.0 for an empty context; 0.0 for a category mismatch.
    pub fn relevance(&self, item: &Merchandise) -> f64 {
        if let Some(cat) = &self.category {
            if &item.category != cat {
                return 0.0;
            }
        }
        if self.keywords.is_empty() {
            1.0
        } else {
            // keyword_score is unbounded above; squash softly
            let s = item.keyword_score(&self.keywords);
            s / (1.0 + s)
        }
    }
}

/// One ranked recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Recommended item.
    pub item: ItemId,
    /// Relative score (higher is better; scales differ per recommender).
    pub score: f64,
}

/// A recommendation strategy over the shared store.
pub trait Recommender {
    /// Short stable name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Produce up to `k` recommendations for `user` in `context`,
    /// best first. Items the user already purchased are excluded.
    fn recommend(
        &self,
        store: &RecommendStore,
        user: ConsumerId,
        context: &QueryContext,
        k: usize,
    ) -> Vec<Recommendation>;
}

fn rank(mut scored: Vec<Recommendation>, k: usize) -> Vec<Recommendation> {
    scored.retain(|r| r.score > 0.0);
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.item.cmp(&b.item))
    });
    scored.truncate(k);
    scored
}

/// Candidate items: known catalog minus the user's past purchases,
/// filtered by context category.
fn candidates<'a>(
    store: &'a RecommendStore,
    user: ConsumerId,
    context: &'a QueryContext,
) -> impl Iterator<Item = &'a Merchandise> {
    let owned = store.purchased_by(user);
    store.catalog().iter().filter(move |m| {
        !owned.contains(&m.id)
            && context
                .category
                .as_ref()
                .map(|c| &m.category == c)
                .unwrap_or(true)
    })
}

/// Non-personalized "top overall sellers" baseline (§2.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct TopSellerRecommender;

impl Recommender for TopSellerRecommender {
    fn name(&self) -> &'static str {
        "top-seller"
    }

    fn recommend(
        &self,
        store: &RecommendStore,
        user: ConsumerId,
        context: &QueryContext,
        k: usize,
    ) -> Vec<Recommendation> {
        let scored = candidates(store, user, context)
            .map(|m| Recommendation {
                item: m.id,
                score: store.units_sold(m.id) as f64 * context.relevance(m).max(0.01),
            })
            .collect();
        rank(scored, k)
    }
}

/// Uniform pseudo-random floor baseline (deterministic in `(seed, user,
/// item)`).
#[derive(Debug, Clone, Copy)]
pub struct RandomRecommender {
    /// Seed mixed into every score.
    pub seed: u64,
}

impl Recommender for RandomRecommender {
    fn name(&self) -> &'static str {
        "random"
    }

    fn recommend(
        &self,
        store: &RecommendStore,
        user: ConsumerId,
        context: &QueryContext,
        k: usize,
    ) -> Vec<Recommendation> {
        let scored = candidates(store, user, context)
            .map(|m| {
                let mut h = self.seed ^ user.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h ^= m.id.0.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
                h ^= h >> 31;
                Recommendation {
                    item: m.id,
                    score: (h % 10_000) as f64 / 10_000.0 + 1e-4,
                }
            })
            .collect();
        rank(scored, k)
    }
}

/// Pure information filtering: the consumer's own profile against item
/// content (§2.3 IF).
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentRecommender;

impl Recommender for ContentRecommender {
    fn name(&self) -> &'static str {
        "content-if"
    }

    fn recommend(
        &self,
        store: &RecommendStore,
        user: ConsumerId,
        context: &QueryContext,
        k: usize,
    ) -> Vec<Recommendation> {
        let Some(profile) = store.profile(user) else {
            // Cold-start consumer: fall back to context relevance alone.
            let scored = candidates(store, user, context)
                .map(|m| Recommendation {
                    item: m.id,
                    score: context.relevance(m),
                })
                .collect();
            return rank(scored, k);
        };
        let scored = candidates(store, user, context)
            .map(|m| {
                let affinity = profile.affinity(&m.category, &m.terms);
                Recommendation {
                    item: m.id,
                    score: affinity * (0.2 + context.relevance(m)),
                }
            })
            .collect();
        rank(scored, k)
    }
}

/// Pure collaborative filtering: user-kNN prediction over observational
/// ratings (§2.3 CF).
#[derive(Debug, Clone, Copy)]
pub struct CfRecommender {
    /// Neighbourhood size.
    pub k_neighbours: usize,
    /// Minimum co-rated items for a neighbour to count.
    pub min_overlap: usize,
}

impl Default for CfRecommender {
    fn default() -> Self {
        CfRecommender {
            k_neighbours: 20,
            min_overlap: 2,
        }
    }
}

impl Recommender for CfRecommender {
    fn name(&self) -> &'static str {
        "cf-knn"
    }

    fn recommend(
        &self,
        store: &RecommendStore,
        user: ConsumerId,
        context: &QueryContext,
        k: usize,
    ) -> Vec<Recommendation> {
        let ratings = store.ratings();
        let scored = candidates(store, user, context)
            .filter_map(|m| {
                // skip items the user already rated at full strength
                let prediction =
                    ratings.predict(user, m.id, self.k_neighbours, self.min_overlap)?;
                Some(Recommendation {
                    item: m.id,
                    score: prediction * (0.2 + context.relevance(m)),
                })
            })
            .collect();
        rank(scored, k)
    }
}

/// The paper's mechanism (§4.3.1 + §4.4): collaborative filtering over
/// *profiles* combined with content matching against the queried
/// merchandise information.
///
/// 1. Find the `k_neighbours` consumers most similar to the target by
///    profile similarity (with the Fig 4.5 threshold-discard rule).
/// 2. Collect the neighbours' merchandise preferences (their observed
///    ratings), weighted by neighbour similarity.
/// 3. Score each candidate by neighbour preference *and* content match
///    (the consumer's own profile affinity and the query context).
/// 4. With no usable neighbours, degrade gracefully to content-only —
///    inheriting IF's independence from other users. For a *completely
///    cold* consumer (no profile at all) the collaborative term falls
///    back to normalized popularity — §2.3's "top overall sellers"
///    basis, the only signal available at that point.
#[derive(Debug, Clone, Copy)]
pub struct HybridRecommender {
    /// Neighbourhood size for the profile-similarity step.
    pub k_neighbours: usize,
    /// Profile-similarity configuration (method, discard threshold).
    pub similarity: SimilarityConfig,
    /// Weight of the collaborative term vs the content term.
    pub collaborative_weight: f64,
}

impl Default for HybridRecommender {
    fn default() -> Self {
        HybridRecommender {
            k_neighbours: 10,
            similarity: SimilarityConfig::default(),
            collaborative_weight: 0.7,
        }
    }
}

impl HybridRecommender {
    /// Reference implementation running the neighbour step as a full
    /// scan ([`nearest_neighbours`] over every profile, re-flattening
    /// each) instead of through the store's index. Output is identical
    /// to [`Recommender::recommend`]; kept for equivalence tests and
    /// benchmarks.
    pub fn recommend_naive(
        &self,
        store: &RecommendStore,
        user: ConsumerId,
        context: &QueryContext,
        k: usize,
    ) -> Vec<Recommendation> {
        let neighbours = match store.profile(user) {
            Some(p) => nearest_neighbours(
                p,
                store.profiles().filter(|(id, _)| *id != user),
                &self.similarity,
                self.k_neighbours,
            ),
            None => Vec::new(),
        };
        self.recommend_with_neighbours(store, user, context, k, &neighbours)
    }

    /// Steps 2–4 of the mechanism, given the step-1 neighbour list.
    fn recommend_with_neighbours(
        &self,
        store: &RecommendStore,
        user: ConsumerId,
        context: &QueryContext,
        k: usize,
        neighbours: &[(ConsumerId, f64)],
    ) -> Vec<Recommendation> {
        let own_profile = store.profile(user);
        // Step 2: neighbours' merchandise preferences, similarity-weighted.
        let mut collab: BTreeMap<u64, f64> = BTreeMap::new();
        let mut total_sim = 0.0;
        for (nid, sim) in neighbours {
            total_sim += sim;
            for (item, rating) in store.ratings().user_ratings(*nid) {
                *collab.entry(item.0).or_insert(0.0) += sim * rating;
            }
        }
        if total_sim > 0.0 {
            for v in collab.values_mut() {
                *v /= total_sim;
            }
        }
        // Step 3: combine with the queried merchandise information. A
        // fully cold consumer has neither neighbours nor affinity; use
        // popularity as the collaborative stand-in so the mechanism
        // still says something useful on day one.
        let cold = own_profile.map(|p| p.is_empty()).unwrap_or(true) && neighbours.is_empty();
        let max_sales = if cold {
            store
                .catalog()
                .iter()
                .map(|m| store.units_sold(m.id))
                .max()
                .unwrap_or(0)
                .max(1) as f64
        } else {
            1.0
        };
        let cw = self.collaborative_weight.clamp(0.0, 1.0);
        let score_one = |m: &Merchandise| {
            let collaborative = if cold {
                store.units_sold(m.id) as f64 / max_sales
            } else {
                collab.get(&m.id.0).copied().unwrap_or(0.0)
            };
            let affinity = own_profile
                .map(|p| {
                    let a = p.affinity(&m.category, &m.terms);
                    a / (1.0 + a)
                })
                .unwrap_or(0.0);
            let content = 0.5 * affinity + 0.5 * context.relevance(m);
            let score = cw * collaborative + (1.0 - cw) * content;
            Recommendation { item: m.id, score }
        };
        let scored = candidates(store, user, context).map(score_one).collect();
        rank(scored, k)
    }
}

impl Recommender for HybridRecommender {
    fn name(&self) -> &'static str {
        "hybrid-abcrm"
    }

    fn recommend(
        &self,
        store: &RecommendStore,
        user: ConsumerId,
        context: &QueryContext,
        k: usize,
    ) -> Vec<Recommendation> {
        // Step 1: similar users — served from the store's posting-list
        // index and flat-profile cache (identical to the full scan the
        // naive path runs; see `RecommendStore::nearest_neighbours`).
        let neighbours = store.nearest_neighbours(user, &self.similarity, self.k_neighbours);
        self.recommend_with_neighbours(store, user, context, k, &neighbours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learning::BehaviorKind;
    use ecp::merchandise::Money;
    use ecp::terms::TermVector;

    fn merch(id: u64, name: &str, cat: &str, sub: &str) -> Merchandise {
        Merchandise {
            id: ItemId(id),
            name: name.into(),
            category: CategoryPath::new(cat, sub),
            terms: TermVector::from_pairs([(name.to_lowercase(), 1.0), (sub.to_string(), 0.5)]),
            list_price: Money::from_units(10),
            seller: 1,
        }
    }

    /// Store with two taste clusters: users 1-3 buy programming books,
    /// users 4-6 buy jazz records. Item 10 (a programming book) is bought
    /// by users 2,3 but not by user 1.
    fn clustered_store() -> RecommendStore {
        let mut s = RecommendStore::new();
        for id in 1..=9 {
            s.upsert_item(merch(id, &format!("rustbook{id}"), "books", "programming"));
        }
        s.upsert_item(merch(10, "rustbook10", "books", "programming"));
        for id in 11..=20 {
            s.upsert_item(merch(id, &format!("jazzrecord{id}"), "music", "jazz"));
        }
        for user in 1..=3u64 {
            for item in 1..=9u64 {
                if (item + user) % 3 != 0 {
                    s.record_event(ConsumerId(user), ItemId(item), BehaviorKind::Purchase);
                }
            }
        }
        // item 10 liked by user 1's cluster-mates
        s.record_event(ConsumerId(2), ItemId(10), BehaviorKind::Purchase);
        s.record_event(ConsumerId(3), ItemId(10), BehaviorKind::Purchase);
        for user in 4..=6u64 {
            for item in 11..=20u64 {
                if (item + user) % 3 != 0 {
                    s.record_event(ConsumerId(user), ItemId(item), BehaviorKind::Purchase);
                }
            }
        }
        s
    }

    #[test]
    fn hybrid_recommends_cluster_mates_items() {
        let s = clustered_store();
        let recs =
            HybridRecommender::default().recommend(&s, ConsumerId(1), &QueryContext::default(), 5);
        assert!(!recs.is_empty());
        let items: Vec<ItemId> = recs.iter().map(|r| r.item).collect();
        assert!(
            items.contains(&ItemId(10)),
            "item 10 is loved by user 1's neighbours: {items:?}"
        );
        // nothing from the jazz cluster should outrank programming books
        assert!(
            items[0].0 <= 10,
            "top item must be a programming book: {items:?}"
        );
    }

    #[test]
    fn hybrid_excludes_already_purchased() {
        let s = clustered_store();
        let owned = s.purchased_by(ConsumerId(1));
        let recs =
            HybridRecommender::default().recommend(&s, ConsumerId(1), &QueryContext::default(), 20);
        assert!(recs.iter().all(|r| !owned.contains(&r.item)));
    }

    #[test]
    fn hybrid_cold_start_user_degrades_to_context() {
        let s = clustered_store();
        // user 99 has no profile at all; with keywords they still get
        // relevant items (IF-style independence)
        let recs = HybridRecommender::default().recommend(
            &s,
            ConsumerId(99),
            &QueryContext::keywords(["jazzrecord11"]),
            3,
        );
        assert!(
            !recs.is_empty(),
            "cold-start with context must still produce output"
        );
        assert_eq!(recs[0].item, ItemId(11));
    }

    #[test]
    fn cf_fails_cold_start_but_content_does_not() {
        let mut s = clustered_store();
        // brand-new item nobody rated
        s.upsert_item(merch(50, "rustbook50", "books", "programming"));
        let cf =
            CfRecommender::default().recommend(&s, ConsumerId(1), &QueryContext::default(), 50);
        assert!(
            cf.iter().all(|r| r.item != ItemId(50)),
            "CF cannot recommend an unrated item (§2.3 cold-start)"
        );
        let content = ContentRecommender.recommend(&s, ConsumerId(1), &QueryContext::default(), 50);
        assert!(
            content.iter().any(|r| r.item == ItemId(50)),
            "IF matches new content without ratings (§2.3)"
        );
    }

    #[test]
    fn content_matches_own_taste() {
        let s = clustered_store();
        let recs = ContentRecommender.recommend(&s, ConsumerId(1), &QueryContext::default(), 5);
        assert!(!recs.is_empty());
        // user 1 only ever bought programming books
        for r in &recs {
            let m = s.catalog().get(r.item).unwrap();
            assert_eq!(
                m.category.category, "books",
                "IF must stay in the user's taste"
            );
        }
    }

    #[test]
    fn top_seller_is_unpersonalized() {
        let s = clustered_store();
        let a = TopSellerRecommender.recommend(&s, ConsumerId(99), &QueryContext::default(), 3);
        let b = TopSellerRecommender.recommend(&s, ConsumerId(100), &QueryContext::default(), 3);
        assert_eq!(a, b, "top-seller output must not depend on the user");
        assert!(!a.is_empty());
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let s = clustered_store();
        let r1 =
            RandomRecommender { seed: 7 }.recommend(&s, ConsumerId(1), &QueryContext::default(), 5);
        let r2 =
            RandomRecommender { seed: 7 }.recommend(&s, ConsumerId(1), &QueryContext::default(), 5);
        assert_eq!(r1, r2);
        let r3 =
            RandomRecommender { seed: 8 }.recommend(&s, ConsumerId(1), &QueryContext::default(), 5);
        assert_ne!(r1, r3, "different seed should reshuffle");
    }

    #[test]
    fn category_filter_excludes_other_categories() {
        let s = clustered_store();
        let ctx = QueryContext {
            keywords: vec![],
            category: Some(CategoryPath::new("music", "jazz")),
        };
        for rec in [
            HybridRecommender::default().recommend(&s, ConsumerId(1), &ctx, 10),
            ContentRecommender.recommend(&s, ConsumerId(4), &ctx, 10),
            TopSellerRecommender.recommend(&s, ConsumerId(1), &ctx, 10),
        ] {
            for r in rec {
                assert_eq!(s.catalog().get(r.item).unwrap().category.category, "music");
            }
        }
    }

    #[test]
    fn k_truncates_output() {
        let s = clustered_store();
        let recs =
            HybridRecommender::default().recommend(&s, ConsumerId(1), &QueryContext::default(), 2);
        assert!(recs.len() <= 2);
    }

    #[test]
    fn context_relevance_squashes_and_filters() {
        let m = merch(1, "rustbook", "books", "programming");
        let ctx = QueryContext::keywords(["rustbook"]);
        let r = ctx.relevance(&m);
        assert!(r > 0.0 && r <= 1.0);
        let wrong_cat = QueryContext {
            keywords: vec![],
            category: Some(CategoryPath::new("music", "jazz")),
        };
        assert_eq!(wrong_cat.relevance(&m), 0.0);
        assert_eq!(QueryContext::default().relevance(&m), 1.0);
    }
}
