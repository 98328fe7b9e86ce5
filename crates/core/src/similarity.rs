//! Consumer similarity — the paper's Fig 4.5 similarity step.
//!
//! §4.4: *"The generation of recommendation information is to find the
//! similar user's profile through the similarity. If Consumer X's
//! preference merchandise item value Tx different from other consumer Y's
//! preference merchandise item value Ty, the similarity result will be
//! discard. The higher similarity value means that consumer X is more
//! similar to consumer Y."*
//!
//! Implemented as vector similarity over flattened profiles with the
//! paper's *threshold discard*: term pairs whose weights disagree by more
//! than a relative threshold are excluded from the comparison, and if too
//! little evidence survives the pair of consumers is discarded entirely
//! (similarity 0). Cosine is the default; Pearson and Jaccard are
//! provided for the CF baselines and the ablation (E10).

use crate::profile::Profile;
use ecp::terms::TermVector;
use serde::{Deserialize, Serialize};

/// Similarity measure over term/rating vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimilarityMethod {
    /// Cosine of the angle between weight vectors (default).
    Cosine,
    /// Pearson correlation over co-occurring terms.
    Pearson,
    /// Jaccard overlap of term sets (ignores weights).
    Jaccard,
}

/// Configuration of profile similarity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimilarityConfig {
    /// Vector measure.
    pub method: SimilarityMethod,
    /// Fig 4.5 discard rule: a shared term whose weights differ by more
    /// than this *relative* factor (larger/smaller > threshold) is
    /// dropped from the comparison. `None` disables the rule.
    pub discard_threshold: Option<f64>,
    /// Minimum number of surviving shared terms for the pair to count at
    /// all; fewer ⇒ similarity 0 ("the similarity result will be
    /// discard").
    pub min_overlap: usize,
    /// Neighbour admission cutoff: [`nearest_neighbours`] keeps only
    /// candidates with similarity strictly above this floor. The default
    /// `0.0` reproduces the historical behaviour (positive similarity
    /// only). A negative floor admits anticorrelated neighbours under
    /// [`SimilarityMethod::Pearson`] — note that this makes the store
    /// score every indexed consumer: posting-list pruning, the cosine
    /// score bound and LSH are only lossless or sound when
    /// zero-similarity candidates are filtered out. A positive floor
    /// lets the cosine bound drop every candidate that cannot clear it
    /// unscored.
    #[serde(default)]
    pub neighbour_floor: f64,
    /// Approximate neighbour search: `Some` *allows* the store's
    /// `nearest_neighbours`/`recommend` to answer a query from the
    /// random-hyperplane LSH index of [`crate::ann`] with these
    /// parameters (candidates from hash buckets, re-ranked with the exact
    /// measure), trading a measured sliver of recall for sublinear
    /// candidate generation. It does not force it: the store's planner
    /// answers the cosine from the exact score-bounded source whatever
    /// this says (see
    /// [`crate::store::RecommendStore::neighbour_source`]); Pearson and
    /// Jaccard, which have no bound, take LSH when it is allowed. The
    /// index is built when the planner first picks it. `None` (the
    /// default) keeps every query exact — and byte-identical results.
    /// Ignored when `neighbour_floor` is negative: ANN candidate
    /// generation, like posting-list pruning, is only sound when
    /// zero-similarity candidates are filtered out.
    #[serde(default)]
    pub ann: Option<crate::ann::AnnConfig>,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            method: SimilarityMethod::Cosine,
            discard_threshold: Some(4.0),
            min_overlap: 1,
            neighbour_floor: 0.0,
            ann: None,
        }
    }
}

impl SimilarityConfig {
    /// Resolve an unset ANN hash seed from `platform_seed` (no-op when
    /// ANN is off or a seed was given explicitly) — called by the
    /// platform builders so the whole simulation, hyperplanes included,
    /// derives from one seed.
    pub fn with_ann_seed(mut self, platform_seed: u64) -> Self {
        if let Some(ann) = self.ann {
            self.ann = Some(ann.resolve_seed(platform_seed));
        }
        self
    }
}

/// Compute similarity between two raw term vectors under `config`.
///
/// Shared terms are taken in `a`'s term order; the re-rank kernel of
/// [`crate::ann`] takes them in the same order from term-ordered slot
/// rows and hands them to the same [`measure`], so it is bit-identical
/// to this function with the target as `a`.
pub fn vector_similarity(a: &TermVector, b: &TermVector, config: &SimilarityConfig) -> f64 {
    // `intersection` counts every shared term, surviving or not: Jaccard
    // is about term *sets*, so the discard rule shrinks its numerator
    // (evidence), not its universe.
    let mut shared: Vec<(f64, f64)> = Vec::new();
    let mut intersection = 0usize;
    for (t, wa) in a.iter() {
        let wb = b.weight(t);
        if wb <= 0.0 {
            continue;
        }
        intersection += 1;
        if !discarded(wa, wb, config) {
            shared.push((wa, wb));
        }
    }
    measure(
        &shared,
        intersection,
        (a.len(), b.len()),
        || a.norm() * b.norm(),
        config,
    )
}

/// The Fig 4.5 discard rule: a shared term whose larger weight is more
/// than the threshold times the smaller is dropped ("Tx too different
/// from Ty").
pub(crate) fn discarded(wa: f64, wb: f64, config: &SimilarityConfig) -> bool {
    config.discard_threshold.is_some_and(|threshold| {
        let ratio = if wa >= wb { wa / wb } else { wb / wa };
        ratio > threshold
    })
}

/// The configured measure over the surviving shared `(a, b)` weight
/// pairs, in the order given. `intersection` counts every shared term,
/// discarded or not; `lens` are the two vectors' term counts and
/// `norm_product` yields the product of their norms (asked for only by
/// the cosine).
pub(crate) fn measure(
    shared: &[(f64, f64)],
    intersection: usize,
    lens: (usize, usize),
    norm_product: impl FnOnce() -> f64,
    config: &SimilarityConfig,
) -> f64 {
    if shared.len() < config.min_overlap {
        return 0.0; // too little evidence: "the similarity result will be discard"
    }
    match config.method {
        SimilarityMethod::Cosine => {
            // Norms over the full vectors, dot over surviving pairs: a
            // consumer with many unshared interests is less similar.
            let dot: f64 = shared.iter().map(|(x, y)| x * y).sum();
            let denom = norm_product();
            if denom == 0.0 {
                0.0
            } else {
                (dot / denom).clamp(0.0, 1.0)
            }
        }
        SimilarityMethod::Pearson => {
            let n = shared.len() as f64;
            if shared.len() < 2 {
                return 0.0;
            }
            let mean_x = shared.iter().map(|(x, _)| x).sum::<f64>() / n;
            let mean_y = shared.iter().map(|(_, y)| y).sum::<f64>() / n;
            let mut cov = 0.0;
            let mut var_x = 0.0;
            let mut var_y = 0.0;
            for (x, y) in shared {
                cov += (x - mean_x) * (y - mean_y);
                var_x += (x - mean_x).powi(2);
                var_y += (y - mean_y).powi(2);
            }
            let denom = (var_x * var_y).sqrt();
            if denom == 0.0 {
                0.0
            } else {
                (cov / denom).clamp(-1.0, 1.0)
            }
        }
        SimilarityMethod::Jaccard => {
            // |A ∪ B| = |A| + |B| − |A ∩ B| over *all* shared terms —
            // using the post-discard survivor count here would inflate
            // the union and deflate every Jaccard score.
            let union = lens.0 + lens.1 - intersection;
            if union == 0 {
                0.0
            } else {
                shared.len() as f64 / union as f64
            }
        }
    }
}

/// Similarity between two consumer profiles: the configured measure over
/// their flattened (category-namespaced) term vectors.
pub fn profile_similarity(a: &Profile, b: &Profile, config: &SimilarityConfig) -> f64 {
    vector_similarity(&a.flatten(), &b.flatten(), config)
}

/// Rank `candidates` by similarity to `target`, keeping only candidates
/// strictly above [`SimilarityConfig::neighbour_floor`] (by default,
/// dropping discarded zero-similarity pairs), best first, at most `k`.
///
/// This is the reference full-scan implementation; the store's
/// [`crate::store::RecommendStore::nearest_neighbours`] serves the same
/// answer from its posting-list index.
pub fn nearest_neighbours<'a, I>(
    target: &Profile,
    candidates: I,
    config: &SimilarityConfig,
    k: usize,
) -> Vec<(crate::profile::ConsumerId, f64)>
where
    I: IntoIterator<Item = (crate::profile::ConsumerId, &'a Profile)>,
{
    let flat = target.flatten();
    let mut scored: Vec<(crate::profile::ConsumerId, f64)> = candidates
        .into_iter()
        .map(|(id, p)| (id, vector_similarity(&flat, &p.flatten(), config)))
        .filter(|(_, s)| *s > config.neighbour_floor)
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ConsumerId;

    fn profile(pairs: &[(&str, &str, &str, f64)]) -> Profile {
        // (category, sub, term, weight)
        let mut p = Profile::new();
        for (cat, sub, term, w) in pairs {
            p.category_mut(cat).sub_mut(sub).set(*term, *w);
        }
        p
    }

    #[test]
    fn identical_profiles_are_maximally_similar() {
        let a = profile(&[
            ("books", "prog", "rust", 1.0),
            ("music", "jazz", "sax", 0.5),
        ]);
        let s = profile_similarity(&a, &a.clone(), &SimilarityConfig::default());
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_profiles_have_zero_similarity() {
        let a = profile(&[("books", "prog", "rust", 1.0)]);
        let b = profile(&[("garden", "tools", "spade", 1.0)]);
        assert_eq!(
            profile_similarity(&a, &b, &SimilarityConfig::default()),
            0.0
        );
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = profile(&[("books", "prog", "rust", 1.0), ("books", "prog", "go", 0.4)]);
        let b = profile(&[
            ("books", "prog", "rust", 0.7),
            ("music", "jazz", "sax", 1.0),
        ]);
        let cfg = SimilarityConfig::default();
        assert!(
            (profile_similarity(&a, &b, &cfg) - profile_similarity(&b, &a, &cfg)).abs() < 1e-12
        );
    }

    #[test]
    fn discard_rule_drops_wildly_different_term_values() {
        let a = profile(&[("books", "prog", "rust", 10.0)]);
        let b = profile(&[("books", "prog", "rust", 1.0)]);
        let strict = SimilarityConfig {
            discard_threshold: Some(2.0),
            ..SimilarityConfig::default()
        };
        assert_eq!(
            profile_similarity(&a, &b, &strict),
            0.0,
            "Tx=10 vs Ty=1 exceeds the threshold: pair discarded"
        );
        let lax = SimilarityConfig {
            discard_threshold: None,
            ..SimilarityConfig::default()
        };
        assert!(profile_similarity(&a, &b, &lax) > 0.0);
    }

    #[test]
    fn min_overlap_discards_thin_evidence() {
        let a = profile(&[("books", "prog", "rust", 1.0), ("books", "prog", "go", 1.0)]);
        let b = profile(&[
            ("books", "prog", "rust", 1.0),
            ("music", "jazz", "sax", 1.0),
        ]);
        let cfg = SimilarityConfig {
            min_overlap: 2,
            ..SimilarityConfig::default()
        };
        assert_eq!(profile_similarity(&a, &b, &cfg), 0.0);
        let cfg1 = SimilarityConfig {
            min_overlap: 1,
            ..SimilarityConfig::default()
        };
        assert!(profile_similarity(&a, &b, &cfg1) > 0.0);
    }

    #[test]
    fn more_shared_interest_means_higher_similarity() {
        let target = profile(&[
            ("books", "prog", "rust", 1.0),
            ("books", "prog", "go", 1.0),
            ("music", "jazz", "sax", 1.0),
        ]);
        let close = profile(&[
            ("books", "prog", "rust", 1.0),
            ("books", "prog", "go", 1.0),
            ("music", "jazz", "sax", 0.8),
        ]);
        let far = profile(&[("books", "prog", "rust", 1.0), ("garden", "t", "x", 3.0)]);
        let cfg = SimilarityConfig::default();
        assert!(
            profile_similarity(&target, &close, &cfg) > profile_similarity(&target, &far, &cfg)
        );
    }

    #[test]
    fn jaccard_ignores_weights() {
        let a = TermVector::from_pairs([("x", 100.0), ("y", 1.0)]);
        let b = TermVector::from_pairs([("x", 0.1), ("z", 1.0)]);
        let cfg = SimilarityConfig {
            method: SimilarityMethod::Jaccard,
            discard_threshold: None,
            min_overlap: 1,
            ..SimilarityConfig::default()
        };
        // shared {x}, union {x,y,z}
        assert!((vector_similarity(&a, &b, &cfg) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_union_ignores_the_discard_rule() {
        // Shared terms {x, y}; y's weights differ 10:1 and are discarded
        // as evidence, but y is still a shared *term*: the union is
        // {x, y, w} (3), not |a| + |b| − survivors = 2 + 3 − 1 = 4.
        let a = TermVector::from_pairs([("x", 1.0), ("y", 10.0)]);
        let b = TermVector::from_pairs([("x", 1.0), ("y", 1.0), ("w", 1.0)]);
        let cfg = SimilarityConfig {
            method: SimilarityMethod::Jaccard,
            discard_threshold: Some(2.0),
            min_overlap: 1,
            ..SimilarityConfig::default()
        };
        assert!((vector_similarity(&a, &b, &cfg) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn negative_neighbour_floor_admits_anticorrelated_pearson_neighbours() {
        let target = profile(&[
            ("b", "p", "x", 1.0),
            ("b", "p", "y", 2.0),
            ("b", "p", "z", 3.0),
        ]);
        let opposite = profile(&[
            ("b", "p", "x", 3.0),
            ("b", "p", "y", 2.0),
            ("b", "p", "z", 1.0),
        ]);
        let cfg = SimilarityConfig {
            method: SimilarityMethod::Pearson,
            discard_threshold: None,
            min_overlap: 2,
            ..SimilarityConfig::default()
        };
        let candidates = vec![(ConsumerId(1), &opposite)];
        assert!(
            nearest_neighbours(&target, candidates.clone(), &cfg, 5).is_empty(),
            "default floor 0.0 keeps only positive similarity"
        );
        // floor below −1 so even perfect anticorrelation (exactly −1.0)
        // passes the strict `>` filter
        let open = SimilarityConfig {
            neighbour_floor: -1.5,
            ..cfg
        };
        let nn = nearest_neighbours(&target, candidates, &open, 5);
        assert_eq!(nn.len(), 1);
        assert!(
            nn[0].1 < 0.0,
            "anticorrelated neighbour admitted: {}",
            nn[0].1
        );
    }

    #[test]
    fn pearson_detects_anticorrelation() {
        let a = TermVector::from_pairs([("x", 1.0), ("y", 2.0), ("z", 3.0)]);
        let b = TermVector::from_pairs([("x", 3.0), ("y", 2.0), ("z", 1.0)]);
        let cfg = SimilarityConfig {
            method: SimilarityMethod::Pearson,
            discard_threshold: None,
            min_overlap: 2,
            ..SimilarityConfig::default()
        };
        assert!(vector_similarity(&a, &b, &cfg) < 0.0);
    }

    #[test]
    fn nearest_neighbours_ranks_and_truncates() {
        let target = profile(&[("books", "prog", "rust", 1.0)]);
        let n1 = profile(&[("books", "prog", "rust", 1.0)]);
        let n2 = profile(&[("books", "prog", "rust", 0.9), ("music", "j", "s", 2.0)]);
        let n3 = profile(&[("garden", "t", "x", 1.0)]);
        let candidates = vec![
            (ConsumerId(1), &n1),
            (ConsumerId(2), &n2),
            (ConsumerId(3), &n3),
        ];
        let cfg = SimilarityConfig::default();
        let nn = nearest_neighbours(&target, candidates.clone(), &cfg, 10);
        assert_eq!(nn.len(), 2, "disjoint candidate discarded");
        assert_eq!(nn[0].0, ConsumerId(1));
        let nn1 = nearest_neighbours(&target, candidates, &cfg, 1);
        assert_eq!(nn1.len(), 1);
    }

    #[test]
    fn empty_profiles_never_match() {
        let empty = Profile::new();
        let full = profile(&[("books", "prog", "rust", 1.0)]);
        let cfg = SimilarityConfig::default();
        assert_eq!(profile_similarity(&empty, &full, &cfg), 0.0);
        assert_eq!(profile_similarity(&empty, &empty.clone(), &cfg), 0.0);
    }
}
