//! Neighbour search over the slot rows of [`crate::index::ProfileIndex`]:
//! the candidate sources (exact posting lists, a score-bounded cosine
//! pass, or the LSH tier) and the one re-rank kernel they all feed.
//! [`crate::store::RecommendStore::nearest_neighbours`] picks a source per
//! query (see [`crate::store::NeighbourSource`]).
//!
//! The posting-list union scores every consumer sharing at least one term
//! with the target; with broad shared vocabulary that candidate set grows
//! linearly with the population. Two sources score fewer rows:
//!
//! * [`bounded_cosine`] — exact top-k for the cosine in the MaxScore/WAND
//!   family: one term-at-a-time pass over the target's weighted posting
//!   lists sums every candidate's full shared dot product, which divided
//!   by the two norms bounds its score from above; candidates are
//!   exact-scored in descending bound order until the next bound falls
//!   below the current `k`-th score.
//! * [`AnnConfig`] — the `SimilarityConfig::ann` parameters of the LSH
//!   tier, which trades a measured sliver of recall for sublinear
//!   candidate generation: random-hyperplane LSH with tunable signature
//!   width (`bits`), table count (`tables`) and multiprobe depth
//!   (`probes`). Hash seeds derive from the platform seed (see
//!   [`AnnConfig::resolve_seed`]), so the whole structure is a
//!   deterministic function of `(profiles, config)`.
//! * [`LshIndex`] — multi-table signature buckets over the slots of
//!   [`crate::index::ProfileIndex`], maintained incrementally: a Fig 4.5
//!   feedback delta re-hashes the consumer's signature from its
//!   already-maintained row (no re-flatten) and moves the slot only
//!   between the buckets whose signature actually changed. Empty rows are
//!   never bucketed: they score `0.0` against everyone.
//! * [`exact_candidates`] — the exact path's candidates: the posting-list
//!   union of the target's terms (or, under a negative neighbour floor,
//!   every live slot), deduplicated like the LSH probe's.
//! * [`rerank`] — the kernel: the target's row is scattered once into a
//!   vocabulary-indexed weight array, then each candidate is scored in
//!   one linear pass over its slot row (no map lookups, no string
//!   compares, no per-candidate allocation), composing with the
//!   `parallel` feature's deterministic block fan-out. Rows are in term
//!   order, so shared terms come out in the order
//!   [`crate::similarity::vector_similarity`] visits them and one
//!   [`crate::similarity::measure`] sums them: every score, from any
//!   source, is bit-identical to that function's.
//!
//! Because the ANN path re-ranks with the exact measure and the neighbour
//! floor filter, its results are always a subset of the exact scan's,
//! with equal scores — the index can only *miss* neighbours, never invent
//! them. `tests/ann.rs` and the property suite hold it to a measured
//! recall floor; the bounded source misses none.

use crate::index::{top_k, ProfileIndex, SlotRow, TopK};
use crate::similarity::{discarded, measure, SimilarityConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fixed fallback hash seed used when neither the config nor a platform
/// seed supplies one (`seed == 0`).
const DEFAULT_ANN_SEED: u64 = 0xabc0_4a11_5eed_0001;

/// Configuration of the approximate neighbour index — the
/// [`SimilarityConfig::ann`] knob. `None` keeps every query exact; `Some`
/// allows the store's per-query planner to answer Pearson and Jaccard
/// queries from an LSH index with these parameters (the cosine always
/// takes the exact bounded source; the exact path remains the test
/// oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnConfig {
    /// Hyperplanes per table = signature bits (1..=32). More bits ⇒
    /// smaller buckets ⇒ faster queries, lower recall per table.
    pub bits: u8,
    /// Number of independent hash tables. More tables ⇒ higher recall,
    /// proportionally more memory and per-update hashing.
    pub tables: u8,
    /// Extra buckets probed per table at query time (single-bit flips of
    /// the signature, least-confident bit first). More probes ⇒ higher
    /// recall without extra tables.
    pub probes: u8,
    /// Hyperplane hash seed. `0` means "derive": the platform builders
    /// replace it with a value derived from the platform seed, and
    /// stand-alone stores fall back to a fixed constant — either way the
    /// index is deterministic.
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        AnnConfig {
            bits: 16,
            tables: 8,
            probes: 8,
            seed: 0,
        }
    }
}

impl AnnConfig {
    /// The effective hyperplane seed: the explicit seed, or the fixed
    /// fallback when unset.
    pub fn resolved_seed(&self) -> u64 {
        if self.seed == 0 {
            DEFAULT_ANN_SEED
        } else {
            self.seed
        }
    }

    /// Derive the hash seed from a platform seed when none was set
    /// explicitly — same platform seed, same buckets.
    pub fn resolve_seed(mut self, platform_seed: u64) -> Self {
        if self.seed == 0 {
            let derived = splitmix64(platform_seed ^ DEFAULT_ANN_SEED);
            self.seed = if derived == 0 {
                DEFAULT_ANN_SEED
            } else {
                derived
            };
        }
        self
    }

    fn bits(&self) -> u32 {
        u32::from(self.bits).clamp(1, 32)
    }

    fn tables(&self) -> usize {
        usize::from(self.tables).max(1)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the term bytes, mixed with the index seed — one string
/// hash per term, from which every table's hyperplane signs derive.
fn term_hash(seed: u64, term: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in term.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 64 hyperplane component signs for `(term, table)` — bit `b` set means
/// hyperplane `b` has a `+1` component for this term, clear means `-1`.
fn sign_word(th: u64, table: usize) -> u64 {
    splitmix64(th ^ (table as u64).wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// Random-hyperplane LSH over flattened profile vectors: per table, a
/// consumer's slot lands in the bucket keyed by the sign pattern of its
/// vector projected on `bits` pseudo-random ±1 hyperplanes.
/// Cosine-similar vectors agree on most signs and collide in at least
/// one table with high probability.
#[derive(Debug, Clone)]
pub(crate) struct LshIndex {
    cfg: AnnConfig,
    /// Slot-indexed signatures, `tables` words per slot; meaningful only
    /// where `linked` is set.
    sigs: Vec<u32>,
    /// Whether each slot sits in the buckets (empty rows do not).
    linked: Vec<bool>,
    /// Per-table `signature → slots` buckets. Members are unordered
    /// (`swap_remove` on unlink); the probe deduplicates the union.
    buckets: Vec<HashMap<u32, Vec<u32>>>,
}

/// Reusable per-store query scratch: the probe's projections and flip
/// order, the candidate set, the bounded source's dot-product
/// accumulator and bound list, and the re-rank's dense weight array and
/// shared-pair buffer. Once warm, a query allocates none of it.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    proj: Vec<f64>,
    flip_order: Vec<usize>,
    candidates: Candidates,
    /// Slot-indexed shared dot products; meaningful only for the slots
    /// stamped by the current query.
    acc: Vec<f64>,
    /// `(score bound, slot)` of the bounded source's candidates.
    bounds: Vec<(f64, u32)>,
    /// Vocabulary-indexed target weights; all `0.0` between queries.
    weights: Vec<f64>,
    shared: Vec<(f64, f64)>,
}

#[cfg(test)]
impl QueryScratch {
    /// Candidate slots of the last query.
    pub(crate) fn candidates(&self) -> &[u32] {
        &self.candidates.slots
    }
}

/// One query's candidate slots, deduplicated by stamping each slot with
/// the query's generation in a slot-indexed array.
#[derive(Debug, Default)]
struct Candidates {
    /// `seen[slot] == generation` ⇔ the slot is already a candidate of
    /// the current query.
    seen: Vec<u32>,
    generation: u32,
    slots: Vec<u32>,
}

impl Candidates {
    /// Start a query over slots below `slot_count`: empty the list and
    /// mark `exclude` (the target's own slot) as seen.
    fn start(&mut self, slot_count: usize, exclude: u32) {
        self.slots.clear();
        self.seen.resize(slot_count, 0);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.seen.fill(0);
            self.generation = 1;
        }
        if let Some(own) = self.seen.get_mut(exclude as usize) {
            *own = self.generation;
        }
    }

    /// Append every slot of `members` not yet seen this query.
    fn admit(&mut self, members: impl IntoIterator<Item = u32>) {
        for slot in members {
            let mark = &mut self.seen[slot as usize];
            if *mark != self.generation {
                *mark = self.generation;
                self.slots.push(slot);
            }
        }
    }
}

impl LshIndex {
    pub(crate) fn new(cfg: AnnConfig) -> Self {
        LshIndex {
            buckets: (0..cfg.tables()).map(|_| HashMap::new()).collect(),
            sigs: Vec::new(),
            linked: Vec::new(),
            cfg,
        }
    }

    /// Whether this index was built for exactly `cfg` (including the
    /// resolved seed) — a mismatch forces a rebuild.
    pub(crate) fn matches(&self, cfg: &AnnConfig) -> bool {
        self.cfg.bits == cfg.bits
            && self.cfg.tables == cfg.tables
            && self.cfg.resolved_seed() == cfg.resolved_seed()
    }

    /// Number of bucketed slots.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.linked.iter().filter(|l| **l).count()
    }

    /// Every bucket member of every table, with repeats.
    #[cfg(test)]
    pub(crate) fn members(&self) -> impl Iterator<Item = u32> + '_ {
        self.buckets
            .iter()
            .flat_map(|table| table.values().flatten().copied())
    }

    /// Projections of `row` on every table's hyperplanes, in table × bit
    /// order, into `proj`. Sums the row in its (term) order, so the
    /// result — and therefore every signature — is a pure function of
    /// `(vector, cfg)`: an incrementally maintained row hashes
    /// bit-identically to a rebuilt one.
    fn project(&self, index: &ProfileIndex, row: &SlotRow, proj: &mut Vec<f64>) {
        let bits = self.cfg.bits() as usize;
        let tables = self.cfg.tables();
        let seed = self.cfg.resolved_seed();
        proj.clear();
        proj.resize(tables * bits, 0.0);
        for (tid, w) in row.term_ids.iter().zip(&row.weights) {
            let th = term_hash(seed, index.term(*tid));
            for t in 0..tables {
                let signs = sign_word(th, t);
                let row = &mut proj[t * bits..(t + 1) * bits];
                for (b, p) in row.iter_mut().enumerate() {
                    if signs & (1u64 << b) != 0 {
                        *p += w;
                    } else {
                        *p -= w;
                    }
                }
            }
        }
    }

    fn signature_of(proj: &[f64], bits: usize, table: usize) -> u32 {
        let row = &proj[table * bits..(table + 1) * bits];
        let mut sig = 0u32;
        for (b, p) in row.iter().enumerate() {
            if *p >= 0.0 {
                sig |= 1 << b;
            }
        }
        sig
    }

    /// Insert or refresh `slot` after its row changed. The signature is
    /// re-hashed from the row (O(terms × tables) integer mixing) and the
    /// slot moves only between buckets whose signature actually changed.
    /// An empty row projects to `0.0` on every hyperplane, which would put
    /// every empty profile in the all-ones bucket of every table although
    /// it can never score above zero: it is unlinked instead.
    pub(crate) fn update(&mut self, index: &ProfileIndex, slot: u32) {
        let row = index.row(slot);
        if row.term_ids.is_empty() {
            self.remove(slot);
            return;
        }
        let bits = self.cfg.bits() as usize;
        let tables = self.cfg.tables();
        let mut proj = Vec::new();
        self.project(index, row, &mut proj);
        let s = slot as usize;
        if self.linked.len() <= s {
            self.linked.resize(s + 1, false);
            self.sigs.resize((s + 1) * tables, 0);
        }
        let was_linked = self.linked[s];
        for (t, table) in self.buckets.iter_mut().enumerate() {
            let fresh = Self::signature_of(&proj, bits, t);
            let old = &mut self.sigs[s * tables + t];
            if was_linked {
                if *old == fresh {
                    continue;
                }
                remove_member(table, *old, slot);
            }
            table.entry(fresh).or_default().push(slot);
            *old = fresh;
        }
        self.linked[s] = true;
    }

    /// Drop `slot` from every table, if bucketed.
    pub(crate) fn remove(&mut self, slot: u32) {
        let s = slot as usize;
        if !self.linked.get(s).copied().unwrap_or(false) {
            return;
        }
        let tables = self.cfg.tables();
        for (t, table) in self.buckets.iter_mut().enumerate() {
            remove_member(table, self.sigs[s * tables + t], slot);
        }
        self.linked[s] = false;
    }

    /// Union of the `target` slot's buckets across all tables,
    /// multiprobed: per table the primary bucket plus `probes` single-bit
    /// flips, least-confident (smallest |projection|) bit first. The union
    /// is left in `scratch`'s candidates, deduplicated, in probe order,
    /// and without the target itself. An empty target yields no
    /// candidate: it scores `0.0` against everyone.
    pub(crate) fn candidates(
        &self,
        index: &ProfileIndex,
        target: u32,
        probes: u8,
        scratch: &mut QueryScratch,
    ) {
        let QueryScratch {
            proj,
            flip_order,
            candidates,
            ..
        } = scratch;
        candidates.start(index.slot_count(), target);
        let row = index.row(target);
        if row.term_ids.is_empty() {
            return;
        }
        let bits = self.cfg.bits() as usize;
        self.project(index, row, proj);
        let probes = usize::from(probes).min(bits);
        flip_order.clear();
        flip_order.extend(0..bits);
        for (t, table) in self.buckets.iter().enumerate() {
            let sig = Self::signature_of(proj, bits, t);
            candidates.admit(table.get(&sig).into_iter().flatten().copied());
            if probes > 0 {
                let row = &proj[t * bits..(t + 1) * bits];
                // a total order (ties by bit index), so the unstable
                // sort is deterministic and allocation-free
                flip_order.sort_unstable_by(|a, b| {
                    row[*a]
                        .abs()
                        .partial_cmp(&row[*b].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(b))
                });
                for bit in flip_order.iter().take(probes) {
                    candidates.admit(
                        table
                            .get(&(sig ^ (1 << bit)))
                            .into_iter()
                            .flatten()
                            .copied(),
                    );
                }
            }
        }
    }
}

fn remove_member(table: &mut HashMap<u32, Vec<u32>>, sig: u32, slot: u32) {
    if let Some(members) = table.get_mut(&sig) {
        if let Some(pos) = members.iter().position(|m| *m == slot) {
            members.swap_remove(pos);
        }
        if members.is_empty() {
            table.remove(&sig);
        }
    }
}

/// The exact path's candidates for the `target` slot into `scratch`:
/// every slot sharing a term with it — the posting-list union, the only
/// slots that can score above zero — or, with `everyone` (a negative
/// neighbour floor, which admits zero scores), every live slot. The
/// target itself is left out.
pub(crate) fn exact_candidates(
    index: &ProfileIndex,
    target: u32,
    everyone: bool,
    scratch: &mut QueryScratch,
) {
    let candidates = &mut scratch.candidates;
    candidates.start(index.slot_count(), target);
    if everyone {
        candidates.admit(index.live().map(|(_, slot)| slot));
    } else {
        for tid in &index.row(target).term_ids {
            candidates.admit(index.posting(*tid).slots.iter().copied());
        }
    }
}

/// A query's best `k` as `(consumer, score)`, best first, and the number
/// of rows the kernel scored to find them.
pub(crate) type Ranked = (Vec<(u64, f64)>, usize);

/// Padding applied to every cosine bound, so that no summation-order
/// difference between the bound pass and the kernel can make a bound fall
/// below the score it bounds and prune a true neighbour or a tie.
const BOUND_PAD: f64 = 1.0 + 1e-9;

/// The exact cosine top-`k` of the `target` slot under `config` (whose
/// neighbour floor must be non-negative), scoring as few rows as the
/// bound allows. Returns the same neighbours, order and score bits as
/// [`exact_candidates`] plus [`rerank`], and the number of rows scored.
///
/// One term-at-a-time pass over the target's weighted posting lists adds
/// each candidate's full shared dot product into the slot-indexed
/// accumulator; candidates are deduplicated by the generation-stamped
/// `seen` array, not by a zero sum, because a product of decayed weights
/// can underflow to `0.0`. `acc / (target norm · row norm)` bounds the
/// candidate's score from above: the kernel sums a subset of the same
/// non-negative products in the same (term) order, and the Fig 4.5
/// discard rule, `min_overlap` and the clamp only ever drop terms or
/// lower the result. A candidate whose bound is at or below the floor,
/// or whose norm product is `0.0` (the kernel scores it `0.0`), cannot be
/// admitted and is dropped. The rest are exact-scored by the unchanged
/// kernel in descending bound order — selected in geometrically growing
/// batches, not fully sorted — until the next bound is below the current
/// `k`-th score.
pub(crate) fn bounded_cosine(
    index: &ProfileIndex,
    target: u32,
    config: &SimilarityConfig,
    scratch: &mut QueryScratch,
    k: usize,
) -> Ranked {
    let QueryScratch {
        candidates,
        acc,
        bounds,
        weights,
        shared,
        ..
    } = scratch;
    candidates.start(index.slot_count(), target);
    if acc.len() < index.slot_count() {
        acc.resize(index.slot_count(), 0.0);
    }
    let row = index.row(target);
    for (tid, wa) in row.term_ids.iter().zip(&row.weights) {
        let posting = index.posting(*tid);
        for (slot, wb) in posting.slots.iter().zip(&posting.weights) {
            if *slot == target {
                continue;
            }
            let s = *slot as usize;
            if candidates.seen[s] == candidates.generation {
                acc[s] += wa * wb;
            } else {
                candidates.seen[s] = candidates.generation;
                candidates.slots.push(*slot);
                acc[s] = wa * wb;
            }
        }
    }
    let norms = index.norms();
    let target_norm = norms[target as usize];
    bounds.clear();
    for slot in &candidates.slots {
        let denom = target_norm * norms[*slot as usize];
        if denom == 0.0 {
            continue;
        }
        let bound = acc[*slot as usize] / denom * BOUND_PAD;
        if bound > config.neighbour_floor {
            bounds.push((bound, *slot));
        }
    }
    let mut best = TopK::new(k);
    let mut scored = 0;
    if k > 0 {
        scatter(index, row, weights);
        let by_bound = |a: &(f64, u32), b: &(f64, u32)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        let mut rest = &mut bounds[..];
        let mut batch = k;
        'scoring: while !rest.is_empty() {
            let take = batch.min(rest.len());
            if take < rest.len() {
                rest.select_nth_unstable_by(take - 1, by_bound);
            }
            let (head, tail) = rest.split_at_mut(take);
            head.sort_unstable_by(by_bound);
            for (bound, slot) in head.iter() {
                if best.kth_score().is_some_and(|kth| *bound < kth) {
                    break 'scoring;
                }
                scored += 1;
                let candidate = index.row(*slot);
                let norms = (target_norm, norms[*slot as usize]);
                let s = score_scattered(row, weights, candidate, norms, config, shared);
                if s > config.neighbour_floor {
                    best.push(candidate.id, s);
                }
            }
            rest = tail;
            batch = batch.saturating_mul(2);
        }
        unscatter(row, weights);
    }
    (best.into_sorted(), scored)
}

/// Under the `parallel` feature, candidate lists of at least four blocks
/// of this many slots fan out across cores and concatenate in block
/// order (deterministic merge, same recipe as
/// [`crate::index::par_map`]).
#[cfg(feature = "parallel")]
const RERANK_BLOCK: usize = 64;

/// Score the candidates left in `scratch` (by [`exact_candidates`] or
/// [`LshIndex::candidates`]) against the `target` slot, applying the full
/// [`SimilarityConfig`] semantics (discard threshold, `min_overlap`,
/// method) plus the neighbour-floor filter, and keep the best `k` under
/// the reference ranking (score desc, id asc). Also returns the number
/// of rows scored: every candidate.
///
/// The target's row is scattered once into `scratch`'s
/// vocabulary-indexed weight array (and cleared again afterwards); a
/// candidate then costs one pass over its own row, reading the target
/// weight of each of its terms by index. Scores stream into the top-k
/// heap, so the sequential path allocates only that heap and the result.
pub(crate) fn rerank(
    index: &ProfileIndex,
    target: u32,
    config: &SimilarityConfig,
    scratch: &mut QueryScratch,
    k: usize,
) -> Ranked {
    let QueryScratch {
        candidates,
        weights,
        shared,
        ..
    } = scratch;
    let target_norm = index.norms()[target as usize];
    let target = index.row(target);
    scatter(index, target, weights);
    let best = score_candidates(
        index,
        (target, target_norm),
        weights,
        &candidates.slots,
        config,
        shared,
        k,
    );
    unscatter(target, weights);
    (best, candidates.slots.len())
}

/// Write `row`'s weights into the vocabulary-indexed `weights`, grown to
/// the vocabulary first.
fn scatter(index: &ProfileIndex, row: &SlotRow, weights: &mut Vec<f64>) {
    if weights.len() < index.vocab_len() {
        weights.resize(index.vocab_len(), 0.0);
    }
    for (tid, w) in row.term_ids.iter().zip(&row.weights) {
        weights[*tid as usize] = *w;
    }
}

/// Reset the entries [`scatter`] wrote for `row` to `0.0`.
fn unscatter(row: &SlotRow, weights: &mut [f64]) {
    for tid in &row.term_ids {
        weights[*tid as usize] = 0.0;
    }
}

fn score_candidates(
    index: &ProfileIndex,
    (target, target_norm): (&SlotRow, f64),
    weights: &[f64],
    candidates: &[u32],
    config: &SimilarityConfig,
    shared: &mut Vec<(f64, f64)>,
    k: usize,
) -> Vec<(u64, f64)> {
    let norms = index.norms();
    let score = |slot: &u32, shared: &mut Vec<(f64, f64)>| -> Option<(u64, f64)> {
        let row = index.row(*slot);
        let pair = (target_norm, norms[*slot as usize]);
        let s = score_scattered(target, weights, row, pair, config, shared);
        (s > config.neighbour_floor).then_some((row.id, s))
    };
    #[cfg(feature = "parallel")]
    if candidates.len() >= 4 * RERANK_BLOCK {
        let blocks: Vec<&[u32]> = candidates.chunks(RERANK_BLOCK).collect();
        let scored = crate::index::par_map(&blocks, |block| {
            let mut shared = Vec::new();
            block
                .iter()
                .filter_map(|slot| score(slot, &mut shared))
                .collect::<Vec<_>>()
        });
        return top_k(scored.into_iter().flatten(), k);
    }
    top_k(candidates.iter().filter_map(|slot| score(slot, shared)), k)
}

/// One candidate row scored against the target scattered into
/// `weights`; `norms` are the target's and the candidate's. Walking the
/// candidate's term-ordered row yields the shared terms in term order —
/// the order [`crate::similarity::vector_similarity`] visits them in — so
/// [`measure`] sums exactly what that function sums. A `0.0` weight means
/// the target lacks the term (row weights are always positive); the
/// candidate's own weight array is read only for shared terms.
fn score_scattered(
    target: &SlotRow,
    weights: &[f64],
    row: &SlotRow,
    norms: (f64, f64),
    config: &SimilarityConfig,
    shared: &mut Vec<(f64, f64)>,
) -> f64 {
    shared.clear();
    let mut intersection = 0usize;
    for (pos, tid) in row.term_ids.iter().enumerate() {
        let wa = weights[*tid as usize];
        if wa == 0.0 {
            continue;
        }
        intersection += 1;
        let wb = row.weights[pos];
        if !discarded(wa, wb, config) {
            shared.push((wa, wb));
        }
    }
    measure(
        shared,
        intersection,
        (target.term_ids.len(), row.term_ids.len()),
        || norms.0 * norms.1,
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{vector_similarity, SimilarityMethod};
    use ecp::terms::TermVector;

    fn vec_of(pairs: &[(&str, f64)]) -> TermVector {
        TermVector::from_pairs(pairs.iter().map(|(t, w)| (t.to_string(), *w)))
    }

    /// An index holding `vectors` as consumers 1, 2, … in slots 0, 1, ….
    fn index_of(vectors: &[TermVector]) -> ProfileIndex {
        let mut index = ProfileIndex::new();
        for (id, v) in (1u64..).zip(vectors) {
            index.put(id, v);
        }
        index
    }

    /// The probed candidate slots of the `target` slot, sorted.
    fn probe(lsh: &LshIndex, index: &ProfileIndex, target: u32) -> Vec<u32> {
        let mut scratch = QueryScratch::default();
        lsh.candidates(index, target, lsh.cfg.probes, &mut scratch);
        let mut out = scratch.candidates.slots;
        out.sort_unstable();
        out
    }

    fn sigs_of(lsh: &LshIndex, slot: u32) -> Vec<u32> {
        let tables = lsh.cfg.tables();
        lsh.sigs[slot as usize * tables..(slot as usize + 1) * tables].to_vec()
    }

    #[test]
    fn identical_vectors_share_every_signature() {
        let v = vec_of(&[("a", 1.0), ("b", 0.5)]);
        // slot 2 holds the same vector but stays out of the buckets
        let index = index_of(&[v.clone(), v.clone(), v]);
        let mut lsh = LshIndex::new(AnnConfig::default());
        lsh.update(&index, 0);
        lsh.update(&index, 1);
        assert_eq!(probe(&lsh, &index, 2), vec![0, 1]);
        // the target's own slot is never its own candidate
        assert_eq!(probe(&lsh, &index, 0), vec![1]);
    }

    #[test]
    fn probe_union_is_deduplicated_across_tables_and_queries() {
        // one bit, probes flip it: every table yields both buckets, so a
        // slot is reached up to 2 × tables times but listed once
        let mut lsh = LshIndex::new(AnnConfig {
            bits: 1,
            tables: 4,
            probes: 1,
            seed: 9,
        });
        let vectors: Vec<TermVector> = (0..20)
            .map(|s| vec_of(&[(&format!("t{s}"), 1.0)]))
            .collect();
        let index = index_of(&vectors);
        for slot in 0..20u32 {
            lsh.update(&index, slot);
        }
        let mut scratch = QueryScratch::default();
        for _ in 0..3 {
            lsh.candidates(&index, 3, 1, &mut scratch);
            let mut got = scratch.candidates().to_vec();
            got.sort_unstable();
            assert_eq!(got, (0..20).filter(|s| *s != 3).collect::<Vec<_>>());
        }
        // a wrapped generation counter resets the stamps
        scratch.candidates.generation = u32::MAX;
        lsh.candidates(&index, 3, 1, &mut scratch);
        assert_eq!(scratch.candidates.generation, 1);
        assert_eq!(scratch.candidates().len(), 19);
    }

    #[test]
    fn update_moves_only_changed_buckets() {
        let mut lsh = LshIndex::new(AnnConfig {
            bits: 8,
            tables: 4,
            probes: 0,
            seed: 7,
        });
        let before = vec_of(&[("a", 1.0)]);
        let after = vec_of(&[("zzz", 3.0)]);
        // slot 1 holds `after` as an unbucketed probe target
        let mut index = index_of(&[before, after.clone()]);
        lsh.update(&index, 0);
        let old_sigs = sigs_of(&lsh, 0);
        index.put(1, &after);
        lsh.update(&index, 0);
        let new_sigs = sigs_of(&lsh, 0);
        // membership is consistent: slot 0 is reachable from `after`…
        assert_eq!(probe(&lsh, &index, 1), vec![0]);
        // …and no stale bucket still holds it
        for (t, table) in lsh.buckets.iter().enumerate() {
            for (sig, members) in table {
                if members.contains(&0) {
                    assert_eq!(*sig, new_sigs[t], "stale bucket in table {t}");
                }
            }
        }
        // sanity: the move was real for at least one table (different
        // vectors hash differently with overwhelming probability)
        assert_ne!(old_sigs, new_sigs);
    }

    #[test]
    fn remove_unlinks_every_table() {
        let v = vec_of(&[("a", 1.0)]);
        let index = index_of(&[v.clone(), v]);
        let mut lsh = LshIndex::new(AnnConfig::default());
        lsh.update(&index, 0);
        lsh.remove(0);
        assert_eq!(lsh.len(), 0);
        assert!(probe(&lsh, &index, 1).is_empty());
        for table in &lsh.buckets {
            assert!(table.is_empty());
        }
    }

    #[test]
    fn incremental_signature_equals_rebuild() {
        // the same final vector must hash identically whether the index
        // saw it in one shot or through a chain of updates
        let cfg = AnnConfig {
            bits: 16,
            tables: 8,
            probes: 2,
            seed: 42,
        };
        let final_v = vec_of(&[("a", 0.9), ("b", 0.2), ("c", 3.0)]);
        let mut index = ProfileIndex::new();
        let mut incremental = LshIndex::new(cfg);
        for v in [
            vec_of(&[("c", 1.0)]),
            vec_of(&[("a", 1.4), ("b", 0.2)]),
            final_v.clone(),
        ] {
            index.put(1, &v);
            incremental.update(&index, 0);
        }
        let mut fresh = LshIndex::new(cfg);
        fresh.update(&index_of(&[final_v]), 0);
        assert_eq!(sigs_of(&incremental, 0), sigs_of(&fresh, 0));
    }

    #[test]
    fn seed_resolution_derives_from_platform_seed() {
        let cfg = AnnConfig::default();
        assert_eq!(cfg.resolved_seed(), DEFAULT_ANN_SEED);
        let derived = cfg.resolve_seed(1234);
        assert_ne!(derived.seed, 0);
        assert_eq!(derived, AnnConfig::default().resolve_seed(1234));
        assert_ne!(derived.seed, AnnConfig::default().resolve_seed(1235).seed);
        // explicit seeds survive resolution
        let explicit = AnnConfig {
            seed: 99,
            ..AnnConfig::default()
        };
        assert_eq!(explicit.resolve_seed(1234).seed, 99);
    }

    #[test]
    fn similar_vectors_collide_more_than_dissimilar() {
        let cfg = AnnConfig {
            bits: 16,
            tables: 8,
            probes: 0,
            seed: 3,
        };
        let lsh = LshIndex::new(cfg);
        let index = index_of(&[
            vec_of(&[("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)]),
            vec_of(&[("a", 1.1), ("b", 0.9), ("c", 1.0), ("d", 1.0)]),
            vec_of(&[("x", 2.0), ("y", 0.1), ("z", 5.0)]),
        ]);
        let bits = cfg.bits() as usize;
        let project = |slot: u32| {
            let mut proj = Vec::new();
            lsh.project(&index, index.row(slot), &mut proj);
            proj
        };
        let (pt, pn, pf) = (project(0), project(1), project(2));
        let agree = |a: &[f64], b: &[f64]| {
            (0..cfg.tables())
                .filter(|t| {
                    LshIndex::signature_of(a, bits, *t) == LshIndex::signature_of(b, bits, *t)
                })
                .count()
        };
        assert!(agree(&pt, &pn) > agree(&pt, &pf));
    }

    /// Every config the kernel must honour: the three measures, the
    /// discard rule on and off, `min_overlap` 0–3.
    fn kernel_configs(threshold: f64) -> Vec<SimilarityConfig> {
        use crate::similarity::SimilarityMethod;
        let mut out = Vec::new();
        for method in [
            SimilarityMethod::Cosine,
            SimilarityMethod::Pearson,
            SimilarityMethod::Jaccard,
        ] {
            for discard_threshold in [None, Some(threshold)] {
                for min_overlap in 0..=3 {
                    out.push(SimilarityConfig {
                        method,
                        discard_threshold,
                        min_overlap,
                        ..SimilarityConfig::default()
                    });
                }
            }
        }
        out
    }

    /// `id`'s row flattened back into a term vector.
    fn vector_of(index: &ProfileIndex, id: u64) -> TermVector {
        TermVector::from_pairs(index.terms(id).expect("indexed consumer"))
    }

    /// Check the dense-scatter kernel against
    /// [`crate::similarity::vector_similarity`] over the rows' vectors on
    /// every ordered pair of live consumers: per-pair score bits, and
    /// [`rerank`] against the reference top-k over the same candidates.
    fn assert_kernel_matches_vector_similarity(
        index: &ProfileIndex,
        configs: &[SimilarityConfig],
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::prop_assert_eq;
        let live: Vec<(u64, u32)> = index.live().collect();
        let mut scratch = QueryScratch::default();
        for config in configs {
            for (target_id, target) in &live {
                let a = index.row(*target);
                let mut weights = vec![0.0; index.vocab_len()];
                for (tid, w) in a.term_ids.iter().zip(&a.weights) {
                    weights[*tid as usize] = *w;
                }
                let mut reference = Vec::new();
                for (id, slot) in live.iter().filter(|(_, s)| s != target) {
                    let want = vector_similarity(
                        &vector_of(index, *target_id),
                        &vector_of(index, *id),
                        config,
                    );
                    if want > config.neighbour_floor {
                        reference.push((*id, want));
                    }
                    let norms = (
                        index.norms()[*target as usize],
                        index.norms()[*slot as usize],
                    );
                    let got = score_scattered(
                        a,
                        &weights,
                        index.row(*slot),
                        norms,
                        config,
                        &mut Vec::new(),
                    );
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{:?}: {} vs {} under {:?}",
                        (target_id, id),
                        got,
                        want,
                        config
                    );
                }
                exact_candidates(index, *target, true, &mut scratch);
                let (got, _) = rerank(index, *target, config, &mut scratch, 1_000);
                let want = top_k(reference.iter().copied(), 1_000);
                prop_assert_eq!(
                    got.iter()
                        .map(|(id, s)| (*id, s.to_bits()))
                        .collect::<Vec<_>>(),
                    want.iter()
                        .map(|(id, s)| (*id, s.to_bits()))
                        .collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    scratch.weights.iter().filter(|w| **w != 0.0).count(),
                    0,
                    "weight scratch left dirty"
                );
                if config.method == SimilarityMethod::Cosine {
                    for k in [1, 3, 1_000] {
                        let (got, _) = bounded_cosine(index, *target, config, &mut scratch, k);
                        let want = top_k(reference.iter().copied(), k);
                        prop_assert_eq!(
                            got.iter()
                                .map(|(id, s)| (*id, s.to_bits()))
                                .collect::<Vec<_>>(),
                            want.iter()
                                .map(|(id, s)| (*id, s.to_bits()))
                                .collect::<Vec<_>>(),
                            "bounded source at k = {} under {:?}",
                            k,
                            config
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Cosine under every discard / `min_overlap` setting, at floors `0`
    /// and `0.3`.
    fn cosine_configs() -> Vec<SimilarityConfig> {
        kernel_configs(2.0)
            .into_iter()
            .filter(|c| c.method == SimilarityMethod::Cosine)
            .flat_map(|c| {
                [0.0, 0.3].map(|neighbour_floor| SimilarityConfig {
                    neighbour_floor,
                    ..c
                })
            })
            .collect()
    }

    /// The bounded source's answer and scored count for `target`, next to
    /// the posting-list union's.
    fn bounded_and_union(
        index: &ProfileIndex,
        target: u32,
        config: &SimilarityConfig,
        k: usize,
    ) -> (Ranked, Ranked) {
        let mut scratch = QueryScratch::default();
        let bounded = bounded_cosine(index, target, config, &mut scratch, k);
        exact_candidates(index, target, false, &mut scratch);
        (bounded, rerank(index, target, config, &mut scratch, k))
    }

    #[test]
    fn bounded_source_dedups_by_stamp_not_by_a_zero_sum() {
        // every candidate shares `a` with the target at a weight whose
        // product with the target's underflows to 0.0 before its `b`
        // term adds a real product: a zero accumulator is not "unseen"
        let tiny = 1e-200;
        let index = index_of(&[
            vec_of(&[("a", tiny), ("b", 1.0)]),
            vec_of(&[("a", tiny), ("b", 1.0)]),
            vec_of(&[("a", tiny), ("b", 0.5), ("c", 1.0)]),
            vec_of(&[("a", tiny), ("c", 1.0)]),
        ]);
        assert_eq!(tiny * tiny, 0.0);
        for config in cosine_configs() {
            let ((got, scored), (want, union)) = bounded_and_union(&index, 0, &config, 10);
            assert_eq!(got, want, "{config:?}");
            assert_eq!(union, 3);
            assert!(scored <= 2, "slot 3 bounds at 0.0 and is never scored");
            let mut ids: Vec<u64> = got.iter().map(|(id, _)| *id).collect();
            ids.dedup();
            assert_eq!(ids.len(), got.len(), "a candidate listed twice");
        }
    }

    #[test]
    fn bounded_source_stops_at_the_kth_score() {
        // one twin of the target and forty consumers sharing only its
        // weakest term: once the twin is scored no other bound can beat
        // it, so k = 1 scores one row of the forty-one
        let target = vec_of(&[("a", 1.0), ("b", 1.0), ("weak", 0.1)]);
        let mut vectors = vec![target.clone(), target];
        for i in 0..40 {
            vectors.push(vec_of(&[("weak", 1.0), (&format!("own{i}"), 1.0)]));
        }
        let index = index_of(&vectors);
        let config = SimilarityConfig {
            discard_threshold: None,
            ..SimilarityConfig::default()
        };
        let ((got, scored), (want, union)) = bounded_and_union(&index, 0, &config, 1);
        assert_eq!(got, want);
        assert_eq!(got[0].0, 2, "the twin wins");
        assert_eq!((scored, union), (1, 41));
        // a larger k scores further down the bound order, still exactly
        let ((got, scored), (want, _)) = bounded_and_union(&index, 0, &config, 5);
        assert_eq!(got, want);
        assert_eq!(scored, 41, "the forty weak rows tie on their bound");
        // ties at the k-th score are scored, never pruned: consumer 3
        // onwards tie, and the smallest ids win
        assert_eq!(
            got.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![2, 3, 4, 5, 6]
        );
    }

    proptest::proptest! {
        /// The dense-scatter kernel is bit-identical to
        /// `vector_similarity` over random vectors whose slots are
        /// assigned, updated wholesale, patched by feedback deltas and
        /// recycled after removal.
        #[test]
        fn kernel_matches_vector_similarity_over_random_vectors(
            ops in proptest::collection::vec(
                (
                    1u64..8,
                    0u8..6,
                    "[a-b]{1}",
                    proptest::collection::vec(("[a-f]{1,2}", 0.01f64..3.0), 0..5),
                ),
                1..30,
            ),
            threshold in 1.0f64..4.0,
        ) {
            use crate::learning::{BehaviorEvent, BehaviorKind, LearnerConfig, ProfileLearner};
            use crate::profile::Profile;
            use ecp::merchandise::CategoryPath;
            use std::collections::BTreeMap;

            let learner = ProfileLearner::new(LearnerConfig {
                max_terms: 6,
                ..LearnerConfig::default()
            });
            let mut profiles: BTreeMap<u64, Profile> = BTreeMap::new();
            let mut index = ProfileIndex::new();
            for (id, op, cat, terms) in ops {
                match op {
                    0 => {
                        profiles.remove(&id);
                        index.remove(id);
                    }
                    1 => {
                        let mut p = Profile::new();
                        for (t, w) in &terms {
                            p.category_mut(&cat).sub_mut("s").add(t.clone(), *w);
                        }
                        index.update(id, &p);
                        profiles.insert(id, p);
                    }
                    _ => {
                        let profile = profiles.entry(id).or_default();
                        let event = BehaviorEvent::new(
                            BehaviorKind::Purchase,
                            CategoryPath::new(cat, "s"),
                            TermVector::from_pairs(terms),
                        );
                        index.apply_delta(id, &learner.apply_indexed(profile, &event));
                    }
                }
            }
            assert_kernel_matches_vector_similarity(&index, &kernel_configs(threshold))?;
        }

        /// The same equivalence on a store driven through its public
        /// mutators — feedback events, wholesale profile imports
        /// (including empty ones) and the decay pass that refreshes every
        /// slot — and end to end, against `vector_similarity` over the
        /// flattened profiles, through the planned query and through an
        /// exhaustive LSH query, whose index is built part-way and then
        /// maintained incrementally.
        #[test]
        fn kernel_matches_vector_similarity_over_store_interleavings(
            ops in proptest::collection::vec((1u64..10, 0u8..10, 0u64..8), 1..50),
            build_at in 0usize..50,
            threshold in 1.0f64..4.0,
        ) {
            use crate::learning::BehaviorKind;
            use crate::profile::{ConsumerId, Profile};
            use crate::store::RecommendStore;
            use ecp::merchandise::{CategoryPath, ItemId, Merchandise, Money};
            use proptest::prop_assert_eq;

            const KINDS: [BehaviorKind; 4] = [
                BehaviorKind::Query,
                BehaviorKind::Browse,
                BehaviorKind::Bid,
                BehaviorKind::Purchase,
            ];
            let mut store = RecommendStore::new();
            for id in 0..8u64 {
                store.upsert_item(Merchandise {
                    id: ItemId(id),
                    name: format!("item{id}"),
                    category: CategoryPath::new(["books", "music"][(id % 2) as usize], "s"),
                    terms: TermVector::from_pairs([
                        (format!("t{id}"), 1.0),
                        (format!("t{}", (id + 1) % 8), 0.3),
                    ]),
                    list_price: Money::from_units(10),
                    seller: 1,
                });
            }
            let exhaustive = SimilarityConfig {
                ann: Some(AnnConfig { bits: 1, tables: 1, probes: 1, seed: 3 }),
                ..SimilarityConfig::default()
            };
            for (step, (user, op, item)) in ops.into_iter().enumerate() {
                if step == build_at {
                    store.warm_ann(&exhaustive);
                }
                match op {
                    0 => store.decay_all_profiles(0.5),
                    1 => store.put_profile(ConsumerId(user), Profile::new()),
                    2 => {
                        let mut p = Profile::new();
                        p.category_mut("books").sub_mut("s").set(format!("t{item}"), 0.5);
                        store.put_profile(ConsumerId(user), p);
                    }
                    _ => store.record_event(
                        ConsumerId(user),
                        ItemId(item),
                        KINDS[usize::from(op) % KINDS.len()],
                    ),
                }
            }
            let configs = kernel_configs(threshold);
            assert_kernel_matches_vector_similarity(store.profile_index(), &configs)?;
            let flat: Vec<(ConsumerId, TermVector)> =
                store.profiles().map(|(c, p)| (c, p.flatten())).collect();
            for config in &configs {
                let ann = SimilarityConfig { ann: exhaustive.ann, ..*config };
                for (id, target) in &flat {
                    let want: Vec<(u64, u64)> = top_k(
                        flat.iter().filter(|(other, _)| other != id).filter_map(|(other, v)| {
                            let score = vector_similarity(target, v, config);
                            (score > config.neighbour_floor).then_some((other.0, score))
                        }),
                        1_000,
                    )
                    .into_iter()
                    .map(|(c, s)| (c, s.to_bits()))
                    .collect();
                    let bits = |found: Vec<(ConsumerId, f64)>| -> Vec<(u64, u64)> {
                        found.into_iter().map(|(c, s)| (c.0, s.to_bits())).collect()
                    };
                    let planned = bits(store.nearest_neighbours(*id, config, 1_000));
                    prop_assert_eq!(&planned, &want, "planned query of {} under {:?}", id, config);
                    let lsh = bits(store.nearest_neighbours_lsh(*id, &ann, 1_000));
                    prop_assert_eq!(lsh, want, "ANN query of {} under {:?}", id, config);
                }
            }
        }
    }
}
