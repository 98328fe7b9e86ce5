//! Approximate nearest-neighbour search over flattened profiles — the
//! million-user query tier.
//!
//! The exact posting-list path of [`crate::index::ProfileIndex`] scores
//! every consumer sharing at least one term with the target; with broad
//! shared vocabulary that candidate set grows linearly with the
//! population, so at 10^5–10^6 consumers candidate *scoring* becomes the
//! hot path. This module trades a measured sliver of recall for
//! sublinear candidate generation:
//!
//! * [`AnnConfig`] — the `SimilarityConfig::ann` knob: random-hyperplane
//!   LSH with tunable signature width (`bits`), table count (`tables`)
//!   and multiprobe depth (`probes`). Hash seeds derive from the platform
//!   seed (see [`AnnConfig::resolve_seed`]), so the whole structure is a
//!   deterministic function of `(profiles, config)`.
//! * [`LshIndex`] — multi-table signature buckets over the slots of
//!   [`crate::index::ProfileIndex`], maintained incrementally: a Fig 4.5
//!   feedback delta re-hashes the consumer's signature from the
//!   already-maintained flat vector (no re-flatten) and moves the slot
//!   only between the buckets whose signature actually changed. Empty
//!   vectors are never bucketed: they score `0.0` against everyone.
//! * [`rerank`] — the re-rank kernel: the target's row is scattered once
//!   into a vocabulary-indexed weight array, then each candidate is
//!   scored in one linear pass over its slot row (no map lookups, no
//!   string compares, no per-candidate allocation), composing with the
//!   `parallel` feature's deterministic block fan-out. Shared terms come
//!   out in ascending term id, the order a two-pointer merge of the two
//!   sorted rows yields, so every measure sums in the same order.
//!
//! Because the re-rank applies the *exact* similarity semantics
//! (discard threshold, `min_overlap`, the configured method) and the
//! neighbour floor filter, ANN results are always a subset of the exact
//! scan's admitted candidates — the index can only *miss* neighbours,
//! never invent them. `tests/ann.rs` and the property suite hold it to a
//! measured recall floor.

use crate::index::{top_k, ProfileIndex, SlotRow};
use crate::similarity::SimilarityConfig;
use ecp::terms::TermVector;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fixed fallback hash seed used when neither the config nor a platform
/// seed supplies one (`seed == 0`).
const DEFAULT_ANN_SEED: u64 = 0xabc0_4a11_5eed_0001;

/// Configuration of the approximate neighbour index — the
/// [`SimilarityConfig::ann`] knob. `None` keeps the exact posting-list
/// scan; `Some` routes `nearest_neighbours`/`recommend` through the LSH
/// index transparently (the exact path remains the test oracle).
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
    /// Whether each slot sits in the buckets (empty vectors do not).
    linked: Vec<bool>,
    /// Per-table `signature → slots` buckets. Members are unordered
    /// (`swap_remove` on unlink); the probe deduplicates the union.
    buckets: Vec<HashMap<u32, Vec<u32>>>,
}

/// Reusable per-store query scratch for the ANN path: the probe's
/// projections, flip order and generation-stamped seen array, the
/// candidate slots it yields, and the re-rank's dense weight array and
/// shared-pair buffer. Once warm, a query allocates none of it.
#[derive(Debug, Default)]
pub(crate) struct AnnScratch {
    proj: Vec<f64>,
    flip_order: Vec<usize>,
    /// `seen[slot] == generation` ⇔ the slot is already a candidate of
    /// the current query.
    seen: Vec<u32>,
    generation: u32,
    candidates: Vec<u32>,
    /// Vocabulary-indexed target weights; all `0.0` between queries.
    weights: Vec<f64>,
    shared: Vec<(f64, f64)>,
}

#[cfg(test)]
impl AnnScratch {
    /// Candidate slots of the last probe.
    pub(crate) fn candidates(&self) -> &[u32] {
        &self.candidates
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

    /// Projections of `vector` on every table's hyperplanes, in table ×
    /// bit order, into `proj`. Iterates the vector in term order, so the
    /// result — and therefore every signature — is a pure function of
    /// `(vector, cfg)`: an incrementally maintained vector hashes
    /// bit-identically to a rebuilt one.
    fn project(&self, vector: &TermVector, proj: &mut Vec<f64>) {
        let bits = self.cfg.bits() as usize;
        let tables = self.cfg.tables();
        let seed = self.cfg.resolved_seed();
        proj.clear();
        proj.resize(tables * bits, 0.0);
        for (term, w) in vector.iter() {
            let th = term_hash(seed, term);
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

    /// Insert or refresh `slot` after its flat vector changed. The
    /// signature is re-hashed from the maintained vector (O(terms ×
    /// tables) integer mixing) and the slot moves only between buckets
    /// whose signature actually changed. An empty vector projects to
    /// `0.0` on every hyperplane, which would put every empty profile in
    /// the all-ones bucket of every table although it can never score
    /// above zero: it is unlinked instead.
    pub(crate) fn update(&mut self, slot: u32, vector: &TermVector) {
        if vector.is_empty() {
            self.remove(slot);
            return;
        }
        let bits = self.cfg.bits() as usize;
        let tables = self.cfg.tables();
        let mut proj = Vec::new();
        self.project(vector, &mut proj);
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

    /// Union of the target's buckets across all tables, multiprobed:
    /// per table the primary bucket plus `probes` single-bit flips,
    /// least-confident (smallest |projection|) bit first. The union is
    /// left in `scratch.candidates`, deduplicated by stamping each slot
    /// with the query's generation, in probe order, and without
    /// `exclude` (the target's own slot). An empty target yields no
    /// candidate: it scores `0.0` against everyone.
    pub(crate) fn candidates(
        &self,
        target: &TermVector,
        probes: u8,
        exclude: u32,
        scratch: &mut AnnScratch,
    ) {
        let AnnScratch {
            proj,
            flip_order,
            seen,
            generation,
            candidates,
            ..
        } = scratch;
        candidates.clear();
        if target.is_empty() {
            return;
        }
        let bits = self.cfg.bits() as usize;
        self.project(target, proj);
        seen.resize(self.linked.len(), 0);
        *generation = generation.wrapping_add(1);
        if *generation == 0 {
            seen.fill(0);
            *generation = 1;
        }
        let stamp = *generation;
        if let Some(own) = seen.get_mut(exclude as usize) {
            *own = stamp;
        }
        let mut take = |members: Option<&Vec<u32>>| {
            for slot in members.into_iter().flatten() {
                let mark = &mut seen[*slot as usize];
                if *mark != stamp {
                    *mark = stamp;
                    candidates.push(*slot);
                }
            }
        };
        let probes = usize::from(probes).min(bits);
        flip_order.clear();
        flip_order.extend(0..bits);
        for (t, table) in self.buckets.iter().enumerate() {
            let sig = Self::signature_of(proj, bits, t);
            take(table.get(&sig));
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
                    take(table.get(&(sig ^ (1 << bit))));
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

/// Under the `parallel` feature, candidate lists of at least four blocks
/// of this many slots fan out across cores and concatenate in block
/// order (deterministic merge, same recipe as
/// [`crate::index::par_map`]).
#[cfg(feature = "parallel")]
const RERANK_BLOCK: usize = 64;

/// Score the candidates left in `scratch` by [`LshIndex::candidates`]
/// against the `target` slot, applying the full [`SimilarityConfig`]
/// semantics (discard threshold, `min_overlap`, method) plus the
/// neighbour-floor filter, and keep the best `k` under the reference
/// ranking (score desc, id asc).
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
    scratch: &mut AnnScratch,
    k: usize,
) -> Vec<(u64, f64)> {
    let AnnScratch {
        candidates,
        weights,
        shared,
        ..
    } = scratch;
    let target = index.row(target);
    if weights.len() < index.vocab_len() {
        weights.resize(index.vocab_len(), 0.0);
    }
    for (tid, w) in target.term_ids.iter().zip(&target.weights) {
        weights[*tid as usize] = *w;
    }
    let best = score_candidates(index, target, weights, candidates, config, shared, k);
    for tid in &target.term_ids {
        weights[*tid as usize] = 0.0;
    }
    best
}

fn score_candidates(
    index: &ProfileIndex,
    target: &SlotRow,
    weights: &[f64],
    candidates: &[u32],
    config: &SimilarityConfig,
    shared: &mut Vec<(f64, f64)>,
    k: usize,
) -> Vec<(u64, f64)> {
    let score = |slot: &u32, shared: &mut Vec<(f64, f64)>| -> Option<(u64, f64)> {
        let row = index.row(*slot);
        let s = score_scattered(target, weights, row, config, shared);
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
/// `weights`. Walking the candidate's ascending term ids yields the
/// shared terms in ascending term id — the order a two-pointer merge of
/// the two rows yields — so [`measure`] sums exactly what the merge
/// would. A `0.0` weight means the target lacks the term (row weights
/// are always positive); the candidate's own weight array is read only
/// for shared terms.
fn score_scattered(
    target: &SlotRow,
    weights: &[f64],
    row: &SlotRow,
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
        if discarded(wa, wb, config) {
            continue;
        }
        shared.push((wa, wb));
    }
    measure(shared, intersection, target, row, config)
}

/// The Fig 4.2 discard rule: drop a shared term whose larger weight is
/// more than `threshold` times the smaller.
fn discarded(wa: f64, wb: f64, config: &SimilarityConfig) -> bool {
    config.discard_threshold.is_some_and(|threshold| {
        let ratio = if wa >= wb { wa / wb } else { wb / wa };
        ratio > threshold
    })
}

/// The configured measure over the surviving shared pairs — mirrors
/// `similarity::similarity_impl` exactly (same `min_overlap` gate, same
/// measures). `intersection` counts every shared term, discarded or not.
fn measure(
    shared: &[(f64, f64)],
    intersection: usize,
    a: &SlotRow,
    b: &SlotRow,
    config: &SimilarityConfig,
) -> f64 {
    use crate::similarity::SimilarityMethod;
    if shared.len() < config.min_overlap {
        return 0.0;
    }
    match config.method {
        SimilarityMethod::Cosine => {
            let dot: f64 = shared.iter().map(|(x, y)| x * y).sum();
            let denom = a.norm * b.norm;
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
            for (x, y) in shared.iter() {
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
            let union = a.term_ids.len() + b.term_ids.len() - intersection;
            if union == 0 {
                0.0
            } else {
                shared.len() as f64 / union as f64
            }
        }
    }
}

/// Reference kernel: one pair scored by a two-pointer merge of the two
/// sorted rows. [`score_scattered`] must match it bit for bit.
#[cfg(test)]
pub(crate) fn score_pair(a: &SlotRow, b: &SlotRow, config: &SimilarityConfig) -> f64 {
    let mut shared = Vec::new();
    let mut intersection = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.term_ids.len() && j < b.term_ids.len() {
        match a.term_ids[i].cmp(&b.term_ids[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (wa, wb) = (a.weights[i], b.weights[j]);
                i += 1;
                j += 1;
                intersection += 1;
                if !discarded(wa, wb, config) {
                    shared.push((wa, wb));
                }
            }
        }
    }
    measure(&shared, intersection, a, b, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(pairs: &[(&str, f64)]) -> TermVector {
        TermVector::from_pairs(pairs.iter().map(|(t, w)| (t.to_string(), *w)))
    }

    /// The probed candidate slots of `target`, sorted; `u32::MAX`
    /// excludes nobody.
    fn probe(lsh: &LshIndex, target: &TermVector, exclude: u32) -> Vec<u32> {
        let mut scratch = AnnScratch::default();
        lsh.candidates(target, lsh.cfg.probes, exclude, &mut scratch);
        let mut out = scratch.candidates;
        out.sort_unstable();
        out
    }

    fn sigs_of(lsh: &LshIndex, slot: u32) -> Vec<u32> {
        let tables = lsh.cfg.tables();
        lsh.sigs[slot as usize * tables..(slot as usize + 1) * tables].to_vec()
    }

    #[test]
    fn identical_vectors_share_every_signature() {
        let mut lsh = LshIndex::new(AnnConfig::default());
        let v = vec_of(&[("a", 1.0), ("b", 0.5)]);
        lsh.update(1, &v);
        lsh.update(2, &v);
        assert_eq!(probe(&lsh, &v, u32::MAX), vec![1, 2]);
        // the target's own slot is never its own candidate
        assert_eq!(probe(&lsh, &v, 1), vec![2]);
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
        for slot in 0..20u32 {
            lsh.update(slot, &vec_of(&[(&format!("t{slot}"), 1.0)]));
        }
        let mut scratch = AnnScratch::default();
        let target = vec_of(&[("t3", 1.0)]);
        for _ in 0..3 {
            lsh.candidates(&target, 1, 3, &mut scratch);
            let mut got = scratch.candidates.clone();
            got.sort_unstable();
            assert_eq!(got, (0..20).filter(|s| *s != 3).collect::<Vec<_>>());
        }
        // a wrapped generation counter resets the stamps
        scratch.generation = u32::MAX;
        lsh.candidates(&target, 1, 3, &mut scratch);
        assert_eq!(scratch.generation, 1);
        assert_eq!(scratch.candidates.len(), 19);
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
        lsh.update(1, &before);
        let old_sigs = sigs_of(&lsh, 1);
        lsh.update(1, &after);
        let new_sigs = sigs_of(&lsh, 1);
        // membership is consistent: slot 1 is reachable from `after`…
        assert_eq!(probe(&lsh, &after, u32::MAX), vec![1]);
        // …and no stale bucket still holds it
        for (t, table) in lsh.buckets.iter().enumerate() {
            for (sig, members) in table {
                if members.contains(&1) {
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
        let mut lsh = LshIndex::new(AnnConfig::default());
        let v = vec_of(&[("a", 1.0)]);
        lsh.update(1, &v);
        lsh.remove(1);
        assert_eq!(lsh.len(), 0);
        assert!(probe(&lsh, &v, u32::MAX).is_empty());
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
        let mut incremental = LshIndex::new(cfg);
        incremental.update(1, &vec_of(&[("a", 1.0)]));
        incremental.update(1, &vec_of(&[("a", 1.4), ("b", 0.2)]));
        let final_v = vec_of(&[("a", 0.9), ("b", 0.2), ("c", 3.0)]);
        incremental.update(1, &final_v);
        let mut fresh = LshIndex::new(cfg);
        fresh.update(1, &final_v);
        assert_eq!(sigs_of(&incremental, 1), sigs_of(&fresh, 1));
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
        let target = vec_of(&[("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)]);
        let near = vec_of(&[("a", 1.1), ("b", 0.9), ("c", 1.0), ("d", 1.0)]);
        let far = vec_of(&[("x", 2.0), ("y", 0.1), ("z", 5.0)]);
        let bits = cfg.bits() as usize;
        let project = |v: &TermVector| {
            let mut proj = Vec::new();
            lsh.project(v, &mut proj);
            proj
        };
        let (pt, pn, pf) = (project(&target), project(&near), project(&far));
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

    /// Every live `(consumer, slot)` of `index`.
    fn live_slots(index: &ProfileIndex) -> Vec<(u64, u32)> {
        index
            .flats()
            .map(|(id, _)| (id, index.slot(id).expect("indexed consumers hold a slot")))
            .collect()
    }

    /// Check the dense-scatter kernel against the merge reference on
    /// every ordered pair of live slots: per-pair score bits, and
    /// [`rerank`] against the reference top-k over the same candidates.
    fn assert_kernel_matches_merge(
        index: &ProfileIndex,
        configs: &[SimilarityConfig],
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::prop_assert_eq;
        let live = live_slots(index);
        let mut scratch = AnnScratch::default();
        for config in configs {
            for (target_id, target) in &live {
                scratch.candidates.clear();
                scratch
                    .candidates
                    .extend(live.iter().map(|(_, s)| *s).filter(|s| s != target));
                let mut reference = Vec::new();
                for slot in &scratch.candidates {
                    let (a, b) = (index.row(*target), index.row(*slot));
                    let merged = score_pair(a, b, config);
                    if merged > config.neighbour_floor {
                        reference.push((b.id, merged));
                    }
                    let mut weights = vec![0.0; index.vocab_len()];
                    for (tid, w) in a.term_ids.iter().zip(&a.weights) {
                        weights[*tid as usize] = *w;
                    }
                    let scattered = score_scattered(a, &weights, b, config, &mut Vec::new());
                    prop_assert_eq!(
                        scattered.to_bits(),
                        merged.to_bits(),
                        "{:?}: {} vs {} under {:?}",
                        (target_id, b.id),
                        scattered,
                        merged,
                        config
                    );
                }
                let got = rerank(index, *target, config, &mut scratch, 1_000);
                let want = top_k(reference, 1_000);
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
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// The dense-scatter kernel is bit-identical to the two-pointer
        /// merge over random vectors whose slots are assigned, updated
        /// wholesale, patched by feedback deltas and recycled after
        /// removal.
        #[test]
        fn kernel_matches_merge_over_random_vectors(
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
            assert_kernel_matches_merge(&index, &kernel_configs(threshold))?;
        }

        /// The same equivalence on a store driven through its public
        /// mutators — feedback events, wholesale profile imports
        /// (including empty ones) and the decay pass that rebuilds every
        /// slot — and end to end through an exhaustive ANN query, whose
        /// LSH index is built part-way and then maintained incrementally.
        #[test]
        fn kernel_matches_merge_over_store_interleavings(
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
            let index = store.profile_index();
            assert_kernel_matches_merge(index, &configs)?;
            for config in &configs {
                let ann = SimilarityConfig { ann: exhaustive.ann, ..*config };
                for (id, target) in live_slots(index) {
                    let want: Vec<(u64, u64)> = top_k(
                        live_slots(index).into_iter().filter(|(_, s)| *s != target).filter_map(
                            |(other, slot)| {
                                let score = score_pair(index.row(target), index.row(slot), config);
                                (score > config.neighbour_floor).then_some((other, score))
                            },
                        ),
                        1_000,
                    )
                    .into_iter()
                    .map(|(c, s)| (c, s.to_bits()))
                    .collect();
                    let got: Vec<(u64, u64)> = store
                        .nearest_neighbours(ConsumerId(id), &ann, 1_000)
                        .into_iter()
                        .map(|(c, s)| (c.0, s.to_bits()))
                        .collect();
                    prop_assert_eq!(got, want, "ANN query of {} under {:?}", id, config);
                }
            }
        }
    }
}
