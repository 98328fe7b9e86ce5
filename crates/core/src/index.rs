//! Query-serving indexes over the recommendation store.
//!
//! The naive similarity step of Fig 4.5 flattens every profile and scores
//! every consumer on every query — O(consumers × terms) per request. This
//! module holds the derived structures [`crate::store::RecommendStore`]
//! maintains incrementally so the hot path only touches plausible
//! candidates:
//!
//! * [`ProfileIndex`] — the one stored form of every profile: a dense
//!   consumer slot holding the flattened vector as interned term ids in
//!   term (string) order, a slot-indexed norm array, and weighted
//!   term → slots posting lists (each row's weight for the term beside
//!   its slot). Consumers sharing no term with the target score exactly
//!   `0.0` under every similarity method, so (for a non-negative
//!   neighbour floor) scoring only posting-list candidates is lossless.
//!   Every neighbour source hands its candidates to the one re-rank
//!   kernel of [`crate::ann`], which reads these rows;
//! * [`ItemSimCache`] — memoized item–item cosine similarities for
//!   item-based CF, invalidated wholesale whenever the ratings matrix
//!   version changes;
//! * a bounded top-k selector replicating the reference
//!   "sort by (score desc, id asc), truncate(k)" ranking without sorting
//!   the full candidate list.
//!
//! All structures are rebuildable from the store's primary data; they are
//! never serialized.

use crate::learning::ProfileDelta;
use crate::profile::Profile;
use ecp::terms::TermVector;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, VecDeque};

/// Slot rows plus weighted term → slot posting lists. Every indexed
/// consumer holds a dense `u32` slot (assigned on first sight, recycled
/// after [`ProfileIndex::remove`]); its [`SlotRow`] keeps the consumer id
/// and the flat vector as term ids plus their weights, and `norms` its
/// flat norm. Term ids are dense too (assigned on first sight, never
/// recycled), so a kernel can address a vocabulary-sized array by them
/// and a candidate costs one indexed load plus one pass over its row — no
/// map lookups, no string compares.
#[derive(Debug, Clone, Default)]
pub struct ProfileIndex {
    slots: BTreeMap<u64, u32>,
    rows: Vec<SlotRow>,
    /// Slot → flat norm of its row (`0.0` for a free slot), dense so a
    /// pass over candidate slots reads norms without touching any row.
    norms: Vec<f64>,
    free_slots: Vec<u32>,
    /// Term id → the slots whose row holds the term, with their weights.
    postings: Vec<Posting>,
    term_ids: HashMap<String, u32>,
    /// Term id → term.
    terms: Vec<String>,
}

/// One term's posting list: the slots whose row holds the term, in
/// ascending order, and each row's weight for the term at the same
/// position — so a term-at-a-time pass reads a candidate's weight without
/// touching its row.
#[derive(Debug, Clone, Default)]
pub(crate) struct Posting {
    pub(crate) slots: Vec<u32>,
    pub(crate) weights: Vec<f64>,
}

impl Posting {
    /// Set `slot`'s weight, inserting the slot in order if absent.
    fn set(&mut self, slot: u32, w: f64) {
        match self.slots.binary_search(&slot) {
            Ok(pos) => self.weights[pos] = w,
            Err(pos) => {
                self.slots.insert(pos, slot);
                self.weights.insert(pos, w);
            }
        }
    }

    /// Drop `slot`, if listed.
    fn remove(&mut self, slot: u32) {
        if let Ok(pos) = self.slots.binary_search(&slot) {
            self.slots.remove(pos);
            self.weights.remove(pos);
        }
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// One slot of [`ProfileIndex`]: the consumer holding it and its flat
/// vector as term ids with their weights at the same positions. The ids
/// are kept in the order of their term *strings* —
/// the order [`TermVector::iter`] walks — so a kernel summing over a row
/// sums exactly what [`crate::similarity::vector_similarity`] sums, bit
/// for bit. The two live in separate arrays because a re-rank scan reads
/// every term id of a candidate but only the weights of the terms it
/// shares with the target. Every weight is positive (flat vectors never
/// hold zeros), which is what lets a kernel read `0.0` in a dense weight
/// array as "term absent".
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotRow {
    pub(crate) id: u64,
    pub(crate) term_ids: Vec<u32>,
    pub(crate) weights: Vec<f64>,
}

/// Euclidean norm of `weights` summed in row order — for a row in term
/// order, bit-identical to [`TermVector::norm`].
fn norm_of(weights: &[f64]) -> f64 {
    weights.iter().map(|w| w * w).sum::<f64>().sqrt()
}

impl ProfileIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an index over `profiles` from scratch.
    pub fn rebuild<'a, I>(profiles: I) -> Self
    where
        I: IntoIterator<Item = (u64, &'a Profile)>,
    {
        let mut index = ProfileIndex::new();
        for (id, profile) in profiles {
            index.update(id, profile);
        }
        index
    }

    /// Insert or refresh the entry for `id` after its profile changed.
    /// An already indexed consumer keeps its slot.
    pub fn update(&mut self, id: u64, profile: &Profile) {
        self.put(id, &profile.flatten());
    }

    /// [`ProfileIndex::update`] from an already flattened vector. The
    /// slot leaves the posting lists of the terms the new row lacks; the
    /// rest are set in place (a kept term keeps its list position).
    pub(crate) fn put(&mut self, id: u64, vector: &TermVector) {
        let slot = self.slot_for(id);
        let (term_ids, weights): (Vec<u32>, Vec<f64>) = vector
            .iter()
            .map(|(term, w)| (self.intern(term), w))
            .unzip();
        for old in &self.rows[slot as usize].term_ids {
            if !term_ids.contains(old) {
                self.postings[*old as usize].remove(slot);
            }
        }
        for (tid, w) in term_ids.iter().zip(&weights) {
            self.postings[*tid as usize].set(slot, *w);
        }
        self.norms[slot as usize] = norm_of(&weights);
        self.rows[slot as usize] = SlotRow {
            id,
            term_ids,
            weights,
        };
    }

    /// Apply a [`ProfileDelta`] from the incremental learning path: only
    /// the changed flat keys are touched in the slot row and postings (a
    /// weight change too, since postings carry weights) —
    /// O(changed terms × log profile) instead of a full re-flatten. Each
    /// key's position is found by comparing term strings, so the row stays
    /// in term order, and the norm is recomputed from the row in that
    /// order, which keeps it bit-identical to a fresh flatten's (the
    /// maintained weights *are* the flatten output; only re-deriving them
    /// wholesale is skipped).
    pub fn apply_delta(&mut self, id: u64, delta: &ProfileDelta) {
        let slot = self.slot_for(id);
        let mut dirty = false;
        for (key, new_w) in delta.changes() {
            let found = self.rows[slot as usize]
                .term_ids
                .binary_search_by(|tid| self.terms[*tid as usize].as_str().cmp(key));
            match (found, new_w > 0.0) {
                (Ok(pos), true) => {
                    let row = &mut self.rows[slot as usize];
                    let w = &mut row.weights[pos];
                    if w.to_bits() == new_w.to_bits() {
                        continue;
                    }
                    *w = new_w;
                    self.postings[row.term_ids[pos] as usize].set(slot, new_w);
                }
                (Err(pos), true) => {
                    let tid = self.intern(key);
                    let row = &mut self.rows[slot as usize];
                    row.term_ids.insert(pos, tid);
                    row.weights.insert(pos, new_w);
                    self.postings[tid as usize].set(slot, new_w);
                }
                (Ok(pos), false) => {
                    let row = &mut self.rows[slot as usize];
                    let tid = row.term_ids.remove(pos);
                    row.weights.remove(pos);
                    self.postings[tid as usize].remove(slot);
                }
                (Err(_), false) => continue,
            }
            dirty = true;
        }
        if dirty {
            self.norms[slot as usize] = norm_of(&self.rows[slot as usize].weights);
        }
    }

    /// Drop the entry for `id` (profile removed from the store). Its slot
    /// goes back to the free list for the next new consumer, so any
    /// structure addressing slots (the LSH tier) must be rebuilt or told.
    pub fn remove(&mut self, id: u64) {
        if let Some(slot) = self.slots.remove(&id) {
            self.unlink(slot);
            self.rows[slot as usize] = SlotRow::default();
            self.norms[slot as usize] = 0.0;
            self.free_slots.push(slot);
        }
    }

    /// Take `slot` out of the posting lists of its row's terms.
    fn unlink(&mut self, slot: u32) {
        for tid in &self.rows[slot as usize].term_ids {
            self.postings[*tid as usize].remove(slot);
        }
    }

    /// `id`'s slot, assigning one (a recycled slot first) if `id` has
    /// none.
    fn slot_for(&mut self, id: u64) -> u32 {
        if let Some(slot) = self.slots.get(&id) {
            return *slot;
        }
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.rows.push(SlotRow::default());
                self.norms.push(0.0);
                u32::try_from(self.rows.len() - 1).expect("fewer than 2^32 indexed consumers")
            }
        };
        self.rows[slot as usize].id = id;
        self.slots.insert(id, slot);
        slot
    }

    /// Id of `term`, assigning the next dense id (and an empty posting
    /// list) on first sight.
    fn intern(&mut self, term: &str) -> u32 {
        if let Some(id) = self.term_ids.get(term) {
            return *id;
        }
        let id = u32::try_from(self.terms.len()).expect("fewer than 2^32 distinct terms");
        self.term_ids.insert(term.to_string(), id);
        self.terms.push(term.to_string());
        self.postings.push(Posting::default());
        id
    }

    /// `id`'s stored flat vector as `(term, weight)` in row (term) order,
    /// if indexed.
    pub fn terms(&self, id: u64) -> Option<impl Iterator<Item = (&str, f64)> + '_> {
        let row = self.row(self.slot(id)?);
        Some(
            row.term_ids
                .iter()
                .zip(&row.weights)
                .map(|(tid, w)| (self.term(*tid), *w)),
        )
    }

    /// `id`'s stored flat norm, if indexed.
    pub fn norm(&self, id: u64) -> Option<f64> {
        Some(self.norms[self.slot(id)? as usize])
    }

    /// Consumers sharing at least one term with `target`, ascending — the
    /// only consumers that can score above zero. Allocates; the query
    /// path gathers posting-list slots into its scratch instead
    /// ([`crate::ann::exact_candidates`]).
    pub fn candidates(&self, target: &TermVector) -> Vec<u64> {
        let ids: BTreeSet<u64> = target
            .iter()
            .filter_map(|(term, _)| self.term_ids.get(term))
            .flat_map(|tid| &self.posting(*tid).slots)
            .map(|slot| self.row(*slot).id)
            .collect();
        ids.into_iter().collect()
    }

    /// `(consumer, slot)` of every indexed consumer, ascending by id.
    pub(crate) fn live(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.slots.iter().map(|(id, slot)| (*id, *slot))
    }

    /// Slot held by `id`, if indexed.
    pub(crate) fn slot(&self, id: u64) -> Option<u32> {
        self.slots.get(&id).copied()
    }

    /// The row of `slot` (a slot handed out by [`ProfileIndex::slot`]).
    pub(crate) fn row(&self, slot: u32) -> &SlotRow {
        &self.rows[slot as usize]
    }

    /// The slot-indexed norm array (a free slot's norm is `0.0`).
    pub(crate) fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// Posting list of term id `tid`: the slots holding it, with weights.
    pub(crate) fn posting(&self, tid: u32) -> &Posting {
        &self.postings[tid as usize]
    }

    /// The term behind term id `tid`.
    pub(crate) fn term(&self, tid: u32) -> &str {
        &self.terms[tid as usize]
    }

    /// Number of slots handed out, live or free: every slot is below it.
    pub(crate) fn slot_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of term ids handed out: every row's term ids are below it.
    pub(crate) fn vocab_len(&self) -> usize {
        self.terms.len()
    }

    /// Number of indexed consumers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no consumer is indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of distinct terms some indexed consumer holds (non-empty
    /// posting lists).
    pub fn term_count(&self) -> usize {
        self.postings.iter().filter(|p| !p.is_empty()).count()
    }
}

/// Default [`ItemSimCache`] capacity — pairs, not bytes. At ~40 bytes a
/// pair this bounds the cache near 2.5 MB.
pub const ITEM_SIM_CACHE_CAPACITY: usize = 65_536;

/// Memoized item–item cosine similarities, keyed by
/// `(min(a, b), max(a, b), min_overlap)` — [`crate::itemcf::item_cosine`]
/// is symmetric, bitwise — valid only for one ratings-matrix version and
/// bounded in size: when a generation outgrows `capacity`, the oldest
/// inserted pairs are evicted FIFO. Evictions are tagged by cause —
/// `invalidated` (version roll dropped a still-fresh generation) vs
/// `capacity_evicted` (the bound pushed out live entries) — so telemetry
/// can tell "the matrix churns" from "the cache is too small".
#[derive(Debug, Clone)]
pub struct ItemSimCache {
    version: u64,
    sims: HashMap<(u64, u64, usize), Option<f64>>,
    /// Insertion order of the current generation, for FIFO eviction.
    order: VecDeque<(u64, u64, usize)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    invalidated: u64,
    capacity_evicted: u64,
}

impl Default for ItemSimCache {
    fn default() -> Self {
        ItemSimCache {
            version: 0,
            sims: HashMap::new(),
            order: VecDeque::new(),
            capacity: ITEM_SIM_CACHE_CAPACITY,
            hits: 0,
            misses: 0,
            invalidated: 0,
            capacity_evicted: 0,
        }
    }
}

impl ItemSimCache {
    /// Cached similarity for `key`, if computed at `version`. A version
    /// mismatch clears the cache (the ratings matrix changed). Hit/miss
    /// tallies feed the telemetry registry's cache-effectiveness gauges.
    pub fn lookup(&mut self, version: u64, key: (u64, u64, usize)) -> Option<Option<f64>> {
        self.roll(version);
        let found = self.sims.get(&key).copied();
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Lifetime `(hits, misses)` of [`ItemSimCache::lookup`]. Survives
    /// version rolls: effectiveness is a property of the workload, not of
    /// one matrix generation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Lifetime `(invalidated, capacity_evicted)` eviction tallies:
    /// entries dropped because their ratings-matrix generation rolled vs
    /// entries pushed out of a live generation by the capacity bound.
    pub fn eviction_stats(&self) -> (u64, u64) {
        (self.invalidated, self.capacity_evicted)
    }

    /// Change the capacity bound (pairs). Shrinking below the current
    /// population evicts FIFO immediately.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.enforce_capacity();
    }

    /// Record a computed similarity at `version`.
    pub fn insert(&mut self, version: u64, key: (u64, u64, usize), sim: Option<f64>) {
        self.roll(version);
        if self.sims.insert(key, sim).is_none() {
            self.order.push_back(key);
            self.enforce_capacity();
        }
    }

    fn enforce_capacity(&mut self) {
        while self.sims.len() > self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if self.sims.remove(&oldest).is_some() {
                self.capacity_evicted += 1;
            }
        }
    }

    fn roll(&mut self, version: u64) {
        if self.version != version {
            self.invalidated += self.sims.len() as u64;
            self.sims.clear();
            self.order.clear();
            self.version = version;
        }
    }

    /// Number of cached pairs (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// Whether the cache holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }
}

/// One scored candidate during top-k selection. `Ord` is "better":
/// greater means higher score, ties broken towards the *smaller* id —
/// exactly the reference comparator
/// `sort_by(score desc, id asc)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankEntry {
    pub id: u64,
    pub score: f64,
}

impl Ord for RankEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for RankEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RankEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankEntry {}

/// The best `k` entries pushed so far under the reference ordering
/// `sort_by(score desc, id asc); truncate(k)`, kept in a bounded min-heap
/// instead of a full sort. The result is identical to the reference
/// because the ordering is total over unique ids, so it does not depend
/// on the order entries are pushed in. The heap is the only allocation,
/// and [`TopK::into_sorted`] hands its buffer back as the result.
pub(crate) struct TopK {
    heap: BinaryHeap<Reverse<RankEntry>>,
    k: usize,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        let capacity = if k == 0 { 0 } else { k + 1 };
        TopK {
            heap: BinaryHeap::with_capacity(capacity),
            k,
        }
    }

    pub(crate) fn push(&mut self, id: u64, score: f64) {
        let entry = RankEntry { id, score };
        if self.heap.len() < self.k {
            self.heap.push(Reverse(entry));
        } else if let Some(Reverse(worst)) = self.heap.peek() {
            if entry > *worst {
                self.heap.pop();
                self.heap.push(Reverse(entry));
            }
        }
    }

    /// The `k`-th best score, once `k` entries are held: an entry scoring
    /// below it can no longer make the cut.
    pub(crate) fn kth_score(&self) -> Option<f64> {
        if self.heap.len() < self.k {
            return None;
        }
        self.heap.peek().map(|Reverse(worst)| worst.score)
    }

    /// The held entries, best first.
    pub(crate) fn into_sorted(self) -> Vec<(u64, f64)> {
        let mut best: Vec<RankEntry> = self.heap.into_iter().map(|Reverse(e)| e).collect();
        best.sort_by(|a, b| b.cmp(a));
        best.into_iter().map(|e| (e.id, e.score)).collect()
    }
}

/// Best `k` of `scored` under the reference ordering (see [`TopK`]).
/// Taking an iterator lets a caller stream scores in without collecting
/// them first.
pub(crate) fn top_k(scored: impl IntoIterator<Item = (u64, f64)>, k: usize) -> Vec<(u64, f64)> {
    let mut best = TopK::new(k);
    for (id, score) in scored {
        best.push(id, score);
    }
    best.into_sorted()
}

/// Map `f` over `items` on all available cores, preserving order — the
/// result is element-for-element identical to `items.iter().map(f)`.
/// Chunks are scored independently and concatenated in chunk order, so
/// the merge is deterministic.
#[cfg(feature = "parallel")]
pub(crate) fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            out.extend(handle.join().expect("par_map worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(pairs: &[(&str, &str, &str, f64)]) -> Profile {
        let mut p = Profile::new();
        for (cat, sub, term, w) in pairs {
            p.category_mut(cat).sub_mut(sub).set(*term, *w);
        }
        p
    }

    /// `id`'s stored row as `(term, weight bits)`, in row order.
    fn row_of(index: &ProfileIndex, id: u64) -> Vec<(String, u64)> {
        index
            .terms(id)
            .expect("indexed consumer")
            .map(|(t, w)| (t.to_string(), w.to_bits()))
            .collect()
    }

    #[test]
    fn update_replaces_old_postings() {
        let mut index = ProfileIndex::new();
        index.update(1, &profile(&[("books", "prog", "rust", 1.0)]));
        let old_term = TermVector::from_pairs([("books/prog/rust", 1.0)]);
        assert_eq!(index.candidates(&old_term), vec![1]);
        // profile drifts to a different term: the old posting must vanish
        index.update(1, &profile(&[("music", "jazz", "sax", 1.0)]));
        assert!(index.candidates(&old_term).is_empty());
        let new_term = TermVector::from_pairs([("music/jazz/sax", 1.0)]);
        assert_eq!(index.candidates(&new_term), vec![1]);
        assert_eq!(index.term_count(), 1);
    }

    #[test]
    fn remove_unlinks_everything() {
        let mut index = ProfileIndex::new();
        index.update(1, &profile(&[("books", "prog", "rust", 1.0)]));
        index.update(2, &profile(&[("books", "prog", "rust", 1.0)]));
        let freed = index.slot(1).unwrap();
        index.remove(1);
        assert!(index.terms(1).is_none());
        assert!(index.slot(1).is_none());
        let term = TermVector::from_pairs([("books/prog/rust", 1.0)]);
        assert_eq!(index.candidates(&term), vec![2]);
        // the next new consumer recycles the freed slot, with a fresh row
        index.update(3, &profile(&[("music", "jazz", "sax", 2.0)]));
        assert_eq!(index.slot(3), Some(freed));
        let row = index.row(freed);
        assert_eq!((row.id, row.term_ids.len(), row.weights.len()), (3, 1, 1));
        assert_eq!(index.norms()[freed as usize].to_bits(), 2.0f64.to_bits());
        index.remove(3);
        index.remove(2);
        assert!(index.is_empty());
        assert_eq!(index.term_count(), 0);
    }

    #[test]
    fn candidates_union_is_sorted_and_deduplicated() {
        let mut index = ProfileIndex::new();
        index.update(3, &profile(&[("b", "p", "x", 1.0), ("b", "p", "y", 1.0)]));
        index.update(1, &profile(&[("b", "p", "x", 1.0)]));
        index.update(2, &profile(&[("b", "p", "y", 1.0)]));
        let target = TermVector::from_pairs([("b/p/x", 1.0), ("b/p/y", 1.0)]);
        assert_eq!(index.candidates(&target), vec![1, 2, 3]);
    }

    #[test]
    fn rows_hold_the_flattened_vector_in_term_order() {
        let mut index = ProfileIndex::new();
        // intern "z…" first, so term ids and term order disagree
        index.update(1, &profile(&[("z", "z", "z", 1.0)]));
        let p = profile(&[
            ("music", "jazz", "sax", 0.5),
            ("books", "prog", "rust", 2.0),
            ("z", "z", "z", 0.25),
        ]);
        index.update(2, &p);
        let flat = p.flatten();
        let want: Vec<(String, u64)> = flat
            .iter()
            .map(|(t, w)| (t.to_string(), w.to_bits()))
            .collect();
        assert_eq!(row_of(&index, 2), want);
        assert_eq!(index.norm(2).unwrap().to_bits(), flat.norm().to_bits());
        let row = index.row(index.slot(2).unwrap());
        assert!(
            row.term_ids.windows(2).any(|w| w[0] > w[1]),
            "ids follow term order, not ascending id"
        );
    }

    #[test]
    fn top_k_matches_reference_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..50 {
            let n = rng.gen_range(0..40usize);
            let scored: Vec<(u64, f64)> = (0..n)
                .map(|i| (i as u64, (rng.gen_range(0..5u32) as f64) / 4.0))
                .collect();
            for k in [0usize, 1, 3, 10, 100] {
                let mut reference = scored.clone();
                reference.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                reference.truncate(k);
                assert_eq!(top_k(scored.clone(), k), reference);
            }
        }
    }

    #[test]
    fn item_sim_cache_invalidates_on_version_change() {
        let mut cache = ItemSimCache::default();
        cache.insert(1, (1, 2, 2), Some(0.5));
        assert_eq!(cache.lookup(1, (1, 2, 2)), Some(Some(0.5)));
        // same version, unknown key
        assert_eq!(cache.lookup(1, (1, 3, 2)), None);
        // version moves on: everything is stale
        assert_eq!(cache.lookup(2, (1, 2, 2)), None);
        assert!(cache.is_empty());
        assert_eq!(cache.eviction_stats(), (1, 0));
    }

    #[test]
    fn item_sim_cache_capacity_evicts_fifo_and_tags_cause() {
        let mut cache = ItemSimCache::default();
        cache.set_capacity(2);
        cache.insert(1, (1, 2, 2), Some(0.1));
        cache.insert(1, (1, 3, 2), Some(0.2));
        cache.insert(1, (1, 4, 2), Some(0.3));
        // oldest pair went out by capacity, not invalidation
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(1, (1, 2, 2)), None);
        assert_eq!(cache.lookup(1, (1, 3, 2)), Some(Some(0.2)));
        assert_eq!(cache.eviction_stats(), (0, 1));
        // overwriting a live key must not double-count it in the order
        cache.insert(1, (1, 3, 2), Some(0.25));
        assert_eq!(cache.len(), 2);
        // a version roll tags the survivors as invalidated
        assert_eq!(cache.lookup(2, (1, 3, 2)), None);
        assert_eq!(cache.eviction_stats(), (2, 1));
    }

    #[test]
    fn apply_delta_tracks_full_update() {
        use crate::learning::ProfileDelta;
        let mut incremental = ProfileIndex::new();
        let mut full = ProfileIndex::new();
        let start = profile(&[("b", "p", "x", 1.0), ("b", "p", "y", 0.5)]);
        incremental.update(7, &start);
        full.update(7, &start);
        // drift: y strengthens, x vanishes, z appears, and "b//seed" is
        // interned last but sorts first
        let mut next = profile(&[("b", "p", "y", 0.9), ("b", "p", "z", 0.4)]);
        next.category_mut("b").terms.set("seed", 0.2);
        let delta = ProfileDelta::from_pairs([
            ("b/p/x".to_string(), 0.0),
            ("b/p/y".to_string(), 0.9),
            ("b/p/z".to_string(), 0.4),
            ("b//seed".to_string(), 0.2),
        ]);
        incremental.apply_delta(7, &delta);
        full.update(7, &next);
        assert_eq!(row_of(&incremental, 7), row_of(&full, 7));
        assert_eq!(
            incremental.norm(7).unwrap().to_bits(),
            full.norm(7).unwrap().to_bits()
        );
        assert_eq!(incremental.term_count(), full.term_count());
        let probe = TermVector::from_pairs([("b/p/x", 1.0)]);
        assert!(incremental.candidates(&probe).is_empty());
        let probe = TermVector::from_pairs([("b/p/z", 1.0)]);
        assert_eq!(incremental.candidates(&probe), vec![7]);
        let row = incremental.row(incremental.slot(7).unwrap());
        assert_eq!(row.id, 7);
        assert_eq!((row.term_ids.len(), row.weights.len()), (3, 3));
    }

    /// The weighted posting lists hold exactly the rows: every listed
    /// `(slot, weight)` is the row's weight for the term bit for bit,
    /// every row term is listed, lists are ascending, and the norm array
    /// agrees with the rows.
    fn assert_postings_match_rows(index: &ProfileIndex) {
        let mut listed = 0;
        for (tid, posting) in index.postings.iter().enumerate() {
            assert_eq!(posting.slots.len(), posting.weights.len());
            assert!(
                posting.slots.windows(2).all(|w| w[0] < w[1]),
                "list of {tid} out of order"
            );
            for (slot, w) in posting.slots.iter().zip(&posting.weights) {
                let row = index.row(*slot);
                let pos = row.term_ids.iter().position(|t| *t as usize == tid);
                let pos = pos.expect("a listed slot's row holds the term");
                assert_eq!(
                    row.weights[pos].to_bits(),
                    w.to_bits(),
                    "weight of {tid} in {slot}"
                );
            }
            listed += posting.slots.len();
        }
        let mut held = 0;
        for (_, slot) in index.live() {
            let row = index.row(slot);
            for tid in &row.term_ids {
                assert!(index.posting(*tid).slots.binary_search(&slot).is_ok());
            }
            held += row.term_ids.len();
            assert_eq!(
                index.norms()[slot as usize].to_bits(),
                norm_of(&row.weights).to_bits()
            );
        }
        assert_eq!(listed, held);
    }

    #[test]
    fn posting_weights_follow_every_row_change() {
        use crate::learning::ProfileDelta;
        let mut index = ProfileIndex::new();
        index.update(1, &profile(&[("b", "p", "x", 1.0), ("b", "p", "y", 0.5)]));
        index.update(2, &profile(&[("b", "p", "x", 2.0)]));
        index.update(3, &profile(&[("b", "p", "y", 0.25)]));
        assert_postings_match_rows(&index);
        for (key, w) in [
            ("b/p/x", 0.75), // weight change
            ("b/p/z", 0.4),  // insert
            ("b/p/y", 0.0),  // delete
        ] {
            index.apply_delta(1, &ProfileDelta::from_pairs([(key.to_string(), w)]));
            assert_postings_match_rows(&index);
        }
        let x = index.term_ids["b/p/x"];
        assert_eq!(index.posting(x).weights, vec![0.75, 2.0]);
        // a wholesale update keeps a kept term's position, sets its weight
        index.update(2, &profile(&[("b", "p", "x", 3.0), ("b", "p", "w", 1.0)]));
        assert_postings_match_rows(&index);
        assert_eq!(index.posting(x).weights, vec![0.75, 3.0]);
        index.remove(1);
        assert_postings_match_rows(&index);
        assert_eq!(index.posting(x).slots, vec![index.slot(2).unwrap()]);
        // the freed slot is recycled with a fresh row and norm
        index.update(4, &profile(&[("b", "p", "x", 0.5)]));
        assert_postings_match_rows(&index);
        assert_eq!(index.posting(x).weights, vec![0.5, 3.0]);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(par_map(&items, |x| x * 3 + 1), seq);
        let empty: Vec<u64> = Vec::new();
        assert!(par_map(&empty, |x| *x).is_empty());
    }
}
