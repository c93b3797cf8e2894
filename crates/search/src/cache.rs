//! LRU cache of query results for the serving path.
//!
//! The prebuilt posting index (see [`crate::engine::BurstySearchEngine`])
//! makes individual queries cheap; real query workloads are additionally
//! highly repetitive, so the engine keeps a small LRU cache of fully
//! evaluated top-k result lists. Entries are keyed on the complete query
//! identity — the (sorted) term multiset, `k`, and the scoring
//! configuration — and are invalidated per term whenever
//! [`crate::engine::BurstySearchEngine::set_patterns`] changes that term's
//! patterns, so a hit is always equivalent to re-running the query.
//!
//! The cache is internally synchronized (a `Mutex` around the map, atomic
//! hit/miss counters), so a finalized engine — and the serving front, whose
//! entries are tagged with the generation they were computed from — can
//! serve `&self` queries from multiple threads.

use crate::engine::{EngineConfig, SearchResult};
use stb_obs::Counter;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

use stb_corpus::TermId;
use stb_geo::Rect;
use stb_timeseries::TimeInterval;

/// Identity of a cached query: term multiset (sorted), result size, the
/// effective engine configuration, and the spatiotemporal filters — the
/// full canonicalized query. Two queries differing only in their time
/// window or region hash to different keys, so filtered and unfiltered
/// results can never collide.
///
/// Terms are sorted because Eq. 10 sums per-term contributions — queries
/// that are permutations of each other have identical results. The key
/// itself stores whatever term list it is given (it stays usable as a raw
/// multiset key), but planned queries never contain duplicates: the
/// planner collapses repeated terms canonically before any key is built,
/// so cache keys, TA scans, and subscription keys always agree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    terms: Vec<TermId>,
    k: usize,
    config: EngineConfig,
    /// Closed time window as `(start, end)`, if filtered.
    window: Option<(usize, usize)>,
    /// Region corners as IEEE-754 bit patterns `[min_x, min_y, max_x,
    /// max_y]` — bitwise identity, so the key stays `Eq + Hash` without
    /// giving distinct float values (e.g. `0.0` vs `-0.0`) the same key.
    region: Option<[u64; 4]>,
}

impl QueryKey {
    /// Builds the key for an unfiltered query, normalizing term order.
    pub fn new(query: &[TermId], k: usize, config: EngineConfig) -> Self {
        Self::canonical(query, k, config, None, None)
    }

    /// Builds the full canonical key: sorted terms, result size, effective
    /// configuration, and the query's time/region filters.
    pub fn canonical(
        query: &[TermId],
        k: usize,
        config: EngineConfig,
        window: Option<TimeInterval>,
        region: Option<Rect>,
    ) -> Self {
        let mut terms = query.to_vec();
        terms.sort();
        Self {
            terms,
            k,
            config,
            window: window.map(|w| (w.start, w.end)),
            region: region.map(|r| {
                [
                    r.min_x.to_bits(),
                    r.min_y.to_bits(),
                    r.max_x.to_bits(),
                    r.max_y.to_bits(),
                ]
            }),
        }
    }

    /// Whether the key's query involves `term` (used for invalidation).
    fn involves(&self, term: TermId) -> bool {
        self.terms.binary_search(&term).is_ok()
    }

    /// The key's term set, sorted ascending. For keys built from a planned
    /// query this is the canonical deduplicated term set — the
    /// subscription registry indexes registrations by exactly these terms.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Stable single-line rendering of the canonical query identity for
    /// the slow-query log, e.g. `terms=[3,17] k=10 window=2..=5`.
    ///
    /// Covers the fields an operator triages on — sorted terms, `k`, and
    /// the spatiotemporal filters; the scoring configuration (also part of
    /// the key's identity) is omitted for brevity.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("terms=[");
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", t.0);
        }
        let _ = write!(out, "] k={}", self.k);
        if let Some((start, end)) = self.window {
            let _ = write!(out, " window={start}..={end}");
        }
        if let Some(bits) = self.region {
            let [min_x, min_y, max_x, max_y] = bits.map(f64::from_bits);
            let _ = write!(out, " region=({min_x},{min_y})..({max_x},{max_y})");
        }
        out
    }
}

#[derive(Debug)]
struct Entry {
    results: Vec<SearchResult>,
    /// Logical timestamp of the last access (monotone counter, not wall
    /// clock), used for least-recently-used eviction.
    last_used: u64,
    /// Serving generation the results were computed from (0 for unversioned
    /// callers). A reader serving generation `g` may only consume entries
    /// with `generation <= g` — see [`QueryCache::get_at`].
    generation: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<QueryKey, Entry>,
    /// Recency index: `last_used` → key, one entry per cached query. Every
    /// cache operation takes a fresh clock value, so timestamps are unique
    /// and the first entry is always the least recently used.
    recency: BTreeMap<u64, QueryKey>,
    clock: u64,
    capacity: usize,
}

impl Inner {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn remove(&mut self, key: &QueryKey) {
        if let Some(entry) = self.map.remove(key) {
            self.recency.remove(&entry.last_used);
        }
    }
}

/// An LRU cache of top-k query results with per-term invalidation.
///
/// Capacity 0 disables the cache entirely (every lookup misses, nothing is
/// stored). Lookups and insertions are `O(log capacity)`: a recency index
/// ordered by last use finds the eviction victim without scanning.
/// Per-term invalidation scans every entry.
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<Inner>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` distinct queries.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                capacity,
                ..Inner::default()
            }),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic mid-update could leave the map and the recency index
        // disagreeing, so a poisoned cache is not reused.
        self.inner
            .lock()
            .expect("query cache poisoned: a thread panicked while updating it")
    }

    /// Maximum number of cached queries (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Empties the cache and changes its capacity (0 disables caching).
    /// The hit/miss counters keep counting.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.recency.clear();
        inner.capacity = capacity;
    }

    /// The live hit and miss cells, for adoption into an `ObsRegistry`.
    pub(crate) fn counter_cells(&self) -> (&Arc<Counter>, &Arc<Counter>) {
        (&self.hits, &self.misses)
    }

    /// Looks up a query, refreshing its recency on a hit.
    pub fn get(&self, key: &QueryKey) -> Option<Vec<SearchResult>> {
        self.get_at(key, u64::MAX)
    }

    /// Looks up a query on behalf of a reader serving `generation`.
    ///
    /// A hit is returned only when the entry was computed from that
    /// generation *or an older one* — older surviving entries are exact
    /// because every intervening publish invalidated the queries its dirty
    /// terms touched. Entries from a **newer** generation are rejected (and
    /// counted as a miss): a reader still holding generation `g` while
    /// `g+1` is being published must not serve results referencing state
    /// (e.g. documents) that `g` does not contain.
    pub fn get_at(&self, key: &QueryKey, generation: u64) -> Option<Vec<SearchResult>> {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            self.misses.inc();
            return None;
        }
        let clock = inner.tick();
        let Inner { map, recency, .. } = &mut *inner;
        match map.get_mut(key) {
            Some(entry) if entry.generation <= generation => {
                if let Some(k) = recency.remove(&entry.last_used) {
                    recency.insert(clock, k);
                }
                entry.last_used = clock;
                self.hits.inc();
                Some(entry.results.clone())
            }
            _ => {
                self.misses.inc();
                None
            }
        }
    }

    /// Stores a query's results, evicting the least-recently-used entry if
    /// the cache is full.
    pub fn put(&self, key: QueryKey, results: Vec<SearchResult>) {
        self.put_tagged(key, results, 0, || true);
    }

    /// Stores a query's results computed from serving generation
    /// `generation`, only if `valid` still holds once the cache lock is
    /// taken.
    ///
    /// This closes the serving front's staleness race: a reader evaluates
    /// against generation `g`, then calls `put_tagged` with a check that
    /// the published generation is still `g`. Because the check runs
    /// *under the same mutex* the writer's per-term invalidation takes, a
    /// stale result either observes the bumped generation here (and is not
    /// inserted) or is inserted before the writer invalidates — in which
    /// case the writer's invalidation removes it.
    pub fn put_tagged(
        &self,
        key: QueryKey,
        results: Vec<SearchResult>,
        generation: u64,
        valid: impl FnOnce() -> bool,
    ) {
        let mut inner = self.lock();
        if inner.capacity == 0 || !valid() {
            return;
        }
        let clock = inner.tick();
        inner.remove(&key);
        if inner.map.len() >= inner.capacity {
            if let Some((_, lru)) = inner.recency.pop_first() {
                inner.map.remove(&lru);
            }
        }
        inner.recency.insert(clock, key.clone());
        inner.map.insert(
            key,
            Entry {
                results,
                last_used: clock,
                generation,
            },
        );
    }

    /// Drops every cached query that involves `term`.
    pub fn invalidate_term(&self, term: TermId) {
        let mut inner = self.lock();
        let Inner { map, recency, .. } = &mut *inner;
        map.retain(|key, entry| {
            let keep = !key.involves(term);
            if !keep {
                recency.remove(&entry.last_used);
            }
            keep
        });
    }

    /// Drops every cached entry.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.recency.clear();
    }

    /// Number of currently cached queries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of lookups that missed since construction.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stb_corpus::DocId;

    fn key(terms: &[u32], k: usize) -> QueryKey {
        let terms: Vec<TermId> = terms.iter().map(|&t| TermId(t)).collect();
        QueryKey::new(&terms, k, EngineConfig::default())
    }

    fn results(n: u32) -> Vec<SearchResult> {
        (0..n)
            .map(|i| SearchResult {
                doc: DocId(i),
                score: f64::from(n),
            })
            .collect()
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = QueryCache::new(4);
        assert_eq!(cache.get(&key(&[1], 5)), None);
        cache.put(key(&[1], 5), results(2));
        assert_eq!(cache.get(&key(&[1], 5)), Some(results(2)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn key_is_order_insensitive_but_k_sensitive() {
        let cache = QueryCache::new(4);
        cache.put(key(&[2, 1], 5), results(1));
        assert!(cache.get(&key(&[1, 2], 5)).is_some());
        assert!(cache.get(&key(&[1, 2], 6)).is_none());
        // Duplicate terms are a different query than the deduplicated one.
        assert!(cache.get(&key(&[1, 2, 2], 5)).is_none());
    }

    #[test]
    fn filters_are_part_of_the_key() {
        let cache = QueryCache::new(8);
        let terms = [TermId(1), TermId(2)];
        let config = EngineConfig::default();
        let unfiltered = QueryKey::canonical(&terms, 5, config, None, None);
        let windowed = QueryKey::canonical(&terms, 5, config, Some(TimeInterval::new(0, 3)), None);
        let other_window =
            QueryKey::canonical(&terms, 5, config, Some(TimeInterval::new(4, 9)), None);
        let regioned =
            QueryKey::canonical(&terms, 5, config, None, Some(Rect::new(0.0, 0.0, 1.0, 1.0)));
        let other_region =
            QueryKey::canonical(&terms, 5, config, None, Some(Rect::new(0.0, 0.0, 2.0, 2.0)));
        let keys = [unfiltered, windowed, other_window, regioned, other_region];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "two queries differing only in filters collided");
            }
        }
        for (i, key) in keys.iter().enumerate() {
            cache.put(key.clone(), results(i as u32 + 1));
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(cache.get(key), Some(results(i as u32 + 1)));
        }
        // The unfiltered constructor and the canonical one agree.
        assert_eq!(
            QueryKey::new(&terms, 5, config),
            QueryKey::canonical(&terms, 5, config, None, None)
        );
        // Per-term invalidation still drops filtered entries.
        cache.invalidate_term(TermId(2));
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = QueryCache::new(0);
        cache.put(key(&[1], 5), results(1));
        assert_eq!(cache.get(&key(&[1], 5)), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_eviction_keeps_recent_entries() {
        let cache = QueryCache::new(2);
        cache.put(key(&[1], 5), results(1));
        cache.put(key(&[2], 5), results(2));
        // Touch [1] so [2] becomes the LRU entry.
        assert!(cache.get(&key(&[1], 5)).is_some());
        cache.put(key(&[3], 5), results(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(&[1], 5)).is_some());
        assert!(cache.get(&key(&[2], 5)).is_none());
        assert!(cache.get(&key(&[3], 5)).is_some());
    }

    #[test]
    fn invalidate_term_drops_only_involving_queries() {
        let cache = QueryCache::new(8);
        cache.put(key(&[1, 2], 5), results(1));
        cache.put(key(&[2, 3], 5), results(2));
        cache.put(key(&[3, 4], 5), results(3));
        cache.invalidate_term(TermId(2));
        assert!(cache.get(&key(&[1, 2], 5)).is_none());
        assert!(cache.get(&key(&[2, 3], 5)).is_none());
        assert!(cache.get(&key(&[3, 4], 5)).is_some());
    }

    #[test]
    fn get_at_rejects_entries_from_newer_generations() {
        let cache = QueryCache::new(4);
        cache.put_tagged(key(&[1], 5), results(1), 7, || true);
        // A reader still serving an older generation must not see it...
        assert_eq!(cache.get_at(&key(&[1], 5), 6), None);
        // ...while readers at or past the entry's generation do.
        assert_eq!(cache.get_at(&key(&[1], 5), 7), Some(results(1)));
        assert_eq!(cache.get_at(&key(&[1], 5), 8), Some(results(1)));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        // Untagged `put` entries are visible to every reader.
        cache.put(key(&[2], 5), results(2));
        assert_eq!(cache.get_at(&key(&[2], 5), 0), Some(results(2)));
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = QueryCache::new(8);
        cache.put(key(&[1], 5), results(1));
        cache.clear();
        assert!(cache.is_empty());
    }

    /// The original cache: LRU eviction by a linear scan for the smallest
    /// `last_used`. The reference the recency index must match exactly.
    #[derive(Default)]
    struct LinearScan {
        map: HashMap<QueryKey, (Vec<SearchResult>, u64, u64)>,
        clock: u64,
        capacity: usize,
        hits: u64,
        misses: u64,
    }

    impl LinearScan {
        fn get_at(&mut self, key: &QueryKey, generation: u64) -> Option<Vec<SearchResult>> {
            if self.capacity == 0 {
                self.misses += 1;
                return None;
            }
            self.clock += 1;
            match self.map.get_mut(key) {
                Some(entry) if entry.2 <= generation => {
                    entry.1 = self.clock;
                    self.hits += 1;
                    Some(entry.0.clone())
                }
                _ => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn put_tagged(&mut self, key: QueryKey, results: Vec<SearchResult>, generation: u64) {
            if self.capacity == 0 {
                return;
            }
            self.clock += 1;
            if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                let lru = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(k, _)| k.clone());
                if let Some(lru) = lru {
                    self.map.remove(&lru);
                }
            }
            self.map.insert(key, (results, self.clock, generation));
        }
    }

    proptest::proptest! {
        /// Random get/put/invalidate/clear sequences leave the indexed
        /// cache and the linear-scan reference with the same contents and
        /// the same hit/miss counts, so eviction order is unchanged.
        #[test]
        fn recency_index_matches_linear_scan_reference(
            capacity in 0usize..6,
            ops in proptest::collection::vec((0u8..10, 0u32..5, 0u32..5, 0u64..4), 0..200),
        ) {
            let cache = QueryCache::new(capacity);
            let mut reference = LinearScan {
                capacity,
                ..LinearScan::default()
            };
            for (op, a, b, generation) in ops {
                let k = key(&[a, b], 5);
                match op {
                    0..=3 => proptest::prop_assert_eq!(
                        cache.get_at(&k, generation),
                        reference.get_at(&k, generation)
                    ),
                    4..=7 => {
                        cache.put_tagged(k.clone(), results(a + b), generation, || true);
                        reference.put_tagged(k, results(a + b), generation);
                    }
                    8 => {
                        cache.invalidate_term(TermId(a));
                        reference.map.retain(|key, _| !key.involves(TermId(a)));
                    }
                    _ => {
                        cache.clear();
                        reference.map.clear();
                    }
                }
                let inner = cache.lock();
                proptest::prop_assert_eq!(inner.map.len(), reference.map.len());
                proptest::prop_assert_eq!(inner.recency.len(), reference.map.len());
                for (key, (res, _, generation)) in &reference.map {
                    let entry = inner.map.get(key);
                    proptest::prop_assert!(entry.is_some(), "missing {key:?}");
                    let entry = entry.unwrap();
                    proptest::prop_assert_eq!(&entry.results, res);
                    proptest::prop_assert_eq!(entry.generation, *generation);
                    proptest::prop_assert_eq!(inner.recency.get(&entry.last_used), Some(key));
                }
            }
            proptest::prop_assert_eq!(cache.hits(), reference.hits);
            proptest::prop_assert_eq!(cache.misses(), reference.misses);
        }
    }

    #[test]
    fn set_capacity_empties_and_resizes() {
        let cache = QueryCache::new(4);
        cache.put(key(&[1], 5), results(1));
        cache.set_capacity(1);
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 1);
        cache.put(key(&[1], 5), results(1));
        cache.put(key(&[2], 5), results(2));
        assert_eq!(cache.len(), 1);
        cache.set_capacity(0);
        cache.put(key(&[1], 5), results(1));
        assert!(cache.is_empty());
    }
}
