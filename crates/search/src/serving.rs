//! Serving state and the one query path.
//!
//! Every term's derived state — its documents, its registered patterns,
//! and its prebuilt score-sorted posting list — lives exactly once, in one
//! `TermState` behind an `Arc`. The engine's working state
//! (`ServingState`) maps terms to those `Arc`s, and so does every
//! generation it publishes: a mutation replaces one term's `Arc` (copying
//! the map of `Arc`s on the first mutation after a publish), so a publish
//! is an `Arc` clone and never copies posting data. Readers of an older
//! generation keep the `Arc`s they hold.
//!
//! `ServingState::query` is the single plan → cache → evaluate → respond
//! implementation. [`BurstySearchEngine::query`](crate::BurstySearchEngine::query)
//! runs it over the engine's working state and [`ServingFront::query`] over
//! the published generation, so both execute the same float operations in
//! the same order and answer bit-identically over the same state.
//! Observability is an `Option` threaded through that one function.
//!
//! # Publication
//!
//! [`ServingFront`] holds the current generation in an `RwLock<Arc<_>>`.
//! A query takes the read lock only to clone the `Arc`, then runs against
//! that generation without further synchronization (the result cache has
//! its own mutex), so it never observes a torn generation. The writer
//! takes the write lock only to swap the pointer, and drops the old
//! generation after releasing it.
//!
//! One LRU result cache sits in front of evaluation. Entries are tagged
//! with the generation they were computed from, an insert is guarded by
//! [`QueryCache::put_tagged`] on the published generation, and the writer
//! invalidates dirty terms *after* bumping that generation, which together
//! make a cached hit always equivalent to re-evaluating against the
//! reader's generation.

use crate::cache::{QueryCache, QueryKey};
use crate::engine::{
    burstiness_of, cache_hit_stats, evaluated_stats, explain_results_with, plan_key, plan_query,
    query_index, scored_postings, vacuous_response, EngineConfig, EngineMetrics, PatternFilter,
    QueryPlan, SearchResult, StoredPattern,
};
use crate::error::QueryError;
use crate::index::{Posting, PostingList};
use crate::obs::SearchObs;
use crate::query::{Query, QueryResponse, QueryStats, QueryTerms, ResponseSnapshot};
use crate::threshold::{threshold_topk_with_stats, PostingAccess};
use stb_obs::{SpanClock, SpanKind};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use stb_corpus::{Collection, DocId, TermId};

/// One term's serving state, shared by the writer and every generation
/// that published it. Never mutated while shared: the writer edits a
/// private copy (`Arc::make_mut`). Patterns and postings sit behind their
/// own `Arc`s because each is replaced whole (by re-mining and re-scoring)
/// while `docs` grows in place, so that copy duplicates only the
/// document list.
#[derive(Debug, Clone, Default)]
pub(crate) struct TermState {
    /// Documents containing the term, ascending (the corpus-level
    /// inverted list).
    pub(crate) docs: Vec<DocId>,
    /// Registered patterns; `None` until patterns are set (an empty
    /// registration is kept, and persisted, as an empty list).
    pub(crate) patterns: Option<Arc<[StoredPattern]>>,
    /// The prebuilt score-sorted posting list, present only when the
    /// engine is finalized and the list is non-empty.
    pub(crate) postings: Option<Arc<PostingList>>,
}

/// The term → state map shared between the writer and its generations.
pub(crate) type TermMap = HashMap<TermId, Arc<TermState>>;

/// The state queries run against: a collection snapshot, the scoring
/// configuration, and every term's shared state. The engine owns one as
/// its working state; a published generation holds a clone of it.
#[derive(Debug, Clone)]
pub(crate) struct ServingState {
    pub(crate) collection: Arc<Collection>,
    pub(crate) config: EngineConfig,
    /// Whether the prebuilt posting lists are populated.
    pub(crate) finalized: bool,
    pub(crate) terms: Arc<TermMap>,
}

/// Laps the clock if the query is observed.
fn lap(clock: &mut Option<SpanClock>, kind: SpanKind) {
    if let Some(c) = clock {
        c.lap(kind);
    }
}

impl ServingState {
    pub(crate) fn term(&self, term: TermId) -> Option<&TermState> {
        self.terms.get(&term).map(Arc::as_ref)
    }

    pub(crate) fn patterns_of(&self, term: TermId) -> Option<&[StoredPattern]> {
        self.term(term)?.patterns.as_deref()
    }

    pub(crate) fn doc_freq(&self, term: TermId) -> usize {
        self.term(term).map_or(0, |s| s.docs.len())
    }

    /// The Eq. 10–11 scored posting list of one term (unsorted) under an
    /// effective configuration and a pattern filter.
    pub(crate) fn score_term(
        &self,
        term: TermId,
        config: EngineConfig,
        filter: PatternFilter,
    ) -> Vec<Posting> {
        let state = self.term(term);
        scored_postings(
            &self.collection,
            term,
            state.map(|s| s.docs.as_slice()),
            state.and_then(|s| s.patterns.as_deref()),
            config,
            filter,
        )
    }

    /// `burstiness(d, t)` of Eq. 11 under the state's own aggregation.
    pub(crate) fn document_burstiness(&self, term: TermId, doc: DocId) -> Option<f64> {
        let document = self.collection.document(doc);
        burstiness_of(
            self.patterns_of(term),
            document.stream,
            document.timestamp,
            self.config.aggregation,
            PatternFilter::NONE,
        )
    }

    /// Executes a typed [`Query`]: plan, look up the result cache, evaluate
    /// on a miss, respond. The one query path of the crate.
    ///
    /// Cache entries are read and written under `generation` (the
    /// published generation for a front, 0 for an engine's own cache); a
    /// miss is inserted only if `may_insert` holds under the cache lock.
    /// With `obs`, the stages are timed and recorded; without it, the same
    /// calls run untimed.
    pub(crate) fn query(
        &self,
        query: &Query,
        cache: &QueryCache,
        generation: u64,
        may_insert: impl FnOnce() -> bool,
        obs: Option<&SearchObs>,
    ) -> Result<QueryResponse, QueryError> {
        let mut clock = obs.map(|_| SpanClock::start());
        let plan = match plan_query(&self.collection, self.config, query) {
            Ok(plan) => plan,
            Err(e) => {
                if let Some(obs) = obs {
                    obs.record_error();
                }
                return Err(e);
            }
        };
        lap(&mut clock, SpanKind::Plan);
        let key = plan_key(&plan);
        let response = if plan.vacuous {
            vacuous_response(&plan)
        } else {
            // Hits are gated on the entry's generation: entries computed
            // from a *newer* generation than this state are rejected (their
            // results may reference documents it lacks); older surviving
            // entries are exact because every intervening publish
            // invalidated the queries its dirty terms touched.
            let hit = cache.get_at(&key, generation);
            lap(&mut clock, SpanKind::CacheLookup);
            let (results, stats) = match hit {
                Some(hit) => (hit, cache_hit_stats(&plan)),
                None => {
                    let (results, stats) = self.evaluate(&plan, &mut clock);
                    cache.put_tagged(key.clone(), results.clone(), generation, may_insert);
                    (results, stats)
                }
            };
            let response = self.respond(&plan, results, stats);
            lap(&mut clock, SpanKind::Respond);
            response
        };
        if let (Some(obs), Some(clock)) = (obs, clock) {
            obs.record_query(clock, &key, &response.stats);
        }
        Ok(response)
    }

    /// Evaluates a plan against the cheapest sound posting lists: the
    /// prebuilt per-term lists when the plan matches what they were built
    /// under (no filters, no per-query overrides, finalized), a per-query
    /// filtered index otherwise. Filtering happens *before* the Threshold
    /// Algorithm runs, so its early-termination bound applies to the
    /// filtered lists unchanged.
    fn evaluate(
        &self,
        plan: &QueryPlan,
        clock: &mut Option<SpanClock>,
    ) -> (Vec<SearchResult>, QueryStats) {
        let direct = plan.filter.is_none() && plan.config == self.config && self.finalized;
        let (results, ta) = if direct {
            let gathered = Gathered::new(self, &plan.terms);
            lap(clock, SpanKind::ShardGather);
            threshold_topk_with_stats(&gathered, &plan.terms, plan.k, plan.config.no_pattern)
        } else {
            let index = query_index(&plan.terms, |term| {
                self.score_term(term, plan.config, plan.filter)
            });
            lap(clock, SpanKind::ShardGather);
            threshold_topk_with_stats(&index, &plan.terms, plan.k, plan.config.no_pattern)
        };
        lap(clock, SpanKind::TaScan);
        (results, evaluated_stats(plan, ta, direct))
    }

    /// Assembles the response, computing explanations when asked to (also
    /// on cache hits — explanations are derived from the pattern store,
    /// never cached).
    fn respond(
        &self,
        plan: &QueryPlan,
        results: Vec<SearchResult>,
        stats: QueryStats,
    ) -> QueryResponse {
        let explanations = if plan.explain {
            explain_results_with(
                &self.collection,
                plan,
                &results,
                |term| self.doc_freq(term),
                |term| self.patterns_of(term),
            )
        } else {
            Vec::new()
        };
        QueryResponse {
            results,
            explanations,
            stats,
        }
    }
}

/// The query terms' prebuilt posting lists, gathered once per query and
/// presented to the Threshold Algorithm through [`PostingAccess`].
struct Gathered<'a> {
    lists: Vec<(TermId, Option<&'a PostingList>)>,
}

impl<'a> Gathered<'a> {
    fn new(state: &'a ServingState, terms: &[TermId]) -> Self {
        let lists = terms
            .iter()
            .map(|&t| (t, state.term(t).and_then(|s| s.postings.as_deref())))
            .collect();
        Self { lists }
    }

    fn lookup(&self, term: TermId) -> Option<&'a PostingList> {
        self.lists
            .iter()
            .find(|(t, _)| *t == term)
            .and_then(|(_, list)| *list)
    }
}

impl PostingAccess for Gathered<'_> {
    fn postings(&self, term: TermId) -> &[Posting] {
        self.lookup(term).map_or(&[], |l| l.sorted.as_slice())
    }

    fn score(&self, term: TermId, doc: DocId) -> Option<f64> {
        self.lookup(term)?.by_doc.get(&doc).copied()
    }
}

/// One published generation: a generation number, the engine's state at
/// publish time (sharing every term's `Arc`), and the engine counters
/// captured then.
#[derive(Debug)]
pub(crate) struct Generation {
    pub(crate) number: u64,
    pub(crate) state: ServingState,
    pub(crate) metrics: EngineMetrics,
}

/// The read side of the serving tier.
///
/// Obtained from [`BurstySearchEngine::front`](crate::BurstySearchEngine::front)
/// and freely shared across reader threads (`Arc<ServingFront>`). Every
/// query runs against exactly one published generation, and its results
/// are byte-identical to the same query on the engine holding that state.
pub struct ServingFront {
    current: RwLock<Arc<Generation>>,
    /// The generation-tagged result cache shared by every reader.
    cache: QueryCache,
    /// Generation whose results may be inserted into the cache; bumped by
    /// the writer *before* invalidating and swapping (see
    /// [`QueryCache::put_tagged`]).
    published: AtomicU64,
    /// Observability hooks, set once via [`ServingFront::attach_obs`];
    /// unset means queries skip instrumentation entirely.
    obs: OnceLock<Arc<SearchObs>>,
}

impl ServingFront {
    pub(crate) fn new(initial: Generation, cache_capacity: usize) -> Self {
        Self {
            published: AtomicU64::new(initial.number),
            current: RwLock::new(Arc::new(initial)),
            cache: QueryCache::new(cache_capacity),
            obs: OnceLock::new(),
        }
    }

    fn load(&self) -> Arc<Generation> {
        // The lock guards one pointer, replaced whole: a poisoned lock
        // still holds a complete generation.
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Attaches observability hooks: query latencies, span traces, and the
    /// slow-query log start recording, and the result cache's live
    /// hit/miss cells are adopted into the obs registry (as
    /// `search_cache_hits` / `search_cache_misses`).
    ///
    /// Attach once at wiring time; later calls are ignored. Un-attached
    /// fronts pay one branch per query stage — the baseline arm of the
    /// `bench_obs` overhead gate.
    pub fn attach_obs(&self, obs: Arc<SearchObs>) {
        let (hits, misses) = self.cache.counter_cells();
        obs.adopt_cache_counters(hits, misses);
        let _ = self.obs.set(obs);
    }

    /// The attached observability hooks, if any.
    pub fn obs(&self) -> Option<&Arc<SearchObs>> {
        self.obs.get()
    }

    /// The generation of the currently published serving state.
    ///
    /// Generations are monotone: if two calls straddling a query return the
    /// same value, the query ran against exactly that generation.
    pub fn generation(&self) -> u64 {
        self.load().number
    }

    /// The collection snapshot of the current generation.
    pub fn collection(&self) -> Arc<Collection> {
        Arc::clone(&self.load().state.collection)
    }

    /// The scoring configuration of the currently published generation.
    pub fn config(&self) -> EngineConfig {
        self.load().state.config
    }

    /// A point-in-time snapshot of the serving counters: the engine
    /// counters captured at the last publish, with the cache fields read
    /// live from the front's result cache.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = self.load().metrics;
        m.cache_hits = self.cache.hits();
        m.cache_misses = self.cache.misses();
        m.cache_len = self.cache.len();
        m.cache_capacity = self.cache.capacity();
        m
    }

    pub(crate) fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Executes a typed [`Query`] against the current generation. Semantics
    /// (and bits) match [`BurstySearchEngine::query`](crate::BurstySearchEngine::query)
    /// over the same state.
    pub fn query(&self, query: &Query) -> Result<QueryResponse, QueryError> {
        self.query_on(&self.load(), query)
    }

    /// Executes a typed [`Query`] and returns the response *bracketed to
    /// the generation it was evaluated against*.
    ///
    /// The generation is loaded exactly once, so the pair is never torn:
    /// the generation is the one whose collection, postings, and patterns
    /// produced the results — the invariant the subscription tier's diff
    /// evaluation relies on. Bits match [`ServingFront::query`] over the
    /// same state.
    pub fn query_snapshot(&self, query: &Query) -> Result<ResponseSnapshot, QueryError> {
        let generation = self.load();
        let response = self.query_on(&generation, query)?;
        Ok(ResponseSnapshot {
            generation: generation.number,
            response,
        })
    }

    /// Resolves a query into its *standing form* plus its canonical key
    /// against the current generation, without executing it.
    ///
    /// The standing form is the same query with its terms replaced by the
    /// planner's resolved, deduplicated term ids — text words are looked
    /// up in the dictionary *now* and frozen, so a standing registration
    /// keeps meaning the same terms even as new words are interned later.
    /// The key is exactly the cache key the query would evaluate under
    /// ([`QueryKey`]), which is what makes subscription identities,
    /// cache identities, and TA scans agree.
    pub fn canonicalize(&self, query: &Query) -> Result<(Query, QueryKey), QueryError> {
        let generation = self.load();
        let state = &generation.state;
        let plan = plan_query(&state.collection, state.config, query)?;
        let key = plan_key(&plan);
        let mut standing = query.clone();
        standing.terms = QueryTerms::Ids(plan.terms);
        Ok((standing, key))
    }

    /// Executes a batch of typed queries against **one** consistent
    /// generation (the batch never straddles a concurrent publish), one
    /// response per query in input order.
    pub fn query_many(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        let generation = self.load();
        queries
            .iter()
            .map(|q| self.query_on(&generation, q))
            .collect()
    }

    fn query_on(
        &self,
        generation: &Generation,
        query: &Query,
    ) -> Result<QueryResponse, QueryError> {
        let number = generation.number;
        // Only cache results while the generation they were computed from
        // is still the published one; the check runs under the cache
        // mutex, so a stale insert either sees the bumped generation or is
        // removed by the writer's subsequent per-term invalidation.
        generation.state.query(
            query,
            &self.cache,
            number,
            || self.published.load(SeqCst) == number,
            self.obs.get().map(Arc::as_ref),
        )
    }

    /// `burstiness(d, t)` of Eq. 11 against the current generation's
    /// pattern store (the front-side counterpart of
    /// [`BurstySearchEngine::document_burstiness`](crate::BurstySearchEngine::document_burstiness)).
    pub fn document_burstiness(&self, term: TermId, doc: DocId) -> Option<f64> {
        self.load().state.document_burstiness(term, doc)
    }

    /// Publishes `next` as the new serving generation. The ordering is
    /// load-bearing:
    ///
    /// 1. Bump `published` — from here on, no reader can insert results
    ///    computed from an older generation ([`QueryCache::put_tagged`]
    ///    checks under the cache mutex).
    /// 2. Invalidate the dirty terms' cached queries (or everything, on
    ///    `clear`). Any stale entry was either inserted before this
    ///    (removed here) or its insert attempt observes the bumped
    ///    `published` and is rejected.
    /// 3. Swap the generation. Only now can readers observe (and tag
    ///    entries with) the new generation, so by the time a reader serves
    ///    generation `g`, every invalidation for generations `<= g` has
    ///    completed — which is what makes older surviving cache entries
    ///    exact for newer readers (see [`QueryCache::get_at`]).
    pub(crate) fn publish(&self, next: Generation, dirty: &BTreeSet<TermId>, clear: bool) {
        self.published.store(next.number, SeqCst);
        if clear {
            self.cache.clear();
        } else {
            for &term in dirty {
                self.cache.invalidate_term(term);
            }
        }
        let previous = std::mem::replace(
            &mut *self.current.write().unwrap_or_else(PoisonError::into_inner),
            Arc::new(next),
        );
        // Dropped after the write guard: freeing the last reference to a
        // generation never happens while readers wait on the lock.
        drop(previous);
    }

    /// The term map of the current generation (for structural tests).
    #[cfg(test)]
    pub(crate) fn terms(&self) -> Arc<TermMap> {
        Arc::clone(&self.load().state.terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BurstySearchEngine;
    use crate::relevance::Relevance;
    use stb_core::CombinatorialPattern;
    use stb_corpus::{CollectionBuilder, StreamId};
    use stb_geo::GeoPoint;
    use stb_timeseries::TimeInterval;
    use std::collections::HashMap as StdHashMap;
    use std::sync::atomic::AtomicBool;

    fn build_fixture() -> (Collection, TermId, TermId) {
        let mut b = CollectionBuilder::new(10);
        let flood = b.dict_mut().intern("flood");
        let other = b.dict_mut().intern("cricket");
        let s0 = b.add_stream("A", GeoPoint::new(0.0, 0.0));
        let s1 = b.add_stream("B", GeoPoint::new(1.0, 1.0));
        let s2 = b.add_stream("C", GeoPoint::new(50.0, 50.0));
        for ts in 0..10 {
            for &s in &[s0, s1, s2] {
                let mut counts = StdHashMap::new();
                counts.insert(other, 3);
                if ts % 3 == 0 {
                    counts.insert(flood, 1);
                }
                b.add_document(s, ts, counts);
            }
        }
        for ts in 4..=6 {
            for &s in &[s0, s1] {
                let mut counts = StdHashMap::new();
                counts.insert(flood, 10);
                b.add_document(s, ts, counts);
            }
        }
        (b.build(), flood, other)
    }

    fn flood_pattern(score: f64) -> CombinatorialPattern {
        CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1)],
            TimeInterval::new(4, 6),
            score,
            vec![],
        )
    }

    fn assert_bit_identical(a: &QueryResponse, b: &QueryResponse) {
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    /// A cold reference engine (never finalized, cache off) and a published
    /// serving engine over the same fixture state.
    fn build_pair() -> (BurstySearchEngine, BurstySearchEngine, TermId, TermId) {
        let (c, flood, other) = build_fixture();
        let shared = Arc::new(c);
        let mut reference = BurstySearchEngine::new(Arc::clone(&shared), EngineConfig::default());
        reference.set_cache_capacity(0);
        reference.set_patterns(flood, &[flood_pattern(1.5)]);
        let mut serving = BurstySearchEngine::new(shared, EngineConfig::default());
        serving.set_cache_capacity(64);
        serving.set_patterns(flood, &[flood_pattern(1.5)]);
        serving.finalize_with_threads(1);
        serving.publish();
        (reference, serving, flood, other)
    }

    #[test]
    fn front_matches_engine_bit_for_bit() {
        let (reference, serving, flood, other) = build_pair();
        let front = serving.front();
        let queries = [
            Query::terms([flood]).top_k(5),
            Query::terms([flood, other]).top_k(10),
            Query::terms([other]).top_k(3),
            Query::terms([flood]).top_k(5).time_window(2..=5),
            Query::terms([flood]).top_k(5).relevance(Relevance::TfIdf),
            Query::text("flood").top_k(4),
        ];
        for q in &queries {
            let a = reference.query(q).unwrap();
            let b = front.query(q).unwrap();
            let c = serving.query(q).unwrap();
            assert_bit_identical(&a, &b);
            assert_bit_identical(&b, &c);
            assert_eq!(b.stats, c.stats);
        }
        assert_eq!(
            reference
                .query(&Query::terms([flood]).top_k(0))
                .unwrap_err(),
            front.query(&Query::terms([flood]).top_k(0)).unwrap_err(),
        );
    }

    #[test]
    fn front_explanations_match_engine() {
        let (reference, serving, flood, other) = build_pair();
        let q = Query::terms([flood, other]).top_k(5).explain(true);
        let a = reference.query(&q).unwrap();
        let b = serving.front().query(&q).unwrap();
        assert_eq!(a.explanations, b.explanations);
    }

    #[test]
    fn publish_swaps_generations_and_serves_updates() {
        let (_, mut serving, flood, _) = build_pair();
        let front = serving.front();
        assert_eq!(front.generation(), 1);
        let before = front.query(&Query::terms([flood]).top_k(50)).unwrap();
        // Unpublished writes are invisible to readers.
        serving.set_patterns(flood, &[flood_pattern(3.0)]);
        let unpublished = front.query(&Query::terms([flood]).top_k(50)).unwrap();
        assert_eq!(unpublished.results, before.results);
        serving.publish();
        assert_eq!(front.generation(), 2);
        let after = front.query(&Query::terms([flood]).top_k(50)).unwrap();
        assert_eq!(before.results.len(), after.results.len());
        assert!(after.results[0].score > before.results[0].score);
    }

    /// A publish shares term state, never copies it: clean terms keep the
    /// previous generation's `Arc`, dirty terms publish the writer's.
    #[test]
    fn publish_shares_term_state_with_the_writer() {
        let (c, flood, other) = build_fixture();
        let shared = Arc::new(c);
        let mut engine = BurstySearchEngine::new(Arc::clone(&shared), EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern(1.5)]);
        engine.set_patterns(other, &[flood_pattern(0.5)]);
        engine.finalize_with_threads(1);
        engine.publish();
        let front = engine.front();
        let before = front.terms();

        // One commit: a new document for `flood`, then its re-mined patterns.
        let mut next = Collection::clone(&shared);
        let doc = next.push_document(StreamId(0), 5, StdHashMap::from([(flood, 4)]));
        engine.update_collection(Arc::new(next), &[doc]);
        engine.set_patterns(flood, &[flood_pattern(2.0)]);
        engine.publish();
        let after = front.terms();

        assert!(Arc::ptr_eq(&before[&other], &after[&other]));
        assert!(!Arc::ptr_eq(&before[&flood], &after[&flood]));
        let writer = &engine.serving_state().terms;
        for term in [flood, other] {
            assert!(Arc::ptr_eq(&writer[&term], &after[&term]));
        }
        // The clean term's posting list is the very same allocation.
        let list = |m: &TermMap, t: TermId| m[&t].postings.clone().unwrap();
        assert!(Arc::ptr_eq(&list(&before, other), &list(&after, other)));
        // Readers of the old generation keep its state.
        assert_eq!(before[&flood].docs.len() + 1, after[&flood].docs.len());
    }

    #[test]
    fn cache_hits_are_recorded_and_invalidated_per_term() {
        let (_, mut serving, flood, other) = build_pair();
        let front = serving.front();
        let q_flood = Query::terms([flood]).top_k(5);
        let q_other = Query::terms([other]).top_k(5);
        assert!(!front.query(&q_flood).unwrap().stats.cache_hit);
        assert!(front.query(&q_flood).unwrap().stats.cache_hit);
        // "other" has no patterns; still cacheable (empty result set).
        assert!(!front.query(&q_other).unwrap().stats.cache_hit);
        assert!(front.query(&q_other).unwrap().stats.cache_hit);

        // Dirtying flood invalidates its queries but not other's.
        serving.refresh_term(flood);
        serving.publish();
        assert!(!front.query(&q_flood).unwrap().stats.cache_hit);
        assert!(front.query(&q_other).unwrap().stats.cache_hit);
        let m = front.metrics();
        assert_eq!(m.cache_hits + m.cache_misses, 6);
    }

    /// The front holds at most the configured number of cached results and
    /// reports the capacity it actually enforces, however many distinct
    /// terms the cached queries span.
    #[test]
    fn cache_capacity_is_honoured() {
        let mut b = CollectionBuilder::new(4);
        let stream = b.add_stream("A", GeoPoint::new(0.0, 0.0));
        let terms: Vec<TermId> = (0..32)
            .map(|i| b.dict_mut().intern(&format!("term{i}")))
            .collect();
        for (i, &term) in terms.iter().enumerate() {
            b.add_document(stream, i % 4, StdHashMap::from([(term, 2)]));
        }
        let mut engine = BurstySearchEngine::new(b.build(), EngineConfig::default());
        engine.set_cache_capacity(10);
        engine.finalize_with_threads(1);
        engine.publish();
        let front = engine.front();
        for &term in &terms {
            for k in 1..=2 {
                front.query(&Query::terms([term]).top_k(k)).unwrap();
            }
        }
        let m = front.metrics();
        assert_eq!(m.cache_capacity, 10);
        assert!(
            m.cache_len <= m.cache_capacity,
            "{} cached results over a capacity of {}",
            m.cache_len,
            m.cache_capacity
        );
    }

    #[test]
    fn document_burstiness_matches_engine() {
        let (reference, serving, flood, _) = build_pair();
        let front = serving.front();
        let collection = front.collection();
        for doc in collection.documents() {
            assert_eq!(
                reference.document_burstiness(flood, doc.id),
                front.document_burstiness(flood, doc.id),
            );
        }
    }

    #[test]
    fn restore_preserves_front_handles() {
        let (_, mut serving, flood, _) = build_pair();
        let front = serving.front();
        let expected = front.query(&Query::terms([flood]).top_k(10)).unwrap();
        let state = serving.export_state();
        let collection = front.collection();
        serving.restore(collection, state);
        assert_eq!(front.generation(), 2);
        let after = front.query(&Query::terms([flood]).top_k(10)).unwrap();
        assert_bit_identical(&expected, &after);
    }

    /// Concurrent recording through the read path loses no cache hit/miss
    /// counts.
    #[test]
    fn concurrent_metrics_lose_no_counts() {
        let (_, serving, flood, other) = build_pair();
        let front = serving.front();
        let n_threads = 8;
        let per_thread = 200;
        let start = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..n_threads)
            .map(|i| {
                let front = Arc::clone(&front);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    while !start.load(SeqCst) {
                        std::hint::spin_loop();
                    }
                    for j in 0..per_thread {
                        // Mix of repeated (cacheable) and distinct queries.
                        let k = 1 + ((i + j) % 7);
                        let q = if j % 2 == 0 {
                            Query::terms([flood]).top_k(k)
                        } else {
                            Query::terms([flood, other]).top_k(k)
                        };
                        front.query(&q).unwrap();
                    }
                })
            })
            .collect();
        start.store(true, SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        let m = front.metrics();
        assert_eq!(
            m.cache_hits + m.cache_misses,
            (n_threads * per_thread) as u64,
            "lost cache counter updates: {m:?}"
        );
    }

    #[test]
    fn front_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServingFront>();
        assert_send_sync::<Arc<ServingFront>>();
    }
}
