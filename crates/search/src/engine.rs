//! The bursty-document search engine (Section 5, Problem 2).
//!
//! The engine combines three ingredients:
//!
//! 1. a document collection (for term frequencies and document metadata),
//! 2. the spatiotemporal patterns mined per term by one of the miners
//!    (`STComb`, `STLocal`, or the temporal-only `TB` baseline) — the engine
//!    handles one pattern source at a time, as in the paper,
//! 3. a scoring configuration (relevance strategy, burstiness aggregation,
//!    no-pattern policy).
//!
//! For every query term the engine needs a posting list whose per-document
//! score is `relevance(d, t) × burstiness(d, t)` (Eq. 10–11); the top-k is
//! then evaluated with Fagin's Threshold Algorithm.
//!
//! # Query surface
//!
//! Queries enter through the typed DSL: a [`Query`] (terms or raw text,
//! optional `time_window`/`region` filters, per-query options) executed by
//! [`BurstySearchEngine::query`] into a `Result<QueryResponse, QueryError>`
//! carrying results, optional per-document explanations, and execution
//! stats.
//!
//! # Serving path
//!
//! The engine has two modes. In *cold* mode (the paper's experimental
//! setting) every query scores its terms' posting lists from scratch. For
//! serving repeated query traffic,
//! call [`BurstySearchEngine::finalize`] once after registering patterns:
//! it materializes the score-sorted posting list of **every** term in the
//! collection — built in parallel across terms, which are independent —
//! so subsequent unfiltered queries only walk prebuilt lists (filtered
//! queries score their restricted lists per query). On top of that sit
//!
//! * an LRU cache of evaluated top-k result lists, keyed on the full
//!   canonical query — (terms, k, effective config, time window, region) —
//!   and invalidated per term by [`BurstySearchEngine::set_patterns`],
//! * an incremental per-term rebuild: updating one term's patterns after
//!   finalization re-scores only that term's posting list, and
//! * a read front ([`BurstySearchEngine::front`]) for concurrent readers,
//!   fed by [`BurstySearchEngine::publish`], which shares every term's
//!   state with the published generation instead of copying it (see
//!   [`crate::serving`]).

use crate::burstiness::{BurstinessAgg, NoPatternPolicy};
use crate::cache::{QueryCache, QueryKey};
use crate::error::QueryError;
use crate::index::{InvertedIndex, Posting, PostingList};
use crate::obs::SearchObs;
use crate::query::{
    DocExplanation, PatternMatch, Query, QueryResponse, QueryStats, QueryTerms, TermExplanation,
    UnknownWords,
};
use crate::relevance::Relevance;
use crate::serving::{Generation, ServingFront, ServingState, TermMap, TermState};
use crate::threshold::{ScoredDoc, TopkStats};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use stb_core::{parallel_map, PatternGeometry, PatternRecord, PatternSource};
use stb_corpus::StreamId;
use stb_corpus::{Collection, DocId, TermId, Timestamp};
use stb_geo::{Point2D, Rect};
use stb_timeseries::TimeInterval;

/// A search hit: a document and its total score for the query.
pub type SearchResult = ScoredDoc;

/// Default capacity of the engine's query-result cache (distinct queries).
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Scoring configuration of the engine.
///
/// Marked `#[non_exhaustive]`: new scoring knobs can be added without a
/// breaking change. Construct it with [`EngineConfig::default`] or, to
/// deviate from the defaults, with [`EngineConfig::builder`]:
///
/// ```
/// use stb_search::{EngineConfig, NoPatternPolicy, Relevance};
///
/// let config = EngineConfig::builder()
///     .relevance(Relevance::TfIdf)
///     .no_pattern(NoPatternPolicy::Zero)
///     .build();
/// assert_eq!(config.relevance, Relevance::TfIdf);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Relevance strategy (default: `log(freq + 1)`).
    pub relevance: Relevance,
    /// Burstiness aggregation over overlapping patterns (default: maximum).
    pub aggregation: BurstinessAgg,
    /// Behaviour for documents with no overlapping pattern (default:
    /// exclude, per Eq. 11).
    pub no_pattern: NoPatternPolicy,
}

impl EngineConfig {
    /// A fluent builder starting from the default configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }
}

/// Builder for [`EngineConfig`] (see [`EngineConfig::builder`]).
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the relevance strategy.
    pub fn relevance(mut self, relevance: Relevance) -> Self {
        self.config.relevance = relevance;
        self
    }

    /// Sets the burstiness aggregation.
    pub fn aggregation(mut self, aggregation: BurstinessAgg) -> Self {
        self.config.aggregation = aggregation;
        self
    }

    /// Sets the no-overlapping-pattern policy.
    pub fn no_pattern(mut self, no_pattern: NoPatternPolicy) -> Self {
        self.config.no_pattern = no_pattern;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// A pattern reduced to what the engine needs: which stream/timestamp pairs
/// it covers, its spatial footprint, and how strong it is.
#[derive(Debug, Clone)]
pub(crate) struct StoredPattern {
    pub(crate) streams: Vec<StreamId>,
    pub(crate) timeframe: TimeInterval,
    /// Spatial footprint per `PatternGeometry` (an `STLocal` rectangle, or
    /// the stream MBR of a combinatorial pattern), captured at registration
    /// time from the collection's stream positions.
    pub(crate) region: Option<Rect>,
    pub(crate) score: f64,
}

impl StoredPattern {
    pub(crate) fn overlaps(&self, stream: StreamId, ts: Timestamp) -> bool {
        self.timeframe.contains(ts) && self.streams.binary_search(&stream).is_ok()
    }
}

impl From<PatternRecord> for StoredPattern {
    fn from(r: PatternRecord) -> Self {
        StoredPattern {
            streams: r.streams,
            timeframe: r.timeframe,
            region: r.region,
            score: r.score,
        }
    }
}

impl From<&StoredPattern> for PatternRecord {
    fn from(p: &StoredPattern) -> Self {
        PatternRecord {
            streams: p.streams.clone(),
            timeframe: p.timeframe,
            region: p.region,
            score: p.score,
        }
    }
}

/// A serializable snapshot of the engine's derived state: every term's
/// registered patterns (with the spatial footprints captured at
/// registration time) and, when the engine is finalized, its prebuilt
/// score-sorted posting lists.
///
/// Produced by [`BurstySearchEngine::export_state`] and consumed by
/// [`BurstySearchEngine::import_state`]; the `stb-store` snapshot format
/// persists exactly this structure. The corpus-level term→documents lists
/// are *not* part of the state — they are re-derived deterministically from
/// the collection on construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineState {
    /// Per-term registered patterns, terms sorted by id, each term's
    /// patterns in registration order.
    pub patterns: Vec<(TermId, Vec<PatternRecord>)>,
    /// Whether the full-collection posting index was prebuilt.
    pub finalized: bool,
    /// The prebuilt posting lists (empty unless `finalized`): terms sorted
    /// by id, each list sorted by descending score with ties broken by doc
    /// id. Scores carry their exact `f64` bit patterns.
    pub postings: Vec<(TermId, Vec<Posting>)>,
}

/// The spatiotemporal restriction of a query, applied to patterns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct PatternFilter {
    pub(crate) window: Option<TimeInterval>,
    pub(crate) region: Option<Rect>,
}

impl PatternFilter {
    pub(crate) const NONE: PatternFilter = PatternFilter {
        window: None,
        region: None,
    };

    pub(crate) fn is_none(&self) -> bool {
        self.window.is_none() && self.region.is_none()
    }

    /// Whether a pattern survives the filter: its timeframe intersects the
    /// window (if any) and its region intersects the query rectangle (if
    /// any). A pattern with no spatial footprint never passes a region
    /// filter.
    pub(crate) fn passes(&self, pattern: &StoredPattern) -> bool {
        self.window.is_none_or(|w| pattern.timeframe.overlaps(&w))
            && self
                .region
                .is_none_or(|r| pattern.region.is_some_and(|pr| pr.intersects(&r)))
    }
}

/// The bursty-document search engine.
///
/// # Example
///
/// Build a tiny two-stream collection, register one mined pattern, prebuild
/// the posting index, and search:
///
/// ```
/// use std::collections::HashMap;
/// use stb_core::CombinatorialPattern;
/// use stb_corpus::CollectionBuilder;
/// use stb_geo::GeoPoint;
/// use stb_search::{BurstySearchEngine, EngineConfig, Query};
/// use stb_timeseries::TimeInterval;
///
/// // "earthquake" bursts in Athens during timestamps 2..=3.
/// let mut b = CollectionBuilder::new(5);
/// let quake = b.dict_mut().intern("earthquake");
/// let athens = b.add_stream("Athens", GeoPoint::new(38.0, 23.7));
/// let lima = b.add_stream("Lima", GeoPoint::new(-12.0, -77.0));
/// for ts in 0..5 {
///     let f = if ts == 2 || ts == 3 { 8 } else { 1 };
///     b.add_document(athens, ts, HashMap::from([(quake, f)]));
///     b.add_document(lima, ts, HashMap::from([(quake, 1)]));
/// }
/// let collection = b.build();
///
/// let mut engine = BurstySearchEngine::new(&collection, EngineConfig::default());
/// let pattern =
///     CombinatorialPattern::new(vec![athens], TimeInterval::new(2, 3), 2.0, vec![]);
/// engine.set_patterns(quake, &[pattern]);
/// engine.finalize(); // prebuild the score-sorted posting index, in parallel
///
/// let top = engine.query(&Query::terms([quake]).top_k(2)).unwrap();
/// assert_eq!(top.results.len(), 2); // the two Athens burst documents
/// assert!(top.results[0].score >= top.results[1].score);
/// // A repeated query is now answered from the result cache.
/// let again = engine.query(&Query::terms([quake]).top_k(2)).unwrap();
/// assert_eq!(again.results, top.results);
/// assert!(again.stats.cache_hit);
/// assert!(engine.metrics().cache_hits >= 1);
///
/// // Concurrent readers query published generations through the front.
/// engine.publish();
/// let front = engine.front();
/// assert_eq!(front.query(&Query::terms([quake]).top_k(2)).unwrap().results, top.results);
/// ```
///
/// # Ownership and live updates
///
/// The engine *owns* its collection as an `Arc<Collection>` snapshot
/// rather than borrowing it: a live pipeline swaps newer snapshots in with
/// [`BurstySearchEngine::update_collection`]. `new` accepts anything
/// convertible into the shared handle — an `Arc<Collection>`, an owned
/// `Collection`, or (cloning) a `&Collection`.
///
/// Mutations apply to the engine's working state, which
/// [`BurstySearchEngine::query`] reads directly. Other threads read through
/// the engine's [`ServingFront`] ([`BurstySearchEngine::front`]), which
/// serves the generation last [`publish`](BurstySearchEngine::publish)ed:
/// the engine records which terms each mutation dirtied, and a publish
/// shares every term's state with the new generation and invalidates
/// exactly the dirty terms' cached results.
pub struct BurstySearchEngine {
    /// The working state queries run against.
    state: ServingState,
    /// Planar stream positions of the current snapshot (indexed by
    /// `StreamId::index`), cached for pattern-geometry capture.
    positions: Vec<Point2D>,
    /// LRU cache of evaluated top-k result lists over the working state.
    cache: QueryCache,
    /// Number of full prebuilt-index builds (for [`EngineMetrics`]).
    finalize_count: u64,
    /// Wall-clock duration of the most recent full build.
    last_finalize: Option<Duration>,
    /// Number of single-term posting-list rebuilds on the prebuilt index.
    term_rescore_count: u64,
    /// Observability hooks, set once via
    /// [`BurstySearchEngine::attach_obs`]; unset skips instrumentation.
    obs: OnceLock<Arc<SearchObs>>,
    /// The read side, serving published generations of `state`.
    front: Arc<ServingFront>,
    /// The generation of the last publish.
    generation: u64,
    /// Terms whose state changed since the last publish.
    dirty: BTreeSet<TermId>,
    /// Every term changed since the last publish (finalize, import).
    all_dirty: bool,
}

/// A point-in-time snapshot of the engine's serving counters, for benchmark
/// harnesses and operational monitoring (see `IngestPipeline` in
/// `stb-ingest`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineMetrics {
    /// Searches answered from the query-result cache.
    pub cache_hits: u64,
    /// Searches that had to be evaluated.
    pub cache_misses: u64,
    /// Query results currently cached.
    pub cache_len: usize,
    /// Capacity of the result cache (0 = caching disabled).
    pub cache_capacity: usize,
    /// Whether the full-collection posting index is prebuilt.
    pub finalized: bool,
    /// Terms with at least one posting in the prebuilt index (0 if cold).
    pub indexed_terms: usize,
    /// Total postings in the prebuilt index (0 if cold).
    pub indexed_postings: usize,
    /// Number of full prebuilt-index builds so far.
    pub finalize_count: u64,
    /// Wall-clock milliseconds of the most recent full build, if any.
    pub last_finalize_ms: Option<f64>,
    /// Single-term posting-list rebuilds applied to the prebuilt index
    /// (incremental `set_patterns` / `refresh_term` calls).
    pub term_rescore_count: u64,
    /// Documents in the engine's current collection snapshot.
    pub n_docs: usize,
}

/// Every term's corpus-level document list, ascending and deduplicated.
fn index_documents(collection: &Collection) -> TermMap {
    let mut docs: HashMap<TermId, Vec<DocId>> = HashMap::new();
    for doc in collection.documents() {
        for &term in doc.counts.keys() {
            docs.entry(term).or_default().push(doc.id);
        }
    }
    docs.into_iter()
        .map(|(term, mut docs)| {
            docs.sort();
            docs.dedup();
            let state = TermState {
                docs,
                ..TermState::default()
            };
            (term, Arc::new(state))
        })
        .collect()
}

impl BurstySearchEngine {
    /// Creates an engine over a collection with the given scoring
    /// configuration. Patterns must be registered per term with
    /// [`BurstySearchEngine::set_patterns`] before searching.
    ///
    /// The front's initial generation (0) is empty and unfinalized;
    /// [`publish`](Self::publish) to begin serving through it.
    pub fn new(collection: impl Into<Arc<Collection>>, config: EngineConfig) -> Self {
        let collection: Arc<Collection> = collection.into();
        let initial = Generation {
            number: 0,
            state: ServingState {
                collection: Arc::clone(&collection),
                config,
                finalized: false,
                terms: Arc::default(),
            },
            metrics: EngineMetrics {
                n_docs: collection.documents().len(),
                ..EngineMetrics::default()
            },
        };
        Self {
            positions: collection.positions(),
            state: ServingState {
                terms: Arc::new(index_documents(&collection)),
                collection,
                config,
                finalized: false,
            },
            cache: QueryCache::new(DEFAULT_CACHE_CAPACITY),
            finalize_count: 0,
            last_finalize: None,
            term_rescore_count: 0,
            obs: OnceLock::new(),
            front: Arc::new(ServingFront::new(initial, DEFAULT_CACHE_CAPACITY)),
            generation: 0,
            dirty: BTreeSet::new(),
            all_dirty: false,
        }
    }

    /// Attaches observability hooks to the engine's own queries: they start
    /// recording latency, sampled traces, and slow-query entries into the
    /// given [`SearchObs`]. Attach once at wiring time; later calls are
    /// ignored. (Queries through the front are instrumented by
    /// [`ServingFront::attach_obs`].)
    pub fn attach_obs(&self, obs: Arc<SearchObs>) {
        let _ = self.obs.set(obs);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.state.config
    }

    /// The engine's current collection snapshot.
    pub fn collection(&self) -> &Arc<Collection> {
        &self.state.collection
    }

    /// Copy-on-write access to one term's state, marking it dirty: clones
    /// the term map if a published generation still shares it, and the
    /// term's state if shared (copying its document list; patterns and
    /// postings stay shared until replaced).
    fn term_mut(&mut self, term: TermId) -> &mut TermState {
        self.dirty.insert(term);
        let terms = Arc::make_mut(&mut self.state.terms);
        Arc::make_mut(terms.entry(term).or_default())
    }

    /// Registers the mined patterns of a term, replacing any previous ones.
    /// Accepts any pattern type (`CombinatorialPattern`, `RegionalPattern`, …).
    ///
    /// Each pattern's spatial footprint (its `PatternGeometry` region over
    /// the current snapshot's stream positions) is captured here, so
    /// region-filtered queries treat `STLocal` rectangles and `STComb`
    /// stream MBRs identically.
    ///
    /// On a finalized engine this incrementally re-scores the posting list
    /// of `term` alone (the rest of the prebuilt index is untouched) and
    /// invalidates the cached results of every query involving the term.
    pub fn set_patterns<P: PatternGeometry>(&mut self, term: TermId, patterns: &[P]) {
        let stored: Arc<[StoredPattern]> = patterns
            .iter()
            .map(|p| StoredPattern {
                streams: p.streams().to_vec(),
                timeframe: p.timeframe(),
                region: p.region(&self.positions),
                score: p.score(),
            })
            .collect();
        self.term_mut(term).patterns = Some(stored);
        self.refresh_term(term);
    }

    /// Re-derives one term's scored posting list from the engine's current
    /// collection snapshot and patterns, replacing it in the prebuilt index
    /// (if finalized) and invalidating the cached results of every query
    /// involving the term.
    ///
    /// [`BurstySearchEngine::set_patterns`] calls this automatically; call
    /// it directly when a term's scores changed for a reason *other* than
    /// its patterns — new documents arrived via
    /// [`BurstySearchEngine::update_collection`], or the corpus-level
    /// statistics a [`Relevance::TfIdf`] configuration depends on moved.
    pub fn refresh_term(&mut self, term: TermId) {
        if self.state.finalized {
            let list = self
                .state
                .score_term(term, self.state.config, PatternFilter::NONE);
            let postings = PostingList::from_scored(list).map(Arc::new);
            let had_postings = self.state.term(term).is_some_and(|s| s.postings.is_some());
            if postings.is_some() || had_postings {
                self.term_mut(term).postings = postings;
            }
            self.term_rescore_count += 1;
        }
        self.cache.invalidate_term(term);
        self.dirty.insert(term);
    }

    /// Swaps in a newer collection snapshot, incrementally extending the
    /// engine's corpus-level inverted lists with `new_docs` — the documents
    /// appended since the snapshot the engine previously held (dense ids, in
    /// arrival order).
    ///
    /// This does **not** re-score any posting list: after swapping, refresh
    /// the terms whose scores the new documents affect (their own terms, at
    /// minimum) with [`BurstySearchEngine::set_patterns`] or
    /// [`BurstySearchEngine::refresh_term`] — which is exactly what the
    /// `stb-ingest` pipeline's per-tick commit does with its dirty-term set.
    pub fn update_collection(&mut self, collection: Arc<Collection>, new_docs: &[DocId]) {
        self.positions = collection.positions();
        for &doc_id in new_docs {
            for &term in collection.document(doc_id).counts.keys() {
                let docs = &mut self.term_mut(term).docs;
                debug_assert!(
                    docs.last().is_none_or(|&last| last < doc_id),
                    "new documents must arrive in id order"
                );
                docs.push(doc_id);
            }
        }
        self.state.collection = collection;
    }

    /// Registers the patterns of every term of a [`PatternSource`] — e.g.
    /// the output of `STLocal::mine_collection_parallel` or
    /// `STComb::mine_collection_parallel` — so a mining run can feed the
    /// index builder directly.
    /// Sources are replayed in order, so a term appearing twice keeps its
    /// last entry, exactly as two [`BurstySearchEngine::set_patterns`] calls
    /// would.
    pub fn set_patterns_from<S: PatternSource>(&mut self, source: &S)
    where
        S::P: PatternGeometry,
    {
        source.for_each_term(&mut |term, patterns| self.set_patterns(term, patterns));
    }

    /// Number of documents that contain the term.
    pub fn doc_freq(&self, term: TermId) -> usize {
        self.state.doc_freq(term)
    }

    /// `burstiness(d, t)` of Eq. 11: aggregates the scores of the patterns of
    /// `term` that overlap the document, or `None` if no pattern overlaps.
    pub fn document_burstiness(&self, term: TermId, doc: DocId) -> Option<f64> {
        self.state.document_burstiness(term, doc)
    }

    /// Prebuilds the score-sorted posting index of **every** term in the
    /// collection, in parallel across all available cores. See
    /// [`BurstySearchEngine::finalize_with_threads`].
    pub fn finalize(&mut self) {
        let n_threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.finalize_with_threads(n_threads);
    }

    /// Prebuilds the full-collection posting index with an explicit worker
    /// count.
    ///
    /// Terms are scored independently (exactly the independence `STLocal`'s
    /// parallel mining driver exploits), so the build distributes term ids
    /// over `n_threads` scoped threads and installs each finished list as
    /// its term's posting list. The result is deterministic regardless of
    /// the thread count. Any previously cached query results are dropped.
    ///
    /// Calling this again after more [`BurstySearchEngine::set_patterns`]
    /// calls rebuilds from the current patterns; for single-term updates the
    /// incremental path inside `set_patterns` is cheaper.
    pub fn finalize_with_threads(&mut self, n_threads: usize) {
        let start = Instant::now();
        let terms: Vec<TermId> = self.state.terms.keys().copied().collect();
        let state = &self.state;
        let lists = parallel_map(terms.len(), n_threads, |i| {
            state.score_term(terms[i], state.config, PatternFilter::NONE)
        });
        let map = Arc::make_mut(&mut self.state.terms);
        for (term, list) in terms.iter().zip(lists) {
            let postings = PostingList::from_scored(list).map(Arc::new);
            if let Some(slot) = map.get_mut(term) {
                if postings.is_some() || slot.postings.is_some() {
                    Arc::make_mut(slot).postings = postings;
                }
            }
        }
        self.state.finalized = true;
        self.cache.clear();
        self.all_dirty = true;
        self.finalize_count += 1;
        self.last_finalize = Some(start.elapsed());
    }

    /// Whether the full-collection posting index has been prebuilt.
    pub fn is_finalized(&self) -> bool {
        self.state.finalized
    }

    /// Exports the engine's derived state — per-term patterns with their
    /// captured spatial footprints and, if finalized, the prebuilt posting
    /// lists — in a deterministic order, preserving every score's exact
    /// `f64` bit pattern. See [`EngineState`].
    pub fn export_state(&self) -> EngineState {
        let mut terms: Vec<(&TermId, &Arc<TermState>)> = self.state.terms.iter().collect();
        terms.sort_by_key(|(term, _)| **term);
        let patterns = terms
            .iter()
            .filter_map(|(term, state)| {
                let records = state.patterns.as_ref()?;
                Some((**term, records.iter().map(PatternRecord::from).collect()))
            })
            .collect();
        let postings = if self.state.finalized {
            terms
                .iter()
                .filter_map(|(term, state)| Some((**term, state.postings.as_ref()?.sorted.clone())))
                .collect()
        } else {
            Vec::new()
        };
        EngineState {
            patterns,
            finalized: self.state.finalized,
            postings,
        }
    }

    /// Replaces the engine's derived state with a previously exported one,
    /// **without re-scoring anything**: patterns keep the spatial
    /// footprints captured when they were first registered, and the
    /// prebuilt posting lists are installed with their persisted scores
    /// bit-for-bit. The result cache is cleared (cached results refer to
    /// the replaced state).
    ///
    /// This is the recovery half of [`BurstySearchEngine::export_state`]:
    /// importing an exported state into an engine holding the same
    /// collection snapshot yields an engine that answers every query
    /// byte-identically to the original.
    pub fn import_state(&mut self, state: EngineState) {
        let terms = Arc::make_mut(&mut self.state.terms);
        for slot in terms.values_mut() {
            if slot.patterns.is_some() || slot.postings.is_some() {
                let s = Arc::make_mut(slot);
                s.patterns = None;
                s.postings = None;
            }
        }
        for (term, records) in state.patterns {
            let stored = records.into_iter().map(StoredPattern::from).collect();
            Arc::make_mut(terms.entry(term).or_default()).patterns = Some(stored);
        }
        if state.finalized {
            for (term, list) in state.postings {
                if let Some(list) = PostingList::from_scored(list) {
                    Arc::make_mut(terms.entry(term).or_default()).postings = Some(Arc::new(list));
                }
            }
        }
        self.state.finalized = state.finalized;
        self.cache.clear();
        self.all_dirty = true;
    }

    /// Empties the query-result caches — the engine's own and its front's —
    /// and sets their capacity (0 disables caching). Hit/miss counters keep
    /// counting.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache.set_capacity(capacity);
        self.front.cache().set_capacity(capacity);
    }

    /// A snapshot of the engine's serving counters (cache fields describe
    /// the engine's own cache; see [`ServingFront::metrics`] for the
    /// front's).
    pub fn metrics(&self) -> EngineMetrics {
        let lists = self
            .state
            .terms
            .values()
            .filter_map(|s| s.postings.as_ref());
        let (indexed_terms, indexed_postings) = lists.fold((0, 0), |(terms, postings), list| {
            (terms + 1, postings + list.sorted.len())
        });
        EngineMetrics {
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_len: self.cache.len(),
            cache_capacity: self.cache.capacity(),
            finalized: self.state.finalized,
            indexed_terms,
            indexed_postings,
            finalize_count: self.finalize_count,
            last_finalize_ms: self.last_finalize.map(|d| d.as_secs_f64() * 1000.0),
            term_rescore_count: self.term_rescore_count,
            n_docs: self.state.collection.documents().len(),
        }
    }

    /// Executes a typed [`Query`] against the engine's working state: the
    /// canonical entry point of the serving API.
    ///
    /// Scoring follows Eq. 10–11 restricted to the patterns that pass the
    /// query's time/region filters (see the [`crate::query`] module docs
    /// for the exact filter semantics). Results come from the result cache
    /// when the *full* canonical query — terms, `k`, effective
    /// configuration, and filters — was answered before; otherwise the
    /// evaluation walks the prebuilt posting lists (unfiltered queries on a
    /// finalized engine) or scores the query terms' filtered posting lists
    /// on the fly. Either way [`QueryResponse::stats`] says which path ran.
    pub fn query(&self, query: &Query) -> Result<QueryResponse, QueryError> {
        self.state.query(
            query,
            &self.cache,
            0,
            || true,
            self.obs.get().map(Arc::as_ref),
        )
    }

    /// Executes a batch of typed queries, returning one response per query
    /// (same order as the input). Each query fails or succeeds on its own;
    /// repeated queries in the batch hit the result cache.
    pub fn query_many(&self, queries: &[Query]) -> Vec<Result<QueryResponse, QueryError>> {
        queries.iter().map(|q| self.query(q)).collect()
    }

    /// The shared read front, serving the last published generation.
    pub fn front(&self) -> Arc<ServingFront> {
        Arc::clone(&self.front)
    }

    /// The generation of the last [`publish`](Self::publish) (0 before the
    /// first).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Publishes the working state to the front as one new generation.
    /// Every term's state is shared with the generation, not copied; the
    /// cached results of the terms dirtied since the last publish are
    /// invalidated (all of them after a finalize or import).
    pub fn publish(&mut self) {
        self.generation += 1;
        let next = Generation {
            number: self.generation,
            state: self.state.clone(),
            metrics: self.metrics(),
        };
        self.front.publish(next, &self.dirty, self.all_dirty);
        self.dirty.clear();
        self.all_dirty = false;
    }

    /// Crash-recovery restore: re-derives the corpus-level term→documents
    /// lists from `collection`, imports the persisted derived state
    /// bit-for-bit, resets the build counters, and publishes the result as
    /// a new generation on the *same* front, so existing [`ServingFront`]
    /// handles keep working.
    pub fn restore(&mut self, collection: impl Into<Arc<Collection>>, state: EngineState) {
        let collection: Arc<Collection> = collection.into();
        self.positions = collection.positions();
        self.state.terms = Arc::new(index_documents(&collection));
        self.state.collection = collection;
        self.finalize_count = 0;
        self.last_finalize = None;
        self.term_rescore_count = 0;
        self.import_state(state);
        self.publish();
    }

    /// The working state (for structural tests).
    #[cfg(test)]
    pub(crate) fn serving_state(&self) -> &ServingState {
        &self.state
    }
}

/// A validated, dictionary-resolved query ready for execution.
pub(crate) struct QueryPlan {
    /// Resolved distinct query terms, in first-occurrence order (repeated
    /// terms are collapsed by [`plan_query`], the one place every
    /// downstream identity — cache keys, TA scans, subscription keys —
    /// derives its term set from).
    pub(crate) terms: Vec<TermId>,
    pub(crate) k: usize,
    /// The engine configuration with per-query overrides applied.
    pub(crate) config: EngineConfig,
    pub(crate) filter: PatternFilter,
    pub(crate) explain: bool,
    /// The query is vacuously unmatchable (unknown word under
    /// [`UnknownWords::EmptyResponse`]): respond empty without evaluating.
    pub(crate) vacuous: bool,
}

// ---------------------------------------------------------------------------
// Shared query-execution machinery.
//
// The building blocks of the one query path (`ServingState::query` in
// `crate::serving`): planning, scoring, stats assembly, and explanation.
// Every float operation a query triggers runs through exactly this code, in
// exactly this order, whether the engine or its front executes it.
// ---------------------------------------------------------------------------

/// Validates and resolves a [`Query`] against a collection snapshot under a
/// base configuration (per-query overrides applied on top).
pub(crate) fn plan_query(
    collection: &Collection,
    base_config: EngineConfig,
    query: &Query,
) -> Result<QueryPlan, QueryError> {
    if query.top_k == 0 {
        return Err(QueryError::ZeroTopK);
    }
    let window = match &query.time_window {
        Some(w) => {
            let (start, end) = (*w.start(), *w.end());
            if start > end {
                return Err(QueryError::EmptyTimeWindow { start, end });
            }
            Some(TimeInterval::new(start, end))
        }
        None => None,
    };
    let region = match query.region {
        Some(r) => {
            if [r.min_x, r.min_y, r.max_x, r.max_y]
                .iter()
                .any(|v| v.is_nan())
            {
                return Err(QueryError::InvalidRegion { region: r });
            }
            Some(r)
        }
        None => None,
    };
    let mut config = base_config;
    if let Some(relevance) = query.relevance {
        config.relevance = relevance;
    }
    let mut vacuous = false;
    let terms = match &query.terms {
        QueryTerms::Ids(ids) => ids.clone(),
        QueryTerms::Text(text) => {
            let mut terms = Vec::new();
            for word in text.split_whitespace() {
                let lower = word.to_lowercase();
                match collection.dict().get(&lower) {
                    Some(term) => terms.push(term),
                    None => match query.unknown_words {
                        UnknownWords::Error => return Err(QueryError::UnknownWord { word: lower }),
                        UnknownWords::Drop => {}
                        UnknownWords::EmptyResponse => vacuous = true,
                    },
                }
            }
            terms
        }
    };
    // Canonical duplicate handling, in exactly one place: Eq. 10 sums one
    // relevance×burstiness factor per *distinct* term, so a repeated term
    // collapses to its first occurrence here. Every consumer of a plan
    // (cache keys via `plan_key`, the TA scan over `plan.terms`,
    // explanations, subscription registrations) therefore agrees on the
    // deduplicated term set.
    let mut deduped = Vec::with_capacity(terms.len());
    for term in terms {
        if !deduped.contains(&term) {
            deduped.push(term);
        }
    }
    let terms = deduped;
    if terms.is_empty() && !vacuous {
        return Err(QueryError::EmptyQuery);
    }
    Ok(QueryPlan {
        terms,
        k: query.top_k,
        config,
        filter: PatternFilter { window, region },
        explain: query.explain,
        vacuous,
    })
}

/// The canonical cache key of a plan.
pub(crate) fn plan_key(plan: &QueryPlan) -> QueryKey {
    QueryKey::canonical(
        &plan.terms,
        plan.k,
        plan.config,
        plan.filter.window,
        plan.filter.region,
    )
}

/// Stats template for a query answered from the result cache.
pub(crate) fn cache_hit_stats(plan: &QueryPlan) -> QueryStats {
    QueryStats {
        cache_hit: true,
        terms: plan.terms.len(),
        filtered: !plan.filter.is_none(),
        ..QueryStats::default()
    }
}

/// Stats of an evaluated (non-cached) query.
pub(crate) fn evaluated_stats(plan: &QueryPlan, ta: TopkStats, from_prebuilt: bool) -> QueryStats {
    QueryStats {
        cache_hit: false,
        served_from_prebuilt: from_prebuilt,
        postings_scanned: ta.postings_scanned,
        candidates_pruned: ta.candidates_pruned,
        terms: plan.terms.len(),
        filtered: !plan.filter.is_none(),
    }
}

/// The empty response of a vacuously unmatchable plan.
pub(crate) fn vacuous_response(plan: &QueryPlan) -> QueryResponse {
    QueryResponse {
        results: Vec::new(),
        explanations: Vec::new(),
        stats: QueryStats {
            terms: plan.terms.len(),
            filtered: !plan.filter.is_none(),
            ..QueryStats::default()
        },
    }
}

/// Eq. 11 for one (term, document) pair: aggregates the scores of the
/// term's patterns that survive `filter` and overlap the document.
pub(crate) fn burstiness_of(
    patterns: Option<&[StoredPattern]>,
    stream: StreamId,
    timestamp: Timestamp,
    aggregation: BurstinessAgg,
    filter: PatternFilter,
) -> Option<f64> {
    let overlapping: Vec<f64> = patterns?
        .iter()
        .filter(|p| filter.passes(p) && p.overlaps(stream, timestamp))
        .map(|p| p.score)
        .collect();
    aggregation.aggregate(&overlapping)
}

/// The Eq. 10–11 scored posting list of one term (unsorted) over an explicit
/// term→documents list and pattern set.
pub(crate) fn scored_postings(
    collection: &Collection,
    term: TermId,
    docs: Option<&[DocId]>,
    patterns: Option<&[StoredPattern]>,
    config: EngineConfig,
    filter: PatternFilter,
) -> Vec<Posting> {
    let n_docs = collection.documents().len();
    let Some(docs) = docs else {
        return Vec::new();
    };
    let doc_freq = docs.len();
    let mut list = Vec::new();
    for &doc_id in docs {
        let doc = collection.document(doc_id);
        let relevance = config.relevance.score(doc.freq(term), doc_freq, n_docs);
        match burstiness_of(
            patterns,
            doc.stream,
            doc.timestamp,
            config.aggregation,
            filter,
        ) {
            Some(burst) => list.push(Posting {
                doc: doc_id,
                score: relevance * burst,
            }),
            None => {
                if config.no_pattern == NoPatternPolicy::Zero {
                    // The term contributes nothing but the document stays
                    // eligible for the rest of the query.
                    list.push(Posting {
                        doc: doc_id,
                        score: 0.0,
                    });
                }
                // Under Exclude the document is simply absent from this
                // term's posting list, which the Threshold Algorithm
                // interprets as -inf.
            }
        }
    }
    list
}

/// Builds and finalizes a per-query index from a posting-list source.
pub(crate) fn query_index(
    query: &[TermId],
    mut postings_of: impl FnMut(TermId) -> Vec<Posting>,
) -> InvertedIndex {
    let mut terms = query.to_vec();
    terms.sort();
    terms.dedup();
    let mut index = InvertedIndex::new();
    for term in terms {
        index.set_postings(term, postings_of(term));
    }
    index.finalize();
    index
}

/// Per-document Eq. 10–11 breakdown of a result list under a plan's
/// effective configuration and filters, over explicit doc-frequency and
/// pattern sources.
pub(crate) fn explain_results_with<'p>(
    collection: &Collection,
    plan: &QueryPlan,
    results: &[SearchResult],
    doc_freq: impl Fn(TermId) -> usize,
    patterns_of: impl Fn(TermId) -> Option<&'p [StoredPattern]>,
) -> Vec<DocExplanation> {
    let n_docs = collection.documents().len();
    results
        .iter()
        .map(|r| {
            let doc = collection.document(r.doc);
            let mut total = 0.0;
            let terms = plan
                .terms
                .iter()
                .map(|&term| {
                    let relevance =
                        plan.config
                            .relevance
                            .score(doc.freq(term), doc_freq(term), n_docs);
                    let patterns: Vec<PatternMatch> = patterns_of(term)
                        .map(|ps| {
                            ps.iter()
                                .filter(|p| {
                                    plan.filter.passes(p) && p.overlaps(doc.stream, doc.timestamp)
                                })
                                .map(|p| PatternMatch {
                                    interval: p.timeframe,
                                    region: p.region,
                                    score: p.score,
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    let scores: Vec<f64> = patterns.iter().map(|p| p.score).collect();
                    let burstiness = plan.config.aggregation.aggregate(&scores);
                    let contribution = burstiness.map_or(0.0, |b| relevance * b);
                    total += contribution;
                    TermExplanation {
                        term,
                        relevance,
                        burstiness,
                        contribution,
                        patterns,
                    }
                })
                .collect();
            DocExplanation {
                doc: r.doc,
                total,
                terms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stb_core::CombinatorialPattern;
    use stb_corpus::CollectionBuilder;
    use stb_geo::GeoPoint;
    use std::collections::HashMap as StdHashMap;

    /// Three streams, 10 timestamps. "flood" bursts in streams 0 and 1
    /// during timestamps 4..=6; documents elsewhere mention it sporadically.
    fn build_fixture() -> (Collection, TermId) {
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
        // Burst documents.
        for ts in 4..=6 {
            for &s in &[s0, s1] {
                let mut counts = StdHashMap::new();
                counts.insert(flood, 10);
                b.add_document(s, ts, counts);
            }
        }
        (b.build(), flood)
    }

    fn flood_pattern() -> CombinatorialPattern {
        CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1)],
            TimeInterval::new(4, 6),
            1.5,
            vec![],
        )
    }

    fn assert_same_results(a: &[SearchResult], b: &[SearchResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.doc, y.doc);
            assert!((x.score - y.score).abs() < 1e-12);
        }
    }

    /// Unfiltered term query through the typed API (the tests' equivalent
    /// of the legacy `search`). Degenerate queries resolve to no results.
    fn run(engine: &BurstySearchEngine, terms: &[TermId], k: usize) -> Vec<SearchResult> {
        engine
            .query(&Query::terms(terms.iter().copied()).top_k(k))
            .map(|response| response.results)
            .unwrap_or_default()
    }

    #[test]
    fn search_returns_burst_documents_first() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        let results = run(&engine, &[flood], 6);
        assert_eq!(results.len(), 6);
        for r in &results {
            let d = c.document(r.doc);
            // Under the Exclude policy every returned document must overlap
            // the pattern.
            assert!((4..=6).contains(&d.timestamp));
            assert!(d.stream == StreamId(0) || d.stream == StreamId(1));
            assert!(r.score > 0.0);
        }
        // The strongest hits are the high-frequency burst documents.
        let top_doc = c.document(results[0].doc);
        assert_eq!(top_doc.freq(flood), 10);
    }

    #[test]
    fn zero_policy_keeps_non_overlapping_documents() {
        let (c, flood) = build_fixture();
        let config = EngineConfig {
            no_pattern: NoPatternPolicy::Zero,
            ..Default::default()
        };
        let mut engine = BurstySearchEngine::new(&c, config);
        engine.set_patterns(flood, &[flood_pattern()]);
        let strict_count = {
            let mut strict = BurstySearchEngine::new(&c, EngineConfig::default());
            strict.set_patterns(flood, &[flood_pattern()]);
            run(&strict, &[flood], 100).len()
        };
        let lenient_count = run(&engine, &[flood], 100).len();
        // Zero policy can only return at least as many documents; documents
        // outside the pattern score 0 and are still filtered from the top-k
        // (non-positive scores are never returned), so the counts match here.
        assert!(lenient_count >= strict_count);
    }

    #[test]
    fn no_patterns_means_no_results_under_exclude() {
        let (c, flood) = build_fixture();
        let engine = BurstySearchEngine::new(&c, EngineConfig::default());
        assert!(run(&engine, &[flood], 10).is_empty());
    }

    #[test]
    fn document_burstiness_uses_max_aggregation() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        let weak = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1)],
            TimeInterval::new(4, 6),
            0.5,
            vec![],
        );
        engine.set_patterns(flood, &[weak, flood_pattern()]);
        // Find a burst document.
        let doc = c
            .documents()
            .iter()
            .find(|d| d.freq(flood) == 10)
            .unwrap()
            .id;
        assert_eq!(engine.document_burstiness(flood, doc), Some(1.5));
    }

    #[test]
    fn search_text_resolves_terms() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        let by_id = run(&engine, &[flood], 5);
        let by_text = engine.query(&Query::text("Flood").top_k(5)).unwrap();
        assert_eq!(by_id.len(), by_text.results.len());
        for (a, b) in by_id.iter().zip(&by_text.results) {
            assert_eq!(a.doc, b.doc);
        }
    }

    #[test]
    fn text_query_unknown_word_policies() {
        let (c, flood) = build_fixture();
        for finalized in [false, true] {
            let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
            engine.set_patterns(flood, &[flood_pattern()]);
            if finalized {
                engine.finalize_with_threads(2);
            }
            // Error (default): the unknown word is surfaced.
            assert_eq!(
                engine.query(&Query::text("flood UNKNOWNTERM").top_k(5)),
                Err(QueryError::UnknownWord {
                    word: "unknownterm".into()
                })
            );
            // EmptyResponse: the whole query is unmatchable, successfully.
            let vacuous = engine
                .query(
                    &Query::text("flood unknownterm")
                        .top_k(5)
                        .unknown_words(UnknownWords::EmptyResponse),
                )
                .unwrap();
            assert!(vacuous.results.is_empty());
            assert!(!vacuous.stats.cache_hit);
            // Drop: unknown words contribute nothing; all-unknown queries
            // resolve to no terms at all.
            let dropped = engine
                .query(
                    &Query::text("Flood unknownterm")
                        .top_k(5)
                        .unknown_words(UnknownWords::Drop),
                )
                .unwrap();
            assert_eq!(dropped.results, run(&engine, &[flood], 5));
            assert_eq!(
                engine.query(
                    &Query::text("unknownterm")
                        .top_k(5)
                        .unknown_words(UnknownWords::Drop)
                ),
                Err(QueryError::EmptyQuery)
            );
        }
    }

    #[test]
    fn unseen_term_id_never_panics() {
        let (c, flood) = build_fixture();
        // A TermId the collection has never seen (e.g. interned into a newer
        // dictionary snapshot than the engine's) must yield empty results on
        // cold and finalized engines alike — not a panic or debug-assert.
        let ghost = TermId(4242);
        for finalized in [false, true] {
            let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
            engine.set_patterns(flood, &[flood_pattern()]);
            if finalized {
                engine.finalize_with_threads(2);
            }
            assert!(run(&engine, &[ghost], 5).is_empty());
            assert!(run(&engine, &[flood, ghost], 5).is_empty());
            assert_eq!(engine.doc_freq(ghost), 0);
            assert_eq!(engine.document_burstiness(ghost, DocId(0)), None);
        }
    }

    #[test]
    fn update_collection_scores_newly_arrived_documents() {
        let (c, flood) = build_fixture();
        let shared: Arc<Collection> = Arc::new(c);
        let mut engine = BurstySearchEngine::new(Arc::clone(&shared), EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.finalize_with_threads(2);
        let before = run(&engine, &[flood], 50).len();

        // A new burst document and a brand-new term arrive.
        let mut next = Collection::clone(&shared);
        let surge = next.dict_mut().intern("surge");
        let mut counts = StdHashMap::new();
        counts.insert(flood, 10);
        counts.insert(surge, 3);
        let new_doc = next.push_document(StreamId(0), 5, counts);
        let next = Arc::new(next);
        engine.update_collection(Arc::clone(&next), &[new_doc]);
        engine.refresh_term(flood); // same patterns, one more overlapping doc
        engine.set_patterns(
            surge,
            &[CombinatorialPattern::new(
                vec![StreamId(0)],
                TimeInterval::new(4, 6),
                1.0,
                vec![],
            )],
        );

        let after = run(&engine, &[flood], 50);
        assert_eq!(after.len(), before + 1);
        assert!(after.iter().any(|r| r.doc == new_doc));
        let surge_hits = run(&engine, &[surge], 10);
        assert_eq!(surge_hits.len(), 1);
        assert_eq!(surge_hits[0].doc, new_doc);
        // The refreshed engine agrees with a cold engine over the new
        // snapshot.
        let mut reference = BurstySearchEngine::new(next, EngineConfig::default());
        reference.set_cache_capacity(0);
        reference.set_patterns(flood, &[flood_pattern()]);
        assert_same_results(&run(&reference, &[flood], 50), &after);
    }

    #[test]
    fn metrics_snapshot_tracks_counters() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        let cold = engine.metrics();
        assert!(!cold.finalized);
        assert_eq!(cold.finalize_count, 0);
        assert_eq!(cold.last_finalize_ms, None);
        assert_eq!(cold.n_docs, engine.collection().documents().len());

        engine.set_patterns(flood, &[flood_pattern()]);
        engine.finalize_with_threads(2);
        let _ = run(&engine, &[flood], 5);
        let _ = run(&engine, &[flood], 5);
        engine.set_patterns(flood, &[flood_pattern()]);

        let m = engine.metrics();
        assert!(m.finalized);
        assert_eq!(m.finalize_count, 1);
        assert!(m.last_finalize_ms.is_some());
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        assert!(m.term_rescore_count >= 1);
        assert!(m.indexed_terms >= 1);
        assert!(m.indexed_postings >= m.indexed_terms);
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BurstySearchEngine>();
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let (c, flood) = build_fixture();
        let engine = BurstySearchEngine::new(&c, EngineConfig::default());
        // "flood" appears in documents at ts 0,3,6,9 for 3 streams (12 docs)
        // plus 6 burst documents.
        assert_eq!(engine.doc_freq(flood), 18);
    }

    #[test]
    fn multi_term_query_requires_all_terms_under_exclude() {
        let (c, flood) = build_fixture();
        let cricket = c.dict().get("cricket").unwrap();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.set_patterns(
            cricket,
            &[CombinatorialPattern::new(
                vec![StreamId(0), StreamId(1), StreamId(2)],
                TimeInterval::new(0, 9),
                0.3,
                vec![],
            )],
        );
        let results = run(&engine, &[flood, cricket], 10);
        // Burst documents contain only "flood", background documents contain
        // "cricket" and sometimes "flood": only documents containing both
        // terms and overlapping both patterns qualify.
        for r in &results {
            let d = c.document(r.doc);
            assert!(d.freq(flood) > 0 && d.freq(cricket) > 0);
        }
    }

    #[test]
    fn finalized_engine_matches_cold_engine() {
        let (c, flood) = build_fixture();
        let cricket = c.dict().get("cricket").unwrap();
        let all_streams = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1), StreamId(2)],
            TimeInterval::new(0, 9),
            0.3,
            vec![],
        );
        for config in [
            EngineConfig::default(),
            EngineConfig {
                no_pattern: NoPatternPolicy::Zero,
                ..Default::default()
            },
        ] {
            let mut cold = BurstySearchEngine::new(&c, config);
            cold.set_cache_capacity(0);
            cold.set_patterns(flood, &[flood_pattern()]);
            cold.set_patterns(cricket, std::slice::from_ref(&all_streams));

            let mut hot = BurstySearchEngine::new(&c, config);
            hot.set_patterns(flood, &[flood_pattern()]);
            hot.set_patterns(cricket, std::slice::from_ref(&all_streams));
            hot.finalize_with_threads(3);
            assert!(hot.is_finalized());

            for query in [vec![flood], vec![cricket], vec![flood, cricket]] {
                for k in [1, 5, 50] {
                    assert_same_results(&run(&cold, &query, k), &run(&hot, &query, k));
                }
            }
        }
    }

    #[test]
    fn finalize_thread_count_does_not_change_results() {
        let (c, flood) = build_fixture();
        let mut one = BurstySearchEngine::new(&c, EngineConfig::default());
        one.set_patterns(flood, &[flood_pattern()]);
        one.finalize_with_threads(1);
        let mut many = BurstySearchEngine::new(&c, EngineConfig::default());
        many.set_patterns(flood, &[flood_pattern()]);
        many.finalize_with_threads(8);
        assert_same_results(&run(&one, &[flood], 10), &run(&many, &[flood], 10));
        // The prebuilt lists are identical too.
        assert_eq!(one.export_state(), many.export_state());
    }

    #[test]
    fn repeated_search_hits_the_cache() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.finalize();
        let first = run(&engine, &[flood], 5);
        assert_eq!(engine.metrics().cache_hits, 0);
        let second = run(&engine, &[flood], 5);
        assert_eq!(engine.metrics().cache_hits, 1);
        assert_same_results(&first, &second);
        // Different k is a different cache entry.
        let _ = run(&engine, &[flood], 6);
        assert_eq!(engine.metrics().cache_hits, 1);
        assert_eq!(engine.metrics().cache_len, 2);
    }

    #[test]
    fn set_patterns_after_finalize_rebuilds_incrementally() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.finalize();
        let before = run(&engine, &[flood], 10);
        assert!(!before.is_empty());

        // Strengthen the pattern: cached results must not survive.
        let stronger = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1)],
            TimeInterval::new(4, 6),
            3.0,
            vec![],
        );
        engine.set_patterns(flood, &[stronger]);
        let after = run(&engine, &[flood], 10);
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            assert!(
                (a.score - 2.0 * b.score).abs() < 1e-9,
                "doubled pattern score"
            );
        }

        // Dropping the patterns empties the term's posting list in place.
        engine.set_patterns(flood, &[] as &[CombinatorialPattern]);
        assert!(run(&engine, &[flood], 10).is_empty());
    }

    #[test]
    fn query_many_cold_reuses_cache_on_repeat() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        let queries = vec![
            Query::terms([flood]).top_k(5),
            Query::terms([flood]).top_k(5),
        ];
        let first: Vec<_> = engine
            .query_many(&queries)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        // Within one batch the second (identical) query hits the cache.
        assert_eq!(engine.metrics().cache_hits, 1);
        assert!(!first[0].stats.cache_hit);
        assert!(first[1].stats.cache_hit);
        // A repeated batch is answered entirely from the cache — no index
        // is rebuilt for it.
        let second: Vec<_> = engine
            .query_many(&queries)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(engine.metrics().cache_hits, 3);
        assert_eq!(first[0].results, second[0].results);
        assert_eq!(first[1].results, second[1].results);
    }

    #[test]
    fn set_patterns_from_duplicate_terms_last_wins() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        let source = vec![
            (flood, vec![flood_pattern()]),
            (flood, Vec::new()), // a later run retracts the pattern
        ];
        engine.set_patterns_from(&source);
        assert!(run(&engine, &[flood], 10).is_empty());
    }

    #[test]
    fn query_many_matches_one_by_one_filtered_and_unfiltered() {
        // Regression guard for the batched union-scoring path: a batch
        // mixing unfiltered, windowed, and regioned queries must return
        // exactly what issuing them one by one returns — one query's
        // filters must never leak into another's scoring.
        let (c, flood) = build_fixture();
        let cricket = c.dict().get("cricket").unwrap();
        let all_streams = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1), StreamId(2)],
            TimeInterval::new(0, 9),
            0.3,
            vec![],
        );
        let queries = vec![
            Query::terms([flood]).top_k(7),
            Query::terms([cricket]).top_k(7),
            Query::terms([flood, cricket]).top_k(7),
            Query::terms([flood]).top_k(7), // repeat: in-batch cache hit
            Query::terms([flood]).top_k(7).time_window(0..=3),
            Query::terms([flood, cricket]).top_k(7).time_window(4..=9),
            // Region around streams A/B only (stream C sits at (50, 50)).
            Query::terms([flood])
                .top_k(7)
                .region(Rect::new(-1.0, -1.0, 2.0, 2.0)),
            Query::terms([cricket])
                .top_k(7)
                .time_window(2..=8)
                .region(Rect::new(40.0, 40.0, 60.0, 60.0)),
        ];
        for finalized in [false, true] {
            let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
            engine.set_patterns(flood, &[flood_pattern()]);
            engine.set_patterns(cricket, std::slice::from_ref(&all_streams));
            if finalized {
                engine.finalize();
            }
            let batch = engine.query_many(&queries);
            assert_eq!(batch.len(), queries.len());
            let mut reference = BurstySearchEngine::new(&c, EngineConfig::default());
            reference.set_cache_capacity(0);
            reference.set_patterns(flood, &[flood_pattern()]);
            reference.set_patterns(cricket, std::slice::from_ref(&all_streams));
            for (q, got) in queries.iter().zip(batch) {
                let one_by_one = reference.query(q).unwrap();
                assert_same_results(&got.unwrap().results, &one_by_one.results);
            }
        }
    }

    #[test]
    fn time_window_restricts_to_intersecting_patterns() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]); // timeframe 4..=6
        let all = run(&engine, &[flood], 50);
        // A window intersecting the pattern keeps every supported document
        // (filters select patterns, not documents).
        let overlapping = engine
            .query(&Query::terms([flood]).top_k(50).time_window(6..=9))
            .unwrap();
        assert_same_results(&overlapping.results, &all);
        assert!(overlapping.stats.filtered);
        // A disjoint window removes the pattern and with it every result.
        let disjoint = engine
            .query(&Query::terms([flood]).top_k(50).time_window(7..=9))
            .unwrap();
        assert!(disjoint.results.is_empty());
    }

    #[test]
    fn region_filter_uses_pattern_geometry() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        // Pattern over streams A(0,0) and B(1,1): its MBR is [0,1]x[0,1].
        engine.set_patterns(flood, &[flood_pattern()]);
        let all = run(&engine, &[flood], 50);
        let near = engine
            .query(
                &Query::terms([flood])
                    .top_k(50)
                    .region(Rect::new(0.5, 0.5, 3.0, 3.0)),
            )
            .unwrap();
        assert_same_results(&near.results, &all);
        // A rectangle far from both streams excludes the pattern entirely.
        let far = engine
            .query(
                &Query::terms([flood])
                    .top_k(50)
                    .region(Rect::new(40.0, 40.0, 60.0, 60.0)),
            )
            .unwrap();
        assert!(far.results.is_empty());
    }

    #[test]
    fn filters_select_among_multiple_patterns() {
        // Two patterns of the same term with different windows and regions:
        // filtering picks the right burstiness per document.
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        let early_ab = flood_pattern(); // streams 0,1 / 4..=6 / score 1.5
        let late_c =
            CombinatorialPattern::new(vec![StreamId(2)], TimeInterval::new(0, 9), 0.7, vec![]);
        engine.set_patterns(flood, &[early_ab, late_c]);

        // Window+region matching only the C pattern: every hit is from
        // stream C and scored by the weaker pattern.
        let only_c = engine
            .query(
                &Query::terms([flood])
                    .top_k(50)
                    .time_window(0..=3)
                    .region(Rect::new(45.0, 45.0, 55.0, 55.0))
                    .explain(true),
            )
            .unwrap();
        assert!(!only_c.results.is_empty());
        for (r, e) in only_c.results.iter().zip(&only_c.explanations) {
            assert_eq!(c.document(r.doc).stream, StreamId(2));
            assert_eq!(e.terms[0].burstiness, Some(0.7));
            assert_eq!(e.terms[0].patterns.len(), 1);
        }
    }

    #[test]
    fn explanations_break_down_the_score() {
        let (c, flood) = build_fixture();
        let cricket = c.dict().get("cricket").unwrap();
        let all_streams = CombinatorialPattern::new(
            vec![StreamId(0), StreamId(1), StreamId(2)],
            TimeInterval::new(0, 9),
            0.3,
            vec![],
        );
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.set_patterns(cricket, std::slice::from_ref(&all_streams));
        engine.finalize_with_threads(2);

        let response = engine
            .query(&Query::terms([flood, cricket]).top_k(10).explain(true))
            .unwrap();
        assert!(!response.results.is_empty());
        assert_eq!(response.results.len(), response.explanations.len());
        for (r, e) in response.results.iter().zip(&response.explanations) {
            assert_eq!(r.doc, e.doc);
            // The per-term contributions reconstruct the score exactly.
            assert_eq!(e.total, r.score);
            assert_eq!(e.terms.len(), 2);
            let sum: f64 = e.terms.iter().map(|t| t.contribution).sum();
            assert_eq!(sum, e.total);
            for t in &e.terms {
                let b = t.burstiness.expect("Exclude policy: every term matched");
                assert_eq!(t.contribution, t.relevance * b);
                assert!(!t.patterns.is_empty());
                for p in &t.patterns {
                    assert!(p.region.is_some(), "stored geometry must be exposed");
                }
            }
        }
        // A cache hit still explains (explanations are never cached).
        let again = engine
            .query(&Query::terms([flood, cricket]).top_k(10).explain(true))
            .unwrap();
        assert!(again.stats.cache_hit);
        assert_eq!(again.explanations, response.explanations);
    }

    #[test]
    fn structured_errors_cover_malformed_queries() {
        let (c, flood) = build_fixture();
        let engine = BurstySearchEngine::new(&c, EngineConfig::default());
        assert_eq!(
            engine.query(&Query::terms([] as [TermId; 0])),
            Err(QueryError::EmptyQuery)
        );
        assert_eq!(
            engine.query(&Query::terms([flood]).top_k(0)),
            Err(QueryError::ZeroTopK)
        );
        #[allow(clippy::reversed_empty_ranges)] // the empty window IS the case under test
        let inverted = Query::terms([flood]).time_window(7..=3);
        assert_eq!(
            engine.query(&inverted),
            Err(QueryError::EmptyTimeWindow { start: 7, end: 3 })
        );
        // `Rect::new`'s min/max normalization absorbs a single NaN corner,
        // so build the pathological rectangle field by field.
        let nan_rect = Rect {
            min_x: f64::NAN,
            min_y: 0.0,
            max_x: 1.0,
            max_y: 1.0,
        };
        assert!(matches!(
            engine.query(&Query::terms([flood]).region(nan_rect)),
            Err(QueryError::InvalidRegion { .. })
        ));
    }

    #[test]
    fn per_query_relevance_override_matches_reconfigured_engine() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        engine.finalize_with_threads(2);

        let mut raw_engine = BurstySearchEngine::new(
            &c,
            EngineConfig::builder()
                .relevance(Relevance::RawFreq)
                .build(),
        );
        raw_engine.set_cache_capacity(0);
        raw_engine.set_patterns(flood, &[flood_pattern()]);

        let overridden = engine
            .query(
                &Query::terms([flood])
                    .top_k(10)
                    .relevance(Relevance::RawFreq),
            )
            .unwrap();
        // The override bypasses the prebuilt lists (they embed LogFreq).
        assert!(!overridden.stats.served_from_prebuilt);
        assert_same_results(&overridden.results, &run(&raw_engine, &[flood], 10));
        // The default-config query is unaffected and still served prebuilt.
        let default = engine.query(&Query::terms([flood]).top_k(10)).unwrap();
        assert!(default.stats.served_from_prebuilt);
        assert_same_results(&default.results, &run(&engine, &[flood], 10));
    }

    #[test]
    fn stats_report_execution_path() {
        let (c, flood) = build_fixture();
        let mut engine = BurstySearchEngine::new(&c, EngineConfig::default());
        engine.set_patterns(flood, &[flood_pattern()]);
        let q = Query::terms([flood]).top_k(3);

        let cold = engine.query(&q).unwrap();
        assert!(!cold.stats.cache_hit);
        assert!(!cold.stats.served_from_prebuilt);
        assert!(cold.stats.postings_scanned > 0);
        assert_eq!(cold.stats.terms, 1);

        let hit = engine.query(&q).unwrap();
        assert!(hit.stats.cache_hit);
        assert_eq!(hit.stats.postings_scanned, 0);

        engine.finalize_with_threads(2);
        let prebuilt = engine.query(&q).unwrap();
        assert!(prebuilt.stats.served_from_prebuilt);
        assert!(!prebuilt.stats.cache_hit);
    }

    #[test]
    fn engine_config_builder_defaults_match_default() {
        assert_eq!(EngineConfig::builder().build(), EngineConfig::default());
        let custom = EngineConfig::builder()
            .relevance(Relevance::TfIdf)
            .aggregation(BurstinessAgg::Mean)
            .no_pattern(NoPatternPolicy::Zero)
            .build();
        assert_eq!(custom.relevance, Relevance::TfIdf);
        assert_eq!(custom.aggregation, BurstinessAgg::Mean);
        assert_eq!(custom.no_pattern, NoPatternPolicy::Zero);
    }
}
