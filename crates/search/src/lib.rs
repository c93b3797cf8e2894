//! Bursty-document search engine (Section 5 of the paper).
//!
//! Given the spatiotemporal burstiness patterns mined for each term (by
//! `STComb`, `STLocal`, or the temporal-only `TB` baseline), this crate
//! ranks documents for a multi-term query by
//!
//! ```text
//! score(q, d) = Σ_{t ∈ q} relevance(d, t) × burstiness(d, t)      (Eq. 10)
//! ```
//!
//! where `relevance` is a normalized term frequency (the paper found
//! `log(freq + 1)` to work best) and `burstiness(d, t)` aggregates the
//! scores of the patterns of `t` that *overlap* the document — i.e. contain
//! both its stream of origin and its timestamp (Eq. 11; the paper found the
//! maximum to work best).
//!
//! Queries enter through the typed spatiotemporal DSL ([`Query`] →
//! [`BurstySearchEngine::query`] → `Result<QueryResponse, QueryError>`):
//! term or text queries with optional `time_window`/`region` filters that
//! restrict scoring to the patterns intersecting both, per-document
//! explanations of the Eq. 10–11 factors, and execution statistics.
//!
//! Retrieval uses a classic IR architecture: per-term posting lists sorted
//! by score, queried with Fagin's Threshold Algorithm ([`threshold_topk`])
//! for early-terminating top-k evaluation. For serving repeated query
//! traffic, [`BurstySearchEngine::finalize`] prebuilds every term's scored
//! posting list in parallel, and an LRU [`cache::QueryCache`]
//! short-circuits repeated queries (keyed on the full canonical query,
//! filters included).
//!
//! Each term's serving state — documents, patterns, and prebuilt posting
//! list — exists once, behind an `Arc` (see [`serving`]). The engine
//! mutates its working state (swapping in collection snapshots with
//! [`BurstySearchEngine::update_collection`] and re-scoring only the
//! affected terms with [`BurstySearchEngine::refresh_term`]) while
//! concurrent readers query a [`ServingFront`]: each
//! [`BurstySearchEngine::publish`] hands the front a new generation that
//! shares the term state instead of copying it, and both run the same
//! query function, so they answer bit-identically over the same state.
//! Serving counters are exposed through [`EngineMetrics`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burstiness;
pub mod cache;
pub mod engine;
pub mod error;
pub mod index;
pub mod obs;
pub mod query;
pub mod relevance;
pub mod serving;
pub mod threshold;

pub use burstiness::{BurstinessAgg, NoPatternPolicy};
pub use cache::{QueryCache, QueryKey};
pub use engine::{
    BurstySearchEngine, EngineConfig, EngineConfigBuilder, EngineMetrics, EngineState,
    SearchResult, DEFAULT_CACHE_CAPACITY,
};
pub use error::QueryError;
pub use index::{InvertedIndex, Posting};
pub use obs::{SearchObs, SearchObsConfig};
pub use query::{
    DocExplanation, PatternMatch, Query, QueryResponse, QueryStats, ResponseSnapshot,
    TermExplanation, UnknownWords, DEFAULT_TOP_K,
};
pub use relevance::Relevance;
pub use serving::ServingFront;
pub use threshold::{threshold_topk, threshold_topk_with_stats, PostingAccess, TopkStats};
