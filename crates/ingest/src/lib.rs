//! Live document ingestion: incremental mining and per-term index deltas.
//!
//! The rest of the workspace reproduces the paper's *batch* pipeline:
//! freeze a collection, mine every term, build the posting index, serve.
//! This crate turns the same machinery into a **live** system in which
//! documents, ticks, streams, and previously-unseen terms keep arriving
//! while queries are being served:
//!
//! * [`LiveCollection`] — a mutable collection behind generational
//!   `Arc<Collection>` snapshots (copy-on-write per generation), sharing
//!   the frequency-tensor representation with `stb-corpus`.
//! * [`IngestPipeline`] — stage documents, commit ticks: each commit
//!   advances the per-(term, stream) online burst state, re-mines only the
//!   tick's *dirty terms* (the streaming `STLocal` step of Algorithm 2, or
//!   a dirty-subset `STComb` pass), and applies the resulting
//!   [`PatternDelta`]s to a `BurstySearchEngine` — per-term posting
//!   re-scores and per-term result-cache invalidation, never a full
//!   rebuild — before publishing one new immutable serving generation that
//!   shares every term's state with the engine.
//! * [`SearchHandle`] — cloneable query access over the engine's
//!   `ServingFront`, speaking the typed [`Query`] DSL (time/region
//!   filters, explanations, structured errors): a query runs against one
//!   published generation, never blocks ingestion (nor does ingestion
//!   block it beyond a pointer swap), and answers bit-identically to the
//!   single-threaded engine holding that state.
//! * [`replay_tsv`] — drive a TSV corpus from disk through the pipeline
//!   tick-by-tick via the streaming reader in `stb_corpus::tsv`.
//! * **Standing subscriptions** ([`SearchHandle::subscribe`]) — register a
//!   typed [`Query`] once and receive a [`ResultDiff`] after every commit
//!   whose dirty terms intersect its term set: each commit intersects the
//!   tick's dirty set with the `stb-subscribe` registry's term index, so
//!   only affected registrations re-evaluate (against the generation just
//!   published — never torn), with per-channel overflow policies
//!   ([`OverflowPolicy`]).
//! * **Durability** ([`IngestPipeline::durable`]) — commits are
//!   write-ahead logged (`stb-store`) before they are applied, and
//!   [`IngestPipeline::checkpoint`] persists atomic snapshots that compact
//!   the log, so a restarted process recovers as `load_snapshot +
//!   replay_wal` — byte-identical to an engine that never stopped —
//!   instead of a full TSV rebuild.
//!
//! Replay-equivalence is property-tested: ingesting a corpus one document
//! at a time and then querying is byte-identical to the batch
//! `CollectionBuilder` + batch-mine + `finalize()` path, for both miners,
//! with the result cache on and off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod live;
pub mod obs;
pub mod pipeline;
pub mod replay;

pub use live::LiveCollection;
pub use obs::{PipelineObs, PipelineObsConfig};
pub use pipeline::{
    Backpressure, DurabilityState, HealthReport, IngestConfig, IngestError, IngestPipeline,
    MinerKind, PatternDelta, PipelineMetrics, QuarantineReason, QuarantinedDoc, RecoveryReport,
    SearchHandle, StageOutcome, TickReceipt,
};
pub use replay::{replay_tsv, replay_tsv_durable, ReplayError};

// Re-exported so live-serving callers can build and inspect typed queries
// without depending on `stb-search` directly.
pub use stb_search::{Query, QueryError, QueryResponse, QueryStats, UnknownWords};

// Re-exported so subscribing callers can configure channels and consume
// diffs without depending on `stb-subscribe` directly.
pub use stb_subscribe::{
    NotifyReport, OverflowPolicy, ResultDiff, SubscribeMetrics, SubscriptionHandle, SubscriptionId,
    SubscriptionInfo, SubscriptionOptions, SubscriptionRegistry, Trigger,
};

// Re-exported so instrumented callers can configure serving-side
// observability and read the exposition surface without depending on
// `stb-search`/`stb-obs` directly.
pub use stb_obs::{ObsRegistry, ObsSnapshot};
pub use stb_search::{SearchObs, SearchObsConfig};

// Re-exported so durable-pipeline callers can configure and match on the
// persistence layer without depending on `stb-store` directly.
pub use stb_store::{Durability, RetryPolicy, SnapshotState, Store, StoreError};
