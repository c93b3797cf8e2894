//! Observability for the ingestion pipeline.
//!
//! [`PipelineObs`] bundles one shared [`ObsRegistry`] with every metric
//! the pipeline records: the serving-side [`SearchObs`] (attached to the
//! engine's read front), the WAL's [`WalObs`] (append/fsync latency,
//! rollback/reset counters), the commit-latency histogram with a sampled
//! per-commit trace ring, durability-state gauges, and the queue-depth
//! gauges refreshed with every health publish. It is attached once via
//! [`crate::IngestPipeline::attach_obs`]; an un-attached pipeline records
//! nothing (its counters still count, they are just not exported).
//!
//! The pipeline's own lifetime counters (documents ingested, WAL appends,
//! recoveries, …) are [`Counter`] cells owned by the pipeline from birth;
//! attaching adopts the *same* cells into the registry, so
//! [`crate::PipelineMetrics`] and [`crate::HealthReport`] remain exact
//! views of what the registry exports — no mirroring, no double counting.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use stb_obs::{
    Counter, Gauge, LatencyHistogram, ObsRegistry, ObsSnapshot, Sampler, SpanClock, TraceId,
    TraceKind, TraceRecord, TraceRing,
};
use stb_search::{SearchObs, SearchObsConfig};
use stb_store::WalObs;

/// Construction parameters for [`PipelineObs`].
#[derive(Debug, Clone)]
pub struct PipelineObsConfig {
    /// Parameters of the serving-side [`SearchObs`] attached to the
    /// engine's front.
    pub search: SearchObsConfig,
    /// Sample one commit trace in this many commits into the commit trace
    /// ring (0 disables commit tracing).
    pub commit_sample_every: u64,
    /// Capacity of the commit trace ring.
    pub commit_trace_capacity: usize,
}

impl Default for PipelineObsConfig {
    fn default() -> Self {
        Self {
            search: SearchObsConfig::default(),
            commit_sample_every: 1,
            commit_trace_capacity: 128,
        }
    }
}

/// Metric handles for the ingestion path, pre-resolved from a shared
/// [`ObsRegistry`] so recording never touches the registry lock.
///
/// Registered metrics (beyond the `search_*` set of [`SearchObs`] and the
/// `wal_*` set of [`WalObs`]):
///
/// | name | kind | meaning |
/// |---|---|---|
/// | `ingest_commits_total` | counter | ticks committed |
/// | `ingest_commit_ns` | histogram | end-to-end commit latency |
/// | `ingest_durability_transitions_total` | counter | durability-state changes |
/// | `ingest_durability_state` | gauge | current state (0 ephemeral, 1 durable, 2 degraded, 3 non-durable) |
/// | `ingest_durability_state_seconds` | gauge | time spent in the current state |
/// | `ingest_staged_docs` / `ingest_dirty_terms` | gauge | open-tick queue depths |
/// | `ingest_buffered_ticks` / `ingest_quarantined_docs` | gauge | degraded buffer / quarantine depth |
///
/// The pipeline's lifetime counters (`ingest_docs_total`,
/// `ingest_docs_shed_total`, `ingest_wal_appends_total`, …) are adopted
/// from the pipeline's own cells at attach time — see
/// [`crate::IngestPipeline::attach_obs`].
#[derive(Debug)]
pub struct PipelineObs {
    registry: Arc<ObsRegistry>,
    search: Arc<SearchObs>,
    wal: WalObs,
    commits: Arc<Counter>,
    commit_ns: Arc<LatencyHistogram>,
    durability_transitions: Arc<Counter>,
    durability_state: Arc<Gauge>,
    durability_state_seconds: Arc<Gauge>,
    staged_docs: Arc<Gauge>,
    dirty_terms: Arc<Gauge>,
    buffered_ticks: Arc<Gauge>,
    quarantined_docs: Arc<Gauge>,
    sampler: Sampler,
    trace_seq: AtomicU64,
    traces: TraceRing,
}

impl PipelineObs {
    /// Creates the full pipeline metric set on a fresh registry.
    pub fn new(config: &PipelineObsConfig) -> Arc<Self> {
        Self::with_registry(Arc::new(ObsRegistry::new()), config)
    }

    /// Creates the pipeline metric set on an existing registry — the way
    /// to serve several instrumented components from one exposition
    /// endpoint.
    pub fn with_registry(registry: Arc<ObsRegistry>, config: &PipelineObsConfig) -> Arc<Self> {
        Arc::new(Self {
            search: SearchObs::new(Arc::clone(&registry), &config.search),
            wal: WalObs::register(&registry),
            commits: registry.counter("ingest_commits_total"),
            commit_ns: registry.histogram("ingest_commit_ns"),
            durability_transitions: registry.counter("ingest_durability_transitions_total"),
            durability_state: registry.gauge("ingest_durability_state"),
            durability_state_seconds: registry.gauge("ingest_durability_state_seconds"),
            staged_docs: registry.gauge("ingest_staged_docs"),
            dirty_terms: registry.gauge("ingest_dirty_terms"),
            buffered_ticks: registry.gauge("ingest_buffered_ticks"),
            quarantined_docs: registry.gauge("ingest_quarantined_docs"),
            sampler: Sampler::every(config.commit_sample_every),
            trace_seq: AtomicU64::new(0),
            traces: TraceRing::new(config.commit_trace_capacity),
            registry,
        })
    }

    /// The registry every metric handle lives in — the exposition surface
    /// ([`ObsRegistry::render_prometheus`], [`ObsRegistry::render_json`]).
    pub fn registry(&self) -> &Arc<ObsRegistry> {
        &self.registry
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> ObsSnapshot {
        self.registry.snapshot()
    }

    /// The serving-side metric set the pipeline attaches to its front.
    pub fn search(&self) -> &Arc<SearchObs> {
        &self.search
    }

    /// The WAL metric set the pipeline attaches to every log writer it
    /// opens.
    pub fn wal(&self) -> &WalObs {
        &self.wal
    }

    /// The end-to-end commit latency histogram (`ingest_commit_ns`).
    pub fn commit_latency(&self) -> &Arc<LatencyHistogram> {
        &self.commit_ns
    }

    /// The sampled commit traces currently retained (stage breakdown of
    /// recent [`crate::IngestPipeline::commit_tick`] calls).
    pub fn commit_traces(&self) -> Vec<TraceRecord> {
        self.traces.snapshot()
    }

    /// Records one completed commit: counter + latency histogram always,
    /// span trace when sampled.
    pub(crate) fn record_commit(&self, clock: SpanClock) {
        let (total_ns, spans) = clock.finish();
        self.commits.inc();
        self.commit_ns.record(total_ns);
        if self.sampler.hit() {
            self.traces.push(TraceRecord {
                id: TraceId(self.trace_seq.fetch_add(1, Relaxed)),
                kind: TraceKind::Commit,
                total_ns,
                spans,
            });
        }
    }

    /// Refreshes the durability gauges; `transition` marks a state change
    /// since the previous refresh.
    pub(crate) fn set_durability(&self, code: f64, seconds_in_state: f64, transition: bool) {
        if transition {
            self.durability_transitions.inc();
        }
        self.durability_state.set(code);
        self.durability_state_seconds.set(seconds_in_state);
    }

    /// Refreshes the queue-depth gauges (published with every health
    /// update).
    pub(crate) fn set_queue_depths(
        &self,
        staged: usize,
        dirty: usize,
        buffered: usize,
        quarantined: usize,
    ) {
        self.staged_docs.set(staged as f64);
        self.dirty_terms.set(dirty as f64);
        self.buffered_ticks.set(buffered as f64);
        self.quarantined_docs.set(quarantined as f64);
    }
}
