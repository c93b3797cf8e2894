//! What the workloads share: the calls into the pipeline (timed, and
//! traced in the traced run), the samples one measured phase collects,
//! and the metric lists every workload reports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stb_ingest::{
    IngestPipeline, PipelineObs, PipelineObsConfig, Query, QueryResponse, SearchHandle, SearchObs,
    SearchObsConfig, StageOutcome, TickReceipt,
};

use crate::gen::Doc;
use crate::host;
use crate::stats::{loglog_slope, ratio, Report, Samples};
use crate::trace::{Layer, Tracer};

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Observability for the traced run: every commit and every query
/// sampled, no slow-query log.
pub fn traced_obs() -> Arc<PipelineObs> {
    PipelineObs::new(&PipelineObsConfig {
        search: SearchObsConfig {
            trace_sample_every: 1,
            trace_capacity: 8,
            slow_query_threshold: Duration::from_secs(3600),
            slow_log_capacity: 1,
        },
        commit_sample_every: 1,
        commit_trace_capacity: 4,
    })
}

/// The end-to-end figures of one measured cycle. A run reports the
/// median of each over its cycles, so a cycle that met a stall of the
/// host moves no figure.
pub struct CycleFigures {
    pub fresh_p50: f64,
    pub fresh_p95: f64,
    pub docs_per_s: f64,
    pub query_p50: f64,
    pub query_p99: f64,
}

/// Samples and counters of one measured cycle (one thread's share, or
/// several threads' merged), or of a whole measured phase: its cycles
/// merged.
#[derive(Default)]
pub struct Phase {
    pub wall_s: f64,
    pub setup_s: Samples,
    pub docs: u64,
    pub fresh_ms: Samples,
    pub query_ms: Samples,
    pub diff_ms: Samples,
    pub queue_wait_ms: Samples,
    pub stage_us: Samples,
    pub dirty_terms: Samples,
    pub patterns_sent: Samples,
    /// `(history docs before the commit, commit ms)`.
    pub growth: Vec<(f64, f64)>,
    pub cache_hits: u64,
    pub evaluated_queries: u64,
    pub postings_scanned: u64,
    pub postings_pruned: u64,
    pub cold_filtered_ms: Samples,
    pub cold_unfiltered_ms: Samples,
    pub checkpoint_ms: Samples,
    pub snapshot_bytes: Samples,
    pub wal_bytes: u64,
    pub wal_docs: u64,
    pub recover_s: Samples,
    pub recover_wal_ticks: Samples,
    pub retries: u64,
    pub evaluations: u64,
    pub notifications: u64,
    pub coalesced: u64,
    pub dropped: u64,
    pub commits: u64,
    pub tracers: Vec<Tracer>,
    /// One entry per merged cycle.
    pub cycles: Vec<CycleFigures>,
    /// Cycles left out because the host stole too much CPU time.
    pub discarded: u64,
    /// Host steal share of each merged cycle.
    pub steal: Samples,
    /// `VmHWM` when the last measured cycle ended, before any check ran.
    pub rss_peak_mb: f64,
}

impl Phase {
    pub fn merge(&mut self, o: Phase) {
        self.docs += o.docs;
        for (a, b) in [
            (&mut self.fresh_ms, &o.fresh_ms),
            (&mut self.query_ms, &o.query_ms),
            (&mut self.diff_ms, &o.diff_ms),
            (&mut self.queue_wait_ms, &o.queue_wait_ms),
            (&mut self.setup_s, &o.setup_s),
            (&mut self.stage_us, &o.stage_us),
            (&mut self.dirty_terms, &o.dirty_terms),
            (&mut self.patterns_sent, &o.patterns_sent),
            (&mut self.cold_filtered_ms, &o.cold_filtered_ms),
            (&mut self.cold_unfiltered_ms, &o.cold_unfiltered_ms),
            (&mut self.checkpoint_ms, &o.checkpoint_ms),
            (&mut self.snapshot_bytes, &o.snapshot_bytes),
            (&mut self.recover_s, &o.recover_s),
            (&mut self.recover_wal_ticks, &o.recover_wal_ticks),
        ] {
            a.extend(b);
        }
        self.growth.extend(o.growth);
        self.cache_hits += o.cache_hits;
        self.evaluated_queries += o.evaluated_queries;
        self.postings_scanned += o.postings_scanned;
        self.postings_pruned += o.postings_pruned;
        self.wal_bytes += o.wal_bytes;
        self.wal_docs += o.wal_docs;
        self.retries += o.retries;
        self.evaluations += o.evaluations;
        self.notifications += o.notifications;
        self.coalesced += o.coalesced;
        self.dropped += o.dropped;
        self.commits += o.commits;
        self.tracers.extend(o.tracers);
    }

    /// Adds one measured cycle: its figures, then its samples.
    fn add_cycle(&mut self, c: Phase, steal: f64) {
        self.cycles.push(CycleFigures {
            fresh_p50: c.fresh_ms.p50(),
            fresh_p95: c.fresh_ms.q(0.95),
            docs_per_s: ratio(c.docs as f64, c.wall_s),
            query_p50: c.query_ms.p50(),
            query_p99: c.query_ms.p99(),
        });
        self.steal.push(steal);
        self.wall_s += c.wall_s;
        self.merge(c);
    }
}

/// A cycle in which the host stole more than this share of the machine's
/// CPU time is set aside. On the 2-core VM the benchmark was built on,
/// cycles past it mostly ran 10–30% slower than the run's median cycle.
const STEAL_LIMIT: f64 = 0.01;

/// Runs cycles `0, 1, …` until `seconds` of measured time have been kept,
/// and returns them merged together with what the last cycle handed back.
/// `one(n)` runs cycle `n` and returns its phase, with `wall_s` its
/// measured time.
///
/// A cycle the host stole more than [`STEAL_LIMIT`] from is set aside and
/// another runs in its place, for at most `1.3 × seconds` of measured time
/// in all. If that is spent first, the least-stolen cycles set aside make
/// up the rest: a run on a busy host still reports, and prints how much
/// was stolen. `VmHWM` is read as soon as the last cycle ends.
pub fn measure<T>(seconds: f64, mut one: impl FnMut(u64) -> (Phase, T)) -> (Phase, T) {
    let mut clean: Vec<(Phase, f64)> = Vec::new();
    let mut stolen: Vec<(Phase, f64)> = Vec::new();
    let (mut kept_s, mut spent) = (0.0, 0.0);
    let mut n = 0;
    let last = loop {
        let before = host::cpu_times();
        let (c, last) = one(n);
        let steal = host::steal_share(before, host::cpu_times());
        println!(
            "  cycle {n}: fresh p50 {:.3} ms, {:.1} docs/s, query p50 {:.4} ms, steal {:.2}%",
            c.fresh_ms.p50(),
            ratio(c.docs as f64, c.wall_s),
            c.query_ms.p50(),
            100.0 * steal
        );
        spent += c.wall_s;
        if steal > STEAL_LIMIT {
            stolen.push((c, steal));
        } else {
            kept_s += c.wall_s;
            clean.push((c, steal));
        }
        n += 1;
        if kept_s >= seconds || spent >= 1.3 * seconds {
            break last;
        }
    };
    let mut ph = Phase {
        rss_peak_mb: rss_peak_mb(),
        ..Phase::default()
    };
    stolen.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (c, steal) in clean.into_iter().chain(stolen) {
        if ph.wall_s < seconds {
            ph.add_cycle(c, steal);
        } else {
            ph.discarded += 1;
        }
    }
    (ph, last)
}

/// Query-side state of one thread: its handle, and in the traced run the
/// tracer plus the id the next query trace will carry.
pub struct Querier {
    pub handle: SearchHandle,
    pub obs: Option<Arc<SearchObs>>,
    pub tracer: Option<Tracer>,
    /// The `TraceId` of this thread's next query trace. Valid because each
    /// workload issues queries from one thread only (the notify pass runs
    /// on that same thread, inside `commit_tick`).
    pub next_trace: u64,
}

impl Querier {
    pub fn new(
        handle: SearchHandle,
        obs: Option<Arc<SearchObs>>,
        origin: Instant,
        thread: &'static str,
    ) -> Self {
        let tracer = obs.as_ref().map(|_| Tracer::new(thread, origin));
        Self {
            handle,
            obs,
            tracer,
            next_trace: 0,
        }
    }

    /// Runs one query and times it.
    pub fn query(
        &mut self,
        ph: &mut Phase,
        report: &mut Report,
        q: &Query,
    ) -> Option<QueryResponse> {
        let start = Instant::now();
        let result = self.handle.query(q);
        let end = Instant::now();
        ph.query_ms.push(ms(end - start));
        report.ops(1, u64::from(result.is_err()));
        let response = result.ok()?;
        if let (Some(obs), Some(tracer)) = (&self.obs, self.tracer.as_mut()) {
            let span = tracer.root("query", Layer::SearchRead, start, end);
            tracer.nest(span, &obs.traces(), self.next_trace);
            self.next_trace += 1;
        }
        let stats = response.stats;
        if stats.cache_hit {
            ph.cache_hits += 1;
        } else {
            ph.evaluated_queries += 1;
            ph.postings_scanned += stats.postings_scanned as u64;
            ph.postings_pruned += stats.candidates_pruned as u64;
            let cold = if stats.filtered {
                &mut ph.cold_filtered_ms
            } else {
                &mut ph.cold_unfiltered_ms
            };
            cold.push(ms(end - start));
        }
        Some(response)
    }
}

/// The writer side: the pipeline, its query handle, and in the traced run
/// the commit-trace bookkeeping.
pub struct Writer {
    pub pipeline: IngestPipeline,
    pub q: Querier,
    pub obs: Option<Arc<PipelineObs>>,
    next_commit_trace: u64,
    /// Registry counters at attach time: set-up (e.g. the subscriptions'
    /// initial diffs) is not part of the measured phase.
    base: [u64; 5],
}

/// The registry counters the traced phase reports, by metric name.
const COUNTERS: [&str; 5] = [
    "ingest_store_retries_total",
    "subscribe_evaluations_total",
    "subscribe_notifications_total",
    "subscribe_coalesced_total",
    "subscribe_dropped_total",
];

fn counters(obs: &PipelineObs) -> [u64; 5] {
    let snap = obs.snapshot();
    COUNTERS.map(|name| snap.counter(name).unwrap_or(0))
}

impl Writer {
    /// Wraps a ready pipeline; attaches `obs` for the traced run.
    pub fn new(
        mut pipeline: IngestPipeline,
        obs: Option<Arc<PipelineObs>>,
        origin: Instant,
    ) -> Self {
        if let Some(o) = &obs {
            pipeline.attach_obs(o);
        }
        let q = Querier::new(
            pipeline.search_handle(),
            obs.as_ref().map(|o| Arc::clone(o.search())),
            origin,
            "writer",
        );
        let base = obs.as_deref().map_or([0; 5], counters);
        Self {
            pipeline,
            q,
            obs,
            next_commit_trace: 0,
            base,
        }
    }

    /// Stages `docs`, commits them as one tick and waits until the
    /// handle serves the new generation. Freshness counts from `begun`,
    /// when the caller began the tick, just before staging its first
    /// document.
    pub fn tick(
        &mut self,
        ph: &mut Phase,
        report: &mut Report,
        docs: &[Doc],
        begun: Instant,
        durable: bool,
    ) -> TickReceipt {
        let generation = self.q.handle.generation();
        let history = self.pipeline.collection().documents().len() as f64;
        let mut quarantined = 0;
        for (stream, counts) in docs {
            let start = Instant::now();
            let outcome = self.pipeline.try_stage_document(*stream, counts.clone());
            let end = Instant::now();
            ph.stage_us.push((end - start).as_secs_f64() * 1e6);
            if !matches!(outcome, Ok(StageOutcome::Staged)) {
                quarantined += 1;
            }
            if let Some(t) = self.q.tracer.as_mut() {
                t.root("stage_document", Layer::Ingest, start, end);
            }
        }
        report.ops(docs.len() as u64, quarantined);
        let evaluations = self
            .obs
            .is_some()
            .then(|| self.pipeline.subscriptions().metrics().evaluations);
        let start = Instant::now();
        let receipt = self.pipeline.commit_tick();
        let end = Instant::now();
        while self.q.handle.generation() <= generation {
            std::hint::spin_loop();
        }
        let visible = Instant::now();
        ph.fresh_ms.push(ms(visible - begun));
        ph.commits += 1;
        ph.docs += receipt.new_docs.len() as u64;
        ph.dirty_terms.push(receipt.deltas.len() as f64);
        ph.patterns_sent
            .push(receipt.deltas.iter().map(|d| d.n_patterns()).sum::<usize>() as f64);
        ph.growth.push((history, ms(end - start)));
        if durable {
            report.ops(1, u64::from(!receipt.durability.is_durable()));
        }
        if let (Some(obs), Some(tracer)) = (&self.obs, self.q.tracer.as_mut()) {
            let span = tracer.root("commit_tick", Layer::Ingest, start, end);
            tracer.nest(span, &obs.commit_traces(), self.next_commit_trace);
            self.next_commit_trace += 1;
            // The notify pass evaluates standing queries through the same
            // traced front, one query trace per evaluation.
            self.q.next_trace +=
                self.pipeline.subscriptions().metrics().evaluations - evaluations.unwrap_or(0);
        }
        receipt
    }

    /// Ends the phase: moves the tracer and the registry counters into `ph`.
    pub fn finish(mut self, ph: &mut Phase) -> IngestPipeline {
        if let Some(obs) = &self.obs {
            let now = counters(obs);
            let c = |i: usize| now[i] - self.base[i];
            ph.retries += c(0);
            ph.evaluations += c(1);
            ph.notifications += c(2);
            ph.coalesced += c(3);
            ph.dropped += c(4);
        }
        if let Some(t) = self.q.tracer.take() {
            ph.tracers.push(t);
        }
        self.pipeline
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics, from the untraced phase: each the median of
/// its per-cycle values (sample counts are the pooled samples behind
/// them), `setup_s` the median of every set-up.
pub fn end_to_end(report: &mut Report, ph: &Phase) {
    let over_cycles =
        |f: fn(&CycleFigures) -> f64| Samples(ph.cycles.iter().map(f).collect()).median();
    report.add("setup_s", ph.setup_s.median(), "s", ph.setup_s.len());
    // A cycle commits 100 to 150 ticks: p95 is the highest percentile
    // with several of them beyond it.
    report.add(
        "fresh_ms.p50",
        over_cycles(|c| c.fresh_p50),
        "ms",
        ph.fresh_ms.len(),
    );
    report.add(
        "fresh_ms.p95",
        over_cycles(|c| c.fresh_p95),
        "ms",
        ph.fresh_ms.len(),
    );
    report.add(
        "ingest_docs_per_s",
        over_cycles(|c| c.docs_per_s),
        "docs/s",
        ph.docs as usize,
    );
    report.add(
        "query_ms.p50",
        over_cycles(|c| c.query_p50),
        "ms",
        ph.query_ms.len(),
    );
    report.add(
        "query_ms.p99",
        over_cycles(|c| c.query_p99),
        "ms",
        ph.query_ms.len(),
    );
    report.add("rss_peak_mb", ph.rss_peak_mb, "MB", 1);
}

/// End-to-end figures that apply to `push_durable` only: printed on every
/// run and reported with the per-layer metrics, outside the bounded
/// end-to-end set every workload must report.
pub fn workload_specific(report: &mut Report, ph: &Phase) {
    report.add_p50_p99("subscribe.diff_ms", &ph.diff_ms, "ms");
    report.add(
        "store.recover_s",
        ph.recover_s.p50(),
        "s",
        ph.recover_s.len(),
    );
}

/// The per-layer metrics, from the traced phase `ph`; `overhead_pct`
/// compares it with the untraced phase.
pub fn per_layer(report: &mut Report, ph: &Phase, overhead_pct: f64) {
    let spans = |name: &str, scale: f64| {
        let mut s = Samples::default();
        for t in &ph.tracers {
            s.extend(&t.durations(name, scale));
        }
        s
    };
    let apply = spans("apply-docs", 1e6);
    let mine = spans("mine", 1e6);
    let publish = spans("publish", 1e6);
    let wal = spans("wal-append", 1e6);
    let notify = spans("notify", 1e6);
    let commit = spans("commit_tick", 1e6);
    let stage_names = ["plan", "cache-lookup", "shard-gather", "ta-scan", "respond"];
    let stages: Vec<Samples> = stage_names.iter().map(|n| spans(n, 1e3)).collect();
    let mut unattributed = Samples::default();
    for t in &ph.tracers {
        unattributed.extend(&t.self_times("commit_tick", 1e6));
    }

    report.add(
        "ingest.stage_us.p50",
        ph.stage_us.p50(),
        "us",
        ph.stage_us.len(),
    );
    report.add_p50_p99("ingest.apply_docs_ms", &apply, "ms");
    report.add(
        "ingest.commit_unattributed_ms.p50",
        unattributed.p50(),
        "ms",
        unattributed.len(),
    );
    report.add(
        "ingest.commit_attributed_pct",
        100.0 * (1.0 - ratio(unattributed.sum(), commit.sum())),
        "%",
        commit.len(),
    );
    report.add(
        "ingest.commit_growth_exp",
        loglog_slope(&ph.growth),
        "slope",
        ph.growth.len(),
    );
    report.add_p50_p99("core.mine_ms", &mine, "ms");
    report.add(
        "core.dirty_terms_per_tick",
        ph.dirty_terms.mean(),
        "count",
        ph.dirty_terms.len(),
    );
    report.add(
        "core.patterns_sent_per_tick",
        ph.patterns_sent.mean(),
        "count",
        ph.patterns_sent.len(),
    );
    report.add_p50_p99("search.publish_ms", &publish, "ms");
    for (name, s) in stage_names.iter().zip(&stages) {
        report.add_p50_p99(&format!("search.{}_us", name.replace('-', "_")), s, "us");
    }
    let queries = ph.cache_hits + ph.evaluated_queries;
    report.add(
        "search.cache_hit_ratio",
        ratio(ph.cache_hits as f64, queries as f64),
        "ratio",
        queries as usize,
    );
    report.add(
        "search.ta_prune_ratio",
        ratio(
            ph.postings_pruned as f64,
            (ph.postings_scanned + ph.postings_pruned) as f64,
        ),
        "ratio",
        ph.evaluated_queries as usize,
    );
    report.add(
        "search.postings_scanned_per_query",
        ratio(ph.postings_scanned as f64, ph.evaluated_queries as f64),
        "count",
        ph.evaluated_queries as usize,
    );
    report.add(
        "search.cold_filtered_ms.p50",
        ph.cold_filtered_ms.p50(),
        "ms",
        ph.cold_filtered_ms.len(),
    );
    report.add(
        "search.cold_unfiltered_ms.p50",
        ph.cold_unfiltered_ms.p50(),
        "ms",
        ph.cold_unfiltered_ms.len(),
    );
    report.add_p50_p99("store.wal_append_ms", &wal, "ms");
    report.add_p50_p99("store.checkpoint_ms", &ph.checkpoint_ms, "ms");
    report.add(
        "store.wal_bytes_per_doc",
        ratio(ph.wal_bytes as f64, ph.wal_docs as f64),
        "B/doc",
        ph.wal_docs as usize,
    );
    report.add(
        "store.snapshot_bytes",
        ph.snapshot_bytes.p50(),
        "B",
        ph.snapshot_bytes.len(),
    );
    report.add(
        "store.recover_wal_ticks",
        ph.recover_wal_ticks.p50(),
        "count",
        ph.recover_wal_ticks.len(),
    );
    report.add("store.retries", ph.retries as f64, "count", 1);
    report.add_p50_p99("subscribe.notify_ms", &notify, "ms");
    report.add(
        "subscribe.evaluated_per_commit",
        ratio(ph.evaluations as f64, ph.commits as f64),
        "count",
        ph.commits as usize,
    );
    report.add(
        "subscribe.useful_ratio",
        ratio(ph.notifications as f64, ph.evaluations as f64),
        "ratio",
        ph.evaluations as usize,
    );
    report.add(
        "subscribe.queue_wait_ms.p99",
        ph.queue_wait_ms.p99(),
        "ms",
        ph.queue_wait_ms.len(),
    );
    report.add("subscribe.coalesced", ph.coalesced as f64, "count", 1);
    report.add("subscribe.dropped", ph.dropped as f64, "count", 1);
    workload_specific(report, ph);
    report.add("obs.trace_overhead_pct", overhead_pct, "%", 1);
    let missing: u64 = ph.tracers.iter().map(|t| t.missing).sum();
    report.add("obs.traces_dropped", missing as f64, "count", 1);
    let mut self_ns = [0u64; 6];
    for t in &ph.tracers {
        for (acc, v) in self_ns.iter_mut().zip(t.layer_self_ns()) {
            *acc += v;
        }
    }
    let total: u64 = self_ns.iter().sum();
    for (layer, ns) in Layer::ALL.iter().zip(self_ns) {
        report.add(
            &format!("layer.{}.self_pct", layer.name()),
            100.0 * ratio(ns as f64, total as f64),
            "%",
            1,
        );
    }
}

/// The layer with the largest self time in the traced phase.
pub fn dominant_layer(ph: &Phase) -> &'static str {
    let mut self_ns = [0u64; 6];
    for t in &ph.tracers {
        for (acc, v) in self_ns.iter_mut().zip(t.layer_self_ns()) {
            *acc += v;
        }
    }
    let best = (0..6).max_by_key(|&i| self_ns[i]).unwrap_or(0);
    Layer::ALL[best].name()
}

fn print_cycles(what: &str, ph: &Phase) {
    println!(
        "  {what}: {} cycles kept, {} left out for host steal; steal per kept cycle median {:.2}% max {:.2}%",
        ph.cycles.len(),
        ph.discarded,
        100.0 * ph.steal.median(),
        100.0 * ph.steal.q(1.0)
    );
}

/// Assembles a run's output: the end-to-end metrics of the untraced phase
/// (`--trace 0`), or the per-layer metrics of the traced phase with the
/// untraced end-to-end metrics listed beside them (`--trace 1`). Returns
/// the reported metrics, the metrics only listed, and the spans.
pub fn finish(
    mut report: Report,
    untraced: &Phase,
    traced: Option<&Phase>,
) -> (Report, Report, Option<String>) {
    let mut listed = Report::default();
    print_cycles("untraced", untraced);
    let Some(traced) = traced else {
        end_to_end(&mut report, untraced);
        workload_specific(&mut listed, untraced);
        return (report, listed, None);
    };
    print_cycles("traced", traced);
    end_to_end(&mut listed, untraced);
    workload_specific(&mut listed, untraced);
    let overhead = 100.0 * (ratio(traced.fresh_ms.p50(), untraced.fresh_ms.p50()) - 1.0);
    per_layer(&mut report, traced, overhead);
    println!("  dominant layer by self time: {}", dominant_layer(traced));
    let mut spans = String::new();
    for t in &traced.tracers {
        t.write_jsonl(&mut spans);
    }
    (report, listed, Some(spans))
}
