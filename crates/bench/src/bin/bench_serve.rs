//! Serving-tier harness: what the generation-publishing read front buys
//! under concurrent ingest.
//!
//! One mining pass precomputes a stream of tick receipts (snapshot +
//! pattern deltas); both arms then replay the *identical* publication work
//! while readers hammer the respective read path, so the measured window
//! contains exactly the thing the two designs disagree about — how state
//! is published to readers:
//!
//! * **rwlock baseline** — the pre-front serving design, reconstructed:
//!   one `BurstySearchEngine` behind an `Arc<RwLock<_>>`, every receipt
//!   applied under the write lock, a single reader thread querying through
//!   the read lock (Rust's `RwLock` is write-preferring, so commits stall
//!   the reader exactly as the old `SearchHandle` did).
//! * **front** — a [`BurstySearchEngine`] publishing generational
//!   snapshots to N reader threads through its
//!   [`stb_search::ServingFront`]; a reader holds the front's read lock
//!   only to clone the current generation's `Arc`, never while the writer
//!   re-scores.
//!
//! Reported: aggregate reader throughput under ingest for both arms (the
//! speedup is the headline), plus the front arm's read-latency p99 idle
//! vs under-ingest — the "ingest must not wreck tail latency" guarantee CI
//! enforces in quick mode. Full mode (`--full`) runs 32 readers and
//! additionally asserts the >= 8x aggregate-throughput gate — on a
//! multi-core host; on a single hardware thread both arms are
//! scheduler-bound (the fair scheduler hands the baseline's reader its
//! timeslice whether or not a write lock would have blocked it), so the
//! ratio is reported but the gate is skipped. Results land in a table plus
//! `BENCH_serve.json` (with the core count, so numbers are interpretable).
//!
//! The workload deliberately exercises the old design's worst case:
//! tf-idf relevance over a wide pre-populated vocabulary. Under tf-idf
//! every arriving document stales every posting list, so each commit
//! re-scores the whole index — all of it under the baseline's write lock,
//! none of it blocking the front's readers. The live ticks burst a
//! handful of hot terms, keeping the dirty sets (and the mining, which
//! happens outside the measured window anyway) small.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stb_bench::{measure_ms, ExperimentCtx, TableWriter};
use stb_corpus::{Collection, StreamId, TermId};
use stb_geo::{GeoPoint, Rect};
use stb_ingest::{IngestConfig, IngestPipeline, MinerKind, PatternDelta, TickReceipt};
use stb_obs::{HistogramSnapshot, LatencyHistogram};
use stb_search::{BurstySearchEngine, EngineConfig, Query, Relevance};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use stb_core::STLocalConfig;

/// One tick's documents: (stream, term bag).
type TickDocs = Vec<(StreamId, HashMap<TermId, u32>)>;

/// Everything an arm needs to replay one committed tick: the snapshot the
/// pipeline published and the receipt describing what changed.
struct ReplayTick {
    collection: Arc<Collection>,
    receipt: TickReceipt,
}

struct Workload {
    n_streams: usize,
    vocab: usize,
    populate_ticks: usize,
    live_ticks: usize,
    engine: EngineConfig,
    queries: Vec<Query>,
    n_readers: usize,
    /// Idle-phase latency samples per reader.
    idle_samples: usize,
}

/// Terms the live phase bursts (and the serving mix queries). Everything
/// above this range is populate-phase background vocabulary.
const HOT_TERMS: u32 = 8;

fn build_workload(ctx: &ExperimentCtx) -> (Workload, Vec<TickDocs>) {
    let (n_streams, vocab, populate_ticks, live_ticks, n_readers, idle_samples) = if ctx.full {
        (16, 1500, 50, 150, 32, 400)
    } else {
        (8, 400, 25, 50, 4, 200)
    };
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut ticks = Vec::with_capacity(populate_ticks + live_ticks);
    // Populate phase: broad background traffic over the whole vocabulary,
    // building up the posting lists every tf-idf commit must re-score.
    let populate_docs = if ctx.full { 40 } else { 20 };
    for _ in 0..populate_ticks {
        let mut docs: TickDocs = Vec::with_capacity(populate_docs);
        for _ in 0..populate_docs {
            let stream = StreamId(rng.gen_range(0..n_streams as u32));
            let mut counts = HashMap::new();
            for _ in 0..3 {
                let term = TermId(rng.gen_range(HOT_TERMS..vocab as u32));
                *counts.entry(term).or_insert(0) += rng.gen_range(1..4u32);
            }
            docs.push((stream, counts));
        }
        ticks.push(docs);
    }
    // Live phase: a rotating burst over the hot terms only, so the dirty
    // set stays small while publication still touches every posting list.
    let live_docs = if ctx.full { 10 } else { 8 };
    for t in 0..live_ticks {
        let hot = TermId((t % 4) as u32);
        let mut docs: TickDocs = Vec::with_capacity(live_docs);
        for _ in 0..live_docs {
            let stream = StreamId(rng.gen_range(0..n_streams as u32));
            let mut counts = HashMap::new();
            let quiet = TermId(rng.gen_range(4..HOT_TERMS));
            counts.insert(quiet, 1);
            if stream.index() < n_streams / 2 {
                *counts.entry(hot).or_insert(0) += rng.gen_range(10..25u32);
            }
            docs.push((stream, counts));
        }
        ticks.push(docs);
    }
    // A serving mix over the hot terms: under tf-idf every commit
    // invalidates all of these, so under-ingest reads do real posting-scan
    // work instead of coasting on the result cache. Multi-term queries
    // exercise the scatter-gather path, the filtered ones the cold path.
    let horizon = populate_ticks + live_ticks;
    let queries = vec![
        Query::terms([TermId(0)]).top_k(10),
        Query::terms([TermId(1), TermId(2)]).top_k(10),
        Query::terms([TermId(5)]).top_k(10),
        Query::terms([TermId(0), TermId(6), TermId(7)]).top_k(5),
        Query::terms([TermId(3)]).top_k(10).time_window(0..=horizon),
        Query::terms([TermId(2)])
            .top_k(10)
            .region(Rect::new(-1.0, -1.0, 4.0, 4.0)),
    ];
    let workload = Workload {
        n_streams,
        vocab,
        populate_ticks,
        live_ticks,
        engine: EngineConfig::builder().relevance(Relevance::TfIdf).build(),
        queries,
        n_readers,
        idle_samples,
    };
    (workload, ticks)
}

fn stream_geo(i: usize, n: usize) -> GeoPoint {
    if i < n / 2 {
        GeoPoint::new(i as f64 * 0.3, i as f64 * 0.2)
    } else {
        GeoPoint::new(60.0 + i as f64 * 0.3, 60.0)
    }
}

/// Runs the mining pass once: drives the full tick plan through a live
/// pipeline and captures, per tick, the published snapshot + receipt both
/// arms will replay. Returns the pre-stream initial collection the replay
/// engines must start from, plus the captured ticks.
fn mine_receipts(w: &Workload, plan: &[TickDocs]) -> (Arc<Collection>, Vec<ReplayTick>) {
    let mut pipeline = IngestPipeline::new(IngestConfig {
        timeline_capacity: plan.len(),
        miner: MinerKind::STLocal(STLocalConfig::default()),
        engine: w.engine,
        cache_capacity: 0,
        ..IngestConfig::default()
    });
    let initial = pipeline.collection();
    for s in 0..w.n_streams {
        pipeline.add_stream(&format!("s{s}"), stream_geo(s, w.n_streams));
    }
    for i in 0..w.vocab {
        pipeline.intern(&format!("term{i}"));
    }
    let ticks = plan
        .iter()
        .map(|tick| {
            for (stream, counts) in tick {
                pipeline.stage_document(*stream, counts.clone());
            }
            let receipt = pipeline.commit_tick();
            ReplayTick {
                collection: pipeline.collection(),
                receipt,
            }
        })
        .collect();
    (initial, ticks)
}

/// A histogram quantile in microseconds (recorded in nanoseconds).
fn quantile_us(h: &HistogramSnapshot, q: f64) -> f64 {
    assert!(h.count() > 0, "latency phase recorded no samples");
    h.quantile(q) as f64 / 1000.0
}

/// Applies one replayed tick to a plain engine: snapshot swap, per-term
/// deltas, and — under tf-idf — a refresh of every posting list. This is
/// exactly the old pipeline's under-write-lock publish section.
fn apply_tick(engine: &mut BurstySearchEngine, tick: &ReplayTick) {
    engine.update_collection(Arc::clone(&tick.collection), &tick.receipt.new_docs);
    for delta in &tick.receipt.deltas {
        match delta {
            PatternDelta::Regional { term, patterns } => engine.set_patterns(*term, patterns),
            PatternDelta::Combinatorial { term, patterns } => engine.set_patterns(*term, patterns),
        }
    }
    if engine.config().relevance == Relevance::TfIdf && !tick.receipt.new_docs.is_empty() {
        for term in tick.collection.terms() {
            engine.refresh_term(term);
        }
    }
}

/// Same publication work, ending in one generation publish to the front.
fn apply_tick_published(engine: &mut BurstySearchEngine, tick: &ReplayTick) {
    apply_tick(engine, tick);
    engine.publish();
}

/// The pre-front design: every receipt applied to a shared engine under
/// a write lock, one reader querying through the read lock. Returns
/// (aggregate queries/s under ingest, ingest wall ms).
fn rwlock_arm(
    w: &Workload,
    initial: &Arc<Collection>,
    populate: &[ReplayTick],
    live: &[ReplayTick],
) -> (f64, f64) {
    let mut engine = BurstySearchEngine::new(Arc::clone(initial), w.engine);
    engine.set_cache_capacity(1024);
    engine.finalize_with_threads(1);
    for tick in populate {
        apply_tick(&mut engine, tick);
    }
    let shared = Arc::new(RwLock::new(engine));

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let engine = Arc::clone(&shared);
        let queries = &w.queries;
        let done_ref = &done;
        let reader = scope.spawn(move || {
            let mut served = 0u64;
            let mut i = 0usize;
            loop {
                let finished = done_ref.load(Ordering::Relaxed);
                let _ = engine.read().unwrap().query(&queries[i % queries.len()]);
                served += 1;
                i += 1;
                if finished {
                    return served;
                }
            }
        });
        let ((), ingest_ms) = measure_ms(|| {
            for tick in live {
                apply_tick(&mut shared.write().unwrap(), tick);
            }
        });
        done.store(true, Ordering::Relaxed);
        let served = reader.join().expect("rwlock reader");
        (served as f64 / (ingest_ms / 1000.0), ingest_ms)
    })
}

/// The generation-publishing front. Returns (aggregate queries/s under
/// ingest, ingest wall ms, idle latency histogram, under-ingest latency
/// histogram). Each reader records into its own `stb-obs` log-linear
/// latency histogram (nanoseconds); the per-reader snapshots are merged —
/// the same mergeable-readout path the serving tier exports.
fn front_arm(
    w: &Workload,
    initial: &Arc<Collection>,
    populate: &[ReplayTick],
    live: &[ReplayTick],
) -> (f64, f64, HistogramSnapshot, HistogramSnapshot) {
    let mut engine = BurstySearchEngine::new(Arc::clone(initial), w.engine);
    engine.set_cache_capacity(1024);
    engine.finalize_with_threads(1);
    engine.publish();
    for tick in populate {
        apply_tick_published(&mut engine, tick);
    }
    let front = engine.front();

    // Idle phase: tail latency with no ingest running.
    let idle = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..w.n_readers)
            .map(|r| {
                let front = Arc::clone(&front);
                let queries = &w.queries;
                scope.spawn(move || {
                    let lat = LatencyHistogram::new();
                    for i in 0..w.idle_samples {
                        let q = &queries[(i + r) % queries.len()];
                        let start = Instant::now();
                        let _ = front.query(q);
                        lat.record_duration(start.elapsed());
                    }
                    lat.snapshot()
                })
            })
            .collect();
        let mut merged = HistogramSnapshot::empty();
        for r in readers {
            merged.merge(&r.join().expect("idle reader"));
        }
        merged
    });

    // Live phase: N readers hammer the front while the writer publishes.
    let done = AtomicBool::new(false);
    let (served, under, ingest_ms) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..w.n_readers)
            .map(|r| {
                let front = Arc::clone(&front);
                let queries = &w.queries;
                let done_ref = &done;
                scope.spawn(move || {
                    let mut served = 0u64;
                    let lat = LatencyHistogram::new();
                    let mut i = r;
                    loop {
                        let finished = done_ref.load(Ordering::Relaxed);
                        let q = &queries[i % queries.len()];
                        let start = Instant::now();
                        let _ = front.query(q);
                        lat.record_duration(start.elapsed());
                        served += 1;
                        i += 1;
                        if finished {
                            return (served, lat.snapshot());
                        }
                    }
                })
            })
            .collect();
        let ((), ingest_ms) = measure_ms(|| {
            for tick in live {
                apply_tick_published(&mut engine, tick);
            }
        });
        done.store(true, Ordering::Relaxed);
        let mut served = 0u64;
        let mut under = HistogramSnapshot::empty();
        for reader in readers {
            let (s, lat) = reader.join().expect("front reader");
            served += s;
            under.merge(&lat);
        }
        (served, under, ingest_ms)
    });
    let qps = served as f64 / (ingest_ms / 1000.0);
    (qps, ingest_ms, idle, under)
}

fn main() {
    let ctx = ExperimentCtx::from_args();
    let (w, plan) = build_workload(&ctx);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "serving-tier harness (mode: {}, seed {}, {} cores): {} streams, \
         {} + {} ticks, vocab {}, {} readers (front arm)",
        if ctx.full { "full" } else { "quick" },
        ctx.seed,
        cores,
        w.n_streams,
        w.populate_ticks,
        w.live_ticks,
        w.vocab,
        w.n_readers,
    );

    let (initial, ticks) = mine_receipts(&w, &plan);
    let populate = &ticks[..w.populate_ticks];
    let live = &ticks[w.populate_ticks..];

    let (rwlock_qps, rwlock_ingest_ms) = rwlock_arm(&w, &initial, populate, live);
    let (front_qps, front_ingest_ms, idle, under) = front_arm(&w, &initial, populate, live);
    let speedup = front_qps / rwlock_qps.max(1e-9);
    let (idle_p50, idle_p99) = (quantile_us(&idle, 0.50), quantile_us(&idle, 0.99));
    let (ingest_p50, ingest_p99) = (quantile_us(&under, 0.50), quantile_us(&under, 0.99));
    let p99_ratio = ingest_p99 / idle_p99.max(1e-9);

    // The >= 8x throughput gate needs real reader parallelism (full mode,
    // multi-core); when it cannot arm, say so explicitly — a sub-1x
    // "speedup" on a single hardware thread is scheduler fairness, not a
    // regression — and record the verdict in the JSON for the harness.
    let gate = if !ctx.full {
        "skipped (quick)"
    } else if cores <= 1 {
        "skipped (1 core)"
    } else {
        "enforced"
    };

    let mut table = TableWriter::new("serving under concurrent ingest");
    table.header(["arm", "readers", "queries/s", "ingest ms"]);
    table.row([
        "rwlock baseline".to_string(),
        "1".to_string(),
        format!("{rwlock_qps:.0}"),
        format!("{rwlock_ingest_ms:.1}"),
    ]);
    table.row([
        format!("front ({:.1}x)", speedup),
        w.n_readers.to_string(),
        format!("{front_qps:.0}"),
        format!("{front_ingest_ms:.1}"),
    ]);
    println!("{}", table.render());
    println!(
        "front read latency (histogram): idle p50 {idle_p50:.0} / p99 {idle_p99:.0} us, \
         under ingest p50 {ingest_p50:.0} / p99 {ingest_p99:.0} us ({p99_ratio:.2}x)"
    );
    match gate {
        "skipped (quick)" => println!(
            "throughput gate: skipped (quick mode) — the >= 8x gate only arms with \
             --full's 32 readers (measured {speedup:.1}x)"
        ),
        "skipped (1 core)" => println!(
            "throughput gate: skipped (1 core) — on a single hardware thread the fair \
             scheduler caps both arms near their CPU share, so the measured {speedup:.1}x \
             says nothing about the front"
        ),
        _ => println!("throughput gate: enforced (>= 8x, measured {speedup:.1}x)"),
    }

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n  \
         \"cores\": {},\n  \"readers\": {},\n  \
         \"workload\": {{\"streams\": {}, \"populate_ticks\": {}, \"live_ticks\": {}, \
         \"vocab\": {}}},\n  \
         \"rwlock_qps\": {:.1},\n  \"front_qps\": {:.1},\n  \"speedup\": {:.2},\n  \
         \"gate\": \"{}\",\n  \
         \"idle_p50_us\": {:.1},\n  \"idle_p99_us\": {:.1},\n  \
         \"ingest_p50_us\": {:.1},\n  \"ingest_p99_us\": {:.1},\n  \"p99_ratio\": {:.3}\n}}\n",
        if ctx.full { "full" } else { "quick" },
        ctx.seed,
        cores,
        w.n_readers,
        w.n_streams,
        w.populate_ticks,
        w.live_ticks,
        w.vocab,
        rwlock_qps,
        front_qps,
        speedup,
        gate,
        idle_p50,
        idle_p99,
        ingest_p50,
        ingest_p99,
        p99_ratio,
    );
    let path = "BENCH_serve.json";
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");

    // Tail-latency gate (both modes): ingest must not wreck read p99. The
    // absolute floor absorbs scheduler noise on small CI machines, where an
    // idle p99 of a few microseconds makes the ratio meaningless.
    let p99_floor_us = 5_000.0;
    assert!(
        ingest_p99 <= (3.0 * idle_p99).max(p99_floor_us),
        "read p99 under ingest must stay within 3x of idle p99 \
         (idle {idle_p99:.0} us, under ingest {ingest_p99:.0} us)"
    );
    // Throughput gate (full mode, 32 readers): the front must
    // beat the single-reader RwLock baseline by >= 8x aggregate. The gate
    // needs real reader parallelism — on a single hardware thread the fair
    // scheduler hands the baseline's reader its timeslice whether or not
    // the write lock would have blocked it, capping the ratio near the
    // reader CPU-share ratio (~2x) for both designs — so it only arms on
    // multi-core hosts (the `gate` field above says which case this run
    // was).
    if gate == "enforced" {
        assert!(
            speedup >= 8.0,
            "front serving must yield >= 8x the RwLock baseline's aggregate \
             throughput (got {speedup:.1}x)"
        );
    }
}
