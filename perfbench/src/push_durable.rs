//! `push_durable`: the durable, subscribed pipeline.
//!
//! A durable pipeline (`Durability::Buffered`) mines with `STComb`. Set-up
//! commits history through the write-ahead log, checkpoints it, and
//! registers `SUBSCRIPTIONS` standing queries of which `MATCHING` (1%)
//! name a term the live ticks dirty; the rest name terms only the history
//! holds. Then a closed-loop writer commits ticks, calls `checkpoint()`
//! itself every `CHECKPOINT_EVERY` ticks, and reads its own writes with
//! `READS_PER_TICK` window ∧ region filtered two-term queries on live
//! terms, while a second thread consumes the result diffs. Only here do
//! `stb-store` and `stb-subscribe` do the work, and only here does the
//! `STComb` / interval-clique path run.
//!
//! Like `hot_history`, the run is a series of cycles, each a fresh store
//! taken through the same `CYCLE_TICKS` ticks, until `--seconds` of
//! measured time have been kept (see `phase::measure`). After the last
//! cycle its pipeline is dropped and reopened from its directory.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stb_core::STCombConfig;
use stb_corpus::{StreamId, TermId};
use stb_ingest::{
    Durability, IngestConfig, IngestPipeline, MinerKind, PipelineObs, Query, SubscriptionHandle,
    SubscriptionOptions,
};
use stb_search::SearchResult;

use crate::check;
use crate::gen::{self, Doc, Rng, Zipf};
use crate::phase::{finish, measure, ms, traced_obs, Phase, Writer};
use crate::stats::Report;
use crate::trace::{Layer, Tracer};
use crate::Args;

const STREAMS: usize = 8;
const VOCAB: usize = 3000;
/// Terms `0..LIVE_TERMS` burst in the live ticks.
const LIVE_TERMS: usize = 16;
/// Live ticks also carry background terms from `LIVE_TERMS..LIVE_END`.
const LIVE_END: usize = 216;
const WARM_TICKS: usize = 40;
const WARM_DOCS_PER_TICK: usize = 60;
/// Measured ticks per cycle; the timeline is sized to warm + cycle ticks.
const CYCLE_TICKS: usize = 150;
const LIVE_DOCS_PER_TICK: usize = 20;
/// Read-your-writes queries (two live terms each) after every commit.
/// They are filtered, so each is scored from the term's documents and
/// patterns: a cost that grows with the cycle, not a few microseconds of
/// cache-hot work whose tail would mostly measure the machine's noise.
const READS_PER_TICK: usize = 25;
/// The reads look this many ticks back, in the western region.
const READ_WINDOW: usize = 30;
const CHECKPOINT_EVERY: usize = 50;
const SUBSCRIPTIONS: usize = 10_000;
const MATCHING: usize = 100;
const REOPENS: usize = 3;
/// How long the diff consumer sleeps when every channel was empty.
const POLL_EVERY: Duration = Duration::from_micros(100);
const TIMELINE: usize = WARM_TICKS + CYCLE_TICKS;

/// What every cycle shares: streams, vocabulary, subscriptions, probes.
struct Shared {
    streams: Vec<(String, stb_geo::GeoPoint)>,
    vocab: Vec<String>,
    /// Standing queries; the first `MATCHING` name a live term.
    subs: Vec<Query>,
    /// Queries answered before the restart and after the reopen.
    probes: Vec<Query>,
}

fn shared(seed: u64) -> Shared {
    let mut rng = Rng::new(seed);
    let subs = (0..SUBSCRIPTIONS)
        .map(|i| {
            let mut terms = Vec::new();
            if i < MATCHING {
                terms.push(i % LIVE_TERMS);
            }
            let want = 1 + rng.range(0, 2);
            while terms.len() < want {
                let t = rng.range(LIVE_END, VOCAB);
                if !terms.contains(&t) {
                    terms.push(t);
                }
            }
            gen::term_query(&terms, None)
        })
        .collect();
    let mut probes: Vec<Query> = (0..LIVE_TERMS)
        .map(|t| gen::term_query(&[t], None))
        .collect();
    probes.extend(
        (0..LIVE_TERMS)
            .map(|t| gen::term_query(&[t, LIVE_TERMS + t], Some((TIMELINE, CYCLE_TICKS)))),
    );
    probes.extend((0..16).map(|_| gen::term_query(&[rng.range(LIVE_TERMS, VOCAB)], None)));
    Shared {
        streams: gen::streams(STREAMS),
        vocab: gen::vocabulary(VOCAB),
        subs,
        probes,
    }
}

/// One cycle's documents: the warm history and the measured ticks.
struct Ticks {
    warm: Vec<Vec<Doc>>,
    live: Vec<Vec<Doc>>,
}

fn ticks(seed: u64, cycle: u64) -> Ticks {
    let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(cycle));
    let history = Zipf::new(VOCAB - LIVE_TERMS, 1.0);
    let background = Zipf::new(LIVE_END - LIVE_TERMS, 1.0);
    let live_doc = |rng: &mut Rng, tick: usize| -> Doc {
        let stream = rng.range(0, STREAMS);
        let mut counts = HashMap::new();
        for _ in 0..rng.range(1, 3) {
            let t = rng.range(0, LIVE_TERMS);
            // Each live term bursts in two streams for a stretch of ticks.
            let bursting =
                (tick / 20 + t) % STREAMS == stream || (tick / 20 + t + 1) % STREAMS == stream;
            let c = if bursting { rng.range(3, 9) } else { 1 } as u32;
            *counts.entry(TermId(t as u32)).or_insert(0) += c;
        }
        for _ in 0..rng.range(1, 3) {
            let t = LIVE_TERMS + background.sample(rng);
            *counts.entry(TermId(t as u32)).or_insert(0) += 1;
        }
        (StreamId(stream as u32), counts)
    };
    let warm = (0..WARM_TICKS)
        .map(|tick| {
            let mut docs = gen::zipf_tick(
                &mut rng,
                &history,
                LIVE_TERMS,
                tick,
                WARM_DOCS_PER_TICK,
                STREAMS,
                (2, 5),
            );
            for _ in 0..WARM_DOCS_PER_TICK / 4 {
                docs.push(live_doc(&mut rng, tick));
            }
            docs
        })
        .collect();
    let live = (0..CYCLE_TICKS)
        .map(|i| {
            (0..LIVE_DOCS_PER_TICK)
                .map(|_| live_doc(&mut rng, WARM_TICKS + i))
                .collect()
        })
        .collect();
    Ticks { warm, live }
}

fn config() -> IngestConfig {
    IngestConfig {
        timeline_capacity: TIMELINE,
        miner: MinerKind::STComb(STCombConfig::default()),
        durability: Durability::Buffered,
        ..IngestConfig::default()
    }
}

fn options() -> SubscriptionOptions {
    SubscriptionOptions::default().notify_initial(true)
}

/// Set-up: a durable pipeline at `dir` with streams, vocabulary, logged
/// and checkpointed history, and every subscription registered.
fn setup(
    sh: &Shared,
    warm: &[Vec<Doc>],
    dir: &Path,
) -> (IngestPipeline, Vec<SubscriptionHandle>, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let (mut p, _) = IngestPipeline::durable(config(), dir).expect("open a fresh store");
    for (name, geo) in &sh.streams {
        p.add_stream(name, *geo);
    }
    for w in &sh.vocab {
        p.intern(w);
    }
    for docs in warm {
        for (stream, counts) in docs {
            p.stage_document(*stream, counts.clone());
        }
        p.commit_tick();
    }
    p.checkpoint().expect("set-up checkpoint");
    let handles = sh
        .subs
        .iter()
        .map(|q| p.subscribe(q, options()).expect("valid standing query"))
        .collect();
    (p, handles, start.elapsed().as_secs_f64())
}

/// Per-tick instants shared with the consumer, as nanoseconds since
/// `origin` (0 = not yet set).
struct Clock {
    origin: Instant,
    begun: Vec<AtomicU64>,
    committed: Vec<AtomicU64>,
}

impl Clock {
    fn set(slot: &AtomicU64, origin: Instant, at: Instant) {
        slot.store(((at - origin).as_nanos() as u64).max(1), SeqCst);
    }

    fn get(&self, slots: &[AtomicU64], tick: u64) -> Option<Instant> {
        let ns = slots.get(tick as usize)?.load(SeqCst);
        (ns > 0).then(|| self.origin + Duration::from_nanos(ns))
    }
}

/// What the consumer saw: the last delivered state per subscription.
#[derive(Default)]
struct Consumed {
    ph: Phase,
    report: Report,
    last: Vec<Vec<SearchResult>>,
    /// `(tick, receive instant)` of every commit diff.
    received: Vec<(u64, Instant)>,
}

/// Drains the matching subscriptions until the writer stops and the
/// channels are empty. Each diff must continue from the state the
/// previous one delivered; a gap counts as a failed delivery.
fn consume(
    handles: &[SubscriptionHandle],
    clock: &Clock,
    stop: &AtomicBool,
    tracer: Option<Tracer>,
) -> Consumed {
    let mut c = Consumed {
        ph: Phase::default(),
        report: Report::default(),
        last: vec![Vec::new(); handles.len()],
        received: Vec::new(),
    };
    let mut tracer = tracer;
    loop {
        let stopping = stop.load(SeqCst);
        let mut got = false;
        for (i, h) in handles.iter().enumerate() {
            while let Some(diff) = h.try_recv() {
                let now = Instant::now();
                got = true;
                let Some(tick) = diff.tick else {
                    c.last[i] = diff.current;
                    continue;
                };
                c.report
                    .ops(1, u64::from(!check::same(&diff.previous, &c.last[i])));
                if let Some(begun) = clock.get(&clock.begun, tick) {
                    c.ph.diff_ms.push(ms(now - begun));
                }
                c.received.push((tick, now));
                c.last[i] = diff.current;
                if let Some(t) = tracer.as_mut() {
                    t.root("diff_receive", Layer::Subscribe, now, Instant::now());
                }
            }
        }
        if stopping && !got {
            break;
        }
        if !got {
            // Poll, not spin: the writer needs the other core.
            std::thread::sleep(POLL_EVERY);
        }
    }
    c.ph.tracers.extend(tracer);
    c
}

fn file_len(path: PathBuf) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One cycle's measured ticks on a ready pipeline. Returns what the
/// consumer saw.
fn cycle(
    ph: &mut Phase,
    report: &mut Report,
    w: &mut Writer,
    handles: &[SubscriptionHandle],
    live: &[Vec<Doc>],
    dir: &Path,
    origin: Instant,
) -> Consumed {
    let clock = Clock {
        origin,
        begun: (0..TIMELINE).map(|_| AtomicU64::new(0)).collect(),
        committed: (0..TIMELINE).map(|_| AtomicU64::new(0)).collect(),
    };
    let stop = AtomicBool::new(false);
    let traced = w.obs.is_some();
    let wal = dir.join("wal.stb");
    let mut docs_since_checkpoint = 0u64;
    let start = Instant::now();
    let consumed = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            let tracer = traced.then(|| Tracer::new("consumer", origin));
            consume(&handles[..MATCHING], &clock, &stop, tracer)
        });
        for (i, docs) in live.iter().enumerate() {
            let tick = WARM_TICKS + i;
            let begun = Instant::now();
            Clock::set(&clock.begun[tick], origin, begun);
            let receipt = w.tick(ph, report, docs, begun, true);
            Clock::set(&clock.committed[tick], origin, Instant::now());
            docs_since_checkpoint += receipt.new_docs.len() as u64;
            for k in 0..READS_PER_TICK {
                let read = [
                    (i + k) % LIVE_TERMS,
                    (i + k + 1 + k / LIVE_TERMS) % LIVE_TERMS,
                ];
                let q = gen::term_query(&read, Some((tick, READ_WINDOW)));
                w.q.query(ph, report, &q);
            }
            // Checkpoints fall mid-interval so a cycle ends with a WAL tail
            // for the reopen to replay.
            if (i + 1 + CHECKPOINT_EVERY / 2).is_multiple_of(CHECKPOINT_EVERY) {
                ph.wal_bytes += file_len(wal.clone());
                ph.wal_docs += docs_since_checkpoint;
                docs_since_checkpoint = 0;
                let start = Instant::now();
                let result = w.pipeline.checkpoint();
                let finished = Instant::now();
                report.ops(1, u64::from(result.is_err()));
                ph.checkpoint_ms.push(ms(finished - start));
                ph.snapshot_bytes.push(result.unwrap_or(0) as f64);
                if let Some(t) = w.q.tracer.as_mut() {
                    t.root("checkpoint", Layer::Store, start, finished);
                }
            }
        }
        stop.store(true, SeqCst);
        consumer.join().expect("consumer thread panicked")
    });
    ph.wall_s += (Instant::now() - start).as_secs_f64();
    ph.wal_bytes += file_len(wal);
    ph.wal_docs += docs_since_checkpoint;
    for &(tick, at) in &consumed.received {
        if let Some(end) = clock.get(&clock.committed, tick) {
            ph.queue_wait_ms.push(ms(at.saturating_duration_since(end)));
        }
    }
    consumed
}

/// One measured phase: whole cycles until `--seconds` have been measured,
/// then checks on the last cycle's subscriptions (when `verify`) and the
/// reopen of its store.
fn phase(
    args: &Args,
    sh: &Shared,
    obs: Option<fn() -> Arc<PipelineObs>>,
    report: &mut Report,
    verify: bool,
) -> Phase {
    let root = args
        .work
        .join(if obs.is_some() { "traced" } else { "untraced" });
    let origin = Instant::now();
    let (mut ph, (pipeline, handles, dir, consumed)) = measure(args.seconds.as_secs_f64(), |n| {
        let mut c = Phase::default();
        let t = ticks(args.seed, n);
        let dir = root.join(format!("cycle{n}"));
        let (pipeline, handles, s) = setup(sh, &t.warm, &dir);
        c.setup_s.push(s);
        let mut w = Writer::new(pipeline, obs.map(|f| f()), origin);
        let mut consumed = cycle(&mut c, report, &mut w, &handles, &t.live, &dir, origin);
        report.merge(std::mem::take(&mut consumed.report));
        c.merge(std::mem::take(&mut consumed.ph));
        let pipeline = w.finish(&mut c);
        (c, (pipeline, handles, dir, consumed))
    });
    if verify {
        verify_subscriptions(report, sh, &pipeline, &consumed.last, &handles[MATCHING..]);
    }
    let before: Vec<_> = sh
        .probes
        .iter()
        .map(|q| pipeline.search_handle().query(q))
        .collect();
    drop(handles);
    drop(pipeline);
    let mut tracer = obs.is_some().then(|| Tracer::new("recovery", origin));
    for round in 0..REOPENS {
        let start = Instant::now();
        let (p, recovery) = IngestPipeline::durable(config(), &dir).expect("reopen the store");
        let handle = p.search_handle();
        let first = handle.query(&sh.probes[0]);
        let finished = Instant::now();
        ph.recover_s.push((finished - start).as_secs_f64());
        ph.recover_wal_ticks
            .push(recovery.wal_ticks_replayed as f64);
        if let Some(t) = tracer.as_mut() {
            t.root("durable", Layer::Store, start, finished);
        }
        if round == 0 {
            report.check(first.is_ok(), || {
                "push_durable: first query after reopen failed".into()
            });
            for (i, (q, b)) in sh.probes.iter().zip(&before).enumerate() {
                let after = handle.query(q);
                let ok =
                    matches!((b, &after), (Ok(b), Ok(a)) if check::same(&b.results, &a.results));
                report.check(ok, || {
                    format!("push_durable: probe {i} differs after reopen")
                });
            }
        }
    }
    ph.tracers.extend(tracer);
    ph
}

/// Each subscription's last delivered `current` must equal a fresh query
/// at the final generation (no commit runs after the writer stops).
fn verify_subscriptions(
    report: &mut Report,
    sh: &Shared,
    pipeline: &IngestPipeline,
    last: &[Vec<SearchResult>],
    others: &[SubscriptionHandle],
) {
    let handle = pipeline.search_handle();
    let mut delivered: Vec<Vec<SearchResult>> = last.to_vec();
    for h in others {
        let mut state = None;
        while let Some(diff) = h.try_recv() {
            state = Some(diff.current);
        }
        delivered.push(state.unwrap_or_default());
    }
    for (i, (q, got)) in sh.subs.iter().zip(&delivered).enumerate() {
        let fresh = handle.query(q).map(|r| r.results);
        let ok = matches!(&fresh, Ok(f) if check::same(f, got));
        report.check(ok, || {
            format!("push_durable: subscription {i} last diff differs from a fresh query")
        });
    }
}

pub fn run(args: &Args) -> (Report, Report, Option<String>) {
    let sh = shared(args.seed);
    let mut report = Report::default();
    let untraced = phase(args, &sh, None, &mut report, true);
    let traced = args
        .trace
        .then(|| phase(args, &sh, Some(traced_obs), &mut report, false));
    finish(report, &untraced, traced.as_ref())
}
