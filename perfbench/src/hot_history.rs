//! `hot_history`: one closed-loop writer over a small vocabulary whose few
//! hot terms ride on every document, so every commit re-mines and
//! re-scores terms whose history keeps growing. After each commit the
//! writer reads its own write: one unfiltered and two window ∧ region
//! filtered cold queries on the hot terms (the hot terms are dirty after
//! every commit, so none of them is a cache hit).
//!
//! A cycle builds a fresh pipeline, commits `WARM_TICKS` ticks of history
//! in set-up, then measures the remaining ticks up to `TICKS`. Cycles
//! repeat until `--seconds` of measured time have been kept (see
//! `phase::measure`), so every run covers the same history depths
//! whatever the speed of the program.

use std::time::Instant;

use stb_corpus::TermId;
use stb_ingest::{IngestConfig, IngestPipeline, PipelineObs, Query};

use crate::check;
use crate::gen::{self, Doc, Rng};
use crate::phase::{finish, measure, ms, traced_obs, Phase, Writer};
use crate::stats::Report;
use crate::Args;

const STREAMS: usize = 8;
const VOCAB: usize = 40;
const HOT_TERMS: usize = 3;
const DOCS_PER_TICK: usize = 50;
/// Ticks per cycle; the timeline is sized to it.
const TICKS: usize = 160;
/// Ticks committed in set-up.
const WARM_TICKS: usize = 40;
/// Set-ups run (and discarded) in each untraced cycle besides its own, so
/// `setup_s` is the median of many, spread over the run, although only a
/// few cycles fit in it.
const EXTRA_SETUPS: usize = 3;
/// The filtered query looks this many ticks back from the open tick.
const WINDOW: usize = 30;

struct Inputs {
    streams: Vec<(String, stb_geo::GeoPoint)>,
    vocab: Vec<String>,
    ticks: Vec<Vec<Doc>>,
}

fn inputs(seed: u64, cycle: u64) -> Inputs {
    let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(cycle));
    Inputs {
        streams: gen::streams(STREAMS),
        vocab: gen::vocabulary(VOCAB),
        ticks: gen::hot_ticks(&mut rng, TICKS, STREAMS, DOCS_PER_TICK, HOT_TERMS, VOCAB),
    }
}

/// The read-your-writes dashboard after committing tick `tick`.
///
/// Two of the three are filtered, so the median query is a filtered one:
/// its cost grows with the history, while the median of a cheap
/// unfiltered query would mostly measure the machine's noise.
fn dashboard(tick: usize) -> [Query; 3] {
    [
        gen::term_query(&[0], None),
        gen::term_query(&[0, 1], Some((tick, WINDOW))),
        gen::term_query(&[1, 2], Some((tick, WINDOW))),
    ]
}

/// Set-up: pipeline ready with streams, vocabulary and warm history.
fn setup(inp: &Inputs) -> (IngestPipeline, f64) {
    let start = Instant::now();
    let mut p = IngestPipeline::new(IngestConfig {
        timeline_capacity: TICKS,
        ..IngestConfig::default()
    });
    for (name, geo) in &inp.streams {
        p.add_stream(name, *geo);
    }
    for w in &inp.vocab {
        p.intern(w);
    }
    for docs in &inp.ticks[..WARM_TICKS] {
        for (stream, counts) in docs {
            p.stage_document(*stream, counts.clone());
        }
        p.commit_tick();
    }
    (p, start.elapsed().as_secs_f64())
}

/// One measured phase: whole cycles until `--seconds` have been measured.
/// Checks the last cycle's answers against the batch build when `verify`.
fn phase(
    args: &Args,
    obs: Option<fn() -> std::sync::Arc<PipelineObs>>,
    report: &mut Report,
    verify: bool,
) -> Phase {
    let origin = Instant::now();
    let (ph, (inp, pipeline)) = measure(args.seconds.as_secs_f64(), |cycle| {
        let mut c = Phase::default();
        let inp = inputs(args.seed, cycle);
        if obs.is_none() {
            for _ in 0..EXTRA_SETUPS {
                c.setup_s.push(setup(&inp).1);
            }
        }
        let (pipeline, s) = setup(&inp);
        c.setup_s.push(s);
        let mut w = Writer::new(pipeline, obs.map(|f| f()), origin);
        let start = Instant::now();
        for tick in WARM_TICKS..TICKS {
            w.tick(&mut c, report, &inp.ticks[tick], Instant::now(), false);
            for q in dashboard(tick) {
                w.q.query(&mut c, report, &q);
            }
        }
        c.wall_s = start.elapsed().as_secs_f64();
        let pipeline = w.finish(&mut c);
        (c, (inp, pipeline))
    });
    if verify {
        verify_cycle(report, &inp, &pipeline);
    }
    ph
}

fn verify_cycle(report: &mut Report, inp: &Inputs, pipeline: &IngestPipeline) {
    let started = Instant::now();
    let ticks: Vec<&[Doc]> = inp.ticks.iter().map(Vec::as_slice).collect();
    let terms: Vec<TermId> = (0..VOCAB as u32).map(TermId).collect();
    let engine = check::batch_engine(&inp.streams, &inp.vocab, &ticks, TICKS, &terms);
    let mut queries: Vec<Query> = (0..VOCAB).map(|t| gen::term_query(&[t], None)).collect();
    queries.extend(dashboard(TICKS - 1));
    queries.extend(
        (0..HOT_TERMS).map(|t| gen::term_query(&[t, HOT_TERMS + t], Some((TICKS / 2, TICKS / 4)))),
    );
    let handle = pipeline.search_handle();
    report.check(
        handle.collection().documents().len() == TICKS * DOCS_PER_TICK,
        || "hot_history: live collection lost documents".into(),
    );
    check::compare(report, "hot_history", &engine, &handle, &queries);
    println!(
        "  batch check: {} queries in {:.2} s",
        queries.len(),
        ms(started.elapsed()) / 1e3
    );
}

pub fn run(args: &Args) -> (Report, Report, Option<String>) {
    let mut report = Report::default();
    let untraced = phase(args, None, &mut report, true);
    let traced = args
        .trace
        .then(|| phase(args, Some(traced_obs), &mut report, false));
    finish(report, &untraced, traced.as_ref())
}
