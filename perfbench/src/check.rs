//! The batch reference the live answers are compared against:
//! `CollectionBuilder` over the same documents, the same per-term mining
//! steps, and a finalized `BurstySearchEngine`.

use std::sync::Arc;

use stb_core::{STLocal, STLocalConfig};
use stb_corpus::{CollectionBuilder, TermId};
use stb_geo::GeoPoint;
use stb_ingest::{Query, SearchHandle};
use stb_search::{BurstySearchEngine, EngineConfig, SearchResult};

use crate::gen::Doc;
use crate::stats::Report;

/// Builds the batch engine over `ticks` (one `Vec<Doc>` per committed
/// tick) on a timeline of `timeline` ticks, mining `terms` with `STLocal`
/// stepped over the committed ticks exactly as the live pipeline steps.
pub fn batch_engine(
    streams: &[(String, GeoPoint)],
    vocab: &[String],
    ticks: &[&[Doc]],
    timeline: usize,
    terms: &[TermId],
) -> BurstySearchEngine {
    let mut b = CollectionBuilder::new(timeline);
    for (name, geo) in streams {
        b.add_stream(name, *geo);
    }
    for w in vocab {
        b.dict_mut().intern(w);
    }
    for (ts, docs) in ticks.iter().enumerate() {
        for (stream, counts) in docs.iter() {
            b.add_document(*stream, ts, counts.clone());
        }
    }
    let collection = Arc::new(b.build());
    let mut engine = BurstySearchEngine::new(Arc::clone(&collection), EngineConfig::default());
    for &term in terms {
        let mut miner = STLocal::new(collection.positions(), STLocalConfig::default());
        for ts in 0..ticks.len() {
            miner.step(&collection.term_snapshot(term, ts).frequencies);
        }
        engine.set_patterns(term, &miner.patterns());
    }
    engine.finalize_with_threads(1);
    engine
}

pub fn same(a: &[SearchResult], b: &[SearchResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && x.score.to_bits() == y.score.to_bits())
}

/// Compares the live answers to `queries` with the batch engine's,
/// bit for bit; each query is one check.
pub fn compare(
    report: &mut Report,
    label: &str,
    engine: &BurstySearchEngine,
    handle: &SearchHandle,
    queries: &[Query],
) {
    for (i, q) in queries.iter().enumerate() {
        let live = handle.query(q).map(|r| r.results);
        let batch = engine.query(q).map(|r| r.results);
        let ok = matches!((&live, &batch), (Ok(l), Ok(b)) if same(l, b));
        report.check(ok, || {
            format!("{label}: query {i} differs from the batch build")
        });
    }
}
