//! Seeded input generation. Everything the pipeline receives — streams,
//! vocabulary, documents, queries, subscriptions — is produced here from
//! the `--seed` argument alone; the same seed gives the same inputs.

use std::collections::HashMap;

use stb_corpus::{StreamId, TermId};
use stb_geo::{GeoPoint, Rect};
use stb_ingest::Query;

/// SplitMix64: small, fast and fully deterministic.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// Zipf-distributed ranks `0..n` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One document: its stream and term counts.
pub type Doc = (StreamId, HashMap<TermId, u32>);

/// The streams of every workload: a 4 × 2 grid of cities 10° apart, so a
/// region filter can select a contiguous subset of them.
pub fn streams(n: usize) -> Vec<(String, GeoPoint)> {
    (0..n)
        .map(|i| {
            let lat = 10.0 * (i / 4) as f64;
            let lon = 10.0 * (i % 4) as f64;
            (format!("city{i}"), GeoPoint::new(lat, lon))
        })
        .collect()
}

/// A region covering the western half of the stream grid (planar
/// positions are `(lon, lat)`).
pub fn west_region() -> Rect {
    Rect::new(-1.0, -1.0, 11.0, 31.0)
}

pub fn vocabulary(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("w{i}")).collect()
}

/// A burst episode of one term: streams `lo..hi` carry extra occurrences
/// over ticks `start..end`.
struct Burst {
    term: usize,
    streams: (usize, usize),
    ticks: (usize, usize),
    boost: u32,
}

/// Bursty ticks over a few hot terms that every document carries: the
/// `hot_history` shape. Returns one `Vec<Doc>` per tick.
pub fn hot_ticks(
    rng: &mut Rng,
    n_ticks: usize,
    n_streams: usize,
    docs_per_tick: usize,
    hot_terms: usize,
    vocab: usize,
) -> Vec<Vec<Doc>> {
    // A regular schedule with seeded phases and places keeps the amount
    // of bursty structure (and so the mining and scoring work) the same
    // from seed to seed.
    let mut bursts = Vec::new();
    for term in 0..hot_terms {
        let mut t = rng.range(0, 8);
        while t < n_ticks {
            let lo = rng.range(0, n_streams - 1);
            bursts.push(Burst {
                term,
                streams: (lo, lo + 2),
                ticks: (t, t + 10),
                boost: 8,
            });
            t += 20;
        }
    }
    (0..n_ticks)
        .map(|tick| {
            (0..docs_per_tick)
                .map(|d| {
                    let stream = (d + rng.range(0, n_streams)) % n_streams;
                    let mut counts = HashMap::new();
                    for term in 0..hot_terms {
                        let mut c = 1 + rng.range(0, 2) as u32;
                        for b in &bursts {
                            if b.term == term
                                && (b.streams.0..b.streams.1).contains(&stream)
                                && (b.ticks.0..b.ticks.1).contains(&tick)
                            {
                                c += rng.range(0, b.boost as usize + 1) as u32;
                            }
                        }
                        counts.insert(TermId(term as u32), c);
                    }
                    for _ in 0..rng.range(1, 4) {
                        let t = rng.range(hot_terms, vocab);
                        *counts.entry(TermId(t as u32)).or_insert(0) += 1;
                    }
                    (StreamId(stream as u32), counts)
                })
                .collect()
        })
        .collect()
}

/// Documents of tick `tick` whose terms are Zipf-drawn over the
/// vocabulary ranks `offset..offset + zipf.len()`: the
/// `push_durable` background. Every term bursts on a fixed schedule — in
/// two neighbouring streams, one stretch of 8 ticks in 32 — so the amount
/// of bursty structure does not depend on the seed.
pub fn zipf_tick(
    rng: &mut Rng,
    zipf: &Zipf,
    offset: usize,
    tick: usize,
    n_docs: usize,
    n_streams: usize,
    terms_per_doc: (usize, usize),
) -> Vec<Doc> {
    (0..n_docs)
        .map(|_| {
            let stream = rng.range(0, n_streams);
            let mut counts = HashMap::new();
            for _ in 0..rng.range(terms_per_doc.0, terms_per_doc.1 + 1) {
                let t = offset + zipf.sample(rng);
                let bursting = (tick / 8 + t).is_multiple_of(4)
                    && (stream + n_streams - t % n_streams) % n_streams < 2;
                let c = if bursting { rng.range(2, 6) as u32 } else { 1 };
                *counts.entry(TermId(t as u32)).or_insert(0) += c;
            }
            (StreamId(stream as u32), counts)
        })
        .collect()
}

/// A term query, optionally restricted to the last `window` ticks before
/// `now` and to the western region.
pub fn term_query(terms: &[usize], filter: Option<(usize, usize)>) -> Query {
    let q = Query::terms(terms.iter().map(|&t| TermId(t as u32))).top_k(10);
    match filter {
        Some((now, window)) => q
            .time_window(now.saturating_sub(window)..=now)
            .region(west_region()),
        None => q,
    }
}
