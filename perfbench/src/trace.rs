//! Benchmark-side spans for the traced run.
//!
//! Every public call a workload makes is wrapped in a span recorded here,
//! from outside the program. The stage spans the program already records
//! (`TraceRecord`s of `PipelineObs::commit_traces` and `SearchObs::traces`)
//! are nested under the benchmark span of the call that produced them,
//! selected by `TraceId`. Spans stay in memory and are written out once,
//! when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use stb_obs::{SpanKind, TraceRecord};

use crate::stats::Samples;

/// The workspace crates a span's time is charged to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `stb-ingest` / `stb-corpus`: staging, applying documents, the
    /// commit bookkeeping no stage span covers.
    Ingest,
    /// `stb-core`: mining.
    Core,
    /// `stb-search`, write side: re-scoring and publishing.
    SearchWrite,
    /// `stb-search`, read side: the query stages.
    SearchRead,
    /// `stb-store`: WAL appends, checkpoints, recovery.
    Store,
    /// `stb-subscribe`: the notify pass and diff delivery.
    Subscribe,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Ingest,
        Layer::Core,
        Layer::SearchWrite,
        Layer::SearchRead,
        Layer::Store,
        Layer::Subscribe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Ingest => "ingest",
            Layer::Core => "core",
            Layer::SearchWrite => "search_write",
            Layer::SearchRead => "search_read",
            Layer::Store => "store",
            Layer::Subscribe => "subscribe",
        }
    }
}

/// The benchmark's name and layer for a program stage span.
fn stage(kind: SpanKind) -> (&'static str, Layer) {
    let layer = match kind {
        SpanKind::Plan
        | SpanKind::CacheLookup
        | SpanKind::ShardGather
        | SpanKind::TaScan
        | SpanKind::Respond => Layer::SearchRead,
        SpanKind::WalAppend => Layer::Store,
        SpanKind::Mine => Layer::Core,
        SpanKind::Publish => Layer::SearchWrite,
        SpanKind::Notify => Layer::Subscribe,
        _ => Layer::Ingest,
    };
    (kind.as_str(), layer)
}

pub struct Span {
    /// The operation (one public call) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The spans of one benchmark thread.
pub struct Tracer {
    thread: &'static str,
    origin: Instant,
    next_op: u64,
    pub spans: Vec<Span>,
    /// Program traces that were expected but not found by id.
    pub missing: u64,
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    pub fn new(thread: &'static str, origin: Instant) -> Self {
        Self {
            thread,
            origin,
            next_op: 0,
            spans: Vec::new(),
            missing: 0,
        }
    }

    /// Records a root span for one public call; returns its index.
    pub fn root(
        &mut self,
        name: &'static str,
        layer: Layer,
        start: Instant,
        end: Instant,
    ) -> usize {
        let op = self.next_op;
        self.next_op += 1;
        self.spans.push(Span {
            op,
            parent: None,
            name,
            layer,
            start_ns: ns(start.saturating_duration_since(self.origin)),
            dur_ns: ns(end.saturating_duration_since(start)),
        });
        self.spans.len() - 1
    }

    /// Nests the stage spans of the program trace with id `id` (looked up
    /// in `records`) under span `parent`. Counts the trace as missing if
    /// the ring no longer holds it.
    pub fn nest(&mut self, parent: usize, records: &[TraceRecord], id: u64) {
        let Some(rec) = records.iter().find(|r| r.id.0 == id) else {
            self.missing += 1;
            return;
        };
        let (op, base) = (self.spans[parent].op, self.spans[parent].start_ns);
        for s in &rec.spans {
            let (name, layer) = stage(s.kind);
            self.spans.push(Span {
                op,
                parent: Some(parent),
                name,
                layer,
                start_ns: base + s.start_ns,
                dur_ns: s.duration_ns,
            });
        }
    }

    /// Durations (in units of `scale` nanoseconds) of every span `name`.
    pub fn durations(&self, name: &str, scale: f64) -> Samples {
        Samples(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns as f64 / scale)
                .collect(),
        )
    }

    /// Per root span named `name`: its duration minus its children's, in
    /// units of `scale` nanoseconds.
    pub fn self_times(&self, name: &str, scale: f64) -> Samples {
        let children = self.child_ns();
        Samples(
            self.spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
                .map(|(i, s)| s.dur_ns.saturating_sub(children[i]) as f64 / scale)
                .collect(),
        )
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns;
            }
        }
        children
    }

    /// Self time per layer in nanoseconds, in [`Layer::ALL`] order.
    pub fn layer_self_ns(&self) -> [u64; 6] {
        let children = self.child_ns();
        let mut out = [0u64; 6];
        for (i, s) in self.spans.iter().enumerate() {
            let k = Layer::ALL.iter().position(|&l| l == s.layer).unwrap_or(0);
            out[k] += s.dur_ns.saturating_sub(children[i]);
        }
        out
    }

    /// Appends the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\":\"{}\",\"span\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                self.thread,
                s.op,
                s.name,
                s.layer.name(),
                s.start_ns,
                s.dur_ns
            );
        }
    }
}
