//! Result diffs: what changed in a standing query's top-k between two
//! serving generations, and why.

use stb_core::PatternRecord;
use stb_corpus::TermId;
use stb_search::SearchResult;
use std::collections::HashMap;

use crate::registry::SubscriptionId;

/// One subscribed term that triggered a re-evaluation, with the patterns
/// the commit (re-)mined for it.
///
/// Patterns are carried as [`PatternRecord`]s — the frozen geometric form
/// with the spatial footprint captured at mining time — so a notification
/// is self-contained: the subscriber can inspect *why* its results moved
/// without holding any reference into the serving state.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    /// The dirty term that intersected this subscription's term set.
    pub term: TermId,
    /// The term's patterns as mined by the triggering commit.
    pub patterns: Vec<PatternRecord>,
}

/// A document present in both the previous and current top-k whose rank
/// or score changed.
#[derive(Debug, Clone, PartialEq)]
pub struct Reranked {
    /// The document.
    pub doc: stb_corpus::DocId,
    /// Its rank in the previous top-k (0 = best).
    pub previous_rank: usize,
    /// Its rank in the current top-k.
    pub rank: usize,
    /// Its previous score.
    pub previous_score: f64,
    /// Its current score.
    pub score: f64,
}

/// One notification on a subscription channel: the standing query's top-k
/// before and after a commit, the membership/rank changes between them,
/// and the triggering patterns.
///
/// Both full lists ride along (top-k lists are small by construction), so
/// a diff stream is trivially replayable: `current` at each delivered diff
/// *is* the point-in-time result list at that generation — the property
/// the `subscribe_equivalence` proptests pin down bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultDiff {
    /// The subscription this diff belongs to.
    pub subscription: SubscriptionId,
    /// The ingest tick whose commit produced this diff, or `None` for the
    /// initial registration snapshot
    /// ([`SubscriptionOptions::notify_initial`](crate::SubscriptionOptions::notify_initial)).
    pub tick: Option<u64>,
    /// The serving generation the current results were evaluated against.
    /// Evaluation loads the generation once, so `current` and
    /// `generation` always belong together (never torn).
    pub generation: u64,
    /// The top-k before the triggering commit (the subscription's last
    /// delivered state).
    pub previous: Vec<SearchResult>,
    /// The top-k at `generation`, best first.
    pub current: Vec<SearchResult>,
    /// Documents in `current` but not `previous`, in current-rank order,
    /// carrying their current scores.
    pub entered: Vec<SearchResult>,
    /// Documents in `previous` but not `current`, in previous-rank order,
    /// carrying their previous scores.
    pub left: Vec<SearchResult>,
    /// Documents in both lists whose rank or score (bitwise) changed.
    pub reranked: Vec<Reranked>,
    /// The subscribed terms whose re-mining triggered this evaluation,
    /// with their new patterns. Sorted by term id.
    pub triggers: Vec<Trigger>,
    /// How many earlier undelivered diffs were merged into this one under
    /// [`OverflowPolicy::CoalesceLatest`](crate::OverflowPolicy::CoalesceLatest)
    /// (0 = delivered exactly as computed).
    pub coalesced: u64,
}

impl ResultDiff {
    /// Computes the diff between two top-k lists.
    pub(crate) fn compute(
        subscription: SubscriptionId,
        tick: Option<u64>,
        generation: u64,
        previous: Vec<SearchResult>,
        current: Vec<SearchResult>,
        triggers: Vec<Trigger>,
    ) -> Self {
        let prev_by_doc: HashMap<_, _> = previous
            .iter()
            .enumerate()
            .map(|(rank, r)| (r.doc, (rank, r.score)))
            .collect();
        let mut entered = Vec::new();
        let mut reranked = Vec::new();
        for (rank, r) in current.iter().enumerate() {
            match prev_by_doc.get(&r.doc) {
                None => entered.push(*r),
                Some(&(prev_rank, prev_score)) => {
                    if prev_rank != rank || prev_score.to_bits() != r.score.to_bits() {
                        reranked.push(Reranked {
                            doc: r.doc,
                            previous_rank: prev_rank,
                            rank,
                            previous_score: prev_score,
                            score: r.score,
                        });
                    }
                }
            }
        }
        let current_docs: HashMap<_, _> = current.iter().map(|r| (r.doc, ())).collect();
        let left = previous
            .iter()
            .filter(|r| !current_docs.contains_key(&r.doc))
            .copied()
            .collect();
        Self {
            subscription,
            tick,
            generation,
            previous,
            current,
            entered,
            left,
            reranked,
            triggers,
            coalesced: 0,
        }
    }

    /// Whether the diff carries no membership, rank, or score change.
    pub fn is_unchanged(&self) -> bool {
        self.entered.is_empty() && self.left.is_empty() && self.reranked.is_empty()
    }

    /// Merges an older undelivered diff into a newer one (coalescing):
    /// the result spans from the older diff's `previous` to the newer
    /// diff's `current`, with membership/rank changes recomputed across
    /// the whole span and triggers unioned per term (newest patterns win).
    pub(crate) fn coalesce(older: Self, newer: Self) -> Self {
        let mut triggers_by_term: std::collections::BTreeMap<TermId, Vec<PatternRecord>> = older
            .triggers
            .into_iter()
            .map(|t| (t.term, t.patterns))
            .collect();
        for t in newer.triggers {
            triggers_by_term.insert(t.term, t.patterns);
        }
        let triggers = triggers_by_term
            .into_iter()
            .map(|(term, patterns)| Trigger { term, patterns })
            .collect();
        let mut merged = Self::compute(
            newer.subscription,
            newer.tick,
            newer.generation,
            older.previous,
            newer.current,
            triggers,
        );
        merged.coalesced = older.coalesced + newer.coalesced + 1;
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stb_corpus::DocId;

    fn r(doc: u32, score: f64) -> SearchResult {
        SearchResult {
            doc: DocId(doc),
            score,
        }
    }

    fn diff(prev: Vec<SearchResult>, curr: Vec<SearchResult>) -> ResultDiff {
        ResultDiff::compute(SubscriptionId(1), Some(3), 7, prev, curr, Vec::new())
    }

    #[test]
    fn membership_changes_are_classified() {
        let d = diff(
            vec![r(1, 5.0), r(2, 4.0), r(3, 3.0)],
            vec![r(4, 6.0), r(1, 5.0), r(2, 4.0)],
        );
        assert_eq!(d.entered, vec![r(4, 6.0)]);
        assert_eq!(d.left, vec![r(3, 3.0)]);
        // Docs 1 and 2 moved down one rank with unchanged scores.
        assert_eq!(d.reranked.len(), 2);
        assert_eq!(d.reranked[0].doc, DocId(1));
        assert_eq!(d.reranked[0].previous_rank, 0);
        assert_eq!(d.reranked[0].rank, 1);
        assert!(!d.is_unchanged());
    }

    #[test]
    fn score_change_alone_is_a_rerank() {
        let d = diff(vec![r(1, 5.0)], vec![r(1, 5.5)]);
        assert!(d.entered.is_empty() && d.left.is_empty());
        assert_eq!(d.reranked.len(), 1);
        assert_eq!(d.reranked[0].previous_score, 5.0);
        assert_eq!(d.reranked[0].score, 5.5);
    }

    #[test]
    fn identical_lists_are_unchanged() {
        let d = diff(vec![r(1, 5.0), r(2, 4.0)], vec![r(1, 5.0), r(2, 4.0)]);
        assert!(d.is_unchanged());
        // Bitwise comparison: 0.0 vs -0.0 counts as a change.
        let d = diff(vec![r(1, 0.0)], vec![r(1, -0.0)]);
        assert!(!d.is_unchanged());
    }

    #[test]
    fn coalesce_spans_oldest_previous_to_newest_current() {
        let d1 = diff(vec![r(1, 5.0)], vec![r(2, 6.0)]);
        let mut d2 = diff(vec![r(2, 6.0)], vec![r(1, 7.0)]);
        d2.tick = Some(4);
        let merged = ResultDiff::coalesce(d1, d2);
        assert_eq!(merged.tick, Some(4));
        assert_eq!(merged.previous, vec![r(1, 5.0)]);
        assert_eq!(merged.current, vec![r(1, 7.0)]);
        // Doc 1 left and came back with a new score: across the span it
        // is a rerank (same membership, different score).
        assert!(merged.entered.is_empty() && merged.left.is_empty());
        assert_eq!(merged.reranked.len(), 1);
        assert_eq!(merged.coalesced, 1);
    }

    #[test]
    fn coalesce_unions_triggers_newest_wins() {
        let mut d1 = diff(vec![], vec![r(1, 1.0)]);
        d1.triggers = vec![Trigger {
            term: TermId(7),
            patterns: Vec::new(),
        }];
        let mut d2 = diff(vec![r(1, 1.0)], vec![r(1, 2.0)]);
        d2.triggers = vec![Trigger {
            term: TermId(3),
            patterns: Vec::new(),
        }];
        let merged = ResultDiff::coalesce(d1, d2);
        let terms: Vec<_> = merged.triggers.iter().map(|t| t.term).collect();
        assert_eq!(terms, vec![TermId(3), TermId(7)]);
    }
}
