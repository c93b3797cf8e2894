//! Inverted index with sorted and random access.
//!
//! Section 5 of the paper: "An inverted index is first built, mapping each
//! term to the documents that include it, ranked by their respective
//! scores. The popular Threshold Algorithm for top-k evaluation can then be
//! applied." This module is exactly that index: per-term posting lists
//! sorted by score (for sorted access) plus a per-term hash map (for the
//! random access the Threshold Algorithm needs).
//!
//! # Lifecycle
//!
//! The index distinguishes a *loading* state from a *finalized* state.
//! [`InvertedIndex::insert`] appends postings without maintaining sort
//! order; [`InvertedIndex::finalize`] sorts and deduplicates every posting
//! list. Sorted access ([`InvertedIndex::postings`]) before finalization is
//! a logic error — the Threshold Algorithm's early-termination bound is
//! only valid over sorted lists — and is caught by a `debug_assert!`.
//! `finalize` is idempotent: calling it twice (or on an empty index) is
//! free, and a fresh index is vacuously finalized.
//!
//! Already-scored whole lists can be bulk-loaded with
//! [`InvertedIndex::set_postings`], which keeps the per-term invariants
//! without touching the rest of the index. The search engine keeps its
//! prebuilt per-term lists in the same `PostingList` shape, one shared
//! list per term (see `crate::serving`).
//!
//! ```
//! use stb_search::InvertedIndex;
//! use stb_corpus::{DocId, TermId};
//!
//! let mut idx = InvertedIndex::new();
//! idx.insert(TermId(0), DocId(7), 1.5);
//! idx.insert(TermId(0), DocId(3), 4.0);
//! idx.finalize();
//! // Sorted access: best document first.
//! assert_eq!(idx.postings(TermId(0))[0].doc, DocId(3));
//! // Random access: score lookup by (term, doc).
//! assert_eq!(idx.score(TermId(0), DocId(7)), Some(1.5));
//! ```

use std::collections::HashMap;

use stb_corpus::{DocId, TermId};

/// One entry of a posting list: a document and its score for the term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// The document's per-term score (relevance × burstiness).
    pub score: f64,
}

/// One term's posting list with both access paths the Threshold Algorithm
/// needs: the score-sorted list (sorted access) and a by-document map
/// (random access).
#[derive(Debug, Clone, Default)]
pub(crate) struct PostingList {
    pub(crate) sorted: Vec<Posting>,
    pub(crate) by_doc: HashMap<DocId, f64>,
}

impl PostingList {
    /// Builds the sorted, deduplicated list of an already-scored posting
    /// set; `None` for an empty set (a term without postings has no list).
    pub(crate) fn from_scored(mut list: Vec<Posting>) -> Option<Self> {
        if list.is_empty() {
            return None;
        }
        let by_doc: HashMap<DocId, f64> = list.iter().map(|p| (p.doc, p.score)).collect();
        sort_posting_list(&mut list, &by_doc);
        Some(Self {
            sorted: list,
            by_doc,
        })
    }
}

/// A per-term inverted index over per-document scores.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    lists: HashMap<TermId, PostingList>,
    /// Whether every posting list is currently sorted and deduplicated. A
    /// fresh (empty) index is vacuously finalized; `insert` clears the flag.
    finalized: bool,
}

impl Default for InvertedIndex {
    fn default() -> Self {
        Self {
            lists: HashMap::new(),
            finalized: true,
        }
    }
}

/// Sorts a posting list by descending score (ties broken by doc id for
/// determinism) and deduplicates by document, keeping `keep` as the score of
/// a duplicated document.
fn sort_posting_list(list: &mut Vec<Posting>, keep: &HashMap<DocId, f64>) {
    for p in list.iter_mut() {
        // If the same document was inserted twice the random-access map
        // keeps the last value; make every copy agree before deduplicating.
        if let Some(&s) = keep.get(&p.doc) {
            p.score = s;
        }
    }
    list.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
    list.dedup_by_key(|p| p.doc);
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or overwrites) the score of `doc` for `term`.
    ///
    /// Posting lists are re-sorted lazily by [`InvertedIndex::finalize`];
    /// always call it after the last insertion.
    pub fn insert(&mut self, term: TermId, doc: DocId, score: f64) {
        self.finalized = false;
        let list = self.lists.entry(term).or_default();
        list.sorted.push(Posting { doc, score });
        list.by_doc.insert(doc, score);
    }

    /// Replaces the whole posting list of `term` in one step, keeping the
    /// sorted/deduplicated invariant for that list. An empty `list` removes
    /// the term entirely.
    ///
    /// Unlike [`InvertedIndex::insert`] this does *not* un-finalize the
    /// index: the rest of the index stays valid.
    pub fn set_postings(&mut self, term: TermId, list: Vec<Posting>) {
        match PostingList::from_scored(list) {
            Some(list) => {
                self.lists.insert(term, list);
            }
            None => {
                self.lists.remove(&term);
            }
        }
    }

    /// Sorts every posting list by descending score (ties broken by doc id
    /// for determinism) and deduplicates repeated documents (last inserted
    /// score wins). Must be called after the last insertion and before
    /// sorted access.
    ///
    /// Idempotent: on an already-finalized index this is a no-op.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        for list in self.lists.values_mut() {
            sort_posting_list(&mut list.sorted, &list.by_doc);
        }
        self.finalized = true;
    }

    /// Whether the index is finalized (sorted access is allowed).
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// The posting list of a term, sorted by descending score. Empty slice
    /// for unknown terms.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if called before [`InvertedIndex::finalize`]:
    /// sorted access over unsorted lists would silently break the Threshold
    /// Algorithm's early-termination bound.
    pub fn postings(&self, term: TermId) -> &[Posting] {
        debug_assert!(
            self.finalized,
            "sorted access before InvertedIndex::finalize()"
        );
        self.lists.get(&term).map_or(&[], |l| l.sorted.as_slice())
    }

    /// Random access: the score of `doc` for `term`, if the document appears
    /// in the term's posting list. Allowed in any state.
    pub fn score(&self, term: TermId, doc: DocId) -> Option<f64> {
        self.lists.get(&term)?.by_doc.get(&doc).copied()
    }

    /// Number of terms with at least one posting.
    pub fn n_terms(&self) -> usize {
        self.lists.len()
    }

    /// Ids of every term with at least one posting, sorted (a deterministic
    /// iteration order).
    pub fn terms(&self) -> Vec<TermId> {
        let mut terms: Vec<TermId> = self.lists.keys().copied().collect();
        terms.sort();
        terms
    }

    /// Total number of postings over all terms.
    pub fn n_postings(&self) -> usize {
        self.lists.values().map(|l| l.sorted.len()).sum()
    }

    /// Number of postings of a term.
    pub fn doc_freq(&self, term: TermId) -> usize {
        self.lists.get(&term).map_or(0, |l| l.sorted.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(i: u32) -> TermId {
        TermId(i)
    }

    fn doc(i: u32) -> DocId {
        DocId(i)
    }

    #[test]
    fn empty_index() {
        let idx = InvertedIndex::new();
        assert!(idx.is_finalized());
        assert_eq!(idx.n_terms(), 0);
        assert!(idx.postings(term(0)).is_empty());
        assert_eq!(idx.score(term(0), doc(0)), None);
        assert_eq!(idx.doc_freq(term(0)), 0);
    }

    #[test]
    fn postings_sorted_by_score_desc() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(1), doc(10), 0.5);
        idx.insert(term(1), doc(11), 2.0);
        idx.insert(term(1), doc(12), 1.0);
        idx.finalize();
        let scores: Vec<f64> = idx.postings(term(1)).iter().map(|p| p.score).collect();
        assert_eq!(scores, vec![2.0, 1.0, 0.5]);
    }

    #[test]
    fn ties_broken_by_doc_id() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(1), doc(7), 1.0);
        idx.insert(term(1), doc(3), 1.0);
        idx.finalize();
        let docs: Vec<DocId> = idx.postings(term(1)).iter().map(|p| p.doc).collect();
        assert_eq!(docs, vec![doc(3), doc(7)]);
    }

    #[test]
    fn random_access_matches_postings() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(2), doc(0), 0.25);
        idx.insert(term(2), doc(1), 0.75);
        idx.finalize();
        assert_eq!(idx.score(term(2), doc(0)), Some(0.25));
        assert_eq!(idx.score(term(2), doc(1)), Some(0.75));
        assert_eq!(idx.score(term(2), doc(2)), None);
        assert_eq!(idx.doc_freq(term(2)), 2);
    }

    #[test]
    fn reinsert_overwrites() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), 1.0);
        idx.insert(term(0), doc(0), 3.0);
        idx.finalize();
        assert_eq!(idx.score(term(0), doc(0)), Some(3.0));
        assert_eq!(idx.doc_freq(term(0)), 1);
        // The surviving posting carries the surviving score.
        assert_eq!(idx.postings(term(0))[0].score, 3.0);
    }

    #[test]
    fn multiple_terms_are_independent() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), 1.0);
        idx.insert(term(1), doc(1), 2.0);
        idx.finalize();
        assert_eq!(idx.n_terms(), 2);
        assert_eq!(idx.postings(term(0)).len(), 1);
        assert_eq!(idx.postings(term(1)).len(), 1);
        assert_eq!(idx.n_postings(), 2);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(1), 1.0);
        idx.insert(term(0), doc(2), 2.0);
        idx.finalize();
        let before: Vec<Posting> = idx.postings(term(0)).to_vec();
        idx.finalize();
        idx.finalize();
        assert_eq!(idx.postings(term(0)), before.as_slice());
    }

    #[test]
    fn insert_unfinalizes() {
        let mut idx = InvertedIndex::new();
        assert!(idx.is_finalized());
        idx.insert(term(0), doc(0), 1.0);
        assert!(!idx.is_finalized());
        idx.finalize();
        assert!(idx.is_finalized());
        idx.insert(term(0), doc(1), 2.0);
        assert!(!idx.is_finalized());
    }

    #[test]
    #[should_panic(expected = "sorted access before")]
    #[cfg(debug_assertions)]
    fn sorted_access_before_finalize_panics() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), 1.0);
        let _ = idx.postings(term(0));
    }

    #[test]
    fn set_postings_replaces_one_term() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), 1.0);
        idx.insert(term(1), doc(1), 2.0);
        idx.finalize();
        idx.set_postings(
            term(0),
            vec![
                Posting {
                    doc: doc(5),
                    score: 0.5,
                },
                Posting {
                    doc: doc(6),
                    score: 5.0,
                },
            ],
        );
        assert!(idx.is_finalized());
        let docs: Vec<DocId> = idx.postings(term(0)).iter().map(|p| p.doc).collect();
        assert_eq!(docs, vec![doc(6), doc(5)]);
        assert_eq!(idx.score(term(0), doc(0)), None);
        assert_eq!(idx.score(term(0), doc(5)), Some(0.5));
        // The other term is untouched.
        assert_eq!(idx.score(term(1), doc(1)), Some(2.0));
    }

    #[test]
    fn set_postings_empty_removes_term() {
        let mut idx = InvertedIndex::new();
        idx.insert(term(0), doc(0), 1.0);
        idx.finalize();
        idx.set_postings(term(0), Vec::new());
        assert_eq!(idx.n_terms(), 0);
        assert_eq!(idx.score(term(0), doc(0)), None);
    }
}
