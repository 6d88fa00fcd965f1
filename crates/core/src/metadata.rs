//! Set attributes and filtered-search candidates (extension beyond the
//! paper).
//!
//! Production corpora rarely query a whole collection: requests carry
//! facet predicates ("lang = en AND tier IN {gold, silver}") that
//! restrict the candidate set *before* similarity search. LES3's
//! filter-and-verify pipeline absorbs such predicates without a new
//! verification code path: a predicate evaluates to a bitmap of matching
//! set ids, the groups containing at least one match are the only ones
//! phase A puts in the bound stream (it counts the TGM as for an
//! unfiltered query, then picks groups), and the per-set mask rides into the
//! existing verification loops where non-matching members are skipped
//! before any similarity arithmetic. Everything downstream — bucketed
//! ordering, length windows, early abandoning, the range descent,
//! [`crate::QueryCtl`] — is the unfiltered machinery unchanged, so the
//! filtered result is exact by the same Theorem 3.1 argument applied to
//! the matching subset.
//!
//! The attribute store is a classic posting-list index: each distinct
//! `(key, value)` pair is interned to a dense id whose [`Bitmap`] lists
//! the sets carrying it. Predicates ([`Filter`]) are And/Or trees over
//! `Eq` and `In` leaves; evaluation is pure bitmap algebra.

use std::collections::HashMap;

use les3_bitmap::{Bitmap, DenseBitSet};
use les3_data::SetId;

use crate::partitioning::Partitioning;

/// Hard caps on decoded predicate shape: a hostile request must not be
/// able to demand unbounded recursion or memory. Shared by the JSON
/// decoder in `les3-net`.
pub const MAX_FILTER_DEPTH: usize = 16;
/// Maximum total nodes (internal + leaves + `In` values) in one filter.
pub const MAX_FILTER_NODES: usize = 1024;
/// Maximum byte length of one attribute key or value a request may
/// carry. Checked where outside input enters (the `les3-net` decoders,
/// [`Namespace`](crate::Namespace) inserts and filters); the library
/// itself, and the files it writes, take any length.
pub const MAX_ATTR_STR: usize = 4096;
/// Maximum attributes on one set a request may carry (checked where
/// [`MAX_ATTR_STR`] is).
pub const MAX_ATTRS_PER_SET: usize = 256;

/// A predicate over set attributes.
///
/// Leaves match sets carrying an exact `(key, value)` pair; `In` is the
/// disjunction of its values under one key. `And`/`Or` combine
/// arbitrarily. An empty `And` matches every set; an empty `Or` matches
/// none (the usual identities).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// Sets where attribute `key` equals `value`.
    Eq { key: String, value: String },
    /// Sets where attribute `key` equals any of `values`.
    In { key: String, values: Vec<String> },
    /// Every child matches (empty: all sets).
    And(Vec<Filter>),
    /// At least one child matches (empty: no sets).
    Or(Vec<Filter>),
}

impl Filter {
    /// Total node count (self + descendants + `In` values) — the
    /// quantity [`MAX_FILTER_NODES`] caps.
    pub fn node_count(&self) -> usize {
        match self {
            Filter::Eq { .. } => 1,
            Filter::In { values, .. } => 1 + values.len(),
            Filter::And(children) | Filter::Or(children) => {
                1 + children.iter().map(Filter::node_count).sum::<usize>()
            }
        }
    }

    /// Maximum nesting depth (a leaf is depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Filter::Eq { .. } | Filter::In { .. } => 1,
            Filter::And(children) | Filter::Or(children) => {
                1 + children.iter().map(Filter::depth).max().unwrap_or(0)
            }
        }
    }

    /// Checks the structural caps ([`MAX_FILTER_DEPTH`],
    /// [`MAX_FILTER_NODES`], [`MAX_ATTR_STR`]): decoded-from-the-wire
    /// filters must pass before evaluation.
    pub fn check_caps(&self) -> Result<(), MetaError> {
        if self.depth() > MAX_FILTER_DEPTH {
            return Err(MetaError::new("filter nests too deep"));
        }
        if self.node_count() > MAX_FILTER_NODES {
            return Err(MetaError::new("filter has too many nodes"));
        }
        fn strings_ok(f: &Filter) -> bool {
            match f {
                Filter::Eq { key, value } => {
                    key.len() <= MAX_ATTR_STR && value.len() <= MAX_ATTR_STR
                }
                Filter::In { key, values } => {
                    key.len() <= MAX_ATTR_STR && values.iter().all(|v| v.len() <= MAX_ATTR_STR)
                }
                Filter::And(children) | Filter::Or(children) => children.iter().all(strings_ok),
            }
        }
        if !strings_ok(self) {
            return Err(MetaError::new("filter string exceeds MAX_ATTR_STR"));
        }
        Ok(())
    }
}

/// A top-level conjunction of filters — the request-facing shape: an
/// empty list means "no predicate" and routes to the unfiltered hot
/// path, a non-empty one evaluates as `And`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Filters(pub Vec<Filter>);

impl Filters {
    /// No predicate: matches everything via the unfiltered path.
    pub fn none() -> Self {
        Self(Vec::new())
    }

    /// Whether the unfiltered hot path should serve this request.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Decode/validation error for attribute payloads and filters. Always
/// an error value, never a panic: both the wire and the persist layer
/// feed this type untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaError {
    /// Human-readable cause.
    pub message: String,
}

impl MetaError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metadata: {}", self.message)
    }
}

impl std::error::Error for MetaError {}

/// Posting-bitmap index over per-set key/value attributes.
///
/// Every distinct `(key, value)` pair is interned to a dense pair id;
/// `postings[pair]` lists the set ids carrying it. The per-set view
/// (`attrs_of`) is kept alongside so the index round-trips through the
/// persist layer and sets can be re-described on delete/debug paths.
/// It costs nothing for a set without attributes: `attrs_of` covers the
/// ids up to the last set that has any (the gaps before it hold empty
/// lists), and `n_sets` counts every set pushed.
#[derive(Debug, Clone, Default)]
pub struct MetadataIndex {
    /// Interned `(key, value)` pairs; position = pair id.
    pairs: Vec<(String, String)>,
    /// `(key, value)` → pair id.
    lookup: HashMap<(String, String), u32>,
    /// Pair id → matching set ids.
    postings: Vec<Bitmap>,
    /// Set id → sorted pair ids, for a prefix of the ids: every set past
    /// it has no attributes.
    attrs_of: Vec<Vec<u32>>,
    /// Number of sets tracked.
    n_sets: usize,
}

impl MetadataIndex {
    /// An empty index (no sets tracked).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sets tracked (one `push` per set, in id order).
    pub fn n_sets(&self) -> usize {
        self.n_sets
    }

    /// The sorted pair ids of set `id` (empty past the stored prefix).
    pub(crate) fn pair_ids(&self, id: usize) -> &[u32] {
        self.attrs_of.get(id).map_or(&[], Vec::as_slice)
    }

    /// Length of the stored per-set prefix.
    #[cfg(test)]
    pub(crate) fn stored_sets(&self) -> usize {
        self.attrs_of.len()
    }

    /// Records `pair_ids` for the next set, growing the stored prefix
    /// only for a set that has attributes.
    fn record(&mut self, pair_ids: Vec<u32>) {
        if !pair_ids.is_empty() {
            self.attrs_of.resize_with(self.n_sets, Vec::new);
            self.attrs_of.push(pair_ids);
        }
        self.n_sets += 1;
    }

    /// Number of distinct `(key, value)` pairs seen.
    pub fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no set carries any attribute (an all-default index; the
    /// persist layer skips the metadata block entirely for these).
    pub fn is_empty(&self) -> bool {
        // A set's pair ids index `pairs`: no pairs, no attributes.
        self.pairs.is_empty()
    }

    /// Registers the next set (id `n_sets()`) with its attributes.
    /// Duplicate pairs collapse. Returns the id the attributes were
    /// recorded under.
    pub fn push(&mut self, attrs: &[(String, String)]) -> SetId {
        let id = self.n_sets as SetId;
        let mut pair_ids: Vec<u32> = attrs.iter().map(|kv| self.intern(kv)).collect();
        pair_ids.sort_unstable();
        pair_ids.dedup();
        for &p in &pair_ids {
            self.postings[p as usize].insert(id);
        }
        self.record(pair_ids);
        id
    }

    /// Registers `count` attribute-less sets at once (bulk loads where
    /// no set carries attributes).
    pub fn push_empty(&mut self, count: usize) {
        self.n_sets += count;
    }

    /// The attributes of set `id` (empty for unknown ids).
    pub fn attrs(&self, id: SetId) -> Vec<(String, String)> {
        self.pair_ids(id as usize)
            .iter()
            .map(|&p| self.pairs[p as usize].clone())
            .collect()
    }

    fn intern(&mut self, kv: &(String, String)) -> u32 {
        if let Some(&p) = self.lookup.get(kv) {
            return p;
        }
        let p = self.pairs.len() as u32;
        self.pairs.push(kv.clone());
        self.lookup.insert(kv.clone(), p);
        self.postings.push(Bitmap::new());
        p
    }

    /// Evaluates a predicate to the bitmap of matching set ids — pure
    /// bitmap algebra over the postings. `And([])` matches all tracked
    /// sets, `Or([])` none.
    pub fn eval(&self, filter: &Filter) -> Bitmap {
        match filter {
            Filter::Eq { key, value } => self
                .lookup
                .get(&(key.clone(), value.clone()))
                .map(|&p| self.postings[p as usize].clone())
                .unwrap_or_default(),
            Filter::In { key, values } => {
                let mut acc = Bitmap::new();
                for v in values {
                    if let Some(&p) = self.lookup.get(&(key.clone(), v.clone())) {
                        acc.union_with(&self.postings[p as usize]);
                    }
                }
                acc
            }
            Filter::And(children) => match children.split_first() {
                None => self.all(),
                Some((first, rest)) => {
                    let mut acc = self.eval(first);
                    for c in rest {
                        if acc.is_empty() {
                            break;
                        }
                        acc = acc.intersect(&self.eval(c));
                    }
                    acc
                }
            },
            Filter::Or(children) => {
                let mut acc = Bitmap::new();
                for c in children {
                    acc.union_with(&self.eval(c));
                }
                acc
            }
        }
    }

    /// Every tracked set id.
    fn all(&self) -> Bitmap {
        let ids: Vec<u32> = (0..self.n_sets as u32).collect();
        Bitmap::from_sorted(&ids)
    }

    /// Evaluates a top-level conjunction to filtered-search candidates
    /// against `partitioning`. `None` when the conjunction is empty —
    /// the caller should serve the unfiltered hot path.
    pub fn candidates(
        &self,
        filters: &Filters,
        partitioning: &Partitioning,
    ) -> Option<FilterCandidates> {
        if filters.is_empty() {
            return None;
        }
        let matching = self.eval(&Filter::And(filters.0.clone()));
        Some(FilterCandidates::build(&matching, partitioning))
    }

    /// The interned `(key, value)` pairs, in pair-id order.
    pub(crate) fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// Rebuilds an index from its interned pairs (pair-id order) and each
    /// set's pair ids, rebuilding the postings and the lookup table. Every
    /// violated invariant — a duplicate pair, a pair id out of range, pair
    /// ids not strictly ascending — is an error, never a panic.
    pub(crate) fn from_parts(
        pairs: Vec<(String, String)>,
        mut attrs_of: Vec<Vec<u32>>,
    ) -> Result<Self, MetaError> {
        let mut lookup = HashMap::with_capacity(pairs.len());
        for (p, kv) in (0u32..).zip(&pairs) {
            if lookup.insert(kv.clone(), p).is_some() {
                return Err(MetaError::new("duplicate interned pair"));
            }
        }
        let mut postings = vec![Bitmap::new(); pairs.len()];
        for (id, pair_ids) in (0u32..).zip(&attrs_of) {
            if pair_ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(MetaError::new("pair ids not strictly ascending"));
            }
            for &p in pair_ids {
                postings
                    .get_mut(p as usize)
                    .ok_or_else(|| MetaError::new("pair id out of range"))?
                    .insert(id);
            }
        }
        let n_sets = attrs_of.len();
        let stored = attrs_of.iter().rposition(|ids| !ids.is_empty());
        attrs_of.truncate(stored.map_or(0, |last| last + 1));
        Ok(Self {
            pairs,
            lookup,
            postings,
            attrs_of,
            n_sets,
        })
    }
}

/// The precomputed inputs of one filtered query: the per-set match mask
/// (skips non-matching members inside verification windows) and the
/// distinct groups containing at least one matching set (the groups
/// phase A puts in the bound stream, global ids ascending).
#[derive(Debug, Clone, Default)]
pub struct FilterCandidates {
    /// Matching set ids as a dense mask (capacity = number of sets).
    pub(crate) sets: DenseBitSet,
    /// Distinct global group ids with ≥ 1 matching member, ascending.
    pub(crate) groups: Vec<u32>,
    /// Number of matching sets.
    pub(crate) n_matching: usize,
}

impl FilterCandidates {
    /// Derives the candidate structure from a matching-set bitmap. Bits
    /// at or beyond the partitioning's set count are ignored.
    pub fn build(matching: &Bitmap, partitioning: &Partitioning) -> Self {
        let mut words = vec![0u64; partitioning.n_sets().div_ceil(64)];
        matching.visit_words(|base, word| {
            if let Some(slot) = words.get_mut((base >> 6) as usize) {
                *slot = word;
            }
        });
        Self::from_words(&words, partitioning)
    }

    /// Derives the candidate structure from the per-set match mask as
    /// 64-bit words (bit `b` of `words[w]` set means set `64·w + b`
    /// matches; missing words are empty, and bits at or beyond the
    /// partitioning's set count are ignored).
    pub fn from_words(words: &[u64], partitioning: &Partitioning) -> Self {
        let mut out = Self::default();
        out.refill(partitioning, &mut Vec::new(), |w| {
            words.get(w).copied().unwrap_or(0)
        });
        out
    }

    /// [`FilterCandidates::from_words`] in place, pulling word `w` from
    /// `word_at(w)` for every word of the set range in increasing order
    /// and reusing this value's buffers plus the caller's `group_hit`
    /// flags — the words become the per-set mask as they are, and each
    /// set bit marks its group; nothing else is materialised.
    pub(crate) fn refill(
        &mut self,
        partitioning: &Partitioning,
        group_hit: &mut Vec<bool>,
        mut word_at: impl FnMut(usize) -> u64,
    ) {
        let n_sets = partitioning.n_sets();
        self.sets.reset(n_sets);
        self.n_matching = 0;
        group_hit.clear();
        group_hit.resize(partitioning.n_groups(), false);
        for w in 0..n_sets.div_ceil(64) {
            let mut word = word_at(w);
            let live = n_sets - w * 64;
            if live < 64 {
                word &= (1u64 << live) - 1;
            }
            self.sets.insert_word(w, word);
            self.n_matching += word.count_ones() as usize;
            while word != 0 {
                let id = (w * 64) as u32 + word.trailing_zeros();
                group_hit[partitioning.group_of(id) as usize] = true;
                word &= word - 1;
            }
        }
        self.groups.clear();
        self.groups.extend(
            (0u32..)
                .zip(&*group_hit)
                .filter(|&(_, &hit)| hit)
                .map(|(g, _)| g),
        );
    }

    /// Number of matching sets.
    pub fn n_matching(&self) -> usize {
        self.n_matching
    }

    /// Number of candidate groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Whether `id` matches the predicate.
    pub fn matches(&self, id: SetId) -> bool {
        self.sets.contains(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(k: &str, v: &str) -> (String, String) {
        (k.to_owned(), v.to_owned())
    }

    fn sample() -> MetadataIndex {
        let mut meta = MetadataIndex::new();
        meta.push(&[kv("lang", "en"), kv("tier", "gold")]); // 0
        meta.push(&[kv("lang", "de"), kv("tier", "gold")]); // 1
        meta.push(&[kv("lang", "en")]); // 2
        meta.push(&[]); // 3
        meta.push(&[kv("lang", "fr"), kv("tier", "silver")]); // 4
        meta
    }

    #[test]
    fn eq_and_in_match_postings() {
        let meta = sample();
        let en = meta.eval(&Filter::Eq {
            key: "lang".into(),
            value: "en".into(),
        });
        assert_eq!(en.to_vec(), vec![0, 2]);
        let some = meta.eval(&Filter::In {
            key: "lang".into(),
            values: vec!["de".into(), "fr".into(), "zz".into()],
        });
        assert_eq!(some.to_vec(), vec![1, 4]);
        let missing = meta.eval(&Filter::Eq {
            key: "nope".into(),
            value: "x".into(),
        });
        assert!(missing.is_empty());
    }

    #[test]
    fn and_or_identities() {
        let meta = sample();
        assert_eq!(
            meta.eval(&Filter::And(vec![])).to_vec(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(meta.eval(&Filter::Or(vec![])).is_empty());
        let gold_en = Filter::And(vec![
            Filter::Eq {
                key: "tier".into(),
                value: "gold".into(),
            },
            Filter::Eq {
                key: "lang".into(),
                value: "en".into(),
            },
        ]);
        assert_eq!(meta.eval(&gold_en).to_vec(), vec![0]);
        let either = Filter::Or(vec![
            Filter::Eq {
                key: "lang".into(),
                value: "fr".into(),
            },
            Filter::Eq {
                key: "lang".into(),
                value: "de".into(),
            },
        ]);
        assert_eq!(meta.eval(&either).to_vec(), vec![1, 4]);
    }

    #[test]
    fn candidates_split_sets_and_groups() {
        let meta = sample();
        let part = Partitioning::from_assignment(vec![0, 0, 1, 1, 2], 4);
        let cand = meta
            .candidates(
                &Filters(vec![Filter::Eq {
                    key: "lang".into(),
                    value: "en".into(),
                }]),
                &part,
            )
            .expect("non-empty conjunction");
        assert_eq!(cand.n_matching(), 2);
        assert_eq!(cand.groups, vec![0, 1]);
        assert!(cand.matches(0) && cand.matches(2));
        assert!(!cand.matches(1) && !cand.matches(3) && !cand.matches(4));
        assert!(meta.candidates(&Filters::none(), &part).is_none());
    }

    #[test]
    fn filter_caps_are_enforced() {
        let mut deep = Filter::Eq {
            key: "k".into(),
            value: "v".into(),
        };
        for _ in 0..MAX_FILTER_DEPTH {
            deep = Filter::And(vec![deep]);
        }
        assert!(deep.check_caps().is_err());
        let wide = Filter::In {
            key: "k".into(),
            values: (0..MAX_FILTER_NODES).map(|i| i.to_string()).collect(),
        };
        assert!(wide.check_caps().is_err());
        let long = Filter::Eq {
            key: "k".repeat(MAX_ATTR_STR + 1),
            value: "v".into(),
        };
        assert!(long.check_caps().is_err());
        let fine = Filter::And(vec![Filter::Eq {
            key: "k".into(),
            value: "v".into(),
        }]);
        assert!(fine.check_caps().is_ok());
    }
}
