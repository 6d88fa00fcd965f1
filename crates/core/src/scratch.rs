//! Reusable per-query working memory.
//!
//! Every buffer the query hot path needs — overlap counters, the bucket
//! histogram, the bound stream, the kNN query's token bitset, the verify
//! windows' caches — lives in one [`QueryScratch`] that callers (and the
//! batch kNN and the serving front, one per thread) reuse across queries,
//! so steady-state query execution performs no heap allocation. There is
//! one engine and therefore one scratch type ([`ShardedScratch`] is an
//! alias of it), and a scratch is not tied to an index: every query sizes
//! the buffers it uses, so one scratch may alternate between indexes of
//! any shape — a front worker's serves the default route and every
//! namespace.

use crate::approx::PrefilterScratch;
use crate::index::WindowCache;
use crate::shard::GroupBound;
use crate::sim::QueryBits;

/// Working memory of one TGM's filter pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct FilterScratch {
    /// Dense per-group overlap counts.
    pub(crate) counts: Vec<u32>,
    /// The query's distinct tokens with their column lengths, rarest
    /// first up to the counted prefix.
    pub(crate) columns: Vec<(usize, les3_data::TokenId)>,
    /// The groups a range's overlap can still reach, ascending.
    pub(crate) survivors: Vec<u32>,
    /// Bucket histogram / offsets for the `O(G + |Q|)` descending
    /// selection (indexed by overlap count `r ∈ 0..=|Q|`).
    pub(crate) offsets: Vec<u32>,
}

/// Working memory for one in-flight query.
///
/// Create once (e.g. per thread) and pass to
/// [`crate::ShardedLes3Index::knn_with`] /
/// [`crate::ShardedLes3Index::range_with`] (on either index type);
/// buffers grow to the high-water mark of the workload and stay there.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// The filter pass's kernel scratch.
    pub(crate) filter: FilterScratch,
    /// The groups in verification order (the filter pass's output).
    pub(crate) stream: Vec<GroupBound>,
    /// Groups in verification order with their upper bounds (the output
    /// of [`crate::Les3Index::group_upper_bounds_with`]).
    pub(crate) bounds: Vec<(u32, f64)>,
    /// The candidate mask of a prefiltered query and its inputs.
    pub(crate) prefilter: PrefilterScratch,
    /// A kNN query's membership bitset, a `DenseBitSet` (each load
    /// clears the words the previous one set).
    pub(crate) bits: QueryBits,
    /// The verify windows' length limits by overlap cap `c ∈ 0..=|Q|`
    /// and minimal overlaps by member length, at the query's current
    /// threshold: computed once per threshold, stamped per query and
    /// threshold, so nothing is cleared between queries.
    pub(crate) window: WindowCache,
}

/// [`QueryScratch`], under the name the repository benchmark still
/// calls it by (ROADMAP 1(f)).
pub type ShardedScratch = QueryScratch;

impl QueryScratch {
    /// Creates empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every buffer, discarding whatever state a panicked query
    /// may have left mid-update. The serving front's panic-isolation
    /// path calls this before its worker touches the next request.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}
