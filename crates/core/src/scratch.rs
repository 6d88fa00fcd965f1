//! Reusable per-query working memory.
//!
//! Every buffer the query hot path needs — overlap counters, the
//! candidate-group mask, the bucket histogram, the bound stream, the kNN
//! query's token bitset — lives
//! in one [`QueryScratch`] that callers (and the batch kNN and the
//! serving front, one per thread) reuse across queries, so
//! steady-state query execution performs no heap allocation. There is one engine and therefore one
//! scratch type ([`ShardedScratch`] is an alias of it), and a scratch is
//! not tied to an index: every query sizes the buffers it uses, so one
//! scratch may alternate between indexes of any shape — a front worker's
//! serves the default route and every namespace.

use les3_bitmap::DenseBitSet;

use crate::approx::PrefilterScratch;
use crate::shard::GroupBound;
use crate::sim::QueryBits;

/// Working memory of one TGM's filter pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct FilterScratch {
    /// Dense per-group overlap counts (full filter pass).
    pub(crate) counts: Vec<u32>,
    /// Dense counts for candidate-restricted passes. Invariant: all-zero
    /// between uses (restored by the restricted kernel).
    pub(crate) restricted: Vec<u32>,
    /// Candidate-group mask for restricted passes.
    pub(crate) mask: DenseBitSet,
    /// Counts parallel to a candidate list (restricted pass output).
    pub(crate) restricted_out: Vec<u32>,
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
    /// A kNN query's membership bitset (each load clears the words the
    /// previous one set).
    pub(crate) bits: QueryBits,
}

/// [`QueryScratch`], under the name the repository benchmark still
/// calls it by (ROADMAP 1(f)).
pub type ShardedScratch = QueryScratch;

impl QueryScratch {
    /// Creates empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Restores every buffer invariant, discarding any state a panicked
    /// query may have left mid-update (e.g. the restricted-count
    /// buffer's all-zero contract). The serving front's panic-isolation
    /// path calls this before its worker touches the next request.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}
