//! Reusable per-query working memory.
//!
//! Every buffer the query hot path needs — per-shard overlap counters,
//! candidate-group masks and bucket histograms, the per-shard group
//! streams, the cross-shard merge state — lives in one [`QueryScratch`]
//! that callers (and the batch executor and the serving front, one per
//! worker thread) reuse across queries, so steady-state query execution
//! performs no heap allocation. There is one engine and therefore one
//! scratch type ([`ShardedScratch`] is an alias of it), and a scratch is
//! not tied to an index: every query sizes the buffers it uses, so one
//! scratch may alternate between indexes of any shape — a front worker's
//! serves the default route and every namespace.

use les3_bitmap::DenseBitSet;

use crate::approx::PrefilterScratch;
use crate::shard::ShardFilter;

/// Working memory of one TGM's filter pass (one per shard: the shards'
/// passes are independent and may run on different threads).
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
    /// Per-shard filter scratch.
    pub(crate) per_shard: Vec<FilterScratch>,
    /// Per-shard group streams in verification order (filter output).
    pub(crate) filters: Vec<ShardFilter>,
    /// Per-shard position in `filters`: the cursor of the cross-shard
    /// kNN descent, or the end of a range's surviving prefix.
    pub(crate) cursors: Vec<usize>,
    /// Per-shard local candidate-group lists of a filtered query.
    pub(crate) cand_locals: Vec<Vec<u32>>,
    /// Groups in verification order with their upper bounds (the output
    /// of [`crate::Les3Index::group_upper_bounds_with`]).
    pub(crate) bounds: Vec<(u32, f64)>,
    /// The candidate mask of a prefiltered query and its inputs.
    pub(crate) prefilter: PrefilterScratch,
}

/// [`QueryScratch`], under the name callers of a
/// [`crate::ShardedLes3Index`] know it by.
pub type ShardedScratch = QueryScratch;

impl QueryScratch {
    /// Creates empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the per-shard buffers exist for `n_shards` and zeroes
    /// the cursors.
    pub(crate) fn ensure(&mut self, n_shards: usize) {
        if self.per_shard.len() < n_shards {
            self.per_shard.resize_with(n_shards, Default::default);
            self.filters.resize_with(n_shards, Default::default);
        }
        self.cursors.clear();
        self.cursors.resize(n_shards, 0);
    }

    /// Restores every buffer invariant, discarding any state a panicked
    /// query may have left mid-update (e.g. the restricted-count
    /// buffer's all-zero contract). The serving front's panic-isolation
    /// path calls this before its worker touches the next request.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}
