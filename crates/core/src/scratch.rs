//! Reusable per-query working memory.
//!
//! Every buffer the query hot path needs — overlap counters, the
//! candidate-group mask, the bucket histogram and the verification order —
//! lives in one [`QueryScratch`] that callers (and the batch executors,
//! one per worker thread) reuse across queries, so steady-state query
//! execution performs no heap allocation.

use les3_bitmap::DenseBitSet;

use crate::approx::PrefilterScratch;

/// Working memory for one in-flight query.
///
/// Create once (e.g. per thread) and pass to
/// [`crate::Les3Index::knn_with`] / [`crate::Les3Index::range_with`];
/// buffers grow to the high-water mark of the workload and stay there.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
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
    /// Groups in verification order with their upper bounds.
    pub(crate) bounds: Vec<(u32, f64)>,
    /// The candidate mask of a prefiltered query and its inputs.
    pub(crate) prefilter: PrefilterScratch,
}

impl QueryScratch {
    /// Creates empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Working memory for one in-flight query against a
/// [`crate::shard::ShardedLes3Index`]: one [`QueryScratch`] per shard
/// (each shard's filter pass is independent) plus the cross-shard merge
/// state. Create once per thread and reuse; the sharded batch executor
/// keeps one per worker.
#[derive(Debug, Clone, Default)]
pub struct ShardedScratch {
    /// Per-shard filter scratch (counts + bucket offsets).
    pub(crate) per_shard: Vec<QueryScratch>,
    /// Per-shard group streams in verification order (filter output).
    pub(crate) filters: Vec<crate::shard::ShardFilter>,
    /// Per-shard cursor into `filters` during the cross-shard descent.
    pub(crate) cursors: Vec<usize>,
    /// The materialized `(shard, bound)` merge of all per-shard filter
    /// streams, in global verification order — built only by the
    /// intra-query parallel path (the sequential descent merges
    /// cursor-wise without materializing).
    pub(crate) merged: Vec<(u32, crate::shard::ShardBound)>,
    /// Per-shard local candidate-group lists of a filtered query.
    pub(crate) cand_locals: Vec<Vec<u32>>,
    /// The candidate mask of a prefiltered query and its inputs.
    pub(crate) prefilter: PrefilterScratch,
}

impl ShardedScratch {
    /// Creates empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the per-shard buffers exist for `n_shards`.
    pub(crate) fn ensure(&mut self, n_shards: usize) {
        if self.per_shard.len() < n_shards {
            self.per_shard.resize_with(n_shards, QueryScratch::new);
            self.filters.resize_with(n_shards, Default::default);
        }
        self.cursors.clear();
        self.cursors.resize(n_shards, 0);
    }
}

/// Per-worker scratch usable by the serving front's persistent workers
/// ([`crate::serve::ServeFront`]).
///
/// The front's worker pool keeps one scratch per worker for the pool's
/// whole lifetime, reused across every batch the worker executes. When a
/// query panics mid-execution its scratch may be left with internal
/// invariants violated (e.g. `QueryScratch::restricted`'s all-zero
/// contract), so the panic-isolation path calls [`WorkerScratch::reset`]
/// before the worker touches the next request.
pub trait WorkerScratch: Default + Send + 'static {
    /// Restores every buffer invariant, discarding any state a panicked
    /// query may have left mid-update.
    fn reset(&mut self) {
        *self = Self::default();
    }

    /// Where a prefiltered query keeps its candidate mask.
    #[doc(hidden)]
    fn prefilter(&mut self) -> &mut PrefilterScratch;
}

impl WorkerScratch for QueryScratch {
    fn prefilter(&mut self) -> &mut PrefilterScratch {
        &mut self.prefilter
    }
}

impl WorkerScratch for ShardedScratch {
    fn prefilter(&mut self) -> &mut PrefilterScratch {
        &mut self.prefilter
    }
}
