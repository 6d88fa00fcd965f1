//! LES3: learning-based exact set similarity search — core index and
//! query processing (paper §2, §3, §6).
//!
//! LES3 answers exact kNN and range set-similarity queries with a
//! filter-and-verify strategy: the database is partitioned into
//! non-overlapping groups, and a light-weight bitmap index — the
//! *token-group matrix* ([`Tgm`]) — records which tokens appear in which
//! groups. For a query `Q`, a single pass over `Q`'s token columns yields a
//! similarity **upper bound** for every group (Theorem 3.1); groups whose
//! bound cannot beat the threshold (range) or the current k-th result
//! (kNN) are pruned wholesale, and only surviving groups are verified
//! set-by-set.
//!
//! Entry points:
//!
//! * [`Query`] — the one query descriptor: [`Kind`] (`Knn(k)` or
//!   `Range(δ)`), an optional candidate `mask` (attribute filter or LSH
//!   prefilter), `ctl` (deadline / cancellation) and `approx`
//!   ([`ApproxPolicy`]: `Exact`, `Anytime`, which commits the partial
//!   answer when the deadline passes, or a MinHash `Prefilter` — an
//!   in-memory library policy: no segment, server flag or wire field
//!   reaches it). One body runs it, on the calling thread,
//!   [`ShardedLes3Index::search`]; `knn`, `range` and the other named
//!   methods are single expressions over it, and a served [`Request`]
//!   carries the same fields;
//! * [`ShardedLes3Index`] — the one memory-resident engine over a
//!   [`SetDatabase`](les3_data::SetDatabase) and a [`Partitioning`]:
//!   one [`Tgm`] and one verification order. Its name and the ignored
//!   layout arguments of its `build` ([`ShardPolicy`], [`ShardedScratch`])
//!   stay until the repository benchmark stops naming them;
//! * [`Les3Index`] — that engine under the constructor without layout
//!   arguments (it derefs to the engine: every query and update method is
//!   the engine's own); both types save the same segment bytes;
//! * [`LiveIndex`] — an engine together with the [`DeletionLog`] and
//!   [`MetadataIndex`] that describe it: the one owner of inserts,
//!   deletes, attribute-filtered search and snapshots, which
//!   [`DurableIndex`] (adds the WAL), [`Namespace`] (adds a lock) and
//!   [`ServeFront::from_live`] all hold;
//! * [`ServeFront`] — the asynchronous serving front: single requests
//!   from many producer threads pass an admission gate (bounded queue,
//!   deadlines, cancellation) onto a persistent panic-isolating worker
//!   pool, with results bit-for-bit identical to direct calls;
//! * [`DiskLes3`] — disk-resident variant with group-contiguous layout
//!   (§7.6, Figure 13);
//! * [`sim`] — the similarity measures (Jaccard, Dice, Cosine, overlap
//!   coefficient) and the TGM applicability property they satisfy.
//!
//! # The query hot path
//!
//! Queries are engineered to be allocation-free and word-parallel in
//! steady state:
//!
//! * the filter pass counts group overlaps over the query's sorted TGM
//!   columns ([`Tgm::group_overlaps_into`]), one increment per entry —
//!   a range only its rarest columns, then the rest over the groups
//!   those reach;
//! * candidate groups are ordered by **bucketed descending selection** in
//!   `O(G + |Q|)` — no sort on the hot path;
//! * verification stores each group's members length-sorted, cuts the
//!   inadmissible length range with two binary searches (for a kNN the
//!   range is capped by the group's TGM overlap count), and abandons
//!   each candidate as soon as its overlap cannot reach the threshold,
//!   through one hook ([`Similarity::eval_prepared`]) — a kNN counts by
//!   looking candidate tokens up in the query's bitset, a range by
//!   merging — all exact, per Theorem 3.1;
//! * callers that issue many queries reuse a [`QueryScratch`]
//!   ([`ShardedLes3Index::knn_with`] / [`ShardedLes3Index::range_with`]);
//!   [`Les3Index::knn_batch_on`] gives each of its threads one
//!   contiguous chunk of a batch and one scratch.
//! * [`SearchStats`] reports the true work performed, including
//!   `early_exits` (abandoned merges) and `size_skipped` (members cut by
//!   the length window).
//!
//! # Quickstart
//!
//! ```
//! use les3_core::{Les3Index, Partitioning};
//! use les3_core::sim::Jaccard;
//! use les3_data::SetDatabase;
//!
//! let db = SetDatabase::from_sets(vec![
//!     vec![0u32, 1, 2],
//!     vec![0, 1, 3],
//!     vec![7, 8, 9],
//! ]);
//! // Any partitioning works; L2P (les3-partition) learns a good one.
//! let part = Partitioning::from_assignment(vec![0, 0, 1], 2);
//! let index = Les3Index::build(db, part, Jaccard);
//! let res = index.knn(&[0, 1, 2], 2);
//! assert_eq!(res.hits[0].0, 0); // exact match first
//!
//! // The same search spelled out: `knn` is `search` with the defaults.
//! use les3_core::{ApproxInfo, ApproxPolicy, Query, QueryScratch};
//! let query = Query::knn(&[0, 1, 2], 2);
//! let (same, info) = index.search(&query, &mut QueryScratch::new()).unwrap();
//! assert_eq!((same, info), (res, ApproxInfo::EXACT));
//! // Every axis is a field: range instead of kNN, committing a partial
//! // answer if a deadline passed (none is set, so it completes).
//! let range = Query { approx: ApproxPolicy::Anytime, ..Query::range(&[0, 1, 2], 0.5) };
//! let (close, _) = index.search(&range, &mut QueryScratch::new()).unwrap();
//! assert_eq!(close, index.range(&[0, 1, 2], 0.5));
//! ```

pub mod approx;
pub mod batch;
pub mod ctl;
pub mod delete;
pub mod disk;
pub mod index;
pub mod live;
pub mod metadata;
pub mod namespace;
pub mod partitioning;
pub mod persist;
pub mod query;
pub mod scratch;
pub mod serve;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod sync;
pub mod tgm;
pub mod update;

/// Internal protocol pieces re-exported for the exhaustive concurrency
/// models in `tests/model_check.rs` (see `docs/CONCURRENCY.md`). Not
/// public API: shapes and names may change without notice.
#[doc(hidden)]
pub mod model_support {
    pub use crate::batch::WorkerPool;
    pub use crate::serve::FrontShared;
}

pub use approx::{ApproxInfo, ApproxParams, ApproxPolicy, MinHashIndex};
pub use ctl::{InterruptReason, Interrupted, QueryCtl};
pub use delete::DeletionLog;
pub use disk::DiskLes3;
pub use index::{Les3Index, SearchResult};
pub use live::LiveIndex;
pub use metadata::{Filter, FilterCandidates, Filters, MetaError, MetadataIndex};
pub use namespace::{Namespace, NamespaceError, NamespaceInfo, NamespaceSpec, Namespaces};
pub use partitioning::Partitioning;
pub use persist::{DurableIndex, DurableOptions, FsyncPolicy, PersistError, PersistentBackend};
pub use query::{Kind, Query, SearchOutcome};
pub use scratch::{QueryScratch, ShardedScratch};
pub use serve::{
    OnFull, Request, Route, ServeConfig, ServeError, ServeFront, ServeResult, SubmitOpts, Ticket,
};
pub use shard::{ShardPolicy, ShardedLes3Index};
pub use sim::{
    normalize_query, Cosine, Dice, Jaccard, OverlapCoefficient, PreparedQuery, QueryBits,
    Similarity, ThresholdedEval,
};
pub use stats::SearchStats;
pub use tgm::Tgm;
