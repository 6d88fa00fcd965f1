//! # LES3 — Learning-based Exact Set Similarity Search
//!
//! A from-scratch Rust reproduction of *LES3: Learning-based Exact Set
//! Similarity Search* (Li, Yu, Koudas; PVLDB 14(11), 2021). Given a
//! database of token sets, LES3 answers exact kNN and range similarity
//! queries by partitioning the database into groups, indexing the
//! token↔group incidence in a compressed bitmap (the token-group matrix,
//! TGM), and pruning whole groups with per-group similarity upper bounds.
//!
//! The workspace is re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `les3-core` | TGM/HTGM indexes, kNN & range search, updates, disk variant |
//! | [`net`] | `les3-net` | HTTP/1.1 + JSON serving layer and the `les3-serve` binary |
//! | [`partition`] | `les3-partition` | PTR representations, GPO objectives, PAR-C/D/A/G, L2P cascade |
//! | [`data`] | `les3-data` | set databases, generators, Table-2 dataset emulators |
//! | [`nn`] | `les3-nn` | MLP + Adam + Siamese training (replaces PyTorch) |
//! | [`bitmap`] | `les3-bitmap` | Roaring-style compressed bitmaps |
//! | [`baselines`] | `les3-baselines` | brute force, InvIdx, DualTrans, ScalarTrans |
//! | [`rtree`] | `les3-rtree` | R-tree substrate for DualTrans |
//! | [`bptree`] | `les3-bptree` | B+-tree substrate for ScalarTrans |
//! | [`storage`] | `les3-storage` | HDD/SSD cost simulation for disk experiments |
//!
//! # End-to-end example
//!
//! ```
//! use les3::prelude::*;
//!
//! // 1. A database of token sets (here: synthetic Zipfian data).
//! let db = ZipfianGenerator::new(500, 300, 8.0, 1.1).generate(42);
//!
//! // 2. Learn a partitioning with the L2P cascade over PTR representations.
//! let reps = RepMatrix::from_representation(&db, &Ptr::new(db.universe_size()));
//! let cfg = L2pConfig {
//!     target_groups: 16,
//!     init_groups: 4,
//!     pairs_per_model: 500,
//!     ..Default::default()
//! };
//! let partitioning = L2p::new(cfg).partition(&db, &reps);
//!
//! // 3. Build the index and query it.
//! let index = Les3Index::build(db, partitioning.finest().clone(), Jaccard);
//! let query = index.db().set(7).to_vec();
//! let top10 = index.knn(&query, 10);
//! assert_eq!(top10.hits.len(), 10);
//! assert_eq!(top10.hits[0].0, 7); // the set itself is its own 1-NN
//! let close = index.range(&query, 0.8);
//! assert!(close.hits.iter().all(|&(_, s)| s >= 0.8));
//!
//! // `knn`/`range` are shorthands over the one entry point, `search`:
//! // a `Query` names every axis (kind, mask, ctl, approx).
//! let anytime = Query { approx: ApproxPolicy::Anytime, ..Query::range(&query, 0.8) };
//! let (same, _) = index.search(&anytime, &mut QueryScratch::new()).unwrap();
//! assert_eq!(same, close); // hits and stats: no deadline, nothing to commit early
//! ```

pub use les3_baselines as baselines;
pub use les3_bitmap as bitmap;
pub use les3_bptree as bptree;
pub use les3_core as core;
pub use les3_data as data;
pub use les3_net as net;
pub use les3_nn as nn;
pub use les3_partition as partition;
pub use les3_rtree as rtree;
pub use les3_storage as storage;

/// The most common imports for working with LES3.
pub mod prelude {
    pub use les3_baselines::{BruteForce, DualTrans, InvIdx, ScalarTrans, SetSimSearch};
    pub use les3_core::{
        normalize_query, ApproxInfo, ApproxParams, ApproxPolicy, Cosine, DeletionLog, Dice,
        DiskLes3, DurableIndex, DurableOptions, FsyncPolicy, HierarchicalPartitioning, Htgm,
        InterruptReason, Interrupted, Jaccard, Kind, Les3Index, LiveIndex, MinHashIndex, OnFull,
        OverlapCoefficient, Partitioning, PersistError, PersistentBackend, Query, QueryCtl,
        QueryScratch, Request, Route, SearchOutcome, SearchResult, SearchStats, ServeConfig,
        ServeError, ServeFront, ServeResult, ShardedLes3Index, Similarity, SubmitOpts, Tgm, Ticket,
    };
    pub use les3_data::realistic::DatasetSpec;
    pub use les3_data::zipfian::ZipfianGenerator;
    pub use les3_data::{DatasetStats, SetDatabase, SetId, TokenId};
    pub use les3_net::{HttpServer, NetConfig, SnapshotError, SnapshotFn};
    pub use les3_partition::l2p::{L2p, L2pConfig, L2pResult};
    pub use les3_partition::rep::{Ptr, PtrHalf, RepMatrix, SetRepresentation};
    pub use les3_partition::{ParA, ParC, ParD, ParG};
    pub use les3_storage::DiskModel;
}
