//! Set databases and workload generators for the LES3 reproduction.
//!
//! The paper evaluates on six real datasets (Table 2: KOSARAK, LIVEJ, DBLP,
//! AOL, FS, PMC) plus synthetic databases with power-law-distributed
//! pairwise similarity (§7.7). Those datasets are external downloads, so
//! this crate provides:
//!
//! * [`SetDatabase`] — the storage format shared by every index and
//!   baseline: a CSR-style flattened collection of token-sorted sets;
//! * [`zipfian`] — heavy-tailed token popularity, the realistic case;
//! * [`realistic`] — scaled-down emulators matching the per-dataset shape
//!   statistics of Table 2;
//! * [`query`] — query workload sampling (the paper draws 10 000 database
//!   sets per experiment);
//! * [`tokenizer`] — string → token-set conversion for the data-cleaning
//!   example (approximate string matching).
//!
//! # Example
//!
//! ```
//! use les3_data::zipfian::ZipfianGenerator;
//!
//! let db = ZipfianGenerator::new(1_000, 500, 8.0, 1.1).generate(42);
//! assert_eq!(db.len(), 1_000);
//! let stats = db.stats();
//! assert!(stats.avg_size > 1.0);
//! ```

pub mod db;
pub mod query;
pub mod rand_util;
pub mod realistic;
pub mod stats;
pub mod tokenizer;
pub mod zipfian;

pub use db::{SetDatabase, SetId, TokenId};
pub use stats::DatasetStats;
