//! Roaring-style compressed bitmap.
//!
//! The LES3 paper stores its token-group matrix (TGM) as "essentially a
//! bitmap index" and compresses it with Roaring (Lemire et al., 2018,
//! reference \[41\] of the paper). This crate is a from-scratch Rust
//! implementation of the same container-based design:
//!
//! * the `u32` key space is split into 2^16 *chunks* keyed by the high
//!   16 bits of each value;
//! * each chunk holds one of three container kinds:
//!   a sorted [`ArrayContainer`](array::ArrayContainer) (≤ 4096 values),
//!   a fixed 8 KiB [`BitsContainer`](bits::BitsContainer), or a run-length
//!   encoded [`RunContainer`](run::RunContainer);
//! * containers convert between representations automatically on mutation
//!   and explicitly via [`Bitmap::run_optimize`].
//!
//! The crate has two callers, both in `les3-core`, and carries what they
//! use:
//!
//! * the TGM's token columns (`tgm.rs`) — [`Bitmap::from_sorted`] and
//!   [`Bitmap::run_optimize`] for builds, [`Bitmap::insert`],
//!   [`Bitmap::remove`] for live updates, for phase A [`Bitmap::len`]
//!   (the column-length pass), the counting kernel [`Bitmap::count_into`]
//!   and [`Bitmap::contains`] (survivor probes), and [`Bitmap::len`] plus
//!   [`Bitmap::serialized_size_in_bytes`] for the index size (Figure 11
//!   of the paper reports it);
//! * the attribute postings (`metadata.rs`) — [`Bitmap::from_sorted`],
//!   [`Bitmap::insert`], [`Bitmap::union_with`] and [`Bitmap::intersect`]
//!   to evaluate a filter, and [`Bitmap::visit_words`] to turn its result
//!   into a per-set mask.
//!
//! A bitmap has no byte format of its own: nothing stores one (a saved
//! index keeps the sets and the assignment, and its TGM is rebuilt from
//! them), so [`Bitmap::serialized_size_in_bytes`] is a size model only.
//!
//! The query hot path does not iterate values one by one: the
//! [`kernel`] module provides the word-parallel counting kernel
//! ([`Bitmap::count_into`]) that streams 64-bit container words and
//! decodes them with `trailing_zeros`, so the per-query filter pass is
//! allocation-free and touches each word once, plus the reusable
//! [`DenseBitSet`]: a filtered query's per-set mask and a kNN query's
//! token membership bitset are both one.
//!
//! # Example
//!
//! ```
//! use les3_bitmap::Bitmap;
//!
//! let mut groups_with_token = Bitmap::new();
//! groups_with_token.insert(3);
//! groups_with_token.insert(17);
//! groups_with_token.insert(65_536);
//! assert!(groups_with_token.contains(17));
//! assert_eq!(groups_with_token.len(), 3);
//! assert_eq!(groups_with_token.iter().collect::<Vec<_>>(), vec![3, 17, 65_536]);
//! ```

pub mod array;
pub mod bits;
pub mod container;
pub mod iter;
pub mod kernel;
pub mod run;

mod bitmap;

pub use bitmap::Bitmap;
pub use container::Container;
pub use iter::BitmapIter;
pub use kernel::DenseBitSet;

/// Maximum cardinality at which a chunk stays an array container.
///
/// Above this a dense `BitsContainer` (fixed 8 KiB) is smaller than a sorted
/// `u16` array (2 bytes per element), matching the classic Roaring threshold.
pub const ARRAY_TO_BITS_THRESHOLD: usize = 4096;
