//! Chunked compressed bitmaps for LES3's attribute filters.
//!
//! A [`Bitmap`] is a set of `u32` values in the container layout of
//! Roaring (Lemire et al., 2018):
//!
//! * the key space is split into 2^16 *chunks* keyed by the high 16 bits
//!   of each value;
//! * each chunk holds a sorted [`ArrayContainer`](array::ArrayContainer)
//!   of at most [`ARRAY_TO_BITS_THRESHOLD`] values or, past it, a fixed
//!   8 KiB [`BitsContainer`](bits::BitsContainer), converting on insert
//!   and after set algebra.
//!
//! Its caller is the attribute postings of `les3-core` (`metadata.rs`):
//! [`Bitmap::from_sorted`] and [`Bitmap::insert`] to build a posting,
//! [`Bitmap::union_with`] and [`Bitmap::intersect`] to evaluate a filter,
//! and [`Bitmap::visit_words`] to turn its result into a per-set mask.
//! The token-group matrix does not use it: at the group counts LES3
//! indexes a column is one chunk, so `les3-core` keeps each column as a
//! sorted list of groups and only models Roaring's size for the paper's
//! Figure 11.
//!
//! A bitmap has no byte format of its own: nothing stores one (a saved
//! index keeps the sets and their attributes and rebuilds the postings).
//!
//! The crate also provides [`DenseBitSet`], the reusable flat bitset a
//! filtered query's per-set mask and a kNN query's token membership are
//! both built in, so the query hot path allocates nothing.
//!
//! # Example
//!
//! ```
//! use les3_bitmap::Bitmap;
//!
//! let mut sets_with_attr = Bitmap::new();
//! sets_with_attr.insert(3);
//! sets_with_attr.insert(17);
//! sets_with_attr.insert(65_536);
//! assert!(sets_with_attr.contains(17));
//! assert_eq!(sets_with_attr.len(), 3);
//! assert_eq!(sets_with_attr.iter().collect::<Vec<_>>(), vec![3, 17, 65_536]);
//! ```

pub mod array;
pub mod bits;
pub mod container;
pub mod iter;
pub mod kernel;

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
