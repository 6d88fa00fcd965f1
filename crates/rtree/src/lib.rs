//! R-tree over d-dimensional points.
//!
//! Substrate for the DualTrans baseline (\[73\] in the LES3 paper), which
//! transforms sets into d-dimensional vectors and indexes them in an
//! R-tree for branch-and-bound similarity search. The paper's critique of
//! this design (R-tree nodes overlap badly in higher dimensions, and
//! scanning the tree is expensive relative to cheap set-similarity
//! verification) is reproduced by the `paper` benchmark (Figures 12/13),
//! so the tree counts every node visit.
//!
//! Features:
//! * [`RTree::bulk_load`] — Sort-Tile-Recursive packing (used to build the
//!   baseline index);
//! * [`RTree::insert`] — classic least-enlargement insertion with linear
//!   node splits (used by update experiments);
//! * [`RTree::search`] — generic guided traversal: the caller prunes
//!   subtrees from their MBR, which is how DualTrans applies its
//!   similarity upper bounds;
//! * [`BestFirst`] — pull-based best-first traversal for kNN-style search
//!   with caller-supplied score bounds.

pub mod node;
pub mod rect;
pub mod search;
pub mod tree;

pub use rect::Rect;
pub use search::{BestFirst, Scored};
pub use tree::{RTree, TraversalStats};
