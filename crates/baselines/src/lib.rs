//! Baselines compared against LES3 (paper §7.6).
//!
//! * [`BruteForce`] — scan everything; surprisingly competitive at low
//!   thresholds / large k, which the paper stresses;
//! * [`InvIdx`] — inverted index with prefix + length filtering (the
//!   state-of-the-art filter stack of Wang et al. \[67\]); kNN support via
//!   the decreasing-δ adaptation described in §7.6;
//! * [`DualTrans`] — the transformation-based framework of Zhang et al.
//!   \[73\]: sets become d-dimensional frequency-bucket vectors indexed in
//!   an R-tree, searched branch-and-bound with admissible bounds;
//! * [`ScalarTrans`] — a B+-tree over a scalar image of each set in the
//!   spirit of Zhang et al. \[72\]; the scalar used here is the set size,
//!   whose length filter (`|S| ∈ [δ|Q|, |Q|/δ]`) is the admissible core
//!   of that method (documented simplification).
//!
//! Every baseline implements [`SetSimSearch`], answers **exactly** the
//! same queries as LES3 (verified by cross-checking tests), and reports
//! index size plus per-query [`les3_core::SearchStats`]. Disk variants with
//! simulated I/O live in [`disk`].

pub mod brute;
pub mod disk;
pub mod dualtrans;
pub mod invidx;
pub mod scalartrans;

pub use brute::BruteForce;
pub use dualtrans::DualTrans;
pub use invidx::InvIdx;
pub use scalartrans::ScalarTrans;

use les3_core::index::SearchResult;
use les3_data::TokenId;

/// Common interface over all exact set-similarity search methods.
pub trait SetSimSearch {
    /// Method name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Exact kNN query (Definition 2.1).
    fn knn(&self, query: &[TokenId], k: usize) -> SearchResult;

    /// Exact range query (Definition 2.2).
    fn range(&self, query: &[TokenId], delta: f64) -> SearchResult;

    /// Heap bytes of the index structure (Figure 11).
    fn index_size_in_bytes(&self) -> usize;
}

// `Les3Index` derefs to the engine that has these as inherent methods;
// going through `**self` keeps each call from resolving back to this
// trait's method of the same name.
impl<S: les3_core::Similarity> SetSimSearch for les3_core::Les3Index<S> {
    fn name(&self) -> &'static str {
        "LES3"
    }

    fn knn(&self, query: &[TokenId], k: usize) -> SearchResult {
        (**self).knn(query, k)
    }

    fn range(&self, query: &[TokenId], delta: f64) -> SearchResult {
        (**self).range(query, delta)
    }

    fn index_size_in_bytes(&self) -> usize {
        (**self).index_size_in_bytes()
    }
}
