//! Shared by the integration suites: one way to run a [`Query`] literal.
#![allow(dead_code)] // each suite uses its own subset

use les3_core::{Query, SearchResult, ServeBackend};

/// Runs `q` on a fresh scratch; the query must complete.
pub fn run<B: ServeBackend>(index: &B, q: Query<'_>) -> SearchResult {
    index
        .search(&q, &mut B::Scratch::default())
        .expect("query was interrupted")
        .0
}
