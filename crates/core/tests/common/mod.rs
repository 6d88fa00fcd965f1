//! Shared by the integration suites: one way to run a [`Query`] literal
//! and one digest for pinning bytes to recorded values.
#![allow(dead_code)] // each suite uses its own subset

use les3_core::{PersistentBackend, Query, QueryScratch, SearchResult};

/// Runs `q` on a fresh scratch; the query must complete.
pub fn run<B: PersistentBackend>(index: &B, q: Query<'_>) -> SearchResult {
    index
        .sharded()
        .search(&q, &mut QueryScratch::default())
        .expect("query was interrupted")
        .0
}

/// 64-bit FNV-1a, for pinning bytes recorded at an earlier commit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
