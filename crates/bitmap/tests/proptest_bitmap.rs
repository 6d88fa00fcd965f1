//! Property tests: the compressed bitmap must agree with `BTreeSet` on every
//! operation, across container representations and chunk boundaries.

use les3_bitmap::Bitmap;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Values biased to straddle chunk boundaries and density thresholds.
fn value_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..200_000,     // a few chunks
        65_500u32..65_600, // chunk boundary
        any::<u32>(),      // anywhere
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_btreeset_semantics(values in prop::collection::vec(value_strategy(), 0..2000)) {
        let mut bm = Bitmap::new();
        let mut reference = BTreeSet::new();
        for &v in &values {
            prop_assert_eq!(bm.insert(v), reference.insert(v));
        }
        prop_assert_eq!(bm.len(), reference.len());
        prop_assert_eq!(bm.to_vec(), reference.iter().copied().collect::<Vec<_>>());
        for &v in values.iter().take(50) {
            prop_assert!(bm.contains(v));
        }
    }

    #[test]
    fn set_algebra_matches_btreeset(
        a in prop::collection::btree_set(value_strategy(), 0..800),
        b in prop::collection::btree_set(value_strategy(), 0..800),
    ) {
        let ba = Bitmap::from_iter(a.iter().copied());
        let bb = Bitmap::from_iter(b.iter().copied());
        let union: Vec<u32> = a.union(&b).copied().collect();
        let inter: Vec<u32> = a.intersection(&b).copied().collect();
        prop_assert_eq!(ba.union(&bb).to_vec(), union.clone());
        prop_assert_eq!(ba.intersect(&bb).to_vec(), inter);
        let mut acc = ba.clone();
        acc.union_with(&bb);
        prop_assert_eq!(acc.to_vec(), union);
    }

    #[test]
    fn visit_words_reenumerates_the_members(values in prop::collection::vec(value_strategy(), 0..3000)) {
        // Array and bits containers, across chunk boundaries: the word
        // stream a filter mask is built from names exactly the members.
        let bm = Bitmap::from_iter(values.iter().copied());
        let members: Vec<u32> = values.iter().copied().collect::<BTreeSet<_>>().into_iter().collect();
        let mut seen = Vec::new();
        bm.visit_words(|base, word| {
            for bit in 0..64u32 {
                if word & (1u64 << bit) != 0 {
                    seen.push(base + bit);
                }
            }
        });
        prop_assert_eq!(seen, members);
    }
}
