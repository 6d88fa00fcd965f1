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
    fn remove_matches_btreeset(
        values in prop::collection::vec(value_strategy(), 0..1000),
        removals in prop::collection::vec(value_strategy(), 0..500),
    ) {
        let mut bm = Bitmap::from_iter(values.iter().copied());
        let mut reference: BTreeSet<u32> = values.iter().copied().collect();
        for &v in &removals {
            prop_assert_eq!(bm.remove(v), reference.remove(&v));
        }
        prop_assert_eq!(bm.to_vec(), reference.iter().copied().collect::<Vec<_>>());
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
    fn run_optimize_preserves_contents(values in prop::collection::btree_set(value_strategy(), 0..1500)) {
        let mut bm = Bitmap::from_iter(values.iter().copied());
        bm.run_optimize();
        prop_assert_eq!(bm.to_vec(), values.iter().copied().collect::<Vec<_>>());
        for &v in values.iter().take(30) {
            prop_assert!(bm.contains(v));
        }
    }

    #[test]
    fn dense_ranges_survive_optimization(start in 0u32..100_000, len in 1u32..20_000) {
        let mut bm = Bitmap::from_iter(start..start + len);
        bm.run_optimize();
        prop_assert_eq!(bm.len(), len as usize);
        prop_assert!(bm.contains(start));
        prop_assert!(bm.contains(start + len - 1));
        prop_assert!(!bm.contains(start + len));
    }

    #[test]
    fn count_kernel_matches_scalar_reference(
        values in prop::collection::vec(counting_value_strategy(), 0..3000),
        optimize in any::<bool>(),
        script in prop::collection::vec((any::<bool>(), counting_value_strategy()), 0..300),
    ) {
        // The word-parallel kernel must agree with the trivial per-value
        // reference on arbitrary container mixes (array/bits/runs), also
        // after the inserts and removes a live TGM applies to its
        // optimized columns (`Tgm::set_bit` / `clear_bit` land on run
        // containers).
        let mut bm = Bitmap::from_iter(values.iter().copied());
        let mut reference: BTreeSet<u32> = values.iter().copied().collect();
        if optimize {
            bm.run_optimize();
        }
        for &(insert, v) in &script {
            if insert {
                prop_assert_eq!(bm.insert(v), reference.insert(v));
            } else {
                prop_assert_eq!(bm.remove(v), reference.remove(&v));
            }
        }
        let members: Vec<u32> = reference.iter().copied().collect();
        prop_assert_eq!(bm.to_vec(), members.clone());
        prop_assert_eq!(bm.len(), members.len());
        let n = COUNTING_UNIVERSE as usize;
        let mut expected = vec![0u32; n];
        for &v in &members {
            expected[v as usize] += 1;
        }
        let mut got = vec![0u32; n];
        let visited = bm.count_into(&mut got);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(visited, members.len() as u64);

        // Word visitation re-enumerates the exact member sequence.
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

/// Bounded universe for the counting kernels (count arrays are dense).
const COUNTING_UNIVERSE: u32 = 140_000;

/// Values spanning several chunks, with boundary bias, within the dense
/// counting universe.
fn counting_value_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..COUNTING_UNIVERSE,
        65_500u32..65_600,
        131_000u32..131_200,
    ]
}
