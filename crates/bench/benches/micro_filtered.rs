//! Micro (repo extension): attribute-filtered kNN vs. unfiltered kNN
//! across filter selectivities.
//!
//! Builds one namespace with a Zipfian corpus and a synthetic `tier`
//! attribute whose values partition the sets at known selectivities,
//! then answers the same kNN workload unfiltered and through filters of
//! decreasing selectivity (100% → ~1%). Before each timing the filtered
//! answers are sanity-checked: every hit carries the filtered
//! attribute, and the candidate count never exceeds the number of
//! matching sets (the mask is intersected *before* phase A, so
//! non-matching sets are never even counted as candidates — note the
//! bound is vs. the matching subset, not vs. the unfiltered query,
//! whose stronger k-th-similarity bound can prune *harder* than a
//! filter restricted to poor matches). The exactness proof lives in
//! `crates/core/tests/filtered_equivalence.rs`; this harness measures
//! what the mask buys.

use les3_bench::{bench_queries, bench_sets, header, per_query_us, time, workload};
use les3_core::{Filter, Filters, NamespaceSpec, Namespaces, QueryCtl};
use les3_data::zipfian::ZipfianGenerator;

const K: usize = 10;

/// `tier` value for set `i`: t0 covers 1/2 of the corpus, t1 1/4,
/// t2 1/8, ... — a geometric ladder of selectivities from one key.
fn tier(i: usize) -> String {
    let slot = (i + 1).trailing_zeros().min(6);
    format!("t{slot}")
}

fn main() {
    header("micro", "attribute-filtered kNN vs unfiltered");
    let n = bench_sets(20_000);
    let n_queries = bench_queries(256);
    let gen = ZipfianGenerator::new(n, (n / 5) as u32, 12.0, 1.1);
    let db = gen.generate(2);
    let sets: Vec<Vec<_>> = (0..db.len()).map(|i| db.set(i as u32).to_vec()).collect();
    let attrs: Vec<Vec<(String, String)>> = (0..sets.len())
        .map(|i| vec![("tier".to_string(), tier(i))])
        .collect();
    let queries = workload(&db, n_queries, 7);

    let namespaces = Namespaces::new();
    let ns = namespaces
        .create(
            "bench",
            NamespaceSpec {
                sets,
                attrs,
                ..NamespaceSpec::default()
            },
        )
        .expect("create bench namespace");
    println!("|D| = {n}, {n_queries} queries, k = {K}, filter = eq(tier, t*)\n");
    println!(
        "{:<22} {:>9} {:>10} {:>12} {:>10}",
        "filter", "matching", "us/query", "queries/s", "vs none"
    );

    let run = |filters: &Filters| {
        let mut t = std::time::Duration::MAX;
        let mut results = Vec::new();
        for _ in 0..3 {
            let (res, one) = time(|| {
                queries
                    .iter()
                    .map(|q| {
                        ns.knn(q, K, filters, &QueryCtl::NONE)
                            .expect("uninterrupted bench query")
                    })
                    .collect::<Vec<_>>()
            });
            results = res;
            t = t.min(one);
        }
        (results, t)
    };

    let (_, none_t) = run(&Filters::none());
    let none_us = per_query_us(none_t, queries.len());
    let live = ns.info().live_sets;
    println!(
        "{:<22} {:>9} {:>10.1} {:>12.0} {:>9.2}x",
        "(none)",
        live,
        none_us,
        1e6 / none_us,
        1.0
    );

    for slot in 0..=6u32 {
        let value = format!("t{slot}");
        let filters = Filters(vec![Filter::Eq {
            key: "tier".to_string(),
            value: value.clone(),
        }]);
        let matching = (0..live).filter(|&i| tier(i) == value).count();
        let (results, t) = run(&filters);
        for res in &results {
            assert!(
                res.stats.candidates <= matching,
                "the mask admitted a non-matching candidate: {} candidates > {matching} matching",
                res.stats.candidates
            );
            for &(id, _) in &res.hits {
                assert_eq!(
                    ns.attrs(id),
                    [("tier".to_string(), value.clone())],
                    "hit {id} escaped the filter"
                );
            }
        }
        let us = per_query_us(t, queries.len());
        println!(
            "{:<22} {:>9} {:>10.1} {:>12.0} {:>9.2}x",
            format!("tier = {value}"),
            matching,
            us,
            1e6 / us,
            none_us / us
        );
    }
}
