//! `lib_knn` and `lib_range`: one thread calling the flat index built on
//! the learned partitioning — the library as a caller links it, with no
//! front, socket or log in the way.
//!
//! One thread means one: the intra-query worker count is pinned to 1
//! (`knn_ctl_on(1, ..)`). The plain entry points (`knn_with`,
//! `range_with`) pick 2 workers on a 2-core machine and start a thread
//! per query, which probes measured at 1.2–2.2× the sequential latency
//! and, worse for a ruler, varying by as much between runs; what they
//! cost is reported beside it as `par.auto_*`.
//!
//! * `lib_knn` (short sets, k = 10): verifying ~8 000 candidates is
//!   nearly all of a query, so kernel, verify-loop and partition-quality
//!   work shows here, and a phase-A change should not.
//! * `lib_range` (long sets, δ = 0.8): verification is a few dozen
//!   candidates, so TGM counting, bucket order and per-call overhead are
//!   a large share — where an entry-point or phase-A change shows and a
//!   verify-loop change should not.

use les3_core::index::SearchResult;
use les3_core::{
    QueryCtl, QueryScratch, SearchStats, ShardPolicy, ShardedLes3Index, ShardedScratch,
};
use les3_data::TokenId;

use super::{build_flat_l2p, rounds, timed_ms, write_trace, Ctx, Flat, Outcome, Timed, Window};
use super::{DELTA, K};
use crate::check::{same_result, Oracle};
use crate::gen::Shape;
use crate::stats::p50_us;
use crate::trace::{Tracer, NONE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Knn,
    Range,
}

impl Op {
    /// The query with `workers` intra-query workers.
    fn search_on(
        self,
        workers: usize,
        flat: &Flat,
        query: &[TokenId],
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        match self {
            Op::Knn => flat
                .index
                .knn_ctl_on(workers, query, K, scratch, &QueryCtl::NONE),
            Op::Range => flat
                .index
                .range_ctl_on(workers, query, DELTA, scratch, &QueryCtl::NONE),
        }
        .expect("QueryCtl::NONE never interrupts")
    }

    /// The measured operation: the sequential query.
    fn search(self, flat: &Flat, query: &[TokenId], scratch: &mut QueryScratch) -> SearchResult {
        self.search_on(1, flat, query, scratch)
    }

    /// The entry point that picks the worker count itself.
    fn search_auto(
        self,
        flat: &Flat,
        query: &[TokenId],
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        match self {
            Op::Knn => flat.index.knn_with(query, K, scratch),
            Op::Range => flat.index.range_with(query, DELTA, scratch),
        }
    }
}

pub fn run(ctx: &Ctx, op: Op) -> Outcome {
    let mut outcome = Outcome::default();
    let shape = match op {
        Op::Knn => Shape::Kosarak,
        Op::Range => Shape::Livej,
    };
    let flat = rounds(
        ctx,
        &mut outcome,
        |m| build_flat_l2p(ctx, shape, m),
        |flat, duration| {
            let mut scratch = QueryScratch::new();
            Window::of(Timed::run(duration, |i| {
                let query = &flat.queries[i % flat.queries.len()];
                std::hint::black_box(op.search(flat, query, &mut scratch));
            }))
        },
    );

    // Gate: the fixed sample against brute force. The same pass gives
    // the per-query work counts, which therefore repeat exactly per seed.
    let oracle = Oracle::new(flat.index.db());
    let sample = &flat.queries[..ctx.scale.check_queries];
    let (mut work, mut hits) = (SearchStats::default(), 0usize);
    let mut scratch = QueryScratch::new();
    for query in sample {
        let got = op.search(&flat, query, &mut scratch);
        let verdict = match op {
            Op::Knn => oracle.check_knn(query, K, |_| true, &got.hits),
            Op::Range => oracle.check_range(query, DELTA, |_| true, &got.hits),
        };
        outcome.gate.record("flat index vs brute force", verdict);
        work.accumulate(&got.stats);
        hits += got.hits.len();
    }
    if !ctx.trace {
        return outcome;
    }
    report_counts(&mut outcome, &flat, op, &work, hits, sample.len());
    trace_layers(ctx, &flat, op, &mut outcome);
    outcome
}

/// The traced run. Every engine answers the same query in the same
/// iteration, so a ratio between two of them compares like with like
/// even when the machine's speed drifts during the run, and each must
/// answer bit for bit what the sequential query does.
fn trace_layers(ctx: &Ctx, flat: &Flat, op: Op, outcome: &mut Outcome) {
    let queries = &flat.queries;
    let mut tracer = Tracer::new(true);
    let mut scratch = QueryScratch::new();
    let mut counts = Vec::new();
    let sharded = (op == Op::Knn).then(|| {
        let (sharded, build_ms) = timed_ms(|| {
            ShardedLes3Index::build(
                flat.index.db().clone(),
                flat.index.partitioning().clone(),
                les3_core::Jaccard,
                4,
                ShardPolicy::Contiguous,
            )
        });
        outcome.metrics.set("shard.build_ms", build_ms);
        sharded
    });
    let mut sharded_scratch = ShardedScratch::new();
    let mut all_equal = true;
    let engines = if sharded.is_some() { 4 } else { 3 };
    let traced = Timed::run(ctx.share(if op == Op::Knn { 0.7 } else { 0.85 }), |i| {
        let (query, id) = (&queries[i % queries.len()], i as u64);
        // The first engine to take a query finds its TGM columns and sets
        // cold, the others warm: they take turns at going first, so each
        // engine's median mixes both in the same proportion.
        let mut answers = Vec::with_capacity(engines);
        for turn in 0..engines {
            answers.push(match (i + turn) % engines {
                0 => {
                    let request = tracer.open("request", NONE, id);
                    let search = tracer.open("index.search", request, id);
                    let got = op.search(flat, query, &mut scratch);
                    tracer.close(search, Some(got.stats));
                    // The two phase-A probes, equally warm after the search:
                    // their difference is bucket ordering, not a cache effect.
                    tracer.call("index.bounds", request, id, || {
                        let mut stats = SearchStats::default();
                        flat.index
                            .group_upper_bounds_with(query, &mut stats, &mut scratch)
                    });
                    tracer.call("tgm.count", request, id, || {
                        flat.index.tgm().group_overlaps_into(query, &mut counts)
                    });
                    tracer.close(request, None);
                    got
                }
                1 => tracer.call("par.auto", NONE, id, || {
                    op.search_auto(flat, query, &mut scratch)
                }),
                2 => tracer.call("par.w2", NONE, id, || {
                    op.search_on(2, flat, query, &mut scratch)
                }),
                _ => {
                    let sharded = sharded.as_ref().expect("a fourth engine only when sharded");
                    tracer
                        .call("shard.knn", NONE, id, || {
                            sharded.knn_ctl_on(1, query, K, &mut sharded_scratch, &QueryCtl::NONE)
                        })
                        .expect("QueryCtl::NONE never interrupts")
                }
            });
        }
        all_equal &= answers.windows(2).all(|w| same_result(&w[0], &w[1]));
    });
    outcome.gate.require(
        "parallel and sharded engines == the sequential query",
        all_equal,
    );
    // The sequential query with no recorder around it: what tracing costs.
    let plain = Timed::run(ctx.share(0.15), |i| {
        std::hint::black_box(op.search(flat, &queries[i % queries.len()], &mut scratch));
    });
    outcome.attempted = (traced.lat_ns.len() * engines + plain.lat_ns.len()) as u64;

    let m = &mut outcome.metrics;
    let (count, bounds, search) = (
        tracer.p50_us("tgm.count"),
        tracer.p50_us("index.bounds"),
        tracer.p50_us("index.search"),
    );
    m.set("tgm.count_us_p50", count);
    m.set("index.bounds_us_p50", bounds);
    m.set("index.order_us_p50", (bounds - count).max(0.0));
    m.set("index.search_us_p50", search);
    m.set("index.verify_us_p50", (search - bounds).max(0.0));
    m.set("par.auto_us_p50", tracer.p50_us("par.auto"));
    m.set("par.auto_vs_seq_ratio", tracer.p50_us("par.auto") / search);
    m.set("par.w2_us_p50", tracer.p50_us("par.w2"));
    m.set("par.w2_vs_seq_ratio", tracer.p50_us("par.w2") / search);
    if sharded.is_some() {
        m.set("shard.knn_us_p50", tracer.p50_us("shard.knn"));
        m.set("shard.vs_flat_ratio", tracer.p50_us("shard.knn") / search);
    }
    // Like with like: the unrecorded queries all ran cold, so only the
    // recorded ones that went first in their iteration compare.
    let mut cold: Vec<u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "index.search" && s.request_id % engines as u64 == 0)
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    m.set(
        "trace.overhead_share",
        p50_us(&mut cold) / plain.p50_us() - 1.0,
    );
    m.set("trace.spans", tracer.spans().len() as f64);
    if op == Op::Knn {
        probe_batch(ctx, flat, outcome);
    }
    write_trace(
        ctx,
        &tracer,
        if op == Op::Knn {
            "lib_knn"
        } else {
            "lib_range"
        },
    );
}

/// The work counters of the fixed sample, per query.
fn report_counts(
    outcome: &mut Outcome,
    flat: &Flat,
    op: Op,
    work: &SearchStats,
    hits: usize,
    queries: usize,
) {
    let m = &mut outcome.metrics;
    let per_query = |total: usize| total as f64 / queries as f64;
    m.set("partition.candidates_per_query", per_query(work.candidates));
    // Definition 2.3 over the whole sample: candidates beyond the
    // result, as a share of the database.
    let result_size = if op == Op::Knn { K * queries } else { hits };
    let wasted = work.candidates.saturating_sub(result_size) as f64;
    m.set(
        "partition.pruning_efficiency",
        1.0 - wasted / (flat.index.db().len() * queries) as f64,
    );
    m.set("tgm.bits_per_query", per_query(work.columns_checked));
    m.set(
        "index.groups_verified_per_query",
        per_query(work.groups_verified),
    );
    m.set(
        "index.groups_pruned_per_query",
        per_query(work.groups_pruned),
    );
    m.set("index.sims_per_query", per_query(work.sims_computed));
    m.set("index.hits_per_query", per_query(hits));
    m.set(
        "index.early_exit_share",
        work.early_exits as f64 / work.sims_computed.max(1) as f64,
    );
    m.set(
        "index.size_skip_share",
        work.size_skipped as f64 / (work.size_skipped + work.sims_computed).max(1) as f64,
    );
}

/// The batch executor on the same index: whole passes of a 512-query
/// batch on 2 workers, each query sequential.
fn probe_batch(ctx: &Ctx, flat: &Flat, outcome: &mut Outcome) {
    let batch: Vec<Vec<TokenId>> = flat.queries.iter().cycle().take(512).cloned().collect();
    let mut answered = Vec::new();
    let batches = Timed::run(ctx.share(0.15), |_| {
        answered = flat.index.knn_batch_on(2, 1, &batch, K);
    });
    let mut scratch = QueryScratch::new();
    let same = answered.len() == batch.len()
        && answered[..ctx.scale.check_queries]
            .iter()
            .zip(&batch)
            .all(|(got, query)| same_result(got, &Op::Knn.search(flat, query, &mut scratch)));
    outcome
        .gate
        .require("knn_batch_on == the sequential query", same);
    outcome.attempted += (batches.lat_ns.len() * batch.len()) as u64;
    outcome.metrics.set(
        "batch.knn_us_per_query",
        batches.p50_us() / batch.len() as f64,
    );
}
