//! `lib_masked`: one thread on the `lib_knn` index with both producers of
//! a candidate mask switched on. The measured operation answers one query
//! under each in turn:
//!
//! * an LSH-prefiltered kNN from the MinHash sidecar (8 bands × 1 row).
//!   Comparing it with the exact kNN of the same query
//!   (`approx.vs_exact_ratio`) is the verdict on whether the prefilter
//!   earns its place;
//! * an exact kNN under `Eq(bucket)` from an attribute index
//!   (`bucket = id % 10`), which keeps a tenth of the database — filter
//!   evaluation and search, as a caller pays for both.
//!
//! "Mask in, don't fork": both masks feed the same restricted phase A and
//! masked verification, so a change to that path moves both halves of the
//! operation, and a change to one producer only its own
//! (`approx.prefilter_us_p50`, `metadata.mask_us_p50` +
//! `metadata.search_us_p50` in the traced run).

use les3_bitmap::Bitmap;
use les3_core::index::SearchResult;
use les3_core::{
    ApproxParams, ApproxPolicy, Filter, FilterCandidates, Filters, MetadataIndex, MinHashIndex,
    QueryCtl, QueryScratch,
};
use les3_data::TokenId;

use super::{build_flat_l2p, rounds, timed_ms, write_trace, Ctx, Flat, Outcome, Timed, Window, K};
use crate::check::Oracle;
use crate::gen::Shape;
use crate::metrics::Metrics;
use crate::trace::{Tracer, NONE};

const BUCKETS: u32 = 10;
const BANDS: u32 = 8;
const PREFILTER: ApproxPolicy = ApproxPolicy::Prefilter {
    bands: BANDS,
    rows: 1,
};
/// The recall@10 the prefilter rung must keep on the sample. The queries
/// are perturbed members, whose 10th neighbour is often only ~0.1
/// similar, so this rung measures 0.85–0.91 (not the 0.95 it reaches on
/// member queries); the floor sits below that spread to catch a broken
/// signature pipeline, not to grade the rung.
const MIN_RECALL: f64 = 0.80;

struct Masked {
    flat: Flat,
    meta: MetadataIndex,
}

fn build(ctx: &Ctx, metrics: &mut Metrics) -> Masked {
    let mut flat = build_flat_l2p(ctx, Shape::Kosarak, metrics);
    let params = ApproxParams::default();
    let ((), ms) = timed_ms(|| flat.index.enable_approx(params));
    metrics.set("approx.sidecar_build_ms", ms);
    metrics.set(
        "approx.sidecar_bytes",
        (flat.index.db().len() * (params.bands * params.rows) as usize * 8) as f64,
    );
    let mut meta = MetadataIndex::new();
    let ((), ms) = timed_ms(|| {
        for id in 0..flat.index.db().len() as u32 {
            meta.push(&[("bucket".to_string(), (id % BUCKETS).to_string())]);
        }
    });
    metrics.set("metadata.build_ms", ms);
    Masked { flat, meta }
}

impl Masked {
    fn prefiltered(&self, query: &[TokenId], scratch: &mut QueryScratch) -> SearchResult {
        let (result, _) = self
            .flat
            .index
            .knn_approx_ctl_on(1, query, K, PREFILTER, scratch, &QueryCtl::NONE)
            .expect("QueryCtl::NONE never interrupts");
        result
    }

    fn mask(&self, bucket: u32) -> FilterCandidates {
        let filter = Filters(vec![Filter::Eq {
            key: "bucket".to_string(),
            value: bucket.to_string(),
        }]);
        self.meta
            .candidates(&filter, self.flat.index.partitioning())
            .expect("a non-empty filter gives a mask")
    }

    /// Exact kNN among the sets the mask admits, one thread.
    fn masked_knn(
        &self,
        query: &[TokenId],
        mask: &FilterCandidates,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        self.flat
            .index
            .knn_filtered_ctl_on(1, query, K, mask, scratch, &QueryCtl::NONE)
            .expect("QueryCtl::NONE never interrupts")
    }

    /// The measured operation, on query number `i` of the cycle: the
    /// query under the prefilter's mask, then under the attribute filter's.
    fn both(&self, i: usize, scratch: &mut QueryScratch) -> (SearchResult, SearchResult) {
        let query = &self.flat.queries[i % self.flat.queries.len()];
        (
            self.prefiltered(query, scratch),
            self.masked_knn(query, &self.mask(i as u32 % BUCKETS), scratch),
        )
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let state = rounds(
        ctx,
        &mut outcome,
        |m| build(ctx, m),
        |state, duration| {
            let mut scratch = QueryScratch::new();
            Window::of(Timed::run(duration, |i| {
                std::hint::black_box(state.both(i, &mut scratch));
            }))
        },
    );
    prefilter_gate(ctx, &state, &mut outcome);
    filter_gate(ctx, &state, &mut outcome);
    if ctx.trace {
        trace_producers(ctx, &state, &mut outcome);
    }
    outcome
}

/// Gate: every prefilter hit carries its exact similarity and the
/// sample's recall@10 holds.
fn prefilter_gate(ctx: &Ctx, state: &Masked, outcome: &mut Outcome) {
    let flat = &state.flat;
    let sidecar = flat.index.approx_sidecar().expect("sidecar was built");
    let oracle = Oracle::new(flat.index.db());
    let sample = &flat.queries[..ctx.scale.check_queries];
    let mut scratch = QueryScratch::new();
    // Counted on the fixed sample, so they repeat exactly per seed.
    let (mut recall, mut recall_est, mut candidates) = (0.0, 0.0, 0usize);
    for query in sample {
        let hits = state.prefiltered(query, &mut scratch).hits;
        outcome.gate.record(
            "prefilter hits carry exact similarities",
            oracle.check_similarities(query, &hits),
        );
        recall += oracle.recall(query, K, &hits);
        recall_est += MinHashIndex::recall_estimate(&hits, BANDS, 1);
        candidates += sidecar.candidates(query, BANDS, 1).len();
    }
    recall /= sample.len() as f64;
    outcome.gate.require(
        "prefilter recall@10 >= 0.80 on the sample",
        recall >= MIN_RECALL,
    );
    if ctx.trace {
        let m = &mut outcome.metrics;
        m.set(
            "approx.candidates_per_query",
            candidates as f64 / sample.len() as f64,
        );
        m.set("approx.recall", recall);
        m.set("approx.recall_est", recall_est / sample.len() as f64);
    }
}

/// Gate: a filtered kNN is exactly the brute-force top-k of the matching
/// sets.
fn filter_gate(ctx: &Ctx, state: &Masked, outcome: &mut Outcome) {
    let flat = &state.flat;
    let oracle = Oracle::new(flat.index.db());
    let sample = &flat.queries[..ctx.scale.check_queries];
    let mut scratch = QueryScratch::new();
    // Counted on the fixed sample, so they repeat exactly per seed.
    let (mut matching, mut mask_groups) = (0usize, 0usize);
    for (i, query) in sample.iter().enumerate() {
        let bucket = i as u32 % BUCKETS;
        let mask = state.mask(bucket);
        matching += mask.n_matching();
        mask_groups += mask.n_groups();
        let got = state.masked_knn(query, &mask, &mut scratch);
        outcome.gate.record(
            "filtered kNN vs brute-force post-filter",
            oracle.check_knn(query, K, |id| id % BUCKETS == bucket, &got.hits),
        );
    }
    if ctx.trace {
        let m = &mut outcome.metrics;
        let sets = (sample.len() * flat.index.db().len()) as f64;
        m.set("metadata.selectivity", matching as f64 / sets);
        let groups = (sample.len() * flat.index.partitioning().n_groups()) as f64;
        m.set("metadata.mask_groups_share", mask_groups as f64 / groups);
    }
}

/// The traced run: the measured operation with its three calls traced
/// apart, then — outside the request, on the same query, so that a ratio
/// compares like with like while the machine's speed drifts — the
/// prefilter's two mask-building steps on their own and the sequential
/// exact kNN.
fn trace_producers(ctx: &Ctx, state: &Masked, outcome: &mut Outcome) {
    let (flat, queries) = (&state.flat, &state.flat.queries);
    let sidecar = flat.index.approx_sidecar().expect("sidecar was built");
    let mut scratch = QueryScratch::new();
    let mut tracer = Tracer::new(true);
    let traced = Timed::run(ctx.share(0.85), |i| {
        let (query, id) = (&queries[i % queries.len()], i as u64);
        let request = tracer.open("request", NONE, id);
        let search = tracer.open("approx.prefilter", request, id);
        let got = state.prefiltered(query, &mut scratch);
        tracer.close(search, Some(got.stats));
        let mask = tracer.call("metadata.mask", request, id, || {
            state.mask(i as u32 % BUCKETS)
        });
        let search = tracer.open("metadata.search", request, id);
        let got = state.masked_knn(query, &mask, &mut scratch);
        tracer.close(search, Some(got.stats));
        tracer.close(request, None);
        let ids = tracer.call("approx.candidates", NONE, id, || {
            sidecar.candidates(query, BANDS, 1)
        });
        tracer.call("approx.mask", NONE, id, || {
            FilterCandidates::build(&Bitmap::from_sorted(&ids), flat.index.partitioning())
        });
        let exact = tracer.call("approx.exact", NONE, id, || {
            flat.index
                .knn_ctl_on(1, query, K, &mut scratch, &QueryCtl::NONE)
        });
        std::hint::black_box(exact.expect("QueryCtl::NONE never interrupts"));
    });
    // The operation with no recorder around it: what tracing costs.
    let plain = Timed::run(ctx.share(0.15), |i| {
        std::hint::black_box(state.both(i, &mut scratch));
    });
    outcome.attempted = (traced.lat_ns.len() + plain.lat_ns.len()) as u64;

    let m = &mut outcome.metrics;
    m.set(
        "approx.candidates_us_p50",
        tracer.p50_us("approx.candidates"),
    );
    m.set("approx.mask_us_p50", tracer.p50_us("approx.mask"));
    m.set("approx.prefilter_us_p50", tracer.p50_us("approx.prefilter"));
    m.set("approx.exact_us_p50", tracer.p50_us("approx.exact"));
    m.set(
        "approx.vs_exact_ratio",
        tracer.p50_us("approx.prefilter") / tracer.p50_us("approx.exact"),
    );
    m.set("metadata.mask_us_p50", tracer.p50_us("metadata.mask"));
    m.set("metadata.search_us_p50", tracer.p50_us("metadata.search"));
    m.set(
        "trace.overhead_share",
        tracer.p50_us("request") / plain.p50_us() - 1.0,
    );
    m.set("trace.spans", tracer.spans().len() as f64);
    write_trace(ctx, &tracer, "lib_masked");
}
