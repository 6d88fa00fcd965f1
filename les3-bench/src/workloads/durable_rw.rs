//! `durable_rw`: one thread on a `DurableIndex<Les3Index<Jaccard>>`
//! (round-robin partitioning) in a fresh directory: cycles of 8 `insert`,
//! 2 `delete`, 1 kNN and 1 range(0.8), a `checkpoint()` every few
//! thousand mutations, then drop and reopen.
//!
//! Writes beside reads on the same TGM and verify-order structures: a
//! read-side layout gain that slows inserts, or a WAL batching gain that
//! slows recovery, shows here. `p50_us`/`p99_us` are the writes of one
//! cycle: its 8 logged inserts and 2 logged deletes (WAL encode, append
//! and apply), the ten calls' times added up. Ten calls of 3–6 µs each,
//! the first of them on caches the kNN before it has emptied, read
//! steadier together than one by one. `qps` counts every operation of
//! the cycle.
//!
//! The cycles run under `FsyncPolicy::Never` (checkpoints fsync
//! regardless): an fsync on the sandbox's virtual disk took 110–210 µs
//! at the median from one minute to the next and milliseconds at p99 —
//! the host's doing, several times the program's own share, and no
//! ruler. A traced run measures the fsynced insert beside it
//! (`persist.insert_fsync_us_p50`), where it is reported without a bound.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use les3_core::index::SearchResult;
use les3_core::persist::io::RealIo;
use les3_core::{
    DeletionLog, DurableIndex, DurableOptions, FsyncPolicy, Jaccard, Les3Index, Partitioning,
    QueryCtl, QueryScratch,
};
use les3_data::{SetId, TokenId};

use super::{build_flat, rounds, timed_ms, write_trace, Ctx, Outcome, Window, DELTA, K};
use crate::check::{same_hits, Oracle};
use crate::gen::{self, Shape};
use crate::metrics::Metrics;
use crate::speed::Speedometer;
use crate::stats::{self, p50_us};
use crate::trace::{SpanId, Tracer, NONE};

type Durable = DurableIndex<Les3Index<Jaccard>>;

const INSERTS_PER_CYCLE: usize = 8;
const DELETES_PER_CYCLE: usize = 2;
/// Times a traced run reopens the final directory; `persist.recover_ms`
/// is the median.
const REOPENS: usize = 9;

/// A directory of the run's own, removed when the run is done with it.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: it is scratch space inside the checkout.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the cycles feed the index, all generated from the seed.
struct Inputs {
    queries: Vec<Vec<TokenId>>,
    inserts: Vec<Vec<TokenId>>,
    /// Ids to delete, in order: a seeded shuffle of the initial sets.
    victims: Vec<SetId>,
}

struct State {
    // Declared (so dropped) before the directory it lives in.
    durable: Durable,
    dir: ScratchDir,
    inputs: Inputs,
    /// Traced runs only.
    probes: Option<Probes>,
    /// Cycles run so far; the next cycle continues the input streams.
    cycles: usize,
    /// Inserts the index acknowledged.
    inserted: usize,
    /// Mutations logged since the last checkpoint.
    since_checkpoint: usize,
}

/// Two copies of the index as it was before the cycles: one with no log
/// at all, one whose log fsyncs every record.
struct Probes {
    plain: Les3Index<Jaccard>,
    fsynced: Durable,
    _fsynced_dir: ScratchDir,
}

fn scratch_dir(ctx: &Ctx, name: &str) -> ScratchDir {
    let dir = ScratchDir(ctx.work_dir.join(format!("{name}-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    dir
}

fn create(dir: &ScratchDir, index: Les3Index<Jaccard>, fsync: FsyncPolicy) -> Durable {
    DurableIndex::create_with(&dir.0, index, Arc::new(RealIo), DurableOptions { fsync })
        .expect("create the durable index")
}

fn build(ctx: &Ctx, metrics: &mut Metrics) -> State {
    let db = gen::dataset(Shape::Kosarak, ctx.scale, ctx.seed);
    let partitioning = Partitioning::round_robin(db.len(), ctx.scale.groups);
    metrics.set("partition.groups", partitioning.n_groups() as f64);
    let flat = build_flat(ctx, db, partitioning, metrics);
    let inputs = Inputs {
        inserts: gen::insert_stream(flat.index.db(), flat.index.db().len(), ctx.seed),
        victims: les3_data::query::sample_query_ids(
            flat.index.db(),
            flat.index.db().len(),
            gen::sub_seed(ctx.seed, 8),
        ),
        queries: flat.queries,
    };
    let probes = ctx.trace.then(|| {
        let fsynced_dir = scratch_dir(ctx, "durable-fsynced");
        Probes {
            plain: flat.index.clone(),
            fsynced: create(&fsynced_dir, flat.index.clone(), FsyncPolicy::Always),
            _fsynced_dir: fsynced_dir,
        }
    });
    let dir = scratch_dir(ctx, "durable");
    let (durable, ms) = timed_ms(|| create(&dir, flat.index, FsyncPolicy::Never));
    metrics.set("persist.create_ms", ms);
    State {
        durable,
        dir,
        inputs,
        probes,
        cycles: 0,
        inserted: 0,
        since_checkpoint: 0,
    }
}

/// kNN and range on a durable index the way its callers read it: the
/// backend's answer (one thread, as in `lib_knn`) minus the tombstoned
/// sets.
fn read_knn(durable: &Durable, query: &[TokenId], scratch: &mut QueryScratch) -> SearchResult {
    let mut result = durable
        .backend()
        .knn_ctl_on(1, query, K, scratch, &QueryCtl::NONE)
        .expect("QueryCtl::NONE never interrupts");
    durable.log().filter_hits(&mut result.hits);
    result
}

fn read_range(durable: &Durable, query: &[TokenId], scratch: &mut QueryScratch) -> SearchResult {
    let mut result = durable
        .backend()
        .range_ctl_on(1, query, DELTA, scratch, &QueryCtl::NONE)
        .expect("QueryCtl::NONE never interrupts");
    durable.log().filter_hits(&mut result.hits);
    result
}

/// A stretch of cycles on a state, and what they took.
struct Runner<'a> {
    state: &'a mut State,
    checkpoint_every: usize,
    scratch: QueryScratch,
    tracer: Tracer,
    start: Instant,
    /// `(end time from `start`, time in its ten calls)` of every cycle's
    /// writes, nanoseconds.
    write_samples: Vec<(u64, u64)>,
    checkpoint_ms: Vec<f64>,
    /// End of every counted operation from `start`, nanoseconds.
    ends_ns: Vec<u64>,
    failed: u64,
}

impl<'a> Runner<'a> {
    fn new(ctx: &Ctx, state: &'a mut State, trace: bool) -> Self {
        Runner {
            state,
            checkpoint_every: ctx.scale.checkpoint_every,
            scratch: QueryScratch::new(),
            tracer: Tracer::new(trace),
            start: Instant::now(),
            write_samples: Vec::new(),
            checkpoint_ms: Vec::new(),
            ends_ns: Vec::new(),
            failed: 0,
        }
    }

    /// Times one call into the durable index under a span; returns its
    /// end time and latency.
    fn op(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(&mut Durable, &mut QueryScratch) -> bool,
    ) -> (u64, u64) {
        let span = self.tracer.open(name, parent, self.state.cycles as u64);
        let before = Instant::now();
        let ok = f(&mut self.state.durable, &mut self.scratch);
        let after = Instant::now();
        self.tracer.close(span, None);
        self.failed += u64::from(!ok);
        let end = (after - self.start).as_nanos() as u64;
        self.ends_ns.push(end);
        (end, (after - before).as_nanos() as u64)
    }

    fn checkpoint(&mut self, parent: SpanId) {
        let (_, ns) = self.op("persist.checkpoint", parent, |d, _| d.checkpoint().is_ok());
        self.ends_ns.pop(); // a stall between operations, not one of them
        self.checkpoint_ms.push(ns as f64 / 1e6);
        self.state.since_checkpoint = 0;
    }

    fn cycle(&mut self) {
        let c = self.state.cycles;
        let root = self.tracer.open("cycle", NONE, c as u64);
        let (mut writes_end, mut writes_ns) = (0, 0);
        for j in 0..INSERTS_PER_CYCLE {
            let stream = &self.state.inputs.inserts;
            let mut tokens = stream[(c * INSERTS_PER_CYCLE + j) % stream.len()].clone();
            let (_, ns) = self.op("persist.insert", root, |d, _| d.insert(&mut tokens).is_ok());
            writes_ns += ns;
        }
        for j in 0..DELETES_PER_CYCLE {
            let victims = &self.state.inputs.victims;
            let id = victims[(c * DELETES_PER_CYCLE + j) % victims.len()];
            let (end, ns) = self.op("persist.delete", root, |d, _| d.delete(id).is_ok());
            (writes_end, writes_ns) = (end, writes_ns + ns);
        }
        self.write_samples.push((writes_end, writes_ns));
        let query = self.state.inputs.queries[c % self.state.inputs.queries.len()].clone();
        self.op("persist.knn", root, |d, scratch| {
            std::hint::black_box(read_knn(d, &query, scratch));
            true
        });
        self.op("persist.range", root, |d, scratch| {
            std::hint::black_box(read_range(d, &query, scratch));
            true
        });
        self.state.cycles += 1;
        self.state.inserted += INSERTS_PER_CYCLE;
        self.state.since_checkpoint += INSERTS_PER_CYCLE + DELETES_PER_CYCLE;
        if self.state.since_checkpoint >= self.checkpoint_every {
            self.checkpoint(root);
        }
        self.tracer.close(root, None);
    }

    fn operations(&self) -> u64 {
        (self.ends_ns.len() + self.checkpoint_ms.len()) as u64
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Gate: reads after writes are exact, every acknowledged insert is
/// there, and the directory — reopened `reopens` times, after the live
/// index is dropped — answers exactly what the live index did. Returns
/// the milliseconds each reopening took.
fn check_and_recover(ctx: &Ctx, state: State, reopens: usize, outcome: &mut Outcome) -> Vec<f64> {
    let State {
        durable,
        dir,
        inputs,
        inserted,
        ..
    } = state;
    let mut scratch = QueryScratch::new();
    let sample = &inputs.queries[..ctx.scale.check_queries];
    let live: Vec<(SearchResult, SearchResult)> = sample
        .iter()
        .map(|q| {
            (
                read_knn(&durable, q, &mut scratch),
                read_range(&durable, q, &mut scratch),
            )
        })
        .collect();
    let oracle = Oracle::new(durable.backend().db());
    let is_live = |id: SetId| !durable.log().is_deleted(id);
    for (query, (knn, range)) in sample.iter().zip(&live) {
        // The backend answers k sets and the log then drops the
        // tombstoned ones, so fewer than k may remain: those must be the
        // head of the live sets' true ranking.
        outcome.gate.record(
            "durable kNN after writes vs brute force",
            oracle.check_knn(query, knn.hits.len(), is_live, &knn.hits),
        );
        outcome.gate.record(
            "durable range after writes vs brute force",
            oracle.check_range(query, DELTA, is_live, &range.hits),
        );
    }
    let live_len = durable.backend().db().len();
    outcome.gate.require(
        "db().len() == initial sets + acknowledged inserts",
        live_len == ctx.scale.sets + inserted,
    );
    drop(oracle);
    drop(durable);
    let mut recover_ms = Vec::with_capacity(reopens);
    let mut reopened = None;
    for _ in 0..reopens {
        drop(reopened.take());
        let (opened, ms) = timed_ms(|| Durable::open(&dir.0, Jaccard));
        recover_ms.push(ms);
        reopened = opened.ok();
    }
    match &reopened {
        Some(reopened) => {
            let same_len = reopened.backend().db().len() == live_len;
            outcome
                .gate
                .require("reopened db().len() == live", same_len);
            for (query, (knn, range)) in sample.iter().zip(&live) {
                let same = same_hits(&read_knn(reopened, query, &mut scratch).hits, &knn.hits)
                    && same_hits(&read_range(reopened, query, &mut scratch).hits, &range.hits);
                outcome
                    .gate
                    .require("reopened index answers == live index answers", same);
            }
        }
        None => outcome.gate.require("the final directory reopens", false),
    }
    recover_ms
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let state = rounds(
        ctx,
        &mut outcome,
        |m| build(ctx, m),
        |state, duration| {
            let mut run = Runner::new(ctx, state, false);
            let mut speed = Speedometer::default();
            while run.start.elapsed() < duration {
                speed.tick(run.start.elapsed());
                run.cycle();
            }
            Window {
                speed: speed.readings,
                attempted: run.operations(),
                failed: run.failed,
                samples: run.write_samples,
                ends_ns: run.ends_ns,
                section_ns: duration.as_nanos() as u64,
            }
        },
    );
    if ctx.trace {
        trace_cycles(ctx, state, &mut outcome);
    } else {
        check_and_recover(ctx, state, 1, &mut outcome);
    }
    outcome
}

/// The traced run: a fixed number of cycles first, then a checkpoint, so
/// the byte counts repeat exactly per seed; cycles until 70 % of the time
/// is up; then the probe rounds, the gate and the reopenings.
fn trace_cycles(ctx: &Ctx, mut state: State, outcome: &mut Outcome) {
    let probes = state.probes.take().expect("traced runs keep probes");
    let mut run = Runner::new(ctx, &mut state, true);
    for _ in 0..ctx.scale.durable_fixed_cycles {
        run.cycle();
    }
    let (dir, epoch) = (&run.state.dir.0, run.state.durable.epoch());
    let wal_bytes = file_len(&dir.join(format!("wal-{epoch}")));
    run.checkpoint(NONE);
    let segment_bytes = file_len(&run.state.dir.0.join("segment"));
    let live_tokens: usize = {
        let (db, log) = (run.state.durable.backend().db(), run.state.durable.log());
        db.iter()
            .filter(|&(id, _)| !log.is_deleted(id))
            .map(|(_, set)| set.len())
            .sum()
    };
    while run.start.elapsed() < ctx.share(0.7) {
        run.cycle();
    }
    outcome.attempted = run.operations();

    // Each probe round does the same inserts and deletes on the copy that
    // has no log, one insert on the copy that fsyncs, and one on the
    // measured index with no recorder around it (what tracing costs) —
    // side by side, so their differences compare like with like.
    let Probes {
        mut plain,
        mut fsynced,
        _fsynced_dir,
    } = probes;
    let (mut plain_insert, mut plain_delete) = (Vec::new(), Vec::new());
    let (mut fsynced_insert, mut untraced_insert) = (Vec::new(), Vec::new());
    let mut log = DeletionLog::build(&plain);
    let deadline = Instant::now() + ctx.share(0.3);
    let timed = |ns: &mut Vec<u64>, f: &mut dyn FnMut() -> bool| {
        let before = Instant::now();
        let ok = f();
        ns.push(before.elapsed().as_nanos() as u64);
        u64::from(!ok)
    };
    for c in 0.. {
        let inputs = &run.state.inputs;
        let pick = |i: usize| inputs.inserts[i % inputs.inserts.len()].clone();
        for j in 0..INSERTS_PER_CYCLE {
            let mut tokens = pick(c * INSERTS_PER_CYCLE + j);
            timed(&mut plain_insert, &mut || {
                let (id, _) = plain.insert(&mut tokens);
                log.note_insert(&plain, id);
                true
            });
        }
        for j in 0..DELETES_PER_CYCLE {
            let id = inputs.victims[(c * DELETES_PER_CYCLE + j) % inputs.victims.len()];
            timed(&mut plain_delete, &mut || log.delete(&mut plain, id));
        }
        let (mut for_fsynced, mut for_measured) = (pick(c), pick(run.state.inserted));
        run.failed += timed(&mut fsynced_insert, &mut || {
            fsynced.insert(&mut for_fsynced).is_ok()
        });
        let durable = &mut run.state.durable;
        run.failed += timed(&mut untraced_insert, &mut || {
            durable.insert(&mut for_measured).is_ok()
        });
        run.state.inserted += 1;
        run.state.since_checkpoint += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let probed = [
        &plain_insert,
        &plain_delete,
        &fsynced_insert,
        &untraced_insert,
    ];
    outcome.attempted += probed.iter().map(|ns| ns.len() as u64).sum::<u64>();
    outcome.failed = run.failed;
    let Runner {
        tracer,
        checkpoint_ms,
        ..
    } = run;
    let replayed = state.since_checkpoint;
    let recover_ms = check_and_recover(ctx, state, REOPENS, outcome);

    let m = &mut outcome.metrics;
    let plain_insert = p50_us(&mut plain_insert);
    // Differences of the three inserts that ran side by side in the probe
    // rounds: what the log adds to an insert, and what the fsync adds to that.
    let (untraced_insert, fsynced_insert) =
        (p50_us(&mut untraced_insert), p50_us(&mut fsynced_insert));
    m.set("update.insert_us_p50", plain_insert);
    m.set("delete.delete_us_p50", p50_us(&mut plain_delete));
    m.set("persist.insert_us_p50", tracer.p50_us("persist.insert"));
    m.set("persist.wal_append_us_p50", untraced_insert - plain_insert);
    m.set("persist.insert_fsync_us_p50", fsynced_insert);
    m.set("persist.fsync_us_p50", fsynced_insert - untraced_insert);
    m.set("persist.delete_us_p50", tracer.p50_us("persist.delete"));
    m.set("persist.knn_us_p50", tracer.p50_us("persist.knn"));
    m.set("persist.range_us_p50", tracer.p50_us("persist.range"));
    m.set("persist.checkpoint_ms_p50", stats::median(&checkpoint_ms));
    m.set("persist.checkpoints", checkpoint_ms.len() as f64);
    m.set("persist.wal_bytes", wal_bytes as f64);
    m.set("persist.segment_bytes", segment_bytes as f64);
    m.set(
        "persist.disk_bytes_per_user_byte",
        segment_bytes as f64 / (4 * live_tokens) as f64,
    );
    m.set("persist.replayed_records", replayed as f64);
    m.set("persist.recover_ms", stats::median(&recover_ms));
    m.set(
        "trace.overhead_share",
        tracer.p50_us("persist.insert") / untraced_insert - 1.0,
    );
    m.set("trace.spans", tracer.spans().len() as f64);
    write_trace(ctx, &tracer, "durable_rw");
}
