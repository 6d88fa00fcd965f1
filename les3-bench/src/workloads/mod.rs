//! The five workloads and what they share: the run context, the rounds of
//! set-up and measuring, the closed-loop timed section and the end-to-end
//! metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use les3_core::{Jaccard, Les3Index, Partitioning, Tgm};
use les3_data::{SetDatabase, TokenId};

use crate::check::Gate;
use crate::gen::{self, Scale, Shape};
use crate::metrics::Metrics;
use crate::speed::{self, Speedometer};
use crate::stats;
use crate::trace::Tracer;

mod durable_rw;
mod lib_exact;
mod lib_masked;
mod serve;

/// `(name, why)` of every workload, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "lib_knn",
        "1 thread, exact kNN (k=10) on the learned partition: verification is ~all of the time; front, net and persist do nothing",
    ),
    (
        "lib_range",
        "1 thread, range(0.8) on long sets: tiny verification, so TGM counting, bucket order and per-call overhead are a large share",
    ),
    (
        "lib_masked",
        "1 thread, each query as an LSH-prefiltered kNN (8 bands x 1 row) then an attribute-filtered kNN (10 % selectivity) on the lib_knn index: both mask producers and the masked hot path they share",
    ),
    (
        "serve_closed",
        "closed loop, 2 keep-alive HTTP clients -> front -> 4 shards: the serving and network tax over direct calls",
    ),
    (
        "durable_rw",
        "1 thread, logged inserts and deletes beside kNN and range reads on the same structures, checkpoints, then recovery",
    ),
];

/// The number of neighbours every kNN asks for.
pub const K: usize = 10;
/// The range threshold.
pub const DELTA: f64 = 0.8;
/// Rounds of set-up and measuring in an untraced run.
const ROUNDS: usize = 3;
/// However cheap a set-up, a round repeats it at most this often.
const MAX_SETUPS_PER_ROUND: usize = 64;
/// Length of the time slices `p50_us` and `qps` are taken over: long
/// enough for a few hundred operations of the slowest workload, short
/// enough to fit into the gaps a neighbour on the host leaves.
const SLICE: Duration = Duration::from_millis(500);
/// Length of the time slices `p99_us` is taken over: a tail needs the
/// samples (about 2 000 operations of the slowest workload).
const TAIL_SLICE: Duration = Duration::from_secs(2);

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch space inside the checkout (under the build directory):
    /// durable directories and trace files.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// A share of the run's measuring time.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// What one invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations of the timed sections.
    pub attempted: u64,
    /// Of those, operations that returned an error or a wrong status.
    pub failed: u64,
    pub gate: Gate,
    /// Human-readable lines (sample counts, step tallies).
    pub notes: Vec<String>,
}

/// Runs one workload by name.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "lib_knn" => lib_exact::run(ctx, lib_exact::Op::Knn),
        "lib_range" => lib_exact::run(ctx, lib_exact::Op::Range),
        "lib_masked" => lib_masked::run(ctx),
        "serve_closed" => serve::run_closed(ctx),
        "durable_rw" => durable_rw::run(ctx),
        _ => return None,
    })
}

/// One measuring window of an untraced run.
#[derive(Debug, Default)]
pub struct Window {
    /// `(end time from the window start, latency)` of the measured
    /// operation, nanoseconds.
    pub samples: Vec<(u64, u64)>,
    /// End time of every operation that counts towards `qps`.
    pub ends_ns: Vec<u64>,
    /// `(time from the window start, kernel cost)` of the speedometer.
    pub speed: Vec<(u64, u64)>,
    pub section_ns: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Window {
    /// A window in which every operation is the measured one and none failed.
    pub fn of(timed: Timed) -> Self {
        Window {
            samples: timed.samples(),
            attempted: timed.lat_ns.len() as u64,
            failed: 0,
            section_ns: timed.section_ns,
            ends_ns: timed.ends_ns,
            speed: timed.speed,
        }
    }
}

/// Sets the workload up and, unless tracing, measures it: `ROUNDS`
/// rounds of set-up followed by a third of the measuring time on the
/// state just built. Set-up — repeated within a round until
/// `Scale::setup_floor / ROUNDS` has gone into it — is therefore timed at
/// least three times, seconds apart, each scaled by the speedometer's
/// readings just before and after it, and `setup_s` is the quiet one of
/// them (`stats::quiet`). Each earlier state is dropped before the next
/// is built, so peak memory is that of one. Returns the last state, for
/// the gate. A traced run sets up once and measures nothing here.
pub fn rounds<T>(
    ctx: &Ctx,
    outcome: &mut Outcome,
    mut build: impl FnMut(&mut Metrics) -> T,
    mut measure: impl FnMut(&mut T, Duration) -> Window,
) -> T {
    if ctx.trace {
        return build(&mut outcome.metrics);
    }
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut windows = Vec::with_capacity(ROUNDS);
    let mut state = None;
    for _ in 0..ROUNDS {
        let round = Instant::now();
        for rep in 1.. {
            drop(state.take());
            let kernel_before = speed::spot_ns();
            let start = Instant::now();
            state = Some(build(&mut outcome.metrics));
            let took = start.elapsed().as_secs_f64();
            let kernel_ns = (kernel_before + speed::spot_ns()) / 2.0;
            setup_raw_s.push(took);
            setup_s.push(took * speed::to_reference(kernel_ns));
            if round.elapsed() >= ctx.scale.setup_floor / ROUNDS as u32
                || rep == MAX_SETUPS_PER_ROUND
            {
                break;
            }
        }
        let state = state.as_mut().expect("the round set up");
        windows.push(measure(state, ctx.share(1.0 / ROUNDS as f64)));
    }
    outcome.metrics.set("setup_s", stats::quiet(&setup_s, true));
    outcome.notes.push(format!(
        "set-ups {}; as measured: setup_s {}",
        setup_s.len(),
        stats::quiet(&setup_raw_s, true)
    ));
    report_end_to_end(outcome, windows);
    state.expect("at least one round")
}

/// Milliseconds `f` took, and its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// A flat index (database and partitioning inside) and its queries.
pub struct Flat {
    pub index: Les3Index<Jaccard>,
    pub queries: Vec<Vec<TokenId>>,
}

/// Generates a database and builds the flat index over the learned
/// partitioning, recording what each layer's set-up took.
pub fn build_flat_l2p(ctx: &Ctx, shape: Shape, metrics: &mut Metrics) -> Flat {
    let db = gen::dataset(shape, ctx.scale, ctx.seed);
    let start = Instant::now();
    let partitioning = gen::l2p_partition(&db, ctx.scale, ctx.seed);
    metrics.set("partition.l2p_s", start.elapsed().as_secs_f64());
    metrics.set("partition.groups", partitioning.n_groups() as f64);
    build_flat(ctx, db, partitioning, metrics)
}

/// Builds the flat index over a given partitioning.
pub fn build_flat(
    ctx: &Ctx,
    db: SetDatabase,
    partitioning: Partitioning,
    metrics: &mut Metrics,
) -> Flat {
    if ctx.trace {
        // The TGM's share of the index build, timed on its own.
        let (tgm, ms) = timed_ms(|| Tgm::build(&db, &partitioning));
        metrics.set("tgm.build_ms", ms);
        drop(tgm);
    }
    let queries = gen::queries(&db, ctx.scale.queries, ctx.seed);
    let (index, ms) = timed_ms(|| Les3Index::build(db, partitioning, Jaccard));
    metrics.set("index.build_ms", ms);
    metrics.set("tgm.bytes", index.tgm().size_in_bytes() as f64);
    metrics.set("index_bytes", index.index_size_in_bytes() as f64);
    Flat { index, queries }
}

/// The latencies of one closed-loop timed section.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per-operation latency, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Per-operation end time from the section start, nanoseconds.
    pub ends_ns: Vec<u64>,
    /// The speedometer's readings, taken between operations.
    pub speed: Vec<(u64, u64)>,
    pub section_ns: u64,
}

impl Timed {
    /// Calls `op(i)` back to back for `duration`, timing each call and
    /// reading the speedometer between calls.
    pub fn run(duration: Duration, mut op: impl FnMut(usize)) -> Self {
        let mut timed = Timed::default();
        let mut speed = Speedometer::default();
        let start = Instant::now();
        let mut before = start;
        for i in 0.. {
            if speed.tick(before - start) {
                before = Instant::now();
            }
            op(i);
            let after = Instant::now();
            timed.lat_ns.push((after - before).as_nanos() as u64);
            timed.ends_ns.push((after - start).as_nanos() as u64);
            before = after;
            if after - start >= duration {
                break;
            }
        }
        timed.section_ns = duration.as_nanos() as u64;
        timed.speed = speed.readings;
        timed
    }

    /// Pools concurrent clients that ran over the same interval, or the
    /// latencies of successive sections (whose end times then overlap).
    pub fn merge(parts: Vec<Timed>) -> Self {
        let mut all = Timed::default();
        for part in parts {
            all.lat_ns.extend(part.lat_ns);
            all.ends_ns.extend(part.ends_ns);
            all.speed.extend(part.speed);
            all.section_ns = all.section_ns.max(part.section_ns);
        }
        all
    }

    /// Median latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        stats::p50_us(&mut self.lat_ns.clone())
    }

    /// `(end time, latency)` of every operation.
    pub fn samples(&self) -> Vec<(u64, u64)> {
        self.ends_ns
            .iter()
            .copied()
            .zip(self.lat_ns.iter().copied())
            .collect()
    }
}

/// Fills in the end-to-end metrics from the measuring windows, laid end
/// to end and cut into time slices. Each slice's own median and 99th
/// percentile of the measured operation and its rate of everything that
/// ran are scaled to reference-machine time by the speedometer's median
/// reading in that slice (`speed`); `p50_us`, `p99_us` (over the longer
/// tail slices) and `qps` are the quiet one of the slices' values
/// (`stats::quiet`).
fn report_end_to_end(outcome: &mut Outcome, windows: Vec<Window>) {
    let (mut samples, mut ends_ns, mut readings) = (Vec::new(), Vec::new(), Vec::new());
    let mut offset = 0u64;
    for window in &windows {
        // An operation that ended past its window counts in that window's
        // last slice, not in the next window.
        let within = |end: u64| offset + end.min(window.section_ns - 1);
        samples.extend(window.samples.iter().map(|&(end, lat)| (within(end), lat)));
        ends_ns.extend(window.ends_ns.iter().map(|&end| within(end)));
        readings.extend(window.speed.iter().map(|&(at, ns)| (within(at), ns)));
        offset += window.section_ns;
        outcome.attempted += window.attempted;
        outcome.failed += window.failed;
    }
    let kernel_ns = stats::percentile(&stats::by_slice(&readings, offset, 1)[0], 50.0) as f64;
    // Per slice of length `len` that saw an operation: the operation's
    // `p`-th percentile in microseconds, the rate of everything, and the
    // factor that turns a time of that slice into reference time.
    let view = |len: Duration, p: f64| -> Vec<(f64, f64, f64)> {
        // At least one slice per window, however short the run (the smoke test).
        let slices = ((offset / len.as_nanos() as u64) as usize).max(windows.len());
        let rates = stats::slice_rates(&ends_ns, offset, slices);
        let kernel = stats::by_slice(&readings, offset, slices);
        stats::by_slice(&samples, offset, slices)
            .iter()
            .zip(rates.iter().zip(&kernel))
            .filter(|(ops, _)| !ops.is_empty())
            .map(|(ops, (&rate, kernel))| {
                // A slice shorter than the speedometer's interval may hold
                // no reading: it takes the run's.
                let kernel = kernel
                    .get(kernel.len() / 2)
                    .map_or(kernel_ns, |&ns| ns as f64);
                let latency = stats::percentile(ops, p) as f64 / 1e3;
                (latency, rate, speed::to_reference(kernel))
            })
            .collect()
    };
    // The quiet slice's value, as measured and in reference time.
    let quiet = |slices: &[(f64, f64, f64)], lower_is_better: bool| {
        let pick = |scaled: bool| {
            let values: Vec<f64> = slices
                .iter()
                .map(|&(latency, rate, factor)| {
                    let factor = if scaled { factor } else { 1.0 };
                    if lower_is_better {
                        latency * factor
                    } else {
                        rate / factor
                    }
                })
                .collect();
            stats::quiet(&values, lower_is_better)
        };
        (pick(false), pick(true))
    };
    let (body, tail) = (view(SLICE, 50.0), view(TAIL_SLICE, 99.0));
    let ((p50_raw, p50), (p99_raw, p99)) = (quiet(&body, true), quiet(&tail, true));
    let (qps_raw, qps) = quiet(&body, false);
    let m = &mut outcome.metrics;
    m.set("p50_us", p50);
    m.set("p99_us", p99);
    m.set("qps", qps);
    outcome.notes.push(format!(
        "as measured: p50_us {p50_raw} p99_us {p99_raw} qps {qps_raw}; speedometer kernel {kernel_ns} ns (reference {})",
        speed::REFERENCE_NS
    ));
    m.set("peak_rss_mb", peak_rss_mb());
    outcome.notes.push(format!(
        "latency samples {} in {} slices ({} for the tail)",
        samples.len(),
        body.len(),
        tail.len()
    ));
}

/// Writes the run's spans beside the build outputs.
pub fn write_trace(ctx: &Ctx, tracer: &Tracer, workload: &str) {
    let path = ctx.work_dir.join(format!("{workload}.trace.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("les3-bench: cannot write {}: {e}", path.display());
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_section_counts_every_operation_once() {
        let mut calls = 0;
        let timed = Timed::run(Duration::from_millis(20), |_| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(timed.lat_ns.len(), calls);
        assert_eq!(timed.ends_ns.len(), calls);
        assert!(timed.lat_ns.iter().all(|&ns| ns >= 1_000_000));
        assert!(timed.ends_ns.windows(2).all(|w| w[0] < w[1]));
        let merged = Timed::merge(vec![timed, Timed::default()]);
        assert_eq!(merged.lat_ns.len(), calls);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
