//! `serve_closed`: the index as `les3-serve` builds it today —
//! `ShardedLes3Index` ×4 `Contiguous` over a round-robin partitioning —
//! behind a `ServeFront` with 2 workers and an `HttpServer`; 2 client
//! threads on 2 keep-alive loopback connections `POST /knn` back to back.
//! Execution is the same as a direct call, so the difference to
//! `serve.direct_c2_us_p50` is the serving + network tax, and nothing
//! else shows here.
//!
//! The traced run also drives the front **open loop**: a generator
//! thread submits tickets on a seeded Poisson schedule (deadline 50 ms,
//! shed on a full queue of 64), a collector waits them in submit order,
//! and latency is measured from each request's due time — one step at
//! 600/s, about a third of capacity, where arrivals bunch, batches form
//! and queueing shows in latency before throughput saturates, and one at
//! 4 000/s, far over capacity, to see what becomes of the requests.
//! This is the only place a queue builds, so admission, batching and
//! expiry policy show here and nowhere else. It is not a workload of its
//! own because its tail latency did not repeat on the 2-core container:
//! ten runs of one binary spread by 17–32 % at p99 at any rate or burst
//! shape tried, the harness's own two threads competing with the front's
//! three for two cores.

use std::sync::Arc;
use std::time::{Duration, Instant};

use les3_core::index::SearchResult;
use les3_core::{
    Jaccard, OnFull, Partitioning, ServeConfig, ServeError, ServeFront, ShardPolicy,
    ShardedLes3Index, ShardedScratch, SubmitOpts, Ticket,
};
use les3_data::TokenId;
use les3_net::json::Json;
use les3_net::{http as net_http, wire, HttpServer, NetConfig};

use super::{rounds, timed_ms, write_trace, Ctx, Outcome, Timed, Window, K};
use crate::check::{same_result, Oracle};
use crate::gen::{self, Shape};
use crate::http::{knn_body, knn_request, Client};
use crate::metrics::Metrics;
use crate::open_loop::{self, Arrival};
use crate::stats::{self, p50_us};
use crate::trace::{Tracer, NONE};

type Backend = ShardedLes3Index<Jaccard>;

const SHARDS: usize = 4;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// `serve_closed`, traced run: rounds the depths of the stack take turns in.
const ROUNDS: usize = 4;
/// Open loop: accepted-but-unfinished requests the front admits.
const QUEUE_CAPACITY: usize = 64;
/// Open loop: a request is good if answered within this of its due time.
const DEADLINE: Duration = Duration::from_millis(50);
/// Open loop: arrivals per second of the measured step — about a third
/// of what the front sustains on the 2-core container (the overload
/// step's goodput: ~1 700/s).
const RATE_MID: f64 = 600.0;
/// Open loop: arrivals per second of the overload step.
const RATE_OVER: f64 = 4_000.0;

struct Served {
    // Declared (so dropped) before the front it serves.
    server: HttpServer,
    front: Arc<ServeFront<Backend>>,
    backend: Arc<Backend>,
    queries: Vec<Vec<TokenId>>,
    /// The queries as `POST /knn` requests, ready to send.
    requests: Vec<Vec<u8>>,
}

fn build(ctx: &Ctx, metrics: &mut Metrics) -> Served {
    let db = gen::dataset(Shape::Kosarak, ctx.scale, ctx.seed);
    let partitioning = Partitioning::round_robin(db.len(), ctx.scale.groups);
    metrics.set("partition.groups", partitioning.n_groups() as f64);
    let (backend, ms) = timed_ms(|| {
        ShardedLes3Index::build(db, partitioning, Jaccard, SHARDS, ShardPolicy::Contiguous)
    });
    metrics.set("shard.build_ms", ms);
    metrics.set("index_bytes", backend.index_size_in_bytes() as f64);
    let backend = Arc::new(backend);
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let front = Arc::new(ServeFront::from_arc(Arc::clone(&backend), config));
    let net = NetConfig {
        conn_workers: CLIENTS,
        ..NetConfig::default()
    };
    let server =
        HttpServer::bind(Arc::clone(&front), "127.0.0.1:0", net).expect("bind a loopback port");
    let queries = gen::queries(backend.db(), ctx.scale.queries, ctx.seed);
    let requests = queries.iter().map(|q| knn_request(q, K)).collect();
    Served {
        server,
        front,
        backend,
        queries,
        requests,
    }
}

/// Direct answers to the check sample: the reference the served answers
/// must equal bit for bit.
fn direct_answers(ctx: &Ctx, served: &Served) -> Vec<SearchResult> {
    let mut scratch = ShardedScratch::new();
    served.queries[..ctx.scale.check_queries]
        .iter()
        .map(|query| served.backend.knn_with(query, K, &mut scratch))
        .collect()
}

/// Gate: the reference answers themselves, against brute force.
fn check_direct(served: &Served, want: &[SearchResult], outcome: &mut Outcome) {
    let oracle = Oracle::new(served.backend.db());
    for (query, want) in served.queries.iter().zip(want) {
        outcome.gate.record(
            "sharded index vs brute force",
            oracle.check_knn(query, K, |_| true, &want.hits),
        );
    }
}

// ---------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------

/// Tallies of one closed-loop HTTP section.
#[derive(Default)]
struct HttpTally {
    timed: Timed,
    status_200: u64,
    status_other: u64,
    request_bytes: u64,
    response_bytes: u64,
    tracer: Option<Tracer>,
}

impl HttpTally {
    /// Pools the tallies of concurrent clients, or of successive sections.
    fn merge(parts: Vec<HttpTally>) -> HttpTally {
        let mut all = HttpTally::default();
        let mut sections = Vec::new();
        for part in parts {
            all.status_200 += part.status_200;
            all.status_other += part.status_other;
            all.request_bytes += part.request_bytes;
            all.response_bytes += part.response_bytes;
            sections.push(part.timed);
            match (&mut all.tracer, part.tracer) {
                (Some(into), Some(from)) => into.absorb(from),
                (slot @ None, from) => *slot = from,
                (Some(_), None) => {}
            }
        }
        all.timed = Timed::merge(sections);
        all
    }
}

/// `CLIENTS` threads, each on its own connection, each sending its
/// share of the query cycle back to back for `duration`.
fn http_section(served: &Served, duration: Duration, trace_origin: Option<Instant>) -> HttpTally {
    let requests = &served.requests;
    let addr = served.server.local_addr();
    let parts: Vec<HttpTally> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to the server");
                    let mut tally = HttpTally::default();
                    let mut tracer = trace_origin.map(|origin| Tracer::with_origin(true, origin));
                    tally.timed = Timed::run(duration, |i| {
                        let n = (i * CLIENTS + c) % requests.len();
                        let span = tracer
                            .as_mut()
                            .map_or(NONE, |t| t.open("net.http", NONE, (i * CLIENTS + c) as u64));
                        let response = client.exchange(&requests[n]);
                        if let Some(t) = tracer.as_mut() {
                            t.close(span, None);
                        }
                        tally.request_bytes += requests[n].len() as u64;
                        match response {
                            Ok(r) if r.status == 200 => {
                                tally.status_200 += 1;
                                tally.response_bytes += r.body.len() as u64;
                            }
                            _ => tally.status_other += 1,
                        }
                    });
                    tally.tracer = tracer;
                    tally
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("HTTP client panicked"))
            .collect()
    });
    HttpTally::merge(parts)
}

pub fn run_closed(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let served = rounds(
        ctx,
        &mut outcome,
        |m| build(ctx, m),
        |served, duration| {
            let tally = http_section(served, duration, None);
            Window {
                failed: tally.status_other,
                ..Window::of(tally.timed)
            }
        },
    );
    let requests = &served.requests;

    // Gate: the sample over the wire, decoded with the product's own
    // decoder, equals the direct call bit for bit — hits and counters.
    let want = direct_answers(ctx, &served);
    check_direct(&served, &want, &mut outcome);
    let addr = served.server.local_addr();
    let mut client = Client::connect(addr).expect("connect to the server");
    let mut bodies = Vec::with_capacity(want.len());
    for (request, want) in requests.iter().zip(&want) {
        let got = client.exchange(request).ok().filter(|r| r.status == 200);
        let decoded = got
            .as_ref()
            .and_then(|r| Json::parse(&r.body).ok())
            .and_then(|json| wire::decode_result(&json));
        outcome.gate.require(
            "served answer == direct knn_with, bit for bit",
            decoded.is_some_and(|d| same_result(&d, want)),
        );
        bodies.extend(got.map(|r| r.body));
    }
    drop(client);
    if ctx.trace {
        trace_stack(ctx, &served, &want, &bodies, &mut outcome);
    }
    outcome
}

/// The traced run: the same requests at each depth of the stack — direct
/// calls, the front's blocking call, HTTP — then the codecs alone, then
/// the open loop.
fn trace_stack(
    ctx: &Ctx,
    served: &Served,
    want: &[SearchResult],
    bodies: &[String],
    outcome: &mut Outcome,
) {
    let requests = &served.requests;
    let queries = &served.queries;
    let callers = |duration: Duration, call: &(dyn Fn(&[TokenId], &mut ShardedScratch) + Sync)| {
        let parts: Vec<Timed> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut scratch = ShardedScratch::new();
                        Timed::run(duration, |i| {
                            call(&queries[(i * CLIENTS + c) % queries.len()], &mut scratch)
                        })
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("caller panicked"))
                .collect()
        });
        Timed::merge(parts)
    };
    // Each depth gets a slice of every round, so that the differences
    // between depths (the taxes) compare like with like even when the
    // machine's speed drifts during the run.
    let mut tracer = Tracer::new(true);
    let mut scratch = ShardedScratch::new();
    let (mut direct, mut front2, mut direct1, mut front1) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut http, mut plain) = (Vec::new(), Vec::new());
    let slice = |share: f64| ctx.share(share / ROUNDS as f64);
    for _ in 0..ROUNDS {
        direct.push(callers(slice(0.08), &|q, scratch| {
            std::hint::black_box(served.backend.knn_with(q, K, scratch));
        }));
        front2.push(callers(slice(0.1), &|q, _| {
            std::hint::black_box(served.front.knn(q, K).expect("front answers"));
        }));
        // One caller: the direct call, then the front with its submit
        // and wait halves traced apart.
        direct1.push(Timed::run(slice(0.06), |i| {
            let query = &queries[i % queries.len()];
            std::hint::black_box(served.backend.knn_with(query, K, &mut scratch));
        }));
        front1.push(Timed::run(slice(0.1), |i| {
            let id = i as u64;
            let request = tracer.open("serve.front", NONE, id);
            let query = queries[i % queries.len()].clone();
            let ticket = tracer.call("serve.submit", request, id, || {
                served.front.submit_knn_wait(query, K)
            });
            let _ = tracer.call("serve.wait", request, id, || ticket.wait());
            tracer.close(request, None);
        }));
        http.push(http_section(served, slice(0.2), Some(tracer.origin())));
        plain.push(http_section(served, slice(0.1), None));
    }
    let (direct, front2) = (Timed::merge(direct), Timed::merge(front2));
    let (direct1, front1) = (Timed::merge(direct1), Timed::merge(front1));
    let (http, plain) = (HttpTally::merge(http), HttpTally::merge(plain));
    let sections = [
        &direct,
        &front2,
        &direct1,
        &front1,
        &http.timed,
        &plain.timed,
    ];
    outcome.attempted = sections.iter().map(|t| t.lat_ns.len() as u64).sum();
    outcome.failed = http.status_other + plain.status_other;
    tracer.absorb(http.tracer.expect("traced section"));

    // The codecs alone, on the workload's own bytes.
    let codec_p50 = |f: &mut dyn FnMut(usize)| {
        let mut ns = Vec::with_capacity(4 * want.len());
        for i in (0..want.len()).cycle().take(4 * want.len()) {
            let start = Instant::now();
            f(i);
            ns.push(start.elapsed().as_nanos() as u64);
        }
        p50_us(&mut ns)
    };
    let heads: Vec<&[u8]> = requests
        .iter()
        .map(|r| &r[..net_http::find_head_end(r).expect("complete head")])
        .collect();
    let request_bodies: Vec<String> = queries.iter().map(|q| knn_body(q, K)).collect();
    let parse_head = codec_p50(&mut |i| {
        std::hint::black_box(net_http::parse_head(heads[i]).expect("valid head"));
    });
    let decode_knn = codec_p50(&mut |i| {
        std::hint::black_box(wire::decode_knn(request_bodies[i].as_bytes()).expect("valid body"));
    });
    let encode_result = codec_p50(&mut |i| {
        std::hint::black_box(wire::encode_result(&want[i]).to_string());
    });
    outcome.gate.require(
        "encode_result reproduces the served bytes",
        bodies.len() == want.len()
            && bodies
                .iter()
                .zip(want)
                .all(|(b, w)| *b == wire::encode_result(w).to_string()),
    );

    let m = &mut outcome.metrics;
    let direct_c2 = direct.p50_us();
    let front_c2 = front2.p50_us();
    let http_c2 = tracer.p50_us("net.http");
    m.set("shard.knn_us_p50", direct1.p50_us());
    m.set("serve.direct_c2_us_p50", direct_c2);
    m.set("serve.front_c1_us_p50", tracer.p50_us("serve.front"));
    m.set("serve.front_c2_us_p50", front_c2);
    m.set("serve.front_tax_us", front_c2 - direct_c2);
    m.set("serve.submit_us_p50", tracer.p50_us("serve.submit"));
    m.set("net.http_c2_us_p50", http_c2);
    m.set("net.http_tax_us", http_c2 - front_c2);
    m.set("net.parse_head_us_p50", parse_head);
    m.set("net.decode_knn_us_p50", decode_knn);
    m.set("net.encode_result_us_p50", encode_result);
    let exchanges = http.timed.lat_ns.len() as f64;
    m.set(
        "net.request_bytes_mean",
        http.request_bytes as f64 / exchanges,
    );
    m.set(
        "net.response_bytes_mean",
        http.response_bytes as f64 / http.status_200.max(1) as f64,
    );
    m.set("net.status_200", http.status_200 as f64);
    m.set("net.status_other", http.status_other as f64);
    m.set("trace.overhead_share", http_c2 / plain.timed.p50_us() - 1.0);
    trace_open_loop(ctx, served, want, &mut tracer, outcome);
    outcome
        .metrics
        .set("trace.spans", tracer.spans().len() as f64);
    write_trace(ctx, &tracer, "serve_closed");
}

// ---------------------------------------------------------------------
// The open loop (traced run)
// ---------------------------------------------------------------------

/// What became of the requests of one open-loop step.
#[derive(Debug, Default)]
struct Step {
    arrivals: Vec<Arrival>,
    /// Answered correctly within the deadline.
    ok: u64,
    /// Refused at admission: the queue was full.
    shed: u64,
    /// Stopped by the front at their deadline.
    expired: u64,
    /// Answered, but past the deadline.
    late: u64,
    /// Any other error.
    errors: u64,
    /// Answered, but not what the direct call answers.
    wrong: u64,
    rate: f64,
    in_flight_max: usize,
    /// `sims_computed` of the requests that were `ok`, over all the
    /// similarity computations the front did during the step.
    useful_work_share: f64,
    seconds: f64,
}

impl Step {
    fn attempted(&self) -> u64 {
        self.arrivals.len() as u64
    }

    /// Latencies from the due time of the answered requests.
    fn answered_ns(&self) -> Vec<u64> {
        self.arrivals
            .iter()
            .filter(|a| a.ok)
            .map(Arrival::latency_ns)
            .collect()
    }

    fn goodput(&self) -> f64 {
        self.ok as f64 / self.seconds
    }

    fn note(&self) -> String {
        format!(
            "step {}/s for {:.2}s: attempted {} ok {} shed {} expired {} late {} errors {} wrong {}",
            self.rate,
            self.seconds,
            self.attempted(),
            self.ok,
            self.shed,
            self.expired,
            self.late,
            self.errors,
            self.wrong
        )
    }
}

/// One step at a fixed rate, drained before it returns. `want[i]` is the
/// right answer to query `i` where the gate sample covers it.
fn open_step(
    front: &ServeFront<Backend>,
    queries: &[Vec<TokenId>],
    rate: f64,
    seconds: f64,
    seed: u64,
    want: &[SearchResult],
) -> Step {
    let schedule = gen::poisson_schedule(rate, seconds, seed);
    let sims_before = front.stats().sims_computed;
    let mut step = Step {
        seconds,
        ..Step::default()
    };
    let mut in_flight_max = 0;
    let mut useful_sims = 0usize;
    let arrivals = open_loop::drive(
        &schedule,
        |i, due| {
            let opts = SubmitOpts {
                deadline: Some(due + DEADLINE),
                on_full: OnFull::Shed,
                ..SubmitOpts::default()
            };
            let ticket = front.submit_knn_opts(queries[i % queries.len()].clone(), K, opts);
            in_flight_max = in_flight_max.max(front.in_flight());
            (due, ticket)
        },
        |i, (due, ticket): (Instant, Ticket)| match ticket.wait() {
            Ok(result) => {
                let n = i % queries.len();
                if n < want.len() && !same_result(&result, &want[n]) {
                    step.wrong += 1;
                }
                if due.elapsed() <= DEADLINE {
                    step.ok += 1;
                    useful_sims += result.stats.sims_computed;
                } else {
                    step.late += 1;
                }
                true
            }
            Err(ServeError::Overloaded) => {
                step.shed += 1;
                false
            }
            Err(ServeError::DeadlineExceeded(_)) => {
                step.expired += 1;
                false
            }
            Err(_) => {
                step.errors += 1;
                false
            }
        },
    );
    let sims = front.stats().sims_computed - sims_before;
    step.useful_work_share = useful_sims as f64 / sims.max(1) as f64;
    step.in_flight_max = in_flight_max;
    step.arrivals = arrivals;
    step.rate = rate;
    step
}

/// The open-loop steps of the traced run, on a second front over the
/// same index that sheds when 64 requests are in flight. What becomes of
/// these requests is the measurement (`serve.*`), not an operation
/// failure: under an open loop a stall of the machine is enough to make
/// a request late.
fn trace_open_loop(
    ctx: &Ctx,
    served: &Served,
    want: &[SearchResult],
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) {
    let config = ServeConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        ..ServeConfig::default()
    };
    let front = ServeFront::from_arc(Arc::clone(&served.backend), config);
    let stream = |n: u64| gen::sub_seed(ctx.seed, 100 + n);
    let mid = open_step(
        &front,
        &served.queries,
        RATE_MID,
        ctx.seconds * 0.24,
        stream(0),
        want,
    );
    let over = open_step(
        &front,
        &served.queries,
        RATE_OVER,
        ctx.seconds * 0.12,
        stream(1),
        want,
    );
    outcome.notes.extend([mid.note(), over.note()]);
    outcome.gate.require(
        "answers through the open-loop front == direct knn_with",
        mid.wrong + over.wrong == 0,
    );

    // The spans of the measured step, from the instants both threads took.
    for a in &mid.arrivals {
        let id = a.index as u64;
        let request = tracer.record("open.request", (a.due, a.done), NONE, id);
        tracer.record("open.submit", a.submit, request, id);
        tracer.record("open.wait", (a.submit.1, a.done), request, id);
    }
    // A request's self time — due to done, minus the submit and wait it
    // covers — is how late the generator got to it.
    let mut lag = tracer.self_times("open.request");
    lag.sort_unstable();

    let m = &mut outcome.metrics;
    let (p50, p99) = stats::p50_p99_us(&mut mid.answered_ns());
    m.set("gen.offered_qps", mid.attempted() as f64 / mid.seconds);
    m.set("gen.lag_us_p99", stats::percentile(&lag, 99.0) as f64 / 1e3);
    m.set("serve.open_p50_us", p50);
    m.set("serve.open_p99_us", p99);
    m.set("serve.ok", mid.ok as f64);
    m.set("serve.shed", mid.shed as f64);
    m.set("serve.expired", mid.expired as f64);
    m.set("serve.late", mid.late as f64);
    m.set("serve.in_flight_max", mid.in_flight_max as f64);
    m.set("serve.useful_work_share", mid.useful_work_share);
    m.set("serve.over_goodput_qps", over.goodput());
    m.set("serve.over_ok", over.ok as f64);
    m.set("serve.over_shed", over.shed as f64);
    m.set("serve.over_expired", over.expired as f64);
    m.set("serve.over_late", over.late as f64);
    m.set("serve.over_useful_work_share", over.useful_work_share);
}
