//! End-to-end tests of the HTTP serving layer: a real server on an
//! ephemeral port, real `TcpStream` clients, and bit-for-bit comparison
//! of everything that crosses the wire against direct index calls.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use les3_core::sim::Jaccard;
use les3_core::{
    Les3Index, Partitioning, PersistentBackend, ServeConfig, ServeFront, ShardPolicy,
    ShardedLes3Index, Similarity,
};
use les3_data::zipfian::ZipfianGenerator;
use les3_data::SetDatabase;
use les3_net::json::Json;
use les3_net::{wire, HttpServer, NetConfig};

// ---------------------------------------------------------------- helpers

fn test_db(seed: u64) -> SetDatabase {
    ZipfianGenerator::new(180, 120, 6.0, 1.1).generate(seed)
}

fn flat_index(seed: u64) -> Les3Index<Jaccard> {
    let db = test_db(seed);
    let part = Partitioning::round_robin(db.len(), 12);
    Les3Index::build(db, part, Jaccard)
}

fn sharded_index(seed: u64) -> ShardedLes3Index<Jaccard> {
    let db = test_db(seed);
    let part = Partitioning::round_robin(db.len(), 12);
    ShardedLes3Index::build(db, part, Jaccard, 3, ShardPolicy::Contiguous)
}

/// A similarity measure whose filter pass blocks on an external gate
/// (the `serve_front.rs` idiom): the deterministic way to keep a query
/// on its worker until the test has arranged what it wants to observe.
/// `GATES[ID]` starts closed; the block self-releases after 10 s so a
/// failing test fails instead of hanging.
#[derive(Debug, Clone, Copy, Default)]
struct GatedSim<const ID: usize>(Jaccard);

static GATES: [AtomicBool; 3] = [
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
];

impl<const ID: usize> Similarity for GatedSim<ID> {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn from_overlap(&self, overlap: usize, a_len: usize, b_len: usize) -> f64 {
        self.0.from_overlap(overlap, a_len, b_len)
    }
    fn ub_from_overlap(&self, q_len: usize, r: usize) -> f64 {
        let start = Instant::now();
        while !GATES[ID].load(Ordering::Acquire) && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_micros(50));
        }
        self.0.ub_from_overlap(q_len, r)
    }
}

fn gated_index<const ID: usize>(seed: u64) -> Les3Index<GatedSim<ID>> {
    let db = test_db(seed);
    let part = Partitioning::round_robin(db.len(), 12);
    Les3Index::build(db, part, GatedSim::<ID>::default())
}

fn start_server<B: PersistentBackend>(backend: B, config: ServeConfig) -> (HttpServer, String) {
    start_server_with(backend, config, NetConfig::default())
}

fn start_server_with<B: PersistentBackend>(
    backend: B,
    config: ServeConfig,
    net: NetConfig,
) -> (HttpServer, String) {
    let front = Arc::new(ServeFront::new(backend, config));
    let server = HttpServer::bind(front, "127.0.0.1:0", net).expect("bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn fast_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: usize::MAX,
    }
}

/// A keep-alive HTTP/1.1 client over one raw `TcpStream`.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        Json::parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body {:?}: {e}", self.body))
    }
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write request");
    }

    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> HttpResponse {
        let body = body.unwrap_or("");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.send_raw(raw.as_bytes());
        self.read_response()
    }

    fn read_response(&mut self) -> HttpResponse {
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.stream.read(&mut chunk).expect("read response head");
            assert!(n > 0, "server closed before a full response head");
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("utf8 head");
        let mut lines = head.trim_end().split("\r\n");
        let status_line = lines.next().expect("status line");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let headers: Vec<(String, String)> = lines
            .map(|line| {
                let (k, v) = line.split_once(':').expect("header line");
                (k.to_ascii_lowercase(), v.trim().to_string())
            })
            .collect();
        let content_length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse().expect("content-length"))
            .expect("response must carry Content-Length");
        while self.buf.len() < head_end + content_length {
            let n = self.stream.read(&mut chunk).expect("read response body");
            assert!(n > 0, "server closed mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buf[head_end..head_end + content_length].to_vec())
            .expect("utf8 body");
        self.buf.drain(..head_end + content_length);
        HttpResponse {
            status,
            headers,
            body,
        }
    }

    fn knn(&mut self, query: &[u32], k: usize) -> HttpResponse {
        let q: Vec<Json> = query.iter().map(|&t| Json::from(u64::from(t))).collect();
        let body = Json::Obj(vec![
            ("query".to_string(), Json::Arr(q)),
            ("k".to_string(), Json::from(k)),
        ]);
        self.request("POST", "/knn", Some(&body.to_string()))
    }

    fn range(&mut self, query: &[u32], delta: f64) -> HttpResponse {
        let q: Vec<Json> = query.iter().map(|&t| Json::from(u64::from(t))).collect();
        let body = Json::Obj(vec![
            ("query".to_string(), Json::Arr(q)),
            ("delta".to_string(), Json::from(delta)),
        ]);
        self.request("POST", "/range", Some(&body.to_string()))
    }
}

fn stats_field(addr: &str, field: &str) -> u64 {
    let mut client = Client::connect(addr);
    let response = client.request("GET", "/stats", None);
    assert_eq!(response.status, 200);
    response
        .json()
        .get("stats")
        .and_then(|s| s.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing stats field {field}"))
}

// ----------------------------------------------------- bit-for-bit equality

/// Serves kNN and range queries over HTTP — on one keep-alive
/// connection and from several racing connections — and asserts hits
/// *and* stats decode to exactly the direct call's `SearchResult`.
fn assert_served_equals_direct<B, F>(backend: B, direct: F)
where
    B: PersistentBackend,
    F: Fn(&[u32], wire::QueryParam) -> les3_core::SearchResult + Sync,
{
    let db = test_db(9);
    let (server, addr) = start_server(backend, fast_config());

    // One keep-alive connection, alternating kNN and range.
    let mut client = Client::connect(&addr);
    for qid in [0u32, 3, 17, 99, 179] {
        let query = db.set(qid).to_vec();
        let response = client.knn(&query, 7);
        assert_eq!(response.status, 200, "{}", response.body);
        let served = wire::decode_result(&response.json()).expect("decodable result");
        assert_eq!(served, direct(&query, wire::QueryParam::Knn(7)));

        let response = client.range(&query, 0.35);
        assert_eq!(response.status, 200, "{}", response.body);
        let served = wire::decode_result(&response.json()).expect("decodable result");
        assert_eq!(served, direct(&query, wire::QueryParam::Range(0.35)));
    }

    // Several racing client connections (coalesced into shared batches).
    std::thread::scope(|scope| {
        for t in 0..4 {
            let addr = &addr;
            let db = &db;
            let direct = &direct;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..6u32 {
                    let qid = (t * 41 + i * 13) % db.len() as u32;
                    let query = db.set(qid).to_vec();
                    let response = client.knn(&query, 5);
                    assert_eq!(response.status, 200, "{}", response.body);
                    let served = wire::decode_result(&response.json()).unwrap();
                    assert_eq!(served, direct(&query, wire::QueryParam::Knn(5)));
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn served_results_are_bit_for_bit_flat() {
    let index = flat_index(9);
    let reference = flat_index(9);
    assert_served_equals_direct(index, move |query, param| match param {
        wire::QueryParam::Knn(k) => reference.knn(query, k),
        wire::QueryParam::Range(delta) => reference.range(query, delta),
    });
}

#[test]
fn served_results_are_bit_for_bit_sharded() {
    let index = sharded_index(9);
    let reference = sharded_index(9);
    assert_served_equals_direct(index, move |query, param| match param {
        wire::QueryParam::Knn(k) => reference.knn(query, k),
        wire::QueryParam::Range(delta) => reference.range(query, delta),
    });
}

// --------------------------------------------------------- status mappings

#[test]
fn overload_maps_to_503_with_retry_after() {
    // Capacity 1 and a gated query: the first request is admitted and
    // holds the worker at the gate; the second finds the queue full and
    // must shed.
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
    };
    let (server, addr) = start_server(gated_index::<0>(5), config);
    let db = test_db(5);
    let query = db.set(0).to_vec();

    let occupant_addr = addr.clone();
    let occupant_query = query.clone();
    let occupant = std::thread::spawn(move || {
        let mut client = Client::connect(&occupant_addr);
        client.knn(&occupant_query, 3)
    });
    // Deterministic sequencing: wait until the occupant is admitted.
    let t0 = Instant::now();
    loop {
        let mut probe = Client::connect(&addr);
        let response = probe.request("GET", "/stats", None);
        let in_flight = response.json().get("in_flight").and_then(Json::as_u64);
        if in_flight == Some(1) {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "occupant never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut client = Client::connect(&addr);
    let response = client.knn(&query, 3);
    assert_eq!(response.status, 503, "{}", response.body);
    let retry_after: u64 = response
        .header("retry-after")
        .expect("503 must carry Retry-After")
        .parse()
        .expect("integral Retry-After");
    assert!(retry_after >= 1);
    assert_eq!(
        response.json().get("error").and_then(Json::as_str),
        Some("overloaded")
    );

    // The occupant still completes normally once the gate opens.
    GATES[0].store(true, Ordering::Release);
    let occupant_response = occupant.join().unwrap();
    assert_eq!(occupant_response.status, 200);
    assert!(stats_field(&addr, "shed") >= 1);
    server.shutdown();
}

#[test]
fn expired_timeout_maps_to_504_with_stats() {
    let (server, addr) = start_server(flat_index(6), fast_config());
    let db = test_db(6);
    let query: Vec<Json> = db
        .set(1)
        .iter()
        .map(|&t| Json::from(u64::from(t)))
        .collect();
    let body = Json::Obj(vec![
        ("query".to_string(), Json::Arr(query)),
        ("k".to_string(), Json::from(4u64)),
        ("timeout_ms".to_string(), Json::from(0u64)),
    ]);
    let mut client = Client::connect(&addr);
    let response = client.request("POST", "/knn", Some(&body.to_string()));
    assert_eq!(response.status, 504, "{}", response.body);
    let json = response.json();
    assert_eq!(
        json.get("error").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    // An already-expired request never reaches verification; the partial
    // stats in the body prove it.
    let stats = wire::decode_stats(json.get("stats").expect("504 carries stats")).unwrap();
    assert_eq!(stats.groups_verified, 0);
    assert!(stats_field(&addr, "expired") >= 1);
    server.shutdown();
}

/// The anytime tier over the wire: `"mode":"anytime"` with
/// `timeout_ms: 0` answers `200` with a committed partial result and
/// the `"approx"`/`"recall_est"` envelope fields, where the exact path
/// (no `"mode"`) still maps the same deadline to `504`.
#[test]
fn anytime_mode_commits_with_200_where_exact_504s() {
    let (server, addr) = start_server(flat_index(6), fast_config());
    let db = test_db(6);
    let query: Vec<Json> = db
        .set(1)
        .iter()
        .map(|&t| Json::from(u64::from(t)))
        .collect();
    let body = Json::Obj(vec![
        ("query".to_string(), Json::Arr(query.clone())),
        ("k".to_string(), Json::from(4u64)),
        ("timeout_ms".to_string(), Json::from(0u64)),
        ("mode".to_string(), Json::from("anytime")),
    ]);
    let mut client = Client::connect(&addr);
    let response = client.request("POST", "/knn", Some(&body.to_string()));
    assert_eq!(response.status, 200, "{}", response.body);
    let json = response.json();
    let result = wire::decode_result(&json).expect("200 body decodes");
    let info = wire::decode_approx(&json).expect("anytime carries the verdict fields");
    assert!(
        (0.0..=1.0).contains(&info.recall_est),
        "recall_est {} outside [0, 1]",
        info.recall_est
    );
    // Whatever was committed is exact for those ids.
    let flat = flat_index(6);
    let full = flat.knn(db.set(1), db.len());
    for &(id, sim) in &result.hits {
        let want = full.hits.iter().find(|&&(fid, _)| fid == id).unwrap();
        assert_eq!(sim.to_bits(), want.1.to_bits(), "hit {id} not exact");
    }
    assert_eq!(
        stats_field(&addr, "expired"),
        0,
        "a committed anytime answer is served, not expired"
    );

    // The exact path with the same deadline still expires.
    let body = Json::Obj(vec![
        ("query".to_string(), Json::Arr(query)),
        ("k".to_string(), Json::from(4u64)),
        ("timeout_ms".to_string(), Json::from(0u64)),
    ]);
    let response = client.request("POST", "/knn", Some(&body.to_string()));
    assert_eq!(response.status, 504, "{}", response.body);
    assert!(
        response.json().get("approx").is_none(),
        "504 has no verdict"
    );
    server.shutdown();
}

/// The MinHash prefilter is a library policy only: `"mode":"prefilter"`
/// is a schema error naming the mode, like any unknown mode; exact
/// responses carry no verdict fields (byte-compat with old clients).
#[test]
fn prefilter_mode_is_a_schema_error() {
    let (server, addr) = start_server(flat_index(8), fast_config());
    let db = test_db(8);
    let mut client = Client::connect(&addr);

    let query: Vec<Json> = db
        .set(3)
        .iter()
        .map(|&t| Json::from(u64::from(t)))
        .collect();
    for mode in ["prefilter", "psychic"] {
        let body = Json::Obj(vec![
            ("query".to_string(), Json::Arr(query.clone())),
            ("k".to_string(), Json::from(5u64)),
            ("mode".to_string(), Json::from(mode)),
        ]);
        let response = client.request("POST", "/knn", Some(&body.to_string()));
        assert_eq!(response.status, 400, "{}", response.body);
        let json = response.json();
        assert_eq!(
            json.get("error").and_then(Json::as_str),
            Some("bad_request")
        );
        let message = json
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(message.contains(&format!("{mode:?}")), "{message}");
    }

    // No "mode" → the envelope stays exactly the pre-approx schema.
    let body = Json::Obj(vec![
        ("query".to_string(), Json::Arr(query)),
        ("k".to_string(), Json::from(5u64)),
    ]);
    let response = client.request("POST", "/knn", Some(&body.to_string()));
    assert_eq!(response.status, 200);
    assert!(response.json().get("approx").is_none());
    assert!(response.json().get("recall_est").is_none());
    server.shutdown();
}

#[test]
fn client_disconnect_cancels_the_query() {
    // A gated query keeps the request on its worker; the client
    // vanishes before the gate opens, and the probe loop must cancel it.
    let config = ServeConfig {
        workers: 1,
        queue_capacity: usize::MAX,
    };
    let (server, addr) = start_server(gated_index::<1>(7), config);
    let db = test_db(7);
    {
        let mut client = Client::connect(&addr);
        let query: Vec<Json> = db
            .set(2)
            .iter()
            .map(|&t| Json::from(u64::from(t)))
            .collect();
        let body = Json::Obj(vec![
            ("query".to_string(), Json::Arr(query)),
            ("k".to_string(), Json::from(3u64)),
        ])
        .to_string();
        client.send_raw(
            format!(
                "POST /knn HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        // Drop the connection without reading the response.
    }
    // Two hundred probe intervals for the server to notice, then let the
    // query reach its next cancellation check.
    std::thread::sleep(Duration::from_millis(400));
    GATES[1].store(true, Ordering::Release);
    let t0 = Instant::now();
    loop {
        if stats_field(&addr, "cancelled") >= 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "disconnect was never noticed as a cancellation"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

/// Polls `GET /stats` until `in_flight` reaches `n`.
fn await_in_flight(addr: &str, n: u64) {
    let t0 = Instant::now();
    loop {
        let response = Client::connect(addr).request("GET", "/stats", None);
        if response.json().get("in_flight").and_then(Json::as_u64) == Some(n) {
            return;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "in_flight never reached {n}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn client_disconnect_cancels_a_queued_query() {
    // One worker, so one scratch: a gated occupant holds it on its own
    // connection worker, and a second client's query queues behind it.
    // That client vanishes while queued; the probe between waits must
    // cancel the request, which then never runs.
    let config = ServeConfig {
        workers: 1,
        queue_capacity: usize::MAX,
    };
    let (server, addr) = start_server(gated_index::<2>(7), config);
    let db = test_db(7);
    let query = db.set(2).to_vec();
    let occupant = {
        let (addr, query) = (addr.clone(), query.clone());
        std::thread::spawn(move || Client::connect(&addr).knn(&query, 3))
    };
    await_in_flight(&addr, 1);
    {
        let mut client = Client::connect(&addr);
        let tokens: Vec<Json> = query.iter().map(|&t| Json::from(u64::from(t))).collect();
        let body = Json::Obj(vec![
            ("query".to_string(), Json::Arr(tokens)),
            ("k".to_string(), Json::from(3u64)),
        ])
        .to_string();
        client.send_raw(
            format!(
                "POST /knn HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        await_in_flight(&addr, 2);
        // Drop the connection without reading the response.
    }
    // Two hundred probe intervals for the server to notice, then free
    // the scratch.
    std::thread::sleep(Duration::from_millis(400));
    GATES[2].store(true, Ordering::Release);
    let occupant = occupant.join().unwrap();
    assert_eq!(occupant.status, 200, "{}", occupant.body);
    let t0 = Instant::now();
    while stats_field(&addr, "cancelled") < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the queued request was never cancelled"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(stats_field(&addr, "cancelled"), 1);
    // The cancelled request verified nothing: all the verification the
    // aggregate holds is the occupant's.
    let occupant_stats = wire::decode_stats(occupant.json().get("stats").unwrap()).unwrap();
    assert!(occupant_stats.groups_verified > 0);
    assert_eq!(
        stats_field(&addr, "groups_verified"),
        occupant_stats.groups_verified as u64
    );
    server.shutdown();
}

#[test]
fn malformed_requests_get_400_and_friends() {
    let (server, addr) = start_server(flat_index(8), fast_config());
    let mut client = Client::connect(&addr);

    // Schema violations → 400 with a bad_request envelope.
    for bad_body in [
        "not json at all",
        "[1,2,3]",
        r#"{"k":3}"#,
        r#"{"query":"oops","k":3}"#,
        r#"{"query":[1.5],"k":3}"#,
        r#"{"query":[1,2]}"#,
        r#"{"query":[1,2],"k":-1}"#,
        r#"{"query":[1,2],"k":3,"timeout_ms":"soon"}"#,
        "",
    ] {
        let response = client.request("POST", "/knn", Some(bad_body));
        assert_eq!(
            response.status, 400,
            "body {bad_body:?} → {}",
            response.body
        );
        assert_eq!(
            response.json().get("error").and_then(Json::as_str),
            Some("bad_request"),
            "{bad_body:?}"
        );
    }
    let response = client.request("POST", "/range", Some(r#"{"query":[1],"delta":"x"}"#));
    assert_eq!(response.status, 400);

    // Routing errors.
    let response = client.request("GET", "/knn", None);
    assert_eq!(response.status, 405);
    assert_eq!(response.header("allow"), Some("POST"));
    let response = client.request("POST", "/healthz", None);
    assert_eq!(response.status, 405);
    assert_eq!(response.header("allow"), Some("GET"));
    let response = client.request("GET", "/nope", None);
    assert_eq!(response.status, 404);

    // A garbage request line closes the connection after a 400.
    let mut garbage = Client::connect(&addr);
    garbage.send_raw(b"EHLO example.com\r\n\r\n");
    let response = garbage.read_response();
    assert_eq!(response.status, 400);
    server.shutdown();
}

#[test]
fn healthz_and_stats_shapes() {
    let (server, addr) = start_server(flat_index(10), fast_config());
    let mut client = Client::connect(&addr);
    let response = client.request("GET", "/healthz", None);
    assert_eq!(response.status, 200);
    assert_eq!(
        response.json().get("ok").and_then(Json::as_bool),
        Some(true)
    );

    // Serve two queries, then check the aggregate moved.
    let db = test_db(10);
    let q = db.set(4).to_vec();
    assert_eq!(client.knn(&q, 3).status, 200);
    assert_eq!(client.range(&q, 0.5).status, 200);
    let response = client.request("GET", "/stats", None);
    assert_eq!(response.status, 200);
    let json = response.json();
    assert_eq!(json.get("in_flight").and_then(Json::as_u64), Some(0));
    let agg = wire::decode_stats(json.get("stats").unwrap()).unwrap();
    assert!(agg.candidates > 0, "aggregate work counters should move");
    server.shutdown();
}

#[test]
fn absurd_k_is_rejected_and_huge_valid_k_is_served() {
    let (server, addr) = start_server(flat_index(12), fast_config());
    let reference = flat_index(12);
    let mut client = Client::connect(&addr);
    // k beyond 2^32 violates the schema: shed at the wire, never
    // reaching the query engine (a k-sized allocation would be a DoS).
    let response = client.request(
        "POST",
        "/knn",
        Some(r#"{"query":[1,2],"k":9007199254740992}"#),
    );
    assert_eq!(response.status, 400, "{}", response.body);
    // The largest schema-valid k is served fine (clamped by |D| inside
    // the engine, capacity hints bounded).
    let response = client.request("POST", "/knn", Some(r#"{"query":[1,2],"k":4294967295}"#));
    assert_eq!(response.status, 200, "{}", response.body);
    let served = wire::decode_result(&response.json()).unwrap();
    assert_eq!(served, reference.knn(&[1, 2], u32::MAX as usize));
    server.shutdown();
}

#[test]
fn idle_connections_are_closed_after_the_idle_timeout() {
    let net = NetConfig {
        idle_timeout: Duration::from_millis(300),
        ..NetConfig::default()
    };
    let (server, addr) = start_server_with(flat_index(13), fast_config(), net);
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Send nothing: the server must hang up on its own (EOF), freeing
    // the connection worker for clients that actually talk.
    let mut probe = [0u8; 1];
    let t0 = Instant::now();
    let n = (&stream)
        .read(&mut probe)
        .expect("clean EOF, not a timeout");
    assert_eq!(n, 0, "expected EOF from the idle hangup");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "idle hangup took too long"
    );
    // The server is still fully alive for the next client.
    let mut client = Client::connect(&addr);
    assert_eq!(client.request("GET", "/healthz", None).status, 200);
    server.shutdown();
}

/// `ACCEPT_BACKLOG` in `crates/net/src/server.rs`: accepted connections
/// that may wait for a connection worker.
const ACCEPT_BACKLOG: usize = 64;

#[test]
fn accepted_connections_queue_up_to_the_backlog_and_the_next_is_closed() {
    let net = NetConfig {
        conn_workers: 1,
        idle_timeout: Duration::from_secs(60),
    };
    let (server, addr) = start_server_with(flat_index(17), fast_config(), net);
    // One answered keep-alive connection, left idle, holds the only
    // connection worker.
    let mut idle = Client::connect(&addr);
    assert_eq!(idle.request("GET", "/healthz", None).status, 200);
    // The accept thread takes connections in order: the backlog fills,
    // and the one past it is closed at once.
    let mut queued: Vec<Client> = (0..ACCEPT_BACKLOG)
        .map(|_| Client::connect(&addr))
        .collect();
    let extra = Client::connect(&addr);
    let mut probe = [0u8; 1];
    let n = (&extra.stream)
        .read(&mut probe)
        .expect("clean EOF, not a timeout");
    assert_eq!(n, 0, "a connection past the backlog must be closed");
    // Once the idle client leaves, the worker serves every queued
    // connection in turn.
    for client in &mut queued {
        client.send_raw(b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    }
    drop(idle);
    for (i, client) in queued.iter_mut().enumerate() {
        assert_eq!(client.read_response().status, 200, "queued connection {i}");
    }
    server.shutdown();
}

#[test]
fn timeout_far_in_the_future_serves_normally() {
    let (server, addr) = start_server(flat_index(11), fast_config());
    let reference = flat_index(11);
    let db = test_db(11);
    let query: Vec<Json> = db
        .set(6)
        .iter()
        .map(|&t| Json::from(u64::from(t)))
        .collect();
    let body = Json::Obj(vec![
        ("query".to_string(), Json::Arr(query)),
        ("k".to_string(), Json::from(5u64)),
        ("timeout_ms".to_string(), Json::from(60_000u64)),
    ]);
    let mut client = Client::connect(&addr);
    let response = client.request("POST", "/knn", Some(&body.to_string()));
    assert_eq!(response.status, 200, "{}", response.body);
    let served = wire::decode_result(&response.json()).unwrap();
    assert_eq!(served, reference.knn(db.set(6), 5));
    server.shutdown();
}

// ------------------------------------------------------------- snapshots

#[test]
fn snapshot_endpoint_writes_a_reloadable_index() {
    use les3_core::persist::{save_index, DurableIndex};

    let dir = std::env::temp_dir().join(format!("les3-snap-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let index = Arc::new(flat_index(9));
    let front = Arc::new(ServeFront::from_arc(Arc::clone(&index), fast_config()));
    let snap_index = Arc::clone(&index);
    let snap_dir = dir.clone();
    let hook: les3_net::SnapshotFn = Box::new(move || {
        save_index(&*snap_index, &snap_dir)
            .map(|()| snap_dir.display().to_string())
            .map_err(|e| les3_net::SnapshotError::Failed(e.to_string()))
    });
    let server =
        HttpServer::bind_with_snapshot(front, "127.0.0.1:0", NetConfig::default(), Some(hook))
            .expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string());
    let response = client.request("POST", "/snapshot", None);
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(
        response.json().get("ok").and_then(Json::as_bool),
        Some(true)
    );

    // What landed on disk is a complete durable index answering like the
    // one being served.
    let reopened = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).expect("reopen");
    let q = index.db().set(7).to_vec();
    assert_eq!(reopened.backend().knn(&q, 5), index.knn(&q, 5));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory with tombstones, reloaded the way `les3-serve
/// --load-index` reloads it: the default route answers over the live
/// sets only — a deleted set is never returned, by `/knn` or `/range`,
/// a kNN still comes back with `k` hits, and `/stats` holds each query's
/// work exactly once.
#[test]
fn a_reloaded_directory_never_serves_its_tombstoned_sets() {
    use les3_core::persist::DurableIndex;

    let dir = std::env::temp_dir().join(format!("les3-tombs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut durable = DurableIndex::create(&dir, flat_index(21)).unwrap();
    let query = durable.backend().db().set(5).to_vec();
    // Delete the query's best answers: one lands in the segment's TOMBS
    // block, the others stay in the WAL tail.
    let doomed: Vec<u32> = durable
        .backend()
        .knn(&query, 3)
        .hits
        .iter()
        .map(|h| h.0)
        .collect();
    assert!(doomed.contains(&5));
    assert!(durable.delete(doomed[0]).unwrap());
    durable.checkpoint().unwrap();
    assert!(durable.delete(doomed[1]).unwrap());
    assert!(durable.delete(doomed[2]).unwrap());
    drop(durable);

    let reopened = DurableIndex::<Les3Index<Jaccard>>::open(&dir, Jaccard).expect("reopen");
    let live = reopened.into_live();
    let (backend, log) = (live.engine(), live.log());
    let (mut live_knn, mut live_range) = (backend.knn(&query, 4), backend.range(&query, 0.2));
    for hits in [&mut live_knn.hits, &mut live_range.hits] {
        log.filter_hits(hits);
    }
    assert_eq!(live_knn.hits.len(), 4);

    let front = ServeFront::from_live(live, fast_config());
    let server =
        HttpServer::bind(Arc::new(front), "127.0.0.1:0", NetConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr);

    let response = client.knn(&query, 4);
    assert_eq!(response.status, 200, "{}", response.body);
    let knn = wire::decode_result(&response.json()).expect("decodable result");
    assert!(knn.hits.iter().all(|h| !doomed.contains(&h.0)), "{knn:?}");
    assert_eq!(knn, live_knn);

    let response = client.range(&query, 0.2);
    assert_eq!(response.status, 200, "{}", response.body);
    let range = wire::decode_result(&response.json()).expect("decodable result");
    assert!(
        range.hits.iter().all(|h| !doomed.contains(&h.0)),
        "{range:?}"
    );
    assert_eq!(range, live_range);

    for (field, served) in [
        ("candidates", knn.stats.candidates + range.stats.candidates),
        (
            "groups_verified",
            knn.stats.groups_verified + range.stats.groups_verified,
        ),
    ] {
        assert_eq!(stats_field(&addr, field), served as u64, "{field}");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_in_flight_returns_busy_but_queries_keep_serving() {
    use std::sync::mpsc;

    let index = Arc::new(flat_index(13));
    let front = Arc::new(ServeFront::from_arc(Arc::clone(&index), fast_config()));
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = std::sync::Mutex::new(release_rx);
    let hook: les3_net::SnapshotFn = Box::new(move || {
        entered_tx.send(()).ok();
        release_rx.lock().unwrap().recv().ok();
        Ok("held".to_string())
    });
    let server =
        HttpServer::bind_with_snapshot(front, "127.0.0.1:0", NetConfig::default(), Some(hook))
            .expect("bind");
    let addr = server.local_addr().to_string();

    // Park a snapshot inside the hook...
    let held_addr = addr.clone();
    let held = std::thread::spawn(move || {
        let mut client = Client::connect(&held_addr);
        client.request("POST", "/snapshot", None).status
    });
    entered_rx
        .recv()
        .expect("the snapshot hook must be entered");

    // ...queries still flow while it is being written...
    let q = index.db().set(3).to_vec();
    let mut query_client = Client::connect(&addr);
    let response = query_client.knn(&q, 4);
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(
        wire::decode_result(&response.json()).unwrap(),
        index.knn(&q, 4)
    );

    // ...and a concurrent second snapshot is refused, with a backoff.
    let mut busy_client = Client::connect(&addr);
    let busy = busy_client.request("POST", "/snapshot", None);
    assert_eq!(busy.status, 503, "{}", busy.body);
    assert!(busy.header("retry-after").is_some());

    release_tx.send(()).unwrap();
    assert_eq!(held.join().unwrap(), 200);
    server.shutdown();
}

#[test]
fn snapshot_failure_and_absence_map_to_500_404_405() {
    let front = Arc::new(ServeFront::new(flat_index(5), fast_config()));
    let hook: les3_net::SnapshotFn =
        Box::new(|| Err(les3_net::SnapshotError::Failed("disk on fire".to_string())));
    let server =
        HttpServer::bind_with_snapshot(front, "127.0.0.1:0", NetConfig::default(), Some(hook))
            .expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string());
    let response = client.request("POST", "/snapshot", None);
    assert_eq!(response.status, 500, "{}", response.body);
    assert!(response.body.contains("disk on fire"), "{}", response.body);
    server.shutdown();

    // A server without a snapshot hook: the path exists in the router
    // (405 for the wrong method) but POST answers 404.
    let (server, addr) = start_server(flat_index(5), fast_config());
    let mut client = Client::connect(&addr);
    assert_eq!(client.request("POST", "/snapshot", None).status, 404);
    assert_eq!(client.request("GET", "/snapshot", None).status, 405);
    server.shutdown();
}

#[test]
fn snapshot_panic_maps_to_500_and_releases_the_busy_guard() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let front = Arc::new(ServeFront::new(flat_index(5), fast_config()));
    let panicked = Arc::new(AtomicBool::new(false));
    let hook_panicked = Arc::clone(&panicked);
    let hook: les3_net::SnapshotFn = Box::new(move || {
        if !hook_panicked.swap(true, Ordering::AcqRel) {
            panic!("segment writer exploded");
        }
        Ok("recovered".to_string())
    });
    let server =
        HttpServer::bind_with_snapshot(front, "127.0.0.1:0", NetConfig::default(), Some(hook))
            .expect("bind");
    let addr = server.local_addr().to_string();

    // The panicking attempt is a 500, not a dead worker or a hung 503.
    let mut client = Client::connect(&addr);
    let response = client.request("POST", "/snapshot", None);
    assert_eq!(response.status, 500, "{}", response.body);
    assert!(
        response.body.contains("segment writer exploded"),
        "{}",
        response.body
    );

    // The busy guard was released: the next snapshot runs and succeeds
    // (a leaked flag would make this a 503 forever).
    let retry = client.request("POST", "/snapshot", None);
    assert_eq!(retry.status, 200, "{}", retry.body);
    assert!(retry.body.contains("recovered"), "{}", retry.body);
    server.shutdown();
}

// ------------------------------------------------------------ namespaces

use les3_core::{Filter, Filters, NamespaceSpec};

/// Builds the JSON body for a `PUT /ns/{name}` creating a small corpus
/// with a `"tier"` attribute on every even set.
fn ns_create_body(sets: &[Vec<u32>]) -> String {
    let sets_json: Vec<Json> = sets
        .iter()
        .map(|s| Json::Arr(s.iter().map(|&t| Json::from(u64::from(t))).collect()))
        .collect();
    let attrs: Vec<Json> = (0..sets.len())
        .map(|i| {
            if i % 2 == 0 {
                Json::Obj(vec![("tier".to_string(), Json::from("gold"))])
            } else {
                Json::Obj(vec![("tier".to_string(), Json::from("bronze"))])
            }
        })
        .collect();
    Json::Obj(vec![
        ("sets".to_string(), Json::Arr(sets_json)),
        ("attrs".to_string(), Json::Arr(attrs)),
    ])
    .to_string()
}

/// The same corpus as a core-side [`NamespaceSpec`], for reference
/// answers computed without the network in the way.
fn ns_reference_spec(sets: &[Vec<u32>]) -> NamespaceSpec {
    NamespaceSpec {
        sets: sets.to_vec(),
        attrs: (0..sets.len())
            .map(|i| {
                let tier = if i % 2 == 0 { "gold" } else { "bronze" };
                vec![("tier".to_string(), tier.to_string())]
            })
            .collect(),
        ..NamespaceSpec::default()
    }
}

fn gold_filter_json() -> &'static str {
    r#"{"eq":{"key":"tier","value":"gold"}}"#
}

fn ns_knn_body(query: &[u32], k: usize, filter: Option<&str>) -> String {
    let q: Vec<Json> = query.iter().map(|&t| Json::from(u64::from(t))).collect();
    let mut body = format!(r#"{{"query":{},"k":{k}"#, Json::Arr(q));
    if let Some(f) = filter {
        body.push_str(&format!(r#","filter":{f}"#));
    }
    body.push('}');
    body
}

fn corpus(seed: u64, n: usize) -> Vec<Vec<u32>> {
    let db = ZipfianGenerator::new(n, 90, 5.0, 1.1).generate(seed);
    (0..db.len() as u32).map(|i| db.set(i).to_vec()).collect()
}

#[test]
fn namespace_lifecycle_round_trip() {
    let (server, addr) = start_server(flat_index(21), fast_config());
    let mut client = Client::connect(&addr);
    let sets = corpus(21, 60);

    // Create, and read the info back.
    let response = client.request("PUT", "/ns/tenant-a", Some(&ns_create_body(&sets)));
    assert_eq!(response.status, 200, "{}", response.body);
    let info = response.json();
    assert_eq!(info.get("name").and_then(Json::as_str), Some("tenant-a"));
    assert_eq!(info.get("n_sets").and_then(Json::as_u64), Some(60));
    assert!(info.get("kind").is_none(), "one engine: no kind field");

    let listed = client.request("GET", "/ns", None);
    assert_eq!(listed.status, 200);
    let names: Vec<&str> = listed
        .json()
        .get("namespaces")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|i| i.get("name").and_then(Json::as_str).unwrap().to_string())
        .map(|s| Box::leak(s.into_boxed_str()) as &str)
        .collect();
    assert_eq!(names, vec!["tenant-a"]);

    // Unfiltered and filtered queries match a direct core-side
    // namespace built from the same spec (worker-count invariance is
    // part of the engine contract, so `workers = 1` is a fair
    // reference).
    let reference = les3_core::Namespaces::new();
    let ref_ns = reference
        .create("tenant-a", ns_reference_spec(&sets))
        .unwrap();
    let ctl_budget = les3_core::QueryCtl::NONE;
    for (qid, k) in [(0u32, 5usize), (7, 3), (19, 8)] {
        let query = &sets[qid as usize];
        let response = client.request(
            "POST",
            "/ns/tenant-a/knn",
            Some(&ns_knn_body(query, k, None)),
        );
        assert_eq!(response.status, 200, "{}", response.body);
        let served = wire::decode_result(&response.json()).unwrap();
        let direct = ref_ns.knn(query, k, &Filters::none(), &ctl_budget).unwrap();
        assert_eq!(served.hits, direct.hits, "unfiltered qid {qid}");

        let response = client.request(
            "POST",
            "/ns/tenant-a/knn",
            Some(&ns_knn_body(query, k, Some(gold_filter_json()))),
        );
        assert_eq!(response.status, 200, "{}", response.body);
        let served = wire::decode_result(&response.json()).unwrap();
        let gold = Filters(vec![Filter::Eq {
            key: "tier".to_string(),
            value: "gold".to_string(),
        }]);
        let direct = ref_ns.knn(query, k, &gold, &ctl_budget).unwrap();
        assert_eq!(served.hits, direct.hits, "filtered qid {qid}");
        // Every filtered hit really is a gold set (even ids).
        for (id, _) in &served.hits {
            assert_eq!(id % 2, 0, "filter must only surface gold sets, got {id}");
        }
    }

    // Insert a new gold set over HTTP; it becomes visible to a filtered
    // query for its own tokens.
    let response = client.request(
        "POST",
        "/ns/tenant-a/insert",
        Some(r#"{"tokens":[400,401,402],"attrs":{"tier":"gold"}}"#),
    );
    assert_eq!(response.status, 200, "{}", response.body);
    let new_id = response.json().get("id").and_then(Json::as_u64).unwrap();
    assert_eq!(new_id, 60);
    let response = client.request(
        "POST",
        "/ns/tenant-a/knn",
        Some(&ns_knn_body(&[400, 401, 402], 1, Some(gold_filter_json()))),
    );
    let served = wire::decode_result(&response.json()).unwrap();
    assert_eq!(served.hits.first().map(|h| h.0), Some(60));
    assert_eq!(served.hits.first().map(|h| h.1), Some(1.0));

    // Tombstone it again; the filtered query no longer finds it.
    let response = client.request("POST", "/ns/tenant-a/delete", Some(r#"{"id":60}"#));
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(
        response.json().get("deleted").and_then(Json::as_bool),
        Some(true)
    );
    let response = client.request(
        "POST",
        "/ns/tenant-a/knn",
        Some(&ns_knn_body(&[400, 401, 402], 1, Some(gold_filter_json()))),
    );
    let served = wire::decode_result(&response.json()).unwrap();
    assert_ne!(served.hits.first().map(|h| h.0), Some(60));

    // Per-namespace stats moved.
    let response = client.request("GET", "/ns/tenant-a/stats", None);
    assert_eq!(response.status, 200);
    let ns_stats = wire::decode_stats(response.json().get("stats").unwrap()).unwrap();
    assert!(ns_stats.candidates > 0);

    // Drop; every namespace route answers 404 afterwards.
    let response = client.request("DELETE", "/ns/tenant-a", None);
    assert_eq!(response.status, 200, "{}", response.body);
    for (method, path, body) in [
        ("GET", "/ns/tenant-a", None),
        ("GET", "/ns/tenant-a/stats", None),
        ("POST", "/ns/tenant-a/knn", Some(ns_knn_body(&[1], 1, None))),
        (
            "POST",
            "/ns/tenant-a/insert",
            Some(r#"{"tokens":[1]}"#.to_string()),
        ),
        (
            "POST",
            "/ns/tenant-a/delete",
            Some(r#"{"id":0}"#.to_string()),
        ),
        ("DELETE", "/ns/tenant-a", None),
    ] {
        let response = client.request(method, path, body.as_deref());
        assert_eq!(response.status, 404, "{method} {path}: {}", response.body);
        assert_eq!(
            response.json().get("error").and_then(Json::as_str),
            Some("unknown_namespace"),
            "{method} {path}"
        );
    }
    server.shutdown();
}

#[test]
fn cross_namespace_isolation_same_ids_different_corpora() {
    let (server, addr) = start_server(flat_index(22), fast_config());
    let mut client = Client::connect(&addr);
    let corpus_a = corpus(100, 40);
    let corpus_b = corpus(200, 40); // same id space 0..40, different sets
    assert_ne!(corpus_a, corpus_b);
    for (name, sets) in [("tenant-a", &corpus_a), ("tenant-b", &corpus_b)] {
        let response = client.request("PUT", &format!("/ns/{name}"), Some(&ns_create_body(sets)));
        assert_eq!(response.status, 200, "{}", response.body);
    }

    // The same query against each namespace answers from that
    // namespace's corpus alone, matching its own direct reference.
    let reference = les3_core::Namespaces::new();
    let ctl = les3_core::QueryCtl::NONE;
    for (name, sets) in [("tenant-a", &corpus_a), ("tenant-b", &corpus_b)] {
        let ref_ns = reference.create(name, ns_reference_spec(sets)).unwrap();
        for qid in [0usize, 11, 33] {
            let query = &corpus_a[qid]; // deliberately always from corpus A
            let response = client.request(
                "POST",
                &format!("/ns/{name}/knn"),
                Some(&ns_knn_body(query, 6, Some(gold_filter_json()))),
            );
            assert_eq!(response.status, 200, "{}", response.body);
            let served = wire::decode_result(&response.json()).unwrap();
            let gold = Filters(vec![Filter::Eq {
                key: "tier".to_string(),
                value: "gold".to_string(),
            }]);
            let direct = ref_ns.knn(query, 6, &gold, &ctl).unwrap();
            assert_eq!(served.hits, direct.hits, "{name} qid {qid}");
        }
    }

    // Deleting set 5 in A does not delete it in B.
    let response = client.request("POST", "/ns/tenant-a/delete", Some(r#"{"id":5}"#));
    assert_eq!(
        response.json().get("deleted").and_then(Json::as_bool),
        Some(true)
    );
    let b_info = client.request("GET", "/ns/tenant-b", None);
    assert_eq!(
        b_info.json().get("live_sets").and_then(Json::as_u64),
        Some(40),
        "tenant-b must be untouched by tenant-a's delete"
    );
    let a_info = client.request("GET", "/ns/tenant-a", None);
    assert_eq!(
        a_info.json().get("live_sets").and_then(Json::as_u64),
        Some(39)
    );
    server.shutdown();
}

/// `GET /ns/{name}` of a namespace whose create body still asks for
/// `"n_shards":2`, after an insert and a delete. Unknown spec fields are
/// ignored, and the info body carries no layout: one engine, one kind.
#[test]
fn sharded_namespace_info_body_is_pinned() {
    let (server, addr) = start_server(flat_index(25), fast_config());
    let mut client = Client::connect(&addr);
    let created = client.request(
        "PUT",
        "/ns/pin",
        Some(r#"{"n_shards":2,"n_groups":3,"sets":[[1,2,3],[2,3,4],[9],[],[4,5]]}"#),
    );
    assert_eq!(created.status, 200, "{}", created.body);
    assert_eq!(
        created.body,
        r#"{"name":"pin","sim":"jaccard","n_sets":5,"live_sets":5,"n_groups":3}"#
    );
    let inserted = client.request("POST", "/ns/pin/insert", Some(r#"{"tokens":[5,9]}"#));
    assert_eq!(inserted.status, 200, "{}", inserted.body);
    let deleted = client.request("POST", "/ns/pin/delete", Some(r#"{"id":1}"#));
    assert_eq!(deleted.status, 200, "{}", deleted.body);
    let info = client.request("GET", "/ns/pin", None);
    assert_eq!(info.status, 200, "{}", info.body);
    assert_eq!(
        info.body,
        r#"{"name":"pin","sim":"jaccard","n_sets":6,"live_sets":5,"n_groups":3}"#
    );
    server.shutdown();
}

/// A 25-byte body asking for 2³² − 1 groups is a `400` before anything
/// is allocated, and the server keeps answering.
#[test]
fn a_namespace_over_the_group_cap_is_a_400() {
    let (server, addr) = start_server(flat_index(26), fast_config());
    let mut client = Client::connect(&addr);
    let huge = client.request("PUT", "/ns/huge", Some(r#"{"n_groups":4294967295}"#));
    assert_eq!(huge.status, 400, "{}", huge.body);
    assert_eq!(
        huge.json().get("error").and_then(Json::as_str),
        Some("bad_request")
    );
    let health = client.request("GET", "/healthz", None);
    assert_eq!(health.status, 200, "{}", health.body);
    let missing = client.request("GET", "/ns/huge", None);
    assert_eq!(missing.status, 404, "{}", missing.body);
    server.shutdown();
}

#[test]
fn global_stats_cover_namespace_traffic() {
    let (server, addr) = start_server(flat_index(23), fast_config());
    let mut client = Client::connect(&addr);
    let sets = corpus(23, 30);
    client.request("PUT", "/ns/only", Some(&ns_create_body(&sets)));

    // Namespace-only traffic: the global aggregate must equal the
    // namespace's own aggregate (the default route served nothing).
    for qid in [0usize, 3, 9] {
        let response = client.request(
            "POST",
            "/ns/only/knn",
            Some(&ns_knn_body(&sets[qid], 4, Some(gold_filter_json()))),
        );
        assert_eq!(response.status, 200, "{}", response.body);
    }
    let global = {
        let response = client.request("GET", "/stats", None);
        wire::decode_stats(response.json().get("stats").unwrap()).unwrap()
    };
    let ns = {
        let response = client.request("GET", "/ns/only/stats", None);
        wire::decode_stats(response.json().get("stats").unwrap()).unwrap()
    };
    assert!(ns.candidates > 0, "namespace queries did run");
    assert_eq!(
        global, ns,
        "global aggregate = default route (0) + namespace"
    );

    // One default-route query on top: the global aggregate strictly
    // exceeds the (unchanged) namespace aggregate.
    let db = test_db(23);
    assert_eq!(client.knn(db.set(2), 3).status, 200);
    let global_after = {
        let response = client.request("GET", "/stats", None);
        wire::decode_stats(response.json().get("stats").unwrap()).unwrap()
    };
    let ns_after = {
        let response = client.request("GET", "/ns/only/stats", None);
        wire::decode_stats(response.json().get("stats").unwrap()).unwrap()
    };
    assert_eq!(ns_after, ns, "default traffic must not touch ns stats");
    assert!(
        global_after.candidates > ns.candidates,
        "global must now include the default-route query"
    );
    server.shutdown();
}

#[test]
fn racing_create_drop_vs_in_flight_queries_never_panics() {
    let (server, addr) = start_server(flat_index(24), fast_config());
    let sets = corpus(24, 25);
    let create_body = ns_create_body(&sets);
    let stop = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Churner: create and drop the same namespace in a tight loop.
        scope.spawn(|| {
            let mut client = Client::connect(&addr);
            for _ in 0..40 {
                let r = client.request("PUT", "/ns/flapping", Some(&create_body));
                assert!(
                    r.status == 200 || r.status == 409,
                    "create: {} {}",
                    r.status,
                    r.body
                );
                let r = client.request("DELETE", "/ns/flapping", None);
                assert!(
                    r.status == 200 || r.status == 404,
                    "drop: {} {}",
                    r.status,
                    r.body
                );
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
        // Queriers: hammer the flapping namespace; every answer is a
        // clean 200 (resolved before a drop) or 404 (after), and the
        // served hits of any 200 are internally consistent.
        for t in 0..3u32 {
            let (addr, sets, stop) = (&addr, &sets, &stop);
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                let mut seen_ok = 0u32;
                let mut seen_missing = 0u32;
                for i in 0..60u32 {
                    let q = &sets[((t * 7 + i) % 25) as usize];
                    let filter = if i % 2 == 0 {
                        Some(gold_filter_json())
                    } else {
                        None
                    };
                    let r = client.request(
                        "POST",
                        "/ns/flapping/knn",
                        Some(&ns_knn_body(q, 4, filter)),
                    );
                    match r.status {
                        200 => {
                            seen_ok += 1;
                            let served = wire::decode_result(&r.json()).unwrap();
                            assert!(served.hits.len() <= 4);
                        }
                        404 => {
                            seen_missing += 1;
                            assert_eq!(
                                r.json().get("error").and_then(Json::as_str),
                                Some("unknown_namespace"),
                                "{}",
                                r.body
                            );
                        }
                        other => panic!("unexpected status {other}: {}", r.body),
                    }
                    if stop.load(std::sync::atomic::Ordering::Acquire) {
                        break;
                    }
                }
                // Not asserting exact counts (racy by design), just that
                // the loop really exercised both paths across the run.
                let _ = (seen_ok, seen_missing);
            });
        }
    });

    // The server survived and still serves.
    let mut client = Client::connect(&addr);
    assert_eq!(client.request("GET", "/healthz", None).status, 200);
    server.shutdown();
}

#[test]
fn namespace_routes_404_400_405_sweep() {
    let (server, addr) = start_server(flat_index(25), fast_config());
    let mut client = Client::connect(&addr);

    // Unknown namespace: queries 404 through the ticket path.
    let r = client.request(
        "POST",
        "/ns/ghost/knn",
        Some(&ns_knn_body(&[1, 2], 3, None)),
    );
    assert_eq!(r.status, 404, "{}", r.body);
    assert_eq!(
        r.json().get("error").and_then(Json::as_str),
        Some("unknown_namespace")
    );

    // Invalid names and specs → 400; duplicate create → 409.
    let r = client.request("PUT", "/ns/bad%20name", Some("{}"));
    assert_eq!(r.status, 400, "{}", r.body);
    let long = "x".repeat(65);
    let r = client.request("PUT", &format!("/ns/{long}"), Some("{}"));
    assert_eq!(r.status, 400, "{}", r.body);
    let r = client.request("PUT", "/ns/ok-name", Some(r#"{"sim":"cosine-nope"}"#));
    assert_eq!(r.status, 400, "{}", r.body);
    assert_eq!(client.request("PUT", "/ns/dup", Some("{}")).status, 200);
    let r = client.request("PUT", "/ns/dup", Some("{}"));
    assert_eq!(r.status, 409, "{}", r.body);
    assert_eq!(
        r.json().get("error").and_then(Json::as_str),
        Some("already_exists")
    );

    // Malformed bodies → 400 with the schema message.
    for (path, body) in [
        ("/ns/dup/knn", r#"{"k":3}"#),
        ("/ns/dup/knn", r#"{"query":[1],"k":3,"filter":{"like":{}}}"#),
        (
            "/ns/dup/knn",
            r#"{"query":[1],"k":3,"filter":{"eq":{"key":"a"}}}"#,
        ),
        ("/ns/dup/insert", r#"{"attrs":{}}"#),
        ("/ns/dup/insert", r#"{"tokens":[1],"attrs":{"k":7}}"#),
        ("/ns/dup/delete", r#"{"id":-1}"#),
        ("/ns/dup/delete", r#"{}"#),
    ] {
        let r = client.request("POST", path, Some(body));
        assert_eq!(r.status, 400, "{path} {body}: {}", r.body);
        assert_eq!(
            r.json().get("error").and_then(Json::as_str),
            Some("bad_request"),
            "{path} {body}"
        );
    }

    // A filter on the default routes is a 400, not silent misbehavior.
    let r = client.request(
        "POST",
        "/knn",
        Some(r#"{"query":[1],"k":3,"filter":{"eq":{"key":"a","value":"b"}}}"#),
    );
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("/ns/"), "{}", r.body);

    // Wrong methods.
    let r = client.request("POST", "/ns", None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));
    let r = client.request("POST", "/ns/dup", None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("PUT, GET, DELETE"));
    let r = client.request("GET", "/ns/dup/knn", None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));
    let r = client.request("POST", "/ns/dup/stats", None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));

    // Unknown sub-paths.
    assert_eq!(client.request("POST", "/ns/dup/upsert", None).status, 404);
    assert_eq!(client.request("GET", "/ns/dup/a/b", None).status, 404);
    server.shutdown();
}
