//! The HTTP server: an accept thread feeding a pool of connection
//! workers, each running keep-alive request loops against a shared
//! [`ServeFront`].
//!
//! # Architecture
//!
//! ```text
//! TcpListener ── accept thread ──► mpsc ──► N connection workers
//!                                             │  parse HTTP (http.rs)
//!                                             │  decode body (wire.rs)
//!                                             ▼
//!                                        ServeFront::submit_*_opts
//!                                             │  admission gate → FIFO → query worker
//!                                             │  Ticket::wait_for_full probe loop
//!                                             ▼
//!                                        HTTP response (status mapping below)
//! ```
//!
//! Each admitted request becomes one [`Ticket`]; the connection worker
//! alternates short [`Ticket::wait_for_full`] waits with a **connection
//! probe** (a non-blocking `peek`), so a client that disconnects
//! mid-query gets its
//! ticket dropped — which cancels the request, stopping queued work
//! before it runs and in-flight verification at the next group boundary.
//! Abandoned queries do not keep burning CPU.
//!
//! # Status mapping
//!
//! | serving outcome | HTTP response |
//! |---|---|
//! | `Ok(SearchResult)` | `200` + `{"hits":..., "stats":...}` (+ `"approx"`, `"recall_est"` when the request asked for a non-exact `"mode"`) |
//! | [`ServeError::Overloaded`] | `503` + `Retry-After` (no partial stats — the query never ran) |
//! | [`ServeError::DeadlineExceeded`] | `504` + partial `stats` |
//! | [`ServeError::Cancelled`] | `499` + partial `stats` (normally unobservable: the client is gone) |
//! | [`ServeError::UnknownNamespace`] | `404` (the `/ns/{name}` routes) |
//! | [`ServeError::QueryPanicked`] | `500` |
//! | schema violation | `400` |
//! | unknown path / wrong method | `404` / `405` |
//!
//! The `/ns` family (multi-tenant namespaces with attribute-filtered
//! search) is routed by its own dispatch table; lifecycle errors map
//! `Unknown → 404`, `AlreadyExists → 409`, `Invalid → 400`.
//!
//! Servers started with [`HttpServer::bind_with_snapshot`] additionally
//! answer `POST /snapshot`, mirroring the overload mapping:
//! [`SnapshotError::Busy`] → `503` + `Retry-After` (a snapshot is
//! already being written), [`SnapshotError::Failed`] → `500` with the
//! I/O error text. The snapshot callback runs on the connection worker
//! thread and reads the index through its shared reference, so queries
//! keep serving while the segment is written. A panicking callback is
//! caught and answered as a `500` like any other failure — the worker
//! thread survives and the single-writer guard is released either way.
//!
//! The full operator-facing reference, with `curl` examples, lives in
//! `docs/PROTOCOL.md`.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use les3_core::{
    ApproxPolicy, NamespaceError, OnFull, ServeBackend, ServeError, ServeFront, SubmitOpts, Ticket,
};

use crate::http::{
    find_head_end, parse_head, response_bytes, HttpRejection, RequestHead, MAX_HEAD_BYTES,
};
use crate::json::Json;
use crate::wire::{self, QueryParam};

/// Tuning knobs for the HTTP layer (the query-side knobs live in
/// [`les3_core::ServeConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Connection worker threads. Each handles one connection at a time,
    /// so this bounds concurrently *served* connections (admission
    /// control for queries is the front's bounded queue; this is the
    /// bound on socket handling).
    pub conn_workers: usize,
    /// How often a worker waiting on an in-flight query probes the
    /// client socket for disconnect. Shorter means abandoned queries are
    /// cancelled sooner at the cost of more `peek` syscalls.
    pub probe_interval: Duration,
    /// Value for the `Retry-After` header on `503` responses (rounded
    /// up to whole seconds, minimum 1).
    pub retry_after: Duration,
    /// How long a keep-alive connection may sit idle **between**
    /// requests before the server closes it. Without this bound,
    /// `conn_workers` silent connections would occupy every worker
    /// forever and starve the listener.
    pub idle_timeout: Duration,
    /// Accepted connections waiting for a free worker. When the backlog
    /// is full, new connections are closed immediately instead of
    /// queueing file descriptors without bound.
    pub accept_backlog: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            conn_workers: 4,
            probe_interval: Duration::from_millis(2),
            retry_after: Duration::from_secs(1),
            idle_timeout: Duration::from_secs(30),
            accept_backlog: 64,
        }
    }
}

/// Why a `POST /snapshot` request could not produce a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Another snapshot is still being written; the client should retry
    /// after a backoff (mapped to `503` + `Retry-After`, like
    /// [`ServeError::Overloaded`] on the query path).
    Busy,
    /// The snapshot was attempted and failed — the message carries the
    /// underlying persistence error (mapped to `500`).
    Failed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Busy => write!(f, "a snapshot is already in progress"),
            SnapshotError::Failed(msg) => write!(f, "snapshot failed: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The callback behind `POST /snapshot`: writes a durable snapshot and
/// returns the path it landed at. It runs on a connection worker thread
/// while query traffic continues; implementations only need shared
/// access to the index (e.g. `les3_core::persist::save_index` over an
/// `Arc`'d backend).
pub type SnapshotFn = Box<dyn Fn() -> Result<String, SnapshotError> + Send + Sync>;

/// The snapshot callback plus its single-writer guard: concurrent
/// `POST /snapshot` requests must not race two writers over the same
/// `segment.tmp`, so only one runs and the rest get [`SnapshotError::Busy`].
struct SnapshotHook {
    busy: AtomicBool,
    run: SnapshotFn,
}

impl SnapshotHook {
    fn snapshot(&self) -> Result<String, SnapshotError> {
        if self.busy.swap(true, Ordering::AcqRel) {
            return Err(SnapshotError::Busy);
        }
        // Clear `busy` however the callback exits — if a panic left the
        // flag set, every later `POST /snapshot` would be a 503 forever.
        struct Clear<'a>(&'a AtomicBool);
        impl Drop for Clear<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _clear = Clear(&self.busy);
        // And contain the panic itself: it maps to `Failed` (a 500) like
        // any other snapshot error instead of unwinding through — and
        // killing — the connection worker thread.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.run)())).unwrap_or_else(
            |payload| {
                Err(SnapshotError::Failed(format!(
                    "snapshot callback panicked: {}",
                    panic_text(payload.as_ref())
                )))
            },
        )
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Read-timeout slice for connection sockets: how often a blocked read
/// wakes to check the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(250);
/// Consecutive empty read polls tolerated mid-request (head or body
/// started but unfinished) before answering `408 Request Timeout`:
/// 40 × 250 ms = 10 s.
const MAX_PARTIAL_POLLS: u32 = 40;

/// A running HTTP server. Dropping it (or calling
/// [`HttpServer::shutdown`]) stops accepting, lets in-flight requests
/// finish, and joins every thread.
pub struct HttpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` and starts serving `front` on background threads.
    /// Returns as soon as the listener is live; use
    /// [`HttpServer::local_addr`] to discover an ephemeral port
    /// (`addr` with port 0).
    ///
    /// ```no_run
    /// use les3_core::sim::Jaccard;
    /// use les3_core::{Les3Index, Partitioning, ServeConfig, ServeFront};
    /// use les3_data::SetDatabase;
    /// use les3_net::{HttpServer, NetConfig};
    /// use std::sync::Arc;
    ///
    /// let db = SetDatabase::from_sets(vec![vec![0u32, 1, 2], vec![0, 1, 3]]);
    /// let index = Les3Index::build(db, Partitioning::round_robin(2, 1), Jaccard);
    /// let front = Arc::new(ServeFront::new(index, ServeConfig::default()));
    /// let server = HttpServer::bind(front, "127.0.0.1:0", NetConfig::default()).unwrap();
    /// println!("listening on http://{}", server.local_addr());
    /// ```
    pub fn bind<B: ServeBackend, A: ToSocketAddrs>(
        front: Arc<ServeFront<B>>,
        addr: A,
        config: NetConfig,
    ) -> std::io::Result<HttpServer> {
        Self::bind_with_snapshot(front, addr, config, None)
    }

    /// Like [`HttpServer::bind`], but also enables `POST /snapshot`:
    /// each request invokes `snapshot` (at most one at a time — a second
    /// concurrent request is answered `503` without running it) and maps
    /// its outcome to HTTP per the module table. Pass `None` to serve
    /// without a snapshot endpoint (`POST /snapshot` then answers `404`).
    pub fn bind_with_snapshot<B: ServeBackend, A: ToSocketAddrs>(
        front: Arc<ServeFront<B>>,
        addr: A,
        config: NetConfig,
        snapshot: Option<SnapshotFn>,
    ) -> std::io::Result<HttpServer> {
        let snapshot = snapshot.map(|run| {
            Arc::new(SnapshotHook {
                busy: AtomicBool::new(false),
                run,
            })
        });
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.accept_backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(config.conn_workers.max(1));
        for i in 0..config.conn_workers.max(1) {
            let rx = Arc::clone(&rx);
            let front = Arc::clone(&front);
            let shutdown = Arc::clone(&shutdown);
            let snapshot = snapshot.clone();
            let worker = std::thread::Builder::new()
                .name(format!("les3-net-conn-{i}"))
                .spawn(move || {
                    connection_worker(&rx, &front, &shutdown, config, snapshot.as_deref())
                })
                .expect("spawn connection worker"); // lint: allow(no-unwrap) startup is fail-fast
            workers.push(worker);
        }
        let accept_shutdown = Arc::clone(&shutdown);
        let accept = std::thread::Builder::new()
            .name("les3-net-accept".to_string())
            .spawn(move || {
                // `tx` lives in this thread: when the accept loop exits,
                // the channel disconnects and idle workers drain out.
                for conn in listener.incoming() {
                    if accept_shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        // Backlog full: close the connection now rather
                        // than queueing file descriptors without bound —
                        // the client sees a clean EOF and can retry.
                        Err(mpsc::TrySendError::Full(stream)) => drop(stream),
                        Err(mpsc::TrySendError::Disconnected(_)) => return,
                    }
                }
            })
            .expect("spawn accept thread"); // lint: allow(no-unwrap) startup is fail-fast
        Ok(HttpServer {
            local_addr,
            shutdown,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (the actual port, when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, finishes in-flight exchanges, joins all server
    /// threads. Idle keep-alive connections are closed at their next
    /// read poll (≤ 250 ms).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a wake-up connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn connection_worker<B: ServeBackend>(
    rx: &Mutex<Receiver<TcpStream>>,
    front: &ServeFront<B>,
    shutdown: &AtomicBool,
    config: NetConfig,
    snapshot: Option<&SnapshotHook>,
) {
    loop {
        // Take the lock only to receive: handling must not serialize.
        let stream = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match stream {
            Ok(stream) => handle_connection(stream, front, shutdown, config, snapshot),
            Err(_) => return, // accept thread gone: shutting down
        }
    }
}

/// One request read off a connection, or the reason there won't be one.
enum ReadOutcome {
    /// A complete head + body.
    Request(RequestHead, Vec<u8>),
    /// The client closed (or the server is shutting down) between
    /// requests — nothing to answer.
    Closed,
    /// The bytes were unusable; answer with this status and close.
    Reject(HttpRejection),
}

/// Runs the keep-alive loop on one connection until it closes.
fn handle_connection<B: ServeBackend>(
    mut stream: TcpStream,
    front: &ServeFront<B>,
    shutdown: &AtomicBool,
    config: NetConfig,
    snapshot: Option<&SnapshotHook>,
) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    // Bytes read past the previous request (HTTP pipelining) carry over.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    loop {
        match read_request(&mut stream, &mut buf, shutdown, config.idle_timeout) {
            ReadOutcome::Closed => return,
            ReadOutcome::Reject(rejection) => {
                let body = wire::encode_error("bad_request", rejection.message, None).to_string();
                let _ = stream.write_all(&response_bytes(rejection.status, &body, &[], false));
                return;
            }
            ReadOutcome::Request(head, body) => {
                let keep_alive = head.keep_alive() && !shutdown.load(Ordering::Acquire);
                if !respond(
                    &mut stream,
                    front,
                    &head,
                    &body,
                    keep_alive,
                    config,
                    snapshot,
                ) {
                    return;
                }
                if !keep_alive {
                    return;
                }
            }
        }
    }
}

/// Reads one full request (head + `Content-Length` body) from the
/// connection, tolerating read-timeout polls so shutdown and the idle
/// timeout are observed.
fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
    idle_timeout: Duration,
) -> ReadOutcome {
    let mut chunk = [0u8; 4096];
    let mut partial_polls = 0u32;
    let idle_since = Instant::now();
    loop {
        if let Some(head_end) = find_head_end(buf) {
            let head = match parse_head(&buf[..head_end]) {
                Ok(head) => head,
                Err(rejection) => return ReadOutcome::Reject(rejection),
            };
            let body_len = head.content_length.unwrap_or(0);
            while buf.len() < head_end + body_len {
                match stream.read(&mut chunk) {
                    Ok(0) => return ReadOutcome::Closed, // died mid-body
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        partial_polls = 0;
                    }
                    Err(e) if is_timeout(&e) => {
                        partial_polls += 1;
                        if partial_polls > MAX_PARTIAL_POLLS {
                            return ReadOutcome::Reject(HttpRejection {
                                status: 408,
                                message: "timed out waiting for the request body",
                            });
                        }
                    }
                    Err(_) => return ReadOutcome::Closed,
                }
            }
            let body = buf[head_end..head_end + body_len].to_vec();
            buf.drain(..head_end + body_len);
            return ReadOutcome::Request(head, body);
        }
        if buf.len() > MAX_HEAD_BYTES {
            return ReadOutcome::Reject(HttpRejection {
                status: 400,
                message: "request head exceeds the 16 KiB limit",
            });
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Closed,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                partial_polls = 0;
            }
            Err(e) if is_timeout(&e) => {
                if buf.is_empty() {
                    // Idle between requests: shutdown or the idle
                    // timeout ends the wait. The timeout keeps silent
                    // connections from pinning workers forever.
                    if shutdown.load(Ordering::Acquire) || idle_since.elapsed() >= idle_timeout {
                        return ReadOutcome::Closed;
                    }
                } else {
                    partial_polls += 1;
                    if partial_polls > MAX_PARTIAL_POLLS {
                        return ReadOutcome::Reject(HttpRejection {
                            status: 408,
                            message: "timed out waiting for the request head",
                        });
                    }
                }
            }
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Routes one request and writes its response. Returns `false` when the
/// connection must close (write failure or client gone).
#[allow(clippy::too_many_arguments)]
fn respond<B: ServeBackend>(
    stream: &mut TcpStream,
    front: &ServeFront<B>,
    head: &RequestHead,
    body: &[u8],
    keep_alive: bool,
    config: NetConfig,
    snapshot: Option<&SnapshotHook>,
) -> bool {
    if head.path == "/ns" || head.path.starts_with("/ns/") {
        return respond_ns(stream, front, head, body, keep_alive, config);
    }
    let (status, response_body, extra): (u16, String, Vec<(&str, String)>) =
        match (head.method.as_str(), head.path.as_str()) {
            ("GET", "/healthz") => (
                200,
                Json::Obj(vec![("ok".into(), true.into())]).to_string(),
                vec![],
            ),
            ("GET", "/stats") => {
                let body = Json::Obj(vec![
                    ("in_flight".into(), front.in_flight().into()),
                    ("stats".into(), wire::encode_stats(&front.stats())),
                ]);
                (200, body.to_string(), vec![])
            }
            ("POST", "/knn") => match wire::decode_knn(body) {
                Ok(query) if !query.filters.is_empty() => filter_not_supported(),
                Ok(query) => return serve_query(stream, front, query, None, keep_alive, config),
                Err(e) => (
                    400,
                    wire::encode_error("bad_request", &e.0, None).to_string(),
                    vec![],
                ),
            },
            ("POST", "/range") => match wire::decode_range(body) {
                Ok(query) if !query.filters.is_empty() => filter_not_supported(),
                Ok(query) => return serve_query(stream, front, query, None, keep_alive, config),
                Err(e) => (
                    400,
                    wire::encode_error("bad_request", &e.0, None).to_string(),
                    vec![],
                ),
            },
            ("POST", "/snapshot") => match snapshot {
                None => (
                    404,
                    wire::encode_error(
                        "not_found",
                        "snapshotting is not enabled (start les3-serve with --save-index)",
                        None,
                    )
                    .to_string(),
                    vec![],
                ),
                Some(hook) => match hook.snapshot() {
                    Ok(path) => (
                        200,
                        Json::Obj(vec![
                            ("ok".into(), true.into()),
                            ("path".into(), path.as_str().into()),
                        ])
                        .to_string(),
                        vec![],
                    ),
                    Err(SnapshotError::Busy) => (
                        503,
                        wire::encode_error(
                            "snapshot_busy",
                            "a snapshot is already being written; retry after a backoff",
                            None,
                        )
                        .to_string(),
                        vec![("Retry-After", retry_after_secs(config).to_string())],
                    ),
                    Err(SnapshotError::Failed(msg)) => (
                        500,
                        wire::encode_error("snapshot_failed", &msg, None).to_string(),
                        vec![],
                    ),
                },
            },
            (_, "/healthz" | "/stats") => (
                405,
                wire::encode_error("method_not_allowed", "use GET", None).to_string(),
                vec![("Allow", "GET".to_string())],
            ),
            (_, "/knn" | "/range" | "/snapshot") => (
                405,
                wire::encode_error("method_not_allowed", "use POST", None).to_string(),
                vec![("Allow", "POST".to_string())],
            ),
            _ => (
                404,
                wire::encode_error(
                    "not_found",
                    "unknown path (expected /knn, /range, /snapshot, /stats, /healthz or /ns/...)",
                    None,
                )
                .to_string(),
                vec![],
            ),
        };
    stream
        .write_all(&response_bytes(status, &response_body, &extra, keep_alive))
        .is_ok()
}

/// The `400` for a `"filter"` on the default routes, which serve the
/// attribute-less primary index.
fn filter_not_supported() -> (u16, String, Vec<(&'static str, String)>) {
    (
        400,
        wire::encode_error(
            "bad_request",
            "\"filter\" is only supported on /ns/{name}/knn and /ns/{name}/range",
            None,
        )
        .to_string(),
        vec![],
    )
}

/// Maps a [`NamespaceError`] from a lifecycle/mutation call to its HTTP
/// response: unknown name → `404`, create collision → `409`, anything
/// the caller got wrong → `400`, persistence trouble → `500`.
fn ns_error_response(e: &NamespaceError) -> (u16, String, Vec<(&'static str, String)>) {
    let (status, code) = match e {
        NamespaceError::Unknown(_) => (404, "unknown_namespace"),
        NamespaceError::AlreadyExists(_) => (409, "already_exists"),
        NamespaceError::Invalid(_) => (400, "bad_request"),
        NamespaceError::Persist(_) => (500, "internal"),
    };
    (
        status,
        wire::encode_error(code, &e.to_string(), None).to_string(),
        vec![],
    )
}

/// Routes the `/ns` namespace API (see the endpoint table in
/// `docs/PROTOCOL.md`):
///
/// ```text
/// GET    /ns                    list namespaces
/// PUT    /ns/{name}             create (body: spec; empty = defaults)
/// GET    /ns/{name}             describe
/// DELETE /ns/{name}             drop
/// GET    /ns/{name}/stats       per-namespace aggregate stats
/// POST   /ns/{name}/knn         query (body may carry "filter")
/// POST   /ns/{name}/range       query (body may carry "filter")
/// POST   /ns/{name}/insert      add one set (+ optional attrs)
/// POST   /ns/{name}/delete      tombstone one set
/// ```
///
/// Queries go through the same admission-controlled front as the
/// default routes ([`ServeFront::submit_ns_knn`]), so namespace traffic
/// shares the queue, deadlines and disconnect cancellation. Mutations
/// and lifecycle calls are handled inline on the connection worker —
/// they take the namespace's write lock, not a queue slot.
fn respond_ns<B: ServeBackend>(
    stream: &mut TcpStream,
    front: &ServeFront<B>,
    head: &RequestHead,
    body: &[u8],
    keep_alive: bool,
    config: NetConfig,
) -> bool {
    let rest = head.path.strip_prefix("/ns").unwrap_or("");
    let (name, action) = match rest.strip_prefix('/') {
        None => ("", None), // bare "/ns"
        Some(rest) => match rest.split_once('/') {
            None => (rest, None),
            Some((name, action)) => (name, Some(action)),
        },
    };
    let bad_request = |e: &wire::SchemaError| {
        (
            400,
            wire::encode_error("bad_request", &e.0, None).to_string(),
            vec![],
        )
    };
    let namespaces = front.namespaces();
    let (status, response_body, extra): (u16, String, Vec<(&str, String)>) =
        match (head.method.as_str(), name, action) {
            ("GET", "", None) => {
                let list = namespaces.list().iter().map(wire::encode_ns_info).collect();
                (
                    200,
                    Json::Obj(vec![("namespaces".into(), Json::Arr(list))]).to_string(),
                    vec![],
                )
            }
            (_, "", None) => (
                405,
                wire::encode_error("method_not_allowed", "use GET", None).to_string(),
                vec![("Allow", "GET".to_string())],
            ),
            ("PUT", name, None) => match wire::decode_ns_spec(body) {
                Ok(spec) => match namespaces.create(name, spec) {
                    Ok(ns) => (200, wire::encode_ns_info(&ns.info()).to_string(), vec![]),
                    Err(e) => ns_error_response(&e),
                },
                Err(e) => bad_request(&e),
            },
            ("DELETE", name, None) => {
                if namespaces.remove(name) {
                    (
                        200,
                        Json::Obj(vec![("ok".into(), true.into())]).to_string(),
                        vec![],
                    )
                } else {
                    ns_error_response(&NamespaceError::Unknown(name.to_string()))
                }
            }
            ("GET", name, None) => match namespaces.get(name) {
                Some(ns) => (200, wire::encode_ns_info(&ns.info()).to_string(), vec![]),
                None => ns_error_response(&NamespaceError::Unknown(name.to_string())),
            },
            ("GET", name, Some("stats")) => match namespaces.get(name) {
                Some(ns) => (
                    200,
                    Json::Obj(vec![
                        ("name".into(), name.into()),
                        ("stats".into(), wire::encode_stats(&ns.stats())),
                    ])
                    .to_string(),
                    vec![],
                ),
                None => ns_error_response(&NamespaceError::Unknown(name.to_string())),
            },
            ("POST", name, Some("knn")) => match wire::decode_knn(body) {
                Ok(query) => {
                    return serve_query(stream, front, query, Some(name), keep_alive, config)
                }
                Err(e) => bad_request(&e),
            },
            ("POST", name, Some("range")) => match wire::decode_range(body) {
                Ok(query) => {
                    return serve_query(stream, front, query, Some(name), keep_alive, config)
                }
                Err(e) => bad_request(&e),
            },
            ("POST", name, Some("insert")) => match wire::decode_ns_insert(body) {
                Ok((mut tokens, attrs)) => match namespaces.get(name) {
                    Some(ns) => match ns.insert(&mut tokens, &attrs) {
                        Ok((id, group)) => (
                            200,
                            Json::Obj(vec![
                                ("id".into(), u64::from(id).into()),
                                ("group".into(), u64::from(group).into()),
                            ])
                            .to_string(),
                            vec![],
                        ),
                        Err(e) => ns_error_response(&e),
                    },
                    None => ns_error_response(&NamespaceError::Unknown(name.to_string())),
                },
                Err(e) => bad_request(&e),
            },
            ("POST", name, Some("delete")) => match wire::decode_ns_delete(body) {
                Ok(id) => match namespaces.get(name) {
                    Some(ns) => (
                        200,
                        Json::Obj(vec![("deleted".into(), ns.delete(id).into())]).to_string(),
                        vec![],
                    ),
                    None => ns_error_response(&NamespaceError::Unknown(name.to_string())),
                },
                Err(e) => bad_request(&e),
            },
            (_, _, None) => (
                405,
                wire::encode_error("method_not_allowed", "use PUT, GET or DELETE", None)
                    .to_string(),
                vec![("Allow", "PUT, GET, DELETE".to_string())],
            ),
            (_, _, Some("stats")) => (
                405,
                wire::encode_error("method_not_allowed", "use GET", None).to_string(),
                vec![("Allow", "GET".to_string())],
            ),
            (_, _, Some("knn" | "range" | "insert" | "delete")) => (
                405,
                wire::encode_error("method_not_allowed", "use POST", None).to_string(),
                vec![("Allow", "POST".to_string())],
            ),
            _ => (
                404,
                wire::encode_error(
                    "not_found",
                    "unknown namespace path (expected /ns/{name}[/knn|range|insert|delete|stats])",
                    None,
                )
                .to_string(),
                vec![],
            ),
        };
    stream
        .write_all(&response_bytes(status, &response_body, &extra, keep_alive))
        .is_ok()
}

/// Submits a decoded query to the front and streams its outcome back,
/// probing the socket for client disconnect while the query is in
/// flight. `ns` routes through the named namespace (with the query's
/// decoded filter); `None` is the default backend.
fn serve_query<B: ServeBackend>(
    stream: &mut TcpStream,
    front: &ServeFront<B>,
    query: wire::ApiQuery,
    ns: Option<&str>,
    keep_alive: bool,
    config: NetConfig,
) -> bool {
    let deadline = query
        .timeout_ms
        .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
    // Non-exact requests carry the verdict ("approx"/"recall_est") in
    // their 200 envelope; exact responses stay byte-identical to the
    // pre-approx schema.
    let verdict_fields = query.mode != ApproxPolicy::Exact;
    let opts = SubmitOpts {
        deadline,
        on_full: OnFull::Shed,
        mode: query.mode,
    };
    let mut ticket: Ticket = match (ns, query.param) {
        (None, QueryParam::Knn(k)) => front.submit_knn_opts(query.query, k, opts),
        (None, QueryParam::Range(delta)) => front.submit_range_opts(query.query, delta, opts),
        (Some(name), QueryParam::Knn(k)) => {
            front.submit_ns_knn(name, query.query, k, query.filters, opts)
        }
        (Some(name), QueryParam::Range(delta)) => {
            front.submit_ns_range(name, query.query, delta, query.filters, opts)
        }
    };
    let outcome = loop {
        match ticket.wait_for_full(config.probe_interval) {
            Ok(outcome) => break outcome,
            Err(live) => {
                if peer_gone(stream) {
                    // Dropping the ticket cancels the request: queued
                    // work is skipped, in-flight verification stops at
                    // the next group boundary. No one is listening for
                    // the response.
                    drop(live);
                    return false;
                }
                ticket = live;
            }
        }
    };
    let (status, body, extra): (u16, String, Vec<(&str, String)>) = match outcome {
        Ok((result, info)) => {
            let body = if verdict_fields {
                wire::encode_result_approx(&result, &info)
            } else {
                wire::encode_result(&result)
            };
            (200, body.to_string(), vec![])
        }
        Err(ServeError::Overloaded) => (
            503,
            wire::encode_error(
                "overloaded",
                "the serving queue is full; retry after a backoff",
                None,
            )
            .to_string(),
            vec![("Retry-After", retry_after_secs(config).to_string())],
        ),
        Err(ServeError::DeadlineExceeded(stats)) => (
            504,
            wire::encode_error(
                "deadline_exceeded",
                "the request's timeout_ms elapsed before the query finished",
                Some(&stats),
            )
            .to_string(),
            vec![],
        ),
        Err(ServeError::Cancelled(stats)) => (
            // Normally unobservable — cancellation comes from client
            // disconnect, and then nobody reads this. 499 is the
            // conventional "client closed request" status.
            499,
            wire::encode_error("cancelled", "the request was cancelled", Some(&stats)).to_string(),
            vec![],
        ),
        Err(ServeError::UnknownNamespace(name)) => (
            404,
            wire::encode_error(
                "unknown_namespace",
                &format!("unknown namespace {name:?}"),
                None,
            )
            .to_string(),
            vec![],
        ),
        Err(ServeError::QueryPanicked(msg)) => (
            500,
            wire::encode_error("internal", &format!("query panicked: {msg}"), None).to_string(),
            vec![],
        ),
    };
    stream
        .write_all(&response_bytes(status, &body, &extra, keep_alive))
        .is_ok()
}

fn retry_after_secs(config: NetConfig) -> u64 {
    // Round up so "Retry-After: 0" never invites an immediate hammer.
    (config.retry_after.as_secs() + u64::from(config.retry_after.subsec_nanos() > 0)).max(1)
}

/// Whether the client side of `stream` is gone: a non-blocking `peek`
/// distinguishes "no bytes yet" (`WouldBlock`) from EOF/reset.
///
/// Deliberate trade-off: a FIN is treated as "client gone" even though
/// it could be a half-close from a client that only shut down its write
/// side and still wants the response. TCP offers no cheap way to tell
/// the two apart before writing, and aborting abandoned work is this
/// layer's whole point (mainstream proxies make the same call — e.g.
/// nginx's default `proxy_ignore_client_abort off`). The protocol
/// contract is therefore: **keep the write side open until the response
/// arrives** (documented in `docs/PROTOCOL.md`).
fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,                     // orderly close
        Ok(_) => false,                    // pipelined bytes waiting
        Err(e) if is_timeout(&e) => false, // still connected, quiet
        Err(_) => true,                    // reset / torn down
    };
    // Restore blocking mode (the read timeout configured on the socket
    // survives this toggle).
    gone || stream.set_nonblocking(false).is_err()
}
