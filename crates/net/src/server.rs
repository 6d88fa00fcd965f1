//! The HTTP server: an accept thread feeding a pool of connection
//! workers ([`WorkerPool`], the serving front's own pool), each running
//! keep-alive request loops against a shared [`ServeFront`].
//!
//! # Architecture
//!
//! ```text
//! TcpListener ── accept thread ──► WorkerPool ──► N connection workers
//!                                             │  parse HTTP (http.rs)
//!                                             │  decode body (wire.rs)
//!                                             ▼
//!                                        ServeFront::run(Request, gone = peer_gone)
//!                                             │  admission gate, then
//!                                             │  a scratch free → the query runs right here
//!                                             │  all busy → FIFO → query worker, probed waits
//!                                             ▼
//!                                        HTTP response (status mapping below)
//! ```
//!
//! A connection worker hands each admitted request to
//! [`ServeFront::run`]: with a query worker's scratch free and nothing
//! queued, the query runs on the connection worker itself; otherwise it
//! queues and the connection worker waits in short slices. Either way the
//! front asks a **connection probe** (a non-blocking `peek`) at most once
//! per [`PROBE_INTERVAL`](les3_core::serve::PROBE_INTERVAL) — between
//! waits, or at the running query's group boundaries — so a client that
//! disconnects mid-query gets its request cancelled: queued work is
//! skipped and verification stops at the next group boundary. Abandoned
//! queries do not keep burning CPU.
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
//! search) is routed by the same dispatch table as the default routes
//! (`route` below: a namespace name or none, then an action); lifecycle
//! errors map `Unknown → 404`, `AlreadyExists → 409`, `Invalid → 400`.
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
use std::time::{Duration, Instant};

use les3_core::batch::WorkerPool;
use les3_core::serve::panic_message;
use les3_core::sync::atomic::{AtomicBool, Ordering};
use les3_core::sync::{thread, Arc};
use les3_core::{
    ApproxPolicy, NamespaceError, OnFull, PersistentBackend, Request, Route, SearchStats,
    ServeError, ServeFront, SubmitOpts,
};

use crate::http::{
    find_head_end, parse_head, response_bytes, HttpRejection, RequestHead, HEAD_TOO_LARGE,
    MAX_HEAD_BYTES,
};
use crate::json::Json;
use crate::wire;

/// Tuning knobs for the HTTP layer (the query-side knobs live in
/// [`les3_core::ServeConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Connection worker threads. Each handles one connection at a time,
    /// so this bounds concurrently *served* connections (admission
    /// control for queries is the front's bounded queue; this is the
    /// bound on socket handling).
    pub conn_workers: usize,
    /// How long a keep-alive connection may sit idle **between**
    /// requests before the server closes it. Without this bound,
    /// `conn_workers` silent connections would occupy every worker
    /// forever and starve the listener.
    pub idle_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            conn_workers: 4,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// The `Retry-After` header of every `503`, in whole seconds (never 0:
/// that would invite an immediate hammer).
const RETRY_AFTER_SECS: u64 = 1;
/// Accepted connections waiting for a free worker. When the backlog is
/// full, new connections are closed immediately instead of queueing file
/// descriptors without bound.
const ACCEPT_BACKLOG: usize = 64;

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
/// access to what is served (e.g. `ServeFront::save` on the `Arc`'d
/// front).
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
        // any other snapshot error instead of unwinding out of the
        // connection, which would close it without a response.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (self.run)())).unwrap_or_else(
            |payload| {
                Err(SnapshotError::Failed(format!(
                    "snapshot callback panicked: {}",
                    panic_message(payload.as_ref())
                )))
            },
        )
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
    accept: Option<thread::JoinHandle<()>>,
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
    pub fn bind<B: PersistentBackend, A: ToSocketAddrs>(
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
    pub fn bind_with_snapshot<B: PersistentBackend, A: ToSocketAddrs>(
        front: Arc<ServeFront<B>>,
        addr: A,
        config: NetConfig,
        snapshot: Option<SnapshotFn>,
    ) -> std::io::Result<HttpServer> {
        let snapshot = snapshot.map(|run| SnapshotHook {
            busy: AtomicBool::new(false),
            run,
        });
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conn_shutdown = Arc::clone(&shutdown);
        let pool = WorkerPool::new(
            config.conn_workers,
            "les3-net-conn",
            || (),
            move |stream, _: &mut ()| {
                handle_connection(stream, &front, &conn_shutdown, config, snapshot.as_ref())
            },
        );
        let accept_shutdown = Arc::clone(&shutdown);
        let accept = thread::Builder::new()
            .name("les3-net-accept".to_string())
            .spawn(move || {
                // The pool lives in this thread: when the accept loop
                // exits, dropping it serves every queued connection and
                // joins the workers.
                for conn in listener.incoming() {
                    if accept_shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    // Backlog full: close the connection now rather than
                    // queueing file descriptors without bound — the
                    // client sees a clean EOF and can retry.
                    drop(pool.try_submit(stream, ACCEPT_BACKLOG));
                }
            })
            .expect("spawn accept thread"); // lint: allow(no-unwrap) startup is fail-fast
        Ok(HttpServer {
            local_addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (the actual port, when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, finishes in-flight exchanges and every queued
    /// connection, joins all server threads. Idle keep-alive connections
    /// are closed at their next read poll (≤ 250 ms).
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
        // The accept thread's exit drops the pool, which joins the
        // connection workers.
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
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
fn handle_connection<B: PersistentBackend>(
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
                Reply::error(rejection.status, "bad_request", rejection.message)
                    .write(&mut stream, false);
                return;
            }
            ReadOutcome::Request(head, body) => {
                let keep_alive = head.keep_alive() && !shutdown.load(Ordering::Acquire);
                if !respond(&mut stream, front, &head, &body, keep_alive, snapshot) || !keep_alive {
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
        // Incomplete and already over the cap. (A head completed by the
        // read that crosses the cap is refused by `parse_head`.)
        if buf.len() > MAX_HEAD_BYTES {
            return ReadOutcome::Reject(HEAD_TOO_LARGE);
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

/// One response before it is framed: status, JSON body, extra headers.
struct Reply {
    status: u16,
    body: String,
    headers: Vec<(&'static str, String)>,
}

impl Reply {
    fn ok(body: Json) -> Self {
        Self::ok_text(body.to_string())
    }

    /// A `200` whose body is already written.
    fn ok_text(body: String) -> Self {
        Self {
            status: 200,
            body,
            headers: vec![],
        }
    }

    /// The error envelope ([`wire::encode_error`]) under `status`.
    fn error(status: u16, code: &str, message: &str) -> Self {
        Self::error_with(status, code, message, None)
    }

    /// [`Reply::error`] carrying the partial work of an interrupted
    /// query.
    fn error_with(status: u16, code: &str, message: &str, stats: Option<&SearchStats>) -> Self {
        Self {
            status,
            body: wire::encode_error(code, message, stats).to_string(),
            headers: vec![],
        }
    }

    /// A `503` the client should retry after a backoff.
    fn retry_later(code: &str, message: &str) -> Self {
        let mut reply = Self::error(503, code, message);
        reply
            .headers
            .push(("Retry-After", RETRY_AFTER_SECS.to_string()));
        reply
    }

    /// A `405` naming the methods the path does take.
    fn method_not_allowed(message: &str, allow: &str) -> Self {
        let mut reply = Self::error(405, "method_not_allowed", message);
        reply.headers.push(("Allow", allow.to_string()));
        reply
    }

    fn bad_request(e: &wire::SchemaError) -> Self {
        Self::error(400, "bad_request", &e.0)
    }

    /// Maps a [`NamespaceError`] from a lifecycle/mutation call: unknown
    /// name → `404`, create collision → `409`, anything the caller got
    /// wrong → `400`, persistence trouble → `500`.
    fn ns_error(e: &NamespaceError) -> Self {
        let (status, code) = match e {
            NamespaceError::Unknown(_) => (404, "unknown_namespace"),
            NamespaceError::AlreadyExists(_) => (409, "already_exists"),
            NamespaceError::Invalid(_) => (400, "bad_request"),
            NamespaceError::Persist(_) => (500, "internal"),
        };
        Self::error(status, code, &e.to_string())
    }

    fn unknown_ns(name: &str) -> Self {
        Self::ns_error(&NamespaceError::Unknown(name.to_string()))
    }

    /// Frames and writes the response. Returns `false` when the
    /// connection must close (write failure).
    fn write(&self, stream: &mut TcpStream, keep_alive: bool) -> bool {
        stream
            .write_all(&response_bytes(
                self.status,
                &self.body,
                &self.headers,
                keep_alive,
            ))
            .is_ok()
    }
}

/// Splits a request path into the dispatch table's key: the namespace
/// it names (`None` is the default route) and the action on it. Bare
/// `/ns` (or `/ns/`) is the default route's action `ns`: list the
/// namespaces.
fn route(path: &str) -> (Option<&str>, Option<&str>) {
    match path.strip_prefix("/ns/") {
        None => (None, Some(path.strip_prefix('/').unwrap_or(path))),
        Some("") => (None, Some("ns")),
        Some(rest) => match rest.split_once('/') {
            None => (Some(rest), None),
            Some((name, action)) => (Some(name), Some(action)),
        },
    }
}

/// Routes one request and writes its response. Returns `false` when the
/// connection must close (write failure or client gone).
///
/// ```text
/// GET    /healthz               liveness
/// GET    /stats                 global aggregate stats + in_flight
/// POST   /knn, /range           query the default route (no "filter")
/// POST   /snapshot              re-checkpoint (servers bound with one)
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
/// Namespace queries go through the same admission-controlled front as
/// the default routes ([`ServeFront::run`]), so they share the
/// scratches, queue, deadlines and disconnect cancellation. Mutations and lifecycle
/// calls are handled inline on the connection worker — they take the
/// namespace's write lock, not a queue slot.
fn respond<B: PersistentBackend>(
    stream: &mut TcpStream,
    front: &ServeFront<B>,
    head: &RequestHead,
    body: &[u8],
    keep_alive: bool,
    snapshot: Option<&SnapshotHook>,
) -> bool {
    let namespaces = front.namespaces();
    let ok = || Reply::ok(Json::Obj(vec![("ok".into(), true.into())]));
    let reply = match (head.method.as_str(), route(&head.path)) {
        ("GET", (None, Some("healthz"))) => ok(),
        ("GET", (None, Some("stats"))) => Reply::ok(Json::Obj(vec![
            ("in_flight".into(), front.in_flight().into()),
            ("stats".into(), wire::encode_stats(&front.stats())),
        ])),
        ("GET", (Some(name), Some("stats"))) => match namespaces.get(name) {
            Some(ns) => Reply::ok(Json::Obj(vec![
                ("name".into(), name.into()),
                ("stats".into(), wire::encode_stats(&ns.stats())),
            ])),
            None => Reply::unknown_ns(name),
        },
        ("POST", (ns, Some(kind @ ("knn" | "range")))) => {
            let decoded = match kind {
                "knn" => wire::decode_knn(body),
                _ => wire::decode_range(body),
            };
            match decoded {
                // The default route serves the attribute-less primary
                // index.
                Ok(query) if ns.is_none() && !query.filters.is_empty() => Reply::error(
                    400,
                    "bad_request",
                    "\"filter\" is only supported on /ns/{name}/knn and /ns/{name}/range",
                ),
                Ok(query) => return serve_query(stream, front, query, ns, keep_alive),
                Err(e) => Reply::bad_request(&e),
            }
        }
        ("POST", (None, Some("snapshot"))) => match snapshot.map(SnapshotHook::snapshot) {
            None => Reply::error(
                404,
                "not_found",
                "snapshotting is not enabled (start les3-serve with --save-index)",
            ),
            Some(Ok(path)) => Reply::ok(Json::Obj(vec![
                ("ok".into(), true.into()),
                ("path".into(), path.as_str().into()),
            ])),
            Some(Err(SnapshotError::Busy)) => Reply::retry_later(
                "snapshot_busy",
                "a snapshot is already being written; retry after a backoff",
            ),
            Some(Err(SnapshotError::Failed(msg))) => Reply::error(500, "snapshot_failed", &msg),
        },
        ("GET", (None, Some("ns"))) => {
            let list = namespaces.list().iter().map(wire::encode_ns_info).collect();
            Reply::ok(Json::Obj(vec![("namespaces".into(), Json::Arr(list))]))
        }
        ("PUT", (Some(name), None)) => match wire::decode_ns_spec(body) {
            Ok(spec) => match namespaces.create(name, spec) {
                Ok(ns) => Reply::ok(wire::encode_ns_info(&ns.info())),
                Err(e) => Reply::ns_error(&e),
            },
            Err(e) => Reply::bad_request(&e),
        },
        ("DELETE", (Some(name), None)) => {
            if namespaces.remove(name) {
                ok()
            } else {
                Reply::unknown_ns(name)
            }
        }
        ("GET", (Some(name), None)) => match namespaces.get(name) {
            Some(ns) => Reply::ok(wire::encode_ns_info(&ns.info())),
            None => Reply::unknown_ns(name),
        },
        ("POST", (Some(name), Some("insert"))) => match wire::decode_ns_insert(body) {
            Ok((mut tokens, attrs)) => match namespaces.get(name) {
                Some(ns) => match ns.insert(&mut tokens, &attrs) {
                    Ok((id, group)) => Reply::ok(Json::Obj(vec![
                        ("id".into(), u64::from(id).into()),
                        ("group".into(), u64::from(group).into()),
                    ])),
                    Err(e) => Reply::ns_error(&e),
                },
                None => Reply::unknown_ns(name),
            },
            Err(e) => Reply::bad_request(&e),
        },
        ("POST", (Some(name), Some("delete"))) => match wire::decode_ns_delete(body) {
            Ok(id) => match namespaces.get(name) {
                Some(ns) => Reply::ok(Json::Obj(vec![("deleted".into(), ns.delete(id).into())])),
                None => Reply::unknown_ns(name),
            },
            Err(e) => Reply::bad_request(&e),
        },
        // A known path under the wrong method.
        (_, (None, Some("healthz" | "stats" | "ns")) | (Some(_), Some("stats"))) => {
            Reply::method_not_allowed("use GET", "GET")
        }
        (_, (None, Some("knn" | "range" | "snapshot")))
        | (_, (Some(_), Some("knn" | "range" | "insert" | "delete"))) => {
            Reply::method_not_allowed("use POST", "POST")
        }
        (_, (Some(_), None)) => {
            Reply::method_not_allowed("use PUT, GET or DELETE", "PUT, GET, DELETE")
        }
        (_, (None, _)) => Reply::error(
            404,
            "not_found",
            "unknown path (expected /knn, /range, /snapshot, /stats, /healthz or /ns/...)",
        ),
        (_, (Some(_), _)) => Reply::error(
            404,
            "not_found",
            "unknown namespace path (expected /ns/{name}[/knn|range|insert|delete|stats])",
        ),
    };
    reply.write(stream, keep_alive)
}

/// Runs a decoded query through the front and writes its outcome back.
/// The front probes the socket for client disconnect while the query
/// waits or runs, and cancels it when the client is gone. `ns` routes
/// through the named namespace (with the query's decoded filter); `None`
/// is the default backend.
fn serve_query<B: PersistentBackend>(
    stream: &mut TcpStream,
    front: &ServeFront<B>,
    query: wire::ApiQuery,
    ns: Option<&str>,
    keep_alive: bool,
) -> bool {
    // Non-exact requests carry the verdict ("approx"/"recall_est") in
    // their 200 envelope; exact responses stay byte-identical to the
    // pre-approx schema.
    let verdict_fields = query.approx != ApproxPolicy::Exact;
    let deadline = query
        .timeout_ms
        .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
    let request = Request {
        tokens: query.query,
        kind: query.param,
        approx: query.approx,
        route: match ns {
            None => Route::Default,
            Some(name) => Route::Namespace(name.to_string(), query.filters),
        },
        opts: SubmitOpts {
            deadline,
            on_full: OnFull::Shed,
        },
    };
    // The query's scratch is back in the pool before the response is
    // encoded or written: a slow client holds no query capacity.
    let outcome = front.run(request, &|| peer_gone(stream));
    let reply = match outcome {
        Ok((result, info)) if verdict_fields => {
            Reply::ok(wire::encode_result_approx(&result, &info))
        }
        // The hot path: the exact body, written without a tree.
        Ok((result, _)) => Reply::ok_text(wire::result_body(&result)),
        Err(ServeError::Overloaded) => Reply::retry_later(
            "overloaded",
            "the serving queue is full; retry after a backoff",
        ),
        Err(ServeError::DeadlineExceeded(stats)) => Reply::error_with(
            504,
            "deadline_exceeded",
            "the request's timeout_ms elapsed before the query finished",
            Some(&stats),
        ),
        // Normally unobservable — cancellation comes from client
        // disconnect, and then nobody reads this (a gone peer's socket
        // may still take the write). 499 is the conventional "client
        // closed request" status.
        Err(ServeError::Cancelled(stats)) => {
            Reply::error_with(499, "cancelled", "the request was cancelled", Some(&stats))
        }
        Err(ServeError::UnknownNamespace(name)) => Reply::error(
            404,
            "unknown_namespace",
            &format!("unknown namespace {name:?}"),
        ),
        Err(ServeError::QueryPanicked(msg)) => {
            Reply::error(500, "internal", &format!("query panicked: {msg}"))
        }
    };
    reply.write(stream, keep_alive)
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
