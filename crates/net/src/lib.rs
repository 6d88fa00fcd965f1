//! # les3-net — the network serving layer
//!
//! A dependency-free HTTP/1.1 front for
//! [`ServeFront`](les3_core::ServeFront): other processes query a LES3
//! index over a socket, and the admission-control semantics the serving
//! front already enforces — bounded queue, per-request deadlines,
//! cancellation — surface as real protocol behavior:
//!
//! * full queue → `503 Service Unavailable` + `Retry-After`;
//! * `timeout_ms` in the request body → per-request deadline → `504
//!   Gateway Timeout` carrying the partial
//!   [`SearchStats`](les3_core::SearchStats);
//! * client disconnect mid-query → the request is cancelled — queued
//!   work never runs, in-flight verification stops at the next group
//!   boundary.
//!
//! The container this repo builds in has no crates.io access, so the
//! whole stack is hand-rolled on `std`: [`http`] parses the HTTP/1.1
//! subset (request line + headers, `Content-Length` bodies, keep-alive),
//! [`json`] implements the JSON value/parser/writer, [`wire`] defines
//! the body schemas, and [`server`] runs the accept-thread +
//! connection-worker model.
//!
//! **Endpoints** (full reference with `curl` examples:
//! `docs/PROTOCOL.md`):
//!
//! | endpoint | body | answer |
//! |---|---|---|
//! | `POST /knn` | `{"query":[…],"k":N,"timeout_ms"?:MS}` | `{"hits":[[id,sim],…],"stats":{…}}` |
//! | `POST /range` | `{"query":[…],"delta":D,"timeout_ms"?:MS}` | same shape |
//! | `GET /stats` | — | `{"in_flight":N,"stats":{…aggregate…}}` |
//! | `GET /healthz` | — | `{"ok":true}` |
//!
//! Served hits and stats are **bit-for-bit identical** to calling the
//! index directly — floats travel in shortest-round-trip decimal form —
//! proven end-to-end by `tests/http_serve.rs` over both the flat and
//! sharded backends.
//!
//! The ready-made binary is `les3-serve` (in `src/bin/`): it builds a
//! flat or sharded index from a generated or loaded dataset and serves
//! it — see `README.md`'s "Run it as a service".

pub mod http;
pub mod json;
pub mod server;
pub mod wire;

pub use server::{HttpServer, NetConfig, SnapshotError, SnapshotFn};
