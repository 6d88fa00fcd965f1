//! Adversarial battery for the HTTP request-head parser.
//!
//! A request head is untrusted bytes straight off a socket, so the
//! contract is: **a `RequestHead` or an `HttpRejection`, never a panic**.
//! Three surfaces are swept:
//!
//! 1. **Mutation** — every single-byte flip of several valid heads
//!    parses without panicking, and whatever still parses `Ok` is inside
//!    the limits.
//! 2. **Truncation** — every strict prefix of those heads is incomplete
//!    (no head end) or a rejection.
//! 3. **Bounds** — a head of exactly `MAX_HEAD_BYTES` is accepted and
//!    one byte more is a `400`, parsed or read off a socket;
//!    `Content-Length` at `MAX_BODY_BYTES` is accepted and one more is a
//!    `413`; `Transfer-Encoding` is a `411` and `HTTP/2.0` a `505`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use les3_core::sim::Jaccard;
use les3_core::{Les3Index, Partitioning, ServeConfig, ServeFront};
use les3_data::SetDatabase;
use les3_net::http::{
    find_head_end, parse_head, HttpRejection, RequestHead, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use les3_net::{HttpServer, NetConfig};

/// Valid heads covering both versions, keep-alive and close, a query
/// string, and header names in every case.
const HEADS: [&str; 4] = [
    "POST /knn HTTP/1.1\r\nHost: localhost\r\nContent-Length: 24\r\n\r\n",
    "GET /stats?verbose=1 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    "PUT /ns/tenant-a HTTP/1.1\r\nCONTENT-length:  7 \r\nConnection: close\r\nX-Pad: a:b:c\r\n\r\n",
    "DELETE /ns/x HTTP/1.1\r\n\r\n",
];

/// Parses `raw` the way the server does: find the head end, parse up to it.
fn parse(raw: &[u8]) -> Option<Result<RequestHead, HttpRejection>> {
    find_head_end(raw).map(|end| parse_head(&raw[..end]))
}

/// A `GET /healthz` head padded with one header to exactly `len` bytes.
fn head_of_len(len: usize) -> Vec<u8> {
    let (start, end) = ("GET /healthz HTTP/1.1\r\nX-Pad: ", "\r\n\r\n");
    let pad = len - start.len() - end.len();
    format!("{start}{}{end}", "a".repeat(pad)).into_bytes()
}

#[test]
fn every_byte_flip_parses_or_is_a_rejection() {
    for head in HEADS {
        let bytes = head.as_bytes();
        assert!(matches!(parse(bytes), Some(Ok(_))), "{head:?} must parse");
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x20, 0x80, 0xFF] {
                let mut mutated = bytes.to_vec();
                mutated[i] ^= flip;
                match parse(&mutated) {
                    None => {}
                    Some(Ok(parsed)) => {
                        assert!(parsed.content_length.unwrap_or(0) <= MAX_BODY_BYTES);
                        assert!(!parsed.method.is_empty() && !parsed.path.is_empty());
                    }
                    Some(Err(rejection)) => {
                        assert!(
                            [400, 411, 413, 505].contains(&rejection.status),
                            "{rejection:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_truncation_is_incomplete_or_a_rejection() {
    for head in HEADS {
        let bytes = head.as_bytes();
        for len in 0..bytes.len() {
            assert!(find_head_end(&bytes[..len]).is_none(), "{head:?}[..{len}]");
            let rejection = parse_head(&bytes[..len]).unwrap_err();
            assert_eq!(rejection.status, 400, "{head:?}[..{len}]");
        }
    }
}

#[test]
fn head_size_cap_is_exact() {
    let at_cap = head_of_len(MAX_HEAD_BYTES);
    assert_eq!(at_cap.len(), MAX_HEAD_BYTES);
    assert!(matches!(parse(&at_cap), Some(Ok(_))));
    let over = head_of_len(MAX_HEAD_BYTES + 1);
    let rejection = parse(&over).unwrap().unwrap_err();
    assert_eq!(rejection.status, 400, "{rejection:?}");
}

#[test]
fn body_length_cap_and_unsupported_framing_are_exact() {
    let with = |header: String| format!("POST /knn HTTP/1.1\r\n{header}\r\n\r\n").into_bytes();
    let at_cap = parse(&with(format!("Content-Length: {MAX_BODY_BYTES}"))).unwrap();
    assert_eq!(at_cap.unwrap().content_length, Some(MAX_BODY_BYTES));
    let over = parse(&with(format!("Content-Length: {}", MAX_BODY_BYTES + 1))).unwrap();
    assert_eq!(over.unwrap_err().status, 413);
    let chunked = parse(&with("Transfer-Encoding: chunked".to_string())).unwrap();
    assert_eq!(chunked.unwrap_err().status, 411);
    let http2 = parse(b"GET / HTTP/2.0\r\nHost: x\r\n\r\n").unwrap();
    assert_eq!(http2.unwrap_err().status, 505);
}

/// The same cap over a socket: sent in one write, a head one byte over
/// the cap completes in the read that crosses it — the server must still
/// answer `400` — and a head exactly at the cap gets its `200`.
#[test]
fn the_server_enforces_the_head_cap_on_complete_heads() {
    let db = SetDatabase::from_sets(vec![vec![0u32, 1], vec![1, 2]]);
    let index = Les3Index::build(db, Partitioning::round_robin(2, 1), Jaccard);
    let front = Arc::new(ServeFront::new(index, ServeConfig::default()));
    let server = HttpServer::bind(front, "127.0.0.1:0", NetConfig::default()).expect("bind");
    let status_of = |head: &[u8]| {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(head).unwrap();
        let mut response = Vec::new();
        let mut chunk = [0u8; 1024];
        while find_head_end(&response).is_none() {
            let n = stream.read(&mut chunk).expect("read the response");
            assert!(n > 0, "closed before a response head");
            response.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8_lossy(&response).to_string();
        text.split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .unwrap()
    };
    assert_eq!(status_of(&head_of_len(MAX_HEAD_BYTES)), 200);
    assert_eq!(status_of(&head_of_len(MAX_HEAD_BYTES + 1)), 400);
    server.shutdown();
}
