//! A dependency-free HTTP/1.1 subset: request parsing and response
//! writing over raw byte buffers.
//!
//! The build environment has no crates.io access, so the protocol layer
//! is hand-rolled — deliberately the *minimal* server-side subset the
//! LES3 wire protocol needs (see `docs/PROTOCOL.md`):
//!
//! * request line + header parsing (`\r\n` line endings, `key: value`
//!   headers, names case-insensitive);
//! * bodies delimited by `Content-Length` only — `Transfer-Encoding:
//!   chunked` requests are rejected with `411 Length Required`;
//! * keep-alive: HTTP/1.1 connections persist unless `Connection:
//!   close`, HTTP/1.0 ones close unless `Connection: keep-alive`;
//! * hard limits on head (16 KiB) and body (1 MiB) size, so a
//!   misbehaving client cannot balloon server memory.
//!
//! Parsing is split into pure functions over byte slices
//! ([`find_head_end`], [`parse_head`]) so it is testable without
//! sockets; the connection loop in [`crate::server`] owns the actual
//! reads.
//!
//! # Example
//!
//! ```
//! use les3_net::http::{find_head_end, parse_head};
//!
//! let raw = b"POST /knn HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}";
//! let head_len = find_head_end(raw).unwrap();
//! let head = parse_head(&raw[..head_len]).unwrap();
//! assert_eq!((head.method.as_str(), head.path.as_str()), ("POST", "/knn"));
//! assert_eq!(head.content_length, Some(2));
//! assert!(head.keep_alive());
//! ```

use std::fmt::Write as _;

/// Largest accepted request head (request line + headers + blank line).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request head: everything before the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// The method verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The path with any `?query` suffix stripped.
    pub path: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Headers in arrival order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Decoded `Content-Length`, if present.
    pub content_length: Option<usize>,
}

impl RequestHead {
    /// First header with this (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should persist after this exchange, per
    /// the HTTP/1.x defaults and the `Connection` header.
    pub fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        if self.http11 {
            !conn.eq_ignore_ascii_case("close")
        } else {
            conn.eq_ignore_ascii_case("keep-alive")
        }
    }
}

/// A request the server refuses at the HTTP layer, before the wire
/// schema is ever consulted. Carries the status code to answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRejection {
    /// The response status (`400`, `411`, `413`, `505`).
    pub status: u16,
    /// Human-readable detail for the JSON error body.
    pub message: &'static str,
}

impl HttpRejection {
    fn new(status: u16, message: &'static str) -> Self {
        Self { status, message }
    }
}

/// The answer to a head longer than [`MAX_HEAD_BYTES`], complete or not.
pub(crate) const HEAD_TOO_LARGE: HttpRejection = HttpRejection {
    status: 400,
    message: "request head exceeds the 16 KiB limit",
};

/// Finds the end of the request head: the index just past the first
/// `\r\n\r\n`, or `None` if the head is still incomplete.
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Parses a complete request head (everything up to and including the
/// blank line). Rejects, rather than guesses at, anything outside the
/// supported subset: heads over [`MAX_HEAD_BYTES`], unknown HTTP
/// versions, missing length on bodies that need one,
/// `Transfer-Encoding`, oversized declarations.
pub fn parse_head(head: &[u8]) -> Result<RequestHead, HttpRejection> {
    if head.len() > MAX_HEAD_BYTES {
        return Err(HEAD_TOO_LARGE);
    }
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpRejection::new(400, "request head is not valid UTF-8"))?;
    let text = text
        .strip_suffix("\r\n\r\n")
        .ok_or_else(|| HttpRejection::new(400, "request head must end in CRLF CRLF"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpRejection::new(400, "empty request"))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpRejection::new(
                400,
                "malformed request line (expected 'METHOD TARGET HTTP/1.x')",
            ))
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => {
            return Err(HttpRejection::new(
                505,
                "only HTTP/1.0 and HTTP/1.1 are supported",
            ))
        }
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            // The final blank line was stripped with the CRLF suffix;
            // an interior empty line means a stray CRLF.
            return Err(HttpRejection::new(400, "stray blank line inside headers"));
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            HttpRejection::new(400, "malformed header line (expected 'Name: value')")
        })?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpRejection::new(400, "malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let head = RequestHead {
        method: method.to_string(),
        path: target.split('?').next().unwrap_or(target).to_string(),
        http11,
        headers,
        content_length: None,
    };
    if head.header("transfer-encoding").is_some() {
        return Err(HttpRejection::new(
            411,
            "Transfer-Encoding is not supported; send a Content-Length body",
        ));
    }
    let content_length = match head.header("content-length") {
        None => None,
        Some(raw) => {
            let n: usize = raw
                .parse()
                .map_err(|_| HttpRejection::new(400, "unparseable Content-Length"))?;
            if n > MAX_BODY_BYTES {
                return Err(HttpRejection::new(413, "body exceeds the 1 MiB limit"));
            }
            Some(n)
        }
    };
    Ok(RequestHead {
        content_length,
        ..head
    })
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// Serializes one response: status line, standard headers, any extra
/// headers, `Content-Length`-delimited JSON body.
///
/// ```
/// use les3_net::http::response_bytes;
///
/// let bytes = response_bytes(200, "{\"ok\":true}", &[], true);
/// let text = String::from_utf8(bytes).unwrap();
/// assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
/// assert!(text.contains("Content-Length: 11\r\n"));
/// assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
/// ```
pub fn response_bytes(
    status: u16,
    body: &str,
    extra_headers: &[(&str, String)],
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = String::with_capacity(128 + body.len());
    let _ = write!(head, "HTTP/1.1 {} {}\r\n", status, reason_phrase(status));
    head.push_str("Content-Type: application/json\r\n");
    let _ = write!(head, "Content-Length: {}\r\n", body.len());
    let _ = write!(
        head,
        "Connection: {}\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    head.push_str(body);
    head.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<RequestHead, HttpRejection> {
        let end = find_head_end(raw).expect("complete head");
        parse_head(&raw[..end])
    }

    #[test]
    fn parses_a_typical_post() {
        let head =
            parse(b"POST /knn?trace=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 42\r\n\r\n")
                .unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/knn"); // query string stripped
        assert_eq!(head.content_length, Some(42));
        assert!(head.http11);
        assert!(head.keep_alive());
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        let head = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!head.keep_alive());
        let head = parse(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!head.keep_alive());
        let head = parse(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(head.keep_alive());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let head = parse(b"GET / HTTP/1.1\r\nCoNTent-LENGTH: 5\r\n\r\n").unwrap();
        assert_eq!(head.content_length, Some(5));
        assert_eq!(head.header("content-length"), Some("5"));
    }

    #[test]
    fn rejections_carry_the_right_status() {
        let cases: &[(&[u8], u16)] = &[
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /\r\n\r\n", 400),
            (b"GET / HTTP/2\r\n\r\n", 505),
            (b"GET / HTTP/1.1\r\nNo colon here\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\n: empty\r\n\r\n", 400),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                411,
            ),
            (b"POST / HTTP/1.1\r\nContent-Length: potato\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413),
            (b"GET / HTTP/1.1 extra\r\n\r\n", 400),
        ];
        for (raw, status) in cases {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status, *status, "{:?}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nBODY"), Some(18));
    }

    #[test]
    fn response_bytes_shape() {
        let bytes = response_bytes(503, "{}", &[("Retry-After", "1".to_string())], false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
