//! Adversarial decode battery for the `/knn` and `/range` bodies.
//!
//! A query body is untrusted bytes straight off a socket, so the
//! contract is: **an `ApiQuery` or a `SchemaError`, never a panic**.
//! Three surfaces are swept:
//!
//! 1. **Mutation** — every single-byte flip of several valid bodies
//!    (with `filter`, `mode`, `bands`/`rows` and `timeout_ms`) decodes
//!    through both decoders without panicking, and whatever still decodes
//!    `Ok` is in range.
//! 2. **Truncation** — every strict prefix of those bodies is a
//!    `SchemaError` (torn requests are routine on real sockets).
//! 3. **Bounds** — `k` = 2³²−1 and token `u32::MAX` are accepted and 2³²
//!    of either is rejected; a body nested to the JSON parser's depth cap
//!    decodes and one level deeper is rejected.

use les3_core::Kind;
use les3_net::wire::{decode_knn, decode_range, ApiQuery, SchemaError};

/// Valid bodies covering every optional field the two routes read.
const BODIES: [&str; 4] = [
    r#"{"query":[3,1,2],"k":10}"#,
    r#"{"query":[7,8,4294967295],"k":4294967295,"timeout_ms":25,"mode":"anytime"}"#,
    r#"{"query":[1,2],"k":5,"mode":"prefilter","bands":8,"rows":1,
        "filter":{"and":[{"eq":{"key":"tier","value":"gold"}},
                         {"in":{"key":"region","values":["eu","us"]}}]}}"#,
    r#"{"query":[],"delta":0.8,"timeout_ms":null,"mode":"exact","filter":[{"or":[]}]}"#,
];

/// How deep below the top-level object a value may sit before the JSON
/// parser refuses the document.
const JSON_DEPTH_CAP: usize = 64;

fn decode_both(body: &[u8]) -> [Result<ApiQuery, SchemaError>; 2] {
    [decode_knn(body), decode_range(body)]
}

/// What any decoded query satisfies, however its bytes were mangled.
fn assert_in_range(q: &ApiQuery) {
    if let Kind::Knn(k) = q.param {
        assert!(k <= u32::MAX as usize, "k {k} past 2^32 - 1");
    }
    for f in &q.filters.0 {
        assert!(f.check_caps().is_ok(), "decoded a cap-violating filter");
    }
}

#[test]
fn every_byte_flip_decodes_or_is_a_schema_error() {
    for body in BODIES {
        let bytes = body.as_bytes();
        assert!(
            decode_both(bytes).iter().any(Result::is_ok),
            "{body} must decode"
        );
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x20, 0x80, 0xFF] {
                let mut mutated = bytes.to_vec();
                mutated[i] ^= flip;
                for q in decode_both(&mutated).iter().flatten() {
                    assert_in_range(q);
                }
            }
        }
    }
}

#[test]
fn every_truncation_is_a_schema_error() {
    for body in BODIES {
        let bytes = body.as_bytes();
        for len in 0..bytes.len() {
            for out in decode_both(&bytes[..len]) {
                assert!(
                    out.is_err(),
                    "a strict prefix decoded: {}",
                    String::from_utf8_lossy(&bytes[..len])
                );
            }
        }
    }
}

#[test]
fn k_and_token_bounds_are_exact() {
    let knn = |k: &str| decode_knn(format!(r#"{{"query":[1],"k":{k}}}"#).as_bytes());
    assert_eq!(
        knn("4294967295").unwrap().param,
        Kind::Knn(u32::MAX as usize)
    );
    let err = knn("4294967296").unwrap_err();
    assert!(err.0.contains("\"k\""), "{err}");

    let body = |token: &str| format!(r#"{{"query":[0,{token}],"k":1,"delta":0.5}}"#);
    for decode in [decode_knn as fn(&[u8]) -> _, decode_range] {
        let ok = decode(body("4294967295").as_bytes()).unwrap();
        assert_eq!(ok.query, vec![0, u32::MAX]);
        let err = decode(body("4294967296").as_bytes()).unwrap_err();
        assert!(err.0.contains("\"query\""), "{err}");
    }
}

#[test]
fn nesting_at_the_json_depth_cap_is_exact() {
    // An ignored field whose innermost value sits `depth` levels below
    // the top-level object: the field itself is one level down.
    let nested = |depth: usize| {
        let (open, close) = ("[".repeat(depth - 1), "]".repeat(depth - 1));
        format!(r#"{{"query":[1],"k":1,"delta":0.5,"pad":{open}0{close}}}"#)
    };
    for decode in [decode_knn as fn(&[u8]) -> _, decode_range] {
        assert!(decode(nested(JSON_DEPTH_CAP).as_bytes()).is_ok());
        let err = decode(nested(JSON_DEPTH_CAP + 1).as_bytes()).unwrap_err();
        assert!(err.0.contains("nesting too deep"), "{err}");
    }
}
