//! Adversarial decode battery for the `/knn` and `/range` bodies and
//! the three namespace bodies (`PUT /ns/{name}`, `POST
//! /ns/{name}/insert`, `POST /ns/{name}/delete`).
//!
//! A body is untrusted bytes straight off a socket, so the contract is:
//! **a decoded value or a `SchemaError`, never a panic**. Three surfaces
//! are swept:
//!
//! 1. **Mutation** — every single-byte flip of several valid bodies
//!    (with `filter`, `mode` and `timeout_ms`; a spec with attributes,
//!    an insert with and without them, a delete) and of a body asking
//!    for the retired `"mode":"prefilter"` (itself a `SchemaError`)
//!    decodes without panicking, and whatever still decodes `Ok` is in
//!    range — a mutated spec still builds, or is refused, through
//!    `Namespaces::create`.
//! 2. **Truncation** — every strict prefix of those bodies is a
//!    `SchemaError` (torn requests are routine on real sockets), except
//!    the empty spec, which is the default one.
//! 3. **Bounds** — `k` = 2³²−1 and token `u32::MAX` are accepted and 2³²
//!    of either is rejected; a body nested to the JSON parser's depth cap
//!    decodes and one level deeper is rejected. For namespaces, through
//!    `Namespaces::create` where the cap lives there: 256 attributes on
//!    a set and a 4 096-byte key or value are accepted and one more is
//!    refused, `n_groups` at `MAX_NAMESPACE_GROUPS` builds and one more is
//!    `Invalid`, and a delete `id` of 2³²−1 decodes and 2³² does not.

use les3_core::metadata::{MAX_ATTRS_PER_SET, MAX_ATTR_STR};
use les3_core::namespace::MAX_NAMESPACE_GROUPS;
use les3_core::{Kind, NamespaceError, NamespaceSpec, Namespaces};
use les3_net::wire::{
    decode_knn, decode_ns_delete, decode_ns_insert, decode_ns_spec, decode_range, ApiQuery,
    SchemaError,
};

/// Valid bodies covering every optional field the two routes read.
const BODIES: [&str; 4] = [
    r#"{"query":[3,1,2],"k":10}"#,
    r#"{"query":[7,8,4294967295],"k":4294967295,"timeout_ms":25,"mode":"anytime"}"#,
    r#"{"query":[1,2],"k":5,
        "filter":{"and":[{"eq":{"key":"tier","value":"gold"}},
                         {"in":{"key":"region","values":["eu","us"]}}]}}"#,
    r#"{"query":[],"delta":0.8,"timeout_ms":null,"mode":"exact","filter":[{"or":[]}]}"#,
];

/// A body well-formed but for its mode: the MinHash prefilter is a
/// library policy, not a wire mode, so this is a `SchemaError`.
const PREFILTER_BODY: &str = r#"{"query":[1,2],"k":5,"mode":"prefilter","bands":8,"rows":1,
    "filter":{"and":[{"eq":{"key":"tier","value":"gold"}},
                     {"in":{"key":"region","values":["eu","us"]}}]}}"#;

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
    for body in BODIES.into_iter().chain([PREFILTER_BODY]) {
        let bytes = body.as_bytes();
        assert_eq!(
            decode_both(bytes).iter().any(Result::is_ok),
            body != PREFILTER_BODY,
            "{body} must decode, unless it asks for the prefilter"
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

/// Valid namespace bodies: two specs, two inserts, a delete.
const NS_SPECS: [&str; 2] = [
    r#"{"sim":"dice","n_groups":3,"sets":[[1,2,3],[2,3],[]],
        "attrs":[{"tier":"gold"},{},{"tier":"silver","region":"eu"}]}"#,
    r#"{"n_groups":0,"sets":[[4095,0]],"extra":[1,{"a":null}]}"#,
];
const NS_INSERTS: [&str; 2] = [
    r#"{"tokens":[9,1,4294967295],"attrs":{"tier":"gold","region":"us"}}"#,
    r#"{"tokens":[],"attrs":null}"#,
];
const NS_DELETE: &str = r#"{"id":4294967295}"#;

/// Decodes `body` as every namespace body; a spec that decodes is handed
/// to `Namespaces::create`, which builds it or refuses it by name.
fn decode_ns_all(registry: &Namespaces, body: &[u8]) -> [bool; 3] {
    let spec = decode_ns_spec(body);
    if let Ok(spec) = spec.clone() {
        match registry.create("fuzz", spec) {
            Ok(_) => assert!(registry.remove("fuzz")),
            Err(NamespaceError::Invalid(_)) => {}
            Err(e) => panic!("a decoded spec failed outside validation: {e}"),
        }
    }
    if let Ok((tokens, attrs)) = decode_ns_insert(body) {
        assert!(tokens.len() <= body.len());
        assert!(attrs.len() <= MAX_ATTRS_PER_SET);
    }
    [
        spec.is_ok(),
        decode_ns_insert(body).is_ok(),
        decode_ns_delete(body).is_ok(),
    ]
}

#[test]
fn every_namespace_body_byte_flip_decodes_or_is_a_schema_error() {
    let registry = Namespaces::new();
    let bodies = NS_SPECS.iter().chain(&NS_INSERTS).chain([&NS_DELETE]);
    for body in bodies {
        let bytes = body.as_bytes();
        assert!(
            decode_ns_all(&registry, bytes).contains(&true),
            "{body} must decode"
        );
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x20, 0x80, 0xFF] {
                let mut mutated = bytes.to_vec();
                mutated[i] ^= flip;
                decode_ns_all(&registry, &mutated);
            }
        }
    }
    assert!(registry.is_empty());
}

#[test]
fn every_namespace_body_truncation_is_a_schema_error() {
    let registry = Namespaces::new();
    let bodies = NS_SPECS.iter().chain(&NS_INSERTS).chain([&NS_DELETE]);
    for body in bodies {
        let bytes = body.as_bytes();
        for len in 0..bytes.len() {
            // The empty body is the default spec; nothing else decodes.
            let want = [len == 0, false, false];
            assert_eq!(
                decode_ns_all(&registry, &bytes[..len]),
                want,
                "{}",
                String::from_utf8_lossy(&bytes[..len])
            );
        }
    }
}

#[test]
fn namespace_body_bounds_are_exact() {
    let registry = Namespaces::new();
    let one_set = |attrs: Vec<(String, String)>| NamespaceSpec {
        sets: vec![vec![1, 2]],
        attrs: vec![attrs],
        ..Default::default()
    };
    let refused = |spec| {
        matches!(
            registry.create("over", spec),
            Err(NamespaceError::Invalid(_))
        )
    };

    // Attribute count: the decoder and the registry share the cap.
    let attrs = |n: usize| -> Vec<(String, String)> {
        (0..n).map(|i| (format!("k{i}"), "v".to_string())).collect()
    };
    let object = |n: usize| {
        let members: Vec<String> = (0..n).map(|i| format!(r#""k{i}":"v""#)).collect();
        format!("{{{}}}", members.join(","))
    };
    let spec_body = |attrs: &str| format!(r#"{{"sets":[[1,2]],"attrs":[{attrs}]}}"#);
    let insert_body = |attrs: &str| format!(r#"{{"tokens":[1],"attrs":{attrs}}}"#);
    let at_cap = object(MAX_ATTRS_PER_SET);
    let spec = decode_ns_spec(spec_body(&at_cap).as_bytes()).unwrap();
    assert_eq!(spec.attrs[0].len(), MAX_ATTRS_PER_SET);
    let ns = registry.create("cap", spec).unwrap();
    let (mut tokens, decoded) = decode_ns_insert(insert_body(&at_cap).as_bytes()).unwrap();
    ns.insert(&mut tokens, &decoded).unwrap();
    let over = object(MAX_ATTRS_PER_SET + 1);
    assert!(decode_ns_spec(spec_body(&over).as_bytes()).is_err());
    assert!(decode_ns_insert(insert_body(&over).as_bytes()).is_err());
    assert!(refused(one_set(attrs(MAX_ATTRS_PER_SET + 1))));
    assert!(matches!(
        ns.insert(&mut [1], &attrs(MAX_ATTRS_PER_SET + 1)),
        Err(NamespaceError::Invalid(_))
    ));

    // Key and value length.
    let long = |n: usize| "x".repeat(n);
    for (key, value) in [(long(MAX_ATTR_STR), long(1)), (long(1), long(MAX_ATTR_STR))] {
        let object = format!(r#"{{"{key}":"{value}"}}"#);
        let (mut tokens, decoded) = decode_ns_insert(insert_body(&object).as_bytes()).unwrap();
        ns.insert(&mut tokens, &decoded).unwrap();
        let spec = decode_ns_spec(spec_body(&object).as_bytes()).unwrap();
        assert!(registry.create("long", spec).is_ok());
        assert!(registry.remove("long"));
    }
    for (key, value) in [
        (long(MAX_ATTR_STR + 1), long(1)),
        (long(1), long(MAX_ATTR_STR + 1)),
    ] {
        let object = format!(r#"{{"{key}":"{value}"}}"#);
        assert!(decode_ns_insert(insert_body(&object).as_bytes()).is_err());
        assert!(decode_ns_spec(spec_body(&object).as_bytes()).is_err());
        assert!(refused(one_set(vec![(key.clone(), value.clone())])));
        assert!(matches!(
            ns.insert(&mut [1], &[(key, value)]),
            Err(NamespaceError::Invalid(_))
        ));
    }

    // Group count: the decoder takes any u32, the registry caps it.
    let groups = |n: u64| decode_ns_spec(format!(r#"{{"n_groups":{n}}}"#).as_bytes());
    let spec = groups(MAX_NAMESPACE_GROUPS as u64).unwrap();
    assert_eq!(
        registry.create("groups", spec).unwrap().info().n_groups,
        MAX_NAMESPACE_GROUPS
    );
    for n in [MAX_NAMESPACE_GROUPS as u64 + 1, u64::from(u32::MAX)] {
        assert!(refused(groups(n).unwrap()), "{n} groups");
    }
    assert!(groups(1 << 32).is_err());

    // Delete ids are u32.
    let delete = |id: u64| decode_ns_delete(format!(r#"{{"id":{id}}}"#).as_bytes());
    assert_eq!(delete(u64::from(u32::MAX)), Ok(u32::MAX));
    let err = delete(1 << 32).unwrap_err();
    assert!(err.0.contains("\"id\""), "{err}");
    assert!(!ns.delete(u32::MAX), "an id never issued is a no-op");
    assert!(registry.get("over").is_none());
}
