//! The LES3 wire schema: JSON bodies for `/knn`, `/range`, `/stats` and
//! the error envelope, plus the decoders a client (or test) needs to
//! get [`SearchResult`]s back out bit for bit.
//!
//! The schema is documented operator-first in `docs/PROTOCOL.md`; this
//! module is the single implementation both the server handlers and the
//! integration tests go through, so the docs, the server and the tests
//! cannot drift apart silently.
//!
//! # Round trip
//!
//! ```
//! use les3_core::{SearchResult, SearchStats};
//! use les3_net::wire;
//!
//! let result = SearchResult {
//!     hits: vec![(7, 1.0), (3, 1.0 / 3.0)],
//!     stats: SearchStats { candidates: 2, sims_computed: 2, ..Default::default() },
//! };
//! let body = wire::encode_result(&result).to_string();
//! let decoded = wire::decode_result(&les3_net::json::Json::parse(&body).unwrap()).unwrap();
//! assert_eq!(decoded, result); // similarities identical to the last bit
//! ```

use les3_core::metadata::{MAX_ATTRS_PER_SET, MAX_ATTR_STR, MAX_FILTER_DEPTH};
use les3_core::{
    ApproxInfo, ApproxPolicy, Filter, Filters, Kind, NamespaceInfo, NamespaceSpec, SearchResult,
    SearchStats,
};
use les3_data::TokenId;

use crate::json::Json;

/// A `/knn` or `/range` request decoded from its JSON body — the
/// fields of one [`les3_core::Request`].
#[derive(Debug, Clone, PartialEq)]
pub struct ApiQuery {
    /// The query set's token ids (the server normalizes ordering and
    /// duplicates, exactly like the direct API).
    pub query: Vec<TokenId>,
    /// kNN `k` or range `delta`.
    pub param: Kind,
    /// Optional per-request timeout; maps to a [`les3_core::SubmitOpts`]
    /// deadline.
    pub timeout_ms: Option<u64>,
    /// The optional `"filter"` field (namespace routes only; empty means
    /// unfiltered). The default `/knn`/`/range` routes reject a
    /// non-empty value — there is no metadata to filter on.
    pub filters: Filters,
    /// The optional `"mode"` field (`"exact"` or `"anytime"`), the
    /// query's [`les3_core::Query::approx`]; absent means exact.
    pub approx: ApproxPolicy,
}

/// The query-type-specific parameter: `/knn`'s `k` or `/range`'s `δ` —
/// the engine's own [`Kind`]. The alias stays only because `les3-bench`
/// names it (ROADMAP 1(f)), as do the HTTP tests that pin the wire.
pub type QueryParam = Kind;

/// Why a body failed schema validation (maps to `400 Bad Request`; the
/// string becomes the error envelope's `message`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SchemaError {}

/// Decodes an array of token ids (`field` names it in error messages).
fn decode_tokens(value: &Json, field: &str) -> Result<Vec<TokenId>, SchemaError> {
    value
        .as_arr()
        .ok_or_else(|| SchemaError(format!("{field:?} must be an array of token ids")))?
        .iter()
        .map(|t| {
            t.as_u64()
                .filter(|&t| t <= u64::from(u32::MAX))
                .map(|t| t as TokenId)
                .ok_or_else(|| {
                    SchemaError(format!(
                        "{field:?} elements must be integer token ids in 0..2^32"
                    ))
                })
        })
        .collect()
}

fn parse_common(body: &[u8]) -> Result<(Json, Vec<TokenId>, Option<u64>), SchemaError> {
    let value = parse_object(body)?;
    let query = decode_tokens(
        value
            .get("query")
            .ok_or_else(|| SchemaError("missing required field \"query\"".to_string()))?,
        "query",
    )?;
    let timeout_ms = match value.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(t) => Some(t.as_u64().ok_or_else(|| {
            SchemaError("\"timeout_ms\" must be a non-negative integer".to_string())
        })?),
    };
    Ok((value, query, timeout_ms))
}

/// Decodes a body's optional `"mode"` field into an [`ApproxPolicy`].
/// Absent or `null` means [`ApproxPolicy::Exact`]; any mode but
/// `"exact"` and `"anytime"` is a [`SchemaError`].
fn decode_mode_field(value: &Json) -> Result<ApproxPolicy, SchemaError> {
    let mode = match value.get("mode") {
        None | Some(Json::Null) => return Ok(ApproxPolicy::Exact),
        Some(m) => m
            .as_str()
            .ok_or_else(|| SchemaError("\"mode\" must be a string".to_string()))?,
    };
    match mode {
        "exact" => Ok(ApproxPolicy::Exact),
        "anytime" => Ok(ApproxPolicy::Anytime),
        other => Err(SchemaError(format!(
            "unknown mode {other:?} (expected \"exact\" or \"anytime\")"
        ))),
    }
}

/// Parses `body` as UTF-8 JSON and requires the top level to be an
/// object — the common first step of every request decoder.
fn parse_object(body: &[u8]) -> Result<Json, SchemaError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| SchemaError("body is not valid UTF-8".to_string()))?;
    let value = Json::parse(text).map_err(|e| SchemaError(format!("invalid JSON: {e}")))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(SchemaError("body must be a JSON object".to_string()));
    }
    Ok(value)
}

/// Decodes a `POST /knn` body: `{"query":[...],"k":N,"timeout_ms"?:MS}`.
///
/// ```
/// use les3_core::Kind;
/// use les3_net::wire::decode_knn;
///
/// let q = decode_knn(br#"{"query":[3,1,2],"k":10}"#).unwrap();
/// assert_eq!(q.query, vec![3, 1, 2]);
/// assert_eq!(q.param, Kind::Knn(10));
/// assert_eq!(q.timeout_ms, None);
/// assert!(decode_knn(br#"{"query":[1]}"#).is_err()); // k is required
/// ```
pub fn decode_knn(body: &[u8]) -> Result<ApiQuery, SchemaError> {
    let (value, query, timeout_ms) = parse_common(body)?;
    let k = value
        .get("k")
        .ok_or_else(|| SchemaError("missing required field \"k\"".to_string()))?
        .as_u64()
        // Set ids are u32, so no database can hold 2^32 sets: a larger k
        // is never meaningful, and bounding it here keeps untrusted
        // requests from demanding k-sized work downstream.
        .filter(|&k| k <= u64::from(u32::MAX))
        .ok_or_else(|| SchemaError("\"k\" must be an integer in 0..2^32".to_string()))?;
    Ok(ApiQuery {
        query,
        param: Kind::Knn(k as usize),
        timeout_ms,
        filters: decode_filters_field(&value)?,
        approx: decode_mode_field(&value)?,
    })
}

/// Decodes a `POST /range` body:
/// `{"query":[...],"delta":D,"timeout_ms"?:MS}`.
///
/// ```
/// use les3_core::Kind;
/// use les3_net::wire::decode_range;
///
/// let q = decode_range(br#"{"query":[1,2],"delta":0.8,"timeout_ms":50}"#).unwrap();
/// assert_eq!(q.param, Kind::Range(0.8));
/// assert_eq!(q.timeout_ms, Some(50));
/// assert!(decode_range(br#"{"query":[1,2],"delta":"high"}"#).is_err());
/// ```
pub fn decode_range(body: &[u8]) -> Result<ApiQuery, SchemaError> {
    let (value, query, timeout_ms) = parse_common(body)?;
    let delta = value
        .get("delta")
        .ok_or_else(|| SchemaError("missing required field \"delta\"".to_string()))?
        .as_f64()
        .ok_or_else(|| SchemaError("\"delta\" must be a number".to_string()))?;
    Ok(ApiQuery {
        query,
        param: Kind::Range(delta),
        timeout_ms,
        filters: decode_filters_field(&value)?,
        approx: decode_mode_field(&value)?,
    })
}

/// Decodes a body's optional `"filter"` field: absent or `null` means
/// no predicate; an object is one [`Filter`]; an array is a top-level
/// conjunction. Structural caps ([`MAX_FILTER_DEPTH`],
/// [`les3_core::metadata::MAX_FILTER_NODES`], [`MAX_ATTR_STR`]) are
/// enforced here, so a hostile filter is a `400`, never deep recursion
/// or unbounded work downstream.
fn decode_filters_field(value: &Json) -> Result<Filters, SchemaError> {
    match value.get("filter") {
        None | Some(Json::Null) => Ok(Filters::none()),
        Some(f) => decode_filters(f),
    }
}

/// Decodes the `"filter"` value itself (see [`decode_filter`] for the
/// node grammar). Exposed for tests and clients.
pub fn decode_filters(value: &Json) -> Result<Filters, SchemaError> {
    let filters = match value.as_arr() {
        Some(items) => items
            .iter()
            .map(|f| decode_filter_node(f, 1))
            .collect::<Result<Vec<_>, _>>()?,
        None => vec![decode_filter_node(value, 1)?],
    };
    for f in &filters {
        f.check_caps()
            .map_err(|e| SchemaError(format!("\"filter\" rejected: {e}")))?;
    }
    Ok(Filters(filters))
}

/// Decodes one filter node:
///
/// ```json
/// {"eq":   {"key": K, "value": V}}
/// {"in":   {"key": K, "values": [V, ...]}}
/// {"and":  [filter, ...]}
/// {"or":   [filter, ...]}
/// ```
///
/// ```
/// use les3_core::Filter;
/// use les3_net::{json::Json, wire::decode_filter};
///
/// let f = decode_filter(&Json::parse(
///     r#"{"and":[{"eq":{"key":"tier","value":"gold"}},
///                {"in":{"key":"region","values":["eu","us"]}}]}"#).unwrap()).unwrap();
/// assert!(matches!(f, Filter::And(ref c) if c.len() == 2));
/// assert!(decode_filter(&Json::parse(r#"{"like":{"key":"a"}}"#).unwrap()).is_err());
/// ```
pub fn decode_filter(value: &Json) -> Result<Filter, SchemaError> {
    let f = decode_filter_node(value, 1)?;
    f.check_caps()
        .map_err(|e| SchemaError(format!("\"filter\" rejected: {e}")))?;
    Ok(f)
}

/// Requires a string field of a filter operand, capped at
/// [`MAX_ATTR_STR`] so the cap violation is reported at the exact field.
fn filter_str(value: &Json, op: &str, field: &str) -> Result<String, SchemaError> {
    let s = value
        .get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| SchemaError(format!("filter {op:?} needs a string field {field:?}")))?;
    if s.len() > MAX_ATTR_STR {
        return Err(SchemaError(format!(
            "filter {op:?} field {field:?} exceeds {MAX_ATTR_STR} bytes"
        )));
    }
    Ok(s.to_string())
}

fn decode_filter_node(value: &Json, depth: usize) -> Result<Filter, SchemaError> {
    // Depth-check before descending: the recursion itself must not be
    // driven past the cap by a hostile body.
    if depth > MAX_FILTER_DEPTH {
        return Err(SchemaError(format!(
            "filter nests deeper than {MAX_FILTER_DEPTH}"
        )));
    }
    let Json::Obj(members) = value else {
        return Err(SchemaError(
            "each filter must be an object with exactly one of \"eq\", \"in\", \"and\", \"or\""
                .to_string(),
        ));
    };
    let [(op, arg)] = members.as_slice() else {
        return Err(SchemaError(format!(
            "a filter object must have exactly one operator key, found {}",
            members.len()
        )));
    };
    match op.as_str() {
        "eq" => Ok(Filter::Eq {
            key: filter_str(arg, "eq", "key")?,
            value: filter_str(arg, "eq", "value")?,
        }),
        "in" => {
            let key = filter_str(arg, "in", "key")?;
            let values = arg
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| {
                    SchemaError("filter \"in\" needs an array field \"values\"".to_string())
                })?
                .iter()
                .map(|v| {
                    let s = v.as_str().ok_or_else(|| {
                        SchemaError("filter \"in\" values must be strings".to_string())
                    })?;
                    if s.len() > MAX_ATTR_STR {
                        return Err(SchemaError(format!(
                            "filter \"in\" value exceeds {MAX_ATTR_STR} bytes"
                        )));
                    }
                    Ok(s.to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Filter::In { key, values })
        }
        "and" | "or" => {
            let children = arg
                .as_arr()
                .ok_or_else(|| {
                    SchemaError(format!("filter {op:?} needs an array of child filters"))
                })?
                .iter()
                .map(|c| decode_filter_node(c, depth + 1))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(if op == "and" {
                Filter::And(children)
            } else {
                Filter::Or(children)
            })
        }
        other => Err(SchemaError(format!(
            "unknown filter operator {other:?} (expected \"eq\", \"in\", \"and\" or \"or\")"
        ))),
    }
}

/// Decodes an `"attrs"` object (`{"key":"value",...}`) into the
/// attribute list the core API takes, enforcing the metadata caps.
fn decode_attrs(value: &Json) -> Result<Vec<(String, String)>, SchemaError> {
    let Json::Obj(members) = value else {
        return Err(SchemaError(
            "\"attrs\" must be an object of string values".to_string(),
        ));
    };
    if members.len() > MAX_ATTRS_PER_SET {
        return Err(SchemaError(format!(
            "{} attributes on one set exceeds the cap of {MAX_ATTRS_PER_SET}",
            members.len()
        )));
    }
    members
        .iter()
        .map(|(k, v)| {
            let v = v
                .as_str()
                .ok_or_else(|| SchemaError("\"attrs\" values must be strings".to_string()))?;
            if k.len() > MAX_ATTR_STR || v.len() > MAX_ATTR_STR {
                return Err(SchemaError(format!(
                    "attribute key/value exceeds {MAX_ATTR_STR} bytes"
                )));
            }
            Ok((k.clone(), v.to_string()))
        })
        .collect()
}

/// Decodes a `PUT /ns/{name}` body into a [`NamespaceSpec`]. An empty
/// body (or `{}`) is a default spec: Jaccard, `⌈√n⌉` groups. `"sets"` is
/// the initial corpus, `"attrs"` an optional parallel array of attribute
/// objects; unknown fields are ignored. `"n_groups"` is range-checked
/// here against `u32` only: the cap on it,
/// [`MAX_NAMESPACE_GROUPS`](les3_core::namespace::MAX_NAMESPACE_GROUPS),
/// lives in [`Namespaces::create`](les3_core::Namespaces::create).
///
/// ```
/// use les3_net::wire::decode_ns_spec;
///
/// let spec = decode_ns_spec(br#"{"n_groups":2,"sets":[[1,2],[3]],
///                                "attrs":[{"tier":"gold"},{}]}"#).unwrap();
/// assert_eq!(spec.n_groups, 2);
/// assert_eq!(spec.sets.len(), 2);
/// assert_eq!(spec.attrs[0], vec![("tier".to_string(), "gold".to_string())]);
/// assert!(decode_ns_spec(br#"{"sets":[[1]],"attrs":[{},{}]}"#).is_err()); // length mismatch
/// ```
pub fn decode_ns_spec(body: &[u8]) -> Result<NamespaceSpec, SchemaError> {
    if body.is_empty() {
        return Ok(NamespaceSpec::default());
    }
    let value = parse_object(body)?;
    let mut spec = NamespaceSpec::default();
    if let Some(sim) = value.get("sim") {
        spec.sim = sim
            .as_str()
            .ok_or_else(|| SchemaError("\"sim\" must be a string".to_string()))?
            .to_string();
    }
    if let Some(n) = value.get("n_groups") {
        spec.n_groups = n
            .as_u64()
            .filter(|&n| n <= u64::from(u32::MAX))
            .ok_or_else(|| SchemaError("\"n_groups\" must be an integer in 0..2^32".to_string()))?
            as usize;
    }
    if let Some(sets) = value.get("sets") {
        spec.sets = sets
            .as_arr()
            .ok_or_else(|| SchemaError("\"sets\" must be an array of token-id arrays".to_string()))?
            .iter()
            .map(|s| decode_tokens(s, "sets"))
            .collect::<Result<Vec<_>, _>>()?;
    }
    if let Some(attrs) = value.get("attrs") {
        spec.attrs = attrs
            .as_arr()
            .ok_or_else(|| {
                SchemaError("\"attrs\" must be an array of attribute objects".to_string())
            })?
            .iter()
            .map(decode_attrs)
            .collect::<Result<Vec<_>, _>>()?;
        if spec.attrs.len() != spec.sets.len() {
            return Err(SchemaError(format!(
                "\"attrs\" has {} entries but \"sets\" has {}",
                spec.attrs.len(),
                spec.sets.len()
            )));
        }
    }
    Ok(spec)
}

/// A decoded `POST /ns/{name}/insert` body: the set's tokens plus its
/// attribute pairs.
pub type NsInsertBody = (Vec<TokenId>, Vec<(String, String)>);

/// Decodes a `POST /ns/{name}/insert` body:
/// `{"tokens":[...],"attrs"?:{"key":"value",...}}`.
pub fn decode_ns_insert(body: &[u8]) -> Result<NsInsertBody, SchemaError> {
    let value = parse_object(body)?;
    let tokens = decode_tokens(
        value
            .get("tokens")
            .ok_or_else(|| SchemaError("missing required field \"tokens\"".to_string()))?,
        "tokens",
    )?;
    let attrs = match value.get("attrs") {
        None | Some(Json::Null) => Vec::new(),
        Some(a) => decode_attrs(a)?,
    };
    Ok((tokens, attrs))
}

/// Decodes a `POST /ns/{name}/delete` body: `{"id":N}`.
pub fn decode_ns_delete(body: &[u8]) -> Result<u32, SchemaError> {
    let value = parse_object(body)?;
    let id = value
        .get("id")
        .ok_or_else(|| SchemaError("missing required field \"id\"".to_string()))?
        .as_u64()
        .filter(|&id| id <= u64::from(u32::MAX))
        .ok_or_else(|| SchemaError("\"id\" must be an integer set id in 0..2^32".to_string()))?;
    Ok(id as u32)
}

/// Encodes a [`NamespaceInfo`] as the `GET /ns/{name}` (and `GET /ns`
/// element) body. Field names mirror the struct one for one.
pub fn encode_ns_info(info: &NamespaceInfo) -> Json {
    Json::Obj(vec![
        ("name".into(), info.name.as_str().into()),
        ("sim".into(), info.sim.into()),
        ("n_sets".into(), info.n_sets.into()),
        ("live_sets".into(), info.live_sets.into()),
        ("n_groups".into(), info.n_groups.into()),
    ])
}

/// Encodes a [`SearchStats`] as the `stats` object every response body
/// shares. Field names mirror the struct one for one.
pub fn encode_stats(stats: &SearchStats) -> Json {
    Json::Obj(vec![
        ("candidates".into(), stats.candidates.into()),
        ("sims_computed".into(), stats.sims_computed.into()),
        ("columns_checked".into(), stats.columns_checked.into()),
        ("groups_pruned".into(), stats.groups_pruned.into()),
        ("groups_verified".into(), stats.groups_verified.into()),
        ("early_exits".into(), stats.early_exits.into()),
        ("size_skipped".into(), stats.size_skipped.into()),
        ("shed".into(), stats.shed.into()),
        ("expired".into(), stats.expired.into()),
        ("cancelled".into(), stats.cancelled.into()),
    ])
}

/// Decodes the `stats` object ([`encode_stats`]'s inverse). Unknown
/// fields are ignored; missing ones read as 0, so older clients keep
/// working if the schema grows counters.
pub fn decode_stats(value: &Json) -> Option<SearchStats> {
    let field = |name: &str| -> usize {
        value
            .get(name)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .unwrap_or(0)
    };
    if !matches!(value, Json::Obj(_)) {
        return None;
    }
    Some(SearchStats {
        candidates: field("candidates"),
        sims_computed: field("sims_computed"),
        columns_checked: field("columns_checked"),
        groups_pruned: field("groups_pruned"),
        groups_verified: field("groups_verified"),
        early_exits: field("early_exits"),
        size_skipped: field("size_skipped"),
        shed: field("shed"),
        expired: field("expired"),
        cancelled: field("cancelled"),
    })
}

/// Encodes a completed search: `{"hits":[[id,sim],...],"stats":{...}}`.
/// Similarities use shortest-round-trip float formatting, so a client
/// parsing with standard `f64` semantics recovers the exact bits.
pub fn encode_result(result: &SearchResult) -> Json {
    let hits = result
        .hits
        .iter()
        .map(|&(id, sim)| Json::Arr(vec![Json::from(u64::from(id)), Json::from(sim)]))
        .collect();
    Json::Obj(vec![
        ("hits".into(), Json::Arr(hits)),
        ("stats".into(), encode_stats(&result.stats)),
    ])
}

/// [`encode_result`] plus the approximation verdict: the envelope gains
/// `"approx"` and `"recall_est"`. Served only to requests that asked
/// for a non-exact `"mode"` — exact responses stay byte-identical to
/// what they were before the approximate tier existed.
pub fn encode_result_approx(result: &SearchResult, info: &ApproxInfo) -> Json {
    let Json::Obj(mut members) = encode_result(result) else {
        unreachable!("encode_result always returns an object");
    };
    members.push(("approx".into(), Json::Bool(info.approx)));
    members.push(("recall_est".into(), Json::from(info.recall_est)));
    Json::Obj(members)
}

/// Decodes the `"approx"`/`"recall_est"` pair out of a `200` body, if
/// present ([`encode_result_approx`]'s inverse; exact responses carry
/// neither field and decode to `None`).
pub fn decode_approx(value: &Json) -> Option<ApproxInfo> {
    let approx = match value.get("approx")? {
        Json::Bool(b) => *b,
        _ => return None,
    };
    let recall_est = value.get("recall_est")?.as_f64()?;
    Some(ApproxInfo { approx, recall_est })
}

/// Decodes a `200` body back into a [`SearchResult`]
/// ([`encode_result`]'s inverse).
pub fn decode_result(value: &Json) -> Option<SearchResult> {
    let hits = value
        .get("hits")?
        .as_arr()?
        .iter()
        .map(|hit| {
            let pair = hit.as_arr()?;
            match pair {
                [id, sim] => {
                    let id = id.as_u64().filter(|&id| id <= u64::from(u32::MAX))?;
                    Some((id as u32, sim.as_f64()?))
                }
                _ => None,
            }
        })
        .collect::<Option<Vec<_>>>()?;
    let stats = decode_stats(value.get("stats")?)?;
    Some(SearchResult { hits, stats })
}

/// The error envelope every non-`200` response carries:
/// `{"error":CODE,"message":...,"stats"?:{...}}`. `stats` is present
/// exactly when partial work exists to report (`504`, `499`).
pub fn encode_error(code: &str, message: &str, stats: Option<&SearchStats>) -> Json {
    let mut members = vec![
        ("error".into(), Json::from(code)),
        ("message".into(), Json::from(message)),
    ];
    if let Some(stats) = stats {
        members.push(("stats".into(), encode_stats(stats)));
    }
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_round_trip_all_fields() {
        let stats = SearchStats {
            candidates: 1,
            sims_computed: 2,
            columns_checked: 3,
            groups_pruned: 4,
            groups_verified: 5,
            early_exits: 6,
            size_skipped: 7,
            shed: 8,
            expired: 9,
            cancelled: 10,
        };
        let json = encode_stats(&stats).to_string();
        assert_eq!(decode_stats(&Json::parse(&json).unwrap()), Some(stats));
    }

    #[test]
    fn result_round_trip_preserves_float_bits() {
        let result = SearchResult {
            hits: vec![
                (0, 1.0),
                (42, 2.0 / 3.0),
                (u32::MAX, 0.123_456_789_012_345_67),
            ],
            stats: SearchStats {
                candidates: 3,
                ..Default::default()
            },
        };
        let body = encode_result(&result).to_string();
        let back = decode_result(&Json::parse(&body).unwrap()).unwrap();
        assert_eq!(back, result);
        for ((_, a), (_, b)) in back.hits.iter().zip(&result.hits) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn knn_schema_validation() {
        assert!(decode_knn(b"not json").is_err());
        assert!(decode_knn(b"[1,2,3]").is_err()); // not an object
        assert!(decode_knn(br#"{"k":3}"#).is_err()); // no query
        assert!(decode_knn(br#"{"query":"1,2","k":3}"#).is_err()); // query not array
        assert!(decode_knn(br#"{"query":[1.5],"k":3}"#).is_err()); // fractional token
        assert!(decode_knn(br#"{"query":[-1],"k":3}"#).is_err()); // negative token
        assert!(decode_knn(br#"{"query":[4294967296],"k":3}"#).is_err()); // > u32
        assert!(decode_knn(br#"{"query":[1],"k":-2}"#).is_err()); // negative k
        assert!(decode_knn(br#"{"query":[1],"k":4294967296}"#).is_err()); // k ≥ 2^32
        assert!(decode_knn(br#"{"query":[1],"k":9007199254740992}"#).is_err()); // huge k
        assert!(decode_knn(br#"{"query":[1],"k":3,"timeout_ms":-5}"#).is_err());
        let ok = decode_knn(br#"{"query":[4294967295],"k":0,"timeout_ms":null}"#).unwrap();
        assert_eq!(ok.query, vec![u32::MAX]);
        assert_eq!(ok.param, Kind::Knn(0));
        assert_eq!(ok.timeout_ms, None);
    }

    #[test]
    fn range_schema_validation() {
        assert!(decode_range(br#"{"query":[1]}"#).is_err()); // no delta
        assert!(decode_range(br#"{"query":[1],"delta":true}"#).is_err());
        let ok = decode_range(br#"{"query":[],"delta":1}"#).unwrap();
        assert_eq!(ok.param, Kind::Range(1.0));
    }

    #[test]
    fn error_envelope_shape() {
        let body = encode_error("overloaded", "queue full", None).to_string();
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("overloaded"));
        assert!(v.get("stats").is_none());
        let with = encode_error("deadline_exceeded", "late", Some(&SearchStats::default()));
        assert!(with.get("stats").is_some());
    }
}
