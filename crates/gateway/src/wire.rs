//! JSON wire format: request decoding, answer/error encoding, and the
//! `ServeError` → HTTP status taxonomy.
//!
//! Two properties carry the weight here:
//!
//! * **Bit-faithful answers.** A successful response serializes every
//!   field [`ClusterResult::bitwise_eq`] compares — cluster members,
//!   conductance, support size, cost stats, and the estimate's
//!   `offset_coeff` plus full support — through the shortest-round-trip
//!   `f64` writer in [`crate::json`]. Rendering is injective on f64 bits
//!   (including `-0.0`), so two answers render to the same string iff
//!   they are bitwise equal: the endpoint suite and the repo benchmark's
//!   wire-conformance check compare the over-the-wire text against a
//!   locally rendered in-process answer by string equality.
//! * **Typed failures.** Every [`ServeError`] maps to a fixed
//!   `(status, code)` pair — clients dispatch on machine-readable
//!   `code`, load balancers on status class. Degraded answers are *not*
//!   errors: they arrive as 200 with the `degraded` object set (wire
//!   mirror of [`hk_serve::Degraded`]), so a caller that ignores the
//!   marker still gets the best available estimate.

use std::time::Duration;

use hk_cluster::{ClusterResult, Method};
use hk_serve::{Degraded, Knobs, QueryRequest, QueryResponse, QueryTiming, ServeError};

use crate::json::{
    write_f64, write_f64_into, write_str, write_u32_into, write_u64, Json, F64_ROOM, U32_ROOM,
};

/// Why a request body was refused, and the wire `code` the 400 carries:
/// `invalid_body` when the body's shape is wrong (missing or unknown
/// fields, wrong types), `invalid_query` when it is well formed but asks
/// for what the engine does not serve (a method other than `tea`,
/// `tea_plus` or `monte_carlo`, or a malformed `max_walks`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadRequest {
    /// Machine-readable error code.
    pub code: &'static str,
    /// Human-readable reason.
    pub detail: String,
}

impl BadRequest {
    fn query(detail: String) -> BadRequest {
        BadRequest {
            code: "invalid_query",
            detail,
        }
    }
}

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

impl<S: Into<String>> From<S> for BadRequest {
    fn from(detail: S) -> BadRequest {
        BadRequest {
            code: "invalid_body",
            detail: detail.into(),
        }
    }
}

/// Decode one query body: `{"seed": 7, "method": ..., "knobs": ...,
/// "rng_seed": 42}`. Only `seed` is required. The deadline comes from
/// the `x-deadline-ms` *header*, not the body — apply it afterwards with
/// [`QueryRequest::deadline_in`].
pub fn request_from_json(body: &Json) -> Result<QueryRequest, BadRequest> {
    if body.as_obj().is_none() {
        return Err("body must be a JSON object".into());
    }
    for (key, _) in body.as_obj().unwrap() {
        if !matches!(
            key.as_str(),
            "seed" | "method" | "knobs" | "rng_seed" | "seeds"
        ) {
            return Err(format!("unknown field {key:?}").into());
        }
    }
    let seed = body
        .get("seed")
        .ok_or("missing required field \"seed\"")?
        .as_u64()
        .ok_or("\"seed\" must be a non-negative integer")?;
    let seed = u32::try_from(seed).map_err(|_| format!("seed {seed} exceeds u32"))?;
    let mut req = QueryRequest::new(seed);
    if let Some(m) = body.get("method") {
        req = req.method(method_from_json(m)?);
    }
    if let Some(k) = body.get("knobs") {
        req = req.knobs(knobs_from_json(k)?);
    }
    if let Some(r) = body.get("rng_seed") {
        req = req.rng_seed(
            r.as_u64()
                .ok_or("\"rng_seed\" must be an integer below 2^53")?,
        );
    }
    Ok(req)
}

/// Decode a batch body: like a query body but with `"seeds": [..]`
/// instead of `"seed"`. Returns the seed list plus the template request
/// (item `i` runs as the template with seed `seeds[i]` and RNG stream
/// `rng_seed + i`, matching [`hk_serve::run_batch`]'s stream layout).
pub fn batch_from_json(body: &Json) -> Result<(Vec<u32>, QueryRequest), BadRequest> {
    let obj = body.as_obj().ok_or("body must be a JSON object")?;
    for (key, _) in obj {
        if !matches!(key.as_str(), "seeds" | "method" | "knobs" | "rng_seed") {
            return Err(format!("unknown field {key:?}").into());
        }
    }
    let seeds_json = body
        .get("seeds")
        .and_then(Json::as_arr)
        .ok_or("missing required array field \"seeds\"")?;
    if seeds_json.is_empty() {
        return Err("\"seeds\" must be non-empty".into());
    }
    let mut seeds = Vec::with_capacity(seeds_json.len());
    for s in seeds_json {
        let v = s.as_u64().ok_or("seeds must be non-negative integers")?;
        seeds.push(u32::try_from(v).map_err(|_| format!("seed {v} exceeds u32"))?);
    }
    let mut template = Json::Obj(vec![("seed".into(), Json::Num(0.0))]);
    if let Json::Obj(fields) = &mut template {
        for (k, v) in obj {
            if k != "seeds" {
                fields.push((k.clone(), v.clone()));
            }
        }
    }
    let req = request_from_json(&template)?;
    Ok((seeds, req))
}

/// Decode `"method"`: a bare name, or an object with a `"name"` plus the
/// method's fields — `monte_carlo`'s optional `max_walks` is the only one.
fn method_from_json(m: &Json) -> Result<Method, BadRequest> {
    let (name, obj): (&str, &[(String, Json)]) = match m {
        Json::Str(s) => (s.as_str(), &[]),
        Json::Obj(fields) => (
            m.get("name")
                .and_then(Json::as_str)
                .ok_or("method object needs a string \"name\"")?,
            fields.as_slice(),
        ),
        _ => return Err("\"method\" must be a string or object".into()),
    };
    let method = match name {
        "tea" => Method::Tea,
        "tea_plus" => Method::TeaPlus,
        // A present `max_walks` must be an exact integer below 2^53; only
        // an absent one means "the published walk count".
        "monte_carlo" => Method::MonteCarlo {
            max_walks: match m.get("max_walks") {
                None => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    BadRequest::query(
                        "monte_carlo's \"max_walks\" must be an integer below 2^53".into(),
                    )
                })?),
            },
        },
        other => {
            return Err(BadRequest::query(format!(
                "unknown method {other:?} (expected tea, tea_plus or monte_carlo)"
            )))
        }
    };
    let allowed: &[&str] = match method {
        Method::MonteCarlo { .. } => &["name", "max_walks"],
        _ => &["name"],
    };
    for (key, _) in obj {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("method {name:?} has no field {key:?}").into());
        }
    }
    Ok(method)
}

fn knobs_from_json(k: &Json) -> Result<Knobs, BadRequest> {
    let obj = k.as_obj().ok_or("\"knobs\" must be an object")?;
    let mut knobs = Knobs::default();
    for (key, value) in obj {
        let num = value
            .as_f64()
            .ok_or_else(|| format!("knob {key:?} must be numeric"))?;
        match key.as_str() {
            "t" => knobs.t = num,
            "eps_r" => knobs.eps_r = num,
            "delta" => knobs.delta = Some(num),
            "p_f" => knobs.p_f = num,
            other => return Err(format!("unknown knob {other:?}").into()),
        }
    }
    Ok(knobs)
}

/// `(status, reason, machine-readable code)` for a serving failure.
pub fn serve_error_parts(e: &ServeError) -> (u16, &'static str, &'static str) {
    match e {
        ServeError::Overloaded { .. } => (429, "Too Many Requests", "overloaded"),
        ServeError::DeadlineExceeded { .. } => (408, "Request Timeout", "deadline_exceeded"),
        ServeError::Cancelled { .. } => (408, "Request Timeout", "cancelled"),
        ServeError::Query(_) => (400, "Bad Request", "invalid_query"),
        ServeError::UnknownGraph(_) => (404, "Not Found", "unknown_graph"),
        ServeError::GraphLoad { .. } => (500, "Internal Server Error", "graph_load_failed"),
        ServeError::Disconnected => (503, "Service Unavailable", "shutting_down"),
        ServeError::Internal { .. } => (500, "Internal Server Error", "internal"),
    }
}

/// Render an error body: `{"error": code, "detail": human text}`.
pub fn error_body(code: &str, detail: &str) -> String {
    Json::Obj(vec![
        ("error".into(), Json::Str(code.into())),
        ("detail".into(), Json::Str(detail.into())),
    ])
    .render()
}

/// Append one [`ClusterResult`] with every [`ClusterResult::bitwise_eq`]
/// field. Entry values and `conductance`/`offset_coeff` go through the
/// shortest-round-trip writer, so the text is injective on result bits.
/// This is the only code that knows the field order of a result; the
/// text is written straight from the sorted estimate, with no value tree
/// in between.
pub fn write_result(out: &mut Vec<u8>, r: &ClusterResult) {
    // Enough for a node id, punctuation and a typical 20-byte value per
    // entry: one growth instead of a doubling chain on a 0.5 MB answer.
    out.reserve(64 + 12 * r.cluster.len() + 36 * r.estimate.nnz());
    out.extend_from_slice(b"{\"cluster\":[");
    for (i, &v) in r.cluster.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_u64(out, v as u64);
    }
    out.extend_from_slice(b"],\"conductance\":");
    write_f64(out, r.conductance);
    out.extend_from_slice(b",\"support_size\":");
    write_u64(out, r.support_size as u64);
    out.extend_from_slice(b",\"stats\":{\"push_operations\":");
    write_u64(out, r.stats.push_operations);
    out.extend_from_slice(b",\"random_walks\":");
    write_u64(out, r.stats.random_walks);
    out.extend_from_slice(b",\"walk_steps\":");
    write_u64(out, r.stats.walk_steps);
    out.extend_from_slice(b",\"alpha\":");
    write_f64(out, r.stats.alpha);
    out.extend_from_slice(if r.stats.early_exit {
        b",\"early_exit\":true"
    } else {
        b",\"early_exit\":false"
    });
    out.extend_from_slice(b"},\"estimate\":{\"offset_coeff\":");
    write_f64(out, r.estimate.offset_coeff());
    out.extend_from_slice(b",\"entries\":[");
    write_entries(out, r.estimate.nnz(), r.estimate.support());
    out.extend_from_slice(b"]}}");
}

/// Bytes one `[id,value],` may take: the id's and the value's room and
/// four bytes of punctuation.
const PAIR_ROOM: usize = U32_ROOM + F64_ROOM + 4;

/// Most pairs written per growth of the buffer.
const CHUNK: usize = 256;

/// Append `[id,value]` for each of the `len` pairs, comma-separated, in
/// one pass: the buffer grows by a chunk's worst case, each pair is
/// written through slice indexing at a running offset, and the chunk is
/// cut back to what was written. A chunk takes no more pairs than the
/// buffer's spare capacity has worst-case room for (but at least one), so
/// the worst-case room never reallocates a buffer the text itself fits
/// in. A value outside the fast layout of [`write_f64_into`] goes through
/// [`write_f64`] and the chunk's rest gets room anew.
fn write_entries(out: &mut Vec<u8>, len: usize, mut pairs: impl Iterator<Item = (u32, f64)>) {
    let mut left = len;
    while left > 0 {
        let mut at = out.len();
        let spare = (out.capacity() - at) / PAIR_ROOM;
        let chunk = left.min(CHUNK).min(spare.max(1));
        left -= chunk;
        out.resize(at + chunk * PAIR_ROOM, 0);
        for (i, (id, x)) in pairs.by_ref().take(chunk).enumerate() {
            let w = &mut out[at..at + PAIR_ROOM];
            w[0] = b'[';
            let comma = 1 + write_u32_into(&mut w[1..], id);
            w[comma] = b',';
            match write_f64_into(&mut w[comma + 1..], x) {
                Some(n) => {
                    let end = comma + 1 + n;
                    w[end..end + 2].copy_from_slice(b"],");
                    at += end + 2;
                }
                None => {
                    out.truncate(at + comma + 1);
                    write_f64(out, x);
                    out.extend_from_slice(b"],");
                    at = out.len();
                    out.resize(at + (chunk - i - 1) * PAIR_ROOM, 0);
                }
            }
        }
        out.truncate(at);
    }
    // The last pair's comma.
    if len > 0 {
        out.pop();
    }
}

fn write_degraded(out: &mut Vec<u8>, d: &Degraded) {
    let a = &d.achieved;
    out.extend_from_slice(b"{\"tiers_completed\":");
    write_u64(out, a.tiers_completed as u64);
    out.extend_from_slice(b",\"tiers_planned\":");
    write_u64(out, a.tiers_planned as u64);
    out.extend_from_slice(b",\"push_tiers_completed\":");
    write_u64(out, a.push_tiers_completed as u64);
    out.extend_from_slice(b",\"push_tiers_planned\":");
    write_u64(out, a.push_tiers_planned as u64);
    out.extend_from_slice(b",\"walks_done\":");
    write_u64(out, a.walks_done);
    out.extend_from_slice(b",\"walks_planned\":");
    write_u64(out, a.walks_planned);
    out.extend_from_slice(b",\"eps_r_requested\":");
    write_f64(out, a.eps_r_requested);
    // INFINITY (no walk ran) renders as null by the writer's non-finite
    // rule; clients read null as "no bound".
    out.extend_from_slice(b",\"eps_r_achieved\":");
    write_f64(out, a.eps_r_achieved);
    out.extend_from_slice(b",\"after_ms\":");
    write_f64(out, d.after.as_secs_f64() * 1e3);
    out.push(b'}');
}

fn write_timing(out: &mut Vec<u8>, t: &QueryTiming) {
    out.extend_from_slice(b"{\"queue_ns\":");
    write_u64(out, t.queue_ns);
    out.extend_from_slice(b",\"estimate_ns\":");
    write_u64(out, t.estimate_ns);
    out.extend_from_slice(b",\"sweep_ns\":");
    write_u64(out, t.sweep_ns);
    out.extend_from_slice(b",\"total_ns\":");
    write_u64(out, t.total_ns);
    out.push(b'}');
}

/// Wire name of a cache outcome.
pub fn outcome_name(resp: &QueryResponse) -> &'static str {
    use hk_serve::CacheOutcome::*;
    match resp.outcome {
        Hit => "hit",
        Miss => "miss",
        Coalesced => "coalesced",
        Precomputed => "precomputed",
        Uncached => "uncached",
    }
}

/// Append the full success body for one answered query: `graph`, `seed`,
/// `outcome`, `degraded`, `result`, `timing`, in that order. What the
/// server sends, for `/query` and for each `/batch` item.
pub fn write_response(out: &mut Vec<u8>, graph: &str, seed: u32, resp: &QueryResponse) {
    out.extend_from_slice(b"{\"graph\":");
    write_str(out, graph);
    out.extend_from_slice(b",\"seed\":");
    write_u64(out, seed as u64);
    out.extend_from_slice(b",\"outcome\":");
    write_str(out, outcome_name(resp));
    out.extend_from_slice(b",\"degraded\":");
    match &resp.degraded {
        Some(d) => write_degraded(out, d),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"result\":");
    write_result(out, &resp.result);
    out.extend_from_slice(b",\"timing\":");
    write_timing(out, &resp.timing);
    out.push(b'}');
}

/// What a writer appends, as text.
fn rendered(write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::new();
    write(&mut out);
    String::from_utf8(out).expect("the writers emit UTF-8 only")
}

/// Canonical rendered text of a result — what the wire-conformance
/// checks compare.
pub fn canonical_result_text(r: &ClusterResult) -> String {
    rendered(|out| write_result(out, r))
}

/// A full success body as a value: the text of [`write_response`],
/// pre-rendered, for callers that hold a [`Json`].
pub fn response_json(graph: &str, seed: u32, resp: &QueryResponse) -> Json {
    Json::Raw(rendered(|out| write_response(out, graph, seed, resp)))
}

/// Parse an `x-deadline-ms` header value into a duration. Strict
/// positive-integer milliseconds; anything else is a client error.
pub fn deadline_from_header(value: &str) -> Result<Duration, String> {
    let ms: u64 = value
        .parse()
        .map_err(|_| format!("x-deadline-ms {value:?} is not a positive integer"))?;
    if ms == 0 {
        return Err("x-deadline-ms must be >= 1".into());
    }
    Ok(Duration::from_millis(ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use hk_serve::CacheOutcome;

    #[test]
    fn decodes_a_full_request() {
        let body = json::parse(
            br#"{"seed": 7, "rng_seed": 42,
                 "method": {"name": "monte_carlo", "max_walks": 1000},
                 "knobs": {"t": 5.0, "eps_r": 0.25, "delta": 0.001, "p_f": 0.000001}}"#,
        )
        .unwrap();
        let req = request_from_json(&body).unwrap();
        assert_eq!(req.seed, 7);
        assert_eq!(req.rng_seed, 42);
        assert_eq!(
            req.method,
            Method::MonteCarlo {
                max_walks: Some(1000)
            }
        );
        assert_eq!(req.knobs.eps_r, 0.25);
        assert_eq!(req.knobs.delta, Some(0.001));
        assert!(req.deadline.is_none());
    }

    #[test]
    fn string_methods_and_defaults() {
        let body = json::parse(br#"{"seed": 3, "method": "tea"}"#).unwrap();
        let req = request_from_json(&body).unwrap();
        assert!(matches!(req.method, Method::Tea));
        assert_eq!(req.knobs.t, Knobs::default().t);
    }

    #[test]
    fn rejects_bad_requests_with_reasons() {
        const SERVED: &str = "tea, tea_plus or monte_carlo";
        let mut rows: Vec<(String, &str, &str)> = [
            (r#"{"method": "tea"}"#, "invalid_body", "seed"),
            (r#"{"seed": -1}"#, "invalid_body", "seed"),
            (r#"{"seed": 1, "method": "warp"}"#, "invalid_query", SERVED),
            (
                r#"{"seed": 1, "method": {"name": "tea", "eps": 1}}"#,
                "invalid_body",
                "no field",
            ),
            (
                r#"{"seed": 1, "method": {"name": "monte_carlo", "eps": 1}}"#,
                "invalid_body",
                "no field",
            ),
            (
                r#"{"seed": 1, "knobs": {"zeta": 2}}"#,
                "invalid_body",
                "unknown knob",
            ),
            (
                r#"{"seed": 1, "frobnicate": true}"#,
                "invalid_body",
                "unknown field",
            ),
            (r#"{"seed": 4294967296}"#, "invalid_body", "exceeds u32"),
        ]
        .map(|(body, code, needle)| (body.to_string(), code, needle))
        .into();
        // A malformed cap is refused, never read as "no cap" (which would
        // run the full published walk count).
        for bad in ["1.5", "-1", "\"1000\"", "null", "9007199254740992", "1e300"] {
            rows.push((
                format!(
                    r#"{{"seed": 1, "method": {{"name": "monte_carlo", "max_walks": {bad}}}}}"#
                ),
                "invalid_query",
                "\"max_walks\"",
            ));
        }
        // The §7 baselines are not served, in either form.
        for name in ["exact", "cluster_hkpr", "hk_relax", "pr_nibble", "fora"] {
            rows.push((
                format!(r#"{{"seed": 1, "method": "{name}"}}"#),
                "invalid_query",
                SERVED,
            ));
            rows.push((
                format!(r#"{{"seed": 1, "method": {{"name": "{name}", "eps": 0.1}}}}"#),
                "invalid_query",
                SERVED,
            ));
        }
        for (body, code, needle) in rows {
            let parsed = json::parse(body.as_bytes()).unwrap();
            let err = request_from_json(&parsed).unwrap_err();
            assert_eq!(err.code, code, "{body}: {err:?}");
            assert!(
                err.detail.contains(needle),
                "{err:?} should mention {needle:?}"
            );
        }
        // The largest exact cap decodes; 0 reaches the estimator, whose
        // typed error is the engine's 400.
        for (cap, want) in [("9007199254740991", (1u64 << 53) - 1), ("0", 0)] {
            let body = format!(
                r#"{{"seed": 1, "method": {{"name": "monte_carlo", "max_walks": {cap}}}}}"#
            );
            let req = request_from_json(&json::parse(body.as_bytes()).unwrap()).unwrap();
            assert_eq!(
                req.method,
                Method::MonteCarlo {
                    max_walks: Some(want)
                }
            );
        }
    }

    #[test]
    fn batch_template_matches_run_batch_layout() {
        let body =
            json::parse(br#"{"seeds": [5, 9, 2], "rng_seed": 100, "method": "tea_plus"}"#).unwrap();
        let (seeds, template) = batch_from_json(&body).unwrap();
        assert_eq!(seeds, vec![5, 9, 2]);
        assert_eq!(template.rng_seed, 100);
        assert!(batch_from_json(&json::parse(br#"{"seeds": []}"#).unwrap()).is_err());
    }

    #[test]
    fn every_serve_error_maps_to_a_status() {
        let cases = [
            (
                ServeError::Overloaded {
                    queue_len: 9,
                    limit: 8,
                },
                (429, "overloaded"),
            ),
            (
                ServeError::DeadlineExceeded {
                    late_by: Duration::from_millis(1),
                },
                (408, "deadline_exceeded"),
            ),
            (
                ServeError::Cancelled {
                    after: Duration::from_millis(1),
                },
                (408, "cancelled"),
            ),
            (ServeError::UnknownGraph("x".into()), (404, "unknown_graph")),
            (
                ServeError::GraphLoad {
                    graph: "x".into(),
                    error: "io".into(),
                },
                (500, "graph_load_failed"),
            ),
            (ServeError::Disconnected, (503, "shutting_down")),
        ];
        for (err, (status, code)) in cases {
            let (s, _, c) = serve_error_parts(&err);
            assert_eq!((s, c), (status, code), "for {err:?}");
        }
        let body = error_body("overloaded", "queue full");
        let parsed = json::parse(body.as_bytes()).unwrap();
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("overloaded")
        );
    }

    #[test]
    fn response_json_carries_every_bitwise_field() {
        use hkpr_core::estimate::HkprEstimate;
        let result = ClusterResult {
            cluster: vec![1, 5, 9],
            conductance: 0.125,
            estimate: HkprEstimate::from_sorted_columns(vec![1, 5], vec![0.5, -0.0]),
            stats: Default::default(),
            support_size: 2,
        };
        let resp = QueryResponse {
            result: std::sync::Arc::new(result),
            outcome: CacheOutcome::Miss,
            degraded: None,
            timing: Default::default(),
        };
        let text = response_json("demo", 1, &resp).render();
        for needle in [
            "\"cluster\":[1,5,9]",
            "\"conductance\":0.125",
            "\"support_size\":2",
            "\"offset_coeff\":",
            "[5,-0]", // -0.0 survives: Display renders the sign
            "\"push_operations\":0",
            "\"outcome\":\"miss\"",
            "\"degraded\":null",
        ] {
            assert!(text.contains(needle), "{text} should contain {needle}");
        }
    }

    #[test]
    fn degraded_marker_round_trips_push_and_walk_tiers() {
        use hkpr_core::estimate::HkprEstimate;
        use hkpr_core::AccuracyTier;
        let result = ClusterResult {
            cluster: vec![1],
            conductance: 0.5,
            estimate: HkprEstimate::from_sorted_columns(vec![1], vec![0.5]),
            stats: Default::default(),
            support_size: 1,
        };
        // A push-degraded answer: ladder stopped after 2 of 4 certificate
        // tiers, walks still ran to completion.
        let resp = QueryResponse {
            result: std::sync::Arc::new(result),
            outcome: CacheOutcome::Uncached,
            degraded: Some(Degraded {
                achieved: AccuracyTier {
                    tiers_completed: 3,
                    tiers_planned: 3,
                    walks_done: 640,
                    walks_planned: 640,
                    eps_r_requested: 0.5,
                    eps_r_achieved: 0.5,
                    push_tiers_completed: 2,
                    push_tiers_planned: 4,
                },
                after: Duration::from_millis(8),
            }),
            timing: Default::default(),
        };
        let text = response_json("demo", 1, &resp).render();
        // The wire marker exposes both ladders; a client can tell a
        // coarsened push (full walks) from a truncated walk phase.
        for needle in [
            "\"outcome\":\"uncached\"",
            "\"push_tiers_completed\":2",
            "\"push_tiers_planned\":4",
            "\"tiers_completed\":3",
            "\"walks_done\":640",
            "\"eps_r_achieved\":0.5",
        ] {
            assert!(text.contains(needle), "{text} should contain {needle}");
        }
        let parsed = json::parse(text.as_bytes()).unwrap();
        let d = parsed.get("degraded").unwrap();
        assert_eq!(
            d.get("push_tiers_completed").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(d.get("push_tiers_planned").and_then(Json::as_u64), Some(4));
    }

    /// The encoder this module had before the streaming writers: one
    /// `Json` node per number, per entry and per field, floats printed by
    /// `std`'s `Display`. Kept as the oracle the writers are held to.
    mod oracle {
        use super::*;
        use std::fmt::Write as _;

        pub fn result_json(r: &ClusterResult) -> Json {
            let stats = Json::Obj(vec![
                (
                    "push_operations".into(),
                    Json::Num(r.stats.push_operations as f64),
                ),
                (
                    "random_walks".into(),
                    Json::Num(r.stats.random_walks as f64),
                ),
                ("walk_steps".into(), Json::Num(r.stats.walk_steps as f64)),
                ("alpha".into(), Json::Num(r.stats.alpha)),
                ("early_exit".into(), Json::Bool(r.stats.early_exit)),
            ]);
            let estimate = Json::Obj(vec![
                ("offset_coeff".into(), Json::Num(r.estimate.offset_coeff())),
                (
                    "entries".into(),
                    Json::Arr(
                        r.estimate
                            .support()
                            .map(|(v, x)| Json::Arr(vec![Json::Num(v as f64), Json::Num(x)]))
                            .collect(),
                    ),
                ),
            ]);
            Json::Obj(vec![
                (
                    "cluster".into(),
                    Json::Arr(r.cluster.iter().map(|&v| Json::Num(v as f64)).collect()),
                ),
                ("conductance".into(), Json::Num(r.conductance)),
                ("support_size".into(), Json::Num(r.support_size as f64)),
                ("stats".into(), stats),
                ("estimate".into(), estimate),
            ])
        }

        fn degraded_json(d: &Degraded) -> Json {
            let a = &d.achieved;
            Json::Obj(vec![
                (
                    "tiers_completed".into(),
                    Json::Num(a.tiers_completed as f64),
                ),
                ("tiers_planned".into(), Json::Num(a.tiers_planned as f64)),
                (
                    "push_tiers_completed".into(),
                    Json::Num(a.push_tiers_completed as f64),
                ),
                (
                    "push_tiers_planned".into(),
                    Json::Num(a.push_tiers_planned as f64),
                ),
                ("walks_done".into(), Json::Num(a.walks_done as f64)),
                ("walks_planned".into(), Json::Num(a.walks_planned as f64)),
                ("eps_r_requested".into(), Json::Num(a.eps_r_requested)),
                ("eps_r_achieved".into(), Json::Num(a.eps_r_achieved)),
                ("after_ms".into(), Json::Num(d.after.as_secs_f64() * 1e3)),
            ])
        }

        pub fn response_json(graph: &str, seed: u32, resp: &QueryResponse) -> Json {
            let timing = Json::Obj(vec![
                ("queue_ns".into(), Json::Num(resp.timing.queue_ns as f64)),
                (
                    "estimate_ns".into(),
                    Json::Num(resp.timing.estimate_ns as f64),
                ),
                ("sweep_ns".into(), Json::Num(resp.timing.sweep_ns as f64)),
                ("total_ns".into(), Json::Num(resp.timing.total_ns as f64)),
            ]);
            Json::Obj(vec![
                ("graph".into(), Json::Str(graph.into())),
                ("seed".into(), Json::Num(seed as f64)),
                ("outcome".into(), Json::Str(outcome_name(resp).into())),
                (
                    "degraded".into(),
                    resp.degraded.as_ref().map_or(Json::Null, degraded_json),
                ),
                ("result".into(), result_json(&resp.result)),
                ("timing".into(), timing),
            ])
        }

        /// The renderer as it was: numbers through `{}`.
        pub fn render(value: &Json, out: &mut String) {
            match value {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(v) if v.is_finite() => write!(out, "{v}").unwrap(),
                Json::Num(_) => out.push_str("null"),
                Json::Str(s) => render_str(s, out),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        render(item, out);
                    }
                    out.push(']');
                }
                Json::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        render_str(k, out);
                        out.push(':');
                        render(v, out);
                    }
                    out.push('}');
                }
                Json::Raw(_) => unreachable!("the tree encoder built no fragments"),
            }
        }

        fn render_str(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    /// All three renderings of one response: the streaming writer, the
    /// public value's `render`, and the old tree encoder.
    fn assert_encodings_agree(graph: &str, seed: u32, resp: &QueryResponse) -> String {
        let mut streamed = Vec::new();
        write_response(&mut streamed, graph, seed, resp);
        let streamed = String::from_utf8(streamed).unwrap();
        let mut old = String::new();
        oracle::render(&oracle::response_json(graph, seed, resp), &mut old);
        assert_eq!(streamed, old);
        assert_eq!(response_json(graph, seed, resp).render(), old);
        let mut old_result = String::new();
        oracle::render(&oracle::result_json(&resp.result), &mut old_result);
        assert_eq!(canonical_result_text(&resp.result), old_result);
        // What a client parses and re-renders is the same text again.
        let parsed = json::parse(streamed.as_bytes()).unwrap();
        assert_eq!(parsed.get("result").unwrap().render(), old_result);
        streamed
    }

    #[test]
    fn streaming_writer_matches_the_tree_encoder_on_edge_cases() {
        use hkpr_core::estimate::HkprEstimate;
        use hkpr_core::AccuracyTier;
        let empty = ClusterResult {
            cluster: vec![],
            conductance: 1.0,
            estimate: HkprEstimate::from_sorted_columns(vec![], vec![]),
            stats: Default::default(),
            support_size: 0,
        };
        let mut signed_zeros = ClusterResult {
            cluster: vec![0, u32::MAX],
            conductance: 1.0 / 3.0,
            estimate: HkprEstimate::from_sorted_columns(
                vec![0, 7, u32::MAX],
                vec![-0.0, 0.0, 5e-324],
            ),
            stats: Default::default(),
            support_size: 3,
        };
        signed_zeros.estimate.set_offset_coeff(-0.0);
        signed_zeros.stats.alpha = 1.0e-9;
        signed_zeros.stats.early_exit = true;
        signed_zeros.stats.push_operations = (1 << 53) - 1;
        // No walk ran: the achieved bound is infinite and renders as null.
        let no_bound = Degraded {
            achieved: AccuracyTier {
                tiers_completed: 0,
                tiers_planned: 3,
                walks_done: 0,
                walks_planned: 640,
                eps_r_requested: 0.5,
                eps_r_achieved: f64::INFINITY,
                push_tiers_completed: 1,
                push_tiers_planned: 4,
            },
            after: Duration::from_micros(8_250),
        };
        // Ids at every digit-count edge of the id writer, and values in
        // and out of the fast layout between them.
        let id_edges = ClusterResult {
            cluster: vec![9, 10, 99_999_999, 100_000_000],
            conductance: 0.0,
            estimate: HkprEstimate::from_sorted_columns(
                vec![0, 9, 10, 99_999_999, 100_000_000, u32::MAX],
                vec![0.5, 1.5, -0.25, 1e-300, f64::MAX, 0.1],
            ),
            stats: Default::default(),
            support_size: 6,
        };
        // More pairs than one growth of the buffer covers, with general
        // layouts at and around the chunk seams.
        let values: Vec<f64> = (0..700u32)
            .map(|i| match i % 7 {
                0 => i as f64,
                3 => -1.0 / (i as f64 + 3.0),
                5 => 1e-50 * i as f64,
                _ => 1.0 / (i as f64 + 2.0),
            })
            .collect();
        let chunked = ClusterResult {
            cluster: vec![],
            conductance: 0.5,
            estimate: HkprEstimate::from_sorted_columns(
                (0..700).map(|i| i * 7919).collect(),
                values,
            ),
            stats: Default::default(),
            support_size: 700,
        };
        let cases: [(&str, ClusterResult, Option<Degraded>, &[&str]); 4] = [
            (
                "demo",
                empty,
                None,
                &["\"cluster\":[],", "\"entries\":[]}}"],
            ),
            (
                "a \"quoted\\name\"\n\u{1}\u{e9}",
                signed_zeros,
                Some(no_bound),
                &[
                    "\"eps_r_achieved\":null",
                    "[0,-0],[7,0],",
                    "\"offset_coeff\":-0,",
                ],
            ),
            (
                "demo",
                id_edges,
                None,
                &[
                    "\"cluster\":[9,10,99999999,100000000],",
                    "\"entries\":[[0,0.5],[9,1.5],[10,-0.25],[99999999,0.",
                    "[4294967295,0.1]]}}",
                ],
            ),
            ("demo", chunked, None, &["[0,0],[7919,0.3333333333333333],"]),
        ];
        for (graph, result, degraded, needles) in cases {
            let resp = QueryResponse {
                result: std::sync::Arc::new(result),
                outcome: CacheOutcome::Hit,
                degraded,
                timing: hk_serve::QueryTiming {
                    queue_ns: 1,
                    total_ns: 123_456_789_012,
                    ..Default::default()
                },
            };
            let text = assert_encodings_agree(graph, u32::MAX, &resp);
            for needle in needles {
                assert!(text.contains(needle), "{needle} not in {text}");
            }
        }
    }

    #[test]
    fn entries_fit_the_reserve_without_growing_it() {
        use hkpr_core::estimate::HkprEstimate;
        // Values of an estimate's usual length (17 digits, a few zeros
        // behind the point) under 7-digit ids: about 31 bytes a pair, so
        // the 36-byte reserve holds the text and the writer's worst-case
        // room must not reallocate it.
        for n in [100u32, 257, 700, 5_000] {
            let result = ClusterResult {
                cluster: vec![],
                conductance: 0.5,
                estimate: HkprEstimate::from_sorted_columns(
                    (0..n).map(|i| 1_000_000 + i).collect(),
                    (0..n).map(|i| 1.0 / (4_000.0 + i as f64)).collect(),
                ),
                stats: Default::default(),
                support_size: 0,
            };
            let mut out = Vec::new();
            write_result(&mut out, &result);
            assert!(out.len() < 64 + 36 * n as usize);
            assert_eq!(out.capacity(), 64 + 36 * n as usize, "{n} pairs");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any result, marker and timing: the three encodings agree byte
        /// for byte. Counters stay below 2^53, the wire's documented bound
        /// (above it the old `as f64` detour rounded).
        #[test]
        fn streaming_writer_matches_the_tree_encoder(
            graph in ".{0,12}",
            seed in any::<u32>(),
            cluster in prop::collection::vec(any::<u32>(), 0..10),
            entries in prop::collection::vec((any::<u32>(), any::<u64>()), 0..40),
            floats in prop::collection::vec(any::<f64>(), 5..6),
            counters in prop::collection::vec(0u64..(1 << 53), 10..11),
            tiers in prop::collection::vec(any::<u32>(), 4..5),
            flags in any::<u8>(),
        ) {
            use hkpr_core::estimate::HkprEstimate;
            use hkpr_core::AccuracyTier;
            let mut entries: Vec<(u32, f64)> = entries
                .into_iter()
                .map(|(v, bits)| (v, if bits % 16 == 0 { -0.0 } else { f64::from_bits(bits) }))
                .collect();
            entries.sort_by_key(|e| e.0);
            entries.dedup_by_key(|e| e.0);
            let mut estimate = HkprEstimate::from_sorted_columns(
                entries.iter().map(|e| e.0).collect(),
                entries.iter().map(|e| e.1).collect(),
            );
            estimate.set_offset_coeff(floats[2]);
            let result = ClusterResult {
                cluster,
                conductance: floats[0],
                estimate,
                stats: hkpr_core::QueryStats {
                    push_operations: counters[0],
                    random_walks: counters[1],
                    walk_steps: counters[2],
                    alpha: floats[1],
                    early_exit: flags & 1 != 0,
                },
                support_size: counters[3] as usize,
            };
            let degraded = (flags & 2 != 0).then_some(Degraded {
                achieved: AccuracyTier {
                    tiers_completed: tiers[0],
                    tiers_planned: tiers[1],
                    walks_done: counters[4],
                    walks_planned: counters[5],
                    eps_r_requested: floats[3],
                    eps_r_achieved: floats[4],
                    push_tiers_completed: tiers[2],
                    push_tiers_planned: tiers[3],
                },
                after: Duration::from_nanos(counters[6] >> 16),
            });
            let outcome = [
                CacheOutcome::Hit,
                CacheOutcome::Miss,
                CacheOutcome::Coalesced,
                CacheOutcome::Precomputed,
                CacheOutcome::Uncached,
            ][(flags >> 2) as usize % 5];
            let resp = QueryResponse {
                result: std::sync::Arc::new(result),
                outcome,
                degraded,
                timing: hk_serve::QueryTiming {
                    queue_ns: counters[6],
                    estimate_ns: counters[7],
                    sweep_ns: counters[8],
                    total_ns: counters[9],
                    ..Default::default()
                },
            };
            assert_encodings_agree(&graph, seed, &resp);
        }
    }
}
