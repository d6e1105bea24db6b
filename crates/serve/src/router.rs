//! Route dispatch, JSON request decoding, and the non-inference endpoints
//! (`/healthz`, `/metrics`, reload/shutdown acknowledgements).
//!
//! Request bodies mirror the `airchitect recommend` CLI flags — same field
//! names (underscored), same defaults — so a curl quickstart reads like the
//! CLI invocation it replaces. Validation failures are always `400` with a
//! machine-readable `code`; unknown body fields are rejected (typos should
//! fail loudly, exactly like the CLI's `expect_only`).

use airchitect::model::CaseStudy;
use airchitect_dse::case2::Case2Query;
use airchitect_sim::{ArrayConfig, Dataflow};
use airchitect_telemetry::json::{self, Value};
use airchitect_telemetry::metrics;
use airchitect_workload::GemmWorkload;

use crate::batch::RecQuery;
use crate::breaker::Breakers;
use crate::http::Response;
use crate::reload::{case_name, ModelHub};

/// Largest accepted `topk` (bounds response size; every space has far
/// fewer *useful* candidates than this).
pub const MAX_TOPK: usize = 64;

/// The server's route table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/recommend/{array|buffers|schedule}`.
    Recommend(CaseStudy),
    /// `POST /v1/reload`.
    Reload,
    /// `POST /v1/rollback`.
    Rollback,
    /// `POST /v1/shutdown`.
    Shutdown,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
}

/// Maps a method + path to a route.
///
/// # Errors
///
/// Returns a ready-to-send `404` for unknown paths and `405` for known
/// paths with the wrong method.
pub fn route(method: &str, path: &str) -> Result<Route, Response> {
    let (want_post, r) = match path {
        "/v1/recommend/array" => (true, Route::Recommend(CaseStudy::ArrayDataflow)),
        "/v1/recommend/buffers" => (true, Route::Recommend(CaseStudy::BufferSizing)),
        "/v1/recommend/schedule" => (true, Route::Recommend(CaseStudy::MultiArrayScheduling)),
        "/v1/reload" => (true, Route::Reload),
        "/v1/rollback" => (true, Route::Rollback),
        "/v1/shutdown" => (true, Route::Shutdown),
        "/healthz" => (false, Route::Healthz),
        "/metrics" => (false, Route::Metrics),
        _ => {
            return Err(Response::error(
                404,
                "not_found",
                &format!("no route for `{path}`"),
            ))
        }
    };
    let ok = if want_post {
        method == "POST"
    } else {
        method == "GET" || method == "HEAD"
    };
    if !ok {
        return Err(Response::error(
            405,
            "method_not_allowed",
            &format!(
                "`{path}` requires {}",
                if want_post { "POST" } else { "GET" }
            ),
        ));
    }
    Ok(r)
}

/// A decoded recommendation request: the validated query, the requested
/// ranked-list size (`0` = top-1), and the canonical cache key.
#[derive(Debug)]
pub struct ParsedQuery {
    /// Validated domain query.
    pub query: RecQuery,
    /// Ranked-list size; `0` means top-1.
    pub topk: usize,
    /// Canonical bytes identifying the query semantically (exact integer
    /// parameters, not JSON text).
    pub cache_key: Vec<u8>,
}

fn bad(code: &str, message: &str) -> Response {
    Response::error(400, code, message)
}

fn body_obj(body: &[u8]) -> Result<Vec<(String, Value)>, Response> {
    if body.iter().all(u8::is_ascii_whitespace) {
        return Ok(Vec::new());
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| bad("bad_encoding", "request body is not UTF-8"))?;
    match json::parse(text) {
        Ok(Value::Obj(members)) => Ok(members),
        Ok(_) => Err(bad("bad_request", "request body must be a JSON object")),
        Err(e) => Err(bad("bad_json", &format!("malformed JSON: {e}"))),
    }
}

fn check_fields(members: &[(String, Value)], allowed: &[&str]) -> Result<(), Response> {
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(bad(
                "unknown_field",
                &format!("unknown field `{key}` (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn get<'a>(members: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req_u64(members: &[(String, Value)], key: &str) -> Result<u64, Response> {
    get(members, key)
        .ok_or_else(|| bad("missing_field", &format!("`{key}` is required")))?
        .as_u64()
        .ok_or_else(|| bad("bad_field", &format!("`{key}` must be a non-negative integer")))
}

fn opt_u64(members: &[(String, Value)], key: &str, default: u64) -> Result<u64, Response> {
    match get(members, key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad("bad_field", &format!("`{key}` must be a non-negative integer"))),
    }
}

fn parse_topk(members: &[(String, Value)]) -> Result<usize, Response> {
    let k = opt_u64(members, "topk", 0)?;
    if k as usize > MAX_TOPK {
        return Err(bad(
            "bad_field",
            &format!("`topk` is capped at {MAX_TOPK}"),
        ));
    }
    Ok(k as usize)
}

fn workload(m: u64, n: u64, k: u64) -> Result<GemmWorkload, Response> {
    GemmWorkload::new(m, n, k).map_err(|e| bad("bad_workload", &e.to_string()))
}

/// Canonical cache key: case tag, topk, then the exact integer parameters
/// in a fixed order, all little-endian. Built from the *decoded* values, so
/// two JSON bodies differing only in field order or formatting share a key.
fn key_begin(tag: u8, topk: usize) -> Vec<u8> {
    let mut key = Vec::with_capacity(64);
    key.push(tag);
    key.extend_from_slice(&(topk as u32).to_le_bytes());
    key
}

fn key_push(key: &mut Vec<u8>, v: u64) {
    key.extend_from_slice(&v.to_le_bytes());
}

/// Decodes and validates one recommendation body for `case`.
///
/// # Errors
///
/// Returns a ready-to-send `400` response describing the first problem.
pub fn parse_recommend(case: CaseStudy, body: &[u8]) -> Result<ParsedQuery, Response> {
    let members = body_obj(body)?;
    match case {
        CaseStudy::ArrayDataflow => {
            check_fields(&members, &["m", "n", "k", "mac_budget", "topk"])?;
            let topk = parse_topk(&members)?;
            let (m, n, k) = (
                req_u64(&members, "m")?,
                req_u64(&members, "n")?,
                req_u64(&members, "k")?,
            );
            // Same default as the CLI's `--budget-log2 15`.
            let mac_budget = opt_u64(&members, "mac_budget", 1 << 15)?;
            let mut cache_key = key_begin(1, topk);
            for v in [m, n, k, mac_budget] {
                key_push(&mut cache_key, v);
            }
            Ok(ParsedQuery {
                query: RecQuery::Array {
                    workload: workload(m, n, k)?,
                    mac_budget,
                },
                topk,
                cache_key,
            })
        }
        CaseStudy::BufferSizing => {
            check_fields(
                &members,
                &["m", "n", "k", "rows", "cols", "dataflow", "bandwidth", "limit_kb", "topk"],
            )?;
            let topk = parse_topk(&members)?;
            let (m, n, k) = (
                req_u64(&members, "m")?,
                req_u64(&members, "n")?,
                req_u64(&members, "k")?,
            );
            let (rows, cols) = (req_u64(&members, "rows")?, req_u64(&members, "cols")?);
            let dataflow = match get(&members, "dataflow") {
                None => Dataflow::Os,
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| bad("bad_field", "`dataflow` must be a string"))?
                    .parse::<Dataflow>()
                    .map_err(|e| bad("bad_field", &e.to_string()))?,
            };
            let bandwidth = opt_u64(&members, "bandwidth", 16)?;
            let limit_kb = opt_u64(&members, "limit_kb", 1500)?;
            let array = ArrayConfig::new(rows, cols)
                .map_err(|e| bad("bad_array", &e.to_string()))?;
            let mut cache_key = key_begin(2, topk);
            for v in [m, n, k, rows, cols, dataflow.index() as u64, bandwidth, limit_kb] {
                key_push(&mut cache_key, v);
            }
            Ok(ParsedQuery {
                query: RecQuery::Buffers {
                    query: Case2Query {
                        workload: workload(m, n, k)?,
                        array,
                        dataflow,
                        bandwidth,
                        limit_kb,
                    },
                },
                topk,
                cache_key,
            })
        }
        CaseStudy::MultiArrayScheduling => {
            check_fields(&members, &["workloads", "topk"])?;
            let topk = parse_topk(&members)?;
            let items = get(&members, "workloads")
                .ok_or_else(|| bad("missing_field", "`workloads` is required"))?
                .as_arr()
                .ok_or_else(|| bad("bad_field", "`workloads` must be an array"))?;
            if items.len() != 4 {
                return Err(bad(
                    "bad_field",
                    &format!("`workloads` needs exactly 4 entries (got {})", items.len()),
                ));
            }
            let mut cache_key = key_begin(3, topk);
            let mut workloads = Vec::with_capacity(4);
            for item in items {
                let Value::Obj(fields) = item else {
                    return Err(bad(
                        "bad_field",
                        "each workload must be an object {\"m\":..,\"n\":..,\"k\":..}",
                    ));
                };
                check_fields(fields, &["m", "n", "k"])?;
                let (m, n, k) = (
                    req_u64(fields, "m")?,
                    req_u64(fields, "n")?,
                    req_u64(fields, "k")?,
                );
                for v in [m, n, k] {
                    key_push(&mut cache_key, v);
                }
                workloads.push(workload(m, n, k)?);
            }
            Ok(ParsedQuery {
                query: RecQuery::Schedule { workloads },
                topk,
                cache_key,
            })
        }
    }
}

/// Renders `GET /healthz`: liveness, hub generation, loaded models,
/// breaker phases, rollout state, and any tolerated startup load errors.
/// The status is `degraded` (not `ok`) while any circuit is open or a
/// registered model is missing — load balancers doing string matches see
/// the difference. A canary in flight does *not* flip the status: the
/// incumbent answers all traffic until promotion (the candidate is only
/// scored on the shadow pool), and the cluster supervisor's probe must
/// keep seeing a healthy replica mid-rollout. Nothing here takes the
/// registry lock, so a held promote never stalls the probe.
pub fn render_healthz(
    hub: &ModelHub,
    breakers: &Breakers,
    rollout: Option<&crate::canary::Rollout>,
) -> Response {
    let load_errors = hub.load_errors();
    let degraded = breakers.any_tripped() || !load_errors.is_empty();
    let mut body = String::from("{\"status\":\"");
    body.push_str(if degraded { "degraded" } else { "ok" });
    body.push_str("\",\"generation\":");
    body.push_str(&hub.generation().to_string());
    body.push_str(",\"models\":[");
    for (i, model) in hub.all().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"case\":");
        json::write_escaped(&mut body, case_name(model.case));
        body.push_str(",\"path\":");
        json::write_escaped(&mut body, &model.path.display().to_string());
        body.push_str(",\"generation\":");
        body.push_str(&model.generation.to_string());
        body.push('}');
    }
    body.push_str("],\"breakers\":{");
    for (i, (name, phase)) in breakers.phases().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        json::write_escaped(&mut body, name);
        body.push(':');
        json::write_escaped(&mut body, phase);
    }
    body.push_str("},\"load_errors\":[");
    for (i, err) in load_errors.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        json::write_escaped(&mut body, err);
    }
    body.push(']');
    if let Some(rollout) = rollout {
        body.push_str(",\"rollout\":");
        rollout.write_status(&mut body);
        if let Some(version) = rollout.active_version() {
            body.push_str(",\"version\":");
            body.push_str(&version.to_string());
        }
    }
    body.push_str("}\n");
    Response::json(200, body)
}

/// Renders `GET /metrics` as plain `name value` lines (greppable; the
/// format the repo's JSONL sink also flattens to).
pub fn render_metrics() -> Response {
    let snap = metrics::snapshot();
    let mut body = String::new();
    for (name, value) in &snap.counters {
        body.push_str(&format!("{name} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        body.push_str(&format!("{name} {value}\n"));
    }
    for (name, h) in &snap.histograms {
        body.push_str(&format!("{name}_count {}\n", h.count));
        body.push_str(&format!("{name}_sum {}\n", h.sum));
        body.push_str(&format!("{name}_min {}\n", h.min));
        body.push_str(&format!("{name}_max {}\n", h.max));
    }
    Response::text(200, body)
}

/// Renders the `POST /v1/reload` success acknowledgement (the immediate
/// swap path — a canary-mode reload answers from the rollout controller
/// instead). Reports the loaded generation and, when a registry is
/// attached, the active model version and rollout state.
pub fn render_reloaded(hub: &ModelHub, rollout: Option<&crate::canary::Rollout>) -> Response {
    let mut body = String::from("{\"reloaded\":true,\"generation\":");
    body.push_str(&hub.generation().to_string());
    body.push_str(",\"models\":");
    body.push_str(&hub.all().len().to_string());
    if let Some(rollout) = rollout {
        if let Some(version) = rollout.active_version() {
            body.push_str(",\"version\":");
            body.push_str(&version.to_string());
        }
        body.push_str(",\"rollout\":");
        rollout.write_status(&mut body);
    }
    body.push_str("}\n");
    Response::json(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_resolve() {
        assert_eq!(
            route("POST", "/v1/recommend/array").unwrap(),
            Route::Recommend(CaseStudy::ArrayDataflow)
        );
        assert_eq!(route("GET", "/healthz").unwrap(), Route::Healthz);
        assert_eq!(route("GET", "/metrics").unwrap(), Route::Metrics);
        assert_eq!(route("POST", "/v1/reload").unwrap(), Route::Reload);
        assert_eq!(route("POST", "/v1/rollback").unwrap(), Route::Rollback);
        assert_eq!(route("GET", "/v1/rollback").unwrap_err().status, 405);
        assert_eq!(route("GET", "/nope").unwrap_err().status, 404);
        assert_eq!(route("GET", "/v1/reload").unwrap_err().status, 405);
        assert_eq!(route("POST", "/healthz").unwrap_err().status, 405);
    }

    #[test]
    fn array_body_parses_with_defaults() {
        let p = parse_recommend(
            CaseStudy::ArrayDataflow,
            br#"{"m":64,"n":64,"k":64}"#,
        )
        .unwrap();
        assert_eq!(p.topk, 0);
        match p.query {
            RecQuery::Array { mac_budget, .. } => assert_eq!(mac_budget, 1 << 15),
            other => panic!("wrong query: {other:?}"),
        }
    }

    #[test]
    fn field_order_does_not_change_the_cache_key() {
        let a = parse_recommend(
            CaseStudy::ArrayDataflow,
            br#"{"m":64,"n":32,"k":16,"mac_budget":4096}"#,
        )
        .unwrap();
        let b = parse_recommend(
            CaseStudy::ArrayDataflow,
            br#"{ "mac_budget": 4096, "k": 16, "n": 32, "m": 64 }"#,
        )
        .unwrap();
        assert_eq!(a.cache_key, b.cache_key);
        let c = parse_recommend(
            CaseStudy::ArrayDataflow,
            br#"{"m":64,"n":32,"k":16,"mac_budget":4095}"#,
        )
        .unwrap();
        assert_ne!(a.cache_key, c.cache_key);
    }

    #[test]
    fn topk_changes_the_cache_key() {
        let a =
            parse_recommend(CaseStudy::ArrayDataflow, br#"{"m":8,"n":8,"k":8}"#).unwrap();
        let b = parse_recommend(
            CaseStudy::ArrayDataflow,
            br#"{"m":8,"n":8,"k":8,"topk":3}"#,
        )
        .unwrap();
        assert_ne!(a.cache_key, b.cache_key);
        assert_eq!(b.topk, 3);
    }

    #[test]
    fn validation_failures_are_400s() {
        // Missing field.
        let e = parse_recommend(CaseStudy::ArrayDataflow, br#"{"m":8,"n":8}"#).unwrap_err();
        assert_eq!(e.status, 400);
        // Unknown field (typo protection, like the CLI's expect_only).
        let e = parse_recommend(
            CaseStudy::ArrayDataflow,
            br#"{"m":8,"n":8,"k":8,"budget":1}"#,
        )
        .unwrap_err();
        assert_eq!(e.status, 400);
        assert!(e.body.contains("unknown_field"));
        // Zero dimension caught by the domain type.
        let e = parse_recommend(CaseStudy::ArrayDataflow, br#"{"m":0,"n":8,"k":8}"#)
            .unwrap_err();
        assert_eq!(e.status, 400);
        // Malformed JSON.
        let e = parse_recommend(CaseStudy::ArrayDataflow, b"{oops").unwrap_err();
        assert_eq!(e.status, 400);
        // Over-cap topk.
        let e = parse_recommend(
            CaseStudy::ArrayDataflow,
            br#"{"m":8,"n":8,"k":8,"topk":65}"#,
        )
        .unwrap_err();
        assert_eq!(e.status, 400);
    }

    #[test]
    fn buffers_body_mirrors_the_cli() {
        let p = parse_recommend(
            CaseStudy::BufferSizing,
            br#"{"m":128,"n":128,"k":512,"rows":32,"cols":32,"dataflow":"ws"}"#,
        )
        .unwrap();
        match p.query {
            RecQuery::Buffers { query } => {
                assert_eq!(query.bandwidth, 16, "CLI default");
                assert_eq!(query.limit_kb, 1500, "CLI default");
                assert_eq!(query.dataflow, Dataflow::Ws);
            }
            other => panic!("wrong query: {other:?}"),
        }
    }

    #[test]
    fn schedule_body_needs_exactly_four_workloads() {
        let e = parse_recommend(
            CaseStudy::MultiArrayScheduling,
            br#"{"workloads":[{"m":8,"n":8,"k":8}]}"#,
        )
        .unwrap_err();
        assert_eq!(e.status, 400);
        let p = parse_recommend(
            CaseStudy::MultiArrayScheduling,
            br#"{"workloads":[{"m":8,"n":8,"k":8},{"m":16,"n":16,"k":16},{"m":32,"n":32,"k":32},{"m":64,"n":64,"k":64}]}"#,
        )
        .unwrap();
        match p.query {
            RecQuery::Schedule { workloads } => assert_eq!(workloads.len(), 4),
            other => panic!("wrong query: {other:?}"),
        }
    }
}
