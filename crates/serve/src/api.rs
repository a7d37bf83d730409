//! Request validation: JSON body → [`JobSpec`], with every failure
//! mapped to a 4xx JSON error *before* the job touches the admission
//! queue — invalid requests never occupy queue slots.
//!
//! The unknown-model error is [`BenchmarkModel::parse`]'s, verbatim:
//! the same "valid: vgg19, resnet200, ..." list the CLI prints, so a
//! typo gets identical help over HTTP and on the command line.

use heterog_cluster::{paper_testbed_8gpu, ClusterSpec};
use heterog_elastic::RepairPolicy;
use heterog_graph::{BenchmarkModel, ModelSpec, MAX_BATCH, MAX_LAYERS};
use heterog_telemetry::json::{self, Value};

use crate::jobs::{JobKind, JobSpec};

/// A rejected request: HTTP status plus the error message for the
/// `{"error": ...}` body.
#[derive(Debug)]
pub struct ApiError {
    /// 4xx status code.
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

impl ApiError {
    fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }
}

/// The validated request plus per-request (non-coalescable) options.
#[derive(Debug)]
pub struct ParsedRequest {
    /// Tenant the job is charged to.
    pub tenant: String,
    /// The job content.
    pub spec: JobSpec,
    /// Block the HTTP response until the job completes.
    pub wait: bool,
}

/// Member `key` of `v` read by `read`: `None` when absent, a named 400
/// saying it must be `what` when present with another type.
fn optional<'v, T>(
    v: &'v Value,
    key: &str,
    read: fn(&'v Value) -> Option<T>,
    what: &str,
) -> Result<Option<T>, ApiError> {
    v.get(key)
        .map(|x| read(x).ok_or_else(|| ApiError::bad_request(format!("\"{key}\" must be {what}"))))
        .transpose()
}

/// Parses and validates a `POST /v1/<kind>` body.
///
/// `tenants`: optional allowlist; a tenant outside it is rejected with
/// `403` listing the valid tenants (mirroring the unknown-model error's
/// shape).
pub fn parse_request(
    kind: &str,
    body: &[u8],
    wait_query: bool,
    tenants: Option<&[String]>,
) -> Result<ParsedRequest, ApiError> {
    let v = if body.is_empty() {
        Value::Object(Vec::new())
    } else {
        json::parse_bytes(body)
            .map_err(|e| ApiError::bad_request(format!("body is not valid JSON: {e}")))?
    };

    let tenant = v
        .get("tenant")
        .and_then(Value::as_str)
        .map(str::to_string)
        .filter(|t| !t.is_empty())
        .ok_or_else(|| ApiError::bad_request("\"tenant\" is required"))?;
    if let Some(allowed) = tenants {
        if !allowed.iter().any(|t| t == &tenant) {
            return Err(ApiError {
                status: 403,
                message: format!("unknown tenant {tenant:?} (valid: {})", allowed.join(", ")),
            });
        }
    }

    let model_name = v
        .get("model")
        .and_then(Value::as_str)
        .ok_or_else(|| ApiError::bad_request("\"model\" is required"))?;
    let model = BenchmarkModel::parse(model_name).map_err(ApiError::bad_request)?;
    let batch = match v.get("batch") {
        Some(b) => b
            .as_u64()
            .filter(|&b| (1..=MAX_BATCH).contains(&b))
            .ok_or_else(|| {
                ApiError::bad_request(format!(
                    "\"batch\" must be an integer from 1 to {MAX_BATCH}"
                ))
            })?,
        None => model.default_batch_8gpu(),
    };
    let layers = match v.get("layers") {
        Some(l) => l
            .as_u64()
            .filter(|&l| l <= u64::from(MAX_LAYERS))
            .map(|l| l as u32)
            .ok_or_else(|| {
                ApiError::bad_request(format!(
                    "\"layers\" must be an integer from 0 to {MAX_LAYERS}"
                ))
            })?,
        None => model.default_layers(),
    };
    let model = ModelSpec::with_layers(model, batch, layers);

    let planner = optional(&v, "planner", Value::as_str, "a string")?
        .unwrap_or("heterog")
        .to_string();
    if planner != "heterog" && !heterog::BASELINE_PLANNER_NAMES.contains(&planner.as_str()) {
        return Err(ApiError::bad_request(format!(
            "unknown planner {planner:?} (valid: heterog, {})",
            heterog::BASELINE_PLANNER_NAMES.join(", ")
        )));
    }

    let cluster = match v.get("cluster") {
        Some(c) => ClusterSpec::from_value(c)
            .and_then(|s| s.build())
            .map_err(|e| ApiError::bad_request(format!("cluster spec: {e}")))?,
        None => paper_testbed_8gpu(),
    };

    let flag = |key| optional(&v, key, Value::as_bool, "true or false");
    let count = |key| optional(&v, key, Value::as_u64, "a non-negative integer");
    let fifo = flag("fifo")?.unwrap_or(false);
    let wait = flag("wait")?.unwrap_or(false) || wait_query;

    let kind = match kind {
        "plan" => JobKind::Plan,
        "explain" => JobKind::Explain {
            top_k: count("top_k")?.unwrap_or(3) as usize,
            whatif: flag("whatif")?.unwrap_or(false),
        },
        "elastic" => {
            let policy = optional(&v, "policy", Value::as_str, "a string")?
                .unwrap_or("migrate-replicas")
                .to_string();
            RepairPolicy::parse(&policy).map_err(ApiError::bad_request)?;
            JobKind::Elastic {
                iterations: count("iterations")?.unwrap_or(20).clamp(1, 10_000),
                faults: count("faults")?.unwrap_or(2).min(64) as usize,
                seed: count("seed")?.unwrap_or(0),
                policy,
            }
        }
        other => {
            return Err(ApiError {
                status: 404,
                message: format!("unknown request kind {other:?}"),
            })
        }
    };

    Ok(ParsedRequest {
        tenant,
        spec: JobSpec {
            kind,
            model,
            cluster,
            planner,
            fifo,
        },
        wait,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_plan_request_fills_defaults() {
        let r = parse_request(
            "plan",
            br#"{"tenant":"alice","model":"mobilenet"}"#,
            false,
            None,
        )
        .unwrap();
        assert_eq!(r.tenant, "alice");
        assert_eq!(r.spec.planner, "heterog");
        assert_eq!(r.spec.model.batch_size, 192);
        assert!(!r.wait);
        assert_eq!(r.spec.cluster.num_devices(), 8);
    }

    #[test]
    fn unknown_model_lists_valid_names() {
        let err = parse_request(
            "plan",
            br#"{"tenant":"alice","model":"alexnet"}"#,
            false,
            None,
        )
        .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("unknown model \"alexnet\""));
        assert!(err.message.contains("mobilenet"), "{}", err.message);
        assert!(err.message.contains("xlnet"), "{}", err.message);
    }

    #[test]
    fn unknown_tenant_is_403_listing_valid_tenants() {
        let allow = vec!["alice".to_string(), "bob".to_string()];
        let err = parse_request(
            "plan",
            br#"{"tenant":"mallory","model":"mobilenet"}"#,
            false,
            Some(&allow),
        )
        .unwrap_err();
        assert_eq!(err.status, 403);
        assert!(err.message.contains("unknown tenant \"mallory\""));
        assert!(err.message.contains("alice, bob"), "{}", err.message);
    }

    #[test]
    fn unknown_planner_is_rejected() {
        let err = parse_request(
            "plan",
            br#"{"tenant":"a","model":"vgg19","planner":"oracle"}"#,
            false,
            None,
        )
        .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("unknown planner \"oracle\""));
        assert!(err.message.contains("CP-AR"), "{}", err.message);
    }

    #[test]
    fn layers_above_the_bound_are_rejected() {
        let body = |layers: u64| {
            format!(r#"{{"tenant":"a","model":"bert-large","layers":{layers}}}"#).into_bytes()
        };
        let ok = parse_request("plan", &body(u64::from(MAX_LAYERS)), false, None).unwrap();
        assert_eq!(ok.spec.model.layers, MAX_LAYERS);
        for bad in [u64::from(MAX_LAYERS) + 1, u64::from(u32::MAX), u64::MAX] {
            let err = parse_request("plan", &body(bad), false, None).unwrap_err();
            assert_eq!(err.status, 400);
            assert!(err.message.contains("\"layers\""), "{}", err.message);
            assert!(
                err.message.contains(&MAX_LAYERS.to_string()),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn batch_above_the_bound_is_rejected() {
        let body = |batch: u64| {
            format!(r#"{{"tenant":"a","model":"mobilenet","batch":{batch}}}"#).into_bytes()
        };
        let ok = parse_request("plan", &body(MAX_BATCH), false, None).unwrap();
        assert_eq!(ok.spec.model.batch_size, MAX_BATCH);
        for bad in [0, MAX_BATCH + 1, u64::MAX] {
            let err = parse_request("plan", &body(bad), false, None).unwrap_err();
            assert_eq!(err.status, 400);
            assert!(err.message.contains("\"batch\""), "{}", err.message);
            assert!(
                err.message.contains(&MAX_BATCH.to_string()),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn cluster_member_reads_like_a_spec_file() {
        let spec = ClusterSpec::paper_8gpu();
        let body = format!(
            r#"{{"tenant":"a","model":"vgg19","cluster":{}}}"#,
            spec.to_json()
        );
        let r = parse_request("plan", body.as_bytes(), false, None).unwrap();
        assert_eq!(
            r.spec.cluster.fingerprint(),
            spec.build().unwrap().fingerprint()
        );
    }

    #[test]
    fn malformed_or_mistyped_bodies_are_400s() {
        let deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
        for body in [
            "{",
            "[1, 2",
            r#"{"tenant":"a"} {}"#,
            "{\"tenant\":\"\u{1}\"}",
            r#"{"tenant":"\ud800"}"#,
            deep.as_str(),
            r#"{"tenant":"a","model":"vgg19","batch":-1}"#,
            r#"{"tenant":"a","model":"vgg19","batch":1.5}"#,
            r#"{"tenant":"a","model":"vgg19","cluster":[]}"#,
            r#"{"tenant":"a","model":"vgg19","cluster":{"servers":[{"name":1}]}}"#,
        ] {
            let err = parse_request("plan", body.as_bytes(), false, None).unwrap_err();
            assert_eq!(err.status, 400, "{body}: {}", err.message);
        }
        let err = parse_request("plan", b"{\"tenant\":\"\xff\"}", false, None).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn mistyped_optional_fields_are_named_400s() {
        for (kind, field, value) in [
            ("plan", "fifo", r#""yes""#),
            ("plan", "wait", "1"),
            ("plan", "planner", "5"),
            ("explain", "top_k", r#""5""#),
            ("explain", "whatif", "null"),
            ("elastic", "policy", "[]"),
            ("elastic", "iterations", "-3"),
            ("elastic", "faults", "1.5"),
            ("elastic", "seed", "{}"),
        ] {
            let body = format!(r#"{{"tenant":"a","model":"mobilenet","{field}":{value}}}"#);
            let err = parse_request(kind, body.as_bytes(), false, None).unwrap_err();
            assert_eq!(err.status, 400, "{body}: {}", err.message);
            assert!(
                err.message.starts_with(&format!("\"{field}\" must be")),
                "{body}: {}",
                err.message
            );
        }
    }

    #[test]
    fn missing_tenant_is_rejected() {
        let err = parse_request("plan", br#"{"model":"vgg19"}"#, false, None).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("tenant"));
    }

    #[test]
    fn elastic_request_parses_options() {
        let r = parse_request(
            "elastic",
            br#"{"tenant":"a","model":"mobilenet","iterations":10,"faults":1,"seed":7,"policy":"replan","wait":true}"#,
            false,
            None,
        )
        .unwrap();
        assert!(r.wait);
        match r.spec.kind {
            JobKind::Elastic {
                iterations,
                faults,
                seed,
                ref policy,
            } => {
                assert_eq!((iterations, faults, seed), (10, 1, 7));
                assert_eq!(policy, "replan");
            }
            ref k => panic!("wrong kind {k:?}"),
        }
    }
}
