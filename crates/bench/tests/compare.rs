//! Verdicts of the bench-regression gate (`heterog_bench::compare`) on
//! artifacts built here, and of the `bench_compare` binary on the
//! committed `BENCH_*.json` files.

use std::process::Command;

use heterog_bench::compare::{compare, Better, Scope, GATES};
use heterog_telemetry::json::Value;
use heterog_telemetry::json_object;

/// One elastic-recovery model entry: per-policy repair evaluations and
/// whether migration beat the full replan.
fn model(name: &str, repair_evals: [f64; 3], migrate_below_replan: bool) -> Value {
    json_object! {
        "model" => name,
        "repair_evals" => &repair_evals[..],
        "migrate_below_replan" => migrate_below_replan,
    }
}

/// An artifact carrying every gated field, each multiplied by
/// `scale(field)`: strategy-space, elastic and serve fields at once (the
/// gates apply to whichever fields an artifact has).
fn artifact(scale: impl Fn(&str) -> f64) -> Value {
    let evals = scale("repair_evals");
    json_object! {
        "wins" => 3.0 * scale("wins"),
        "mean_improvement_pct" => 3.047 * scale("mean_improvement_pct"),
        "plans_per_sec" => 191.06 * scale("plans_per_sec"),
        "cross_tenant_hit_rate" => 0.6911 * scale("cross_tenant_hit_rate"),
        "models" => Value::Array(vec![
            model("MobileNet_v2", [5.0 * evals, 0.0, 0.0], true),
            model("VGG-19", [4.0 * evals, 1.0 * evals, 0.0], true),
        ]),
    }
}

fn baseline() -> Value {
    artifact(|_| 1.0)
}

/// `baseline()` with `field` moved by `by` (a fraction) the wrong way.
fn regressed(field: &str, better: Better, by: f64) -> Value {
    let factor = match better {
        Better::Higher => 1.0 - by,
        Better::Lower => 1.0 + by,
    };
    artifact(|f| if f == field { factor } else { 1.0 })
}

fn passes(base: &Value, fresh: &Value) -> bool {
    compare(base, fresh).1
}

fn without(doc: &Value, field: &str) -> Value {
    let Value::Object(members) = doc else {
        unreachable!("artifacts are objects")
    };
    Value::Object(
        members
            .iter()
            .filter(|(k, _)| k != field)
            .cloned()
            .collect(),
    )
}

/// A three-model elastic-recovery artifact shaped like the committed one.
fn elastic_full() -> Value {
    json_object! {
        "smoke" => false,
        "migrate_faster_models" => 3u64,
        "models" => Value::Array(vec![
            model("MobileNet_v2", [5.0, 0.0, 0.0], true),
            model("VGG-19", [5.0, 0.0, 0.0], true),
            model("ResNet200", [7.0, 0.0, 0.0], true),
        ]),
    }
}

#[test]
fn identical_artifacts_pass() {
    assert!(passes(&baseline(), &baseline()));
}

#[test]
fn a_thirty_percent_regression_fails_and_a_twenty_percent_one_passes() {
    // Every numeric gate; `migrate_below_replan` is a bit (next test).
    for (field, better, _) in GATES.iter().filter(|g| g.0 != "migrate_below_replan") {
        let verdicts = (
            passes(&baseline(), &regressed(field, *better, 0.3)),
            passes(&baseline(), &regressed(field, *better, 0.2)),
        );
        assert_eq!(verdicts, (false, true), "{field}");
    }
}

#[test]
fn migrate_below_replan_flipping_to_false_fails() {
    let flipped = json_object! {
        "models" => Value::Array(vec![model("VGG-19", [5.0, 0.0, 0.0], false)]),
    };
    assert!(!passes(&elastic_full(), &flipped));
}

#[test]
fn a_top_level_gated_field_missing_from_the_fresh_artifact_fails() {
    for (field, _, _) in GATES.iter().filter(|g| g.2 == Scope::Top) {
        assert!(
            !passes(&baseline(), &without(&baseline(), field)),
            "{field}"
        );
    }
}

#[test]
fn a_field_missing_from_the_baseline_is_new_and_skipped() {
    let (lines, passed) = compare(&without(&baseline(), "plans_per_sec"), &baseline());
    assert!(
        passed
            && lines
                .iter()
                .any(|l| l.contains("plans_per_sec") && l.contains("(new, skipped)"))
    );
}

#[test]
fn a_one_model_smoke_artifact_passes_against_the_full_baseline() {
    let smoke = json_object! {
        "smoke" => true,
        "migrate_faster_models" => 1u64,
        "models" => Value::Array(vec![model("MobileNet_v2", [5.0, 0.0, 0.0], true)]),
    };
    assert!(passes(&elastic_full(), &smoke));
}

#[test]
fn the_binary_passes_each_committed_artifact_against_itself() {
    for name in ["strategy_space", "elastic_recovery", "serve_throughput"] {
        let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
            .args([&path, &path])
            .output()
            .expect("run bench_compare");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
