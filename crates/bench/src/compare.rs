//! The bench-regression gate behind `bench_compare`: fail when a gated
//! field of a fresh `BENCH_*.json` moved more than [`TOLERANCE`] the
//! wrong way from the committed baseline. A gate applies when either
//! artifact has its field; a field only the baseline has fails as
//! `MISSING`, one (or a model) only the fresh artifact has is skipped,
//! so a smoke artifact with fewer models stays diffable.

use heterog_telemetry::json::{self, Value};

/// Largest relative move in a gate's worse direction that passes.
pub const TOLERANCE: f64 = 0.25;

/// The direction a gated number should move: a drop of a `Higher`
/// number and a rise of a `Lower` one are regressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Where a gated field sits: in the document (`Top`), or in each entry
/// of its `models` array (`PerModel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Top,
    PerModel,
}

/// Every gate: the strategy space's wins and mean improvement, elastic
/// recovery's per-model repair cost and migrate-beats-replan bit, and
/// serve's throughput and cross-tenant memo reuse.
pub const GATES: [(&str, Better, Scope); 6] = [
    ("wins", Better::Higher, Scope::Top),
    ("mean_improvement_pct", Better::Higher, Scope::Top),
    ("repair_evals", Better::Lower, Scope::PerModel),
    ("migrate_below_replan", Better::Higher, Scope::PerModel),
    ("plans_per_sec", Better::Higher, Scope::Top),
    ("cross_tenant_hit_rate", Better::Higher, Scope::Top),
];

/// How far `fresh` moved from `base` in `better`'s worse direction,
/// relative to `|base|`; any worsening of a zero base counts in full.
fn regression(better: Better, base: f64, fresh: f64) -> f64 {
    let worse = match better {
        Better::Higher => base - fresh,
        Better::Lower => fresh - base,
    };
    if base == 0.0 {
        f64::from(u8::from(worse > 0.0))
    } else {
        worse / base.abs()
    }
}

/// Member `field` as a number: booleans count 1/0, arrays their sum.
fn number(doc: &Value, field: &str) -> Option<f64> {
    match doc.get(field)? {
        Value::Bool(b) => Some(f64::from(u8::from(*b))),
        Value::Array(items) => items.iter().map(Value::as_f64).sum(),
        v => v.as_f64(),
    }
}

fn models(doc: &Value) -> &[Value] {
    doc["models"].as_array().unwrap_or_default()
}

type Pair = (String, Option<f64>, Option<f64>);

/// The (label, baseline, fresh) numbers one gate compares.
fn pairs(field: &str, scope: Scope, base: &Value, fresh: &Value) -> Vec<Pair> {
    if scope == Scope::Top {
        return vec![(field.into(), number(base, field), number(fresh, field))];
    }
    models(fresh)
        .iter()
        .map(|m| {
            let b = models(base).iter().find(|b| b["model"] == m["model"]);
            let label = format!("{} {field}", m["model"].as_str().unwrap_or("?"));
            (label, b.and_then(|b| number(b, field)), number(m, field))
        })
        .collect()
}

/// Runs every gate on `base` against `fresh`: the report lines, and
/// whether every gate passed.
pub fn compare(base: &Value, fresh: &Value) -> (Vec<String>, bool) {
    let row = |label: &str, b: &str, f: &str, moved: &str, verdict: &str| {
        format!("{label:<36}{b:>14}{f:>14}{moved:>10}  {verdict}")
    };
    let mut lines = vec![row("field", "baseline", "fresh", "worse by", "verdict")];
    let mut passed = true;
    let num = |x: Option<f64>| x.map_or("-".into(), |x| format!("{x:.3}"));
    for (field, better, scope) in GATES {
        for (label, b, f) in pairs(field, scope, base, fresh) {
            let (moved, verdict) = match (b, f) {
                (None, None) => continue,
                (Some(_), None) => (String::new(), "MISSING (fail)"),
                (None, Some(_)) => (String::new(), "(new, skipped)"),
                (Some(b), Some(f)) => {
                    let moved = regression(better, b, f);
                    let verdict = if moved > TOLERANCE { "REGRESSED" } else { "ok" };
                    (format!("{:.1}%", moved * 100.0), verdict)
                }
            };
            passed &= matches!(verdict, "ok" | "(new, skipped)");
            lines.push(row(&label, &num(b), &num(f), &moved, verdict));
        }
    }
    (lines, passed)
}

/// Diffs the artifacts at two paths and prints the report; `Ok(false)`
/// when a gate failed.
pub fn run(base_path: &str, fresh_path: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
    };
    let (base, fresh) = (load(base_path)?, load(fresh_path)?);
    println!("bench compare: {base_path} (baseline) vs {fresh_path} (fresh)");
    let (lines, passed) = compare(&base, &fresh);
    lines.iter().for_each(|line| println!("{line}"));
    let pct = TOLERANCE * 100.0;
    if passed {
        println!("PASS: no gated field regressed more than {pct:.0}%");
    } else {
        eprintln!("FAIL: gated fields regressed more than {pct:.0}% vs committed baseline");
    }
    Ok(passed)
}
