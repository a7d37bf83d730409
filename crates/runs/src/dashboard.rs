//! The run-history dashboard: one self-contained static HTML page —
//! hand-rolled markup and inline SVG, no server, no script
//! dependencies — summarizing every run in a store.
//!
//! Sections:
//!
//! * **Per-model charts** — best makespan over run history, one SVG
//!   polyline per planner, so a slow drift (or a sudden regression)
//!   is visible at a glance.
//! * **Planner win table** — per model, which planner holds the best
//!   archived makespan.
//! * **Regression strip** — for every `(model, planner)` series with
//!   at least two digest-bearing runs, the [`heterog_explain::diff`]
//!   verdict of the latest run against its predecessor.

use std::collections::BTreeMap;

use heterog_explain::html_esc;

use crate::analytics::{timelines, TimelinePoint};
use crate::store::StoredRun;

const CHART_W: f64 = 560.0;
const CHART_H: f64 = 180.0;
const PAD: f64 = 34.0;
const PALETTE: [&str; 8] = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#17becf", "#8c564b", "#7f7f7f",
];

fn fmt_s(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "-".into()
    }
}

/// One model's chart: best makespan per run, a polyline per planner.
fn model_chart(model: &str, series: &[(&str, &[TimelinePoint])]) -> String {
    let finite: Vec<f64> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter())
        .map(|p| p.best_makespan)
        .filter(|v| v.is_finite())
        .collect();
    if finite.is_empty() {
        return String::new();
    }
    let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(hi.abs() * 1e-3).max(1e-12);
    let y = |v: f64| PAD + (CHART_H - 2.0 * PAD) * (1.0 - (v - lo) / span);

    let mut svg = format!(
        "<svg viewBox=\"0 0 {CHART_W} {CHART_H}\" width=\"{CHART_W}\" height=\"{CHART_H}\" \
         role=\"img\" aria-label=\"best makespan over runs for {}\">\n",
        html_esc(model)
    );
    svg.push_str(&format!(
        "<text x=\"4\" y=\"{:.1}\" class=\"axis\">{}s</text>\n<text x=\"4\" y=\"{:.1}\" class=\"axis\">{}s</text>\n",
        y(hi) + 4.0,
        fmt_s(hi),
        y(lo) + 4.0,
        fmt_s(lo),
    ));
    for (i, (planner, pts)) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let finite_pts: Vec<&TimelinePoint> =
            pts.iter().filter(|p| p.best_makespan.is_finite()).collect();
        if finite_pts.is_empty() {
            continue;
        }
        let step = (CHART_W - 2.0 * PAD) / finite_pts.len().max(2).saturating_sub(1) as f64;
        let coords: Vec<String> = finite_pts
            .iter()
            .enumerate()
            .map(|(j, p)| format!("{:.1},{:.1}", PAD + j as f64 * step, y(p.best_makespan)))
            .collect();
        if coords.len() == 1 {
            svg.push_str(&format!(
                "<circle cx=\"{}\" cy=\"{}\" r=\"3\" fill=\"{color}\"/>\n",
                PAD,
                y(finite_pts[0].best_makespan)
            ));
        } else {
            svg.push_str(&format!(
                "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"2\" points=\"{}\"/>\n",
                coords.join(" ")
            ));
        }
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" fill=\"{color}\" class=\"legend\">{}</text>\n",
            CHART_W - PAD + 4.0,
            y(finite_pts.last().unwrap().best_makespan),
            html_esc(planner)
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

/// Renders the full dashboard for `runs` (in any order).
pub fn render_dashboard(runs: &[StoredRun]) -> String {
    let grouped = timelines(runs);
    // Re-key: model -> [(planner, points)].
    let mut by_model: BTreeMap<&str, Vec<(&str, &[TimelinePoint])>> = BTreeMap::new();
    for ((model, planner), points) in &grouped {
        by_model
            .entry(model.as_str())
            .or_default()
            .push((planner.as_str(), points.as_slice()));
    }
    let digests: BTreeMap<&str, &heterog_explain::ReportDigest> = runs
        .iter()
        .filter_map(|r| r.digest.as_ref().map(|d| (r.id.as_str(), d)))
        .collect();

    let mut html = String::with_capacity(16 * 1024);
    html.push_str(
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>heterog run history</title>\n<style>\n\
         body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:72em;color:#1a1a1a}\n\
         h1,h2{font-weight:600} table{border-collapse:collapse;margin:1em 0}\n\
         td,th{border:1px solid #ccc;padding:.3em .7em;text-align:left}\n\
         th{background:#f3f3f3} .axis,.legend{font:11px system-ui,sans-serif;fill:#555}\n\
         .ok{background:#e6f4e6} .bad{background:#fae3e3} code{font-size:12px}\n\
         svg{border:1px solid #e3e3e3;background:#fcfcfc;margin:.4em 0}\n\
         </style></head><body>\n<h1>heterog run history</h1>\n",
    );
    html.push_str(&format!(
        "<p>{} archived run(s), {} model(s).</p>\n",
        runs.len(),
        by_model.len()
    ));

    html.push_str("<h2>Best makespan over runs</h2>\n");
    for (model, series) in &by_model {
        html.push_str(&format!("<h3>{}</h3>\n", html_esc(model)));
        html.push_str(&model_chart(model, series));
    }

    html.push_str("<h2>Planner wins</h2>\n<table>\n<tr><th>model</th><th>best planner</th><th>best makespan (s)</th><th>planners</th><th>runs</th></tr>\n");
    for (model, series) in &by_model {
        let mut best: Option<(&str, f64)> = None;
        let mut n_runs = 0usize;
        for (planner, pts) in series {
            n_runs += pts.len();
            for p in pts.iter() {
                if p.best_makespan.is_finite() && best.is_none_or(|(_, b)| p.best_makespan < b) {
                    best = Some((planner, p.best_makespan));
                }
            }
        }
        let (winner, makespan) = best.unwrap_or(("-", f64::NAN));
        html.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            html_esc(model),
            html_esc(winner),
            fmt_s(makespan),
            series.len(),
            n_runs
        ));
    }
    html.push_str("</table>\n");

    html.push_str(
        "<h2>Regression strip</h2>\n<p>Latest digest-bearing run vs its predecessor, per \
         (model, planner) series.</p>\n<table>\n<tr><th>model</th><th>planner</th>\
         <th>previous</th><th>latest</th><th>verdict</th></tr>\n",
    );
    let mut any_strip = false;
    for ((model, planner), points) in &grouped {
        let with_digest: Vec<&TimelinePoint> = points
            .iter()
            .filter(|p| digests.contains_key(p.id.as_str()))
            .collect();
        if with_digest.len() < 2 {
            continue;
        }
        any_strip = true;
        let prev = with_digest[with_digest.len() - 2];
        let last = with_digest[with_digest.len() - 1];
        let d = heterog_explain::diff(digests[prev.id.as_str()], digests[last.id.as_str()]);
        let (class, verdict) = if d.is_clean() {
            ("ok", format!("clean ({} improved)", d.improvements.len()))
        } else {
            ("bad", format!("{} regression(s)", d.regressions.len()))
        };
        html.push_str(&format!(
            "<tr class=\"{class}\"><td>{}</td><td>{}</td><td><code>{}</code></td>\
             <td><code>{}</code></td><td>{verdict}</td></tr>\n",
            html_esc(model),
            html_esc(planner),
            html_esc(&prev.id),
            html_esc(&last.id),
        ));
    }
    if !any_strip {
        html.push_str(
            "<tr><td colspan=\"5\">fewer than two digest-bearing runs per series</td></tr>\n",
        );
    }
    html.push_str("</table>\n</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_events::parse_jsonl;

    fn run(id: &str, model: &str, planner: &str, started: u64, makespan: f64) -> StoredRun {
        let manifest = heterog_events::RunManifest {
            command: "plan".into(),
            model: model.into(),
            planner: planner.into(),
            started_unix: started,
            ..Default::default()
        };
        let text = format!(
            "{}\n{{\"seq\":0,\"ts\":0.5,\"type\":\"run_finished\",\"outcome\":\"ok\",\"makespan\":{makespan},\"oom\":false}}\n",
            manifest.to_json()
        );
        StoredRun {
            id: id.into(),
            dir: std::path::PathBuf::new(),
            log: parse_jsonl(&text),
            digest: Some(heterog_explain::ReportDigest {
                model: model.into(),
                makespan,
                ..Default::default()
            }),
            evaluation: None,
            has_flight: false,
        }
    }

    #[test]
    fn dashboard_charts_tables_and_regressions() {
        let runs = vec![
            run("r1-aa", "mobilenet_v2", "heterog", 100, 0.10),
            run("r2-bb", "mobilenet_v2", "heterog", 200, 0.15),
            run("r3-cc", "mobilenet_v2", "CP-AR", 150, 0.20),
        ];
        let html = render_dashboard(&runs);
        assert!(html.contains("<svg"));
        assert!(html.contains("mobilenet_v2"));
        assert!(html.contains("CP-AR"));
        // heterog series regressed 0.10 -> 0.15.
        assert!(html.contains("1 regression(s)"), "{html}");
        // The win table credits heterog's 0.10.
        assert!(html.contains("<td>0.1000</td>"));
    }

    #[test]
    fn empty_store_renders_a_page() {
        let html = render_dashboard(&[]);
        assert!(html.contains("0 archived run(s)"));
        assert!(html.contains("fewer than two digest-bearing runs"));
    }
}
