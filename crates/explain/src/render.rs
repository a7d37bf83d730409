//! Report renderers: terminal table, JSON artifact, and a
//! self-contained HTML page embedding the Chrome-trace timeline.
//!
//! The JSON artifact is a [`Value`] written by `heterog_telemetry::json`
//! and reads back through [`crate::diff::digest_from_json`]; the text
//! and HTML views are built with plain string formatting.

use std::fmt::Write as _;

use heterog_telemetry::json::{ToJson, Value};
use heterog_telemetry::json_object;

use crate::{ExplainReport, PathEdge};

fn pct(fraction: f64) -> String {
    format!("{:.1}%", 100.0 * fraction)
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Renders the report as an aligned terminal block (the `heterog-cli
/// explain` output).
pub fn render_text(rep: &ExplainReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "explain: {} (batch {}) on {} GPUs / {} links",
        rep.model, rep.batch_size, rep.num_gpus, rep.num_links
    );
    let _ = writeln!(
        out,
        "makespan: {:.4} s   overlap ratio: {:.2}   mean GPU utilization: {}{}",
        rep.makespan,
        rep.overlap_ratio,
        pct(rep.mean_gpu_utilization),
        if rep.oom { "   (OOM!)" } else { "" }
    );

    let _ = writeln!(
        out,
        "\nsimulated critical path ({} tasks, idle {:.4} s):",
        rep.critical_path.len(),
        rep.critical_path.total_idle
    );
    let _ = writeln!(out, "  {:<12}{:>12}{:>9}", "bucket", "seconds", "share");
    for (label, seconds) in rep.attribution.buckets() {
        let share = if rep.makespan > 0.0 {
            seconds / rep.makespan
        } else {
            0.0
        };
        let _ = writeln!(out, "  {label:<12}{seconds:>12.4}{:>9}", pct(share));
    }

    // The heaviest segments dominate the story; print them with their
    // position on the path.
    let mut heavy: Vec<usize> = (0..rep.critical_path.len()).collect();
    heavy.sort_by(|&a, &b| {
        rep.critical_path.segments[b]
            .duration
            .total_cmp(&rep.critical_path.segments[a].duration)
    });
    let shown = heavy.len().min(12);
    let _ = writeln!(
        out,
        "\n  top {shown} of {} segments by duration:",
        rep.critical_path.len()
    );
    let _ = writeln!(
        out,
        "  {:>5} {:<28}{:<6}{:<12}{:>10}{:>10}{:>10}  via",
        "#", "task", "proc", "kind", "start", "dur", "slack"
    );
    heavy.truncate(shown);
    heavy.sort_unstable(); // back to time order for readability
    for i in heavy {
        let s = &rep.critical_path.segments[i];
        let mut name = s.name.clone();
        if name.len() > 27 {
            name.truncate(26);
            name.push('…');
        }
        let via = match s.edge {
            PathEdge::Start => "start",
            PathEdge::Dep => "dep",
            PathEdge::ProcOrder => "order",
        };
        let _ = writeln!(
            out,
            "  {i:>5} {name:<28}{:<6}{:<12}{:>10.4}{:>10.4}{:>10.4}  {via}",
            s.proc.to_string(),
            s.kind.label(),
            s.start,
            s.duration,
            s.slack,
        );
    }

    let _ = writeln!(out, "\ndevices:");
    let _ = writeln!(
        out,
        "  {:<4}{:<14}{:>4}{:>10}{:>8}{:>12}{:>12}{:>6}",
        "id", "model", "srv", "busy", "util", "critical", "peak GiB", "OOM"
    );
    for d in &rep.devices {
        let _ = writeln!(
            out,
            "  G{:<3}{:<14}{:>4}{:>10.4}{:>8}{:>12.4}{:>12.2}{:>6}",
            d.id,
            d.model,
            d.server,
            d.busy,
            pct(d.utilization),
            d.critical_s,
            gib(d.peak_mem_bytes),
            if d.oom { "yes" } else { "no" }
        );
    }

    let _ = writeln!(out, "\nlink classes:");
    let _ = writeln!(
        out,
        "  {:<8}{:>6}{:>12}{:>12}",
        "kind", "count", "busy", "critical"
    );
    for l in &rep.stragglers.link_classes {
        let _ = writeln!(
            out,
            "  {:<8}{:>6}{:>12.4}{:>12.4}",
            l.kind, l.count, l.busy, l.critical_s
        );
    }

    let _ = writeln!(out, "\nstragglers:");
    match (&rep.stragglers.gating_device, &rep.stragglers.gating_model) {
        (Some(dev), Some(model)) => {
            let crit = rep
                .devices
                .iter()
                .find(|d| d.id == *dev)
                .map_or(0.0, |d| d.critical_s);
            let _ = writeln!(
                out,
                "  gating device: G{dev} ({model}) — {crit:.4} s of critical path"
            );
        }
        _ => {
            let _ = writeln!(out, "  gating device: none (no GPU time on critical path)");
        }
    }
    if let Some(kind) = &rep.stragglers.gating_link_class {
        let _ = writeln!(out, "  gating link class: {kind}");
    }
    let _ = writeln!(
        out,
        "  replica imbalance: {} — {}",
        pct(rep.stragglers.replica_imbalance),
        rep.stragglers.imbalance_note
    );
    let m = &rep.stragglers.strategy_mix;
    let _ = writeln!(
        out,
        "  strategy mix: {} MP, {} EV-PS, {} EV-AR, {} CP-PS, {} CP-AR, {} other DP, {} shard",
        m.mp, m.ev_ps, m.ev_ar, m.cp_ps, m.cp_ar, m.other_dp, m.shard
    );
    let cb = &rep.collectives;
    if cb.total() > 0.0 {
        let _ = writeln!(
            out,
            "  collective wire time: {:.4} s all-reduce, {:.4} s all-gather, {:.4} s reduce-scatter",
            cb.all_reduce_s, cb.all_gather_s, cb.reduce_scatter_s
        );
    }

    if !rep.whatif.is_empty() {
        let _ = writeln!(out, "\nwhat-if (top {} interventions):", rep.whatif.len());
        let _ = writeln!(
            out,
            "  {:>4} {:<46}{:>12}{:>12}{:>9}",
            "rank", "intervention", "makespan", "delta", "rel"
        );
        for (i, w) in rep.whatif.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>4} {:<46}{:>12.4}{:>+12.4}{:>9}{}",
                i + 1,
                w.label,
                w.makespan,
                w.delta,
                pct(w.delta_fraction(rep.makespan)),
                if w.oom { "  (OOM)" } else { "" }
            );
        }
    }

    // Planner-loop health footer (always on; no HETEROG_TELEMETRY needed).
    let e = &rep.eval_stats;
    let _ = writeln!(
        out,
        "\nplanner loop: {} evaluations in {:.2} s ({:.0} evals/s)",
        e.evaluations,
        e.eval_seconds,
        e.evals_per_sec(),
    );
    let _ = writeln!(
        out,
        "incremental: {} fast / {} full ({} served incrementally)",
        e.incremental_fast,
        e.incremental_full,
        pct(e.incremental_hit_rate()),
    );
    out
}

/// Renders the report as a standalone, pretty-printed JSON document
/// (the `--json-out` artifact; [`crate::diff::digest_from_json`] parses
/// it back).
pub fn to_json(rep: &ExplainReport) -> String {
    rep.to_value().to_string_pretty()
}

/// The report as a JSON document, also embedded whole in served
/// explain bodies.
impl ToJson for ExplainReport {
    fn to_value(&self) -> Value {
        let (a, cb, e) = (&self.attribution, &self.collectives, &self.eval_stats);
        let (st, m) = (&self.stragglers, &self.stragglers.strategy_mix);
        let segments = self.critical_path.segments.iter().map(|s| {
            json_object! {
                "task" => s.task,
                "name" => &s.name,
                "proc" => &s.proc.to_string(),
                "kind" => s.kind.label(),
                "start" => s.start,
                "duration" => s.duration,
                "idle_before" => s.idle_before,
                "slack" => s.slack,
            }
        });
        let devices = self.devices.iter().map(|d| {
            json_object! {
                "id" => d.id,
                "model" => &d.model,
                "server" => d.server,
                "busy" => d.busy,
                "utilization" => d.utilization,
                "critical_s" => d.critical_s,
                "peak_mem_bytes" => d.peak_mem_bytes,
                "oom" => d.oom,
            }
        });
        let link_classes = st.link_classes.iter().map(|l| {
            json_object! {
                "kind" => &l.kind,
                "count" => l.count,
                "busy" => l.busy,
                "critical_s" => l.critical_s,
            }
        });
        let whatif = self.whatif.iter().map(|w| {
            json_object! {
                "label" => &w.label,
                "makespan" => w.makespan,
                "delta" => w.delta,
                "oom" => w.oom,
            }
        });
        json_object! {
            "model" => &self.model,
            "batch_size" => self.batch_size,
            "num_gpus" => self.num_gpus,
            "num_links" => self.num_links,
            "makespan" => self.makespan,
            "overlap_ratio" => self.overlap_ratio,
            "mean_gpu_utilization" => self.mean_gpu_utilization,
            "oom" => self.oom,
            "attribution" => json_object! {
                "compute" => a.compute,
                "collective" => a.collective,
                "transfer" => a.transfer,
                "idle" => a.idle,
            },
            "collectives" => json_object! {
                "all_reduce_s" => cb.all_reduce_s,
                "all_gather_s" => cb.all_gather_s,
                "reduce_scatter_s" => cb.reduce_scatter_s,
            },
            "critical_path" => Value::Array(segments.collect()),
            "critical_path_idle" => self.critical_path.total_idle,
            "devices" => Value::Array(devices.collect()),
            "link_classes" => Value::Array(link_classes.collect()),
            "stragglers" => json_object! {
                "gating_device" => &st.gating_device,
                "gating_model" => &st.gating_model,
                "gating_link_class" => &st.gating_link_class,
                "replica_imbalance" => st.replica_imbalance,
            },
            "strategy_mix" => json_object! {
                "mp" => m.mp,
                "ev_ps" => m.ev_ps,
                "ev_ar" => m.ev_ar,
                "cp_ps" => m.cp_ps,
                "cp_ar" => m.cp_ar,
                "other_dp" => m.other_dp,
                "shard" => m.shard,
            },
            "whatif" => Value::Array(whatif.collect()),
            "eval_stats" => json_object! {
                "evaluations" => e.evaluations,
                "eval_seconds" => e.eval_seconds,
                "evals_per_sec" => e.evals_per_sec(),
                "incremental_fast" => e.incremental_fast,
                "incremental_full" => e.incremental_full,
                "incremental_hit_rate" => e.incremental_hit_rate(),
            },
        }
    }
}

/// Minimal HTML escaping for text nodes and attribute values.
pub fn html_esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Renders a self-contained HTML report: every table from the terminal
/// view plus an interactive timeline drawn from the embedded Chrome
/// trace (`trace_json` is the array `heterog_sim::chrome_trace_json`
/// produces — also loadable in Perfetto as-is).
pub fn render_html(rep: &ExplainReport, trace_json: &str) -> String {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "<h1>heterog explain — {} (batch {})</h1>",
        html_esc(&rep.model),
        rep.batch_size
    );
    let _ = writeln!(
        body,
        "<p class=\"cards\"><span><b>{:.4} s</b> makespan</span>\
         <span><b>{:.2}</b> overlap ratio</span>\
         <span><b>{}</b> mean GPU utilization</span>\
         <span><b>{} / {}</b> GPUs / links</span>{}</p>",
        rep.makespan,
        rep.overlap_ratio,
        pct(rep.mean_gpu_utilization),
        rep.num_gpus,
        rep.num_links,
        if rep.oom {
            "<span class=\"bad\"><b>OOM</b></span>"
        } else {
            ""
        }
    );

    let _ = writeln!(body, "<h2>Makespan attribution</h2>");
    let _ = writeln!(
        body,
        "<table><tr><th>bucket</th><th>seconds</th><th>share</th></tr>"
    );
    for (label, seconds) in rep.attribution.buckets() {
        let share = if rep.makespan > 0.0 {
            seconds / rep.makespan
        } else {
            0.0
        };
        let _ = writeln!(
            body,
            "<tr><td>{label}</td><td>{seconds:.4}</td><td>{}</td></tr>",
            pct(share)
        );
    }
    let _ = writeln!(body, "</table>");

    let _ = writeln!(
        body,
        "<h2>Simulated critical path ({} segments, {:.4} s idle)</h2>",
        rep.critical_path.len(),
        rep.critical_path.total_idle
    );
    let _ = writeln!(
        body,
        "<div class=\"scroll\"><table><tr><th>#</th><th>task</th><th>proc</th><th>kind</th>\
         <th>start</th><th>duration</th><th>slack</th></tr>"
    );
    for (i, s) in rep.critical_path.segments.iter().enumerate() {
        let _ = writeln!(
            body,
            "<tr><td>{i}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{:.5}</td><td>{:.5}</td><td>{:.5}</td></tr>",
            html_esc(&s.name),
            s.proc,
            s.kind.label(),
            s.start,
            s.duration,
            s.slack
        );
    }
    let _ = writeln!(body, "</table></div>");

    let _ = writeln!(body, "<h2>Devices</h2>");
    let _ = writeln!(
        body,
        "<table><tr><th>id</th><th>model</th><th>server</th><th>busy</th><th>util</th>\
         <th>critical</th><th>peak GiB</th><th>OOM</th></tr>"
    );
    for d in &rep.devices {
        let _ = writeln!(
            body,
            "<tr><td>G{}</td><td>{}</td><td>{}</td><td>{:.4}</td><td>{}</td>\
             <td>{:.4}</td><td>{:.2}</td><td>{}</td></tr>",
            d.id,
            html_esc(&d.model),
            d.server,
            d.busy,
            pct(d.utilization),
            d.critical_s,
            gib(d.peak_mem_bytes),
            if d.oom { "yes" } else { "no" }
        );
    }
    let _ = writeln!(body, "</table>");

    let _ = writeln!(body, "<h2>Stragglers</h2><ul>");
    if let (Some(dev), Some(model)) = (&rep.stragglers.gating_device, &rep.stragglers.gating_model)
    {
        let _ = writeln!(
            body,
            "<li>gating device: <b>G{dev}</b> ({})</li>",
            html_esc(model)
        );
    }
    if let Some(kind) = &rep.stragglers.gating_link_class {
        let _ = writeln!(
            body,
            "<li>gating link class: <b>{}</b></li>",
            html_esc(kind)
        );
    }
    let _ = writeln!(
        body,
        "<li>replica imbalance: <b>{}</b> — {}</li>",
        pct(rep.stragglers.replica_imbalance),
        html_esc(&rep.stragglers.imbalance_note)
    );
    let cb = &rep.collectives;
    if cb.total() > 0.0 {
        let _ = writeln!(
            body,
            "<li>collective wire time: <b>{:.4} s</b> all-reduce, <b>{:.4} s</b> all-gather, <b>{:.4} s</b> reduce-scatter</li>",
            cb.all_reduce_s, cb.all_gather_s, cb.reduce_scatter_s
        );
    }
    let _ = writeln!(body, "</ul>");

    if !rep.whatif.is_empty() {
        let _ = writeln!(body, "<h2>What-if sensitivity</h2>");
        let _ = writeln!(
            body,
            "<table><tr><th>rank</th><th>intervention</th><th>makespan</th><th>delta</th></tr>"
        );
        for (i, w) in rep.whatif.iter().enumerate() {
            let cls = if w.delta > 0.0 { "good" } else { "bad" };
            let _ = writeln!(
                body,
                "<tr><td>{}</td><td>{}</td><td>{:.4}</td><td class=\"{cls}\">{:+.4} ({})</td></tr>",
                i + 1,
                html_esc(&w.label),
                w.makespan,
                w.delta,
                pct(w.delta_fraction(rep.makespan))
            );
        }
        let _ = writeln!(body, "</table>");
    }

    let e = &rep.eval_stats;
    let footer = format!(
        "planner loop: {} evaluations in {:.2} s ({:.0} evals/s) — incremental {} fast / {} full ({} served incrementally)",
        e.evaluations,
        e.eval_seconds,
        e.evals_per_sec(),
        e.incremental_fast,
        e.incremental_full,
        pct(e.incremental_hit_rate())
    );

    // `</` must not appear inside the inline <script> payload.
    let safe_trace = trace_json.replace("</", "<\\/");
    format!(
        r##"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>heterog explain — {title}</title>
<style>
body {{ font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #1a1a2e; }}
h1 {{ font-size: 1.4rem; }} h2 {{ font-size: 1.1rem; margin-top: 1.6rem; }}
table {{ border-collapse: collapse; margin: 0.5rem 0; }}
th, td {{ border: 1px solid #ccd; padding: 0.2rem 0.6rem; text-align: right; }}
th {{ background: #eef; }} td:nth-child(2), th:nth-child(2) {{ text-align: left; }}
.cards span {{ display: inline-block; margin-right: 1.4rem; }}
.scroll {{ max-height: 22rem; overflow-y: auto; }}
.good {{ color: #0a7a33; }} .bad {{ color: #b3261e; }}
#timeline {{ border: 1px solid #ccd; margin: 0.5rem 0; }}
footer {{ margin-top: 2rem; color: #555; font-size: 0.9rem; }}
</style>
</head>
<body>
{body}
<h2>Timeline</h2>
<p>One simulated iteration; GPU lanes on top, link lanes below. The raw
trace is also a valid Chrome/Perfetto trace.</p>
<svg id="timeline" width="1080" height="10"></svg>
<script>
const TRACE = {trace};
(function () {{
  const names = new Map();
  for (const e of TRACE) {{
    if (e.ph === 'M' && e.name === 'thread_name' && e.pid === 0) names.set(e.tid, e.args.name);
  }}
  const xs = TRACE.filter(e => e.ph === 'X' && e.pid === 0);
  if (!xs.length) return;
  const tids = [...new Set(xs.map(e => e.tid))].sort((a, b) => a - b);
  const tmax = Math.max(...xs.map(e => e.ts + e.dur));
  const row = 22, left = 70, width = 1000;
  const svg = document.getElementById('timeline');
  svg.setAttribute('height', tids.length * row + 24);
  const colors = {{ comp: '#4c72b0', comm: '#dd8452', agg: '#55a868' }};
  let out = '';
  tids.forEach((tid, i) => {{
    const y = i * row + 18;
    out += `<text x="4" y="${{y + 11}}" font-size="10">${{names.get(tid) || tid}}</text>`;
    out += `<line x1="${{left}}" y1="${{y + row - 4}}" x2="${{left + width}}" y2="${{y + row - 4}}" stroke="#eee"/>`;
    for (const e of xs.filter(e => e.tid === tid)) {{
      const x = left + (e.ts / tmax) * width;
      const w = Math.max((e.dur / tmax) * width, 0.5);
      const c = colors[e.cat] || '#8172b3';
      out += `<rect x="${{x}}" y="${{y}}" width="${{w}}" height="${{row - 6}}" fill="${{c}}"><title>${{e.name}} (${{e.dur}} us)</title></rect>`;
    }}
  }});
  out += `<text x="${{left}}" y="12" font-size="10">0</text>`;
  out += `<text x="${{left + width - 40}}" y="12" font-size="10">${{(tmax / 1e6).toFixed(4)}} s</text>`;
  svg.innerHTML = out;
}})();
</script>
<footer>{footer}</footer>
</body>
</html>
"##,
        title = html_esc(&rep.model),
        body = body,
        trace = safe_trace,
        footer = html_esc(&footer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explain, ExplainOptions};
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_compile::{compile, CommMethod, Strategy};
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;
    use heterog_sched::OrderPolicy;
    use heterog_sim::{chrome_trace_json, simulate};

    fn report() -> (ExplainReport, String) {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::Ps);
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        let policy = OrderPolicy::RankBased;
        let r = simulate(&tg, &c.memory_capacities(), &policy);
        let trace = chrome_trace_json(&tg, &r.schedule);
        (
            explain(&g, &c, &s, &tg, &policy, &r, &ExplainOptions::default()),
            trace,
        )
    }

    #[test]
    fn text_report_names_the_critical_path_and_footer() {
        let (rep, _) = report();
        let text = render_text(&rep);
        assert!(text.contains("simulated critical path"));
        assert!(text.contains("what-if"));
        assert!(text.contains("planner loop:"));
        assert!(text.contains("incremental:"));
    }

    #[test]
    fn json_artifact_round_trips_through_digest() {
        let (rep, _) = report();
        let json = to_json(&rep);
        let digest = crate::digest_from_json(&json).expect("parse own artifact");
        let native = rep.digest();
        assert_eq!(digest.model, native.model);
        assert!((digest.makespan - native.makespan).abs() < 1e-12);
        assert!((digest.compute - native.compute).abs() < 1e-12);
        assert_eq!(
            digest.device_utilization.len(),
            native.device_utilization.len()
        );
        let d = crate::diff(&digest, &native);
        assert!(d.is_clean(), "self-diff via JSON: {d:?}");
    }

    #[test]
    fn html_is_self_contained_and_embeds_the_trace() {
        let (rep, trace) = report();
        let html = render_html(&rep, &trace);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("Simulated critical path"));
        assert!(html.contains("const TRACE ="));
        assert!(html.contains("What-if sensitivity"));
        // No unescaped closing tag inside the embedded payload.
        let script_start = html.find("const TRACE =").unwrap();
        let script_end = html[script_start..].find("</script>").unwrap();
        let payload_prefix = &html[script_start..script_start + script_end.min(2000)];
        assert!(!payload_prefix.contains("</span>"));
        let _ = trace;
    }
}
