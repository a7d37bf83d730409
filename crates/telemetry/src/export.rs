//! Exporters: Prometheus text exposition, the JSON snapshot and Chrome /
//! Perfetto trace events. The JSON ones are [`Value`]s, written by
//! [`crate::json`].

use crate::json::{ToJson, Value};
use crate::json_object;
use crate::snapshot::TelemetrySnapshot;
use std::fmt::Write as _;

/// Format an f64 the way Prometheus expects (`+Inf`, no `inf`).
fn prom_f64(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else {
        format!("{v}")
    }
}

/// Render a snapshot in the Prometheus text exposition format
/// (`# HELP` / `# TYPE` headers, histogram `_bucket{le=...}` series).
pub fn prometheus_text(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let _ = writeln!(out, "# HELP {} {}", c.name, c.help);
        let _ = writeln!(out, "# TYPE {} counter", c.name);
        let _ = writeln!(out, "{} {}", c.name, c.value);
    }
    for g in &snap.gauges {
        let _ = writeln!(out, "# HELP {} {}", g.name, g.help);
        let _ = writeln!(out, "# TYPE {} gauge", g.name);
        let _ = writeln!(out, "{} {}", g.name, prom_f64(g.value));
    }
    for h in &snap.histograms {
        let _ = writeln!(out, "# HELP {} {}", h.name, h.help);
        let _ = writeln!(out, "# TYPE {} histogram", h.name);
        for (bound, count) in &h.buckets {
            let _ = writeln!(
                out,
                "{}_bucket{{le=\"{}\"}} {}",
                h.name,
                prom_f64(*bound),
                count
            );
        }
        let _ = writeln!(out, "{}_sum {}", h.name, prom_f64(h.sum));
        let _ = writeln!(out, "{}_count {}", h.name, h.count);
        // Pre-computed quantiles as summary-style series, so dashboards
        // get p50/p90/p99 without a `histogram_quantile` recording rule.
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "{}{{quantile=\"{label}\"}} {}",
                h.name,
                prom_f64(h.quantile(q))
            );
        }
    }
    out
}

/// A snapshot as one JSON document:
/// `{"counters": {...}, "gauges": {...}, "histograms": {...},
///   "spans": [...]}`, each histogram as its count, sum and p50/p90/p99.
impl ToJson for TelemetrySnapshot {
    fn to_value(&self) -> Value {
        let histograms = self.histograms.iter().map(|h| {
            let summary = json_object! {
                "count" => h.count,
                "sum" => h.sum,
                "p50" => h.quantile(0.5),
                "p90" => h.quantile(0.9),
                "p99" => h.quantile(0.99),
            };
            (h.name, summary)
        });
        let spans = self.spans.iter().map(|s| {
            json_object! {
                "path" => &s.path,
                "start_us" => s.start_us,
                "dur_us" => s.dur_us,
                "thread" => s.thread,
            }
        });
        json_object! {
            "counters" => Value::object(self.counters.iter().map(|c| (c.name, c.value.to_value()))),
            "gauges" => Value::object(self.gauges.iter().map(|g| (g.name, g.value.to_value()))),
            "histograms" => Value::object(histograms),
            "spans" => Value::Array(spans.collect()),
        }
    }
}

/// Host-side pid used for span events in merged traces; simulator
/// traces use pid 0, so host spans get their own process lane.
pub const HOST_PID: u32 = 1;

/// Completed spans as Chrome trace events (`"ph":"X"` complete events
/// plus process/thread `"ph":"M"` metadata) in the host lane, ready to
/// append to the simulator's events (`heterog_sim::chrome_trace_events`)
/// so Perfetto loads both as one timeline.
pub fn chrome_span_events(snap: &TelemetrySnapshot) -> Vec<Value> {
    let metadata = |name: &str, tid: u64, label: &str| {
        json_object! {
            "name" => name,
            "ph" => "M",
            "pid" => HOST_PID,
            "tid" => tid,
            "args" => json_object! { "name" => label },
        }
    };
    let mut threads: Vec<u64> = snap.spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    let mut events = vec![metadata(
        "process_name",
        0,
        "heterog host (planner/compiler)",
    )];
    for &t in &threads {
        events.push(metadata("thread_name", t, &format!("host thread {t}")));
    }
    events.extend(snap.spans.iter().map(|s| {
        json_object! {
            "name" => &s.path,
            "cat" => "host",
            "ph" => "X",
            "ts" => s.start_us,
            "dur" => s.dur_us,
            "pid" => HOST_PID,
            "tid" => s.thread,
        }
    }));
    events
}
