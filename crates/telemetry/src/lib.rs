//! # heterog-telemetry
//!
//! Lightweight observability substrate for the HeteroG pipeline: a
//! thread-safe metrics registry (counters, gauges, histograms), RAII
//! hierarchical spans, and exporters to Prometheus text exposition,
//! Chrome/Perfetto trace JSON and a plain JSON snapshot. Since it sits
//! below every other crate, it also holds the workspace's one JSON
//! reader and writer ([`json`]), its seeded generators ([`rng`]), its
//! worker pool ([`par`]), its per-run counts ([`tally`]), its hasher
//! for integer keys ([`hash`]) and its poison-free [`lock`].
//!
//! ## Design
//!
//! * **Statics as handles.** Every metric is a `static` with a `const`
//!   constructor; it owns its atomics and lazily registers itself in the
//!   global registry on first use. No lookup maps on the hot path.
//! * **One atomic load when disabled.** Telemetry is off by default; a
//!   disabled `Counter::add` / `span()` costs a single relaxed
//!   `AtomicBool` load and returns. The planner search loops call these
//!   millions of times, so this is the load-bearing property (asserted
//!   by `disabled_counter_overhead_is_negligible`).
//! * **Always-on counters for what a run spent.** A [`Counter::always`]
//!   records with telemetry off too and also counts in every open
//!   [`tally`] scope: one static per planner outcome serves both the
//!   process-wide metric and the count of the run that spent it.
//! * **Thread-safe.** All recording paths take `&'static self` and
//!   synchronize with atomics (metrics) or a `std::sync::Mutex` (spans),
//!   so planner workers can record from any thread.
//!
//! ## Naming convention
//!
//! Metrics are Prometheus-style: `heterog_<crate>_<what>[_total|_bytes|
//! _seconds]`, e.g. `heterog_sim_events_processed_total`,
//! `heterog_sched_schedule_seconds`. The `<crate>` segment is the
//! namespace (sim, compile, sched, agent, strategies, core).

pub mod export;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod snapshot;
pub mod span;
mod sync;
pub mod tally;

pub use export::{chrome_span_events, prometheus_text};
pub use metrics::{disable, enable, enable_from_env, enabled, reset, Counter, Gauge, Histogram};
pub use snapshot::{
    metrics_snapshot, snapshot, CounterSnapshot, GaugeSnapshot, HistogramSnapshot,
    TelemetrySnapshot,
};
pub use span::{span, SpanGuard, SpanRecord};
pub use sync::lock;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;
    use std::sync::Mutex;

    // Telemetry state is process-global; serialize the tests that
    // enable/reset it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    static TEST_COUNTER: Counter = Counter::new("heterog_test_events_total", "test counter");
    static TEST_GAUGE: Gauge = Gauge::new("heterog_test_depth", "test gauge");
    static TEST_HISTO: Histogram = Histogram::new("heterog_test_latency_seconds", "test histo");

    #[test]
    fn disabled_metrics_record_nothing() {
        let _g = lock(&TEST_LOCK);
        reset();
        disable();
        TEST_COUNTER.add(5);
        TEST_GAUGE.set(3.0);
        TEST_HISTO.observe(0.1);
        let _ = span("ignored");
        let snap = snapshot();
        assert_eq!(snap.counter("heterog_test_events_total").unwrap_or(0), 0);
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        TEST_COUNTER.add(2);
        TEST_COUNTER.inc();
        TEST_GAUGE.set(1.5);
        TEST_GAUGE.record_max(9.0);
        TEST_GAUGE.record_max(4.0); // lower than current max: ignored
        TEST_HISTO.observe(0.001);
        TEST_HISTO.observe(2.0);
        let snap = snapshot();
        assert_eq!(snap.counter("heterog_test_events_total"), Some(3));
        assert_eq!(snap.gauge("heterog_test_depth"), Some(9.0));
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "heterog_test_latency_seconds")
            .expect("histogram registered");
        assert_eq!(h.count, 2);
        assert!((h.sum - 2.001).abs() < 1e-12);
        // Buckets are cumulative and end with +Inf covering everything.
        assert_eq!(h.buckets.last().unwrap().1, 2);
        disable();
        reset();
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        {
            let _outer = span("plan");
            let _inner = span("compile");
        }
        let snap = snapshot();
        disable();
        reset();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"plan"), "{paths:?}");
        assert!(paths.contains(&"plan/compile"), "{paths:?}");
        // Inner closes first, so it is recorded first.
        assert_eq!(snap.spans[0].path, "plan/compile");
    }

    /// Spans opened in `par_map` jobs nest under the caller's open span,
    /// on the pool workers as on the calling thread. On a 1-vCPU host the
    /// pool has no helpers, every item runs on the caller, and this test
    /// passes trivially.
    #[test]
    fn spans_keep_their_parent_on_pool_workers() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        {
            let _outer = span("outer");
            let items: Vec<u32> = (0..64).collect();
            par::par_map(&items, |_| {
                let _inner = span("inner");
                // Slow items let a helper claim some before the caller has
                // run them all; the assertions hold however they split.
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        }
        let snap = snapshot();
        disable();
        reset();
        let inner: Vec<&str> = snap
            .spans
            .iter()
            .map(|s| s.path.as_str())
            .filter(|p| p.ends_with("inner"))
            .collect();
        assert_eq!(inner.len(), 64, "{inner:?}");
        assert!(inner.iter().all(|&p| p == "outer/inner"), "{inner:?}");
    }

    #[test]
    fn top_spans_aggregates_by_path() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        for _ in 0..3 {
            let _s = span("phase_a");
        }
        {
            let _s = span("phase_b");
        }
        let snap = snapshot();
        disable();
        reset();
        let top = snap.top_spans(5);
        assert!(top.len() == 2);
        assert!(top.iter().any(|(p, _)| p == "phase_a"));
    }

    /// The acceptance criterion behind "telemetry disabled changes
    /// exp_table1 wall-clock by < 2%": a disabled counter add must cost
    /// on the order of one atomic load. 10M disabled adds finish in well
    /// under a second even on slow CI (observed: single-digit ms); the
    /// bench loops record ~1e5 events per experiment, so the disabled
    /// path contributes microseconds to multi-second experiments.
    #[test]
    fn disabled_counter_overhead_is_negligible() {
        let _g = lock(&TEST_LOCK);
        disable();
        let start = std::time::Instant::now();
        for i in 0..10_000_000u64 {
            TEST_COUNTER.add(std::hint::black_box(i) & 1);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_secs_f64() < 1.0,
            "10M disabled counter adds took {elapsed:?}; the disabled path must be ~1 atomic load"
        );
    }

    #[test]
    fn prometheus_export_has_type_lines() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        TEST_COUNTER.inc();
        TEST_GAUGE.set(2.0);
        TEST_HISTO.observe(0.5);
        let text = prometheus_text(&snapshot());
        disable();
        reset();
        assert!(text.contains("# TYPE heterog_test_events_total counter"));
        assert!(text.contains("# TYPE heterog_test_depth gauge"));
        assert!(text.contains("# TYPE heterog_test_latency_seconds histogram"));
        assert!(text.contains("heterog_test_latency_seconds_bucket{le=\"+Inf\"}"));
        assert!(text.contains("heterog_test_latency_seconds_count 1"));
    }

    #[test]
    fn metrics_snapshot_copies_no_spans_and_renders_the_same_text() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        TEST_COUNTER.inc();
        drop(span("recorded"));
        let (metrics, full) = (metrics_snapshot(), snapshot());
        disable();
        reset();
        assert!(metrics.spans.is_empty() && !full.spans.is_empty());
        assert_eq!(prometheus_text(&metrics), prometheus_text(&full));
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        // Synthetic cumulative buckets: 10 observations uniform in
        // (0, 1e-6], 10 more in (1e-6, 4e-6].
        let h = HistogramSnapshot {
            name: "q",
            help: "",
            count: 20,
            sum: 0.0,
            buckets: vec![(1e-6, 10), (4e-6, 20), (f64::INFINITY, 20)],
        };
        assert!((h.quantile(0.5) - 1e-6).abs() < 1e-18);
        // p75 = halfway through the second bucket: 1e-6 + 0.5 * 3e-6.
        assert!((h.quantile(0.75) - 2.5e-6).abs() < 1e-18);
        assert_eq!(h.quantile(0.0), 0.0);
        // Quantiles clamp to the largest finite bound for overflow.
        let overflow = HistogramSnapshot {
            name: "o",
            help: "",
            count: 5,
            sum: 0.0,
            buckets: vec![(1e-6, 0), (4e-6, 0), (f64::INFINITY, 5)],
        };
        assert_eq!(overflow.quantile(0.99), 4e-6);
        // Empty histograms report 0, not NaN.
        let empty = HistogramSnapshot {
            name: "e",
            help: "",
            count: 0,
            sum: 0.0,
            buckets: vec![(1e-6, 0), (f64::INFINITY, 0)],
        };
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn exported_quantiles_round_trip() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        for _ in 0..10 {
            TEST_HISTO.observe(0.002);
        }
        TEST_HISTO.observe(0.5);
        let snap = snapshot();
        let text = prometheus_text(&snap);
        let json = snap.to_value().to_string_pretty();
        disable();
        reset();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "heterog_test_latency_seconds")
            .expect("histogram registered");
        // Prometheus text carries summary-style quantile series that
        // match the snapshot's own computation.
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let needle = format!(
                "heterog_test_latency_seconds{{quantile=\"{label}\"}} {}",
                h.quantile(q)
            );
            assert!(text.contains(&needle), "missing {needle:?} in:\n{text}");
        }
        // And the JSON snapshot exposes the same values under p50/p90/p99.
        for key in ["\"p50\":", "\"p90\":", "\"p99\":"] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        let needle = format!("\"p99\": {}", h.quantile(0.99));
        assert!(json.contains(&needle), "missing {needle:?} in:\n{json}");
        // p50 sits in the bucket holding the 0.002s observations, far
        // below the 0.5s outlier that dominates p99.
        assert!(h.quantile(0.5) < 0.02);
        assert!(h.quantile(0.99) > 0.1);
    }
}
