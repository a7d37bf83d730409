//! Point-in-time copies of the registry, decoupled from the atomics so
//! exporters and tests work on plain data.

use crate::metrics::{bucket_bound, registry, MetricRef, HISTOGRAM_BUCKETS};
use crate::span::SpanRecord;
use crate::sync::lock;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    pub name: &'static str,
    pub help: &'static str,
    pub value: u64,
}

#[derive(Debug, Clone)]
pub struct GaugeSnapshot {
    pub name: &'static str,
    pub help: &'static str,
    pub value: f64,
}

#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub name: &'static str,
    pub help: &'static str,
    pub count: u64,
    pub sum: f64,
    /// Cumulative `(upper_bound_seconds, count)` pairs; the final entry
    /// is `(f64::INFINITY, count)`.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0..=1.0`) from the cumulative
    /// buckets, interpolating linearly within the winning bucket the way
    /// Prometheus' `histogram_quantile` does. Returns 0 for an empty
    /// histogram; observations that landed in the `+Inf` overflow bucket
    /// clamp to the largest finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut prev_bound = 0.0;
        let mut prev_cum = 0u64;
        for &(bound, cum) in &self.buckets {
            if (cum as f64) >= rank {
                if bound.is_infinite() {
                    // No upper edge to interpolate toward.
                    return prev_bound;
                }
                let in_bucket = (cum - prev_cum) as f64;
                if in_bucket == 0.0 {
                    return bound;
                }
                let frac = (rank - prev_cum as f64) / in_bucket;
                return prev_bound + frac * (bound - prev_bound);
            }
            prev_bound = bound;
            prev_cum = cum;
        }
        prev_bound
    }
}

/// A consistent-enough copy of every registered metric plus completed
/// spans. "Consistent enough": each value is read atomically but the
/// set is not a global atomic snapshot, which is fine for reporting.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
    pub spans: Vec<SpanRecord>,
}

/// Take a snapshot of the global registry and span log.
pub fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        spans: crate::span::completed(),
        ..metrics_snapshot()
    }
}

/// Take a snapshot of the global registry alone, with no spans: all that
/// [`crate::prometheus_text`] reads, without copying a span log that
/// grows for a long-lived process's whole life.
pub fn metrics_snapshot() -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::default();
    for m in lock(registry()).iter() {
        match m {
            MetricRef::Counter(c) => snap.counters.push(c.snapshot(c.get())),
            MetricRef::Gauge(g) => snap.gauges.push(GaugeSnapshot {
                name: g.name,
                help: g.help,
                value: f64::from_bits(g.bits.load(Ordering::Relaxed)),
            }),
            MetricRef::Histogram(h) => {
                let count = h.count.load(Ordering::Relaxed);
                let mut cumulative = 0u64;
                let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS + 1);
                for (i, b) in h.bucket_counts.iter().enumerate() {
                    cumulative += b.load(Ordering::Relaxed);
                    buckets.push((bucket_bound(i), cumulative));
                }
                buckets.push((f64::INFINITY, count));
                snap.histograms.push(HistogramSnapshot {
                    name: h.name,
                    help: h.help,
                    count,
                    sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                    buckets,
                });
            }
        }
    }
    snap.counters.sort_by_key(|c| c.name);
    snap.gauges.sort_by_key(|g| g.name);
    snap.histograms.sort_by_key(|h| h.name);
    snap
}

impl TelemetrySnapshot {
    /// Value of a counter by full name, if it registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of a gauge by full name, if it registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Total self-inclusive time per span path, the `n` largest first.
    /// Returns `(path, total_seconds)` pairs.
    pub fn top_spans(&self, n: usize) -> Vec<(String, f64)> {
        let mut by_path: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            *by_path.entry(s.path.as_str()).or_insert(0) += s.dur_us;
        }
        let mut rows: Vec<(String, f64)> = by_path
            .into_iter()
            .map(|(p, us)| (p.to_string(), us as f64 / 1e6))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        rows.truncate(n);
        rows
    }

    /// Number of distinct metric names captured.
    pub fn metric_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }
}
