//! Static metric handles and the global registry.
//!
//! Metrics are declared as `static` items with `const` constructors:
//!
//! ```
//! use heterog_telemetry::Counter;
//! static EVENTS: Counter = Counter::new("heterog_sim_events_processed_total", "events");
//! EVENTS.add(3);
//! ```
//!
//! Each handle owns its atomic storage and self-registers into the
//! global registry on the first recorded value, so declaring a metric
//! is free and recording never takes a lock (counters/gauges) or takes
//! one only for registration (first use).

use crate::snapshot::CounterSnapshot;
use crate::sync::lock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Global on/off switch. Off by default: every recording entry point
/// checks this with one relaxed load and bails.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn telemetry recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn telemetry recording off (the default).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether telemetry is currently recording.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable telemetry iff the `HETEROG_TELEMETRY` environment variable is
/// set to something other than `0`/`off`/`false`. Returns the resulting
/// enabled state. Benches call this so `HETEROG_TELEMETRY=1 cargo run
/// --bin exp_table1` captures counters without a code change.
pub fn enable_from_env() -> bool {
    match std::env::var("HETEROG_TELEMETRY") {
        Ok(v) if !matches!(v.as_str(), "" | "0" | "off" | "false") => {
            enable();
            true
        }
        _ => enabled(),
    }
}

/// Zero all registered metric values and drop recorded spans. Handles
/// stay registered; this resets values, not identity.
pub fn reset() {
    for m in lock(registry()).iter() {
        match m {
            MetricRef::Counter(c) => c.value.store(0, Ordering::Relaxed),
            MetricRef::Gauge(g) => g.bits.store(0.0f64.to_bits(), Ordering::Relaxed),
            MetricRef::Histogram(h) => {
                h.count.store(0, Ordering::Relaxed);
                h.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
                for b in &h.bucket_counts {
                    b.store(0, Ordering::Relaxed);
                }
            }
        }
    }
    crate::span::clear();
}

/// A reference to a registered static metric.
pub(crate) enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<Vec<MetricRef>> = Mutex::new(Vec::new());

pub(crate) fn registry() -> &'static Mutex<Vec<MetricRef>> {
    &REGISTRY
}

/// Monotonically increasing `u64` counter. A [`Counter::new`] counter
/// records only while telemetry is enabled; a [`Counter::always`] one
/// records either way and also counts in the recording thread's open
/// [`crate::tally`] scopes.
pub struct Counter {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) value: AtomicU64,
    pub(crate) always: bool,
    registered: AtomicBool,
}

impl Counter {
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Counter {
            name,
            help,
            value: AtomicU64::new(0),
            always: false,
            registered: AtomicBool::new(false),
        }
    }

    /// An always-on counter that also counts in open tally scopes.
    pub const fn always(name: &'static str, help: &'static str) -> Self {
        Counter {
            always: true,
            ..Counter::new(name, help)
        }
    }

    #[inline]
    pub fn add(&'static self, n: u64) {
        if !self.always && !enabled() {
            return;
        }
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
        if self.always {
            crate::tally::add(self, n);
        }
    }

    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value (0 until first recorded use).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// This counter's name and help with `value`.
    pub(crate) fn snapshot(&self, value: u64) -> CounterSnapshot {
        CounterSnapshot {
            name: self.name,
            help: self.help,
            value,
        }
    }

    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            lock(registry()).push(MetricRef::Counter(self));
        }
    }
}

/// Last-write-wins `f64` gauge, stored as bits in an `AtomicU64`.
/// `record_max` keeps the maximum seen instead, for high-water marks.
pub struct Gauge {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) bits: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Gauge {
            name,
            help,
            bits: AtomicU64::new(0), // 0u64 == 0.0f64 bits
            registered: AtomicBool::new(false),
        }
    }

    #[inline]
    pub fn set(&'static self, v: f64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Keep the maximum of the current value and `v` (high-water mark).
    #[inline]
    pub fn record_max(&'static self, v: f64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            lock(registry()).push(MetricRef::Gauge(self));
        }
    }
}

/// Number of finite histogram buckets; bounds grow ×4 from 1 µs, which
/// covers sub-microsecond scheduling up through ~4.7 hours.
pub(crate) const HISTOGRAM_BUCKETS: usize = 16;

/// Upper bound (inclusive, seconds) of finite bucket `i`.
pub(crate) fn bucket_bound(i: usize) -> f64 {
    1e-6 * 4f64.powi(i as i32)
}

/// Fixed-bucket histogram of `f64` observations (seconds by
/// convention). Lock-free: per-bucket atomic counters plus a CAS loop
/// for the running sum.
pub struct Histogram {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) count: AtomicU64,
    pub(crate) sum_bits: AtomicU64,
    pub(crate) bucket_counts: [AtomicU64; HISTOGRAM_BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            help,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            bucket_counts: [ZERO; HISTOGRAM_BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    #[inline]
    pub fn observe(&'static self, v: f64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        for (i, b) in self.bucket_counts.iter().enumerate() {
            if v <= bucket_bound(i) {
                b.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        // Values above the last finite bound land only in +Inf, which
        // the snapshot derives from `count`.
    }

    fn ensure_registered(&'static self) {
        if self
            .registered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            lock(registry()).push(MetricRef::Histogram(self));
        }
    }
}

/// Observe the duration of a closure into a histogram; when telemetry
/// is disabled the closure runs without touching the clock.
#[inline]
pub fn time_closure<T>(h: &'static Histogram, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    h.observe(start.elapsed().as_secs_f64());
    out
}
