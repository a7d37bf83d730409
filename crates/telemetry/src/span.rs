//! Hierarchical RAII spans.
//!
//! `span("compile")` pushes a frame on a thread-local stack and returns
//! a guard; dropping the guard records a `SpanRecord` whose `path` is
//! the `/`-joined stack at entry (`"plan/compile"`). Paths make the
//! export self-describing without threading parent ids around.
//! [`crate::par::par_map`] hands its pool jobs the caller's stack, so a
//! span opened on a worker nests under the span that fanned it out.

use crate::sync::lock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// `/`-joined hierarchy, e.g. `"plan/compile/allreduce"`.
    pub path: String,
    /// Start offset from the process telemetry epoch, microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small dense per-thread index (0 = first recording thread).
    pub thread: u64,
}

static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static THREAD_IDX: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Start a span; record it when the returned guard drops. When
/// telemetry is disabled this is a no-op costing one atomic load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::metrics::enabled() {
        return SpanGuard { live: None };
    }
    let path = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(name);
        s.join("/")
    });
    let ep = epoch();
    SpanGuard {
        live: Some(LiveSpan {
            path,
            start: Instant::now(),
            start_us: ep.elapsed().as_micros() as u64,
        }),
    }
}

struct LiveSpan {
    path: String,
    start: Instant,
    start_us: u64,
}

/// RAII guard returned by [`span`].
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let rec = SpanRecord {
            path: live.path,
            start_us: live.start_us,
            dur_us: live.start.elapsed().as_micros() as u64,
            thread: THREAD_IDX.with(|t| *t),
        };
        lock(&RECORDS).push(rec);
    }
}

/// The spans open on this thread, to hand to a pool job; `None` when
/// telemetry is off, so a disabled `par_map` copies nothing.
pub(crate) fn open() -> Option<Vec<&'static str>> {
    crate::metrics::enabled().then(|| STACK.with(|s| s.borrow().clone()))
}

/// Runs `f` with `open` as this thread's span stack, then restores the
/// one it had, also when `f` panics. With `None`, `f` runs on the
/// thread's own stack.
pub(crate) fn with_open<R>(open: Option<Vec<&'static str>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<&'static str>);
    impl Drop for Restore {
        fn drop(&mut self) {
            STACK.with(|s| *s.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let Some(open) = open else { return f() };
    let _restore = Restore(STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), open)));
    f()
}

/// Snapshot of all completed spans so far.
pub(crate) fn completed() -> Vec<SpanRecord> {
    lock(&RECORDS).clone()
}

/// Drop all recorded spans (used by `reset`).
pub(crate) fn clear() {
    lock(&RECORDS).clear();
}
