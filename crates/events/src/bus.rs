//! The global bounded event bus, and the run scopes that bypass it.
//!
//! An event emitted inside a run scope ([`record`]) is appended to that
//! run's own log and never reaches the ring. Unscoped emitters [`emit`]
//! into one fixed-capacity ring under a `std::sync::Mutex`, while it is
//! enabled; sequence numbers are assigned under the same lock, so the
//! stream is totally ordered and gap-free. A full ring drops (and
//! counts) its oldest event — the hot path never blocks on a slow
//! subscriber. Consumers poll cursor-based [`Subscription`]s, which
//! report exactly how many events they missed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, TryLockError};
use std::time::Instant;

use heterog_telemetry::lock;
use heterog_telemetry::tally;

use crate::event::{Event, EventKind};

/// Default ring capacity: the flight recorder's last-N window. Sized so
/// a full RL training run's episode events fit, while bounding memory
/// to a few MiB even under per-evaluation emission storms.
pub const DEFAULT_CAPACITY: usize = 16_384;

struct Ring {
    buf: VecDeque<Event>,
    next_seq: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static RING: Mutex<Ring> = Mutex::new(Ring {
    buf: VecDeque::new(),
    next_seq: 0,
});

fn origin() -> &'static Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now)
}

/// Turn the bus on with [`DEFAULT_CAPACITY`].
pub fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// Turn the bus on with an explicit ring capacity (minimum 1). The
/// capacity doubles as the flight recorder's last-N window.
pub fn enable_with_capacity(capacity: usize) {
    origin();
    CAPACITY.store(capacity.max(1), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the bus off (the default). Unscoped emissions then record
/// nothing; the ring keeps its contents for late drains/flight dumps.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether an event emitted here is recorded: a run scope is open on
/// this thread, or the ring is enabled.
#[inline]
pub fn recording() -> bool {
    ENABLED.load(Ordering::Relaxed) || tally::recorder().is_some()
}

/// Runs `f` in a run scope ([`tally::run`]). Every event emitted inside
/// it, on this thread or in `par_map` items it started, is appended to
/// `log` with `seq` its index there.
pub fn record<R>(log: &Arc<Mutex<Vec<Event>>>, f: impl FnOnce() -> R) -> R {
    tally::run(Arc::clone(log) as tally::Recorder, f)
}

/// Emits an event, constructing it lazily: when nothing records the
/// closure never runs, so hot paths pay two relaxed atomic loads (and a
/// thread-local read while a run scope is open anywhere) and zero
/// allocations. This is the form every pipeline crate uses.
#[inline]
pub fn emit_with(f: impl FnOnce() -> EventKind) {
    if recording() {
        emit_now(f());
    }
}

/// Emits an already-built event (cold paths, tests).
#[inline]
pub fn emit(kind: EventKind) {
    emit_with(|| kind);
}

fn emit_now(kind: EventKind) {
    let ts = origin().elapsed().as_secs_f64();
    if let Some(recorder) = tally::recorder() {
        let log: &Mutex<Vec<Event>> = recorder.downcast_ref().expect("a run records into its log");
        let mut log = lock(log);
        let seq = log.len() as u64;
        log.push(Event { seq, ts, kind });
        return;
    }
    let capacity = CAPACITY.load(Ordering::Relaxed);
    let mut ring = lock(&RING);
    let seq = ring.next_seq;
    ring.next_seq += 1;
    ring.buf.push_back(Event { seq, ts, kind });
    while ring.buf.len() > capacity {
        ring.buf.pop_front();
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Events dropped to ring overflow since the last [`reset`]. Exactly
/// `max(0, emitted - capacity - consumed_by_nobody)` — the ring drops
/// oldest-first and counts each overwritten event once.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Total events ever emitted (= the next sequence number).
pub fn emitted() -> u64 {
    lock(&RING).next_seq
}

/// Clears the ring, sequence counter, and dropped counter, and disables
/// the bus. For tests and benchmarks — the bus is process-global.
pub fn reset() {
    disable();
    let mut ring = lock(&RING);
    ring.buf.clear();
    ring.next_seq = 0;
    DROPPED.store(0, Ordering::Relaxed);
}

/// A copy of the ring's current contents (oldest first) plus the
/// dropped-events counter — the flight recorder's last-N window. Uses
/// `try_lock` so it is safe to call from a panic hook: if the ring lock
/// is held by the panicking thread, returns an empty window rather than
/// deadlocking. A lock poisoned by an earlier panic still counts as
/// acquired.
pub fn snapshot_ring() -> (Vec<Event>, u64) {
    let ring = match RING.try_lock() {
        Ok(ring) => ring,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => return (Vec::new(), DROPPED.load(Ordering::Relaxed)),
    };
    (
        ring.buf.iter().cloned().collect(),
        DROPPED.load(Ordering::Relaxed),
    )
}

/// A polling cursor over the stream. Independent subscriptions see the
/// same events; a subscription that polls too slowly misses ring-
/// overflowed events and is told exactly how many.
#[derive(Debug)]
pub struct Subscription {
    next: u64,
}

/// Subscribes starting at the oldest event still in the ring (so a
/// subscriber attached right after [`enable`] sees everything).
pub fn subscribe() -> Subscription {
    let ring = lock(&RING);
    Subscription {
        next: ring.buf.front().map(|e| e.seq).unwrap_or(ring.next_seq),
    }
}

impl Subscription {
    /// Every event at or past this cursor (oldest first), and how many
    /// were missed because the ring overflowed past the cursor. Advances
    /// the cursor past them.
    pub fn poll(&mut self) -> (Vec<Event>, u64) {
        let ring = lock(&RING);
        let oldest = ring.buf.front().map(|e| e.seq).unwrap_or(ring.next_seq);
        let gap = oldest.saturating_sub(self.next);
        let skip = self.next.saturating_sub(oldest) as usize;
        let events = ring.buf.iter().skip(skip).cloned().collect();
        self.next = ring.next_seq;
        (events, gap)
    }
}

#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(producer: u64, index: u64) -> EventKind {
        EventKind::Probe { producer, index }
    }

    #[test]
    fn disabled_bus_records_nothing_and_runs_no_closure() {
        let _g = lock(&TEST_LOCK);
        reset();
        let mut ran = false;
        emit_with(|| {
            ran = true;
            probe(0, 0)
        });
        assert!(!ran, "closure must not run while disabled");
        assert_eq!(emitted(), 0);
        assert_eq!(dropped(), 0);
    }

    #[test]
    fn events_flow_in_order_with_contiguous_seqs() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        let mut sub = subscribe();
        for i in 0..5 {
            emit(probe(1, i));
        }
        let (events, gap) = sub.poll();
        reset();
        assert_eq!(gap, 0);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn overflow_drops_oldest_and_counts_exactly() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable_with_capacity(4);
        for i in 0..10 {
            emit(probe(0, i));
        }
        let (events, d) = snapshot_ring();
        assert_eq!(d, 6);
        assert_eq!(dropped(), 6);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);

        // A subscriber attached at seq 0 sees the gap.
        let mut sub = Subscription { next: 0 };
        let (got, gap) = sub.poll();
        reset();
        assert_eq!(gap, 6);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].seq, 6);
    }

    #[test]
    fn late_subscriber_only_sees_the_future_after_draining() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        emit(probe(0, 0));
        let mut early = subscribe();
        assert_eq!(early.poll().0.len(), 1);
        // After the drain, a new poll sees nothing until a new emit.
        assert_eq!(early.poll().0.len(), 0);
        emit(probe(0, 1));
        let (events, gap) = early.poll();
        reset();
        assert_eq!(gap, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable_with_capacity(2);
        for i in 0..5 {
            emit(probe(0, i));
        }
        reset();
        assert!(!recording());
        assert_eq!(emitted(), 0);
        assert_eq!(dropped(), 0);
        assert!(snapshot_ring().0.is_empty());
    }

    /// A thread that panics while holding the ring lock poisons it; the
    /// bus keeps working, as serve relies on when it catches a job's
    /// panic.
    #[test]
    fn a_poisoned_ring_lock_keeps_the_bus_working() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        let poisoner = std::thread::spawn(|| {
            let _ring = RING.lock();
            panic!("poisoning the ring lock on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(RING.is_poisoned());
        emit(probe(0, 0));
        emit(probe(0, 1));
        assert_eq!(emitted(), 2);
        let (window, dropped) = snapshot_ring();
        reset();
        RING.clear_poison();
        let seqs: Vec<u64> = window.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(dropped, 0);
    }

    /// A run scope records its own events, numbered from 0, from its
    /// thread, its `par_map` items and counting scopes inside it. It
    /// takes no bus lock: whether another test has the ring enabled
    /// does not matter to a scope.
    #[test]
    fn a_run_scope_records_its_own_events_from_0() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let items: Vec<u64> = (0..50).collect();
        record(&log, || {
            assert!(recording());
            emit(probe(0, 0));
            tally::tally(|| {
                heterog_telemetry::par::par_map(&items, |&i| emit(probe(1, i)));
            });
            emit_with(|| probe(0, 1));
        });
        assert!(tally::recorder().is_none(), "the scope closed");
        let log = lock(&log);
        let seqs: Vec<u64> = log.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..52).collect::<Vec<u64>>());
        let mut fanned: Vec<u64> = log[1..51]
            .iter()
            .map(|e| match e.kind {
                EventKind::Probe { producer: 1, index } => index,
                ref other => panic!("{other:?}"),
            })
            .collect();
        fanned.sort_unstable();
        assert_eq!(fanned, items);
        assert_eq!((&log[0].kind, &log[51].kind), (&probe(0, 0), &probe(0, 1)));
    }

    /// The "metrics-grade disabled cost" property: 10M disabled emits in
    /// well under a second.
    #[test]
    fn disabled_emit_overhead_is_negligible() {
        let _g = lock(&TEST_LOCK);
        reset();
        let start = Instant::now();
        for i in 0..10_000_000u64 {
            emit_with(|| probe(0, std::hint::black_box(i)));
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_secs_f64() < 1.0,
            "10M disabled emits took {elapsed:?}; must be ~1 atomic load each"
        );
    }
}
