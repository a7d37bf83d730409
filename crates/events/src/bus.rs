//! Run logs and the run scopes that record into them.
//!
//! An event emitted inside a run scope ([`record`]) is appended to that
//! run's [`RunLog`], on whichever thread it was emitted; its `seq` is
//! its index there, assigned under the log's lock, so a run's stream is
//! totally ordered and gap-free from 0. The log's sinks see each event
//! as it is appended. Outside every run scope nothing records.

use std::sync::{Arc, Mutex, OnceLock, TryLockError};
use std::time::Instant;

use heterog_telemetry::lock;
use heterog_telemetry::tally;

use crate::event::{Event, EventKind};
use crate::sink::EventSink;

/// The flight recorder's window: a dump holds a run's last this-many
/// events and counts the rest as dropped.
pub const DEFAULT_CAPACITY: usize = 16_384;

fn origin() -> &'static Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now)
}

/// What one run records: its events, numbered from 0 in the order they
/// were appended, and the sinks that see each event as it is appended.
/// A served job's log has no sinks; the CLI's has the `--events-out`
/// writer and the `--progress` renderer.
pub struct RunLog(Mutex<Entries>);

struct Entries {
    events: Vec<Event>,
    sinks: Vec<Box<dyn EventSink + Send>>,
}

impl Default for RunLog {
    fn default() -> Self {
        Self::new(Vec::new())
    }
}

impl RunLog {
    /// An empty log whose events also go to `sinks`, in `seq` order.
    pub fn new(sinks: Vec<Box<dyn EventSink + Send>>) -> Self {
        origin();
        RunLog(Mutex::new(Entries {
            events: Vec::new(),
            sinks,
        }))
    }

    /// Runs `f` over the events recorded so far.
    pub fn read<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        f(&lock(&self.0).events)
    }

    /// [`RunLog::read`] that never blocks, for a panic hook: while the
    /// log is locked (perhaps by the panicking thread) `f` sees no
    /// events. A lock poisoned by an earlier panic still counts as
    /// acquired.
    pub(crate) fn try_read<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        match self.0.try_lock() {
            Ok(entries) => f(&entries.events),
            Err(TryLockError::Poisoned(p)) => f(&p.into_inner().events),
            Err(TryLockError::WouldBlock) => f(&[]),
        }
    }

    /// Finishes every sink (flushing its output) once the run is over;
    /// later calls do nothing more.
    pub fn finish(&self) {
        let sinks = std::mem::take(&mut lock(&self.0).sinks);
        for mut s in sinks {
            s.finish();
        }
    }

    fn append(&self, ts: f64, kind: EventKind) {
        let mut entries = lock(&self.0);
        let Entries { events, sinks } = &mut *entries;
        let seq = events.len() as u64;
        events.push(Event { seq, ts, kind });
        let event = events.last().expect("just pushed");
        for s in sinks.iter_mut() {
            s.on_event(event);
        }
    }
}

/// The flight window over `events`: its last `capacity` events, and how
/// many came before them.
pub(crate) fn window(events: &[Event], capacity: usize) -> (&[Event], u64) {
    let dropped = events.len().saturating_sub(capacity);
    (&events[dropped..], dropped as u64)
}

/// Whether an event emitted here is recorded: a run scope is open on
/// this thread. One relaxed atomic load while no run scope is open
/// anywhere.
#[inline]
pub fn recording() -> bool {
    tally::recorder().is_some()
}

/// Runs `f` in a run scope ([`tally::run`]). Every event emitted inside
/// it, on this thread or in `par_map` items it started, is appended to
/// `log`.
pub fn record<R>(log: &Arc<RunLog>, f: impl FnOnce() -> R) -> R {
    tally::run(Arc::clone(log) as tally::Recorder, f)
}

/// Emits an event, constructing it lazily: when nothing records the
/// closure never runs, so hot paths pay one relaxed atomic load (and a
/// thread-local read while a run scope is open anywhere) and zero
/// allocations. This is the form every pipeline crate uses.
#[inline]
pub fn emit_with(f: impl FnOnce() -> EventKind) {
    if let Some(recorder) = tally::recorder() {
        let log: &RunLog = recorder.downcast_ref().expect("a run records into its log");
        log.append(origin().elapsed().as_secs_f64(), f());
    }
}

/// Emits an already-built event (cold paths, tests).
#[inline]
pub fn emit(kind: EventKind) {
    emit_with(|| kind);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(producer: u64, index: u64) -> EventKind {
        EventKind::Probe { producer, index }
    }

    #[test]
    fn disabled_bus_records_nothing_and_runs_no_closure() {
        let mut ran = false;
        emit_with(|| {
            ran = true;
            probe(0, 0)
        });
        assert!(!ran, "closure must not run outside a run scope");
        assert!(!recording());
    }

    #[test]
    fn events_flow_in_order_with_contiguous_seqs() {
        let log = Arc::new(RunLog::default());
        record(&log, || {
            for i in 0..5 {
                emit(probe(1, i));
            }
        });
        let events = log.read(<[Event]>::to_vec);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    /// The flight window keeps a run's newest events and counts exactly
    /// the older ones it leaves out.
    #[test]
    fn overflow_drops_oldest_and_counts_exactly() {
        let log = Arc::new(RunLog::default());
        record(&log, || {
            for i in 0..10 {
                emit(probe(0, i));
            }
        });
        log.read(|events| {
            let (kept, dropped) = window(events, 4);
            assert_eq!(dropped, 6);
            let seqs: Vec<u64> = kept.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![6, 7, 8, 9]);
            assert_eq!(window(events, 10).1, 0);
            assert_eq!(window(events, 16).0.len(), 10);
        });
    }

    /// A thread that panics while holding a run log's lock poisons it;
    /// the log keeps recording, as serve relies on when it catches a
    /// job's panic.
    #[test]
    fn a_poisoned_run_log_keeps_recording() {
        let log = Arc::new(RunLog::default());
        record(&log, || emit(probe(0, 0)));
        let poisoner = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let _entries = log.0.lock();
                panic!("poisoning the run log on purpose");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(log.0.is_poisoned());
        record(&log, || emit(probe(0, 1)));
        let seqs: Vec<u64> = log.read(|events| events.iter().map(|e| e.seq).collect());
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(log.try_read(<[Event]>::len), 2);
    }

    /// A run scope records its own events, numbered from 0, from its
    /// thread, its `par_map` items and counting scopes inside it.
    #[test]
    fn a_run_scope_records_its_own_events_from_0() {
        let log = Arc::new(RunLog::default());
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
        let log = log.read(<[Event]>::to_vec);
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
