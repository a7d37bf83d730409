//! Counts scoped to one piece of work rather than to the process.
//!
//! [`tally`] opens a scope on the calling thread, runs a closure and
//! returns what the always-on counters ([`Counter::always`]) counted
//! while it ran. [`crate::par::par_map`] carries the caller's open
//! scopes onto the pool workers that run its items, so work fanned out
//! by the closure is counted too, while work that other threads run at
//! the same time is not. [`read`] and [`current`] give the innermost
//! open scope's counts, or the process-wide values when none is open.
//!
//! A *run scope* ([`run`]) also holds a [`Recorder`], found by
//! [`recorder`], which `heterog-events` records the scope's events into.

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::{registry, MetricRef};
use crate::snapshot::CounterSnapshot;
use crate::sync::lock;
use crate::Counter;

/// The always-on counters that counted in one scope, with their counts.
type Counts = Vec<CounterSnapshot>;

/// What a run scope records into. Opaque here: `heterog-events`
/// installs it and downcasts it back.
pub type Recorder = Arc<dyn Any + Send + Sync>;

/// One open scope: its counts and, for a run scope, its recorder.
pub(crate) struct Scope {
    counts: Mutex<Counts>,
    recorder: Option<Recorder>,
}

/// The scopes open on one thread, innermost last.
pub(crate) type Open = Vec<Arc<Scope>>;

thread_local! {
    static OPEN: RefCell<Open> = const { RefCell::new(Vec::new()) };
}

/// Run scopes open on any thread: while there are none, [`recorder`]
/// is one atomic load.
static RUNS: AtomicUsize = AtomicUsize::new(0);

/// What the always-on counters counted in one [`tally`] scope.
#[derive(Clone)]
pub struct Tally(Counts);

impl Tally {
    /// `c`'s count in this scope (0 for a gated counter).
    pub fn get(&self, c: &Counter) -> u64 {
        let counted = self.0.iter().find(|s| s.name == c.name);
        counted.map_or(0, |s| s.value)
    }
}

/// Runs `f` and returns its result with what the always-on counters
/// counted while it ran, on this thread or in `par_map` items it
/// started. Scopes nest: a count lands in every scope open around it.
pub fn tally<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    scoped(None, f)
}

/// Runs `f` in a run scope: a [`tally`] scope whose `recorder` is what
/// [`recorder`] finds on this thread and in `par_map` items it started.
pub fn run<R>(recorder: Recorder, f: impl FnOnce() -> R) -> R {
    scoped(Some(recorder), f).0
}

fn scoped<R>(recorder: Option<Recorder>, f: impl FnOnce() -> R) -> (R, Tally) {
    struct Close(bool);
    impl Drop for Close {
        fn drop(&mut self) {
            OPEN.with(|o| o.borrow_mut().pop());
            if self.0 {
                RUNS.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
    let run = recorder.is_some();
    let scope = Arc::new(Scope {
        counts: Mutex::default(),
        recorder,
    });
    OPEN.with(|o| o.borrow_mut().push(Arc::clone(&scope)));
    if run {
        RUNS.fetch_add(1, Ordering::Relaxed);
    }
    let close = Close(run);
    let r = f();
    drop(close);
    let counts = std::mem::take(&mut *lock(&scope.counts));
    (r, Tally(counts))
}

/// The recorder of the innermost run scope open on this thread, if any.
pub fn recorder() -> Option<Recorder> {
    if RUNS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    OPEN.with(|o| o.borrow().iter().rev().find_map(|s| s.recorder.clone()))
}

/// Adds `n` to `c`'s count in every scope open on this thread.
pub(crate) fn add(c: &Counter, n: u64) {
    OPEN.with(|o| {
        for scope in o.borrow().iter() {
            let mut counts = lock(&scope.counts);
            match counts.iter_mut().find(|s| s.name == c.name) {
                Some(s) => s.value += n,
                None => counts.push(c.snapshot(n)),
            }
        }
    });
}

/// The innermost scope open on this thread, if any.
fn innermost() -> Option<Tally> {
    OPEN.with(|o| o.borrow().last().map(|s| Tally(lock(&s.counts).clone())))
}

/// `c`'s count in the innermost scope open on this thread, or its
/// process-wide value when none is open.
pub fn read(c: &Counter) -> u64 {
    innermost().map_or_else(|| c.get(), |t| t.get(c))
}

/// The counts [`read`] gives for every always-on counter that counted,
/// sorted by name.
pub fn current() -> Vec<CounterSnapshot> {
    let mut out = innermost().map_or_else(
        || {
            lock(registry())
                .iter()
                .filter_map(|m| match m {
                    MetricRef::Counter(c) if c.always => Some(c.snapshot(c.get())),
                    _ => None,
                })
                .collect()
        },
        |t| t.0,
    );
    out.sort_by_key(|c| c.name);
    out
}

/// The scopes open on this thread, to hand to a pool job.
pub(crate) fn open() -> Open {
    OPEN.with(|o| o.borrow().clone())
}

/// Runs `f` with `open` as this thread's open scopes, then restores
/// the ones it had, also when `f` panics.
pub(crate) fn with_open<R>(open: Open, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Open>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                OPEN.with(|o| *o.borrow_mut() = prev);
            }
        }
    }
    let prev = OPEN.with(|o| std::mem::replace(&mut *o.borrow_mut(), open));
    let _restore = Restore(Some(prev));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::par_map;

    static A: Counter = Counter::always("heterog_test_tally_a_total", "test");
    static B: Counter = Counter::always("heterog_test_tally_b_total", "test");
    static GATED: Counter = Counter::new("heterog_test_tally_gated_total", "test");

    #[test]
    fn counts_adds_inside_only() {
        A.inc();
        let ((), t) = tally(|| {
            A.inc();
            A.add(2);
            B.inc();
        });
        A.inc();
        assert_eq!((t.get(&A), t.get(&B)), (3, 1));
    }

    #[test]
    fn nested_tallies_both_count() {
        let (inner, outer) = tally(|| {
            A.inc();
            tally(|| A.inc()).1
        });
        assert_eq!((inner.get(&A), outer.get(&A)), (1, 2));
    }

    #[test]
    fn gated_counters_do_not_count_in_scopes() {
        let ((), t) = tally(|| {
            GATED.inc();
            assert!(current().is_empty());
        });
        assert_eq!(t.get(&GATED), 0);
    }

    #[test]
    fn read_sees_the_innermost_scope() {
        tally(|| {
            B.add(4);
            let ((), _) = tally(|| {
                B.inc();
                assert_eq!(read(&B), 1);
                assert_eq!(read(&A), 0);
                let counts: Vec<_> = current().iter().map(|c| (c.name, c.value)).collect();
                assert_eq!(counts, [(B.name, 1)]);
            });
            assert_eq!(read(&B), 5);
        });
    }

    #[test]
    fn par_map_items_count_in_the_callers_tally() {
        let items: Vec<u64> = (0..300).collect();
        let (sum, t) = tally(|| {
            par_map(&items, |&x| {
                A.inc();
                x
            })
            .iter()
            .sum::<u64>()
        });
        assert_eq!(sum, 299 * 300 / 2);
        assert_eq!(t.get(&A), 300);
    }

    #[test]
    fn run_scopes_reach_par_map_items_through_counting_scopes() {
        let seen = |expect| {
            let items = [0u8; 64];
            let got = par_map(&items, |_| {
                recorder().and_then(|r| r.downcast_ref().copied())
            });
            assert!(got.iter().all(|&r| r == expect), "{got:?}");
        };
        seen(None);
        run(Arc::new(7u32), || {
            tally(|| seen(Some(7u32)));
            run(Arc::new(8u32), || seen(Some(8)));
            seen(Some(7));
        });
        seen(None);
    }

    #[test]
    fn concurrent_tallies_do_not_see_each_other() {
        let items: Vec<u64> = (0..200).collect();
        let run = || {
            tally(|| {
                for _ in 0..20 {
                    par_map(&items, |_| A.inc());
                }
            })
            .1
            .get(&A)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(run);
            let b = s.spawn(run);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), (4000, 4000));
    }
}
