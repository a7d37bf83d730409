//! Counts scoped to one piece of work rather than to the process.
//!
//! [`tally`] opens a count on the calling thread, runs a closure and
//! returns how many [`bump`]s landed while it ran. [`crate::par::par_map`]
//! carries the caller's open counts onto the pool workers that run its
//! items, so work fanned out by the closure is counted too, while work
//! that other threads run at the same time is not. This is what makes a
//! count such as "evaluations a repair ran" independent of whatever else
//! the process is doing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The counts open on one thread, innermost last.
pub(crate) type Open = Vec<Arc<AtomicU64>>;

thread_local! {
    static OPEN: RefCell<Open> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` and returns its result with the number of [`bump`]s made
/// while it ran, on this thread or by `par_map` items it started.
/// Tallies nest: a bump counts in every tally open around it.
pub fn tally<R>(f: impl FnOnce() -> R) -> (R, u64) {
    struct Close;
    impl Drop for Close {
        fn drop(&mut self) {
            OPEN.with(|o| o.borrow_mut().pop());
        }
    }
    let count = Arc::new(AtomicU64::new(0));
    OPEN.with(|o| o.borrow_mut().push(Arc::clone(&count)));
    let close = Close;
    let r = f();
    drop(close);
    (r, count.load(Ordering::Relaxed))
}

/// Adds one to every tally open on this thread; a no-op when none is.
pub fn bump() {
    OPEN.with(|o| {
        for count in o.borrow().iter() {
            count.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// The tallies open on this thread, to hand to a pool job.
pub(crate) fn open() -> Open {
    OPEN.with(|o| o.borrow().clone())
}

/// Runs `f` with `open` as this thread's open tallies, then restores
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

    #[test]
    fn counts_bumps_inside_only() {
        bump();
        let ((), n) = tally(|| {
            bump();
            bump();
        });
        bump();
        assert_eq!(n, 2);
    }

    #[test]
    fn nested_tallies_both_count() {
        let (inner, outer) = tally(|| {
            bump();
            tally(bump).1
        });
        assert_eq!((inner, outer), (1, 2));
    }

    #[test]
    fn par_map_items_count_in_the_callers_tally() {
        let items: Vec<u64> = (0..300).collect();
        let (sum, n) = tally(|| {
            par_map(&items, |&x| {
                bump();
                x
            })
            .iter()
            .sum::<u64>()
        });
        assert_eq!(sum, 299 * 300 / 2);
        assert_eq!(n, 300);
    }

    #[test]
    fn concurrent_tallies_do_not_see_each_other() {
        let items: Vec<u64> = (0..200).collect();
        let run = || {
            tally(|| {
                for _ in 0..20 {
                    par_map(&items, |_| bump());
                }
            })
            .1
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(run);
            let b = s.spawn(run);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), (4000, 4000));
    }
}
