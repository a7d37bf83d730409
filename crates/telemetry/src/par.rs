//! The workspace's worker pool: [`par_map`] fans candidate evaluations
//! out over threads and returns the results in input order, so a
//! reduction over them (e.g. `Iterator::min_by`, which keeps the first
//! minimum on ties) is independent of thread scheduling.
//!
//! Work runs on a persistent pool of worker threads plus the calling
//! thread. Workers are spawned on first use and live as long as the
//! process, so thread-local scratch (the incremental evaluator's
//! simulator buffers) survives between calls. Items are claimed one at
//! a time from a shared counter and each result lands in its input
//! slot. A worker counts its items in the caller's open
//! [`crate::tally`]s and, when telemetry records, nests its spans under
//! the caller's open [`crate::span()`]s.
//!
//! The thread count, caller included, is `RAYON_NUM_THREADS` when set
//! to a positive integer (the variable's name is kept from the pool
//! this one replaced), else `std::thread::available_parallelism`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Threads a [`par_map`] call may use, the caller included.
fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-wide workers. They are never joined.
struct Pool {
    jobs: Mutex<Sender<Job>>,
}

thread_local! {
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 1..num_threads() {
            let rx: Arc<Mutex<Receiver<Job>>> = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("heterog-worker-{i}"))
                .spawn(move || {
                    IN_POOL.with(|p| p.set(true));
                    loop {
                        let job = rx.lock().expect("no job panics while receiving").recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => break,
                        }
                    }
                })
                .expect("spawn a pool worker");
        }
        Pool {
            jobs: Mutex::new(tx),
        }
    })
}

/// Counts outstanding helper jobs; shared by `Arc` so a finishing job
/// never touches memory its caller may already have freed.
#[derive(Default)]
struct Latch {
    state: Mutex<(usize, bool)>,
    done: Condvar,
}

impl Latch {
    fn add(&self) {
        self.state.lock().expect("latch lock").0 += 1;
    }

    fn finish(&self, panicked: bool) {
        let mut s = self.state.lock().expect("latch lock");
        s.0 -= 1;
        s.1 |= panicked;
        self.done.notify_all();
    }

    /// Blocks until every job finished; returns whether one panicked.
    fn wait(&self) -> bool {
        let mut s = self.state.lock().expect("latch lock");
        while s.0 > 0 {
            s = self.done.wait(s).expect("latch lock");
        }
        s.1
    }
}

/// Waits for the helper jobs when dropped, also during unwinding.
struct WaitOnDrop(Arc<Latch>);

impl Drop for WaitOnDrop {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// `f` applied to every item, results in input order.
///
/// A call made from inside a pool job runs serially: waiting on the
/// pool from one of its own workers could deadlock.
///
/// # Panics
/// When `f` panics on any item, once every worker has stopped using
/// `items` and `f`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let nested = IN_POOL.with(|p| p.get());
    let helpers = if nested {
        0
    } else {
        (num_threads() - 1).min(items.len().saturating_sub(1))
    };
    if helpers == 0 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let r = f(item);
        *slots[i].lock().expect("a result slot is written once") = Some(r);
    };
    let latch = Arc::new(Latch::default());
    let open = crate::tally::open();
    let spans = crate::span::open();
    let panicked = {
        let guard = WaitOnDrop(Arc::clone(&latch));
        let work = &work;
        for _ in 0..helpers {
            let done = Arc::clone(&latch);
            let open = open.clone();
            let spans = spans.clone();
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let panicked = crate::span::with_open(spans, || {
                    crate::tally::with_open(open, || catch_unwind(AssertUnwindSafe(work)).is_err())
                });
                done.finish(panicked);
            });
            // SAFETY: the job borrows `work`, and through it `items`, `f`,
            // `next` and `slots`, all owned by this stack frame. The frame
            // cannot return or unwind past `guard` before `Latch::wait`
            // sees every job call `finish`, which each job does exactly
            // once (panics are caught first) and after its last use of the
            // borrowed data; the latch itself is reference-counted. So no
            // borrow outlives its referent, and erasing the lifetime to
            // hand the job to a pool thread is sound.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            latch.add();
            let sent = pool().jobs.lock().expect("pool sender lock").send(job);
            if sent.is_err() {
                latch.finish(false);
                panic!("the pool workers have exited");
            }
        }
        let caller_panicked = catch_unwind(AssertUnwindSafe(work)).is_err();
        drop(guard);
        latch.wait() || caller_panicked
    };
    assert!(!panicked, "a parallel job panicked");
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a result slot is written once")
                .expect("every item is claimed before the jobs finish")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let v: Vec<u64> = (0..200).collect();
        let out = par_map(&v, |x| x * 3);
        assert_eq!(out, (0..200).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_run_serially() {
        let outer: Vec<u64> = (0..8).collect();
        let sums = par_map(&outer, |&i| {
            let inner: Vec<u64> = (0..i).collect();
            par_map(&inner, |x| x + 1).iter().sum::<u64>()
        });
        assert_eq!(sums, (0..8u64).map(|i| i * (i + 1) / 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "a parallel job panicked")]
    fn a_panicking_item_propagates() {
        let v: Vec<u64> = (0..64).collect();
        par_map(&v, |&x| if x == 40 { panic!("boom") } else { x });
    }

    #[test]
    fn min_by_over_the_results_keeps_the_first_minimum() {
        let mut items: Vec<(u32, usize)> = (0..1000).map(|i| ((i % 7 + 3) as u32, i)).collect();
        for i in [400, 17, 999, 250] {
            items[i].0 = 1;
        }
        let best = par_map(&items, |&(key, index)| (key, index))
            .into_iter()
            .min_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(best, Some((1, 17)));
    }
}
