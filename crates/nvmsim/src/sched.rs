//! Deterministic concurrent scheduler for multi-threaded crash schedules.
//!
//! The shadow tracker (PR 2) enumerates crash points of a *single-owner*
//! workload: events are flushes and fences, and `FaultPlan` captures an
//! image at the n-th one. With more than one mutator the event sequence —
//! and therefore what each crash image contains — depends on the OS
//! interleaving, so a failing cell would not replay. This module makes
//! the interleaving itself part of the test input:
//!
//! * worker threads run under a [`Scheduler`] that admits exactly **one
//!   runnable thread at a time** (token passing over a mutex/condvar);
//! * the token changes hands only at **yield points** — entry to
//!   [`crate::latency::wbarrier`] and [`crate::latency::clflush_range`],
//!   i.e. the instrumented persistence points where structure protocols
//!   issue their flushes and fences (lock-free CAS protocols always flush
//!   around their CASes, so these double as the CAS scheduling points);
//! * the next thread is picked by a seeded deterministic hash of the step
//!   number, so **a schedule is a seed**: running the same closures under
//!   the same seed replays the identical interleaving, event numbering,
//!   and (via [`Scheduler::trace`]) per-thread event attribution.
//!
//! Determinism is what makes the multi-threaded `FaultPlan` composition
//! work: `capture_all` under a seeded schedule enumerates every crash
//! point of *that* interleaving in one pass, and `abort_at_nth_event`
//! replays to the same global event. When an abort fires in one worker,
//! the panic is broadcast: sibling threads parked at yield points unwind
//! with [`ScheduleAborted`] so the whole scheduled run stops at the crash
//! point, like a real machine would.
//!
//! Threads not registered with a scheduler (the main thread, or any
//! workload outside a scheduled section) pass through yield points
//! untouched — the single-threaded crash matrices are unaffected. While
//! no thread at all is inside [`Scheduler::run`], persistence points do
//! not even call [`yield_point`]: `run` keeps a count of its threads in
//! the armed word of [`crate::latency`], the one word they test.
//!
//! # Yield suppression
//!
//! Allocator internals flush under the region's allocation lock (the
//! lock-free core's `grow()` formats bitmap pages while holding it). A
//! context switch there would deadlock the schedule: the parked thread
//! holds the std mutex the token holder needs. [`crate::region::Region`]
//! therefore wraps
//! its allocation entry points in [`with_yields_suppressed`]; suppressed
//! flushes still *count* as shadow events (they are real crash points)
//! but never change whose turn it is. The interleaving granularity is
//! thus "structure-protocol persistence points", which is what the
//! durable-linearizability harness wants to race anyway.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Panic payload delivered to sibling threads parked at a yield point
/// when another scheduled thread crashes (e.g. with
/// [`crate::CrashPointReached`]): the simulated machine lost power, so
/// every thread stops where it stands. Harnesses catch it with
/// `std::panic::catch_unwind` / `JoinHandle::join` and downcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleAborted;

impl std::fmt::Display for ScheduleAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scheduled run aborted by a sibling thread's crash")
    }
}

/// What kind of persistence event a [`SchedEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A `clflush_range` landing in the region.
    Flush,
    /// A `wbarrier` (ambient: one event per tracked region).
    Fence,
}

/// One attributed persistence event of a scheduled run: which registered
/// thread caused region `base`'s event number `event`. Events from
/// unregistered threads are not recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// The registered thread id that issued the flush/fence.
    pub thread: usize,
    /// Base address of the region whose event counter advanced.
    pub base: usize,
    /// The region-relative event number (as used by `FaultPlan`).
    pub event: u64,
    /// Flush or fence.
    pub kind: EventKind,
}

#[derive(Debug)]
struct State {
    /// Which thread ids have entered [`Scheduler::run`].
    started: Vec<bool>,
    /// Which thread ids have returned from their closure (or crashed).
    finished: Vec<bool>,
    /// How many threads have registered so far; the schedule begins when
    /// all `nthreads` are present.
    registered: usize,
    /// The currently runnable thread, if any.
    token: Option<usize>,
    /// Monotone count of scheduling decisions (seeds the next pick).
    step: u64,
    /// Set once any scheduled thread panics; everyone else unwinds.
    crashed: bool,
    /// Attributed persistence events, in global order.
    trace: Vec<SchedEvent>,
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    nthreads: usize,
    m: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    /// The scheduler this thread runs under, and its thread id.
    static CTX: RefCell<Option<(Arc<Inner>, usize)>> = const { RefCell::new(None) };
    /// Nesting depth of [`with_yields_suppressed`] sections.
    static SUPPRESS: Cell<u32> = const { Cell::new(0) };
}

fn lock<'a>(inner: &'a Inner) -> MutexGuard<'a, State> {
    inner.m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Picks the next runnable thread among the unfinished ones (possibly the
/// current one again), advancing the decision counter. `None` when every
/// thread has finished.
fn pick_next(inner: &Inner, s: &mut State) -> Option<usize> {
    let live: Vec<usize> = (0..inner.nthreads).filter(|&i| !s.finished[i]).collect();
    if live.is_empty() {
        return None;
    }
    s.step += 1;
    let idx = crate::shadow::splitmix64(inner.seed ^ s.step) as usize % live.len();
    Some(live[idx])
}

/// A seeded deterministic interleaving controller for `nthreads` worker
/// threads. See the module docs for the model; clone it into each worker
/// and call [`Scheduler::run`] with a distinct thread id.
#[derive(Debug, Clone)]
pub struct Scheduler {
    inner: Arc<Inner>,
}

impl Scheduler {
    /// Creates a scheduler for `nthreads` threads driven by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` is zero.
    pub fn new(seed: u64, nthreads: usize) -> Scheduler {
        assert!(nthreads >= 1, "a schedule needs at least one thread");
        Scheduler {
            inner: Arc::new(Inner {
                seed,
                nthreads,
                m: Mutex::new(State {
                    started: vec![false; nthreads],
                    finished: vec![false; nthreads],
                    registered: 0,
                    token: None,
                    step: 0,
                    crashed: false,
                    trace: Vec::new(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// The seed this schedule replays from.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Whether any scheduled thread has crashed (panicked).
    pub fn crashed(&self) -> bool {
        lock(&self.inner).crashed
    }

    /// The attributed persistence events recorded so far, in global
    /// order. Two runs of the same workload under the same seed produce
    /// identical traces — the determinism check harnesses assert on.
    pub fn trace(&self) -> Vec<SchedEvent> {
        lock(&self.inner).trace.clone()
    }

    /// Runs `f` as scheduled thread `tid`. Blocks until all `nthreads`
    /// threads have registered, then executes under the token-passing
    /// discipline: only while holding the token, yielding at instrumented
    /// persistence points.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range or used twice, if the calling
    /// thread is already registered with a scheduler, with
    /// [`ScheduleAborted`] if a sibling crashes first, or by propagating
    /// `f`'s own panic (after broadcasting the crash to siblings).
    pub fn run<T>(&self, tid: usize, f: impl FnOnce() -> T) -> T {
        let inner = &self.inner;
        assert!(
            tid < inner.nthreads,
            "thread id {tid} out of range (nthreads = {})",
            inner.nthreads
        );
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            assert!(
                c.is_none(),
                "this thread already runs under a scheduler (nested run)"
            );
            *c = Some((Arc::clone(inner), tid));
        });
        // From here this thread's persistence points must reach
        // `yield_point`: count it in the armed word they test.
        crate::latency::arm_scheduled_thread();
        // Clear the thread-local and the count even if `f` (or a wait)
        // panics, so the OS thread can be reused by an unrelated schedule
        // and unscheduled flushes go back to the idle path.
        struct CtxGuard;
        impl Drop for CtxGuard {
            fn drop(&mut self) {
                CTX.with(|c| *c.borrow_mut() = None);
                crate::latency::disarm_scheduled_thread();
            }
        }
        let _ctx = CtxGuard;
        {
            let mut s = lock(inner);
            assert!(!s.started[tid], "thread id {tid} registered twice");
            s.started[tid] = true;
            s.registered += 1;
            if s.registered == inner.nthreads {
                // Everyone is here: hand out the first token.
                s.token = pick_next(inner, &mut s);
            }
            inner.cv.notify_all();
            while s.token != Some(tid) && !s.crashed {
                s = inner.cv.wait(s).unwrap_or_else(|e| e.into_inner());
            }
            if s.crashed {
                drop(s);
                std::panic::panic_any(ScheduleAborted);
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let mut s = lock(inner);
        s.finished[tid] = true;
        match result {
            Ok(v) => {
                if s.token == Some(tid) {
                    s.token = pick_next(inner, &mut s);
                }
                inner.cv.notify_all();
                drop(s);
                v
            }
            Err(payload) => {
                // Power is gone for everyone: wake parked siblings into
                // their own ScheduleAborted unwind.
                s.crashed = true;
                s.token = None;
                inner.cv.notify_all();
                drop(s);
                std::panic::resume_unwind(payload)
            }
        }
    }
}

/// A scheduling point: if the calling thread runs under a [`Scheduler`]
/// (and yields are not suppressed), hand the token to a seeded-random
/// unfinished thread and park until it comes back. A no-op on
/// unregistered threads, so unscheduled workloads are untouched.
///
/// # Panics
///
/// Panics with [`ScheduleAborted`] when a sibling thread crashed while
/// this one was parked (or before it could yield).
#[inline]
pub fn yield_point() {
    // try_with: persistence points can fire from other TLS destructors
    // (e.g. one that frees a block on thread exit) after this
    // module's slots are gone; a dead slot means "unregistered thread".
    let Some((inner, tid)) = CTX.try_with(|c| c.borrow().clone()).ok().flatten() else {
        return;
    };
    if SUPPRESS.try_with(|s| s.get()).unwrap_or(0) > 0 {
        return;
    }
    let mut s = lock(&inner);
    if s.crashed {
        drop(s);
        std::panic::panic_any(ScheduleAborted);
    }
    if s.token != Some(tid) {
        // Defensive: only the token holder runs, but never wedge if an
        // unscheduled flush slips through.
        return;
    }
    s.token = pick_next(&inner, &mut s);
    inner.cv.notify_all();
    while s.token != Some(tid) && !s.crashed {
        s = inner.cv.wait(s).unwrap_or_else(|e| e.into_inner());
    }
    if s.crashed {
        drop(s);
        std::panic::panic_any(ScheduleAborted);
    }
}

/// Runs `f` with scheduler yields suppressed on this thread: persistence
/// points inside still count as shadow events but never pass the token.
/// Nests; used by [`crate::Region`] around allocator internals that flush
/// under the allocation lock (see the module docs).
pub fn with_yields_suppressed<T>(f: impl FnOnce() -> T) -> T {
    SUPPRESS.with(|s| s.set(s.get() + 1));
    struct SuppressGuard;
    impl Drop for SuppressGuard {
        fn drop(&mut self) {
            SUPPRESS.with(|s| s.set(s.get() - 1));
        }
    }
    let _guard = SuppressGuard;
    f()
}

/// The scheduled thread id of the calling thread, if it runs under a
/// [`Scheduler`].
pub fn current_thread() -> Option<usize> {
    CTX.with(|c| c.borrow().as_ref().map(|(_, tid)| *tid))
}

/// Attribution hook called by the shadow tracker when region `base`'s
/// event counter advances to `event` on this thread. Recorded only for
/// registered threads.
pub(crate) fn note_event(base: usize, event: u64, kind: EventKind) {
    let Some((inner, tid)) = CTX.with(|c| c.borrow().clone()) else {
        return;
    };
    lock(&inner).trace.push(SchedEvent {
        thread: tid,
        base,
        event,
        kind,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads repeatedly yield; the token hand-off order must be a
    /// pure function of the seed.
    fn interleaving(seed: u64) -> Vec<usize> {
        let sched = Scheduler::new(seed, 2);
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for tid in 0..2 {
                let sched = sched.clone();
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    sched.run(tid, || {
                        for _ in 0..20 {
                            order.lock().unwrap().push(tid);
                            yield_point();
                        }
                    })
                });
            }
        });
        Arc::try_unwrap(order).unwrap().into_inner().unwrap()
    }

    #[test]
    fn same_seed_same_interleaving() {
        let a = interleaving(42);
        let b = interleaving(42);
        assert_eq!(a, b, "a schedule is a seed");
        assert_eq!(a.len(), 40);
        assert!(a.contains(&0) && a.contains(&1));
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        // Not guaranteed for any single pair, but across a few seeds at
        // least one interleaving must deviate from seed 0's.
        let base = interleaving(0);
        assert!(
            (1..8).any(|s| interleaving(s) != base),
            "every seed produced the identical interleaving"
        );
    }

    #[test]
    fn only_one_thread_runs_at_a_time() {
        let sched = Scheduler::new(7, 3);
        let active = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for tid in 0..3 {
                let sched = sched.clone();
                let active = Arc::clone(&active);
                scope.spawn(move || {
                    sched.run(tid, || {
                        for _ in 0..50 {
                            let n = active.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            assert_eq!(n, 0, "two scheduled threads ran concurrently");
                            active.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                            yield_point();
                        }
                    })
                });
            }
        });
    }

    #[test]
    fn crash_broadcasts_to_parked_siblings() {
        #[derive(Debug)]
        struct Boom;
        let sched = Scheduler::new(3, 2);
        let results: Vec<Result<(), Box<dyn std::any::Any + Send>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|tid| {
                    let sched = sched.clone();
                    scope.spawn(move || {
                        sched.run(tid, move || {
                            for i in 0..10 {
                                yield_point();
                                if tid == 0 && i == 4 {
                                    std::panic::panic_any(Boom);
                                }
                            }
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        assert!(sched.crashed());
        let mut booms = 0;
        let mut aborted = 0;
        for r in results {
            match r {
                Err(p) if p.is::<Boom>() => booms += 1,
                Err(p) if p.is::<ScheduleAborted>() => aborted += 1,
                other => panic!("unexpected join result: {other:?}"),
            }
        }
        assert_eq!((booms, aborted), (1, 1));
    }

    #[test]
    fn suppression_keeps_the_token() {
        let sched = Scheduler::new(9, 2);
        let order = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            for tid in 0..2 {
                let sched = sched.clone();
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    sched.run(tid, || {
                        // Suppressed yields must not context-switch: the
                        // three pushes stay contiguous per thread.
                        with_yields_suppressed(|| {
                            for _ in 0..3 {
                                order.lock().unwrap().push(tid);
                                yield_point();
                            }
                        });
                    })
                });
            }
        });
        let order = Arc::try_unwrap(order).unwrap().into_inner().unwrap();
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], order[1]);
        assert_eq!(order[1], order[2]);
        assert_eq!(order[3], order[4]);
        assert_eq!(order[4], order[5]);
    }

    #[test]
    fn unregistered_threads_pass_through() {
        // No scheduler on this thread: yield points and suppression are
        // no-ops, current_thread is None.
        assert_eq!(current_thread(), None);
        yield_point();
        assert_eq!(with_yields_suppressed(|| 5), 5);
    }

    #[test]
    fn single_thread_schedule_runs_to_completion() {
        let sched = Scheduler::new(1, 1);
        let out = sched.run(0, || {
            for _ in 0..5 {
                yield_point();
            }
            17u32
        });
        assert_eq!(out, 17);
        assert!(!sched.crashed());
    }
}
