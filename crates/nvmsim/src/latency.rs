//! Software NVM latency emulation (substitution S2 in DESIGN.md).
//!
//! The paper's evaluation ran on Intel PMEP, which injects configurable
//! latency on loads/stores to the emulated NVM range and models a 115 ns
//! write barrier. Per-load injection is impossible in software without
//! instrumenting exactly the instructions under study, so this module only
//! emulates the *explicit* persistence points — `clflush`-style cache-line
//! flushes and write barriers — which is where PMEP latencies bit in the
//! paper's transactional experiments.
//!
//! Delays are deadline busy-waits on the monotonic clock: a requested
//! 115 ns barrier spins until at least 115 ns have passed, and the
//! **achieved** time is what `wbarrier_delay_ns`/`clflush_delay_ns`
//! record, so a report can show the emulation error next to the request.
//!
//! # The armed word
//!
//! Three observers can hang off a persistence point: the seeded scheduler
//! ([`crate::sched`]) yields there, the shadow tracker ([`crate::shadow`])
//! numbers it as a crash point, and the latency model delays it. Whether
//! any of them is listening is one process-wide word:
//!
//! | field | set while | changed by |
//! |---|---|---|
//! | `ARMED_SHADOW` | a shadow tracker is registered | `shadow::register` / `unregister_rid` |
//! | `ARMED_DELAY` | the installed model is non-zero | [`set_model`] |
//! | bits `ARMED_SCHED_SHIFT`.. | count of threads inside `Scheduler::run` | `run` entry / its unwind guard |
//!
//! [`wbarrier`], [`clflush_range`] and [`crate::shadow::track_store`]
//! read it once, `Relaxed`. **`armed == 0` ⇒ a persistence point is the
//! fence, the line count and two plain stores** (the owner-written
//! counters of [`crate::metrics`]): no TLS lookup beyond the counter
//! block pointer, no call, no `lock` prefix besides the fence itself.
//! Non-zero falls into a `#[cold]` function that runs the full sequence
//! in a fixed order — yield → fence → shadow event → count → delay — so
//! crash-point numbering and schedule traces do not depend on which
//! observer armed the word. `scripts/check_flush_codegen.sh` holds the
//! idle path to that in the release build.

use crate::metrics::{self, Counter};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Latency parameters of the emulated NVM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cost of a write barrier (`wbarrier`), in nanoseconds. The paper's
    /// experiments configured PMEP to 115 ns.
    pub wbarrier_ns: u64,
    /// Cost of flushing one cache line to the device, in nanoseconds
    /// (PMEP's "optimized clflush").
    pub clflush_ns: u64,
}

impl LatencyModel {
    /// The configuration used in the paper's experiments.
    pub const PAPER: LatencyModel = LatencyModel {
        wbarrier_ns: 115,
        clflush_ns: 40,
    };

    /// No injected latency (default): measure pure software overheads.
    pub const OFF: LatencyModel = LatencyModel {
        wbarrier_ns: 0,
        clflush_ns: 0,
    };
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::OFF
    }
}

static WBARRIER_NS: AtomicU64 = AtomicU64::new(0);
static CLFLUSH_NS: AtomicU64 = AtomicU64::new(0);

/// Armed-word bit: shadow tracking is enabled.
pub(crate) const ARMED_SHADOW: u32 = 1;
/// Armed-word bit: the latency model injects a non-zero delay.
pub(crate) const ARMED_DELAY: u32 = 2;
/// The armed word's bits from here up count the threads inside
/// `Scheduler::run`.
pub(crate) const ARMED_SCHED_SHIFT: u32 = 2;

static ARMED: AtomicU32 = AtomicU32::new(0);

/// The armed word (see the module docs): zero while no scheduler, shadow
/// tracker or latency model observes persistence points.
///
/// The load is `Relaxed` because the word publishes nothing: observers
/// find their state under their own locks, and a thread that arms the
/// word and then reaches a persistence point sees its own store.
#[inline]
pub fn armed() -> u32 {
    ARMED.load(Ordering::Relaxed)
}

pub(crate) fn arm(bit: u32) {
    ARMED.fetch_or(bit, Ordering::SeqCst);
}

pub(crate) fn disarm(bit: u32) {
    ARMED.fetch_and(!bit, Ordering::SeqCst);
}

/// A thread entered `Scheduler::run`.
pub(crate) fn arm_scheduled_thread() {
    ARMED.fetch_add(1 << ARMED_SCHED_SHIFT, Ordering::SeqCst);
}

/// A thread left `Scheduler::run` (returned or unwound).
pub(crate) fn disarm_scheduled_thread() {
    ARMED.fetch_sub(1 << ARMED_SCHED_SHIFT, Ordering::SeqCst);
}

/// Installs a latency model process-wide. Returns the previous model.
pub fn set_model(m: LatencyModel) -> LatencyModel {
    // Serialised so the armed bit always matches the model last stored.
    static INSTALL: Mutex<()> = Mutex::new(());
    let _guard = INSTALL.lock().unwrap_or_else(|e| e.into_inner());
    let prev = model();
    WBARRIER_NS.store(m.wbarrier_ns, Ordering::Relaxed);
    CLFLUSH_NS.store(m.clflush_ns, Ordering::Relaxed);
    if m == LatencyModel::OFF {
        disarm(ARMED_DELAY);
    } else {
        arm(ARMED_DELAY);
    }
    prev
}

/// The currently installed latency model.
pub fn model() -> LatencyModel {
    LatencyModel {
        wbarrier_ns: WBARRIER_NS.load(Ordering::Relaxed),
        clflush_ns: CLFLUSH_NS.load(Ordering::Relaxed),
    }
}

/// Busy-waits until at least `ns` nanoseconds have passed on the
/// monotonic clock and returns how long it actually waited. A no-op
/// returning 0 for `ns == 0`.
pub fn delay_ns(ns: u64) -> u64 {
    if ns == 0 {
        return 0;
    }
    let start = Instant::now();
    loop {
        let waited = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if waited >= ns {
            return waited;
        }
        std::hint::spin_loop();
    }
}

/// Emulates a write barrier: orders prior NVM stores and pays the
/// configured `wbarrier` latency.
#[inline]
pub fn wbarrier() {
    if armed() != 0 {
        return wbarrier_armed();
    }
    std::sync::atomic::fence(Ordering::SeqCst);
    metrics::incr(Counter::WbarrierCalls);
}

#[cold]
#[inline(never)]
fn wbarrier_armed() {
    // Scheduling point: under a seeded `crate::sched` schedule, the
    // interleaving can change hands here, *before* the event is counted.
    crate::sched::yield_point();
    std::sync::atomic::fence(Ordering::SeqCst);
    crate::shadow::on_fence();
    metrics::incr(Counter::WbarrierCalls);
    let ns = WBARRIER_NS.load(Ordering::Relaxed);
    if ns != 0 {
        metrics::add(Counter::WbarrierDelayNs, delay_ns(ns));
    }
}

/// Number of cache lines covering the nonempty range `[addr, addr+len)`.
#[inline]
fn lines_covering(addr: usize, len: usize) -> u64 {
    let first = addr & !63;
    let last = (addr + len - 1) & !63;
    ((last - first) / 64 + 1) as u64
}

/// Persists a store to `[addr, addr+len)`: tracks it for the shadow
/// tracker ([`crate::shadow::track_store`]), then flushes its lines. It
/// becomes durable at the next [`wbarrier`]; under fault injection, a
/// store that skips this call stays volatile and is lost at the crash
/// image.
#[inline]
pub fn persist(addr: usize, len: usize) {
    crate::shadow::track_store(addr, len);
    clflush_range(addr, len);
}

/// Emulates flushing the cache lines covering `[addr, addr+len)` to the
/// device: pays the configured per-line flush latency.
#[inline]
pub fn clflush_range(addr: usize, len: usize) {
    if armed() != 0 {
        return clflush_range_armed(addr, len);
    }
    if len == 0 {
        return;
    }
    metrics::incr(Counter::ClflushCalls);
    metrics::add(Counter::ClflushLines, lines_covering(addr, len));
}

#[cold]
#[inline(never)]
fn clflush_range_armed(addr: usize, len: usize) {
    // Scheduling point, like `wbarrier`.
    crate::sched::yield_point();
    crate::shadow::on_flush(addr, len);
    if len == 0 {
        return;
    }
    let lines = lines_covering(addr, len);
    metrics::incr(Counter::ClflushCalls);
    metrics::add(Counter::ClflushLines, lines);
    let per_line = CLFLUSH_NS.load(Ordering::Relaxed);
    if per_line != 0 {
        metrics::add(Counter::ClflushDelayNs, delay_ns(per_line * lines));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` under model `m`. The model is process-wide and tests run
    /// on parallel threads, so the tests that install one take turns.
    fn with_model<T>(m: LatencyModel, f: impl FnOnce() -> T) -> T {
        static TURN: Mutex<()> = Mutex::new(());
        let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
        let prev = set_model(m);
        let out = f();
        set_model(prev);
        out
    }

    #[test]
    fn default_model_is_off() {
        assert_eq!(LatencyModel::default(), LatencyModel::OFF);
    }

    #[test]
    fn set_model_roundtrips_and_arms_the_delay_bit() {
        with_model(LatencyModel::PAPER, || {
            assert_eq!(model(), LatencyModel::PAPER);
            assert_ne!(armed() & ARMED_DELAY, 0);
        });
        with_model(LatencyModel::OFF, || {
            assert_eq!(armed() & ARMED_DELAY, 0);
        });
    }

    #[test]
    fn delay_roughly_matches_request() {
        // Properties that hold however loaded the host is: a delay never
        // returns early, reports no more than the caller can observe, and
        // a 2 ms request outlasts a 200 us one.
        for request in [200_000, 2_000_000] {
            let t0 = Instant::now();
            let achieved = delay_ns(request);
            let observed = t0.elapsed().as_nanos() as u64;
            assert!(
                achieved >= request,
                "{request} ns request waited {achieved} ns"
            );
            assert!(
                observed >= achieved,
                "reported {achieved} ns of {observed} ns"
            );
        }
        assert_eq!(delay_ns(0), 0);
    }

    #[test]
    fn clflush_counts_cache_lines() {
        let model = LatencyModel {
            wbarrier_ns: 0,
            clflush_ns: 10_000,
        };
        let d = with_model(model, || {
            let before = metrics::snapshot();
            // 3 lines: [60, 190) touches lines 0, 1, 2.
            clflush_range(60, 130);
            metrics::snapshot().delta(&before)
        });
        assert!(d.get(Counter::ClflushLines) >= 3);
        assert!(
            d.get(Counter::ClflushDelayNs) >= 30_000,
            "three lines at 10 us each recorded {} ns",
            d.get(Counter::ClflushDelayNs)
        );
    }

    #[test]
    fn recorded_delay_is_the_achieved_one_from_the_first_call() {
        // A deadline wait has no first-call state to warm up, and the
        // counter holds what was waited, not what was asked for: from the
        // first barrier on, never less than the request.
        let model = LatencyModel {
            wbarrier_ns: 50_000,
            clflush_ns: 0,
        };
        let recorded: Vec<u64> = with_model(model, || {
            (0..4)
                .map(|_| {
                    let before = metrics::snapshot();
                    wbarrier();
                    let d = metrics::snapshot().delta(&before);
                    d.get(Counter::WbarrierDelayNs)
                })
                .collect()
        });
        assert!(
            recorded.iter().all(|&ns| ns >= 50_000),
            "achieved delays {recorded:?} for a 50 us barrier"
        );
    }

    #[test]
    fn zero_latency_paths_are_cheap() {
        let d = with_model(LatencyModel::OFF, || {
            let t0 = Instant::now();
            for _ in 0..10_000 {
                wbarrier();
                clflush_range(0x1000, 256);
            }
            t0.elapsed()
        });
        assert!(d.as_millis() < 500, "off model must not spin");
    }
}
