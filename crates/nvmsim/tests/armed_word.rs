//! The armed word of `nvmsim::latency` is process-wide, so this file is
//! its own test process and a single `#[test]`: every section below reads
//! the word with nothing else running.

use nvmsim::latency::{self, LatencyModel};
use nvmsim::metrics::{self, Counter};
use nvmsim::sched::{self, Scheduler};
use nvmsim::Region;
use std::sync::{Arc, Barrier, Mutex};

/// Flush, fence and empty flush; returns what the counters saw.
fn persistence_points() -> metrics::Snapshot {
    let before = metrics::snapshot();
    latency::clflush_range(0x10_0000 + 60, 130); // three lines
    latency::wbarrier();
    latency::clflush_range(0x10_0000, 0); // counted as nothing
    metrics::snapshot().delta(&before)
}

/// Two scheduled threads log their id and reach `point` twenty times
/// each; thread 1 first makes `unscheduled` flushes outside the schedule.
fn hand_offs(seed: u64, unscheduled: usize, point: fn()) -> Vec<usize> {
    let sched = Scheduler::new(seed, 2);
    let order = Arc::new(Mutex::new(Vec::new()));
    let all_unscheduled = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|tid| {
            let sched = sched.clone();
            let order = Arc::clone(&order);
            let all_unscheduled = Arc::clone(&all_unscheduled);
            std::thread::spawn(move || {
                for _ in 0..unscheduled * tid {
                    assert_eq!(latency::armed(), 0);
                    latency::clflush_range(0x10_0000, 8);
                }
                // Nobody enters the schedule before those are done.
                all_unscheduled.wait();
                sched.run(tid, || {
                    for _ in 0..20 {
                        order.lock().unwrap().push(tid);
                        point();
                    }
                })
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let order = order.lock().unwrap().clone();
    order
}

#[test]
fn armed_only_while_someone_listens() {
    assert_eq!(latency::armed(), 0, "a fresh process has no observer");

    // Latency model.
    let idle = persistence_points();
    assert_eq!(idle.get(Counter::ClflushCalls), 1);
    assert_eq!(idle.get(Counter::ClflushLines), 3);
    assert_eq!(idle.get(Counter::WbarrierCalls), 1);
    assert_eq!(idle.get(Counter::ClflushDelayNs), 0);
    latency::set_model(LatencyModel {
        wbarrier_ns: 300,
        clflush_ns: 100,
    });
    assert_ne!(latency::armed(), 0);
    let delayed = persistence_points();
    assert_eq!(latency::set_model(LatencyModel::OFF).wbarrier_ns, 300);
    assert_eq!(latency::armed(), 0, "set_model(OFF) disarms");
    // The armed path counts what the idle path counts, plus the delays
    // it actually waited.
    for c in [
        Counter::ClflushCalls,
        Counter::ClflushLines,
        Counter::WbarrierCalls,
    ] {
        assert_eq!(delayed.get(c), idle.get(c), "{}", c.name());
    }
    assert!(delayed.get(Counter::WbarrierDelayNs) >= 300);
    assert!(delayed.get(Counter::ClflushDelayNs) >= 300);

    // Shadow tracking: armed from enable_shadow until the last tracked
    // region goes away; events are numbered only in between.
    let region = Region::create(1 << 20).unwrap();
    assert_eq!(latency::armed(), 0);
    region.enable_shadow().unwrap();
    assert_ne!(latency::armed(), 0);
    let tracked = persistence_points();
    assert_eq!(tracked.get(Counter::ShadowFlushEvents), 1);
    assert_eq!(tracked.get(Counter::ShadowFenceEvents), 1);
    assert_eq!(tracked.get(Counter::ClflushLines), 3);
    region.close().unwrap();
    assert_eq!(latency::armed(), 0, "closing the tracked region disarms");
    assert_eq!(persistence_points().get(Counter::ShadowFenceEvents), 0);

    // Scheduler: armed inside run, disarmed by the unwind guard when the
    // closure panics.
    let sched = Scheduler::new(11, 1);
    let crashed = std::panic::catch_unwind(|| {
        sched.run(0, || {
            assert_ne!(latency::armed(), 0);
            latency::wbarrier();
            std::panic::panic_any("power loss");
        })
    });
    assert!(crashed.is_err() && sched.crashed());
    assert_eq!(latency::armed(), 0, "a panicking run disarms");
    assert_eq!(sched::current_thread(), None);

    // A thread whose first 1000 flushes took the idle path yields at the
    // first flush it makes inside a schedule: the hand-off order is the
    // seed's, whatever happened before `run` and whichever persistence
    // point is the yield.
    let by_yield = hand_offs(42, 0, sched::yield_point);
    let by_flush = hand_offs(42, 1000, || latency::clflush_range(0x10_0000, 8));
    let by_fence = hand_offs(42, 0, latency::wbarrier);
    assert_eq!(by_yield.len(), 40);
    assert!(
        by_yield.windows(2).filter(|w| w[0] != w[1]).count() > 4,
        "seed 42 interleaves the two threads: {by_yield:?}"
    );
    assert_eq!(by_flush, by_yield);
    assert_eq!(by_fence, by_yield);
    assert_eq!(latency::armed(), 0);
}
