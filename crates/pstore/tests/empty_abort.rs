//! An aborted transaction that logged nothing does no persistence
//! traffic. The counters and the fence events are process-wide, so this
//! file is its own test process with a single `#[test]`: the deltas below
//! are exact because nothing else is flushing.

use nvmsim::metrics::{self, Counter};
use nvmsim::{shadow, Region};
use pstore::ObjectStore;

const TRAFFIC: [Counter; 5] = [
    Counter::ClflushCalls,
    Counter::ClflushLines,
    Counter::WbarrierCalls,
    Counter::ShadowFlushEvents,
    Counter::ShadowFenceEvents,
];

#[test]
fn empty_log_abort_issues_no_flush_and_no_fence() {
    let region = Region::create(1 << 20).unwrap();
    let store = ObjectStore::format(&region).unwrap();
    let cell = store.alloc(1, 32).unwrap().as_ptr() as *mut u64;
    // SAFETY: `cell` is a fresh 32-byte object.
    unsafe { cell.write(1) };
    region.enable_shadow().unwrap();

    let before = metrics::snapshot();
    let events = shadow::event_count_for(region.base());
    drop(store.begin());
    store.begin().abort();
    let d = metrics::snapshot().delta(&before);
    assert_eq!(d.get(Counter::TxBegins), 2);
    assert_eq!(d.get(Counter::TxAborts), 2);
    for c in TRAFFIC {
        assert_eq!(d.get(c), 0, "{} moved on an empty abort", c.name());
    }
    assert_eq!(shadow::event_count_for(region.base()), events);

    // An abort with something to undo still restores, flushes and
    // truncates durably.
    let before = metrics::snapshot();
    let mut tx = store.begin();
    // SAFETY: as above.
    unsafe { tx.set(cell, 2).unwrap() };
    drop(tx);
    let d = metrics::snapshot().delta(&before);
    // SAFETY: as above.
    assert_eq!(unsafe { cell.read() }, 1);
    assert_eq!(d.get(Counter::UndoEntries), 1);
    // set: entry + used + value; rollback: restored range + used.
    assert_eq!(d.get(Counter::ClflushCalls), 5);
    // append's two, rollback's, truncate's.
    assert_eq!(d.get(Counter::WbarrierCalls), 4);
    let image = shadow::persisted_view(region.base()).unwrap();
    let off = region.offset_of(cell as usize).unwrap() as usize;
    assert_eq!(
        image[off..off + 8],
        1u64.to_le_bytes(),
        "restore is durable"
    );
    region.close().unwrap();
}
