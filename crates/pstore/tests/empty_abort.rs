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
    // set: batch + value; rollback: restored range + generation. The
    // flush of `used` after each append is gone: the entry is its own
    // commit record.
    assert_eq!(d.get(Counter::ClflushCalls), 4);
    // add_range's one batch fence, rollback's, truncate's. The fence
    // between the entry and `used` went with `used`.
    assert_eq!(d.get(Counter::WbarrierCalls), 3);

    // A committed transaction that logs its write set as one batch pays
    // one fence for the batch, whatever its size, plus commit's two.
    let before = metrics::snapshot();
    let mut tx = store.begin();
    for i in 0..3 {
        // SAFETY: words of the same 32-byte object.
        tx.log_range(unsafe { cell.add(i) } as usize, 8).unwrap();
    }
    tx.barrier();
    tx.barrier(); // nothing logged since: no second fence
    tx.commit();
    let d = metrics::snapshot().delta(&before);
    assert_eq!(d.get(Counter::UndoEntries), 3);
    // The batch as one span (parent: three entries + three `used`
    // flushes), the generation at truncate.
    assert_eq!(d.get(Counter::ClflushCalls), 2);
    // Batch, commit, truncate (parent: 3 × 2 + 2).
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    let image = shadow::persisted_view(region.base()).unwrap();
    let off = region.offset_of(cell as usize).unwrap() as usize;
    assert_eq!(
        image[off..off + 8],
        1u64.to_le_bytes(),
        "restore is durable"
    );
    region.close().unwrap();
}
