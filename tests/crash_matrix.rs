//! Crash-consistency matrix: deterministic crash-point enumeration over
//! transactional data-structure workloads.
//!
//! Each cell of the matrix runs one structure (list / bst / hashset /
//! trie) under one position-independent representation (off-holder, RIV,
//! cached fat pointer) through a fixed insert+delete workload of pstore
//! transactions, with a [`FaultPlan`] capturing a faulted crash image at
//! *every* flush/fence event. Every image is then recovered through a
//! remapped reopen and checked against the committed-prefix model — the
//! one enumeration in `tests/util` ([`util::enumerate`]). Both fault
//! policies (drop-unflushed and word-granularity tearing) are exercised,
//! plus the raw undo log over a plain-cell workload (no `Tx`),
//! abort-mode crash points, flush-omission detection, and re-interrupted
//! recovery.
//!
//! Seed, replay tag, serial lock and scratch directories come from the
//! shared [`util::Matrix`] (`MATRIX_SEED`, `MATRIX_ARTIFACT_DIR`).

use nvm_pi::nvmsim::{inspect, shadow};
use nvm_pi::pstore::ObjectStore;
use nvm_pi::{
    CapturedCrash, CrashPointReached, FatPtrCached, FaultPlan, FaultPolicy, OffHolder, PBst,
    PHashSet, PList, PTrie, Region, Riv,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use util::Op::{self, Insert, Remove};
use util::{enumerate, RawLog, Subject, Tx};

mod util;

static M: util::Matrix = util::Matrix::new("crash_matrix", 0x5EED_1234);

const LOG_CAP: u64 = 32 << 10;
const N_OPS: usize = 6;

/// One cell: the committed-prefix enumeration, without a dlin history.
fn cell<S: Subject>(label: &str, policy: FaultPolicy, ops: &[Op<S::Key>]) {
    enumerate::<S>(&M, label, policy, &[], ops, false);
}

/// One structure's cells: every position-independent representation
/// under both policies, full enumeration each.
macro_rules! cells {
    ($structure:ident, $label:literal, $ops:expr) => {
        for policy in M.policies() {
            cell::<Tx<$structure<OffHolder, 32>>>(concat!($label, "-off"), policy, $ops);
            cell::<Tx<$structure<Riv, 32>>>(concat!($label, "-riv"), policy, $ops);
            cell::<Tx<$structure<FatPtrCached, 32>>>(concat!($label, "-fat"), policy, $ops);
        }
    };
}

#[test]
fn crash_matrix_list() {
    let _g = M.lock();
    // push 10, 20, 30; remove 20; push 40; remove 10 (front-order keys).
    let ops = [
        Insert(10),
        Insert(20),
        Insert(30),
        Remove(20),
        Insert(40),
        Remove(10),
    ];
    cells!(PList, "list", &ops);
}

#[test]
fn crash_matrix_bst() {
    let _g = M.lock();
    cells!(PBst, "bst", &util::BST_OPS);
}

#[test]
fn crash_matrix_hashset() {
    let _g = M.lock();
    // insert 1, 2, 3; remove 2; insert 4; remove 1 (sorted keys).
    let ops = [
        Insert(1),
        Insert(2),
        Insert(3),
        Remove(2),
        Insert(4),
        Remove(1),
    ];
    cells!(PHashSet, "hashset", &ops);
}

#[test]
fn crash_matrix_trie() {
    let _g = M.lock();
    // Contents vector: [count(cat), count(car), count(do), word total].
    cells!(PTrie, "trie", &util::TRIE_OPS);
}

#[test]
fn raw_undo_log_recovers_exact_committed_prefixes() {
    let _g = M.lock();
    let ops: Vec<_> = (0..N_OPS as u64).map(Insert).collect();
    for policy in M.policies() {
        // Only committed-prefix states are ever recovered, every proper
        // prefix under drop (the durability point is the last event of a
        // transaction — the truncate fence — so the full 6-op prefix only
        // exists uncrashed), later ones only under tear: the enumeration's
        // checks, like any other cell's.
        let points = enumerate::<RawLog>(&M, "rawlog", policy, &[], &ops, false);
        // Barrier, data line and truncate: one flush and one fence each.
        assert_eq!(
            points,
            6 * N_OPS,
            "[rawlog {policy:?}] crash points per transaction"
        );
    }
}

// ---------------------------------------------------------------------
// Flush-omission detection, abort-mode crash points, re-interrupted
// recovery: one store object holding one u64.
// ---------------------------------------------------------------------

/// A fresh 1 MiB file region whose store holds one object of type `ty`
/// with `init` in its first word, published as the root `"word"`, synced.
fn one_word(cell: &util::Cell, ty: u32, init: u64) -> (Region, ObjectStore, *mut u64) {
    let region = Region::create_file(cell.path("orig.nvr"), 1 << 20).unwrap();
    let store = ObjectStore::format_with_log(&region, LOG_CAP).unwrap();
    let p = store.alloc(ty, 16).unwrap().as_ptr() as *mut u64;
    // SAFETY: p is a fresh 16-byte store object.
    unsafe { p.write(init) };
    region.set_root("word", p as usize).unwrap();
    region.sync().unwrap();
    (region, store, p)
}

/// The first word of the object `one_word` published.
fn word_of(store: &ObjectStore) -> u64 {
    let p = store.region().root("word").unwrap();
    // SAFETY: the object `one_word` allocated, recovered.
    unsafe { *(p as *const u64) }
}

/// Recovers `crash` through a remapped reopen and reads the word back.
fn recovered_word(cell: &util::Cell, crash: &CapturedCrash, prev: &mut usize) -> u64 {
    let r2 = cell.recover(crash, prev, "one-word image");
    let store2 = ObjectStore::attach(&r2).unwrap();
    let v = word_of(&store2);
    drop(store2);
    r2.crash();
    v
}

#[test]
fn flush_omission_is_caught_as_durability_violation() {
    let _g = M.lock();
    let cell = M.cell("omit");
    // Commits 999 over the synced 1 and captures a drop image. The
    // disciplined arm goes through `Tx::set` (which flushes); the buggy
    // arm is undo-logged and shadow-tracked, but never flushed before
    // commit.
    let commit_and_crash = |disciplined: bool| {
        let (region, store, p) = one_word(&cell, 7, 1);
        region.enable_shadow().unwrap();
        shadow::reset_events_for(region.base());
        let mut tx = store.begin();
        if disciplined {
            // SAFETY: p is a valid store object pointer.
            unsafe { tx.set(p, 999).unwrap() };
        } else {
            tx.add_range(p as usize, 8).unwrap();
            // SAFETY: range snapshotted above.
            unsafe { p.write(999) };
            shadow::track_store(p as usize, 8);
            // BUG under test: no clflush_range here.
        }
        tx.commit();
        let (image, report) =
            shadow::capture_crash_image(region.base(), FaultPolicy::DropUnflushed).unwrap();
        drop(store);
        let prev = region.base();
        region.crash();
        let crash = CapturedCrash {
            event: 0,
            image,
            report,
        };
        (crash, prev)
    };

    let (crash, mut prev) = commit_and_crash(false);
    assert!(
        crash.report.dropped_lines >= 1,
        "the unflushed committed line must be reported as dropped"
    );
    // The offline inspector sees the stamp and the (truncated) undo log.
    let img = cell.path("img.nvr");
    std::fs::write(&img, &crash.image).unwrap();
    let rep = inspect::inspect(&img).unwrap();
    let stamp = rep.fault.expect("inspect must surface the fault stamp");
    assert_eq!(stamp.dropped_lines, crash.report.dropped_lines);
    let log = rep.log.expect("inspect must surface the undo log head");
    assert_eq!(log.used, 0, "the log was truncated at commit");
    assert_eq!(
        recovered_word(&cell, &crash, &mut prev),
        1,
        "durability violation detected: the transaction committed 999 but the \
         unflushed store did not survive the crash"
    );

    // Control: the same mutation through Tx::set is durable at every
    // post-commit crash point.
    let (crash, mut prev) = commit_and_crash(true);
    assert_eq!(
        crash.report.dropped_lines, 0,
        "a disciplined tx leaves nothing unflushed"
    );
    assert_eq!(
        recovered_word(&cell, &crash, &mut prev),
        999,
        "the flushed committed write must survive"
    );
}

#[test]
fn abort_at_nth_event_stops_the_workload_at_the_crash_point() {
    let _g = M.lock();
    let cell = M.cell("abort");
    let (region, store, p) = one_word(&cell, 3, 5);
    region.enable_shadow().unwrap();
    // Measure the event cost of one transaction so the abort point lands
    // on the first event of the *second* loop transaction regardless of
    // how the tx implementation evolves.
    shadow::reset_events_for(region.base());
    {
        let mut tx = store.begin();
        // SAFETY: valid object pointer.
        unsafe { tx.set(p, 50).unwrap() };
        tx.commit();
    }
    let per_tx = shadow::event_count_for(region.base());
    assert!(per_tx >= 1);
    shadow::reset_events_for(region.base());
    let at = per_tx + 1;
    let mut plan = FaultPlan::abort_at_nth_event(&region, FaultPolicy::DropUnflushed, at);
    let result = catch_unwind(AssertUnwindSafe(|| {
        for i in 0..100u64 {
            let mut tx = store.begin();
            // SAFETY: valid object pointer.
            unsafe { tx.set(p, 100 + i).unwrap() };
            tx.commit();
        }
    }));
    let err = result.expect_err("the armed plan must abort the workload");
    let cp = err
        .downcast_ref::<CrashPointReached>()
        .expect("panic payload must be CrashPointReached");
    assert_eq!(cp.event, at);
    let crash = plan.take_crash().expect("exactly one crash captured");
    assert_eq!(crash.event, at);
    drop(plan);
    drop(store);
    let mut prev = region.base();
    region.crash();

    // The image at the first event of tx 2 contains exactly tx 1.
    assert_eq!(
        recovered_word(&cell, &crash, &mut prev),
        100,
        "the first loop transaction committed before the abort point"
    );
}

#[test]
fn recovery_is_idempotent_when_reinterrupted() {
    let _g = M.lock();
    let cell = M.cell("idem");
    // Build a crashed-mid-transaction image the ordinary way.
    let (region, store, p) = one_word(&cell, 4, 100);
    let mut tx = store.begin();
    // SAFETY: valid object pointer.
    unsafe { tx.set(p, 999).unwrap() };
    std::mem::forget(tx); // crash with the tx open
    drop(store);
    let mut prev = region.base();
    region.crash();
    // Re-open and capture a crash image at every persistence event that
    // recovery itself issues.
    let region = cell.remap(&cell.path("orig.nvr"), &mut prev).unwrap();
    assert!(region.was_dirty());
    region.enable_shadow().unwrap();
    shadow::reset_events_for(region.base());
    let plan = FaultPlan::capture_all(&region, FaultPolicy::DropUnflushed);
    let store = ObjectStore::attach(&region).unwrap();
    assert!(store.recovered(), "attach must roll the open tx back");
    let snapshots = plan.disarm();
    assert!(
        !snapshots.is_empty(),
        "recovery must emit persistence events of its own"
    );
    assert_eq!(word_of(&store), 100);
    drop(store);
    region.crash();
    // Every mid-recovery snapshot must itself recover to the pre-tx
    // state, and a second attach after that must be a no-op.
    for snap in &snapshots {
        let r2 = cell.recover(snap, &mut prev, "mid-recovery snapshot");
        let store2 = ObjectStore::attach(&r2).unwrap();
        assert_eq!(
            word_of(&store2),
            100,
            "re-running recovery interrupted at event {} must converge to the pre-tx state",
            snap.event
        );
        drop(store2);
        let store3 = ObjectStore::attach(&r2).unwrap();
        assert!(
            !store3.recovered(),
            "a second attach after completed recovery (event {}) must not roll back again",
            snap.event
        );
        assert_eq!(word_of(&store3), 100);
        drop(store3);
        r2.crash();
    }
}
