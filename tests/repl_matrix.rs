//! Replication matrix: incremental checkpoint/replication of regions
//! over dirty-line delta streams (`nvmsim::repl`).
//!
//! Each cell runs one persistent structure (list / bst / hashset / trie —
//! the [`util::Subject`]s the crash matrix enumerates) under a
//! position-independent pointer representation with a [`Replicator`]
//! attached, drives several transactional epochs, seals the stream, and
//! promotes a replica **at a different mapping address** than the primary
//! ever had. The replica must pass the corruption walk (`verify`), the
//! structure's own `check_invariants`, and content equality with the
//! primary. A control cell repeats the exercise with raw volatile
//! pointers (`NormalPtr`) and shows the replica is demonstrably broken —
//! its head pointer still aims at the primary's old mapping. A
//! crash-composition cell interrupts capture mid-delta with a
//! [`FaultPlan`] and checks the replica fully has or fully lacks the
//! interrupted epoch, byte-truncation sweep included; and a replica
//! promoted from a *crashed* primary must keep allocating without
//! carving over what it inherited.
//!
//! Seed, replay tag, serial lock and scratch directories come from the
//! shared [`util::Matrix`] (`MATRIX_SEED`, `MATRIX_ARTIFACT_DIR`).

use nvm_pi::nvmsim::repl::{self, Replicator, ReplicatorConfig};
use nvm_pi::nvmsim::{latency, metrics, shadow, verify};
use nvm_pi::{
    CrashPointReached, FaultPlan, FaultPolicy, NormalPtr, ObjectStore, OffHolder, PBst, PHashSet,
    PList, PTrie, Region, Riv,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use util::Op::{self, Insert, Remove};
use util::{Subject, Tx};

mod util;

static M: util::Matrix = util::Matrix::new("repl_matrix", 0x5EED_2026);

const REGION_SIZE: usize = 512 << 10;

/// A fresh file region with `S` in it, synced, shadowed and streaming to
/// `stream.nvd` in the cell.
fn replicated<S: Subject>(cell: &util::Cell, size: usize) -> (Region, S, Replicator) {
    let region = Region::create_file(cell.path("orig.nvr"), size).unwrap();
    let s = S::create(&region);
    region.sync().unwrap();
    region.enable_shadow().unwrap();
    let repl = Replicator::attach(
        &region,
        cell.path("stream.nvd"),
        ReplicatorConfig::default(),
    )
    .unwrap();
    (region, s, repl)
}

/// One cell: runs `ops` as transactions with a replicator attached,
/// seals, promotes at a different address, and checks the replica against
/// the primary's final contents.
fn run_repl_cell<S: Subject>(label: &str, ops: &[Op<S::Key>]) {
    let cell = M.cell(label);
    let (stream, img) = (cell.path("stream.nvd"), cell.path("replica.nvr"));
    let keys = util::keys_of(ops);
    let before = metrics::snapshot();

    let (region, mut s, repl) = replicated::<S>(&cell, REGION_SIZE);
    let primary_base = region.base();
    for k in 0..ops.len() {
        // Every committed transaction is a durability point and emits
        // one delta epoch.
        util::apply_checked(&mut s, ops, k, label);
    }
    let live = s.contents(&keys, &format!("{label} {} live", M.tag()));
    drop(s);
    // Clean close: the final durability point; the replica converges on
    // the closed (clean-flag) image.
    region.close().unwrap();
    let final_epoch = repl.seal().unwrap();
    assert!(
        final_epoch >= 3,
        "[{label}] expected >= 3 delta epochs, got {final_epoch}"
    );

    // The sealed stream decodes strictly and carries >= 3 deltas.
    let bytes = std::fs::read(&stream).unwrap();
    let (meta, records) = repl::decode_stream(&bytes).unwrap();
    assert_eq!(
        meta.region_size as usize, REGION_SIZE,
        "[{label}] header size"
    );
    let n_deltas = records
        .iter()
        .filter(|r| matches!(r, repl::Record::Delta(_)))
        .count();
    assert!(n_deltas >= 3, "[{label}] {n_deltas} deltas in stream");

    // The plain entry point promotes wherever a segment is free; the cell
    // then promotes at a different mapping address and checks health +
    // content there.
    repl::promote(&stream, &img).unwrap().close().unwrap();
    let replica = repl::promote_avoiding(&stream, &img, primary_base).unwrap();
    assert_ne!(replica.base(), primary_base, "[{label}] replica address");
    let report = verify::verify_file(&img).unwrap();
    assert!(
        report.healthy(),
        "[{label}] replica failed verify:\n{report}"
    );
    let s2 = S::attach(&replica);
    let got = s2.contents(&keys, &format!("{label} {} replica", M.tag()));
    assert_eq!(
        got,
        live,
        "[{label} {}] replica contents == primary contents",
        M.tag()
    );
    drop(s2);
    replica.close().unwrap();

    // Replication metrics moved.
    let delta = metrics::snapshot().delta(&before);
    let get = |name: &str| {
        delta
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("[{label}] metrics must carry {name}"))
    };
    assert!(get("repl_deltas_emitted") >= 3, "[{label}] emitted counter");
    assert!(get("repl_deltas_shipped") >= 3, "[{label}] shipped counter");
    assert!(get("repl_deltas_applied") >= 3, "[{label}] applied counter");
    assert!(get("repl_bytes_shipped") > 0, "[{label}] bytes counter");
}

/// Five distinct workload keys in `1..=modulus` from the
/// (CI-randomizable) seed; the cells compare replica against live
/// primary, so any key set works.
fn seeded_keys(salt: u64, modulus: u64) -> Vec<u64> {
    let mut stream = M.stream(salt);
    let mut keys = Vec::new();
    while keys.len() < 5 {
        let k = stream.next() % modulus + 1;
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

#[test]
fn repl_matrix_list() {
    let _g = M.lock();
    let k = seeded_keys(0, 1000);
    let ops = [
        Insert(k[0]),
        Insert(k[1]),
        Insert(k[2]),
        Remove(k[2]),
        Insert(k[3]),
        Insert(k[4]),
    ];
    run_repl_cell::<Tx<PList<OffHolder, 32>>>("list-offholder", &ops);
    run_repl_cell::<Tx<PList<Riv, 32>>>("list-riv", &ops);
}

#[test]
fn repl_matrix_bst() {
    let _g = M.lock();
    run_repl_cell::<Tx<PBst<OffHolder, 32>>>("bst-offholder", &util::BST_OPS);
    run_repl_cell::<Tx<PBst<Riv, 32>>>("bst-riv", &util::BST_OPS);
}

#[test]
fn repl_matrix_hashset() {
    let _g = M.lock();
    let mut k = seeded_keys(0xA5A5, 900);
    k.sort_unstable();
    let ops = [
        Insert(k[0]),
        Insert(k[1]),
        Insert(k[2]),
        Remove(k[1]),
        Insert(k[3]),
        Insert(k[4]),
    ];
    run_repl_cell::<Tx<PHashSet<OffHolder, 32>>>("hashset-offholder", &ops);
    run_repl_cell::<Tx<PHashSet<Riv, 32>>>("hashset-riv", &ops);
}

#[test]
fn repl_matrix_trie() {
    let _g = M.lock();
    run_repl_cell::<Tx<PTrie<OffHolder, 32>>>("trie-offholder", &util::TRIE_OPS);
    run_repl_cell::<Tx<PTrie<Riv, 32>>>("trie-riv", &util::TRIE_OPS);
}

/// Control: the same replication pipeline under raw volatile pointers.
/// The stream itself is fine — the bytes replicate faithfully — but the
/// *pointers inside them* still aim at the primary's old mapping, so the
/// promoted replica is demonstrably broken at a different address. The
/// head value is inspected raw (never dereferenced: it dangles).
#[test]
fn repl_volatile_pointer_control_breaks() {
    let _g = M.lock();
    let cell = M.cell("control-normalptr");
    let img = cell.path("replica.nvr");
    let (region, mut s, repl) = replicated::<Tx<PList<NormalPtr, 32>>>(&cell, REGION_SIZE);
    let primary_base = region.base();
    for key in [10, 20, 30] {
        s.apply(Insert(key));
    }
    assert_eq!(
        s.s.keys(),
        vec![30, 20, 10],
        "primary list is fine in place"
    );
    drop(s);
    region.close().unwrap();
    repl.seal().unwrap();

    let replica = repl::promote_avoiding(cell.path("stream.nvd"), &img, primary_base).unwrap();
    let rbase = replica.base();
    assert_ne!(rbase, primary_base);
    // The image replicated byte-for-byte...
    assert!(verify::verify_file(&img).unwrap().healthy());
    // ...but the list head is an absolute pointer into the *old* mapping.
    let header = replica.root("s").expect("root survives replication");
    // SAFETY: `header` is inside the mapped replica; only the head WORD
    // is read — the dangling address it holds is never dereferenced.
    let head = unsafe { std::ptr::read(header as *const usize) };
    assert_ne!(head, 0, "three inserts left a non-empty list");
    let in_replica = head >= rbase && head < rbase + REGION_SIZE;
    assert!(
        !in_replica,
        "volatile head {head:#x} would need to point into replica [{rbase:#x}, +{REGION_SIZE:#x}) \
         to be usable — position dependence must break it"
    );
    assert!(
        head >= primary_base && head < primary_base + REGION_SIZE,
        "volatile head {head:#x} still points at the dead primary mapping {primary_base:#x}"
    );
    replica.close().unwrap();
}

/// Crash-composition: a [`FaultPlan`] interrupts the writer mid-delta
/// (between fence events of an open transaction). The interrupted epoch
/// must be fully absent from the replica — never partially applied —
/// both for the in-flight capture and for every byte-level truncation of
/// the shipped stream.
#[test]
fn repl_crash_mid_capture_is_atomic() {
    let _g = M.lock();
    let cell = M.cell("crash-composition");
    let img = cell.path("replica.nvr");
    let (region, mut s, repl) = replicated::<Tx<PList<OffHolder, 32>>>(&cell, REGION_SIZE);
    for key in [10, 20, 30] {
        s.apply(Insert(key));
    }
    // Arm a crash two events into the next transaction: mid-delta, after
    // some lines of epoch 4 were flushed but before its commit fence.
    shadow::reset_events_for(region.base());
    let plan = FaultPlan::abort_at_nth_event(&region, FaultPolicy::DropUnflushed, 2);
    let result = catch_unwind(AssertUnwindSafe(|| s.apply(Insert(40))));
    let err = result.expect_err("the fault plan must interrupt the fourth insert");
    let cp = err
        .downcast_ref::<CrashPointReached>()
        .expect("panic payload must be CrashPointReached");
    assert_eq!(cp.event, 2);
    drop(plan);
    drop(s);
    // The primary dies: no clean-close capture, stream stays unsealed.
    let mut prev = region.base();
    region.crash();
    drop(repl);

    let bytes = std::fs::read(cell.path("stream.nvd")).unwrap();
    let (image, report) = repl::apply_stream(&bytes, false).unwrap();
    assert!(!report.sealed, "a crashed primary leaves no seal");
    assert_eq!(
        report.epoch, 3,
        "epoch 4 was interrupted mid-delta and must be fully absent"
    );
    // The replica at epoch 3 recovers to exactly the three-key prefix.
    std::fs::write(&img, &image).unwrap();
    let replica = cell.remap(&img, &mut prev).unwrap();
    let s2 = Tx::<PList<OffHolder, 32>>::attach(&replica);
    assert_eq!(s2.contents(&[], "epoch-3 replica"), vec![30, 20, 10]);
    drop(s2);
    replica.close().unwrap();

    // Byte-truncation sweep over the tail record: every cut inside the
    // last delta yields the previous epoch in full — all-or-nothing.
    let dump = repl::inspect_stream(&bytes);
    let last = dump.records.last().expect("stream has records");
    assert_eq!(last.kind, "delta");
    for cut in last.offset..bytes.len() {
        let (_, r) = repl::apply_stream(&bytes[..cut], false)
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(r.epoch, 2, "cut at {cut} must drop epoch 3 entirely");
        assert!(r.tail_discarded || cut == last.offset);
    }
}

/// A block above 4 KiB is carved like any subtree: its descriptor and the
/// frontier past it are tracked and fenced, so the delta of the committing
/// transaction carries them. A transaction that allocates a 16 KiB object
/// after the last sync and publishes it, then a crashed primary: the
/// promoted replica must keep the object's bytes and serve neither its
/// next 16 KiB object nor 65 class-sized blocks over it.
#[test]
fn repl_large_object_allocated_after_the_last_sync_survives_promotion() {
    let _g = M.lock();
    const OBJ: usize = 16 << 10;
    let pattern = |i: usize| 0x4C41_5247_0000_0000 | i as u64;
    let cell = M.cell("large-object");
    let ctx = format!("large-object {}", M.tag());
    let region = Region::create_file(cell.path("orig.nvr"), REGION_SIZE).unwrap();
    let store = ObjectStore::format(&region).unwrap();
    let anchor = store.alloc(1, 8).unwrap().as_ptr() as *mut u64;
    // SAFETY: a fresh 8-byte object.
    unsafe { anchor.write(0) };
    region.set_root("anchor", anchor as usize).unwrap();
    region.sync().unwrap();
    region.enable_shadow().unwrap();
    let repl = Replicator::attach(
        &region,
        cell.path("stream.nvd"),
        ReplicatorConfig::default(),
    )
    .unwrap();
    let primary_base = region.base();
    let mut tx = store.begin();
    let obj = tx.alloc(2, OBJ).unwrap().as_ptr() as *mut u64;
    for i in 0..OBJ / 8 {
        // SAFETY: inside the fresh 16 KiB object.
        unsafe { obj.add(i).write(pattern(i)) };
    }
    shadow::track_store(obj as usize, OBJ);
    latency::clflush_range(obj as usize, OBJ);
    let obj_off = region.offset_of(obj as usize).unwrap();
    // SAFETY: the anchor object is 8 bytes inside the store's region.
    unsafe { tx.set(anchor, obj_off).unwrap() };
    tx.commit();
    drop(store);
    region.crash();
    repl.seal().unwrap();

    let replica = repl::promote_avoiding(
        cell.path("stream.nvd"),
        cell.path("replica.nvr"),
        primary_base,
    )
    .unwrap();
    assert_ne!(replica.base(), primary_base, "[{ctx}] replica address");
    let store = ObjectStore::attach(&replica).unwrap();
    // SAFETY: the anchor root names an 8-byte object.
    let published = unsafe { *(replica.root("anchor").unwrap() as *const u64) };
    assert_eq!(published, obj_off, "[{ctx}] the commit reached the replica");
    // The object and its 16-byte header: nothing may be served over them.
    let (lo, hi) = (obj_off - 16, obj_off + OBJ as u64);
    let mut fresh = vec![replica
        .offset_of(store.alloc(2, OBJ).unwrap().as_ptr() as usize)
        .unwrap()];
    fresh.extend((0..65).map(|_| replica.alloc_off(64, 8).unwrap()));
    for &off in &fresh {
        assert!(
            off + 64 <= lo || off >= hi,
            "[{ctx}] block at {off:#x} served over the object [{lo:#x}, {hi:#x})"
        );
        // SAFETY: every fresh block is at least 64 bytes inside the replica.
        unsafe { std::ptr::write_bytes(replica.ptr_at(off) as *mut u8, 0xEE, 64) };
    }
    let intact = (0..OBJ / 8)
        // SAFETY: the object lies inside the replica.
        .all(|i| unsafe { *(replica.ptr_at(obj_off + 8 * i as u64) as *const u64) } == pattern(i));
    assert!(
        intact,
        "[{ctx}] the object's bytes survive promotion and reuse"
    );
    drop(store);
    replica.close().unwrap();
}

/// A delta stream carries tracked, fenced lines — so the allocator
/// frontier must be one of them. A primary that grew subtrees between
/// syncs is crashed (no clean-close checkpoint ships the header); the
/// promoted replica must then keep allocating without carving a new
/// subtree over the live nodes it inherited.
#[test]
fn repl_promoted_replica_of_a_crashed_primary_keeps_allocating() {
    let _g = M.lock();
    let cell = M.cell("crashed-primary");
    type Set = Tx<PHashSet<OffHolder, 32>>;
    let (region, mut s, repl) = replicated::<Set>(&cell, 4 << 20);
    let primary_base = region.base();
    for k in 0..200 {
        assert_eq!(s.apply(Insert(k)), 1);
    }
    drop(s);
    region
        .crash_with_faults(FaultPolicy::DropUnflushed)
        .unwrap();
    repl.seal().unwrap();

    let replica = repl::promote_avoiding(
        cell.path("stream.nvd"),
        cell.path("replica.nvr"),
        primary_base,
    )
    .unwrap();
    let mut s2 = Set::attach(&replica);
    let ctx = format!("crashed-primary {}", M.tag());
    assert_eq!(
        s2.contents(&[], &format!("{ctx} promoted")),
        (0..200).collect::<Vec<u64>>(),
        "[{ctx}] every committed insert reached the replica"
    );
    for k in 200..400 {
        assert_eq!(s2.apply(Insert(k)), 1);
    }
    assert_eq!(
        s2.contents(&[], &format!("{ctx} after 200 more inserts on the replica")),
        (0..400).collect::<Vec<u64>>()
    );
    drop(s2);
    replica.close().unwrap();
}
