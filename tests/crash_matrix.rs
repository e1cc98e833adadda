//! Crash-consistency matrix: deterministic crash-point enumeration over
//! transactional data-structure workloads.
//!
//! Each cell of the matrix runs one structure (list / bst / hashset /
//! trie) through a fixed insert+delete workload under pstore
//! transactions, with a [`FaultPlan`] capturing a faulted crash image at
//! *every* flush/fence event. Every image is then written to a file,
//! re-opened, recovered via [`ObjectStore::attach`], and checked against
//! the committed-prefix model: a transaction is durable in the image at
//! event `n` iff its commit fence is an event `< n`. Both fault policies
//! (drop-unflushed and word-granularity tearing) are exercised, plus
//! the raw undo log over a plain-cell workload (no `Tx`), abort-mode
//! crash points, flush-omission detection, and re-interrupted recovery.
//!
//! The shadow tracker and its event counter are process-global, so every
//! test in this binary serializes on `SERIAL`. The tear seed comes from
//! `CRASH_MATRIX_SEED` (decimal or 0x-hex) and is printed in every
//! failure context so CI failures reproduce.

use nvm_pi::nvmsim::{inspect, latency, shadow};
use nvm_pi::pstore::{ObjectStore, UndoLog};
use nvm_pi::{
    CrashPointReached, FaultPlan, FaultPolicy, NodeArena, OffHolder, PBst, PHashSet, PList, PTrie,
    Region,
};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

mod util;

static SERIAL: Mutex<()> = Mutex::new(());

const REGION_SIZE: usize = 512 << 10;
const LOG_CAP: u64 = 32 << 10;
const N_OPS: usize = 6;

/// Tear seed: `CRASH_MATRIX_SEED` env (decimal or `0x`-prefixed hex),
/// defaulting to a fixed value so the default run is fully deterministic.
fn seed() -> u64 {
    util::env_seed("CRASH_MATRIX_SEED", 0x5EED_1234)
}

fn tdir(label: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("crash-matrix-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn lock() -> std::sync::MutexGuard<'static, ()> {
    util::serial_guard(&SERIAL)
}

/// Runs one cell of the crash matrix and returns the number of crash
/// points enumerated.
///
/// `apply` runs operation `k` as one committed transaction; `contents`
/// checks structural invariants (panicking with the given context on
/// violation) and returns a canonical content vector, compared against
/// `expected[p]` for the recovered prefix `p`. A transaction is durable
/// at the image of event `n` if its commit fence is an event `< n`;
/// under [`FaultPolicy::TearWords`] a *dirty* commit record may also
/// tear ahead of its fence, so the recovered prefix may be later than
/// the conservative count — but never earlier, and never a non-prefix
/// state.
fn run_cell<S>(
    label: &str,
    policy: FaultPolicy,
    expected: &[Vec<u64>],
    create: impl Fn(NodeArena) -> S,
    attach: impl Fn(NodeArena) -> S,
    apply: impl Fn(&mut S, &ObjectStore, usize),
    contents: impl Fn(&S, &str) -> Vec<u64>,
) -> usize {
    assert_eq!(expected.len(), N_OPS + 1);
    let dir = tdir(label);
    let orig = dir.join("orig.nvr");
    // Matrix runs replay exactly: region placement follows the matrix
    // seed, not the process-global SystemTime default.
    nvm_pi::NvSpace::global().reseed_placement(seed());
    let region = Region::create_file(&orig, REGION_SIZE).unwrap();
    let store = ObjectStore::format_with_log(&region, LOG_CAP).unwrap();
    let mut s = create(NodeArena::transactional(store.clone()));
    region.sync().unwrap();
    region.enable_shadow().unwrap();
    shadow::reset_events_for(region.base());
    let plan = FaultPlan::capture_all(&region, policy);
    let mut commit_events = Vec::with_capacity(N_OPS);
    for k in 0..N_OPS {
        apply(&mut s, &store, k);
        commit_events.push(shadow::event_count_for(region.base()));
    }
    let crashes = plan.disarm();
    let tag = util::seed_tag("CRASH_MATRIX_SEED", seed());
    let live_ctx = format!("{label} {policy:?} {tag} live");
    assert_eq!(
        contents(&s, &live_ctx),
        expected[N_OPS],
        "[{live_ctx}] final uncrashed contents"
    );
    drop(s);
    drop(store);
    region.crash();

    assert!(
        commit_events.windows(2).all(|w| w[0] < w[1]),
        "[{label} {policy:?} {tag}] commit events must be strictly increasing: {commit_events:?}"
    );
    assert!(
        crashes.len() >= 20,
        "[{label} {policy:?} {tag}] expected >= 20 crash points, got {}",
        crashes.len()
    );
    let distinct: BTreeSet<u64> = crashes.iter().map(|c| c.event).collect();
    assert_eq!(
        distinct.len(),
        crashes.len(),
        "[{label} {policy:?} {tag}] crash events must be distinct"
    );

    let img = dir.join("crash.nvr");
    let mut prefixes: BTreeSet<usize> = BTreeSet::new();
    for c in &crashes {
        let ctx = format!("{label} {policy:?} {tag} event {}", c.event);
        std::fs::write(&img, &c.image).unwrap();
        let r2 = Region::open_file(&img).unwrap();
        assert!(r2.was_dirty(), "[{ctx}] crash image must reopen dirty");
        let stamp = r2
            .fault_stamp()
            .unwrap_or_else(|| panic!("[{ctx}] crash image must carry a fault stamp"));
        assert_eq!(stamp.event, c.event, "[{ctx}] stamp event");
        assert_eq!(stamp.seed, c.report.seed, "[{ctx}] stamp seed");
        let store2 = ObjectStore::attach(&r2).unwrap();
        let s2 = attach(NodeArena::transactional(store2.clone()));
        let committed = commit_events.iter().filter(|&&e| e < c.event).count();
        let got = contents(&s2, &ctx);
        let p = (committed..=N_OPS)
            .find(|&p| expected[p] == got)
            .unwrap_or_else(|| {
                panic!(
                    "[{ctx}] recovered contents {got:?} are not a committed-prefix state at \
                     or after prefix {committed} (commit events {commit_events:?})"
                )
            });
        if matches!(policy, FaultPolicy::DropUnflushed) {
            assert_eq!(
                p, committed,
                "[{ctx}] without tearing, recovery must land exactly on the conservative prefix"
            );
        }
        prefixes.insert(p);
        drop(s2);
        drop(store2);
        r2.crash();
    }
    // Every intermediate committed prefix must be reachable as a
    // recovered crash state when nothing tears early (the final prefix
    // only exists uncrashed: the last event *is* the last commit's
    // fence). Tearing can only shift prefixes later.
    if matches!(policy, FaultPolicy::DropUnflushed) {
        assert_eq!(
            prefixes,
            (0..N_OPS).collect::<BTreeSet<usize>>(),
            "[{label} {policy:?} {tag}] all committed prefixes must appear among recovered states"
        );
    } else {
        assert!(
            prefixes.contains(&0) && prefixes.iter().all(|&p| p <= N_OPS),
            "[{label} {policy:?} {tag}] torn prefixes out of range: {prefixes:?}"
        );
    }
    let n = crashes.len();
    eprintln!("[{label} {policy:?}] enumerated {n} crash points, prefixes {prefixes:?}");
    std::fs::remove_dir_all(&dir).ok();
    n
}

fn policies() -> [FaultPolicy; 2] {
    [
        FaultPolicy::DropUnflushed,
        FaultPolicy::TearWords { seed: seed() },
    ]
}

#[test]
fn crash_matrix_list() {
    let _g = lock();
    // push 10, 20, 30; remove 20; push 40; remove 10 (front-order keys).
    let expected: Vec<Vec<u64>> = vec![
        vec![],
        vec![10],
        vec![20, 10],
        vec![30, 20, 10],
        vec![30, 10],
        vec![40, 30, 10],
        vec![40, 30],
    ];
    for policy in policies() {
        run_cell(
            "list",
            policy,
            &expected,
            |a| PList::<OffHolder, 32>::create_rooted(a, "s").unwrap(),
            |a| PList::<OffHolder, 32>::attach(a, "s").unwrap(),
            |s, st, k| match k {
                0 => s.push_front_tx(st, 10).unwrap(),
                1 => s.push_front_tx(st, 20).unwrap(),
                2 => s.push_front_tx(st, 30).unwrap(),
                3 => assert!(s.remove_tx(st, 20).unwrap()),
                4 => s.push_front_tx(st, 40).unwrap(),
                _ => assert!(s.remove_tx(st, 10).unwrap()),
            },
            |s, ctx| {
                s.check_invariants()
                    .unwrap_or_else(|e| panic!("[{ctx}] invariants: {e}"));
                s.keys()
            },
        );
    }
}

#[test]
fn crash_matrix_bst() {
    let _g = lock();
    // insert 50, 30, 70, 60; remove 50 (two children, successor 60);
    // remove 30 (in-order keys).
    let expected: Vec<Vec<u64>> = vec![
        vec![],
        vec![50],
        vec![30, 50],
        vec![30, 50, 70],
        vec![30, 50, 60, 70],
        vec![30, 60, 70],
        vec![60, 70],
    ];
    for policy in policies() {
        run_cell(
            "bst",
            policy,
            &expected,
            |a| PBst::<OffHolder, 32>::create_rooted(a, "s").unwrap(),
            |a| PBst::<OffHolder, 32>::attach(a, "s").unwrap(),
            |s, st, k| match k {
                0 => assert!(s.insert_tx(st, 50).unwrap()),
                1 => assert!(s.insert_tx(st, 30).unwrap()),
                2 => assert!(s.insert_tx(st, 70).unwrap()),
                3 => assert!(s.insert_tx(st, 60).unwrap()),
                4 => assert!(s.remove_tx(st, 50).unwrap()),
                _ => assert!(s.remove_tx(st, 30).unwrap()),
            },
            |s, ctx| {
                s.check_invariants()
                    .unwrap_or_else(|e| panic!("[{ctx}] invariants: {e}"));
                s.keys_in_order()
            },
        );
    }
}

#[test]
fn crash_matrix_hashset() {
    let _g = lock();
    // insert 1, 2, 3; remove 2; insert 4; remove 1 (sorted keys).
    let expected: Vec<Vec<u64>> = vec![
        vec![],
        vec![1],
        vec![1, 2],
        vec![1, 2, 3],
        vec![1, 3],
        vec![1, 3, 4],
        vec![3, 4],
    ];
    for policy in policies() {
        run_cell(
            "hashset",
            policy,
            &expected,
            |a| PHashSet::<OffHolder, 32>::create_rooted(a, 8, "s").unwrap(),
            |a| PHashSet::<OffHolder, 32>::attach(a, "s").unwrap(),
            |s, st, k| match k {
                0 => assert!(s.insert_tx(st, 1).unwrap()),
                1 => assert!(s.insert_tx(st, 2).unwrap()),
                2 => assert!(s.insert_tx(st, 3).unwrap()),
                3 => assert!(s.remove_tx(st, 2).unwrap()),
                4 => assert!(s.insert_tx(st, 4).unwrap()),
                _ => assert!(s.remove_tx(st, 1).unwrap()),
            },
            |s, ctx| {
                s.check_invariants()
                    .unwrap_or_else(|e| panic!("[{ctx}] invariants: {e}"));
                let mut keys = s.keys();
                keys.sort_unstable();
                keys
            },
        );
    }
}

#[test]
fn crash_matrix_trie() {
    let _g = lock();
    // insert cat, car, cat; remove cat; insert do; remove car.
    // Contents vector: [count(cat), count(car), count(do), word total].
    let expected: Vec<Vec<u64>> = vec![
        vec![0, 0, 0, 0],
        vec![1, 0, 0, 1],
        vec![1, 1, 0, 2],
        vec![2, 1, 0, 3],
        vec![1, 1, 0, 2],
        vec![1, 1, 1, 3],
        vec![1, 0, 1, 2],
    ];
    for policy in policies() {
        run_cell(
            "trie",
            policy,
            &expected,
            |a| PTrie::<OffHolder, 32>::create_rooted(a, "s").unwrap(),
            |a| PTrie::<OffHolder, 32>::attach(a, "s").unwrap(),
            |s, st, k| match k {
                0 => assert_eq!(s.insert_tx(st, "cat").unwrap(), 1),
                1 => assert_eq!(s.insert_tx(st, "car").unwrap(), 1),
                2 => assert_eq!(s.insert_tx(st, "cat").unwrap(), 2),
                3 => assert!(s.remove_tx(st, "cat").unwrap()),
                4 => assert_eq!(s.insert_tx(st, "do").unwrap(), 1),
                _ => assert!(s.remove_tx(st, "car").unwrap()),
            },
            |s, ctx| {
                s.check_invariants()
                    .unwrap_or_else(|e| panic!("[{ctx}] invariants: {e}"));
                vec![
                    s.count("cat"),
                    s.count("car"),
                    s.count("do"),
                    s.word_count(),
                ]
            },
        );
    }
}

// ---------------------------------------------------------------------
// The raw undo log over a plain-cell workload: the one cell that drives
// `UndoLog` without `Tx`.
// ---------------------------------------------------------------------

const CELLS: u64 = 4;
const RAW_LOG: u64 = 8 << 10;

fn raw_expected(committed: usize) -> [u64; CELLS as usize] {
    let mut cells = [0u64; CELLS as usize];
    for k in 0..committed {
        cells[k % CELLS as usize] = 1000 + k as u64;
    }
    cells
}

/// Runs `N_OPS` single-cell transactions through raw
/// `append`/`barrier`/`truncate`, crashing at every event; returns the
/// set of committed prefixes observed among the recovered images.
fn run_raw_log(policy: FaultPolicy) -> BTreeSet<usize> {
    let label = "rawlog";
    let dir = tdir(label);
    let orig = dir.join("orig.nvr");
    let region = Region::create_file(&orig, 256 << 10).unwrap();
    let log_off = region.alloc_off(RAW_LOG as usize, 16).unwrap();
    let cells_off = region.alloc_off(CELLS as usize * 8, 16).unwrap();
    region.set_root_off("raw.log", log_off).unwrap();
    region.set_root_off("raw.cells", cells_off).unwrap();
    UndoLog::new(region.clone(), log_off, RAW_LOG).format();
    region.sync().unwrap();
    region.enable_shadow().unwrap();
    shadow::reset_events_for(region.base());
    let plan = FaultPlan::capture_all(&region, policy);
    // Per-tx durability event: the truncate fence (the commit point),
    // after which the tx survives any crash.
    let mut durability = Vec::with_capacity(N_OPS);
    for k in 0..N_OPS {
        let addr = region.ptr_at(cells_off + 8 * (k as u64 % CELLS));
        let val = 1000 + k as u64;
        let log = UndoLog::new(region.clone(), log_off, RAW_LOG);
        log.append(addr, 8).unwrap();
        // `append` does not make the entry durable: the batch barrier is
        // the caller's, and must precede the store.
        log.barrier();
        // SAFETY: addr is a valid u64 cell inside the region.
        unsafe { (addr as *mut u64).write(val) };
        shadow::track_store(addr, 8);
        latency::clflush_range(addr, 8);
        latency::wbarrier();
        log.truncate();
        durability.push(shadow::event_count_for(region.base()));
    }
    let crashes = plan.disarm();
    region.crash();
    // Barrier, data line and truncate: one flush and one fence each.
    assert_eq!(
        crashes.len(),
        6 * N_OPS,
        "[{label} {policy:?}] crash points per transaction"
    );

    let img = dir.join("crash.nvr");
    let tag = util::seed_tag("CRASH_MATRIX_SEED", seed());
    let mut prefixes = BTreeSet::new();
    for c in &crashes {
        let ctx = format!("{label} {policy:?} {tag} event {}", c.event);
        std::fs::write(&img, &c.image).unwrap();
        let r2 = Region::open_file(&img).unwrap();
        assert!(r2.was_dirty(), "[{ctx}] crash image must reopen dirty");
        assert!(r2.fault_stamp().is_some(), "[{ctx}] missing fault stamp");
        let l_off = r2.root_off("raw.log").unwrap();
        let c_off = r2.root_off("raw.cells").unwrap();
        UndoLog::new(r2.clone(), l_off, RAW_LOG).recover();
        let committed = durability.iter().filter(|&&e| e < c.event).count();
        let got: Vec<u64> = (0..CELLS)
            // SAFETY: the cells root points at CELLS u64 slots.
            .map(|i| unsafe { *(r2.ptr_at(c_off + 8 * i) as *const u64) })
            .collect();
        // The recovered state must be a committed-prefix state no earlier
        // than the conservative count. Tearing can leak a *dirty* commit
        // record (the generation bump) ahead of its flush, making a
        // transaction durable before its fence — which is safe, because
        // the commit record is ordered after the data it covers is
        // recoverable.
        let p = (committed..=N_OPS)
            .find(|&p| raw_expected(p)[..] == got[..])
            .unwrap_or_else(|| {
                panic!(
                    "[{ctx}] recovered cells {got:?} are not a committed-prefix state at or \
                     after prefix {committed} (durability events {durability:?})"
                )
            });
        if matches!(policy, FaultPolicy::DropUnflushed) {
            assert_eq!(
                p, committed,
                "[{ctx}] without tearing, recovery must land exactly on the conservative prefix"
            );
        }
        prefixes.insert(p);
        r2.crash();
    }
    eprintln!(
        "[{label} {policy:?}] enumerated {} crash points, prefixes {prefixes:?}",
        crashes.len()
    );
    std::fs::remove_dir_all(&dir).ok();
    prefixes
}

#[test]
fn raw_undo_log_recovers_exact_committed_prefixes() {
    let _g = lock();
    for policy in policies() {
        let prefixes = run_raw_log(policy);
        // Only committed-prefix states are ever recovered (checked per
        // image inside run_raw_log). Without tearing the observed set is
        // exact: the durability point is the last event of a transaction
        // (the truncate fence), so the full 6-op prefix only exists
        // uncrashed. Under tearing a dirty commit record can leak ahead
        // of its fence, so prefixes may only shift later, never produce
        // a non-prefix state.
        if matches!(policy, FaultPolicy::DropUnflushed) {
            assert_eq!(
                prefixes,
                (0..N_OPS).collect::<BTreeSet<usize>>(),
                "[{policy:?}] every proper committed prefix must be exposed"
            );
        } else {
            assert!(
                prefixes.contains(&0),
                "[{policy:?}] the empty prefix is always reachable"
            );
            assert!(
                prefixes.iter().all(|&p| p <= N_OPS),
                "[{policy:?}] prefixes bounded by the op count"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Flush-omission detection, abort-mode crash points, re-interrupted
// recovery.
// ---------------------------------------------------------------------

#[test]
fn flush_omission_is_caught_as_durability_violation() {
    let _g = lock();
    let dir = tdir("omit");
    let path = dir.join("o.nvr");
    let img = dir.join("img.nvr");
    let region = Region::create_file(&path, 1 << 20).unwrap();
    let store = ObjectStore::format_with_log(&region, LOG_CAP).unwrap();
    let p = store.alloc(7, 16).unwrap().as_ptr() as *mut u64;
    // SAFETY: p is a fresh 16-byte store object.
    unsafe { p.write(1) };
    region.sync().unwrap();
    region.enable_shadow().unwrap();
    shadow::reset_events_for(region.base());
    // Deliberately buggy mutation: undo-logged and shadow-tracked, but
    // never flushed before commit.
    {
        let mut tx = store.begin();
        tx.add_range(p as usize, 8).unwrap();
        // SAFETY: range snapshotted above.
        unsafe { p.write(999) };
        shadow::track_store(p as usize, 8);
        // BUG under test: no clflush_range here.
        tx.commit();
    }
    let (image, report) =
        shadow::capture_crash_image(region.base(), FaultPolicy::DropUnflushed).unwrap();
    assert!(
        report.dropped_lines >= 1,
        "the unflushed committed line must be reported as dropped"
    );
    std::fs::write(&img, &image).unwrap();
    drop(store);
    region.crash();

    // The offline inspector sees the stamp and the (truncated) undo log.
    let rep = inspect::inspect(&img).unwrap();
    let stamp = rep.fault.expect("inspect must surface the fault stamp");
    assert_eq!(stamp.dropped_lines, report.dropped_lines);
    let log = rep.log.expect("inspect must surface the undo log head");
    assert_eq!(log.used, 0, "the log was truncated at commit");

    let r2 = Region::open_file(&img).unwrap();
    let store2 = ObjectStore::attach(&r2).unwrap();
    let objs = store2.objects_of_type(7);
    // SAFETY: recovered object of type 7 allocated above.
    let v = unsafe { *(objs[0].as_ptr() as *const u64) };
    assert_eq!(
        v, 1,
        "durability violation detected: the transaction committed 999 but the \
         unflushed store did not survive the crash"
    );
    drop(store2);
    r2.crash();

    // Control: the same mutation through Tx::set (which flushes) is
    // durable at every post-commit crash point.
    let path2 = dir.join("o2.nvr");
    let region = Region::create_file(&path2, 1 << 20).unwrap();
    let store = ObjectStore::format_with_log(&region, LOG_CAP).unwrap();
    let p = store.alloc(7, 16).unwrap().as_ptr() as *mut u64;
    // SAFETY: as above.
    unsafe { p.write(1) };
    region.sync().unwrap();
    region.enable_shadow().unwrap();
    shadow::reset_events_for(region.base());
    {
        let mut tx = store.begin();
        // SAFETY: p is a valid store object pointer.
        unsafe { tx.set(p, 999).unwrap() };
        tx.commit();
    }
    let (image, report) =
        shadow::capture_crash_image(region.base(), FaultPolicy::DropUnflushed).unwrap();
    assert_eq!(
        report.dropped_lines, 0,
        "a disciplined tx leaves nothing unflushed"
    );
    std::fs::write(&img, &image).unwrap();
    drop(store);
    region.crash();
    let r2 = Region::open_file(&img).unwrap();
    let store2 = ObjectStore::attach(&r2).unwrap();
    let objs = store2.objects_of_type(7);
    // SAFETY: as above.
    let v = unsafe { *(objs[0].as_ptr() as *const u64) };
    assert_eq!(v, 999, "the flushed committed write must survive");
    drop(store2);
    r2.crash();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abort_at_nth_event_stops_the_workload_at_the_crash_point() {
    let _g = lock();
    let dir = tdir("abort");
    let path = dir.join("a.nvr");
    let img = dir.join("img.nvr");
    let region = Region::create_file(&path, 1 << 20).unwrap();
    let store = ObjectStore::format_with_log(&region, LOG_CAP).unwrap();
    let p = store.alloc(3, 16).unwrap().as_ptr() as *mut u64;
    // SAFETY: fresh store object.
    unsafe { p.write(5) };
    region.sync().unwrap();
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
    std::fs::write(&img, &crash.image).unwrap();
    drop(store);
    region.crash();

    // The image at the first event of tx 2 contains exactly tx 1.
    let r2 = Region::open_file(&img).unwrap();
    assert!(r2.was_dirty());
    let store2 = ObjectStore::attach(&r2).unwrap();
    let objs = store2.objects_of_type(3);
    // SAFETY: recovered object.
    let v = unsafe { *(objs[0].as_ptr() as *const u64) };
    assert_eq!(
        v, 100,
        "the first loop transaction committed before the abort point"
    );
    drop(store2);
    r2.crash();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_is_idempotent_when_reinterrupted() {
    let _g = lock();
    let dir = tdir("idem");
    let orig = dir.join("orig.nvr");
    let img = dir.join("img.nvr");
    // Build a crashed-mid-transaction image the ordinary way.
    {
        let region = Region::create_file(&orig, 1 << 20).unwrap();
        let store = ObjectStore::format_with_log(&region, LOG_CAP).unwrap();
        let p = store.alloc(4, 16).unwrap().as_ptr() as *mut u64;
        // SAFETY: fresh store object.
        unsafe { p.write(100) };
        region.sync().unwrap();
        let mut tx = store.begin();
        // SAFETY: valid object pointer.
        unsafe { tx.set(p, 999).unwrap() };
        std::mem::forget(tx); // crash with the tx open
        drop(store);
        region.crash();
    }
    // Re-open and capture a crash image at every persistence event that
    // recovery itself issues.
    let region = Region::open_file(&orig).unwrap();
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
    {
        let objs = store.objects_of_type(4);
        // SAFETY: recovered object.
        assert_eq!(unsafe { *(objs[0].as_ptr() as *const u64) }, 100);
    }
    drop(store);
    region.crash();
    // Every mid-recovery snapshot must itself recover to the pre-tx
    // state, and a second attach after that must be a no-op.
    for snap in &snapshots {
        std::fs::write(&img, &snap.image).unwrap();
        let r2 = Region::open_file(&img).unwrap();
        assert!(r2.was_dirty());
        let store2 = ObjectStore::attach(&r2).unwrap();
        let objs = store2.objects_of_type(4);
        // SAFETY: recovered object.
        let v = unsafe { *(objs[0].as_ptr() as *const u64) };
        assert_eq!(
            v, 100,
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
        let objs = store3.objects_of_type(4);
        // SAFETY: recovered object.
        assert_eq!(unsafe { *(objs[0].as_ptr() as *const u64) }, 100);
        drop(store3);
        r2.crash();
    }
    std::fs::remove_dir_all(&dir).ok();
}
