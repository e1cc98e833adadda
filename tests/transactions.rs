//! Cross-crate transactional scenarios: structures built through the
//! object store, crash injection at different points, and recovery.

use nvm_pi::pi_core::Riv;
use nvm_pi::{NodeArena, ObjectStore, PBst, Region, Tx};

mod util;

// `M.cell(..)` is the scratch directory of the crash tests' images.
static M: util::Matrix = util::Matrix::new("transactions", 0x5EED);

#[test]
fn structure_nodes_are_live_store_allocations() {
    let region = Region::create(8 << 20).unwrap();
    let store = ObjectStore::format(&region).unwrap();
    let before = region.stats().live_allocs;
    let mut t: PBst<Riv, 32> = PBst::new(NodeArena::transactional(store)).unwrap();
    t.extend(0..500).unwrap();
    // 500 nodes + 1 header object: the allocator is the one record.
    assert_eq!(region.stats().live_allocs - before, 501);
    region.close().unwrap();
}

#[test]
fn committed_structure_survives_crash() {
    let cell = M.cell("committed");
    let path = cell.path("region.nvr");
    {
        let region = Region::create_file(&path, 8 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let mut t: PBst<Riv, 32> =
            PBst::create_rooted(NodeArena::transactional(store.clone()), "bst").unwrap();
        t.extend(0..800).unwrap();
        region.sync().unwrap();
        drop(store);
        region.crash(); // dirty, but no transaction was in flight
    }
    let region = Region::open_file(&path).unwrap();
    assert!(region.was_dirty());
    let store = ObjectStore::attach(&region).unwrap();
    assert!(!store.recovered(), "empty log: nothing to roll back");
    let t: PBst<Riv, 32> = PBst::attach(NodeArena::transactional(store), "bst").unwrap();
    assert_eq!(t.len(), 800);
    t.check_invariants().unwrap();
    region.close().unwrap();
}

#[test]
fn torn_update_is_rolled_back_but_structure_stays_consistent() {
    let cell = M.cell("torn");
    let path = cell.path("region.nvr");
    {
        let region = Region::create_file(&path, 8 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        // One committed object...
        let obj = store.alloc(1, 64).unwrap().as_ptr() as *mut u64;
        region.set_root("obj", obj as usize).unwrap();
        unsafe {
            let mut tx = store.begin();
            for i in 0..8 {
                tx.set(obj.add(i), 0xAAAA_0000 + i as u64).unwrap();
            }
            tx.commit();
        }
        region.sync().unwrap();
        // ...then a multi-word update interrupted halfway.
        unsafe {
            let mut tx = store.begin();
            for i in 0..4 {
                tx.set(obj.add(i), 0xBBBB_0000 + i as u64).unwrap();
            }
            std::mem::forget(tx); // crash before the remaining 4 words
        }
        drop(store);
        region.crash();
    }
    let region = Region::open_file(&path).unwrap();
    let store = ObjectStore::attach(&region).unwrap();
    assert!(store.recovered());
    let obj = region.root("obj").unwrap() as *const u64;
    for i in 0..8 {
        let v = unsafe { *obj.add(i) };
        assert_eq!(
            v,
            0xAAAA_0000 + i as u64,
            "word {i} must show the committed value"
        );
    }
    region.close().unwrap();
}

#[test]
fn repeated_crashes_converge_to_last_committed_state() {
    let cell = M.cell("repeat");
    let path = cell.path("region.nvr");
    {
        let region = Region::create_file(&path, 4 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let obj = store.alloc(1, 8).unwrap().as_ptr() as *mut u64;
        region.set_root("obj", obj as usize).unwrap();
        unsafe {
            let mut tx = store.begin();
            tx.set(obj, 1).unwrap();
            tx.commit();
        }
        region.sync().unwrap();
        drop(store);
        region.crash();
    }
    for round in 0..3 {
        let region = Region::open_file(&path).unwrap();
        let store = ObjectStore::attach(&region).unwrap();
        let obj = region.root("obj").unwrap() as *mut u64;
        assert_eq!(unsafe { *obj }, 1, "round {round}: committed value intact");
        // Start-and-crash another update each round.
        unsafe {
            let mut tx = store.begin();
            tx.set(obj, 100 + round).unwrap();
            std::mem::forget(tx);
        }
        drop(store);
        region.crash();
    }
    let region = Region::open_file(&path).unwrap();
    let store = ObjectStore::attach(&region).unwrap();
    assert!(store.recovered());
    let obj = region.root("obj").unwrap() as *const u64;
    assert_eq!(unsafe { *obj }, 1);
    region.close().unwrap();
}

#[test]
fn abort_then_commit_sequences_compose() {
    let region = Region::create(1 << 20).unwrap();
    let store = ObjectStore::format(&region).unwrap();
    let obj = store.alloc(1, 8).unwrap().as_ptr() as *mut u64;
    unsafe {
        obj.write(0);
        for i in 1..=10u64 {
            let mut tx: Tx<'_> = store.begin();
            tx.set(obj, i).unwrap();
            if i % 2 == 0 {
                tx.commit();
            } else {
                tx.abort();
            }
        }
        assert_eq!(obj.read(), 10, "only even (committed) updates persist");
    }
    region.close().unwrap();
}

#[test]
fn latency_model_slows_transactions_measurably() {
    use nvm_pi::nvmsim::latency;
    use std::time::Instant;

    let region = Region::create(1 << 20).unwrap();
    let store = ObjectStore::format(&region).unwrap();
    let obj = store.alloc(1, 8).unwrap().as_ptr() as *mut u64;

    let run = |n: u64| {
        let t = Instant::now();
        for i in 0..n {
            unsafe {
                let mut tx = store.begin();
                tx.set(obj, i).unwrap();
                tx.commit();
            }
        }
        t.elapsed()
    };

    let prev = latency::set_model(latency::LatencyModel::OFF);
    let fast = run(200);
    // Exaggerated latencies so the difference dominates scheduler noise.
    latency::set_model(latency::LatencyModel {
        wbarrier_ns: 20_000,
        clflush_ns: 5_000,
    });
    let slow = run(200);
    latency::set_model(prev);

    assert!(
        slow > fast * 2,
        "latency injection must dominate: fast={fast:?} slow={slow:?}"
    );
    region.close().unwrap();
}
