//! Model-based property tests for the transactional store: random
//! operation sequences are mirrored against std-library models and must
//! agree at every step.

use nvm_pi::{ObjectStore, Region};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random schedule of committed and aborted transactions leaves the
    /// object exactly as the committed prefix dictates.
    #[test]
    fn tx_schedule_matches_model(ops in prop::collection::vec((any::<u64>(), any::<bool>()), 1..60)) {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let obj = store.alloc(1, 8).unwrap().as_ptr() as *mut u64;
        let mut model = 0u64;
        unsafe {
            obj.write(0);
            for (value, commit) in ops {
                let mut tx = store.begin();
                tx.set(obj, value).unwrap();
                if commit {
                    tx.commit();
                    model = value;
                } else {
                    tx.abort();
                }
                prop_assert_eq!(obj.read(), model);
            }
        }
        region.close().unwrap();
    }

    /// Multi-range transactions roll back every touched range, regardless
    /// of how many ranges and in what order they were snapshotted.
    #[test]
    fn multi_range_rollback(ranges in prop::collection::vec(0usize..8, 1..12)) {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let cells: Vec<*mut u64> =
            (0..8).map(|_| store.alloc(1, 8).unwrap().as_ptr() as *mut u64).collect();
        unsafe {
            for (i, &c) in cells.iter().enumerate() {
                c.write(i as u64 * 10);
            }
            {
                let mut tx = store.begin();
                for &r in &ranges {
                    tx.set(cells[r], 9999).unwrap();
                }
            } // dropped -> rollback
            for (i, &c) in cells.iter().enumerate() {
                prop_assert_eq!(c.read(), i as u64 * 10);
            }
        }
        region.close().unwrap();
    }

    /// Store allocation/free schedules keep the allocator's live count
    /// equal to the objects the model holds.
    #[test]
    fn store_alloc_free_schedule(ops in prop::collection::vec((1usize..500, any::<bool>()), 1..80)) {
        let region = Region::create(4 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let base = region.stats().live_allocs;
        let mut live = Vec::new();
        for (size, free_one) in ops {
            if free_one && !live.is_empty() {
                let victim = live.swap_remove(live.len() / 2);
                unsafe { store.free(victim).unwrap() };
            } else {
                live.push(store.alloc(7, size).unwrap());
            }
            prop_assert_eq!(region.stats().live_allocs - base, live.len() as u64);
        }
        region.close().unwrap();
    }
}
