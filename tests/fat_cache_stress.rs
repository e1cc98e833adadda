//! Cross-thread stress test for the fat-pointer `lastID`/`lastAddr`
//! cache (`registry::fat_lookup_cached`).
//!
//! Regression for the torn-pair bug: the cache used to be two independent
//! relaxed atomics (`LAST_ID`, `LAST_BASE`), so a reader racing a refill
//! — or `unregister`'s check-then-act invalidation — could observe region
//! A's id paired with region B's base and resolve a wild address. Reader
//! threads here hammer `FatPtrCached::load` on pointers into several
//! stable regions while a churn thread opens/closes/rebinds other regions
//! (constantly refilling and invalidating the cache); every resolved
//! address must land exactly where its region says it should.

use pi_core::{FatPtrCached, PtrRepr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvmsim::Region;

const STABLE_REGIONS: usize = 4;
const PTRS_PER_REGION: usize = 8;
const READERS: usize = 4;
const RUN_FOR: Duration = Duration::from_millis(800);

#[test]
fn cached_fat_loads_never_tear_across_region_churn() {
    // Stable regions the readers dereference into. Each slot carries its
    // expected absolute address and a tag written at that address, so a
    // torn (id, base) pairing fails both the address and the content
    // check.
    let regions: Vec<Region> = (0..STABLE_REGIONS)
        .map(|_| Region::create(1 << 20).expect("create stable region"))
        .collect();
    let mut slots: Vec<(FatPtrCached, usize, u64)> = Vec::new();
    for (i, r) in regions.iter().enumerate() {
        for j in 0..PTRS_PER_REGION {
            let addr = r.alloc(64, 8).expect("alloc slot").as_ptr() as usize;
            let tag = ((i as u64) << 32) | j as u64 | 0xABCD_0000_0000_0000;
            // SAFETY: freshly allocated 64-byte block inside the region.
            unsafe { (addr as *mut u64).write(tag) };
            let mut f = FatPtrCached::default();
            f.store(addr);
            slots.push((f, addr, tag));
        }
    }
    let slots = Arc::new(slots);
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let slots = Arc::clone(&slots);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let (f, want_addr, want_tag) = &slots[i % slots.len()];
                    let got = f.load();
                    assert_eq!(
                        got, *want_addr,
                        "cached fat load resolved into the wrong region \
                         (torn id/base pair)"
                    );
                    // SAFETY: got == want_addr, a live 64-byte block.
                    let tag = unsafe { (got as *const u64).read() };
                    assert_eq!(tag, *want_tag, "resolved address holds foreign bytes");
                    i += 1;
                }
            })
        })
        .collect();

    // Churn thread: keeps the fat table mutating (open/close) and the
    // cache polluted with short-lived rids, plus rebinds its own region
    // to exercise the rebind-invalidation path.
    let churner = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let r = Region::create(1 << 16).expect("churn region");
                let p = r.alloc(64, 8).expect("churn alloc").as_ptr() as usize;
                let mut f = FatPtrCached::default();
                f.store(p);
                // Pull the churn region's pair into the cache.
                for _ in 0..16 {
                    assert_eq!(f.load(), p);
                }
                // Rebind the live rid elsewhere and back: readers must
                // never see the in-flight base for *their* rids.
                let (rid, base) = (r.rid(), r.base());
                nvmsim::registry::rebind_for_tests(rid, base + (1 << 16));
                nvmsim::registry::rebind_for_tests(rid, base);
                r.close().expect("churn close");
            }
        })
    };

    let t0 = Instant::now();
    while t0.elapsed() < RUN_FOR {
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().expect("reader thread panicked");
    }
    churner.join().expect("churn thread panicked");

    for r in regions {
        r.close().expect("close stable region");
    }
}
