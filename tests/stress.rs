//! Stress and concurrency tests for the substrate: segment churn,
//! concurrent region lifecycles vs. concurrent fat-pointer lookups, and
//! parallel allocation in one region.

mod util;

use nvm_pi::nvmsim::metrics::{snapshot, Counter};
use nvm_pi::pi_core::{FatPtr, PtrRepr};
use nvm_pi::{NvSpace, Region};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// These tests contend on the shared segment pool (one even exhausts it);
// `M.lock()` serializes them so they cannot starve each other — and so a
// test's `metrics` delta counts its own calls only — and `M.cell(..)` is
// the scratch directory of a file-backed one.
static M: util::Matrix = util::Matrix::new("stress", 0x5EED);

#[test]
fn segment_churn_open_close_many_rounds() {
    let _serial = M.lock();
    // Repeatedly open and close batches of regions; the segment pool and
    // both lookup tables must stay consistent throughout.
    for round in 0..10 {
        let regions: Vec<Region> = (0..20).map(|_| Region::create(1 << 20).unwrap()).collect();
        let space = NvSpace::global();
        for r in &regions {
            assert_eq!(space.rid_of_addr(r.base() + 64), r.rid(), "round {round}");
            assert_eq!(space.base_of_rid(r.rid()), r.base());
        }
        // Close in interleaved order.
        for (i, r) in regions.into_iter().enumerate() {
            if i % 2 == 0 {
                r.close().unwrap();
            } else {
                drop(r); // drop-close path
            }
        }
    }
}

#[test]
fn many_segments_can_be_held_simultaneously() {
    let _serial = M.lock();
    // Grab a healthy number of segments at once (leaving headroom for the
    // other tests running in this process).
    let regions: Vec<Region> = (0..64).map(|_| Region::create(1 << 20).unwrap()).collect();
    let mut rids: Vec<u32> = regions.iter().map(|r| r.rid()).collect();
    rids.sort_unstable();
    rids.dedup();
    assert_eq!(rids.len(), 64, "all rids distinct");
    let mut bases: Vec<usize> = regions.iter().map(|r| r.base()).collect();
    bases.sort_unstable();
    bases.dedup();
    assert_eq!(bases.len(), 64, "all bases distinct");
    for r in regions {
        r.close().unwrap();
    }
}

#[test]
fn fat_lookups_race_region_lifecycles_safely() {
    let _serial = M.lock();
    // Readers hammer fat-pointer lookups while a writer opens and closes
    // regions. Lookups may miss (region closed) but must never return a
    // stale base for a *live* pointer created after open.
    // Ten images, each reopened three times: a reopen keeps the image's
    // rid, so every rid is registered again at a new base.
    let scratch = M.cell("fat-race");
    let paths: Vec<_> = (0..10)
        .map(|i| scratch.path(&format!("r{i}.nvr")))
        .collect();
    let rids: Arc<Vec<u32>> = Arc::new(
        paths
            .iter()
            .map(|path| {
                let r = Region::create_file(path, 1 << 20).unwrap();
                let rid = r.rid();
                r.close().unwrap();
                rid
            })
            .collect(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (stop, rids) = (stop.clone(), rids.clone());
            std::thread::spawn(move || {
                let mut hits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for &rid in rids.iter() {
                        if let Some(base) = nvm_pi::nvmsim::registry::fat_lookup(rid) {
                            assert!(base != 0);
                            hits += 1;
                        }
                    }
                }
                hits
            })
        })
        .collect();

    for round in 0..30 {
        if let Ok(r) = Region::open_file(&paths[round % 10]) {
            let p = r.alloc(64, 8).unwrap().as_ptr() as usize;
            let mut f = FatPtr::default();
            f.store(p);
            assert_eq!(f.load(), p);
            r.close().unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    for t in readers {
        t.join().unwrap();
    }
}

#[test]
fn parallel_allocations_in_one_region_do_not_overlap() {
    let _serial = M.lock();
    let region = Region::create(16 << 20).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let r = region.clone();
            std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..500 {
                    let size = 16 + (t * 131 + i * 7) % 300;
                    let p = r.alloc(size, 8).unwrap();
                    // Stamp the block; verify later for cross-thread smearing.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), t as u8 + 1, size) };
                    mine.push((p.as_ptr() as usize, size, t as u8 + 1));
                }
                mine
            })
        })
        .collect();
    let mut all: Vec<(usize, usize, u8)> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    // No two blocks overlap.
    all.sort_unstable();
    for w in all.windows(2) {
        assert!(w[0].0 + w[0].1 <= w[1].0, "blocks overlap: {w:?}");
    }
    // Every block still carries its stamp (no one else wrote into it).
    for &(addr, size, stamp) in &all {
        let bytes = unsafe { std::slice::from_raw_parts(addr as *const u8, size) };
        assert!(bytes.iter().all(|&b| b == stamp));
    }
    region.close().unwrap();
}

#[test]
fn concurrent_churn_conserves_alloc_stats_and_never_double_serves() {
    let _serial = M.lock();
    // Four threads churn alloc/free cycles on one shared region across a
    // mix of size classes. Every live block is stamped with a unique tag;
    // if two threads were ever handed the same block (a double-serve from
    // a bitmap), the stamp check fails. At the end the user-visible
    // statistics must balance exactly, and the process-wide call counters
    // must have seen every call.
    const THREADS: usize = 4;
    const OPS: usize = 2_000;
    const SIZES: [usize; 5] = [16, 48, 128, 384, 1024];
    let region = Region::create(32 << 20).unwrap();
    let before = snapshot();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let r = region.clone();
            std::thread::spawn(move || {
                let mut live: Vec<(std::ptr::NonNull<u8>, usize, u64)> = Vec::new();
                let mut allocs = 0u64;
                let mut frees = 0u64;
                let mut bytes = 0u64;
                for i in 0..OPS {
                    let churn = i % 3 != 0; // free two of every three rounds
                    if churn && !live.is_empty() {
                        let (p, size, tag) = live.swap_remove(i % live.len());
                        // The stamp must still be ours: nobody else may
                        // have been served this block while we held it.
                        let got = unsafe { (p.as_ptr() as *const u64).read() };
                        assert_eq!(got, tag, "block served to two owners");
                        unsafe { r.dealloc(p, size).unwrap() };
                        frees += 1;
                        bytes -= nvm_pi::nvmsim::alloc::AllocHeader::rounded_size(size) as u64;
                    } else {
                        let size = SIZES[(t + i) % SIZES.len()];
                        let p = r.alloc(size, 8).unwrap();
                        let tag = ((t as u64) << 32) | i as u64;
                        unsafe { (p.as_ptr() as *mut u64).write(tag) };
                        live.push((p, size, tag));
                        allocs += 1;
                        bytes += nvm_pi::nvmsim::alloc::AllocHeader::rounded_size(size) as u64;
                    }
                }
                // Verify and free the remainder.
                for (p, size, tag) in live.drain(..) {
                    let got = unsafe { (p.as_ptr() as *const u64).read() };
                    assert_eq!(got, tag, "block served to two owners");
                    unsafe { r.dealloc(p, size).unwrap() };
                    frees += 1;
                    bytes -= nvm_pi::nvmsim::alloc::AllocHeader::rounded_size(size) as u64;
                }
                (allocs, frees, bytes)
            })
        })
        .collect();
    let mut total_allocs = 0u64;
    let mut total_frees = 0u64;
    for h in handles {
        let (a, f, b) = h.join().unwrap();
        assert_eq!(a, f, "every thread freed what it allocated");
        assert_eq!(b, 0, "per-thread byte balance");
        total_allocs += a;
        total_frees += f;
    }
    let calls = snapshot().delta(&before);
    assert_eq!(
        calls.get(Counter::RegionAllocs),
        total_allocs,
        "alloc calls conserved"
    );
    assert_eq!(
        calls.get(Counter::RegionFrees),
        total_frees,
        "free calls conserved"
    );
    let s = region.stats();
    assert_eq!(s.live_allocs, 0, "no live blocks remain");
    assert_eq!(s.live_bytes, 0, "no live bytes remain");
    // A durability point writes a metadata slot and nothing else.
    region.update_meta_slots().unwrap();
    let s = region.stats();
    assert_eq!(s.live_allocs, 0);
    assert_eq!(s.live_bytes, 0);
    region.close().unwrap();
}

#[test]
fn fault_injected_crash_never_double_serves_blocks() {
    use nvm_pi::nvmsim::shadow;
    let _serial = M.lock();
    const THREADS: usize = 4;
    const SIGNED: usize = 200;
    const BLOCK: usize = 64;
    let cell = M.cell("faultcrash");
    let path = cell.path("faultcrash.nvr");
    let mut signed_offs: Vec<u64> = Vec::new();
    let report;
    {
        let region = Region::create_file(&path, 32 << 20).unwrap();
        // Long-lived signed blocks, made durable before the fault window
        // opens. Each is filled with a distinct byte pattern; any block
        // later double-served would smear it.
        for i in 0..SIGNED {
            let p = region.alloc(BLOCK, 8).unwrap();
            unsafe { std::ptr::write_bytes(p.as_ptr(), (i % 251) as u8 + 1, BLOCK) };
            signed_offs.push(region.offset_of(p.as_ptr() as usize).unwrap());
        }
        region.sync().unwrap();
        region.enable_shadow().unwrap();
        // Churn threads allocate fresh blocks, scribble tags into them
        // without flushing (tracked, so the writes are *lost* at the
        // faulted crash), and free every other one, so the crash lands
        // on an allocator with both live and recycled blocks.
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let r = &region;
                s.spawn(move || {
                    for i in 0..120u64 {
                        let p = r.alloc(BLOCK, 8).unwrap();
                        unsafe { (p.as_ptr() as *mut u64).write((t << 32) | i) };
                        shadow::track_store(p.as_ptr() as usize, 8);
                        if i % 2 == 0 {
                            unsafe { r.dealloc(p, BLOCK).unwrap() };
                        }
                    }
                });
            }
        });
        report = region
            .crash_with_faults(nvm_pi::FaultPolicy::DropUnflushed)
            .unwrap();
    }
    assert!(
        report.dropped_lines > 0,
        "the unflushed churn writes must be dropped by the fault policy"
    );
    let region = Region::open_file(&path).unwrap();
    assert!(region.was_dirty(), "faulted crash left the image dirty");
    let stamp = region.fault_stamp().expect("faulted image carries a stamp");
    assert_eq!(stamp.dropped_lines, report.dropped_lines);
    // Every signed block survived the faulted crash intact.
    for (i, &off) in signed_offs.iter().enumerate() {
        let bytes = unsafe { std::slice::from_raw_parts(region.ptr_at(off) as *const u8, BLOCK) };
        let want = (i % 251) as u8 + 1;
        assert!(
            bytes.iter().all(|&x| x == want),
            "signed block {i} corrupted after faulted crash"
        );
    }
    // Fresh allocations must never be served from a stranded block: all
    // distinct, non-overlapping with each other and with every signed
    // block (the allocator header between payloads makes the gap strict).
    let mut fresh: Vec<u64> = Vec::new();
    for _ in 0..500 {
        let p = region.alloc(BLOCK, 8).unwrap();
        unsafe { std::ptr::write_bytes(p.as_ptr(), 0xEE, BLOCK) };
        fresh.push(region.offset_of(p.as_ptr() as usize).unwrap());
    }
    let mut all: Vec<u64> = signed_offs.iter().chain(fresh.iter()).copied().collect();
    all.sort_unstable();
    for w in all.windows(2) {
        assert!(
            w[0] + BLOCK as u64 <= w[1],
            "blocks at offsets {} and {} overlap: a block was double-served",
            w[0],
            w[1]
        );
    }
    // Writing into the fresh blocks must not have smeared any signature.
    for (i, &off) in signed_offs.iter().enumerate() {
        let bytes = unsafe { std::slice::from_raw_parts(region.ptr_at(off) as *const u8, BLOCK) };
        let want = (i % 251) as u8 + 1;
        assert!(
            bytes.iter().all(|&x| x == want),
            "signed block {i} smeared by a post-recovery allocation"
        );
    }
    region.close().unwrap();
    let region = Region::open_file(&path).unwrap();
    assert!(!region.was_dirty(), "clean close after faulted recovery");
    region.close().unwrap();
}

#[test]
fn region_out_of_chunk_runs_reports_cleanly() {
    let _serial = M.lock();
    // Blanket the data area in huge virtually-reserved regions (1 GiB of
    // capacity each, only 1 MiB committed): contiguous-run exhaustion
    // must surface as NoFreeSegment, small regions must still fit in the
    // leftover fragments, and everything must recover after release.
    const CAP: usize = 1 << 30;
    let ceiling = NvSpace::global().layout().data_area_size() / CAP + 2;
    let mut held = Vec::new();
    loop {
        match Region::create_with_capacity(1 << 20, CAP, None) {
            Ok(r) => held.push(r),
            Err(nvm_pi::NvError::NoFreeSegment) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
        assert!(
            held.len() <= ceiling,
            "chunk pool should exhaust within {ceiling} reservations"
        );
    }
    assert!(!held.is_empty(), "at least one 1 GiB reservation must fit");
    // Single-chunk regions still fit in the fragments between runs.
    let small = Region::create(1 << 20).unwrap();
    small.close().unwrap();
    // Release everything; a fresh 1 GiB reservation works again.
    for r in held.drain(..) {
        r.close().unwrap();
    }
    let r = Region::create_with_capacity(1 << 20, CAP, None).unwrap();
    r.close().unwrap();
}
