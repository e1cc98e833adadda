//! Crash recovery of the region allocator, the lock-free bitmap core.
//!
//! The contract under test: every `alloc`/`dealloc` that *returned*
//! persisted its bitmap transition (CAS, flush, fence) before returning,
//! so a crash — even a fault-injected one that drops or tears every
//! unflushed line — loses nothing and strands nothing. After reopening
//! (remapped), `Region::stats` must equal the application's surviving
//! live set *exactly*: zero leaked blocks, zero lost blocks.
//!
//! Two single-threaded cells pin what the chain of bitmap pages itself
//! must survive: a frontier word torn away from the descriptor it was
//! flushed with, and a crash between chaining a page and its first
//! descriptor. One more crashes every durability point (`sync`,
//! `update_meta_slots`, `grow`, a clean close) at every event with class
//! and large blocks live, another every allocation and free of blocks
//! above 4 KiB, and v3/v4 images pin the header-version refusal. A
//! scheduled two-thread cell races a plain allocation against an
//! aborting transaction's given-back block.
//!
//! Seed, replay tag, serial lock and scratch directories come from the
//! shared [`util::Matrix`] (`MATRIX_SEED`, `MATRIX_ARTIFACT_DIR`).

use nvm_pi::nvmsim::alloc::AllocHeader;
use nvm_pi::nvmsim::region::RegionHeader;
use nvm_pi::nvmsim::{inspect, latency, sched, shadow};
use nvm_pi::{CapturedCrash, FaultPlan, FaultPolicy, NvError, ObjectStore, Region, Scheduler};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

mod util;

// These tests contend on the shared segment pool; `M` serializes them.
static M: util::Matrix = util::Matrix::new("alloc_recovery", 0x5EED_0001);

const THREADS: usize = 4;
const OPS: usize = 600;
/// Class sizes the churn draws from (all served by the bitmap level).
const SIZES: [usize; 4] = [16, 64, 256, 1024];

/// Seeded N-thread churn, a fault-injected crash with every thread's
/// live set in hand, and an exactness audit of the reopened image.
fn churn_crash_audit(name: &str, policy: FaultPolicy) {
    let _serial = M.lock();
    let tag = M.tag();
    let cell = M.cell(name);
    let path = cell.path("churn.nvr");

    // (offset, size) of every block the application still held when the
    // region crashed — the ground truth the reopened stats must match.
    let held: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let (report, mut prev);
    {
        let region = Region::create_file(&path, 32 << 20).unwrap();
        // Prelude: put traffic through the bitmap, then fold the
        // statistics durably. The open after the crash must back out
        // this fold-time bitmap contribution — not the crash-time one —
        // for the audit below to balance.
        let mut prelude = Vec::new();
        for i in 0..100 {
            let p = region.alloc(64, 8).unwrap();
            if i % 3 == 0 {
                unsafe { region.dealloc(p, 64).unwrap() };
            } else {
                prelude.push(region.offset_of(p.as_ptr() as usize).unwrap());
            }
        }
        region.sync().unwrap();
        held.lock()
            .unwrap()
            .extend(prelude.into_iter().map(|off| (off, 64)));

        region.enable_shadow().unwrap();
        // Threads stay alive across the crash (the usual idiom): their
        // live sets are reported through `held` before the barrier.
        let barrier = Arc::new(Barrier::new(THREADS + 1));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let r = region.clone();
                let b = barrier.clone();
                let held = held.clone();
                let mut rng = M.stream(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1));
                std::thread::spawn(move || {
                    let mut live: Vec<(NonNull<u8>, usize)> = Vec::new();
                    for _ in 0..OPS {
                        if !rng.next().is_multiple_of(3) || live.is_empty() {
                            let size = SIZES[(rng.next() % 4) as usize];
                            let p = r.alloc(size, 8).unwrap();
                            // Scribble without flushing — tracked, so the
                            // fault policy drops or tears this line; the
                            // bitmap transition it rides on is fenced and
                            // must survive regardless.
                            unsafe { (p.as_ptr() as *mut u64).write(rng.0) };
                            shadow::track_store(p.as_ptr() as usize, 8);
                            live.push((p, size));
                        } else {
                            let i = (rng.next() as usize) % live.len();
                            let (p, size) = live.swap_remove(i);
                            unsafe { r.dealloc(p, size).unwrap() };
                        }
                    }
                    let mut h = held.lock().unwrap();
                    for &(p, size) in &live {
                        h.push((r.offset_of(p.as_ptr() as usize).unwrap(), size));
                    }
                    drop(h);
                    b.wait(); // live sets reported
                    b.wait(); // crash happened
                })
            })
            .collect();
        barrier.wait();
        prev = region.base();
        report = region.crash_with_faults(policy).unwrap();
        barrier.wait();
        for h in handles {
            h.join().unwrap();
        }
    }
    // The unflushed scribbles guarantee the fault policy had real work.
    assert!(
        report.dropped_lines + report.torn_lines > 0,
        "[{name} {tag}] churn must leave unflushed lines for the fault policy to eat"
    );

    let held = Arc::try_unwrap(held).unwrap().into_inner().unwrap();
    let want_blocks = held.len() as u64;
    let want_bytes: u64 = held.iter().map(|&(_, s)| s as u64).sum();

    let region = cell.remap(&path, &mut prev).unwrap();
    util::check_faulted(&region, &report, &format!("{name} {tag}"));
    let s = region.stats();
    assert_eq!(
        s.live_allocs, want_blocks,
        "[{name} {tag}] recovered live blocks must equal the application's surviving \
         set exactly (zero leak, zero loss)"
    );
    assert_eq!(
        s.live_bytes, want_bytes,
        "[{name} {tag}] recovered live bytes exact"
    );

    // Fresh allocations must never overlap a surviving block.
    let mut fresh = Vec::new();
    for _ in 0..400 {
        let p = region.alloc(64, 8).unwrap();
        fresh.push((region.offset_of(p.as_ptr() as usize).unwrap(), p));
    }
    for &(f, _) in &fresh {
        for &(off, size) in &held {
            assert!(
                f + 64 <= off || off + size as u64 <= f,
                "[{name} {tag}] fresh block at {f:#x} overlaps surviving block \
                 [{off:#x}, +{size})"
            );
        }
    }
    // Free everything — survivors by offset, fresh by pointer — and the
    // region must come back to exactly zero live.
    for &(off, size) in &held {
        let p = NonNull::new(region.ptr_at(off) as *mut u8).unwrap();
        unsafe { region.dealloc(p, size).unwrap() };
    }
    for &(_, p) in &fresh {
        unsafe { region.dealloc(p, 64).unwrap() };
    }
    let s = region.stats();
    assert_eq!(s.live_allocs, 0, "[{name} {tag}] all blocks returned");
    assert_eq!(s.live_bytes, 0);
    region.close().unwrap();

    let region = cell.remap(&path, &mut prev).unwrap();
    assert!(!region.was_dirty(), "clean close after recovery");
    let s = region.stats();
    assert_eq!(
        s.live_allocs, 0,
        "[{name} {tag}] clean image agrees: nothing live"
    );
    region.close().unwrap();
}

#[test]
fn multithread_crash_drop_unflushed_leaks_nothing() {
    churn_crash_audit("drop", FaultPolicy::DropUnflushed);
}

#[test]
fn multithread_crash_tear_words_leaks_nothing() {
    churn_crash_audit("tear", FaultPolicy::TearWords { seed: M.seed() });
}

/// Sorted block offsets of one class must be pairwise disjoint.
fn assert_disjoint(mut offs: Vec<u64>, size: u64, ctx: &str) {
    offs.sort_unstable();
    for w in offs.windows(2) {
        assert!(
            w[0] + size <= w[1],
            "[{ctx}] blocks at {:#x} and {:#x} overlap",
            w[0],
            w[1]
        );
    }
}

/// `grow` fences a subtree's descriptor, then stages its page's count and
/// the bump frontier under one more fence, so a tear can keep the count
/// and lose the frontier. The open must then re-derive the frontier from the
/// chain: the next subtree may never be carved over the kept one.
#[test]
fn torn_frontier_is_rederived_from_the_chain_at_open() {
    let _serial = M.lock();
    let cell = M.cell("frontier");
    let ctx = format!("frontier {}", M.tag());
    const BUMP: usize = RegionHeader::OFF_ALLOC + AllocHeader::OFF_BUMP;
    let bump_of = |img: &[u8]| u64::from_le_bytes(img[BUMP..BUMP + 8].try_into().unwrap());

    let region = Region::create_file(cell.path("orig.nvr"), 2 << 20).unwrap();
    region.alloc_off(64, 8).unwrap();
    region.sync().unwrap();
    let before = region.stats().bump;
    region.enable_shadow().unwrap();
    let plan = FaultPlan::capture_all(&region, FaultPolicy::DropUnflushed);
    // The first block of another class: one grow, then its bitmap word.
    region.alloc_off(256, 8).unwrap();
    let crashes = plan.disarm();
    assert!(
        region.stats().bump > before,
        "[{ctx}] the grow carved a span"
    );
    let mut prev = region.base();
    region.crash();

    // The frontier is a store like any other: at the grow's fence the
    // drop policy loses it together with the descriptor.
    let lost = crashes
        .iter()
        .rfind(|c| bump_of(&c.image) == before)
        .unwrap_or_else(|| panic!("[{ctx}] no crash point loses the frontier: it is not tracked"));
    // The tear that matters, at word granularity: the image after that
    // fence (descriptor and count on media) with the frontier word of
    // the image before it.
    let last = crashes.last().unwrap();
    let mut image = last.image.clone();
    image[BUMP..BUMP + 8].copy_from_slice(&lost.image[BUMP..BUMP + 8]);
    let ll = inspect::inspect_llalloc_bytes(&image).unwrap();
    assert_eq!(ll.subtrees.len(), 2, "[{ctx}] the descriptor is on media");
    let kept = ll.subtrees[1];
    assert!(
        bump_of(&image) <= kept.base,
        "[{ctx}] the image's frontier does not cover the kept span"
    );
    let torn = CapturedCrash {
        event: last.event,
        image,
        report: last.report,
    };

    let region = cell.recover(&torn, &mut prev, &ctx);
    assert!(
        region.stats().bump >= kept.end(),
        "[{ctx}] open must raise the frontier past the kept span"
    );
    // 64 blocks fill the kept subtree, the 65th grows the next one.
    let offs: Vec<u64> = (0..65).map(|_| region.alloc_off(256, 8).unwrap()).collect();
    assert_disjoint(offs, 256, &ctx);
    region.close().unwrap();
}

/// A crash between chaining a fresh bitmap page and fencing its first
/// descriptor leaves the chain ending in an empty page. The next grow
/// must place its descriptor *in that page*: relinking the predecessor
/// past it would write descriptors into an unreachable page, and every
/// block served from them would be gone after the next reopen.
#[test]
fn chain_ending_in_an_empty_page_is_reused_by_the_next_grow() {
    let _serial = M.lock();
    let cell = M.cell("empty-page");
    const FULL_PAGE: u64 = 63 * 64;
    let region = Region::create_file(cell.path("orig.nvr"), 2 << 20).unwrap();
    for _ in 0..FULL_PAGE {
        region.alloc_off(64, 8).unwrap();
    }
    region.sync().unwrap();
    region.enable_shadow().unwrap();
    let plan = FaultPlan::capture_all(&region, FaultPolicy::DropUnflushed);
    // Subtree 64: chains page 1, then writes its first descriptor.
    region.alloc_off(64, 8).unwrap();
    let crashes = plan.disarm();
    let mut prev = region.base();
    region.crash();

    let mut windows = 0;
    for c in &crashes {
        let ll = inspect::inspect_llalloc_bytes(&c.image).unwrap();
        if (ll.pages, ll.subtrees.len()) != (2, 63) {
            continue;
        }
        windows += 1;
        let ctx = format!("empty-page {} event {}", M.tag(), c.event);
        let region = cell.recover(c, &mut prev, &ctx);
        assert_eq!(region.stats().live_allocs, FULL_PAGE, "[{ctx}] recovered");
        let offs: Vec<u64> = (0..65).map(|_| region.alloc_off(64, 8).unwrap()).collect();
        assert_disjoint(offs, 64, &ctx);
        region.close().unwrap();

        let region = cell.remap(&cell.path("crash.nvr"), &mut prev).unwrap();
        assert!(!region.was_dirty(), "[{ctx}] clean close");
        assert_eq!(
            region.stats().live_allocs,
            FULL_PAGE + 65,
            "[{ctx}] blocks served after the reopen survive the next one"
        );
        let subtrees: u64 = region.llalloc_occupancy().iter().map(|o| o.subtrees).sum();
        assert_eq!(subtrees, 65, "[{ctx}] and so do their two subtrees");
        region.close().unwrap();
    }
    assert!(
        windows >= 1,
        "[{}] no crash point leaves 2 pages / 63 subtrees",
        M.tag()
    );
}

/// `Region::stats` is the bitmap popcount, the allocator's one record, and
/// no durability point writes it, so every crash image of every
/// durability point reopens with the live set exact. (Totals folded into
/// the header at each durability point and backed out at open against a
/// first-page snapshot flushed under a different fence once counted the
/// bitmap blocks twice at a `sync`'s first crash points.)
#[test]
fn live_counts_are_exact_at_every_crash_point_of_every_durability_point() {
    let _serial = M.lock();
    const SMALL: usize = 64;
    /// Above the largest size class: a whole-granule span of its own.
    const LARGE: usize = 5_000;
    let want = (
        20,
        17 * SMALL as u64 + 3 * AllocHeader::rounded_size(LARGE) as u64,
    );
    for policy in M.policies() {
        let name = util::policy_name(policy);
        let cell = M.cell(&format!("live-{name}"));
        let region =
            Region::create_with_capacity(1 << 20, 2 << 20, Some(&cell.path("orig.nvr"))).unwrap();
        for _ in 0..3 {
            region.alloc_off(LARGE, 8).unwrap();
        }
        let first: Vec<_> = (0..10).map(|_| region.alloc(SMALL, 8).unwrap()).collect();
        region.sync().unwrap();
        for _ in 0..10 {
            region.alloc_off(SMALL, 8).unwrap();
        }
        for &p in &first[..3] {
            // SAFETY: allocated above with this size, freed once.
            unsafe { region.dealloc(p, SMALL).unwrap() };
        }
        region.enable_shadow().unwrap();
        let live = |r: &Region| (r.stats().live_allocs, r.stats().live_bytes);
        assert_eq!(
            live(&region),
            want,
            "[{name} {}] before the window",
            M.tag()
        );

        let plan = FaultPlan::capture_all(&region, policy);
        region.sync().unwrap();
        region.update_meta_slots().unwrap();
        region.grow(3 << 19).unwrap();
        let mut prev = region.base();
        region.close().unwrap();
        let crashes = plan.disarm();
        assert!(!crashes.is_empty(), "[{name} {}] no crash points", M.tag());
        for c in &crashes {
            let ctx = format!("live {name} event {} {}", c.event, M.tag());
            let region = cell.recover(c, &mut prev, &ctx);
            assert_eq!(live(&region), want, "[{ctx}] (live allocs, live bytes)");
            region.crash();
        }
        eprintln!("[live {name}] {} crash points", crashes.len());
    }
}

/// Allocates `size` bytes of a region nothing else allocates in:
/// `(offset, size, bytes served)`, the last read off the live-byte count.
fn alloc_served(region: &Region, size: usize) -> (u64, usize, u64) {
    let before = region.stats().live_bytes;
    let off = region.alloc_off(size, 8).unwrap();
    let served = region.stats().live_bytes - before;
    assert!(served >= AllocHeader::rounded_size(size) as u64);
    (off, size, served)
}

/// Blocks above 4 KiB are bitmap-owned spans like any other: every crash
/// point of a window that carves, frees and reuses them reopens with the
/// live set of the ops that returned, give or take the one op the crash
/// interrupted — never a lost or a leaked block — and allocates without
/// overlapping what survived.
#[test]
fn large_blocks_are_exact_at_every_crash_point() {
    let _serial = M.lock();
    /// `(size, None)` allocates, `(_, Some(i))` frees the `i`-th block
    /// allocated so far (pre-window blocks first).
    const WINDOW: [(usize, Option<usize>); 7] = [
        (9_000, None),  // a fresh span
        (0, Some(0)),   // free a 5 120-byte block...
        (4_500, None),  // ...and reuse it
        (64, None),     // a class-sized block in between
        (0, Some(1)),   // free the 16 KiB block...
        (12_000, None), // ...and reuse it (12 KiB wastes under half)
        (20_000, None), // a fresh span again
    ];
    for policy in M.policies() {
        let name = util::policy_name(policy);
        let cell = M.cell(&format!("large-{name}"));
        let region = Region::create_file(cell.path("orig.nvr"), 1 << 20).unwrap();
        // (offset, size, bytes served): a reused span is served whole.
        let mut blocks: Vec<(u64, usize, u64)> = [5_000, 16 << 10]
            .iter()
            .map(|&size| alloc_served(&region, size))
            .collect();
        let mut live: Vec<usize> = vec![0, 1];
        region.sync().unwrap();
        region.enable_shadow().unwrap();
        shadow::reset_events_for(region.base());
        // The live set (indices into `blocks`) after each op, with the
        // event count at which the op had returned.
        let mut states = vec![(0, live.clone())];
        let plan = FaultPlan::capture_all(&region, policy);
        for (size, free) in WINDOW {
            match free {
                Some(i) => {
                    let p = NonNull::new(region.ptr_at(blocks[i].0) as *mut u8).unwrap();
                    // SAFETY: allocated above with this size, freed once.
                    unsafe { region.dealloc(p, blocks[i].1).unwrap() };
                    live.retain(|&j| j != i);
                }
                None => {
                    blocks.push(alloc_served(&region, size));
                    live.push(blocks.len() - 1);
                }
            }
            states.push((shadow::event_count_for(region.base()), live.clone()));
        }
        let crashes = plan.disarm();
        assert_eq!(blocks[3].0, blocks[0].0, "the freed 5 KiB span is reused");
        assert_eq!(blocks[5].0, blocks[1].0, "the freed 16 KiB span is reused");
        let mut prev = region.base();
        region.crash();

        let tally = |set: &[usize]| {
            let bytes = set.iter().map(|&i| blocks[i].2);
            (set.len() as u64, bytes.sum::<u64>())
        };
        for c in &crashes {
            let ctx = format!("large {name} event {} {}", c.event, M.tag());
            // The image holds every op that returned before the event; the
            // op in flight may have reached media or not.
            let k = states.iter().rposition(|&(at, _)| at < c.event).unwrap();
            let (done, next) = (&states[k].1, &states[(k + 1).min(states.len() - 1)].1);
            let region = cell.recover(c, &mut prev, &ctx);
            let s = region.stats();
            let got = (s.live_allocs, s.live_bytes);
            assert!(
                got == tally(done) || got == tally(next),
                "[{ctx}] recovered {got:?}, want {:?} or {:?}",
                tally(done),
                tally(next)
            );
            // Blocks live on both sides of the interrupted op survive;
            // nothing allocated now may overlap one.
            let mut spans: Vec<(u64, u64)> = done
                .iter()
                .filter(|i| next.contains(i))
                .map(|&i| (blocks[i].0, blocks[i].2))
                .collect();
            for size in [16 << 10, 5_000, 9_000].into_iter().chain([256; 65]) {
                let (off, _, served) = alloc_served(&region, size);
                spans.push((off, served));
            }
            spans.sort_unstable();
            for w in spans.windows(2) {
                assert!(
                    w[0].0 + w[0].1 <= w[1].0,
                    "[{ctx}] blocks {:#x}+{} and {:#x}+{} overlap",
                    w[0].0,
                    w[0].1,
                    w[1].0,
                    w[1].1
                );
            }
            region.crash();
        }
        eprintln!("[large {name}] {} crash points", crashes.len());
    }
}

/// An aborted transaction's allocation is served to another thread only
/// once the abort's truncate is durable. Thread 0 aborts a transaction
/// that allocated block `x` and published it; thread 1 keeps claiming
/// exactly `x` with a plain allocation and links it durably once it has
/// it. At every crash point of every seeded schedule, a linked `x` must
/// recover allocated: had the hold ended before the truncate, a crash
/// between the two would replay the allocation's entry and free a
/// reachable block.
#[test]
fn an_aborted_allocation_is_served_again_only_after_its_truncate() {
    let _serial = M.lock();
    const SCHEDULES: u64 = 12;
    const SIZE: usize = 32;
    let mut linked = 0;
    for policy in M.policies() {
        let name = util::policy_name(policy);
        for schedule in 0..SCHEDULES {
            let cell = M.cell(&format!("abort-{name}-{schedule}"));
            let region = Region::create_file(cell.path("orig.nvr"), 1 << 20).unwrap();
            let store = ObjectStore::format(&region).unwrap();
            // Addresses of two 8-byte objects: the slot thread 0's
            // transaction publishes `x` in, and the link thread 1 does.
            let [slot, link] = [0, 0].map(|_| {
                let p = store.alloc(1, 8).unwrap().as_ptr() as *mut u64;
                // SAFETY: a fresh 8-byte object.
                unsafe { p.write(0) };
                p as usize
            });
            region.set_root("link", link).unwrap();
            region.sync().unwrap();
            region.enable_shadow().unwrap();
            let x = AtomicU64::new(0);
            let sched = Scheduler::new(M.seed() ^ schedule, 2);
            let plan = FaultPlan::capture_all(&region, policy);
            std::thread::scope(|s| {
                s.spawn(|| {
                    sched.run(0, || {
                        let mut tx = store.begin();
                        let p = tx.alloc(1, SIZE).unwrap();
                        let off = region.offset_of(p.as_ptr() as usize).unwrap();
                        x.store(off, Ordering::Release);
                        // SAFETY: the slot is a live 8-byte object.
                        unsafe { tx.set(slot as *mut u64, off).unwrap() };
                        tx.abort();
                    })
                });
                s.spawn(|| {
                    sched.run(1, || loop {
                        let off = x.load(Ordering::Acquire);
                        if off != 0 && region.alloc_at(off, SIZE).unwrap() {
                            // SAFETY: the link is a live 8-byte object.
                            unsafe { (link as *mut u64).write(off) };
                            shadow::track_store(link, 8);
                            latency::clflush_range(link, 8);
                            latency::wbarrier();
                            return;
                        }
                        sched::yield_point();
                    })
                });
            });
            // One more crash point, after the link is durable.
            latency::wbarrier();
            let crashes = plan.disarm();
            let x = x.into_inner();
            let mut prev = region.base();
            drop(store);
            region.crash();
            for c in &crashes {
                let ctx = format!(
                    "abort {name} schedule {schedule} event {} {}",
                    c.event,
                    M.tag()
                );
                let region = cell.recover(c, &mut prev, &ctx);
                ObjectStore::attach(&region).unwrap();
                // SAFETY: the root names the 8-byte link object.
                let got = unsafe { *(region.root("link").unwrap() as *const u64) };
                if got != 0 {
                    assert_eq!(got, x, "[{ctx}] the link holds x or nothing");
                    assert!(
                        region.live_blocks().contains(&(x, SIZE as u64)),
                        "[{ctx}] x at {x:#x} is linked but free after recovery"
                    );
                    linked += 1;
                }
                region.crash();
            }
        }
    }
    assert!(linked > 0, "[{}] no crash image linked x", M.tag());
}

/// Header v4 moved every allocator word and v5 dropped the free lists, so
/// v3 and v4 images are refused — by the open, typed and naming the
/// version, and by `nvr_inspect verify`.
#[test]
fn v3_images_are_refused_by_open_and_verify() {
    let _serial = M.lock();
    let cell = M.cell("old-versions");
    let path = cell.path("old.nvr");
    Region::create_file(&path, 1 << 20)
        .unwrap()
        .close()
        .unwrap();
    let image = std::fs::read(&path).unwrap();
    for version in [3u32, 4] {
        let mut img = image.clone();
        img[RegionHeader::OFF_VERSION..][..4].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &img).unwrap();
        match Region::open_file(&path) {
            Err(NvError::BadImage(why)) => {
                assert!(why.contains(&format!("version {version}")), "{why}")
            }
            other => panic!("a v{version} image must be refused as BadImage, got {other:?}"),
        }
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nvr_inspect"))
            .args(["verify", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "v{version}: {out:?}");
    }
}
