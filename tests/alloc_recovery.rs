//! Multi-threaded crash recovery of the lock-free two-level allocator.
//!
//! The contract under test: every `alloc`/`dealloc` that *returned*
//! persisted its bitmap transition (CAS, flush, fence) before returning,
//! so a crash — even a fault-injected one that drops or tears every
//! unflushed line — loses nothing and strands nothing. After reopening,
//! `Region::stats` must equal the application's surviving live set
//! *exactly*: zero leaked blocks, zero lost blocks. (The locked free-list
//! path's crash behaviour is pinned in `tests/stress.rs`.)
//!
//! The churn is seeded; `ALLOC_MATRIX_SEED` overrides the seed so CI can
//! run both a pinned and a randomized arm (see `.github/workflows/ci.yml`).

use nvm_pi::nvmsim::shadow;
use nvm_pi::{FaultPolicy, Region};
use std::ptr::NonNull;
use std::sync::{Arc, Barrier, Mutex};

mod util;

// These tests contend on the shared segment pool; serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

const THREADS: usize = 4;
const OPS: usize = 600;
/// Class sizes the churn draws from (all served by the bitmap level).
const SIZES: [usize; 4] = [16, 64, 256, 1024];

fn seed_from_env(default: u64) -> u64 {
    util::env_seed("ALLOC_MATRIX_SEED", default)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Seeded N-thread churn, a fault-injected crash with every thread's
/// live set in hand, and an exactness audit of the reopened image.
fn churn_crash_audit(name: &str, policy: FaultPolicy, seed: u64) {
    let _serial = util::serial_guard(&SERIAL);
    let tag = util::seed_tag("ALLOC_MATRIX_SEED", seed);
    let dir = std::env::temp_dir().join(format!("nvmsim-allocrec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();

    // (offset, size) of every block the application still held when the
    // region crashed — the ground truth the reopened stats must match.
    let held: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let report;
    {
        let region = Region::create_file(&path, 32 << 20).unwrap();
        assert!(
            region.lockfree_enabled(),
            "fresh regions default to the lock-free bitmap allocator"
        );
        // Prelude: put traffic through the bitmap, then fold the
        // statistics durably. The open after the crash must back out
        // this fold-time bitmap contribution — not the crash-time one —
        // for the audit below to balance.
        let mut prelude = Vec::new();
        for i in 0..100 {
            let p = region.alloc(64, 8).unwrap();
            if i % 3 == 0 {
                unsafe { region.dealloc(p, 64) };
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
                std::thread::spawn(move || {
                    let mut rng = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1));
                    let mut live: Vec<(NonNull<u8>, usize)> = Vec::new();
                    for _ in 0..OPS {
                        if !xorshift(&mut rng).is_multiple_of(3) || live.is_empty() {
                            let size = SIZES[(xorshift(&mut rng) % 4) as usize];
                            let p = r.alloc(size, 8).unwrap();
                            // Scribble without flushing — tracked, so the
                            // fault policy drops or tears this line; the
                            // bitmap transition it rides on is fenced and
                            // must survive regardless.
                            unsafe { (p.as_ptr() as *mut u64).write(rng) };
                            shadow::track_store(p.as_ptr() as usize, 8);
                            live.push((p, size));
                        } else {
                            let i = (xorshift(&mut rng) as usize) % live.len();
                            let (p, size) = live.swap_remove(i);
                            unsafe { r.dealloc(p, size) };
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

    let region = Region::open_file(&path).unwrap();
    assert!(
        region.was_dirty(),
        "[{name} {tag}] faulted crash left the image dirty"
    );
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
        unsafe { region.dealloc(p, size) };
    }
    for &(_, p) in &fresh {
        unsafe { region.dealloc(p, 64) };
    }
    let s = region.stats();
    assert_eq!(s.live_allocs, 0, "[{name} {tag}] all blocks returned");
    assert_eq!(s.live_bytes, 0);
    region.close().unwrap();

    let region = Region::open_file(&path).unwrap();
    assert!(!region.was_dirty(), "clean close after recovery");
    let s = region.stats();
    assert_eq!(
        s.live_allocs, 0,
        "[{name} {tag}] clean image agrees: nothing live"
    );
    region.close().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn multithread_crash_drop_unflushed_leaks_nothing() {
    churn_crash_audit(
        "drop.nvr",
        FaultPolicy::DropUnflushed,
        seed_from_env(0x5EED_0001),
    );
}

#[test]
fn multithread_crash_tear_words_leaks_nothing() {
    let seed = seed_from_env(0xC0FF_EE42);
    churn_crash_audit("tear.nvr", FaultPolicy::TearWords { seed }, seed);
}
