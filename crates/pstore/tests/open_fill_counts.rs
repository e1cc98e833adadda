//! A clean open checks the allocator's bitmap chain and builds nothing
//! else: a bitmap page's volatile words and its granule-map entries are
//! filled at the page's first use. `Counter::LlallocRecoveryLines` counts
//! the lines a fill writes, one for the page and one per descriptor it
//! held at open, so a full page is 64 lines. The counter is process-wide,
//! so this file is its own test process with a single `#[test]`: the
//! deltas below are exact because nothing else opens or fills.

use nvmsim::metrics::{self, Counter};
use nvmsim::Region;
use pstore::ObjectStore;
use std::ptr::NonNull;

/// The image: 64 MiB, 200 000 blocks of 64 bytes.
const IMAGE_BYTES: usize = 64 << 20;
const BLOCKS: usize = 200_000;
const BLOCK: usize = 64;
/// Lines one fill of a full bitmap page writes: the page and its 63
/// descriptors.
const FULL_PAGE: u64 = 64;
/// Blocks of one 64-byte subtree, and subtrees per bitmap page: block `i`
/// of a single-threaded run lies in page `i / BLOCKS_PER_PAGE`, give or
/// take the store's own few subtrees.
const BLOCKS_PER_PAGE: usize = 64 * 63;

/// Lines `f` filled.
fn filled<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = metrics::snapshot();
    let out = f();
    (
        out,
        metrics::snapshot()
            .delta(&before)
            .get(Counter::LlallocRecoveryLines),
    )
}

#[test]
fn an_open_fills_only_the_pages_its_first_uses_reach() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("open-fill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("image.nvr");
    let region = Region::create_file(&path, IMAGE_BYTES).unwrap();
    let store = ObjectStore::format(&region).unwrap();
    let offs: Vec<u64> = (0..BLOCKS)
        .map(|_| {
            let block = region.alloc(BLOCK, 8).unwrap();
            region.offset_of(block.as_ptr() as usize).unwrap()
        })
        .collect();
    let live = region.stats();
    drop(store);
    region.close().unwrap();

    // A clean open, attach, statistics and the full corruption walk read
    // the bitmaps and fill no page.
    let (region, lines) = filled(|| Region::open_file(&path).unwrap());
    assert_eq!(lines, 0, "a clean open filled a page");
    let (store, lines) = filled(|| ObjectStore::attach(&region).unwrap());
    assert_eq!(lines, 0, "a clean attach filled a page");
    let ((stats, report), lines) = filled(|| (region.stats(), region.verify().unwrap()));
    assert_eq!(lines, 0, "stats and verify filled a page");
    assert!(report.healthy(), "{}", report.damage_summary());
    assert_eq!(
        (stats.live_allocs, stats.live_bytes),
        (live.live_allocs, live.live_bytes)
    );

    // One free fills its page, and only that one.
    let at = |off: u64| NonNull::new((region.base() + off as usize) as *mut u8).unwrap();
    // SAFETY: allocated 64-byte blocks of this region, freed once.
    let free = |off: u64| unsafe { region.dealloc(at(off), BLOCK) }.unwrap();
    let ((), lines) = filled(|| free(offs[0]));
    assert_eq!(lines, FULL_PAGE, "one free filled other than its one page");
    let ((), lines) = filled(|| free(offs[1]));
    assert_eq!(lines, 0, "a second free into a filled page filled again");

    // A transaction frees a block in each of three other full pages, then
    // the process "crashes" with the transaction neither committed nor
    // rolled back: its three allocator entries are in the log.
    let named = [10, 25, 40].map(|page| offs[page * BLOCKS_PER_PAGE + BLOCKS_PER_PAGE / 2]);
    let mut tx = store.begin();
    for off in named {
        // SAFETY: an allocated 64-byte block of this region.
        unsafe { tx.free(at(off), BLOCK) }.unwrap();
    }
    std::mem::forget(tx);
    drop(store);
    region.crash();

    // The crash open fills nothing; the rollback fills the three pages its
    // entries name and no other.
    let (region, lines) = filled(|| Region::open_file(&path).unwrap());
    assert!(region.was_dirty());
    assert_eq!(lines, 0, "a crash open filled a page");
    let (store, lines) = filled(|| ObjectStore::attach(&region).unwrap());
    assert_eq!(store.recovery_stats().applied, named.len() as u64);
    assert_eq!(
        lines,
        named.len() as u64 * FULL_PAGE,
        "the rollback filled other pages"
    );
    let (stats, lines) = filled(|| region.stats());
    assert_eq!(lines, 0);
    assert_eq!(
        stats.live_allocs,
        live.live_allocs - 2,
        "the rolled-back frees stay allocated"
    );
    drop(store);
    region.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
