//! A clean close and a fault-injected crash write only what changed.
//!
//! A clean close seals every bitmap page with its CRC, but stores the CRC
//! only where it differs from the stored one: a session that changed no
//! bit leaves every bitmap page of the file byte for byte as it found
//! it, and one free changes its page's bitmap word and CRC and nothing
//! else. `Region::crash_with_faults` applies its fault policy to the
//! mapped image in place, so the file it leaves is exactly the image
//! `shadow::capture_crash_image` returns for the same tracker state.
//!
//! Every case compares the file's bytes before and after, not counters.

use nvmsim::inspect::inspect_llalloc_bytes;
use nvmsim::llalloc::LL_PAGE_SIZE;
use nvmsim::shadow::{capture_crash_image, track_store, FaultPolicy};
use nvmsim::Region;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;

/// Offset of the page CRC in a bitmap page's header.
const PAGE_CRC: u64 = 32;
/// Bytes per subtree descriptor (the page header takes the first slot's
/// room), and the bitmap word's offset within one.
const DESC_SIZE: u64 = 64;
const D_BITMAP: u64 = 16;

/// A fresh directory for one case's image.
fn image_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvmsim-close-{case}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A closed image with ≥ 3 bitmap pages of 64 B and 96 B blocks.
fn filled_image(path: &Path) {
    let r = Region::create_file(path, 4 << 20).unwrap();
    for i in 0..20_000 {
        r.alloc(if i % 2 == 0 { 64 } else { 96 }, 8).unwrap();
    }
    r.close().unwrap();
}

/// The offsets of the image's bitmap pages, in chain order.
fn bitmap_pages(image: &[u8]) -> Vec<u64> {
    let mut pages: Vec<u64> = inspect_llalloc_bytes(image)
        .unwrap()
        .subtrees
        .iter()
        .map(|t| t.page_off)
        .collect();
    pages.dedup();
    pages
}

/// The byte range of the bitmap page at `off`.
fn page(image: &[u8], off: u64) -> &[u8] {
    &image[off as usize..off as usize + LL_PAGE_SIZE]
}

#[test]
fn a_read_only_session_leaves_every_bitmap_page_unwritten() {
    let dir = image_dir("ro");
    let path = dir.join("image.nvr");
    filled_image(&path);
    let before = std::fs::read(&path).unwrap();
    let pages = bitmap_pages(&before);
    assert!(pages.len() >= 3, "{} bitmap pages", pages.len());

    let r = Region::open_file(&path).unwrap();
    assert!(!r.was_dirty());
    assert_eq!(r.live_blocks().len(), 20_000);
    r.close().unwrap();

    let after = std::fs::read(&path).unwrap();
    for &off in &pages {
        assert!(
            page(&before, off) == page(&after, off),
            "a read-only session rewrote the bitmap page at {off:#x}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_free_changes_one_bitmap_word_and_its_page_crc() {
    let dir = image_dir("free");
    let path = dir.join("image.nvr");
    filled_image(&path);
    let before = std::fs::read(&path).unwrap();
    let pages = bitmap_pages(&before);
    assert!(pages.len() >= 3, "{} bitmap pages", pages.len());

    let r = Region::open_file(&path).unwrap();
    let (off, size) = r.live_blocks()[4_100];
    let ptr = NonNull::new((r.base() + off as usize) as *mut u8).unwrap();
    // SAFETY: a live block of this region, freed once, by its own size.
    unsafe { r.dealloc(ptr, size as usize) }.unwrap();
    r.close().unwrap();

    let after = std::fs::read(&path).unwrap();
    let t = inspect_llalloc_bytes(&after)
        .unwrap()
        .subtrees
        .into_iter()
        .find(|t| (t.base..t.end()).contains(&off))
        .expect("the freed block's subtree");
    let bitmap = t.page_off + (t.slot as u64 + 1) * DESC_SIZE + D_BITMAP;
    let crc = t.page_off + PAGE_CRC;
    for &p in &pages {
        let changed: Vec<u64> = (p..p + LL_PAGE_SIZE as u64)
            .step_by(8)
            .filter(|&w| before[w as usize..][..8] != after[w as usize..][..8])
            .collect();
        let expected = if p == t.page_off {
            vec![crc, bitmap]
        } else {
            vec![]
        };
        assert_eq!(changed, expected, "words changed in the page at {p:#x}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_close_after_a_dirty_open_seals_every_page() {
    let dir = image_dir("dirty");
    let path = dir.join("image.nvr");
    let r = Region::create_file(&path, 4 << 20).unwrap();
    let mut blocks = Vec::new();
    for i in 0..20_000 {
        blocks.push(r.alloc(if i % 2 == 0 { 64 } else { 96 }, 8).unwrap());
    }
    for (i, &b) in blocks.iter().enumerate().step_by(1_000) {
        // SAFETY: each block is live and freed once, by its own size.
        unsafe { r.dealloc(b, if i % 2 == 0 { 64 } else { 96 }) }.unwrap();
    }
    r.crash();
    let crashed = inspect_llalloc_bytes(&std::fs::read(&path).unwrap()).unwrap();
    assert!(crashed.pages >= 3, "{} bitmap pages", crashed.pages);
    assert_eq!(
        crashed.unsealed_pages, crashed.pages,
        "a crash seals nothing"
    );

    let r = Region::open_file(&path).unwrap();
    assert!(r.was_dirty());
    r.close().unwrap();

    let report = nvmsim::verify::verify_file(&path).unwrap();
    assert!(report.clean && report.healthy(), "{report:?}");
    let closed = inspect_llalloc_bytes(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(closed.unsealed_pages, 0);
    assert!(closed.consistent(true), "{closed}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_faulted_crash_leaves_the_captured_image_in_the_file() {
    let policies = [
        FaultPolicy::DropUnflushed,
        FaultPolicy::TearWords { seed: 7 },
        FaultPolicy::BitRot { lines: 5, seed: 11 },
    ];
    let dir = image_dir("crash");
    for (i, policy) in policies.into_iter().enumerate() {
        let path = dir.join(format!("image-{i}.nvr"));
        let r = Region::create_file(&path, 1 << 20).unwrap();
        let p = r.alloc(1024, 16).unwrap().as_ptr() as *mut u64;
        r.enable_shadow().unwrap();
        // Tracked stores that are never flushed: no fence of a sibling
        // test can make them durable between the capture and the crash.
        for w in 0..128 {
            // SAFETY: inside the 1 KiB block just allocated.
            unsafe { p.add(w).write(0x5eed_0000 + w as u64) };
        }
        track_store(p as usize, 1024);
        let (captured, captured_report) = capture_crash_image(r.base(), policy).unwrap();
        let report = r.crash_with_faults(policy).unwrap();
        assert_eq!(report, captured_report, "{policy:?}");
        assert!(
            report.dropped_lines + report.torn_lines + report.rotted_lines > 0,
            "{policy:?} changed nothing: {report:?}"
        );
        let file = std::fs::read(&path).unwrap();
        assert_eq!(file.len(), captured.len(), "{policy:?}");
        assert!(
            file == captured,
            "{policy:?}: the file is not the captured image"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
