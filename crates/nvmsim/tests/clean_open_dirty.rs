//! An open writes back only the image's header page, after a clean
//! close and after a crash alike.
//!
//! A bitmap descriptor's volatile words — `taken`, the bitmap plus
//! in-flight claims, and `owner`, a thread's reservation — live in DRAM
//! and start from the bitmap at every open, so the open only reads the
//! bitmap pages and the one page it dirties is the header
//! (`FLAG_DIRTY`, the recovered frontier). On a `MAP_SHARED` file mapping
//! every store costs a write fault and a dirty page to write back: a
//! recovery that rewrote every descriptor dirtied 40 KiB of the clean
//! image below (the header page and the nine OS pages its five unaligned
//! bitmap pages straddle), and one that repaired the stale reservations
//! a crash leaves behind dirtied each page that held one.
//!
//! The kernel's `/proc/self/smaps` counts a mapped page as dirty when its
//! page-cache page is, so the image lives under the build's target
//! directory (a disk file system: `close`'s `msync` cleans it), not in a
//! tmpfs temp directory whose pages never come clean. A crash leaves the
//! session's stores dirty in the page cache, so the crash case writes the
//! file back (`fsync`) before it reopens it.

use nvmsim::Region;

/// `Private_Dirty + Shared_Dirty` in KiB over the mappings inside
/// `[base, end)`, and how many mappings that was.
fn dirty_kib(base: usize, end: usize) -> (u64, usize) {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("/proc/self/smaps");
    let hex = |s| usize::from_str_radix(s, 16).expect("a mapping's address range");
    let (mut kib, mut vmas, mut inside) = (0, 0, false);
    for line in smaps.lines() {
        let first = line.split_whitespace().next().unwrap_or("");
        // A mapping's header line starts with its range; no field name
        // holds a '-'.
        if let Some((lo, hi)) = first.split_once('-') {
            inside = hex(lo) >= base && hex(hi) <= end;
            vmas += inside as usize;
        } else if let Some(v) = line
            .strip_prefix("Private_Dirty:")
            .or_else(|| line.strip_prefix("Shared_Dirty:"))
            .filter(|_| inside)
        {
            kib += v
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .unwrap();
        }
    }
    (kib, vmas)
}

/// A fresh directory for one case's image under the build's target
/// directory.
fn image_dir(case: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{case}-open-dirty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Bitmap pages the region's subtrees fill.
fn bitmap_pages(r: &Region) -> u64 {
    let subtrees: u64 = r.llalloc_occupancy().iter().map(|o| o.subtrees).sum();
    subtrees.div_ceil(63)
}

#[test]
fn clean_open_dirties_only_the_header_page() {
    let dir = image_dir("clean");
    let path = dir.join("image.nvr");
    let r = Region::create_file(&path, 4 << 20).unwrap();
    for i in 0..20_000 {
        r.alloc(if i % 2 == 0 { 64 } else { 96 }, 8).unwrap();
    }
    let pages = bitmap_pages(&r);
    assert!(pages >= 3, "{pages} bitmap pages");
    r.close().unwrap();

    let r = Region::open_file(&path).unwrap();
    assert!(!r.was_dirty());
    let (kib, vmas) = dirty_kib(r.base(), r.base() + r.size());
    assert!(vmas > 0, "no mapping found inside the region");
    assert_eq!(kib, 4, "a clean open dirtied {kib} KiB");
    r.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_open_dirties_only_the_header_page() {
    let dir = image_dir("crash");
    let path = dir.join("image.nvr");
    let r = Region::create_file(&path, 4 << 20).unwrap();
    // Two threads, each holding a reservation per class when the region
    // crashes.
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for i in 0..10_000 {
                    r.alloc(if i % 2 == 0 { 64 } else { 96 }, 8).unwrap();
                }
            });
        }
    });
    let pages = bitmap_pages(&r);
    assert!(pages >= 3, "{pages} bitmap pages");
    r.crash();
    std::fs::File::open(&path).unwrap().sync_all().unwrap();

    let r = Region::open_file(&path).unwrap();
    assert!(r.was_dirty());
    let (kib, vmas) = dirty_kib(r.base(), r.base() + r.size());
    assert!(vmas > 0, "no mapping found inside the region");
    assert_eq!(kib, 4, "a crash open dirtied {kib} KiB");
    r.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
