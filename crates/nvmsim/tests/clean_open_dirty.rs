//! A clean image's open writes back only its header page.
//!
//! Recovery rebuilds every bitmap descriptor's volatile `taken`/`owner`
//! words, but a clean close sealed them with exactly the values recovery
//! computes (`taken` equal to the bitmap, `owner` zero), so the open stores nothing into a bitmap page and the only
//! page it dirties is the header (`FLAG_DIRTY`). On a `MAP_SHARED` file
//! mapping a store of an unchanged value still costs a write fault and a
//! dirty page to write back: a recovery that rewrote every descriptor
//! dirtied 40 KiB of this image (the header page and the nine OS pages
//! its five unaligned bitmap pages straddle), which is what this test
//! guards against.
//!
//! The kernel's `/proc/self/smaps` counts a mapped page as dirty when its
//! page-cache page is, so the image lives under the build's target
//! directory (a disk file system: `close`'s `msync` cleans it), not in a
//! tmpfs temp directory whose pages never come clean.

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

#[test]
fn clean_open_dirties_only_the_header_page() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("clean-open-dirty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("image.nvr");
    let r = Region::create_file(&path, 4 << 20).unwrap();
    for i in 0..20_000 {
        r.alloc(if i % 2 == 0 { 64 } else { 96 }, 8).unwrap();
    }
    let subtrees: u64 = r.llalloc_occupancy().iter().map(|o| o.subtrees).sum();
    let pages = subtrees.div_ceil(63);
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
