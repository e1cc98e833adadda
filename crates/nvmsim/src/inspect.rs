//! Offline inspection of region images.
//!
//! Reads a `.nvr` file *without mapping it into the NV space* and reports
//! what a maintainer wants to know before trusting an image: header
//! validity, region id, size, clean/dirty state, the root directory, and
//! allocator statistics. Used by the `nvr-inspect` binary and by tests.

use crate::alloc::{CLASS_SIZES, NUM_CLASSES};
use crate::error::{NvError, Result};
use crate::llalloc::{self, ClassOccupancy};
use crate::region::{HEADER_VERSION, MAX_ROOTS, REGION_MAGIC, ROOT_NAME_CAP};
use crate::shadow::FaultStamp;
use std::fmt;
use std::path::Path;

/// A root-directory entry as found in an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootInfo {
    /// Root name.
    pub name: String,
    /// Offset of the root target within the region.
    pub offset: u64,
    /// Application type tag (0 = untagged).
    pub type_tag: u64,
}

/// State of a `pstore` undo log as found in an image (via the
/// `"pstore.meta"` root; format in [`crate::undolog`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogInfo {
    /// Offset of the undo-log area within the region.
    pub log_off: u64,
    /// Capacity of the log area in bytes.
    pub log_cap: u64,
    /// The log's current generation (bumped by every truncation).
    pub generation: u64,
    /// Entries of that generation that pass their seeded CRC-64, counted
    /// from the start of the area up to the first that does not.
    pub entries: u64,
    /// Bytes of the area those entries occupy (nonzero means the next
    /// attach will roll back).
    pub used: u64,
}

/// Everything [`inspect`] learns about an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageReport {
    /// Region ID recorded in the header.
    pub rid: u32,
    /// On-media format version.
    pub version: u32,
    /// Region size in bytes (equals the file length for valid images).
    pub size: u64,
    /// Reserved capacity in bytes — the growth ceiling the region's chunk
    /// run covers. Equals `size` for regions created without headroom.
    pub capacity: u64,
    /// Whether the image was cleanly closed (false = crash; recovery will
    /// run on next open if a store log is present).
    pub clean: bool,
    /// Application-defined header tag.
    pub user_tag: u64,
    /// Root directory entries.
    pub roots: Vec<RootInfo>,
    /// Offset of the allocation frontier.
    pub bump: u64,
    /// Bytes handed out and not freed.
    pub live_bytes: u64,
    /// Number of live allocations.
    pub live_allocs: u64,
    /// The fault stamp of the last injected crash, if the image carries
    /// one (see [`crate::shadow`]).
    pub fault: Option<FaultStamp>,
    /// Undo-log head state, if the image holds a `pstore` store.
    pub log: Option<LogInfo>,
}

impl fmt::Display for ImageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "region id:    {}", self.rid)?;
        writeln!(f, "format:       v{}", self.version)?;
        writeln!(f, "size:         {} bytes", self.size)?;
        let chunk = crate::layout::Layout::DEFAULT.chunk_size() as u64;
        writeln!(
            f,
            "capacity:     {} bytes ({} chunk{} of {} under the default layout, {} bytes of growth headroom)",
            self.capacity,
            self.capacity.div_ceil(chunk).max(1),
            if self.capacity.div_ceil(chunk).max(1) == 1 { "" } else { "s" },
            chunk,
            self.capacity.saturating_sub(self.size),
        )?;
        writeln!(
            f,
            "state:        {}",
            if self.clean {
                "clean"
            } else {
                "DIRTY (crashed)"
            }
        )?;
        writeln!(f, "user tag:     {:#x}", self.user_tag)?;
        writeln!(
            f,
            "allocator:    {} live allocs, {} live bytes, bump at {:#x} ({}% of region)",
            self.live_allocs,
            self.live_bytes,
            self.bump,
            self.bump * 100 / self.size.max(1)
        )?;
        match &self.fault {
            Some(s) => {
                let policy = match s.mode {
                    1 => "drop-unflushed",
                    2 => "tear-words",
                    3 => "bit-rot",
                    _ => "unknown",
                };
                writeln!(
                    f,
                    "last fault:   {policy} at event {} (seed {:#x}): {} lines dropped, {} torn ({} words), {} rotted ({} bits)",
                    s.event, s.seed, s.dropped_lines, s.torn_lines, s.torn_words,
                    s.rotted_lines, s.flipped_bits
                )?;
            }
            None => writeln!(f, "last fault:   none")?,
        }
        if let Some(log) = &self.log {
            writeln!(
                f,
                "undo log:     generation {}, {} entries in {} bytes of {} at {:#x}{}",
                log.generation,
                log.entries,
                log.used,
                log.log_cap,
                log.log_off,
                if log.used != 0 {
                    " — recovery pending"
                } else {
                    ""
                },
            )?;
        }
        writeln!(f, "roots:        {}", self.roots.len())?;
        for r in &self.roots {
            let tag = if r.type_tag == 0 {
                String::from("untyped")
            } else {
                match std::str::from_utf8(&r.type_tag.to_le_bytes()) {
                    Ok(s) if s.bytes().all(|b| b.is_ascii_graphic()) => format!("tag {s:?}"),
                    _ => format!("tag {:#x}", r.type_tag),
                }
            };
            writeln!(f, "  {:<24} @ {:#010x}  ({tag})", r.name, r.offset)?;
        }
        Ok(())
    }
}

fn read_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

/// Byte offsets of `RegionHeader` fields (repr(C), see `region.rs`).
mod offsets {
    pub const MAGIC: usize = 0;
    pub const VERSION: usize = 8;
    pub const RID: usize = 12;
    pub const SIZE: usize = 16;
    pub const FLAGS: usize = 24;
    pub const USER_TAG: usize = 32;
    pub const CAPACITY: usize = 40;
    pub const ROOTS: usize = 48;
    pub const ROOT_ENTRY_SIZE: usize = 48; // 32 name + 8 offset + 8 tag
    pub const ROOT_OFFSET_IN_ENTRY: usize = 32;
    pub const ROOT_TAG_IN_ENTRY: usize = 40;
    // AllocHeader follows the root array.
    pub const ALLOC_BUMP_REL: usize = 0;
    // Field order: bump, end, free_heads, large_head, 4 stat counters,
    // ll_dir (the llalloc bitmap-page directory).
    pub const ALLOC_LIVE_BYTES_REL: usize = 8 + 8 + 16 * 8 + 8;
    pub const ALLOC_LL_DIR_REL: usize = 8 + 8 + 16 * 8 + 8 + 4 * 8;
    pub const ALLOC_SIZE: usize = 8 + 8 + 16 * 8 + 8 + 4 * 8 + 8;
    // FaultStamp is the last header field, right after the allocator.
    pub const FAULT: usize = ROOTS + 16 * ROOT_ENTRY_SIZE + ALLOC_SIZE;
}

/// One `llalloc` subtree descriptor as found in an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubtreeInfo {
    /// Offset of block 0 of the subtree's span.
    pub base: u64,
    /// Block size in bytes (the size class).
    pub class_size: usize,
    /// Blocks the subtree covers (≤ 64).
    pub capacity: u32,
    /// Allocated blocks (bitmap popcount — the persistent truth).
    pub allocated: u32,
    /// The advisory free counter as persisted. May lag the bitmap on a
    /// crashed image; the recovery scan rebuilds it on open.
    pub free_counter: u64,
}

/// Everything [`inspect_llalloc_bytes`] learns about an image's
/// two-level bitmap allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlallocReport {
    /// Bitmap pages in the directory chain.
    pub pages: u64,
    /// Every subtree descriptor, in directory order.
    pub subtrees: Vec<SubtreeInfo>,
    /// Occupancy summed per size class.
    pub per_class: [ClassOccupancy; NUM_CLASSES],
    /// Structural inconsistencies (bad magic, class, span, padding,
    /// chain cycle). Nonempty means an open would degrade to the legacy
    /// allocator.
    pub issues: Vec<String>,
    /// Descriptors whose advisory free counter disagrees with
    /// `capacity - popcount(bitmap)`. Expected on crashed images
    /// (counters are advisory and rebuilt on open); on a clean image it
    /// indicates rot.
    pub stale_counters: u64,
}

impl LlallocReport {
    /// Whether the bitmap structures are internally consistent. `strict`
    /// additionally requires every advisory counter to match its bitmap
    /// (the state a clean close seals).
    pub fn consistent(&self, strict: bool) -> bool {
        self.issues.is_empty() && (!strict || self.stale_counters == 0)
    }
}

impl fmt::Display for LlallocReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bitmap pages: {} ({} subtrees)",
            self.pages,
            self.subtrees.len()
        )?;
        for (class, o) in self.per_class.iter().enumerate() {
            if o.subtrees == 0 {
                continue;
            }
            writeln!(
                f,
                "  class {:>5}: {:>3} subtrees, {:>5}/{:<5} blocks allocated, free counters {}",
                CLASS_SIZES[class], o.subtrees, o.allocated, o.capacity, o.free_counter
            )?;
        }
        if self.stale_counters != 0 {
            writeln!(
                f,
                "  {} stale free counter(s) (rebuilt on next open)",
                self.stale_counters
            )?;
        }
        for issue in &self.issues {
            writeln!(f, "  ISSUE: {issue}")?;
        }
        Ok(())
    }
}

/// Walks an image's `llalloc` bitmap-page chain offline (no mapping, no
/// mutation) and reports per-class and per-subtree occupancy. Returns
/// `Ok(None)` for legacy images without a bitmap directory. Structural
/// damage is collected into [`LlallocReport::issues`] rather than
/// aborting the walk, so a partially-rotted directory still dumps what
/// it can.
///
/// # Errors
///
/// [`NvError::BadImage`] when `bytes` is not a region image at all.
pub fn inspect_llalloc_bytes(bytes: &[u8]) -> Result<Option<LlallocReport>> {
    use offsets::*;
    // Reuse the identity validation of the main parser.
    let _ = inspect_bytes(bytes)?;
    let alloc = ROOTS + MAX_ROOTS * ROOT_ENTRY_SIZE;
    let ll_dir = read_u64(bytes, alloc + ALLOC_LL_DIR_REL);
    if ll_dir == 0 {
        return Ok(None);
    }
    let mut report = LlallocReport {
        pages: 0,
        subtrees: Vec::new(),
        per_class: [ClassOccupancy::default(); NUM_CLASSES],
        issues: Vec::new(),
        stale_counters: 0,
    };
    let max_pages = bytes.len() / llalloc::LL_PAGE_SIZE + 1;
    let mut page_off = ll_dir;
    while page_off != 0 {
        if report.pages as usize >= max_pages {
            report.issues.push("bitmap page chain cycle".to_string());
            break;
        }
        if !page_off.is_multiple_of(64) || page_off as usize + llalloc::LL_PAGE_SIZE > bytes.len() {
            report
                .issues
                .push(format!("bitmap page offset {page_off:#x} out of bounds"));
            break;
        }
        let p = page_off as usize;
        if read_u64(bytes, p + llalloc::PAGE_MAGIC) != llalloc::LL_PAGE_MAGIC {
            report
                .issues
                .push(format!("bitmap page at {page_off:#x} has a bad magic"));
            break;
        }
        report.pages += 1;
        let count = read_u64(bytes, p + llalloc::PAGE_COUNT);
        if count > llalloc::SUBTREES_PER_PAGE as u64 {
            report.issues.push(format!(
                "bitmap page at {page_off:#x} claims {count} descriptors"
            ));
            break;
        }
        for slot in 0..count as usize {
            let d = p + llalloc::DESC_SIZE + slot * llalloc::DESC_SIZE;
            let meta = read_u64(bytes, d + llalloc::D_META);
            let class = (meta & 0xff) as usize;
            let cap = ((meta >> 8) & 0xff) as u32;
            if class >= NUM_CLASSES || cap == 0 || cap as usize > llalloc::BLOCKS_PER_SUBTREE {
                report.issues.push(format!(
                    "descriptor {slot}@{page_off:#x}: bad class/capacity"
                ));
                continue;
            }
            let base = read_u64(bytes, d + llalloc::D_BASE);
            let span = cap as u64 * CLASS_SIZES[class] as u64;
            if !base.is_multiple_of(llalloc::GRANULE)
                || base
                    .checked_add(span)
                    .is_none_or(|e| e > bytes.len() as u64)
            {
                report.issues.push(format!(
                    "descriptor {slot}@{page_off:#x}: span out of bounds"
                ));
                continue;
            }
            let bm = read_u64(bytes, d + llalloc::D_BITMAP);
            let mask = if cap >= 64 { !0u64 } else { (1u64 << cap) - 1 };
            if bm & !mask != !mask {
                report.issues.push(format!(
                    "descriptor {slot}@{page_off:#x}: padding bits corrupt"
                ));
                continue;
            }
            let free = read_u64(bytes, d + llalloc::D_FREE);
            let allocated = (bm & mask).count_ones();
            if free != cap as u64 - allocated as u64 {
                report.stale_counters += 1;
            }
            report.subtrees.push(SubtreeInfo {
                base,
                class_size: CLASS_SIZES[class],
                capacity: cap,
                allocated,
                free_counter: free,
            });
            let o = &mut report.per_class[class];
            o.subtrees += 1;
            o.capacity += cap as u64;
            o.allocated += allocated as u64;
            o.free_counter += free;
        }
        page_off = read_u64(bytes, p + llalloc::PAGE_NEXT);
    }
    Ok(Some(report))
}

/// [`inspect_llalloc_bytes`] over an image file.
///
/// # Errors
///
/// As [`inspect_llalloc_bytes`], plus I/O errors.
pub fn inspect_llalloc<P: AsRef<Path>>(path: P) -> Result<Option<LlallocReport>> {
    let bytes = std::fs::read(path.as_ref())?;
    inspect_llalloc_bytes(&bytes)
}

/// Walks the `pstore` undo log through the `"pstore.meta"` root, if
/// present and sane; [`crate::undolog::scan_image`] bounds the walk, so
/// torn or corrupted log bytes cannot run it out of the image.
fn peek_log(bytes: &[u8], roots: &[RootInfo]) -> Option<LogInfo> {
    let meta_off = roots.iter().find(|r| r.name == "pstore.meta")?.offset;
    let log = crate::undolog::scan_image(bytes, meta_off)?;
    let scan = log.scan?;
    Some(LogInfo {
        log_off: log.log_off,
        log_cap: log.log_cap,
        generation: scan.generation,
        entries: scan.entries.len() as u64,
        used: scan.bytes,
    })
}

/// Parses and validates a region image file without opening it as a
/// region.
///
/// # Errors
///
/// [`NvError::BadImage`] for invalid/truncated images, [`NvError::Io`] on
/// read failures.
pub fn inspect<P: AsRef<Path>>(path: P) -> Result<ImageReport> {
    let bytes = std::fs::read(path.as_ref())?;
    inspect_bytes(&bytes)
}

/// [`inspect`] over in-memory image bytes.
///
/// # Errors
///
/// As [`inspect`].
pub fn inspect_bytes(bytes: &[u8]) -> Result<ImageReport> {
    use offsets::*;
    let min = ROOTS + MAX_ROOTS * ROOT_ENTRY_SIZE + 256;
    if bytes.len() < min {
        return Err(NvError::BadImage(format!(
            "file of {} bytes is too small for a region header",
            bytes.len()
        )));
    }
    if read_u64(bytes, MAGIC) != REGION_MAGIC {
        return Err(NvError::BadImage(format!(
            "bad magic {:#x}",
            read_u64(bytes, MAGIC)
        )));
    }
    let version = read_u32(bytes, VERSION);
    if version != HEADER_VERSION {
        return Err(NvError::BadImage(format!("unsupported version {version}")));
    }
    let size = read_u64(bytes, SIZE);
    if size != bytes.len() as u64 {
        return Err(NvError::BadImage(format!(
            "header size {size} != file length {}",
            bytes.len()
        )));
    }
    let mut roots = Vec::new();
    for i in 0..MAX_ROOTS {
        let entry = ROOTS + i * ROOT_ENTRY_SIZE;
        let name_bytes = &bytes[entry..entry + ROOT_NAME_CAP + 1];
        if name_bytes[0] == 0 {
            continue;
        }
        let len = name_bytes
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(name_bytes.len());
        roots.push(RootInfo {
            name: String::from_utf8_lossy(&name_bytes[..len]).into_owned(),
            offset: read_u64(bytes, entry + ROOT_OFFSET_IN_ENTRY),
            type_tag: read_u64(bytes, entry + ROOT_TAG_IN_ENTRY),
        });
    }
    let alloc = ROOTS + MAX_ROOTS * ROOT_ENTRY_SIZE;
    let fault = FaultStamp::parse(&bytes[FAULT..]);
    let log = peek_log(bytes, &roots);
    Ok(ImageReport {
        rid: read_u32(bytes, RID),
        version,
        size,
        capacity: read_u64(bytes, CAPACITY),
        clean: read_u64(bytes, FLAGS) & 1 == 0,
        user_tag: read_u64(bytes, USER_TAG),
        roots,
        bump: read_u64(bytes, alloc + ALLOC_BUMP_REL),
        live_bytes: read_u64(bytes, alloc + ALLOC_LIVE_BYTES_REL),
        live_allocs: read_u64(bytes, alloc + ALLOC_LIVE_BYTES_REL + 8),
        fault,
        log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;

    #[test]
    fn field_offsets_match_the_real_header() {
        // Guard against silent layout drift between RegionHeader and the
        // offline parser: build a real region and cross-check every field.
        let dir = std::env::temp_dir().join(format!("nvm-inspect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img.nvr");
        let (rid, live, capacity);
        {
            let r = Region::create_file(&path, 1 << 20).unwrap();
            rid = r.rid();
            capacity = r.capacity() as u64;
            let a = r.alloc(100, 8).unwrap();
            let _b = r.alloc(200, 8).unwrap();
            r.set_root_tagged(
                "alpha",
                a.as_ptr() as usize,
                u64::from_le_bytes(*b"TAGALPHA"),
            )
            .unwrap();
            r.set_user_tag(0xDEAD_BEEF);
            live = r.stats().live_allocs;
            r.close().unwrap();
        }
        let report = inspect(&path).unwrap();
        assert_eq!(report.rid, rid);
        assert_eq!(report.version, HEADER_VERSION);
        assert_eq!(report.size, 1 << 20);
        assert_eq!(
            report.capacity, capacity,
            "offline CAPACITY offset drifted from RegionHeader"
        );
        assert!(report.capacity >= report.size);
        assert!(report.clean);
        assert_eq!(report.user_tag, 0xDEAD_BEEF);
        assert_eq!(report.live_allocs, live);
        assert!(report.live_bytes >= 300);
        assert_eq!(report.roots.len(), 1);
        assert_eq!(report.roots[0].name, "alpha");
        assert_eq!(report.roots[0].type_tag, u64::from_le_bytes(*b"TAGALPHA"));
        assert!(report.bump > 0);
        assert_eq!(
            crate::region::RegionHeader::fault_stamp_offset() as usize,
            offsets::FAULT,
            "offline FAULT offset drifted from RegionHeader"
        );
        assert!(report.fault.is_none(), "clean image carries no fault stamp");
        assert!(report.log.is_none(), "no pstore.meta root, no log info");
        let shown = report.to_string();
        assert!(shown.contains("alpha") && shown.contains("clean"));
        assert!(shown.contains("last fault:   none"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn llalloc_walk_reports_occupancy_and_staleness() {
        let dir = std::env::temp_dir().join(format!("nvm-inspect-ll-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ll.nvr");
        {
            let r = Region::create_file(&path, 1 << 20).unwrap();
            let ptrs: Vec<_> = (0..10).map(|_| r.alloc(64, 8).unwrap()).collect();
            for p in &ptrs[..4] {
                unsafe { r.dealloc(*p, 64) };
            }
            r.close().unwrap();
        }
        let report = inspect_llalloc(&path)
            .unwrap()
            .expect("v2 image has bitmaps");
        assert!(report.pages >= 1);
        let class = crate::alloc::class_for(64).unwrap();
        assert_eq!(report.per_class[class].allocated, 6);
        assert!(report.per_class[class].capacity >= 10);
        assert!(
            report.consistent(true),
            "clean close seals exact free counters: {report}"
        );
        // Corrupt a descriptor's class byte: the walk flags it instead
        // of panicking or running out of the image.
        let mut bytes = std::fs::read(&path).unwrap();
        let alloc = offsets::ROOTS + MAX_ROOTS * offsets::ROOT_ENTRY_SIZE;
        let ll_dir = read_u64(&bytes, alloc + offsets::ALLOC_LL_DIR_REL) as usize;
        bytes[ll_dir + llalloc::DESC_SIZE + llalloc::D_META] = 0xff;
        let damaged = inspect_llalloc_bytes(&bytes).unwrap().unwrap();
        assert!(!damaged.consistent(false));
        assert!(damaged.to_string().contains("ISSUE"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dirty_images_are_reported_dirty() {
        let dir = std::env::temp_dir().join(format!("nvm-inspect-d-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crash.nvr");
        {
            let r = Region::create_file(&path, 1 << 20).unwrap();
            r.sync().unwrap();
            r.crash();
        }
        let report = inspect(&path).unwrap();
        assert!(!report.clean);
        assert!(report.to_string().contains("DIRTY"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(matches!(
            inspect_bytes(&[0u8; 64]),
            Err(NvError::BadImage(_))
        ));
        let mut big = vec![0u8; 1 << 16];
        assert!(matches!(inspect_bytes(&big), Err(NvError::BadImage(_))));
        // Right magic, wrong size field.
        big[..8].copy_from_slice(&REGION_MAGIC.to_le_bytes());
        big[8..12].copy_from_slice(&HEADER_VERSION.to_le_bytes());
        big[16..24].copy_from_slice(&999u64.to_le_bytes());
        assert!(matches!(inspect_bytes(&big), Err(NvError::BadImage(_))));
    }
}
