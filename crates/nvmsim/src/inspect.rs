//! Offline inspection of region images.
//!
//! Reads a `.nvr` file *without mapping it into the NV space* and reports
//! what a maintainer wants to know before trusting an image: header
//! validity, region id, size, clean/dirty state, the root directory, and
//! allocator statistics. Used by the `nvr-inspect` binary and by tests.
//!
//! This module holds report types and their `Display` only. Every byte
//! it shows is decoded by the module that owns the format: the boot
//! block, root directory and log lookup by [`crate::verify`], the
//! allocator header by [`AllocHeader::from_bytes`], the bitmap pages by
//! `llalloc::walk_chain`, the fault stamp by [`FaultStamp::parse`].

use crate::alloc::{AllocHeader, CLASS_SIZES};
use crate::error::{NvError, Result};
use crate::llalloc::{self, ClassOccupancy, SubtreeInfo, Walked, LARGE};
use crate::region::RegionHeader;
use crate::shadow::FaultStamp;
use crate::undolog::LogSummary;
use crate::verify;
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
    /// Root directory entries.
    pub roots: Vec<RootInfo>,
    /// Offset of the allocation frontier.
    pub bump: u64,
    /// End offset of the allocatable area.
    pub end: u64,
    /// Bytes handed out and not freed: the popcount of every bitmap
    /// subtree the chain walk accepts — what `Region::stats` reports after
    /// an open.
    pub live_bytes: u64,
    /// Number of live allocations, counted the same way.
    pub live_allocs: u64,
    /// The fault stamp of the last injected crash, if the image carries
    /// one (see [`crate::shadow`]).
    pub fault: Option<FaultStamp>,
    /// Undo-log state (via the [`crate::undolog::STORE_ROOT`] root;
    /// format in [`crate::undolog`]), if the image holds a `pstore` store.
    pub log: Option<LogSummary>,
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
        // The frontier is a media word nothing has validated here: widen
        // before scaling so a rotted one cannot overflow.
        let frontier = if self.bump > self.end {
            format!("outside the managed range, which ends at {:#x}", self.end)
        } else {
            format!(
                "{}% of region",
                self.bump as u128 * 100 / self.size.max(1) as u128
            )
        };
        writeln!(
            f,
            "allocator:    {} live allocs, {} live bytes, bump at {:#x} ({frontier})",
            self.live_allocs, self.live_bytes, self.bump,
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
            writeln!(f, "undo log:     {log}")?;
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

/// Everything [`inspect_llalloc_bytes`] learns about an image's
/// two-level bitmap allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlallocReport {
    /// Whether the image was cleanly closed — whether [`consistent`]
    /// should be asked with `strict`.
    ///
    /// [`consistent`]: LlallocReport::consistent
    pub clean: bool,
    /// Bitmap pages in the directory chain.
    pub pages: u64,
    /// Every subtree descriptor, in directory order.
    pub subtrees: Vec<SubtreeInfo>,
    /// Occupancy summed per size class, the large blocks last (index
    /// [`LARGE`]).
    pub per_class: [ClassOccupancy; LARGE + 1],
    /// Structural inconsistencies (a missing directory, bad magic, class,
    /// span, padding, a looping chain). Nonempty means the open refuses
    /// the image and only salvage opens it.
    pub issues: Vec<String>,
    /// Bitmap pages that do not carry the seal of a clean close
    /// (`llalloc::page_sealed`). Expected on crashed images (a running
    /// region mutates its pages without resealing them); on a clean
    /// image it indicates rot.
    pub unsealed_pages: u64,
}

impl LlallocReport {
    /// Whether the bitmap structures are internally consistent. `strict`
    /// additionally requires every page to carry its seal (the state a
    /// clean close leaves).
    pub fn consistent(&self, strict: bool) -> bool {
        self.issues.is_empty() && (!strict || self.unsealed_pages == 0)
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
            let name = CLASS_SIZES
                .get(class)
                .map_or("large".to_string(), usize::to_string);
            writeln!(
                f,
                "  class {name:>5}: {:>3} subtrees, {:>5}/{:<5} blocks allocated",
                o.subtrees, o.allocated, o.capacity
            )?;
        }
        if self.unsealed_pages != 0 {
            writeln!(
                f,
                "  {} page(s) without a clean close's seal",
                self.unsealed_pages
            )?;
        }
        for issue in &self.issues {
            writeln!(f, "  ISSUE: {issue}")?;
        }
        Ok(())
    }
}

/// Walks an image's `llalloc` bitmap-page chain offline (no mapping, no
/// mutation) and reports per-class and per-subtree occupancy. Structural
/// damage — a missing directory included — is collected into
/// [`LlallocReport::issues`] rather than aborting the walk, so a
/// partially-rotted directory still dumps what it can.
///
/// # Errors
///
/// [`NvError::BadImage`] when `bytes` is not a region image at all.
pub fn inspect_llalloc_bytes(bytes: &[u8]) -> Result<LlallocReport> {
    let image = inspect_bytes(bytes)?;
    let ll_dir = AllocHeader::from_bytes(&bytes[RegionHeader::OFF_ALLOC..]).ll_dir();
    let mut report = LlallocReport {
        clean: image.clean,
        pages: 0,
        subtrees: Vec::new(),
        per_class: [ClassOccupancy::default(); LARGE + 1],
        issues: Vec::new(),
        unsealed_pages: 0,
    };
    llalloc::walk_chain(bytes, ll_dir, |walked| match walked {
        Walked::Page { bytes, .. } => {
            report.pages += 1;
            report.unsealed_pages += !llalloc::page_sealed(bytes) as u64;
        }
        Walked::Issue(issue) => report.issues.push(issue),
        Walked::Subtree(t) => {
            let o = &mut report.per_class[t.class];
            o.subtrees += 1;
            o.capacity += t.capacity as u64;
            o.allocated += t.allocated as u64;
            report.subtrees.push(t);
        }
    });
    Ok(report)
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
    let boot = verify::read_boot(bytes, bytes.len() as u64).map_err(NvError::BadImage)?;
    if let Some(e) = boot.errors.first() {
        return Err(NvError::BadImage(e.clone()));
    }
    let alloc = AllocHeader::from_bytes(&bytes[RegionHeader::OFF_ALLOC..]);
    let (mut live_allocs, mut live_bytes) = (0u64, 0u64);
    llalloc::walk_chain(bytes, alloc.ll_dir(), |walked| {
        if let Walked::Subtree(t) = walked {
            live_allocs += t.allocated as u64;
            live_bytes += t.allocated as u64 * t.block_size;
        }
    });
    Ok(ImageReport {
        rid: boot.rid,
        version: boot.version,
        size: boot.size,
        capacity: boot.capacity,
        clean: boot.clean(),
        roots: verify::root_entries(bytes)
            .map(|r| RootInfo {
                name: r.label(),
                offset: r.offset,
                type_tag: r.type_tag,
            })
            .collect(),
        bump: alloc.bump(),
        end: alloc.end(),
        live_bytes,
        live_allocs,
        fault: FaultStamp::parse(&bytes[RegionHeader::OFF_FAULT..]),
        log: verify::image_log(bytes),
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
            live = r.stats().live_allocs;
            r.close().unwrap();
        }
        let report = inspect(&path).unwrap();
        assert_eq!(report.rid, rid);
        assert_eq!(report.version, crate::region::HEADER_VERSION);
        assert_eq!(report.size, 1 << 20);
        assert_eq!(
            report.capacity, capacity,
            "offline CAPACITY offset drifted from RegionHeader"
        );
        assert!(report.capacity >= report.size);
        assert!(report.clean);
        assert_eq!(report.live_allocs, live);
        assert!(report.live_bytes >= 300);
        assert_eq!(report.roots.len(), 1);
        assert_eq!(report.roots[0].name, "alpha");
        assert_eq!(report.roots[0].type_tag, u64::from_le_bytes(*b"TAGALPHA"));
        assert!(report.bump > 0);
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
                unsafe { r.dealloc(*p, 64).unwrap() };
            }
            r.close().unwrap();
        }
        let report = inspect_llalloc_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert!(report.pages >= 1);
        let class = crate::alloc::class_for(64).unwrap();
        assert_eq!(report.per_class[class].allocated, 6);
        assert!(report.per_class[class].capacity >= 10);
        assert_eq!(report.unsealed_pages, 0, "a clean close seals every page");
        assert!(report.consistent(true), "{report}");
        // Corrupt a descriptor's class byte: the walk flags it instead
        // of panicking or running out of the image.
        let mut bytes = std::fs::read(&path).unwrap();
        let ll_dir = AllocHeader::from_bytes(&bytes[RegionHeader::OFF_ALLOC..]).ll_dir() as usize;
        bytes[ll_dir + llalloc::DESC_SIZE + llalloc::D_META] = 0xff;
        let damaged = inspect_llalloc_bytes(&bytes).unwrap();
        assert_eq!(damaged.unsealed_pages, 1, "the rot breaks its page's seal");
        assert!(!damaged.consistent(false));
        assert!(damaged.to_string().contains("ISSUE"));
        // An image without a directory is a finding too, not a mode.
        let off = RegionHeader::OFF_ALLOC + AllocHeader::OFF_LL_DIR;
        bytes[off..off + 8].fill(0);
        let missing = inspect_llalloc_bytes(&bytes).unwrap();
        assert_eq!(
            missing.issues,
            vec!["no bitmap allocator directory".to_string()]
        );
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
        big[..8].copy_from_slice(&crate::region::REGION_MAGIC.to_le_bytes());
        big[8..12].copy_from_slice(&crate::region::HEADER_VERSION.to_le_bytes());
        big[16..24].copy_from_slice(&999u64.to_le_bytes());
        assert!(matches!(inspect_bytes(&big), Err(NvError::BadImage(_))));
    }
}
