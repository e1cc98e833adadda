//! Size classes and the allocator words of the region header.
//!
//! Every block of a region is served by the bitmap allocator of
//! [`crate::llalloc`]. This module holds what that allocator shares with
//! the rest of the crate: the size-class table, request rounding, and
//! [`AllocHeader`] — the three words the region header keeps for the
//! allocator, all *offsets from the region base*, so an image is
//! position independent by construction and the allocator resumes at
//! any segment base:
//!
//! * `bump`, the frontier bitmap pages and block spans are carved from;
//! * `end`, the end of the managed range;
//! * `ll_dir`, the offset of the first bitmap page.
//!
//! Sizes up to [`MAX_CLASS_SIZE`] round up to one of [`CLASS_SIZES`];
//! larger sizes round up to whole granules ([`crate::llalloc::GRANULE`]),
//! each block its own span.

use crate::error::{NvError, Result};
use crate::llalloc::GRANULE;
use std::mem::offset_of;

/// Allocation size classes in bytes. All are multiples of [`MIN_ALIGN`].
pub const CLASS_SIZES: [usize; 16] = [
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096,
];

/// Largest size served from a size class; larger blocks are whole-granule
/// spans of their own.
pub const MAX_CLASS_SIZE: usize = 4096;

/// Alignment of every allocation. Callers may not request more.
pub const MIN_ALIGN: usize = 16;

/// Number of segregated size classes.
pub const NUM_CLASSES: usize = CLASS_SIZES.len();

/// Returns the class index for `size`, or `None` for large sizes.
#[inline]
pub fn class_for(size: usize) -> Option<usize> {
    if size > MAX_CLASS_SIZE {
        return None;
    }
    // Branchless binary search (4 compares on 16 entries): this runs on
    // every alloc/free.
    Some(CLASS_SIZES.partition_point(|&c| c < size))
}

/// Point-in-time allocator statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Bytes handed out and not yet freed (rounded sizes).
    pub live_bytes: u64,
    /// Number of live allocations.
    pub live_allocs: u64,
    /// Offset of the bump frontier.
    pub bump: u64,
    /// End offset of the allocatable area.
    pub end: u64,
}

/// Allocator words embedded in a region header.
///
/// All fields are offsets; the struct is `repr(C)` so the on-media layout
/// is stable. Which blocks are live is recorded in the bitmap pages alone.
#[repr(C)]
#[derive(Debug)]
pub struct AllocHeader {
    bump: u64,
    end: u64,
    /// Offset of the first `llalloc` bitmap page.
    ll_dir: u64,
}

/// Byte offsets within the on-media header, for the repairs that edit an
/// image's bytes in place (see [`crate::verify`]). Readers decode the
/// whole header with [`AllocHeader::from_bytes`] instead.
impl AllocHeader {
    /// Offset of the bump-frontier word.
    pub const OFF_BUMP: usize = offset_of!(AllocHeader, bump);
    /// Offset of the end-of-range word.
    pub const OFF_END: usize = offset_of!(AllocHeader, end);
    /// Offset of the bitmap-page directory word.
    pub const OFF_LL_DIR: usize = offset_of!(AllocHeader, ll_dir);

    /// Decodes a header from the bytes of an image (little-endian words
    /// at the `repr(C)` offsets), so offline readers go through the same
    /// accessors as a mapped region.
    ///
    /// # Panics
    ///
    /// If `bytes` is shorter than the header.
    pub fn from_bytes(bytes: &[u8]) -> AllocHeader {
        let word = |off: usize| crate::read_u64(bytes, off);
        AllocHeader {
            bump: word(Self::OFF_BUMP),
            end: word(Self::OFF_END),
            ll_dir: word(Self::OFF_LL_DIR),
        }
    }
}

impl AllocHeader {
    /// Initializes the allocator to manage `[data_start, end)` offsets.
    pub fn init(&mut self, data_start: u64, end: u64) {
        debug_assert!(data_start.is_multiple_of(MIN_ALIGN as u64));
        debug_assert!(data_start <= end);
        self.bump = data_start;
        self.end = end;
        self.ll_dir = 0;
    }

    /// Extends the managed range to end at `new_end` (in-place region
    /// growth): the new bytes are simply more frontier to carve.
    /// Shrinking is not supported; a smaller `new_end` is ignored.
    pub fn extend(&mut self, new_end: u64) {
        if new_end > self.end {
            self.end = new_end;
        }
    }

    /// An all-zero header (no managed range yet); call
    /// [`AllocHeader::init`] before use.
    #[cfg(test)]
    pub(crate) fn zeroed() -> AllocHeader {
        Self::from_bytes(&[0; std::mem::size_of::<AllocHeader>()])
    }

    /// Offset of the bump frontier.
    pub(crate) fn bump(&self) -> u64 {
        self.bump
    }

    /// End offset of the allocatable area.
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// Offset of the first `llalloc` bitmap page.
    pub(crate) fn ll_dir(&self) -> u64 {
        self.ll_dir
    }

    /// Points the bitmap-page directory at `off`.
    pub(crate) fn set_ll_dir(&mut self, off: u64) {
        self.ll_dir = off;
    }

    /// Address of the bump-frontier word, for the `llalloc` grow path
    /// that tracks and flushes it with the span it just carved.
    pub(crate) fn bump_addr(&self) -> usize {
        &self.bump as *const u64 as usize
    }

    /// Raises the bump frontier to `to` (recovery: the frontier must
    /// cover every carved span a reopened image holds). Never lowers it
    /// and never passes the end of the managed range.
    pub(crate) fn raise_bump(&mut self, to: u64) {
        if to <= self.end {
            self.bump = self.bump.max(to);
        }
    }

    /// Bytes available at the bump frontier once it is rounded up to
    /// `align`.
    pub(crate) fn remaining_aligned(&self, align: u64) -> u64 {
        let aligned = self.bump.next_multiple_of(align);
        self.end.saturating_sub(aligned)
    }

    /// Carves `bytes` from the bump frontier at `align` alignment (for
    /// `llalloc` spans and bitmap pages; the alignment gap is discarded).
    pub(crate) fn carve_aligned(&mut self, bytes: u64, align: u64) -> Result<u64> {
        let off = self.bump.next_multiple_of(align);
        let next = off.checked_add(bytes).ok_or(NvError::OutOfMemory {
            region: 0,
            requested: bytes as usize,
        })?;
        if next > self.end {
            return Err(NvError::OutOfMemory {
                region: 0,
                requested: bytes as usize,
            });
        }
        self.bump = next;
        Ok(off)
    }

    /// Rounds a request up to its served size: its size class, or whole
    /// granules above [`MAX_CLASS_SIZE`].
    pub fn rounded_size(size: usize) -> usize {
        match class_for(size) {
            Some(c) => CLASS_SIZES[c],
            None => size.div_ceil(GRANULE as usize) * GRANULE as usize,
        }
    }

    /// Structural check of the header words of a region image of
    /// `image_len` bytes: the managed range may end short of the image (a
    /// crash inside `Region::grow`, which the open re-derives) but never
    /// past it, and the frontier lies inside it.
    ///
    /// # Errors
    ///
    /// [`NvError::BadImage`] describing the broken invariant.
    pub fn check(&self, image_len: u64, data_start: u64) -> Result<()> {
        if self.end > image_len || self.bump > self.end || self.bump < data_start {
            return Err(NvError::BadImage(format!(
                "bump {} outside [{}, {}] (image of {image_len} bytes)",
                self.bump, data_start, self.end
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;

    /// A header managing `[16, size)` of a `size`-byte image.
    fn header(size: u64) -> AllocHeader {
        let mut hdr = AllocHeader::zeroed();
        hdr.init(16, size);
        hdr
    }

    #[test]
    fn class_for_boundaries() {
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(16), Some(0));
        assert_eq!(class_for(17), Some(1));
        assert_eq!(class_for(4096), Some(NUM_CLASSES - 1));
        assert_eq!(class_for(4097), None);
    }

    #[test]
    fn class_for_pins_every_class_boundary() {
        // Exact class size maps to that class; one past it maps to the
        // next class (or to the large path after MAX_CLASS_SIZE).
        for (i, &sz) in CLASS_SIZES.iter().enumerate() {
            assert_eq!(class_for(sz), Some(i), "exact size {sz}");
            if i + 1 < NUM_CLASSES {
                assert_eq!(class_for(sz + 1), Some(i + 1), "size {}", sz + 1);
            }
        }
        assert_eq!(class_for(0), Some(0));
        assert_eq!(class_for(MAX_CLASS_SIZE), Some(NUM_CLASSES - 1));
        assert_eq!(class_for(MAX_CLASS_SIZE + 1), None);
        assert_eq!(class_for(usize::MAX), None);
    }

    #[test]
    fn rounded_size_matches_classes() {
        assert_eq!(AllocHeader::rounded_size(1), 16);
        assert_eq!(AllocHeader::rounded_size(33), 48);
        assert_eq!(AllocHeader::rounded_size(4096), 4096);
        assert_eq!(AllocHeader::rounded_size(4097), 5120);
        assert_eq!(AllocHeader::rounded_size(5000), 5120);
        assert_eq!(AllocHeader::rounded_size(10240), 10240);
    }

    #[test]
    fn bump_allocations_do_not_overlap() {
        // Carves of mixed sizes and alignments, as bitmap pages and spans
        // take them from the frontier.
        let mut hdr = header(1 << 20);
        let mut spans: Vec<(u64, u64)> = (1..=64u64)
            .map(|i| {
                let bytes = i * 7 % 200 + 1;
                let off = hdr.carve_aligned(bytes, 16 << (i % 4)).unwrap();
                (off, off + bytes)
            })
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn carve_aligned_respects_alignment_and_bounds() {
        let mut hdr = header(1 << 14);
        let off = hdr.carve_aligned(1024, 1024).unwrap();
        assert_eq!(off % 1024, 0);
        assert_eq!(hdr.bump(), off + 1024);
        assert!(hdr.carve_aligned(1 << 20, 1024).is_err());
        assert!(hdr.carve_aligned(u64::MAX, 16).is_err(), "no wraparound");
    }

    #[test]
    fn out_of_memory_is_reported() {
        let r = Region::create(64 << 10).unwrap();
        let mut n = 0;
        loop {
            match r.alloc(4096, 8) {
                Ok(_) => n += 1,
                Err(NvError::OutOfMemory { region, .. }) => {
                    assert_eq!(region, r.rid());
                    break;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
            assert!(n < 100);
        }
        assert!(matches!(
            r.alloc(32 << 10, 8),
            Err(NvError::OutOfMemory { .. })
        ));
        r.close().unwrap();
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let r = Region::create(1 << 20).unwrap();
        let p1 = r.alloc(100, 8).unwrap();
        unsafe { r.dealloc(p1, 100).unwrap() };
        assert_eq!(
            r.alloc(100, 8).unwrap(),
            p1,
            "the freed bit is the lowest clear one"
        );
        r.close().unwrap();
    }

    #[test]
    fn different_classes_do_not_mix() {
        let r = Region::create(1 << 20).unwrap();
        let small = r.alloc(16, 8).unwrap();
        unsafe { r.dealloc(small, 16).unwrap() };
        let big = r.alloc(1024, 8).unwrap();
        assert_ne!(small, big);
        r.close().unwrap();
    }

    #[test]
    fn large_blocks_roundtrip() {
        let r = Region::create(1 << 20).unwrap();
        let o1 = r.alloc(10_000, 8).unwrap();
        unsafe { r.dealloc(o1, 10_000).unwrap() };
        let o2 = r.alloc(9_500, 8).unwrap();
        assert_eq!(o1, o2, "first fit reuses the large block");
        // A much smaller request must not take the big block (waste cap).
        unsafe { r.dealloc(o2, 10_000).unwrap() };
        let o3 = r.alloc(4200, 8).unwrap();
        assert_ne!(o3, o1);
        r.close().unwrap();
    }

    #[test]
    fn stats_track_live_allocations() {
        let r = Region::create(1 << 20).unwrap();
        let small = r.alloc(64, 8).unwrap();
        let large = r.alloc(5000, 8).unwrap();
        let s = r.stats();
        assert_eq!((s.live_allocs, s.live_bytes), (2, 64 + 5120));
        unsafe {
            r.dealloc(small, 64).unwrap();
            r.dealloc(large, 5000).unwrap();
        }
        let s = r.stats();
        assert_eq!((s.live_allocs, s.live_bytes), (0, 0));
        r.close().unwrap();
    }

    #[test]
    fn zero_size_alloc_panics() {
        let r = Region::create(1 << 20).unwrap();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.alloc(0, 8)));
        assert!(res.is_err());
        r.close().unwrap();
    }

    #[test]
    fn offsets_survive_memmove_of_the_arena() {
        // A region image reopened at a different address: the allocator
        // state is offsets only, so a freed block is served again at the
        // same offset and a live one is never handed out.
        let path =
            std::env::temp_dir().join(format!("nvmsim-alloc-move-{}.nvr", std::process::id()));
        let (old_base, freed, kept) = {
            let r = Region::create_file(&path, 1 << 20).unwrap();
            let a = r.alloc_off(64, 8).unwrap();
            let b = r.alloc_off(64, 8).unwrap();
            unsafe {
                r.dealloc(std::ptr::NonNull::new(r.ptr_at(a) as *mut u8).unwrap(), 64)
                    .unwrap()
            };
            let base = r.base();
            r.close().unwrap();
            (base, a, b)
        };
        let r = Region::open_file_avoiding(&path, old_base).unwrap();
        assert_ne!(r.base(), old_base);
        assert_eq!(
            r.alloc_off(64, 8).unwrap(),
            freed,
            "resolved against the new base"
        );
        let fresh = r.alloc_off(64, 8).unwrap();
        assert!(fresh != kept && fresh != freed, "a fresh block");
        r.close().unwrap();
        std::fs::remove_file(&path).ok();
    }
}
