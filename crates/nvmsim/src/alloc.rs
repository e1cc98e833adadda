//! Intra-region persistent-memory allocator.
//!
//! Every piece of allocator state lives *inside the region it manages* and
//! is expressed in **offsets from the region base**, never absolute
//! addresses. A region image is therefore position independent by
//! construction: it can be written to a file, reopened at any segment base,
//! and the allocator resumes exactly where it left off.
//!
//! The design is a conventional segregated-fit allocator:
//!
//! * sizes up to [`MAX_CLASS_SIZE`] round up to one of [`CLASS_SIZES`] and
//!   are served LIFO from per-class free lists (offset-linked);
//! * larger sizes are served first-fit from a single large-block list, or
//!   carved from the bump frontier;
//! * the bump frontier is the fallback for empty free lists.
//!
//! Free-list links are stored in the first 8 bytes of each free block;
//! large free blocks additionally store their size in the next 8 bytes.

use crate::error::{NvError, Result};
use std::mem::offset_of;

/// Allocation size classes in bytes. All are multiples of [`MIN_ALIGN`].
pub const CLASS_SIZES: [usize; 16] = [
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096,
];

/// Largest size served by a class free list.
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

/// Allocator metadata embedded in a region header.
///
/// All fields are offsets or counters; the struct is `repr(C)` so the
/// on-media layout is stable.
#[repr(C)]
#[derive(Debug)]
pub struct AllocHeader {
    bump: u64,
    end: u64,
    free_heads: [u64; NUM_CLASSES],
    large_head: u64,
    /// Live bytes and blocks served by the free lists: the free-list
    /// path's one record, updated in place by [`AllocHeader::alloc`] and
    /// [`AllocHeader::dealloc`] under the region lock. Bitmap-served
    /// blocks are counted by their bitmaps, never here.
    live_bytes: u64,
    live_allocs: u64,
    /// Offset of the first `llalloc` bitmap page (0 = none: the region
    /// is too small to host one, or salvage detached a damaged chain, and
    /// runs on the free lists alone).
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
    /// The free-list heads: one word per size class, then the large list.
    pub const LISTS: std::ops::Range<usize> =
        offset_of!(AllocHeader, free_heads)..offset_of!(AllocHeader, large_head) + 8;
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
            free_heads: std::array::from_fn(|i| word(Self::LISTS.start + 8 * i)),
            large_head: word(offset_of!(AllocHeader, large_head)),
            live_bytes: word(offset_of!(AllocHeader, live_bytes)),
            live_allocs: word(offset_of!(AllocHeader, live_allocs)),
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
        self.free_heads = [0; NUM_CLASSES];
        self.large_head = 0;
        self.live_bytes = 0;
        self.live_allocs = 0;
        self.ll_dir = 0;
    }

    /// Extends the managed range to end at `new_end` (in-place region
    /// growth): the bump frontier and free lists are untouched — the new
    /// bytes are simply more frontier to carve. Shrinking is not
    /// supported; a smaller `new_end` is ignored.
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

    /// Offset of the first `llalloc` bitmap page (0 = legacy-only).
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
    /// Statistics counters are not touched — the carved span is
    /// allocator metadata or bitmap-managed capacity, not an application
    /// block.
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

    /// Rounds a request up to its served size.
    pub fn rounded_size(size: usize) -> usize {
        let size = size.max(MIN_ALIGN);
        match class_for(size) {
            Some(c) => CLASS_SIZES[c],
            None => (size + MIN_ALIGN - 1) & !(MIN_ALIGN - 1),
        }
    }

    #[inline]
    unsafe fn read_u64(base: usize, off: u64) -> u64 {
        *((base + off as usize) as *const u64)
    }

    #[inline]
    unsafe fn write_u64(base: usize, off: u64, v: u64) {
        *((base + off as usize) as *mut u64) = v;
    }

    /// Allocates `size` bytes with alignment `align`, returning the offset
    /// of the block from the region base.
    ///
    /// # Errors
    ///
    /// [`NvError::OutOfMemory`] when neither a free block nor bump space is
    /// available.
    ///
    /// # Panics
    ///
    /// Panics if `align > MIN_ALIGN` or `size == 0`.
    ///
    /// # Safety
    ///
    /// `base` must be the base address of the mapped region whose header
    /// contains `self`, and the region must stay mapped for the duration of
    /// the call.
    pub unsafe fn alloc(&mut self, base: usize, size: usize, align: usize) -> Result<u64> {
        assert!(size > 0, "zero-size allocation");
        assert!(
            align <= MIN_ALIGN && MIN_ALIGN.is_multiple_of(align.max(1)),
            "alignment beyond {MIN_ALIGN} is not supported"
        );
        let rounded = Self::rounded_size(size);
        let off = if let Some(class) = class_for(rounded) {
            let head = self.free_heads[class];
            if head != 0 {
                self.free_heads[class] = Self::read_u64(base, head);
                head
            } else {
                self.bump_alloc(rounded)?
            }
        } else {
            match self.large_fit(base, rounded) {
                Some(off) => off,
                None => self.bump_alloc(rounded)?,
            }
        };
        // Saturating: the counters are media words nothing validates.
        self.live_bytes = self.live_bytes.saturating_add(rounded as u64);
        self.live_allocs = self.live_allocs.saturating_add(1);
        Ok(off)
    }

    fn bump_alloc(&mut self, rounded: usize) -> Result<u64> {
        let off = self.bump;
        let next = off + rounded as u64;
        if next > self.end {
            return Err(NvError::OutOfMemory {
                region: 0,
                requested: rounded,
            });
        }
        self.bump = next;
        Ok(off)
    }

    /// First-fit scan of the large list; removes and returns a block of at
    /// least `rounded` bytes whose waste is below half the request.
    unsafe fn large_fit(&mut self, base: usize, rounded: usize) -> Option<u64> {
        let mut prev: u64 = 0;
        let mut cur = self.large_head;
        while cur != 0 {
            let next = Self::read_u64(base, cur);
            let bsize = Self::read_u64(base, cur + 8) as usize;
            if bsize >= rounded && bsize - rounded <= rounded / 2 {
                if prev == 0 {
                    self.large_head = next;
                } else {
                    Self::write_u64(base, prev, next);
                }
                return Some(cur);
            }
            prev = cur;
            cur = next;
        }
        None
    }

    /// Returns the block at `off` (allocated with `size`) to the allocator.
    ///
    /// # Safety
    ///
    /// `base` must be the region base; `(off, size)` must exactly describe a
    /// block previously returned by [`AllocHeader::alloc`] on this header
    /// with the same (pre-rounding) `size`, not freed since.
    pub unsafe fn dealloc(&mut self, base: usize, off: u64, size: usize) {
        debug_assert!(off.is_multiple_of(MIN_ALIGN as u64));
        let rounded = Self::rounded_size(size);
        debug_assert!(off + rounded as u64 <= self.end);
        self.live_bytes = self.live_bytes.saturating_sub(rounded as u64);
        self.live_allocs = self.live_allocs.saturating_sub(1);
        if let Some(class) = class_for(rounded) {
            Self::write_u64(base, off, self.free_heads[class]);
            self.free_heads[class] = off;
        } else {
            Self::write_u64(base, off, self.large_head);
            Self::write_u64(base, off + 8, rounded as u64);
            self.large_head = off;
        }
    }

    /// Bytes still available at the bump frontier (free-list contents not
    /// included).
    pub fn remaining(&self) -> u64 {
        self.end - self.bump
    }

    /// Current statistics of the free-list path (the region adds the
    /// bitmap popcount on top).
    pub fn stats(&self) -> AllocStats {
        AllocStats {
            live_bytes: self.live_bytes,
            live_allocs: self.live_allocs,
            bump: self.bump,
            end: self.end,
        }
    }

    /// Cheap structural sanity check of the free lists of `image` (offset
    /// 0 = region base; used after reopening a persisted image). Walks
    /// each list and verifies every link stays in bounds and 16-aligned.
    /// Links are read by bounds-checked indexing of `image`: nothing the
    /// image says is dereferenced.
    ///
    /// # Errors
    ///
    /// [`NvError::BadImage`] describing the first broken invariant found.
    pub fn check(&self, image: &[u8], data_start: u64) -> Result<()> {
        if self.end > image.len() as u64 || self.bump > self.end || self.bump < data_start {
            return Err(NvError::BadImage(format!(
                "bump {} outside [{}, {}] (image of {} bytes)",
                self.bump,
                data_start,
                self.end,
                image.len()
            )));
        }
        // `end - off >= 8`: the link word itself must lie inside the range.
        let in_bounds = |off: u64| {
            off >= data_start && off < self.end && self.end - off >= 8 && off.is_multiple_of(16)
        };
        // Structural cycle bound: a region of this size cannot hold more
        // than `max_blocks` distinct blocks, whatever the op history.
        let max_blocks = (self.end - data_start) / MIN_ALIGN as u64 + 1;
        for (class, &head) in self.free_heads.iter().enumerate() {
            Self::walk_list(
                image,
                head,
                max_blocks,
                &in_bounds,
                &format!("class {class} free list"),
            )?;
        }
        Self::walk_list(
            image,
            self.large_head,
            max_blocks,
            &in_bounds,
            "large free list",
        )?;
        Ok(())
    }

    /// Walks one offset-linked free list, validating every link. Cycle
    /// detection is Brent's algorithm — a corrupted next-pointer that
    /// forms an in-range cycle is caught after O(cycle length) steps
    /// instead of grinding through the worst-case block count of the
    /// region — with the structural `max_blocks` bound kept as a
    /// belt-and-braces limit.
    fn walk_list(
        image: &[u8],
        head: u64,
        max_blocks: u64,
        in_bounds: &dyn Fn(u64) -> bool,
        what: &str,
    ) -> Result<()> {
        let mut anchor = head;
        let mut cur = head;
        let mut steps = 0u64;
        let mut next_teleport = 2u64;
        while cur != 0 {
            if !in_bounds(cur) {
                return Err(NvError::BadImage(format!(
                    "{what} link {cur:#x} out of bounds"
                )));
            }
            cur = crate::read_u64(image, cur as usize);
            steps += 1;
            if cur != 0 && cur == anchor {
                return Err(NvError::BadImage(format!("{what} cycle")));
            }
            if steps == next_teleport {
                anchor = cur;
                next_teleport = next_teleport.saturating_mul(2);
            }
            if steps > max_blocks {
                return Err(NvError::BadImage(format!("{what} cycle")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A little arena standing in for a mapped region.
    struct Arena {
        mem: Vec<u8>,
        hdr: AllocHeader,
    }

    impl Arena {
        fn new(size: usize) -> Arena {
            let mut a = Arena {
                mem: vec![0u8; size],
                hdr: AllocHeader::zeroed(),
            };
            a.hdr.init(16, size as u64);
            a
        }
        fn base(&self) -> usize {
            self.mem.as_ptr() as usize
        }
        fn alloc(&mut self, size: usize) -> Result<u64> {
            unsafe { self.hdr.alloc(self.base(), size, 16) }
        }
        fn free(&mut self, off: u64, size: usize) {
            let b = self.base();
            unsafe { self.hdr.dealloc(b, off, size) }
        }
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
        assert_eq!(AllocHeader::rounded_size(5000), 5008);
    }

    #[test]
    fn bump_allocations_do_not_overlap() {
        let mut a = Arena::new(1 << 16);
        let mut offs = Vec::new();
        for i in 1..=64 {
            offs.push((a.alloc(i * 7 % 200 + 1).unwrap(), i * 7 % 200 + 1));
        }
        let mut spans: Vec<(u64, u64)> = offs
            .iter()
            .map(|&(o, s)| (o, o + AllocHeader::rounded_size(s) as u64))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let mut a = Arena::new(1 << 14);
        let o1 = a.alloc(100).unwrap();
        a.free(o1, 100);
        let o2 = a.alloc(100).unwrap();
        assert_eq!(o1, o2, "LIFO reuse of the same class block");
    }

    #[test]
    fn different_classes_do_not_mix() {
        let mut a = Arena::new(1 << 14);
        let small = a.alloc(16).unwrap();
        a.free(small, 16);
        let big = a.alloc(1024).unwrap();
        assert_ne!(small, big);
    }

    #[test]
    fn large_blocks_roundtrip() {
        let mut a = Arena::new(1 << 16);
        let o1 = a.alloc(10_000).unwrap();
        a.free(o1, 10_000);
        let o2 = a.alloc(9_500).unwrap();
        assert_eq!(o1, o2, "first fit reuses the large block");
        // A much smaller request must not take the big block (waste cap).
        a.free(o2, 10_000);
        let o3 = a.alloc(4200).unwrap();
        assert_ne!(o3, o1);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut a = Arena::new(4096);
        let mut n = 0;
        loop {
            match a.alloc(4096) {
                Ok(_) => n += 1,
                Err(NvError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
            assert!(n < 100);
        }
    }

    #[test]
    fn stats_track_live_allocations() {
        let mut a = Arena::new(1 << 14);
        let o = a.alloc(64).unwrap();
        let s = a.hdr.stats();
        assert_eq!(s.live_allocs, 1);
        assert_eq!(s.live_bytes, 64);
        a.free(o, 64);
        let s = a.hdr.stats();
        assert_eq!(s.live_allocs, 0);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn check_accepts_valid_and_rejects_corrupt_lists() {
        let mut a = Arena::new(1 << 14);
        let o = a.alloc(64).unwrap();
        a.free(o, 64);
        a.hdr.check(&a.mem, 16).unwrap();
        // Corrupt the free head to point out of bounds.
        a.hdr.free_heads[class_for(64).unwrap()] = (1 << 20) as u64;
        assert!(a.hdr.check(&a.mem, 16).is_err());
    }

    #[test]
    fn check_detects_in_range_free_list_cycle() {
        // A corrupted next-pointer that stays in range and 16-aligned
        // forms a cycle the bounds checks cannot see; Brent's walk must
        // report it (and do so in O(cycle length), not O(region size)).
        let mut a = Arena::new(1 << 14);
        let class = class_for(64).unwrap();
        let o1 = a.alloc(64).unwrap();
        let o2 = a.alloc(64).unwrap();
        let o3 = a.alloc(64).unwrap();
        a.free(o1, 64);
        a.free(o2, 64);
        a.free(o3, 64);
        let base = a.base();
        // List is o3 -> o2 -> o1 -> 0; corrupt o1's link back to o3.
        unsafe { *((base + o1 as usize) as *mut u64) = o3 };
        let err = a.hdr.check(&a.mem, 16).unwrap_err();
        assert!(
            err.to_string().contains("cycle"),
            "expected a cycle report, got: {err}"
        );
        assert_eq!(a.hdr.free_heads[class], o3);
    }

    #[test]
    fn check_detects_large_list_self_cycle() {
        let mut a = Arena::new(1 << 16);
        let o = a.alloc(10_000).unwrap();
        a.free(o, 10_000);
        let base = a.base();
        // Self-loop: the block's next pointer names itself.
        unsafe { *((base + o as usize) as *mut u64) = o };
        let err = a.hdr.check(&a.mem, 16).unwrap_err();
        assert!(err.to_string().contains("large free list cycle"));
    }

    #[test]
    fn carve_aligned_respects_alignment_and_bounds() {
        let mut a = Arena::new(1 << 14);
        let _ = a.alloc(16).unwrap(); // push bump off alignment
        let off = a.hdr.carve_aligned(1024, 1024).unwrap();
        assert_eq!(off % 1024, 0);
        assert!(a.hdr.stats().bump == off + 1024);
        assert!(a.hdr.carve_aligned(1 << 20, 1024).is_err());
    }

    #[test]
    fn zero_size_alloc_panics() {
        let mut a = Arena::new(4096);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.alloc(0)));
        assert!(r.is_err());
    }

    #[test]
    fn offsets_survive_memmove_of_the_arena() {
        // Simulates remapping a region at a different address: the arena's
        // bytes (including embedded free-list links) are copied verbatim and
        // the allocator keeps functioning against the new base.
        let mut a = Arena::new(1 << 14);
        let o1 = a.alloc(64).unwrap();
        let o2 = a.alloc(64).unwrap();
        a.free(o1, 64);
        let mut b = Arena::new(1 << 14); // fresh memory at a new address
        b.mem.copy_from_slice(&a.mem);
        b.hdr.bump = a.hdr.bump;
        b.hdr.free_heads = a.hdr.free_heads;
        b.hdr.large_head = a.hdr.large_head;
        let o3 = b.alloc(64).unwrap();
        assert_eq!(o3, o1, "free list link resolved against the new base");
        let o4 = b.alloc(64).unwrap();
        assert!(o4 != o2 && o4 != o3, "fresh bump block");
    }
}
