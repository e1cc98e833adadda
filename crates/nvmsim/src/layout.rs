//! NV-space bit layouts: [`Layout`], the *runtime* configuration used by
//! the simulated NV space ([`crate::nvspace::NvSpace`]): how many bits
//! address a byte within a chunk (`lc`), how many bits index chunks
//! (`l2`), how large a region may grow (`l3`, the RIV offset field width),
//! and how many bits a region ID may use (`l4`). This mirrors the paper's
//! Figure 6 with the NV-space origin relocated into user space
//! (substitution S1 in DESIGN.md) and the paper's fixed segments
//! generalized to chunk runs (the translation tables stay direct-mapped,
//! one entry per chunk).
//!
//! The exact arithmetic model of the paper's Figures 6 and 7 (prefix and
//! flagging bits) is a test oracle: `tests/util/exact_layout.rs`, which
//! the unit tests below include.

use crate::error::{NvError, Result};

/// Runtime NV-space configuration.
///
/// The data area is a pool of `2^l2` *chunks* of `2^lc` bytes each; a region
/// occupies a contiguous run of chunks and may grow, chunk by chunk, up to
/// `2^l3` bytes. Region IDs range over `[1, 2^l4)`; ID 0 is reserved as the
/// null region.
///
/// A RIV pointer value packs as `FLAG | rid << l3 | offset` where `FLAG` is
/// bit 63, playing the role of the paper's leading-ones prefix (it marks the
/// value as an NV pointer and keeps `rid + offset` confined to 63 bits).
/// `l3` is therefore the *maximum region size* exponent — the width of the
/// offset field — while `lc` is the translation granule: the RID table has
/// one entry per chunk, so the paper's Addr2ID stays bit transformations
/// plus a single load even though regions span many chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Layout {
    /// Bits indexing chunks; the NV space holds `2^l2` chunks.
    pub l2: u32,
    /// Bits addressing bytes within a chunk; chunks are `2^lc` bytes.
    pub lc: u32,
    /// Bits of the RIV offset field; regions are at most `2^l3` bytes.
    pub l3: u32,
    /// Bits for region IDs; valid IDs are `1 ..= 2^l4 - 1`.
    pub l4: u32,
}

impl Layout {
    /// The default simulation layout: 16384 chunks of 4 MiB (64 GiB of
    /// virtual data area), regions up to 4 GiB, and 20-bit region IDs.
    pub const DEFAULT: Layout = Layout {
        l2: 14,
        lc: 22,
        l3: 32,
        l4: 20,
    };

    /// Creates a layout after validating the paper's constraints plus the
    /// simulator's practical bounds.
    ///
    /// # Errors
    ///
    /// [`NvError::BadLayout`] when a constraint is violated; the message
    /// names the offending constraint.
    pub fn new(l2: u32, lc: u32, l3: u32, l4: u32) -> Result<Layout> {
        let lay = Layout { l2, lc, l3, l4 };
        lay.validate()?;
        Ok(lay)
    }

    /// Validates the layout. See [`Layout::new`].
    pub fn validate(&self) -> Result<()> {
        let Layout { l2, lc, l3, l4 } = *self;
        if lc < 12 {
            return Err(NvError::BadLayout(format!(
                "chunk bits lc ({lc}) must be >= 12 (one page)"
            )));
        }
        if l3 < lc {
            return Err(NvError::BadLayout(format!(
                "max-region bits l3 ({l3}) must be >= chunk bits lc ({lc})"
            )));
        }
        if l3 > l2 + lc {
            return Err(NvError::BadLayout(format!(
                "max region of 2^l3 = 2^{l3} bytes cannot exceed the 2^(l2+lc) = 2^{} data area",
                l2 + lc
            )));
        }
        if l2 + lc > 46 {
            return Err(NvError::BadLayout(format!(
                "data area of 2^(l2+lc) = 2^{} bytes exceeds the 2^46 reservation cap",
                l2 + lc
            )));
        }
        if l4 > 28 {
            return Err(NvError::BadLayout(format!(
                "l4 ({l4}) > 28 would map a base table of more than 2 GiB of address space"
            )));
        }
        if l4 + l3 > 63 {
            return Err(NvError::BadLayout(format!(
                "rid and offset (l4 + l3 = {}) must fit in 63 bits of a RIV value",
                l4 + l3
            )));
        }
        Ok(())
    }

    /// Number of chunks in the data area.
    pub fn chunk_count(&self) -> usize {
        1usize << self.l2
    }

    /// Size of one chunk in bytes.
    #[inline]
    pub fn chunk_size(&self) -> usize {
        1usize << self.lc
    }

    /// Mask extracting the within-chunk offset from an address.
    #[inline]
    pub fn chunk_mask(&self) -> usize {
        self.chunk_size() - 1
    }

    /// Total size of the data area in bytes.
    pub fn data_area_size(&self) -> usize {
        self.chunk_count() << self.lc
    }

    /// Largest size a single region may reach (the RIV offset field width).
    pub fn max_region_size(&self) -> usize {
        1usize << self.l3
    }

    /// Number of chunks needed to hold `bytes` (at least one).
    pub fn chunks_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.chunk_size()).max(1)
    }

    /// Largest valid region ID.
    pub fn max_rid(&self) -> u32 {
        ((1u64 << self.l4) - 1) as u32
    }

    /// Mask extracting the offset field from a RIV value. Note that under
    /// chunked placement this is *not* an address mask: region bases are
    /// `2^lc`-aligned, not `2^l3`-aligned, so within-region offsets come
    /// from the RID-table entry (chunk index within the region), never from
    /// masking an absolute address.
    pub fn offset_mask(&self) -> usize {
        self.max_region_size() - 1
    }

    /// Size in bytes of the RID table (`2^l2` entries, one per chunk).
    ///
    /// Entries are 8 bytes: the low 32 bits hold the region ID mapped at
    /// the chunk (0 = none), the high 32 bits the chunk's index *within*
    /// its region, so one aligned `u64` load yields both the ID and the
    /// region base (paper Figure 7 (b) with a widened entry).
    pub fn rid_table_size(&self) -> usize {
        self.chunk_count() * 8
    }

    /// Virtual size in bytes of the base table (`2^l4` entries, one per
    /// region ID).
    ///
    /// Entries are 8 bytes and hold the region's absolute base directly
    /// (the paper stores the `nvbase` bits — `⌈l2/8⌉` bytes — which is the
    /// same information modulo the shift; we widen the entry so `ID2Addr`
    /// is a single load with no recombination). The size is virtual: the
    /// table is mapped whole but lazily backed, so only pages holding a
    /// bound region ID consume memory.
    pub fn base_table_size(&self) -> usize {
        (1usize << self.l4) * 8
    }

    /// Whether `rid` is a usable region ID under this layout.
    pub fn rid_in_range(&self, rid: u32) -> bool {
        rid >= 1 && rid <= self.max_rid()
    }
}

impl Default for Layout {
    fn default() -> Self {
        Layout::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_is_valid() {
        Layout::DEFAULT.validate().unwrap();
        assert_eq!(Layout::default(), Layout::DEFAULT);
        assert_eq!(Layout::DEFAULT.chunk_size(), 4 << 20);
        assert_eq!(Layout::DEFAULT.chunk_count(), 16384);
        assert_eq!(Layout::DEFAULT.max_region_size(), 4 << 30);
        assert_eq!(Layout::DEFAULT.data_area_size(), 64 << 30);
        assert_eq!(Layout::DEFAULT.max_rid(), (1 << 20) - 1);
        assert!(Layout::DEFAULT.rid_in_range(1));
        assert!(Layout::DEFAULT.rid_in_range((1 << 20) - 1));
        assert!(!Layout::DEFAULT.rid_in_range(0));
        assert!(!Layout::DEFAULT.rid_in_range(1 << 20));
    }

    #[test]
    fn chunk_helpers() {
        let l = Layout::DEFAULT;
        assert_eq!(l.chunks_for(0), 1);
        assert_eq!(l.chunks_for(1), 1);
        assert_eq!(l.chunks_for(l.chunk_size()), 1);
        assert_eq!(l.chunks_for(l.chunk_size() + 1), 2);
        assert_eq!(l.chunks_for(3 * l.chunk_size()), 3);
        assert_eq!(l.chunk_mask(), l.chunk_size() - 1);
        assert_eq!(l.offset_mask(), l.max_region_size() - 1);
    }

    #[test]
    fn table_sizes_are_eight_bytes_per_entry() {
        assert_eq!(Layout::DEFAULT.rid_table_size(), 128 << 10);
        assert_eq!(Layout::DEFAULT.base_table_size(), 8 << 20);
        let s = Layout::new(6, 16, 20, 6).unwrap();
        assert_eq!(s.rid_table_size(), 512);
        assert_eq!(s.base_table_size(), 512);
    }

    #[test]
    fn layout_rejects_bad_configs() {
        assert!(Layout::new(8, 8, 20, 16).is_err(), "tiny chunks");
        assert!(Layout::new(8, 22, 20, 16).is_err(), "l3 < lc");
        assert!(Layout::new(8, 22, 34, 16).is_err(), "l3 past the data area");
        assert!(Layout::new(26, 22, 32, 16).is_err(), "data area too big");
        assert!(Layout::new(14, 22, 32, 29).is_err(), "base table cap");
        assert!(Layout::new(14, 22, 40, 24).is_err(), "riv overflow");
        assert!(Layout::new(14, 22, 32, 20).is_ok());
        assert!(Layout::new(6, 16, 20, 6).is_ok(), "small test geometry");
    }
}
