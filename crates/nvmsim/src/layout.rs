//! NV-space bit layouts.
//!
//! Two things live here:
//!
//! * [`Layout`] — the *runtime* configuration used by the simulated NV space
//!   ([`crate::nvspace::NvSpace`]): how many bits address a byte within a
//!   chunk (`lc`), how many bits index chunks (`l2`), how large a region
//!   may grow (`l3`, the RIV offset field width), and how many bits a
//!   region ID may use (`l4`). This mirrors the paper's Figure 6 with the
//!   NV-space origin relocated into user space (substitution S1 in
//!   DESIGN.md) and the paper's fixed segments generalized to chunk runs
//!   (the translation tables stay direct-mapped, one entry per chunk).
//!
//! * [`ExactLayout`] — a faithful arithmetic model of the paper's Figure 6/7
//!   scheme, including the leading-ones prefix and the *flagging bits* that
//!   keep the RID table, the base table, and the data area disjoint when all
//!   three are carved out of one address range purely by bit patterns. The
//!   simulator does not execute through this model (the kernel owns the top
//!   of the address space on Linux), but the model is property-tested so the
//!   paper's address-encoding claims are reproduced at the arithmetic level.

use crate::error::{NvError, Result};

/// Ceiling of `bits / 8`: the number of bytes needed to store `bits` bits.
/// This is the paper's `⌈L/8⌉` used for table entry sizes.
pub const fn bytes_for_bits(bits: u32) -> u32 {
    bits.div_ceil(8)
}

/// `⌈log2(n)⌉` for `n >= 1`: the shift that strides entries of `n` bytes.
pub const fn ceil_log2(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        u32::BITS - (n - 1).leading_zeros()
    }
}

// ---------------------------------------------------------------------------
// Runtime layout
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Paper-exact model (Figures 6 and 7)
// ---------------------------------------------------------------------------

/// Arithmetic model of the paper's exact NV-space address encodings.
///
/// In the paper the NV space occupies the top of the 64-bit address space:
/// every NV address starts with `l1` one-bits. Below that prefix, three
/// areas are distinguished purely by bit patterns:
///
/// * **RID table** (bottom): entry for segment `nvbase` at
///   `prefix | nvbase << rid_entry_shift`; the entry holds the region ID.
/// * **Base table** (middle): entry for region `rid` at
///   `prefix | 1 << (l4 + base_entry_shift) | rid << base_entry_shift`; the
///   set *flagging bit* at position `l4 + base_entry_shift` lifts the base
///   table above the RID table. The entry holds the segment's `nvbase`.
/// * **Data area** (top): `prefix | nvbase << l3 | offset` where the most
///   significant bit of `nvbase` is 1 (the paper's `11`/`10` flagging
///   bits), lifting all data addresses above both tables.
///
/// [`ExactLayout::validate`] enforces the constraints stated in Section 4.3;
/// the unit and property tests verify the disjointness and round-trip claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExactLayout {
    /// Leading one-bits marking NV-space addresses.
    pub l1: u32,
    /// Bits of `nvbase` (segment index).
    pub l2: u32,
    /// Bits of within-segment offset.
    pub l3: u32,
    /// Bits of region ID.
    pub l4: u32,
}

/// The three NV-space areas an address can fall into, per the exact model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Area {
    /// Direct-mapped table holding region IDs, indexed by segment.
    RidTable,
    /// Direct-mapped table holding segment bases, indexed by region ID.
    BaseTable,
    /// NV segments holding region data.
    Data,
}

impl ExactLayout {
    /// The configuration used in the paper's worked example (Section 4.3).
    pub const PAPER_EXAMPLE: ExactLayout = ExactLayout {
        l1: 4,
        l2: 28,
        l3: 32,
        l4: 32,
    };

    /// The large-region configuration quoted in the paper's discussion.
    pub const PAPER_LARGE: ExactLayout = ExactLayout {
        l1: 2,
        l2: 24,
        l3: 38,
        l4: 58,
    };

    /// Byte stride shift between RID-table entries (`⌈log2 ⌈l4/8⌉⌉`).
    pub fn rid_entry_shift(&self) -> u32 {
        ceil_log2(bytes_for_bits(self.l4))
    }

    /// Byte stride shift between base-table entries (`⌈log2 ⌈l2/8⌉⌉`).
    pub fn base_entry_shift(&self) -> u32 {
        ceil_log2(bytes_for_bits(self.l2))
    }

    /// The all-ones prefix occupying the top `l1` bits.
    pub fn prefix(&self) -> u64 {
        if self.l1 == 0 {
            0
        } else {
            !0u64 << (64 - self.l1)
        }
    }

    /// Validates the constraints of Section 4.3.
    ///
    /// # Errors
    ///
    /// [`NvError::BadLayout`] naming the violated constraint.
    pub fn validate(&self) -> Result<()> {
        let ExactLayout { l1, l2, l3, l4 } = *self;
        let sb = self.base_entry_shift();
        if l1 + l2 + l3 != 64 {
            return Err(NvError::BadLayout(format!(
                "l1 + l2 + l3 must be 64, got {l1} + {l2} + {l3}"
            )));
        }
        if l4 < l2 {
            return Err(NvError::BadLayout(format!(
                "l4 ({l4}) must be >= l2 ({l2})"
            )));
        }
        // Figure 6 caption: L4 + ceil(log(L2/8)) >= L3 — the base table's
        // flagging bit must reach the nvbase section of data addresses.
        if l4 + sb < l3 {
            return Err(NvError::BadLayout(format!(
                "l4 + base_entry_shift ({l4} + {sb}) must be >= l3 ({l3})"
            )));
        }
        // Discussion: L4 + ceil(log(L2/8)) <= 62 - L1 — room for flag bits.
        if l4 + sb > 62 - l1 {
            return Err(NvError::BadLayout(format!(
                "l4 + base_entry_shift ({l4} + {sb}) must be <= 62 - l1 ({})",
                62 - l1
            )));
        }
        // Data addresses (flagged nvbase, lowest is 2^(l2-1+l3)) must clear
        // the base table (topmost is below 2^(l4+sb+1)).
        if l2 - 1 + l3 < l4 + sb + 1 {
            return Err(NvError::BadLayout(format!(
                "data area (from bit {}) would overlap the base table (up to bit {})",
                l2 - 1 + l3,
                l4 + sb + 1
            )));
        }
        Ok(())
    }

    /// Number of usable data segments (those whose `nvbase` has the flag
    /// bit set — half of `2^l2`).
    pub fn usable_segments(&self) -> u64 {
        1u64 << (self.l2 - 1)
    }

    /// Lowest usable `nvbase` value (flag bit set).
    pub fn first_usable_nvbase(&self) -> u64 {
        1u64 << (self.l2 - 1)
    }

    /// Address of the RID-table entry for segment `nvbase`.
    ///
    /// This is the paper's Figure 7 (b) transformation applied to a segment
    /// base address: shift out the offset, mask to `l2` bits, stride by the
    /// entry size, and set the prefix.
    pub fn rid_entry_addr(&self, nvbase: u64) -> u64 {
        debug_assert!(nvbase < (1u64 << self.l2));
        self.prefix() | (nvbase << self.rid_entry_shift())
    }

    /// Address of the RID-table entry for an arbitrary *data* address: the
    /// same transformation, starting from the full address.
    pub fn rid_entry_addr_for(&self, addr: u64) -> u64 {
        self.rid_entry_addr(self.nvbase_of(addr))
    }

    /// Address of the base-table entry for region `rid` (Figure 7 (c)).
    pub fn base_entry_addr(&self, rid: u64) -> u64 {
        debug_assert!(rid < (1u64 << self.l4));
        let flag = 1u64 << (self.l4 + self.base_entry_shift());
        self.prefix() | flag | (rid << self.base_entry_shift())
    }

    /// Composes a data-area address from a flagged `nvbase` and an offset.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `nvbase` has its flag (top) bit set and that the
    /// offset fits in `l3` bits.
    pub fn data_addr(&self, nvbase: u64, offset: u64) -> u64 {
        debug_assert!(nvbase >> (self.l2 - 1) == 1, "nvbase flag bit must be set");
        debug_assert!(offset < (1u64 << self.l3));
        self.prefix() | (nvbase << self.l3) | offset
    }

    /// Extracts the `nvbase` section from an NV-space address.
    pub fn nvbase_of(&self, addr: u64) -> u64 {
        (addr >> self.l3) & ((1u64 << self.l2) - 1)
    }

    /// Extracts the within-segment offset from an NV-space address.
    pub fn offset_of(&self, addr: u64) -> u64 {
        addr & ((1u64 << self.l3) - 1)
    }

    /// `getBase` from Figure 5 (c): masks the low `l3` bits.
    pub fn get_base(&self, addr: u64) -> u64 {
        addr & !((1u64 << self.l3) - 1)
    }

    /// Classifies an NV-space address into the area its bit pattern selects,
    /// or `None` if the pattern belongs to the gaps between areas.
    pub fn classify(&self, addr: u64) -> Option<Area> {
        if self.l1 > 0 && addr >> (64 - self.l1) != self.prefix() >> (64 - self.l1) {
            return None;
        }
        let low = addr & !self.prefix();
        if low >> (self.l2 - 1 + self.l3) != 0 {
            return Some(Area::Data);
        }
        let base_lo = 1u64 << (self.l4 + self.base_entry_shift());
        if low >= base_lo && low < base_lo << 1 {
            return Some(Area::BaseTable);
        }
        if low < (1u64 << (self.l2 + self.rid_entry_shift())) {
            return Some(Area::RidTable);
        }
        None
    }

    /// The half-open byte span `[lo, hi)` occupied by an area.
    pub fn area_span(&self, area: Area) -> (u64, u64) {
        let p = self.prefix();
        match area {
            Area::RidTable => {
                let entry = 1u64 << self.rid_entry_shift();
                (p, p + (1u64 << self.l2) * entry)
            }
            Area::BaseTable => {
                let lo = 1u64 << (self.l4 + self.base_entry_shift());
                (p + lo, p + (lo << 1))
            }
            Area::Data => {
                let lo = 1u64 << (self.l2 - 1 + self.l3);
                // Top of the data area is the top of the address space.
                (
                    p + lo,
                    p.wrapping_add(1u64 << (self.l2 + self.l3))
                        .wrapping_sub(1)
                        .wrapping_add(1),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(bytes_for_bits(8), 1);
        assert_eq!(bytes_for_bits(9), 2);
        assert_eq!(bytes_for_bits(28), 4);
        assert_eq!(bytes_for_bits(32), 4);
        assert_eq!(bytes_for_bits(58), 8);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(8), 3);
    }

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

    #[test]
    fn paper_example_config_is_valid() {
        ExactLayout::PAPER_EXAMPLE.validate().unwrap();
        ExactLayout::PAPER_LARGE.validate().unwrap();
    }

    #[test]
    fn paper_example_entry_strides() {
        let e = ExactLayout::PAPER_EXAMPLE;
        // l4 = 32 bits -> 4-byte rid entries; l2 = 28 -> 4-byte base entries.
        assert_eq!(e.rid_entry_shift(), 2);
        assert_eq!(e.base_entry_shift(), 2);
        assert_eq!(e.prefix(), 0xf000_0000_0000_0000);
    }

    #[test]
    fn paper_example_nvbase_extraction() {
        // The worked example: a region loaded at segment base
        // 0xfffffffd00000000 has nvbase 0xffffffd.
        let e = ExactLayout::PAPER_EXAMPLE;
        // (0xfffffffd00000000 >> 32) & 0x0fffffff = 0xffffffd.
        assert_eq!(e.nvbase_of(0xffff_fffd_0000_0000), 0xffffffd);
        assert_eq!(e.offset_of(0xffff_fffd_1234_5678), 0x1234_5678);
        assert_eq!(e.get_base(0xffff_fffd_1234_5678), 0xffff_fffd_0000_0000);
    }

    #[test]
    fn same_segment_addresses_share_rid_entry() {
        let e = ExactLayout::PAPER_EXAMPLE;
        let a1 = 0xffff_fffd_0000_0000u64;
        let a2 = 0xffff_fffd_1234_5678u64;
        assert_eq!(e.rid_entry_addr_for(a1), e.rid_entry_addr_for(a2));
    }

    #[test]
    fn base_entry_addr_has_flag_bit() {
        let e = ExactLayout::PAPER_EXAMPLE;
        let addr = e.base_entry_addr(8);
        // rid 8 strided by 4 bytes -> low bits 0x20; flag at bit 34.
        assert_eq!(addr & 0xffff_ffff, 0x20);
        assert_ne!(addr & (1u64 << 34), 0);
        assert_eq!(e.classify(addr), Some(Area::BaseTable));
    }

    #[test]
    fn areas_are_pairwise_disjoint_for_paper_configs() {
        for e in [ExactLayout::PAPER_EXAMPLE, ExactLayout::PAPER_LARGE] {
            let (_r_lo, r_hi) = e.area_span(Area::RidTable);
            let (b_lo, b_hi) = e.area_span(Area::BaseTable);
            let (d_lo, _d_hi) = e.area_span(Area::Data);
            assert!(r_hi <= b_lo, "rid table below base table");
            assert!(b_hi <= d_lo, "base table below data area");
        }
    }

    #[test]
    fn classify_matches_constructors() {
        let e = ExactLayout::PAPER_EXAMPLE;
        let nvb = e.first_usable_nvbase() | 5;
        assert_eq!(e.classify(e.data_addr(nvb, 1234)), Some(Area::Data));
        assert_eq!(e.classify(e.rid_entry_addr(nvb)), Some(Area::RidTable));
        assert_eq!(e.classify(e.base_entry_addr(77)), Some(Area::BaseTable));
        // A non-NV address classifies as None.
        assert_eq!(e.classify(0x0000_7fff_dead_beef), None);
    }

    #[test]
    fn exact_layout_rejects_violations() {
        // l1+l2+l3 != 64
        assert!(ExactLayout {
            l1: 4,
            l2: 28,
            l3: 30,
            l4: 32
        }
        .validate()
        .is_err());
        // l4 < l2
        assert!(ExactLayout {
            l1: 4,
            l2: 28,
            l3: 32,
            l4: 20
        }
        .validate()
        .is_err());
        // l4 + sb < l3 (flag bit below the nvbase section)
        assert!(ExactLayout {
            l1: 2,
            l2: 20,
            l3: 42,
            l4: 30
        }
        .validate()
        .is_err());
    }
}
