//! The exact arithmetic model of the paper's NV-space address encodings
//! (Figures 6 and 7): the leading-ones prefix and the *flagging bits* that
//! keep the RID table, the base table and the data area disjoint when all
//! three are carved out of one address range purely by bit patterns.
//!
//! The simulator does not execute through this model (the kernel owns the
//! top of the address space on Linux, so `nvmsim::Layout` relocates the
//! NV space and widens its table entries); it is a test oracle. Property
//! tests (`tests/properties.rs`, `tests/chunk_geometry.rs`) and the root
//! crate's unit tests (`src/lib.rs`, which includes this file) reproduce
//! the paper's address-encoding claims at the arithmetic level.

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
    /// The violated constraint, named.
    pub fn validate(&self) -> Result<(), String> {
        let ExactLayout { l1, l2, l3, l4 } = *self;
        let sb = self.base_entry_shift();
        if l1 + l2 + l3 != 64 {
            return Err(format!("l1 + l2 + l3 must be 64, got {l1} + {l2} + {l3}"));
        }
        if l4 < l2 {
            return Err(format!("l4 ({l4}) must be >= l2 ({l2})"));
        }
        // Figure 6 caption: L4 + ceil(log(L2/8)) >= L3 — the base table's
        // flagging bit must reach the nvbase section of data addresses.
        if l4 + sb < l3 {
            return Err(format!(
                "l4 + base_entry_shift ({l4} + {sb}) must be >= l3 ({l3})"
            ));
        }
        // Discussion: L4 + ceil(log(L2/8)) <= 62 - L1 — room for flag bits.
        if l4 + sb > 62 - l1 {
            return Err(format!(
                "l4 + base_entry_shift ({l4} + {sb}) must be <= 62 - l1 ({})",
                62 - l1
            ));
        }
        // Data addresses (flagged nvbase, lowest is 2^(l2-1+l3)) must clear
        // the base table (topmost is below 2^(l4+sb+1)).
        if l2 - 1 + l3 < l4 + sb + 1 {
            return Err(format!(
                "data area (from bit {}) would overlap the base table (up to bit {})",
                l2 - 1 + l3,
                l4 + sb + 1
            ));
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
