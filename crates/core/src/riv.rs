//! The **Region ID in Value (RIV)** representation (paper Section 4.3).
//!
//! A RIV pointer packs the target region's integer ID into the otherwise
//! unused high bits of a 64-bit value, alongside the target's offset within
//! that region:
//!
//! ```text
//!  63   62..(l3)            (l3-1)..0
//! +----+--------------------+---------------------+
//! | NV |    region ID       |  offset in region   |
//! +----+--------------------+---------------------+
//! ```
//!
//! Bit 63 plays the role of the paper's leading-ones prefix: it marks the
//! value as an NV pointer (and can never collide with a user-space virtual
//! address). Conversions to and from absolute addresses go through the two
//! direct-mapped lookup tables of the NV space:
//!
//! * `x2p` ([`Riv::load`]): extract the ID, fetch the region base from the
//!   **base table** (one shifted load), add the offset;
//! * `p2x` ([`Riv::store`]): fetch the ID from the **RID table** (bit
//!   transformations of the address + one load), mask out the offset.
//!
//! Unlike off-holder, RIV supports **cross-region** references: the value
//! identifies its target region explicitly, so the holder and target may
//! live in different NVRegions.

use crate::repr::PtrRepr;
use nvmsim::{Layout, NvRef, NvSpace};

/// Flag bit marking a value as an NV pointer (the paper's leading 1s).
pub const RIV_FLAG: u64 = 1 << 63;

/// Width of the offset field. RIV values always resolve against
/// [`NvSpace::global`], which is built with [`Layout::DEFAULT`], so the
/// field split is a compile-time constant and `x2p` shifts by an immediate.
const OFFSET_BITS: u32 = Layout::DEFAULT.l3;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// The global NV space, whose layout [`OFFSET_BITS`] assumes.
#[inline]
fn space() -> &'static NvSpace {
    let space = NvSpace::global();
    debug_assert!(space.layout() == Layout::DEFAULT);
    space
}

/// `Addr2ID` and `addr - getBase(addr)` for the RIV and fat encoders: bit
/// transforms + one RID-table load. The entry yields both the ID and the
/// chunk's position in its region, so the region offset comes out of the
/// same load — region bases are chunk-aligned, not 2^l3-aligned, so a
/// plain mask of the address would be wrong for any region whose run does
/// not start at an l3 boundary.
#[inline]
pub(crate) fn rid_and_offset(addr: usize) -> (u32, u64) {
    let (rid, off) = space().rid_off_of_addr(addr);
    debug_assert!(rid != 0, "address {addr:#x} not in any open region");
    (rid, off)
}

/// Region-ID-in-value cross-region pointer. See the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct Riv(u64);

impl Riv {
    /// Constructs a RIV value from parts without consulting the tables.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `rid` and `offset` fit the global layout.
    #[inline]
    pub fn from_parts(rid: u32, offset: u64) -> Riv {
        debug_assert!(rid <= Layout::DEFAULT.max_rid());
        debug_assert!(offset <= OFFSET_MASK);
        Riv(RIV_FLAG | ((rid as u64) << OFFSET_BITS) | offset)
    }

    /// The region ID field of this value (0 for null).
    #[inline]
    pub fn rid(&self) -> u32 {
        ((self.0 & !RIV_FLAG) >> OFFSET_BITS) as u32
    }

    /// The within-region offset field of this value.
    #[inline]
    pub fn offset(&self) -> u64 {
        self.0 & OFFSET_MASK
    }

    /// The raw packed value.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// `p2x` (Figure 5 (c)): converts an absolute address into a RIV value.
    ///
    /// Three steps (measured separately by the RIVBRK experiment):
    /// region ID via the RID table, base via masking, pack.
    ///
    /// # Panics
    ///
    /// Debug-asserts the address lies in an open region's segment.
    #[inline]
    pub fn p2x(addr: usize) -> Riv {
        if addr == 0 {
            return Riv(0);
        }
        let (rid, off) = rid_and_offset(addr);
        Riv::from_parts(rid, off)
    }

    /// `x2p` (Figure 5 (b)): converts this value into an absolute address
    /// valid for the current mapping of the target region.
    ///
    /// The generated code is the paper's minimum: strip the flag, shift out
    /// the region ID, one dependent load from the base table, add the
    /// offset.
    #[inline]
    pub fn x2p(self) -> usize {
        if self.0 == 0 {
            return 0;
        }
        // step 1: extract fields; step 2: ID2Addr (one load); step 3: add.
        space().base_of_rid(self.rid()) + self.offset() as usize
    }

    /// Adjusts the target by `delta` bytes (the paper's `x op v` rule).
    /// Stays within the target region; the region ID field is unchanged.
    ///
    /// # Panics
    ///
    /// Debug-asserts the result does not leave the region's offset range.
    #[inline]
    pub fn wrapping_offset(self, delta: isize) -> Riv {
        if self.0 == 0 {
            return self;
        }
        debug_assert!(
            (0..=OFFSET_MASK as i128).contains(&(self.offset() as i128 + delta as i128)),
            "offset arithmetic left the region"
        );
        let new_off = self.offset().wrapping_add(delta as u64) & OFFSET_MASK;
        Riv((self.0 & !OFFSET_MASK) | new_off)
    }
}

/// A `persistent` volatile pointer made position independent for
/// persisting: `p2x` of its address.
impl<T> From<NvRef<T>> for Riv {
    fn from(r: NvRef<T>) -> Riv {
        Riv::p2x(r.addr())
    }
}

// SAFETY: store/load are exact inverses through the NV-space tables while
// the target region is open (tests cover remapped reopen); Default is 0 =
// null; repr(transparent) over u64.
unsafe impl PtrRepr for Riv {
    const NAME: &'static str = "riv";

    #[inline]
    fn is_null(&self) -> bool {
        self.0 == 0
    }

    #[inline]
    fn store(&mut self, target: usize) {
        *self = Riv::p2x(target);
    }

    #[inline]
    fn load(&self) -> usize {
        self.x2p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::Region;

    #[test]
    fn roundtrip_within_a_region() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 8).unwrap().as_ptr() as usize;
        let x = Riv::p2x(p);
        assert_eq!(x.x2p(), p);
        assert_eq!(x.rid(), r.rid());
        assert_eq!(x.offset(), (p - r.base()) as u64);
        assert_ne!(x.raw() & RIV_FLAG, 0, "NV flag set");
        r.close().unwrap();
    }

    #[test]
    fn from_a_persistent_volatile_pointer() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        let x = Riv::from(NvRef::new(p).unwrap());
        assert_eq!(x.x2p(), p as usize);
        r.close().unwrap();
    }

    #[test]
    fn null_roundtrips() {
        let mut p = Riv::default();
        assert!(p.is_null());
        assert_eq!(p.load(), 0);
        assert_eq!(p.rid(), 0);
        let r = Region::create(1 << 20).unwrap();
        let t = r.alloc(64, 8).unwrap().as_ptr() as usize;
        p.store(t);
        assert!(!p.is_null());
        p.store(0);
        assert!(p.is_null());
        r.close().unwrap();
    }

    #[test]
    fn cross_region_reference_resolves() {
        let r1 = Region::create(1 << 20).unwrap();
        let r2 = Region::create(1 << 20).unwrap();
        // A RIV slot in r1 pointing into r2.
        let slot = r1.alloc(8, 8).unwrap().as_ptr() as *mut Riv;
        let target = r2.alloc(64, 8).unwrap().as_ptr() as usize;
        unsafe {
            (*slot).store(target);
            assert_eq!((*slot).load(), target);
            assert_eq!((*slot).rid(), r2.rid());
        }
        r1.close().unwrap();
        r2.close().unwrap();
    }

    #[test]
    fn value_is_stable_across_reopen_at_new_address() {
        let dir = std::env::temp_dir().join(format!("pi-riv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stable.nvr");
        let raw;
        let off;
        {
            let r = Region::create_file(&path, 1 << 20).unwrap();
            let target = r.alloc(64, 8).unwrap().as_ptr() as usize;
            unsafe { (target as *mut u64).write(0xabcd) };
            let x = Riv::p2x(target);
            raw = x.raw();
            off = (target - r.base()) as u64;
            r.set_root("t", target).unwrap();
            r.close().unwrap();
        }
        let r = Region::open_file(&path).unwrap();
        // The same packed value (read back from its image) resolves at the
        // new mapping.
        let x = Riv(raw);
        assert_eq!(x.offset(), off);
        let p = x.x2p();
        assert_eq!(p, r.root("t").unwrap());
        assert_eq!(unsafe { *(p as *const u64) }, 0xabcd);
        r.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_parts_matches_p2x() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 8).unwrap().as_ptr() as usize;
        let a = Riv::p2x(p);
        let b = Riv::from_parts(r.rid(), (p - r.base()) as u64);
        assert_eq!(a, b);
        r.close().unwrap();
    }

    #[test]
    fn pointer_arithmetic_moves_the_target() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(256, 8).unwrap().as_ptr() as usize;
        let x = Riv::p2x(p);
        assert_eq!(x.wrapping_offset(64).x2p(), p + 64);
        assert_eq!(x.wrapping_offset(64).wrapping_offset(-32).x2p(), p + 32);
        assert_eq!(x.wrapping_offset(0), x);
        assert_eq!(
            Riv::default().wrapping_offset(8),
            Riv::default(),
            "null is sticky"
        );
        r.close().unwrap();
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn single_word_representation() {
        assert_eq!(Riv::SIZE_BYTES, 8);
        assert!(Riv::POSITION_INDEPENDENT);
        assert!(!Riv::NEEDS_SWIZZLE);
    }
}
