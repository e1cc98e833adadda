//! The **fat pointer** baseline (paper Section 5, "Fat Pointer").
//!
//! A fat pointer is the PMEM.IO / NV-heaps style persistent pointer: a
//! 16-byte struct `{ region_id, offset }`. It is position independent, but
//!
//! * it **doubles** the space of every pointer, and
//! * every dereference performs a **hashtable lookup** from region ID to
//!   the region's current base address.
//!
//! [`FatPtrCached`] adds the paper's Section 6.3 optimization: two process
//! globals `lastID`/`lastAddr` short-circuit the hashtable when consecutive
//! accesses hit the same region — effective with one region, ineffective
//! (or counterproductive) when accesses alternate among regions.

use crate::repr::PtrRepr;
use crate::riv::rid_and_offset;
use nvmsim::registry;

/// PMEM.IO-style `{region_id, offset}` persistent pointer (16 bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
pub struct FatPtr {
    rid: u32,
    _pad: u32,
    off: u64,
}

impl FatPtr {
    /// The region ID field.
    pub fn rid(&self) -> u32 {
        self.rid
    }

    /// The offset field.
    pub fn offset(&self) -> u64 {
        self.off
    }

    /// Builds a fat pointer from parts (as an allocator returning
    /// `PMEMoid`s would).
    pub fn from_parts(rid: u32, off: u64) -> FatPtr {
        FatPtr { rid, _pad: 0, off }
    }

    #[inline]
    fn encode(target: usize) -> FatPtr {
        if target == 0 {
            return FatPtr::default();
        }
        let (rid, off) = rid_and_offset(target);
        FatPtr { rid, _pad: 0, off }
    }
}

// SAFETY: encode/decode are inverses via the registry hashtable while the
// region is open; Default has rid 0 = null; repr(C) without uninit padding
// (explicit _pad field).
unsafe impl PtrRepr for FatPtr {
    const NAME: &'static str = "fat";

    #[inline]
    fn is_null(&self) -> bool {
        self.rid == 0
    }

    #[inline]
    fn store(&mut self, target: usize) {
        *self = Self::encode(target);
    }

    #[inline]
    fn load(&self) -> usize {
        if self.rid == 0 {
            return 0;
        }
        // The per-dereference hashtable lookup that the paper measures.
        let base = registry::fat_lookup(self.rid).expect("fat pointer to a closed region");
        base + self.off as usize
    }
}

/// Fat pointer whose dereference consults the `lastID`/`lastAddr` cache
/// before falling back to the hashtable ("fat pointer with cache").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
pub struct FatPtrCached(FatPtr);

impl FatPtrCached {
    /// The region ID field.
    pub fn rid(&self) -> u32 {
        self.0.rid
    }

    /// The offset field.
    pub fn offset(&self) -> u64 {
        self.0.off
    }
}

// SAFETY: same encoding as FatPtr; the cache is transparently coherent
// because every fat-table mutation (region close *and* rebind) bumps the
// registry's table generation, which any cached entry must match to be
// served — see `registry::fat_lookup_cached`.
unsafe impl PtrRepr for FatPtrCached {
    const NAME: &'static str = "fat+cache";

    #[inline]
    fn is_null(&self) -> bool {
        self.0.rid == 0
    }

    #[inline]
    fn store(&mut self, target: usize) {
        self.0 = FatPtr::encode(target);
    }

    #[inline]
    fn load(&self) -> usize {
        if self.0.rid == 0 {
            return 0;
        }
        let base = registry::fat_lookup_cached(self.0.rid).expect("fat pointer to a closed region");
        base + self.0.off as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::Region;

    #[test]
    fn fat_pointer_is_twice_a_word() {
        assert_eq!(FatPtr::SIZE_BYTES, 16);
        assert_eq!(FatPtrCached::SIZE_BYTES, 16);
    }

    #[test]
    fn roundtrip_and_fields() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 8).unwrap().as_ptr() as usize;
        let mut f = FatPtr::default();
        assert!(f.is_null());
        f.store(p);
        assert_eq!(f.load(), p);
        assert_eq!(f.rid(), r.rid());
        assert_eq!(f.offset(), (p - r.base()) as u64);
        f.store(0);
        assert!(f.is_null());
        assert_eq!(f.load(), 0);
        r.close().unwrap();
    }

    #[test]
    fn cached_variant_matches_uncached() {
        let r1 = Region::create(1 << 20).unwrap();
        let r2 = Region::create(1 << 20).unwrap();
        let a = r1.alloc(64, 8).unwrap().as_ptr() as usize;
        let b = r2.alloc(64, 8).unwrap().as_ptr() as usize;
        let mut fa = FatPtrCached::default();
        let mut fb = FatPtrCached::default();
        fa.store(a);
        fb.store(b);
        // Alternate regions to exercise cache misses and refills.
        for _ in 0..8 {
            assert_eq!(fa.load(), a);
            assert_eq!(fb.load(), b);
        }
        r1.close().unwrap();
        r2.close().unwrap();
    }

    #[test]
    fn from_parts_matches_store() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 8).unwrap().as_ptr() as usize;
        let mut f = FatPtr::default();
        f.store(p);
        assert_eq!(f, FatPtr::from_parts(r.rid(), (p - r.base()) as u64));
        r.close().unwrap();
    }

    #[test]
    fn rebind_invalidates_cache_through_load() {
        // Regression: rebinding a live rid (remap-at-different-address
        // reopen) used to leave the lastID/lastAddr cache serving the old
        // base through FatPtrCached::load.
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 8).unwrap().as_ptr() as usize;
        let mut f = FatPtrCached::default();
        f.store(p);
        assert_eq!(f.load(), p, "warm the cache with the current base");
        // Simulate a remap by rebinding the live rid 1 MiB away, then
        // restore it before closing.
        let shifted = r.base() + (1 << 20);
        registry::rebind_for_tests(r.rid(), shifted);
        assert_eq!(
            f.load(),
            shifted + (p - r.base()),
            "load must resolve against the rebound base, not a cached one"
        );
        registry::rebind_for_tests(r.rid(), r.base());
        assert_eq!(f.load(), p);
        r.close().unwrap();
    }

    #[test]
    fn value_survives_region_remap() {
        let dir = std::env::temp_dir().join(format!("pi-fat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fat.nvr");
        let parts;
        {
            let r = Region::create_file(&path, 1 << 20).unwrap();
            let t = r.alloc(64, 8).unwrap().as_ptr() as usize;
            unsafe { (t as *mut u64).write(99) };
            r.set_root("t", t).unwrap();
            let mut f = FatPtr::default();
            f.store(t);
            parts = (f.rid(), f.offset());
            r.close().unwrap();
        }
        let r = Region::open_file(&path).unwrap();
        let f = FatPtr::from_parts(parts.0, parts.1);
        assert_eq!(f.load(), r.root("t").unwrap());
        assert_eq!(unsafe { *(f.load() as *const u64) }, 99);
        r.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
