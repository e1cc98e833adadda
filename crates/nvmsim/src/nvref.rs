//! The volatile-side `persistent` modifier (paper Section 4.4), and the one
//! door through which code reaches a region's raw memory.
//!
//! "There could be some extra modifiers for volatile pointers ... there is
//! a type modifier `persistent` for a volatile pointer to distinguish
//! volatile pointers that point to volatile memory locations and those
//! pointing to persistent memory locations. ... Because these pointers
//! themselves are not persistent ... they store absolute addresses,
//! needing no position independence support."
//!
//! [`NvRef`] is that modifier: an absolute pointer checked once, at
//! construction, to point into an open NVRegion. Like mmtk's `Address`, it
//! keeps the arithmetic of raw memory in one module, and like `Address`'s
//! `load` and `store` its dereferences are `unsafe`: a region can close,
//! and two threads can write one word, behind any pointer's back. Each
//! access `debug_assert!`s its alignment and that it ends below the
//! region's committed end; a release build compiles it to the plain load,
//! store or add. The checks read only DRAM (the space's tables and the
//! committed sizes [`crate::Region`] records here), never region memory,
//! so the arithmetic ([`NvRef::field`]) and [`NvRef::persist`] are safe.

use crate::latency;
use crate::nvspace::NvSpace;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::mem::{align_of, size_of};
use std::ops::Range;
use std::sync::atomic::AtomicU64;

/// Whether `addr` points into an open NVRegion: the runtime check the
/// paper needs where types do not mark persistent-pointing pointers.
pub fn is_persistent(addr: usize) -> bool {
    NvSpace::global().try_rid_of_addr(addr).is_some()
}

/// The committed size of each open region, by base: the DRAM twin of the
/// header's size word, which a check may not read while the region lock's
/// holder writes it.
static COMMITTED: RwLock<BTreeMap<usize, usize>> = RwLock::new(BTreeMap::new());

/// Records that the region at `base` has `size` bytes committed (`None`:
/// it is closing). Region open and `grow` call it once the bytes are
/// mapped; teardown before it unmaps them.
pub(crate) fn set_committed(base: usize, size: Option<usize>) {
    let mut committed = COMMITTED.write();
    match size {
        Some(size) => committed.insert(base, size),
        None => committed.remove(&base),
    };
}

/// The committed bytes of the open region holding `addr`, from its base.
/// Growth only raises the end, so a caller may keep the range for as long
/// as the region stays open and be no more than conservative.
pub fn committed_range(addr: usize) -> Option<Range<usize>> {
    let space = NvSpace::global();
    space.try_rid_of_addr(addr)?;
    let base = space.base_of_addr(addr);
    Some(base..base.checked_add(*COMMITTED.read().get(&base)?)?)
}

/// One past the last committed byte of the open region holding `addr`.
fn committed_end(addr: usize) -> Option<usize> {
    committed_range(addr).map(|r| r.end)
}

/// A volatile pointer statically marked as pointing into persistent
/// memory. It holds an absolute address for one session and is never
/// persisted (persist `pi_core::OffHolder` / `pi_core::Riv` values).
#[derive(Debug)]
pub struct NvRef<T> {
    ptr: *mut T,
    /// Debug builds: the end of a mapping no region publishes yet
    /// ([`NvRef::mapped`]), or 0 to look up the committed end.
    #[cfg(debug_assertions)]
    end: usize,
}

impl<T> Clone for NvRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for NvRef<T> {}

impl<T> NvRef<T> {
    /// Wraps `ptr` after verifying it points into an open NVRegion:
    /// `None` for null and for addresses outside every open region.
    pub fn new(ptr: *mut T) -> Option<NvRef<T>> {
        (!ptr.is_null() && is_persistent(ptr as usize)).then(|| NvRef::at(ptr, 0))
    }

    /// The target of a link loaded through the accessor (`None`: null). A
    /// persistent slot points into NV, so only debug builds check that.
    pub fn link(ptr: *mut T) -> Option<NvRef<T>> {
        debug_assert!(ptr.is_null() || is_persistent(ptr as usize), "{ptr:p}");
        (!ptr.is_null()).then(|| NvRef::at(ptr, 0))
    }

    /// The first of `len` mapped bytes no region publishes yet: the
    /// region's door to an image it creates, opens or salvages. Debug
    /// checks take the `len` bytes as committed.
    pub(crate) fn mapped(ptr: *mut T, len: usize) -> NvRef<T> {
        NvRef::at(ptr, ptr as usize + len)
    }

    fn at(ptr: *mut T, _end: usize) -> NvRef<T> {
        #[cfg(debug_assertions)]
        return NvRef { ptr, end: _end };
        #[cfg(not(debug_assertions))]
        NvRef { ptr }
    }

    /// Whether `len` bytes from here are `align`ed and end by `end`.
    fn within(&self, len: usize, align: usize, end: Option<usize>) -> bool {
        let past = self.addr().checked_add(len);
        past.is_some_and(|e| Some(e) <= end) && self.addr().is_multiple_of(align)
    }

    /// Debug builds: `len` bytes from here are aligned and committed.
    #[inline(always)]
    fn check(&self, len: usize, align: usize) {
        #[cfg(debug_assertions)]
        {
            let end = Some(self.end).filter(|&e| e != 0);
            let end = end.or_else(|| committed_end(self.addr()));
            let msg = "NvRef: bytes past the committed end (none: closed), or misaligned";
            assert!(
                self.within(len, align, end),
                "{msg}: {:p}+{len}, {end:x?}",
                self.ptr
            );
        }
        let _ = (len, align);
    }

    /// The raw pointer.
    pub fn as_ptr(&self) -> *mut T {
        self.ptr
    }

    /// The absolute address.
    pub fn addr(&self) -> usize {
        self.ptr as usize
    }

    /// The ID of the region the target lives in (0 once it closed).
    pub fn rid(&self) -> u32 {
        NvSpace::global().try_rid_of_addr(self.addr()).unwrap_or(0)
    }

    /// The `U` at byte `off` from here: a field of `T`, or past it. Only
    /// arithmetic, so safe; the dereferences below are not.
    pub fn field<U>(self, off: usize) -> NvRef<U> {
        #[cfg(debug_assertions)]
        let field = NvRef::at(self.ptr.wrapping_byte_add(off).cast(), self.end);
        #[cfg(not(debug_assertions))]
        let field = NvRef::at(self.ptr.wrapping_byte_add(off).cast(), 0);
        field.check(size_of::<U>(), align_of::<U>());
        field
    }

    /// Whether `n` values of `T` from here are aligned and end at or below
    /// the committed end of the open region holding them: the check of
    /// [`NvRef::slice`], made in every build, for extents an image told.
    pub fn fits(self, n: usize) -> bool {
        let end = committed_end(self.addr());
        n.checked_mul(size_of::<T>())
            .is_some_and(|len| self.within(len, align_of::<T>(), end))
    }

    /// Copies the target out.
    ///
    /// # Safety
    ///
    /// A valid `T` lives at the target, its region stays open, and no
    /// other thread writes it meanwhile.
    pub unsafe fn read(self) -> T
    where
        T: Copy,
    {
        self.check(size_of::<T>(), align_of::<T>());
        self.ptr.read()
    }

    /// Stores `value` over the target (the old value is not dropped).
    ///
    /// # Safety
    ///
    /// The target lies in an open region, and no other thread reads or
    /// writes it meanwhile.
    pub unsafe fn write(self, value: T) {
        self.check(size_of::<T>(), align_of::<T>());
        self.ptr.write(value)
    }

    /// The `n` values of `T` from here on.
    ///
    /// # Safety
    ///
    /// `n` valid values of `T` live here, their region stays open while
    /// the slice lasts, and nothing else touches them meanwhile.
    pub unsafe fn slice<'a>(self, n: usize) -> &'a mut [T] {
        self.check(n * size_of::<T>(), align_of::<T>());
        std::slice::from_raw_parts_mut(self.ptr, n)
    }

    /// The target, an 8-byte word, as an atomic shared between threads.
    ///
    /// # Safety
    ///
    /// The target's region stays open while the view lasts, and every
    /// concurrent access to the word is atomic.
    pub unsafe fn atomic<'a>(self) -> &'a AtomicU64 {
        assert_eq!(size_of::<T>(), 8, "an atomic view needs an 8-byte target");
        self.check(8, align_of::<AtomicU64>());
        AtomicU64::from_ptr(self.ptr.cast())
    }

    /// Writes back the `len` bytes from here ([`latency::persist`]).
    #[inline]
    pub fn persist(self, len: usize) {
        self.check(len, 1);
        latency::persist(self.addr(), len);
    }

    /// Borrows the target.
    ///
    /// # Safety
    ///
    /// The target is a live `T`, its region open, and nothing writes it
    /// while the borrow lasts.
    pub unsafe fn as_ref<'a>(self) -> &'a T {
        self.check(size_of::<T>(), align_of::<T>());
        &*self.ptr
    }

    /// Mutably borrows the target.
    ///
    /// # Safety
    ///
    /// As [`NvRef::as_ref`], and nothing else reads it either.
    pub unsafe fn as_mut<'a>(self) -> &'a mut T {
        self.check(size_of::<T>(), align_of::<T>());
        &mut *self.ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionHeader;
    use crate::Region;
    use std::sync::atomic::Ordering;

    #[test]
    fn accepts_region_addresses_and_rejects_others() {
        let region = Region::create(1 << 20).unwrap();
        let p = region.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        let r = NvRef::new(p).expect("region address accepted");
        assert_eq!(r.as_ptr(), p);
        assert_eq!(r.rid(), region.rid());
        assert!(is_persistent(p as usize));

        let mut local = 7u64;
        assert!(
            NvRef::new(&mut local as *mut u64).is_none(),
            "stack address rejected"
        );
        assert!(!is_persistent(&local as *const u64 as usize));
        assert!(
            NvRef::new(std::ptr::null_mut::<u64>()).is_none(),
            "null rejected"
        );

        let heap = Box::into_raw(Box::new(9u64));
        assert!(NvRef::new(heap).is_none(), "heap address rejected");
        // SAFETY: reclaiming the box allocated above.
        drop(unsafe { Box::from_raw(heap) });
        region.close().unwrap();
    }

    #[test]
    fn reads_writes_and_riv_conversion() {
        let region = Region::create(1 << 20).unwrap();
        let p = region.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        let r = NvRef::new(p).unwrap();
        unsafe {
            *r.as_mut() = 31337;
            assert_eq!(*r.as_ref(), 31337);
            assert_eq!(r.read(), 31337);
            r.write(7);
            assert_eq!(r.atomic().fetch_add(1, Ordering::Relaxed), 7);
            assert_eq!(r.read(), 8);
        }
        // The RIV conversion's two steps (`pi_core::Riv::from` packs
        // them): Addr2ID with the offset, then ID2Addr.
        let space = NvSpace::global();
        let (rid, off) = space.rid_off_of_addr(r.addr());
        assert_eq!(rid, region.rid());
        assert_eq!(space.base_of_rid(rid) + off as usize, p as usize);
        assert!(!format!("{r:?}").is_empty());
        region.close().unwrap();
    }

    #[test]
    fn closed_region_addresses_stop_being_persistent() {
        let region = Region::create(1 << 20).unwrap();
        let p = region.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        assert!(is_persistent(p as usize));
        region.close().unwrap();
        assert!(!is_persistent(p as usize));
        assert!(NvRef::new(p).is_none());
    }

    /// The header of a fresh region, and the offset of its last
    /// committed byte.
    fn region_and_last(size: usize) -> (Region, NvRef<u8>, usize) {
        let region = Region::create_with_capacity(size, 4 * size, None).unwrap();
        let base = NvRef::new(region.base() as *mut u8).unwrap();
        (region, base, size - 1)
    }

    #[test]
    fn accesses_past_the_committed_end_panic() {
        let (region, base, last) = region_and_last(1 << 20);
        unsafe {
            base.field::<u8>(last).write(1);
            assert_eq!(base.slice(last + 1).len(), last + 1);
        }
        let field = std::panic::catch_unwind(move || base.field::<u64>(last - 3));
        let slice = std::panic::catch_unwind(move || unsafe { base.slice(last + 2).len() });
        let fits = base.fits(last + 2);
        region.close().unwrap();
        if cfg!(debug_assertions) {
            assert!(field.is_err(), "a field past the committed end");
            assert!(slice.is_err(), "a slice past the committed end");
        }
        assert!(!fits, "checked in every build");
    }

    #[test]
    fn misaligned_read_panics() {
        let (region, base, _) = region_and_last(1 << 20);
        let word = base.field::<u8>(RegionHeader::data_start() as usize + 1);
        let bytes = std::panic::catch_unwind(move || unsafe { word.slice(8).len() });
        let misaligned = NvRef::new(word.as_ptr().cast::<u64>()).unwrap();
        let read = std::panic::catch_unwind(move || unsafe { misaligned.read() });
        region.close().unwrap();
        assert!(bytes.is_ok(), "bytes have no alignment");
        if cfg!(debug_assertions) {
            assert!(read.is_err(), "a u64 read at an odd address");
        }
    }

    #[test]
    fn slices_reach_bytes_a_grow_just_committed() {
        let (region, base, last) = region_and_last(1 << 20);
        region.grow(2 << 20).unwrap();
        unsafe {
            let grown = base.slice(2 << 20);
            grown[last + 1] = 5;
            assert_eq!(base.field::<u8>((2 << 20) - 1).read(), 0);
            assert!(base.fits(2 << 20));
            assert!(!base.fits((2 << 20) + 1));
        }
        region.close().unwrap();
    }
}
