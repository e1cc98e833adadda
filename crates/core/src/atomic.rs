//! Atomic persistent pointers.
//!
//! Single-word representations ([`crate::Riv`], [`crate::OffHolder`],
//! [`crate::BasedPtr`], [`crate::NormalPtr`]) fit in an `AtomicU64`, so
//! concurrent data structures can update them with compare-and-swap — one
//! more practical advantage of *implicit self-contained* representations
//! over the 16-byte fat pointer, which cannot be updated atomically on
//! common hardware (the paper's space argument, §4.1, has this corollary).
//!
//! [`AtomicPPtr`] is the atomic slot; it works for any [`PtrRepr`] whose
//! size is 8 bytes, enforced at construction.

use crate::repr::PtrRepr;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// An atomically-updatable typed persistent pointer slot.
///
/// Like [`crate::PPtr`], the slot must live at a fixed location in
/// persistent memory (self-relative representations encode against its
/// address). Unlike `PPtr`, loads and stores are atomic and
/// [`AtomicPPtr::compare_exchange`] supports lock-free link updates.
#[repr(transparent)]
#[derive(Debug)]
pub struct AtomicPPtr<T, R: PtrRepr> {
    bits: AtomicU64,
    _marker: PhantomData<(*mut T, R)>,
}

impl<T, R: PtrRepr> AtomicPPtr<T, R> {
    const SIZE_OK: () = assert!(
        std::mem::size_of::<R>() == 8,
        "AtomicPPtr requires a single-word representation"
    );

    /// A null slot (for initializing in place).
    pub fn null() -> AtomicPPtr<T, R> {
        #[allow(clippy::let_unit_value)]
        let _ = Self::SIZE_OK;
        AtomicPPtr {
            bits: AtomicU64::new(Self::to_bits(R::null())),
            _marker: PhantomData,
        }
    }

    /// The slot whose word is `word`: how an atomic view of persistent
    /// memory (`nvmsim::NvRef::atomic`) becomes a pointer slot. `R` must
    /// be a single-word representation.
    pub fn from_word(word: &AtomicU64) -> &AtomicPPtr<T, R> {
        // SAFETY: `AtomicPPtr` is a `repr(transparent)` `AtomicU64`.
        unsafe { &*(word as *const AtomicU64).cast::<AtomicPPtr<T, R>>() }
    }

    fn to_bits(r: R) -> u64 {
        // SAFETY: R is exactly 8 bytes (checked by SIZE_OK) and plain data.
        unsafe { std::mem::transmute_copy::<R, u64>(&r) }
    }

    fn from_bits(bits: u64) -> R {
        // SAFETY: inverse of to_bits for an 8-byte plain-data R.
        unsafe { std::mem::transmute_copy::<u64, R>(&bits) }
    }

    /// Encodes `target` against this slot's address (without storing) —
    /// the value to feed to [`AtomicPPtr::compare_exchange`].
    pub fn encode(&self, target: *mut T) -> u64 {
        let mut r = R::null();
        // Encode as if the representation lived at this slot's address:
        // for self-relative reprs the encoding depends on the slot address,
        // so build it in place on a copy at the same address via store.
        // R::store uses &mut self's address, so temporarily construct at
        // a stack location and adjust: only off-holder is address-
        // dependent; handle it through its explicit encoder.
        let slot_addr = self as *const _ as usize;
        if let Some(off) =
            crate::off_holder::OffHolder::try_reencode::<R>(slot_addr, target as usize)
        {
            return off;
        }
        r.store(target as usize);
        Self::to_bits(r)
    }

    /// Atomically loads the target pointer.
    #[inline]
    pub fn load(&self, order: Ordering) -> *mut T {
        let r = Self::from_bits(self.bits.load(order));
        // Self-relative decode must use this slot's address.
        crate::off_holder::OffHolder::try_redecode::<R>(self as *const _ as usize, &r)
            .unwrap_or_else(|| r.load()) as *mut T
    }

    /// Atomically stores `target`.
    #[inline]
    pub fn store(&self, target: *mut T, order: Ordering) {
        let bits = self.encode(target);
        self.bits.store(bits, order);
    }

    /// Atomically swaps in `target`, returning the previous target.
    pub fn swap(&self, target: *mut T, order: Ordering) -> *mut T {
        let new = self.encode(target);
        let old = Self::from_bits(self.bits.swap(new, order));
        crate::off_holder::OffHolder::try_redecode::<R>(self as *const _ as usize, &old)
            .unwrap_or_else(|| old.load()) as *mut T
    }

    /// Compare-and-swap by *target pointer*: succeeds iff the slot still
    /// points at `current`, storing `new`. Returns the witnessed target.
    ///
    /// # Errors
    ///
    /// On failure returns the actual target as `Err`.
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        let cur_bits = self.encode(current);
        let new_bits = self.encode(new);
        match self
            .bits
            .compare_exchange(cur_bits, new_bits, success, failure)
        {
            Ok(_) => Ok(current),
            Err(actual) => {
                let r = Self::from_bits(actual);
                let p =
                    crate::off_holder::OffHolder::try_redecode::<R>(self as *const _ as usize, &r)
                        .unwrap_or_else(|| r.load()) as *mut T;
                Err(p)
            }
        }
    }

    /// Whether the slot is currently null.
    pub fn is_null(&self, order: Ordering) -> bool {
        Self::from_bits(self.bits.load(order)).is_null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::NormalPtr;
    use crate::riv::Riv;
    use crate::OffHolder;
    use nvmsim::Region;
    use std::sync::atomic::Ordering::SeqCst;

    fn region_slot<R: PtrRepr>(r: &nvmsim::Region) -> *mut AtomicPPtr<u64, R> {
        let p = r.alloc(8, 8).unwrap().as_ptr() as *mut AtomicPPtr<u64, R>;
        unsafe { p.write(AtomicPPtr::null()) };
        p
    }

    fn basic<R: PtrRepr>() {
        let region = Region::create(1 << 20).unwrap();
        let slot = region_slot::<R>(&region);
        let a = region.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        let b = region.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        unsafe {
            assert!((*slot).is_null(SeqCst));
            (*slot).store(a, SeqCst);
            assert_eq!((*slot).load(SeqCst), a);
            assert_eq!((*slot).swap(b, SeqCst), a);
            assert_eq!((*slot).load(SeqCst), b);
            // CAS succeeds from the right witness...
            assert_eq!((*slot).compare_exchange(b, a, SeqCst, SeqCst), Ok(b));
            assert_eq!((*slot).load(SeqCst), a);
            // ...and fails (reporting the actual) from the wrong one.
            assert_eq!((*slot).compare_exchange(b, a, SeqCst, SeqCst), Err(a));
        }
        region.close().unwrap();
    }

    #[test]
    fn atomic_ops_for_each_word_repr() {
        basic::<NormalPtr>();
        basic::<Riv>();
        basic::<OffHolder>();
    }

    #[test]
    fn concurrent_cas_pushes_build_a_complete_stack() {
        // A Treiber-stack push contest over a RIV head pointer.
        use std::sync::Arc;
        let region = Region::create(4 << 20).unwrap();
        #[repr(C)]
        struct Node {
            next: u64, // raw riv bits, managed via AtomicPPtr on the head
            value: u64,
        }
        let head = region_slot::<Riv>(&region);
        let head_addr = head as usize;
        let region = Arc::new(region);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let region = region.clone();
                std::thread::spawn(move || {
                    let head = head_addr as *mut AtomicPPtr<Node, Riv>;
                    for i in 0..250u64 {
                        let node = region
                            .alloc(std::mem::size_of::<Node>(), 8)
                            .unwrap()
                            .as_ptr() as *mut Node;
                        // SAFETY: fresh node; head slot lives in the region.
                        unsafe {
                            (*node).value = t * 1000 + i;
                            loop {
                                let cur = (*head).load(SeqCst);
                                (*node).next = Riv::p2x(cur as usize).raw();
                                if (*head).compare_exchange(cur, node, SeqCst, SeqCst).is_ok() {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Walk the stack: all 1000 pushes present.
        let mut count = 0;
        let mut seen = std::collections::HashSet::new();
        unsafe {
            let head = head_addr as *mut AtomicPPtr<Node, Riv>;
            let mut cur = (*head).load(SeqCst);
            while !cur.is_null() {
                count += 1;
                seen.insert((*cur).value);
                let next_bits = (*cur).next;
                cur = riv_from_raw(next_bits).x2p() as *mut Node;
            }
        }
        assert_eq!(count, 1000);
        assert_eq!(seen.len(), 1000);
        Arc::try_unwrap(region).unwrap().close().unwrap();
    }

    fn riv_from_raw(raw: u64) -> Riv {
        // SAFETY: Riv is repr(transparent) over u64.
        unsafe { std::mem::transmute::<u64, Riv>(raw) }
    }
}
