//! Operational semantics of `persistentI` / `persistentX` (paper Figure 8).
//!
//! The paper extends C/C++ with two type modifiers and defines how every
//! mixed assignment and operation on them evaluates. This module is the
//! Rust materialization: one function per evaluation rule, with the
//! dynamic type-safety checks the paper says a compiler can insert at the
//! risky conversions (e.g. `i = x` must verify the target shares the
//! holder's NVRegion).
//!
//! | Figure 8 rule | Here |
//! |---------------|------|
//! | `p = i` (`$$ = S1.val + S1.addr`) | [`i_to_p`] |
//! | `p = x` (`$$ = x2p(S1.val)`)      | [`x_to_p`] |
//! | `i = x` (convert + same-region check) | [`assign_i_from_x`] |
//! | `x = i`                           | [`assign_x_from_i`] |
//! | `i = p` (same-region check)       | [`assign_i_from_p`] |
//! | `x = p`                           | [`assign_x_from_p`] |
//! | `i op v`, `x op v` (pointer arithmetic) | [`offset_i`], [`offset_x`] |
//! | `&i`, `&x`                        | [`addr_of`] |
//! | `*i`, `*x`                        | [`PPtr::as_ref`](crate::PPtr::as_ref) |

use crate::ptr::{PPtr, PersistentI, PersistentX};
use crate::repr::PtrRepr;
use nvmsim::NvSpace;
use std::fmt;

/// Violations detected by the dynamic type-safety checks of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeError {
    /// An intra-region (`persistentI`) slot was assigned a target in a
    /// different NVRegion.
    CrossRegion {
        /// Region ID of the slot (holder).
        holder_rid: u32,
        /// Region ID of the target.
        target_rid: u32,
    },
    /// A persistent pointer was assigned an address outside any open
    /// NVRegion (e.g. a volatile-heap address).
    NotPersistent {
        /// The offending address.
        addr: usize,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::CrossRegion { holder_rid, target_rid } => write!(
                f,
                "persistentI requires holder and target in one region (holder in {holder_rid}, target in {target_rid})"
            ),
            TypeError::NotPersistent { addr } => {
                write!(f, "address {addr:#x} is not in any open NVRegion")
            }
        }
    }
}

impl std::error::Error for TypeError {}

fn rid_of(addr: usize) -> Result<u32, TypeError> {
    NvSpace::global()
        .try_rid_of_addr(addr)
        .ok_or(TypeError::NotPersistent { addr })
}

/// `p = i`: evaluates a `persistentI` to a normal pointer
/// (`$$ .val = S1.val + S1.addr`).
#[inline]
pub fn i_to_p<T>(i: &PersistentI<T>) -> *mut T {
    i.get()
}

/// `p = x`: evaluates a `persistentX` to a normal pointer
/// (`$$ .val = x2p(S1.val)`).
#[inline]
pub fn x_to_p<T>(x: &PersistentX<T>) -> *mut T {
    x.get()
}

/// `i = p`: stores a normal pointer into a `persistentI` slot
/// (`$$ .val = S1.val - $$ .addr`), with the dynamic check that the target
/// shares the holder's NVRegion.
///
/// # Errors
///
/// [`TypeError::NotPersistent`] if either address is outside every open
/// region; [`TypeError::CrossRegion`] if they are in different regions.
pub fn assign_i_from_p<T>(i: &mut PersistentI<T>, p: *mut T) -> Result<(), TypeError> {
    if p.is_null() {
        i.init();
        return Ok(());
    }
    let holder_rid = rid_of(i as *const _ as usize)?;
    let target_rid = rid_of(p as usize)?;
    if holder_rid != target_rid {
        return Err(TypeError::CrossRegion {
            holder_rid,
            target_rid,
        });
    }
    i.set(p);
    Ok(())
}

/// `x = p`: stores a normal pointer into a `persistentX` slot
/// (`$$ .val = p2x(S1.val)`).
///
/// # Errors
///
/// [`TypeError::NotPersistent`] if `p` is outside every open region.
pub fn assign_x_from_p<T>(x: &mut PersistentX<T>, p: *mut T) -> Result<(), TypeError> {
    if p.is_null() {
        x.init();
        return Ok(());
    }
    rid_of(p as usize)?;
    x.set(p);
    Ok(())
}

/// `i = x`: converts a `persistentX` value into a `persistentI` slot
/// (`tmp = x2p(S1.val); $$ .val = tmp.val - $$ .addr`), with the dynamic
/// same-region check the paper highlights for this risky conversion.
///
/// # Errors
///
/// As [`assign_i_from_p`].
pub fn assign_i_from_x<T>(i: &mut PersistentI<T>, x: &PersistentX<T>) -> Result<(), TypeError> {
    assign_i_from_p(i, x.get())
}

/// `x = i`: converts a `persistentI` value into a `persistentX` slot
/// (`tmp = S1.val + S1.addr; $$ .val = p2x(tmp.val)`).
///
/// # Errors
///
/// [`TypeError::NotPersistent`] if the intra-region pointer does not
/// resolve into an open region (e.g. it was never stored in one).
pub fn assign_x_from_i<T>(x: &mut PersistentX<T>, i: &PersistentI<T>) -> Result<(), TypeError> {
    assign_x_from_p(x, i.get())
}

/// `i op v`: pointer arithmetic on a `persistentI` — moves the target by
/// `count` elements of `T`, like `p + count` on a raw pointer. The result
/// type stays `persistentI` (Figure 8: `$$ .type = S1.type`).
///
/// Null slots are left unchanged.
pub fn offset_i<T>(i: &mut PersistentI<T>, count: isize) {
    let p = i.get();
    if p.is_null() {
        return;
    }
    i.set(p.wrapping_offset(count));
}

/// `x op v`: pointer arithmetic on a `persistentX`
/// (`$$ .val = p2x(x2p(x) op v.val)`). Null slots are left unchanged.
pub fn offset_x<T>(x: &mut PersistentX<T>, count: isize) {
    if x.is_null() {
        return;
    }
    let delta = count.wrapping_mul(std::mem::size_of::<T>() as isize);
    let moved = x.repr().wrapping_offset(delta);
    *x.repr_mut() = moved;
}

/// `&i` / `&x`: the address of the pointer slot itself.
#[inline]
pub fn addr_of<T, R: PtrRepr>(slot: &PPtr<T, R>) -> usize {
    slot as *const _ as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::Region;

    fn slot_i<T>(r: &Region) -> *mut PersistentI<T> {
        let p = r.alloc(16, 8).unwrap().as_ptr() as *mut PersistentI<T>;
        unsafe { (*p).init() };
        p
    }

    fn slot_x<T>(r: &Region) -> *mut PersistentX<T> {
        let p = r.alloc(16, 8).unwrap().as_ptr() as *mut PersistentX<T>;
        unsafe { (*p).init() };
        p
    }

    #[test]
    fn p_eq_i_and_back() {
        let r = Region::create(1 << 20).unwrap();
        let i = slot_i::<u64>(&r);
        let v = r.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        unsafe {
            v.write(10);
            assign_i_from_p(&mut *i, v).unwrap();
            let p = i_to_p(&*i);
            assert_eq!(p, v);
            assert_eq!(*p, 10);
        }
        r.close().unwrap();
    }

    #[test]
    fn i_rejects_cross_region_targets() {
        let r1 = Region::create(1 << 20).unwrap();
        let r2 = Region::create(1 << 20).unwrap();
        let i = slot_i::<u64>(&r1);
        let foreign = r2.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        let err = unsafe { assign_i_from_p(&mut *i, foreign) }.unwrap_err();
        assert_eq!(
            err,
            TypeError::CrossRegion {
                holder_rid: r1.rid(),
                target_rid: r2.rid()
            }
        );
        assert!(!err.to_string().is_empty());
        r1.close().unwrap();
        r2.close().unwrap();
    }

    #[test]
    fn i_rejects_volatile_targets() {
        let r = Region::create(1 << 20).unwrap();
        let i = slot_i::<u64>(&r);
        let mut local = 5u64;
        let err = unsafe { assign_i_from_p(&mut *i, &mut local) }.unwrap_err();
        assert!(matches!(err, TypeError::NotPersistent { .. }));
        r.close().unwrap();
    }

    #[test]
    fn x_accepts_cross_region_targets() {
        let r1 = Region::create(1 << 20).unwrap();
        let r2 = Region::create(1 << 20).unwrap();
        let x = slot_x::<u64>(&r1);
        let foreign = r2.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        unsafe {
            foreign.write(77);
            assign_x_from_p(&mut *x, foreign).unwrap();
            assert_eq!(*x_to_p(&*x), 77);
        }
        r1.close().unwrap();
        r2.close().unwrap();
    }

    #[test]
    fn i_eq_x_checks_and_converts() {
        let r1 = Region::create(1 << 20).unwrap();
        let r2 = Region::create(1 << 20).unwrap();
        let i = slot_i::<u64>(&r1);
        let x = slot_x::<u64>(&r1);
        let same = r1.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        let other = r2.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        unsafe {
            // x -> i succeeds when the target shares the holder's region...
            assign_x_from_p(&mut *x, same).unwrap();
            assign_i_from_x(&mut *i, &*x).unwrap();
            assert_eq!(i_to_p(&*i), same);
            // ...and fails when it does not.
            assign_x_from_p(&mut *x, other).unwrap();
            assert!(assign_i_from_x(&mut *i, &*x).is_err());
            // i -> x always succeeds for resolvable targets.
            assign_i_from_p(&mut *i, same).unwrap();
            assign_x_from_i(&mut *x, &*i).unwrap();
            assert_eq!(x_to_p(&*x), same);
        }
        r1.close().unwrap();
        r2.close().unwrap();
    }

    #[test]
    fn null_assignments_are_always_legal() {
        let r = Region::create(1 << 20).unwrap();
        let i = slot_i::<u64>(&r);
        let x = slot_x::<u64>(&r);
        unsafe {
            assign_i_from_p(&mut *i, std::ptr::null_mut()).unwrap();
            assert!((*i).is_null());
            assign_x_from_p(&mut *x, std::ptr::null_mut()).unwrap();
            assert!((*x).is_null());
            assign_i_from_x(&mut *i, &*x).unwrap();
            assign_x_from_i(&mut *x, &*i).unwrap();
            assert!((*i).is_null() && (*x).is_null());
        }
        r.close().unwrap();
    }

    #[test]
    fn pointer_arithmetic_rules() {
        let r = Region::create(1 << 20).unwrap();
        let i = slot_i::<u64>(&r);
        let x = slot_x::<u64>(&r);
        let arr = r.alloc(8 * 8, 8).unwrap().as_ptr() as *mut u64;
        unsafe {
            for k in 0..8 {
                arr.add(k).write(k as u64 * 100);
            }
            assign_i_from_p(&mut *i, arr).unwrap();
            offset_i(&mut *i, 3);
            assert_eq!(*i_to_p(&*i), 300);
            offset_i(&mut *i, -2);
            assert_eq!(*i_to_p(&*i), 100);

            assign_x_from_p(&mut *x, arr).unwrap();
            offset_x(&mut *x, 5);
            assert_eq!(*x_to_p(&*x), 500);
            offset_x(&mut *x, -5);
            assert_eq!(*x_to_p(&*x), 0);

            // Null is sticky under arithmetic.
            (*i).init();
            offset_i(&mut *i, 4);
            assert!((*i).is_null());
            (*x).init();
            offset_x(&mut *x, 4);
            assert!((*x).is_null());
        }
        r.close().unwrap();
    }

    #[test]
    fn figure_11_function_passing_needs_no_bases() {
        // The paper's Figure 11 shows three failed/awkward attempts to
        // pass a *based* pointer to a function (the base must travel as an
        // extra argument). Implicit self-contained pointers need none of
        // that: evaluate to a normal pointer at the call boundary (p = i /
        // p = x), pass it like any pointer, convert back at a store.
        fn callee(p: *mut u64) -> u64 {
            // An ordinary function: no base parameters in sight.
            unsafe { *p + 1 }
        }

        let r = Region::create(1 << 20).unwrap();
        let i = slot_i::<u64>(&r);
        let x = slot_x::<u64>(&r);
        let v = r.alloc(8, 8).unwrap().as_ptr() as *mut u64;
        unsafe {
            v.write(41);
            assign_i_from_p(&mut *i, v).unwrap();
            assign_x_from_p(&mut *x, v).unwrap();
            // Both persistent pointers cross the function boundary as
            // plain pointers, self-contained.
            assert_eq!(callee(i_to_p(&*i)), 42);
            assert_eq!(callee(x_to_p(&*x)), 42);
            // And a callee can hand a pointer back to be stored
            // persistently, again without any base plumbing.
            fn producer(r: &Region) -> *mut u64 {
                let p = r.alloc(8, 8).unwrap().as_ptr() as *mut u64;
                unsafe { p.write(7) };
                p
            }
            assign_x_from_p(&mut *x, producer(&r)).unwrap();
            assert_eq!(*x_to_p(&*x), 7);
        }
        r.close().unwrap();
    }

    #[test]
    fn addr_of_returns_slot_address() {
        let r = Region::create(1 << 20).unwrap();
        let i = slot_i::<u64>(&r);
        assert_eq!(addr_of(unsafe { &*i }), i as usize);
        r.close().unwrap();
    }
}
