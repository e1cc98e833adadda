//! The pointer-representation abstraction.
//!
//! Every pointer representation studied by the paper — the two proposed
//! *implicit self-contained* representations (off-holder, RIV) and the
//! baselines (fat, fat-with-cache, based, swizzled, normal) — implements
//! [`PtrRepr`]: an 8- or 16-byte value living *inside persistent memory*
//! that encodes the address of its target and can decode it back.
//!
//! The trait's contract captures the paper's definition of an implicit
//! self-contained representation:
//!
//! 1. [`PtrRepr::SIZE_BYTES`] documents the in-memory size (8 for every
//!    representation except the 16-byte fat pointer);
//! 2. `store`/`load` need nothing besides the value itself (and process
//!    globals such as the NV-space tables) — no explicit base arguments
//!    thread through user code;
//! 3. user code reads and writes targets exactly like a normal pointer,
//!    via the typed wrapper [`crate::PPtr`].
//!
//! `store` and `load` receive `&self`/`&mut self` whose *own address* is
//! meaningful: off-holder encodes the target relative to it. A `PtrRepr`
//! value must therefore be used **in place** — memcpying one to a different
//! address invalidates an off-holder (this is precisely the paper's `i = p`
//! vs `p = i` distinction; use [`crate::semantics`] for conversions).

/// A pointer representation stored in persistent memory.
///
/// # Safety
///
/// Implementations must uphold:
/// * `load` returns exactly the address most recently passed to `store` on
///   the same (not-moved) value, provided the regions involved are still
///   open (possibly remapped);
/// * `Default` produces a null value; `is_null(Default::default())` holds;
/// * the type is `repr(C)` or `repr(transparent)` with no padding that
///   would make byte images nondeterministic.
///
/// Callers rely on these guarantees to build linked data structures over
/// raw memory.
pub unsafe trait PtrRepr: Copy + Default + std::fmt::Debug + 'static {
    /// Human-readable representation name (used in benchmark reports).
    const NAME: &'static str;

    /// In-memory size of the representation in bytes.
    const SIZE_BYTES: usize = std::mem::size_of::<Self>();

    /// Whether the representation is position independent *at rest* —
    /// i.e. a region image containing it can be remapped at a different
    /// base and still resolve correctly (true for all but `NormalPtr`, and
    /// for `SwizzledPtr` only in its unswizzled state).
    const POSITION_INDEPENDENT: bool = true;

    /// Whether structures built with this representation must be swizzled
    /// after load and unswizzled before close.
    const NEEDS_SWIZZLE: bool = false;

    /// The null value.
    fn null() -> Self {
        Self::default()
    }

    /// Whether this value encodes null.
    fn is_null(&self) -> bool;

    /// Encodes `target` (an absolute address in some open region, or 0 for
    /// null) into `self`. `self` must reside at its final location in
    /// persistent memory.
    fn store(&mut self, target: usize);

    /// Decodes the absolute address of the target (0 for null).
    fn load(&self) -> usize;

    /// Decodes the target while the containing structure is in its
    /// *at-rest* state. Identical to [`PtrRepr::load`] for every
    /// representation except the swizzled one, whose `load` is only valid
    /// after the swizzle pass. Structure *mutation* paths (which run
    /// before any swizzle pass) navigate through this method.
    #[inline]
    fn load_at_rest(&self) -> usize {
        self.load()
    }

    /// [`PtrRepr::load`] for a value that may be rotted: `None` where
    /// `load` would panic (a fat pointer naming a region that is not
    /// open). The checked walks in `pds` decode through it.
    #[inline]
    fn try_load(&self) -> Option<usize> {
        Some(self.load())
    }
}

/// An ordinary absolute pointer — the paper's *normal (volatile) pointer*
/// baseline. Fastest possible, but **not** position independent: a region
/// image containing normal pointers only resolves if remapped at the very
/// same base address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct NormalPtr(usize);

// SAFETY: stores the absolute address verbatim; Default is 0 = null.
unsafe impl PtrRepr for NormalPtr {
    const NAME: &'static str = "normal";
    const POSITION_INDEPENDENT: bool = false;

    #[inline]
    fn is_null(&self) -> bool {
        self.0 == 0
    }

    #[inline]
    fn store(&mut self, target: usize) {
        self.0 = target;
    }

    #[inline]
    fn load(&self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_ptr_roundtrips() {
        let mut p = NormalPtr::default();
        assert!(p.is_null());
        p.store(0xdead_beef0);
        assert_eq!(p.load(), 0xdead_beef0);
        assert!(!p.is_null());
        p.store(0);
        assert!(p.is_null());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn normal_ptr_is_word_sized() {
        assert_eq!(NormalPtr::SIZE_BYTES, std::mem::size_of::<usize>());
        assert!(!NormalPtr::POSITION_INDEPENDENT);
        assert!(!NormalPtr::NEEDS_SWIZZLE);
    }

    #[test]
    fn null_constructor_matches_default() {
        assert_eq!(NormalPtr::null(), NormalPtr::default());
    }
}
