//! The one read path (crate docs): the link readers and the two walks.

use nvmsim::nvref::committed_range;
use pi_core::PtrRepr;
use std::fmt::Debug;
use std::mem::{align_of, size_of};
use std::ops::Range;

/// A walk's outcome: `Err` names where it stopped.
pub(crate) type Walked = Result<(), String>;

/// How a walk reads a link.
pub(crate) trait Follow<R> {
    /// The `N` the link in `slot` points at (null: none), or why the walk
    /// may not follow it.
    ///
    /// # Safety
    ///
    /// `slot` is a link of a structure whose regions are open, and no
    /// other thread writes the structure meanwhile.
    unsafe fn follow<N>(&mut self, slot: *mut R) -> Result<*mut N, String>;
}

/// The checked resolve of the whole-structure reads: a link must decode
/// ([`PtrRepr::try_load`]) and point at a whole node inside an open
/// region, below its committed end. It keeps the committed bytes of the
/// last region a link led into, so a link that stays inside them costs
/// two compares; one that leaves them looks its region up.
#[derive(Default)]
pub(crate) struct Checked {
    last: Range<usize>,
}

impl Checked {
    /// Whether the `len` bytes at `addr` are `align`ed and lie in an open
    /// region's committed bytes.
    pub(crate) fn fits(&mut self, addr: usize, len: usize, align: usize) -> bool {
        let Some(end) = addr.checked_add(len) else {
            return false;
        };
        if !(self.last.start <= addr && end <= self.last.end) {
            match committed_range(addr) {
                Some(committed) => self.last = committed,
                None => return false,
            }
        }
        end <= self.last.end && addr.is_multiple_of(align)
    }
}

impl<R: PtrRepr> Follow<R> for Checked {
    unsafe fn follow<N>(&mut self, slot: *mut R) -> Result<*mut N, String> {
        let addr = (*slot)
            .try_load()
            .ok_or_else(|| format!("the link at {slot:p} names a region that is not open"))?;
        if addr == 0 || self.fits(addr, size_of::<N>(), align_of::<N>()) {
            return Ok(addr as *mut N);
        }
        Err(format!(
            "the link at {slot:p} points to {addr:#x}, outside every open region's committed bytes"
        ))
    }
}

/// A plain slot reader: [`load`], or a swizzle pass's
/// `SwizzledPtr::swizzle_in_place` or its inverse (no check).
impl<R, F: FnMut(&mut R) -> usize> Follow<R> for F {
    #[inline(always)]
    unsafe fn follow<N>(&mut self, slot: *mut R) -> Result<*mut N, String> {
        Ok(self(&mut *slot) as *mut N)
    }
}

/// The plain load of `traverse` and the lookups.
pub(crate) fn load<R: PtrRepr>(slot: &mut R) -> usize {
    slot.load()
}

/// Visits each node of the chain `slot` heads, in chain order. A chain
/// node is `repr(C)` and starts with its `next`.
///
/// # Safety
///
/// As [`Follow::follow`], for `slot` and every link `follow` passes.
#[inline(always)]
pub(crate) unsafe fn chain<'a, R, N: 'a>(
    follow: &mut impl Follow<R>,
    slot: *mut R,
    mut visit: impl FnMut(&'a N) -> Walked,
) -> Walked {
    let mut n: *mut N = follow.follow(slot)?;
    while !n.is_null() {
        visit(&*n)?;
        n = follow.follow(n.cast())?;
    }
    Ok(())
}

/// Visits each node of the tree `root` links to depth first, a node
/// before its children and its first link's subtree first. `visit` gets
/// each node with the context its parent handed down (`c0` for the root)
/// and pushes its child links, each with its child's context; the walk
/// follows them as soon as `visit` returns, while the node is still hot.
///
/// # Safety
///
/// As [`Follow::follow`], for `root` and every link `visit` pushes.
pub(crate) unsafe fn tree<R, N, C>(
    mut follow: impl Follow<R>,
    root: *mut R,
    c0: C,
    mut visit: impl FnMut(*mut N, C, &mut Vec<(*mut R, C)>) -> Walked,
) -> Walked {
    let (mut links, mut nodes) = (vec![(root, c0)], Vec::new());
    loop {
        while let Some((slot, c)) = links.pop() {
            let n: *mut N = follow.follow(slot)?;
            if !n.is_null() {
                nodes.push((n, c));
            }
        }
        let Some((n, c)) = nodes.pop() else {
            return Ok(());
        };
        visit(n, c, &mut links)?;
    }
}

/// The exclusive key bounds a search tree's walk hands down.
pub(crate) type Bounds<K> = (Option<K>, Option<K>);

/// A search tree's order, checked along its walk: `key` must lie strictly
/// between the bounds its ancestors set, so the in-order keys ascend
/// strictly (and no node is reached twice). Returns its children's
/// bounds, left first.
pub(crate) fn ordered<K: Copy + PartialOrd + Debug>(
    key: K,
    (lo, hi): Bounds<K>,
) -> Result<[Bounds<K>; 2], String> {
    let within = lo.is_none_or(|lo| key > lo) && hi.is_none_or(|hi| key < hi);
    let down = within.then_some([(lo, Some(key)), (Some(key), hi)]);
    down.ok_or_else(|| format!("key {key:?} outside ({lo:?}, {hi:?}): keys out of order"))
}

/// A walk's result for a read with no error to return: a refused link is
/// a panic naming it, where `check_invariants` returns it.
pub(crate) fn expect_sound<T>(walked: Result<T, String>) -> T {
    walked.unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use crate::{BstNode, HsNode, ListNode, TrieNode, WcNode};
    use pi_core::{FatPtr, OffHolder, PtrRepr};
    use std::mem::{offset_of, size_of};

    /// The chain walk finds `next` at a node's start, and trie
    /// `prefix_scan` a node's children; the tree nodes keep their links
    /// first too.
    fn links_come_first<R: PtrRepr>() {
        let r = size_of::<R>();
        assert_eq!(offset_of!(ListNode<R, 32>, next), 0);
        assert_eq!(offset_of!(HsNode<R, 32>, next), 0);
        assert_eq!(offset_of!(BstNode<R, 32>, left), 0);
        assert_eq!(offset_of!(BstNode<R, 32>, right), r);
        assert_eq!(offset_of!(WcNode<R>, left), 0);
        assert_eq!(offset_of!(WcNode<R>, right), r);
        assert_eq!(offset_of!(TrieNode<R, 32>, children), 0);
    }

    #[test]
    fn every_node_starts_with_its_links() {
        links_come_first::<OffHolder>();
        links_come_first::<FatPtr>();
    }
}
