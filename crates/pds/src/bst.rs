//! Binary search tree, generic over the pointer representation.
//!
//! The paper's "binary tree" workload (Section 6.1): "a common tree with
//! two children per node". We implement it as an unbalanced binary search
//! tree populated with random keys (expected O(log n) depth), which is
//! also the shape `wordcount` uses in Section 6.3.

use crate::arena::NodeArena;
use crate::ctx::{link_fresh, unlink_free, Ctx, RawCtx, TxCtx};
use crate::error::{PdsError, Result};
use crate::list::fill_payload;
use pi_core::{PtrRepr, SwizzledPtr};
use pstore::ObjectStore;
use std::marker::PhantomData;

/// Root type tag recorded by `create_rooted` and validated by `attach`.
pub const BST_ROOT_TAG: u64 = u64::from_le_bytes(*b"PDSBST01");

/// Persistent tree header (lives in the home region).
#[repr(C)]
#[derive(Debug)]
pub struct BstHeader<R: PtrRepr> {
    root: R,
    len: u64,
}

/// A tree node: two child pointers, key, and `P` bytes of payload.
#[repr(C)]
#[derive(Debug)]
pub struct BstNode<R: PtrRepr, const P: usize> {
    left: R,
    right: R,
    key: u64,
    payload: [u8; P],
}

/// Binary search tree over persistent memory. See the module docs.
#[derive(Debug)]
pub struct PBst<R: PtrRepr, const P: usize = 32> {
    arena: NodeArena,
    header: *mut BstHeader<R>,
    _marker: PhantomData<R>,
}

impl<R: PtrRepr, const P: usize> PBst<R, P> {
    /// Creates an empty tree whose header lives in the home region.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn new(arena: NodeArena) -> Result<PBst<R, P>> {
        let header = arena
            .alloc_home(std::mem::size_of::<BstHeader<R>>())?
            .as_ptr() as *mut BstHeader<R>;
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            (*header).root = R::null();
            (*header).len = 0;
        }
        Ok(PBst {
            arena,
            header,
            _marker: PhantomData,
        })
    }

    /// Creates an empty tree published as a named root.
    ///
    /// # Errors
    ///
    /// Allocation or root-registration failures.
    pub fn create_rooted(arena: NodeArena, root: &str) -> Result<PBst<R, P>> {
        let t = Self::new(arena)?;
        t.arena
            .home_region()
            .set_root_tagged(root, t.header as usize, BST_ROOT_TAG)?;
        Ok(t)
    }

    /// Attaches to a previously persisted tree by root name.
    ///
    /// # Errors
    ///
    /// [`PdsError::RootMissing`] when the root is absent.
    pub fn attach(arena: NodeArena, root: &str) -> Result<PBst<R, P>> {
        let addr = arena
            .home_region()
            .root_checked(root, BST_ROOT_TAG)
            .map_err(|_| PdsError::RootMissing("bst header"))?;
        Ok(PBst {
            arena,
            header: addr as *mut BstHeader<R>,
            _marker: PhantomData,
        })
    }

    /// Number of keys in the tree.
    pub fn len(&self) -> u64 {
        // SAFETY: header mapped while regions are open.
        unsafe { (*self.header).len }
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arena nodes are placed in.
    pub fn arena(&self) -> &NodeArena {
        &self.arena
    }

    /// Address of the persistent header.
    pub fn header_addr(&self) -> usize {
        self.header as usize
    }

    /// Inserts `key` (payload derived deterministically): the body of
    /// [`PBst::insert_tx`], making the same stores in the same order with
    /// no undo log, no flush and no crash atomicity. Returns whether the
    /// key was new.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn insert(&mut self, key: u64) -> Result<bool> {
        self.insert_with(key, RawCtx::default)
    }

    /// The one insertion body: `begin` opens the context only once the
    /// search finds the key absent.
    fn insert_with<C: Ctx>(&mut self, key: u64, begin: impl FnOnce() -> C) -> Result<bool> {
        // SAFETY: slots navigated in place (`&mut self` excludes other
        // writers of the structure); the fresh node is unreachable until
        // `link_fresh` publishes it.
        unsafe {
            let (slot, cur) = self.find_slot(key);
            if !cur.is_null() {
                return Ok(false);
            }
            let len = std::ptr::addr_of_mut!((*self.header).len);
            let size = std::mem::size_of::<BstNode<R, P>>();
            link_fresh(begin(), &self.arena, slot, len, size, |n| {
                Self::init_node(n as *mut BstNode<R, P>, key)
            })?;
        }
        Ok(true)
    }

    /// Writes every field of the fresh node `n`, a leaf holding `key`.
    unsafe fn init_node(n: *mut BstNode<R, P>, key: u64) {
        (*n).left = R::null();
        (*n).right = R::null();
        (*n).key = key;
        (*n).payload = fill_payload::<P>(key);
    }

    /// The slot on `key`'s search path that holds `key`'s node, and that
    /// node — or the empty slot the key belongs in, and null.
    unsafe fn find_slot(&mut self, key: u64) -> (*mut R, *mut BstNode<R, P>) {
        let mut slot: *mut R = &mut (*self.header).root;
        loop {
            let cur = (*slot).load_at_rest() as *mut BstNode<R, P>;
            if cur.is_null() || key == (*cur).key {
                return (slot, cur);
            }
            slot = if key < (*cur).key {
                &mut (*cur).left
            } else {
                &mut (*cur).right
            };
        }
    }

    /// Inserts all keys from an iterator.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, keys: I) -> Result<()> {
        for k in keys {
            self.insert(k)?;
        }
        Ok(())
    }

    /// Bulk-loads a **sorted, deduplicated** key slice into a perfectly
    /// balanced tree (midpoint recursion). Far cheaper than repeated
    /// [`PBst::insert`] for pre-sorted data — which would otherwise
    /// degenerate into a linked list.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    ///
    /// # Panics
    ///
    /// Panics if the tree is not empty or the slice is not strictly
    /// ascending.
    pub fn build_balanced(&mut self, sorted: &[u64]) -> Result<()> {
        assert!(self.is_empty(), "build_balanced requires an empty tree");
        assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly ascending"
        );
        if sorted.is_empty() {
            return Ok(());
        }
        // SAFETY: the header's root slot is written in place exactly once.
        unsafe {
            let root = self.build_range(sorted)?;
            (*self.header).root.store(root as usize);
            (*self.header).len = sorted.len() as u64;
        }
        Ok(())
    }

    unsafe fn build_range(&mut self, sorted: &[u64]) -> Result<*mut BstNode<R, P>> {
        let mid = sorted.len() / 2;
        let key = sorted[mid];
        let node = self
            .arena
            .alloc(std::mem::size_of::<BstNode<R, P>>())?
            .as_ptr() as *mut BstNode<R, P>;
        Self::init_node(node, key);
        if mid > 0 {
            let l = self.build_range(&sorted[..mid])?;
            (*node).left.store(l as usize);
        }
        if mid + 1 < sorted.len() {
            let r = self.build_range(&sorted[mid + 1..])?;
            (*node).right.store(r as usize);
        }
        Ok(node)
    }

    /// Height of the tree (0 for empty) — diagnostic for balance.
    pub fn height(&self) -> usize {
        fn go<R: PtrRepr, const P: usize>(n: *const BstNode<R, P>) -> usize {
            if n.is_null() {
                return 0;
            }
            // SAFETY: live node while regions are open.
            unsafe {
                1 + go::<R, P>((*n).left.load() as *const BstNode<R, P>)
                    .max(go::<R, P>((*n).right.load() as *const BstNode<R, P>))
            }
        }
        // SAFETY: header mapped.
        go::<R, P>(unsafe { (*self.header).root.load() as *const BstNode<R, P> })
    }

    /// BST lookup for `key` (the paper's random-search workload).
    pub fn contains(&self, key: u64) -> bool {
        // SAFETY: links resolve to live nodes while regions are open.
        unsafe {
            let mut cur = (*self.header).root.load() as *const BstNode<R, P>;
            while !cur.is_null() {
                if key == (*cur).key {
                    return true;
                }
                cur = if key < (*cur).key {
                    (*cur).left.load() as *const BstNode<R, P>
                } else {
                    (*cur).right.load() as *const BstNode<R, P>
                };
            }
        }
        false
    }

    /// Full traversal (iterative depth-first); returns a checksum of keys
    /// and payload bytes.
    pub fn traverse(&self) -> u64 {
        let mut sum = 0u64;
        let mut stack: Vec<*const BstNode<R, P>> = Vec::with_capacity(64);
        // SAFETY: as in contains.
        unsafe {
            let root = (*self.header).root.load() as *const BstNode<R, P>;
            if !root.is_null() {
                stack.push(root);
            }
            while let Some(n) = stack.pop() {
                sum = sum
                    .wrapping_mul(31)
                    .wrapping_add((*n).key ^ (*n).payload[0] as u64);
                let l = (*n).left.load() as *const BstNode<R, P>;
                let r = (*n).right.load() as *const BstNode<R, P>;
                if !l.is_null() {
                    stack.push(l);
                }
                if !r.is_null() {
                    stack.push(r);
                }
            }
        }
        sum
    }

    /// The address of every block the tree holds: its header and every
    /// node reachable from it. The crash matrices' leak oracle compares
    /// them with the region's allocated blocks.
    pub fn blocks(&self) -> Vec<usize> {
        let mut out = vec![self.header as usize];
        self.walk(|n| {
            out.push(n as *const BstNode<R, P> as usize);
            true
        });
        out
    }

    /// Visits every node reachable from the root, depth-first, until
    /// `visit` returns false.
    fn walk<'a>(&'a self, mut visit: impl FnMut(&'a BstNode<R, P>) -> bool) {
        // SAFETY: as in contains.
        unsafe {
            let mut stack = vec![(*self.header).root.load() as *const BstNode<R, P>];
            while let Some(n) = stack.pop() {
                if n.is_null() {
                    continue;
                }
                if !visit(&*n) {
                    return;
                }
                stack.push((*n).left.load() as *const BstNode<R, P>);
                stack.push((*n).right.load() as *const BstNode<R, P>);
            }
        }
    }

    /// Iterates over keys in ascending (in-order) sequence.
    pub fn iter(&self) -> Iter<'_, R, P> {
        let mut it = Iter {
            stack: Vec::new(),
            cur: std::ptr::null(),
            _bst: std::marker::PhantomData,
        };
        // SAFETY: root resolves while the borrow keeps regions mapped.
        it.cur = unsafe { (*self.header).root.load() as *const BstNode<R, P> };
        it
    }

    /// In-order key sequence (testing/verification helper).
    pub fn keys_in_order(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// Transactional insert through `store`'s undo log: a crash either
    /// keeps the whole insertion or reverts it at the next attach.
    /// Returns whether the key was new. A key that is already present
    /// changes nothing and begins no transaction.
    ///
    /// # Errors
    ///
    /// Allocation or logging failures.
    pub fn insert_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool> {
        self.insert_with(key, || TxCtx::begin(store))
    }

    /// Transactional BST delete. Two-children nodes are handled by copying
    /// the in-order successor's key and payload into place and unlinking
    /// the successor. The unlinked node — the key's own or the successor —
    /// is freed in the same undo batch as the unlinking writes. Returns
    /// whether the key was present; an absent key begins no transaction.
    ///
    /// # Errors
    ///
    /// Logging failures; a node outside the store's region.
    pub fn remove_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool> {
        // SAFETY: slots navigated in place; every mutated range is
        // undo-logged (one batch, one fence) before the first write and
        // flushed after its own.
        unsafe {
            let (slot, cur) = self.find_slot(key);
            if cur.is_null() {
                return Ok(false);
            }
            let len = std::ptr::addr_of_mut!((*self.header).len);
            let (l, r) = ((*cur).left.load_at_rest(), (*cur).right.load_at_rest());
            let (slot, node, next, refill) = if l == 0 || r == 0 {
                // At most one child: splice it into the parent slot.
                (slot, cur, if l == 0 { r } else { l }, None)
            } else {
                // Two children: the in-order successor (leftmost of the
                // right subtree, so no left child) is unlinked instead.
                let mut succ_slot: *mut R = &mut (*cur).right;
                let mut succ = (*succ_slot).load_at_rest() as *mut BstNode<R, P>;
                while (*succ).left.load_at_rest() != 0 {
                    succ_slot = &mut (*succ).left;
                    succ = (*succ_slot).load_at_rest() as *mut BstNode<R, P>;
                }
                let dst = std::ptr::addr_of_mut!((*cur).key) as *mut u8;
                let src = std::ptr::addr_of!((*succ).key) as *const u8;
                let next = (*succ).right.load_at_rest();
                (succ_slot, succ, next, Some((dst, src, 8 + P)))
            };
            let ctx = TxCtx::begin(store);
            unlink_free(ctx, &self.arena, slot, len, node, next, refill)?;
        }
        Ok(true)
    }

    /// Structural invariant check for recovery tests: the in-order walk
    /// must yield exactly `len` strictly ascending keys and every payload
    /// must match its key's deterministic fill.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let len = self.len() as usize;
        // Bound the walk so a corrupted (cyclic) tree cannot hang it.
        let keys: Vec<u64> = self.iter().take(len + 1).collect();
        if keys.len() != len {
            return Err(format!(
                "header len {len} but in-order walk found {} keys",
                keys.len()
            ));
        }
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err("in-order keys not strictly ascending".to_string());
        }
        let mut seen = 0usize;
        let mut checked = Ok(());
        // The walk is bounded by `len`.
        self.walk(|n| {
            checked = if seen >= len {
                Err("node walk exceeds header len (cycle?)".to_string())
            } else if n.payload != fill_payload::<P>(n.key) {
                Err(format!("payload corrupt at key {}", n.key))
            } else {
                seen += 1;
                Ok(())
            };
            checked.is_ok()
        });
        checked
    }

    /// Verifies the BST ordering invariant and payload integrity
    /// ([`PBst::check_invariants`] without the description).
    pub fn verify(&self) -> bool {
        self.check_invariants().is_ok()
    }
}

/// In-order key iterator over a [`PBst`]. Created by [`PBst::iter`].
#[derive(Debug)]
pub struct Iter<'a, R: PtrRepr, const P: usize> {
    stack: Vec<*const BstNode<R, P>>,
    cur: *const BstNode<R, P>,
    _bst: std::marker::PhantomData<&'a PBst<R, P>>,
}

impl<R: PtrRepr, const P: usize> Iterator for Iter<'_, R, P> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        // SAFETY: nodes stay live and unmodified for the borrow's lifetime.
        unsafe {
            while !self.cur.is_null() {
                self.stack.push(self.cur);
                self.cur = (*self.cur).left.load() as *const BstNode<R, P>;
            }
            let n = self.stack.pop()?;
            self.cur = (*n).right.load() as *const BstNode<R, P>;
            Some((*n).key)
        }
    }
}

impl<const P: usize> PBst<SwizzledPtr, P> {
    /// Load-time swizzle pass over every pointer slot (depth-first).
    pub fn swizzle(&mut self) {
        self.convert(SwizzledPtr::swizzle_in_place);
    }

    /// Store-time unswizzle pass (reverse of [`PBst::swizzle`]).
    pub fn unswizzle(&mut self) {
        self.convert(SwizzledPtr::unswizzle_in_place);
    }

    /// The one slot pass of both directions: `each` converts a slot in
    /// place and returns its absolute target.
    fn convert(&mut self, each: impl Fn(&mut SwizzledPtr) -> usize) {
        let mut stack: Vec<*mut BstNode<SwizzledPtr, P>> = Vec::new();
        // SAFETY: every link resolves to a live node of the region in
        // either form while it is open; each slot is visited once.
        unsafe {
            let root = each(&mut (*self.header).root) as *mut BstNode<SwizzledPtr, P>;
            if !root.is_null() {
                stack.push(root);
            }
            while let Some(n) = stack.pop() {
                let l = each(&mut (*n).left) as *mut BstNode<SwizzledPtr, P>;
                let r = each(&mut (*n).right) as *mut BstNode<SwizzledPtr, P>;
                if !l.is_null() {
                    stack.push(l);
                }
                if !r.is_null() {
                    stack.push(r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::Region;
    use pi_core::{FatPtrCached, NormalPtr, OffHolder, Riv};

    fn shuffled_keys(n: u64) -> Vec<u64> {
        // Deterministic pseudo-shuffle (LCG walk over an odd stride).
        (0..n)
            .map(|i| (i.wrapping_mul(6364136223846793005).wrapping_add(17)) % (n * 8))
            .collect()
    }

    fn basic<R: PtrRepr>() {
        let region = Region::create(8 << 20).unwrap();
        let mut t: PBst<R, 32> = PBst::new(NodeArena::raw(region.clone())).unwrap();
        let keys = shuffled_keys(500);
        t.extend(keys.iter().copied()).unwrap();
        let mut unique: Vec<u64> = keys.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(t.len(), unique.len() as u64);
        assert_eq!(t.keys_in_order(), unique);
        assert!(t.verify());
        for &k in keys.iter().take(50) {
            assert!(t.contains(k));
        }
        assert!(!t.contains(u64::MAX));
        region.close().unwrap();
    }

    #[test]
    fn roundtrip_all_reprs() {
        basic::<NormalPtr>();
        basic::<OffHolder>();
        basic::<Riv>();
        basic::<FatPtrCached>();
    }

    #[test]
    fn build_balanced_gives_log_height() {
        let region = Region::create(8 << 20).unwrap();
        let mut t: PBst<OffHolder, 32> = PBst::new(NodeArena::raw(region.clone())).unwrap();
        let keys: Vec<u64> = (0..1023).collect();
        t.build_balanced(&keys).unwrap();
        assert_eq!(t.len(), 1023);
        assert_eq!(t.height(), 10, "perfectly balanced: 2^10 - 1 nodes");
        assert!(t.verify());
        assert!(t.contains(0) && t.contains(512) && t.contains(1022));
        // Sequential insert of the same keys would have height 1023.
        let mut degenerate: PBst<OffHolder, 32> =
            PBst::new(NodeArena::raw(region.clone())).unwrap();
        degenerate.extend(0..64).unwrap();
        assert_eq!(degenerate.height(), 64);
        region.close().unwrap();
    }

    #[test]
    fn build_balanced_rejects_unsorted_and_nonempty() {
        let region = Region::create(1 << 20).unwrap();
        let mut t: PBst<Riv, 32> = PBst::new(NodeArena::raw(region.clone())).unwrap();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.build_balanced(&[3, 1, 2])
        }))
        .is_err());
        t.insert(1).unwrap();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.build_balanced(&[5, 6])
        }))
        .is_err());
        region.close().unwrap();
    }

    #[test]
    fn iterator_is_sorted_and_lazy() {
        let region = Region::create(4 << 20).unwrap();
        let mut t: PBst<Riv, 32> = PBst::new(NodeArena::raw(region.clone())).unwrap();
        t.extend([5, 1, 9, 3, 7]).unwrap();
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![1, 3, 5, 7, 9]);
        assert_eq!(t.iter().take(2).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(t.iter().next(), Some(1));
        region.close().unwrap();
    }

    #[test]
    fn duplicate_insert_returns_false() {
        let region = Region::create(1 << 20).unwrap();
        let mut t: PBst<Riv, 32> = PBst::new(NodeArena::raw(region.clone())).unwrap();
        assert!(t.insert(5).unwrap());
        assert!(!t.insert(5).unwrap());
        assert_eq!(t.len(), 1);
        region.close().unwrap();
    }

    #[test]
    fn swizzled_bst_protocol() {
        let region = Region::create(8 << 20).unwrap();
        let mut t: PBst<SwizzledPtr, 32> = PBst::new(NodeArena::raw(region.clone())).unwrap();
        t.extend(shuffled_keys(300)).unwrap();
        t.swizzle();
        assert!(t.verify());
        let c = t.traverse();
        t.unswizzle();
        t.swizzle();
        assert_eq!(t.traverse(), c);
        region.close().unwrap();
    }

    #[test]
    fn persistence_roundtrip_at_new_address() {
        let dir = std::env::temp_dir().join(format!("pds-bst-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bst.nvr");
        let checksum;
        let count;
        {
            let region = Region::create_file(&path, 8 << 20).unwrap();
            let mut t: PBst<Riv, 32> =
                PBst::create_rooted(NodeArena::raw(region.clone()), "bst").unwrap();
            t.extend(shuffled_keys(800)).unwrap();
            checksum = t.traverse();
            count = t.len();
            region.close().unwrap();
        }
        let region = Region::open_file(&path).unwrap();
        let t: PBst<Riv, 32> = PBst::attach(NodeArena::raw(region.clone()), "bst").unwrap();
        assert_eq!(t.len(), count);
        assert_eq!(t.traverse(), checksum);
        assert!(t.verify());
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_region_bst_with_riv() {
        let regions: Vec<Region> = (0..4).map(|_| Region::create(2 << 20).unwrap()).collect();
        let mut t: PBst<Riv, 32> = PBst::new(NodeArena::raw_round_robin(regions.clone())).unwrap();
        t.extend(shuffled_keys(200)).unwrap();
        assert!(t.verify());
        for r in regions {
            r.close().unwrap();
        }
    }
}
