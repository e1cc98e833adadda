//! Singly-linked list, generic over the pointer representation.
//!
//! One of the four dynamic data structures of the paper's evaluation
//! (Section 6.1): "a single-direction linked list of a number of nodes".
//! Each node carries a `u64` key, a fixed-size payload (the paper varies
//! 32 vs. 256 bytes), and a `next` pointer in the representation under
//! study. The list's persistent header (head pointer + length) lives in
//! the arena's home region and can be published as a named root, so the
//! whole structure is recoverable after the region is reopened at a
//! different address — for every position-independent representation.

use crate::arena::NodeArena;
use crate::ctx::{unlink_free, Ctx, RawCtx, TxCtx};
use crate::error::Result;
use crate::walk::{self, expect_sound, Checked, Follow, Walked};
use nvmsim::NvRef;
use pi_core::{PtrRepr, SwizzledPtr};
use pstore::ObjectStore;

/// Root type tag recorded by `create_rooted` and validated by `attach`.
pub const LIST_ROOT_TAG: u64 = u64::from_le_bytes(*b"PDSLIST1");

/// Persistent list header (lives in the home region).
#[repr(C)]
#[derive(Debug, Default)]
pub struct ListHeader<R: PtrRepr> {
    head: R,
    len: u64,
}

/// A list node: `next` pointer, key, and `P` bytes of payload.
#[repr(C)]
#[derive(Debug)]
pub struct ListNode<R: PtrRepr, const P: usize> {
    pub(crate) next: R,
    key: u64,
    payload: [u8; P],
}

/// Deterministic payload contents derived from a key, so integrity can be
/// verified after persistence round-trips.
pub fn fill_payload<const P: usize>(key: u64) -> [u8; P] {
    let mut payload = [0u8; P];
    let mut x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for b in payload.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    payload
}

/// Singly-linked persistent list. See the module docs.
#[derive(Debug)]
pub struct PList<R: PtrRepr, const P: usize = 32> {
    arena: NodeArena,
    header: NvRef<ListHeader<R>>,
}

impl<R: PtrRepr, const P: usize> PList<R, P> {
    /// Creates an empty list whose header lives in the arena's home region.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn new(arena: NodeArena) -> Result<PList<R, P>> {
        let header = arena.new_header(None, |_| Ok(()))?;
        Ok(PList { arena, header })
    }

    /// Creates an empty list and publishes its header as a named root of
    /// the home region.
    ///
    /// # Errors
    ///
    /// Allocation or root-registration failures.
    pub fn create_rooted(arena: NodeArena, root: &str) -> Result<PList<R, P>> {
        let header = arena.new_header(Some((root, LIST_ROOT_TAG)), |_| Ok(()))?;
        Ok(PList { arena, header })
    }

    /// Attaches to a previously persisted list by its root name. The
    /// arena must present the same regions the list was built over (the
    /// home region first).
    ///
    /// # Errors
    ///
    /// [`crate::PdsError::RootMissing`] when the root is absent.
    pub fn attach(arena: NodeArena, root: &str) -> Result<PList<R, P>> {
        let header = arena.root_header(root, LIST_ROOT_TAG, "list header")?;
        Ok(PList { arena, header })
    }

    /// Number of nodes.
    pub fn len(&self) -> u64 {
        // SAFETY: header is mapped while the arena's regions are open.
        unsafe { self.header.as_ref() }.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arena nodes are placed in.
    pub fn arena(&self) -> &NodeArena {
        &self.arena
    }

    /// Address of the persistent header (for roots and diagnostics).
    pub fn header_addr(&self) -> usize {
        self.header.addr()
    }

    /// Pushes a node with `key` and a deterministic payload to the front:
    /// the body of [`PList::push_front_tx`], making the same stores in the
    /// same order with no undo log, no flush and no crash atomicity.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn push_front(&mut self, key: u64) -> Result<()> {
        self.push_front_in(RawCtx::default(), key)
    }

    /// The one front-insertion body: the header is the whole logged batch
    /// and the fresh node is flushed before the head store publishes it.
    fn push_front_in<C: Ctx>(&mut self, mut ctx: C, key: u64) -> Result<()> {
        let size = std::mem::size_of::<ListNode<R, P>>();
        let header_size = std::mem::size_of::<ListHeader<R>>();
        // SAFETY: node is fresh (unreachable until the header publish,
        // which the context logs); header mapped while regions open;
        // representation stores happen in place.
        unsafe {
            ctx.log(self.header.addr(), header_size)?;
            let node = ctx.alloc(&self.arena, size)? as *mut ListNode<R, P>;
            ctx.fence();
            (*node).key = key;
            (*node).payload = fill_payload::<P>(key);
            (*node).next = R::null();
            let header = self.header.as_mut();
            let old_head = header.head.load_at_rest();
            (*node).next.store(old_head);
            ctx.persist(node as usize, size);
            header.head.store(node as usize);
            header.len += 1;
            ctx.persist(self.header.addr(), header_size);
        }
        ctx.finish(&self.arena)
    }

    /// Populates the list with `keys` (front-insertion: traversal visits
    /// them in reverse order).
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, keys: I) -> Result<()> {
        for k in keys {
            self.push_front(k)?;
        }
        Ok(())
    }

    /// Full traversal; returns a checksum of keys and payload bytes.
    /// This is the paper's traversal workload: pure pointer chasing with
    /// one payload touch per node.
    pub fn traverse(&self) -> u64 {
        let mut sum = 0u64;
        expect_sound(self.walk(walk::load, |n| {
            sum = sum
                .wrapping_mul(31)
                .wrapping_add(n.key ^ n.payload[0] as u64);
            Ok(())
        }));
        sum
    }

    /// Linear search for `key`.
    pub fn contains(&self, key: u64) -> bool {
        // SAFETY: links resolve to live nodes while regions are open.
        unsafe { !self.find_slot(key, R::load).1.is_null() }
    }

    /// The one node walk (crate docs, "One read path"): [`walk::chain`]
    /// from the head, every link read by `follow`.
    fn walk<'a>(
        &'a self,
        mut follow: impl Follow<R>,
        visit: impl FnMut(&'a ListNode<R, P>) -> Walked,
    ) -> Walked {
        // SAFETY: the header lies in the home region (`attach` checked
        // it); `follow` vouches for every link it passes.
        unsafe { walk::chain(&mut follow, &mut self.header.as_mut().head, visit) }
    }

    /// The address of every block the list holds: its header and every
    /// node reachable from it. The crash matrices' leak oracle compares
    /// them with the region's allocated blocks.
    /// Panics on a link [`check_invariants`](Self::check_invariants) refuses.
    pub fn blocks(&self) -> Vec<usize> {
        let mut out = vec![self.header.addr()];
        expect_sound(self.walk(Checked::default(), |n| {
            out.push(n as *const ListNode<R, P> as usize);
            Ok(())
        }));
        out
    }

    /// All keys in traversal order (testing/verification helper).
    /// Panics on a link [`check_invariants`](Self::check_invariants) refuses.
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        expect_sound(self.walk(Checked::default(), |n| {
            out.push(n.key);
            Ok(())
        }));
        out
    }

    /// Transactionally pushes a node to the front through `store`'s undo
    /// log: a crash at any point either keeps the whole insertion or
    /// reverts it entirely at the next attach.
    ///
    /// # Errors
    ///
    /// Allocation or logging failures.
    pub fn push_front_tx(&mut self, store: &ObjectStore, key: u64) -> Result<()> {
        self.push_front_in(TxCtx::begin(store), key)
    }

    /// Transactionally unlinks the first node with `key` and frees it in
    /// the same undo batch as the unlinking writes, so the free rides
    /// their fence and a crash can neither leak the block nor serve it
    /// twice. Returns whether a node was removed; an absent key begins no
    /// transaction.
    ///
    /// # Errors
    ///
    /// Logging failures; a node outside the store's region.
    pub fn remove_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool> {
        // SAFETY: slots navigated in place (`&mut self` excludes other
        // writers of the structure); mutations are undo-logged (one
        // batch, one fence) before the writes and flushed after them.
        unsafe {
            let (slot, cur) = self.find_slot(key, R::load_at_rest);
            if cur.is_null() {
                return Ok(false);
            }
            let len = &mut self.header.as_mut().len as *mut u64;
            let next = (*cur).next.load_at_rest();
            unlink_free(TxCtx::begin(store), &self.arena, slot, len, cur, next, None)?;
        }
        Ok(true)
    }

    /// The slot holding the first node with `key`, and that node — or
    /// the chain's final (empty) slot and null. `load` decodes each link:
    /// [`PtrRepr::load`] for a lookup, [`PtrRepr::load_at_rest`] for a
    /// mutator.
    ///
    /// # Safety
    ///
    /// The list's regions are open, no other thread writes it, and `load`
    /// decodes its links to mapped addresses (0 for null).
    unsafe fn find_slot(
        &self,
        key: u64,
        load: impl Fn(&R) -> usize,
    ) -> (*mut R, *mut ListNode<R, P>) {
        let mut slot: *mut R = &mut self.header.as_mut().head;
        loop {
            let cur = load(&*slot) as *mut ListNode<R, P>;
            if cur.is_null() || (*cur).key == key {
                return (slot, cur);
            }
            slot = &mut (*cur).next;
        }
    }

    /// Structural invariant check for recovery tests: every link must
    /// point inside an open region, the walk from the head must visit
    /// exactly `len` nodes (no cycle, no truncation) and every payload
    /// must match its key's deterministic fill.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let len = self.len();
        let mut seen = 0u64;
        self.walk(Checked::default(), |n| {
            if seen >= len {
                return Err(format!("list walk exceeds header len {len} (cycle?)"));
            }
            if n.payload != fill_payload::<P>(n.key) {
                return Err(format!("payload corrupt at key {}", n.key));
            }
            seen += 1;
            Ok(())
        })?;
        if seen != len {
            return Err(format!("header len {len} but walk found {seen} nodes"));
        }
        Ok(())
    }
}

impl<const P: usize> PList<SwizzledPtr, P> {
    /// The load-time swizzle pass: converts every pointer (header included)
    /// from its at-rest offset form to a direct absolute pointer. O(n).
    pub fn swizzle(&mut self) {
        expect_sound(self.walk(SwizzledPtr::swizzle_in_place, |_| Ok(())));
    }

    /// The store-time unswizzle pass: converts every pointer back to the
    /// position-independent at-rest form. O(n).
    pub fn unswizzle(&mut self) {
        expect_sound(self.walk(SwizzledPtr::unswizzle_in_place, |_| Ok(())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PdsError;
    use nvmsim::Region;
    use pi_core::{FatPtr, NormalPtr, OffHolder, Riv};

    fn arena() -> (Region, NodeArena) {
        let r = Region::create(4 << 20).unwrap();
        (r.clone(), NodeArena::raw(r))
    }

    fn basic_roundtrip<R: PtrRepr>() {
        let (r, arena) = arena();
        let mut list: PList<R, 32> = PList::new(arena).unwrap();
        assert!(list.is_empty());
        list.extend(0..100).unwrap();
        assert_eq!(list.len(), 100);
        assert_eq!(list.keys(), (0..100).rev().collect::<Vec<_>>());
        assert!(list.contains(0) && list.contains(99) && !list.contains(100));
        list.check_invariants().unwrap();
        let c1 = list.traverse();
        let c2 = list.traverse();
        assert_eq!(c1, c2);
        assert_ne!(c1, 0);
        r.close().unwrap();
    }

    #[test]
    fn roundtrip_all_reprs() {
        basic_roundtrip::<NormalPtr>();
        basic_roundtrip::<OffHolder>();
        basic_roundtrip::<Riv>();
        basic_roundtrip::<FatPtr>();
    }

    #[test]
    fn swizzled_list_protocol() {
        let (r, arena) = arena();
        let mut list: PList<SwizzledPtr, 32> = PList::new(arena).unwrap();
        list.extend(0..50).unwrap();
        list.swizzle();
        assert_eq!(list.keys(), (0..50).rev().collect::<Vec<_>>());
        assert!((0..50).all(|k| list.contains(k)) && !list.contains(50));
        let c = list.traverse();
        list.unswizzle();
        list.swizzle();
        assert_eq!(list.traverse(), c, "swizzle/unswizzle round-trips");
        r.close().unwrap();
    }

    #[test]
    fn persistence_roundtrip_at_new_address() {
        let dir = std::env::temp_dir().join(format!("pds-list-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("list.nvr");
        let checksum;
        {
            let region = Region::create_file(&path, 4 << 20).unwrap();
            let mut list: PList<OffHolder, 32> =
                PList::create_rooted(NodeArena::raw(region.clone()), "list").unwrap();
            list.extend(0..1000).unwrap();
            checksum = list.traverse();
            region.close().unwrap();
        }
        let region = Region::open_file(&path).unwrap();
        let list: PList<OffHolder, 32> =
            PList::attach(NodeArena::raw(region.clone()), "list").unwrap();
        assert_eq!(list.len(), 1000);
        assert_eq!(list.traverse(), checksum);
        list.check_invariants().unwrap();
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn normal_pointers_break_across_reopen() {
        // The motivating failure (paper Figure 1): absolute pointers do not
        // survive remapping. We verify the stored value points outside the
        // new mapping rather than dereferencing garbage.
        let dir = std::env::temp_dir().join(format!("pds-listn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("norm.nvr");
        let old_base;
        {
            let region = Region::create_file(&path, 4 << 20).unwrap();
            old_base = region.base();
            let mut list: PList<NormalPtr, 32> =
                PList::create_rooted(NodeArena::raw(region.clone()), "list").unwrap();
            list.extend(0..4).unwrap();
            region.close().unwrap();
        }
        let region = Region::open_file(&path).unwrap();
        if region.base() != old_base {
            let header = region.root("list").unwrap() as *const ListHeader<NormalPtr>;
            let head = unsafe { (*header).head.load() };
            assert!(
                !region.contains(head),
                "stale absolute pointer must not fall inside the new mapping"
            );
        }
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cross_region_list_with_riv() {
        let regions: Vec<Region> = (0..3).map(|_| Region::create(1 << 20).unwrap()).collect();
        let arena = NodeArena::raw_round_robin(regions.clone());
        let mut list: PList<Riv, 32> = PList::new(arena).unwrap();
        list.extend(0..30).unwrap();
        assert_eq!(list.len(), 30);
        assert_eq!(list.keys().len(), 30);
        list.check_invariants().unwrap();
        for r in regions {
            r.close().unwrap();
        }
    }

    #[test]
    fn keys_follow_the_chain_from_the_head() {
        let (r, arena) = arena();
        let mut list: PList<Riv, 32> = PList::new(arena).unwrap();
        list.extend([10, 20, 30]).unwrap();
        assert_eq!(list.keys(), vec![30, 20, 10]);
        assert_eq!(
            list.blocks().len() as u64,
            list.len() + 1,
            "header and nodes"
        );
        list.check_invariants().unwrap();
        r.close().unwrap();
    }

    #[test]
    fn attach_missing_root_errors() {
        let (r, arena) = arena();
        let err = PList::<Riv, 32>::attach(arena, "nope").unwrap_err();
        assert!(matches!(err, PdsError::RootMissing(_)));
        r.close().unwrap();
    }
}
