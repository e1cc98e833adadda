//! Hash set with chained buckets, generic over the pointer representation.
//!
//! The paper's hash set (Section 6.1): "N entries with each key's values
//! stored in a linked list; new values are put to the end of the
//! corresponding linked list". The bucket array is an array of pointer
//! slots in the home region; chains are nodes in the arena.
//!
//! # Lock-free shared-mutable mode
//!
//! Beyond the single-owner methods, the set supports lock-free concurrent
//! mutation in the *link-and-persist* style (NVTraverse): a node is fully
//! persisted *before* the CAS that publishes it, the destination word is
//! flushed *after* the CAS, and the fence that follows is the operation's
//! durability point — reads flush their destination too, so every response
//! refers to durable state (strict durable linearizability).
//!
//! The protocol is head-insertion with sticky mark words:
//!
//! * `insert_lf` links new nodes at the bucket head;
//! * `remove_lf` logically deletes by CASing the node's `mark` word from
//!   0 to 1 (marks are never cleared), then best-effort physically
//!   unlinks;
//! * because inserts only go to the head, a key has at most one unmarked
//!   node, and unlinking never reorders a chain, the **first** node with a
//!   matching key from the head decides membership: unmarked = present,
//!   marked = absent.
//!
//! Threads share a set by each attaching their own handle (the type is
//! deliberately not `Sync`); [`PHashSet::recover`] prunes marked nodes and
//! recomputes the length after a crash.

use crate::arena::{persist_range, NodeArena};
use crate::ctx::{link_fresh, unlink_free, Ctx, RawCtx, TxCtx};
use crate::error::{PdsError, Result};
use crate::list::fill_payload;
use nvmsim::metrics::{self, Counter};
use pi_core::{AtomicPPtr, PtrRepr, SwizzledPtr};
use pstore::ObjectStore;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Root type tag recorded by `create_rooted` and validated by `attach`.
pub const HASHSET_ROOT_TAG: u64 = u64::from_le_bytes(*b"PDSHSET1");

/// Persistent hash-set header (lives in the home region).
#[repr(C)]
#[derive(Debug)]
pub struct HashSetHeader {
    buckets_off: u64,
    nbuckets: u64,
    len: u64,
}

/// A chain node: next pointer, key, logical-deletion mark, payload.
///
/// `mark` is a full word so a torn crash image can only hold the old or
/// the new value, never a blend; 0 = live, nonzero = logically deleted
/// (lock-free removal; see the module docs).
#[repr(C)]
#[derive(Debug)]
pub struct HsNode<R: PtrRepr, const P: usize> {
    next: R,
    key: u64,
    mark: u64,
    payload: [u8; P],
}

#[inline]
fn bucket_of(key: u64, nbuckets: u64) -> u64 {
    // Fibonacci hashing keeps adjacent keys in distinct buckets.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % nbuckets
}

/// Chained-bucket persistent hash set. See the module docs.
#[derive(Debug)]
pub struct PHashSet<R: PtrRepr, const P: usize = 32> {
    arena: NodeArena,
    header: *mut HashSetHeader,
    buckets: *mut R,
    _marker: PhantomData<R>,
}

impl<R: PtrRepr, const P: usize> PHashSet<R, P> {
    /// Creates an empty set with `nbuckets` buckets; header and bucket
    /// array live in the home region.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    ///
    /// # Panics
    ///
    /// Panics if `nbuckets == 0`.
    pub fn new(arena: NodeArena, nbuckets: u64) -> Result<PHashSet<R, P>> {
        assert!(nbuckets > 0);
        let header = arena
            .alloc_home(std::mem::size_of::<HashSetHeader>())?
            .as_ptr() as *mut HashSetHeader;
        let buckets_ptr = arena
            .alloc_home(std::mem::size_of::<R>() * nbuckets as usize)?
            .as_ptr() as *mut R;
        let home = arena.home_region();
        let buckets_off = home.offset_of(buckets_ptr as usize)?;
        // SAFETY: freshly allocated, exclusively owned ranges.
        unsafe {
            (*header).buckets_off = buckets_off;
            (*header).nbuckets = nbuckets;
            (*header).len = 0;
            for i in 0..nbuckets as usize {
                buckets_ptr.add(i).write(R::null());
            }
        }
        Ok(PHashSet {
            arena,
            header,
            buckets: buckets_ptr,
            _marker: PhantomData,
        })
    }

    /// Creates an empty set published as a named root.
    ///
    /// # Errors
    ///
    /// Allocation or root-registration failures.
    pub fn create_rooted(arena: NodeArena, nbuckets: u64, root: &str) -> Result<PHashSet<R, P>> {
        let s = Self::new(arena, nbuckets)?;
        s.arena
            .home_region()
            .set_root_tagged(root, s.header as usize, HASHSET_ROOT_TAG)?;
        Ok(s)
    }

    /// Attaches to a previously persisted set by root name.
    ///
    /// # Errors
    ///
    /// [`PdsError::RootMissing`] when the root is absent.
    pub fn attach(arena: NodeArena, root: &str) -> Result<PHashSet<R, P>> {
        let addr = arena
            .home_region()
            .root_checked(root, HASHSET_ROOT_TAG)
            .map_err(|_| PdsError::RootMissing("hashset header"))?;
        let header = addr as *mut HashSetHeader;
        // SAFETY: the header was written by new(); buckets_off is a
        // region offset valid in the current mapping.
        let buckets = unsafe { arena.home_region().ptr_at((*header).buckets_off) as *mut R };
        Ok(PHashSet {
            arena,
            header,
            buckets,
            _marker: PhantomData,
        })
    }

    /// Number of keys stored.
    pub fn len(&self) -> u64 {
        // SAFETY: header mapped while regions are open.
        unsafe { (*self.header).len }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> u64 {
        // SAFETY: header mapped while regions are open.
        unsafe { (*self.header).nbuckets }
    }

    /// The arena nodes are placed in.
    pub fn arena(&self) -> &NodeArena {
        &self.arena
    }

    /// Address of the persistent header.
    pub fn header_addr(&self) -> usize {
        self.header as usize
    }

    /// Inserts `key`, appending to the end of its bucket's chain (as the
    /// paper specifies): the body of [`PHashSet::insert_tx`], making the
    /// same stores in the same order with no undo log, no flush and no
    /// crash atomicity. Returns whether the key was new.
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
            let size = std::mem::size_of::<HsNode<R, P>>();
            link_fresh(begin(), &self.arena, slot, len, size, |n| {
                let n = n as *mut HsNode<R, P>;
                (*n).next = R::null();
                (*n).key = key;
                (*n).mark = 0;
                (*n).payload = fill_payload::<P>(key);
            })?;
        }
        Ok(true)
    }

    /// The slot in `key`'s bucket chain that holds `key`'s node, and that
    /// node — or the chain's final (empty) slot, and null.
    unsafe fn find_slot(&mut self, key: u64) -> (*mut R, *mut HsNode<R, P>) {
        let b = bucket_of(key, (*self.header).nbuckets) as usize;
        let mut slot: *mut R = self.buckets.add(b);
        loop {
            let cur = (*slot).load_at_rest() as *mut HsNode<R, P>;
            if cur.is_null() || (*cur).key == key {
                return (slot, cur);
            }
            slot = &mut (*cur).next;
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

    /// Membership test (the paper's random-search workload). The first
    /// node with the key decides: its mark distinguishes live from
    /// logically deleted (see the module docs).
    pub fn contains(&self, key: u64) -> bool {
        // SAFETY: links resolve to live nodes while regions are open.
        unsafe {
            let b = bucket_of(key, (*self.header).nbuckets) as usize;
            let mut cur = (*self.buckets.add(b)).load() as *const HsNode<R, P>;
            while !cur.is_null() {
                if (*cur).key == key {
                    return (*cur).mark == 0;
                }
                cur = (*cur).next.load() as *const HsNode<R, P>;
            }
        }
        false
    }

    /// Full traversal over every bucket chain; returns a checksum.
    pub fn traverse(&self) -> u64 {
        let mut sum = 0u64;
        // SAFETY: as in contains.
        unsafe {
            for b in 0..(*self.header).nbuckets as usize {
                let mut cur = (*self.buckets.add(b)).load() as *const HsNode<R, P>;
                while !cur.is_null() {
                    sum = sum
                        .wrapping_mul(31)
                        .wrapping_add((*cur).key ^ (*cur).payload[0] as u64);
                    cur = (*cur).next.load() as *const HsNode<R, P>;
                }
            }
        }
        sum
    }

    /// The address of every block the set holds: its header, its bucket
    /// array and every node reachable from the buckets. The crash
    /// matrices' leak oracle compares them with the region's allocated
    /// blocks.
    pub fn blocks(&self) -> Vec<usize> {
        let mut out = vec![self.header as usize, self.buckets as usize];
        self.walk(|_, n| {
            out.push(n as *const HsNode<R, P> as usize);
            true
        });
        out
    }

    /// All live keys (bucket order, marked nodes skipped; testing helper).
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.walk(|_, n| {
            if n.mark == 0 {
                out.push(n.key);
            }
            true
        });
        out
    }

    /// Visits every chained node with its bucket, bucket by bucket,
    /// until `visit` returns false.
    fn walk<'a>(&'a self, mut visit: impl FnMut(usize, &'a HsNode<R, P>) -> bool) {
        // SAFETY: as in contains.
        unsafe {
            for b in 0..(*self.header).nbuckets as usize {
                let mut cur = (*self.buckets.add(b)).load() as *const HsNode<R, P>;
                while !cur.is_null() {
                    if !visit(b, &*cur) {
                        return;
                    }
                    cur = (*cur).next.load() as *const HsNode<R, P>;
                }
            }
        }
    }

    /// Transactional insert through `store`'s undo log (tail append, as
    /// the paper specifies). Returns whether the key was new. A key that
    /// is already present changes nothing and begins no transaction.
    ///
    /// # Errors
    ///
    /// Allocation or logging failures.
    pub fn insert_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool> {
        self.insert_with(key, || TxCtx::begin(store))
    }

    /// Transactionally unlinks `key` from its bucket chain and frees its
    /// node in the same undo batch as the unlinking writes, so the free
    /// rides their fence. Returns whether it was present; an absent key
    /// begins no transaction.
    ///
    /// # Errors
    ///
    /// Logging failures; a node outside the store's region.
    pub fn remove_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool> {
        // SAFETY: slots navigated in place; mutations undo-logged (one
        // batch, one fence) before the writes and flushed after them.
        unsafe {
            let (slot, cur) = self.find_slot(key);
            if cur.is_null() {
                return Ok(false);
            }
            let len = std::ptr::addr_of_mut!((*self.header).len);
            let next = (*cur).next.load_at_rest();
            unlink_free(TxCtx::begin(store), &self.arena, slot, len, cur, next, None)?;
        }
        Ok(true)
    }

    /// Structural invariant check for recovery tests: every node must
    /// hash to the bucket holding it, keys must be unique, the total node
    /// count must match `len`, and payloads must match their keys.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let (len, nbuckets) = (self.len(), self.bucket_count());
        let mut seen = 0u64;
        let mut keys = Vec::new();
        let mut checked = Ok(());
        // The walk is bounded by `len`.
        self.walk(|b, n| {
            let key = n.key;
            checked = if n.mark != 0 {
                Err(format!(
                    "marked (logically deleted) node at key {key}; run recover() first"
                ))
            } else if seen >= len {
                Err(format!("chain walk exceeds header len {len} (cycle?)"))
            } else if bucket_of(key, nbuckets) as usize != b {
                Err(format!("key {key} found in wrong bucket {b}"))
            } else if n.payload != fill_payload::<P>(key) {
                Err(format!("payload corrupt at key {key}"))
            } else {
                keys.push(key);
                seen += 1;
                Ok(())
            };
            checked.is_ok()
        });
        checked?;
        if seen != len {
            return Err(format!("header len {len} but walk found {seen} nodes"));
        }
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate key across chains".to_string());
        }
        Ok(())
    }

    /// Verifies payload integrity of every node.
    pub fn verify_payloads(&self) -> bool {
        let mut ok = true;
        self.walk(|_, n| {
            ok = n.payload == fill_payload::<P>(n.key);
            ok
        });
        ok
    }
}

/// Lock-free (link-and-persist) shared-mutable operations. See the module
/// docs for the protocol and its crash-consistency argument.
impl<R: PtrRepr, const P: usize> PHashSet<R, P> {
    /// Runtime preconditions of the lock-free operations: the slot CAS
    /// needs a single-word representation, and undo logging would not be
    /// crash-atomic against concurrent mutators.
    fn assert_lock_free_capable(&self) {
        assert!(
            std::mem::size_of::<R>() == 8,
            "lock-free hash-set ops need a single-word (8-byte) pointer representation"
        );
        assert!(
            !self.arena.is_transactional(),
            "lock-free hash-set ops require a raw (non-transactional) arena"
        );
    }

    /// Atomic view of bucket slot `b`.
    ///
    /// # Safety
    ///
    /// `b` must be in range and `R` must be 8 bytes (checked by
    /// [`Self::assert_lock_free_capable`]).
    unsafe fn aslot(&self, b: usize) -> &AtomicPPtr<HsNode<R, P>, R> {
        &*(self.buckets.add(b) as *const AtomicPPtr<HsNode<R, P>, R>)
    }

    /// Atomic view of a node's `next` link.
    ///
    /// # Safety
    ///
    /// `node` must point at a live node and `R` must be 8 bytes.
    unsafe fn anext<'a>(node: *mut HsNode<R, P>) -> &'a AtomicPPtr<HsNode<R, P>, R> {
        &*(std::ptr::addr_of!((*node).next) as *const AtomicPPtr<HsNode<R, P>, R>)
    }

    /// Atomic view of a node's mark word.
    ///
    /// # Safety
    ///
    /// `node` must point at a live node.
    unsafe fn amark<'a>(node: *mut HsNode<R, P>) -> &'a AtomicU64 {
        &*(std::ptr::addr_of!((*node).mark) as *const AtomicU64)
    }

    /// Atomic view of the header length.
    ///
    /// # Safety
    ///
    /// The header must be mapped (true while regions are open).
    unsafe fn alen(&self) -> &AtomicU64 {
        &*(std::ptr::addr_of!((*self.header).len) as *const AtomicU64)
    }

    /// NVTraverse-style destination flush on the read side: before a
    /// response is returned, flush the bucket slot (the only link on the
    /// path that may still be unflushed — interior links are persisted
    /// before their node is published) plus the decisive node's mark
    /// word, then fence. Every response then refers to durable state.
    ///
    /// # Safety
    ///
    /// `b` in range; `decisive`, when present, a live node.
    unsafe fn persist_read(&self, b: usize, decisive: Option<*mut HsNode<R, P>>) {
        metrics::incr(Counter::PdsDestinationFlushes);
        persist_range(self.buckets.add(b) as usize, std::mem::size_of::<R>());
        if let Some(n) = decisive {
            persist_range(std::ptr::addr_of!((*n).mark) as usize, 8);
        }
        nvmsim::latency::wbarrier();
    }

    /// Returns an unreachable node — a never-published spare, or a node
    /// [`Self::recover`] pruned — to its region.
    ///
    /// # Safety
    ///
    /// `node` must have come from `self.arena` and be unreachable.
    unsafe fn release_node(&self, node: *mut HsNode<R, P>) {
        let size = std::mem::size_of::<HsNode<R, P>>();
        self.arena
            .dealloc(std::ptr::NonNull::new_unchecked(node as *mut u8), size)
            .expect("an unreachable node is an allocated block");
    }

    /// Marks the (never flushed, always shadow-dirty) header length as
    /// stored so crash images drop it honestly; [`Self::recover`]
    /// recomputes it from the chains.
    fn track_len_store(&self) {
        nvmsim::shadow::track_store(
            // SAFETY: header mapped while regions are open.
            unsafe { std::ptr::addr_of!((*self.header).len) } as usize,
            8,
        );
    }

    /// Lock-free insert at the bucket head. Returns whether the key was
    /// new plus a linearization stamp drawn at the operation's
    /// linearization point (the successful CAS, or the decisive scan for
    /// an already-present key).
    ///
    /// # Errors
    ///
    /// Allocation failures.
    ///
    /// # Panics
    ///
    /// See `assert_lock_free_capable` for the representation preconditions.
    pub fn insert_lf_stamped(&self, key: u64) -> Result<(bool, u64)> {
        self.insert_lf_inner(key, true)
    }

    /// [`Self::insert_lf_stamped`] with the post-CAS destination flush
    /// deliberately omitted (the fence still runs, so the shadow tracker
    /// has nothing staged to commit). This is a known-bad mutant kept for
    /// validating the durable-linearizability checker: a crash after the
    /// response can lose an insert the caller was told is durable, which
    /// the checker must flag as a lost durable op.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn insert_lf_stamped_mutant_skipflush(&self, key: u64) -> Result<(bool, u64)> {
        self.insert_lf_inner(key, false)
    }

    fn insert_lf_inner(&self, key: u64, flush_destination: bool) -> Result<(bool, u64)> {
        self.assert_lock_free_capable();
        let size = std::mem::size_of::<HsNode<R, P>>();
        // SAFETY: slots and published nodes are accessed only through
        // their atomic views; a fresh node is private until the
        // publishing CAS succeeds.
        unsafe {
            let b = bucket_of(key, (*self.header).nbuckets) as usize;
            let slot = self.aslot(b);
            let mut spare: *mut HsNode<R, P> = std::ptr::null_mut();
            loop {
                let head = slot.load(Ordering::Acquire);
                // First node with the key decides membership (module docs).
                let mut cur = head;
                let (mut live, mut dead) = (None, None);
                while !cur.is_null() {
                    if (*cur).key == key {
                        if Self::amark(cur).load(Ordering::Acquire) == 0 {
                            live = Some(cur);
                        } else {
                            dead = Some(cur);
                        }
                        break;
                    }
                    cur = Self::anext(cur).load(Ordering::Acquire);
                }
                if let Some(n) = live {
                    if !spare.is_null() {
                        self.release_node(spare);
                    }
                    let stamp = nvmsim::dlin::next_stamp();
                    self.persist_read(b, Some(n));
                    return Ok((false, stamp));
                }
                if spare.is_null() {
                    spare = self.arena.alloc(size)?.as_ptr() as *mut HsNode<R, P>;
                    (*spare).key = key;
                    (*spare).mark = 0;
                    (*spare).payload = fill_payload::<P>(key);
                }
                // Link-and-persist: the node, including its head link,
                // must be durable before it can become reachable.
                Self::anext(spare).store(head, Ordering::Relaxed);
                metrics::incr(Counter::PdsLinkPersists);
                persist_range(spare as usize, size);
                if let Some(d) = dead {
                    // The key counts as absent because of this mark, and
                    // its remover may not have flushed it yet: make it
                    // durable under the same fence, or a crash could keep
                    // the new link and lose the removal it depends on.
                    persist_range(std::ptr::addr_of!((*d).mark) as usize, 8);
                }
                nvmsim::latency::wbarrier();
                match slot.compare_exchange(head, spare, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        let stamp = nvmsim::dlin::next_stamp();
                        if flush_destination {
                            // Flush-on-destination: persist the link that
                            // made the insert visible, then fence — the
                            // operation's durability point.
                            metrics::incr(Counter::PdsDestinationFlushes);
                            persist_range(self.buckets.add(b) as usize, std::mem::size_of::<R>());
                        }
                        nvmsim::latency::wbarrier();
                        self.track_len_store();
                        self.alen().fetch_add(1, Ordering::Relaxed);
                        return Ok((true, stamp));
                    }
                    Err(_) => metrics::incr(Counter::PdsCasRetries),
                }
            }
        }
    }

    /// Lock-free logical removal: CAS the first live matching node's mark
    /// from 0 to 1 (marks are sticky), flush it, fence, then best-effort
    /// physically unlink. Returns whether the key was present plus a
    /// linearization stamp.
    ///
    /// # Panics
    ///
    /// See `assert_lock_free_capable` for the representation preconditions.
    pub fn remove_lf_stamped(&self, key: u64) -> (bool, u64) {
        self.assert_lock_free_capable();
        // SAFETY: as in `insert_lf_stamped`.
        unsafe {
            let b = bucket_of(key, (*self.header).nbuckets) as usize;
            'retry: loop {
                let slot = self.aslot(b);
                let mut pred: &AtomicPPtr<HsNode<R, P>, R> = slot;
                let mut cur = pred.load(Ordering::Acquire);
                while !cur.is_null() {
                    let next = Self::anext(cur).load(Ordering::Acquire);
                    if (*cur).key == key {
                        if Self::amark(cur).load(Ordering::Acquire) != 0 {
                            // First match is logically deleted: absent.
                            let stamp = nvmsim::dlin::next_stamp();
                            self.persist_read(b, Some(cur));
                            return (false, stamp);
                        }
                        match Self::amark(cur).compare_exchange(
                            0,
                            1,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => {
                                let stamp = nvmsim::dlin::next_stamp();
                                // Flush-on-destination: the durable mark
                                // is the removal's durability point.
                                metrics::incr(Counter::PdsDestinationFlushes);
                                persist_range(std::ptr::addr_of!((*cur).mark) as usize, 8);
                                nvmsim::latency::wbarrier();
                                self.track_len_store();
                                self.alen().fetch_sub(1, Ordering::Relaxed);
                                // Best-effort physical unlink; losing the
                                // race (or resurrecting a marked
                                // successor) is harmless — marks decide.
                                if pred
                                    .compare_exchange(
                                        cur,
                                        next,
                                        Ordering::AcqRel,
                                        Ordering::Acquire,
                                    )
                                    .is_ok()
                                {
                                    persist_range(
                                        pred as *const _ as usize,
                                        std::mem::size_of::<R>(),
                                    );
                                    nvmsim::latency::wbarrier();
                                }
                                return (true, stamp);
                            }
                            Err(_) => {
                                // Lost the mark race: rescan.
                                metrics::incr(Counter::PdsCasRetries);
                                continue 'retry;
                            }
                        }
                    }
                    pred = Self::anext(cur);
                    cur = next;
                }
                let stamp = nvmsim::dlin::next_stamp();
                self.persist_read(b, None);
                return (false, stamp);
            }
        }
    }

    /// Lock-free membership test with a read-side destination flush, so
    /// the answer refers to durable state. Returns the membership plus a
    /// linearization stamp.
    ///
    /// # Panics
    ///
    /// See `assert_lock_free_capable` for the representation preconditions.
    pub fn contains_lf_stamped(&self, key: u64) -> (bool, u64) {
        self.assert_lock_free_capable();
        // SAFETY: as in `insert_lf_stamped`.
        unsafe {
            let b = bucket_of(key, (*self.header).nbuckets) as usize;
            let mut cur = self.aslot(b).load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    let alive = Self::amark(cur).load(Ordering::Acquire) == 0;
                    let stamp = nvmsim::dlin::next_stamp();
                    self.persist_read(b, Some(cur));
                    return (alive, stamp);
                }
                cur = Self::anext(cur).load(Ordering::Acquire);
            }
            let stamp = nvmsim::dlin::next_stamp();
            self.persist_read(b, None);
            (false, stamp)
        }
    }

    /// [`Self::insert_lf_stamped`] without the stamp.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn insert_lf(&self, key: u64) -> Result<bool> {
        Ok(self.insert_lf_stamped(key)?.0)
    }

    /// [`Self::remove_lf_stamped`] without the stamp.
    pub fn remove_lf(&self, key: u64) -> bool {
        self.remove_lf_stamped(key).0
    }

    /// [`Self::contains_lf_stamped`] without the stamp.
    pub fn contains_lf(&self, key: u64) -> bool {
        self.contains_lf_stamped(key).0
    }

    /// Post-crash (or post-run) recovery for the lock-free protocol:
    /// physically unlinks every marked node, frees it once every unlink
    /// is durable, and recomputes the header length from the surviving
    /// chains (the length is never flushed during lock-free operation, so
    /// crash images drop it). Returns the number of nodes pruned.
    /// Requires exclusive access.
    pub fn recover(&mut self) -> u64 {
        let mut pruned = Vec::new();
        let mut live = 0u64;
        // SAFETY: exclusive access (`&mut self`); at-rest chain surgery
        // exactly as in the single-owner mutators.
        unsafe {
            for b in 0..(*self.header).nbuckets as usize {
                let mut slot: *mut R = self.buckets.add(b);
                loop {
                    let cur = (*slot).load_at_rest() as *mut HsNode<R, P>;
                    if cur.is_null() {
                        break;
                    }
                    if (*cur).mark != 0 {
                        (*slot).store((*cur).next.load_at_rest());
                        persist_range(slot as usize, std::mem::size_of::<R>());
                        pruned.push(cur);
                        // Re-examine the same slot: the new target may be
                        // marked too.
                        continue;
                    }
                    live += 1;
                    slot = &mut (*cur).next;
                }
            }
            (*self.header).len = live;
            persist_range(std::ptr::addr_of!((*self.header).len) as usize, 8);
            nvmsim::latency::wbarrier();
            // No durable slot points at a pruned node any more.
            for &n in &pruned {
                self.release_node(n);
            }
        }
        pruned.len() as u64
    }
}

impl<const P: usize> PHashSet<SwizzledPtr, P> {
    /// Load-time swizzle pass over the bucket array and all chains.
    pub fn swizzle(&mut self) {
        self.convert(SwizzledPtr::swizzle_in_place);
    }

    /// Store-time unswizzle pass.
    pub fn unswizzle(&mut self) {
        self.convert(SwizzledPtr::unswizzle_in_place);
    }

    /// The one slot pass of both directions: `each` converts a slot in
    /// place and returns its absolute target.
    fn convert(&mut self, each: impl Fn(&mut SwizzledPtr) -> usize) {
        // SAFETY: every link resolves to a live node of the region in
        // either form while it is open; each slot is visited once.
        unsafe {
            for b in 0..(*self.header).nbuckets as usize {
                let mut cur = each(&mut *self.buckets.add(b)) as *mut HsNode<SwizzledPtr, P>;
                while !cur.is_null() {
                    cur = each(&mut (*cur).next) as *mut HsNode<SwizzledPtr, P>;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::Region;
    use pi_core::{FatPtr, NormalPtr, OffHolder, Riv};

    fn basic<R: PtrRepr>() {
        let region = Region::create(8 << 20).unwrap();
        let mut s: PHashSet<R, 32> = PHashSet::new(NodeArena::raw(region.clone()), 64).unwrap();
        s.extend((0..500).map(|i| i * 3)).unwrap();
        assert_eq!(s.len(), 500);
        assert_eq!(s.bucket_count(), 64);
        assert!(s.contains(0) && s.contains(3 * 499));
        assert!(!s.contains(1));
        let mut keys = s.keys();
        keys.sort_unstable();
        assert_eq!(keys, (0..500).map(|i| i * 3).collect::<Vec<_>>());
        assert!(s.verify_payloads());
        assert_eq!(s.traverse(), s.traverse());
        region.close().unwrap();
    }

    #[test]
    fn roundtrip_all_reprs() {
        basic::<NormalPtr>();
        basic::<OffHolder>();
        basic::<Riv>();
        basic::<FatPtr>();
    }

    #[test]
    fn duplicate_insert_returns_false() {
        let region = Region::create(1 << 20).unwrap();
        let mut s: PHashSet<Riv, 32> = PHashSet::new(NodeArena::raw(region.clone()), 8).unwrap();
        assert!(s.insert(42).unwrap());
        assert!(!s.insert(42).unwrap());
        assert_eq!(s.len(), 1);
        region.close().unwrap();
    }

    #[test]
    fn single_bucket_degenerates_to_list_in_insert_order() {
        let region = Region::create(1 << 20).unwrap();
        let mut s: PHashSet<OffHolder, 32> =
            PHashSet::new(NodeArena::raw(region.clone()), 1).unwrap();
        s.extend([5, 1, 9]).unwrap();
        assert_eq!(
            s.keys(),
            vec![5, 1, 9],
            "tail append preserves insertion order"
        );
        region.close().unwrap();
    }

    #[test]
    fn swizzled_hashset_protocol() {
        let region = Region::create(8 << 20).unwrap();
        let mut s: PHashSet<SwizzledPtr, 32> =
            PHashSet::new(NodeArena::raw(region.clone()), 32).unwrap();
        s.extend(0..200).unwrap();
        s.swizzle();
        assert!(s.contains(150));
        let c = s.traverse();
        s.unswizzle();
        s.swizzle();
        assert_eq!(s.traverse(), c);
        region.close().unwrap();
    }

    fn lf_basic<R: PtrRepr>() {
        let region = Region::create(8 << 20).unwrap();
        let s: PHashSet<R, 32> = PHashSet::new(NodeArena::raw(region.clone()), 16).unwrap();
        assert!(s.insert_lf(7).unwrap());
        assert!(!s.insert_lf(7).unwrap(), "duplicate insert");
        assert!(s.contains_lf(7) && s.contains(7));
        assert!(!s.contains_lf(8));
        assert!(s.remove_lf(7));
        assert!(!s.remove_lf(7), "double remove");
        assert!(!s.contains_lf(7) && !s.contains(7));
        assert!(s.insert_lf(7).unwrap(), "reinsert after remove");
        assert!(s.contains_lf(7));
        for k in 0..100 {
            s.insert_lf(k).unwrap();
        }
        for k in (0..100).step_by(2) {
            assert!(s.remove_lf(k));
        }
        assert_eq!(s.len(), 50);
        let mut keys = s.keys();
        keys.sort_unstable();
        assert_eq!(keys, (1..100).step_by(2).collect::<Vec<_>>());
        region.close().unwrap();
    }

    #[test]
    fn lock_free_ops_both_word_reprs() {
        lf_basic::<OffHolder>();
        lf_basic::<Riv>();
        lf_basic::<NormalPtr>();
    }

    #[test]
    fn lf_stamps_are_strictly_increasing() {
        let region = Region::create(1 << 20).unwrap();
        let s: PHashSet<Riv, 32> = PHashSet::new(NodeArena::raw(region.clone()), 4).unwrap();
        let (_, s1) = s.insert_lf_stamped(1).unwrap();
        let (_, s2) = s.contains_lf_stamped(1);
        let (_, s3) = s.remove_lf_stamped(1);
        assert!(s1 < s2 && s2 < s3);
        region.close().unwrap();
    }

    #[test]
    fn recover_prunes_marked_nodes() {
        let region = Region::create(8 << 20).unwrap();
        let mut s: PHashSet<OffHolder, 32> =
            PHashSet::new(NodeArena::raw(region.clone()), 8).unwrap();
        for k in 0..40 {
            s.insert_lf(k).unwrap();
        }
        for k in 0..40 {
            if k % 3 == 0 {
                assert!(s.remove_lf(k));
            }
        }
        // Some removals may already have physically unlinked their node;
        // recover must prune whatever marked nodes survive and rebuild
        // an invariant-clean set.
        s.recover();
        s.check_invariants().unwrap();
        assert_eq!(s.len(), (0..40).filter(|k| k % 3 != 0).count() as u64);
        for k in 0..40 {
            assert_eq!(s.contains(k), k % 3 != 0);
        }
        region.close().unwrap();
    }

    #[test]
    fn check_invariants_flags_marked_nodes_and_recover_prunes_them() {
        let region = Region::create(1 << 20).unwrap();
        let mut s: PHashSet<Riv, 32> = PHashSet::new(NodeArena::raw(region.clone()), 1).unwrap();
        s.insert_lf(1).unwrap();
        s.insert_lf(2).unwrap();
        // Single-threaded removes always win their unlink CAS, so marked
        // nodes never survive through the public API; plant one directly,
        // as a lost unlink (or a crash between mark and unlink) would.
        // SAFETY: single bucket, head node live.
        let head = unsafe {
            let head = (*s.buckets).load() as *mut HsNode<Riv, 32>;
            (*head).mark = 1;
            head
        };
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("marked"), "got: {err}");
        assert!(!s.contains(2), "marked head is logically absent");
        assert_eq!(s.keys(), vec![1]);
        let planted = region.offset_of(head as usize).unwrap();
        let live = region.live_blocks().len();
        assert_eq!(s.recover(), 1, "exactly the planted node pruned");
        assert_eq!(region.live_blocks().len(), live - 1, "pruned node freed");
        assert!(region.live_blocks().iter().all(|&(off, _)| off != planted));
        s.check_invariants().unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.contains(1) && !s.contains(2));
        region.close().unwrap();
    }

    #[test]
    fn lock_free_rejects_wide_reprs() {
        let region = Region::create(1 << 20).unwrap();
        let s: PHashSet<FatPtr, 32> = PHashSet::new(NodeArena::raw(region.clone()), 4).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.insert_lf(1)));
        assert!(r.is_err(), "16-byte reprs must be rejected");
        region.close().unwrap();
    }

    #[test]
    fn lf_concurrent_smoke_disjoint_ranges_plus_contended_key() {
        const THREADS: usize = 4;
        const PER: u64 = 64;
        let region = Region::create(16 << 20).unwrap();
        {
            let _s: PHashSet<Riv, 32> =
                PHashSet::create_rooted(NodeArena::raw(region.clone()), 64, "hs").unwrap();
        }
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let region = region.clone();
                std::thread::spawn(move || {
                    let s: PHashSet<Riv, 32> =
                        PHashSet::attach(NodeArena::raw(region), "hs").unwrap();
                    let lo = 1 + t * PER;
                    for k in lo..lo + PER {
                        assert!(s.insert_lf(k).unwrap());
                    }
                    for k in (lo..lo + PER).step_by(2) {
                        assert!(s.remove_lf(k));
                    }
                    // Everyone hammers key 0 to exercise CAS contention.
                    for _ in 0..50 {
                        s.insert_lf(0).unwrap();
                        s.contains_lf(0);
                        s.remove_lf(0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut s: PHashSet<Riv, 32> =
            PHashSet::attach(NodeArena::raw(region.clone()), "hs").unwrap();
        s.recover();
        s.check_invariants().unwrap();
        // Every thread's last op on the contended key is a remove, so the
        // linearization must end with it absent.
        assert!(!s.contains(0));
        for t in 0..THREADS as u64 {
            let lo = 1 + t * PER;
            for k in lo..lo + PER {
                assert_eq!(s.contains(k), !(k - lo).is_multiple_of(2), "key {k}");
            }
        }
        region.close().unwrap();
    }

    #[test]
    fn persistence_roundtrip_at_new_address() {
        let dir = std::env::temp_dir().join(format!("pds-hs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hs.nvr");
        let checksum;
        {
            let region = Region::create_file(&path, 8 << 20).unwrap();
            let mut s: PHashSet<OffHolder, 32> =
                PHashSet::create_rooted(NodeArena::raw(region.clone()), 128, "hs").unwrap();
            s.extend(0..1000).unwrap();
            checksum = s.traverse();
            region.close().unwrap();
        }
        let region = Region::open_file(&path).unwrap();
        let s: PHashSet<OffHolder, 32> =
            PHashSet::attach(NodeArena::raw(region.clone()), "hs").unwrap();
        assert_eq!(s.len(), 1000);
        assert_eq!(s.traverse(), checksum);
        assert!(s.contains(999) && !s.contains(1000));
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
