//! Persistent adaptive radix tree, generic over the pointer representation.
//!
//! The suggestion-serving index the ROADMAP calls for: an ART after
//! Leis et al. — adaptive node sizes (Node4/Node16/Node48/Node256),
//! path compression (each inner node carries the key bytes its whole
//! subtree shares), and lazy leaf expansion (a leaf stores its full key,
//! so a single-key subtree is one node regardless of key length). Unlike
//! the 26-way letter [`crate::PTrie`], interior fan-out adapts to the
//! key distribution, which is exactly where pointer-dense string indexes
//! make the paper's representations diverge: a Node256 is 97% pointer
//! slots, so bytes-per-key tracks `R::SIZE_BYTES` almost directly.
//!
//! Inner nodes carry a fixed 64-byte prefix array; a leaf is its kind,
//! key length and occurrence count, then exactly its key, allocated at
//! `leaf_size` bytes, so a key of up to 16 bytes is one 32-byte block
//! on one cache line. A leaf's key never changes, nor does its block.
//!
//! # Crash discipline
//!
//! Mutations follow the same PMEM.IO undo-log pattern as the other pds
//! structures (`insert_tx`/`remove_tx` in a [`pstore::ObjectStore`]),
//! with the NVTraverse-style destination-flush rule on top:
//!
//! 1. fresh nodes (leaves, split nodes, grown nodes) are fully
//!    initialized and flushed **before** they become reachable;
//! 2. reachability changes through exactly **one link store** — the
//!    parent child-slot (or the root slot) — which is undo-logged and
//!    flushed after the write;
//! 3. in-place node edits (adding a child to a non-full node, trimming a
//!    prefix during a split, bumping a leaf counter) snapshot the node
//!    in the undo log first — every range of the operation in one
//!    batch, fenced once before the first edit — so a crash at
//!    any shadow-tracked point either replays the commit or rolls the
//!    node back byte-exact.
//!
//! A grown node (Node4 → Node16 → Node48 → Node256) is replaced, not
//! edited: the successor is built beside it, persisted, and published by
//! the single parent-slot store, and the predecessor is freed — in a
//! transaction by an allocator entry in the operation's one batch, so
//! the free rides its fence and a crash can neither leak the block nor
//! serve it twice; in raw mode by `Region::dealloc` after the publish.
//! Nodes never shrink: a removal decrements a leaf counter, and no
//! Node48 collapses back into a Node16. The header persists one counter,
//! `keys`, which an operation logs as its own 8-byte range only when the
//! key count changes (a new key, a first occurrence on a count-0 leaf,
//! the last removal); a count bump or a removal that is not the last logs
//! the leaf's count alone. Node, byte and per-kind counts are not
//! persisted: [`PArt::stats`] counts them in the same cycle-guarded walk
//! that `check_invariants`, `recover`, `blocks` and `nvr_inspect index`
//! run.
//!
//! Keys are non-empty strings of at most [`MAX_KEY`] bytes with no NUL —
//! byte 0 is the in-tree terminator branch that separates a key from its
//! extensions ("car" vs "cart").

use crate::arena::NodeArena;
use crate::ctx::{Ctx, RawCtx, TxCtx};
use crate::error::{PdsError, Result};
use crate::walk::{self, expect_sound, Checked, Walked};
use nvmsim::NvRef;
use pi_core::PtrRepr;
use pstore::ObjectStore;
use std::mem::offset_of;

/// Root type tag recorded by `create_rooted` and validated by `attach`.
pub const ART_ROOT_TAG: u64 = u64::from_le_bytes(*b"PDSART02");

/// Maximum key length in bytes (also bounds an inner node's compressed
/// prefix, so prefixes never need the optimistic-path machinery).
pub const MAX_KEY: usize = 64;

/// Node kind codes, in growth order; `ART_KIND_NAMES[kind]` names them.
pub const KIND_NODE4: u8 = 0;
/// 16-way node.
pub const KIND_NODE16: u8 = 1;
/// 48-way node (256-byte index + 48 child slots).
pub const KIND_NODE48: u8 = 2;
/// Full 256-way node.
pub const KIND_NODE256: u8 = 3;
/// Leaf (full key + occurrence count).
pub const KIND_LEAF: u8 = 4;

/// Display names for the five node kinds, indexed by kind code.
pub const ART_KIND_NAMES: [&str; 5] = ["node4", "node16", "node48", "node256", "leaf"];

const EMPTY48: u8 = 0xFF;

/// Persistent ART header (lives in the home region).
///
/// `keys` is the one persistent counter; `repr_fp` fingerprints the
/// pointer representation so offline tooling (`nvr_inspect index`) can
/// dispatch the walk without being told the type.
#[repr(C)]
#[derive(Debug, Default)]
pub struct ArtHeader<R: PtrRepr> {
    root: R,
    /// Distinct keys currently present (occurrence count > 0).
    keys: u64,
    /// Padding that nothing reads or writes. Images written before the
    /// walk took over counting nodes, bytes and kinds hold stale counters
    /// here, so the layout, and the format tag, stay as they were.
    _retired: [u64; 7],
    /// FNV-1a of `R::NAME`.
    repr_fp: u64,
}

/// First fields of every inner node; `kind` is also a leaf's first
/// byte, so any node's kind reads through either.
#[repr(C)]
#[derive(Debug)]
struct NodeHead {
    kind: u8,
    /// Compressed-prefix length.
    klen: u8,
    /// Child count.
    nkeys: u16,
    _pad: u32,
    kbytes: [u8; MAX_KEY],
}

/// A leaf's fixed fields; its `klen` key bytes follow them. Its `kind`
/// and `klen` are also an inner node's first bytes, so the walk reads any
/// node's through it.
#[repr(C)]
struct Leaf {
    kind: u8,
    klen: u8,
    _pad: [u8; 6],
    count: u64,
}

/// Bytes a leaf for a `klen`-byte key occupies.
fn leaf_size(klen: usize) -> usize {
    std::mem::size_of::<Leaf>() + klen
}

impl Leaf {
    /// The key stored after `leaf`'s fixed fields.
    unsafe fn key<'a>(leaf: *const Leaf) -> &'a [u8] {
        std::slice::from_raw_parts(leaf.add(1) as *const u8, (*leaf).klen as usize)
    }
}

#[repr(C)]
struct Node4<R: PtrRepr> {
    head: NodeHead,
    keys: [u8; 4],
    _pad: [u8; 4],
    children: [R; 4],
}

#[repr(C)]
struct Node16<R: PtrRepr> {
    head: NodeHead,
    keys: [u8; 16],
    children: [R; 16],
}

#[repr(C)]
struct Node48<R: PtrRepr> {
    head: NodeHead,
    index: [u8; 256],
    children: [R; 48],
}

#[repr(C)]
struct Node256<R: PtrRepr> {
    head: NodeHead,
    children: [R; 256],
}

/// Bytes an inner node of `kind` occupies.
fn node_size<R: PtrRepr>(kind: u8) -> usize {
    match kind {
        KIND_NODE4 => std::mem::size_of::<Node4<R>>(),
        KIND_NODE16 => std::mem::size_of::<Node16<R>>(),
        KIND_NODE48 => std::mem::size_of::<Node48<R>>(),
        _ => std::mem::size_of::<Node256<R>>(),
    }
}

fn node_capacity(kind: u8) -> usize {
    match kind {
        KIND_NODE4 => 4,
        KIND_NODE16 => 16,
        KIND_NODE48 => 48,
        _ => 256,
    }
}

fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn lcp(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Branch byte at position `i` of `key`: the byte itself, or the NUL
/// terminator once the key is exhausted.
fn branch_byte(key: &[u8], i: usize) -> u8 {
    if i < key.len() {
        key[i]
    } else {
        0
    }
}

fn key_bytes(key: &str) -> Result<&[u8]> {
    let b = key.as_bytes();
    if b.is_empty() || b.len() > MAX_KEY {
        return Err(PdsError::WordTooLong(key.to_string()));
    }
    if b.contains(&0) {
        return Err(PdsError::BadCharacter('\0'));
    }
    Ok(b)
}

// -- the tree -----------------------------------------------------------------

/// Persistent adaptive radix tree. See the module docs.
#[derive(Debug)]
pub struct PArt<R: PtrRepr> {
    arena: NodeArena,
    header: NvRef<ArtHeader<R>>,
}

impl<R: PtrRepr> PArt<R> {
    /// Creates an empty tree whose header lives in the home region.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn new(arena: NodeArena) -> Result<PArt<R>> {
        Self::create(arena, None)
    }

    /// Creates an empty tree published as a named root.
    ///
    /// # Errors
    ///
    /// Allocation or root-registration failures.
    pub fn create_rooted(arena: NodeArena, root: &str) -> Result<PArt<R>> {
        Self::create(arena, Some((root, ART_ROOT_TAG)))
    }

    fn create(arena: NodeArena, root: Option<(&str, u64)>) -> Result<PArt<R>> {
        let header = arena.new_header(root, |h: NvRef<ArtHeader<R>>| {
            // SAFETY: the fresh header is this call's alone.
            unsafe { h.as_mut() }.repr_fp = fnv1a64(R::NAME);
            Ok(())
        })?;
        Ok(PArt { arena, header })
    }

    /// Attaches to a previously persisted tree by root name, rejecting a
    /// header written under a different pointer representation.
    ///
    /// # Errors
    ///
    /// [`PdsError::RootMissing`] when the root is absent or the
    /// representation fingerprint does not match `R`; the region's error
    /// naming the tag when the root carries another type tag (an index of
    /// another format).
    pub fn attach(arena: NodeArena, root: &str) -> Result<PArt<R>> {
        let header: NvRef<ArtHeader<R>> = arena.root_header(root, ART_ROOT_TAG, "art header")?;
        // SAFETY: `root_header` checked the header lies in the home region.
        if unsafe { header.as_ref() }.repr_fp != fnv1a64(R::NAME) {
            return Err(PdsError::RootMissing("art header (repr mismatch)"));
        }
        Ok(PArt { arena, header })
    }

    /// Distinct keys currently present.
    pub fn key_count(&self) -> u64 {
        // SAFETY: header is mapped while the arena's regions are open.
        unsafe { self.keys().read() }
    }

    /// The arena nodes are placed in.
    pub fn arena(&self) -> &NodeArena {
        &self.arena
    }

    /// Address of the persistent header.
    pub fn header_addr(&self) -> usize {
        self.header.addr()
    }

    /// The persistent key count, the one header word a write logs.
    fn keys(&self) -> NvRef<u64> {
        self.header.field(offset_of!(ArtHeader<R>, keys))
    }

    /// Fully initializes the fresh block `block` as a leaf for `key` with
    /// occurrence count 1; flushed before the caller publishes it.
    unsafe fn new_leaf<C: Ctx>(ctx: &C, block: *mut u8, key: &[u8]) -> *mut Leaf {
        let leaf = block as *mut Leaf;
        leaf.write(Leaf {
            kind: KIND_LEAF,
            klen: key.len() as u8,
            _pad: [0; 6],
            count: 1,
        });
        std::ptr::copy_nonoverlapping(key.as_ptr(), leaf.add(1) as *mut u8, key.len());
        ctx.persist(leaf as usize, leaf_size(key.len()));
        leaf
    }

    /// Initializes the fresh block `block` as an empty inner node of
    /// `kind` carrying `prefix`; the caller adds children and flushes
    /// before publishing.
    unsafe fn new_inner(block: *mut u8, kind: u8, prefix: &[u8]) -> *mut NodeHead {
        let n = block as *mut NodeHead;
        (*n).kind = kind;
        (*n).klen = prefix.len() as u8;
        (*n).nkeys = 0;
        (*n)._pad = 0;
        (*n).kbytes = [0; MAX_KEY];
        (&mut (*n).kbytes)[..prefix.len()].copy_from_slice(prefix);
        match kind {
            KIND_NODE4 => {
                let p = n as *mut Node4<R>;
                (*p).keys = [0; 4];
                (*p)._pad = [0; 4];
                (*p).children = [R::null(); 4];
            }
            KIND_NODE16 => {
                let p = n as *mut Node16<R>;
                (*p).keys = [0; 16];
                (*p).children = [R::null(); 16];
            }
            KIND_NODE48 => {
                let p = n as *mut Node48<R>;
                (*p).index = [EMPTY48; 256];
                (*p).children = [R::null(); 48];
            }
            _ => {
                let p = n as *mut Node256<R>;
                (*p).children = [R::null(); 256];
            }
        }
        n
    }

    /// Adds `b -> target` to a node with spare capacity. The caller has
    /// undo-logged the node (or it is still unpublished).
    unsafe fn add_child_raw(n: *mut NodeHead, b: u8, target: usize) {
        let i = (*n).nkeys as usize;
        match (*n).kind {
            KIND_NODE4 => {
                let p = n as *mut Node4<R>;
                (*p).keys[i] = b;
                (*p).children[i].store(target);
            }
            KIND_NODE16 => {
                let p = n as *mut Node16<R>;
                (*p).keys[i] = b;
                (*p).children[i].store(target);
            }
            KIND_NODE48 => {
                // Slots fill sequentially: removal never compacts, so
                // `nkeys` is also the next free child slot.
                let p = n as *mut Node48<R>;
                (*p).children[i].store(target);
                (*p).index[b as usize] = i as u8;
            }
            _ => {
                let p = n as *mut Node256<R>;
                (*p).children[b as usize].store(target);
            }
        }
        (*n).nkeys += 1;
    }

    /// Child slot for branch byte `b`, if present.
    unsafe fn find_child(n: *mut NodeHead, b: u8) -> Option<*mut R> {
        match (*n).kind {
            KIND_NODE4 => {
                let p = n as *mut Node4<R>;
                (0..(*n).nkeys as usize)
                    .find(|&i| (*p).keys[i] == b)
                    .map(|i| std::ptr::addr_of_mut!((*p).children[i]))
            }
            KIND_NODE16 => {
                let p = n as *mut Node16<R>;
                (0..(*n).nkeys as usize)
                    .find(|&i| (*p).keys[i] == b)
                    .map(|i| std::ptr::addr_of_mut!((*p).children[i]))
            }
            KIND_NODE48 => {
                let p = n as *mut Node48<R>;
                let i = (*p).index[b as usize];
                (i != EMPTY48).then(|| std::ptr::addr_of_mut!((*p).children[i as usize]))
            }
            _ => {
                let p = n as *mut Node256<R>;
                let slot = std::ptr::addr_of_mut!((*p).children[b as usize]);
                (!(*slot).is_null()).then_some(slot)
            }
        }
    }

    /// The two blocks of a split: a Node4, then a leaf for a `klen`-byte
    /// key.
    fn alloc_split<C: Ctx>(&self, ctx: &mut C, klen: usize) -> Result<(*mut u8, *mut u8)> {
        let split = ctx.alloc(&self.arena, node_size::<R>(KIND_NODE4))?;
        Ok((split, ctx.alloc(&self.arena, leaf_size(klen))?))
    }

    /// Grows the full node `n` into the next kind in the fresh block
    /// `block`: the successor is built beside it (unpublished, so no
    /// logging of its bytes), carries the same prefix and children, and
    /// the caller publishes it through the parent slot and frees the
    /// predecessor.
    unsafe fn grow(block: *mut u8, n: *mut NodeHead) -> *mut NodeHead {
        let prefix = &(&(*n).kbytes)[..(*n).klen as usize];
        let g = Self::new_inner(block, (*n).kind + 1, prefix);
        Self::for_each_child(n, |b, slot| {
            Self::add_child_raw(g, b, (*slot).load_at_rest())
        });
        g
    }

    /// Shared insertion body; see the module docs for the crash steps.
    /// Read-only descent first; each terminal case then logs every range
    /// it will edit — the key count only when it changes — allocates (and
    /// frees) its nodes, and fences once before the first store.
    unsafe fn insert_inner<C: Ctx>(&mut self, ctx: &mut C, key: &[u8]) -> Result<u64> {
        let keys = self.keys();
        let mut parent: *mut R = &mut self.header.as_mut().root;
        let mut depth = 0usize;
        let rsize = std::mem::size_of::<R>();
        loop {
            let cur = (*parent).load_at_rest() as *mut NodeHead;
            if cur.is_null() {
                // Empty slot (only ever the root): publish a fresh leaf.
                ctx.log(keys.addr(), 8)?;
                ctx.log(parent as usize, rsize)?;
                let block = ctx.alloc(&self.arena, leaf_size(key.len()))?;
                ctx.fence();
                let leaf = Self::new_leaf(ctx, block, key);
                (*parent).store(leaf as usize);
                ctx.persist(parent as usize, rsize);
                break;
            }
            if (*cur).kind == KIND_LEAF {
                let leaf = cur as *mut Leaf;
                // The leaf is never edited by this operation.
                let lk = Leaf::key(leaf);
                if lk == key {
                    // Lazy-expanded hit: bump the occurrence count.
                    let caddr = std::ptr::addr_of_mut!((*leaf).count);
                    let first = *caddr == 0;
                    if first {
                        ctx.log(keys.addr(), 8)?;
                    }
                    ctx.log(caddr as usize, 8)?;
                    ctx.fence();
                    *caddr += 1;
                    ctx.persist(caddr as usize, 8);
                    if !first {
                        return Ok(*caddr);
                    }
                    break;
                }
                // Leaf split: a Node4 over the diverging byte, the old
                // leaf untouched (it already stores its full key).
                let m = lcp(&lk[depth..], &key[depth..]);
                ctx.log(keys.addr(), 8)?;
                ctx.log(parent as usize, rsize)?;
                let (split, fresh) = self.alloc_split(ctx, key.len())?;
                ctx.fence();
                let split = Self::new_inner(split, KIND_NODE4, &key[depth..depth + m]);
                let fresh = Self::new_leaf(ctx, fresh, key);
                Self::add_child_raw(split, branch_byte(lk, depth + m), cur as usize);
                Self::add_child_raw(split, branch_byte(key, depth + m), fresh as usize);
                ctx.persist(split as usize, node_size::<R>(KIND_NODE4));
                (*parent).store(split as usize);
                ctx.persist(parent as usize, rsize);
                break;
            }
            // Inner node: match its compressed prefix.
            let plen = (*cur).klen as usize;
            let prefix = &(&(*cur).kbytes)[..plen];
            let m = lcp(prefix, &key[depth..]);
            if m < plen {
                // Prefix split: new Node4 over the shared head; the
                // existing node keeps its tail (trimmed in place, undo
                // logged) and is re-linked under its diverging byte.
                ctx.log(keys.addr(), 8)?;
                ctx.log(cur as usize, std::mem::size_of::<NodeHead>())?;
                ctx.log(parent as usize, rsize)?;
                let (split, fresh) = self.alloc_split(ctx, key.len())?;
                ctx.fence();
                let split = Self::new_inner(split, KIND_NODE4, &prefix[..m]);
                let fresh = Self::new_leaf(ctx, fresh, key);
                Self::add_child_raw(split, prefix[m], cur as usize);
                Self::add_child_raw(split, branch_byte(key, depth + m), fresh as usize);
                ctx.persist(split as usize, node_size::<R>(KIND_NODE4));
                // The node keeps the bytes after its diverging one; the
                // split already copied those before it.
                (*cur).kbytes.copy_within(m + 1..plen, 0);
                (*cur).klen = (plen - m - 1) as u8;
                ctx.persist(cur as usize, std::mem::size_of::<NodeHead>());
                (*parent).store(split as usize);
                ctx.persist(parent as usize, rsize);
                break;
            }
            depth += plen;
            let b = branch_byte(key, depth);
            match Self::find_child(cur, b) {
                Some(slot) => {
                    parent = slot;
                    depth += 1;
                }
                None => {
                    ctx.log(keys.addr(), 8)?;
                    let kind = (*cur).kind;
                    if ((*cur).nkeys as usize) < node_capacity(kind) {
                        ctx.log(cur as usize, node_size::<R>(kind))?;
                        let leaf = ctx.alloc(&self.arena, leaf_size(key.len()))?;
                        ctx.fence();
                        let fresh = Self::new_leaf(ctx, leaf, key);
                        Self::add_child_raw(cur, b, fresh as usize);
                        ctx.persist(cur as usize, node_size::<R>(kind));
                    } else {
                        // The outgrown node is freed in the same batch:
                        // unreachable once the parent slot names its
                        // successor.
                        ctx.log(parent as usize, rsize)?;
                        let leaf = ctx.alloc(&self.arena, leaf_size(key.len()))?;
                        let block = ctx.alloc(&self.arena, node_size::<R>(kind + 1))?;
                        ctx.free(cur as *mut u8, node_size::<R>(kind))?;
                        ctx.fence();
                        let fresh = Self::new_leaf(ctx, leaf, key);
                        let grown = Self::grow(block, cur);
                        Self::add_child_raw(grown, b, fresh as usize);
                        ctx.persist(grown as usize, node_size::<R>((*grown).kind));
                        (*parent).store(grown as usize);
                        ctx.persist(parent as usize, rsize);
                    }
                    break;
                }
            }
        }
        // A new key, or a first occurrence on a count-0 leaf.
        keys.write(keys.read() + 1);
        ctx.persist(keys.addr(), 8);
        Ok(1)
    }

    /// Inserts `key` non-transactionally: the body of
    /// [`PArt::insert_tx`], making the same stores in the same order with
    /// no undo log, no flush and no crash atomicity. Returns the key's
    /// new occurrence count.
    ///
    /// # Errors
    ///
    /// [`PdsError::WordTooLong`] for empty or over-[`MAX_KEY`] keys,
    /// [`PdsError::BadCharacter`] for NUL bytes; allocation failures.
    pub fn insert(&mut self, key: &str) -> Result<u64> {
        self.insert_with(key, RawCtx::default)
    }

    /// The insertion body's entry: `begin` opens the context once the key
    /// is known valid.
    fn insert_with<C: Ctx>(&mut self, key: &str, begin: impl FnOnce() -> C) -> Result<u64> {
        let k = key_bytes(key)?;
        let mut ctx = begin();
        // SAFETY: see insert_inner; `&mut self` serializes mutation.
        let n = unsafe { self.insert_inner(&mut ctx, k) }?;
        ctx.finish(&self.arena)?;
        Ok(n)
    }

    /// Inserts every key from an iterator.
    ///
    /// # Errors
    ///
    /// As [`PArt::insert`].
    pub fn extend<'a, I: IntoIterator<Item = &'a str>>(&mut self, keys: I) -> Result<()> {
        for k in keys {
            self.insert(k)?;
        }
        Ok(())
    }

    /// Transactional insert through `store`'s undo log: a crash either
    /// keeps the whole insertion (fresh nodes, link store, key count) or
    /// reverts it at the next attach. Returns the new occurrence count.
    ///
    /// # Errors
    ///
    /// As [`PArt::insert`], plus logging failures.
    pub fn insert_tx(&mut self, store: &ObjectStore, key: &str) -> Result<u64> {
        self.insert_with(key, || TxCtx::begin(store))
    }

    /// Transactionally removes one occurrence of `key` (decrements its
    /// leaf counter, and for the last one the header's key count). The
    /// tree never prunes, like the letter trie. Returns whether an
    /// occurrence was removed; a key with none begins no transaction.
    ///
    /// # Errors
    ///
    /// Logging failures.
    pub fn remove_tx(&mut self, store: &ObjectStore, key: &str) -> Result<bool> {
        let Ok(k) = key_bytes(key) else {
            return Ok(false);
        };
        // SAFETY: read-only descent at rest (`&mut self` excludes other
        // writers of the structure); counter edits undo-logged as one
        // batch before the first of them.
        unsafe {
            let Some(leaf) = self.find_leaf(k, R::load_at_rest) else {
                return Ok(false);
            };
            if (*leaf).count == 0 {
                return Ok(false);
            }
            let caddr = std::ptr::addr_of_mut!((*leaf).count);
            let keys = self.keys();
            let last = *caddr == 1;
            let mut ctx = TxCtx::begin(store);
            ctx.log(caddr as usize, 8)?;
            if last {
                ctx.log(keys.addr(), 8)?;
            }
            ctx.fence();
            *caddr -= 1;
            ctx.persist(caddr as usize, 8);
            if last {
                keys.write(keys.read() - 1);
                ctx.persist(keys.addr(), 8);
            }
            ctx.finish(&self.arena)?;
        }
        Ok(true)
    }

    /// Descends to the leaf holding exactly `key`, decoding every link
    /// with `load`: [`PtrRepr::load`] on the read path,
    /// [`PtrRepr::load_at_rest`] on a mutation's.
    ///
    /// # Safety
    ///
    /// The tree's regions are open and no other thread writes it, and
    /// `load` decodes a link of this tree to its target's mapped address
    /// (0 for null) in the tree's current state.
    #[inline]
    unsafe fn find_leaf(&self, key: &[u8], load: impl Fn(&R) -> usize) -> Option<*mut Leaf> {
        let mut cur = load(&self.header.as_ref().root) as *mut NodeHead;
        let mut depth = 0usize;
        while !cur.is_null() {
            if (*cur).kind == KIND_LEAF {
                let leaf = cur as *mut Leaf;
                return (Leaf::key(leaf) == key).then_some(leaf);
            }
            let plen = (*cur).klen as usize;
            if lcp(&(&(*cur).kbytes)[..plen], &key[depth.min(key.len())..]) < plen {
                return None;
            }
            depth += plen;
            cur = load(&*Self::find_child(cur, branch_byte(key, depth))?) as *mut NodeHead;
            depth += 1;
        }
        None
    }

    /// Number of times `key` was inserted (0 if absent).
    pub fn count(&self, key: &str) -> u64 {
        let Ok(k) = key_bytes(key) else { return 0 };
        // SAFETY: links resolve to live nodes while regions are open.
        unsafe { self.find_leaf(k, R::load).map_or(0, |leaf| (*leaf).count) }
    }

    /// Whether `key` is present (occurrence count > 0).
    pub fn contains(&self, key: &str) -> bool {
        self.count(key) > 0
    }

    /// Every present key starting with `prefix`, sorted. An empty prefix
    /// scans the whole tree.
    ///
    /// # Errors
    ///
    /// As [`PArt::prefix_scan_each`].
    pub fn prefix_scan(&self, prefix: &str) -> Result<Vec<String>> {
        let mut out = Vec::new();
        self.prefix_scan_each(prefix, |k| out.push(k.to_string()))?;
        Ok(out)
    }

    /// Calls `visit` with every present key starting with `prefix`, in
    /// sorted order, and returns how many there were. An empty prefix
    /// scans the whole tree. Allocates nothing: the walk is in order, so
    /// no key is copied and nothing is sorted afterwards.
    ///
    /// The descent skips whole subtrees whose compressed prefix diverges
    /// from the query — the destination-flush discipline's read twin:
    /// only nodes on the query path and the matching subtree are touched.
    ///
    /// # Errors
    ///
    /// [`PdsError::WordTooLong`] / [`PdsError::BadCharacter`] for
    /// over-long or NUL-carrying prefixes.
    pub fn prefix_scan_each(&self, prefix: &str, mut visit: impl FnMut(&str)) -> Result<usize> {
        let p = prefix.as_bytes();
        if p.len() > MAX_KEY {
            return Err(PdsError::WordTooLong(prefix.to_string()));
        }
        if p.contains(&0) {
            return Err(PdsError::BadCharacter('\0'));
        }
        let mut n = 0;
        // SAFETY: as in count.
        unsafe {
            let root = self.header.as_ref().root.load() as *const NodeHead;
            if !root.is_null() {
                self.scan_node(root, 0, p, &mut |k| {
                    n += 1;
                    visit(k)
                });
            }
        }
        Ok(n)
    }

    /// Recursive in-order scan helper: `depth` bytes of `prefix` are
    /// already matched above `n`.
    unsafe fn scan_node(
        &self,
        n: *const NodeHead,
        depth: usize,
        prefix: &[u8],
        visit: &mut dyn FnMut(&str),
    ) {
        if (*n).kind == KIND_LEAF {
            let leaf = n as *const Leaf;
            let lk = Leaf::key(leaf);
            if (*leaf).count > 0 && lk.starts_with(prefix) {
                if let Ok(s) = std::str::from_utf8(lk) {
                    visit(s);
                }
            }
            return;
        }
        let plen = (*n).klen as usize;
        let node_prefix = &(&(*n).kbytes)[..plen];
        let want = &prefix[depth.min(prefix.len())..];
        if want.len() <= plen {
            // Query exhausted inside (or exactly at) this node's prefix:
            // the whole subtree matches iff the stored prefix extends it.
            if &node_prefix[..want.len()] != want {
                return;
            }
            Self::for_each_child(n as *mut NodeHead, |_, slot| {
                let target = (*slot).load() as *const NodeHead;
                self.scan_node(target, depth + plen + 1, prefix, visit)
            });
            return;
        }
        if node_prefix != &want[..plen] {
            return;
        }
        let d = depth + plen;
        let b = prefix[d];
        if let Some(slot) = Self::find_child(n as *mut NodeHead, b) {
            self.scan_node((*slot).load() as *const NodeHead, d + 1, prefix, visit);
        }
    }

    /// The address of every block the tree holds: its header and every
    /// node reachable from its root, in the order [`PArt::stats`] walks
    /// them. The crash matrices' leak oracle compares them with the
    /// region's allocated blocks.
    /// Panics on a fault [`check_invariants`](Self::check_invariants) names.
    pub fn blocks(&self) -> Vec<usize> {
        let mut out = vec![self.header.addr()];
        expect_sound(self.walk(|n| out.push(n)));
        out
    }

    /// Calls `visit` with the branch byte and slot of every child of inner
    /// node `n`, in ascending branch-byte order. Node4/Node16 bytes sit in
    /// insertion order, so their slots are sorted in a stack array first;
    /// Node48/Node256 go byte by byte.
    unsafe fn for_each_child(n: *mut NodeHead, mut visit: impl FnMut(u8, *mut R)) {
        let (keys, children): (&[u8], *mut R) = match (*n).kind {
            KIND_NODE4 => {
                let p = n as *mut Node4<R>;
                (&(*p).keys, (*p).children.as_mut_ptr())
            }
            KIND_NODE16 => {
                let p = n as *mut Node16<R>;
                (&(*p).keys, (*p).children.as_mut_ptr())
            }
            KIND_NODE48 => {
                // `EMPTY48`, and a rotted index past the slots, name none.
                let p = n as *mut Node48<R>;
                for (b, &i) in (*p).index.iter().enumerate() {
                    if let Some(slot) = (*p).children.get_mut(i as usize) {
                        visit(b as u8, slot);
                    }
                }
                return;
            }
            _ => {
                let p = n as *mut Node256<R>;
                for (b, slot) in (*p).children.iter_mut().enumerate() {
                    if !slot.is_null() {
                        visit(b as u8, slot);
                    }
                }
                return;
            }
        };
        let len = ((*n).nkeys as usize).min(keys.len());
        let mut order: [u8; 16] = std::array::from_fn(|i| i as u8);
        order[..len].sort_unstable_by_key(|&i| keys[i as usize]);
        for &i in &order[..len] {
            visit(keys[i as usize], children.add(i as usize));
        }
    }

    /// The tree's one full walk ([`walk::tree`] under [`Checked`]): calls
    /// `visit` with the address of every node reachable from the root
    /// and counts what it passes. Cycle-guarded by a visited set, and
    /// every node is checked before its children are followed, so it is
    /// safe on a damaged image.
    fn walk(&self, mut visit: impl FnMut(usize)) -> std::result::Result<ArtStats, String> {
        let (mut stats, mut seen) = (ArtStats::default(), std::collections::HashSet::new());
        let (follow, mut extent) = (Checked::default(), Checked::default());
        // SAFETY: the header lies in the home region (`attach` checked
        // it); `Checked` vouches for every link, and `node` for the rest.
        unsafe {
            let root = &mut self.header.as_mut().root;
            // A node's context: its byte depth, and its hops below the root.
            walk::tree(follow, root, (0, 0), |n: *mut Leaf, at, links| {
                let addr = n as usize;
                visit(addr);
                let checked = match seen.insert(addr) {
                    true => Self::node(n, at, links, &mut stats, &mut extent),
                    false => Err("reached twice (cycle or shared link)".into()),
                };
                checked.map_err(|e| format!("node {addr:#x}: {e}"))
            })?;
        }
        Ok(stats)
    }

    /// Checks and counts node `n`, which the walk reached at byte depth
    /// `depth`, `hops` links below the root, and pushes its child links. The
    /// node's whole extent must fit its region before any field past its
    /// kind and key length is read.
    ///
    /// # Safety
    ///
    /// A leaf's fixed fields at `n` lie in an open region, and no other
    /// thread writes the tree.
    unsafe fn node(
        n: *mut Leaf,
        (depth, hops): (usize, usize),
        links: &mut Vec<(*mut R, (usize, usize))>,
        stats: &mut ArtStats,
        extent: &mut Checked,
    ) -> Walked {
        let (kind, klen) = ((*n).kind, (*n).klen as usize);
        if depth > MAX_KEY + 1 {
            return Err(format!("byte depth {depth} > {}", MAX_KEY + 1));
        }
        let Some(name) = ART_KIND_NAMES.get(kind as usize) else {
            return Err(format!("invalid kind {kind}"));
        };
        let size = match kind {
            KIND_LEAF => leaf_size(klen),
            _ => node_size::<R>(kind),
        };
        if !extent.fits(n as usize, size, 1) {
            return Err(format!("a {name} of {size} bytes past the committed end"));
        }
        stats.nodes += 1;
        stats.kinds[kind as usize] += 1;
        stats.bytes += size as u64;
        if kind == KIND_LEAF {
            if !(depth.saturating_sub(1).max(1)..=MAX_KEY).contains(&klen) {
                return Err(format!("a leaf of key length {klen} at path depth {depth}"));
            }
            stats.keys += ((*n).count > 0) as u64;
            let hist = &mut stats.depth_hist;
            hist.resize(hist.len().max(hops + 1), 0);
            hist[hops] += 1;
            return Ok(());
        }
        let nkeys = (*n.cast::<NodeHead>()).nkeys as usize;
        if !(2..=node_capacity(kind)).contains(&nkeys) {
            return Err(format!("a {name} holding {nkeys} children"));
        }
        let (mut found, mut null) = (0, false);
        Self::for_each_child(n.cast(), |_, slot| {
            found += 1;
            null |= (*slot).is_null();
            links.push((slot, (depth + klen + 1, hops + 1)));
        });
        match (null, found == nkeys) {
            (true, _) => Err("links a null child".into()),
            (_, false) => Err(format!("{found} children in slots, {nkeys} in head")),
            _ => Ok(()),
        }
    }

    /// Counts the tree in one walk. Of these counts only `keys` is
    /// persisted (in the header); nodes, bytes, kinds and depths exist
    /// only here.
    ///
    /// # Errors
    ///
    /// As [`PArt::check_invariants`] for structural faults.
    pub fn stats(&self) -> std::result::Result<ArtStats, String> {
        self.walk(|_| ())
    }

    /// Fails unless the walk counted the header's number of keys.
    fn keys_agree(&self, stats: &ArtStats) -> std::result::Result<(), String> {
        let keys = self.key_count();
        if stats.keys != keys {
            return Err(format!("header keys {keys} but walk found {}", stats.keys));
        }
        Ok(())
    }

    /// Structural invariant check for recovery tests: the cycle-guarded
    /// walk must cross the whole tree, every inner node must hold
    /// 2..=capacity children, every leaf a plausible key, and the walk's
    /// key count must be the header's.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        self.keys_agree(&self.stats()?)
    }

    /// Recovery pass: recomputes the header's key count from the walk and
    /// persists it. The link structure itself is already crash-consistent
    /// (single-link publishes under the undo log); this repairs a count
    /// that drifted, e.g. after salvage of a damaged image. Returns the
    /// number of header fields corrected (0 or 1).
    ///
    /// # Errors
    ///
    /// A description of a structural fault the walk cannot cross.
    pub fn recover(&mut self) -> std::result::Result<u64, String> {
        let stats = self.stats()?;
        if self.keys_agree(&stats).is_ok() {
            return Ok(0);
        }
        // SAFETY: header mapped; `&mut self` excludes other writers.
        unsafe { self.keys().write(stats.keys) };
        self.keys().persist(8);
        Ok(1)
    }
}

/// What one walk of a [`PArt`] counts ([`PArt::stats`]).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ArtStats {
    /// Distinct present keys (leaves with an occurrence count > 0).
    pub keys: u64,
    /// Reachable nodes.
    pub nodes: u64,
    /// Bytes of the reachable nodes (the header excluded).
    pub bytes: u64,
    /// Reachable nodes per kind, indexed like [`ART_KIND_NAMES`].
    pub kinds: [u64; 5],
    /// Leaf node-hop depth histogram (`depth_hist[d]` = leaves `d` links
    /// below the root): the path-compression win `nvr_inspect index`
    /// reports.
    pub depth_hist: Vec<u64>,
}

// -- offline inspection --------------------------------------------------------

/// Offline decode of a persisted ART root, repr-dispatched through the
/// header fingerprint — the engine behind `nvr_inspect index`.
#[derive(Debug)]
pub struct ArtIndexReport {
    /// Pointer representation the index was built with.
    pub repr: &'static str,
    /// The header's persistent key count.
    pub keys: u64,
    /// What the walk counted (all zero when it stopped at a fault).
    pub stats: ArtStats,
    /// `check_invariants` outcome (`None` = clean).
    pub problem: Option<String>,
}

fn report_for<R: PtrRepr>(arena: NodeArena, root: &str) -> Result<ArtIndexReport> {
    let art: PArt<R> = PArt::attach(arena, root)?;
    let walked = art.stats();
    let problem = walked
        .as_ref()
        .map_or_else(|e| Some(e.clone()), |s| art.keys_agree(s).err());
    Ok(ArtIndexReport {
        repr: R::NAME,
        keys: art.key_count(),
        stats: walked.unwrap_or_default(),
        problem,
    })
}

/// Decodes the ART published under `root` in an open `region`,
/// dispatching on the representation fingerprint the header carries.
///
/// # Errors
///
/// [`PdsError::RootMissing`] when the root is absent, is no ART, or its
/// fingerprint matches no known representation; the region's error
/// naming the tag when it is an ART of another format.
pub fn inspect_index(region: &nvmsim::Region, root: &str) -> Result<ArtIndexReport> {
    // Every ART format's tag opens with `PDSART`; its last two bytes are
    // the format's version.
    let family = |tag: u64| tag & 0xFFFF_FFFF_FFFF;
    if region.root_tag(root).map(family) != Some(family(ART_ROOT_TAG)) {
        return Err(PdsError::RootMissing("art header"));
    }
    // `attach` refuses another version by its tag; the fingerprint check
    // picks the representation among the candidates.
    let candidates: [fn(NodeArena, &str) -> Result<ArtIndexReport>; 5] = [
        report_for::<pi_core::OffHolder>,
        report_for::<pi_core::Riv>,
        report_for::<pi_core::FatPtrCached>,
        report_for::<pi_core::FatPtr>,
        report_for::<pi_core::NormalPtr>,
    ];
    for f in candidates {
        match f(NodeArena::raw(region.clone()), root) {
            Ok(r) => return Ok(r),
            Err(PdsError::RootMissing(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Err(PdsError::RootMissing(
        "art header (unknown repr fingerprint)",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::Region;
    use pi_core::{FatPtr, NormalPtr, OffHolder, Riv};

    const KEYS: &[&str] = &[
        "romane",
        "romanus",
        "romulus",
        "rubens",
        "ruber",
        "rubicon",
        "rubicundus",
        "car",
        "cart",
        "carter",
        "a",
    ];

    fn basic<R: PtrRepr>() {
        let region = Region::create(8 << 20).unwrap();
        let mut t: PArt<R> = PArt::new(NodeArena::raw(region.clone())).unwrap();
        t.extend(KEYS.iter().copied()).unwrap();
        assert_eq!(t.insert("car").unwrap(), 2);
        assert_eq!(t.key_count(), KEYS.len() as u64);
        assert_eq!(t.count("car"), 2);
        assert_eq!(t.count("cart"), 1);
        assert_eq!(t.count("ca"), 0, "interior prefix is not a key");
        assert_eq!(t.count("rubensx"), 0);
        assert!(t.contains("a") && !t.contains("b"));
        t.check_invariants().unwrap();
        let rom = t.prefix_scan("rom").unwrap();
        assert_eq!(rom, vec!["romane", "romanus", "romulus"]);
        let all = t.prefix_scan("").unwrap();
        assert_eq!(all.len(), KEYS.len());
        region.close().unwrap();
    }

    #[test]
    fn roundtrip_all_reprs() {
        basic::<NormalPtr>();
        basic::<OffHolder>();
        basic::<Riv>();
        basic::<FatPtr>();
    }

    /// Visits every key the tree holds after each insert, for the
    /// prefixes `""`, `"q"` and `"car"`, and compares the visit with the
    /// inserted words sorted independently.
    fn sorted_visit<R: PtrRepr>() {
        let region = Region::create(16 << 20).unwrap();
        let mut t: PArt<R> = PArt::new(NodeArena::raw(region.clone())).unwrap();
        // The node under "q" gets its branch bytes in descending order, so
        // it is unsorted as a Node4, a Node16 and a Node48 before it grows
        // into a Node256. "card" arrives before "car", whose terminator
        // byte must still come first.
        let mut words: Vec<String> = (0..60u8)
            .rev()
            .map(|i| format!("q{}x", (b'A' + i) as char))
            .collect();
        words.extend(["card", "car", "care", "ca"].map(String::from));
        let mut inserted = Vec::new();
        for w in &words {
            t.insert(w).unwrap();
            inserted.push(w.clone());
            inserted.sort();
            for prefix in ["", "q", "car"] {
                let mut seen = Vec::new();
                let n = t
                    .prefix_scan_each(prefix, |k| seen.push(k.to_string()))
                    .unwrap();
                let want: Vec<String> = inserted
                    .iter()
                    .filter(|k| k.starts_with(prefix))
                    .cloned()
                    .collect();
                assert_eq!(seen, want, "{} after {w}, prefix {prefix:?}", R::NAME);
                assert_eq!(n, want.len());
                assert_eq!(t.prefix_scan(prefix).unwrap(), seen);
            }
        }
        assert_eq!(t.stats().unwrap().kinds[KIND_NODE256 as usize], 1);
        assert_eq!(t.prefix_scan("car").unwrap(), ["car", "card", "care"]);
        region.close().unwrap();
    }

    #[test]
    fn prefix_scan_each_visits_in_sorted_order_for_every_repr() {
        sorted_visit::<NormalPtr>();
        sorted_visit::<OffHolder>();
        sorted_visit::<Riv>();
        sorted_visit::<FatPtr>();
        sorted_visit::<pi_core::FatPtrCached>();
    }

    #[test]
    fn adaptive_nodes_grow_through_every_kind() {
        let region = Region::create(16 << 20).unwrap();
        let mut t: PArt<Riv> = PArt::new(NodeArena::raw(region.clone())).unwrap();
        // 60 distinct second bytes under a shared first byte: the inner
        // node must walk Node4 -> Node16 -> Node48 -> Node256.
        let mut words = Vec::new();
        for i in 0..60u8 {
            words.push(format!("q{}tail", (b'A' + i) as char));
        }
        for (i, w) in words.iter().enumerate() {
            t.insert(w).unwrap();
            let kinds = t.stats().unwrap().kinds;
            match i + 1 {
                0..=4 => assert_eq!(kinds[KIND_NODE16 as usize], 0),
                5..=16 => assert!(kinds[KIND_NODE16 as usize] <= 1),
                _ => {}
            }
        }
        let kinds = t.stats().unwrap().kinds;
        assert_eq!(kinds[KIND_NODE256 as usize], 1, "{kinds:?}");
        assert_eq!(kinds[KIND_LEAF as usize], 60);
        t.check_invariants().unwrap();
        for w in &words {
            assert!(t.contains(w), "{w}");
        }
        assert_eq!(t.prefix_scan("q").unwrap().len(), 60);
        region.close().unwrap();
    }

    #[test]
    fn path_compression_keeps_deep_keys_shallow() {
        let region = Region::create(4 << 20).unwrap();
        let mut t: PArt<OffHolder> = PArt::new(NodeArena::raw(region.clone())).unwrap();
        t.insert("pneumonoultramicroscopicsilicovolcanoconiosis")
            .unwrap();
        t.insert("pneumonia").unwrap();
        // Two leaves under one Node4: 3 nodes total, depth 1.
        let stats = t.stats().unwrap();
        assert_eq!(stats.nodes, 3);
        assert_eq!(stats.depth_hist, vec![0, 2]);
        t.check_invariants().unwrap();
        region.close().unwrap();
    }

    #[test]
    fn rejects_bad_keys() {
        let region = Region::create(1 << 20).unwrap();
        let mut t: PArt<Riv> = PArt::new(NodeArena::raw(region.clone())).unwrap();
        assert!(matches!(t.insert(""), Err(PdsError::WordTooLong(_))));
        let long = "x".repeat(MAX_KEY + 1);
        assert!(matches!(t.insert(&long), Err(PdsError::WordTooLong(_))));
        assert!(matches!(
            t.insert("nul\0byte"),
            Err(PdsError::BadCharacter('\0'))
        ));
        assert_eq!(t.count(""), 0);
        region.close().unwrap();
    }

    #[test]
    fn persistence_roundtrip_at_new_address() {
        let dir = std::env::temp_dir().join(format!("pds-art-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("art.nvr");
        {
            let region = Region::create_file(&path, 8 << 20).unwrap();
            let mut t: PArt<OffHolder> =
                PArt::create_rooted(NodeArena::raw(region.clone()), "art").unwrap();
            t.extend(KEYS.iter().copied()).unwrap();
            region.close().unwrap();
        }
        let region = Region::open_file(&path).unwrap();
        let t: PArt<OffHolder> = PArt::attach(NodeArena::raw(region.clone()), "art").unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.key_count(), KEYS.len() as u64);
        assert_eq!(
            t.prefix_scan("rub").unwrap(),
            vec!["rubens", "ruber", "rubicon", "rubicundus"]
        );
        // Attach under the wrong representation is a typed error, not a
        // misdecode.
        assert!(matches!(
            PArt::<Riv>::attach(NodeArena::raw(region.clone()), "art"),
            Err(PdsError::RootMissing(_))
        ));
        let report = inspect_index(&region, "art").unwrap();
        assert_eq!(report.repr, "off-holder");
        assert_eq!(report.keys, KEYS.len() as u64);
        assert!(report.problem.is_none(), "{:?}", report.problem);
        // An index of the previous format is refused by its tag.
        let old = u64::from_le_bytes(*b"PDSART01");
        region.set_root_tagged("art", t.header_addr(), old).unwrap();
        let attached = PArt::<OffHolder>::attach(NodeArena::raw(region.clone()), "art");
        for e in [
            attached.unwrap_err(),
            inspect_index(&region, "art").unwrap_err(),
        ] {
            assert!(
                matches!(e, PdsError::Nv(nvmsim::NvError::BadImage(_))),
                "{e}"
            );
            assert!(e.to_string().contains("\"PDSART01\""), "{e}");
        }
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Bytes the region's allocator serves a `size`-byte request with.
    fn class_of(size: usize) -> u64 {
        nvmsim::alloc::CLASS_SIZES[nvmsim::alloc::class_for(size).unwrap()] as u64
    }

    /// A `len`-byte key under a branch byte of its own (`0x3f + len`).
    fn key_of_len(len: usize) -> String {
        format!("{}{}", (0x3f + len as u8) as char, "x".repeat(len - 1))
    }

    #[test]
    fn a_leaf_is_sized_to_its_key_at_every_length() {
        for (len, block) in [(16, 32), (17, 48), (32, 48), (33, 64), (48, 64), (49, 96)] {
            assert_eq!(class_of(leaf_size(len)), block, "class edge at {len} bytes");
        }
        let dir = std::env::temp_dir().join(format!("pds-art-len-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("art.nvr");
        let region = Region::create_file(&path, 8 << 20).unwrap();
        let store = pstore::ObjectStore::format(&region).unwrap();
        let arena = NodeArena::transactional(store.clone());
        let mut t: PArt<OffHolder> = PArt::create_rooted(arena, "art").unwrap();
        // 49 one-byte keys under control bytes make the root a Node256,
        // so each key below allocates its leaf and nothing else.
        for b in 1..=49u8 {
            t.insert_tx(&store, std::str::from_utf8(&[b]).unwrap())
                .unwrap();
        }
        assert_eq!(t.stats().unwrap().kinds[KIND_NODE256 as usize], 1);
        let keys: Vec<String> = (1..=MAX_KEY).map(key_of_len).collect();
        for k in &keys {
            let before = region.stats().live_bytes;
            assert_eq!(t.insert_tx(&store, k).unwrap(), 1);
            let grown = region.stats().live_bytes - before;
            assert_eq!(grown, class_of(16 + k.len()), "{}-byte key", k.len());
            assert_eq!(t.count(k), 1);
            assert_eq!(t.prefix_scan(k).unwrap(), [k.as_str()]);
            t.check_invariants().unwrap();
        }
        // Keys of odd length lose their occurrence.
        for k in keys.iter().step_by(2) {
            assert!(t.remove_tx(&store, k).unwrap());
        }
        t.check_invariants().unwrap();
        let base = region.base();
        region.close().unwrap();
        let region = Region::open_file_avoiding(&path, base).unwrap();
        assert_ne!(region.base(), base);
        let store = pstore::ObjectStore::attach(&region).unwrap();
        let t: PArt<OffHolder> = PArt::attach(NodeArena::transactional(store), "art").unwrap();
        t.check_invariants().unwrap();
        for k in &keys {
            assert_eq!(t.count(k), 1 - k.len() as u64 % 2, "{}-byte key", k.len());
        }
        // The test keys sort by their first byte, so by length, after the
        // 49 control-byte keys.
        let even: Vec<&str> = keys.iter().skip(1).step_by(2).map(String::as_str).collect();
        assert_eq!(t.prefix_scan("").unwrap()[49..], even);
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transactional_ops_roundtrip_and_recover_counts() {
        let region = Region::create(8 << 20).unwrap();
        let store = pstore::ObjectStore::format(&region).unwrap();
        let mut t: PArt<Riv> = PArt::new(NodeArena::transactional(store.clone())).unwrap();
        for k in KEYS {
            assert_eq!(t.insert_tx(&store, k).unwrap(), 1);
        }
        assert_eq!(t.insert_tx(&store, "car").unwrap(), 2);
        assert!(t.remove_tx(&store, "car").unwrap());
        assert!(t.remove_tx(&store, "car").unwrap());
        assert!(!t.remove_tx(&store, "car").unwrap(), "count exhausted");
        assert!(!t.remove_tx(&store, "absent").unwrap());
        assert_eq!(t.key_count(), KEYS.len() as u64 - 1);
        assert!(!t.contains("car") && t.contains("cart"));
        t.check_invariants().unwrap();
        assert_eq!(t.recover().unwrap(), 0, "clean header needs no repair");
        region.close().unwrap();
    }

    /// The header words between `keys` and `repr_fp` held node, byte and
    /// kind counters in images written before the walk counted them.
    /// Whatever they hold, nothing reads them and no write stores to them.
    #[test]
    fn retired_header_words_are_ignored() {
        let region = Region::create(8 << 20).unwrap();
        let store = pstore::ObjectStore::format(&region).unwrap();
        let arena = || NodeArena::transactional(store.clone());
        let mut t: PArt<OffHolder> = PArt::create_rooted(arena(), "art").unwrap();
        for k in KEYS {
            t.insert_tx(&store, k).unwrap();
        }
        let rsize = std::mem::size_of::<OffHolder>();
        let start = t.header_addr() + rsize + 8;
        let len = std::mem::size_of::<ArtHeader<OffHolder>>() - rsize - 16;
        assert_eq!(len, 7 * 8);
        // SAFETY: test-only access to the mapped header's padding.
        let retired = || unsafe { std::slice::from_raw_parts_mut(start as *mut u8, len) };
        for fill in [0x00, 0xFF] {
            retired().fill(fill);
            let walk = t.stats().unwrap();
            let attached: PArt<OffHolder> = PArt::attach(arena(), "art").unwrap();
            attached.check_invariants().unwrap();
            assert_eq!(attached.stats().unwrap(), walk);
            let report = inspect_index(&region, "art").unwrap();
            assert!(report.problem.is_none(), "{fill:#x}: {:?}", report.problem);
            assert_eq!((report.keys, &report.stats), (walk.keys, &walk));
            assert_eq!(t.insert_tx(&store, "retired").unwrap(), 1);
            assert!(t.remove_tx(&store, "retired").unwrap());
            assert!(
                retired().iter().all(|&b| b == fill),
                "{fill:#x}: a write stored into a retired word"
            );
        }
        t.check_invariants().unwrap();
        region.close().unwrap();
    }

    /// A Node48 index byte rotted past the 48 slots names no child: the
    /// walk counts fewer children than the node's head and refuses it,
    /// where indexing the slots with it would panic.
    #[test]
    fn a_rotted_node48_index_is_an_err() {
        let region = Region::create(8 << 20).unwrap();
        let mut t: PArt<OffHolder> =
            PArt::create_rooted(NodeArena::raw(region.clone()), "art").unwrap();
        for i in 0..20u8 {
            t.insert(&format!("q{}x", (b'A' + i) as char)).unwrap();
        }
        // SAFETY (both): test-only reads and one write of mapped nodes.
        let kind = |a: &usize| unsafe { *(*a as *const u8) };
        let node48 = t
            .blocks()
            .into_iter()
            .skip(1)
            .find(|a| kind(a) == KIND_NODE48);
        let index = (node48.expect("a Node48") + std::mem::size_of::<NodeHead>()) as *mut u8;
        unsafe { *index.add(b'A' as usize) = 200 };
        let checked = t.check_invariants();
        assert!(
            matches!(&checked, Err(e) if e.contains("in slots")),
            "{checked:?}"
        );
        let report = inspect_index(&region, "art").unwrap();
        assert!(report.problem.is_some_and(|p| p.contains("in slots")));
        region.close().unwrap();
    }

    #[test]
    fn recover_repairs_counter_drift() {
        let region = Region::create(4 << 20).unwrap();
        let mut t: PArt<OffHolder> = PArt::new(NodeArena::raw(region.clone())).unwrap();
        t.extend(["alpha", "beta", "gamma"]).unwrap();
        // SAFETY: test-only corruption of the mapped header.
        unsafe { t.keys().write(99) };
        assert!(t.check_invariants().is_err());
        assert_eq!(t.recover().unwrap(), 1);
        t.check_invariants().unwrap();
        assert_eq!(t.key_count(), 3);
        region.close().unwrap();
    }
}
