//! Letter trie, generic over the pointer representation.
//!
//! The paper's trie (Section 6.1): "an ordered tree data structure used to
//! store a dynamic set or associative array where the keys are usually
//! strings ... Each node is a letter, and each path from the root to a
//! leaf node represents an English word. Two words sharing the same prefix
//! share the same subpath."
//!
//! Nodes carry 26 child slots (`a`–`z`), a word-terminal counter, and the
//! same fixed payload as the other structures so per-node footprints are
//! comparable.

use crate::arena::NodeArena;
use crate::ctx::{Ctx, RawCtx, TxCtx};
use crate::error::{PdsError, Result};
use crate::walk::{self, expect_sound, Checked, Follow, Walked};
use nvmsim::NvRef;
use pi_core::{PtrRepr, SwizzledPtr};
use pstore::ObjectStore;

/// Root type tag recorded by `create_rooted` and validated by `attach`.
pub const TRIE_ROOT_TAG: u64 = u64::from_le_bytes(*b"PDSTRIE1");

/// Alphabet size (`a`–`z`).
pub const ALPHABET: usize = 26;

/// Persistent trie header (lives in the home region).
#[repr(C)]
#[derive(Debug, Default)]
pub struct TrieHeader<R: PtrRepr> {
    root: R,
    words: u64,
    nodes: u64,
}

/// A trie node: 26 child slots, terminal count, payload.
#[repr(C)]
#[derive(Debug)]
pub struct TrieNode<R: PtrRepr, const P: usize> {
    pub(crate) children: [R; ALPHABET],
    /// Number of times a word ending at this node was inserted.
    count: u64,
    payload: [u8; P],
}

fn index_of(c: u8) -> Result<usize> {
    if c.is_ascii_lowercase() {
        Ok((c - b'a') as usize)
    } else {
        Err(PdsError::BadCharacter(c as char))
    }
}

/// Persistent letter trie. See the module docs.
#[derive(Debug)]
pub struct PTrie<R: PtrRepr, const P: usize = 32> {
    arena: NodeArena,
    header: NvRef<TrieHeader<R>>,
}

impl<R: PtrRepr, const P: usize> PTrie<R, P> {
    /// A zeroed node allocated through `ctx`; unreachable (and not
    /// counted in the header) until the caller publishes it.
    fn fresh_node<C: Ctx>(arena: &NodeArena, ctx: &mut C) -> Result<*mut TrieNode<R, P>> {
        let n = ctx.alloc(arena, std::mem::size_of::<TrieNode<R, P>>())? as *mut TrieNode<R, P>;
        // SAFETY: freshly allocated, exclusively owned.
        unsafe {
            for j in 0..ALPHABET {
                (*n).children[j] = R::null();
            }
            (*n).count = 0;
            (*n).payload = [0; P];
        }
        Ok(n)
    }

    /// Creates an empty trie whose header lives in the home region.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn new(arena: NodeArena) -> Result<PTrie<R, P>> {
        Self::create(arena, None)
    }

    /// Creates an empty trie published as a named root.
    ///
    /// # Errors
    ///
    /// Allocation or root-registration failures.
    pub fn create_rooted(arena: NodeArena, root: &str) -> Result<PTrie<R, P>> {
        Self::create(arena, Some((root, TRIE_ROOT_TAG)))
    }

    fn create(arena: NodeArena, root: Option<(&str, u64)>) -> Result<PTrie<R, P>> {
        let header = arena.new_header(root, |h: NvRef<TrieHeader<R>>| {
            // Allocate the root eagerly so insertion never mutates the
            // header pointer afterwards.
            let root = Self::fresh_node(&arena, &mut RawCtx::default())?;
            // SAFETY: the fresh header is this call's alone.
            let h = unsafe { h.as_mut() };
            h.root.store(root as usize);
            h.nodes = 1;
            Ok(())
        })?;
        Ok(PTrie { arena, header })
    }

    /// Attaches to a previously persisted trie by root name.
    ///
    /// # Errors
    ///
    /// [`PdsError::RootMissing`] when the root is absent.
    pub fn attach(arena: NodeArena, root: &str) -> Result<PTrie<R, P>> {
        let header = arena.root_header(root, TRIE_ROOT_TAG, "trie header")?;
        Ok(PTrie { arena, header })
    }

    /// Total insertions (words, counting repeats).
    pub fn word_count(&self) -> u64 {
        // SAFETY: header is mapped while the arena's regions are open.
        unsafe { self.header.as_ref() }.words
    }

    /// Number of trie nodes allocated.
    pub fn node_count(&self) -> u64 {
        // SAFETY: as in `word_count`.
        unsafe { self.header.as_ref() }.nodes
    }

    /// The arena nodes are placed in.
    pub fn arena(&self) -> &NodeArena {
        &self.arena
    }

    /// Address of the persistent header.
    pub fn header_addr(&self) -> usize {
        self.header.addr()
    }

    /// Inserts a lowercase word, creating nodes along its path: the body
    /// of [`PTrie::insert_tx`], making the same stores in the same order
    /// with no undo log, no flush and no crash atomicity. Returns the
    /// word's new occurrence count; a rejected word changes nothing.
    ///
    /// # Errors
    ///
    /// [`PdsError::BadCharacter`] for characters outside `a-z`;
    /// allocation failures.
    pub fn insert(&mut self, word: &str) -> Result<u64> {
        self.insert_with(word, RawCtx::default)
    }

    /// The one insertion body. The whole word is validated before
    /// anything is allocated; the missing tail of its path is built beside
    /// the trie and published by one store into the deepest existing node,
    /// so the write set — the counters and that slot, or the terminal
    /// count when the whole path exists — is logged before the first
    /// store.
    fn insert_with<C: Ctx>(&mut self, word: &str, begin: impl FnOnce() -> C) -> Result<u64> {
        if word.is_empty() {
            return Err(PdsError::WordTooLong(String::new()));
        }
        let path = word.as_bytes();
        for &c in path {
            index_of(c)?;
        }
        let slot_of = |c: u8| (c - b'a') as usize;
        // SAFETY: slots navigated in place (`&mut self` excludes other
        // writers of the structure); fresh path nodes are unreachable
        // until the one slot publish, which the context logs; counters
        // logged before mutation.
        unsafe {
            let (cur, depth) = self.find_node(path, R::load_at_rest);
            let mut ctx = begin();
            // words and nodes are adjacent header fields: one snapshot
            // covers every counter this insert touches.
            let counters = &mut self.header.as_mut().words as *mut u64;
            ctx.log(counters as usize, 16)?;
            let new_count = if depth == path.len() {
                let count_addr = std::ptr::addr_of_mut!((*cur).count);
                ctx.log(count_addr as usize, 8)?;
                ctx.fence();
                *count_addr += 1;
                ctx.persist(count_addr as usize, 8);
                *count_addr
            } else {
                let slot: *mut R = &mut (*cur).children[slot_of(path[depth])];
                ctx.log(slot as usize, std::mem::size_of::<R>())?;
                // Each fresh node is linked into its (still unreachable)
                // parent, which is then persisted; the last one is the
                // word's terminal.
                let node_size = std::mem::size_of::<TrieNode<R, P>>();
                let first = Self::fresh_node(&self.arena, &mut ctx)?;
                let mut last = first;
                for &c in &path[depth + 1..] {
                    let n = Self::fresh_node(&self.arena, &mut ctx)?;
                    (*last).children[slot_of(c)].store(n as usize);
                    ctx.persist(last as usize, node_size);
                    last = n;
                }
                (*last).count = 1;
                ctx.persist(last as usize, node_size);
                ctx.fence();
                (*slot).store(first as usize);
                ctx.persist(slot as usize, std::mem::size_of::<R>());
                self.header.as_mut().nodes += (path.len() - depth) as u64;
                1
            };
            self.header.as_mut().words += 1;
            ctx.persist(counters as usize, 16);
            ctx.finish(&self.arena)?;
            Ok(new_count)
        }
    }

    /// Inserts every word from an iterator.
    ///
    /// # Errors
    ///
    /// As [`PTrie::insert`].
    pub fn extend<'a, I: IntoIterator<Item = &'a str>>(&mut self, words: I) -> Result<()> {
        for w in words {
            self.insert(w)?;
        }
        Ok(())
    }

    /// The deepest node on `word`'s path and its depth, `word.len()` when
    /// the whole path exists: the descent stops at a missing link or a
    /// byte outside `a`–`z`. `load` decodes each link: [`PtrRepr::load`]
    /// for a lookup, [`PtrRepr::load_at_rest`] for a mutator.
    ///
    /// # Safety
    ///
    /// The trie's regions are open, no other thread writes it, and `load`
    /// decodes its links to mapped addresses (0 for null).
    unsafe fn find_node(
        &self,
        word: &[u8],
        load: impl Fn(&R) -> usize,
    ) -> (*mut TrieNode<R, P>, usize) {
        let mut cur = load(&self.header.as_ref().root) as *mut TrieNode<R, P>;
        let mut depth = 0;
        while let Some(i) = word.get(depth).and_then(|&c| index_of(c).ok()) {
            let next = load(&(*cur).children[i]) as *mut TrieNode<R, P>;
            if next.is_null() {
                break;
            }
            (cur, depth) = (next, depth + 1);
        }
        (cur, depth)
    }

    /// Number of times `word` was inserted (0 if absent).
    pub fn count(&self, word: &str) -> u64 {
        // SAFETY: links resolve to live nodes while regions are open.
        unsafe {
            let (n, depth) = self.find_node(word.as_bytes(), R::load);
            if depth < word.len() {
                0
            } else {
                (*n).count
            }
        }
    }

    /// Whether `word` was inserted at least once.
    pub fn contains(&self, word: &str) -> bool {
        self.count(word) > 0
    }

    /// Every present word starting with `prefix`, sorted. An empty prefix
    /// scans the whole trie — the like-for-like comparison point for
    /// [`crate::PArt::prefix_scan`] in the SUGGEST bench, so it reads
    /// links with the same plain load.
    ///
    /// # Errors
    ///
    /// [`PdsError::BadCharacter`] for prefixes outside `a..=z`.
    pub fn prefix_scan(&self, prefix: &str) -> Result<Vec<String>> {
        for &c in prefix.as_bytes() {
            index_of(c)?;
        }
        let mut out = Vec::new();
        // The link to the prefix's node: the root, or its parent's child
        // slot (a node starts with its children).
        let root = match prefix.as_bytes().split_last() {
            None => None,
            // SAFETY: as in count.
            Some((&c, up)) => match unsafe { self.find_node(up, R::load) } {
                (n, depth) if depth == up.len() => Some(n.cast::<R>().wrapping_add(index_of(c)?)),
                _ => return Ok(out),
            },
        };
        // Depth first, so the word of the node `depth` below the prefix's
        // is that of the last one visited above it, plus its letter.
        let mut word = prefix.to_string();
        // A node's context is its depth times 32 plus its letter's index.
        expect_sound(self.walk(walk::load, root, 0, |n, at: usize| {
            if at >= 32 {
                word.truncate(prefix.len() + at / 32 - 1);
                word.push((b'a' + (at % 32) as u8) as char);
            }
            if n.count > 0 {
                out.push(word.clone());
            }
            Ok(std::array::from_fn(|i| (at / 32 + 1) * 32 + i))
        }));
        out.sort_unstable();
        Ok(out)
    }

    /// The one node walk (crate docs, "One read path"): [`walk::tree`]
    /// from the link `root` (`None`: the header's), every link read by
    /// `follow`.
    fn walk<'a, C>(
        &'a self,
        follow: impl Follow<R>,
        root: Option<*mut R>,
        c0: C,
        mut visit: impl FnMut(&'a TrieNode<R, P>, C) -> std::result::Result<[C; ALPHABET], String>,
    ) -> Walked {
        // SAFETY: the header lies in the home region (`attach` checked
        // it), and `root` is a link of a node `follow`'s load found;
        // `follow` vouches for every link it passes.
        unsafe {
            let root = root.unwrap_or_else(|| &mut self.header.as_mut().root);
            walk::tree(follow, root, c0, |n: *mut TrieNode<R, P>, c, links| {
                // Most slots are null; pushing them too halves the scan.
                for (i, c) in visit(&*n, c)?.into_iter().enumerate() {
                    let slot = &mut (*n).children[i];
                    if !slot.is_null() {
                        links.push((slot, c));
                    }
                }
                Ok(())
            })
        }
    }

    /// The address of every block the trie holds: its header and every
    /// node reachable from it. The crash matrices' leak oracle compares
    /// them with the region's allocated blocks.
    /// Panics on a link [`check_invariants`](Self::check_invariants) refuses.
    pub fn blocks(&self) -> Vec<usize> {
        let mut out = vec![self.header.addr()];
        expect_sound(self.walk(Checked::default(), None, (), |n, ()| {
            out.push(n as *const TrieNode<R, P> as usize);
            Ok([(); ALPHABET])
        }));
        out
    }

    /// Full depth-first traversal; returns a checksum over terminal counts
    /// and structure shape.
    pub fn traverse(&self) -> u64 {
        let mut sum = 0u64;
        let mut stack: Vec<*const TrieNode<R, P>> = Vec::with_capacity(64);
        // SAFETY: as in count.
        unsafe {
            stack.push(self.header.as_ref().root.load() as *const TrieNode<R, P>);
            while let Some(n) = stack.pop() {
                sum = sum.wrapping_mul(131).wrapping_add((*n).count);
                for i in 0..ALPHABET {
                    let c = (*n).children[i].load() as *const TrieNode<R, P>;
                    if !c.is_null() {
                        sum = sum.wrapping_add((i as u64) << 32);
                        stack.push(c);
                    }
                }
            }
        }
        sum
    }

    /// Transactional insert through `store`'s undo log: a crash either
    /// keeps the whole insertion (new path nodes, counters) or reverts it
    /// at the next attach. Returns the word's new occurrence count; a
    /// rejected word begins no transaction.
    ///
    /// # Errors
    ///
    /// [`PdsError::BadCharacter`], allocation or logging failures.
    pub fn insert_tx(&mut self, store: &ObjectStore, word: &str) -> Result<u64> {
        self.insert_with(word, || TxCtx::begin(store))
    }

    /// Transactionally removes one occurrence of `word` (decrements its
    /// terminal counter and the word total). The trie never prunes.
    /// Returns whether an occurrence was removed; a word that is not
    /// present begins no transaction.
    ///
    /// # Errors
    ///
    /// Logging failures.
    pub fn remove_tx(&mut self, store: &ObjectStore, word: &str) -> Result<bool> {
        // SAFETY: navigation as in count; counters snapshotted (one
        // batch, one fence) before mutation and flushed after.
        unsafe {
            let (cur, depth) = self.find_node(word.as_bytes(), R::load_at_rest);
            if depth < word.len() || (*cur).count == 0 {
                return Ok(false);
            }
            let count_addr = std::ptr::addr_of_mut!((*cur).count);
            let words_addr = &mut self.header.as_mut().words as *mut u64;
            let mut ctx = TxCtx::begin(store);
            ctx.log(count_addr as usize, 8)?;
            ctx.log(words_addr as usize, 8)?;
            ctx.fence();
            *count_addr -= 1;
            ctx.persist(count_addr as usize, 8);
            *words_addr -= 1;
            ctx.persist(words_addr as usize, 8);
            ctx.finish(&self.arena)?;
        }
        Ok(true)
    }

    /// Structural invariant check for recovery tests: every link must
    /// point inside an open region, the node walk must reach exactly
    /// `nodes` nodes (no cycle, no orphan) and terminal counters must sum
    /// to `words`.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let nodes = self.node_count();
        let words = self.word_count();
        let (mut visited, mut counted) = (0u64, 0u64);
        // The walk is bounded by `nodes`: one visit more is a cycle.
        self.walk(Checked::default(), None, (), |n, ()| {
            if visited == nodes {
                return Err(format!("node walk exceeds header count {nodes} (cycle?)"));
            }
            visited += 1;
            counted += n.count;
            Ok([(); ALPHABET])
        })?;
        if visited != nodes {
            return Err(format!("header nodes {nodes} but walk found {visited}"));
        }
        if counted != words {
            return Err(format!(
                "header words {words} but counters sum to {counted}"
            ));
        }
        Ok(())
    }

    /// Number of distinct words stored (depth-first count of terminals).
    /// Panics on a link [`check_invariants`](Self::check_invariants) refuses.
    pub fn distinct_words(&self) -> u64 {
        let mut n = 0u64;
        expect_sound(self.walk(Checked::default(), None, (), |node, ()| {
            n += (node.count > 0) as u64;
            Ok([(); ALPHABET])
        }));
        n
    }
}

impl<const P: usize> PTrie<SwizzledPtr, P> {
    /// Load-time swizzle pass over every child slot.
    pub fn swizzle(&mut self) {
        expect_sound(self.walk(SwizzledPtr::swizzle_in_place, None, (), |_, ()| {
            Ok([(); ALPHABET])
        }));
    }

    /// Store-time unswizzle pass.
    pub fn unswizzle(&mut self) {
        expect_sound(
            self.walk(SwizzledPtr::unswizzle_in_place, None, (), |_, ()| {
                Ok([(); ALPHABET])
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::Region;
    use pi_core::{FatPtr, NormalPtr, OffHolder, Riv};

    const WORDS: &[&str] = &[
        "cat", "car", "card", "care", "dog", "do", "done", "a", "apple", "apply",
    ];

    fn basic<R: PtrRepr>() {
        let region = Region::create(8 << 20).unwrap();
        let mut t: PTrie<R, 32> = PTrie::new(NodeArena::raw(region.clone())).unwrap();
        t.extend(WORDS.iter().copied()).unwrap();
        t.insert("cat").unwrap();
        assert_eq!(t.word_count(), WORDS.len() as u64 + 1);
        assert_eq!(t.distinct_words(), WORDS.len() as u64);
        assert_eq!(t.count("cat"), 2);
        assert_eq!(t.count("car"), 1);
        assert!(t.contains("do") && !t.contains("d") && !t.contains("cards"));
        assert_eq!(t.traverse(), t.traverse());
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
    fn prefix_scan_returns_sorted_matches() {
        let region = Region::create(4 << 20).unwrap();
        let mut t: PTrie<OffHolder, 32> = PTrie::new(NodeArena::raw(region.clone())).unwrap();
        t.extend(WORDS.iter().copied()).unwrap();
        assert_eq!(t.prefix_scan("car").unwrap(), vec!["car", "card", "care"]);
        assert_eq!(t.prefix_scan("do").unwrap(), vec!["do", "dog", "done"]);
        assert_eq!(t.prefix_scan("z").unwrap(), Vec::<String>::new());
        assert_eq!(t.prefix_scan("").unwrap().len(), WORDS.len());
        assert!(t.prefix_scan("no!such").is_err());
        region.close().unwrap();
    }

    #[test]
    fn prefix_sharing_bounds_node_count() {
        let region = Region::create(4 << 20).unwrap();
        let mut t: PTrie<Riv, 32> = PTrie::new(NodeArena::raw(region.clone())).unwrap();
        t.extend(["abc", "abd", "abe"]).unwrap();
        // root + a + b + {c,d,e} = 6 nodes.
        assert_eq!(t.node_count(), 6);
        region.close().unwrap();
    }

    #[test]
    fn rejects_non_alphabet_characters() {
        let region = Region::create(1 << 20).unwrap();
        let mut t: PTrie<Riv, 32> = PTrie::new(NodeArena::raw(region.clone())).unwrap();
        let (nodes, blocks) = (t.node_count(), t.blocks());
        // A rejected word links, allocates and counts nothing, even when
        // its bad character follows a valid prefix.
        for (word, bad) in [("Bad", 'B'), ("a b", ' '), ("abc!", '!'), ("zz9", '9')] {
            assert!(matches!(t.insert(word), Err(PdsError::BadCharacter(c)) if c == bad));
            assert_eq!(t.node_count(), nodes, "{word:?} changed the node count");
            assert_eq!(t.blocks(), blocks, "{word:?} changed the blocks");
        }
        assert!(t.insert("").is_err());
        assert_eq!(t.node_count(), nodes);
        assert_eq!(t.word_count(), 0);
        assert_eq!(t.count("no!such"), 0);
        t.check_invariants().unwrap();
        region.close().unwrap();
    }

    #[test]
    fn swizzled_trie_protocol() {
        let region = Region::create(8 << 20).unwrap();
        let mut t: PTrie<SwizzledPtr, 32> = PTrie::new(NodeArena::raw(region.clone())).unwrap();
        t.extend(WORDS.iter().copied()).unwrap();
        t.swizzle();
        assert_eq!(t.count("apple"), 1);
        assert!(WORDS.iter().all(|w| t.contains(w)) && !t.contains("cards"));
        let c = t.traverse();
        t.unswizzle();
        t.swizzle();
        assert_eq!(t.traverse(), c);
        region.close().unwrap();
    }

    #[test]
    fn persistence_roundtrip_at_new_address() {
        let dir = std::env::temp_dir().join(format!("pds-trie-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trie.nvr");
        let checksum;
        {
            let region = Region::create_file(&path, 8 << 20).unwrap();
            let mut t: PTrie<Riv, 32> =
                PTrie::create_rooted(NodeArena::raw(region.clone()), "trie").unwrap();
            t.extend(WORDS.iter().copied()).unwrap();
            checksum = t.traverse();
            region.close().unwrap();
        }
        let region = Region::open_file(&path).unwrap();
        let t: PTrie<Riv, 32> = PTrie::attach(NodeArena::raw(region.clone()), "trie").unwrap();
        assert_eq!(t.traverse(), checksum);
        assert_eq!(t.distinct_words(), WORDS.len() as u64);
        assert!(t.contains("apply"));
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
