//! The `wordcount` application (paper Section 6.3, Figure 15).
//!
//! "As an important step for many document analytics, wordcount uses a
//! Binary Search Tree to count word frequency in an input file. The tree
//! is put on an NVRegion. A new node is inserted into the tree when a word
//! is encountered for the first time; a comparison function is used to
//! decide the location in the tree for inserting a new node."
//!
//! Nodes store the word inline (bounded length) plus an occurrence count
//! and two child pointers in the representation under study.

use crate::arena::NodeArena;
use crate::error::{PdsError, Result};
use crate::walk::{self, expect_sound, Checked, Walked};
use nvmsim::NvRef;
use pi_core::PtrRepr;
use std::cmp::Ordering;

/// Root type tag recorded by `create_rooted` and validated by `attach`.
pub const WORDCOUNT_ROOT_TAG: u64 = u64::from_le_bytes(*b"PDSWCNT1");

/// Maximum word length stored inline in a node.
pub const MAX_WORD: usize = 30;

/// Persistent wordcount header.
#[repr(C)]
#[derive(Debug, Default)]
pub struct WcHeader<R: PtrRepr> {
    root: R,
    distinct: u64,
    total: u64,
}

/// A wordcount BST node.
#[repr(C)]
#[derive(Debug)]
pub struct WcNode<R: PtrRepr> {
    pub(crate) left: R,
    pub(crate) right: R,
    count: u64,
    len: u8,
    word: [u8; MAX_WORD + 1],
}

impl<R: PtrRepr> WcNode<R> {
    fn word(&self) -> &[u8] {
        &self.word[..self.len as usize]
    }
}

/// BST-based word-frequency counter. See the module docs.
#[derive(Debug)]
pub struct WordCount<R: PtrRepr> {
    arena: NodeArena,
    header: NvRef<WcHeader<R>>,
}

impl<R: PtrRepr> WordCount<R> {
    /// Creates an empty counter whose header lives in the home region.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn new(arena: NodeArena) -> Result<WordCount<R>> {
        let header = arena.new_header(None, |_| Ok(()))?;
        Ok(WordCount { arena, header })
    }

    /// Creates an empty counter published as a named root.
    ///
    /// # Errors
    ///
    /// Allocation or root-registration failures.
    pub fn create_rooted(arena: NodeArena, root: &str) -> Result<WordCount<R>> {
        let header = arena.new_header(Some((root, WORDCOUNT_ROOT_TAG)), |_| Ok(()))?;
        Ok(WordCount { arena, header })
    }

    /// Attaches to a previously persisted counter by root name.
    ///
    /// # Errors
    ///
    /// [`PdsError::RootMissing`] when the root is absent.
    pub fn attach(arena: NodeArena, root: &str) -> Result<WordCount<R>> {
        let header = arena.root_header(root, WORDCOUNT_ROOT_TAG, "wordcount header")?;
        Ok(WordCount { arena, header })
    }

    /// Total words counted (including repeats).
    pub fn total(&self) -> u64 {
        // SAFETY: header is mapped while the arena's regions are open.
        unsafe { self.header.as_ref() }.total
    }

    /// Number of distinct words.
    pub fn distinct(&self) -> u64 {
        // SAFETY: as in `total`.
        unsafe { self.header.as_ref() }.distinct
    }

    /// The arena nodes are placed in.
    pub fn arena(&self) -> &NodeArena {
        &self.arena
    }

    /// Counts one occurrence of `word`, inserting a node on first sight.
    /// Returns the word's updated count. This interleaves search and
    /// insertion — the workload Figure 15 times.
    ///
    /// # Errors
    ///
    /// [`PdsError::WordTooLong`] for words over [`MAX_WORD`] bytes;
    /// allocation failures.
    pub fn add(&mut self, word: &str) -> Result<u64> {
        let bytes = word.as_bytes();
        if bytes.is_empty() || bytes.len() > MAX_WORD {
            return Err(PdsError::WordTooLong(word.to_string()));
        }
        // SAFETY: navigation via load_at_rest (mutation path); in-place
        // stores; nodes fixed once allocated.
        unsafe {
            let (slot, cur) = self.find_slot(bytes, R::load_at_rest);
            if !cur.is_null() {
                (*cur).count += 1;
                self.header.as_mut().total += 1;
                return Ok((*cur).count);
            }
            let node =
                self.arena.alloc(std::mem::size_of::<WcNode<R>>())?.as_ptr() as *mut WcNode<R>;
            (*node).left = R::null();
            (*node).right = R::null();
            (*node).count = 1;
            (*node).len = bytes.len() as u8;
            (*node).word = [0; MAX_WORD + 1];
            (&mut (*node).word)[..bytes.len()].copy_from_slice(bytes);
            (*slot).store(node as usize);
            self.header.as_mut().distinct += 1;
            self.header.as_mut().total += 1;
            Ok(1)
        }
    }

    /// The slot on `word`'s search path that holds `word`'s node, and
    /// that node — or the empty slot the word belongs in, and null.
    /// `load` decodes each link: [`PtrRepr::load`] for a lookup,
    /// [`PtrRepr::load_at_rest`] for a mutator.
    ///
    /// # Safety
    ///
    /// The tree's regions are open, no other thread writes it, and `load`
    /// decodes its links to mapped addresses (0 for null).
    unsafe fn find_slot(
        &self,
        word: &[u8],
        load: impl Fn(&R) -> usize,
    ) -> (*mut R, *mut WcNode<R>) {
        let mut slot: *mut R = &mut self.header.as_mut().root;
        loop {
            let cur = load(&*slot) as *mut WcNode<R>;
            if cur.is_null() {
                return (slot, cur);
            }
            slot = match word.cmp((*cur).word()) {
                Ordering::Equal => return (slot, cur),
                Ordering::Less => &mut (*cur).left,
                Ordering::Greater => &mut (*cur).right,
            };
        }
    }

    /// Counts every word from an iterator (the full wordcount run).
    ///
    /// # Errors
    ///
    /// As [`WordCount::add`].
    pub fn add_all<'a, I: IntoIterator<Item = &'a str>>(&mut self, words: I) -> Result<()> {
        for w in words {
            self.add(w)?;
        }
        Ok(())
    }

    /// The count of `word` (0 if never seen).
    pub fn count(&self, word: &str) -> u64 {
        // SAFETY: links resolve to live nodes while regions are open.
        unsafe { self.find_slot(word.as_bytes(), R::load).1.as_ref() }.map_or(0, |n| n.count)
    }

    /// The `k` most frequent words (count-descending, then alphabetical).
    pub fn top_k(&self, k: usize) -> Vec<(String, u64)> {
        let mut all = self.entries();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// All `(word, count)` pairs in alphabetical order.
    /// Panics on a link [`check_invariants`](Self::check_invariants) refuses.
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        expect_sound(self.walk((), |n, ()| {
            out.push((String::from_utf8_lossy(n.word()).into_owned(), n.count));
            Ok([(); 2])
        }));
        out.sort_unstable();
        out
    }

    /// The one node walk (crate docs, "One read path"): [`walk::tree`]
    /// from the root, every link checked.
    fn walk<'a, C>(
        &'a self,
        c0: C,
        mut visit: impl FnMut(&'a WcNode<R>, C) -> std::result::Result<[C; 2], String>,
    ) -> Walked {
        let follow = Checked::default();
        // SAFETY: the header lies in the home region (`attach` checked
        // it); the checked resolve vouches for every link it passes.
        unsafe {
            let root = &mut self.header.as_mut().root;
            walk::tree(follow, root, c0, |n: *mut WcNode<R>, c, links| {
                let [l, r] = visit(&*n, c)?;
                links.extend([(&mut (*n).left as *mut R, l), (&mut (*n).right, r)]);
                Ok(())
            })
        }
    }

    /// Consistency check: every link points inside an open region, the
    /// walk finds `distinct` nodes whose counts sum to `total`, and each
    /// word lies strictly between the words its ancestors bound it by (so
    /// the in-order words ascend strictly).
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let (distinct, total) = (self.distinct(), self.total());
        let (mut seen, mut counted) = (0u64, 0u64);
        // The order check ends any cycle.
        self.walk((None, None), |n, bounds| {
            seen += 1;
            counted += n.count;
            walk::ordered(n.word(), bounds)
        })?;
        if seen != distinct {
            return Err(format!("header distinct {distinct} but walk found {seen}"));
        }
        if counted != total {
            return Err(format!("header total {total} but counts sum to {counted}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::Region;
    use pi_core::{BasedPtr, FatPtr, NormalPtr, OffHolder, Riv};

    const TEXT: &str = "the quick brown fox jumps over the lazy dog the fox";

    fn basic<R: PtrRepr>() {
        let region = Region::create(8 << 20).unwrap();
        let mut wc: WordCount<R> = WordCount::new(NodeArena::raw(region.clone())).unwrap();
        wc.add_all(TEXT.split_whitespace()).unwrap();
        assert_eq!(wc.total(), 11);
        assert_eq!(wc.distinct(), 8);
        assert_eq!(wc.count("the"), 3);
        assert_eq!(wc.count("fox"), 2);
        assert_eq!(wc.count("cat"), 0);
        wc.check_invariants().unwrap();
        let top = wc.top_k(2);
        assert_eq!(top[0], ("the".to_string(), 3));
        assert_eq!(top[1], ("fox".to_string(), 2));
        region.close().unwrap();
    }

    #[test]
    fn roundtrip_all_reprs() {
        basic::<NormalPtr>();
        basic::<OffHolder>();
        basic::<Riv>();
        basic::<FatPtr>();
        // Based pointers need the global base installed.
        let prev = pi_core::based::set_base(0);
        // Determine the base from a fresh region; install before building.
        let region = Region::create(8 << 20).unwrap();
        pi_core::based::set_base(region.base());
        let mut wc: WordCount<BasedPtr> = WordCount::new(NodeArena::raw(region.clone())).unwrap();
        wc.add_all(TEXT.split_whitespace()).unwrap();
        assert_eq!(wc.count("the"), 3);
        region.close().unwrap();
        pi_core::based::set_base(prev);
    }

    #[test]
    fn word_length_limits() {
        let region = Region::create(1 << 20).unwrap();
        let mut wc: WordCount<Riv> = WordCount::new(NodeArena::raw(region.clone())).unwrap();
        assert!(wc.add(&"x".repeat(MAX_WORD)).is_ok());
        assert!(matches!(
            wc.add(&"x".repeat(MAX_WORD + 1)),
            Err(PdsError::WordTooLong(_))
        ));
        assert!(wc.add("").is_err());
        region.close().unwrap();
    }

    #[test]
    fn entries_are_sorted_alphabetically() {
        let region = Region::create(1 << 20).unwrap();
        let mut wc: WordCount<OffHolder> = WordCount::new(NodeArena::raw(region.clone())).unwrap();
        wc.add_all(["pear", "apple", "mango", "apple"]).unwrap();
        let words: Vec<String> = wc.entries().into_iter().map(|e| e.0).collect();
        assert_eq!(words, ["apple", "mango", "pear"]);
        region.close().unwrap();
    }

    #[test]
    fn persistence_roundtrip_at_new_address() {
        let dir = std::env::temp_dir().join(format!("pds-wc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wc.nvr");
        {
            let region = Region::create_file(&path, 8 << 20).unwrap();
            let mut wc: WordCount<Riv> =
                WordCount::create_rooted(NodeArena::raw(region.clone()), "wc").unwrap();
            wc.add_all(TEXT.split_whitespace()).unwrap();
            region.close().unwrap();
        }
        let region = Region::open_file(&path).unwrap();
        let wc: WordCount<Riv> = WordCount::attach(NodeArena::raw(region.clone()), "wc").unwrap();
        assert_eq!(wc.count("the"), 3);
        assert_eq!(wc.distinct(), 8);
        wc.check_invariants().unwrap();
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transactional_arena_wordcount() {
        let region = Region::create(8 << 20).unwrap();
        let store = pstore::ObjectStore::format(&region).unwrap();
        let before = region.stats().live_allocs;
        let mut wc: WordCount<Riv> = WordCount::new(NodeArena::transactional(store)).unwrap();
        wc.add_all(TEXT.split_whitespace()).unwrap();
        assert_eq!(wc.count("the"), 3);
        // Every node (plus the header) is one allocation of the store.
        assert_eq!(region.stats().live_allocs - before, wc.distinct() + 1);
        region.close().unwrap();
    }
}
