//! The repository's headline property, end to end: every position-
//! independent representation keeps every data structure intact across
//! close/reopen cycles that remap the region at different addresses.

use nvm_pi::pi_core::{FatPtr, FatPtrCached, OffHolder, PtrRepr, Riv};
use nvm_pi::{NodeArena, PArt, PBst, PHashSet, PList, PTrie, Region, WordCount};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvm-pi-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Closes and reopens `path` until the mapping lands at a different base
/// (usually the first try; bounded retries keep the test deterministic).
fn reopen_elsewhere(path: &PathBuf, old_base: usize) -> Region {
    for _ in 0..8 {
        let r = Region::open_file(path).unwrap();
        if r.base() != old_base {
            return r;
        }
        r.close().unwrap();
    }
    panic!("could not obtain a different mapping in 8 attempts");
}

fn list_roundtrip<R: PtrRepr>(tag: &str) {
    let path = tmp(&format!("list-{tag}.nvr"));
    let (base, checksum) = {
        let region = Region::create_file(&path, 4 << 20).unwrap();
        let mut list: PList<R, 32> =
            PList::create_rooted(NodeArena::raw(region.clone()), "l").unwrap();
        list.extend(0..2000).unwrap();
        let c = list.traverse();
        let b = region.base();
        region.close().unwrap();
        (b, c)
    };
    // Three consecutive reopen cycles, each at a fresh address.
    let mut prev = base;
    for _ in 0..3 {
        let region = reopen_elsewhere(&path, prev);
        prev = region.base();
        let list: PList<R, 32> = PList::attach(NodeArena::raw(region.clone()), "l").unwrap();
        assert_eq!(list.len(), 2000);
        assert_eq!(list.traverse(), checksum);
        list.check_invariants().unwrap();
        region.close().unwrap();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn list_survives_remap_with_off_holder() {
    list_roundtrip::<OffHolder>("offholder");
}

#[test]
fn list_survives_remap_with_riv() {
    list_roundtrip::<Riv>("riv");
}

#[test]
fn list_survives_remap_with_fat() {
    list_roundtrip::<FatPtr>("fat");
}

#[test]
fn list_survives_remap_with_fat_cached() {
    list_roundtrip::<FatPtrCached>("fatc");
}

#[test]
fn bst_survives_remap_and_supports_updates_after_reopen() {
    let path = tmp("bst-update.nvr");
    {
        let region = Region::create_file(&path, 8 << 20).unwrap();
        let mut t: PBst<Riv, 32> =
            PBst::create_rooted(NodeArena::raw(region.clone()), "t").unwrap();
        t.extend((0..1500).map(|i| i * 3)).unwrap();
        region.close().unwrap();
    }
    // First reopen: verify and insert more.
    {
        let region = Region::open_file(&path).unwrap();
        let mut t: PBst<Riv, 32> = PBst::attach(NodeArena::raw(region.clone()), "t").unwrap();
        t.check_invariants().unwrap();
        assert!(t.contains(42 * 3));
        t.extend((0..500).map(|i| i * 3 + 1)).unwrap();
        assert_eq!(t.len(), 2000);
        region.close().unwrap();
    }
    // Second reopen: both generations of inserts are present.
    {
        let region = Region::open_file(&path).unwrap();
        let t: PBst<Riv, 32> = PBst::attach(NodeArena::raw(region.clone()), "t").unwrap();
        assert_eq!(t.len(), 2000);
        t.check_invariants().unwrap();
        assert!(t.contains(100 * 3) && t.contains(100 * 3 + 1));
        region.close().unwrap();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn hashset_survives_remap_with_off_holder() {
    let path = tmp("hs.nvr");
    let checksum = {
        let region = Region::create_file(&path, 8 << 20).unwrap();
        let mut s: PHashSet<OffHolder, 32> =
            PHashSet::create_rooted(NodeArena::raw(region.clone()), 256, "s").unwrap();
        s.extend(0..3000).unwrap();
        let c = s.traverse();
        region.close().unwrap();
        c
    };
    let region = Region::open_file(&path).unwrap();
    let s: PHashSet<OffHolder, 32> = PHashSet::attach(NodeArena::raw(region.clone()), "s").unwrap();
    assert_eq!(s.traverse(), checksum);
    for k in [0u64, 1234, 2999] {
        assert!(s.contains(k));
    }
    assert!(!s.contains(3000));
    region.close().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn trie_survives_remap_with_riv() {
    // Digits are outside the trie alphabet; map each digit to a letter.
    let words: Vec<String> = (0..800)
        .map(|i| {
            format!("{i:04}")
                .bytes()
                .map(|b| (b - b'0' + b'a') as char)
                .collect()
        })
        .collect();

    let path = tmp("trie.nvr");
    {
        let region = Region::create_file(&path, 16 << 20).unwrap();
        let mut t: PTrie<Riv, 32> =
            PTrie::create_rooted(NodeArena::raw(region.clone()), "t").unwrap();
        t.extend(words.iter().map(|s| s.as_str())).unwrap();
        region.close().unwrap();
    }
    let region = Region::open_file(&path).unwrap();
    let t: PTrie<Riv, 32> = PTrie::attach(NodeArena::raw(region.clone()), "t").unwrap();
    assert_eq!(t.distinct_words(), 800);
    for w in words.iter().step_by(97) {
        assert!(t.contains(w), "{w}");
    }
    assert!(!t.contains("zzzz"));
    region.close().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn wordcount_resumes_counting_after_reopen() {
    let path = tmp("wc.nvr");
    {
        let region = Region::create_file(&path, 8 << 20).unwrap();
        let mut wc: WordCount<OffHolder> =
            WordCount::create_rooted(NodeArena::raw(region.clone()), "wc").unwrap();
        wc.add_all(["alpha", "beta", "alpha"]).unwrap();
        region.close().unwrap();
    }
    {
        let region = Region::open_file(&path).unwrap();
        let mut wc: WordCount<OffHolder> =
            WordCount::attach(NodeArena::raw(region.clone()), "wc").unwrap();
        assert_eq!(wc.count("alpha"), 2);
        wc.add_all(["alpha", "gamma"]).unwrap();
        assert_eq!(wc.count("alpha"), 3);
        wc.check_invariants().unwrap();
        region.close().unwrap();
    }
    let region = Region::open_file(&path).unwrap();
    let wc: WordCount<OffHolder> = WordCount::attach(NodeArena::raw(region.clone()), "wc").unwrap();
    assert_eq!(wc.total(), 5);
    assert_eq!(wc.distinct(), 3);
    region.close().unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn swizzled_structure_roundtrips_through_at_rest_image() {
    use nvm_pi::pi_core::SwizzledPtr;
    let path = tmp("swz.nvr");
    let checksum = {
        let region = Region::create_file(&path, 4 << 20).unwrap();
        let mut list: PList<SwizzledPtr, 32> =
            PList::create_rooted(NodeArena::raw(region.clone()), "l").unwrap();
        list.extend(0..1000).unwrap();
        // Use it once (swizzle), then unswizzle before "storing".
        list.swizzle();
        let c = list.traverse();
        list.unswizzle();
        region.close().unwrap();
        c
    };
    let region = Region::open_file(&path).unwrap();
    let mut list: PList<SwizzledPtr, 32> =
        PList::attach(NodeArena::raw(region.clone()), "l").unwrap();
    list.swizzle();
    assert_eq!(list.traverse(), checksum);
    list.unswizzle();
    region.close().unwrap();
    std::fs::remove_file(&path).ok();
}

/// Control: the same close and remapped reopen under raw volatile
/// pointers. The image itself reopens intact — but the list head is an
/// absolute address into the *old* mapping, so the structure is broken
/// at the new base. This is the failure position independence exists to
/// prevent. The head word is read raw and never dereferenced (it
/// dangles).
#[test]
fn volatile_pointer_control_breaks_at_a_new_base() {
    use nvm_pi::nvmsim::verify;
    use nvm_pi::pi_core::NormalPtr;
    const SIZE: usize = 512 << 10;
    let path = tmp("control-normalptr.nvr");
    let old_base = {
        let region = Region::create_file(&path, SIZE).unwrap();
        let mut list: PList<NormalPtr, 32> =
            PList::create_rooted(NodeArena::raw(region.clone()), "l").unwrap();
        for key in [10, 20, 30] {
            list.push_front(key).unwrap();
        }
        assert_eq!(list.keys(), vec![30, 20, 10], "the list is fine in place");
        let b = region.base();
        region.close().unwrap();
        b
    };
    let region = reopen_elsewhere(&path, old_base);
    let base = region.base();
    // The image reopens byte-for-byte intact...
    assert!(verify::verify_file(&path).unwrap().healthy());
    // ...but its list head is an absolute pointer into the old mapping.
    let header = region.root("l").expect("root survives the reopen");
    // SAFETY: `header` is inside the mapped region; only the head WORD is
    // read — the dangling address it holds is never dereferenced.
    let head = unsafe { std::ptr::read(header as *const usize) };
    assert_ne!(head, 0, "three inserts left a non-empty list");
    assert!(
        !(base..base + SIZE).contains(&head),
        "volatile head {head:#x} would need to point into the new mapping \
         [{base:#x}, +{SIZE:#x}) to be usable — position dependence must break it"
    );
    assert!(
        (old_base..old_base + SIZE).contains(&head),
        "volatile head {head:#x} still points into the old mapping at {old_base:#x}"
    );
    region.close().unwrap();
    std::fs::remove_file(&path).ok();
}

/// The structures a rotted link is planted in: off-holder ones, and a
/// list of each fat representation.
#[derive(Debug, Clone, Copy)]
enum Rotted {
    List,
    Bst,
    Trie,
    HashSet,
    WordCount,
    Art,
    FatList,
    FatCachedList,
}

/// The target of the link at `slot`.
///
/// # Safety
///
/// `slot` holds an `R` in an open region.
unsafe fn target<R: PtrRepr>(slot: usize) -> usize {
    (*(slot as *const R)).load()
}

impl Rotted {
    /// Whether its links are fat pointers, rotted by naming a region that
    /// is not open.
    fn fat(self) -> bool {
        matches!(self, Rotted::FatList | Rotted::FatCachedList)
    }

    /// Builds the structure rooted as "s" and returns the address of its
    /// header's first link (the hash set's: its first bucket) and of a
    /// link inside one of its nodes.
    fn build(self, region: &Region) -> (usize, usize) {
        let arena = NodeArena::raw(region.clone());
        let header = |region: &Region| region.root("s").unwrap();
        // SAFETY (every `target` call): the structure is live, its region
        // open, and the address read is one of its links. A node of all
        // but the ART starts with one of its links.
        unsafe {
            match self {
                Rotted::List => {
                    let mut l: PList<OffHolder, 32> = PList::create_rooted(arena, "s").unwrap();
                    l.extend(0..16).unwrap();
                }
                Rotted::Bst => {
                    let mut t: PBst<OffHolder, 32> = PBst::create_rooted(arena, "s").unwrap();
                    t.extend([50, 20, 70, 10, 30, 60, 80]).unwrap();
                }
                Rotted::Trie => {
                    let mut t: PTrie<OffHolder, 32> = PTrie::create_rooted(arena, "s").unwrap();
                    t.extend(["ab", "abc", "b", "ca"]).unwrap();
                }
                Rotted::HashSet => {
                    let mut s: PHashSet<OffHolder, 32> =
                        PHashSet::create_rooted(arena, 4, "s").unwrap();
                    s.extend(0..64).unwrap();
                    // The header's first word is the bucket array's offset.
                    let bucket = region.base() + *(s.header_addr() as *const usize);
                    return (bucket, target::<OffHolder>(bucket));
                }
                Rotted::WordCount => {
                    let mut wc: WordCount<OffHolder> =
                        WordCount::create_rooted(arena, "s").unwrap();
                    wc.add_all(["m", "c", "x", "a", "e"]).unwrap();
                }
                Rotted::Art => {
                    let mut t: PArt<OffHolder> = PArt::create_rooted(arena, "s").unwrap();
                    t.extend(["apple", "apply", "banana", "cherry"]).unwrap();
                    // The root is a Node4 (112 bytes); its child links are
                    // the words in it that point at another node.
                    let blocks = t.blocks();
                    let kid = (blocks[1]..blocks[1] + 112)
                        .step_by(8)
                        .find(|&w| blocks[2..].contains(&target::<OffHolder>(w)))
                        .expect("a child link in the root node");
                    return (blocks[0], kid);
                }
                Rotted::FatList => {
                    let mut l: PList<FatPtr, 32> = PList::create_rooted(arena, "s").unwrap();
                    l.extend(0..16).unwrap();
                    return (header(region), target::<FatPtr>(header(region)));
                }
                Rotted::FatCachedList => {
                    let mut l: PList<FatPtrCached, 32> = PList::create_rooted(arena, "s").unwrap();
                    l.extend(0..16).unwrap();
                    return (header(region), target::<FatPtrCached>(header(region)));
                }
            }
            (header(region), target::<OffHolder>(header(region)))
        }
    }

    /// `check_invariants` after an attach, and for the ART also the
    /// verdict of `inspect_index` (`nvr_inspect index`).
    fn check(self, region: &Region) -> Vec<Result<(), String>> {
        let arena = NodeArena::raw(region.clone());
        vec![match self {
            Rotted::List => PList::<OffHolder, 32>::attach(arena, "s")
                .unwrap()
                .check_invariants(),
            Rotted::Bst => PBst::<OffHolder, 32>::attach(arena, "s")
                .unwrap()
                .check_invariants(),
            Rotted::Trie => PTrie::<OffHolder, 32>::attach(arena, "s")
                .unwrap()
                .check_invariants(),
            Rotted::HashSet => PHashSet::<OffHolder, 32>::attach(arena, "s")
                .unwrap()
                .check_invariants(),
            Rotted::WordCount => WordCount::<OffHolder>::attach(arena, "s")
                .unwrap()
                .check_invariants(),
            Rotted::Art => {
                let report = nvm_pi::pds::inspect_index(region, "s").unwrap();
                let inspected = report.problem.map_or(Ok(()), Err);
                let checked = PArt::<OffHolder>::attach(arena, "s")
                    .unwrap()
                    .check_invariants();
                return vec![checked, inspected];
            }
            Rotted::FatList => PList::<FatPtr, 32>::attach(arena, "s")
                .unwrap()
                .check_invariants(),
            Rotted::FatCachedList => PList::<FatPtrCached, 32>::attach(arena, "s")
                .unwrap()
                .check_invariants(),
        }]
    }
}

/// A rotted link — one far outside every region, one into its region but
/// past the committed end, or a fat link naming a region that is not
/// open — in a structure's header or inside it is an `Err` naming the
/// link from `check_invariants` (and from `inspect_index` for the ART)
/// after a remapped reopen, not a fault or a panic.
#[test]
fn check_invariants_refuses_rotted_links_after_reopen() {
    let path = tmp("rotted.nvr");
    for kind in [
        Rotted::List,
        Rotted::Bst,
        Rotted::Trie,
        Rotted::HashSet,
        Rotted::WordCount,
        Rotted::Art,
        Rotted::FatList,
        Rotted::FatCachedList,
    ] {
        for interior in [false, true] {
            // A fat link rots one way: to region ID 4000, which no region
            // of this test has.
            for far in [true, false]
                .into_iter()
                .take(if kind.fat() { 1 } else { 2 })
            {
                let ctx = format!("{kind:?}, interior {interior}, far {far}");
                let region = Region::create_with_capacity(1 << 20, 4 << 20, Some(&path)).unwrap();
                let (head, inside) = kind.build(&region);
                let slot = if interior { inside } else { head };
                assert_ne!(slot, 0, "[{ctx}] an interior node");
                // SAFETY: `slot` is a link of the live structure.
                unsafe {
                    if kind.fat() {
                        *(slot as *mut u32) = 4000;
                    } else if far {
                        *(slot as *mut u64) = 1 << 40;
                    } else {
                        (*(slot as *mut OffHolder)).store(region.base() + region.size() + 4096);
                    }
                }
                let base = region.base();
                region.close().unwrap();
                let region = reopen_elsewhere(&path, base);
                for checked in kind.check(&region) {
                    assert!(
                        matches!(&checked, Err(e) if e.contains("link")),
                        "[{ctx}] a rotted link: {checked:?}"
                    );
                }
                region.close().unwrap();
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
