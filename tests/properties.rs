//! Property-based tests of the core invariants (see DESIGN.md,
//! "Invariants").

use nvm_pi::nvmsim::layout::{Area, ExactLayout};
use nvm_pi::pi_core::{FatPtrCached, OffHolder, PtrRepr, Riv};
use nvm_pi::{NodeArena, ObjectStore, PArt, PBst, PHashSet, PList, PTrie, Region};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

mod util;

use util::Subject;

// `M.cell(..)` is the scratch directory of the file-backed properties.
static M: util::Matrix = util::Matrix::new("properties", 0x5EED);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Off-holder encode/decode round-trips for arbitrary holder/target
    /// address pairs (8-aligned, as all real slots and targets are).
    #[test]
    fn off_holder_roundtrips(holder in 1u64..u64::MAX / 2, target in 1u64..u64::MAX / 2) {
        let holder = (holder & !7) as usize;
        let target = (target & !7) as usize;
        prop_assume!(holder != 0 && target != 0);
        let enc = OffHolder::encode_at(holder, target);
        prop_assert_eq!(enc.decode_at(holder), target);
        prop_assert!(!enc.is_null());
        // Null is preserved distinctly.
        let null = OffHolder::encode_at(holder, 0);
        prop_assert!(null.is_null());
        prop_assert_eq!(null.decode_at(holder), 0);
    }

    /// Off-holder representations are invariant under moving holder and
    /// target together (the position-independence property).
    #[test]
    fn off_holder_translation_invariance(
        holder in 1u64..u64::MAX / 4,
        target in 1u64..u64::MAX / 4,
        delta in 0u64..u64::MAX / 4,
    ) {
        let (holder, target, delta) =
            ((holder & !7) as usize, (target & !7) as usize, (delta & !7) as usize);
        prop_assume!(holder != 0 && target != 0);
        let enc = OffHolder::encode_at(holder, target);
        let moved = OffHolder::encode_at(holder + delta, target + delta);
        prop_assert_eq!(enc, moved);
        prop_assert_eq!(moved.decode_at(holder + delta), target + delta);
    }

    /// For any valid exact layout, the three NV-space areas are pairwise
    /// disjoint and every constructor lands in its own area.
    #[test]
    fn exact_layout_areas_disjoint(l1 in 2u32..8, l2 in 16u32..30, l4_extra in 0u32..20) {
        let l3 = 64 - l1 - l2;
        let l4 = (l2 + l4_extra).min(58);
        let lay = ExactLayout { l1, l2, l3, l4 };
        prop_assume!(lay.validate().is_ok());

        let (r_lo, r_hi) = lay.area_span(Area::RidTable);
        let (b_lo, b_hi) = lay.area_span(Area::BaseTable);
        let (d_lo, _) = lay.area_span(Area::Data);
        prop_assert!(r_lo < r_hi && b_lo < b_hi);
        prop_assert!(r_hi <= b_lo, "rid table must sit below the base table");
        prop_assert!(b_hi <= d_lo, "base table must sit below the data area");
    }

    /// Entry-address constructors classify into their own areas and
    /// distinct inputs map to distinct entry addresses (direct mapping).
    #[test]
    fn exact_layout_entries_injective(
        l1 in 2u32..8, l2 in 16u32..30, l4_extra in 0u32..20,
        a in 0u64..1000, b in 0u64..1000,
    ) {
        let l3 = 64 - l1 - l2;
        let l4 = (l2 + l4_extra).min(58);
        let lay = ExactLayout { l1, l2, l3, l4 };
        prop_assume!(lay.validate().is_ok());
        prop_assume!(a != b);

        prop_assert_eq!(lay.classify(lay.rid_entry_addr(a)), Some(Area::RidTable));
        prop_assert_eq!(lay.classify(lay.base_entry_addr(a)), Some(Area::BaseTable));
        prop_assert_ne!(lay.rid_entry_addr(a), lay.rid_entry_addr(b));
        prop_assert_ne!(lay.base_entry_addr(a), lay.base_entry_addr(b));

        let nv = lay.first_usable_nvbase() | (a % lay.usable_segments());
        let addr = lay.data_addr(nv, b);
        prop_assert_eq!(lay.classify(addr), Some(Area::Data));
        prop_assert_eq!(lay.nvbase_of(addr), nv);
        prop_assert_eq!(lay.offset_of(addr), b);
        prop_assert_eq!(lay.get_base(addr), lay.data_addr(nv, 0));
    }

    /// Prefix-query request frames (codec v2) round-trip for arbitrary
    /// ids, priorities, and prefixes, and every truncated prefix of the
    /// frame decodes to a typed error, never a partial request.
    #[test]
    fn prefix_query_frames_roundtrip_and_reject_truncation(
        id in any::<u64>(),
        tenant in any::<u32>(),
        deadline in any::<u64>(),
        prio in 0u8..3,
        raw in prop::collection::vec(0u8..26, 0..64),
    ) {
        use nvm_pi::nvserver::codec::{decode_request, encode_request, CodecError};
        use nvm_pi::nvserver::{Priority, ReqOp, Request};
        let prefix: String = raw.iter().map(|&c| (b'a' + c) as char).collect();
        let req = Request {
            id,
            tenant,
            priority: match prio {
                0 => Priority::Low,
                1 => Priority::Normal,
                _ => Priority::High,
            },
            deadline_micros: deadline,
            op: ReqOp::PrefixQuery { prefix },
        };
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes).unwrap(), req);
        for n in 0..bytes.len() {
            let err = decode_request(&bytes[..n]).unwrap_err();
            prop_assert!(
                matches!(err, CodecError::Truncated | CodecError::BadCrc),
                "prefix {}: {:?}", n, err
            );
        }
    }
}

proptest! {
    // Region-backed cases are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// RIV round-trips for arbitrary in-region offsets.
    #[test]
    fn riv_roundtrips_for_arbitrary_offsets(offs in prop::collection::vec(0u64..(1 << 18), 1..40)) {
        let region = Region::create(1 << 20).unwrap();
        let base = region.alloc(1 << 19, 16).unwrap().as_ptr() as usize;
        for &off in &offs {
            let addr = base + (off as usize & !7);
            let x = Riv::p2x(addr);
            prop_assert_eq!(x.x2p(), addr);
            prop_assert_eq!(x.rid(), region.rid());
        }
        region.close().unwrap();
    }

    /// A persistent list holds exactly the keys inserted, in LIFO order,
    /// for an arbitrary key multiset.
    #[test]
    fn list_preserves_arbitrary_key_sequences(keys in prop::collection::vec(any::<u64>(), 0..300)) {
        let region = Region::create(4 << 20).unwrap();
        let mut list: PList<Riv, 32> = PList::new(NodeArena::raw(region.clone())).unwrap();
        list.extend(keys.iter().copied()).unwrap();
        let expect: Vec<u64> = keys.iter().rev().copied().collect();
        prop_assert_eq!(list.keys(), expect);
        prop_assert_eq!(list.len(), keys.len() as u64);
        region.close().unwrap();
    }

    /// The adaptive radix tree and the 26-way letter trie agree on every
    /// count, membership, and prefix scan for arbitrary lowercase key
    /// multisets — the like-for-like guarantee the SUGGEST bench rests on.
    #[test]
    fn art_and_trie_agree_on_random_key_sets(
        raw in prop::collection::vec(prop::collection::vec(0u8..26, 1..12), 0..120),
        probe in prop::collection::vec(0u8..26, 0..4),
    ) {
        let words: Vec<String> = raw
            .iter()
            .map(|w| w.iter().map(|&c| (b'a' + c) as char).collect())
            .collect();
        let region = Region::create(16 << 20).unwrap();
        let mut art: nvm_pi::PArt<Riv> =
            nvm_pi::PArt::new(NodeArena::raw(region.clone())).unwrap();
        let mut trie: nvm_pi::PTrie<Riv, 32> =
            nvm_pi::PTrie::new(NodeArena::raw(region.clone())).unwrap();
        for w in &words {
            art.insert(w).unwrap();
            trie.insert(w).unwrap();
        }
        art.check_invariants()
            .unwrap_or_else(|e| panic!("art invariants: {e}"));
        for w in &words {
            prop_assert_eq!(art.count(w), trie.count(w), "count of {}", w);
        }
        // Scans agree on the full set, on every inserted word as a
        // prefix, and on an arbitrary (often absent) probe prefix.
        let probe: String = probe.iter().map(|&c| (b'a' + c) as char).collect();
        let mut prefixes: Vec<&str> = words.iter().map(|w| w.as_str()).collect();
        prefixes.push("");
        prefixes.push(&probe);
        for p in prefixes {
            prop_assert_eq!(
                art.prefix_scan(p).unwrap(),
                trie.prefix_scan(p).unwrap(),
                "scan of {:?}", p
            );
        }
        region.close().unwrap();
    }

    /// The region allocator never hands out overlapping blocks across an
    /// arbitrary interleaving of allocs and frees.
    #[test]
    fn allocator_blocks_never_overlap(ops in prop::collection::vec((1usize..3000, any::<bool>()), 1..120)) {
        let region = Region::create(4 << 20).unwrap();
        let mut live: Vec<(usize, usize)> = Vec::new(); // (addr, rounded size)
        for (size, free_one) in ops {
            if free_one && !live.is_empty() {
                let (addr, sz) = live.swap_remove(live.len() / 2);
                unsafe {
                    region.dealloc(std::ptr::NonNull::new(addr as *mut u8).unwrap(), sz).unwrap()
                };
            } else {
                let p = region.alloc(size, 16).unwrap().as_ptr() as usize;
                live.push((p, size));
            }
            // Invariant: live blocks pairwise disjoint (using rounded sizes).
            let mut spans: Vec<(usize, usize)> = live
                .iter()
                .map(|&(a, s)| (a, a + round16(s)))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap {:?} vs {:?}", w[0], w[1]);
            }
        }
        region.close().unwrap();
    }

    #[test]
    fn raw_and_tx_builds_agree_offholder(keys in key_stream()) {
        raw_and_tx_builds_agree::<OffHolder>(&keys);
    }

    #[test]
    fn raw_and_tx_builds_agree_riv(keys in key_stream()) {
        raw_and_tx_builds_agree::<Riv>(&keys);
    }

    #[test]
    fn raw_and_tx_builds_agree_fat_cached(keys in key_stream()) {
        raw_and_tx_builds_agree::<FatPtrCached>(&keys);
    }

    #[test]
    fn art_tx_schedule_matches_model_offholder(ops in tx_schedule()) {
        art_tx_matches_model::<OffHolder>(&ops);
    }

    #[test]
    fn art_tx_schedule_matches_model_riv(ops in tx_schedule()) {
        art_tx_matches_model::<Riv>(&ops);
    }

    #[test]
    fn art_tx_schedule_matches_model_fat_cached(ops in tx_schedule()) {
        art_tx_matches_model::<FatPtrCached>(&ops);
    }
}

/// Keys from a small range, so a stream repeats some of them.
fn key_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..96, 0..80)
}

/// A word of 1-3 letters from a 4-letter alphabet for `key`, so words
/// share prefixes and extend one another.
fn word_of(key: u64) -> String {
    (0..1 + key % 3)
        .map(|i| (b'a' + (key >> (2 * i + 2) & 3) as u8) as char)
        .collect()
}

/// A structure's raw and transactional inserts share one body, so one key
/// stream through raw `extend` and through `insert_tx`/`push_front_tx`
/// builds the same structure, and the transactional build holds every
/// block it allocated and no other (the crash matrices' leak oracle).
/// Removing every other key from the transactional build then leaves the
/// other keys and, as every `remove_tx` frees what it unlinks, still no
/// leak.
fn raw_and_tx_builds_agree<R: PtrRepr>(keys: &[u64]) {
    let words: Vec<String> = keys.iter().map(|&k| word_of(k)).collect();
    let raw = Region::create(4 << 20).unwrap();
    let arena = || NodeArena::raw(raw.clone());
    let ok = |what: &str, checked: Result<(), String>| {
        checked.unwrap_or_else(|e| panic!("{what} ({}): {e}", R::NAME))
    };

    let mut list: PList<R, 32> = PList::new(arena()).unwrap();
    list.extend(keys.iter().copied()).unwrap();
    let region = Region::create(1 << 20).unwrap();
    let mut tx = util::Tx::<PList<R, 32>>::create(&region);
    for &k in keys {
        tx.s.push_front_tx(&tx.store, k).unwrap();
    }
    ok("raw list", list.check_invariants());
    ok("tx list", tx.s.check_invariants());
    assert_eq!((tx.s.keys(), tx.s.len()), (list.keys(), list.len()));
    util::check_no_leak(&tx, &region, "tx list");
    let kept = remove_every_other(keys, |&k| tx.s.remove_tx(&tx.store, k).unwrap());
    ok("tx list after removes", tx.s.check_invariants());
    assert_eq!(tx.s.keys().into_iter().collect::<BTreeSet<_>>(), kept);
    let survivors = keys.iter().filter(|k| kept.contains(k)).count();
    assert_eq!(tx.s.len() as usize, survivors);
    util::check_no_leak(&tx, &region, "tx list after removes");
    drop(tx);
    region.close().unwrap();

    let mut bst: PBst<R, 32> = PBst::new(arena()).unwrap();
    bst.extend(keys.iter().copied()).unwrap();
    let region = Region::create(1 << 20).unwrap();
    let mut tx = util::Tx::<PBst<R, 32>>::create(&region);
    for &k in keys {
        tx.s.insert_tx(&tx.store, k).unwrap();
    }
    ok("raw bst", bst.check_invariants());
    ok("tx bst", tx.s.check_invariants());
    assert_eq!(
        (tx.s.keys_in_order(), tx.s.len()),
        (bst.keys_in_order(), bst.len())
    );
    util::check_no_leak(&tx, &region, "tx bst");
    let kept = remove_every_other(keys, |&k| tx.s.remove_tx(&tx.store, k).unwrap());
    ok("tx bst after removes", tx.s.check_invariants());
    assert_eq!(tx.s.keys_in_order(), Vec::from_iter(kept));
    util::check_no_leak(&tx, &region, "tx bst after removes");
    drop(tx);
    region.close().unwrap();

    // Eight buckets, as the transactional subject formats its set.
    let mut set: PHashSet<R, 32> = PHashSet::new(arena(), 8).unwrap();
    set.extend(keys.iter().copied()).unwrap();
    let region = Region::create(1 << 20).unwrap();
    let mut tx = util::Tx::<PHashSet<R, 32>>::create(&region);
    for &k in keys {
        tx.s.insert_tx(&tx.store, k).unwrap();
    }
    ok("raw hashset", set.check_invariants());
    ok("tx hashset", tx.s.check_invariants());
    assert_eq!((tx.s.keys(), tx.s.len()), (set.keys(), set.len()));
    util::check_no_leak(&tx, &region, "tx hashset");
    let kept = remove_every_other(keys, |&k| tx.s.remove_tx(&tx.store, k).unwrap());
    ok("tx hashset after removes", tx.s.check_invariants());
    assert_eq!(BTreeSet::from_iter(tx.s.keys()), kept);
    util::check_no_leak(&tx, &region, "tx hashset after removes");
    drop(tx);
    region.close().unwrap();

    let mut trie: PTrie<R, 32> = PTrie::new(arena()).unwrap();
    trie.extend(words.iter().map(String::as_str)).unwrap();
    let region = Region::create(1 << 20).unwrap();
    let mut tx = util::Tx::<PTrie<R, 32>>::create(&region);
    for w in &words {
        tx.s.insert_tx(&tx.store, w).unwrap();
    }
    ok("raw trie", trie.check_invariants());
    ok("tx trie", tx.s.check_invariants());
    assert_eq!(tx.s.prefix_scan("").unwrap(), trie.prefix_scan("").unwrap());
    assert_eq!(
        (tx.s.node_count(), tx.s.word_count()),
        (trie.node_count(), trie.word_count())
    );
    for w in &words {
        assert_eq!(tx.s.count(w), trie.count(w), "count of {w}");
    }
    util::check_no_leak(&tx, &region, "tx trie");
    let kept = remove_every_other(&words, |w| tx.s.remove_tx(&tx.store, w).unwrap());
    ok("tx trie after removes", tx.s.check_invariants());
    assert_eq!(BTreeSet::from_iter(tx.s.prefix_scan("").unwrap()), kept);
    util::check_no_leak(&tx, &region, "tx trie after removes");
    drop(tx);
    region.close().unwrap();
    raw.close().unwrap();
}

/// Removes every other distinct key of `keys` through `remove`, each
/// until `remove` finds nothing left, and returns the keys that survive.
fn remove_every_other<K: Ord + Clone>(
    keys: &[K],
    mut remove: impl FnMut(&K) -> bool,
) -> BTreeSet<K> {
    let all = BTreeSet::from_iter(keys.iter().cloned());
    let mut kept = BTreeSet::new();
    for (i, k) in all.into_iter().enumerate() {
        if i % 2 == 0 {
            assert!(remove(&k), "a present key is removed");
            while remove(&k) {}
        } else {
            kept.insert(k);
        }
    }
    kept
}

/// Insert (`true`) or remove one occurrence of a key of 1-3 letters from
/// a 3-letter alphabet: few enough keys that schedules repeat and remove
/// them, with prefix relations ("a", "ab") throughout.
fn tx_schedule() -> impl Strategy<Value = Vec<(Vec<u8>, bool)>> {
    prop::collection::vec((prop::collection::vec(0u8..3, 1..4), any::<bool>()), 1..120)
}

/// The index `examples/kvstore.rs` stands on: a random
/// `insert_tx`/`remove_tx` schedule on a `PArt` over a transactional arena
/// agrees with a map of occurrence counts after every operation, and again
/// after a clean close and a reopen at a different base.
fn art_tx_matches_model<R: PtrRepr>(ops: &[(Vec<u8>, bool)]) {
    let cell = M.cell(&format!("art-tx-{}", R::NAME));
    let path = cell.path("art.nvr");
    let mut model: BTreeMap<String, u64> = BTreeMap::new();
    let region = Region::create_file(&path, 4 << 20).unwrap();
    let store = ObjectStore::format(&region).unwrap();
    let mut art: PArt<R> =
        PArt::create_rooted(NodeArena::transactional(store.clone()), "kv").unwrap();
    for (raw, insert) in ops {
        let key: String = raw.iter().map(|&c| (b'a' + c) as char).collect();
        let count = model.entry(key.clone()).or_default();
        if *insert {
            *count += 1;
            assert_eq!(art.insert_tx(&store, &key).unwrap(), *count, "insert {key}");
        } else {
            let removed = art.remove_tx(&store, &key).unwrap();
            assert_eq!(removed, *count > 0, "remove {key}");
            *count = count.saturating_sub(1);
        }
    }
    art_agrees(&art, &model);
    let mut base = region.base();
    region.close().unwrap();

    let region = cell.remap(&path, &mut base).unwrap();
    let store = ObjectStore::attach(&region).unwrap();
    assert!(
        !store.recovered(),
        "a clean close leaves nothing to roll back"
    );
    let art: PArt<R> = PArt::attach(NodeArena::transactional(store), "kv").unwrap();
    art_agrees(&art, &model);
    region.close().unwrap();
}

fn art_agrees<R: PtrRepr>(art: &PArt<R>, model: &BTreeMap<String, u64>) {
    art.check_invariants()
        .unwrap_or_else(|e| panic!("art invariants: {e}"));
    for (key, &n) in model {
        assert_eq!(art.count(key), n, "count of {key}");
    }
    let live: Vec<String> = model
        .iter()
        .filter(|&(_, &n)| n > 0)
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(art.key_count(), live.len() as u64);
    assert_eq!(art.prefix_scan("").unwrap(), live);
}

fn round16(s: usize) -> usize {
    // Mirror of the allocator's class rounding, conservative upper bound.
    nvm_pi::nvmsim::alloc::AllocHeader::rounded_size(s)
}

// -- Send/Sync guarantees (C-SEND-SYNC) --------------------------------------

#[test]
fn substrate_handles_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<nvm_pi::Region>();
    assert_send_sync::<nvm_pi::ObjectStore>();
    assert_send_sync::<nvm_pi::NvSpace>();
    assert_send_sync::<nvm_pi::NvError>();
    assert_send_sync::<nvm_pi::StoreError>();
    assert_send_sync::<nvm_pi::PdsError>();
    // Plain pointer representations are inert data.
    assert_send_sync::<nvm_pi::OffHolder>();
    assert_send_sync::<nvm_pi::Riv>();
    assert_send_sync::<nvm_pi::FatPtr>();
}
