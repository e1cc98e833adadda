//! Exact persistence traffic of the transactional structure operations.
//! The counters are process-wide, so this file is its own test process
//! with a single `#[test]`: the deltas below are exact because nothing
//! else is flushing.

use nvmsim::metrics::{self, Counter, Snapshot};
use nvmsim::Region;
use pds::{NodeArena, PArt, PBst, PHashSet, PList, PTrie};
use pi_core::OffHolder;
use pstore::ObjectStore;

fn delta(f: impl FnOnce()) -> Snapshot {
    let before = metrics::snapshot();
    f();
    metrics::snapshot().delta(&before)
}

/// The full persistence count of one operation: transactions begun, undo
/// entries, fences, flush calls and flushed lines.
fn counts(d: &Snapshot) -> [u64; 5] {
    [
        Counter::TxBegins,
        Counter::UndoEntries,
        Counter::WbarrierCalls,
        Counter::ClflushCalls,
        Counter::ClflushLines,
    ]
    .map(|c| d.get(c))
}

/// An operation that changes nothing begins no transaction and causes no
/// persistence traffic at all.
fn assert_untouched(what: &str, d: &Snapshot) {
    for c in [
        Counter::TxBegins,
        Counter::TxAborts,
        Counter::UndoEntries,
        Counter::ClflushCalls,
        Counter::WbarrierCalls,
    ] {
        assert_eq!(d.get(c), 0, "{what}: {} moved", c.name());
    }
}

#[test]
fn tx_ops_cost_one_batch_fence_and_noops_cost_nothing() {
    let region = Region::create(8 << 20).unwrap();
    let store = ObjectStore::format(&region).unwrap();
    let arena = || NodeArena::transactional(store.clone());
    let mut set: PHashSet<OffHolder> = PHashSet::new(arena(), 64).unwrap();
    let mut bst: PBst<OffHolder> = PBst::new(arena()).unwrap();
    let mut list: PList<OffHolder> = PList::new(arena()).unwrap();
    let mut trie: PTrie<OffHolder> = PTrie::new(arena()).unwrap();
    let mut art: PArt<OffHolder> = PArt::new(arena()).unwrap();
    // Warm up: the size classes these nodes use have a subtree with room,
    // so no allocation below grows one (a grow is two more fences).
    for k in [1u64, 2, 3] {
        set.insert_tx(&store, k).unwrap();
        bst.insert_tx(&store, k).unwrap();
        list.push_front_tx(&store, k).unwrap();
    }
    trie.insert_tx(&store, "ab").unwrap();
    art.insert_tx(&store, "ab").unwrap();
    art.insert_tx(&store, "ac").unwrap();

    // hashset/bst insert: the one batch (slot, len and the allocator
    // entry — the allocation flushes and fences nothing of its own), the
    // commit fence, the truncate.
    let d = delta(|| assert!(set.insert_tx(&store, 10).unwrap()));
    assert_eq!(d.get(Counter::TxBegins), 1);
    assert_eq!(d.get(Counter::UndoEntries), 3);
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    // batch span, node, slot, len, bitmap word (at commit), generation:
    // an object is its block, so nothing is written in front of the node.
    assert_eq!(d.get(Counter::ClflushCalls), 6);
    // The batch is 48 + 48 + 32 bytes from byte 16 of the area: three
    // lines, one more than without the allocator entry.
    assert_eq!(d.get(Counter::ClflushLines), 8);
    let d = delta(|| assert!(bst.insert_tx(&store, 10).unwrap()));
    assert_eq!(d.get(Counter::UndoEntries), 3);
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    assert_eq!(d.get(Counter::ClflushCalls), 6);
    assert_eq!(d.get(Counter::ClflushLines), 8);

    // remove: batch (slot, len, the freed node's allocator entry),
    // commit, truncate; the free adds its bitmap word to the commit and
    // a third batch line. Parent: 2 × 2 + 2 calls, 5 lines.
    let d = delta(|| assert!(set.remove_tx(&store, 10).unwrap()));
    assert_eq!(d.get(Counter::UndoEntries), 3);
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    assert_eq!(d.get(Counter::ClflushCalls), 5);
    assert_eq!(d.get(Counter::ClflushLines), 7);
    // bst, one child (11): the child is spliced into 10's slot.
    bst.insert_tx(&store, 11).unwrap();
    let d = delta(|| assert!(bst.remove_tx(&store, 10).unwrap()));
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    assert_eq!(counts(&d), [1, 3, 3, 5, 7], "bst remove, one child");
    // bst, two children (15 and 25 under 20): one more range, 20's key
    // and payload, takes its successor's before 25's slot is unlinked.
    for k in [20, 15, 25] {
        bst.insert_tx(&store, k).unwrap();
    }
    let d = delta(|| assert!(bst.remove_tx(&store, 20).unwrap()));
    // The batch gains an entry and a line, the key range its own flush
    // call and line.
    assert_eq!(counts(&d), [1, 4, 3, 6, 9], "bst remove, two children");
    let d = delta(|| assert!(list.remove_tx(&store, 2).unwrap()));
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    assert_eq!(counts(&d), [1, 3, 3, 5, 7], "list remove");
    let d = delta(|| assert!(trie.remove_tx(&store, "ab").unwrap()));
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    // trie: the terminal count and the word total, nothing freed.
    assert_eq!(counts(&d), [1, 2, 3, 4, 5], "trie remove");

    // ART: an occurrence bump and a removal are one batch each, and so
    // is a new key under a node with room, allocation included.
    let d = delta(|| assert_eq!(art.insert_tx(&store, "ab").unwrap(), 2));
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    let d = delta(|| assert!(art.remove_tx(&store, "ab").unwrap()));
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    // Not the last occurrence: the leaf counter is the whole batch.
    assert_eq!(counts(&d), [1, 1, 3, 3, 3], "art remove, not last");
    let d = delta(|| assert_eq!(art.insert_tx(&store, "ad").unwrap(), 1));
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    // Of these lines the two-byte key's leaf is one: a 32-byte block.
    assert_eq!(d.get(Counter::ClflushLines), 12);
    // A fifth child outgrows the Node4: two ranges (counters, parent
    // slot) and three allocator entries (the leaf, the Node16, the
    // outgrown Node4's free) in the same batch.
    art.insert_tx(&store, "ae").unwrap();
    let live = region.stats().live_allocs;
    let d = delta(|| assert_eq!(art.insert_tx(&store, "af").unwrap(), 1));
    assert_eq!(d.get(Counter::UndoEntries), 5);
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    assert_eq!(
        region.stats().live_allocs,
        live + 1,
        "leaf and Node16 in, Node4 out"
    );
    let d = delta(|| assert!(art.remove_tx(&store, "af").unwrap()));
    // The last occurrence also takes the header's key count: its counter
    // span is one more range.
    assert_eq!(counts(&d), [1, 2, 3, 4, 7], "art remove, last");

    // Nothing to change: no lock, no begin, no abort, no traffic.
    assert_untouched(
        "hashset insert of a present key",
        &delta(|| assert!(!set.insert_tx(&store, 1).unwrap())),
    );
    assert_untouched(
        "bst insert of a present key",
        &delta(|| assert!(!bst.insert_tx(&store, 1).unwrap())),
    );
    assert_untouched(
        "hashset remove of an absent key",
        &delta(|| assert!(!set.remove_tx(&store, 99).unwrap())),
    );
    assert_untouched(
        "bst remove of an absent key",
        &delta(|| assert!(!bst.remove_tx(&store, 99).unwrap())),
    );
    assert_untouched(
        "list remove of an absent key",
        &delta(|| assert!(!list.remove_tx(&store, 99).unwrap())),
    );
    assert_untouched(
        "trie remove of an absent word",
        &delta(|| assert!(!trie.remove_tx(&store, "zz").unwrap())),
    );
    assert_untouched(
        "trie remove of a word with no occurrence left",
        &delta(|| assert!(!trie.remove_tx(&store, "ab").unwrap())),
    );
    assert_untouched(
        "art remove of an absent key",
        &delta(|| assert!(!art.remove_tx(&store, "zz").unwrap())),
    );

    // list push: the header is the whole batch (one range) plus the
    // allocator entry; node and header flushed, then commit and truncate.
    let d = delta(|| list.push_front_tx(&store, 20).unwrap());
    assert_eq!(d.get(Counter::TxBegins), 1);
    assert_eq!(d.get(Counter::UndoEntries), 2);
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    assert_eq!(d.get(Counter::ClflushCalls), 5);
    assert_eq!(d.get(Counter::ClflushLines), 7);
    // trie new path ("ab" exists, "c" and "d" do not): counters, the
    // publishing slot and two allocator entries in one batch; each fresh
    // node is flushed whole before the one slot store.
    let d = delta(|| assert_eq!(trie.insert_tx(&store, "abcd").unwrap(), 1));
    assert_eq!(d.get(Counter::TxBegins), 1);
    assert_eq!(d.get(Counter::UndoEntries), 4);
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    assert_eq!(d.get(Counter::ClflushCalls), 8);
    assert_eq!(d.get(Counter::ClflushLines), 16);
    // trie existing word: counters and the terminal count, no allocation.
    let d = delta(|| assert_eq!(trie.insert_tx(&store, "abcd").unwrap(), 2));
    assert_eq!(d.get(Counter::TxBegins), 1);
    assert_eq!(d.get(Counter::UndoEntries), 2);
    assert_eq!(d.get(Counter::WbarrierCalls), 3);
    assert_eq!(d.get(Counter::ClflushCalls), 4);
    assert_eq!(d.get(Counter::ClflushLines), 5);

    for (what, ok) in [
        ("hashset", set.check_invariants()),
        ("bst", bst.check_invariants()),
        ("list", list.check_invariants()),
        ("trie", trie.check_invariants()),
        ("art", art.check_invariants()),
    ] {
        ok.unwrap_or_else(|e| panic!("{what}: {e}"));
    }
    region.close().unwrap();
}
