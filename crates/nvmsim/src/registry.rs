//! Process-global registry of open regions, plus the runtime structures the
//! *baseline* pointer representations depend on:
//!
//! * a **hashtable** mapping region ID → base address — the lookup a fat
//!   pointer performs on every dereference (Section 5, "Fat Pointer");
//! * the **`lastID`/`lastAddr` cache** used by the "fat pointer with cache"
//!   variant (Section 6.3);
//! * an auto-incrementing region-ID allocator.
//!
//! The hashtable mirrors PMDK, whose `pmemobj_direct` resolves the oid's
//! pool id through a cuckoo hashtable behind a library-call boundary —
//! reproducing the cost profile the paper measures for PMEM.IO-style fat
//! pointers. Lookups are lock-free; mutations take a mutex.

use crate::metrics::{self, Counter};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Number of slots in the fat-pointer cuckoo table (power of two).
const FAT_SLOTS: usize = 1024;

/// One slot of the cuckoo table. `rid == 0` means empty.
struct FatSlot {
    rid: AtomicU32,
    base: AtomicUsize,
}

/// The region-ID -> base hashtable that fat pointers resolve through.
///
/// Modeled on PMDK's `pmemobj_direct` path, which looks the pool up in a
/// cuckoo hashtable by the oid's pool id: two hash positions per key, a
/// (non-inlined) probe of each. Mutations (region open/close) take a lock
/// and relocate entries cuckoo-style; lookups take no lock but seqlock-
/// validate against [`TABLE_GEN`] so a probe racing a relocation chain is
/// retried instead of observing a half-moved entry.
struct FatTable {
    slots: [FatSlot; FAT_SLOTS],
    write_lock: Mutex<()>,
}

/// 64-bit avalanche mix (the murmur3/xxhash finalizer), matching the
/// weight of the hashing PMDK applies to a pool uuid per lookup.
#[inline]
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

#[inline]
fn fat_h1(rid: u32) -> usize {
    mix64(mix64(rid as u64)) as usize & (FAT_SLOTS - 1)
}

#[inline]
fn fat_h2(rid: u32) -> usize {
    mix64(mix64(rid as u64 ^ 0x9E37_79B9_7F4A_7C15)) as usize & (FAT_SLOTS - 1)
}

impl FatTable {
    const fn new() -> FatTable {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: FatSlot = FatSlot {
            rid: AtomicU32::new(0),
            base: AtomicUsize::new(0),
        };
        FatTable {
            slots: [EMPTY; FAT_SLOTS],
            write_lock: Mutex::new(()),
        }
    }

    /// The fat-pointer dereference path. Deliberately not inlined: PMDK's
    /// equivalent is a library call, and the call boundary is part of the
    /// cost the paper measures.
    #[inline(never)]
    fn lookup(&self, rid: u32) -> Option<usize> {
        self.lookup_with_gen(rid).0
    }

    /// Seqlock-consistent probe. Cuckoo relocation rewrites `(rid, base)`
    /// word-by-word, so a raw probe racing an insert can pair a stale rid
    /// with the evictor's base, or miss a key mid-flight to its alternate
    /// slot. Mutators bump [`TABLE_GEN`] to odd for the whole relocation
    /// chain, so retrying until the generation is even and unchanged across
    /// the probe yields a result from a quiescent table. Returns that
    /// (even) generation alongside the result, for the last-region cache
    /// to stamp its entry with.
    fn lookup_with_gen(&self, rid: u32) -> (Option<usize>, u64) {
        loop {
            let g1 = TABLE_GEN.load(Ordering::Acquire);
            if g1 & 1 != 0 {
                std::hint::spin_loop();
                continue;
            }
            let found = self.probe(rid);
            fence(Ordering::Acquire);
            if TABLE_GEN.load(Ordering::Relaxed) == g1 {
                return (found, g1);
            }
        }
    }

    #[inline]
    fn probe(&self, rid: u32) -> Option<usize> {
        let s1 = &self.slots[fat_h1(rid)];
        if s1.rid.load(Ordering::Acquire) == rid {
            let base = s1.base.load(Ordering::Acquire);
            if base != 0 {
                return Some(base);
            }
        }
        let s2 = &self.slots[fat_h2(rid)];
        if s2.rid.load(Ordering::Acquire) == rid {
            let base = s2.base.load(Ordering::Acquire);
            if base != 0 {
                return Some(base);
            }
        }
        None
    }

    fn insert(&self, rid: u32, base: usize) {
        let _g = self.write_lock.lock();
        // Seqlock-style generation bump around every table mutation (the
        // write lock serializes mutators, so parity is exact): odd means a
        // mutation is in flight, and any advance invalidates entries the
        // last-region cache captured under an older generation. This is
        // what makes a rebind of a live rid (same id, new base) drop the
        // stale cached base — the fat table alone updating was not enough.
        TABLE_GEN.fetch_add(1, Ordering::SeqCst);
        self.insert_locked(rid, base);
        TABLE_GEN.fetch_add(1, Ordering::SeqCst);
    }

    fn insert_locked(&self, mut rid: u32, mut base: usize) {
        // Update in place if the key is already present.
        for h in [fat_h1(rid), fat_h2(rid)] {
            let slot = &self.slots[h];
            if slot.rid.load(Ordering::Acquire) == rid {
                slot.base.store(base, Ordering::Release);
                return;
            }
        }
        // Classic cuckoo placement: claim a position, evicting and
        // relocating occupants to their alternate position as needed.
        let mut idx = fat_h1(rid);
        for _ in 0..FAT_SLOTS {
            let slot = &self.slots[idx];
            let occupant = slot.rid.load(Ordering::Acquire);
            if occupant == 0 {
                // Publish base before rid so lookups never see a fresh rid
                // with a stale base.
                slot.base.store(base, Ordering::Release);
                slot.rid.store(rid, Ordering::Release);
                return;
            }
            let obase = slot.base.load(Ordering::Acquire);
            slot.base.store(base, Ordering::Release);
            slot.rid.store(rid, Ordering::Release);
            rid = occupant;
            base = obase;
            idx = if fat_h1(rid) == idx {
                fat_h2(rid)
            } else {
                fat_h1(rid)
            };
        }
        panic!("fat table full: too many open regions");
    }

    fn remove(&self, rid: u32) {
        let _g = self.write_lock.lock();
        TABLE_GEN.fetch_add(1, Ordering::SeqCst);
        self.remove_locked(rid);
        TABLE_GEN.fetch_add(1, Ordering::SeqCst);
    }

    fn remove_locked(&self, rid: u32) {
        for h in [fat_h1(rid), fat_h2(rid)] {
            let slot = &self.slots[h];
            if slot.rid.load(Ordering::Acquire) == rid {
                slot.base.store(0, Ordering::Release);
                slot.rid.store(0, Ordering::Release);
                return;
            }
        }
    }
}

static FAT: FatTable = FatTable::new();

/// Looks up the base address of region `rid` through the fat-pointer
/// hashtable. This is the per-dereference cost of the fat-pointer baseline.
#[inline]
pub fn fat_lookup(rid: u32) -> Option<usize> {
    metrics::incr(Counter::FatLookups);
    FAT.lookup(rid)
}

// -- lastID / lastAddr cache (fat pointer with cache) -----------------------
//
// The paper's Section 6.3 cache is two process globals. A naive port —
// two independent relaxed atomics — is racy: with concurrent refills,
// thread A can store `lastAddr = baseA`, thread B then stores both of its
// words, and A's trailing `lastID = ridA` store pairs A's id with B's
// base. A reader then "hits" and fabricates a wild pointer into the wrong
// region. The cache here is a **seqlock**: a writer flips `seq` odd,
// writes the `(gen, rid, base)` triple, and flips `seq` back even; a
// reader rejects any snapshot taken while `seq` was odd or changed, so a
// torn pair can never be observed.
//
// `gen` guards a second race: a refill that looked the base up *before* a
// concurrent close/rebind could publish the pair *after* the mutator's
// invalidation pass, resurrecting a stale base. Each entry therefore
// records the fat-table generation (`TABLE_GEN`, bumped twice around
// every mutation under the table's write lock) it was read under, and a
// hit requires the generation to be both unchanged and even — i.e. no
// table mutation overlapped the entry's lifetime. Invalidation is thus
// implicit and race-free; mutators never touch the cache words at all.

/// Fat-table generation: even = stable, odd = mutation in flight.
static TABLE_GEN: AtomicU64 = AtomicU64::new(0);

struct LastCache {
    /// Seqlock word: even = stable, odd = writer active.
    seq: AtomicU64,
    /// `TABLE_GEN` value the entry was read under.
    gen: AtomicU64,
    /// Cached region id (`lastID`).
    rid: AtomicU32,
    /// Cached region base (`lastAddr`).
    base: AtomicUsize,
}

static LAST: LastCache = LastCache {
    seq: AtomicU64::new(0),
    gen: AtomicU64::new(0),
    rid: AtomicU32::new(0),
    base: AtomicUsize::new(0),
};

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static COUNT_CACHE: AtomicBool = AtomicBool::new(false);

/// Best-effort publish of a freshly looked-up `(rid, base)` pair read
/// under table generation `gen`. Losing the seqlock CAS just skips the
/// update — the cache is an optimization, not a source of truth.
#[inline]
fn publish_last(gen: u64, rid: u32, base: usize) {
    let s = LAST.seq.load(Ordering::Relaxed);
    if s & 1 != 0
        || LAST
            .seq
            .compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
    {
        return;
    }
    LAST.gen.store(gen, Ordering::Relaxed);
    LAST.rid.store(rid, Ordering::Relaxed);
    LAST.base.store(base, Ordering::Relaxed);
    LAST.seq.store(s + 2, Ordering::Release);
}

/// Clears the cache entry, spinning until the write takes (used by
/// [`reset_cache`], where losing the race is not acceptable).
fn invalidate_last() {
    loop {
        let s = LAST.seq.load(Ordering::Relaxed);
        if s & 1 == 0
            && LAST
                .seq
                .compare_exchange(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            LAST.gen.store(0, Ordering::Relaxed);
            LAST.rid.store(0, Ordering::Relaxed);
            LAST.base.store(0, Ordering::Relaxed);
            LAST.seq.store(s + 2, Ordering::Release);
            return;
        }
        std::hint::spin_loop();
    }
}

/// Looks up region `rid`, consulting the `lastID`/`lastAddr` cache first —
/// the paper's "fat pointer with cache" dereference path.
#[inline]
pub fn fat_lookup_cached(rid: u32) -> Option<usize> {
    // Seqlock read of the (gen, rid, base) triple.
    let s1 = LAST.seq.load(Ordering::Acquire);
    if s1 & 1 == 0 {
        let cgen = LAST.gen.load(Ordering::Relaxed);
        let crid = LAST.rid.load(Ordering::Relaxed);
        let cbase = LAST.base.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if LAST.seq.load(Ordering::Relaxed) == s1
            && crid == rid
            && cbase != 0
            && TABLE_GEN.load(Ordering::SeqCst) == cgen
        {
            metrics::incr(Counter::FatCacheHits);
            if COUNT_CACHE.load(Ordering::Relaxed) {
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            }
            return Some(cbase);
        }
    }
    metrics::incr(Counter::FatCacheMisses);
    if COUNT_CACHE.load(Ordering::Relaxed) {
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    }
    metrics::incr(Counter::FatLookups);
    // lookup_with_gen only returns results validated under an even,
    // unmoved generation; stamping the entry with it means any later
    // table mutation is rejected at hit time by the comparison above.
    let (found, gen) = FAT.lookup_with_gen(rid);
    let base = found?;
    publish_last(gen, rid, base);
    Some(base)
}

/// The current fat-table generation (test hook: stable measurement
/// windows re-run when this moved underneath them).
#[doc(hidden)]
pub fn table_generation() -> u64 {
    TABLE_GEN.load(Ordering::SeqCst)
}

/// Rebinds `rid` in the fat table, exactly as a remap-at-new-address
/// reopen would (test hook for cache-invalidation regression tests).
#[doc(hidden)]
pub fn rebind_for_tests(rid: u32, base: usize, size: usize) {
    register(rid, base, size);
}

/// Enables or disables cache hit/miss counting (for the ABL-CACHE
/// ablation). Returns the previous setting.
pub fn set_cache_counting(on: bool) -> bool {
    COUNT_CACHE.swap(on, Ordering::Relaxed)
}

/// Returns `(hits, misses)` accumulated while counting was enabled.
pub fn cache_stats() -> (u64, u64) {
    (
        CACHE_HITS.load(Ordering::Relaxed),
        CACHE_MISSES.load(Ordering::Relaxed),
    )
}

/// Resets cache statistics and invalidates the cache entry.
pub fn reset_cache() {
    CACHE_HITS.store(0, Ordering::Relaxed);
    CACHE_MISSES.store(0, Ordering::Relaxed);
    invalidate_last();
}

// -- open-region registry ----------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
/// Summary of an open region, as recorded in the registry.
pub struct RegionInfo {
    /// Region ID.
    pub rid: u32,
    /// Current base address.
    pub base: usize,
    /// Region size in bytes.
    pub size: usize,
}

// Read-mostly: mutated only at region open/close, read by every
// `open_regions` query, so readers share the lock.
static OPEN: RwLock<Vec<RegionInfo>> = RwLock::new(Vec::new());
static NEXT_RID: AtomicU32 = AtomicU32::new(1);

/// Records an open region and publishes it to the fat-pointer table.
/// Rebinding a live rid (same id, new base) advances the table generation,
/// which invalidates any last-region cache entry for the old base.
pub(crate) fn register(rid: u32, base: usize, size: usize) {
    metrics::incr(Counter::RegionOpens);
    FAT.insert(rid, base);
    let mut open = OPEN.write();
    open.retain(|r| r.rid != rid);
    open.push(RegionInfo { rid, base, size });
}

/// Removes a region from the registry and the fat-pointer table. The
/// generation bump inside [`FatTable::remove`] invalidates any last-region
/// cache entry pointing at it — without the check-then-act race the old
/// explicit invalidation had.
pub(crate) fn unregister(rid: u32) {
    metrics::incr(Counter::RegionCloses);
    FAT.remove(rid);
    OPEN.write().retain(|r| r.rid != rid);
}

/// Allocates a fresh region ID, never reusing one handed out before in this
/// process and skipping any id in `avoid`.
pub fn alloc_rid(max_rid: u32, avoid: impl Fn(u32) -> bool) -> Option<u32> {
    loop {
        let rid = NEXT_RID.fetch_add(1, Ordering::Relaxed);
        if rid > max_rid {
            return None;
        }
        if !avoid(rid) {
            return Some(rid);
        }
    }
}

/// Snapshot of the regions currently open in this process.
pub fn open_regions() -> Vec<RegionInfo> {
    OPEN.read().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registry state is process-global; tests use rids in a high band to
    // avoid colliding with region tests running in the same binary.
    const R: u32 = 60_000;

    #[test]
    fn fat_table_insert_lookup_remove() {
        register(R, 0x1000, 64);
        assert_eq!(fat_lookup(R), Some(0x1000));
        unregister(R);
        assert_eq!(fat_lookup(R), None);
    }

    #[test]
    fn fat_table_rebind_updates_base() {
        register(R + 1, 0x2000, 64);
        register(R + 1, 0x3000, 64);
        assert_eq!(fat_lookup(R + 1), Some(0x3000));
        unregister(R + 1);
    }

    #[test]
    fn many_rids_coexist_under_cuckoo_relocation() {
        // Enough keys that cuckoo kicks are exercised, all must resolve.
        let rids: Vec<u32> = (0..200).map(|i| R + 100 + i * 7).collect();
        for (i, &rid) in rids.iter().enumerate() {
            register(rid, 0x1_0000 + i * 16, 64);
        }
        for (i, &rid) in rids.iter().enumerate() {
            assert_eq!(fat_lookup(rid), Some(0x1_0000 + i * 16), "rid {rid}");
        }
        for &rid in &rids {
            unregister(rid);
        }
        for &rid in &rids {
            assert_eq!(fat_lookup(rid), None);
        }
    }

    #[test]
    fn cached_lookup_hits_after_first_miss() {
        register(R + 2, 0x4000, 64);
        // Any region open/close in the process invalidates the cache (the
        // generation scheme is global), and the one cache entry and its
        // counters are shared with every thread, so re-run the
        // measurement window if a concurrently running test churned the
        // table or counted a lookup of its own mid-sequence.
        let (hits, misses) = loop {
            let gen = table_generation();
            reset_cache();
            set_cache_counting(true);
            assert_eq!(fat_lookup_cached(R + 2), Some(0x4000));
            assert_eq!(fat_lookup_cached(R + 2), Some(0x4000));
            assert_eq!(fat_lookup_cached(R + 2), Some(0x4000));
            set_cache_counting(false);
            let (hits, misses) = cache_stats();
            if table_generation() == gen && hits + misses == 3 {
                break (hits, misses);
            }
        };
        assert_eq!(misses, 1);
        assert_eq!(hits, 2);
        unregister(R + 2);
        assert_eq!(
            fat_lookup_cached(R + 2),
            None,
            "unregister invalidates cache"
        );
    }

    #[test]
    fn rebind_invalidates_cached_base() {
        register(R + 10, 0x7000, 64);
        reset_cache();
        // Warm the cache with the old base.
        assert_eq!(fat_lookup_cached(R + 10), Some(0x7000));
        // Rebind the live rid at a different base, as a
        // remap-at-different-address reopen does.
        register(R + 10, 0x8000, 64);
        assert_eq!(
            fat_lookup_cached(R + 10),
            Some(0x8000),
            "cached stale base must not survive a rebind"
        );
        unregister(R + 10);
    }

    #[test]
    fn concurrent_refills_never_tear_the_pair() {
        // Two regions with recognizable bases; four threads alternate
        // lookups so the cache is refilled under heavy contention. Any
        // torn (id, base) pairing returns the wrong region's base.
        let (ra, rb) = (R + 20, R + 21);
        register(ra, 0xA000, 64);
        register(rb, 0xB000, 64);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..20_000u32 {
                        let (rid, want) = if (i + t) % 2 == 0 {
                            (ra, 0xA000)
                        } else {
                            (rb, 0xB000)
                        };
                        assert_eq!(fat_lookup_cached(rid), Some(want), "rid {rid}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        unregister(ra);
        unregister(rb);
    }

    #[test]
    fn alloc_rid_skips_avoided() {
        let a = alloc_rid(u32::MAX, |_| false).unwrap();
        let b = alloc_rid(u32::MAX, |r| r == a + 1).unwrap();
        assert!(b > a && b != a + 1);
    }

    #[test]
    fn open_regions_lists_registered() {
        let find = || open_regions().into_iter().find(|r| r.rid == R + 3);
        register(R + 3, 0x5000, 128);
        assert_eq!(
            find(),
            Some(RegionInfo {
                rid: R + 3,
                base: 0x5000,
                size: 128
            })
        );
        unregister(R + 3);
        assert!(find().is_none());
    }
}
