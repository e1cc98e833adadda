//! Node placement: where data-structure nodes are allocated.
//!
//! The paper's evaluation varies two placement dimensions independently of
//! the pointer representation:
//!
//! * **transactionality** — the structure is updated either in place
//!   ("non-transactional", Section 6.2: the transaction's stores in the
//!   same order, with no log, no flush and no crash atomicity) or through a
//!   [`pstore::ObjectStore`]'s undo-logged transactions ("transactional",
//!   Section 6.3), by the same insertion body (crate docs, "One write
//!   path"). Either way a node is one region block: a store object
//!   carries no metadata of its own;
//! * **region spread** — all nodes in one NVRegion, or placed round-robin
//!   across `k` regions (the multi-region experiments of Figure 14).
//!
//! [`NodeArena`] encapsulates both choices behind one `alloc` call so the
//! data structures stay oblivious to placement.

use crate::error::{PdsError, Result};
use nvmsim::{NvRef, Region};
use pstore::ObjectStore;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Free blocks [`NodeArena::scatter`] left behind, in the order `alloc`
/// claims them.
#[derive(Debug, Default)]
struct Scattered {
    /// The node size they were carved for; other sizes skip the queues.
    size: usize,
    /// Per region, block offsets divided by [`QUEUE_UNIT`], claimed from
    /// the back. A queue gives its memory back as it drains, so what a
    /// built structure keeps is about its spare blocks' entries.
    queues: Vec<Vec<u32>>,
}

/// Queued offsets are kept in units of the allocator's alignment, so a
/// `u32` entry covers regions up to 64 GiB; `scatter` stops queueing a
/// region at the first block past that.
const QUEUE_UNIT: u64 = nvmsim::alloc::MIN_ALIGN as u64;

/// Allocation source for data-structure nodes. See the module docs.
#[derive(Debug)]
pub struct NodeArena {
    /// The regions nodes are placed in, home region first.
    regions: Vec<Region>,
    /// Whether the structure is updated through a store's transactions.
    transactional: bool,
    next: AtomicUsize,
    /// Blocks still queued in `scattered`: the one relaxed load an arena
    /// that never scattered pays per allocation. It publishes nothing —
    /// the queues are read under the lock — so a stale value only costs a
    /// lock or a normal allocation.
    queued: AtomicUsize,
    /// Every update leaves it whole (a pop, or a replacement), so a
    /// poisoned lock's data is still valid.
    scattered: Mutex<Scattered>,
}

impl NodeArena {
    fn new(regions: Vec<Region>, transactional: bool) -> NodeArena {
        assert!(!regions.is_empty(), "at least one region required");
        NodeArena {
            regions,
            transactional,
            next: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            scattered: Mutex::default(),
        }
    }

    /// Non-transactional placement in a single region.
    pub fn raw(region: Region) -> NodeArena {
        Self::new(vec![region], false)
    }

    /// Non-transactional placement round-robin across `regions`.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty.
    pub fn raw_round_robin(regions: Vec<Region>) -> NodeArena {
        Self::new(regions, false)
    }

    /// Transactional placement in a single store's region.
    pub fn transactional(store: ObjectStore) -> NodeArena {
        Self::transactional_round_robin(vec![store])
    }

    /// Transactional placement round-robin across the regions of
    /// `stores`.
    ///
    /// # Panics
    ///
    /// Panics if `stores` is empty.
    pub fn transactional_round_robin(stores: Vec<ObjectStore>) -> NodeArena {
        Self::new(stores.iter().map(|s| s.region().clone()).collect(), true)
    }

    /// Number of regions nodes are spread over.
    pub fn fan_out(&self) -> usize {
        self.regions.len()
    }

    /// Whether the structure is updated through a store's transactions.
    pub fn is_transactional(&self) -> bool {
        self.transactional
    }

    /// The region that holds structure headers (the first one).
    pub fn home_region(&self) -> &Region {
        &self.regions[0]
    }

    /// All regions in placement order.
    pub fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    /// Allocates `size` bytes for a node, rotating over the configured
    /// regions. A node of the size [`NodeArena::scatter`] carved for takes
    /// the next block of its region's shuffled queue while one is left.
    ///
    /// # Errors
    ///
    /// Allocation failures from the region allocator.
    pub fn alloc(&self, size: usize) -> Result<NonNull<u8>> {
        let r = self.next.fetch_add(1, Ordering::Relaxed) % self.regions.len();
        if self.queued.load(Ordering::Relaxed) != 0 {
            if let Some(p) = self.claim_scattered(r, size)? {
                return Ok(p);
            }
        }
        Ok(self.regions[r].alloc(size, 16)?)
    }

    /// Claims the next queued block of region `r` for a node of `size`
    /// bytes. `None` when none is queued for it, or when the block was
    /// taken by another allocation since `scatter` freed it.
    fn claim_scattered(&self, r: usize, size: usize) -> Result<Option<NonNull<u8>>> {
        let off = {
            let mut s = self.scattered.lock().unwrap_or_else(|e| e.into_inner());
            if s.size != size {
                return Ok(None);
            }
            // `scatter` queues every region, so a matching size has `r`'s.
            let queue = &mut s.queues[r];
            let Some(unit) = queue.pop() else {
                return Ok(None);
            };
            if queue.len() <= queue.capacity() / 2 {
                queue.shrink_to_fit();
            }
            unit as u64 * QUEUE_UNIT
        };
        self.queued.fetch_sub(1, Ordering::Relaxed);
        let region = &self.regions[r];
        Ok(region
            .alloc_at(off, size)?
            .then(|| NonNull::new(region.ptr_at(off) as *mut u8).expect("inside the region")))
    }

    /// Returns a node of `size` bytes to the region that holds it,
    /// outside any transaction ([`Region::dealloc`]).
    ///
    /// # Errors
    ///
    /// [`nvmsim::NvError::AddressOutOfRange`] when no region of the arena
    /// holds `node`; [`nvmsim::NvError::NotAllocated`] as
    /// [`Region::dealloc`].
    ///
    /// # Safety
    ///
    /// As [`Region::dealloc`]: the node is unreachable and the caller's.
    pub unsafe fn dealloc(&self, node: NonNull<u8>, size: usize) -> Result<()> {
        let addr = node.as_ptr() as usize;
        let region = self
            .regions
            .iter()
            .find(|r| r.contains(addr))
            .ok_or(nvmsim::NvError::AddressOutOfRange { addr })?;
        Ok(region.dealloc(node, size)?)
    }

    /// Allocates in the *home* region specifically (used for headers and
    /// bucket arrays that must share a region with the structure root).
    ///
    /// # Errors
    ///
    /// As [`NodeArena::alloc`].
    pub fn alloc_home(&self, size: usize) -> Result<NonNull<u8>> {
        Ok(self.regions[0].alloc(size, 16)?)
    }

    /// An empty structure's header in the home region: written as
    /// `H::default()` (links null, counts 0), finished by `fill`, then
    /// published under a `(root name, type tag)` when given one.
    pub(crate) fn new_header<H: Default>(
        &self,
        root: Option<(&str, u64)>,
        fill: impl FnOnce(NvRef<H>) -> Result<()>,
    ) -> Result<NvRef<H>> {
        let block = self.alloc_home(std::mem::size_of::<H>())?.as_ptr();
        let header = NvRef::new(block.cast()).expect("the home region is open");
        // SAFETY: a fresh home block of `size_of::<H>()` bytes, aligned to
        // 16 and this call's alone.
        unsafe { header.write(H::default()) };
        fill(header)?;
        if let Some((name, tag)) = root {
            self.home_region()
                .set_root_tagged(name, header.addr(), tag)?;
        }
        Ok(header)
    }

    /// The header published as the root `name` with type tag `tag`, else
    /// [`PdsError::RootMissing`] naming `what` (also for a header that
    /// would run past the region); a root of another type tag is the
    /// region's error naming both tags.
    pub(crate) fn root_header<H>(
        &self,
        name: &str,
        tag: u64,
        what: &'static str,
    ) -> Result<NvRef<H>> {
        let addr = match self.home_region().root_checked(name, tag) {
            Err(e @ nvmsim::NvError::BadImage(_)) => return Err(e.into()),
            found => found.ok(),
        };
        addr.and_then(|a| NvRef::new(a as *mut H))
            .filter(|h| h.fits(1))
            .ok_or(PdsError::RootMissing(what))
    }

    /// Pre-scatters the placement of the next ~`count` allocations of
    /// `node_size` bytes: carves that many blocks out of each region,
    /// frees them again, and queues their offsets in *shuffled* order, so
    /// subsequent node allocations land at randomized addresses.
    ///
    /// Sequential allocation would lay a freshly built structure out
    /// contiguously, letting the CPU's stream prefetcher hide the memory
    /// latency that real (and PMEP-emulated) NVM pointer chasing pays.
    /// Scattering restores the latency-bound traversal regime the paper's
    /// measurements ran in (see DESIGN.md, substitution S2).
    ///
    /// The shuffle lives in the arena, not in the allocator: `alloc`
    /// claims each queued block by its offset ([`Region::alloc_at`]), with
    /// the same bitmap transition and crash contract as any allocation.
    /// Queued blocks stay free until claimed.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub fn scatter(&self, count: usize, node_size: usize, seed: u64) -> Result<()> {
        let per_region = count.div_ceil(self.regions.len());
        let mut rng = seed | 1;
        let mut queues = Vec::with_capacity(self.regions.len());
        for region in &self.regions {
            let free = |off: u64| {
                let b = NonNull::new(region.ptr_at(off) as *mut u8).expect("inside the region");
                // SAFETY: each block came from this region's alloc with
                // the same size and is freed exactly once.
                unsafe { region.dealloc(b, node_size) }
            };
            let mut blocks: Vec<u32> = Vec::with_capacity(per_region);
            for _ in 0..per_region {
                let off = region.alloc_off(node_size, 16)?;
                let Ok(unit) = u32::try_from(off / QUEUE_UNIT) else {
                    free(off)?;
                    break;
                };
                blocks.push(unit);
            }
            // Fisher-Yates with an inline xorshift; deterministic per seed.
            for i in (1..blocks.len()).rev() {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                blocks.swap(i, (rng as usize) % (i + 1));
            }
            for &unit in &blocks {
                free(unit as u64 * QUEUE_UNIT)?;
            }
            queues.push(blocks);
        }
        let queued = queues.iter().map(Vec::len).sum();
        *self.scattered.lock().unwrap_or_else(|e| e.into_inner()) = Scattered {
            size: node_size,
            queues,
        };
        self.queued.store(queued, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::NvSpace;

    #[test]
    fn raw_single_allocates_in_one_region() {
        let r = Region::create(1 << 20).unwrap();
        let arena = NodeArena::raw(r.clone());
        assert_eq!(arena.fan_out(), 1);
        assert!(!arena.is_transactional());
        for _ in 0..8 {
            let p = arena.alloc(64).unwrap();
            assert!(r.contains(p.as_ptr() as usize));
        }
        r.close().unwrap();
    }

    #[test]
    fn round_robin_rotates_regions() {
        let regions: Vec<Region> = (0..3).map(|_| Region::create(1 << 20).unwrap()).collect();
        let arena = NodeArena::raw_round_robin(regions.clone());
        let space = NvSpace::global();
        let rids: Vec<u32> = (0..6)
            .map(|_| space.rid_of_addr(arena.alloc(64).unwrap().as_ptr() as usize))
            .collect();
        assert_eq!(rids[0], rids[3]);
        assert_eq!(rids[1], rids[4]);
        assert_eq!(rids[2], rids[5]);
        assert_ne!(rids[0], rids[1]);
        assert_ne!(rids[1], rids[2]);
        for r in regions {
            r.close().unwrap();
        }
    }

    #[test]
    fn transactional_allocations_are_bare_blocks() {
        let r = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&r).unwrap();
        let arena = NodeArena::transactional(store.clone());
        assert!(arena.is_transactional());
        let before = r.stats();
        let p = arena.alloc(56).unwrap();
        let after = r.stats();
        assert_eq!(after.live_allocs, before.live_allocs + 1);
        assert_eq!(
            after.live_bytes,
            before.live_bytes + 64,
            "a 56 B node, a 64 B block"
        );
        // SAFETY: the node was never published.
        unsafe { r.dealloc(p, 56).unwrap() };
        r.close().unwrap();
    }

    #[test]
    fn scatter_randomizes_allocation_order() {
        let r = Region::create(4 << 20).unwrap();
        let arena = NodeArena::raw(r.clone());
        arena.scatter(256, 48, 7).unwrap();
        let addrs: Vec<usize> = (0..256)
            .map(|_| arena.alloc(48).unwrap().as_ptr() as usize)
            .collect();
        let ascending = addrs.windows(2).filter(|w| w[1] > w[0]).count();
        // A shuffled free list yields far from monotone addresses.
        assert!(
            ascending < 200,
            "addresses look sequential: {ascending}/255 ascending"
        );
        // All blocks distinct and in the region.
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 256);
        assert!(addrs.iter().all(|&a| r.contains(a)));
        r.close().unwrap();
    }

    #[test]
    fn scatter_spares_stay_free() {
        const N: usize = 400;
        for transactional in [false, true] {
            let r = Region::create(4 << 20).unwrap();
            let arena = if transactional {
                NodeArena::transactional(ObjectStore::format(&r).unwrap())
            } else {
                NodeArena::raw(r.clone())
            };
            let before = r.stats().live_allocs;
            arena.scatter(N + N / 4, 48, 11).unwrap();
            assert_eq!(r.stats().live_allocs, before, "queued blocks are free");
            for _ in 0..N {
                arena.alloc(48).unwrap();
            }
            assert_eq!(
                r.stats().live_allocs,
                before + N as u64,
                "transactional={transactional}: one block per node, spares free"
            );
            r.close().unwrap();
        }
    }

    #[test]
    fn scatter_works_transactionally() {
        let r = Region::create(4 << 20).unwrap();
        let store = ObjectStore::format(&r).unwrap();
        let arena = NodeArena::transactional(store);
        arena.scatter(64, 48, 9).unwrap();
        let a = arena.alloc(48).unwrap();
        let b = arena.alloc(48).unwrap();
        assert_ne!(a, b);
        r.close().unwrap();
    }

    #[test]
    fn home_region_is_first() {
        let regions: Vec<Region> = (0..2).map(|_| Region::create(1 << 20).unwrap()).collect();
        let arena = NodeArena::raw_round_robin(regions.clone());
        assert_eq!(arena.home_region().rid(), regions[0].rid());
        let p = arena.alloc_home(64).unwrap();
        assert!(regions[0].contains(p.as_ptr() as usize));
        assert_eq!(arena.regions().len(), 2);
        for r in regions {
            r.close().unwrap();
        }
    }
}
