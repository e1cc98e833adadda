//! Process-wide counter registry for the repo's ablation and benchmark
//! instrumentation.
//!
//! The paper's argument is quantitative, so every claim a PR makes about
//! being faster needs counters that can be snapshotted, diffed across
//! timed sections, and serialized into the benchmark reports. Every
//! subsystem counts here, behind one dependency-free API (the fat-pointer
//! cache's hits and misses are [`Counter::FatCacheHits`] and
//! [`Counter::FatCacheMisses`]; [`crate::shadow::event_count_for`] stays
//! a per-region query of the shadow tracker):
//!
//! * a fixed inventory of named counters ([`Counter`]);
//! * **owner-written** storage — every thread bumps a counter block that
//!   only it writes, so an increment is a plain load and store on the
//!   thread's own cache lines, never a `lock`-prefixed read-modify-write;
//! * [`snapshot`]/[`Snapshot::delta`] for capturing what a code section
//!   did, exact under concurrency (sums are monotone, deltas saturate).
//!
//! # Storage
//!
//! A thread's first bump allocates its block and registers it in a locked
//! list; a const-initialised thread-local pointer then names it, so
//! [`add`] is that pointer read, a null test and `load(Relaxed)` +
//! `store(Relaxed)`. When the thread exits, a TLS destructor folds the
//! block into the retired-totals block and unregisters it under the same
//! lock [`snapshot`] sums under, so a count is in exactly one of the two
//! places whenever a snapshot looks. Bumps that arrive after the fold
//! (from TLS destructors that run later, e.g. one that frees a block)
//! go to the retired block with `fetch_add`.
//!
//! # Overhead policy
//!
//! A counter bump measured ~6 ns while it was a `try_with` TLS lookup and
//! a `lock xadd` on one of 16 shards, which made the counters most of an
//! un-delayed flush; owner-written it is ~1 ns (EXPERIMENTS.md
//! `HOOK-FAST`). Counters still ride only paths that cross a call or lock
//! boundary: persistence points, the fat-pointer hashtable (modeled as a
//! library call per the paper), region allocator calls, region and
//! transaction lifecycle edges. The RIV `x2p`/`p2x` hot path is a
//! handful of inline instructions and has no counter. See DESIGN.md
//! "Observability".

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// One named process-wide counter. The inventory is fixed at
        /// compile time so storage is a flat array and snapshots are a
        /// single pass.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        /// Number of counters in the inventory.
        pub const NUM_COUNTERS: usize = [$(Counter::$variant),*].len();

        impl Counter {
            /// Every counter, in declaration (= serialization) order.
            pub const ALL: [Counter; NUM_COUNTERS] = [$(Counter::$variant),*];

            /// The counter's stable snake_case name, used in snapshots and
            /// the benchmark JSON schema.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counters! {
    /// Calls to [`crate::latency::wbarrier`].
    WbarrierCalls => "wbarrier_calls",
    /// Nanoseconds of emulated write-barrier latency injected.
    WbarrierDelayNs => "wbarrier_delay_ns",
    /// Calls to [`crate::latency::clflush_range`] with a nonempty range.
    ClflushCalls => "clflush_calls",
    /// Cache lines covered by those flush calls.
    ClflushLines => "clflush_lines",
    /// Nanoseconds of emulated per-line flush latency injected.
    ClflushDelayNs => "clflush_delay_ns",
    /// Shadow-tracker flush events (only while tracking is enabled).
    ShadowFlushEvents => "shadow_flush_events",
    /// Shadow-tracker fence events (only while tracking is enabled).
    ShadowFenceEvents => "shadow_fence_events",
    /// Fat-pointer hashtable probes (the per-dereference PMDK-style cost).
    FatLookups => "fat_lookups",
    /// `lastID`/`lastAddr` cache hits on the fat-with-cache path.
    FatCacheHits => "fat_cache_hits",
    /// `lastID`/`lastAddr` cache misses (fell through to the hashtable).
    FatCacheMisses => "fat_cache_misses",
    /// Regions mapped into the fat-pointer table (create or open; a
    /// grow keeps its base and counts `region_grows` instead).
    RegionOpens => "region_opens",
    /// Regions removed from the fat-pointer table (close, crash
    /// teardown, or drop).
    RegionCloses => "region_closes",
    /// Region allocator allocations (class-sized and large blocks).
    RegionAllocs => "region_allocs",
    /// Region allocator frees.
    RegionFrees => "region_frees",
    /// Transactions begun on an object store.
    TxBegins => "tx_begins",
    /// Transactions committed.
    TxCommits => "tx_commits",
    /// Transactions aborted (explicitly or by drop).
    TxAborts => "tx_aborts",
    /// Undo-log entries appended.
    UndoEntries => "undo_entries",
    /// Failed bitmap-word CAS attempts in the two-level allocator
    /// (contention on a shared subtree; see [`crate::llalloc`]).
    LlallocCasRetries => "llalloc_cas_retries",
    /// Subtree reservations taken over from another thread because no
    /// unreserved subtree of the class had free blocks.
    LlallocSubtreeSteals => "llalloc_subtree_steals",
    /// Subtrees carved from the bump frontier (locked slow path).
    LlallocSubtreesCreated => "llalloc_subtrees_created",
    /// Bitmap-page and descriptor lines visited by recovery/open scans.
    LlallocRecoveryLines => "llalloc_recovery_lines",
    /// Failed link CASes retried by lock-free persistent data structures
    /// (bucket-slot contention in pds-style link-and-persist sets).
    PdsCasRetries => "pds_cas_retries",
    /// Node/link persists issued before publishing a link (the
    /// "link-and-persist" half of the protocol: persist the node, CAS,
    /// persist the link).
    PdsLinkPersists => "pds_link_persists",
    /// NVTraverse-style flushes at traversal destinations (including the
    /// read-side flushes that make observed state durable before a
    /// response is returned).
    PdsDestinationFlushes => "pds_destination_flushes",
    /// Requests accepted into a region-server shard queue.
    SrvRequests => "srv_requests",
    /// Requests shed by admission control with an `Overloaded` response
    /// (either rejected at the gate or evicted from the queue to make
    /// room for a higher-priority arrival).
    SrvShed => "srv_shed",
    /// Requests answered `DeadlineExceeded` (expired while queued or
    /// before execution).
    SrvDeadlineExceeded => "srv_deadline_exceeded",
    /// Region-server writes run again after a crash the fault plan
    /// injected before them was recovered in place (the only re-run the
    /// server makes; every write error answers `Failed` at once).
    SrvRetries => "srv_retries",
    /// Tenants evicted (closed cleanly) by hot/cold LRU pressure.
    SrvEvictions => "srv_evictions",
    /// Tenant regions reopened at a different base after eviction or
    /// crash — each one is a live position-independence exercise.
    SrvRemapReopens => "srv_remap_reopens",
    /// Chunks released back to the NV-space pool that were already free —
    /// a chunk-accounting bug. Counted just before the pool panics so the
    /// leak is visible in metrics snapshots even from crash handlers.
    NvDoubleReleases => "nv_double_releases",
    /// Region growth operations (`Region::grow`) that committed new chunks
    /// or extended the committed tail of the run.
    RegionGrows => "region_grows",
    /// Translation misses on the lock-free fast path: an address outside
    /// the data area, an unmapped chunk, or an out-of-range region ID fed
    /// to `Addr2ID`/`ID2Addr` (e.g. a corrupted fat pointer). These return
    /// a typed miss instead of reading out of the tables.
    NvTranslationMisses => "nv_translation_misses",
}

/// One thread's counters (or the retired totals). Aligned so two blocks
/// never share a cache line.
#[repr(align(128))]
struct Block {
    vals: [AtomicU64; NUM_COUNTERS],
}

impl Block {
    const fn new() -> Block {
        Block {
            vals: [const { AtomicU64::new(0) }; NUM_COUNTERS],
        }
    }
}

/// Totals of exited threads, plus bumps made after a thread's own block
/// was folded. The only block written with `fetch_add`.
static RETIRED: Block = Block::new();

/// The blocks of running threads, boxed because each thread keeps a
/// pointer to its block while the list grows and shrinks around it. The
/// list owns them; a block leaves it (and is freed) only in its thread's
/// [`Owner`] destructor.
#[allow(clippy::vec_box)]
type LiveBlocks = Vec<Box<Block>>;

static LIVE: Mutex<LiveBlocks> = Mutex::new(Vec::new());

fn live() -> MutexGuard<'static, LiveBlocks> {
    // Every critical section leaves the list and the totals consistent.
    LIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Unregisters the thread's block when the thread exits.
struct Owner;

thread_local! {
    /// This thread's block in [`LIVE`]; null before its first bump and
    /// after [`Owner`] folded it. No destructor, so reading it never
    /// goes through the lazy-initialisation state check.
    static MINE: Cell<*const Block> = const { Cell::new(std::ptr::null()) };
    /// Touched (which registers its destructor) when `MINE` is set.
    static OWNER: Owner = const { Owner };
}

impl Drop for Owner {
    fn drop(&mut self) {
        let mine = MINE.replace(std::ptr::null());
        let mut live = live();
        if let Some(i) = live.iter().position(|b| std::ptr::eq(&**b, mine)) {
            let block = live.swap_remove(i);
            for (total, v) in RETIRED.vals.iter().zip(&block.vals) {
                total.fetch_add(v.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
    }
}

/// Adds `n` to counter `c`.
#[inline]
pub fn add(c: Counter, n: u64) {
    let mine = MINE.with(Cell::get);
    if mine.is_null() {
        return add_unregistered(c, n);
    }
    // SAFETY: `MINE` is non-null only from this thread's registration to
    // its `Owner` destructor, and `LIVE` keeps the block allocated for
    // exactly that span.
    let slot = unsafe { &(*mine).vals[c as usize] };
    // Only this thread writes the block, so load + store loses nothing.
    slot.store(
        slot.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// First bump of a thread (registers its block), or a bump from a TLS
/// destructor that runs after [`Owner`]'s (counted on the retired block).
#[cold]
#[inline(never)]
fn add_unregistered(c: Counter, n: u64) {
    if OWNER.try_with(|_| ()).is_err() {
        RETIRED.vals[c as usize].fetch_add(n, Ordering::Relaxed);
        return;
    }
    let block = Box::new(Block::new());
    block.vals[c as usize].store(n, Ordering::Relaxed);
    // The box's heap address survives the move into the list.
    let mine: *const Block = &*block;
    live().push(block);
    MINE.set(mine);
}

/// Increments counter `c` by one.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// A point-in-time reading of every counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    values: [u64; NUM_COUNTERS],
}

impl Snapshot {
    /// The value of counter `c` in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// What happened between `earlier` and `self`: per-counter saturating
    /// difference. (Counters are monotone, so saturation only triggers if
    /// the arguments are swapped.)
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        Snapshot { values }
    }

    /// `(name, value)` pairs in stable [`Counter::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c.name(), self.get(c)))
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }
}

impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot {
            values: [0; NUM_COUNTERS],
        }
    }
}

/// Reads every counter (retired totals plus every running thread's
/// block). Concurrent increments may or may not be included — each
/// counter is individually exact and monotone.
pub fn snapshot() -> Snapshot {
    let mut values = [0u64; NUM_COUNTERS];
    // Under the lock a block cannot move to the retired totals between
    // the two reads, so no count is seen twice or missed.
    let live = live();
    for block in std::iter::once(&RETIRED).chain(live.iter().map(|b| &**b)) {
        for (v, slot) in values.iter_mut().zip(&block.vals) {
            *v += slot.load(Ordering::Relaxed);
        }
    }
    Snapshot { values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    #[test]
    fn add_is_visible_in_snapshot() {
        let before = snapshot();
        add(Counter::RegionGrows, 3);
        incr(Counter::RegionGrows);
        let after = snapshot();
        let d = after.delta(&before);
        assert!(d.get(Counter::RegionGrows) >= 4);
    }

    #[test]
    fn delta_saturates_and_default_is_zero() {
        let before = snapshot();
        add(Counter::UndoEntries, 7);
        let after = snapshot();
        // Swapped arguments saturate to zero rather than wrapping.
        assert_eq!(before.delta(&after).get(Counter::UndoEntries), 0);
        assert!(Snapshot::default().is_zero());
    }

    #[test]
    fn names_are_unique_and_snakecase() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate counter name");
        for name in names {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} is not snake_case"
            );
        }
    }

    #[test]
    fn iteration_follows_declaration_order() {
        let snap = snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names[0], "wbarrier_calls");
        assert_eq!(names.len(), NUM_COUNTERS);
        assert_eq!(
            names.last().copied(),
            Some("nv_translation_misses"),
            "serialization order is the declaration order"
        );
    }

    /// How many running threads' blocks hold a non-zero `c`.
    fn live_blocks_counting(c: Counter) -> usize {
        let live = live();
        live.iter()
            .filter(|b| b.vals[c as usize].load(Ordering::Relaxed) != 0)
            .count()
    }

    // The three tests below each use a counter nothing else in this
    // crate's unit tests bumps, so their deltas are exact although other
    // tests run on parallel threads.

    #[test]
    fn exiting_threads_lose_nothing_while_snapshots_stay_monotone() {
        const C: Counter = Counter::SrvRetries;
        const THREADS: usize = 8;
        const BUMPS: u64 = 10_000;
        let before = snapshot();
        let go = Arc::new(Barrier::new(THREADS + 1));
        // Workers pause halfway until the watcher's first snapshot is
        // taken, so at least one lands while the bumps are running.
        let first = Arc::new(Barrier::new(THREADS + 1));
        let done = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (go, first) = (Arc::clone(&go), Arc::clone(&first));
                std::thread::spawn(move || {
                    go.wait();
                    for i in 0..BUMPS {
                        if i == BUMPS / 2 {
                            first.wait();
                        }
                        incr(C);
                    }
                })
            })
            .collect();
        let watcher = {
            let (go, first) = (Arc::clone(&go), Arc::clone(&first));
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut prev = snapshot();
                go.wait();
                let mut taken = 0u64;
                // Snapshots race the bumps, the folds and the frees.
                while !done.load(Ordering::SeqCst) {
                    let now = snapshot();
                    for &c in &Counter::ALL {
                        assert!(now.get(c) >= prev.get(c), "{} went backwards", c.name());
                    }
                    prev = now;
                    taken += 1;
                    if taken == 1 {
                        first.wait();
                    }
                }
                taken
            })
        };
        for w in workers {
            w.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        assert!(watcher.join().unwrap() > 0);
        assert_eq!(snapshot().delta(&before).get(C), THREADS as u64 * BUMPS);
        // join() returns after the TLS destructors: every block that
        // counted has been folded and unregistered, none is leaked.
        assert_eq!(live_blocks_counting(C), 0);
    }

    #[test]
    fn bump_from_a_later_tls_destructor_is_counted_once() {
        const C: Counter = Counter::SrvEvictions;
        /// Bumps `C` when the thread's TLS is torn down and reports
        /// whether the thread's own block was already gone by then.
        struct BumpOnExit(Arc<AtomicBool>);
        impl Drop for BumpOnExit {
            fn drop(&mut self) {
                self.0
                    .store(MINE.with(Cell::get).is_null(), Ordering::SeqCst);
                incr(C);
            }
        }
        thread_local! {
            static LATE: std::cell::RefCell<Option<BumpOnExit>> =
                const { std::cell::RefCell::new(None) };
        }
        let before = snapshot();
        let after_fold = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&after_fold);
        std::thread::spawn(move || {
            // Destructors run in reverse order of registration: LATE's is
            // registered first, `Owner`'s by the first bump after it.
            LATE.with(|l| *l.borrow_mut() = Some(BumpOnExit(flag)));
            add(C, 5);
        })
        .join()
        .unwrap();
        assert!(
            after_fold.load(Ordering::SeqCst),
            "the destructor under test ran before the block was folded"
        );
        assert_eq!(snapshot().delta(&before).get(C), 6);
        assert_eq!(live_blocks_counting(C), 0);
    }

    #[test]
    fn first_bump_inside_a_tls_destructor_registers_and_folds() {
        const C: Counter = Counter::SrvRemapReopens;
        struct BumpOnExit;
        impl Drop for BumpOnExit {
            fn drop(&mut self) {
                add(C, 3);
            }
        }
        thread_local! {
            static ONLY: BumpOnExit = const { BumpOnExit };
        }
        let before = snapshot();
        // The thread never bumps while it runs; its only bump comes from
        // a destructor, which registers a block whose own destructor must
        // still run before the thread is gone.
        std::thread::spawn(|| ONLY.with(|_| ())).join().unwrap();
        assert_eq!(snapshot().delta(&before).get(C), 3);
        assert_eq!(live_blocks_counting(C), 0);
    }
}
