//! The NV space: a reserved address range holding the two direct-mapped
//! lookup tables and a chunked data area.
//!
//! This is the runtime materialization of the paper's Figure 7, generalized
//! from fixed per-region segments to *chunk runs*: the data area is a pool
//! of `2^l2` chunks of `2^lc` bytes, and a region occupies a contiguous run
//! of chunks that can grow in place up to `2^l3` bytes. The areas live at
//! fixed offsets inside one contiguous reservation:
//!
//! ```text
//! +-------------+------------------------+--- gap ---+--------------------------+
//! |  RID table  |  base table (2^l4 * 8) |           |  data area (2^l2 chunks) |
//! +-------------+------------------------+-----------+--------------------------+
//! ^ reservation base                                  ^ aligned to 2^lc
//! ```
//!
//! * The **RID table** has one 8-byte entry per chunk; entry `c` packs the
//!   region ID mapped at chunk `c` in its low 32 bits (0 = none) and the
//!   chunk's index *within* its region in the high 32 bits. Given any
//!   address inside a region, the entry address is
//!   `rid_table + ((addr - data_base) >> lc) * 8` — the paper's "several
//!   bit transformations" — and a single aligned load yields both `Addr2ID`
//!   and `getBase` (the region base is the containing chunk's base minus
//!   `chunk_in_region << lc`).
//! * The **base table** has one 8-byte entry per region ID; entry `r` holds
//!   the absolute base of region `r`'s chunk run (0 = region not open), so
//!   `ID2Addr` is one load at `base_table + r * 8` (Figure 5 (b)). The
//!   whole table is mapped once as lazily backed anonymous memory: a page
//!   no bind has written reads as the kernel's shared zero page, so an
//!   unbound ID reads 0 and costs no physical memory however large `l4`
//!   is.
//!
//! Table entries are written under the pool lock when regions open, close,
//! or grow, but read lock-free on the pointer-dereference fast path via
//! relaxed atomic loads, which compile to plain `mov`s. Out-of-range
//! chunks, unmapped chunks, and out-of-range region IDs all return a typed
//! miss (0) instead of reading outside the tables — a corrupted fat pointer
//! in a release build fails translation instead of faulting.

use crate::error::{NvError, Result};
use crate::layout::Layout;
use crate::mem::{align_up, page_size, Reservation};
use crate::metrics::{self, Counter};
use parking_lot::Mutex;
use std::fs::File;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Index of a chunk in the data area. Chunk 0 is reserved (never handed
/// out) so a zero base-table entry unambiguously means "region not open".
pub type ChunkIndex = u32;

/// A contiguous run of chunks backing one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRun {
    /// First chunk of the run (never 0 for a real run).
    pub start: ChunkIndex,
    /// Number of chunks in the run (>= 1).
    pub count: u32,
}

impl ChunkRun {
    /// The chunk indices covered by this run.
    pub fn chunks(&self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.count as usize
    }
}

/// Environment variable overriding the randomized chunk-placement seed.
/// When set (decimal or `0x`-prefixed hex), chunk bases are deterministic
/// across runs — the crash/concurrent matrices pin this alongside their
/// other seeds so recorded addresses replay bit-identically.
pub const PLACEMENT_SEED_ENV: &str = "NVMSIM_PLACEMENT_SEED";

/// A process-wide simulated NV space.
///
/// Most programs use the process-global instance via [`NvSpace::global`];
/// constructing additional spaces is possible for tests but pointers from
/// different spaces must not be mixed.
pub struct NvSpace {
    layout: Layout,
    reservation: Reservation,
    rid_table: usize,
    base_table: usize,
    data_base: usize,
    pool: Mutex<ChunkPool>,
}

impl std::fmt::Debug for NvSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NvSpace")
            .field("layout", &self.layout)
            .field("data_base", &format_args!("{:#x}", self.data_base))
            .field("free_chunks", &self.free_chunks())
            .finish()
    }
}

struct ChunkPool {
    used: Vec<bool>,
    free: usize,
    rng: u64,
}

/// Parses [`PLACEMENT_SEED_ENV`] if set and well-formed.
fn placement_seed_from_env() -> Option<u64> {
    let raw = std::env::var(PLACEMENT_SEED_ENV).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

impl ChunkPool {
    fn new(count: usize) -> ChunkPool {
        let mut used = vec![false; count];
        used[0] = true; // chunk 0 is reserved
        let seed = placement_seed_from_env().unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x9e3779b97f4a7c15)
        }) | 1;
        ChunkPool {
            used,
            free: count - 1,
            rng: seed,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: quality is irrelevant, we only want chunk bases to
        // vary across runs the way address-space randomization would —
        // unless a seed is pinned for deterministic replay.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Finds `n` contiguous free chunks with the start index in `[lo, hi)`,
    /// without claiming them. Scans each candidate window from the top so a
    /// used chunk skips the start past it in one step.
    fn scan(&self, lo: usize, hi: usize, n: usize) -> Option<usize> {
        let mut s = lo;
        'outer: while s < hi {
            let mut i = s + n;
            while i > s {
                i -= 1;
                if self.used[i] {
                    s = i + 1;
                    continue 'outer;
                }
            }
            return Some(s);
        }
        None
    }

    fn claim(&mut self, start: usize, n: usize) {
        for i in start..start + n {
            self.used[i] = true;
        }
        self.free -= n;
    }

    fn acquire_run(&mut self, n: usize) -> Option<usize> {
        let count = self.used.len();
        if n == 0 || n >= count || self.free < n {
            return None;
        }
        // Valid starts are [1, hi); pick a random one and probe forward,
        // wrapping once, so placement varies like ASLR would.
        let hi = count - n + 1;
        let r = 1 + (self.next_rand() as usize) % (hi - 1);
        let s = self.scan(r, hi, n).or_else(|| self.scan(1, r, n))?;
        self.claim(s, n);
        Some(s)
    }

    fn acquire_run_at(&mut self, start: usize, n: usize) -> bool {
        if start == 0 || n == 0 || start + n > self.used.len() {
            return false;
        }
        if (start..start + n).any(|i| self.used[i]) {
            return false;
        }
        self.claim(start, n);
        true
    }

    fn release_run(&mut self, start: usize, n: usize) {
        assert!(
            start != 0 && start + n <= self.used.len(),
            "chunk run [{start}, +{n}) out of pool bounds"
        );
        for i in start..start + n {
            if !self.used[i] {
                // A double release means some owner's chunk accounting is
                // wrong and address space would alias or leak invisibly.
                // Count it (so crash handlers see it in metrics snapshots),
                // then fail hard.
                metrics::incr(Counter::NvDoubleReleases);
                panic!("double release of NV chunk {i} (run [{start}, +{n}))");
            }
            self.used[i] = false;
        }
        self.free += n;
    }
}

static GLOBAL: OnceLock<NvSpace> = OnceLock::new();

/// Counts a typed translation miss. Out of line so the conversion
/// functions inline as their hit path alone.
#[cold]
fn translation_miss() {
    metrics::incr(Counter::NvTranslationMisses);
}

impl NvSpace {
    /// Creates a new NV space with the given layout.
    ///
    /// Reserves `2^(l2+lc)` bytes of virtual address space for the data
    /// area plus the two tables. Both tables are mapped up front but
    /// lazily backed: a table page consumes physical memory once a bind
    /// writes to it, and chunks commit as regions grow.
    ///
    /// # Errors
    ///
    /// [`NvError::BadLayout`] for invalid layouts, [`NvError::Io`] if the
    /// reservation fails.
    pub fn new(layout: Layout) -> Result<NvSpace> {
        layout.validate()?;
        let page = page_size();
        let rid_size = align_up(layout.rid_table_size(), page);
        let tables_size = rid_size + align_up(layout.base_table_size(), page);
        // Over-reserve by one chunk so the data base can be aligned.
        let total = tables_size + layout.data_area_size() + layout.chunk_size();
        let reservation = Reservation::new(total)?;
        let rid_table = reservation.base();
        let data_base = align_up(rid_table + tables_size, layout.chunk_size());
        reservation.commit_anon(rid_table, tables_size)?;
        Ok(NvSpace {
            layout,
            reservation,
            rid_table,
            base_table: rid_table + rid_size,
            data_base,
            pool: Mutex::new(ChunkPool::new(layout.chunk_count())),
        })
    }

    /// Returns the process-global NV space, creating it with
    /// [`Layout::DEFAULT`] on first use.
    ///
    /// # Panics
    ///
    /// Panics if the initial reservation fails (the process cannot do
    /// anything useful without an NV space).
    #[inline]
    pub fn global() -> &'static NvSpace {
        GLOBAL.get_or_init(|| {
            NvSpace::new(Layout::DEFAULT).expect("failed to reserve the global NV space")
        })
    }

    /// The layout this space was built with.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Base address of the data area (chunk 0).
    #[inline]
    pub fn data_base(&self) -> usize {
        self.data_base
    }

    /// Number of chunks currently available.
    pub fn free_chunks(&self) -> usize {
        self.pool.lock().free
    }

    /// Reseeds the randomized chunk-placement RNG. Matrix harnesses call
    /// this with their pinned seed so chunk bases — and therefore every
    /// recorded address — replay deterministically; randomized placement
    /// stays the default for everyone else.
    pub fn reseed_placement(&self, seed: u64) {
        self.pool.lock().rng = seed | 1;
    }

    /// Base address of chunk `idx`.
    pub fn chunk_base(&self, idx: ChunkIndex) -> usize {
        debug_assert!((idx as usize) < self.layout.chunk_count());
        self.data_base + ((idx as usize) << self.layout.lc)
    }

    /// Whether `addr` falls inside the data area.
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.data_base && addr < self.data_base + self.layout.data_area_size()
    }

    /// Chunk index containing `addr`.
    ///
    /// # Errors
    ///
    /// [`NvError::AddressOutOfRange`] if `addr` is outside the data area.
    pub fn chunk_of(&self, addr: usize) -> Result<ChunkIndex> {
        if !self.contains(addr) {
            return Err(NvError::AddressOutOfRange { addr });
        }
        Ok(((addr - self.data_base) >> self.layout.lc) as ChunkIndex)
    }

    /// Acquires a run of `count` contiguous chunks at a randomized base,
    /// simulating address-space randomization: reopening a region lands it
    /// somewhere new.
    ///
    /// # Errors
    ///
    /// [`NvError::NoFreeSegment`] when no run of that length is free.
    pub fn acquire_chunks(&self, count: u32) -> Result<ChunkRun> {
        self.pool
            .lock()
            .acquire_run(count as usize)
            .map(|start| ChunkRun {
                start: start as ChunkIndex,
                count,
            })
            .ok_or(NvError::NoFreeSegment)
    }

    /// Acquires a specific run (used by tests and placeholder pinning).
    ///
    /// # Errors
    ///
    /// [`NvError::NoFreeSegment`] if any chunk of the run is reserved, in
    /// use, or out of range.
    pub fn acquire_chunks_at(&self, start: ChunkIndex, count: u32) -> Result<ChunkRun> {
        if self
            .pool
            .lock()
            .acquire_run_at(start as usize, count as usize)
        {
            Ok(ChunkRun { start, count })
        } else {
            Err(NvError::NoFreeSegment)
        }
    }

    /// Returns a chunk run to the pool. The caller must have decommitted
    /// (or never committed) its memory.
    ///
    /// # Panics
    ///
    /// Panics if any chunk of the run is already free — a double release
    /// is a chunk-accounting bug that would alias address space, so it is
    /// a hard error (counted in `nv_double_releases` first).
    pub fn release_chunks(&self, run: ChunkRun) {
        self.pool
            .lock()
            .release_run(run.start as usize, run.count as usize);
    }

    fn check_range(&self, addr: usize, len: usize) -> Result<()> {
        let end = addr
            .checked_add(len)
            .ok_or(NvError::AddressOutOfRange { addr: usize::MAX })?;
        if addr < self.data_base || end > self.data_base + self.layout.data_area_size() {
            return Err(NvError::AddressOutOfRange { addr });
        }
        Ok(())
    }

    /// Commits `len` bytes of zeroed anonymous memory at `addr` (page
    /// aligned, inside the data area, within chunks the caller owns).
    ///
    /// # Errors
    ///
    /// Propagates reservation errors.
    pub fn commit_range_anon(&self, addr: usize, len: usize) -> Result<()> {
        let len = align_up(len, page_size());
        self.check_range(addr, len)?;
        self.reservation.commit_anon(addr, len)
    }

    /// Commits `len` bytes of file-backed memory at `addr`, mapping the
    /// file from `file_off` (both page aligned). See
    /// [`Reservation::commit_file`].
    ///
    /// # Errors
    ///
    /// Propagates reservation errors.
    pub fn commit_range_file(
        &self,
        addr: usize,
        len: usize,
        file: &File,
        file_off: u64,
        shared: bool,
    ) -> Result<()> {
        let len = align_up(len, page_size());
        self.check_range(addr, len)?;
        self.reservation
            .commit_file(addr, len, file, file_off, shared)
    }

    /// Decommits `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates reservation errors.
    pub fn decommit_range(&self, addr: usize, len: usize) -> Result<()> {
        let len = align_up(len, page_size());
        self.check_range(addr, len)?;
        self.reservation.decommit(addr, len)
    }

    /// Flushes `len` file-backed bytes at `addr` to the backing file.
    ///
    /// # Errors
    ///
    /// Propagates reservation errors.
    pub fn sync_range(&self, addr: usize, len: usize) -> Result<()> {
        let len = align_up(len, page_size());
        self.check_range(addr, len)?;
        self.reservation.sync(addr, len)
    }

    // -- table maintenance (region open/close/grow path, pool-locked) ------

    /// RID-table entry of `chunk`, or `None` when `chunk` does not fit in
    /// `l2` bits.
    #[inline]
    fn rid_slot(&self, chunk: usize) -> Option<&AtomicU64> {
        if chunk >> self.layout.l2 != 0 {
            return None;
        }
        // SAFETY: the RID table is mapped for the space's lifetime and
        // holds `2^l2` entries; `chunk` was bounds-checked just above.
        Some(unsafe { &*(self.rid_table as *const AtomicU64).add(chunk) })
    }

    /// Base-table entry of `rid`, or `None` when `rid` does not fit in
    /// `l4` bits — the bounds check that keeps a corrupted region ID from
    /// reading outside the table.
    #[inline]
    fn base_slot(&self, rid: u32) -> Option<&AtomicUsize> {
        if rid >> self.layout.l4 != 0 {
            return None;
        }
        // SAFETY: the base table is mapped for the space's lifetime and
        // holds `2^l4` entries; `rid` was bounds-checked just above.
        Some(unsafe { &*(self.base_table as *const AtomicUsize).add(rid as usize) })
    }

    /// Publishes the `rid <-> chunk run` association in both tables.
    ///
    /// Called by the region manager when a region is opened into a run and
    /// again (for the new chunks) when a region grows.
    ///
    /// # Errors
    ///
    /// [`NvError::InvalidRid`] if `rid` is out of range or already bound.
    pub fn bind(&self, rid: u32, run: ChunkRun) -> Result<()> {
        if !self.layout.rid_in_range(rid) {
            return Err(NvError::InvalidRid {
                rid,
                reason: "out of range for layout",
            });
        }
        debug_assert!(run.start != 0 && run.chunks().end <= self.layout.chunk_count());
        let _guard = self.pool.lock();
        let slot = self.base_slot(rid).expect("rid range-checked above");
        if slot.load(Ordering::Relaxed) != 0 {
            return Err(NvError::InvalidRid {
                rid,
                reason: "already bound",
            });
        }
        slot.store(self.chunk_base(run.start), Ordering::Release);
        self.bind_chunks(rid, run, 0);
        Ok(())
    }

    /// Publishes RID-table entries for the chunks of `run`, numbering them
    /// within the region starting at `first_in_region`. Used by `bind` (at
    /// 0) and by region growth for the newly acquired tail run.
    pub fn bind_chunks(&self, rid: u32, run: ChunkRun, first_in_region: u32) {
        for (k, chunk) in run.chunks().enumerate() {
            let in_region = first_in_region as u64 + k as u64;
            self.rid_slot(chunk)
                .expect("chunk run lies inside the pool")
                .store(in_region << 32 | rid as u64, Ordering::Release);
        }
    }

    /// Removes the `rid <-> chunk run` association from both tables.
    pub fn unbind(&self, rid: u32, run: ChunkRun) {
        let _guard = self.pool.lock();
        for chunk in run.chunks() {
            self.rid_slot(chunk)
                .expect("chunk run lies inside the pool")
                .store(0, Ordering::Release);
        }
        if let Some(slot) = self.base_slot(rid) {
            slot.store(0, Ordering::Release);
        }
    }

    // -- hot path: the paper's conversion functions -------------------------

    /// Raw RID-table entry for the chunk containing `addr`, or `None` for
    /// addresses outside the data area (typed miss, never an OOB read).
    #[inline]
    fn rid_entry_of_addr(&self, addr: usize) -> Option<u64> {
        let chunk = addr.wrapping_sub(self.data_base) >> self.layout.lc;
        match self.rid_slot(chunk) {
            Some(slot) => Some(slot.load(Ordering::Relaxed)),
            None => {
                translation_miss();
                None
            }
        }
    }

    /// `Addr2ID` (Figure 5 (c)): region ID of the region containing `addr`.
    ///
    /// Returns 0 if `addr` is outside the data area or no region is mapped
    /// at its chunk. Cost: two bit transformations, a bounds check, and one
    /// dependent load.
    #[inline]
    pub fn rid_of_addr(&self, addr: usize) -> u32 {
        match self.rid_entry_of_addr(addr) {
            Some(e) => e as u32,
            None => 0,
        }
    }

    /// `Addr2ID` plus the within-region offset, from the same single
    /// RID-table load: the entry's high half is the chunk's index within
    /// its region, so `offset = (chunk_in_region << lc) | (addr & chunk
    /// mask)`. Returns `(0, 0)` on a translation miss.
    ///
    /// Under chunked placement this — not masking with
    /// [`Layout::offset_mask`] — is the correct `addr - getBase(addr)`:
    /// region bases are chunk aligned, not `2^l3` aligned.
    #[inline]
    pub fn rid_off_of_addr(&self, addr: usize) -> (u32, u64) {
        match self.rid_entry_of_addr(addr) {
            Some(e) => {
                let off = (e >> 32 << self.layout.lc) | (addr & self.layout.chunk_mask()) as u64;
                (e as u32, off)
            }
            None => (0, 0),
        }
    }

    /// Checked variant of [`NvSpace::rid_of_addr`]: returns `None` when
    /// `addr` is outside the data area or its chunk has no region bound.
    pub fn try_rid_of_addr(&self, addr: usize) -> Option<u32> {
        if !self.contains(addr) {
            return None;
        }
        match self.rid_of_addr(addr) {
            0 => None,
            rid => Some(rid),
        }
    }

    /// `ID2Addr` (Figure 5 (b)): base address of the region with id `rid`.
    ///
    /// Returns 0 if the region is not open *or* `rid` is out of range for
    /// the layout (a corrupted fat pointer fails translation instead of
    /// reading outside the table) — callers that cannot tolerate that must
    /// check [`NvSpace::is_bound`] first. Cost: one predicted bounds
    /// branch and one load; a never-bound ID reads 0 off the zero page.
    #[inline]
    pub fn base_of_rid(&self, rid: u32) -> usize {
        match self.base_slot(rid) {
            Some(slot) => slot.load(Ordering::Relaxed),
            None => {
                translation_miss();
                0
            }
        }
    }

    /// Checked variant of [`NvSpace::base_of_rid`]: `None` is a typed miss
    /// (unknown or unbound region ID).
    pub fn try_base_of_rid(&self, rid: u32) -> Option<usize> {
        match self.base_of_rid(rid) {
            0 => None,
            base => Some(base),
        }
    }

    /// `getBase` (Figure 5 (c)): the base of the region containing `addr`.
    ///
    /// The containing chunk's base is a mask (chunks are `2^lc`-aligned
    /// absolutely); the RID-table entry's high half walks back to the
    /// run's first chunk. Unmapped chunks yield their chunk base;
    /// addresses outside the data area yield their `2^lc`-aligned floor.
    #[inline]
    pub fn base_of_addr(&self, addr: usize) -> usize {
        let chunk_base = addr & !self.layout.chunk_mask();
        match self.rid_entry_of_addr(addr) {
            Some(e) => chunk_base - (((e >> 32) as usize) << self.layout.lc),
            None => chunk_base,
        }
    }

    /// Whether region `rid` currently has a chunk run bound.
    pub fn is_bound(&self, rid: u32) -> bool {
        if !self.layout.rid_in_range(rid) {
            return false;
        }
        self.base_of_rid(rid) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> NvSpace {
        // 64 chunks of 64 KiB, regions up to 1 MiB, 6-bit rids.
        NvSpace::new(Layout::new(6, 16, 20, 6).unwrap()).unwrap()
    }

    #[test]
    fn data_base_is_chunk_aligned() {
        let s = small_space();
        assert_eq!(s.data_base() % s.layout().chunk_size(), 0);
    }

    #[test]
    fn chunk_zero_is_reserved() {
        let s = small_space();
        assert!(s.acquire_chunks_at(0, 1).is_err());
        for _ in 0..63 {
            assert_ne!(s.acquire_chunks(1).unwrap().start, 0);
        }
        assert!(matches!(s.acquire_chunks(1), Err(NvError::NoFreeSegment)));
    }

    #[test]
    fn acquire_release_roundtrip() {
        let s = small_space();
        let run = s.acquire_chunks(3).unwrap();
        assert_eq!(run.count, 3);
        let before = s.free_chunks();
        s.release_chunks(run);
        assert_eq!(s.free_chunks(), before + 3);
        // Can re-acquire deterministically.
        assert_eq!(s.acquire_chunks_at(run.start, 3).unwrap(), run);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_a_hard_error() {
        let s = small_space();
        let run = s.acquire_chunks(2).unwrap();
        s.release_chunks(run);
        s.release_chunks(run); // second release must panic, not leak
    }

    #[test]
    fn placement_is_deterministic_under_a_pinned_seed() {
        let s = small_space();
        s.reseed_placement(0xfeed);
        let a = s.acquire_chunks(2).unwrap();
        let b = s.acquire_chunks(1).unwrap();
        s.release_chunks(a);
        s.release_chunks(b);
        s.reseed_placement(0xfeed);
        assert_eq!(s.acquire_chunks(2).unwrap(), a);
        assert_eq!(s.acquire_chunks(1).unwrap(), b);
    }

    #[test]
    fn bind_publishes_both_tables_across_chunks() {
        let s = small_space();
        let run = s.acquire_chunks(3).unwrap();
        s.bind(5, run).unwrap();
        assert!(s.is_bound(5));
        let base = s.chunk_base(run.start);
        assert_eq!(s.base_of_rid(5), base);
        let csize = s.layout().chunk_size();
        // Translation works from every chunk of the run, not just the
        // first, and offsets are region-relative.
        for k in 0..3usize {
            let addr = base + k * csize + 12345;
            assert_eq!(s.rid_of_addr(addr), 5);
            assert_eq!(s.base_of_addr(addr), base);
            assert_eq!(s.rid_off_of_addr(addr), (5, (k * csize + 12345) as u64));
        }
        s.unbind(5, run);
        assert!(!s.is_bound(5));
        assert_eq!(s.rid_of_addr(base), 0);
        s.release_chunks(run);
    }

    #[test]
    fn bind_rejects_bad_rids() {
        let s = small_space();
        let run = s.acquire_chunks(1).unwrap();
        assert!(s.bind(0, run).is_err());
        assert!(s.bind(64, run).is_err(), "l4 = 6 allows rids 1..=63");
        s.bind(63, run).unwrap();
        let run2 = s.acquire_chunks(1).unwrap();
        assert!(s.bind(63, run2).is_err(), "double bind rejected");
        s.unbind(63, run);
    }

    #[test]
    fn out_of_range_translation_is_a_typed_miss() {
        let s = small_space();
        // Addresses outside the data area: typed miss, no OOB table read.
        assert_eq!(s.rid_of_addr(0x1000), 0);
        assert_eq!(s.rid_off_of_addr(usize::MAX / 2), (0, 0));
        assert_eq!(s.try_rid_of_addr(0x1000), None);
        // Out-of-range rids (e.g. from a corrupted fat pointer): same.
        assert_eq!(s.base_of_rid(9999), 0);
        assert_eq!(s.base_of_rid(u32::MAX), 0);
        assert_eq!(s.try_base_of_rid(u32::MAX), None);
        // In-range but never-bound rid: its table page was never written
        // and reads as zeros — still a typed miss.
        assert_eq!(s.base_of_rid(7), 0);
        assert!(!s.is_bound(7));
    }

    #[test]
    fn commit_range_and_write_across_a_chunk_boundary() {
        let s = small_space();
        let run = s.acquire_chunks(2).unwrap();
        let base = s.chunk_base(run.start);
        let csize = s.layout().chunk_size();
        s.commit_range_anon(base, 2 * csize).unwrap();
        // A write spanning the boundary between the two chunks of the run.
        let p = (base + csize - 4) as *mut u64;
        unsafe {
            p.write_unaligned(0xdead_beef_cafe_f00d);
            assert_eq!(p.read_unaligned(), 0xdead_beef_cafe_f00d);
        }
        s.decommit_range(base, 2 * csize).unwrap();
        s.release_chunks(run);
    }

    #[test]
    fn commit_range_checks_bounds() {
        let s = small_space();
        assert!(s.commit_range_anon(0x1000, 4096).is_err());
        let end = s.data_base() + s.layout().data_area_size();
        assert!(s.commit_range_anon(end - 4096, 8192).is_err());
    }

    #[test]
    fn chunk_of_checks_range() {
        let s = small_space();
        assert!(s.chunk_of(0x1000).is_err());
        let run = s.acquire_chunks(1).unwrap();
        assert_eq!(s.chunk_of(s.chunk_base(run.start) + 5).unwrap(), run.start);
        s.release_chunks(run);
    }

    #[test]
    fn runs_are_contiguous_and_exhaustion_reports_cleanly() {
        let s = small_space();
        // 63 usable chunks: a 40-chunk run plus a 23-chunk run exhaust it.
        // Pin the first run's placement — randomized placement could
        // otherwise split the free space so no 23-run remains.
        let a = s.acquire_chunks_at(1, 40).unwrap();
        let b = s.acquire_chunks(23).unwrap();
        assert_eq!(s.free_chunks(), 0);
        assert!(matches!(s.acquire_chunks(1), Err(NvError::NoFreeSegment)));
        s.release_chunks(a);
        assert!(
            matches!(s.acquire_chunks(41), Err(NvError::NoFreeSegment)),
            "no contiguous run of 41 exists even though 40 chunks are free"
        );
        let c = s.acquire_chunks(40).unwrap();
        assert_eq!(c.start, a.start, "only one 40-run fits");
        s.release_chunks(b);
        s.release_chunks(c);
    }

    #[test]
    fn global_space_initializes_once() {
        let a = NvSpace::global() as *const _;
        let b = NvSpace::global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn random_acquisition_varies_chunks() {
        let s = small_space();
        let a = s.acquire_chunks(1).unwrap();
        let b = s.acquire_chunks(1).unwrap();
        assert_ne!(a.start, b.start);
    }
}
