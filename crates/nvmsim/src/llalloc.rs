//! Two-level lock-free persistent allocator: every region's one
//! allocator.
//!
//! It follows the design of LLFree ("Understanding and Optimizing
//! Persistent Memory Allocation", see PAPERS.md): all *persistent* state
//! is a set of atomic bitmap words, and all *volatile* state lives in
//! DRAM, rebuilt from the bitmaps page by page after one bounded scan — no
//! undo log, no recovery ambiguity.
//!
//! # Lower level (on media)
//!
//! Block ownership lives in **bitmap pages** carved from the region's
//! bump frontier and chained from `AllocHeader::ll_dir`:
//!
//! ```text
//! one 4 KiB bitmap page
//! +--------------------+----------------+----------------+-- ~ --+
//! | page header (64 B) | subtree 0 (64B)| subtree 1 (64B)|  ...  |   63 subtrees
//! | magic next count   | base | meta    |                |       |
//! | pad crc pad        | bitmap | pad   |                |       |
//! +--------------------+----------------+----------------+-- ~ --+
//! ```
//!
//! Each **subtree descriptor** covers up to 64 blocks of one size class:
//! `base` is the offset of block 0, `meta` packs the class index and the
//! block capacity, and one persistent `bitmap` word holds the allocated
//! bit per block. Bytes 24–63 are padding (an older image keeps stale
//! words there, sealed by the page CRC). Each subtree's volatile words,
//! `owner` (a reservation) and `taken`, live in DRAM on a line of their
//! own, allocated page by page: when a page is chained, or, for a page
//! an open walked, at the first claim, free, commit, undo or reservation
//! that reaches it (see "Recovery").
//!
//! A block above [`MAX_CLASS_SIZE`] is a descriptor of its own: class
//! [`LARGE`], capacity 1, and a whole-granule span whose length `meta`
//! carries in its granule count. It is carved like any subtree, freed by
//! clearing its bit, and reused first-fit under the region lock when a
//! later request wastes at most half of it.
//!
//! # Claims
//!
//! `taken` is the bitmap plus every block a claim or an uncommitted
//! transaction has taken. Every allocation claims its block with one CAS
//! on `taken`, and a bitmap bit is set only while its `taken` bit is and
//! cleared before it: the bitmap is always a subset of `taken`, so a claim
//! never races a bitmap transition and never backs off.
//!
//! The persistence contract is a single word: a plain allocation claims,
//! sets its bit (the claim hands its subtree and bit to that step, so the
//! block is found once), then flushes the word and fences **before** the
//! block is handed out, so no pointer to the block can become durable
//! before the block's allocated bit is. A plain dealloc clears the bit and
//! flushes/fences before it clears the `taken` bit that lets the block be
//! served again. Fault injection tears at 8-byte granularity
//! ([`crate::shadow::FaultPolicy::TearWords`]), so a bitmap word is atomic
//! under any injected crash: recovery sees the bit either set or clear,
//! and either state is consistent.
//!
//! # Held blocks (transactions)
//!
//! An undo-logged transaction changes a bit only after an allocator
//! entry naming the block is durable in its log (see
//! [`crate::undolog`]), so until its commit point the block is **held**:
//! a transaction's allocation has taken the block without setting its
//! bit, and a block it frees keeps its bit, and with it its `taken` bit.
//! Either way no allocation on any thread serves it. At commit the bit
//! flips — nothing else can own it, so a plain `fetch_or` sets it —
//! flushed but not fenced: the commit fence orders it. Once the truncate
//! that settles the transaction is durable, on commit as on abort,
//! `LlState::end_hold` runs on every allocator entry and gives back
//! exactly the blocks whose bit is clear (a committed free, an aborted
//! allocation): until then a crash would replay the entry over whatever
//! allocation took the block. Rollback, at the next attach, puts the bit
//! back to what the transaction found; an abort in the session never
//! changed it. A crash loses every hold with the rest of the volatile
//! state, so a hold never outlives its session.
//!
//! # Upper level (volatile)
//!
//! Each thread holds a **reserved subtree** per class (a subtree whose
//! `taken` line it CASes without contention). When it is full the thread
//! first takes a block from its **spares** — the last few subtrees it
//! gave a block back to, reserved or not — so a freed block is reused
//! without a descriptor scan; after that, exhaustion is handled by
//! reserving another subtree (`owner` CAS), stealing a crowded one, or
//! growing a new subtree under the region lock (rare, amortized over 64
//! blocks). Reservations and spares are the only per-thread state and
//! they hold no blocks: a block is marked allocated only when actually
//! handed to the application, so a crash leaks **zero** blocks.
//!
//! Exhaustion is O(1): a scan that finds no subtree of a class with a
//! free block leaves a per-class **dry stamp** — the class's free epoch
//! (bumped by every block given back to that class) and the subtree
//! count it covered, in one atomic word. While the epoch still matches,
//! the next scan looks only at subtrees grown since, so a grow-only
//! workload never rescans. The stamp is volatile and advisory: a stale or
//! false "dry" costs one grow, never an out-of-memory —
//! `LlState::alloc_rescan` ignores it, and the region calls that before
//! leaving the bitmaps.
//!
//! # Recovery
//!
//! Opening an image walks the page chain once (bounded by the region
//! size) and validates every descriptor, refusing overlapping spans
//! through a one-bit-per-granule bitset. It builds nothing else: it
//! records each page's offset and the granules its spans cover, and the
//! subtree count. A walked page is **filled** once, at its first use:
//! its DRAM words (`taken` equal to the bitmap, no `owner`) and its
//! spans' entries in the granule map that routes frees. Nothing changes
//! a bit of a page before its fill, so `taken` starts from what the open
//! saw. A granule the map does not route yet falls to a cold
//! path that fills every page whose spans cover it, then routes it
//! again; the hot path stays one load. A reservation scan reads each
//! descriptor's class on media and fills only the pages of its class's
//! subtrees. The statistics (`live`, `live_blocks`, `occupancy`) and
//! `seal` read the bitmaps and fill nothing: a clean open fills no page,
//! and a crash open's rollback only the pages its allocator entries name.
//! `Counter::LlallocRecoveryLines` counts the lines the fills write, one
//! per page and one per walked descriptor.
//!
//! Neither the walk nor a fill stores into a bitmap page, so no open,
//! clean or after a crash, stores into one. Structural damage fails the
//! open; salvage opens such an image with an empty, frozen state whose
//! allocations answer out-of-memory.
//!
//! # Statistics
//!
//! The bitmaps are the only statistics record: live blocks and bytes are
//! their popcount (`LlState::live`), which is what `Region::stats`
//! reports. Nothing is counted on the alloc/free path and nothing is
//! folded or snapshotted at a durability point, so no crash can leave two
//! records disagreeing. A clean close stores each page's CRC where it no
//! longer matches, which is what `verify` checks a clean image's pages
//! against: a page nothing changed since its last seal is not written.

use crate::alloc::{AllocHeader, CLASS_SIZES, MAX_CLASS_SIZE, NUM_CLASSES};
use crate::crc::crc64_update;
use crate::error::{NvError, Result};
use crate::latency;
use crate::metrics::{self, Counter};
use crate::read_u64;
use crate::undolog::BlockOp;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Magic number identifying a bitmap page ("NVPILLP1").
pub const LL_PAGE_MAGIC: u64 = u64::from_le_bytes(*b"NVPILLP1");
/// Bytes per bitmap page (one 64 B header + 63 descriptors).
pub const LL_PAGE_SIZE: usize = 4096;
/// Subtree descriptors per bitmap page.
pub const SUBTREES_PER_PAGE: usize = 63;
/// Blocks covered by one subtree bitmap word.
pub const BLOCKS_PER_SUBTREE: usize = 64;
/// Alignment and granularity of subtree spans; also the unit of the
/// volatile granule map that routes a free to its owning subtree.
pub const GRANULE: u64 = 1024;
/// Class index of a block above [`MAX_CLASS_SIZE`]: a capacity-1
/// descriptor whose span is its block. Per-class tables carry one row
/// for it after the size classes.
pub const LARGE: usize = NUM_CLASSES;

pub(crate) const DESC_SIZE: usize = 64;
/// Reservation slots a thread keeps across regions before evicting the
/// oldest (losing a reservation is harmless — it is re-discovered).
const TLS_REGIONS: usize = 8;

// Page-header field offsets.
const PAGE_MAGIC: usize = 0;
const PAGE_NEXT: usize = 8;
const PAGE_COUNT: usize = 16;
const PAGE_CRC: usize = 32;
// Bytes 24..32 and 40..64 of the page header are padding (an older image
// keeps a sequence number at 24; the page CRC seals it like any byte).

// Descriptor field offsets.
const D_BASE: usize = 0;
pub(crate) const D_META: usize = 8;
pub(crate) const D_BITMAP: usize = 16;
// Bytes 24..64 of a descriptor are padding that nothing reads or writes
// (older images keep a free counter at 24 and the volatile words, now in
// DRAM, at 32 and 40; the page CRC seals them like any other byte).

/// Subtrees a thread remembers, per class, as having had a block given
/// back by it.
const SPARES: usize = 4;

/// Per size class, `ceil(2^32 / size)`: `(delta * DIV_CLASS[c]) >> 32`
/// is `delta / size` exactly for every `delta` inside a subtree's span.
/// The span is below 2^19 bytes (64 blocks of at most 4 KiB, rounded up
/// to a granule) and the reciprocal's rounding error, times `size`, is
/// below `size ≤ 2^12`, so their product stays below 2^32 and never
/// carries the quotient past an integer.
const DIV_CLASS: [u64; NUM_CLASSES] = {
    let mut r = [0u64; NUM_CLASSES];
    let mut i = 0;
    while i < NUM_CLASSES {
        r[i] = (1u64 << 32).div_ceil(CLASS_SIZES[i] as u64);
        i += 1;
    }
    r
};

/// Upper bound on the bitmap pages a region of `bytes` bytes can chain:
/// every subtree but the last spans at least one granule, and a page is
/// only chained once the one before it is full.
fn max_pages(bytes: usize) -> usize {
    (bytes / GRANULE as usize + 1) / SUBTREES_PER_PAGE + 2
}

/// Bitmask of the bits of a `capacity`-block subtree's bitmap word that
/// correspond to real blocks.
#[inline]
fn block_mask(capacity: u32) -> u64 {
    if capacity >= 64 {
        !0
    } else {
        (1u64 << capacity) - 1
    }
}

/// A descriptor's `meta` word: class index, capacity, and — for a
/// [`LARGE`] block — its span in granules.
fn pack_meta(class: usize, capacity: u64, block_size: u64) -> u64 {
    let granules = if class == LARGE {
        block_size / GRANULE
    } else {
        0
    };
    class as u64 | capacity << 8 | granules << 16
}

/// The block size a `meta` word describes, or `None` when its class,
/// capacity and granule count do not fit together.
fn block_size(meta: u64) -> Option<u64> {
    let (class, capacity, granules) = ((meta & 0xff) as usize, (meta >> 8) & 0xff, meta >> 16);
    match class {
        LARGE if capacity == 1 && granules * GRANULE > MAX_CLASS_SIZE as u64 => {
            Some(granules * GRANULE)
        }
        c if c < NUM_CLASSES
            && (1..=BLOCKS_PER_SUBTREE as u64).contains(&capacity)
            && granules == 0 =>
        {
            Some(CLASS_SIZES[c] as u64)
        }
        _ => None,
    }
}

/// One subtree descriptor that passed every structural check of the page
/// walk, as persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubtreeInfo {
    /// Offset of the bitmap page holding the descriptor.
    pub page_off: u64,
    /// Index of the descriptor within its page.
    pub slot: usize,
    /// Size-class index ([`LARGE`] for a block above the classes).
    pub class: usize,
    /// Block size in bytes: the size class, or a large block's span.
    pub block_size: u64,
    /// Blocks the subtree covers (≤ 64; 1 for a large block).
    pub capacity: u32,
    /// Offset of block 0 of the subtree's span.
    pub base: u64,
    /// Allocated blocks (bitmap popcount — the persistent truth).
    pub allocated: u32,
}

impl SubtreeInfo {
    /// End offset of the subtree's span.
    pub fn end(&self) -> u64 {
        self.base + self.capacity as u64 * self.block_size
    }
}

/// What [`walk_chain`] hands its visitor, in chain order.
pub(crate) enum Walked<'a> {
    /// A bitmap page whose header checked out; `bytes` is the whole page.
    /// Its descriptors follow.
    Page { off: u64, bytes: &'a [u8] },
    /// A descriptor that passed every structural check.
    Subtree(SubtreeInfo),
    /// Structural damage. A missing directory, a damaged chain or page
    /// header ends the walk (nothing behind it can be trusted); a damaged
    /// descriptor is skipped. Any issue means the open refuses the image
    /// and only salvage opens it.
    Issue(String),
}

/// The one decoder of the bitmap-page chain: walks the chain rooted at
/// `ll_dir` through `image` (offset 0 = region base) and checks every
/// structural predicate — chain length and page bounds, page magic,
/// descriptor count, class/capacity, span bounds, padding bits — which
/// hold on every image, crashed or clean: `llalloc` flushes each bitmap
/// word before an allocation returns, so a crash can only lose whole
/// operations, never tear a page's structure. Recovery
/// ([`LlState::open`]), the corruption walk and offline inspection all
/// consume this walk, so they cannot disagree on what is damaged.
///
/// Every word is read by bounds-checked indexing of `image`; nothing the
/// image says is dereferenced.
pub(crate) fn walk_chain(image: &[u8], ll_dir: u64, mut visit: impl FnMut(Walked<'_>)) {
    if ll_dir == 0 {
        return visit(Walked::Issue("no bitmap allocator directory".to_string()));
    }
    let len = image.len() as u64;
    let mut page_off = ll_dir;
    for _ in 0..max_pages(image.len()) {
        if page_off == 0 {
            return;
        }
        if !page_off.is_multiple_of(64)
            || page_off
                .checked_add(LL_PAGE_SIZE as u64)
                .is_none_or(|end| end > len)
        {
            return visit(Walked::Issue(format!(
                "bitmap page offset {page_off:#x} out of bounds"
            )));
        }
        let page = &image[page_off as usize..page_off as usize + LL_PAGE_SIZE];
        if read_u64(page, PAGE_MAGIC) != LL_PAGE_MAGIC {
            return visit(Walked::Issue(format!(
                "bitmap page at {page_off:#x} has a bad magic"
            )));
        }
        let count = read_u64(page, PAGE_COUNT);
        if count > SUBTREES_PER_PAGE as u64 {
            return visit(Walked::Issue(format!(
                "bitmap page at {page_off:#x} claims {count} descriptors"
            )));
        }
        let next = read_u64(page, PAGE_NEXT);
        if next != 0 && count < SUBTREES_PER_PAGE as u64 {
            // `LlState::desc` maps ids to pages by `id / 63`: only the
            // last page may be short (an *empty* last page is legal — the
            // crash window between chaining it and its first descriptor).
            return visit(Walked::Issue(format!(
                "bitmap page at {page_off:#x} is chained past with only {count} descriptors"
            )));
        }
        visit(Walked::Page {
            off: page_off,
            bytes: page,
        });
        for slot in 0..count as usize {
            let desc = &page[DESC_SIZE + slot * DESC_SIZE..][..DESC_SIZE];
            let meta = read_u64(desc, D_META);
            let class = (meta & 0xff) as usize;
            let capacity = ((meta >> 8) & 0xff) as u32;
            let bad = |what: &str| Walked::Issue(format!("subtree {slot}@{page_off:#x}: {what}"));
            let Some(block_size) = block_size(meta) else {
                visit(bad(&format!(
                    "bad class {class} / capacity {capacity} / {} granules",
                    meta >> 16
                )));
                continue;
            };
            let base = read_u64(desc, D_BASE);
            let span = capacity as u64 * block_size;
            if !base.is_multiple_of(GRANULE) || base.checked_add(span).is_none_or(|end| end > len) {
                visit(bad(&format!("span [{base:#x}, +{span}) out of bounds")));
                continue;
            }
            let bitmap = read_u64(desc, D_BITMAP);
            let mask = block_mask(capacity);
            if bitmap & !mask != !mask {
                // Bits beyond capacity are written as 1 at creation and
                // never touched again; anything else is rot.
                visit(bad("padding bits corrupt"));
                continue;
            }
            visit(Walked::Subtree(SubtreeInfo {
                page_off,
                slot,
                class,
                block_size,
                capacity,
                base,
                allocated: (bitmap & mask).count_ones(),
            }));
        }
        page_off = next;
    }
    if page_off != 0 {
        visit(Walked::Issue("bitmap page chain cycle".to_string()));
    }
}

/// CRC-64 of a bitmap page with its CRC field read as zero: what a clean
/// close stores in that field.
fn page_crc(page: &[u8]) -> u64 {
    let state = crc64_update(!0, &page[..PAGE_CRC]);
    let state = crc64_update(state, &[0; 8]);
    crc64_update(state, &page[PAGE_CRC + 8..]) ^ !0
}

/// Whether a bitmap page still carries the seal its last clean close
/// wrote. Meaningful on clean images only: a running region mutates its
/// pages without resealing them.
pub(crate) fn page_sealed(page: &[u8]) -> bool {
    page_crc(page) == read_u64(page, PAGE_CRC)
}

#[derive(Clone, Copy)]
struct TlsSlot {
    instance: u64,
    /// Reserved subtree per class, stored as id+1 (0 = none).
    ids: [u32; NUM_CLASSES],
    /// The owner token we wrote when reserving, for a clean release.
    tokens: [u64; NUM_CLASSES],
    /// Per class, subtrees this thread gave a block back to, newest
    /// last, as id+1 (0 = none): where an allocation looks once its
    /// reservation is full, before it scans, so a freed block is reused
    /// without a descriptor scan.
    spares: [[u32; SPARES]; NUM_CLASSES],
}

impl TlsSlot {
    fn new(instance: u64) -> TlsSlot {
        TlsSlot {
            instance,
            ids: [0; NUM_CLASSES],
            tokens: [0; NUM_CLASSES],
            spares: [[0; SPARES]; NUM_CLASSES],
        }
    }

    fn push_spare(&mut self, class: usize, id: u32) {
        let s = &mut self.spares[class];
        if s[SPARES - 1] != id + 1 {
            s.rotate_left(1);
            s[SPARES - 1] = id + 1;
        }
    }

    fn last_spare(&self, class: usize) -> Option<u32> {
        self.spares[class][SPARES - 1].checked_sub(1)
    }

    fn pop_spare(&mut self, class: usize) {
        let s = &mut self.spares[class];
        s[SPARES - 1] = 0;
        s.rotate_right(1);
    }
}

thread_local! {
    static RESERVED: RefCell<Vec<TlsSlot>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's reservation slot for region `instance`.
/// `None` when thread-local storage is unusable (thread teardown).
fn with_slot<R>(instance: u64, f: impl FnOnce(&mut TlsSlot) -> R) -> Option<R> {
    RESERVED
        .try_with(|r| {
            let mut r = r.borrow_mut();
            if let Some(i) = r.iter().position(|s| s.instance == instance) {
                return f(&mut r[i]);
            }
            if r.len() >= TLS_REGIONS {
                r.remove(0);
            }
            r.push(TlsSlot::new(instance));
            let last = r.len() - 1;
            f(&mut r[last])
        })
        .ok()
}

/// A subtree's volatile words, on a cache line of their own (as its
/// descriptor is on media) so that claims on two subtrees never share one.
#[derive(Default)]
#[repr(align(64))]
struct Vol {
    /// The reservation: its thread's token, 0 when none.
    owner: AtomicU64,
    /// The bitmap plus every block a claim or a transaction has taken.
    taken: AtomicU64,
}

/// One chained bitmap page: its offset, and the volatile words of its
/// descriptors.
struct Page {
    off: u64,
    vol: Box<[Vol]>,
}

impl Page {
    fn new(off: u64) -> Page {
        Page {
            off,
            vol: (0..SUBTREES_PER_PAGE).map(|_| Vol::default()).collect(),
        }
    }
}

/// A bitmap page an open walked, until its first use fills it.
struct WalkedPage {
    off: u64,
    /// Granules the spans of its descriptors cover (empty when it has
    /// none): where a granule the map does not route yet finds its page.
    covers: Range<usize>,
}

/// A word of the mapped region, at absolute address `addr`.
#[inline]
fn mapped_u64(addr: usize) -> u64 {
    // SAFETY: callers pass words of validated pages and published
    // descriptors inside the mapped region; the pages' headers, `base` and
    // `meta` are written before they are published.
    unsafe { *(addr as *const u64) }
}

/// One subtree's 64 B on-media descriptor. Its volatile words are
/// [`LlState::subtree`]'s to hand out.
#[derive(Clone, Copy)]
struct Desc {
    addr: usize,
}

impl Desc {
    #[inline]
    fn base(self) -> u64 {
        mapped_u64(self.addr + D_BASE)
    }
    #[inline]
    fn meta(self) -> u64 {
        mapped_u64(self.addr + D_META)
    }
    #[inline]
    fn class(self) -> usize {
        (self.meta() & 0xff) as usize
    }
    #[inline]
    fn capacity(self) -> u32 {
        ((self.meta() >> 8) & 0xff) as u32
    }
    /// Block size in bytes (a published descriptor's `meta` has passed
    /// [`block_size`]).
    #[inline]
    fn block_size(self) -> u64 {
        let meta = self.meta();
        match (meta & 0xff) as usize {
            LARGE => (meta >> 16) * GRANULE,
            class => CLASS_SIZES[class] as u64,
        }
    }
    /// Bitmask of the bits that correspond to real blocks.
    #[inline]
    fn mask(self) -> u64 {
        block_mask(self.capacity())
    }
    #[inline]
    fn bitmap(self) -> &'static AtomicU64 {
        // SAFETY: the mapped word is 8-aligned (descriptors are 64 B
        // aligned) and lives as long as the region mapping.
        unsafe { &*((self.addr + D_BITMAP) as *const AtomicU64) }
    }
    #[inline]
    fn bitmap_addr(self) -> usize {
        self.addr + D_BITMAP
    }
    /// The granules its span covers.
    fn granules(self) -> Range<usize> {
        let end = self.base() + self.capacity() as u64 * self.block_size();
        (self.base() / GRANULE) as usize..end.div_ceil(GRANULE) as usize
    }
}

/// Sets bits `bits[g]` for every `g` in `span`, a word at a time; whether
/// any of them was set already.
fn claim_bits(bits: &mut [u64], span: Range<usize>) -> bool {
    let (mut g, mut overlap) = (span.start, false);
    while g < span.end {
        let n = (span.end - g).min(64 - g % 64);
        let mask = (!0u64 >> (64 - n)) << (g % 64);
        overlap |= bits[g / 64] & mask != 0;
        bits[g / 64] |= mask;
        g += n;
    }
    overlap
}

/// `n` zeroed atomics, from zeroed memory rather than written one by one.
fn zeroed_atomics(n: usize) -> Box<[AtomicU32]> {
    const _: () = assert!(std::mem::align_of::<AtomicU32>() == std::mem::align_of::<u32>());
    let zeros = Box::into_raw(vec![0u32; n].into_boxed_slice());
    // SAFETY: `AtomicU32` has the size and bit validity of `u32` and, as
    // asserted above, its alignment, so the allocation's layout holds.
    unsafe { Box::from_raw(zeros as *mut [AtomicU32]) }
}

#[inline]
unsafe fn page_u64_write(base: usize, page_off: u64, field: usize, v: u64) {
    *((base + page_off as usize + field) as *mut u64) = v;
}

/// Flushes and fences one persisted word: the CAS-then-persist step of
/// every plain bitmap transition. The store is tracked, so the crash
/// matrix can drop or tear it; the fence makes it durable before the
/// caller proceeds.
#[inline]
fn persist_word(addr: usize) {
    flush_word(addr);
    latency::wbarrier();
}

/// Tracks and flushes one bitmap word without a fence: a held block's
/// transition, which its transaction's next fence orders (a plain
/// allocation fences it itself).
#[inline]
fn flush_word(addr: usize) {
    latency::persist(addr, 8);
}

/// Stages the bump-frontier word for the caller's next fence. The
/// frontier is as durable as what it guards: tracked and flushed with the
/// page or descriptor just carved, so the fault injector can drop or tear
/// it like any other store.
#[inline]
fn stage_frontier(hdr: &AllocHeader) {
    latency::persist(hdr.bump_addr(), 8);
}

/// Point-in-time summary of one size class across all its subtrees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassOccupancy {
    /// Number of subtrees serving this class.
    pub subtrees: u64,
    /// Total block capacity over those subtrees.
    pub capacity: u64,
    /// Currently allocated blocks (bitmap popcount).
    pub allocated: u64,
}

/// The words every free writes, with a cache line of padding on each
/// side: sharing a line with the fields every allocation and free reads
/// (`base`, the page and granule tables) makes each free a miss on every
/// other thread. Padding, not `repr(align(64))`: an over-aligned region
/// state (or an aligned box of the epochs) cost pibench `tx_mixed` 2.4 MiB
/// of peak RSS.
#[repr(C)]
struct FreeEpochs {
    _before: [u8; 64],
    epochs: [AtomicU64; LARGE + 1],
    _after: [u8; 64],
}

/// Volatile per-open-region state of the two-level allocator.
///
/// Everything here is rebuilt from the bitmap pages, the only persistent
/// truth: [`LlState::open`] records the chain, and each walked page is
/// filled at its first use ([`LlState::fill`]).
pub(crate) struct LlState {
    base: usize,
    instance: u64,
    /// Bitmap pages in chain order with their volatile words (published,
    /// never mutated): a page chained in this session from its chaining,
    /// a page the open walked from its first use ([`LlState::fill`]).
    pages: Box<[OnceLock<Page>]>,
    /// The pages the open walked, in chain order; they hold its first
    /// `opened` subtrees.
    walked: Box<[WalkedPage]>,
    opened: u32,
    num_subtrees: AtomicU32,
    /// Granule map: offset >> 10 -> subtree id + 1. 0: not bitmap-owned,
    /// or owned by a walked page not filled yet. Allocated, zeroed, by the
    /// first fill or grow ([`LlState::map`]): an open allocates none.
    granules: OnceLock<Box<[AtomicU32]>>,
    /// Entries the granule map holds: one per granule of the capacity.
    map_len: usize,
    next_token: AtomicU64,
    /// Per class: frees since open (low 32 bits are the *free epoch*).
    free_epoch: FreeEpochs,
    /// Per class dry stamp, `epoch << 32 | subtrees`: a scan begun at
    /// free epoch `epoch` found no free block of the class in subtrees
    /// `0..subtrees`. Void as soon as the class's epoch moves on.
    dry: [AtomicU64; NUM_CLASSES],
    /// Set when growth must stop (region closing, salvage of a damaged
    /// chain); reads/frees continue.
    frozen: AtomicBool,
    /// Descriptors examined by `reserve` scans.
    #[cfg(test)]
    visits: AtomicU64,
}

impl std::fmt::Debug for LlState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlState")
            .field("subtrees", &self.num_subtrees.load(Ordering::Relaxed))
            .field("frozen", &self.frozen.load(Ordering::Relaxed))
            .finish()
    }
}

impl LlState {
    fn new_empty(base: usize, size: usize, instance: u64) -> LlState {
        let pages = (0..max_pages(size)).map(|_| OnceLock::new()).collect();
        LlState {
            base,
            instance,
            pages,
            walked: Box::default(),
            opened: 0,
            num_subtrees: AtomicU32::new(0),
            granules: OnceLock::new(),
            map_len: size.div_ceil(GRANULE as usize),
            next_token: AtomicU64::new(2),
            free_epoch: FreeEpochs {
                _before: [0; 64],
                epochs: [const { AtomicU64::new(0) }; LARGE + 1],
                _after: [0; 64],
            },
            dry: [const { AtomicU64::new(0) }; NUM_CLASSES],
            frozen: AtomicBool::new(false),
            #[cfg(test)]
            visits: AtomicU64::new(0),
        }
    }

    /// A state that owns no block and grows none: every allocation
    /// answers out-of-memory and every free is a no-op. Salvage gives it
    /// to a session whose bitmap chain does not verify, so nothing it
    /// says can be double-served.
    pub(crate) fn frozen(base: usize, instance: u64) -> LlState {
        let st = Self::new_empty(base, 0, instance);
        st.freeze();
        st
    }

    /// Formats the first bitmap page of a fresh region and points
    /// `ll_dir` at it.
    ///
    /// # Errors
    ///
    /// [`NvError::OutOfMemory`] when the managed range cannot hold the
    /// page.
    ///
    /// # Safety
    ///
    /// `base` must be the region base, `hdr` its embedded allocator
    /// header, and the caller must own the region exclusively.
    pub(crate) unsafe fn create(
        base: usize,
        size: usize,
        instance: u64,
        hdr: &mut AllocHeader,
    ) -> Result<LlState> {
        let st = Self::new_empty(base, size, instance);
        let page = st.format_page(hdr, 0)?;
        hdr.set_ll_dir(page);
        Ok(st)
    }

    /// Opens the allocator of a persisted image by one bounded scan of
    /// the page chain, which it only reads: validates structure, refuses
    /// overlapping spans, and records each page's offset and the granules
    /// its spans cover, and the subtree count. Each page's DRAM words and
    /// granule-map entries wait for its first use ([`LlState::fill`]). On
    /// success the managed range is extended to the committed size
    /// (`grow` fences the size before the end, so a crash between leaves
    /// the end short).
    ///
    /// The bump frontier is *recovered*, not trusted: it is raised to the
    /// end of the furthest page and subtree span the walk saw, so a
    /// frontier word torn away from the descriptor it was flushed with
    /// (or a slot-restored header older than its descriptors) can never
    /// carve a second span over a live one.
    ///
    /// # Errors
    ///
    /// The first structural damage (a missing directory included), in
    /// words; neither the image nor `hdr` is written then.
    ///
    /// # Safety
    ///
    /// `base`/`size` must describe the region's reserved run (`size` is
    /// the capacity — volatile maps are sized by it so the region can
    /// grow in place); only the first `committed` bytes are mapped
    /// readable, so every persistent word the scan touches is
    /// bounds-checked against `committed`, never `size`. `hdr` must be
    /// the image's allocator header; the caller must own the region
    /// exclusively.
    pub(crate) unsafe fn open(
        base: usize,
        size: usize,
        committed: usize,
        instance: u64,
        hdr: &mut AllocHeader,
    ) -> std::result::Result<LlState, String> {
        // SAFETY: `committed` bytes are mapped readable from `base`;
        // nothing writes them until the walk has returned.
        let image = std::slice::from_raw_parts(base as *const u8, committed);
        let (mut walked, mut subtrees, mut frontier) = (Vec::new(), 0u32, 0u64);
        // One bit per granule of the image: the spans walked so far.
        let mut claimed = vec![0u64; committed.div_ceil(GRANULE as usize).div_ceil(64)];
        let mut damage = None;
        walk_chain(image, hdr.ll_dir(), |item| match item {
            _ if damage.is_some() => {}
            Walked::Issue(issue) => damage = Some(issue),
            Walked::Page { off, .. } => {
                walked.push(WalkedPage { off, covers: 0..0 });
                frontier = frontier.max(off + LL_PAGE_SIZE as u64);
            }
            Walked::Subtree(t) => {
                let page = walked.last_mut().expect("walked first");
                let span = (t.base / GRANULE) as usize..t.end().div_ceil(GRANULE) as usize;
                page.covers = match t.slot {
                    0 => span.clone(),
                    _ => page.covers.start.min(span.start)..page.covers.end.max(span.end),
                };
                frontier = frontier.max(t.end());
                if claim_bits(&mut claimed, span) {
                    damage = Some(format!("subtree {subtrees}: span overlaps another subtree"));
                }
                subtrees += 1;
            }
        });
        if let Some(damage) = damage {
            return Err(damage);
        }
        hdr.extend(committed as u64);
        hdr.raise_bump(frontier);
        let mut st = Self::new_empty(base, size, instance);
        // In range: the walk allows `max_pages(committed)` pages and
        // `pages` holds `max_pages(size)`.
        st.walked = walked.into_boxed_slice();
        st.opened = subtrees;
        st.num_subtrees.store(subtrees, Ordering::Release);
        Ok(st)
    }

    #[inline]
    fn count(&self) -> u32 {
        self.num_subtrees.load(Ordering::Acquire)
    }

    /// The offset of chained page `idx`; `None` past the chain.
    #[inline]
    fn page_off(&self, idx: usize) -> Option<u64> {
        match self.walked.get(idx) {
            Some(page) => Some(page.off),
            None => self.pages.get(idx)?.get().map(|page| page.off),
        }
    }

    /// Subtree `id`'s descriptor on media: all a read needs, so its page
    /// is not filled.
    #[inline]
    fn desc(&self, id: u32) -> Desc {
        let off = self.page_off(id as usize / SUBTREES_PER_PAGE);
        self.desc_at(off.expect("a published subtree's page is chained"), id)
    }

    /// Subtree `id`'s descriptor, on the page at `page_off`.
    #[inline]
    fn desc_at(&self, page_off: u64, id: u32) -> Desc {
        let slot = id as usize % SUBTREES_PER_PAGE;
        Desc {
            addr: self.base + page_off as usize + DESC_SIZE * (slot + 1),
        }
    }

    /// Page `idx` with its volatile words, filled first if this is the
    /// first use of a page the open walked.
    #[inline]
    fn page(&self, idx: usize) -> &Page {
        self.pages[idx].get_or_init(|| self.fill(idx))
    }

    /// Subtree `id`'s descriptor and volatile words (see [`LlState::page`]).
    #[inline]
    fn subtree(&self, id: u32) -> (Desc, &Vol) {
        let page = self.page(id as usize / SUBTREES_PER_PAGE);
        let vol = &page.vol[id as usize % SUBTREES_PER_PAGE];
        (self.desc_at(page.off, id), vol)
    }

    /// The first use of walked page `idx`: its volatile words, `taken` the
    /// bitmap and no `owner` (nothing has claimed, freed or held a block
    /// of the page before), and its spans' granule-map entries, published
    /// before the words are (a thread that routes through an entry waits
    /// for them in `get_or_init`).
    #[cold]
    fn fill(&self, idx: usize) -> Page {
        let mut page = Page::new(self.walked[idx].off);
        let first = idx * SUBTREES_PER_PAGE;
        let held = (self.opened as usize - first).min(SUBTREES_PER_PAGE);
        for (slot, v) in page.vol[..held].iter_mut().enumerate() {
            let id = (first + slot) as u32;
            let d = self.desc_at(page.off, id);
            *v.taken.get_mut() = d.bitmap().load(Ordering::Acquire);
            for g in &self.map()[d.granules()] {
                g.store(id + 1, Ordering::Release);
            }
        }
        metrics::add(Counter::LlallocRecoveryLines, 1 + held as u64);
        page
    }

    /// The granule map, allocated at its first use.
    fn map(&self) -> &[AtomicU32] {
        self.granules.get_or_init(|| zeroed_atomics(self.map_len))
    }

    /// The subtree whose span holds `off`, by the granule map; an entry
    /// not routed yet fills the pages that may own it first.
    #[inline]
    fn subtree_of(&self, off: u64) -> Option<u32> {
        let g = (off / GRANULE) as usize;
        let entry = self.granules.get().and_then(|map| map.get(g));
        match entry.map_or(0, |id| id.load(Ordering::Acquire)) {
            0 => self.route_cold(g),
            id => Some(id - 1),
        }
    }

    /// Granule `g` has no entry: fills every walked page whose spans
    /// cover it, then reads the entry again (still 0: not bitmap-owned).
    #[cold]
    fn route_cold(&self, g: usize) -> Option<u32> {
        for (idx, page) in self.walked.iter().enumerate() {
            if page.covers.contains(&g) {
                self.page(idx);
            }
        }
        let id = self.granules.get()?.get(g)?;
        id.load(Ordering::Acquire).checked_sub(1)
    }

    /// Claims one block of `class` in `taken`, preferring this thread's
    /// reserved subtree, then the subtrees it last gave blocks back to,
    /// then a scan for another reservation. A `plain` allocation's claim
    /// sets the block's bit at once, through the subtree and bit it just
    /// claimed (see [`LlState::alloc_in`]); a transaction's leaves the bit
    /// to [`LlState::persist_held`] at commit. Returns the block offset,
    /// or `None` when no reachable subtree has a free block (the caller
    /// then grows one under the region lock).
    pub(crate) fn alloc(&self, class: usize, plain: bool) -> Option<u64> {
        // Fast path: the reserved subtree, else a spare one.
        if let Some(Some(off)) = with_slot(self.instance, |s| {
            let reserved = s.ids[class].checked_sub(1);
            if let Some(off) = reserved.and_then(|id| self.alloc_in(id, None, plain)) {
                return Some(off);
            }
            // A spare is served reserved or not: a reservation only
            // keeps threads apart, and this thread just gave the block
            // back. A full one is dropped.
            while let Some(id) = s.last_spare(class) {
                if let Some(off) = self.alloc_in(id, None, plain) {
                    return Some(off);
                }
                s.pop_spare(class);
            }
            if let Some(id) = reserved {
                // Reserved subtree is full: release the reservation.
                let _ = self.subtree(id).1.owner.compare_exchange(
                    s.tokens[class],
                    0,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                s.ids[class] = 0;
            }
            None
        }) {
            return Some(off);
        }
        // Reserve (or steal) a subtree with free blocks, then retry; a
        // thread without TLS CASes unreserved directly.
        loop {
            match self.reserve(class, plain) {
                Reserve::Reserved(id) => {
                    if let Some(off) = self.alloc_in(id, None, plain) {
                        return Some(off);
                    }
                    // Raced empty between the scan and the CAS; rescan.
                }
                Reserve::Direct(off) => return Some(off),
                Reserve::Exhausted => return None,
            }
        }
    }

    /// [`LlState::alloc`] with the class's dry stamp voided first, so
    /// every subtree is looked at again: the last resort before the
    /// caller gives up on the bitmaps.
    pub(crate) fn alloc_rescan(&self, class: usize, plain: bool) -> Option<u64> {
        self.dry[class].store(0, Ordering::Relaxed);
        self.alloc(class, plain)
    }

    /// Claims exactly the free block at `off` when it starts a block of
    /// `class` and `block_size` bytes (a size class, or a large block's
    /// whole span), and sets its bit: one CAS on `taken`, as a plain
    /// [`LlState::alloc`] does for the lowest free bit. `false` when
    /// `off` starts no such block or the block is taken.
    pub(crate) fn alloc_at(&self, off: u64, class: usize, block_size: u64) -> bool {
        let Some((id, d, _, b)) = self.locate(off, class) else {
            return false;
        };
        d.block_size() == block_size && self.alloc_in(id, Some(b.trailing_zeros()), true).is_some()
    }

    /// One CAS attempt loop on subtree `id`'s `taken` word, for its
    /// lowest free bit or for `bit` alone; a `plain` claim then sets the
    /// block's bit, not fenced (the region fences it before it hands the
    /// block out). `None` when no such bit is free.
    #[inline]
    fn alloc_in(&self, id: u32, bit: Option<u32>, plain: bool) -> Option<u64> {
        let (d, vol) = self.subtree(id);
        let mask = d.mask();
        let mut cur = vol.taken.load(Ordering::Acquire);
        loop {
            let avail = !cur & mask;
            let bit = match bit {
                None if avail != 0 => avail.trailing_zeros(),
                Some(b) if avail >> b & 1 != 0 => b,
                _ => return None,
            };
            // Acquire pairs with `give_back`'s Release: a claim that
            // finds a bit clear also finds the block's bitmap bit clear.
            // No other word is read, so nothing needs SeqCst.
            match vol.taken.compare_exchange_weak(
                cur,
                cur | 1 << bit,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    if plain {
                        Self::set_bit(d, vol, 1 << bit);
                    }
                    return Some(d.base() + bit as u64 * d.block_size());
                }
                Err(seen) => {
                    metrics::incr(Counter::LlallocCasRetries);
                    cur = seen;
                }
            }
        }
    }

    /// Scans for a subtree of `class` with free blocks and reserves it
    /// for this thread (owner CAS). Crowded subtrees are stolen from
    /// their reserving thread when nothing unreserved remains. Subtrees
    /// the class's dry stamp covers are not looked at; a scan that sees
    /// no free block at all extends the stamp to the current count. A
    /// subtree of another class is read on media, so its page is not
    /// filled.
    fn reserve(&self, class: usize, plain: bool) -> Reserve {
        let n = self.count();
        // Acquire pairs with `give_back`'s Release bump: a scan that
        // reads the bumped epoch also sees the given-back `taken` bit.
        let epoch = self.free_epoch.epochs[class].load(Ordering::Acquire) << 32;
        let dry = self.dry[class].load(Ordering::Relaxed);
        let first = if dry & !0xFFFF_FFFF == epoch {
            (dry as u32).min(n)
        } else {
            0
        };
        let span = n - first;
        if span == 0 {
            return Reserve::Exhausted;
        }
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let start = (token % span as u64) as u32;
        // Pass 1: unreserved subtrees; pass 2 (only when pass 1 saw free
        // blocks it could not have): steal a reservation.
        let mut saw_free = false;
        for steal in [false, true] {
            for i in 0..span {
                let id = first + (start + i) % span;
                #[cfg(test)]
                self.visits.fetch_add(1, Ordering::Relaxed);
                if self.desc(id).class() != class {
                    continue;
                }
                let (d, vol) = self.subtree(id);
                if !vol.taken.load(Ordering::Relaxed) & d.mask() == 0 {
                    continue;
                }
                saw_free = true;
                let cur = vol.owner.load(Ordering::Relaxed);
                if (cur != 0) != steal {
                    continue;
                }
                if vol
                    .owner
                    .compare_exchange(cur, token, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
                {
                    // Another thread reserved it first. A reservation
                    // only keeps threads apart: take a block without one
                    // rather than answer "exhausted" (and make the region
                    // grow) while the subtree has free blocks.
                    if let Some(off) = self.alloc_in(id, None, plain) {
                        return Reserve::Direct(off);
                    }
                    continue;
                }
                if steal {
                    metrics::incr(Counter::LlallocSubtreeSteals);
                }
                let remembered = with_slot(self.instance, |s| {
                    s.ids[class] = id + 1;
                    s.tokens[class] = token;
                })
                .is_some();
                if remembered {
                    return Reserve::Reserved(id);
                }
                // No TLS (thread teardown): allocate directly and leave
                // the subtree unreserved for others.
                let got = self.alloc_in(id, None, plain);
                let _ = vol
                    .owner
                    .compare_exchange(token, 0, Ordering::AcqRel, Ordering::Relaxed);
                if let Some(off) = got {
                    return Reserve::Direct(off);
                }
            }
            if !saw_free {
                // Stamped with the epoch read *before* the scan: a free
                // that raced it has already moved the epoch on.
                self.dry[class].store(epoch | n as u64, Ordering::Relaxed);
                break;
            }
        }
        Reserve::Exhausted
    }

    /// The subtree, its descriptor and volatile words, and the bit mask of
    /// the `class` block that starts at `off`; `None` when no published
    /// span holds `off`, the span serves another class, or `off` is not a
    /// block boundary.
    fn locate(&self, off: u64, class: usize) -> Option<(u32, Desc, &Vol, u64)> {
        let id = self.subtree_of(off)?;
        let (d, vol) = self.subtree(id);
        if d.class() != class {
            return None;
        }
        let delta = off - d.base();
        let bit = match class {
            // A large block is its descriptor's one block.
            LARGE => 0,
            // `delta / size` by multiplication: a 64-bit divide costs
            // more than the rest of a transactional free, and this runs
            // three times per freed block.
            _ => (delta * DIV_CLASS[class]) >> 32,
        };
        let found = bit * d.block_size() == delta && bit < d.capacity() as u64;
        found.then_some((id, d, vol, 1 << bit))
    }

    /// Routes a free of a `class` block back into its bitmap. `false`,
    /// with nothing written, when `off` starts no allocated block of that
    /// class: no published span holds it, the span serves another class,
    /// `off` is not a block boundary, or the block's bit is already clear
    /// (a double free — the bit is the one record of liveness).
    pub(crate) fn free_block(&self, off: u64, class: usize) -> bool {
        let Some((id, d, vol, b)) = self.locate(off, class) else {
            return false;
        };
        let prev = d.bitmap().fetch_and(!b, Ordering::AcqRel);
        if prev & b == 0 {
            return false;
        }
        // Durable-free before returning: the clear bit must hit media
        // before the application can durably reuse or republish the
        // space.
        persist_word(d.bitmap_addr());
        self.give_back(id, vol, b, class);
        true
    }

    /// Makes block `b` of subtree `id`, whose bit is clear, servable
    /// again: its `taken` bit, the class's free epoch, and this thread's
    /// spares.
    fn give_back(&self, id: u32, vol: &Vol, b: u64, class: usize) {
        vol.taken.fetch_and(!b, Ordering::Release);
        // After `taken`, so a scan that sees the new epoch sees the block.
        self.free_epoch.epochs[class].fetch_add(1, Ordering::Release);
        if class < NUM_CLASSES {
            with_slot(self.instance, |s| s.push_spare(class, id));
        }
    }

    /// Sets block `b`'s bit, tracked and flushed, not fenced. The block
    /// must be taken: that is what keeps every other claim off it.
    fn set_bit(d: Desc, vol: &Vol, b: u64) {
        d.bitmap().fetch_or(b, Ordering::AcqRel);
        debug_assert_ne!(
            vol.taken.load(Ordering::Relaxed) & b,
            0,
            "a bitmap bit set without its taken bit"
        );
        flush_word(d.bitmap_addr());
    }

    /// Whether an allocated `class` block starts at `off`: what a
    /// transaction that frees it checks. Nothing is written: the block
    /// keeps its bit, and with it its `taken` bit, until the commit.
    pub(crate) fn is_allocated(&self, off: u64, class: usize) -> bool {
        self.locate(off, class)
            .is_some_and(|(_, d, _, b)| d.bitmap().load(Ordering::Acquire) & b != 0)
    }

    /// The commit-time bit transition of a held block: set for `Alloc`,
    /// cleared for `Free`, tracked and flushed but not fenced — the
    /// transaction's commit fence orders it. Only the block's holder
    /// changes its bit, so neither transition waits for anyone.
    pub(crate) fn persist_held(&self, off: u64, class: usize, op: BlockOp) {
        let Some((_, d, vol, b)) = self.locate(off, class) else {
            debug_assert!(false, "no {class} block at {off:#x}");
            return;
        };
        match op {
            BlockOp::Alloc => Self::set_bit(d, vol, b),
            BlockOp::Free => {
                let prev = d.bitmap().fetch_and(!b, Ordering::AcqRel);
                debug_assert_ne!(prev & b, 0, "a held free of {off:#x} found its bit clear");
                flush_word(d.bitmap_addr());
            }
        }
    }

    /// Ends a transaction's hold on the `class` block at `off`, once the
    /// truncate that settles the transaction is durable (or for an
    /// allocation whose entry was never logged): a block whose bit is
    /// clear — a committed free, a rolled-back allocation — is given
    /// back; one whose bit is set stays allocated.
    pub(crate) fn end_hold(&self, off: u64, class: usize) {
        if let Some((id, d, vol, b)) = self.locate(off, class) {
            if d.bitmap().load(Ordering::Acquire) & b == 0 {
                self.give_back(id, vol, b, class);
            }
        }
    }

    /// Rolls a block's bit back to what its transaction found: for
    /// `Alloc` clear, for `Free` set. A transaction rolled back in this
    /// session never changed its bit, so nothing is written. One
    /// recovered at attach may have had its bit reach media: a bit that
    /// differs is put back, tracked and flushed for the rollback's fence,
    /// and a bit set back is taken first. (Recovery runs before anything
    /// allocates, so no claim races it.) The hold ends at
    /// [`LlState::end_hold`], after the rollback's truncate.
    pub(crate) fn undo(&self, off: u64, class: usize, op: BlockOp) {
        let Some((_, d, vol, b)) = self.locate(off, class) else {
            return;
        };
        let set = d.bitmap().load(Ordering::Acquire) & b != 0;
        match op {
            BlockOp::Alloc if set => {
                d.bitmap().fetch_and(!b, Ordering::AcqRel);
                flush_word(d.bitmap_addr());
            }
            BlockOp::Free if !set => {
                vol.taken.fetch_or(b, Ordering::AcqRel);
                Self::set_bit(d, vol, b);
            }
            _ => {}
        }
    }

    /// Grows one subtree of up to 64 blocks of `class`. The caller must
    /// hold the region's `alloc_lock`.
    ///
    /// # Safety
    ///
    /// `hdr` must be the allocator header of the region this state was
    /// built for, and the caller must exclude concurrent header access.
    pub(crate) unsafe fn grow(&self, hdr: &mut AllocHeader, class: usize) -> Result<()> {
        let size = CLASS_SIZES[class] as u64;
        self.add_subtree(hdr, class, size, BLOCKS_PER_SUBTREE as u64)
            .map(drop)
    }

    /// Serves one block above [`MAX_CLASS_SIZE`], rounded up to whole
    /// granules: first fit over the free large blocks, taking one only
    /// when the request wastes at most half of it, else a fresh
    /// capacity-1 descriptor whose span is carved from the frontier. The
    /// caller must hold the region's `alloc_lock`, which serializes every
    /// large allocation.
    ///
    /// # Safety
    ///
    /// As [`LlState::grow`].
    pub(crate) unsafe fn alloc_large(
        &self,
        hdr: &mut AllocHeader,
        size: usize,
        plain: bool,
    ) -> Result<u64> {
        let oom = || NvError::OutOfMemory {
            region: 0,
            requested: size,
        };
        let span = (size as u64)
            .div_ceil(GRANULE)
            .checked_mul(GRANULE)
            .ok_or_else(oom)?;
        for id in 0..self.count() {
            let d = self.desc(id);
            let block = d.block_size();
            if d.class() == LARGE && block >= span && block - span <= span / 2 {
                if let Some(off) = self.alloc_in(id, None, plain) {
                    return Ok(off);
                }
            }
        }
        let id = self.add_subtree(hdr, LARGE, span, 1)?;
        self.alloc_in(id, None, plain).ok_or_else(oom)
    }

    /// Places descriptor `count()` (formatting a fresh bitmap page first
    /// when the current one is full) over up to `max_blocks` blocks of
    /// `block_size` bytes, carving its span from the bump frontier, and
    /// publishes it. Returns its id.
    ///
    /// # Safety
    ///
    /// As [`LlState::grow`].
    unsafe fn add_subtree(
        &self,
        hdr: &mut AllocHeader,
        class: usize,
        block_size: u64,
        max_blocks: u64,
    ) -> Result<u32> {
        let oom = |requested: u64| NvError::OutOfMemory {
            region: 0,
            requested: requested as usize,
        };
        if self.frozen.load(Ordering::Acquire) {
            return Err(oom(block_size));
        }
        let n = self.count();
        let page_idx = n as usize / SUBTREES_PER_PAGE;
        let slot = n as usize % SUBTREES_PER_PAGE;
        if page_idx >= self.pages.len() {
            return Err(oom(LL_PAGE_SIZE as u64));
        }
        if self.page_off(page_idx).is_none() {
            // Every chained page is full: chain a fresh one before
            // placing the descriptor. A chain that already ends in an
            // empty page (a crash between the link below and that page's
            // first descriptor) reuses it instead of relinking past it.
            let off = self.format_page(hdr, page_idx)?;
            if page_idx > 0 {
                let prev = self.page_off(page_idx - 1).expect("full");
                page_u64_write(self.base, prev, PAGE_NEXT, off);
                let next_addr = self.base + prev as usize + PAGE_NEXT;
                latency::persist(next_addr, 8);
            } else {
                hdr.set_ll_dir(off);
            }
            latency::wbarrier();
        }
        let page_off = self.page_off(page_idx).expect("chained");

        // Carve the span: up to `max_blocks` blocks, clipped to what
        // remains.
        let avail = hdr.remaining_aligned(GRANULE);
        let cap = (avail / block_size).min(max_blocks);
        if cap == 0 {
            return Err(oom(block_size));
        }
        let span = (cap * block_size).next_multiple_of(GRANULE).min(avail);
        let b = hdr.carve_aligned(span, GRANULE)?;

        // Persist the descriptor, then the page count that publishes it
        // together with the frontier that keeps its span reserved. The
        // descriptor is fenced first because a crash tears unfenced lines
        // word by word: under one fence, a count could reach media
        // without the descriptor's base or meta. A crash between the two
        // fences loses at most this span, never a block; one that keeps
        // the count but tears away the frontier leaves a descriptor whose
        // frontier `open` re-derives.
        let (d, vol) = self.subtree(n);
        let daddr = d.addr as *mut u64;
        daddr.add(D_BASE / 8).write(b);
        daddr
            .add(D_META / 8)
            .write(pack_meta(class, cap, block_size));
        let padding = !block_mask(cap as u32);
        d.bitmap().store(padding, Ordering::Relaxed);
        vol.taken.store(padding, Ordering::Relaxed);
        latency::persist(d.addr, DESC_SIZE);
        latency::wbarrier();
        page_u64_write(self.base, page_off, PAGE_COUNT, slot as u64 + 1);
        let count_addr = self.base + page_off as usize + PAGE_COUNT;
        latency::persist(count_addr, 8);
        stage_frontier(hdr);
        latency::wbarrier();

        // Publish: granule map first, then the subtree count (Release)
        // so a scan that sees the new id also sees its descriptor.
        let g0 = (b / GRANULE) as usize;
        let g1 = ((b + span) as usize).div_ceil(GRANULE as usize);
        for g in &self.map()[g0..g1] {
            g.store(n + 1, Ordering::Release);
        }
        self.num_subtrees.store(n + 1, Ordering::Release);
        metrics::incr(Counter::LlallocSubtreesCreated);
        Ok(n)
    }

    /// Carves and formats one empty bitmap page, page `idx` of the chain.
    /// Caller holds the region lock (or owns the region exclusively).
    unsafe fn format_page(&self, hdr: &mut AllocHeader, idx: usize) -> Result<u64> {
        let off = hdr.carve_aligned(LL_PAGE_SIZE as u64, GRANULE)?;
        let addr = self.base + off as usize;
        std::ptr::write_bytes(addr as *mut u8, 0, LL_PAGE_SIZE);
        page_u64_write(self.base, off, PAGE_MAGIC, LL_PAGE_MAGIC);
        latency::persist(addr, 64);
        stage_frontier(hdr);
        latency::wbarrier();
        self.pages[idx].get_or_init(|| Page::new(off));
        Ok(off)
    }

    /// Stops further growth (region teardown). Frees keep working.
    pub(crate) fn freeze(&self) {
        self.frozen.store(true, Ordering::Release);
    }

    /// Exact live blocks and bytes by bitmap popcount — the allocator's
    /// one statistics record (racy only against in-flight ops, exact at
    /// any quiescent point).
    pub(crate) fn live(&self) -> (u64, u64) {
        let mut blocks = 0u64;
        let mut bytes = 0u64;
        for id in 0..self.count() {
            let d = self.desc(id);
            let used = (d.bitmap().load(Ordering::Relaxed) & d.mask()).count_ones() as u64;
            blocks += used;
            bytes += used * d.block_size();
        }
        (blocks, bytes)
    }

    /// Every allocated block as `(offset, block size)`, in directory
    /// order: the bitmaps read bit by bit.
    pub(crate) fn live_blocks(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for id in 0..self.count() {
            let d = self.desc(id);
            let mut bits = d.bitmap().load(Ordering::Relaxed) & d.mask();
            while bits != 0 {
                let i = bits.trailing_zeros() as u64;
                out.push((d.base() + i * d.block_size(), d.block_size()));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Per-class occupancy summary, [`LARGE`] last (for stats, `verify`,
    /// `nvr_inspect`).
    pub(crate) fn occupancy(&self) -> [ClassOccupancy; LARGE + 1] {
        let mut out = [ClassOccupancy::default(); LARGE + 1];
        for id in 0..self.count() {
            let d = self.desc(id);
            let o = &mut out[d.class()];
            o.subtrees += 1;
            o.capacity += d.capacity() as u64;
            o.allocated += (d.bitmap().load(Ordering::Relaxed) & d.mask()).count_ones() as u64;
        }
        out
    }

    /// Quiesced clean-close maintenance: stores the CRC of each bitmap page
    /// whose stored one no longer matches (an unchanged page is not
    /// written), so the corruption walk can verify cleanly-closed pages
    /// bit-for-bit. Caller must hold the region lock, no allocation left.
    ///
    /// # Safety
    ///
    /// The region must be mapped and quiescent.
    pub(crate) unsafe fn seal(&self) {
        for off in (0..).map_while(|idx| self.page_off(idx)) {
            let bytes =
                std::slice::from_raw_parts((self.base + off as usize) as *const u8, LL_PAGE_SIZE);
            let crc = page_crc(bytes);
            if crc != read_u64(bytes, PAGE_CRC) {
                page_u64_write(self.base, off, PAGE_CRC, crc);
            }
        }
    }
}

enum Reserve {
    /// Reserved subtree id remembered in TLS.
    Reserved(u32),
    /// One block claimed without a reservation: no TLS, or another
    /// thread reserved the subtree first.
    Direct(u64),
    /// No subtree of this class has free blocks.
    Exhausted,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;
    use std::sync::Arc;

    static TEST_INSTANCE: TestCounter = TestCounter::new(1 << 40);

    /// A malloc'd arena standing in for a mapped region.
    struct Arena {
        mem: Vec<u8>,
        hdr: AllocHeader,
        ll: LlState,
    }

    impl Arena {
        fn new(size: usize) -> Arena {
            let mem = vec![0u8; size];
            let mut hdr = AllocHeader::zeroed();
            hdr.init(1024, size as u64);
            let base = mem.as_ptr() as usize;
            let instance = TEST_INSTANCE.fetch_add(1, Ordering::Relaxed);
            let ll = unsafe { LlState::create(base, size, instance, &mut hdr) }.unwrap();
            Arena { mem, hdr, ll }
        }
        fn base(&self) -> usize {
            self.mem.as_ptr() as usize
        }
        fn alloc(&mut self, class: usize) -> u64 {
            loop {
                if let Some(off) = plain(&self.ll, class) {
                    return off;
                }
                unsafe { self.ll.grow(&mut self.hdr, class) }.unwrap();
            }
        }
        /// A large block, as a plain allocation serves it.
        fn large(&mut self, size: usize) -> u64 {
            unsafe { self.ll.alloc_large(&mut self.hdr, size, true) }.unwrap()
        }
        /// Rebuilds the allocator from the arena's bytes, as a reopen
        /// does.
        fn reopen(&mut self) -> LlState {
            let instance = TEST_INSTANCE.fetch_add(1, Ordering::Relaxed);
            let (base, len) = (self.base(), self.mem.len());
            unsafe { LlState::open(base, len, len, instance, &mut self.hdr) }.unwrap()
        }
    }

    /// A plain allocation of a `class` block: claimed, then its bit set
    /// (the region fences it before handing the block out).
    fn plain(ll: &LlState, class: usize) -> Option<u64> {
        ll.alloc(class, true)
    }

    /// A transaction's allocation of a `class` block: claimed, its bit
    /// left clear.
    fn tx_alloc(ll: &LlState, class: usize) -> Option<u64> {
        ll.alloc(class, false)
    }

    /// [`LlState::alloc_at`] for a `size`-byte class block.
    fn at(ll: &LlState, off: u64, size: usize) -> bool {
        let class = crate::alloc::class_for(size).unwrap();
        ll.alloc_at(off, class, CLASS_SIZES[class] as u64)
    }

    /// Whether every subtree's `taken` word equals its bitmap: what a
    /// page's fill starts from.
    fn taken_is_bitmap(ll: &LlState) -> bool {
        (0..ll.count()).all(|id| {
            let (d, vol) = ll.subtree(id);
            vol.taken.load(Ordering::Relaxed) == d.bitmap().load(Ordering::Relaxed)
        })
    }

    #[test]
    fn alloc_free_roundtrip_and_no_overlap() {
        let mut a = Arena::new(1 << 18);
        let c = crate::alloc::class_for(64).unwrap();
        let mut offs: Vec<u64> = (0..200).map(|_| a.alloc(c)).collect();
        let mut sorted = offs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 200, "all blocks distinct");
        for w in sorted.windows(2) {
            assert!(w[0] + 64 <= w[1], "blocks overlap");
        }
        // Free half, reallocate, still distinct.
        for off in offs.drain(..100) {
            assert!(a.ll.free_block(off, c));
        }
        for _ in 0..100 {
            offs.push(a.alloc(c));
        }
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs.len(), 200);
        let (blocks, bytes) = a.ll.live();
        assert_eq!(blocks, 200);
        assert_eq!(bytes, 200 * 64);
    }

    #[test]
    fn grow_only_allocation_never_rescans() {
        const GROWS: usize = 2048;
        let c = crate::alloc::class_for(64).unwrap();
        let mut a = Arena::new(GROWS * BLOCKS_PER_SUBTREE * 64 + (1 << 20));
        for _ in 0..GROWS * BLOCKS_PER_SUBTREE {
            a.alloc(c);
        }
        let grows = a.ll.count() as u64;
        assert_eq!(grows, GROWS as u64);
        let visits = a.ll.visits.load(Ordering::Relaxed);
        assert!(
            visits <= 2 * grows,
            "{visits} descriptors examined over {grows} grows"
        );
    }

    #[test]
    fn free_in_the_oldest_subtree_is_reused_before_growing() {
        let c = crate::alloc::class_for(64).unwrap();
        let mut a = Arena::new(1 << 20);
        let offs: Vec<u64> = (0..5 * BLOCKS_PER_SUBTREE - 1)
            .map(|_| a.alloc(c))
            .collect();
        assert_eq!(a.ll.count(), 5);
        // One block left in the current (fifth) subtree; every older one
        // is full and stamped dry.
        assert!(a.ll.free_block(offs[3], c));
        let last = a.alloc(c);
        assert!(last > offs[4 * BLOCKS_PER_SUBTREE], "current subtree first");
        assert_eq!(a.alloc(c), offs[3], "then the freed block, not a grow");
        assert_eq!(a.ll.count(), 5, "no subtree was created");
        // Only now is the class really dry.
        a.alloc(c);
        assert_eq!(a.ll.count(), 6);
    }

    #[test]
    fn rescan_finds_what_a_false_dry_stamp_hides() {
        let c = crate::alloc::class_for(64).unwrap();
        let mut a = Arena::new(1 << 20);
        let offs: Vec<u64> = (0..2 * BLOCKS_PER_SUBTREE).map(|_| a.alloc(c)).collect();
        assert_eq!(tx_alloc(&a.ll, c), None, "both subtrees full: stamped dry");
        // A free the stamp never hears of (epoch forced back), on another
        // thread so that no spare of this one names its subtree: the
        // stamped scan misses the block, the rescan does not.
        let (ll, off) = (&a.ll, offs[1]);
        std::thread::scope(|s| {
            s.spawn(move || assert!(ll.free_block(off, c)));
        });
        a.ll.free_epoch.epochs[c].store(0, Ordering::Relaxed);
        assert_eq!(tx_alloc(&a.ll, c), None, "false dry");
        assert_eq!(a.ll.alloc_rescan(c, false), Some(offs[1]));
    }

    #[test]
    fn granule_routing_rejects_foreign_offsets() {
        let mut a = Arena::new(1 << 16);
        let c = crate::alloc::class_for(256).unwrap();
        let off = a.alloc(c);
        let other = a.alloc(c);
        // The region header area is never bitmap-owned.
        assert!(!a.ll.free_block(8, c));
        assert!(!a.ll.free_block(1 << 40, c), "past the granule map");
        assert!(!a.ll.free_block(off, c - 1), "another class");
        assert!(!a.ll.free_block(off + 16, c), "not a block start");
        assert!(a.ll.free_block(off, c));
        assert!(!a.ll.free_block(off, c), "a double free is a clear bit");
        assert_eq!(a.ll.live(), (1, 256), "and changes nothing");
        assert!(a.ll.free_block(other, c));
    }

    #[test]
    fn large_blocks_are_spans_of_their_own_and_survive_recovery() {
        let mut a = Arena::new(1 << 20);
        let c = crate::alloc::class_for(64).unwrap();
        let small = a.alloc(c);
        let big = a.large(10_000);
        let huge = a.large(64 << 10);
        assert_eq!((big % GRANULE, huge % GRANULE), (0, 0), "granule-aligned");
        assert!(
            big + 10240 <= huge || huge + (64 << 10) <= big,
            "disjoint spans"
        );
        assert_eq!(a.ll.live(), (3, 64 + 10240 + (64 << 10)));
        assert_eq!(a.ll.occupancy()[LARGE].subtrees, 2);
        // A freed large block is reused only by a request it fits within
        // half: 4 200 B (5 120 B rounded) would waste more than half of it.
        assert!(a.ll.free_block(big, LARGE));
        let other = a.large(4200);
        assert_ne!(other, big);
        assert_eq!(a.large(9500), big);
        // The recovery scan routes and counts large blocks like any other.
        let ll2 = a.reopen();
        assert_eq!(ll2.live(), (4, 64 + 5120 + 10240 + (64 << 10)));
        assert!(ll2.free_block(huge, LARGE));
        assert!(ll2.free_block(small, c));
        assert_eq!(ll2.live(), (2, 5120 + 10240));
    }

    #[test]
    fn alloc_at_claims_exactly_the_named_free_block() {
        let mut a = Arena::new(1 << 18);
        let c = crate::alloc::class_for(64).unwrap();
        let offs: Vec<u64> = (0..4).map(|_| a.alloc(c)).collect();
        assert!(!at(&a.ll, offs[2], 64), "allocated");
        assert!(a.ll.free_block(offs[2], c));
        assert!(!at(&a.ll, offs[2], 128), "another class");
        assert!(!at(&a.ll, offs[2] + 16, 64), "not a block start");
        assert!(!at(&a.ll, 8, 64), "not bitmap-owned");
        assert!(at(&a.ll, offs[2], 64));
        assert!(!at(&a.ll, offs[2], 64), "claimed once");
        assert_eq!(a.ll.live().0, 4);
    }

    #[test]
    fn recovery_scan_rebuilds_counters_and_clears_owners() {
        let mut a = Arena::new(1 << 18);
        let c = crate::alloc::class_for(128).unwrap();
        let offs: Vec<u64> = (0..77).map(|_| a.alloc(c)).collect();
        for &off in &offs[..7] {
            assert!(a.ll.free_block(off, c));
        }
        // Simulated crash, with a claim in flight and a reservation held:
        // rebuild volatile state from the media bytes, which the open
        // only reads.
        let claimed = tx_alloc(&a.ll, c).unwrap();
        let owners = |ll: &LlState| {
            (0..ll.count()).any(|id| ll.subtree(id).1.owner.load(Ordering::Relaxed) != 0)
        };
        assert!(owners(&a.ll), "a reservation is held");
        let image = a.mem.clone();
        let ll2 = a.reopen();
        assert!(a.mem == image, "a crash open stored into the image");
        let (blocks, bytes) = ll2.live();
        assert_eq!(blocks, 70);
        assert_eq!(bytes, 70 * 128);
        let occ = ll2.occupancy();
        assert_eq!(occ[c].allocated, 70);
        assert!(taken_is_bitmap(&ll2), "taken rebuilt from the bitmaps");
        assert!(!owners(&ll2), "owners cleared");
        assert!(at(&ll2, claimed, 128), "the in-flight claim is gone");
        assert!(ll2.free_block(claimed, c));
        // Post-recovery allocation never double-serves a live block.
        let fresh: Vec<u64> = (0..7).map(|_| plain(&ll2, c).unwrap()).collect();
        for f in &fresh {
            assert!(!offs[7..].contains(f), "live block double-served");
        }
        assert_eq!(ll2.live().0, 77);
    }

    #[test]
    fn recovery_rejects_corrupt_descriptors() {
        let mut a = Arena::new(1 << 16);
        let c = crate::alloc::class_for(64).unwrap();
        let _ = a.alloc(c);
        // Corrupt the descriptor's class byte on media.
        let page = a.hdr.ll_dir();
        let meta_addr = a.base() + page as usize + DESC_SIZE + D_META;
        unsafe { *(meta_addr as *mut u64) = 0xff };
        let instance = TEST_INSTANCE.fetch_add(1, Ordering::Relaxed);
        let res =
            unsafe { LlState::open(a.base(), a.mem.len(), a.mem.len(), instance, &mut a.hdr) };
        assert!(res.is_err(), "corrupt class must fail the scan");
    }

    /// A cleanly closed 64 KiB file image with two subtrees in its one
    /// bitmap page: 64 blocks of 64 B, and a 4 KiB-class subtree clipped
    /// by the region's end to fewer than 64 blocks, so its bitmap word
    /// carries padding bits.
    fn two_subtree_image(dir: &std::path::Path) -> (Vec<u8>, usize) {
        use crate::region::{Region, RegionHeader};
        let path = dir.join("pristine.nvr");
        let r = Region::create_file(&path, 64 << 10).unwrap();
        for size in [64, 64, 64, 4096] {
            r.alloc(size, 8).unwrap();
        }
        r.close().unwrap();
        let img = std::fs::read(&path).unwrap();
        let page = AllocHeader::from_bytes(&img[RegionHeader::OFF_ALLOC..]).ll_dir() as usize;
        assert_eq!(read_u64(&img[page..], PAGE_COUNT), 2);
        assert!(read_u64(&img[page + 2 * DESC_SIZE..], D_META) >> 8 < 64);
        (img, page)
    }

    /// What the three consumers of [`walk_chain`] make of one image:
    /// `(verify's llalloc errors, inspect's report, the reopened region's
    /// occupancy or the open's refusal)`. An image the open refuses must
    /// open through salvage, with allocation refused.
    fn consume(
        img: &[u8],
        path: &std::path::Path,
    ) -> (
        Vec<String>,
        crate::inspect::LlallocReport,
        std::result::Result<[ClassOccupancy; LARGE + 1], String>,
    ) {
        use crate::region::Region;
        let errors = crate::verify::verify_bytes(img).llalloc_errors;
        let report = crate::inspect::inspect_llalloc_bytes(img).expect("a region image");
        std::fs::write(path, img).unwrap();
        let opened = match Region::open_file(path) {
            Ok(r) => {
                let occupancy = r.llalloc_occupancy();
                r.crash();
                Ok(occupancy)
            }
            Err(refused) => {
                let (r, _) = Region::open_file_salvage(path).expect("salvage opens it");
                assert!(
                    matches!(r.alloc(64, 8), Err(NvError::OutOfMemory { .. })),
                    "a salvaged damaged chain serves nothing"
                );
                r.crash();
                Err(refused.to_string())
            }
        };
        (errors, report, opened)
    }

    #[test]
    fn open_verify_and_inspect_agree_on_every_damage() {
        use crate::region::RegionHeader;
        let dir = std::env::temp_dir().join(format!("nvmsim-llwalk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pristine, page) = two_subtree_image(&dir);
        let path = dir.join("damaged.nvr");
        let len = pristine.len() as u64;
        let (d0, d1) = (page + DESC_SIZE, page + 2 * DESC_SIZE);
        let put = |img: &mut [u8], off: usize, v: u64| {
            img[off..off + 8].copy_from_slice(&v.to_le_bytes());
        };

        // Structural damage: flagged by all three, on a cleanly closed
        // image and on a crashed one (where verify's sealed-only checks
        // are off, so what it reports is the walk's finding alone).
        type Damage = (&'static str, Box<dyn Fn(&mut [u8])>);
        let structural: Vec<Damage> = vec![
            (
                "bad page magic",
                Box::new(move |i| i[page + PAGE_MAGIC] ^= 0xff),
            ),
            (
                "chain cycle",
                Box::new(move |i| put(i, page + PAGE_NEXT, page as u64)),
            ),
            (
                "page out of bounds",
                Box::new(move |i| put(i, page + PAGE_NEXT, len)),
            ),
            (
                "page misaligned",
                Box::new(move |i| put(i, page + PAGE_NEXT, page as u64 + 8)),
            ),
            (
                "count > 63",
                Box::new(move |i| put(i, page + PAGE_COUNT, 64)),
            ),
            (
                // A well-formed empty page chained behind the two-descriptor
                // page: ids would map past the short page's descriptors.
                "short non-final page",
                Box::new(move |i| {
                    let forged = i.len() - LL_PAGE_SIZE;
                    i[forged..].fill(0);
                    put(i, forged + PAGE_MAGIC, LL_PAGE_MAGIC);
                    put(i, page + PAGE_NEXT, forged as u64);
                }),
            ),
            ("bad class", Box::new(move |i| i[d0 + D_META] = 0xff)),
            ("zero capacity", Box::new(move |i| i[d0 + D_META + 1] = 0)),
            ("capacity > 64", Box::new(move |i| i[d0 + D_META + 1] = 65)),
            (
                "span out of bounds",
                Box::new(move |i| put(i, d0 + D_BASE, len)),
            ),
            ("span misaligned", Box::new(move |i| i[d0 + D_BASE] ^= 0x10)),
            (
                "padding bits",
                Box::new(move |i| i[d1 + D_BITMAP + 7] &= 0x7f),
            ),
        ];
        for dirty in [false, true] {
            let mut base = pristine.clone();
            base[RegionHeader::OFF_FLAGS] |= dirty as u8;
            let (errors, report, opened) = consume(&base, &path);
            assert!(errors.is_empty(), "undamaged, dirty={dirty}: {errors:?}");
            assert!(
                report.consistent(!dirty),
                "undamaged, dirty={dirty}: {report}"
            );
            assert!(opened.is_ok(), "undamaged, dirty={dirty}: {opened:?}");
            for (what, damage) in &structural {
                let mut img = base.clone();
                damage(&mut img);
                let (errors, report, opened) = consume(&img, &path);
                let ctx = format!("{what}, dirty={dirty}: {errors:?} / {:?}", report.issues);
                assert!(!errors.is_empty(), "verify misses {ctx}");
                assert!(!report.issues.is_empty(), "inspect misses {ctx}");
                let refused = opened.expect_err(&format!("open does not refuse {ctx}"));
                assert!(
                    refused.contains(&report.issues[0]) && refused.contains("salvage"),
                    "the refusal names the damage and salvage: {refused} ({ctx})"
                );
                // One decoder: verify adds nothing structural of its own.
                assert!(
                    report.issues.iter().all(|i| errors.contains(i)),
                    "verify and inspect word the damage differently: {ctx}"
                );
            }
        }

        // Damage only a clean close's seal can show: verify and inspect
        // flag it on a clean image and not on a crashed one (whose pages
        // a running region mutated without resealing), and the open
        // accepts it.
        let sealed_only: Vec<Damage> = vec![
            // A padding byte of the page header, which only the CRC covers.
            ("page CRC", Box::new(move |i| i[page + 24] ^= 1)),
            (
                "descriptor padding bytes 24..64",
                Box::new(move |i| i[d0 + 24..d0 + DESC_SIZE].fill(0x5a)),
            ),
        ];
        let class = crate::alloc::class_for(64).unwrap();
        for (what, damage) in &sealed_only {
            for dirty in [false, true] {
                let mut img = pristine.clone();
                img[RegionHeader::OFF_FLAGS] |= dirty as u8;
                damage(&mut img);
                let (errors, report, opened) = consume(&img, &path);
                let ctx = format!("{what}, dirty={dirty}: {errors:?}");
                assert_eq!(errors.is_empty(), dirty, "{ctx}");
                assert!(report.issues.is_empty(), "{ctx}: {:?}", report.issues);
                assert_eq!(report.unsealed_pages, 1, "{ctx}");
                assert_eq!(report.consistent(!dirty), dirty, "{ctx}");
                let o = opened.expect("the open must not refuse")[class];
                assert_eq!((o.capacity, o.allocated), (64, 3), "{ctx}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlapping_subtree_spans_are_refused_at_open() {
        let dir = std::env::temp_dir().join(format!("nvmsim-lloverlap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (mut img, page) = two_subtree_image(&dir);
        let (d0, d1) = (page + DESC_SIZE, page + 2 * DESC_SIZE);
        // Every descriptor is well formed on its own; only the granule
        // map sees that the second span starts inside the first. Reseal
        // the page so the clean image verifies bit for bit.
        let inside = read_u64(&img[d0..], D_BASE) + GRANULE;
        img[d1 + D_BASE..][..8].copy_from_slice(&inside.to_le_bytes());
        let crc = page_crc(&img[page..page + LL_PAGE_SIZE]);
        img[page + PAGE_CRC..][..8].copy_from_slice(&crc.to_le_bytes());
        let (errors, _, opened) = consume(&img, &dir.join("overlap.nvr"));
        assert!(errors.is_empty(), "verify sees no damage: {errors:?}");
        let refused = opened.expect_err("an overlapping span must be refused");
        assert!(
            refused.contains("subtree 1: span overlaps another subtree")
                && refused.contains("salvage"),
            "{refused}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn div_class_is_exact_over_every_span() {
        for (class, &size) in CLASS_SIZES.iter().enumerate() {
            let span = (BLOCKS_PER_SUBTREE * size) as u64 + GRANULE;
            for delta in 0..span {
                assert_eq!((delta * DIV_CLASS[class]) >> 32, delta / size as u64);
            }
        }
    }

    #[test]
    fn held_blocks_commit_release_and_roll_back() {
        let mut a = Arena::new(1 << 18);
        let c = crate::alloc::class_for(64).unwrap();
        let kept = a.alloc(c);
        // A transaction's allocation: taken, its bit still clear.
        let fresh = tx_alloc(&a.ll, c).unwrap();
        assert_eq!(a.ll.live(), (1, 64), "a held allocation has no bit yet");
        assert!(a.ll.is_allocated(kept, c));
        assert!(!a.ll.is_allocated(fresh, c), "not allocated");
        assert!(!at(&a.ll, fresh, 64), "a held allocation is taken");
        // Commit: both bits flip, the holds stay until they end.
        a.ll.persist_held(fresh, c, BlockOp::Alloc);
        a.ll.persist_held(kept, c, BlockOp::Free);
        assert_eq!(a.ll.live(), (1, 64));
        assert!(
            !at(&a.ll, kept, 64),
            "a committed free is held until its hold ends"
        );
        a.ll.end_hold(fresh, c);
        a.ll.end_hold(kept, c);
        assert!(
            !at(&a.ll, fresh, 64),
            "a committed allocation stays allocated"
        );
        assert!(at(&a.ll, kept, 64), "ended: served again");
        // Abort in the session: nothing was flipped, the holds go.
        let fresh2 = tx_alloc(&a.ll, c).unwrap();
        a.ll.undo(fresh2, c, BlockOp::Alloc);
        a.ll.undo(fresh, c, BlockOp::Free);
        assert!(!at(&a.ll, fresh2, 64), "held until the rollback's truncate");
        a.ll.end_hold(fresh2, c);
        a.ll.end_hold(fresh, c);
        assert_eq!(a.ll.live(), (2, 128));
        assert!(at(&a.ll, fresh2, 64), "an aborted allocation is free");
        assert!(
            a.ll.free_block(fresh, c),
            "an aborted free is still allocated"
        );
        // Recovery: the bits reached media, the holds did not survive.
        let (fresh3, freed) = (tx_alloc(&a.ll, c).unwrap(), fresh2);
        a.ll.persist_held(fresh3, c, BlockOp::Alloc);
        a.ll.persist_held(freed, c, BlockOp::Free);
        let ll2 = a.reopen();
        assert!(taken_is_bitmap(&ll2), "nothing is held at attach");
        ll2.undo(fresh3, c, BlockOp::Alloc);
        ll2.undo(freed, c, BlockOp::Free);
        ll2.end_hold(fresh3, c);
        ll2.end_hold(freed, c);
        assert_eq!(ll2.live(), (2, 128), "kept and the rolled-back free");
        assert!(taken_is_bitmap(&ll2), "the rollback leaves no hold");
        assert!(at(&ll2, fresh3, 64));
        assert!(ll2.free_block(freed, c));
    }

    #[test]
    fn a_hold_does_not_survive_a_reopen() {
        let mut a = Arena::new(1 << 18);
        let c = crate::alloc::class_for(64).unwrap();
        let allocated = a.alloc(c);
        let held = tx_alloc(&a.ll, c).unwrap();
        assert!(!at(&a.ll, held, 64));
        let ll2 = a.reopen();
        assert!(taken_is_bitmap(&ll2), "taken reset to the bitmap");
        assert_eq!(ll2.live(), (1, 64));
        assert!(at(&ll2, held, 64), "the held allocation is free again");
        assert!(
            ll2.is_allocated(allocated, c),
            "a held free is still allocated"
        );
        assert!(ll2.free_block(allocated, c));
    }

    #[test]
    fn a_held_block_is_never_served_by_any_claim_on_any_thread() {
        const THREADS: usize = 4;
        const OPS: usize = 3000;
        let mut a = Arena::new(1 << 18);
        let c = crate::alloc::class_for(64).unwrap();
        // One subtree, reserved by this thread through a transaction's
        // allocation (`held`) and a plain one another transaction frees
        // (`freeing`): every other thread's first allocation steals it,
        // and they go on stealing it from one another.
        unsafe { a.ll.grow(&mut a.hdr, c) }.unwrap();
        let held = tx_alloc(&a.ll, c).unwrap();
        let freeing = plain(&a.ll, c).unwrap();
        assert_eq!(a.ll.count(), 1);
        let steals = metrics::snapshot().get(Counter::LlallocSubtreeSteals);
        let a = Arc::new(a);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut live: Vec<u64> = Vec::new();
                    for i in 0..OPS {
                        assert!(!at(&a.ll, held, 64), "alloc_at served a held block");
                        assert!(!at(&a.ll, freeing, 64), "alloc_at served a held free");
                        if live.len() >= 12 || (i % 3 == 0 && !live.is_empty()) {
                            let off = live.swap_remove((t + i) % live.len());
                            if i % 4 == 0 {
                                // A transaction's free, aborted: the block
                                // stays allocated.
                                assert!(a.ll.is_allocated(off, c));
                                a.ll.undo(off, c, BlockOp::Free);
                                a.ll.end_hold(off, c);
                            }
                            if i % 2 == 0 {
                                // A transaction's free, committed.
                                assert!(a.ll.is_allocated(off, c));
                                a.ll.persist_held(off, c, BlockOp::Free);
                                a.ll.end_hold(off, c);
                            } else {
                                assert!(a.ll.free_block(off, c));
                            }
                            continue;
                        }
                        let off = tx_alloc(&a.ll, c).expect("room for every thread");
                        assert!(off != held && off != freeing, "served a held block");
                        match i % 5 {
                            // A transaction's allocation, aborted.
                            0 => {
                                a.ll.undo(off, c, BlockOp::Alloc);
                                a.ll.end_hold(off, c);
                            }
                            // One committed: its bit is set with other
                            // threads' claims in flight in its word.
                            1 => {
                                a.ll.persist_held(off, c, BlockOp::Alloc);
                                a.ll.end_hold(off, c);
                                live.push(off);
                            }
                            // A plain allocation.
                            _ => {
                                a.ll.persist_held(off, c, BlockOp::Alloc);
                                live.push(off);
                            }
                        }
                    }
                    for off in live {
                        assert!(a.ll.free_block(off, c));
                    }
                })
            })
            .collect();
        for i in 0..OPS {
            let off = plain(&a.ll, c).expect("room");
            assert!(
                off != held && off != freeing,
                "this thread served its own held block"
            );
            assert!(a.ll.free_block(off, c));
            if i % 7 == 0 {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            metrics::snapshot().get(Counter::LlallocSubtreeSteals) > steals,
            "no steal ran"
        );
        assert_eq!(a.ll.live(), (1, 64), "only the held free's block");
        // The holds end: the aborted allocation's and the committed free's
        // blocks are served again.
        a.ll.end_hold(held, c);
        a.ll.persist_held(freeing, c, BlockOp::Free);
        a.ll.end_hold(freeing, c);
        assert_eq!(a.ll.live(), (0, 0));
        assert!(taken_is_bitmap(&a.ll), "no claim is left");
        assert!(at(&a.ll, held, 64), "served once the hold ends");
        assert!(at(&a.ll, freeing, 64), "served once the free commits");
    }

    #[test]
    fn first_claims_and_frees_race_to_fill_one_page() {
        const THREADS: usize = 4;
        const FREES: usize = 32;
        const CLAIMS: usize = 48;
        let mut a = Arena::new(1 << 18);
        let c = crate::alloc::class_for(64).unwrap();
        // Eight subtrees on one page, every other block allocated.
        let offs: Vec<u64> = (0..8 * BLOCKS_PER_SUBTREE).map(|_| a.alloc(c)).collect();
        let live: Vec<u64> = offs.iter().copied().step_by(2).collect();
        for &off in offs.iter().skip(1).step_by(2) {
            assert!(a.ll.free_block(off, c));
        }
        let ll = a.reopen();
        assert!(ll.pages[0].get().is_none(), "filled at open");
        let start = std::sync::Barrier::new(THREADS);
        let (ll, start) = (&ll, &start);
        let served: Vec<Vec<u64>> = std::thread::scope(|s| {
            let threads: Vec<_> = live
                .chunks(FREES)
                .take(THREADS)
                .enumerate()
                .map(|(t, frees)| {
                    s.spawn(move || {
                        let free = |i: usize| {
                            if let Some(&off) = frees.get(i) {
                                assert!(ll.free_block(off, c), "{off:#x} freed twice");
                            }
                        };
                        start.wait();
                        let mut got = Vec::new();
                        for i in 0..CLAIMS {
                            // Even threads free first, odd ones claim first.
                            if t % 2 == 0 {
                                free(i);
                            }
                            got.push(plain(ll, c).expect("room without a grow"));
                            if t % 2 == 1 {
                                free(i);
                            }
                        }
                        got
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let kept = &live[THREADS * FREES..];
        let mut served: Vec<u64> = served.concat();
        served.sort_unstable();
        served.dedup();
        assert_eq!(served.len(), THREADS * CLAIMS, "a block served twice");
        assert!(
            served.iter().all(|off| !kept.contains(off)),
            "a live block served"
        );
        let mut expect: Vec<u64> = kept.iter().chain(&served).copied().collect();
        expect.sort_unstable();
        let mut now: Vec<u64> = ll.live_blocks().iter().map(|&(off, _)| off).collect();
        now.sort_unstable();
        assert_eq!(now, expect, "the bitmaps hold what was kept and served");
        assert!(taken_is_bitmap(ll), "a claim or a free left `taken` behind");
    }

    #[test]
    fn descriptor_bytes_24_to_63_are_ignored() {
        let mut a = Arena::new(1 << 18);
        let c = crate::alloc::class_for(64).unwrap();
        let offs: Vec<u64> = (0..150).map(|_| a.alloc(c)).collect();
        for &off in offs.iter().step_by(3) {
            assert!(a.ll.free_block(off, c));
        }
        let live: Vec<u64> = offs
            .iter()
            .skip(1)
            .step_by(3)
            .chain(offs.iter().skip(2).step_by(3))
            .copied()
            .collect();
        let page = a.hdr.ll_dir() as usize;
        let subtrees = a.ll.count() as usize;
        assert!(subtrees <= SUBTREES_PER_PAGE, "one bitmap page");
        // Zeros, and what an older image may keep there: a free counter
        // and the volatile words the descriptor used to carry.
        for fill in [0x00, 0xff] {
            for slot in 0..subtrees {
                let d = page + DESC_SIZE * (slot + 1);
                a.mem[d + 24..d + DESC_SIZE].fill(fill);
            }
            // Sealed as a clean close leaves it.
            let crc = page_crc(&a.mem[page..page + LL_PAGE_SIZE]);
            a.mem[page + PAGE_CRC..][..8].copy_from_slice(&crc.to_le_bytes());
            let image = a.mem.clone();
            let ll = a.reopen();
            assert!(
                a.mem == image,
                "fill {fill:#x}: the open stored into the image"
            );
            assert!(taken_is_bitmap(&ll), "fill {fill:#x}");
            assert_eq!(ll.live(), (live.len() as u64, live.len() as u64 * 64));
            // Every block still free is served once, and no live one.
            let mut fresh = Vec::new();
            while let Some(off) = plain(&ll, c) {
                assert!(!live.contains(&off), "{off:#x} is allocated already");
                fresh.push(off);
            }
            let capacity = ll.occupancy()[c].capacity;
            assert_eq!(ll.live().0, capacity, "every block served");
            assert_eq!(live.len() + fresh.len(), capacity as usize, "and each once");
            for off in fresh {
                assert!(ll.free_block(off, c));
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a bitmap bit set without its taken bit")]
    fn a_bit_is_never_set_without_its_taken_bit() {
        let mut a = Arena::new(1 << 16);
        let c = crate::alloc::class_for(64).unwrap();
        let off = a.alloc(c);
        assert!(a.ll.free_block(off, c));
        a.ll.persist_held(off, c, BlockOp::Alloc);
    }

    #[test]
    fn concurrent_churn_is_exact_and_never_double_serves() {
        const THREADS: usize = 4;
        const OPS: usize = 2000;
        let mut a = Arena::new(1 << 20);
        let c = crate::alloc::class_for(64).unwrap();
        // Pre-grow enough subtrees that the lock-free paths never need
        // the (externally locked) grow during the race: each thread nets
        // about two allocations per three ops, so peak live is just
        // under 2/3 * THREADS * OPS / 2 blocks.
        for _ in 0..48 {
            unsafe { a.ll.grow(&mut a.hdr, c) }.unwrap();
        }
        let a = Arc::new(a);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut live: Vec<u64> = Vec::new();
                    for i in 0..OPS {
                        if i % 3 == 0 && !live.is_empty() {
                            let off = live.swap_remove((t + i) % live.len());
                            assert!(a.ll.free_block(off, c));
                        } else {
                            let off = plain(&a.ll, c).expect("pre-grown capacity");
                            // Stamp and verify: a double-served block
                            // would be stamped by two threads at once.
                            let p = (a.base() + off as usize) as *mut u64;
                            unsafe { p.write_volatile(t as u64 + 1) };
                            std::thread::yield_now();
                            assert_eq!(
                                unsafe { p.read_volatile() },
                                t as u64 + 1,
                                "block double-served"
                            );
                            live.push(off);
                        }
                    }
                    for off in live {
                        assert!(a.ll.free_block(off, c));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (blocks, bytes) = a.ll.live();
        assert_eq!((blocks, bytes), (0, 0), "every block returned");
    }
}
