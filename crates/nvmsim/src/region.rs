//! NVRegions: the loading unit of the simulated NVM (Section 2.2).
//!
//! A region is a contiguous span of memory mapped into a run of NV chunks.
//! Its first bytes hold a [`RegionHeader`] — magic, version, region ID, the
//! named-root directory, and the embedded allocator state — all expressed
//! position-independently (offsets only), so a persisted image can be
//! remapped at *any* chunk-run base in a later run. Reopening a file-backed
//! region picks a random free run, which is how the experiments exercise
//! position independence: every reopen lands the data somewhere new, exactly
//! like address-space randomization would.
//!
//! Regions are created — each picking its own region ID — with a
//! *capacity* (virtually reserved, defaulting to the size;
//! [`Region::create_with_capacity`] sets it, for an anonymous region or,
//! given a path, a file-backed one) and can grow in place up to it via
//! [`Region::grow`]: new chunks of the already-acquired run are committed
//! on demand, the embedded allocator's frontier is extended, and the
//! translation tables never change — RIV values keep resolving across the
//! growth. The header format and the named roots live in `header.rs`.

use crate::alloc::{class_for, AllocHeader, AllocStats};
use crate::error::{NvError, Result};
use crate::latency;
use crate::llalloc::{ClassOccupancy, LlState, LARGE};
use crate::mem::{align_up, page_size};
use crate::nvref::{self, NvRef};
use crate::nvspace::{ChunkRun, NvSpace};
use crate::registry;
use crate::shadow::{self, FaultPolicy, FaultReport, FaultStamp};
use crate::undolog::BlockEntry;
use crate::verify::{self, VerifyReport};
use parking_lot::{Mutex, MutexGuard};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

mod header;

pub(crate) use header::{decode_root_name, FLAG_DIRTY};
pub use header::{
    RegionHeader, HEADER_VERSION, MAX_ROOTS, META_SLOT_COUNT, META_SLOT_SIZE, REGION_MAGIC,
    ROOT_NAME_CAP,
};

/// A chunk run reserved for a region being created or opened, given back
/// (decommitted and released) on drop unless the open completes with
/// [`Reserved::publish`]. Error paths just return: the guard is dropped after
/// the error value is built, so no message can be formatted out of a
/// header that was already unmapped.
struct Reserved {
    space: &'static NvSpace,
    run: ChunkRun,
    base: usize,
    /// Bytes the run covers (whole chunks).
    capacity: usize,
}

impl Reserved {
    /// Reserves a run covering at least `capacity` bytes.
    fn acquire(space: &'static NvSpace, capacity: usize) -> Result<Reserved> {
        let layout = space.layout();
        let chunks = layout.chunks_for(capacity) as u32;
        let run = space.acquire_chunks(chunks)?;
        Ok(Reserved {
            space,
            run,
            base: space.chunk_base(run.start),
            capacity: chunks as usize * layout.chunk_size(),
        })
    }

    /// Commits the first `len` bytes of the run — from `file` (shared, or
    /// copy-on-write), else anonymous zeroes — and returns their header.
    fn commit(&self, len: usize, file: Option<(&File, bool)>) -> Result<NvRef<RegionHeader>> {
        let (space, base) = (self.space, self.base);
        match file {
            Some((file, shared)) => space.commit_range_file(base, len, file, 0, shared)?,
            None => space.commit_range_anon(base, len)?,
        }
        // `len` bytes at `base` are now mapped read/write, and the run is
        // this guard's alone until `publish`.
        Ok(NvRef::mapped(base as *mut RegionHeader, len))
    }

    /// Opens the allocator of the `size` committed bytes, once their
    /// header (`alloc` its allocator word) is validated, by checking the
    /// bitmap pages' chain ([`LlState::open`]; each page is filled at its
    /// first use); an error names the chain's damage, which only salvage
    /// opens past.
    fn open_allocator(
        &self,
        size: usize,
        alloc: &mut AllocHeader,
    ) -> std::result::Result<LlState, String> {
        // SAFETY: the run is this guard's alone until `publish`, and its
        // callers committed the `size` bytes `alloc` lies in.
        unsafe { LlState::open(self.base, self.capacity, size, next_instance(), alloc) }
    }

    /// The one publish tail of create, open and salvage: the run is
    /// committed and holds a valid header; binding `rid` to it makes it
    /// the region's, and this puts the region's [`Inner`] together.
    fn publish(
        self,
        rid: u32,
        size: usize,
        was_dirty: bool,
        backing: Backing,
        ll: LlState,
    ) -> Result<Region> {
        let (space, run, base, capacity) = (self.space, self.run, self.base, self.capacity);
        space.bind(rid, run)?;
        std::mem::forget(self);
        let inner = Inner {
            space,
            rid,
            run,
            base,
            size: AtomicUsize::new(size),
            capacity,
            was_dirty,
            backing,
            alloc_lock: Mutex::new(()),
            closed: AtomicBool::new(false),
            ll,
        };
        registry::register(rid, base);
        nvref::set_committed(base, Some(size));
        Ok(Region {
            inner: Arc::new(inner),
        })
    }
}

impl Drop for Reserved {
    fn drop(&mut self) {
        // Decommitting what was never committed is harmless (still
        // PROT_NONE), so one path serves every failure point.
        let _ = self.space.decommit_range(self.base, self.capacity);
        self.space.release_chunks(self.run);
    }
}

#[derive(Debug)]
enum Backing {
    Anonymous,
    File {
        file: File,
        path: PathBuf,
        shared: bool,
    },
}

impl Backing {
    /// Creates (truncating) the image file at `path`, `size` bytes long.
    fn create(path: &Path, size: usize) -> Result<Backing> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(size as u64)?;
        Ok(Backing::File {
            file,
            path: path.to_path_buf(),
            shared: true,
        })
    }
}

/// Source of unique per-open-session ids: region ids are reused across
/// close/reopen, so the bitmap core's thread-local subtree reservations
/// key on these instead.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

#[derive(Debug)]
pub(crate) struct Inner {
    space: &'static NvSpace,
    rid: u32,
    /// The chunk run backing this region; covers `capacity` bytes.
    run: ChunkRun,
    base: usize,
    /// Committed size in bytes. Grows monotonically (up to `capacity`)
    /// under `alloc_lock`; read with `Acquire` so any thread that sees a
    /// grown size also sees the newly committed memory.
    size: AtomicUsize,
    /// Reserved ceiling for in-place growth (whole chunks).
    capacity: usize,
    was_dirty: bool,
    backing: Backing,
    /// The region lock: serializes header mutation (the allocator
    /// frontier, roots, growth, metadata slots) and large allocations.
    alloc_lock: Mutex<()>,
    closed: AtomicBool,
    /// Volatile state of the region's one allocator, the bitmap core.
    ll: LlState,
}

/// Handle to an open NVRegion.
///
/// Cloning the handle is cheap (it is an `Arc`); the region closes when
/// [`Region::close`] is called or the last handle drops.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), nvmsim::NvError> {
/// use nvmsim::Region;
///
/// let region = Region::create(1 << 20)?;
/// let p = region.alloc(64, 8)?;
/// region.set_root("head", p.as_ptr() as usize)?;
/// assert_eq!(region.root("head").unwrap(), p.as_ptr() as usize);
/// region.close()?;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Region {
    inner: Arc<Inner>,
}

impl Region {
    /// Creates an anonymous (non-durable) region of `size` bytes with an
    /// automatically assigned region ID.
    ///
    /// # Errors
    ///
    /// Fails if no chunk run or region ID is available, or `size` exceeds
    /// the maximum region size.
    pub fn create(size: usize) -> Result<Region> {
        Self::build(size, size, None)
    }

    /// Creates a durable, file-backed region of `size` bytes at `path`.
    /// The file is created (truncated if it exists) and sized immediately.
    ///
    /// # Errors
    ///
    /// As [`Region::create`], plus I/O errors creating the file.
    pub fn create_file<P: AsRef<Path>>(path: P, size: usize) -> Result<Region> {
        Self::build(size, size, Some(path.as_ref()))
    }

    /// Creates a region of `size` bytes that can [`Region::grow`] in
    /// place up to `capacity` bytes: a chunk run covering `capacity` is
    /// reserved (virtual address space only), but just `size` bytes are
    /// committed. Anonymous without a `path`; with one, file-backed as by
    /// [`Region::create_file`], the file holding only the committed bytes
    /// and extended as the region grows.
    ///
    /// # Errors
    ///
    /// As [`Region::create_file`]; additionally if `capacity` exceeds the
    /// layout's maximum region size.
    pub fn create_with_capacity(
        size: usize,
        capacity: usize,
        path: Option<&Path>,
    ) -> Result<Region> {
        Self::build(size, capacity, path)
    }

    fn build(size: usize, capacity: usize, path: Option<&Path>) -> Result<Region> {
        let space = NvSpace::global();
        let layout = space.layout();
        let capacity = capacity.max(size);
        if (size as u64) < RegionHeader::min_image_len() || capacity > layout.max_region_size() {
            return Err(NvError::BadImage(format!(
                "region geometry size {size} / capacity {capacity} outside [{}, {}]: \
                 a region holds its metadata, the allocator's first bitmap page and \
                 one granule",
                RegionHeader::min_image_len(),
                layout.max_region_size()
            )));
        }
        // Only a geometry that fits creates (and so truncates) the file.
        let rid = registry::alloc_rid(layout.max_rid(), |rid| space.is_bound(rid))
            .ok_or(NvError::NoFreeSegment)?;
        let backing = match path {
            Some(path) => Backing::create(path, size)?,
            None => Backing::Anonymous,
        };
        let reserved = Reserved::acquire(space, capacity)?;
        // The reserved ceiling is the whole run: capacity rounds up to
        // chunk granularity so the header never promises less than the
        // address space actually held.
        let (base, capacity) = (reserved.base, reserved.capacity);
        let file = match &backing {
            Backing::File { file, .. } => Some((file, true)),
            Backing::Anonymous => None,
        };
        let hdr = reserved.commit(size, file)?;
        // The header, then the allocator's first bitmap page (its volatile
        // maps sized for `capacity`, for in-place growth), before the
        // slot-A seed below, so even the seed carries the directory offset.
        // SAFETY: `size` bytes committed and still the guard's alone;
        // `hdr.alloc` is initialized before the allocator formats it.
        let ll = unsafe {
            let hdr = hdr.as_mut();
            hdr.format(rid, size, capacity);
            LlState::create(base, capacity, next_instance(), &mut hdr.alloc)?
        };
        let region = reserved.publish(rid, size, false, backing, ll)?;
        // Seed slot A so even a never-synced image has one valid
        // checksummed snapshot to recover from.
        region.inner.write_meta_slot();
        Ok(region)
    }

    /// Opens an existing region image, mapping it writably (`MAP_SHARED`)
    /// at a fresh random segment.
    ///
    /// # Errors
    ///
    /// [`NvError::BadImage`] if validation fails, [`NvError::InvalidRid`] if
    /// the image's region ID is already open, plus I/O errors.
    pub fn open_file<P: AsRef<Path>>(path: P) -> Result<Region> {
        Self::open_impl(path.as_ref())
    }

    /// [`Region::open_file`], but guarantees the mapping lands at a base
    /// address different from `avoid`. The region server's eviction and
    /// crash-recovery reopens use this so every reopen actually exercises
    /// position independence rather than accidentally landing back at the
    /// old base.
    ///
    /// The chunk containing `avoid` is pinned in the pool for the duration
    /// of the open, so the placement cannot start there; the image is
    /// opened exactly once, and a cleanly closed image stays clean. An
    /// `avoid` that is 0, outside the data area, or inside a chunk some
    /// region still holds needs no pin: no new mapping can land on it.
    ///
    /// # Errors
    ///
    /// As [`Region::open_file`].
    pub fn open_file_avoiding<P: AsRef<Path>>(path: P, avoid: usize) -> Result<Region> {
        let space = NvSpace::global();
        let pin = space
            .chunk_of(avoid)
            .and_then(|chunk| space.acquire_chunks_at(chunk, 1));
        let opened = Self::open_impl(path.as_ref());
        if let Ok(pin) = pin {
            space.release_chunks(pin);
        }
        opened
    }

    fn open_impl(path: &Path) -> Result<Region> {
        let space = NvSpace::global();
        let layout = space.layout();
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut flen = file.metadata()?.len();

        // Pre-validate the declared geometry against the actual file
        // length *before* mapping: a truncated or size-lying image must
        // yield a typed error, never an out-of-bounds mapping.
        let mut area = Vec::with_capacity(RegionHeader::data_start() as usize);
        (&mut file)
            .take(RegionHeader::data_start())
            .read_to_end(&mut area)?;
        let mut boot = verify::read_boot(&area, flen).map_err(NvError::BadImage)?;
        // `grow` extends the file before it fences the header's new size:
        // a crash between leaves a file longer than the size the header
        // and the newest metadata slot agree on, with nothing durable past
        // it. That growth is rolled back (below, once the rid is free).
        if flen > boot.size && verify::slot_word(&area, RegionHeader::OFF_SIZE) == Some(boot.size) {
            if let Ok(rolled) = verify::read_boot(&area, boot.size) {
                boot = rolled;
            }
        }
        if let Some(e) = boot.errors.first() {
            return Err(NvError::BadImage(e.clone()));
        }
        let (rid, size) = (boot.rid, boot.size);
        let max_capacity = layout.max_region_size() as u64;
        let capacity = if boot.capacity_error().is_some() || boot.capacity > max_capacity {
            // The primary capacity word is implausible — rotted or torn,
            // like any other header byte. The checksummed slots carry the
            // authoritative copy; a region that never grew its reservation
            // falls back to the file length (capacity == size there). The
            // corruption walk below repairs the primary itself.
            match verify::slot_word(&area, RegionHeader::OFF_CAPACITY) {
                Some(c) if c >= size && c <= max_capacity => c,
                _ => size,
            }
        } else {
            boot.capacity
        };
        rid_in_range(space, rid)?;
        if space.is_bound(rid) {
            return Err(NvError::InvalidRid {
                rid,
                reason: "already open in this process",
            });
        }
        if flen != size {
            file.set_len(size)?;
            flen = size;
        }

        let size = size as usize;
        let reserved = Reserved::acquire(space, capacity as usize)?;
        let capacity = reserved.capacity;
        let hdr = reserved.commit(size, Some((&file, true)))?;
        // Corruption walk of the primary metadata (roots, allocator words)
        // and both checksummed slots. A damaged primary is restored from
        // the newest valid slot; if that still does not verify, the open
        // fails with a typed error. The allocator's open walks the chain.
        // SAFETY: `size` bytes committed and the guard's alone until `publish`.
        let bytes = unsafe { hdr.field::<u8>(0).slice(size) };
        let report = verify::walk(bytes, false);
        let primary_was_ok = report.primary_ok();
        // Clean close converges both slots onto the final snapshot, so
        // agreeing slots that differ from a clean, structurally-valid
        // primary mean the primary rotted after the close: restore the
        // checksummed copy. (On a dirty image the primary may
        // legitimately be newer than the last slot write, so no such
        // repair is attempted.)
        let rotted_after_close =
            report.clean && report.slots_agree && report.primary_matches_active == Some(false);
        let mut usable = primary_was_ok;
        if let Some(s) = report
            .active_slot
            .filter(|_| !primary_was_ok || rotted_after_close)
        {
            verify::restore_slot(bytes, s);
            usable = verify::walk(bytes, false).primary_ok();
        }
        if !usable {
            return Err(NvError::BadImage(format!(
                "unrecoverable image: {}",
                report.damage_summary()
            )));
        }
        // A slot restore rewrites the identity words; re-check them
        // against what was validated pre-map.
        // SAFETY: as for `bytes`, which is dead from here on.
        let h = unsafe { hdr.as_mut() };
        if h.rid != rid || h.size != flen {
            return Err(NvError::BadImage(format!(
                "metadata slot disagrees with the boot block (rid {} vs {rid}, size {} vs {flen})",
                h.rid, h.size
            )));
        }
        if h.capacity < flen || h.capacity as usize > layout.max_region_size() {
            // The capacity word is still rot (a dirty image keeps its
            // primary even when a slot exists): pin it to the run that was
            // actually reserved from the sanitized pre-map value.
            h.capacity = capacity as u64;
        }
        if h.capacity as usize > capacity {
            // A restored slot must not promise more growth room than the
            // run acquired from the boot block actually reserves.
            return Err(NvError::BadImage(format!(
                "metadata slot claims capacity {} beyond the reserved run ({capacity})",
                h.capacity
            )));
        }
        let opened = reserved.open_allocator(size, &mut h.alloc);
        let ll = opened.map_err(|damage| {
            NvError::BadImage(format!(
                "bitmap allocator damaged: {damage}; open the image with \
                 Region::open_file_salvage"
            ))
        })?;
        // A primary that had to be rebuilt from a slot counts as dirty:
        // the snapshot may predate the damage, so recovery layers must
        // run regardless of what the restored flags claim.
        let was_dirty = h.flags & FLAG_DIRTY != 0 || !primary_was_ok;
        let backing = Backing::File {
            file,
            path: path.to_path_buf(),
            shared: true,
        };
        let region = reserved.publish(rid, size, was_dirty, backing, ll)?;
        // Mark dirty for the duration of this writable session, once the
        // open can no longer fail.
        h.flags |= FLAG_DIRTY;
        Ok(region)
    }

    /// This region's ID.
    pub fn rid(&self) -> u32 {
        self.inner.rid
    }

    /// Current base address of the mapping.
    pub fn base(&self) -> usize {
        self.inner.base
    }

    /// Committed region size in bytes (grows via [`Region::grow`]).
    pub fn size(&self) -> usize {
        self.inner.len()
    }

    /// Reserved (virtual) ceiling for in-place growth, in bytes. Always a
    /// whole number of chunks and at least [`Region::size`].
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// The chunk run backing this region.
    pub fn chunk_run(&self) -> ChunkRun {
        self.inner.run
    }

    /// Whether the image was not cleanly closed before this open — i.e. a
    /// crash (real or simulated) happened. Recovery layers (see `pstore`)
    /// consult this.
    pub fn was_dirty(&self) -> bool {
        self.inner.was_dirty
    }

    /// Whether `addr` falls inside this region's current mapping.
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.inner.base && addr < self.inner.base + self.inner.len()
    }

    /// Grows the region in place to `new_size` bytes.
    ///
    /// The newly committed bytes are zero, the embedded allocator's
    /// frontier extends over them, and neither the base address nor any
    /// existing pointer or RIV changes: the chunk run reserved at
    /// creation already covers [`Region::capacity`], so growth is pure
    /// commit + bookkeeping — the paper's translation tables are not
    /// touched. File-backed (shared) regions extend their image file
    /// first; salvage's copy-on-write sessions commit anonymous memory,
    /// keeping the file untouched. A `new_size` at or below the current
    /// size is a no-op.
    ///
    /// # Errors
    ///
    /// [`NvError::OutOfMemory`] past [`Region::capacity`],
    /// [`NvError::RegionClosed`] after close, plus commit/file I/O errors.
    pub fn grow(&self, new_size: usize) -> Result<usize> {
        let mut hdr = self.lock_open()?;
        let old = self.inner.len();
        if new_size <= old {
            return Ok(old);
        }
        if new_size > self.inner.capacity {
            return Err(NvError::OutOfMemory {
                region: self.inner.rid,
                requested: new_size,
            });
        }
        let base = self.inner.base;
        let page = page_size();
        // Pages up to align_up(old) are already committed; extend the
        // mapping from there. (Growth within the last committed page only
        // needs the bookkeeping below.)
        let lo = align_up(old, page);
        let hi = align_up(new_size, page);
        match &self.inner.backing {
            Backing::File {
                file, shared: true, ..
            } => {
                // Extend the image first so the new mapping never points
                // past the end of the file (a store there would SIGBUS).
                file.set_len(new_size as u64)?;
                if hi > lo {
                    self.inner.space.commit_range_file(
                        base + lo,
                        hi - lo,
                        file,
                        lo as u64,
                        true,
                    )?;
                }
            }
            _ => {
                // Anonymous regions and copy-on-write sessions get zeroed
                // anonymous pages; a COW file is never touched.
                if hi > lo {
                    self.inner.space.commit_range_anon(base + lo, hi - lo)?;
                }
            }
        }
        // Memory is committed: publish the new size (Release pairs with
        // the Acquire loads in `len`), then extend the durable metadata.
        self.inner.size.store(new_size, Ordering::Release);
        nvref::set_committed(base, Some(new_size));
        // The size is durable before the allocator's end moves, so a crash
        // leaves the end short of the size (the open re-derives it), never
        // past it; a crash before this fence leaves the file longer than
        // the size (the open rolls that growth back).
        hdr.size = new_size as u64;
        // A tracked region's shadow state must cover the new bytes (read
        // below the size word) before any instrumented store lands there.
        shadow::grow_region(base, new_size);
        let size_addr = base + RegionHeader::OFF_SIZE;
        latency::persist(size_addr, 8);
        latency::wbarrier();
        hdr.alloc.extend(new_size as u64);
        // Growth is rare, so one coarse flush of the header snapshot area
        // persists the end.
        let snap = RegionHeader::snapshot_len();
        latency::persist(base, snap);
        latency::wbarrier();
        // The geometry words changed durably: reseal a metadata slot.
        self.inner.write_meta_slot();
        crate::metrics::incr(crate::metrics::Counter::RegionGrows);
        Ok(new_size)
    }

    fn check_open(&self) -> Result<()> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(NvError::RegionClosed {
                rid: self.inner.rid,
            });
        }
        Ok(())
    }

    /// Takes the region lock and re-checks `closed` under it: a clean
    /// teardown sets the flag and then takes this lock before unmapping,
    /// so a holder that saw the region open keeps the mapping alive until
    /// the guard drops. The guard is the one way to the header.
    fn lock_open(&self) -> Result<HeaderGuard<'_>> {
        let lock = self.inner.alloc_lock.lock();
        self.check_open()?;
        Ok(self.inner.guard(lock))
    }

    /// Allocates `size` bytes (alignment `align`, at most 16) inside the
    /// region and returns its absolute address for this session.
    ///
    /// # Errors
    ///
    /// [`NvError::OutOfMemory`] when the region is full,
    /// [`NvError::RegionClosed`] after close.
    pub fn alloc(&self, size: usize, align: usize) -> Result<NonNull<u8>> {
        let off = self.alloc_off(size, align)?;
        // SAFETY: the offset is inside the mapped region and nonzero.
        Ok(unsafe { NonNull::new_unchecked((self.inner.base + off as usize) as *mut u8) })
    }

    /// Like [`Region::alloc`] but returns the position-independent offset.
    ///
    /// Every request is served by the bitmap allocator (see
    /// [`crate::llalloc`]): class-sized ones lock-free, larger ones as
    /// whole-granule spans under the region lock.
    ///
    /// # Errors
    ///
    /// As [`Region::alloc`].
    pub fn alloc_off(&self, size: usize, align: usize) -> Result<u64> {
        // Allocator internals flush while holding the allocation lock
        // (the lock-free core's grow() formats bitmap pages under it); a
        // seeded-schedule context switch in there would deadlock the
        // token passing, so the whole allocation is one uninterruptible
        // scheduling step — its flushes still count as shadow events.
        // See `crate::sched`.
        crate::sched::with_yields_suppressed(|| {
            let off = self.claim(size, align, true)?;
            // Durable-allocate before the block can escape: the set bit
            // must hit media before any pointer to the block possibly
            // does.
            latency::wbarrier();
            Ok(off)
        })
    }

    /// Claims a free block for `size` bytes in its subtree's `taken`
    /// word; a `plain` claim also sets its bit (see [`crate::llalloc`]).
    fn claim(&self, size: usize, align: usize, plain: bool) -> Result<u64> {
        self.check_open()?;
        crate::metrics::incr(crate::metrics::Counter::RegionAllocs);
        assert!(size > 0, "zero-size allocation");
        assert!(
            align <= crate::alloc::MIN_ALIGN
                && crate::alloc::MIN_ALIGN.is_multiple_of(align.max(1)),
            "alignment beyond {} is not supported",
            crate::alloc::MIN_ALIGN
        );
        let ll = &self.inner.ll;
        let Some(class) = class_for(size) else {
            let mut hdr = self.lock_open()?;
            // SAFETY: the guard excludes other header access; `ll` belongs
            // to this region.
            return unsafe { ll.alloc_large(&mut hdr.alloc, size, plain) }
                .map_err(|_| self.oom(size));
        };
        loop {
            // Lock-free fast path: CAS a `taken` bit in the thread's
            // reserved subtree.
            if let Some(off) = ll.alloc(class, plain) {
                return Ok(off);
            }
            let mut hdr = self.lock_open()?;
            // SAFETY: as above.
            if unsafe { ll.grow(&mut hdr.alloc, class) }.is_ok() {
                // Another thread may drain the new subtree before we get a
                // block out of it; loop until an allocation lands or
                // growth itself fails.
                continue;
            }
            // The frontier is dry. The class's dry stamp is advisory, so
            // look at every subtree once more before giving up: a false
            // "dry" may cost a grow, never an out-of-memory.
            return ll.alloc_rescan(class, plain).ok_or_else(|| self.oom(size));
        }
    }

    fn oom(&self, requested: usize) -> NvError {
        NvError::OutOfMemory {
            region: self.inner.rid,
            requested,
        }
    }

    /// Allocates exactly the free block at offset `off`, when it starts a
    /// free block of the size `size` is served at: claimed, its bit set,
    /// flushed and fenced before return, as every allocation is.
    /// `NodeArena::scatter` uses it to hand out blocks in an order of its
    /// own. Returns whether the block is now the caller's.
    ///
    /// # Errors
    ///
    /// [`NvError::RegionClosed`] after close.
    pub fn alloc_at(&self, off: u64, size: usize) -> Result<bool> {
        self.check_open()?;
        let block = AllocHeader::rounded_size(size) as u64;
        let class = class_for(size).unwrap_or(LARGE);
        let ll = &self.inner.ll;
        // One uninterruptible scheduling step, like `alloc_off`.
        let claimed = crate::sched::with_yields_suppressed(|| {
            let claimed = ll.alloc_at(off, class, block);
            if claimed {
                latency::wbarrier();
            }
            claimed
        });
        if claimed {
            crate::metrics::incr(crate::metrics::Counter::RegionAllocs);
        }
        Ok(claimed)
    }

    /// Returns the `size`-byte block at `ptr` to the allocator: its bitmap
    /// bit is cleared with one atomic update, flushed and fenced before
    /// return. The bit is the one record of the block's liveness, so a
    /// free it cannot answer for changes nothing and is refused.
    ///
    /// # Errors
    ///
    /// [`NvError::NotAllocated`] when no allocated block of `size`'s class
    /// starts at `ptr`: a double free (the bit is already clear), an
    /// address inside a block or outside every span, or the size of
    /// another class. A salvaged session whose chain did not verify owns
    /// no span and refuses every free.
    ///
    /// # Safety
    ///
    /// No live references into the block may remain, and the block must
    /// be the caller's to free: a block freed and served again since the
    /// caller's own allocation is someone else's, and its bit is set.
    pub unsafe fn dealloc(&self, ptr: NonNull<u8>, size: usize) -> Result<()> {
        crate::metrics::incr(crate::metrics::Counter::RegionFrees);
        let off = (ptr.as_ptr() as usize).wrapping_sub(self.inner.base) as u64;
        let class = class_for(size).unwrap_or(LARGE);
        // One uninterruptible scheduling step, like `alloc_off`.
        if crate::sched::with_yields_suppressed(|| self.inner.ll.free_block(off, class)) {
            Ok(())
        } else {
            Err(NvError::NotAllocated { off })
        }
    }

    // -- held blocks: the allocator side of an undo-logged transaction -------

    /// Claims a free block of `size` bytes for an undo-logged transaction
    /// and returns its offset. The block is *held*: no allocation on any
    /// thread serves it, and its bitmap bit is untouched, so nothing is
    /// flushed or fenced. The caller logs an allocator entry for it
    /// ([`crate::undolog::BlockOp::Alloc`]) and sets the bit at commit
    /// with [`Region::persist_held`], once the entry is durable. A hold
    /// does not survive the session (see [`crate::llalloc`]).
    ///
    /// # Errors
    ///
    /// As [`Region::alloc`].
    pub fn alloc_held(&self, size: usize) -> Result<u64> {
        crate::sched::with_yields_suppressed(|| self.claim(size, crate::alloc::MIN_ALIGN, false))
    }

    /// Checks that an allocated `size`-byte block starts at `off`, for a
    /// transaction that frees it. Nothing is written: the block keeps its
    /// bit, so no allocation serves it before [`Region::end_hold`] after
    /// the commit.
    ///
    /// # Errors
    ///
    /// [`NvError::NotAllocated`] as [`Region::dealloc`].
    pub fn check_free(&self, off: u64, size: usize) -> Result<()> {
        self.check_open()?;
        let class = class_for(size).unwrap_or(LARGE);
        if self.inner.ll.is_allocated(off, class) {
            crate::metrics::incr(crate::metrics::Counter::RegionFrees);
            Ok(())
        } else {
            Err(NvError::NotAllocated { off })
        }
    }

    /// The commit-time bit change of the held block at `off`: set for an
    /// allocation, cleared for a free, tracked and flushed but not
    /// fenced — the commit fence orders it.
    ///
    /// # Safety
    ///
    /// `entry` must describe a block the caller's transaction holds, in
    /// an allocator entry that is already durable.
    pub unsafe fn persist_held(&self, off: u64, entry: BlockEntry) {
        crate::sched::with_yields_suppressed(|| {
            self.inner.ll.persist_held(off, entry.class, entry.op)
        });
    }

    /// Puts the bit of the block at `off` back the way its transaction
    /// found it: an allocated block's is cleared, a freed one's set. A
    /// changed bit is tracked and flushed for the rollback's fence. A
    /// block this session's transaction holds never had its bit changed,
    /// so nothing is written.
    ///
    /// # Safety
    ///
    /// `entry` must come from the undo log being rolled back — of this
    /// session's transaction, or of the interrupted one when the store
    /// attaches, before anything else allocates in the region.
    pub unsafe fn undo_held(&self, off: u64, entry: BlockEntry) {
        crate::sched::with_yields_suppressed(|| self.inner.ll.undo(off, entry.class, entry.op));
    }

    /// Ends the hold on a block a transaction allocated or freed, once
    /// the truncate that settles the transaction is durable, or whose
    /// allocation entry was never logged: a block whose bit is clear (a
    /// committed free, an aborted allocation) can be served again, one
    /// whose bit is set stays allocated.
    ///
    /// # Safety
    ///
    /// `entry` must name a block the caller's transaction held, and no
    /// valid log entry may name it any more: until the truncate is
    /// durable a crash replays the entry, over whatever allocation took
    /// the block in the meantime.
    pub unsafe fn end_hold(&self, off: u64, entry: BlockEntry) {
        crate::sched::with_yields_suppressed(|| self.inner.ll.end_hold(off, entry.class));
    }

    /// Converts an absolute address inside this region to its offset.
    ///
    /// # Errors
    ///
    /// [`NvError::AddressOutOfRange`] if `addr` is outside the region.
    pub fn offset_of(&self, addr: usize) -> Result<u64> {
        if !self.contains(addr) {
            return Err(NvError::AddressOutOfRange { addr });
        }
        Ok((addr - self.inner.base) as u64)
    }

    /// Converts a region offset to the absolute address in this session.
    ///
    /// # Panics
    ///
    /// Debug-asserts the offset is within the region.
    pub fn ptr_at(&self, off: u64) -> usize {
        debug_assert!((off as usize) < self.inner.len());
        self.inner.base + off as usize
    }

    /// Allocator statistics: the live set is the bitmap popcount, the
    /// allocator's one record, exact at any quiescent point. (Call counts
    /// are the process-wide `region_allocs`/`region_frees` metrics.)
    pub fn stats(&self) -> AllocStats {
        let (bump, end) = {
            let hdr = self.inner.guard(self.inner.alloc_lock.lock());
            (hdr.alloc.bump(), hdr.alloc.end())
        };
        let (live_allocs, live_bytes) = self.inner.ll.live();
        AllocStats {
            live_bytes,
            live_allocs,
            bump,
            end,
        }
    }

    /// Every allocated block as `(offset, block size)`: the live set the
    /// bitmaps record, exact at any quiescent point. Held blocks count by
    /// their bit: a transaction's allocation is not in it before commit,
    /// its free still is.
    pub fn live_blocks(&self) -> Vec<(u64, u64)> {
        self.inner.ll.live_blocks()
    }

    /// Per-class subtree occupancy of the bitmap allocator, the large
    /// blocks last (index [`LARGE`]).
    pub fn llalloc_occupancy(&self) -> [ClassOccupancy; LARGE + 1] {
        self.inner.ll.occupancy()
    }

    // -- durability ----------------------------------------------------------

    /// Flushes a file-backed region's bytes to its image file. No-op for
    /// anonymous regions.
    ///
    /// # Errors
    ///
    /// Propagates `msync` failures.
    pub fn sync(&self) -> Result<()> {
        self.check_open()?;
        {
            let _g = self.inner.alloc_lock.lock();
            if !self.inner.closed.load(Ordering::Acquire) {
                self.inner.write_meta_slot();
            }
        }
        if let Backing::File { shared: true, .. } = self.inner.backing {
            self.inner
                .space
                .sync_range(self.inner.base, self.inner.len())?;
        }
        // A full-image sync is a durability point: every line is now
        // persisted as far as the shadow tracker is concerned.
        shadow::checkpoint(self.inner.base);
        Ok(())
    }

    /// Cleanly closes the region: clears the dirty flag, flushes (if
    /// durable), unmaps, and releases the segment and registry entries.
    ///
    /// # Errors
    ///
    /// Propagates flush/unmap failures; the region is unregistered either
    /// way.
    pub fn close(self) -> Result<()> {
        self.inner.teardown(true)
    }

    /// Simulates a crash: the mapping is torn down *without* clearing the
    /// dirty flag or issuing a final flush. A subsequent [`Region::open_file`]
    /// will report [`Region::was_dirty`] so recovery can run.
    pub fn crash(self) {
        let _ = self.inner.teardown(false);
    }

    /// Path of the backing file, if file-backed.
    pub fn path(&self) -> Option<&Path> {
        match &self.inner.backing {
            Backing::File { path, .. } => Some(path),
            Backing::Anonymous => None,
        }
    }

    // -- fault injection -----------------------------------------------------

    /// Enables shadow persistence tracking for this region (see
    /// [`crate::shadow`]). The current memory contents are checkpointed as
    /// persisted; from here on, instrumented stores must be flushed and
    /// fenced to survive a fault-injected crash. Idempotent (re-enabling
    /// re-checkpoints).
    ///
    /// # Errors
    ///
    /// [`NvError::RegionClosed`] after close.
    pub fn enable_shadow(&self) -> Result<()> {
        self.check_open()?;
        shadow::register(self.inner.rid, self.inner.base, self.inner.len());
        Ok(())
    }

    /// The fault stamp left by the last injected crash, if this image
    /// carries one.
    pub fn fault_stamp(&self) -> Option<FaultStamp> {
        let stamp = self.lock_open().ok()?.fault;
        (stamp.magic == crate::shadow::FAULT_STAMP_MAGIC).then_some(stamp)
    }

    /// Simulates a crash *with persistence faults*: `policy` is applied
    /// to the mapped image in place (unflushed cache lines dropped or torn
    /// per the shadow tracker, or lines rotted; the image marked dirty and
    /// stamped) and the mapping is torn down as by [`Region::crash`]. The
    /// file then holds what [`shadow::capture_crash_image`] returns: what
    /// a power cut would have left on the device.
    ///
    /// # Errors
    ///
    /// [`NvError::BadImage`] unless the region is file-backed (shared),
    /// [`NvError::ShadowNotEnabled`] unless [`Region::enable_shadow`] was
    /// called.
    pub fn crash_with_faults(self, policy: FaultPolicy) -> Result<FaultReport> {
        if !matches!(self.inner.backing, Backing::File { shared: true, .. }) {
            return Err(NvError::BadImage(
                "crash_with_faults requires a shared file-backed region".to_string(),
            ));
        }
        let report = shadow::fault_in_place(self.inner.base, policy)?;
        self.crash();
        Ok(report)
    }

    // -- corruption robustness -----------------------------------------------

    /// Writes the current header snapshot (identity words, root
    /// directory, allocator state) into the inactive metadata slot and
    /// flips it active via its sequence number. Called automatically at
    /// every durability point ([`Region::sync`], close); exposed so
    /// checkpoint-style callers and fault-injection harnesses can force a
    /// flip.
    ///
    /// # Errors
    ///
    /// [`NvError::RegionClosed`] after close.
    pub fn update_meta_slots(&self) -> Result<()> {
        let _g = self.lock_open()?;
        self.inner.write_meta_slot();
        Ok(())
    }

    /// Runs the full corruption walk over this region's mapped bytes:
    /// primary header (magic/version/geometry), root-directory decode and
    /// bounds, allocator frontier and bitmap chain, both metadata slots' CRCs and
    /// sequence numbers, and — when a `pstore` store is present — every
    /// undo-log entry checksum. Purely diagnostic: nothing is modified.
    ///
    /// # Errors
    ///
    /// [`NvError::RegionClosed`] after close.
    pub fn verify(&self) -> Result<VerifyReport> {
        // The guard excludes header mutation during the walk.
        let _hdr = self.lock_open()?;
        // SAFETY: the lock keeps the committed image mapped; the walk only
        // reads it.
        let bytes = unsafe { self.inner.header().field::<u8>(0).slice(self.inner.len()) };
        Ok(verify::verify_bytes(bytes))
    }

    /// Opens a damaged image in salvage mode: the file is mapped
    /// copy-on-write (`MAP_PRIVATE`, the file itself is never written),
    /// the primary metadata is repaired from the newest valid slot where
    /// possible, unverifiable root entries are quarantined (dropped from
    /// the directory, listed in the report), and an allocator that does
    /// not verify — a rotted frontier, or a bitmap chain the open refuses
    /// — is frozen so further allocation fails cleanly instead of
    /// double-serving memory. The region reports [`Region::was_dirty`] so
    /// recovery layers run.
    ///
    /// # Errors
    ///
    /// [`NvError::BadImage`] when not even a slot-assisted read-only open
    /// is possible (boot block and both slots unusable, or the file is
    /// smaller than a region can be); [`NvError::InvalidRid`] if the
    /// salvaged rid is already open; plus I/O errors.
    pub fn open_file_salvage<P: AsRef<Path>>(path: P) -> Result<(Region, VerifyReport)> {
        let path = path.as_ref();
        let space = NvSpace::global();
        let layout = space.layout();
        // A read-only file is fine: the COW mapping never writes back.
        let file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => f,
            Err(_) => OpenOptions::new().read(true).open(path)?,
        };
        let flen = file.metadata()?.len();
        if flen < RegionHeader::min_image_len() {
            return Err(NvError::BadImage(format!(
                "file of {flen} bytes is too small to salvage (minimum {})",
                RegionHeader::min_image_len()
            )));
        }
        if flen as usize > layout.max_region_size() {
            return Err(NvError::BadImage(format!(
                "file of {flen} bytes exceeds the maximum region size {}",
                layout.max_region_size()
            )));
        }
        // The mapping length is the file length — the one geometry fact
        // that cannot lie — regardless of what the header claims. The
        // claimed capacity is equally untrusted: the salvage run is sized
        // from the file, so a salvaged session simply cannot grow.
        let size = flen as usize;
        let reserved = Reserved::acquire(space, size)?;
        // Mapped copy-on-write: repairs land in the private mapping only.
        let hdr = reserved.commit(size, Some((&file, false)))?;
        // SAFETY: `size` bytes committed and the guard's alone until `publish`.
        let (report, h) = unsafe {
            let report = verify::salvage_in_place(hdr.field::<u8>(0).slice(size))?;
            // Salvage made the header structurally valid.
            (report, hdr.as_mut())
        };
        let rid = h.rid;
        rid_in_range(space, rid)?;
        // A chain that verifies keeps serving; any bitmap finding gives
        // the session an empty, frozen allocator, which serves nothing and
        // so can double-serve nothing.
        let recovered = if report.llalloc_errors.is_empty() {
            reserved.open_allocator(size, &mut h.alloc).ok()
        } else {
            None
        };
        let ll = recovered.unwrap_or_else(|| LlState::frozen(reserved.base, next_instance()));
        let backing = Backing::File {
            file,
            path: path.to_path_buf(),
            shared: false,
        };
        let region = reserved.publish(rid, size, true, backing, ll)?;
        Ok((region, report))
    }
}

/// The region lock, and with it the one way to the mapped header.
struct HeaderGuard<'a> {
    hdr: NvRef<RegionHeader>,
    _lock: MutexGuard<'a, ()>,
}

impl Deref for HeaderGuard<'_> {
    type Target = RegionHeader;

    fn deref(&self) -> &RegionHeader {
        // SAFETY: the header stays mapped until teardown, which takes the
        // lock this guard holds; only lock holders write it.
        unsafe { self.hdr.as_ref() }
    }
}

impl DerefMut for HeaderGuard<'_> {
    fn deref_mut(&mut self) -> &mut RegionHeader {
        // SAFETY: as in `deref`; the borrow of `self` makes this the one
        // view of the header while it lasts.
        unsafe { self.hdr.as_mut() }
    }
}

impl Inner {
    /// The header at `base` (bound until teardown wrote its last slot).
    fn header(&self) -> NvRef<RegionHeader> {
        NvRef::new(self.base as *mut RegionHeader).expect("an open region's run is bound")
    }

    /// The header's guard, for the holder of the region lock.
    fn guard<'a>(&'a self, lock: MutexGuard<'a, ()>) -> HeaderGuard<'a> {
        HeaderGuard {
            hdr: self.header(),
            _lock: lock,
        }
    }

    /// Current committed size. `Acquire` pairs with the `Release` store
    /// in [`Region::grow`]: a thread that observes a grown size also
    /// observes the newly committed memory behind it.
    #[inline]
    fn len(&self) -> usize {
        self.size.load(Ordering::Acquire)
    }

    /// Composes the current header snapshot and writes it — with the next
    /// sequence number and its CRC-64 — into the *inactive* metadata
    /// slot, making that slot the active one. The caller must exclude
    /// concurrent header mutation (holds `alloc_lock`, or owns the region
    /// exclusively as in build/teardown). The slot bytes are tracked,
    /// flushed, and fenced, so a [`crate::shadow::FaultPlan`] can tear
    /// the flip itself.
    fn write_meta_slot(&self) {
        // SAFETY: the caller excludes header mutation as said above, and
        // the staging writes only the inactive slot.
        let bytes = unsafe { self.header().field::<u8>(0).slice(self.len()) };
        if let Some((slot_off, len)) = verify::stage_next_slot(bytes) {
            let addr = self.base + slot_off;
            latency::persist(addr, len);
            latency::wbarrier();
        }
    }

    fn teardown(&self, clean: bool) -> Result<()> {
        if self.closed.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let mut result = Ok(());
        self.ll.freeze();
        if clean {
            {
                // Serialize with in-flight locked operations before
                // declaring the image clean.
                let mut hdr = self.guard(self.alloc_lock.lock());
                // SAFETY: lock held, unique closer: quiescent.
                unsafe { self.ll.seal() };
                hdr.flags &= !FLAG_DIRTY;
                // Converge both slots onto the final snapshot: open-time
                // rot repair relies on a cleanly-closed image having two
                // agreeing slots, so a mismatch pinpoints primary decay.
                self.write_meta_slot();
                self.write_meta_slot();
            }
            if let Backing::File { shared: true, .. } = self.backing {
                result = self.space.sync_range(self.base, self.len());
            }
        }
        shadow::unregister_rid(self.rid);
        registry::unregister(self.rid);
        nvref::set_committed(self.base, None);
        self.space.unbind(self.rid, self.run);
        // Decommit the whole reserved run (the uncommitted tail is
        // already PROT_NONE; re-decommitting it is harmless and keeps the
        // teardown independent of growth history).
        let d = self.space.decommit_range(self.base, self.capacity);
        self.space.release_chunks(self.run);
        result.and(d)
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        let _ = self.teardown(true);
    }
}

fn rid_in_range(space: &NvSpace, rid: u32) -> Result<()> {
    if space.layout().rid_in_range(rid) {
        return Ok(());
    }
    Err(NvError::InvalidRid {
        rid,
        reason: "out of range for layout",
    })
}

fn next_instance() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llalloc::GRANULE;

    fn tmpdir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "nvmsim-region-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn create_alloc_write_read() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(128, 8).unwrap();
        unsafe {
            std::ptr::write_bytes(p.as_ptr(), 0x5A, 128);
            assert_eq!(*p.as_ptr().add(127), 0x5A);
        }
        assert!(r.contains(p.as_ptr() as usize));
        r.close().unwrap();
    }

    #[test]
    fn rid_is_discoverable_from_any_inner_address() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 8).unwrap();
        let space = NvSpace::global();
        assert_eq!(space.rid_of_addr(p.as_ptr() as usize), r.rid());
        assert_eq!(space.base_of_rid(r.rid()), r.base());
        r.close().unwrap();
    }

    #[test]
    fn roots_roundtrip_and_update() {
        let r = Region::create(1 << 20).unwrap();
        let a = r.alloc(64, 8).unwrap().as_ptr() as usize;
        let b = r.alloc(64, 8).unwrap().as_ptr() as usize;
        r.set_root("head", a).unwrap();
        assert_eq!(r.root("head"), Some(a));
        r.set_root("head", b).unwrap();
        assert_eq!(r.root("head"), Some(b));
        assert_eq!(r.root("tail"), None);
        assert_eq!(r.roots().unwrap(), vec!["head".to_string()]);
        r.close().unwrap();
    }

    #[test]
    fn a_root_outside_the_data_area_is_refused() {
        // The lookups read back only targets in the data area, so the
        // setters refuse any other address and keep the old entry.
        let r = Region::create(1 << 20).unwrap();
        let a = r.alloc(64, 8).unwrap().as_ptr() as usize;
        r.set_root_tagged("keep", a, 7).unwrap();
        let header = r.base() + 8;
        let slots = r.base() + RegionHeader::data_start() as usize - 1;
        let past = r.base() + r.size();
        let refused = |res: Result<()>| matches!(res, Err(NvError::AddressOutOfRange { .. }));
        for addr in [header, slots, past, 1 << 40, 0] {
            assert!(refused(r.set_root("bad", addr)), "{addr:#x}");
            assert!(refused(r.set_root_tagged("keep", addr, 9)), "{addr:#x}");
        }
        assert_eq!(r.roots().unwrap(), vec!["keep".to_string()]);
        assert_eq!(r.root_checked("keep", 7).unwrap(), a);
        let first = r.base() + RegionHeader::data_start() as usize;
        r.set_root("first", first).unwrap();
        assert_eq!(r.root("first"), Some(first));
        r.close().unwrap();
    }

    #[test]
    fn tagged_roots_validate_type() {
        let r = Region::create(1 << 20).unwrap();
        let a = r.alloc(64, 8).unwrap().as_ptr() as usize;
        r.set_root_tagged("list", a, 0x4c495354).unwrap();
        assert_eq!(r.root_tag("list"), Some(0x4c495354));
        assert_eq!(r.root_checked("list", 0x4c495354).unwrap(), a);
        assert!(matches!(
            r.root_checked("list", 0x54524545),
            Err(NvError::BadImage(_))
        ));
        assert!(matches!(
            r.root_checked("absent", 1),
            Err(NvError::RootNotFound(_))
        ));
        // Untagged roots report tag 0.
        r.set_root("plain", a).unwrap();
        assert_eq!(r.root_tag("plain"), Some(0));
        assert_eq!(r.root_tag("absent"), None);
        r.close().unwrap();
    }

    #[test]
    fn tagged_root_survives_reopen() {
        let path = tmpdir().join("tagged.nvr");
        {
            let r = Region::create_file(&path, 1 << 20).unwrap();
            let a = r.alloc(64, 8).unwrap().as_ptr() as usize;
            r.set_root_tagged("x", a, 77).unwrap();
            r.close().unwrap();
        }
        let r = Region::open_file(&path).unwrap();
        assert_eq!(r.root_tag("x"), Some(77));
        r.root_checked("x", 77).unwrap();
        r.close().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn root_directory_limits() {
        let r = Region::create(1 << 20).unwrap();
        let a = r.alloc(64, 8).unwrap().as_ptr() as usize;
        assert!(matches!(
            r.set_root(&"x".repeat(32), a),
            Err(NvError::RootNameTooLong(_))
        ));
        for i in 0..MAX_ROOTS {
            r.set_root(&format!("r{i}"), a).unwrap();
        }
        assert!(matches!(
            r.set_root("overflow", a),
            Err(NvError::RootDirectoryFull)
        ));
        r.close().unwrap();
    }

    #[test]
    fn file_region_persists_and_reopens_at_new_address() {
        let path = tmpdir().join("persist.nvr");
        let (rid, old_base, off);
        {
            let r = Region::create_file(&path, 1 << 20).unwrap();
            rid = r.rid();
            old_base = r.base();
            let p = r.alloc(64, 8).unwrap();
            unsafe { (p.as_ptr() as *mut u64).write(0xfeed_f00d) };
            off = r.offset_of(p.as_ptr() as usize).unwrap();
            r.set_root("value", p.as_ptr() as usize).unwrap();
            r.close().unwrap();
        }
        let r = Region::open_file(&path).unwrap();
        assert_eq!(r.rid(), rid);
        assert!(!r.was_dirty(), "clean close recorded");
        // With 255 free segments the odds of landing on the same base are
        // 1/255; retry once if it happens.
        if r.base() == old_base {
            let p2 = r.root("value").unwrap();
            assert_eq!(unsafe { *(p2 as *const u64) }, 0xfeed_f00d);
            r.close().unwrap();
            let r2 = Region::open_file(&path).unwrap();
            assert_eq!(r2.root_off("value").unwrap(), off);
            r2.close().unwrap();
        } else {
            assert_eq!(r.root_off("value").unwrap(), off);
            let p2 = r.root("value").unwrap();
            assert_eq!(unsafe { *(p2 as *const u64) }, 0xfeed_f00d);
            r.close().unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_leaves_dirty_flag() {
        let path = tmpdir().join("crash.nvr");
        {
            let r = Region::create_file(&path, 1 << 20).unwrap();
            r.sync().unwrap();
            r.crash();
        }
        let r = Region::open_file(&path).unwrap();
        assert!(r.was_dirty());
        r.close().unwrap();
        let r = Region::open_file(&path).unwrap();
        assert!(!r.was_dirty(), "clean close resets the flag");
        r.close().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn avoiding_reopen_keeps_clean_images_clean() {
        // Regression: a first placement that landed on `avoid` used to be
        // torn down as a crash, which left a cleanly closed image dirty.
        // Reseeding before every open makes the placement draw the start
        // it drew last time — the chunk just vacated — on every cycle.
        let path = tmpdir().join("avoid.nvr");
        let space = NvSpace::global();
        let mut r = Region::create_file(&path, 1 << 20).unwrap();
        for cycle in 0..200 {
            let prev = r.base();
            r.close().unwrap();
            space.reseed_placement(0xA701D);
            r = Region::open_file_avoiding(&path, prev).unwrap();
            assert_ne!(r.base(), prev, "cycle {cycle} landed on the old base");
            assert!(!r.was_dirty(), "cycle {cycle} dirtied a clean image");
        }
        let prev = r.base();
        r.crash();
        space.reseed_placement(0xA701D);
        let r = Region::open_file_avoiding(&path, prev).unwrap();
        assert_ne!(r.base(), prev);
        assert!(r.was_dirty(), "a crash image still opens dirty");
        r.close().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn double_open_same_rid_rejected() {
        let path = tmpdir().join("dup.nvr");
        let r = Region::create_file(&path, 1 << 20).unwrap();
        let err = Region::open_file(&path).unwrap_err();
        assert!(matches!(err, NvError::InvalidRid { .. }));
        r.close().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_garbage_image() {
        let path = tmpdir().join("garbage.nvr");
        std::fs::write(&path, vec![0u8; 4096]).unwrap();
        assert!(matches!(
            Region::open_file(&path),
            Err(NvError::BadImage(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn closed_region_rejects_operations() {
        let r = Region::create(1 << 20).unwrap();
        let r2 = r.clone();
        r.close().unwrap();
        assert!(matches!(r2.alloc(64, 8), Err(NvError::RegionClosed { .. })));
    }

    #[test]
    fn alloc_too_big_for_region_fails() {
        let r = Region::create(1 << 16).unwrap();
        assert!(matches!(
            r.alloc(1 << 17, 8),
            Err(NvError::OutOfMemory { .. })
        ));
        r.close().unwrap();
    }

    #[test]
    fn dealloc_recycles_memory() {
        let r = Region::create(1 << 20).unwrap();
        let p1 = r.alloc(256, 8).unwrap();
        unsafe { r.dealloc(p1, 256).unwrap() };
        let p2 = r.alloc(256, 8).unwrap();
        assert_eq!(p1, p2);
        r.close().unwrap();
    }

    #[test]
    fn a_free_the_bitmap_cannot_answer_for_is_refused() {
        let r = Region::create(1 << 20).unwrap();
        let small = r.alloc(56, 16).unwrap();
        let large = r.alloc(9000, 16).unwrap();
        let inside = NonNull::new(small.as_ptr().wrapping_add(16)).unwrap();
        let refused = |res: Result<()>| matches!(res, Err(NvError::NotAllocated { .. }));
        unsafe {
            assert!(refused(r.dealloc(small, 128)), "the size of another class");
            assert!(refused(r.dealloc(inside, 56)), "inside a block");
            assert!(
                refused(r.dealloc(large, 64)),
                "a large block as a small one"
            );
            r.dealloc(small, 56).unwrap();
            r.dealloc(large, 9000).unwrap();
            assert!(refused(r.dealloc(small, 56)), "double free");
            assert!(refused(r.dealloc(large, 9000)), "double free");
        }
        assert_eq!(r.stats().live_allocs, 0);
        r.close().unwrap();
    }

    #[test]
    fn closed_image_records_no_live_allocs() {
        let path = tmpdir().join("cleanclose.nvr");
        {
            let r = Region::create_file(&path, 1 << 20).unwrap();
            let ptrs: Vec<_> = [64, 5000]
                .iter()
                .cycle()
                .take(100)
                .map(|&size| (r.alloc(size, 8).unwrap(), size))
                .collect();
            for (p, size) in ptrs {
                unsafe { r.dealloc(p, size).unwrap() };
            }
            let s = r.stats();
            assert_eq!((s.live_allocs, s.live_bytes), (0, 0), "all freed");
            r.close().unwrap();
        }
        // The persisted image records no live blocks and validates
        // cleanly on reopen.
        let r = Region::open_file(&path).unwrap();
        assert!(!r.was_dirty());
        let s = r.stats();
        assert_eq!((s.live_allocs, s.live_bytes), (0, 0), "nothing stranded");
        assert!(r.verify().unwrap().healthy());
        r.close().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_size_without_room_for_the_allocator_is_refused() {
        let floor = RegionHeader::min_image_len() as usize;
        assert!(matches!(
            Region::create(floor - 1),
            Err(NvError::BadImage(_))
        ));
        // A refused file-backed create leaves a file already at the path
        // as it was.
        let path = tmpdir().join("refused.nvr");
        std::fs::write(&path, [7u8; 3 * 4096]).unwrap();
        assert!(matches!(
            Region::create_file(&path, floor - 1),
            Err(NvError::BadImage(_))
        ));
        assert_eq!(std::fs::read(&path).unwrap(), [7u8; 3 * 4096]);
        std::fs::remove_file(&path).ok();
        let r = Region::create(floor).unwrap();
        r.alloc_off(GRANULE as usize, 16).unwrap();
        r.close().unwrap();
    }
}
