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
//! Regions are created with a *capacity* (virtually reserved, defaulting to
//! the size) and can grow in place up to it via [`Region::grow`]: new chunks
//! of the already-acquired run are committed on demand, the embedded
//! allocator's frontier is extended, and the translation tables never
//! change — RIV values keep resolving across the growth.

use crate::alloc::{class_for, AllocHeader, AllocStats};
use crate::error::{NvError, Result};
use crate::latency;
use crate::llalloc::{ClassOccupancy, LlState, GRANULE, LARGE, LL_PAGE_SIZE};
use crate::mem::{align_up, page_size};
use crate::nvspace::{ChunkRun, NvSpace};
use crate::registry;
use crate::shadow::{self, FaultPolicy, FaultReport, FaultStamp};
use crate::undolog::BlockEntry;
use crate::verify::{self, VerifyReport};
use parking_lot::{Mutex, MutexGuard};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::mem::offset_of;
use std::path::{Path, PathBuf};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Magic number identifying a region image ("NVPIRGN1").
pub const REGION_MAGIC: u64 = u64::from_le_bytes(*b"NVPIRGN1");
/// Current on-media format version (v2 added the checksummed A/B
/// metadata slots between the header and the data area; v3 added the
/// reserved capacity for in-place growth over a chunk run; v4 dropped the
/// application tag and the allocator's call counters, which moves every
/// allocator word after them; v5 dropped the free lists and their live
/// counters, leaving the allocator `{bump, end, ll_dir}`).
pub const HEADER_VERSION: u32 = 5;
/// Maximum number of named roots per region.
pub const MAX_ROOTS: usize = 16;
/// Maximum root name length in bytes (NUL-padded storage).
pub const ROOT_NAME_CAP: usize = 31;
/// Number of checksummed metadata slots trailing the header (A/B pair).
pub const META_SLOT_COUNT: usize = 2;
/// Bytes reserved per metadata slot: the header snapshot plus a sequence
/// number and a CRC-64, padded for alignment.
pub const META_SLOT_SIZE: usize = 1024;

const FLAG_DIRTY: u64 = 1;

#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct RootEntry {
    pub(crate) name: [u8; ROOT_NAME_CAP + 1],
    pub(crate) offset: u64,
    pub(crate) type_tag: u64,
}

/// On-media region header. Lives at offset 0 of the mapped segment.
#[repr(C)]
#[derive(Debug)]
pub struct RegionHeader {
    pub(crate) magic: u64,
    pub(crate) version: u32,
    pub(crate) rid: u32,
    pub(crate) size: u64,
    pub(crate) flags: u64,
    /// Reserved (virtual) size in bytes: the region may [`Region::grow`]
    /// in place up to this without remapping. Always a whole number of
    /// chunks, and at least `size`.
    pub(crate) capacity: u64,
    pub(crate) roots: [RootEntry; MAX_ROOTS],
    pub(crate) alloc: AllocHeader,
    /// Record of the last injected crash (see [`crate::shadow`]); all
    /// zeroes until a fault-injected crash image stamps it.
    pub(crate) fault: FaultStamp,
}

/// Byte offsets of the on-media fields — the one table every reader that
/// works on image bytes rather than a mapped header takes them from (the
/// boot-block check, the corruption walk and salvage in
/// [`crate::verify`], offline inspection, the corruption tests).
impl RegionHeader {
    /// Offset of the magic word.
    pub const OFF_MAGIC: usize = offset_of!(RegionHeader, magic);
    /// Offset of the format version (`u32`).
    pub const OFF_VERSION: usize = offset_of!(RegionHeader, version);
    /// Offset of the region id (`u32`).
    pub const OFF_RID: usize = offset_of!(RegionHeader, rid);
    /// Offset of the size word.
    pub const OFF_SIZE: usize = offset_of!(RegionHeader, size);
    /// Offset of the flags word (bit 0 = dirty).
    pub const OFF_FLAGS: usize = offset_of!(RegionHeader, flags);
    /// Offset of the reserved-capacity word.
    pub const OFF_CAPACITY: usize = offset_of!(RegionHeader, capacity);
    /// Offset of the root directory; everything before it is the boot
    /// block.
    pub const OFF_ROOTS: usize = offset_of!(RegionHeader, roots);
    /// Bytes per root-directory entry.
    pub const ROOT_ENTRY_SIZE: usize = std::mem::size_of::<RootEntry>();
    /// Offset of the target offset within a root entry (the name field
    /// comes first).
    pub const ROOT_OFF_OFFSET: usize = offset_of!(RootEntry, offset);
    /// Offset of the type tag within a root entry.
    pub const ROOT_OFF_TAG: usize = offset_of!(RootEntry, type_tag);
    /// Offset of the embedded [`AllocHeader`] (which has its own table).
    pub const OFF_ALLOC: usize = offset_of!(RegionHeader, alloc);
    /// Offset of the [`FaultStamp`] (the header's last field).
    pub const OFF_FAULT: usize = offset_of!(RegionHeader, fault);
}

impl RegionHeader {
    /// Offset of the first A/B metadata slot (just past the header,
    /// cache-line aligned). Slot `i` lives at
    /// `meta_slots_off() + i * META_SLOT_SIZE`.
    pub fn meta_slots_off() -> u64 {
        align_up(std::mem::size_of::<RegionHeader>(), 64) as u64
    }

    /// Offset of the first allocatable byte in a region (past the header
    /// and the metadata slots).
    pub fn data_start() -> u64 {
        Self::meta_slots_off() + (META_SLOT_COUNT * META_SLOT_SIZE) as u64
    }

    /// Smallest file that can hold a region: the metadata, the first
    /// bitmap page of the allocator and one granule for it to serve.
    pub fn min_image_len() -> u64 {
        Self::data_start().next_multiple_of(GRANULE) + LL_PAGE_SIZE as u64 + GRANULE
    }

    /// Bytes of the header covered by a metadata-slot snapshot: magic
    /// through allocator state. The trailing [`FaultStamp`] is diagnostic
    /// only and deliberately excluded, so this equals
    /// [`RegionHeader::OFF_FAULT`].
    pub fn snapshot_len() -> usize {
        Self::OFF_FAULT
    }
}

// A slot must hold the snapshot plus its trailing {seq, crc} pair.
const _: () = assert!(RegionHeader::OFF_FAULT + 16 <= META_SLOT_SIZE);

/// A chunk run reserved for a region being created or opened, given back
/// (decommitted and released) on drop unless the open completes with
/// [`Reserved::keep`]. Error paths just return: the guard is dropped after
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

    /// The open succeeded: the run now belongs to the region.
    fn keep(self) -> ChunkRun {
        let run = self.run;
        std::mem::forget(self);
        run
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
        Self::create_with_capacity(size, size)
    }

    /// Creates an anonymous region of `size` bytes that can [`Region::grow`]
    /// in place up to `capacity` bytes: a chunk run covering `capacity` is
    /// reserved (virtual address space only), but just `size` bytes are
    /// committed.
    ///
    /// # Errors
    ///
    /// As [`Region::create`]; additionally if `capacity` exceeds the
    /// layout's maximum region size.
    pub fn create_with_capacity(size: usize, capacity: usize) -> Result<Region> {
        let space = NvSpace::global();
        let rid = auto_rid(space)?;
        Self::build(space, rid, size, capacity, None)
    }

    /// Creates an anonymous region with an explicit region ID.
    ///
    /// # Errors
    ///
    /// As [`Region::create`]; additionally [`NvError::InvalidRid`] if `rid`
    /// is out of range or already open.
    pub fn create_with_rid(rid: u32, size: usize) -> Result<Region> {
        Self::build(NvSpace::global(), rid, size, size, None)
    }

    /// Creates a durable, file-backed region of `size` bytes at `path`.
    /// The file is created (truncated if it exists) and sized immediately.
    ///
    /// # Errors
    ///
    /// As [`Region::create`], plus I/O errors creating the file.
    pub fn create_file<P: AsRef<Path>>(path: P, size: usize) -> Result<Region> {
        Self::create_file_with_capacity(path, size, size)
    }

    /// Creates a durable, file-backed region of `size` bytes growable in
    /// place up to `capacity` (see [`Region::create_with_capacity`]; the
    /// file holds only the committed `size` bytes and is extended as the
    /// region grows).
    ///
    /// # Errors
    ///
    /// As [`Region::create_file`].
    pub fn create_file_with_capacity<P: AsRef<Path>>(
        path: P,
        size: usize,
        capacity: usize,
    ) -> Result<Region> {
        let space = NvSpace::global();
        let rid = auto_rid(space)?;
        let backing = Backing::create(path.as_ref(), size)?;
        Self::build(space, rid, size, capacity, Some(backing))
    }

    /// Creates a durable, file-backed region with an explicit region ID.
    ///
    /// # Errors
    ///
    /// As [`Region::create_file`].
    pub fn create_file_with_rid<P: AsRef<Path>>(path: P, rid: u32, size: usize) -> Result<Region> {
        let backing = Backing::create(path.as_ref(), size)?;
        Self::build(NvSpace::global(), rid, size, size, Some(backing))
    }

    fn build(
        space: &'static NvSpace,
        rid: u32,
        size: usize,
        capacity: usize,
        backing: Option<Backing>,
    ) -> Result<Region> {
        let layout = space.layout();
        rid_in_range(space, rid)?;
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
        let reserved = Reserved::acquire(space, capacity)?;
        // The reserved ceiling is the whole run: capacity rounds up to
        // chunk granularity so the header never promises less than the
        // address space actually held.
        let (base, capacity) = (reserved.base, reserved.capacity);
        match &backing {
            Some(Backing::File { file, .. }) => {
                space.commit_range_file(base, size, file, 0, true)?
            }
            _ => space.commit_range_anon(base, size)?,
        }
        // SAFETY: the run is committed read/write for at least `size`
        // bytes; we own it exclusively until the handle is shared.
        unsafe {
            let hdr = &mut *(base as *mut RegionHeader);
            hdr.magic = REGION_MAGIC;
            hdr.version = HEADER_VERSION;
            hdr.rid = rid;
            hdr.size = size as u64;
            hdr.flags = FLAG_DIRTY;
            hdr.capacity = capacity as u64;
            hdr.roots = [RootEntry {
                name: [0; ROOT_NAME_CAP + 1],
                offset: 0,
                type_tag: 0,
            }; MAX_ROOTS];
            hdr.alloc.init(RegionHeader::data_start(), size as u64);
            hdr.fault = FaultStamp::default();
        }
        // Format the first bitmap page of the allocator before the slot-A
        // seed below, so even the seed snapshot carries the directory
        // offset (the size floor above leaves room for it). Volatile maps
        // are sized for `capacity` so the allocator can follow in-place
        // growth without reallocation.
        // SAFETY: the region is still owned exclusively; `hdr.alloc` was
        // just initialized for this base/size.
        let ll = unsafe {
            let hdr = &mut *(base as *mut RegionHeader);
            LlState::create(base, capacity, next_instance(), &mut hdr.alloc)?
        };
        space.bind(rid, reserved.run)?;
        let run = reserved.keep();
        let backing = backing.unwrap_or(Backing::Anonymous);
        let region = Self::assemble(space, rid, run, size, false, backing, ll);
        // Seed slot A so even a never-synced image has one valid
        // checksummed snapshot to recover from.
        region.inner.write_meta_slot();
        Ok(region)
    }

    /// The one place an [`Inner`] is put together — shared tail of
    /// create, open and salvage: the run is committed, bound and holds a
    /// valid header; this publishes it.
    fn assemble(
        space: &'static NvSpace,
        rid: u32,
        run: ChunkRun,
        size: usize,
        was_dirty: bool,
        backing: Backing,
        ll: LlState,
    ) -> Region {
        let base = space.chunk_base(run.start);
        let inner = Inner {
            space,
            rid,
            run,
            base,
            size: AtomicUsize::new(size),
            capacity: run.count as usize * space.layout().chunk_size(),
            was_dirty,
            backing,
            alloc_lock: Mutex::new(()),
            closed: AtomicBool::new(false),
            ll,
        };
        registry::register(rid, base);
        Region {
            inner: Arc::new(inner),
        }
    }

    /// Rebuilds the allocator of a reopened image whose header was just
    /// validated: one bounded pass that only reads the bitmap pages fills
    /// the granule map and the DRAM `taken` words (see [`LlState::open`]).
    ///
    /// # Errors
    ///
    /// The structural damage of the chain, in words; only
    /// [`Region::open_file_salvage`] opens such an image.
    ///
    /// # Safety
    ///
    /// `base` must be the image's mapping, read/write for `size` bytes of
    /// a `capacity`-byte run, and owned exclusively by the caller.
    unsafe fn recover_allocator(
        base: usize,
        capacity: usize,
        size: usize,
    ) -> std::result::Result<LlState, String> {
        let alloc = &mut (*(base as *mut RegionHeader)).alloc;
        LlState::open(base, capacity, size, next_instance(), alloc)
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
        let (base, capacity) = (reserved.base, reserved.capacity);
        space.commit_range_file(base, size, &file, 0, true)?;
        // Full corruption walk: primary metadata (roots, allocator free
        // lists) plus both checksummed slots. A damaged primary is
        // restored from the newest valid slot; if that still does not
        // verify, the open fails with a typed error.
        // SAFETY: the image is mapped read/write and `size` bytes long.
        let bytes = unsafe { std::slice::from_raw_parts_mut(base as *mut u8, size) };
        let report = verify::verify_bytes(bytes);
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
            usable = verify::verify_bytes(bytes).primary_ok();
        }
        if !usable {
            return Err(NvError::BadImage(format!(
                "unrecoverable image: {}",
                report.damage_summary()
            )));
        }
        // A slot restore rewrites the identity words; re-check them
        // against what was validated pre-map.
        // SAFETY: header is mapped read/write and still owned exclusively.
        let hdr_now = unsafe { &mut *(base as *mut RegionHeader) };
        if hdr_now.rid != rid || hdr_now.size != flen {
            return Err(NvError::BadImage(format!(
                "metadata slot disagrees with the boot block (rid {} vs {rid}, size {} vs {flen})",
                hdr_now.rid, hdr_now.size
            )));
        }
        if hdr_now.capacity < flen || hdr_now.capacity as usize > layout.max_region_size() {
            // The capacity word is still rot (a dirty image keeps its
            // primary even when a slot exists): pin it to the run that was
            // actually reserved from the sanitized pre-map value.
            hdr_now.capacity = capacity as u64;
        }
        if hdr_now.capacity as usize > capacity {
            // A restored slot must not promise more growth room than the
            // run acquired from the boot block actually reserves.
            return Err(NvError::BadImage(format!(
                "metadata slot claims capacity {} beyond the reserved run ({capacity})",
                hdr_now.capacity
            )));
        }
        // SAFETY: the image is mapped read/write, its header was just
        // validated, and it is owned exclusively until the handle is
        // shared.
        let ll = unsafe { Self::recover_allocator(base, capacity, size) }.map_err(|damage| {
            NvError::BadImage(format!(
                "bitmap allocator damaged: {damage}; open the image with \
                 Region::open_file_salvage"
            ))
        })?;
        space.bind(rid, reserved.run)?;
        let run = reserved.keep();
        // A primary that had to be rebuilt from a slot counts as dirty:
        // the snapshot may predate the damage, so recovery layers must
        // run regardless of what the restored flags claim.
        let was_dirty = hdr_now.flags & FLAG_DIRTY != 0 || !primary_was_ok;
        // Mark dirty for the duration of this writable session.
        // SAFETY: header is mapped read/write.
        unsafe {
            (*(base as *mut RegionHeader)).flags |= FLAG_DIRTY;
        }
        let backing = Backing::File {
            file,
            path: path.to_path_buf(),
            shared: true,
        };
        Ok(Self::assemble(
            space, rid, run, size, was_dirty, backing, ll,
        ))
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
        let _g = self.lock_open()?;
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
        // A tracked region's shadow state must cover the new bytes before
        // any instrumented store lands there.
        shadow::grow_region(base, new_size);
        // SAFETY: lock held; region mapped while the handle exists.
        let hdr = unsafe { self.header_mut() };
        // The size is durable before the allocator's end moves, so a crash
        // leaves the end short of the size (the open re-derives it), never
        // past it; a crash before this fence leaves the file longer than
        // the size (the open rolls that growth back).
        hdr.size = new_size as u64;
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
    /// the guard drops.
    fn lock_open(&self) -> Result<MutexGuard<'_, ()>> {
        let guard = self.inner.alloc_lock.lock();
        self.check_open()?;
        Ok(guard)
    }

    #[allow(clippy::mut_from_ref)]
    unsafe fn header_mut(&self) -> &mut RegionHeader {
        &mut *(self.inner.base as *mut RegionHeader)
    }

    fn header(&self) -> &RegionHeader {
        // SAFETY: the header is mapped for the lifetime of the handle.
        unsafe { &*(self.inner.base as *const RegionHeader) }
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
            let _g = self.lock_open()?;
            // SAFETY: lock held; region mapped while the handle exists.
            let hdr = unsafe { self.header_mut() };
            // SAFETY: as above; `ll` belongs to this region.
            return unsafe { ll.alloc_large(&mut hdr.alloc, size, plain) }
                .map_err(|_| self.oom(size));
        };
        loop {
            // Lock-free fast path: CAS a `taken` bit in the thread's
            // reserved subtree.
            if let Some(off) = ll.alloc(class, plain) {
                return Ok(off);
            }
            let _g = self.lock_open()?;
            // SAFETY: lock held; region mapped while the handle exists.
            let hdr = unsafe { self.header_mut() };
            // SAFETY: as above; `ll` belongs to this region.
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
            let _g = self.inner.alloc_lock.lock();
            let alloc = &self.header().alloc;
            (alloc.bump(), alloc.end())
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

    // -- roots ---------------------------------------------------------------

    /// Registers (or updates) a named root pointing at `addr`.
    ///
    /// # Errors
    ///
    /// [`NvError::RootNameTooLong`], [`NvError::RootDirectoryFull`], or
    /// [`NvError::AddressOutOfRange`] if `addr` is outside the region.
    pub fn set_root(&self, name: &str, addr: usize) -> Result<()> {
        let off = self.offset_of(addr)?;
        self.set_root_off(name, off)
    }

    /// Registers (or updates) a named root with an application-defined
    /// type tag, letting consumers validate what kind of structure the
    /// root leads before dereferencing it.
    ///
    /// # Errors
    ///
    /// As [`Region::set_root`].
    pub fn set_root_tagged(&self, name: &str, addr: usize, type_tag: u64) -> Result<()> {
        let off = self.offset_of(addr)?;
        self.set_root_off(name, off)?;
        let _g = self.inner.alloc_lock.lock();
        // SAFETY: header mapped; serialized by alloc_lock.
        let hdr = unsafe { self.header_mut() };
        for entry in hdr.roots.iter_mut() {
            if entry_matches(entry, name) {
                entry.type_tag = type_tag;
                break;
            }
        }
        Ok(())
    }

    /// The type tag recorded for a named root (0 if untagged).
    pub fn root_tag(&self, name: &str) -> Option<u64> {
        self.header()
            .roots
            .iter()
            .find(|e| entry_matches(e, name))
            .map(|e| e.type_tag)
    }

    /// Looks up a root and validates its type tag, returning the absolute
    /// address only when the tag matches.
    ///
    /// # Errors
    ///
    /// [`NvError::RootNotFound`] when absent; [`NvError::BadImage`] when
    /// the tag differs from `expected_tag`.
    pub fn root_checked(&self, name: &str, expected_tag: u64) -> Result<usize> {
        let addr = self
            .root(name)
            .ok_or_else(|| NvError::RootNotFound(name.to_string()))?;
        let tag = self.root_tag(name).unwrap_or(0);
        if tag != expected_tag {
            return Err(NvError::BadImage(format!(
                "root {name:?} has type tag {}, expected {}",
                tag_name(tag),
                tag_name(expected_tag)
            )));
        }
        Ok(addr)
    }

    /// Registers (or updates) a named root by offset.
    ///
    /// # Errors
    ///
    /// As [`Region::set_root`].
    pub fn set_root_off(&self, name: &str, off: u64) -> Result<()> {
        self.check_open()?;
        if name.len() > ROOT_NAME_CAP || name.is_empty() {
            return Err(NvError::RootNameTooLong(name.to_string()));
        }
        let _g = self.inner.alloc_lock.lock();
        // SAFETY: header is mapped; mutation serialized by alloc_lock.
        let hdr = unsafe { self.header_mut() };
        let mut free_slot = None;
        for (i, entry) in hdr.roots.iter().enumerate() {
            if entry.name[0] == 0 {
                free_slot.get_or_insert(i);
            } else {
                // A corrupt entry must not be silently shadowed or
                // clobbered: surface the damage instead.
                let existing =
                    decode_root_name(&entry.name).map_err(|why| NvError::BadImage(why.into()))?;
                if existing == name {
                    hdr.roots[i].offset = off;
                    return Ok(());
                }
            }
        }
        let slot = free_slot.ok_or(NvError::RootDirectoryFull)?;
        let entry = &mut hdr.roots[slot];
        entry.name = [0; ROOT_NAME_CAP + 1];
        entry.name[..name.len()].copy_from_slice(name.as_bytes());
        entry.offset = off;
        entry.type_tag = 0;
        Ok(())
    }

    /// Absolute address of the named root in this session, if present.
    pub fn root(&self, name: &str) -> Option<usize> {
        self.root_off(name)
            .map(|off| self.inner.base + off as usize)
    }

    /// Offset of the named root, if present. Corrupt directory entries
    /// (undecodable name, offset outside the data area) match nothing;
    /// use [`Region::verify`] to surface them.
    pub fn root_off(&self, name: &str) -> Option<u64> {
        let hdr = self.header();
        hdr.roots
            .iter()
            .find(|e| entry_matches(e, name))
            .map(|e| e.offset)
            .filter(|&off| off >= RegionHeader::data_start() && off < self.inner.len() as u64)
    }

    /// Removes a named root. Returns whether it existed.
    pub fn remove_root(&self, name: &str) -> bool {
        let _g = self.inner.alloc_lock.lock();
        // SAFETY: serialized mutation of the mapped header.
        let hdr = unsafe { self.header_mut() };
        for entry in hdr.roots.iter_mut() {
            if entry_matches(entry, name) {
                entry.name = [0; ROOT_NAME_CAP + 1];
                entry.offset = 0;
                return true;
            }
        }
        false
    }

    /// Names of all registered roots.
    ///
    /// # Errors
    ///
    /// [`NvError::BadImage`] if any used directory entry fails to decode
    /// (corrupt name bytes) — the directory can then only be read through
    /// [`Region::verify`] / salvage.
    pub fn roots(&self) -> Result<Vec<String>> {
        self.header()
            .roots
            .iter()
            .filter(|e| e.name[0] != 0)
            .map(|e| match decode_root_name(&e.name) {
                Ok(name) => Ok(name.to_string()),
                Err(why) => Err(NvError::BadImage(why.into())),
            })
            .collect()
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
        shadow::register(
            self.inner.rid,
            self.inner.base,
            self.inner.len(),
            RegionHeader::OFF_FAULT,
        );
        Ok(())
    }

    /// Whether shadow tracking is enabled for this region.
    pub fn shadow_enabled(&self) -> bool {
        shadow::is_tracked(self.inner.base)
    }

    /// The fault stamp left by the last injected crash, if this image
    /// carries one.
    pub fn fault_stamp(&self) -> Option<FaultStamp> {
        let stamp = self.header().fault;
        (stamp.magic == crate::shadow::FAULT_STAMP_MAGIC).then_some(stamp)
    }

    /// Simulates a crash *with persistence faults*: a crash image is
    /// captured under `policy` — unflushed cache lines dropped or torn per
    /// the shadow tracker — the mapping is torn down as by
    /// [`Region::crash`], and the faulted image replaces the backing file.
    /// A subsequent [`Region::open_file`] sees exactly what a power cut
    /// would have left on the device.
    ///
    /// # Errors
    ///
    /// [`NvError::BadImage`] unless the region is file-backed (shared) and
    /// [`Region::enable_shadow`] was called; I/O errors writing the image.
    pub fn crash_with_faults(self, policy: FaultPolicy) -> Result<FaultReport> {
        let path = match &self.inner.backing {
            Backing::File {
                path, shared: true, ..
            } => path.clone(),
            _ => {
                return Err(NvError::BadImage(
                    "crash_with_faults requires a shared file-backed region".to_string(),
                ))
            }
        };
        let (image, report) = shadow::capture_crash_image(self.inner.base, policy)?;
        self.crash();
        std::fs::write(&path, &image)?;
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
        self.check_open()?;
        let _g = self.inner.alloc_lock.lock();
        // SAFETY: mapped while the handle exists; lock excludes header
        // mutation during the walk.
        let bytes =
            unsafe { std::slice::from_raw_parts(self.inner.base as *const u8, self.inner.len()) };
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
        let (base, capacity) = (reserved.base, reserved.capacity);
        space.commit_range_file(base, size, &file, 0, false)?;
        // SAFETY: mapped copy-on-write and `size` bytes long; repairs land
        // in the private mapping only.
        let bytes = unsafe { std::slice::from_raw_parts_mut(base as *mut u8, size) };
        let report = verify::salvage_in_place(bytes)?;
        // SAFETY: header is mapped; salvage made it structurally valid.
        let rid = unsafe { (*(base as *const RegionHeader)).rid };
        rid_in_range(space, rid)?;
        space.bind(rid, reserved.run)?;
        let run = reserved.keep();
        // A chain that verifies keeps serving; any bitmap finding gives
        // the session an empty, frozen allocator, which serves nothing and
        // so can double-serve nothing.
        let recovered = if report.llalloc_errors.is_empty() {
            // SAFETY: mapped copy-on-write, made structurally valid by
            // the salvage above, and owned exclusively.
            unsafe { Self::recover_allocator(base, capacity, size) }.ok()
        } else {
            None
        };
        let ll = recovered.unwrap_or_else(|| LlState::frozen(base, next_instance()));
        let backing = Backing::File {
            file,
            path: path.to_path_buf(),
            shared: false,
        };
        let region = Self::assemble(space, rid, run, size, true, backing, ll);
        Ok((region, report))
    }
}

/// Decodes a root entry's name field with bounded, error-returning
/// parsing — the one decoder behind the mapped directory and the
/// byte-level walk in [`crate::verify`] alike. A name without a NUL
/// terminator inside the fixed-size field, or one that is not valid
/// UTF-8, is a corrupt directory entry: the error says which — never a
/// panic, never a silently-empty name.
pub(crate) fn decode_root_name(
    name: &[u8; ROOT_NAME_CAP + 1],
) -> std::result::Result<&str, &'static str> {
    let len = name
        .iter()
        .position(|&b| b == 0)
        .ok_or("root name is not NUL-terminated within its field")?;
    std::str::from_utf8(&name[..len]).map_err(|_| "root name is not valid UTF-8")
}

/// A root type tag as text: its eight bytes when all are printable
/// (`"PDSART02"`), else hex.
fn tag_name(tag: u64) -> String {
    let bytes = tag.to_le_bytes();
    if bytes.iter().all(u8::is_ascii_graphic) {
        format!("{:?}", String::from_utf8_lossy(&bytes))
    } else {
        format!("{tag:#x}")
    }
}

/// Whether a (used) entry decodes cleanly to `name`. Corrupt entries
/// match nothing.
fn entry_matches(entry: &RootEntry, name: &str) -> bool {
    entry.name[0] != 0 && decode_root_name(&entry.name) == Ok(name)
}

impl Inner {
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
        // SAFETY: the region is mapped read/write while `Inner` exists.
        let bytes = unsafe { std::slice::from_raw_parts_mut(self.base as *mut u8, self.len()) };
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
                let _g = self.alloc_lock.lock();
                // SAFETY: still mapped; we are the unique closer and the
                // lock excludes concurrent allocator access.
                let hdr = unsafe { &mut *(self.base as *mut RegionHeader) };
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

fn auto_rid(space: &NvSpace) -> Result<u32> {
    registry::alloc_rid(space.layout().max_rid(), |rid| space.is_bound(rid))
        .ok_or(NvError::NoFreeSegment)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(r.remove_root("head"));
        assert!(!r.remove_root("head"));
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
        let r = Region::create(floor).unwrap();
        r.alloc_off(GRANULE as usize, 16).unwrap();
        r.close().unwrap();
    }
}
