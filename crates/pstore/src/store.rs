//! The transactional object store.
//!
//! [`ObjectStore`] layers PMEM.IO-style facilities over one NVRegion:
//!
//! * **wrapped allocation** — every object carries a 16-byte
//!   [`crate::object::ObjHeader`] with its type number and size; which
//!   blocks are live is the region allocator's record alone (find objects
//!   again through named region roots);
//! * **transactions** — undo-logged mutations with commit/abort
//!   ([`crate::Tx`]);
//! * **recovery** — attaching to a region that was not cleanly closed
//!   rolls back the interrupted transaction automatically.
//!
//! The store's metadata block lives under the region root
//! [`STORE_ROOT`] in the format [`nvmsim::undolog`] owns; a region
//! formatted by this module remains an ordinary region (other roots are
//! untouched).

use crate::error::{Result, StoreError};
use crate::log::{RecoveryStats, UndoLog};
use crate::object::{header_off, ObjHeader, OBJ_HEADER_SIZE};
use crate::tx::Tx;
use nvmsim::region::RegionHeader;
use nvmsim::undolog::{StoreMeta, STORE_MAGIC, STORE_ROOT};
use nvmsim::{latency, shadow, NvError, Region};
use parking_lot::Mutex;
use std::ptr::NonNull;
use std::sync::Arc;

/// Default undo-log capacity when formatting.
pub const DEFAULT_LOG_CAPACITY: u64 = 256 * 1024;

/// A transactional object store over one region. Cheap to clone.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    region: Region,
    log: UndoLog,
    tx_lock: Arc<Mutex<()>>,
    /// How the attach-time rollback went (all-zero when no recovery ran).
    recovery: RecoveryStats,
}

impl ObjectStore {
    /// Formats a store in `region` with the default log capacity.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyFormatted`] if the region has a store;
    /// allocation errors otherwise.
    pub fn format(region: &Region) -> Result<ObjectStore> {
        Self::format_with_log(region, DEFAULT_LOG_CAPACITY)
    }

    /// Formats a store with an explicit undo-log capacity in bytes.
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::format`].
    pub fn format_with_log(region: &Region, log_cap: u64) -> Result<ObjectStore> {
        if region.root_off(STORE_ROOT).is_some() {
            return Err(StoreError::AlreadyFormatted);
        }
        let meta_off = region.alloc_off(StoreMeta::SIZE as usize, 16)?;
        let log_off = region.alloc_off(log_cap as usize, 16)?;
        let meta = region.ptr_at(meta_off);
        // SAFETY: freshly allocated, exclusively owned block in the region.
        unsafe { (meta as *mut StoreMeta).write(StoreMeta::new(log_off, log_cap)) };
        shadow::track_store(meta, StoreMeta::SIZE as usize);
        latency::clflush_range(meta, StoreMeta::SIZE as usize);
        latency::wbarrier();
        region.set_root_off(STORE_ROOT, meta_off)?;
        let log = UndoLog::new(region.clone(), log_off, log_cap);
        log.format();
        Ok(ObjectStore {
            region: region.clone(),
            log,
            tx_lock: Arc::new(Mutex::new(())),
            recovery: RecoveryStats::default(),
        })
    }

    /// Attaches to the store in `region`, running crash recovery if the
    /// previous session did not close cleanly.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFormatted`] if the region has no store of this
    /// format; [`StoreError::Nv`] with [`NvError::BadImage`] if its
    /// metadata block or the log area it names does not lie inside the
    /// region — nothing is read through such a block.
    pub fn attach(region: &Region) -> Result<ObjectStore> {
        let meta_off = region
            .root_off(STORE_ROOT)
            .ok_or(StoreError::NotFormatted)?;
        // SAFETY: a region's committed size is mapped readable from its
        // base; the slice lives only for the decode.
        let image =
            unsafe { std::slice::from_raw_parts(region.base() as *const u8, region.size()) };
        let data_start = RegionHeader::data_start();
        let bad = |why: String| StoreError::Nv(NvError::BadImage(why));
        let meta = StoreMeta::decode(image, meta_off, data_start)
            .ok_or_else(|| bad(format!("store block at {meta_off:#x} runs past the region")))?;
        if meta.magic != STORE_MAGIC {
            return Err(StoreError::NotFormatted);
        }
        if !meta.log_in_bounds(data_start, image.len() as u64) {
            return Err(bad(format!(
                "undo log area {:#x}+{:#x} is not inside the data area",
                meta.log_off, meta.log_cap
            )));
        }
        let log = UndoLog::new(region.clone(), meta.log_off, meta.log_cap);
        // An interrupted transaction left valid entries: restore the
        // pre-transaction image.
        let recovery = log.recover();
        Ok(ObjectStore {
            region: region.clone(),
            log,
            tx_lock: Arc::new(Mutex::new(())),
            recovery,
        })
    }

    /// Whether [`ObjectStore::attach`] rolled back an interrupted
    /// transaction.
    pub fn recovered(&self) -> bool {
        self.recovery.applied > 0
    }

    /// How the attach-time rollback went; all-zero when no recovery ran.
    /// Only `applied` is ever set: the undo log cannot tell a damaged
    /// entry from the torn tail of a crash (see [`crate::log`]).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// The underlying region.
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The store's undo log (exposed for tests and diagnostics).
    pub fn log(&self) -> &UndoLog {
        &self.log
    }

    /// Allocates a wrapped object of `size` payload bytes with the given
    /// type number; its header is durable on return. Returns the payload
    /// address.
    ///
    /// # Errors
    ///
    /// Allocation failures from the region allocator.
    pub fn alloc(&self, type_num: u32, size: usize) -> Result<NonNull<u8>> {
        let payload = self.new_object(type_num, size)?;
        latency::wbarrier();
        Ok(payload)
    }

    /// [`ObjectStore::alloc`] into exactly the free block at region offset
    /// `off` (see [`Region::alloc_at`]). `None` when that block is not a
    /// free block of this object's footprint.
    ///
    /// # Errors
    ///
    /// [`NvError::RegionClosed`] after the region closed.
    pub fn alloc_at(&self, off: u64, type_num: u32, size: usize) -> Result<Option<NonNull<u8>>> {
        if !self.region.alloc_at(off, ObjHeader::footprint(size))? {
            return Ok(None);
        }
        let payload = self.init_object(off, type_num, size);
        latency::wbarrier();
        Ok(Some(payload))
    }

    /// Allocates a block and writes, tracks and flushes its header, not
    /// fenced: [`ObjectStore::alloc`] fences, or a commit fence covers it.
    pub(crate) fn new_object(&self, type_num: u32, size: usize) -> Result<NonNull<u8>> {
        let off = self.region.alloc_off(ObjHeader::footprint(size), 16)?;
        Ok(self.init_object(off, type_num, size))
    }

    /// Writes, tracks and flushes the header of the object whose block,
    /// just allocated, starts at `off`; returns its payload address.
    fn init_object(&self, off: u64, type_num: u32, size: usize) -> NonNull<u8> {
        let hdr = self.region.ptr_at(off);
        // SAFETY: freshly allocated, exclusively owned block in the region.
        unsafe { (*(hdr as *mut ObjHeader)).init(type_num, size as u64) };
        shadow::track_store(hdr, OBJ_HEADER_SIZE);
        latency::clflush_range(hdr, OBJ_HEADER_SIZE);
        // SAFETY: nonzero address inside the region.
        unsafe { NonNull::new_unchecked((hdr + OBJ_HEADER_SIZE) as *mut u8) }
    }

    /// Frees a wrapped object by its payload address.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotAnObject`] if `payload` was not allocated (live)
    /// by this store.
    ///
    /// # Safety
    ///
    /// No live references into the object may remain, and no other
    /// thread may free it concurrently.
    pub unsafe fn free(&self, payload: NonNull<u8>) -> Result<()> {
        let pay_off = self
            .region
            .offset_of(payload.as_ptr() as usize)
            .map_err(StoreError::Nv)?;
        let not_an_object = StoreError::NotAnObject {
            addr: payload.as_ptr() as usize,
        };
        if pay_off < OBJ_HEADER_SIZE as u64 {
            return Err(not_an_object);
        }
        let hdr = self.region.ptr_at(header_off(pay_off)) as *mut ObjHeader;
        if !(*hdr).is_live() {
            return Err(not_an_object);
        }
        let size = (*hdr).size as usize;
        (*hdr).clear();
        shadow::track_store(hdr as usize, OBJ_HEADER_SIZE);
        latency::clflush_range(hdr as usize, OBJ_HEADER_SIZE);
        latency::wbarrier();
        self.region.dealloc(
            NonNull::new_unchecked(hdr as *mut u8),
            ObjHeader::footprint(size),
        );
        Ok(())
    }

    /// Begins a transaction. Only one transaction may be active per store
    /// at a time; this call blocks until the previous one finishes.
    pub fn begin(&self) -> Tx<'_> {
        let guard = self.tx_lock.lock();
        nvmsim::metrics::incr(nvmsim::metrics::Counter::TxBegins);
        Tx::new(self, guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Live allocations in `region` (the store's own block and log are
    /// two of them).
    fn live(region: &Region) -> u64 {
        region.stats().live_allocs
    }

    #[test]
    fn format_then_attach() {
        let region = Region::create(1 << 20).unwrap();
        let s = ObjectStore::format(&region).unwrap();
        assert_eq!(live(&region), 2, "metadata block and log area");
        drop(s);
        let s = ObjectStore::attach(&region).unwrap();
        assert!(!s.recovered());
        region.close().unwrap();
    }

    #[test]
    fn double_format_rejected() {
        let region = Region::create(1 << 20).unwrap();
        ObjectStore::format(&region).unwrap();
        assert!(matches!(
            ObjectStore::format(&region),
            Err(StoreError::AlreadyFormatted)
        ));
        region.close().unwrap();
    }

    #[test]
    fn attach_unformatted_rejected() {
        let region = Region::create(1 << 20).unwrap();
        assert!(matches!(
            ObjectStore::attach(&region),
            Err(StoreError::NotFormatted)
        ));
        region.close().unwrap();
    }

    /// Overwrites the words of the store block from byte `at` on.
    fn put_words(region: &Region, at: u64, words: &[u64]) {
        for (i, &w) in words.iter().enumerate() {
            // SAFETY: test-owned block inside the region.
            unsafe { (region.ptr_at(at + 8 * i as u64) as *mut u64).write(w) };
        }
    }

    #[test]
    fn v1_image_reads_as_not_formatted() {
        // A v1 store kept a persistent `used` word where the generation
        // now lives; a v2 block held the object-list words `obj_head` and
        // `obj_count` where the log geometry now lives. Neither may be
        // misread as a v3 store.
        let v1 = u64::from_le_bytes(*b"PSTOREV1");
        let v2 = u64::from_le_bytes(*b"PSTOREV2");
        for block in [&[v1][..], &[v2, 0, 0, 1 << 16, 256][..]] {
            let region = Region::create(1 << 20).unwrap();
            let meta_off = region.alloc_off(40, 16).unwrap();
            put_words(&region, meta_off, block);
            region.set_root_off(STORE_ROOT, meta_off).unwrap();
            assert!(matches!(
                ObjectStore::attach(&region),
                Err(StoreError::NotFormatted)
            ));
            region.close().unwrap();
        }
    }

    #[test]
    fn attach_refuses_a_store_block_that_leaves_the_region() {
        // Either shape killed the process at the parent: the log slice was
        // built over unmapped memory, or the block was read past the end.
        let region = Region::create(1 << 20).unwrap();
        ObjectStore::format(&region).unwrap();
        let meta_off = region.root_off(STORE_ROOT).unwrap();
        let end = region.size() as u64;
        put_words(&region, meta_off + 8, &[end - 8, 65536]);
        let err = ObjectStore::attach(&region).unwrap_err();
        assert!(
            matches!(err, StoreError::Nv(NvError::BadImage(_))),
            "log out of bounds: {err}"
        );
        put_words(&region, end - 8, &[STORE_MAGIC]);
        region.set_root_off(STORE_ROOT, end - 8).unwrap();
        let err = ObjectStore::attach(&region).unwrap_err();
        assert!(
            matches!(err, StoreError::Nv(NvError::BadImage(_))),
            "block out of bounds: {err}"
        );
        region.close().unwrap();
    }

    #[test]
    fn free_recycles_and_rejects_double_free() {
        let region = Region::create(1 << 20).unwrap();
        let s = ObjectStore::format(&region).unwrap();
        let a = s.alloc(1, 32).unwrap();
        let b = s.alloc(1, 32).unwrap();
        unsafe { s.free(a).unwrap() };
        assert_eq!(live(&region), 3);
        assert_ne!(a, b);
        // Double free is rejected (header no longer live).
        assert!(matches!(
            unsafe { s.free(a) },
            Err(StoreError::NotAnObject { .. })
        ));
        // The block is recycled for an equal-size object.
        let c = s.alloc(1, 32).unwrap();
        assert_eq!(c, a);
        region.close().unwrap();
    }

    #[test]
    fn objects_survive_reopen() {
        let dir = std::env::temp_dir().join(format!("pstore-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.nvr");
        {
            let region = Region::create_file(&path, 1 << 20).unwrap();
            let s = ObjectStore::format(&region).unwrap();
            let p = s.alloc(9, 32).unwrap();
            unsafe { (p.as_ptr() as *mut u64).write(0x1234) };
            region.set_root("obj", p.as_ptr() as usize).unwrap();
            region.close().unwrap();
        }
        let region = Region::open_file(&path).unwrap();
        ObjectStore::attach(&region).unwrap();
        let p = region.root("obj").unwrap();
        assert_eq!(unsafe { *(p as *const u64) }, 0x1234);
        let hdr = unsafe { &*((p - OBJ_HEADER_SIZE) as *const ObjHeader) };
        assert!(hdr.is_live());
        assert_eq!((hdr.type_num, hdr.size), (9, 32));
        assert_eq!(live(&region), 3);
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_alloc_free() {
        // Nothing serializes allocation above the lock-free region
        // allocator any more: churn from several threads, then check
        // every survivor is a distinct block with its payload intact and
        // the allocator counts exactly the survivors.
        let region = Region::create(8 << 20).unwrap();
        let s = ObjectStore::format(&region).unwrap();
        let base = live(&region);
        let threads = 4;
        let per_thread = 200usize;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    // `NonNull` is not `Send`; survivors cross back as
                    // raw addresses.
                    let mut live: Vec<usize> = Vec::new();
                    for i in 0..per_thread {
                        let p = s.alloc(t as u32, 24).unwrap();
                        unsafe { (p.as_ptr() as *mut u64).write((t as u64) << 32 | i as u64) };
                        live.push(p.as_ptr() as usize);
                        if i % 3 == 2 {
                            let victim = live.swap_remove(live.len() / 2);
                            unsafe { s.free(NonNull::new(victim as *mut u8).unwrap()).unwrap() };
                        }
                    }
                    live
                })
            })
            .collect();
        let survivors: Vec<Vec<usize>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut all: Vec<usize> = survivors.concat();
        assert_eq!(live(&region) - base, all.len() as u64);
        for (t, mine) in survivors.iter().enumerate() {
            for &addr in mine {
                assert_eq!(unsafe { *(addr as *const u64) } >> 32, t as u64);
            }
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len() as u64,
            live(&region) - base,
            "a block served twice"
        );
        for addr in all {
            unsafe { s.free(NonNull::new(addr as *mut u8).unwrap()).unwrap() };
        }
        assert_eq!(live(&region), base);
        region.close().unwrap();
    }
}
