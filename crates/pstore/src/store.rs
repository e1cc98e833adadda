//! The transactional object store.
//!
//! [`ObjectStore`] layers PMEM.IO-style facilities over one NVRegion:
//!
//! * **wrapped allocation** — every object carries an
//!   [`crate::object::ObjHeader`] with type info and the links
//!   of a store-wide object list (so objects are enumerable after reopen);
//! * **transactions** — undo-logged mutations with commit/abort
//!   ([`crate::Tx`]);
//! * **recovery** — attaching to a region that was not cleanly closed
//!   rolls back the interrupted transaction automatically.
//!
//! The store's metadata lives under the region root `"pstore.meta"`; a
//! region formatted by this module remains an ordinary region (other roots
//! are untouched).

use crate::error::{Result, StoreError};
use crate::log::{RecoveryStats, UndoLog};
use crate::object::{header_off, payload_off, ObjHeader, OBJ_HEADER_SIZE};
use crate::tx::Tx;
use nvmsim::undolog::STORE_MAGIC;
use nvmsim::{latency, shadow, Region};
use parking_lot::Mutex;
use std::ptr::NonNull;
use std::sync::Arc;

const META_ROOT: &str = "pstore.meta";

/// Default undo-log capacity when formatting.
pub const DEFAULT_LOG_CAPACITY: u64 = 256 * 1024;

/// Layout shared with `nvmsim::undolog::scan_image` (magic at 0, log
/// geometry at 24 and 32).
#[repr(C)]
struct StoreMeta {
    magic: u64,
    obj_head: u64,
    obj_count: u64,
    log_off: u64,
    log_cap: u64,
}

/// A transactional object store over one region. Cheap to clone.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    region: Region,
    meta_off: u64,
    log: UndoLog,
    tx_lock: Arc<Mutex<()>>,
    /// Serializes object-list link/unlink. The region allocator below is
    /// lock-free, so two `alloc`s can otherwise race on `obj_head`; the
    /// block allocation itself stays outside this lock.
    list_lock: Arc<Mutex<()>>,
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
        if region.root_off(META_ROOT).is_some() {
            return Err(StoreError::AlreadyFormatted);
        }
        let meta_off = region.alloc_off(std::mem::size_of::<StoreMeta>(), 16)?;
        let log_off = region.alloc_off(log_cap as usize, 16)?;
        // SAFETY: freshly allocated, exclusively owned range in the region.
        unsafe {
            let meta = region.ptr_at(meta_off) as *mut StoreMeta;
            (*meta).magic = STORE_MAGIC;
            (*meta).obj_head = 0;
            (*meta).obj_count = 0;
            (*meta).log_off = log_off;
            (*meta).log_cap = log_cap;
        }
        shadow::track_store(region.ptr_at(meta_off), std::mem::size_of::<StoreMeta>());
        latency::clflush_range(region.ptr_at(meta_off), std::mem::size_of::<StoreMeta>());
        latency::wbarrier();
        region.set_root_off(META_ROOT, meta_off)?;
        let log = UndoLog::new(region.clone(), log_off, log_cap);
        log.format();
        Ok(ObjectStore {
            region: region.clone(),
            meta_off,
            log,
            tx_lock: Arc::new(Mutex::new(())),
            list_lock: Arc::new(Mutex::new(())),
            recovery: RecoveryStats::default(),
        })
    }

    /// Attaches to the store in `region`, running crash recovery if the
    /// previous session did not close cleanly.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFormatted`] if the region has no (valid) store.
    pub fn attach(region: &Region) -> Result<ObjectStore> {
        let meta_off = region.root_off(META_ROOT).ok_or(StoreError::NotFormatted)?;
        // SAFETY: root offsets point into the mapped region; magic is
        // validated before any other field is trusted.
        let (log_off, log_cap) = unsafe {
            let meta = region.ptr_at(meta_off) as *const StoreMeta;
            if (*meta).magic != STORE_MAGIC {
                return Err(StoreError::NotFormatted);
            }
            ((*meta).log_off, (*meta).log_cap)
        };
        let log = UndoLog::new(region.clone(), log_off, log_cap);
        // An interrupted transaction left valid entries: restore the
        // pre-transaction image.
        let recovery = log.recover();
        Ok(ObjectStore {
            region: region.clone(),
            meta_off,
            log,
            tx_lock: Arc::new(Mutex::new(())),
            list_lock: Arc::new(Mutex::new(())),
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

    fn meta(&self) -> *mut StoreMeta {
        self.region.ptr_at(self.meta_off) as *mut StoreMeta
    }

    /// Allocates a wrapped object of `size` payload bytes with the given
    /// type number, linking it into the store's object list. Returns the
    /// payload address.
    ///
    /// # Errors
    ///
    /// Allocation failures from the region allocator.
    pub fn alloc(&self, type_num: u32, size: usize) -> Result<NonNull<u8>> {
        let hdr_offset = self.region.alloc_off(ObjHeader::footprint(size), 16)?;
        // The links must persist with the header: a crash that keeps the
        // header but loses the links (or vice versa) would corrupt the
        // object list outside any transaction.
        Ok(self.link_object(hdr_offset, type_num, size, true))
    }

    /// Initializes the object header in the fresh block at `hdr_offset`,
    /// links it at the head of the object list and flushes every line it
    /// wrote. With `fence` the link is durable on return; without, the
    /// caller is a transaction that undo-logged the list-head words and
    /// the old head's back-link, and its commit fence covers the flushes.
    pub(crate) fn link_object(
        &self,
        hdr_offset: u64,
        type_num: u32,
        size: usize,
        fence: bool,
    ) -> NonNull<u8> {
        let _list = self.list_lock.lock();
        // SAFETY: freshly allocated block inside the region.
        unsafe {
            let hdr = self.region.ptr_at(hdr_offset) as *mut ObjHeader;
            (*hdr).init(type_num, size as u64);
            let meta = self.meta();
            let old_head = (*meta).obj_head;
            (*hdr).next = old_head;
            if old_head != 0 {
                let prev = self.region.ptr_at(old_head + ObjHeader::PREV_FIELD_OFFSET);
                (*(self.region.ptr_at(old_head) as *mut ObjHeader)).prev = hdr_offset;
                shadow::track_store(prev, 8);
                latency::clflush_range(prev, 8);
            }
            (*meta).obj_head = hdr_offset;
            (*meta).obj_count += 1;
            shadow::track_store(hdr as usize, OBJ_HEADER_SIZE);
            latency::clflush_range(hdr as usize, OBJ_HEADER_SIZE);
            let head_words = self.region.ptr_at(self.meta_off + 8);
            shadow::track_store(head_words, 16);
            latency::clflush_range(head_words, 16);
            if fence {
                latency::wbarrier();
            }
        }
        let payload = self.region.ptr_at(payload_off(hdr_offset)) as *mut u8;
        // SAFETY: nonzero offset inside the region.
        unsafe { NonNull::new_unchecked(payload) }
    }

    /// Frees a wrapped object by its payload address, unlinking it from
    /// the object list.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotAnObject`] if `payload` was not allocated (live)
    /// by this store.
    ///
    /// # Safety
    ///
    /// No live references into the object may remain.
    pub unsafe fn free(&self, payload: NonNull<u8>) -> Result<()> {
        let pay_off = self
            .region
            .offset_of(payload.as_ptr() as usize)
            .map_err(StoreError::Nv)?;
        if pay_off < OBJ_HEADER_SIZE as u64 {
            return Err(StoreError::NotAnObject {
                addr: payload.as_ptr() as usize,
            });
        }
        let hdr_offset = header_off(pay_off);
        let hdr = self.region.ptr_at(hdr_offset) as *mut ObjHeader;
        let _list = self.list_lock.lock();
        if !(*hdr).is_live() {
            return Err(StoreError::NotAnObject {
                addr: payload.as_ptr() as usize,
            });
        }
        let size = (*hdr).size as usize;
        let meta = self.meta();
        let (prev, next) = ((*hdr).prev, (*hdr).next);
        if prev != 0 {
            (*(self.region.ptr_at(prev) as *mut ObjHeader)).next = next;
            shadow::track_store(self.region.ptr_at(prev), OBJ_HEADER_SIZE);
            latency::clflush_range(self.region.ptr_at(prev), OBJ_HEADER_SIZE);
        } else {
            (*meta).obj_head = next;
        }
        if next != 0 {
            (*(self.region.ptr_at(next) as *mut ObjHeader)).prev = prev;
            shadow::track_store(self.region.ptr_at(next), OBJ_HEADER_SIZE);
            latency::clflush_range(self.region.ptr_at(next), OBJ_HEADER_SIZE);
        }
        (*meta).obj_count -= 1;
        (*hdr).clear();
        shadow::track_store(hdr as usize, OBJ_HEADER_SIZE);
        latency::clflush_range(hdr as usize, OBJ_HEADER_SIZE);
        let head_words = self.region.ptr_at(self.meta_off + 8);
        shadow::track_store(head_words, 16);
        latency::clflush_range(head_words, 16);
        latency::wbarrier();
        let block = NonNull::new_unchecked(hdr as *mut u8);
        self.region.dealloc(block, ObjHeader::footprint(size));
        Ok(())
    }

    /// Number of live objects in the store.
    pub fn object_count(&self) -> u64 {
        // SAFETY: meta is mapped; count maintained by alloc/free.
        unsafe { (*self.meta()).obj_count }
    }

    /// Payload addresses of all live objects with the given type number
    /// (most recently allocated first).
    pub fn objects_of_type(&self, type_num: u32) -> Vec<NonNull<u8>> {
        let mut out = Vec::new();
        // SAFETY: list links are region offsets maintained by alloc/free.
        unsafe {
            let mut cur = (*self.meta()).obj_head;
            while cur != 0 {
                let hdr = self.region.ptr_at(cur) as *const ObjHeader;
                if (*hdr).type_num == type_num {
                    out.push(NonNull::new_unchecked(
                        self.region.ptr_at(payload_off(cur)) as *mut u8
                    ));
                }
                cur = (*hdr).next;
            }
        }
        out
    }

    /// Begins a transaction. Only one transaction may be active per store
    /// at a time; this call blocks until the previous one finishes.
    pub fn begin(&self) -> Tx<'_> {
        let guard = self.tx_lock.lock();
        nvmsim::metrics::incr(nvmsim::metrics::Counter::TxBegins);
        Tx::new(self, guard)
    }

    pub(crate) fn log_ref(&self) -> &UndoLog {
        &self.log
    }

    /// Offset of the store metadata within the region (crate-internal:
    /// used by transactional allocation to snapshot the list-head words).
    pub(crate) fn meta_off(&self) -> u64 {
        self.meta_off
    }

    /// Aggregate statistics: total objects, payload bytes, and per-type
    /// object counts (walks the object list).
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        // SAFETY: list links are region offsets maintained by alloc/free.
        unsafe {
            let mut cur = (*self.meta()).obj_head;
            while cur != 0 {
                let hdr = self.region.ptr_at(cur) as *const ObjHeader;
                stats.objects += 1;
                stats.payload_bytes += (*hdr).size;
                let type_num = (*hdr).type_num;
                match stats.by_type.iter_mut().find(|e| e.0 == type_num) {
                    Some(e) => e.1 += 1,
                    None => stats.by_type.push((type_num, 1)),
                }
                cur = (*hdr).next;
            }
        }
        stats.by_type.sort_unstable();
        stats
    }
}

/// Aggregate store statistics (see [`ObjectStore::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of live objects.
    pub objects: u64,
    /// Sum of payload sizes (headers excluded).
    pub payload_bytes: u64,
    /// `(type_num, count)` pairs, sorted by type.
    pub by_type: Vec<(u32, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_then_attach() {
        let region = Region::create(1 << 20).unwrap();
        let s = ObjectStore::format(&region).unwrap();
        assert_eq!(s.object_count(), 0);
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

    #[test]
    fn v1_image_reads_as_not_formatted() {
        // A v1 store kept a persistent `used` word where the generation
        // now lives; its dirty log must not be misread as a v2 one.
        let region = Region::create(1 << 20).unwrap();
        let s = ObjectStore::format(&region).unwrap();
        unsafe { (*s.meta()).magic = u64::from_le_bytes(*b"PSTOREV1") };
        drop(s);
        assert!(matches!(
            ObjectStore::attach(&region),
            Err(StoreError::NotFormatted)
        ));
        region.close().unwrap();
    }

    #[test]
    fn alloc_links_objects_by_type() {
        let region = Region::create(1 << 20).unwrap();
        let s = ObjectStore::format(&region).unwrap();
        let a = s.alloc(1, 32).unwrap();
        let _b = s.alloc(2, 32).unwrap();
        let c = s.alloc(1, 32).unwrap();
        assert_eq!(s.object_count(), 3);
        let ones = s.objects_of_type(1);
        assert_eq!(ones, vec![c, a], "newest first");
        assert_eq!(s.objects_of_type(3).len(), 0);
        region.close().unwrap();
    }

    #[test]
    fn free_unlinks_and_recycles() {
        let region = Region::create(1 << 20).unwrap();
        let s = ObjectStore::format(&region).unwrap();
        let a = s.alloc(1, 32).unwrap();
        let b = s.alloc(1, 32).unwrap();
        unsafe { s.free(a).unwrap() };
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.objects_of_type(1), vec![b]);
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
    fn free_middle_of_list_keeps_links_consistent() {
        let region = Region::create(1 << 20).unwrap();
        let s = ObjectStore::format(&region).unwrap();
        let a = s.alloc(1, 16).unwrap();
        let b = s.alloc(1, 16).unwrap();
        let c = s.alloc(1, 16).unwrap();
        unsafe { s.free(b).unwrap() };
        assert_eq!(s.objects_of_type(1), vec![c, a]);
        unsafe { s.free(c).unwrap() };
        assert_eq!(s.objects_of_type(1), vec![a]);
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
            region.close().unwrap();
        }
        let region = Region::open_file(&path).unwrap();
        let s = ObjectStore::attach(&region).unwrap();
        let objs = s.objects_of_type(9);
        assert_eq!(objs.len(), 1);
        assert_eq!(unsafe { *(objs[0].as_ptr() as *const u64) }, 0x1234);
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_alloc_free_keeps_list_consistent() {
        // The lock-free region allocator lets threads allocate blocks in
        // parallel; the object-list link-in must still serialize. Churn
        // the list from several threads and audit it afterwards.
        let region = Region::create(8 << 20).unwrap();
        assert!(region.lockfree_enabled());
        let s = ObjectStore::format(&region).unwrap();
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
        let want: usize = survivors.iter().map(Vec::len).sum();
        assert_eq!(s.object_count(), want as u64);
        // Every survivor is reachable from the list under its own type,
        // with its payload intact — no link was lost to a racing link-in.
        for (t, mine) in survivors.iter().enumerate() {
            let listed = s.objects_of_type(t as u32);
            assert_eq!(listed.len(), mine.len());
            for &addr in mine {
                assert!(listed.contains(&NonNull::new(addr as *mut u8).unwrap()));
                assert_eq!(unsafe { *(addr as *const u64) } >> 32, t as u64);
            }
        }
        for mine in survivors {
            for addr in mine {
                unsafe { s.free(NonNull::new(addr as *mut u8).unwrap()).unwrap() };
            }
        }
        assert_eq!(s.object_count(), 0);
        region.close().unwrap();
    }
}
