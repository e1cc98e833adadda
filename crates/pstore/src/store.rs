//! The transactional object store.
//!
//! [`ObjectStore`] layers PMEM.IO-style facilities over one NVRegion:
//!
//! * **allocation** — an object is its region block and nothing else: the
//!   block's bitmap bit is the one record that it is live, its size class
//!   is the descriptor's, and the payload starts at the block (find
//!   objects again through named region roots);
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
use crate::tx::Tx;
use nvmsim::region::RegionHeader;
use nvmsim::undolog::{StoreMeta, STORE_MAGIC, STORE_ROOT};
use nvmsim::{latency, NvError, NvRef, Region};
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
        let meta =
            NvRef::new(region.ptr_at(meta_off) as *mut StoreMeta).expect("the region is open");
        // SAFETY: freshly allocated, exclusively owned block in the region.
        unsafe { meta.write(StoreMeta::new(log_off, log_cap)) };
        meta.persist(StoreMeta::SIZE as usize);
        latency::wbarrier();
        region.set_root(STORE_ROOT, region.ptr_at(meta_off))?;
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
    /// previous session did not close cleanly. Attach before anything
    /// else allocates in a reopened region: rolling back an interrupted
    /// [`Tx::free`] allocates its block again.
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
        let base = NvRef::new(region.base() as *mut u8).expect("the region is open");
        // SAFETY: a region's committed size is mapped from its base; the
        // slice is only read, while `region` keeps it open.
        let image: &[u8] = unsafe { base.slice(region.size()) };
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

    /// Region offsets of the store's own two blocks: its metadata block
    /// and its undo-log area.
    pub fn own_blocks(&self) -> [u64; 2] {
        let meta = self.region.root_off(STORE_ROOT).expect("a store is rooted");
        [meta, self.log.area_off()]
    }

    /// The store's undo log (exposed for tests and diagnostics).
    pub fn log(&self) -> &UndoLog {
        &self.log
    }

    /// Allocates an object of `size` bytes and returns its address: one
    /// region block, whose allocated bit is durable on return
    /// ([`Region::alloc`]). `_type_num` is PMEM.IO's type number; nothing
    /// records it. Free the object with [`Region::dealloc`] and the same
    /// size, or inside a transaction with [`Tx::free`].
    ///
    /// # Errors
    ///
    /// Allocation failures from the region allocator.
    pub fn alloc(&self, _type_num: u32, size: usize) -> Result<NonNull<u8>> {
        Ok(self.region.alloc(size, 16)?)
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
        // `obj_count` where the log geometry now lives; a v3 store's
        // objects start 16 bytes into their blocks; a v4 reader ends a log
        // at its first allocator entry. None may be misread as a v5
        // store.
        let magic = |v: &[u8; 8]| u64::from_le_bytes(*v);
        for block in [
            &[magic(b"PSTOREV1")][..],
            &[magic(b"PSTOREV2"), 0, 0, 1 << 16, 256][..],
            &[magic(b"PSTOREV3"), 1 << 16, 256][..],
            &[magic(b"PSTOREV4"), 1 << 16, 256][..],
        ] {
            let region = Region::create(1 << 20).unwrap();
            let meta_off = region.alloc_off(40, 16).unwrap();
            put_words(&region, meta_off, block);
            region
                .set_root(STORE_ROOT, region.ptr_at(meta_off))
                .unwrap();
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
        region.set_root(STORE_ROOT, region.ptr_at(end - 8)).unwrap();
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
        unsafe { region.dealloc(a, 32).unwrap() };
        assert_eq!(live(&region), 3);
        assert_ne!(a, b);
        // A double free is a clear bit, refused without touching it.
        assert!(matches!(
            unsafe { region.dealloc(a, 32) },
            Err(NvError::NotAllocated { .. })
        ));
        assert_eq!(live(&region), 3);
        // The block is recycled for an equal-size object.
        let c = s.alloc(1, 32).unwrap();
        assert_eq!(c, a);
        region.close().unwrap();
    }

    #[test]
    fn paper_footprint_for_32_byte_payload() {
        // An object is its block: a bare 32-byte payload fills a 32-byte
        // block, and the hashset/BST node that carries one (56 bytes) a
        // 64-byte block, where PMEM.IO's item is 128 bytes.
        let region = Region::create(1 << 20).unwrap();
        let s = ObjectStore::format(&region).unwrap();
        for (size, block) in [(32, 32), (56, 64)] {
            let before = region.stats().live_bytes;
            let p = s.alloc(1, size).unwrap();
            assert_eq!(region.stats().live_bytes - before, block);
            unsafe { region.dealloc(p, size).unwrap() };
        }
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
        assert_eq!(live(&region), 3);
        // The object is still its block: freeing it clears its bit.
        unsafe {
            region
                .dealloc(NonNull::new(p as *mut u8).unwrap(), 32)
                .unwrap()
        };
        assert_eq!(live(&region), 2);
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
                            let victim = NonNull::new(victim as *mut u8).unwrap();
                            unsafe { s.region().dealloc(victim, 24).unwrap() };
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
            unsafe {
                region
                    .dealloc(NonNull::new(addr as *mut u8).unwrap(), 24)
                    .unwrap()
            };
        }
        assert_eq!(live(&region), base);
        region.close().unwrap();
    }
}
