//! Transactions over the object store.
//!
//! A [`Tx`] provides undo-logged mutation of store memory with the
//! PMEM.IO discipline: snapshot a range *before* writing it
//! ([`Tx::add_range`] / [`Tx::set`], or a batch of [`Tx::log_range`]s
//! under one [`Tx::barrier`]), then [`Tx::commit`]. Dropping an
//! uncommitted transaction aborts it, restoring every snapshotted range —
//! and a crash mid-transaction is handled identically by recovery at the
//! next [`crate::ObjectStore::attach`].

use crate::error::Result;
use crate::store::ObjectStore;
use nvmsim::latency;
use nvmsim::shadow;
use parking_lot::MutexGuard;

/// An active transaction. See the module docs.
///
/// Obtained from [`ObjectStore::begin`]; at most one per store is active
/// at a time (the constructor holds the store's transaction lock).
#[derive(Debug)]
pub struct Tx<'s> {
    store: &'s ObjectStore,
    _guard: MutexGuard<'s, ()>,
    committed: bool,
}

impl<'s> Tx<'s> {
    pub(crate) fn new(store: &'s ObjectStore, guard: MutexGuard<'s, ()>) -> Tx<'s> {
        Tx {
            store,
            _guard: guard,
            committed: false,
        }
    }

    /// Snapshots `[addr, addr + len)` into the undo log *without* making
    /// the snapshot durable: the range must not be written until
    /// [`Tx::barrier`] has run. An operation that knows its write set
    /// logs all of it, pays one barrier, then writes.
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::LogFull`] or address-range errors.
    pub fn log_range(&mut self, addr: usize, len: usize) -> Result<()> {
        self.store.log_ref().append(addr, len)
    }

    /// Makes every range logged so far durable — one flush and one fence
    /// for the whole batch, nothing when no range was logged since the
    /// last one.
    pub fn barrier(&mut self) {
        self.store.log_ref().barrier();
    }

    /// Snapshots `[addr, addr + len)` into the undo log so the range may
    /// be freely mutated until commit ([`Tx::log_range`] +
    /// [`Tx::barrier`]: durable on return). Must be called *before* the
    /// first mutation of the range within this transaction.
    ///
    /// # Errors
    ///
    /// As [`Tx::log_range`].
    pub fn add_range(&mut self, addr: usize, len: usize) -> Result<()> {
        self.log_range(addr, len)?;
        self.barrier();
        Ok(())
    }

    /// Transactionally stores `value` at `ptr`: snapshots the old bytes,
    /// writes the new ones, and flushes them.
    ///
    /// # Errors
    ///
    /// As [`Tx::add_range`].
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for writes of `T` inside the store's region.
    pub unsafe fn set<T: Copy>(&mut self, ptr: *mut T, value: T) -> Result<()> {
        self.add_range(ptr as usize, std::mem::size_of::<T>())?;
        ptr.write(value);
        shadow::track_store(ptr as usize, std::mem::size_of::<T>());
        latency::clflush_range(ptr as usize, std::mem::size_of::<T>());
        Ok(())
    }

    /// Transactionally allocates a wrapped object: if the transaction
    /// aborts (or a crash interrupts it), the store's object list is
    /// rolled back to exactly its prior state, so the object never becomes
    /// visible.
    ///
    /// The two ranges the link-in mutates join the caller's batch (ranges
    /// logged just before this call share its one barrier), and the link
    /// itself is not fenced — the commit fence covers it.
    ///
    /// The allocator block itself is *not* reclaimed on rollback (it leaks
    /// until the region is reformatted) — the same trade-off early PMDK
    /// releases made; data consistency is preserved either way.
    ///
    /// # Errors
    ///
    /// Logging or allocation failures.
    pub fn alloc(&mut self, type_num: u32, size: usize) -> Result<std::ptr::NonNull<u8>> {
        use crate::object::ObjHeader;
        let store = self.store;
        let region = store.region();
        let meta_off = store.meta_off();
        // Snapshot the two meta words the link-in mutates (obj_head at
        // +8, obj_count at +16)...
        self.log_range(region.ptr_at(meta_off + 8), 16)?;
        // ...and the current head's back-link, which will point at the
        // new object.
        // SAFETY: meta is mapped; obj_head is a valid header offset or 0.
        let old_head = unsafe { *(region.ptr_at(meta_off + 8) as *const u64) };
        if old_head != 0 {
            self.log_range(region.ptr_at(old_head + ObjHeader::PREV_FIELD_OFFSET), 8)?;
        }
        let hdr_offset = region.alloc_off(ObjHeader::footprint(size), 16)?;
        self.barrier();
        Ok(store.link_object(hdr_offset, type_num, size, false))
    }

    /// Commits: all mutations since `begin` become permanent and the undo
    /// log is truncated.
    pub fn commit(mut self) {
        // The commit fence: every flushed store of the transaction is
        // durable before the log goes.
        latency::wbarrier();
        self.store.log_ref().truncate();
        self.committed = true;
        nvmsim::metrics::incr(nvmsim::metrics::Counter::TxCommits);
        // A committed transaction is a durability point: hand the fenced
        // lines to an attached replicator (no-op otherwise).
        nvmsim::repl::on_durability_point(self.store.region().base());
    }

    /// Aborts explicitly, rolling back every snapshotted range.
    /// (Equivalent to dropping the transaction.)
    pub fn abort(self) {
        // Drop impl performs the rollback.
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        if !self.committed {
            nvmsim::metrics::incr(nvmsim::metrics::Counter::TxAborts);
            self.store.log_ref().rollback();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::Region;

    fn setup() -> (Region, ObjectStore, *mut u64) {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let obj = store.alloc(1, 32).unwrap().as_ptr() as *mut u64;
        (region, store, obj)
    }

    #[test]
    fn committed_writes_stick() {
        let (region, store, obj) = setup();
        unsafe {
            obj.write(1);
            let mut tx = store.begin();
            tx.set(obj, 2).unwrap();
            tx.commit();
            assert_eq!(obj.read(), 2);
        }
        region.close().unwrap();
    }

    #[test]
    fn dropped_tx_rolls_back() {
        let (region, store, obj) = setup();
        unsafe {
            obj.write(1);
            {
                let mut tx = store.begin();
                tx.set(obj, 2).unwrap();
                assert_eq!(obj.read(), 2, "visible inside the tx");
            } // dropped uncommitted
            assert_eq!(obj.read(), 1, "rolled back");
        }
        region.close().unwrap();
    }

    #[test]
    fn explicit_abort_rolls_back_multiple_ranges() {
        let (region, store, obj) = setup();
        let obj2 = store.alloc(1, 32).unwrap().as_ptr() as *mut u64;
        unsafe {
            obj.write(10);
            obj2.write(20);
            let mut tx = store.begin();
            tx.set(obj, 11).unwrap();
            tx.set(obj2, 21).unwrap();
            tx.abort();
            assert_eq!(obj.read(), 10);
            assert_eq!(obj2.read(), 20);
        }
        region.close().unwrap();
    }

    #[test]
    fn add_range_covers_bulk_mutation() {
        let (region, store, _) = setup();
        let buf = store.alloc(2, 256).unwrap().as_ptr();
        unsafe {
            std::ptr::write_bytes(buf, 0xAA, 256);
            let mut tx = store.begin();
            tx.add_range(buf as usize, 256).unwrap();
            std::ptr::write_bytes(buf, 0xBB, 256);
            drop(tx);
            for i in 0..256 {
                assert_eq!(*buf.add(i), 0xAA);
            }
        }
        region.close().unwrap();
    }

    #[test]
    fn sequential_transactions_compose() {
        let (region, store, obj) = setup();
        unsafe {
            obj.write(0);
            for i in 1..=5u64 {
                let mut tx = store.begin();
                tx.set(obj, i).unwrap();
                tx.commit();
            }
            assert_eq!(obj.read(), 5);
        }
        region.close().unwrap();
    }

    #[test]
    fn crash_mid_tx_recovers_on_attach() {
        let dir = std::env::temp_dir().join(format!("pstore-crash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.nvr");
        {
            let region = Region::create_file(&path, 1 << 20).unwrap();
            let store = ObjectStore::format(&region).unwrap();
            let obj = store.alloc(1, 32).unwrap();
            let p = obj.as_ptr() as *mut u64;
            unsafe {
                p.write(100);
                region.sync().unwrap();
                let mut tx = store.begin();
                tx.set(p, 999).unwrap();
                // Crash with the tx open: leak it so Drop cannot roll back.
                std::mem::forget(tx);
            }
            drop(store);
            region.crash();
        }
        let region = Region::open_file(&path).unwrap();
        assert!(region.was_dirty());
        let store = ObjectStore::attach(&region).unwrap();
        assert!(store.recovered(), "attach must report the rollback");
        let objs = store.objects_of_type(1);
        assert_eq!(objs.len(), 1);
        let v = unsafe { *(objs[0].as_ptr() as *const u64) };
        assert_eq!(v, 100, "uncommitted write must be undone");
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_after_commit_keeps_new_value() {
        let dir = std::env::temp_dir().join(format!("pstore-crash2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c2.nvr");
        {
            let region = Region::create_file(&path, 1 << 20).unwrap();
            let store = ObjectStore::format(&region).unwrap();
            let p = store.alloc(1, 32).unwrap().as_ptr() as *mut u64;
            unsafe {
                p.write(100);
                let mut tx = store.begin();
                tx.set(p, 999).unwrap();
                tx.commit();
            }
            region.sync().unwrap();
            drop(store);
            region.crash(); // crash *after* commit
        }
        let region = Region::open_file(&path).unwrap();
        let store = ObjectStore::attach(&region).unwrap();
        assert!(!store.recovered(), "log was truncated at commit");
        let objs = store.objects_of_type(1);
        assert_eq!(unsafe { *(objs[0].as_ptr() as *const u64) }, 999);
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod tx_alloc_tests {
    use crate::store::ObjectStore;
    use nvmsim::Region;

    #[test]
    fn committed_tx_alloc_is_visible() {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let p = {
            let mut tx = store.begin();
            let p = tx.alloc(5, 32).unwrap();
            unsafe { tx.set(p.as_ptr() as *mut u64, 77).unwrap() };
            tx.commit();
            p
        };
        assert_eq!(store.object_count(), 1);
        assert_eq!(store.objects_of_type(5), vec![p]);
        assert_eq!(unsafe { *(p.as_ptr() as *const u64) }, 77);
        region.close().unwrap();
    }

    #[test]
    fn aborted_tx_alloc_never_becomes_visible() {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let existing = store.alloc(5, 32).unwrap();
        {
            let mut tx = store.begin();
            tx.alloc(5, 32).unwrap();
            tx.alloc(6, 16).unwrap();
            tx.abort();
        }
        assert_eq!(store.object_count(), 1, "aborted allocations unlinked");
        assert_eq!(store.objects_of_type(5), vec![existing]);
        assert!(store.objects_of_type(6).is_empty());
        // The list is still fully functional after the rollback.
        let another = store.alloc(5, 32).unwrap();
        assert_eq!(store.objects_of_type(5), vec![another, existing]);
        region.close().unwrap();
    }

    #[test]
    fn crashed_tx_alloc_recovers_to_prior_list() {
        let dir = std::env::temp_dir().join(format!("pstore-txalloc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.nvr");
        {
            let region = Region::create_file(&path, 1 << 20).unwrap();
            let store = ObjectStore::format(&region).unwrap();
            let p = store.alloc(9, 8).unwrap().as_ptr() as *mut u64;
            unsafe { p.write(1) };
            region.sync().unwrap();
            let mut tx = store.begin();
            tx.alloc(9, 8).unwrap();
            std::mem::forget(tx);
            drop(store);
            region.crash();
        }
        let region = Region::open_file(&path).unwrap();
        let store = ObjectStore::attach(&region).unwrap();
        assert!(store.recovered());
        assert_eq!(
            store.object_count(),
            1,
            "interrupted allocation rolled back"
        );
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_summarize_by_type() {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        store.alloc(1, 32).unwrap();
        store.alloc(1, 32).unwrap();
        store.alloc(2, 100).unwrap();
        let stats = store.stats();
        assert_eq!(stats.objects, 3);
        assert_eq!(stats.payload_bytes, 164);
        assert_eq!(stats.by_type, vec![(1, 2), (2, 1)]);
        region.close().unwrap();
    }
}
