//! Transactions over the object store.
//!
//! A [`Tx`] provides undo-logged mutation of store memory with the
//! PMEM.IO discipline: snapshot a range *before* writing it
//! ([`Tx::add_range`] / [`Tx::set`], or a batch of [`Tx::log_range`]s
//! under one [`Tx::barrier`]), then [`Tx::commit`]. Dropping an
//! uncommitted transaction aborts it, restoring every snapshotted range —
//! and a crash mid-transaction is handled identically by recovery at the
//! next [`crate::ObjectStore::attach`].
//!
//! Block ownership is part of the transaction: [`Tx::alloc`] and
//! [`Tx::free`] each log an allocator entry, the block's bitmap bit
//! changes at commit, and rollback gives an allocated block back and
//! keeps a freed one. A crash at any persistence point neither leaks a
//! block nor serves one twice.

use crate::error::Result;
use crate::store::ObjectStore;
use nvmsim::latency;
use nvmsim::undolog::{BlockEntry, BlockOp};
use parking_lot::MutexGuard;
use std::ptr::NonNull;

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
        self.store.log().append(addr, len)
    }

    /// Makes every range logged so far durable — one flush and one fence
    /// for the whole batch, nothing when no range was logged since the
    /// last one.
    pub fn barrier(&mut self) {
        self.store.log().barrier();
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
        latency::persist(ptr as usize, std::mem::size_of::<T>());
        Ok(())
    }

    /// Transactionally allocates an object of `size` bytes for the caller
    /// to fill and publish inside this transaction: one region block, as
    /// [`ObjectStore::alloc`]. It flushes and fences nothing: the block is
    /// held (no allocation on any thread serves it) and an allocator entry
    /// naming it joins the current batch, so the next [`Tx::barrier`]
    /// makes it durable with the ranges. The block's bit is set at
    /// commit. An abort, or a crash before the commit point, gives the
    /// block back; `_type_num` is PMEM.IO's type number, which nothing
    /// records.
    ///
    /// # Errors
    ///
    /// Allocation failures; [`crate::StoreError::LogFull`], with the block
    /// given back.
    pub fn alloc(&mut self, _type_num: u32, size: usize) -> Result<NonNull<u8>> {
        let region = self.store.region();
        let off = region.alloc_held(size)?;
        let entry = BlockEntry::for_size(BlockOp::Alloc, size);
        if let Err(e) = self.store.log().append_block(off, entry) {
            // SAFETY: this call holds the block, and logged nothing.
            unsafe { region.end_hold(off, entry) };
            return Err(e);
        }
        Ok(NonNull::new(region.ptr_at(off) as *mut u8).expect("a block is never at offset 0"))
    }

    /// Transactionally frees the `size`-byte object at `ptr`: an
    /// allocator entry naming it joins the current batch, like
    /// [`Tx::log_range`], so free it before the [`Tx::barrier`] that
    /// covers the unlinking writes and the free rides that fence. The
    /// block stays allocated until commit and is served again only once
    /// the commit point is durable; an abort or a crash keeps it.
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::Nv`] with `AddressOutOfRange` when `ptr` is
    /// not in the store's region (the error [`Tx::log_range`] gives), or
    /// `NotAllocated` when no allocated block of `size`'s class starts at
    /// `ptr` (a block this transaction allocated is not allocated until
    /// it commits) or this transaction frees it already;
    /// [`crate::StoreError::LogFull`].
    ///
    /// # Safety
    ///
    /// The object must be the caller's to free, and unreachable once the
    /// transaction commits.
    pub unsafe fn free(&mut self, ptr: NonNull<u8>, size: usize) -> Result<()> {
        let region = self.store.region();
        let off = region.offset_of(ptr.as_ptr() as usize)?;
        region.check_free(off, size)?;
        let log = self.store.log();
        if log.frees(off) {
            return Err(nvmsim::NvError::NotAllocated { off }.into());
        }
        log.append_block(off, BlockEntry::for_size(BlockOp::Free, size))
    }

    /// Commits: all mutations since `begin` become permanent, the blocks
    /// it allocated and freed change hands, and the undo log is truncated
    /// ([`crate::UndoLog::commit`]).
    pub fn commit(mut self) {
        self.store.log().commit();
        self.committed = true;
        nvmsim::metrics::incr(nvmsim::metrics::Counter::TxCommits);
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
            self.store.log().rollback();
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

    /// A fresh file region whose store holds one 32-byte object holding
    /// 100, published as the root `"obj"`.
    fn file_store(path: &std::path::Path) -> (Region, ObjectStore, *mut u64) {
        let region = Region::create_file(path, 1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let p = store.alloc(1, 32).unwrap().as_ptr() as *mut u64;
        // SAFETY: fresh 32-byte object.
        unsafe { p.write(100) };
        region.set_root("obj", p as usize).unwrap();
        (region, store, p)
    }

    fn root_word(region: &Region) -> u64 {
        // SAFETY: the root names the object `file_store` allocated.
        unsafe { *(region.root("obj").unwrap() as *const u64) }
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
            let (region, store, p) = file_store(&path);
            unsafe {
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
        assert_eq!(root_word(&region), 100, "uncommitted write must be undone");
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_after_commit_keeps_new_value() {
        let dir = std::env::temp_dir().join(format!("pstore-crash2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c2.nvr");
        {
            let (region, store, p) = file_store(&path);
            unsafe {
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
        assert_eq!(root_word(&region), 999);
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod tx_alloc_tests {
    use crate::store::ObjectStore;
    use nvmsim::{NvError, Region};
    use std::ptr::NonNull;

    #[test]
    fn committed_tx_alloc_is_visible() {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let before = region.stats().live_allocs;
        let p = {
            let mut tx = store.begin();
            let p = tx.alloc(5, 32).unwrap();
            unsafe { tx.set(p.as_ptr() as *mut u64, 77).unwrap() };
            tx.commit();
            p
        };
        assert_eq!(region.stats().live_allocs, before + 1);
        assert_eq!(unsafe { *(p.as_ptr() as *const u64) }, 77);
        region.close().unwrap();
    }

    #[test]
    fn aborted_tx_alloc_is_given_back() {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        // The one place a fresh object could become reachable from.
        let slot = store.alloc(5, 8).unwrap().as_ptr() as *mut u64;
        unsafe { slot.write(0) };
        let before = region.stats().live_allocs;
        let (a, b) = {
            let mut tx = store.begin();
            let a = tx.alloc(5, 32).unwrap();
            let b = tx.alloc(6, 16).unwrap();
            unsafe { tx.set(slot, a.as_ptr() as u64).unwrap() };
            assert_eq!(region.stats().live_allocs, before, "no bit before commit");
            tx.abort();
            (a, b)
        };
        assert_eq!(unsafe { slot.read() }, 0, "the publish was rolled back");
        assert_eq!(region.stats().live_allocs, before, "both blocks given back");
        // Both are free to be served again.
        let off = |p: NonNull<u8>| region.offset_of(p.as_ptr() as usize).unwrap();
        assert!(region.alloc_at(off(a), 32).unwrap());
        assert!(region.alloc_at(off(b), 16).unwrap());
        assert_eq!(region.stats().live_allocs, before + 2);
        region.close().unwrap();
    }

    #[test]
    fn committed_tx_free_is_served_again_only_after_commit() {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let obj = store.alloc(5, 32).unwrap();
        let off = region.offset_of(obj.as_ptr() as usize).unwrap();
        let before = region.stats().live_allocs;
        let mut tx = store.begin();
        unsafe { tx.free(obj, 32).unwrap() };
        assert!(
            matches!(
                unsafe { tx.free(obj, 32) },
                Err(crate::StoreError::Nv(NvError::NotAllocated { .. }))
            ),
            "freed twice in one transaction"
        );
        assert_eq!(region.stats().live_allocs, before, "allocated until commit");
        assert!(
            !region.alloc_at(off, 32).unwrap(),
            "not served before commit"
        );
        let others: Vec<_> = (0..100).map(|_| store.alloc(5, 32).unwrap()).collect();
        assert!(!others.contains(&obj), "not served before commit");
        tx.commit();
        assert_eq!(region.stats().live_allocs, before + 99, "freed at commit");
        assert!(region.alloc_at(off, 32).unwrap(), "served after commit");
        region.close().unwrap();
    }

    #[test]
    fn aborted_tx_free_keeps_the_block() {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let obj = store.alloc(5, 32).unwrap();
        unsafe { (obj.as_ptr() as *mut u64).write(42) };
        let before = region.stats().live_allocs;
        {
            let mut tx = store.begin();
            unsafe { tx.free(obj, 32).unwrap() };
            tx.abort();
        }
        assert_eq!(region.stats().live_allocs, before, "still allocated");
        assert_eq!(unsafe { *(obj.as_ptr() as *const u64) }, 42);
        // The hold is gone: a later transaction frees it for good.
        let mut tx = store.begin();
        unsafe { tx.free(obj, 32).unwrap() };
        tx.commit();
        assert_eq!(region.stats().live_allocs, before - 1);
        region.close().unwrap();
    }

    #[test]
    fn tx_free_refuses_foreign_and_unallocated_blocks() {
        let region = Region::create(1 << 20).unwrap();
        let store = ObjectStore::format(&region).unwrap();
        let obj = store.alloc(5, 32).unwrap();
        let mut local = 0u64;
        let mut tx = store.begin();
        let foreign = NonNull::new(&mut local as *mut u64 as *mut u8).unwrap();
        assert!(matches!(
            unsafe { tx.free(foreign, 8) },
            Err(crate::StoreError::Nv(NvError::AddressOutOfRange { .. }))
        ));
        assert!(matches!(
            unsafe { tx.free(obj, 64) },
            Err(crate::StoreError::Nv(NvError::NotAllocated { .. }))
        ));
        let fresh = tx.alloc(5, 32).unwrap();
        assert!(
            matches!(
                unsafe { tx.free(fresh, 32) },
                Err(crate::StoreError::Nv(NvError::NotAllocated { .. }))
            ),
            "an allocation of this transaction has no bit to free yet"
        );
        tx.abort();
        // A second free of one block in one transaction: the block keeps
        // its bit until commit, so the transaction's own log refuses it.
        let before = region.stats().live_allocs;
        let mut tx = store.begin();
        unsafe { tx.free(obj, 32).unwrap() };
        assert!(
            matches!(
                unsafe { tx.free(obj, 32) },
                Err(crate::StoreError::Nv(NvError::NotAllocated { .. }))
            ),
            "freed twice in one transaction"
        );
        tx.commit();
        assert_eq!(region.stats().live_allocs, before - 1, "freed once");
        let off = region.offset_of(obj.as_ptr() as usize).unwrap();
        assert!(region.alloc_at(off, 32).unwrap(), "and free to serve");
        assert!(!region.alloc_at(off, 32).unwrap(), "once");
        assert_eq!(region.stats().live_allocs, before);
        region.close().unwrap();
    }

    #[test]
    fn crashed_tx_alloc_recovers_to_prior_list() {
        // A one-element list `head → first`, kept as region offsets; the
        // crashed transaction allocates a second element and pushes it.
        let dir = std::env::temp_dir().join(format!("pstore-txalloc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.nvr");
        let first_off = {
            let region = Region::create_file(&path, 1 << 20).unwrap();
            let store = ObjectStore::format(&region).unwrap();
            let head = store.alloc(9, 8).unwrap().as_ptr() as *mut u64;
            let first = store.alloc(9, 16).unwrap().as_ptr() as *mut u64;
            let first_off = region.offset_of(first as usize).unwrap();
            unsafe {
                first.write(0);
                first.add(1).write(1);
                head.write(first_off);
            }
            region.set_root("head", head as usize).unwrap();
            region.sync().unwrap();
            let mut tx = store.begin();
            let second = tx.alloc(9, 16).unwrap().as_ptr() as *mut u64;
            unsafe {
                second.write(first_off);
                second.add(1).write(2);
                let second_off = region.offset_of(second as usize).unwrap();
                tx.set(head, second_off).unwrap();
            }
            std::mem::forget(tx);
            drop(store);
            region.crash();
            first_off
        };
        let region = Region::open_file(&path).unwrap();
        let store = ObjectStore::attach(&region).unwrap();
        assert!(store.recovered());
        let head = unsafe { *(region.root("head").unwrap() as *const u64) };
        assert_eq!(head, first_off, "interrupted push rolled back");
        let first = region.ptr_at(head) as *const u64;
        assert_eq!(unsafe { (first.read(), first.add(1).read()) }, (0, 1));
        region.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
