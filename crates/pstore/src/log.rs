//! Persistent undo log.
//!
//! The store's crash-consistency mechanism: before a transaction mutates a
//! range of persistent memory, the *old* contents are appended to this log
//! and made durable. On commit the log is truncated; on abort — or during
//! recovery after a crash — entries are applied in reverse, restoring the
//! pre-transaction image.
//!
//! The on-media format and the walk over it live in [`nvmsim::undolog`]
//! (shared with `nvmsim::verify` and `nvmsim::inspect`): a generation
//! word, then entries that each carry that generation and a CRC-64 seeded
//! with it. An entry is its own commit record, so the protocol has no
//! persistent entry count to keep in step:
//!
//! | step | persistence traffic | durable afterwards |
//! |---|---|---|
//! | [`UndoLog::append`], [`UndoLog::append_block`] | none (the entry is written and tracked) | nothing yet — the entry may be whole, torn or absent |
//! | [`UndoLog::barrier`] | the batch's span flushed once, one fence | every entry appended so far; their ranges may now be written |
//! | [`UndoLog::commit`]: bits, then the commit fence | each allocator entry's bitmap word flushed, one fence | every flushed store of the transaction, and its blocks' bits |
//! | [`UndoLog::truncate`] | generation line flushed, one fence | the commit: no entry validates any more |
//! | commit, rollback: holds end | none (a load per allocator entry) | nothing more; each named block whose bit is clear becomes servable |
//!
//! An allocator entry ([`UndoLog::append_block`]) names a block the
//! transaction holds (see `nvmsim::llalloc`): one it allocated, taken
//! but with its bit still clear, or one it frees, whose bit is still
//! set. The bit changes only at commit, after the entry is durable;
//! rollback puts the bit back. On commit and on abort alike the hold
//! ends only after the truncate, and gives back exactly the blocks whose
//! bit is then clear. The transaction's allocator bookkeeping is its
//! log: commit, rollback and a second free of one block find the
//! entries by walking it.
//!
//! Recovery never trusts a count. It takes the longest run of entries
//! from the start of the area that carry the current generation and pass
//! their seeded CRC: a torn or never-written entry ends the log, which is
//! exact because ranges are only written after a barrier that made every
//! earlier entry whole. The append cursor ([`UndoLog::used`]) and the
//! barrier's high-water mark are therefore volatile — they live in the
//! handle, not in the region.
//!
//! The price: an entry damaged by media rot ends the log exactly like a
//! torn tail, so rot costs the entries behind it and is not reported
//! separately. It is still never *replayed* — the CRC sees to that.

use crate::error::{Result, StoreError};
use nvmsim::latency;
use nvmsim::shadow;
use nvmsim::undolog::{self, entry_crc, entry_span, BlockEntry, BlockOp};
use nvmsim::Region;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use nvmsim::undolog::{ENTRY_HEADER_SIZE, LOG_HEADER_SIZE};

/// What a log recovery pass did. The scan ends at the first entry that
/// does not validate, whatever the reason, so there is nothing to report
/// but what was rolled back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Entries whose checksums verified and whose snapshots were applied.
    pub applied: u64,
}

/// Handle to a region's undo-log area.
///
/// All logged state lives in the region at `[log_off, log_off +
/// capacity)`; the handle adds the volatile cursors, shared by its
/// clones.
#[derive(Debug, Clone)]
pub struct UndoLog {
    region: Region,
    log_off: u64,
    capacity: u64,
    cursors: Arc<Cursors>,
}

/// Volatile positions in the entry area, in bytes since the last
/// truncation. Recovery never reads them.
#[derive(Debug)]
struct Cursors {
    /// End of the appended entries.
    used: AtomicU64,
    /// End of the entries a barrier has made durable; `[durable, used)`
    /// is the current batch.
    durable: AtomicU64,
    /// Start of the first allocator entry, [`NO_BLOCK`] while there is
    /// none: where commit's walk begins.
    first_block: AtomicU64,
}

const NO_BLOCK: u64 = u64::MAX;

impl Default for Cursors {
    fn default() -> Cursors {
        Cursors {
            used: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            first_block: AtomicU64::new(NO_BLOCK),
        }
    }
}

impl UndoLog {
    /// Attaches to an existing (or freshly allocated) log area. A fresh
    /// area must be [`UndoLog::format`]ted, an area that may hold an
    /// interrupted transaction [`UndoLog::recover`]ed, before the first
    /// append. The area must pass [`undolog::StoreMeta::log_in_bounds`].
    pub fn new(region: Region, log_off: u64, capacity: u64) -> UndoLog {
        debug_assert!(capacity > LOG_HEADER_SIZE + ENTRY_HEADER_SIZE);
        UndoLog {
            region,
            log_off,
            capacity,
            cursors: Arc::default(),
        }
    }

    fn generation_ptr(&self) -> *mut u64 {
        self.region.ptr_at(self.log_off) as *mut u64
    }

    /// The log's current generation: what an entry must carry, and be
    /// checksummed under, to belong to the log.
    pub fn generation(&self) -> u64 {
        // SAFETY: log area is inside the mapped region.
        unsafe { *self.generation_ptr() }
    }

    /// Region offset of the log area.
    pub fn area_off(&self) -> u64 {
        self.log_off
    }

    /// Bytes of entries appended since the last truncation (the volatile
    /// append cursor).
    pub fn used(&self) -> u64 {
        self.cursors.used.load(Ordering::Relaxed)
    }

    fn reset_cursors(&self) {
        self.cursors.used.store(0, Ordering::Relaxed);
        self.cursors.durable.store(0, Ordering::Relaxed);
        self.cursors.first_block.store(NO_BLOCK, Ordering::Relaxed);
    }

    fn scan(&self) -> undolog::LogScan {
        // SAFETY: the log area is inside the mapped region, and the
        // transaction lock (or exclusive ownership during attach) keeps
        // appends away while the slice is alive.
        let area = unsafe {
            std::slice::from_raw_parts(
                self.region.ptr_at(self.log_off) as *const u8,
                self.capacity as usize,
            )
        };
        undolog::scan(area, self.region.size() as u64)
    }

    /// Initializes the log area: generation 1, and a first entry header
    /// that cannot validate whatever the recycled block held before.
    pub fn format(&self) {
        let head = self.generation_ptr();
        let bytes = (LOG_HEADER_SIZE + ENTRY_HEADER_SIZE) as usize;
        // SAFETY: `new` requires the area to hold a header and an entry.
        unsafe {
            std::ptr::write_bytes(head as *mut u8, 0, bytes);
            head.write(1);
        }
        self.reset_cursors();
        latency::persist(head as usize, bytes);
        latency::wbarrier();
    }

    /// Appends an undo entry snapshotting `[addr, addr + len)` (an address
    /// inside this log's region). The entry is **not durable**: one
    /// [`UndoLog::barrier`] — covering any number of appends — must run
    /// before the first write to a logged range.
    ///
    /// # Errors
    ///
    /// [`StoreError::LogFull`] if the area cannot hold the entry;
    /// [`StoreError::Nv`] if `addr` is not inside the region.
    pub fn append(&self, addr: usize, len: usize) -> Result<()> {
        let data_off = self.region.offset_of(addr).map_err(StoreError::Nv)?;
        self.write_entry(data_off, len as u64, addr as *const u8, len)
            .map(drop)
    }

    /// Appends an allocator entry for the block at region offset `off`,
    /// which the caller's transaction holds. Like [`UndoLog::append`] it
    /// is not durable until the next barrier; the block's bit must not
    /// change before then ([`UndoLog::commit`] sees to that).
    ///
    /// # Errors
    ///
    /// [`StoreError::LogFull`] if the area cannot hold the entry.
    pub fn append_block(&self, off: u64, entry: BlockEntry) -> Result<()> {
        let pos = self.write_entry(off, entry.word(), [].as_ptr(), 0)?;
        if self.cursors.first_block.load(Ordering::Relaxed) == NO_BLOCK {
            self.cursors.first_block.store(pos, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Writes and tracks one entry at the append cursor — header words
    /// `data_off` and `word`, then the `len` bytes at `payload`, read only
    /// once the capacity check has bounded `len` — and returns its
    /// position.
    fn write_entry(&self, data_off: u64, word: u64, payload: *const u8, len: usize) -> Result<u64> {
        let used = self.used();
        let span = entry_span(len as u64).unwrap_or(u64::MAX);
        if (LOG_HEADER_SIZE + used)
            .checked_add(span)
            .is_none_or(|end| end > self.capacity)
        {
            return Err(StoreError::LogFull {
                capacity: self.capacity,
                requested: span,
            });
        }
        let generation = self.generation();
        let entry = self.region.ptr_at(self.log_off + LOG_HEADER_SIZE + used) as *mut u64;
        // SAFETY: bounds checked against capacity above; `payload` is a
        // range inside the region per the caller's offset_of, or empty.
        unsafe {
            let payload = std::slice::from_raw_parts(payload, len);
            entry.write(data_off);
            entry.add(1).write(word);
            entry
                .add(2)
                .write(entry_crc(generation, data_off, word, payload));
            entry.add(3).write(generation);
            std::ptr::copy_nonoverlapping(
                payload.as_ptr(),
                (entry as *mut u8).add(ENTRY_HEADER_SIZE as usize),
                payload.len(),
            );
        }
        shadow::track_store(entry as usize, span as usize);
        self.cursors.used.store(used + span, Ordering::Relaxed);
        nvmsim::metrics::incr(nvmsim::metrics::Counter::UndoEntries);
        Ok(used)
    }

    /// Calls `f` on every allocator entry in `[from, to)` of the entry
    /// area, oldest first, read back by their headers: the entries this
    /// handle appended since the last truncation, which stay in place
    /// after it.
    fn each_block(&self, from: u64, to: u64, mut f: impl FnMut(u64, BlockEntry)) {
        let mut pos = from;
        while pos < to {
            let at = self.region.ptr_at(self.log_off + LOG_HEADER_SIZE + pos) as *const u64;
            // SAFETY: `[from, to)` holds whole entries this handle wrote.
            let (off, word) = unsafe { (at.read(), at.add(1).read()) };
            match BlockEntry::decode(word) {
                Some(entry) => {
                    f(off, entry);
                    pos += ENTRY_HEADER_SIZE;
                }
                None => pos += entry_span(word).expect("an entry this handle wrote"),
            }
        }
    }

    /// Makes the current batch — every entry appended since the last
    /// barrier — durable: its span is flushed once (entries straddle
    /// cache lines, so one range costs fewer lines than one per entry)
    /// and fenced. Does nothing when the batch is empty.
    pub fn barrier(&self) {
        let used = self.used();
        let durable = self.cursors.durable.load(Ordering::Relaxed);
        if durable == used {
            return;
        }
        let batch = self.region.ptr_at(self.log_off + LOG_HEADER_SIZE + durable);
        latency::clflush_range(batch, (used - durable) as usize);
        latency::wbarrier();
        self.cursors.durable.store(used, Ordering::Relaxed);
    }

    /// Commits the transaction this log holds: makes any batch still
    /// open durable, sets or clears the bit of every block an allocator
    /// entry names (flushed, not fenced), fences once — the commit fence,
    /// after which every flushed store of the transaction is durable —
    /// truncates, and only then ends the blocks' holds, so a freed block
    /// is served again only once the commit point is durable.
    pub fn commit(&self) {
        self.barrier();
        let (from, to) = (
            self.cursors.first_block.load(Ordering::Relaxed),
            self.used(),
        );
        // SAFETY: each entry names a block this transaction holds, and
        // the barrier above made every entry durable.
        self.each_block(from, to, |off, e| unsafe {
            self.region.persist_held(off, e)
        });
        latency::wbarrier();
        self.truncate();
        // SAFETY: as above, and the truncate made the commit durable.
        self.each_block(from, to, |off, e| unsafe { self.region.end_hold(off, e) });
    }

    /// Whether an allocator entry appended since the last truncation
    /// frees the block at `off`. A block keeps its bit until its free
    /// commits, so this walk is what refuses a second free of it in one
    /// transaction.
    pub fn frees(&self, off: u64) -> bool {
        let mut found = false;
        let from = self.cursors.first_block.load(Ordering::Relaxed);
        self.each_block(from, self.used(), |o, e| {
            found |= o == off && e.op == BlockOp::Free;
        });
        found
    }

    /// Applies all valid entries in reverse order (newest first, so the
    /// oldest snapshot of any doubly-logged range wins), restoring the
    /// pre-transaction bytes and the bits of the blocks allocator entries
    /// name, then truncates the log, and only then ends the holds of an
    /// aborted transaction's blocks. Used by abort and by recovery. A log
    /// with no valid entry is left untouched: no store, no flush, no
    /// fence.
    pub fn rollback(&self) -> RecoveryStats {
        let scan = self.scan();
        for e in scan.entries.iter().rev() {
            if let Some(block) = e.block {
                // SAFETY: the entry is this log's own: the transaction
                // being aborted, or the interrupted one at attach.
                unsafe { self.region.undo_held(e.data_off, block) };
                continue;
            }
            let target = self.region.ptr_at(e.data_off);
            // SAFETY: the scan validated the entry's span against the
            // area and its target range against the region.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.region.ptr_at(self.log_off + e.payload) as *const u8,
                    target as *mut u8,
                    e.len as usize,
                );
            }
            latency::persist(target, e.len as usize);
        }
        if !scan.entries.is_empty() {
            latency::wbarrier();
            self.truncate();
        }
        // Only now may another allocation take a block this session's
        // transaction held: before the truncate is durable a crash would
        // replay the block's entry over that allocation.
        for e in &scan.entries {
            if let Some(block) = e.block {
                // SAFETY: as above, and the truncate made the rollback
                // durable.
                unsafe { self.region.end_hold(e.data_off, block) };
            }
        }
        RecoveryStats {
            applied: scan.entries.len() as u64,
        }
    }

    /// [`UndoLog::rollback`] for a log found in a reopened region. After
    /// a crash, entries of the current generation may sit *behind* a torn
    /// one — written back, never fenced, their ranges never written. They are
    /// not rolled back, and they must not outlive this call either, or a
    /// later transaction's shorter log could run into them: a crashed
    /// image always leaves with a fresh generation.
    pub fn recover(&self) -> RecoveryStats {
        let stats = self.rollback();
        if stats.applied == 0 && self.region.was_dirty() {
            self.truncate();
        }
        stats
    }

    /// Truncates the log (the commit point of a transaction): bumps the
    /// generation, so no entry written so far validates again. One
    /// flushed line, one fence.
    pub fn truncate(&self) {
        let generation = self.generation_ptr();
        // SAFETY: generation word is inside the mapped region.
        unsafe { generation.write(generation.read().wrapping_add(1)) };
        self.reset_cursors();
        latency::persist(generation as usize, 8);
        latency::wbarrier();
    }

    /// Number of valid entries currently logged (diagnostic; nonzero in a
    /// reopened region means an interrupted transaction to roll back).
    pub fn entry_count(&self) -> usize {
        self.scan().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Region, UndoLog, *mut u64) {
        let region = Region::create(1 << 20).unwrap();
        let log_off = region.alloc_off(4096, 16).unwrap();
        let data = region.alloc(64, 8).unwrap().as_ptr() as *mut u64;
        let log = UndoLog::new(region.clone(), log_off, 4096);
        log.format();
        (region, log, data)
    }

    #[test]
    fn append_then_rollback_restores_old_bytes() {
        let (region, log, data) = setup();
        unsafe {
            data.write(111);
            log.append(data as usize, 8).unwrap();
            data.write(222);
            assert_eq!(data.read(), 222);
            log.rollback();
            assert_eq!(data.read(), 111);
        }
        assert_eq!(log.entry_count(), 0);
        region.close().unwrap();
    }

    #[test]
    fn truncate_commits_new_bytes() {
        let (region, log, data) = setup();
        unsafe {
            data.write(1);
            log.append(data as usize, 8).unwrap();
            data.write(2);
            log.truncate();
            log.rollback(); // no entries left: nothing to undo
            assert_eq!(data.read(), 2);
        }
        region.close().unwrap();
    }

    #[test]
    fn reverse_application_restores_oldest_snapshot() {
        let (region, log, data) = setup();
        unsafe {
            data.write(10);
            log.append(data as usize, 8).unwrap();
            data.write(20);
            log.append(data as usize, 8).unwrap(); // snapshots 20
            data.write(30);
            log.rollback();
            assert_eq!(data.read(), 10, "oldest snapshot must win");
        }
        region.close().unwrap();
    }

    #[test]
    fn entry_count_and_used_track_appends() {
        let (region, log, data) = setup();
        assert_eq!(log.entry_count(), 0);
        log.append(data as usize, 8).unwrap();
        log.append(data as usize, 24).unwrap();
        assert_eq!(log.entry_count(), 2);
        assert_eq!(log.used(), (32 + 16) + (32 + 32));
        assert_eq!(log.clone().used(), log.used(), "clones share the cursor");
        log.truncate();
        assert_eq!(log.entry_count(), 0);
        assert_eq!(log.used(), 0);
        region.close().unwrap();
    }

    #[test]
    fn log_full_is_reported() {
        let region = Region::create(1 << 20).unwrap();
        let log_off = region.alloc_off(80, 16).unwrap();
        let data = region.alloc(64, 8).unwrap().as_ptr();
        let log = UndoLog::new(region.clone(), log_off, 80);
        log.format();
        log.append(data as usize, 16).unwrap();
        let err = log.append(data as usize, 16).unwrap_err();
        assert!(matches!(err, StoreError::LogFull { .. }));
        region.close().unwrap();
    }

    /// Entry `i`'s header words, for tests that damage the log in place.
    fn entry_words(region: &Region, log: &UndoLog, pos: u64) -> *mut u64 {
        region.ptr_at(log.log_off + LOG_HEADER_SIZE + pos) as *mut u64
    }

    #[test]
    fn a_checksum_failing_entry_ends_the_log() {
        let (region, log, data) = setup();
        let data2 = region.alloc(64, 8).unwrap().as_ptr() as *mut u64;
        let data3 = region.alloc(64, 8).unwrap().as_ptr() as *mut u64;
        unsafe {
            data.write(1);
            data2.write(2);
            data3.write(3);
            log.append(data as usize, 8).unwrap();
            log.append(data2 as usize, 8).unwrap();
            log.append(data3 as usize, 8).unwrap();
            data.write(91);
            data2.write(92);
            data3.write(93);
            // Rot the second entry's payload: neither it nor the intact
            // entry behind it is replayed; the one before it is.
            *(entry_words(&region, &log, 48).add(4) as *mut u8) ^= 0xFF;
            let stats = log.rollback();
            assert_eq!(stats.applied, 1);
            assert_eq!(data.read(), 1, "intact prefix restored");
            assert_eq!(data2.read(), 92, "rotted snapshot not replayed");
            assert_eq!(data3.read(), 93, "entries behind it are out of reach");
        }
        assert_eq!(log.entry_count(), 0);
        region.close().unwrap();
    }

    #[test]
    fn stale_entries_never_validate_under_the_next_generation() {
        let (region, log, data) = setup();
        unsafe {
            data.write(7);
            log.append(data as usize, 8).unwrap();
            log.append(data as usize, 8).unwrap();
            let g = log.generation();
            log.truncate();
            assert_eq!(log.generation(), g + 1);
            assert_eq!(log.entry_count(), 0, "g entries are dead under g + 1");
            // Relabelling one does not revive it: its checksum was
            // computed under the old seed.
            entry_words(&region, &log, 0).add(3).write(g + 1);
            assert_eq!(log.entry_count(), 0);
            // A shorter log of the new generation does not run into the
            // old one's second entry either.
            data.write(8);
            log.append(data as usize, 8).unwrap();
            assert_eq!(log.entry_count(), 1);
            data.write(9);
            assert_eq!(log.rollback().applied, 1);
            assert_eq!(data.read(), 8);
        }
        region.close().unwrap();
    }

    #[test]
    fn a_torn_entry_followed_by_a_persisted_one_is_nothing_logged() {
        let (region, log, data) = setup();
        let big = region.alloc(128, 8).unwrap().as_ptr() as *mut u64;
        unsafe {
            data.write(5);
            // A multi-line entry (32 + 96 bytes) and a later one, both
            // flushed, neither fenced — so neither range was written.
            log.append(big as usize, 96).unwrap();
            log.append(data as usize, 8).unwrap();
            assert_eq!(log.entry_count(), 2);
            // The crash keeps the later entry and the first line of the
            // big one, and loses the big one's second line.
            let second_line = (entry_words(&region, &log, 0) as *mut u8).add(64);
            std::ptr::write_bytes(second_line, 0xEE, 64);
            assert_eq!(log.entry_count(), 0);
            assert_eq!(log.rollback(), RecoveryStats::default());
            assert_eq!(data.read(), 5);
        }
        region.close().unwrap();
    }

    #[test]
    fn clean_rollback_reports_no_degradation() {
        let (region, log, data) = setup();
        unsafe {
            data.write(7);
            log.append(data as usize, 8).unwrap();
            data.write(8);
        }
        let stats = log.rollback();
        assert_eq!(stats.applied, 1);
        region.close().unwrap();
    }

    #[test]
    fn format_kills_whatever_the_block_held() {
        let (region, log, data) = setup();
        log.append(data as usize, 8).unwrap();
        assert_eq!(log.entry_count(), 1);
        // Re-formatting a block that holds a valid generation-1 log.
        log.format();
        assert_eq!(log.generation(), 1);
        assert_eq!(log.entry_count(), 0);
        region.close().unwrap();
    }

    #[test]
    fn append_rejects_foreign_addresses() {
        let (region, log, _) = setup();
        let mut local = 0u64;
        let err = log.append(&mut local as *mut u64 as usize, 8).unwrap_err();
        assert!(matches!(err, StoreError::Nv(_)));
        region.close().unwrap();
    }
}
