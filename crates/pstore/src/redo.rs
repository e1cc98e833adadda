//! Persistent **redo** log — the write-ahead alternative to the undo log.
//!
//! The paper's related work surveys systems that differ in "how to
//! minimize the needed logging overhead". The two classic disciplines:
//!
//! * **undo** ([`crate::UndoLog`]): snapshot old bytes *before* each
//!   in-place mutation; commit is cheap (truncate), abort/recovery replay
//!   snapshots backwards. Reads inside the transaction see new data for
//!   free, but every first-touch pays a log write on the critical path.
//! * **redo** (this module): buffer new bytes in the log and *defer* the
//!   in-place writes; commit seals the log, applies it forward, then
//!   truncates. Aborts are free (drop the log), and data writes become
//!   sequential log appends — but uncommitted data is invisible in place,
//!   so transactional reads must look through the log.
//!
//! Recovery rule (mirrored from write-ahead logging): an **unsealed** log
//! is discarded (the transaction never committed); a **sealed** log is
//! re-applied idempotently (the crash happened during apply).
//!
//! Layout of the log area (offsets region-relative):
//!
//! ```text
//! +--------+--------+-------------------------------+
//! | used   | sealed |  entry | entry | ...          |
//! +--------+--------+-------------------------------+
//!    u64      u64      each entry: { off, len, crc64, rsvd, new bytes…, pad to 16 }
//! ```
//!
//! Every entry carries a CRC-64 over its header words and payload:
//! recovery of a sealed log on a corrupted image skips (and counts)
//! rotted entries instead of applying garbage. Unlike the undo log, the
//! `used` + `sealed` words are a persistent commit point, so the CRC is
//! un-seeded and damage inside the sealed prefix is told apart from a
//! torn tail.

use crate::error::{Result, StoreError};
use crate::log::RecoveryStats;
use nvmsim::latency;
use nvmsim::shadow;
use nvmsim::Region;

/// Byte overhead of the log-area header (`used` + `sealed`).
pub const REDO_HEADER_SIZE: u64 = 16;
/// Byte overhead of one entry's header (`off` + `len` + `crc64` +
/// reserved).
pub const REDO_ENTRY_HEADER_SIZE: u64 = 32;

/// CRC-64/XZ over an entry's `off` and `len` words and its payload.
fn entry_crc(data_off: u64, len: u64, payload: &[u8]) -> u64 {
    nvmsim::undolog::entry_crc(0, data_off, len, payload)
}

/// Handle to a region's redo-log area. See the module docs.
#[derive(Debug, Clone)]
pub struct RedoLog {
    region: Region,
    log_off: u64,
    capacity: u64,
}

impl RedoLog {
    /// Attaches to an existing (or freshly allocated, zeroed) log area.
    pub fn new(region: Region, log_off: u64, capacity: u64) -> RedoLog {
        debug_assert!(capacity > REDO_HEADER_SIZE + REDO_ENTRY_HEADER_SIZE);
        RedoLog {
            region,
            log_off,
            capacity,
        }
    }

    fn used_ptr(&self) -> *mut u64 {
        self.region.ptr_at(self.log_off) as *mut u64
    }

    fn sealed_ptr(&self) -> *mut u64 {
        self.region.ptr_at(self.log_off + 8) as *mut u64
    }

    /// Bytes of entries currently logged.
    pub fn used(&self) -> u64 {
        // SAFETY: log area is inside the mapped region.
        unsafe { *self.used_ptr() }
    }

    /// Whether the log has been sealed (commit point reached).
    pub fn is_sealed(&self) -> bool {
        // SAFETY: log area is inside the mapped region.
        unsafe { *self.sealed_ptr() != 0 }
    }

    /// Initializes (formats) the log area.
    pub fn format(&self) {
        // SAFETY: log area is inside the mapped region.
        unsafe {
            self.used_ptr().write(0);
            self.sealed_ptr().write(0);
        }
        shadow::track_store(self.used_ptr() as usize, 16);
        latency::clflush_range(self.used_ptr() as usize, 16);
        latency::wbarrier();
    }

    fn entry_span(len: u64) -> u64 {
        REDO_ENTRY_HEADER_SIZE + ((len + 15) & !15)
    }

    /// Records that `[addr, addr+len)` should take the value `bytes` at
    /// commit. The in-place memory is *not* touched.
    ///
    /// # Errors
    ///
    /// [`StoreError::LogFull`], or range errors if `addr` leaves the
    /// region.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() != len` or the log is already sealed.
    pub fn record(&self, addr: usize, bytes: &[u8]) -> Result<()> {
        assert!(!self.is_sealed(), "cannot record into a sealed redo log");
        let data_off = self.region.offset_of(addr).map_err(StoreError::Nv)?;
        let len = bytes.len() as u64;
        let used = self.used();
        let span = Self::entry_span(len);
        if REDO_HEADER_SIZE + used + span > self.capacity {
            return Err(StoreError::LogFull {
                capacity: self.capacity,
                requested: span,
            });
        }
        let entry = self.region.ptr_at(self.log_off + REDO_HEADER_SIZE + used) as *mut u64;
        // SAFETY: bounds checked above; entry area inside the region.
        unsafe {
            entry.write(data_off);
            entry.add(1).write(len);
            entry.add(2).write(entry_crc(data_off, len, bytes));
            entry.add(3).write(0);
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                (entry as *mut u8).add(REDO_ENTRY_HEADER_SIZE as usize),
                bytes.len(),
            );
            shadow::track_store(entry as usize, span as usize);
            latency::clflush_range(entry as usize, span as usize);
            latency::wbarrier();
            self.used_ptr().write(used + span);
        }
        shadow::track_store(self.used_ptr() as usize, 8);
        latency::clflush_range(self.used_ptr() as usize, 8);
        latency::wbarrier();
        nvmsim::metrics::incr(nvmsim::metrics::Counter::RedoEntries);
        Ok(())
    }

    /// The value the transaction would read from `[addr, addr+len)`:
    /// the latest logged bytes if any entry covers the range exactly,
    /// otherwise the in-place bytes ("read through the log").
    pub fn read_through(&self, addr: usize, len: usize) -> Vec<u8> {
        let Ok(data_off) = self.region.offset_of(addr) else {
            return Vec::new();
        };
        let mut latest: Option<&[u8]> = None;
        self.for_each_entry(|off, bytes, crc_ok| {
            if crc_ok && off == data_off && bytes.len() == len {
                latest = Some(bytes);
            }
        });
        match latest {
            Some(bytes) => bytes.to_vec(),
            // SAFETY: addr..addr+len inside the region per offset_of.
            None => unsafe { std::slice::from_raw_parts(addr as *const u8, len).to_vec() },
        }
    }

    /// Walks the log's entries. Each callback receives the target offset,
    /// the payload, and whether the entry's CRC-64 verified. The scan
    /// validates each header's span and target bounds before trusting it
    /// and stops (returning `true` for "truncated") on the first
    /// implausible entry — defense against corrupted images, as in
    /// [`crate::UndoLog`].
    fn for_each_entry<'a>(&'a self, mut f: impl FnMut(u64, &'a [u8], bool)) -> bool {
        let used = self.used();
        let region_size = self.region.size() as u64;
        let mut pos = 0u64;
        while pos + REDO_ENTRY_HEADER_SIZE <= used {
            let entry = self.region.ptr_at(self.log_off + REDO_HEADER_SIZE + pos) as *const u64;
            // SAFETY: pos + header <= used <= capacity.
            let (off, len, crc) = unsafe { (*entry, *entry.add(1), *entry.add(2)) };
            let span_ok = Self::entry_span(len)
                .checked_add(pos)
                .is_some_and(|end| end <= used);
            let target_ok = off.checked_add(len).is_some_and(|end| end <= region_size);
            if !span_ok || !target_ok {
                return true;
            }
            // SAFETY: span validated against `used` above.
            let bytes = unsafe {
                std::slice::from_raw_parts(
                    (entry as *const u8).add(REDO_ENTRY_HEADER_SIZE as usize),
                    len as usize,
                )
            };
            f(off, bytes, entry_crc(off, len, bytes) == crc);
            pos += Self::entry_span(len);
        }
        false
    }

    /// Commit: seal the log (the durability point), apply every entry in
    /// order, then truncate. Safe to re-run after a crash at any point —
    /// application is idempotent.
    pub fn commit(&self) {
        // Seal first: after this flush the transaction is durably decided.
        // SAFETY: log header inside the mapped region.
        unsafe { self.sealed_ptr().write(1) };
        shadow::track_store(self.sealed_ptr() as usize, 8);
        latency::clflush_range(self.sealed_ptr() as usize, 8);
        latency::wbarrier();
        self.apply();
    }

    /// Applies a sealed log and truncates it (used by commit and by
    /// recovery). Entries failing their CRC-64 are skipped — counted in
    /// the returned [`RecoveryStats`] — rather than applied as garbage.
    pub fn apply(&self) -> RecoveryStats {
        debug_assert!(self.is_sealed());
        let mut stats = RecoveryStats::default();
        let mut writes: Vec<(u64, &[u8])> = Vec::new();
        stats.truncated = self.for_each_entry(|off, bytes, crc_ok| {
            if crc_ok {
                writes.push((off, bytes));
            } else {
                stats.skipped += 1;
            }
        });
        stats.applied = writes.len() as u64;
        nvmsim::metrics::add(nvmsim::metrics::Counter::RecoverySkips, stats.skipped);
        for (off, bytes) in writes {
            // SAFETY: offsets validated at record time.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr(),
                    self.region.ptr_at(off) as *mut u8,
                    bytes.len(),
                );
                shadow::track_store(self.region.ptr_at(off), bytes.len());
                latency::clflush_range(self.region.ptr_at(off), bytes.len());
            }
        }
        latency::wbarrier();
        // SAFETY: log header inside the mapped region.
        unsafe {
            self.used_ptr().write(0);
            self.sealed_ptr().write(0);
        }
        shadow::track_store(self.used_ptr() as usize, 16);
        latency::clflush_range(self.used_ptr() as usize, 16);
        latency::wbarrier();
        stats
    }

    /// Abort: drop the buffered writes (in-place data was never touched).
    pub fn abort(&self) {
        assert!(!self.is_sealed(), "sealed transactions cannot abort");
        // SAFETY: log header inside the mapped region.
        unsafe { self.used_ptr().write(0) };
        shadow::track_store(self.used_ptr() as usize, 8);
        latency::clflush_range(self.used_ptr() as usize, 8);
        latency::wbarrier();
    }

    /// Crash recovery: discard an unsealed log, re-apply a sealed one.
    /// Returns whether a sealed log was applied.
    pub fn recover(&self) -> bool {
        self.recover_report().0
    }

    /// As [`RedoLog::recover`], additionally reporting how the apply pass
    /// degraded on a corrupted image (entries skipped for bad CRCs, scan
    /// truncation). The stats are zero when the log was unsealed or
    /// empty.
    pub fn recover_report(&self) -> (bool, RecoveryStats) {
        if self.is_sealed() {
            (true, self.apply())
        } else if self.used() != 0 {
            self.abort();
            (false, RecoveryStats::default())
        } else {
            (false, RecoveryStats::default())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Region, RedoLog, *mut u64) {
        let region = Region::create(1 << 20).unwrap();
        let log_off = region.alloc_off(4096, 16).unwrap();
        let data = region.alloc(64, 8).unwrap().as_ptr() as *mut u64;
        let log = RedoLog::new(region.clone(), log_off, 4096);
        log.format();
        (region, log, data)
    }

    #[test]
    fn deferred_write_applies_at_commit() {
        let (region, log, data) = setup();
        unsafe {
            data.write(1);
            log.record(data as usize, &2u64.to_le_bytes()).unwrap();
            assert_eq!(data.read(), 1, "in-place value untouched before commit");
            assert_eq!(log.read_through(data as usize, 8), 2u64.to_le_bytes());
            log.commit();
            assert_eq!(data.read(), 2);
            assert!(!log.is_sealed());
            assert_eq!(log.used(), 0);
        }
        region.close().unwrap();
    }

    #[test]
    fn abort_discards_buffered_writes() {
        let (region, log, data) = setup();
        unsafe {
            data.write(10);
            log.record(data as usize, &99u64.to_le_bytes()).unwrap();
            log.abort();
            assert_eq!(data.read(), 10);
            assert_eq!(log.read_through(data as usize, 8), 10u64.to_le_bytes());
        }
        region.close().unwrap();
    }

    #[test]
    fn later_records_win() {
        let (region, log, data) = setup();
        unsafe {
            data.write(0);
            log.record(data as usize, &1u64.to_le_bytes()).unwrap();
            log.record(data as usize, &2u64.to_le_bytes()).unwrap();
            assert_eq!(log.read_through(data as usize, 8), 2u64.to_le_bytes());
            log.commit();
            assert_eq!(data.read(), 2, "last write wins");
        }
        region.close().unwrap();
    }

    #[test]
    fn recovery_discards_unsealed_and_applies_sealed() {
        let (region, log, data) = setup();
        unsafe {
            data.write(5);
            // Unsealed log at "crash": discarded.
            log.record(data as usize, &6u64.to_le_bytes()).unwrap();
            assert!(!log.recover());
            assert_eq!(data.read(), 5);

            // Sealed log at "crash" (simulate: seal without applying).
            log.record(data as usize, &7u64.to_le_bytes()).unwrap();
            (region.ptr_at(region.offset_of(log.sealed_ptr() as usize).unwrap()) as *mut u64)
                .write(1);
            assert!(log.recover());
            assert_eq!(data.read(), 7, "sealed log re-applied");
            // Idempotent: recovering again is a no-op.
            assert!(!log.recover());
            assert_eq!(data.read(), 7);
        }
        region.close().unwrap();
    }

    #[test]
    fn sealed_recovery_skips_rotted_entries() {
        let (region, log, data) = setup();
        let data2 = region.alloc(64, 8).unwrap().as_ptr() as *mut u64;
        unsafe {
            data.write(1);
            data2.write(2);
            log.record(data as usize, &11u64.to_le_bytes()).unwrap();
            log.record(data2 as usize, &22u64.to_le_bytes()).unwrap();
            // Seal without applying (crash mid-commit), then rot the
            // first entry's payload.
            (log.sealed_ptr()).write(1);
            let payload0 = region.ptr_at(log.log_off + REDO_HEADER_SIZE + REDO_ENTRY_HEADER_SIZE);
            *(payload0 as *mut u8) ^= 0xFF;
            let (applied, stats) = log.recover_report();
            assert!(applied);
            assert_eq!(stats.applied, 1);
            assert_eq!(stats.skipped, 1);
            assert!(stats.degraded());
            assert_eq!(data.read(), 1, "rotted redo entry not applied");
            assert_eq!(data2.read(), 22, "intact redo entry applied");
        }
        region.close().unwrap();
    }

    #[test]
    fn log_full_reported() {
        let region = Region::create(1 << 20).unwrap();
        let log_off = region.alloc_off(64, 16).unwrap();
        let data = region.alloc(64, 8).unwrap().as_ptr();
        let log = RedoLog::new(region.clone(), log_off, 64);
        log.format();
        log.record(data as usize, &[1u8; 16]).unwrap();
        assert!(matches!(
            log.record(data as usize, &[1u8; 16]),
            Err(StoreError::LogFull { .. })
        ));
        region.close().unwrap();
    }
}
