//! Persistent undo log.
//!
//! The store's crash-consistency mechanism: before a transaction mutates a
//! range of persistent memory, the *old* contents are appended to this log
//! and flushed. On commit the log is truncated; on abort — or during
//! recovery after a crash — entries are applied in reverse, restoring the
//! pre-transaction image.
//!
//! Layout of the log area (all offsets region-relative):
//!
//! ```text
//! +--------+---------+-----------------------------------+
//! |  used  |  (pad)  |  entry | entry | entry | ...      |
//! +--------+---------+-----------------------------------+
//!   u64       u64       each entry: { off, len, crc64, rsvd, bytes…, pad to 16 }
//! ```
//!
//! The `used` word is the commit point: an entry only becomes part of the
//! log once `used` covers it, and `used` is only advanced after the entry
//! bytes are flushed (write-ahead ordering, paid for with the emulated
//! `clflush`/`wbarrier` latencies of [`nvmsim::latency`]).
//!
//! Each entry carries a CRC-64 over its header words and payload, so
//! recovery on a *corrupted* image (media bit rot, not just a crash)
//! skips damaged snapshots — counted in [`RecoveryStats`] — instead of
//! replaying garbage over live data.

use crate::error::{Result, StoreError};
use nvmsim::crc::crc64_update;
use nvmsim::latency;
use nvmsim::shadow;
use nvmsim::Region;

/// Byte overhead of the log-area header (`used` + padding).
pub const LOG_HEADER_SIZE: u64 = 16;
/// Byte overhead of one entry's header (`off` + `len` + `crc64` +
/// reserved).
pub const ENTRY_HEADER_SIZE: u64 = 32;

/// What a log recovery pass did — how many entries were applied, how many
/// were skipped for failing their checksum, and whether the scan ended
/// early on a structurally implausible entry.
///
/// `skipped > 0 || truncated` means the image was damaged beyond what the
/// crash protocol alone explains: recovery degraded gracefully rather
/// than replaying garbage, but the affected ranges hold post-crash bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Entries whose checksums verified and whose snapshots were applied.
    pub applied: u64,
    /// Entries with plausible headers but failing CRCs — not applied.
    pub skipped: u64,
    /// Whether the forward scan stopped early on an implausible entry
    /// header (span or target out of bounds); later entries are
    /// unreachable.
    pub truncated: bool,
}

impl RecoveryStats {
    /// Whether recovery saw any damage (skipped entries or a truncated
    /// scan).
    pub fn degraded(&self) -> bool {
        self.skipped > 0 || self.truncated
    }
}

/// CRC-64 sealing one log entry: covers the `off` and `len` header words
/// and the payload, so neither a rotted header nor a rotted snapshot can
/// be replayed undetected. Must match `nvmsim::verify`'s undo-log walk.
pub(crate) fn entry_crc(data_off: u64, len: u64, payload: &[u8]) -> u64 {
    let mut state = crc64_update(!0, &data_off.to_le_bytes());
    state = crc64_update(state, &len.to_le_bytes());
    crc64_update(state, payload) ^ !0
}

/// Handle to a region's undo-log area.
///
/// The handle itself is volatile; all logged state lives in the region at
/// `[log_off, log_off + capacity)`.
#[derive(Debug, Clone)]
pub struct UndoLog {
    region: Region,
    log_off: u64,
    capacity: u64,
}

impl UndoLog {
    /// Attaches to an existing (or freshly allocated, zeroed) log area.
    pub fn new(region: Region, log_off: u64, capacity: u64) -> UndoLog {
        debug_assert!(capacity > LOG_HEADER_SIZE + ENTRY_HEADER_SIZE);
        UndoLog {
            region,
            log_off,
            capacity,
        }
    }

    fn used_ptr(&self) -> *mut u64 {
        self.region.ptr_at(self.log_off) as *mut u64
    }

    /// Bytes of entries currently in the log.
    pub fn used(&self) -> u64 {
        // SAFETY: log area is inside the mapped region.
        unsafe { *self.used_ptr() }
    }

    /// Whether the log holds any entries (nonempty after a crash means
    /// recovery must run).
    pub fn is_dirty(&self) -> bool {
        self.used() != 0
    }

    /// Initializes the log area (formats `used = 0`).
    pub fn format(&self) {
        // SAFETY: log area is inside the mapped region.
        unsafe { self.used_ptr().write(0) };
        shadow::track_store(self.used_ptr() as usize, 8);
        latency::clflush_range(self.used_ptr() as usize, 8);
        latency::wbarrier();
    }

    fn entry_span(len: u64) -> u64 {
        ENTRY_HEADER_SIZE + ((len + 15) & !15)
    }

    /// Appends an undo entry snapshotting `[addr, addr + len)` (an address
    /// inside this log's region), following write-ahead ordering: entry
    /// bytes are flushed before `used` is advanced and flushed.
    ///
    /// # Errors
    ///
    /// [`StoreError::LogFull`] if the area cannot hold the entry;
    /// [`StoreError::Nv`] if `addr` is not inside the region.
    pub fn append(&self, addr: usize, len: usize) -> Result<()> {
        let data_off = self.region.offset_of(addr).map_err(StoreError::Nv)?;
        let used = self.used();
        let span = Self::entry_span(len as u64);
        if LOG_HEADER_SIZE + used + span > self.capacity {
            return Err(StoreError::LogFull {
                capacity: self.capacity,
                requested: span,
            });
        }
        let entry_off = self.log_off + LOG_HEADER_SIZE + used;
        let entry = self.region.ptr_at(entry_off) as *mut u64;
        // SAFETY: bounds checked against capacity above; source range is
        // inside the region per offset_of.
        unsafe {
            entry.write(data_off);
            entry.add(1).write(len as u64);
            entry.add(2).write(entry_crc(
                data_off,
                len as u64,
                std::slice::from_raw_parts(addr as *const u8, len),
            ));
            entry.add(3).write(0);
            std::ptr::copy_nonoverlapping(
                addr as *const u8,
                (entry as *mut u8).add(ENTRY_HEADER_SIZE as usize),
                len,
            );
        }
        // Write-ahead: flush the entry, barrier, then publish via `used`.
        shadow::track_store(entry as usize, span as usize);
        latency::clflush_range(entry as usize, span as usize);
        latency::wbarrier();
        // SAFETY: used word is inside the mapped region.
        unsafe { self.used_ptr().write(used + span) };
        shadow::track_store(self.used_ptr() as usize, 8);
        latency::clflush_range(self.used_ptr() as usize, 8);
        latency::wbarrier();
        nvmsim::metrics::incr(nvmsim::metrics::Counter::UndoEntries);
        Ok(())
    }

    /// Whether a scanned entry at `pos` with header `(data_off, len)` is
    /// intact: its span stays within `used` and its target range stays
    /// within the region. Violations mean the image is corrupted (the log
    /// was not the victim of the crash — `used` only covers flushed,
    /// fenced entries — so this is defense against damaged inputs, not a
    /// normal recovery path).
    fn entry_intact(&self, pos: u64, data_off: u64, len: u64) -> bool {
        let used = self.used();
        let span_ok = Self::entry_span(len)
            .checked_add(pos)
            .is_some_and(|end| end <= used);
        let target_ok = data_off
            .checked_add(len)
            .is_some_and(|end| end <= self.region.size() as u64);
        span_ok && target_ok
    }

    /// Applies all entries in reverse order (newest first), restoring the
    /// pre-transaction bytes, then truncates the log. Used by abort and by
    /// recovery after a crash.
    ///
    /// The forward scan validates each entry header before trusting it; a
    /// malformed entry (corrupted image) ends the scan there, and only
    /// the intact prefix is considered. Within that prefix, entries whose
    /// CRC-64 fails are *skipped* — restoring a rotted snapshot would
    /// trade known-new bytes for garbage — and counted in the returned
    /// [`RecoveryStats`].
    pub fn rollback(&self) -> RecoveryStats {
        let used = self.used();
        let mut stats = RecoveryStats::default();
        if used == 0 {
            // Nothing to undo, and nothing to truncate: `used` is only
            // stored under the transaction lock and every store of it is
            // flushed and fenced, so a 0 read here is already durable.
            return stats;
        }
        // Forward scan to collect entry offsets, then apply in reverse so
        // the oldest snapshot of any doubly-logged range wins.
        let mut offs = Vec::new();
        let mut pos = 0u64;
        while pos + ENTRY_HEADER_SIZE <= used {
            let entry = self.region.ptr_at(self.log_off + LOG_HEADER_SIZE + pos) as *const u64;
            // SAFETY: pos + header <= used <= capacity.
            let (data_off, len, crc) = unsafe { (*entry, *entry.add(1), *entry.add(2)) };
            if !self.entry_intact(pos, data_off, len) {
                stats.truncated = true;
                break;
            }
            // SAFETY: span validated against `used` by entry_intact.
            let payload = unsafe {
                std::slice::from_raw_parts(
                    (entry as *const u8).add(ENTRY_HEADER_SIZE as usize),
                    len as usize,
                )
            };
            if entry_crc(data_off, len, payload) == crc {
                offs.push(pos);
            } else {
                stats.skipped += 1;
            }
            pos += Self::entry_span(len);
        }
        for &pos in offs.iter().rev() {
            let entry = self.region.ptr_at(self.log_off + LOG_HEADER_SIZE + pos) as *const u64;
            // SAFETY: entry header and target range validated by the scan.
            unsafe {
                let data_off = *entry;
                let len = *entry.add(1);
                std::ptr::copy_nonoverlapping(
                    (entry as *const u8).add(ENTRY_HEADER_SIZE as usize),
                    self.region.ptr_at(data_off) as *mut u8,
                    len as usize,
                );
                shadow::track_store(self.region.ptr_at(data_off), len as usize);
                latency::clflush_range(self.region.ptr_at(data_off), len as usize);
            }
        }
        stats.applied = offs.len() as u64;
        nvmsim::metrics::add(nvmsim::metrics::Counter::RecoverySkips, stats.skipped);
        latency::wbarrier();
        self.truncate();
        stats
    }

    /// Truncates the log (the commit point of a transaction).
    pub fn truncate(&self) {
        // SAFETY: used word is inside the mapped region.
        unsafe { self.used_ptr().write(0) };
        shadow::track_store(self.used_ptr() as usize, 8);
        latency::clflush_range(self.used_ptr() as usize, 8);
        latency::wbarrier();
    }

    /// Number of intact entries currently logged (diagnostic). As in
    /// [`UndoLog::rollback`], the scan stops at the first malformed entry.
    pub fn entry_count(&self) -> usize {
        let used = self.used();
        let mut n = 0;
        let mut pos = 0u64;
        while pos + ENTRY_HEADER_SIZE <= used {
            let entry = self.region.ptr_at(self.log_off + LOG_HEADER_SIZE + pos) as *const u64;
            // SAFETY: as in rollback.
            let (data_off, len) = unsafe { (*entry, *entry.add(1)) };
            if !self.entry_intact(pos, data_off, len) {
                break;
            }
            pos += Self::entry_span(len);
            n += 1;
        }
        n
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
        assert!(!log.is_dirty());
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
        log.truncate();
        assert_eq!(log.entry_count(), 0);
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

    #[test]
    fn rollback_skips_checksum_failing_entries() {
        let (region, log, data) = setup();
        let data2 = region.alloc(64, 8).unwrap().as_ptr() as *mut u64;
        unsafe {
            data.write(1);
            data2.write(2);
            log.append(data as usize, 8).unwrap();
            log.append(data2 as usize, 8).unwrap();
            data.write(91);
            data2.write(92);
            // Rot the first entry's payload byte: its snapshot can no
            // longer be trusted and must not be replayed.
            let payload0 = region.ptr_at(log.log_off + LOG_HEADER_SIZE + ENTRY_HEADER_SIZE);
            *(payload0 as *mut u8) ^= 0xFF;
            let stats = log.rollback();
            assert_eq!(stats.applied, 1);
            assert_eq!(stats.skipped, 1);
            assert!(!stats.truncated);
            assert!(stats.degraded());
            assert_eq!(data.read(), 91, "rotted snapshot not replayed");
            assert_eq!(data2.read(), 2, "intact snapshot restored");
        }
        assert!(!log.is_dirty());
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
        assert!(!stats.degraded());
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
