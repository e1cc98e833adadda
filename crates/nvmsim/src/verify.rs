//! Corruption walk, metadata slots, and salvage for region images.
//!
//! The paper's region metadata (magic/version/RID/root directory/allocator
//! state) is the single point of failure of a persisted image: one rotted
//! cache line in the first kilobyte used to turn the whole region into a
//! brick. This module hardens it in three layers:
//!
//! * **Checksummed A/B metadata slots.** Every durability point snapshots
//!   the header (identity words, root directory, allocator state — the
//!   bytes up to [`RegionHeader::snapshot_len`]) into the *inactive* of two
//!   1 KiB slots, appends a monotonically increasing sequence number, and
//!   seals both under a CRC-64. A torn slot write leaves the other slot
//!   intact; the newest slot that checks out is the *active* one.
//! * **[`verify_bytes`] — the corruption walk.** Checks the primary header
//!   (boot words, root-directory decode and bounds, allocator frontier),
//!   the bitmap chain, both slots, and — when a `pstore` store is present
//!   — every undo-log entry checksum. Purely diagnostic, never panics,
//!   works on a mapped region and on a plain file alike. An open runs
//!   it without the bitmap chain and the undo log.
//! * **`salvage_in_place` — repair** (crate-internal, driven by
//!   [`Region::open_file_salvage`](crate::Region::open_file_salvage)).
//!   Restores a damaged primary from
//!   the active slot, pins the header geometry to the mapped length,
//!   quarantines root entries that still fail to verify, and freezes an
//!   unverifiable allocator so further allocation fails cleanly instead of
//!   double-serving memory.
//!
//! Every byte offset comes from the `offset_of!` tables next to
//! [`RegionHeader`] and [`AllocHeader`]; every other on-media format met
//! on the way is read by the decoder of the module that writes it
//! (`llalloc::walk_chain`, [`undolog::scan_image`]).

use crate::alloc::AllocHeader;
use crate::crc::crc64_update;
use crate::error::{NvError, Result};
use crate::llalloc::{self, Walked};
use crate::read_u64;
use crate::region::{
    decode_root_name, RegionHeader, HEADER_VERSION, MAX_ROOTS, META_SLOT_COUNT, META_SLOT_SIZE,
    REGION_MAGIC, ROOT_NAME_CAP,
};
use crate::undolog::{self, LogSummary};
use std::fmt;
use std::path::Path;

const OFF_FLAGS: usize = RegionHeader::OFF_FLAGS;
const OFF_ALLOC: usize = RegionHeader::OFF_ALLOC;

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

fn write_u64(bytes: &mut [u8], off: usize, v: u64) {
    bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn slot_off(i: usize) -> usize {
    RegionHeader::meta_slots_off() as usize + i * META_SLOT_SIZE
}

fn slot_name(i: usize) -> char {
    (b'A' + i as u8) as char
}

/// CRC-64 sealing a slot: covers the snapshot payload and the sequence
/// number, so neither can rot (or tear) undetected.
fn slot_crc(payload: &[u8], seq: u64) -> u64 {
    let state = crc64_update(!0, payload);
    crc64_update(state, &seq.to_le_bytes()) ^ !0
}

/// The header snapshot with its flags word zeroed: the dirty bit flips
/// outside any slot update, so snapshots are compared and checksummed
/// flags-blind.
fn normalized_primary(bytes: &[u8]) -> Vec<u8> {
    let mut snap = bytes[..RegionHeader::snapshot_len()].to_vec();
    snap[OFF_FLAGS..OFF_FLAGS + 8].fill(0);
    snap
}

/// Integrity state of one metadata slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// All-zero slot: never written (only slot B of a never-synced image).
    Empty,
    /// Sequence number nonzero and CRC-64 checks out.
    Valid,
    /// Anything else — torn write or bit rot.
    Corrupt,
}

/// What the corruption walk found in one metadata slot.
#[derive(Debug, Clone, Copy)]
pub struct SlotStatus {
    /// Integrity of the slot.
    pub state: SlotState,
    /// The slot's sequence number (0 when empty).
    pub seq: u64,
    /// Whether the slot payload equals the (flags-normalized) primary
    /// header. Meaningful only for valid slots.
    pub matches_primary: bool,
}

/// A root-directory entry that failed to verify.
#[derive(Debug, Clone)]
pub struct RootIssue {
    /// Index of the entry in the directory.
    pub index: usize,
    /// Best-effort (lossy) rendering of the name bytes.
    pub name: String,
    /// Why the entry was rejected.
    pub reason: String,
}

/// Structured result of the corruption walk over one region image.
///
/// Produced by [`verify_bytes`] / [`verify_file`] / `Region::verify`, and
/// (with `repairs` and `quarantined_roots` filled in) by
/// `Region::open_file_salvage`.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Length of the image in bytes.
    pub file_len: u64,
    /// The region ID the boot block claims (reported even when damaged).
    pub rid: Option<u32>,
    /// Whether the image was cleanly closed (dirty flag clear).
    pub clean: bool,
    /// Boot-block problems: magic, version, declared size vs file length.
    pub boot_errors: Vec<String>,
    /// Allocator-metadata problems: bump/end geometry.
    pub alloc_errors: Vec<String>,
    /// Bitmap-allocator problems: a missing directory, page-chain
    /// structure, descriptor geometry, and (on clean images) page CRCs.
    /// The bitmap pages live in the data area, so no
    /// metadata slot can restore them: these count against
    /// [`healthy`](Self::healthy) but not [`primary_ok`](Self::primary_ok).
    /// `Region::open_file` refuses structural damage and salvage opens it
    /// with allocation frozen.
    pub llalloc_errors: Vec<String>,
    /// Root-directory entries that failed to decode or point out of
    /// bounds.
    pub root_errors: Vec<RootIssue>,
    /// Per-slot integrity (length [`META_SLOT_COUNT`]).
    pub slots: Vec<SlotStatus>,
    /// Index of the newest valid slot, if any.
    pub active_slot: Option<usize>,
    /// Whether both slots are valid and carry identical payloads (the
    /// signature of a clean close, which converges them).
    pub slots_agree: bool,
    /// Whether the active slot's payload equals the normalized primary
    /// header (`None` when no slot is valid).
    pub primary_matches_active: Option<bool>,
    /// Undo-log entry checksums, when a `pstore` store is present and its
    /// metadata is reachable.
    pub undo_log: Option<LogSummary>,
    /// Repairs applied (salvage only; empty for the diagnostic walk).
    pub repairs: Vec<String>,
    /// Root entries dropped as unverifiable (salvage only).
    pub quarantined_roots: Vec<String>,
}

impl VerifyReport {
    /// Whether the boot block (magic, version, geometry) checks out.
    pub fn boot_ok(&self) -> bool {
        self.boot_errors.is_empty()
    }

    /// Whether the allocator metadata checks out.
    pub fn alloc_ok(&self) -> bool {
        self.alloc_errors.is_empty()
    }

    /// Whether the primary header as a whole (boot block, root directory,
    /// allocator) is structurally valid — the region is usable without
    /// slot assistance.
    pub fn primary_ok(&self) -> bool {
        self.boot_ok() && self.alloc_ok() && self.root_errors.is_empty()
    }

    /// Whether the image shows no damage at all: valid primary, no
    /// corrupt slot, an active slot present, a clean image's primary in
    /// agreement with it, and a log area inside the image.
    pub fn healthy(&self) -> bool {
        self.primary_ok()
            && self.llalloc_errors.is_empty()
            && self.slots.iter().all(|s| s.state != SlotState::Corrupt)
            && self.active_slot.is_some()
            && (!self.clean || self.primary_matches_active == Some(true))
            && self.undo_log.is_none_or(|l| !l.out_of_bounds)
            && self.quarantined_roots.is_empty()
    }

    /// One-line summary of everything wrong, for error payloads.
    pub fn damage_summary(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        parts.extend(self.boot_errors.iter().cloned());
        parts.extend(self.alloc_errors.iter().cloned());
        parts.extend(self.llalloc_errors.iter().cloned());
        for r in &self.root_errors {
            parts.push(format!("root {} ({:?}): {}", r.index, r.name, r.reason));
        }
        for (i, s) in self.slots.iter().enumerate() {
            if s.state == SlotState::Corrupt {
                parts.push(format!("metadata slot {} corrupt", slot_name(i)));
            }
        }
        if self.undo_log.is_some_and(|l| l.out_of_bounds) {
            parts.push("undo-log area lies outside the image".to_string());
        }
        if parts.is_empty() {
            "no damage".to_string()
        } else {
            parts.join("; ")
        }
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "image:      {} bytes, rid {}, {}",
            self.file_len,
            self.rid.map_or("?".to_string(), |r| r.to_string()),
            if self.clean { "clean" } else { "dirty" }
        )?;
        if self.primary_ok() {
            writeln!(f, "primary:    ok (boot, root directory, allocator)")?;
        } else {
            writeln!(f, "primary:    DAMAGED")?;
            for e in &self.boot_errors {
                writeln!(f, "  boot:     {e}")?;
            }
            for e in &self.alloc_errors {
                writeln!(f, "  alloc:    {e}")?;
            }
            for r in &self.root_errors {
                writeln!(f, "  root {:2}:  {:?}: {}", r.index, r.name, r.reason)?;
            }
        }
        if self.llalloc_errors.is_empty() {
            writeln!(f, "bitmap:     ok")?;
        } else {
            writeln!(f, "bitmap:     DAMAGED")?;
            for e in &self.llalloc_errors {
                writeln!(f, "  llalloc:  {e}")?;
            }
        }
        for (i, s) in self.slots.iter().enumerate() {
            let state = match s.state {
                SlotState::Empty => "empty".to_string(),
                SlotState::Corrupt => "CORRUPT".to_string(),
                SlotState::Valid => format!(
                    "valid, seq {}{}{}",
                    s.seq,
                    if self.active_slot == Some(i) {
                        ", active"
                    } else {
                        ""
                    },
                    if s.matches_primary {
                        ", matches primary"
                    } else {
                        ""
                    }
                ),
            };
            writeln!(f, "slot {}:     {state}", slot_name(i))?;
        }
        match self.undo_log {
            Some(l) => writeln!(f, "undo log:   {l}")?,
            None => writeln!(f, "undo log:   none (no pstore store reachable)")?,
        }
        for r in &self.repairs {
            writeln!(f, "repaired:   {r}")?;
        }
        for q in &self.quarantined_roots {
            writeln!(f, "quarantined: {q}")?;
        }
        write!(
            f,
            "verdict:    {}",
            if self.healthy() {
                "healthy"
            } else if self.primary_ok() || self.active_slot.is_some() {
                "damaged (recoverable)"
            } else {
                "damaged (unrecoverable)"
            }
        )
    }
}

fn parse_slot(bytes: &[u8], i: usize) -> (SlotState, u64) {
    let snap = RegionHeader::snapshot_len();
    let off = slot_off(i);
    let area = &bytes[off..off + snap + 16];
    let seq = read_u64(area, snap);
    let crc = read_u64(area, snap + 8);
    if seq == 0 && crc == 0 && area[..snap].iter().all(|&b| b == 0) {
        return (SlotState::Empty, 0);
    }
    if seq != 0 && slot_crc(&area[..snap], seq) == crc {
        (SlotState::Valid, seq)
    } else {
        (SlotState::Corrupt, seq)
    }
}

/// The active slot among parsed slots (in slot order): the valid one with
/// the highest sequence number, as `(index, seq)`.
fn newest_valid(slots: impl IntoIterator<Item = (SlotState, u64)>) -> Option<(usize, u64)> {
    let valid = slots
        .into_iter()
        .enumerate()
        .filter(|&(_, (state, _))| state == SlotState::Valid);
    valid.fold(None, |best: Option<(usize, u64)>, (i, (_, seq))| {
        if best.is_none_or(|(_, newest)| seq > newest) {
            Some((i, seq))
        } else {
            best
        }
    })
}

/// The boot words of an image — everything in front of the root
/// directory — and what is wrong with them.
#[derive(Debug, Clone)]
pub(crate) struct BootBlock {
    pub version: u32,
    pub rid: u32,
    pub size: u64,
    pub flags: u64,
    pub capacity: u64,
    /// Magic, version and size-vs-file-length problems: with any of
    /// these the primary cannot say how to map the image.
    pub errors: Vec<String>,
}

impl BootBlock {
    /// Whether the image was cleanly closed (dirty flag clear).
    pub fn clean(&self) -> bool {
        self.flags & 1 == 0
    }

    /// A capacity word below the size. Kept apart from `errors` because
    /// the open path survives it (the slots carry a checksummed copy).
    pub fn capacity_error(&self) -> Option<String> {
        (self.capacity < self.size).then(|| {
            format!(
                "header capacity {} below its size {}",
                self.capacity, self.size
            )
        })
    }
}

/// The one boot-block check, shared by the pre-map validation of
/// `Region::open_file`, the corruption walk and offline inspection.
/// `head` holds the first bytes of a `file_len`-byte image; it is only
/// read once `file_len` is known to be large enough for a region, so a
/// short file never indexes out of it.
///
/// # Errors
///
/// The message for a file too small to be a region image at all.
pub(crate) fn read_boot(head: &[u8], file_len: u64) -> std::result::Result<BootBlock, String> {
    let min_len = RegionHeader::min_image_len();
    if file_len < min_len {
        return Err(format!(
            "file of {file_len} bytes is too small for a v{HEADER_VERSION} region (minimum {min_len})"
        ));
    }
    let mut boot = BootBlock {
        version: read_u32(head, RegionHeader::OFF_VERSION),
        rid: read_u32(head, RegionHeader::OFF_RID),
        size: read_u64(head, RegionHeader::OFF_SIZE),
        flags: read_u64(head, OFF_FLAGS),
        capacity: read_u64(head, RegionHeader::OFF_CAPACITY),
        errors: Vec::new(),
    };
    let magic = read_u64(head, RegionHeader::OFF_MAGIC);
    if magic != REGION_MAGIC {
        boot.errors.push(format!("bad magic {magic:#x}"));
    }
    if boot.version != HEADER_VERSION {
        boot.errors
            .push(format!("unsupported version {}", boot.version));
    }
    if boot.size != file_len {
        boot.errors.push(format!(
            "header size {} != file length {file_len}",
            boot.size
        ));
    }
    Ok(boot)
}

/// One used entry of an image's root directory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RootRecord<'a> {
    /// Index of the entry in the directory.
    pub index: usize,
    raw_name: &'a [u8; ROOT_NAME_CAP + 1],
    /// Offset the root points at.
    pub offset: u64,
    /// Application type tag (0 = untagged).
    pub type_tag: u64,
}

impl<'a> RootRecord<'a> {
    /// The entry's name, or why it does not decode.
    pub fn name(&self) -> std::result::Result<&'a str, &'static str> {
        decode_root_name(self.raw_name)
    }

    /// Best-effort (lossy) rendering of the name bytes, for reports.
    pub fn label(&self) -> String {
        match self.raw_name.iter().position(|&b| b == 0) {
            Some(n) => String::from_utf8_lossy(&self.raw_name[..n]).into_owned(),
            None => format!("{}…", String::from_utf8_lossy(&self.raw_name[..8])),
        }
    }
}

/// The one byte-level walk of the root directory: every used entry of
/// the image in `bytes` (at least a header long), decodable or not.
pub(crate) fn root_entries(bytes: &[u8]) -> impl Iterator<Item = RootRecord<'_>> {
    (0..MAX_ROOTS).filter_map(move |index| {
        let off = RegionHeader::OFF_ROOTS + index * RegionHeader::ROOT_ENTRY_SIZE;
        let raw_name: &[u8; ROOT_NAME_CAP + 1] = bytes[off..off + ROOT_NAME_CAP + 1]
            .try_into()
            .expect("name field");
        (raw_name[0] != 0).then(|| RootRecord {
            index,
            raw_name,
            offset: read_u64(bytes, off + RegionHeader::ROOT_OFF_OFFSET),
            type_tag: read_u64(bytes, off + RegionHeader::ROOT_OFF_TAG),
        })
    })
}

/// Every used root entry that fails to decode or points outside the
/// data area.
fn check_roots(bytes: &[u8], issues: &mut Vec<RootIssue>) {
    let data_start = RegionHeader::data_start();
    let file_len = bytes.len() as u64;
    for root in root_entries(bytes) {
        let reason = match root.name() {
            Err(why) => why.to_string(),
            Ok(_) if !RegionHeader::in_data(root.offset, file_len) => format!(
                "offset {} outside the data area [{data_start}, {file_len})",
                root.offset
            ),
            Ok(_) => continue,
        };
        issues.push(RootIssue {
            index: root.index,
            name: root.label(),
            reason,
        });
    }
}

/// Structural allocator check (see [`AllocHeader::check`]).
fn check_alloc(bytes: &[u8], errors: &mut Vec<String>) {
    let alloc = AllocHeader::from_bytes(&bytes[OFF_ALLOC..]);
    if let Err(e) = alloc.check(bytes.len() as u64, RegionHeader::data_start()) {
        errors.push(e.to_string());
    }
}

/// Corruption walk over the two-level bitmap allocator's on-media pages:
/// the structural findings of [`llalloc::walk_chain`], plus — on clean
/// images only, because only a clean close seals them — each page's
/// CRC-64.
fn check_llalloc(bytes: &[u8], clean: bool, errors: &mut Vec<String>) {
    let ll_dir = AllocHeader::from_bytes(&bytes[OFF_ALLOC..]).ll_dir();
    llalloc::walk_chain(bytes, ll_dir, |walked| match walked {
        Walked::Issue(issue) => errors.push(issue),
        Walked::Page { off, bytes } if clean && !llalloc::page_sealed(bytes) => {
            errors.push(format!(
                "bitmap page at {off:#x} fails its CRC (clean image)"
            ));
        }
        Walked::Page { .. } | Walked::Subtree(_) => {}
    });
}

/// The undo log of the image's `pstore` store, found through the
/// [`undolog::STORE_ROOT`] root and walked by [`undolog::scan_image`].
/// `None` when no intact root of that name leads to a plausible store
/// (including when the region simply has no store).
pub(crate) fn image_log(bytes: &[u8]) -> Option<LogSummary> {
    let meta = root_entries(bytes).find(|r| r.name() == Ok(undolog::STORE_ROOT))?;
    undolog::scan_image(bytes, meta.offset, RegionHeader::data_start())
}

/// Runs the full corruption walk over a region image. Never panics and
/// never modifies `bytes`; every problem lands in the returned report.
pub fn verify_bytes(bytes: &[u8]) -> VerifyReport {
    walk(bytes, true)
}

/// The corruption walk; without `full`, the part an open decides by.
pub(crate) fn walk(bytes: &[u8], full: bool) -> VerifyReport {
    let mut report = VerifyReport {
        file_len: bytes.len() as u64,
        ..VerifyReport::default()
    };
    let boot = match read_boot(bytes, bytes.len() as u64) {
        Ok(boot) => boot,
        Err(too_small) => {
            report.boot_errors.push(too_small);
            return report;
        }
    };
    report.rid = Some(boot.rid);
    report.clean = boot.clean();
    let capacity_error = boot.capacity_error();
    report.boot_errors = boot.errors;
    report.boot_errors.extend(capacity_error);
    check_roots(bytes, &mut report.root_errors);
    check_alloc(bytes, &mut report.alloc_errors);
    if full {
        check_llalloc(bytes, report.clean, &mut report.llalloc_errors);
        report.undo_log = image_log(bytes);
    }

    let primary = normalized_primary(bytes);
    let snap = RegionHeader::snapshot_len();
    for i in 0..META_SLOT_COUNT {
        let (state, seq) = parse_slot(bytes, i);
        let off = slot_off(i);
        let matches_primary = state == SlotState::Valid && bytes[off..off + snap] == primary[..];
        report.slots.push(SlotStatus {
            state,
            seq,
            matches_primary,
        });
    }
    report.active_slot =
        newest_valid(report.slots.iter().map(|s| (s.state, s.seq))).map(|(i, _)| i);
    report.slots_agree =
        report.slots.iter().all(|s| s.state == SlotState::Valid) && META_SLOT_COUNT >= 2 && {
            let a = slot_off(0);
            let b = slot_off(1);
            bytes[a..a + snap] == bytes[b..b + snap]
        };
    report.primary_matches_active = report.active_slot.map(|i| report.slots[i].matches_primary);
    report
}

/// [`verify_bytes`] over a file on disk, without mapping it.
///
/// # Errors
///
/// I/O errors reading the file. Damage is *not* an error — it is the
/// report's content.
pub fn verify_file<P: AsRef<Path>>(path: P) -> Result<VerifyReport> {
    let data = std::fs::read(path)?;
    Ok(verify_bytes(&data))
}

/// The header word at `off` as the newest valid metadata slot holds it,
/// for the pre-map checks of an open (the capacity of an implausible
/// primary, the size of a crashed growth). `bytes` must hold at least the
/// full slot area (`RegionHeader::data_start()` bytes).
pub(crate) fn slot_word(bytes: &[u8], off: usize) -> Option<u64> {
    let (active, _) = newest_valid((0..META_SLOT_COUNT).map(|i| parse_slot(bytes, i)))?;
    Some(read_u64(bytes, slot_off(active) + off))
}

/// Composes the current header snapshot into the *inactive* metadata slot
/// with the next sequence number and its CRC-64, returning the byte range
/// written (`(offset, len)`) so the caller can flush and fence it. The
/// write order within the slot does not matter for correctness: the slot
/// only becomes active once its CRC seals seq+payload, so any torn state
/// parses as `Corrupt` and the previously active slot still wins.
///
/// Returns `None` when `bytes` cannot hold the slot area.
pub(crate) fn stage_next_slot(bytes: &mut [u8]) -> Option<(usize, usize)> {
    let snap = RegionHeader::snapshot_len();
    if bytes.len() < RegionHeader::data_start() as usize {
        return None;
    }
    let (target, seq) = match newest_valid((0..META_SLOT_COUNT).map(|i| parse_slot(bytes, i))) {
        Some((i, s)) => ((i + 1) % META_SLOT_COUNT, s + 1),
        None => (0, 1),
    };
    let off = slot_off(target);
    bytes.copy_within(0..snap, off);
    bytes[off + OFF_FLAGS..off + OFF_FLAGS + 8].fill(0);
    let seq_bytes = seq.to_le_bytes();
    bytes[off + snap..off + snap + 8].copy_from_slice(&seq_bytes);
    let crc = slot_crc(&bytes[off..off + snap], seq);
    bytes[off + snap + 8..off + snap + 16].copy_from_slice(&crc.to_le_bytes());
    Some((off, snap + 16))
}

/// Overwrites the primary header snapshot with slot `slot`'s payload.
/// The caller re-verifies afterwards; the restored flags word is the
/// normalized (zero) one, so the image reads as clean until the caller
/// marks it otherwise.
pub(crate) fn restore_slot(bytes: &mut [u8], slot: usize) {
    let snap = RegionHeader::snapshot_len();
    let off = slot_off(slot);
    bytes.copy_within(off..off + snap, 0);
}

/// Repairs a damaged image in place (in the caller's private mapping):
/// restore from the active slot, pin the header geometry to the mapped
/// length, quarantine unverifiable roots, freeze an unverifiable
/// allocator, and mark the image dirty so recovery layers run.
///
/// # Errors
///
/// [`NvError::BadImage`] when the boot block is damaged and no valid slot
/// exists, or when the primary still fails verification after repair.
pub(crate) fn salvage_in_place(bytes: &mut [u8]) -> Result<VerifyReport> {
    let mut repairs: Vec<String> = Vec::new();
    let first = verify_bytes(bytes);
    if !first.primary_ok() {
        if let Some(s) = first.active_slot {
            restore_slot(bytes, s);
            repairs.push(format!(
                "restored primary metadata from slot {} (seq {})",
                slot_name(s),
                first.slots[s].seq
            ));
        } else if !first.boot_ok() {
            return Err(NvError::BadImage(format!(
                "unsalvageable image (boot block damaged, no valid metadata slot): {}",
                first.damage_summary()
            )));
        }
        // Root-directory or allocator damage without a usable slot falls
        // through to quarantine / freeze below.
    }
    // The mapped length is the one geometry fact that cannot lie; a
    // size-lying (or truncated) header is pinned to it.
    if read_u64(bytes, RegionHeader::OFF_SIZE) != bytes.len() as u64 {
        write_u64(bytes, RegionHeader::OFF_SIZE, bytes.len() as u64);
        repairs.push(format!(
            "header size pinned to mapped length {}",
            bytes.len()
        ));
    }
    if read_u64(bytes, RegionHeader::OFF_CAPACITY) < bytes.len() as u64 {
        write_u64(bytes, RegionHeader::OFF_CAPACITY, bytes.len() as u64);
        repairs.push(format!(
            "header capacity pinned to mapped length {}",
            bytes.len()
        ));
    }
    let mid = verify_bytes(bytes);
    let mut quarantined = Vec::new();
    for issue in &mid.root_errors {
        let off = RegionHeader::OFF_ROOTS + issue.index * RegionHeader::ROOT_ENTRY_SIZE;
        bytes[off..off + RegionHeader::ROOT_ENTRY_SIZE].fill(0);
        quarantined.push(format!(
            "root {} ({:?}): {}",
            issue.index, issue.name, issue.reason
        ));
    }
    if !quarantined.is_empty() {
        repairs.push(format!(
            "quarantined {} unverifiable root directory entr{}",
            quarantined.len(),
            if quarantined.len() == 1 { "y" } else { "ies" }
        ));
    }
    if !mid.alloc_ok() {
        // Freeze: bump pinned to the end, so nothing new is carved over
        // whatever the rotted frontier no longer covers.
        let end = bytes.len() as u64;
        write_u64(bytes, OFF_ALLOC + AllocHeader::OFF_BUMP, end);
        write_u64(bytes, OFF_ALLOC + AllocHeader::OFF_END, end);
        repairs.push(
            "allocator frontier unverifiable: growth frozen (bump pinned to end)".to_string(),
        );
    }
    if !mid.llalloc_errors.is_empty() {
        // Nothing is written: the session gets an allocator that serves
        // nothing (see `Region::open_file_salvage`), and the chain stays
        // as found for whoever inspects the image next.
        repairs.push(format!(
            "bitmap allocator unverifiable ({}): allocation frozen",
            mid.llalloc_errors.join("; ")
        ));
    }
    // A salvaged image must run recovery layers regardless of what the
    // restored flags claim.
    bytes[OFF_FLAGS] |= 1;
    let mut last = verify_bytes(bytes);
    if !last.primary_ok() {
        return Err(NvError::BadImage(format!(
            "unsalvageable image (primary still invalid after repair): {}",
            last.damage_summary()
        )));
    }
    last.repairs = repairs;
    last.quarantined_roots = quarantined;
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;
    use std::path::PathBuf;

    const OFF_ROOTS: usize = RegionHeader::OFF_ROOTS;
    const OFF_ALLOC_BUMP: usize = OFF_ALLOC + AllocHeader::OFF_BUMP;
    const OFF_ALLOC_END: usize = OFF_ALLOC + AllocHeader::OFF_END;
    const OFF_ALLOC_LL_DIR: usize = OFF_ALLOC + AllocHeader::OFF_LL_DIR;

    fn tmpfile(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "nvmsim-verify-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn build_image(name: &str) -> (PathBuf, Vec<u8>) {
        let path = tmpfile(name);
        let r = Region::create_file(&path, 1 << 20).unwrap();
        let p = r.alloc(64, 8).unwrap();
        r.set_root("head", p.as_ptr() as usize).unwrap();
        r.close().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    #[test]
    fn clean_image_verifies_healthy() {
        let (path, bytes) = build_image("healthy.nvr");
        let rep = verify_bytes(&bytes);
        assert!(rep.primary_ok(), "{}", rep.damage_summary());
        assert!(rep.healthy(), "{rep}");
        assert!(rep.clean);
        assert!(rep.slots_agree, "clean close converges both slots");
        assert_eq!(rep.primary_matches_active, Some(true));
        assert_eq!(rep.slots.len(), META_SLOT_COUNT);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stage_next_slot_alternates_and_bumps_seq() {
        let (path, mut bytes) = build_image("stage.nvr");
        let before: Vec<(SlotState, u64)> = (0..META_SLOT_COUNT)
            .map(|i| parse_slot(&bytes, i))
            .collect();
        let best = before.iter().map(|&(_, s)| s).max().unwrap();
        let (off1, len) = stage_next_slot(&mut bytes).unwrap();
        assert_eq!(len, RegionHeader::snapshot_len() + 16);
        let (off2, _) = stage_next_slot(&mut bytes).unwrap();
        assert_ne!(off1, off2, "consecutive stages alternate slots");
        let after: Vec<(SlotState, u64)> = (0..META_SLOT_COUNT)
            .map(|i| parse_slot(&bytes, i))
            .collect();
        assert!(after.iter().all(|&(st, _)| st == SlotState::Valid));
        assert_eq!(after.iter().map(|&(_, s)| s).max().unwrap(), best + 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotted_primary_restores_from_slot() {
        let (path, mut bytes) = build_image("restore.nvr");
        // Rot the magic: primary dies, slots untouched.
        bytes[0] ^= 0xFF;
        let rep = verify_bytes(&bytes);
        assert!(!rep.primary_ok());
        let active = rep.active_slot.expect("slots survive primary rot");
        restore_slot(&mut bytes, active);
        assert!(verify_bytes(&bytes).primary_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_slot_is_detected_and_other_slot_wins() {
        let (path, mut bytes) = build_image("slotrot.nvr");
        let a = slot_off(0);
        bytes[a + 100] ^= 0x40;
        let rep = verify_bytes(&bytes);
        assert_eq!(rep.slots[0].state, SlotState::Corrupt);
        assert_eq!(rep.slots[1].state, SlotState::Valid);
        assert_eq!(rep.active_slot, Some(1));
        assert!(!rep.slots_agree);
        assert!(!rep.healthy());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_quarantines_out_of_bounds_root() {
        let (path, mut bytes) = build_image("quarantine.nvr");
        // Point the first (only) root way outside the file, in both the
        // primary and the slots, so no checksummed copy can repair it.
        let entry = OFF_ROOTS + ROOT_NAME_CAP + 1;
        let poison = (bytes.len() as u64 + 4096).to_le_bytes();
        bytes[entry..entry + 8].copy_from_slice(&poison);
        for i in 0..META_SLOT_COUNT {
            let off = slot_off(i) + entry;
            bytes[off..off + 8].copy_from_slice(&poison);
            // Reseal the slot so the bad root is its checksummed truth.
            let s = slot_off(i);
            let snap = RegionHeader::snapshot_len();
            let seq = read_u64(&bytes, s + snap);
            let crc = slot_crc(&bytes[s..s + snap], seq);
            write_u64(&mut bytes, s + snap + 8, crc);
        }
        let rep = salvage_in_place(&mut bytes).unwrap();
        assert_eq!(rep.quarantined_roots.len(), 1, "{rep}");
        assert!(rep.primary_ok());
        let clean = verify_bytes(&bytes);
        assert!(clean.root_errors.is_empty());
        assert!(!clean.clean, "salvage marks the image dirty");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_freezes_unverifiable_allocator() {
        let (path, mut bytes) = build_image("freeze.nvr");
        // Rot the frontier in the primary AND both slots so the allocator
        // state has no good copy anywhere.
        let poison = 0x137u64.to_le_bytes(); // inside the header, below the data
        for base in std::iter::once(0).chain((0..META_SLOT_COUNT).map(slot_off)) {
            let off = base + OFF_ALLOC_BUMP;
            bytes[off..off + 8].copy_from_slice(&poison);
            if base != 0 {
                let snap = RegionHeader::snapshot_len();
                let seq = read_u64(&bytes, base + snap);
                let crc = slot_crc(&bytes[base..base + snap], seq);
                write_u64(&mut bytes, base + snap + 8, crc);
            }
        }
        assert!(!verify_bytes(&bytes).alloc_ok());
        let rep = salvage_in_place(&mut bytes).unwrap();
        assert!(rep.primary_ok(), "{rep}");
        assert!(rep.repairs.iter().any(|r| r.contains("frozen")), "{rep}");
        let frozen = verify_bytes(&bytes);
        assert!(frozen.alloc_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsalvageable_when_boot_and_slots_are_gone() {
        let (path, mut bytes) = build_image("gone.nvr");
        bytes[0] ^= 0xFF; // magic
        for i in 0..META_SLOT_COUNT {
            let off = slot_off(i);
            bytes[off + 200] ^= 0x01; // break both CRCs
        }
        assert!(matches!(
            salvage_in_place(&mut bytes),
            Err(NvError::BadImage(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitmap_rot_fails_health_but_not_primary() {
        let (path, mut bytes) = build_image("llrot.nvr");
        let ll_dir = read_u64(&bytes, OFF_ALLOC_LL_DIR) as usize;
        assert_ne!(ll_dir, 0, "default-created images carry a bitmap directory");
        // Flip an allocation bit in the first descriptor: the structure
        // stays plausible, but the clean image's page CRC (and the free
        // counter cross-check) must catch it.
        bytes[ll_dir + llalloc::DESC_SIZE + llalloc::D_BITMAP] ^= 0x01;
        let rep = verify_bytes(&bytes);
        assert!(rep.primary_ok(), "{}", rep.damage_summary());
        assert!(!rep.llalloc_errors.is_empty(), "{rep}");
        assert!(!rep.healthy(), "{rep}");
        assert!(
            rep.llalloc_errors.iter().any(|e| e.contains("CRC")),
            "{rep}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitmap_structural_rot_is_caught_even_when_dirty() {
        let (path, mut bytes) = build_image("llmagic.nvr");
        let ll_dir = read_u64(&bytes, OFF_ALLOC_LL_DIR) as usize;
        bytes[OFF_FLAGS] |= 1; // dirty: CRC/counter checks are off
        bytes[ll_dir] ^= 0xFF; // page magic
        let rep = verify_bytes(&bytes);
        assert!(
            rep.llalloc_errors.iter().any(|e| e.contains("magic")),
            "{rep}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn salvage_freezes_allocation_on_an_unverifiable_bitmap_chain() {
        let (path, mut bytes) = build_image("llfreeze.nvr");
        let ll_dir = read_u64(&bytes, OFF_ALLOC_LL_DIR) as usize;
        bytes[ll_dir + llalloc::DESC_SIZE + llalloc::D_META] = 0xff;
        let before = bytes.clone();
        let rep = salvage_in_place(&mut bytes).unwrap();
        assert!(rep.repairs.iter().any(|r| r.contains("frozen")), "{rep}");
        assert!(rep.primary_ok(), "{rep}");
        assert!(!rep.llalloc_errors.is_empty(), "the finding stays: {rep}");
        assert_eq!(
            bytes[RegionHeader::OFF_ROOTS..],
            before[RegionHeader::OFF_ROOTS..],
            "only the boot block's dirty flag is written"
        );
        // The session itself serves nothing.
        std::fs::write(&path, &before).unwrap();
        let (r, _) = Region::open_file_salvage(&path).unwrap();
        assert!(matches!(r.alloc(64, 8), Err(NvError::OutOfMemory { .. })));
        assert!(matches!(r.alloc(8192, 8), Err(NvError::OutOfMemory { .. })));
        assert_eq!(r.stats().live_allocs, 0);
        r.crash();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_image_without_a_directory_is_a_finding() {
        let (path, mut bytes) = build_image("nodir.nvr");
        write_u64(&mut bytes, OFF_ALLOC_LL_DIR, 0);
        let rep = verify_bytes(&bytes);
        assert!(
            rep.llalloc_errors
                .iter()
                .any(|e| e.contains("no bitmap allocator directory")),
            "{rep}"
        );
        assert!(!rep.healthy(), "{rep}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_never_reads_past_a_lying_alloc_end() {
        let (path, mut bytes) = build_image("liar.nvr");
        // An `end` far beyond the file must be reported, not chased.
        write_u64(&mut bytes, OFF_ALLOC_END, u64::MAX / 2);
        let rep = verify_bytes(&bytes);
        assert!(!rep.alloc_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_buffer_reports_instead_of_panicking() {
        let rep = verify_bytes(&[0u8; 64]);
        assert!(!rep.boot_ok());
        assert!(rep.active_slot.is_none());
    }
}
