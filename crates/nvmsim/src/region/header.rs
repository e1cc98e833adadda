//! The on-media region header and its named-root directory (the paper's
//! NVRoots): the field layout, the `OFF_*` table every byte-level reader
//! takes offsets from, and the root methods of [`Region`].

use super::Region;
use crate::alloc::AllocHeader;
use crate::error::{NvError, Result};
use crate::llalloc::{GRANULE, LL_PAGE_SIZE};
use crate::mem::align_up;
use crate::shadow::FaultStamp;
use std::mem::offset_of;

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

pub(crate) const FLAG_DIRTY: u64 = 1;

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

    /// Whether `off` lies in the data area of a `len`-byte image: the one
    /// test of a root's target, for the setters, the lookups and the
    /// corruption walk alike.
    pub fn in_data(off: u64, len: u64) -> bool {
        off >= Self::data_start() && off < len
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

    /// Writes a new region's header: its identity and geometry, dirty for
    /// the session, an empty root directory, and the allocator frontier
    /// over the data area.
    pub(super) fn format(&mut self, rid: u32, size: usize, capacity: usize) {
        self.magic = REGION_MAGIC;
        self.version = HEADER_VERSION;
        self.rid = rid;
        self.size = size as u64;
        self.flags = FLAG_DIRTY;
        self.capacity = capacity as u64;
        self.roots = [RootEntry {
            name: [0; ROOT_NAME_CAP + 1],
            offset: 0,
            type_tag: 0,
        }; MAX_ROOTS];
        self.alloc.init(Self::data_start(), size as u64);
        self.fault = FaultStamp::default();
    }
}

// A slot must hold the snapshot plus its trailing {seq, crc} pair.
const _: () = assert!(RegionHeader::OFF_FAULT + 16 <= META_SLOT_SIZE);

impl Region {
    /// Registers (or updates) a named root pointing at `addr`.
    ///
    /// # Errors
    ///
    /// [`NvError::AddressOutOfRange`] if `addr` is outside the region's
    /// data area (the header and metadata slots are not),
    /// [`NvError::RootNameTooLong`], [`NvError::RootDirectoryFull`]. A
    /// refused root leaves the directory as it was.
    pub fn set_root(&self, name: &str, addr: usize) -> Result<()> {
        self.set_root_entry(name, addr, None)
    }

    /// Registers (or updates) a named root with an application-defined
    /// type tag, letting consumers validate what kind of structure the
    /// root leads before dereferencing it.
    ///
    /// # Errors
    ///
    /// As [`Region::set_root`].
    pub fn set_root_tagged(&self, name: &str, addr: usize, type_tag: u64) -> Result<()> {
        self.set_root_entry(name, addr, Some(type_tag))
    }

    /// The type tag recorded for a named root (0 if untagged).
    pub fn root_tag(&self, name: &str) -> Option<u64> {
        self.root_entry(name).map(|e| e.type_tag)
    }

    /// Looks up a root and validates its type tag, returning the absolute
    /// address only when the tag matches.
    ///
    /// # Errors
    ///
    /// [`NvError::RootNotFound`] when absent; [`NvError::BadImage`] when
    /// the tag differs from `expected_tag`.
    pub fn root_checked(&self, name: &str, expected_tag: u64) -> Result<usize> {
        let entry = self
            .root_entry(name)
            .filter(|e| self.in_data(e.offset))
            .ok_or_else(|| NvError::RootNotFound(name.to_string()))?;
        if entry.type_tag != expected_tag {
            return Err(NvError::BadImage(format!(
                "root {name:?} has type tag {}, expected {}",
                tag_name(entry.type_tag),
                tag_name(expected_tag)
            )));
        }
        Ok(self.base() + entry.offset as usize)
    }

    /// Points the root `name` at `addr`, a new entry in the first free
    /// slot; `type_tag` replaces its tag (a new entry starts untagged).
    /// The one setter: an `addr` a lookup would not read back is refused.
    fn set_root_entry(&self, name: &str, addr: usize, type_tag: Option<u64>) -> Result<()> {
        let off = (addr as u64).wrapping_sub(self.base() as u64);
        if !self.in_data(off) {
            return Err(NvError::AddressOutOfRange { addr });
        }
        if name.len() > ROOT_NAME_CAP || name.is_empty() {
            return Err(NvError::RootNameTooLong(name.to_string()));
        }
        let mut hdr = self.lock_open()?;
        let mut slot = None;
        for (i, entry) in hdr.roots.iter().enumerate() {
            if entry.name[0] == 0 {
                slot = slot.or(Some((i, false)));
                continue;
            }
            // A corrupt entry must not be silently shadowed or clobbered:
            // surface the damage instead.
            let existing =
                decode_root_name(&entry.name).map_err(|why| NvError::BadImage(why.into()))?;
            if existing == name {
                slot = Some((i, true));
                break;
            }
        }
        let (i, existing) = slot.ok_or(NvError::RootDirectoryFull)?;
        let entry = &mut hdr.roots[i];
        if !existing {
            entry.name = [0; ROOT_NAME_CAP + 1];
            entry.name[..name.len()].copy_from_slice(name.as_bytes());
            entry.type_tag = 0;
        }
        entry.offset = off;
        if let Some(tag) = type_tag {
            entry.type_tag = tag;
        }
        Ok(())
    }

    /// Absolute address of the named root in this session, if present.
    pub fn root(&self, name: &str) -> Option<usize> {
        self.root_off(name).map(|off| self.base() + off as usize)
    }

    /// Offset of the named root, if present. Corrupt directory entries
    /// (undecodable name, offset outside the data area) match nothing;
    /// use [`Region::verify`] to surface them.
    pub fn root_off(&self, name: &str) -> Option<u64> {
        self.root_entry(name)
            .map(|e| e.offset)
            .filter(|&off| self.in_data(off))
    }

    /// Whether `off` lies in the committed data area.
    fn in_data(&self, off: u64) -> bool {
        RegionHeader::in_data(off, self.size() as u64)
    }

    /// The directory entry that decodes to `name`, copied out under the
    /// lock; `None` after close.
    fn root_entry(&self, name: &str) -> Option<RootEntry> {
        let hdr = self.lock_open().ok()?;
        hdr.roots.iter().find(|e| entry_matches(e, name)).copied()
    }

    /// Names of all registered roots.
    ///
    /// # Errors
    ///
    /// [`NvError::BadImage`] if any used directory entry fails to decode
    /// (corrupt name bytes) — the directory can then only be read through
    /// [`Region::verify`] / salvage; [`NvError::RegionClosed`] after close.
    pub fn roots(&self) -> Result<Vec<String>> {
        self.lock_open()?
            .roots
            .iter()
            .filter(|e| e.name[0] != 0)
            .map(|e| match decode_root_name(&e.name) {
                Ok(name) => Ok(name.to_string()),
                Err(why) => Err(NvError::BadImage(why.into())),
            })
            .collect()
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
