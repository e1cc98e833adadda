//! On-media format of a `pstore` store — its metadata block and its undo
//! log — and the one decoder of each.
//!
//! `pstore` writes both formats; it attaches through [`StoreMeta::decode`]
//! and recovers through [`scan`]. [`crate::verify`] and [`crate::inspect`]
//! read images through the same decoder and the same walk
//! ([`scan_image`]) and report its one summary ([`LogSummary`]), so the
//! formats live here, below all three.
//!
//! ```text
//! root "pstore.meta" → { magic "PSTOREV5", log_off, log_cap }   3 × u64
//!
//! log area  [log_off, log_off + log_cap)
//! +------------+-------+---------------------------------------+
//! | generation | (pad) | entry | entry | entry | ...           |
//! +------------+-------+---------------------------------------+
//!    u64          u64    each: { off, len, crc64, generation, bytes…, pad to 16 }
//! ```
//!
//! A range entry snapshots `len` bytes at region offset `off`. An
//! **allocator entry** is a header alone (32 bytes): `off` is a block's
//! offset and `len` carries [`BLOCK_TAG`], the block's size class and
//! whether the transaction allocated or freed it ([`BlockEntry`]). The
//! block's bitmap bit changes only after its entry is durable, so
//! rollback — which sets the bit back for a free and clears it for an
//! allocation — always restores the bit the transaction found.
//!
//! There is no persistent entry count. An entry is its own commit record:
//! it belongs to the log iff it carries the log's current generation and
//! its CRC-64 — whose register is *seeded* with that generation — checks
//! out, and the log is the longest run of such entries from the start of
//! the area. Truncation is one 8-byte store: bump the generation, and
//! every entry written before it stops validating.
//!
//! Why a seeded CRC cannot validate across generations: CRC-64 is affine
//! in its initial register, so for one message of one length two
//! different seeds always give two different checksums. A stale entry's
//! stored checksum was computed under seed `!g₀`; recomputing it under
//! `!g₁` over the same bytes cannot land on the same value. (The header's
//! generation word already tells the two apart; the seed makes a rotted
//! or torn generation word harmless as well.)

use crate::alloc::{CLASS_SIZES, MIN_ALIGN};
use crate::crc::crc64_update;
use crate::llalloc::{GRANULE, LARGE};
use crate::read_u64;

/// The `pstore` store magic. `PSTOREV5`: a v1 log kept a persistent
/// `used` word where the generation now lives, a v2 block kept two
/// object-list words where the log geometry now lives, a v3 store put
/// a 16-byte header in front of every object, so its published pointers
/// name the byte after a block's start, and a v4 log holds no allocator
/// entries, so a v4 reader would end a v5 log at the first one; each must
/// read as not formatted rather than be misparsed.
pub const STORE_MAGIC: u64 = u64::from_le_bytes(*b"PSTOREV5");
/// The region root naming a store's metadata block.
pub const STORE_ROOT: &str = "pstore.meta";
/// Byte overhead of the log-area header (`generation` + padding).
pub const LOG_HEADER_SIZE: u64 = 16;
/// Byte overhead of one entry's header (`off`, `len`, `crc64`,
/// `generation`).
pub const ENTRY_HEADER_SIZE: u64 = 32;
/// The bit of an entry's `len` word that makes it an allocator entry.
pub const BLOCK_TAG: u64 = 1 << 63;
const BLOCK_FREE: u64 = 1 << 8;

/// What a transaction did to the block an allocator entry names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOp {
    /// Allocated it: rollback clears its bitmap bit.
    Alloc,
    /// Freed it: rollback sets its bitmap bit.
    Free,
}

/// The decoded `len` word of an allocator entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Whether the block was allocated or freed.
    pub op: BlockOp,
    /// Its size class ([`LARGE`] for a block above the classes).
    pub class: usize,
}

impl BlockEntry {
    /// The entry for `op` on a block served for a `size`-byte request.
    pub fn for_size(op: BlockOp, size: usize) -> BlockEntry {
        let class = crate::alloc::class_for(size).unwrap_or(LARGE);
        BlockEntry { op, class }
    }

    /// The `len` word that encodes this entry.
    pub fn word(self) -> u64 {
        let free = if self.op == BlockOp::Free {
            BLOCK_FREE
        } else {
            0
        };
        BLOCK_TAG | free | self.class as u64
    }

    /// The entry an entry's `len` word encodes: `None` for a range
    /// entry's word, and for a tagged word with an unknown class or
    /// stray bits.
    pub fn decode(word: u64) -> Option<BlockEntry> {
        let class = (word & 0xff) as usize;
        let op = if word & BLOCK_FREE != 0 {
            BlockOp::Free
        } else {
            BlockOp::Alloc
        };
        (word & !(BLOCK_FREE | 0xff) == BLOCK_TAG && class <= LARGE)
            .then_some(BlockEntry { op, class })
    }

    /// Whether a block of this class can start at `off` in a region of
    /// `region_len` bytes: on the class's block alignment, with room for
    /// its smallest block.
    fn fits(self, off: u64, region_len: u64) -> bool {
        let (align, size) = match self.class {
            LARGE => (GRANULE, GRANULE),
            c => (MIN_ALIGN as u64, CLASS_SIZES[c] as u64),
        };
        off.is_multiple_of(align) && off.checked_add(size).is_some_and(|end| end <= region_len)
    }
}

/// The store metadata block [`STORE_ROOT`] points at, as `pstore` writes
/// it: three little-endian words.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMeta {
    /// [`STORE_MAGIC`] in a store of this format.
    pub magic: u64,
    /// Region offset of the undo-log area.
    pub log_off: u64,
    /// Capacity of the undo-log area in bytes.
    pub log_cap: u64,
}

impl StoreMeta {
    /// Bytes the block occupies.
    pub const SIZE: u64 = std::mem::size_of::<StoreMeta>() as u64;

    /// The block of a store whose log area is `[log_off, log_off + log_cap)`.
    pub fn new(log_off: u64, log_cap: u64) -> StoreMeta {
        StoreMeta {
            magic: STORE_MAGIC,
            log_off,
            log_cap,
        }
    }

    /// The block at `meta_off` of a region image, or `None` when it does
    /// not lie inside `[data_start, image.len())`. Nothing it holds is
    /// validated: the caller checks `magic` before trusting the rest, and
    /// the log geometry with [`StoreMeta::log_in_bounds`].
    pub fn decode(image: &[u8], meta_off: u64, data_start: u64) -> Option<StoreMeta> {
        let end = meta_off.checked_add(Self::SIZE)?;
        if meta_off < data_start || end > image.len() as u64 {
            return None;
        }
        let at = meta_off as usize;
        Some(StoreMeta {
            magic: read_u64(image, at),
            log_off: read_u64(image, at + 8),
            log_cap: read_u64(image, at + 16),
        })
    }

    /// Whether the log area is one `pstore` could have written: 16-byte
    /// aligned, inside `[data_start, len)`, and larger than its header and
    /// one entry header. Only then may anything read or write through it.
    pub fn log_in_bounds(&self, data_start: u64, len: u64) -> bool {
        self.log_off
            .checked_add(self.log_cap)
            .is_some_and(|end| end <= len)
            && self.log_off >= data_start
            && self.log_off.is_multiple_of(16)
            && self.log_cap > LOG_HEADER_SIZE + ENTRY_HEADER_SIZE
    }
}

/// The undo log of a store found in a region image by [`scan_image`]:
/// the one summary the corruption walk, offline inspection and their
/// reports share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogSummary {
    /// Region offset of the log area, as the store metadata gives it.
    pub log_off: u64,
    /// Capacity of the log area in bytes, likewise.
    pub log_cap: u64,
    /// The log's current generation (bumped by every truncation).
    pub generation: u64,
    /// Entries of that generation whose seeded CRC-64 checks out, counted
    /// from the start of the area up to the first that does not — what
    /// the next attach would roll back. (A damaged *entry* is not
    /// reported: it ends the log exactly like the torn tail of a crash.)
    pub entries: u64,
    /// How many of those entries are allocator entries.
    pub allocator_entries: u64,
    /// Bytes of the area those entries occupy.
    pub used: u64,
    /// Whether the log area fails [`StoreMeta::log_in_bounds`], so
    /// nothing could be walked.
    pub out_of_bounds: bool,
}

impl std::fmt::Display for LogSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "generation {}, {} entries ({} allocator) in {} bytes of {} at {:#x}{}",
            self.generation,
            self.entries,
            self.allocator_entries,
            self.used,
            self.log_cap,
            self.log_off,
            if self.out_of_bounds {
                " — AREA OUT OF BOUNDS"
            } else if self.used != 0 {
                " — recovery pending"
            } else {
                ""
            }
        )
    }
}

/// Finds and walks the undo log of the store whose metadata block sits at
/// `meta_off` of `image` — the offline readers' entry point. `data_start`
/// is the lowest offset application data can occupy: a store or a log
/// area that overlaps the region metadata below it is as implausible as
/// one that leaves the image. `None` when no store is there (block out of
/// bounds, or not [`STORE_MAGIC`]).
pub fn scan_image(image: &[u8], meta_off: u64, data_start: u64) -> Option<LogSummary> {
    let meta = StoreMeta::decode(image, meta_off, data_start).filter(|m| m.magic == STORE_MAGIC)?;
    let len = image.len() as u64;
    let (log_off, log_cap) = (meta.log_off, meta.log_cap);
    let scan = meta
        .log_in_bounds(data_start, len)
        .then(|| scan(&image[log_off as usize..(log_off + log_cap) as usize], len));
    Some(LogSummary {
        log_off,
        log_cap,
        generation: scan.as_ref().map_or(0, |s| s.generation),
        entries: scan.as_ref().map_or(0, |s| s.entries.len() as u64),
        allocator_entries: scan.as_ref().map_or(0, |s| {
            s.entries.iter().filter(|e| e.block.is_some()).count() as u64
        }),
        used: scan.as_ref().map_or(0, |s| s.bytes),
        out_of_bounds: scan.is_none(),
    })
}

/// Bytes an entry with a `len`-byte payload occupies (header + payload
/// padded to 16); `None` on overflow.
pub fn entry_span(len: u64) -> Option<u64> {
    (len.checked_add(15)? & !15).checked_add(ENTRY_HEADER_SIZE)
}

/// CRC-64 sealing one entry of a log at `generation`: covers the `off`
/// and `len` header words and the payload, with the generation as the
/// register's seed rather than as eight more bytes. `len` is the header
/// word as stored: an allocator entry's tagged word, with no payload.
pub fn entry_crc(generation: u64, data_off: u64, len: u64, payload: &[u8]) -> u64 {
    let mut head = [0u8; 16];
    head[..8].copy_from_slice(&data_off.to_le_bytes());
    head[8..].copy_from_slice(&len.to_le_bytes());
    crc64_update(crc64_update(!generation, &head), payload) ^ !0
}

/// One validated entry found by [`scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Offset of the entry's payload within the log area.
    pub payload: u64,
    /// Region offset of the range the payload snapshots, or of an
    /// allocator entry's block.
    pub data_off: u64,
    /// Length of that range (and of the payload) in bytes; 0 for an
    /// allocator entry.
    pub len: u64,
    /// What an allocator entry records; `None` for a range entry.
    pub block: Option<BlockEntry>,
}

/// What [`scan`] found in a log area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogScan {
    /// The log's current generation.
    pub generation: u64,
    /// The valid entries, oldest first.
    pub entries: Vec<LogEntry>,
    /// Bytes of the area those entries occupy (header excluded).
    pub bytes: u64,
}

/// Walks the log in `area` (the whole area, header included): every entry
/// from the start that carries the area's generation, stays inside the
/// area, targets a range inside `[0, region_len)` — for an allocator
/// entry, a block boundary of a known class — and passes its seeded CRC.
/// The first entry that fails any of these ends the log — after a crash
/// that is the torn or never-written tail; mid-log rot looks the same and
/// costs the entries behind it, never a replay of damaged bytes.
pub fn scan(area: &[u8], region_len: u64) -> LogScan {
    let mut out = LogScan {
        generation: 0,
        entries: Vec::new(),
        bytes: 0,
    };
    if (area.len() as u64) < LOG_HEADER_SIZE {
        return out;
    }
    out.generation = read_u64(area, 0);
    let mut pos = LOG_HEADER_SIZE;
    while pos + ENTRY_HEADER_SIZE <= area.len() as u64 {
        let at = pos as usize;
        let (data_off, word) = (read_u64(area, at), read_u64(area, at + 8));
        let payload = pos + ENTRY_HEADER_SIZE;
        let (len, block) = if word & BLOCK_TAG == 0 {
            (word, None)
        } else {
            match BlockEntry::decode(word).filter(|b| b.fits(data_off, region_len)) {
                Some(b) => (0, Some(b)),
                None => break,
            }
        };
        let fits = read_u64(area, at + 24) == out.generation
            && entry_span(len).is_some_and(|span| span <= area.len() as u64 - pos)
            && data_off
                .checked_add(len)
                .is_some_and(|end| end <= region_len);
        if !fits {
            break;
        }
        let bytes = &area[payload as usize..(payload + len) as usize];
        if entry_crc(out.generation, data_off, word, bytes) != read_u64(area, at + 16) {
            break;
        }
        out.entries.push(LogEntry {
            payload,
            data_off,
            len,
            block,
        });
        pos += entry_span(len).expect("checked above");
    }
    out.bytes = pos - LOG_HEADER_SIZE;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(area: &mut [u8], pos: usize, generation: u64, data_off: u64, payload: &[u8]) -> usize {
        let len = payload.len() as u64;
        area[pos..pos + 8].copy_from_slice(&data_off.to_le_bytes());
        area[pos + 8..pos + 16].copy_from_slice(&len.to_le_bytes());
        let crc = entry_crc(generation, data_off, len, payload);
        area[pos + 16..pos + 24].copy_from_slice(&crc.to_le_bytes());
        area[pos + 24..pos + 32].copy_from_slice(&generation.to_le_bytes());
        area[pos + 32..pos + 32 + payload.len()].copy_from_slice(payload);
        pos + entry_span(len).unwrap() as usize
    }

    /// Writes an allocator entry whose `len` word is `word` at `pos`.
    fn put_block(area: &mut [u8], pos: usize, generation: u64, off: u64, word: u64) -> usize {
        area[pos..pos + 8].copy_from_slice(&off.to_le_bytes());
        area[pos + 8..pos + 16].copy_from_slice(&word.to_le_bytes());
        let crc = entry_crc(generation, off, word, &[]);
        area[pos + 16..pos + 24].copy_from_slice(&crc.to_le_bytes());
        area[pos + 24..pos + 32].copy_from_slice(&generation.to_le_bytes());
        pos + ENTRY_HEADER_SIZE as usize
    }

    fn area_at(generation: u64) -> Vec<u8> {
        let mut area = vec![0u8; 512];
        area[..8].copy_from_slice(&generation.to_le_bytes());
        area
    }

    #[test]
    fn scan_stops_at_the_first_entry_that_does_not_validate() {
        let mut area = area_at(5);
        let p1 = put(&mut area, 16, 5, 1000, &[1; 8]);
        let p2 = put(&mut area, p1, 5, 2000, &[2; 24]);
        put(&mut area, p2, 5, 3000, &[3; 8]);
        let s = scan(&area, 1 << 20);
        assert_eq!(s.generation, 5);
        assert_eq!(s.entries.len(), 3);
        assert_eq!(s.entries[1].data_off, 2000);
        assert_eq!(s.entries[1].payload, p1 as u64 + 32);
        assert_eq!(s.bytes, 48 + 64 + 48);
        // Rot in the second entry ends the log there: the third, intact
        // and of this generation, is not reached.
        area[p1 + 40] ^= 1;
        let s = scan(&area, 1 << 20);
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.bytes, 48);
    }

    #[test]
    fn allocator_entries_are_headers_validated_against_the_region() {
        let alloc64 = BlockEntry {
            op: BlockOp::Alloc,
            class: crate::alloc::class_for(64).unwrap(),
        };
        let free_large = BlockEntry {
            op: BlockOp::Free,
            class: LARGE,
        };
        let mut area = area_at(4);
        let p1 = put(&mut area, 16, 4, 1000, &[1; 8]);
        let p2 = put_block(&mut area, p1, 4, 4096, alloc64.word());
        put_block(&mut area, p2, 4, 8192, free_large.word());
        let s = scan(&area, 1 << 20);
        assert_eq!(s.entries.len(), 3);
        assert_eq!(s.bytes, 48 + 32 + 32, "an allocator entry is its header");
        assert_eq!(s.entries[0].block, None);
        assert_eq!(
            (s.entries[1].data_off, s.entries[1].len, s.entries[1].block),
            (4096, 0, Some(alloc64))
        );
        assert_eq!(s.entries[2].block, Some(free_large));
        // Each of these ends the log at the allocator entry, whose CRC is
        // otherwise valid: an offset off the class's block alignment, a
        // block that leaves the region, an unknown class, stray bits.
        for (off, word) in [
            (4104, alloc64.word()),
            (4096 + 512, free_large.word()),
            ((1 << 20) - 32, alloc64.word()),
            (u64::MAX - 15, alloc64.word()),
            (4096, BLOCK_TAG | (LARGE as u64 + 1)),
            (4096, alloc64.word() | 1 << 20),
        ] {
            let mut area = area_at(4);
            let p1 = put(&mut area, 16, 4, 1000, &[1; 8]);
            put_block(&mut area, p1, 4, off, word);
            let s = scan(&area, 1 << 20);
            assert_eq!(s.entries.len(), 1, "{off:#x} / {word:#x}");
            assert_eq!(s.bytes, 48);
        }
    }

    #[test]
    fn entries_of_another_generation_never_validate() {
        let mut area = area_at(7);
        put(&mut area, 16, 6, 1000, &[9; 8]);
        assert!(scan(&area, 1 << 20).entries.is_empty());
        // Not by the generation word alone: relabel the stale entry and
        // its checksum, computed under the old seed, still refuses.
        area[16 + 24..16 + 32].copy_from_slice(&7u64.to_le_bytes());
        assert!(scan(&area, 1 << 20).entries.is_empty());
        for (a, b) in [(0u64, 1u64), (6, 7), (u64::MAX, 0)] {
            assert_ne!(
                entry_crc(a, 1000, 8, &[9; 8]),
                entry_crc(b, 1000, 8, &[9; 8])
            );
        }
    }

    #[test]
    fn implausible_headers_end_the_scan_without_reading_out_of_bounds() {
        for (data_off, len) in [(0, u64::MAX), (0, 4096), (u64::MAX, 8), (1 << 20, 8)] {
            let mut area = area_at(1);
            area[16..24].copy_from_slice(&data_off.to_le_bytes());
            area[24..32].copy_from_slice(&len.to_le_bytes());
            area[40..48].copy_from_slice(&1u64.to_le_bytes());
            assert!(scan(&area, 1 << 20).entries.is_empty());
        }
        assert_eq!(scan(&[0u8; 8], 64).bytes, 0);
    }

    #[test]
    fn generation_zero_is_the_plain_crc() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&77u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(b"abc");
        assert_eq!(entry_crc(0, 77, 3, b"abc"), crate::crc::crc64(&bytes));
    }

    fn put_words(img: &mut [u8], at: usize, words: &[u64]) {
        for (i, w) in words.iter().enumerate() {
            img[at + 8 * i..at + 8 * i + 8].copy_from_slice(&w.to_le_bytes());
        }
    }

    #[test]
    fn scan_image_checks_magic_and_bounds() {
        let mut img = vec![0u8; 1024];
        put_words(&mut img, 8, &[STORE_MAGIC, 512, 256]);
        img[512..520].copy_from_slice(&3u64.to_le_bytes());
        put(&mut img[512..768], 16, 3, 64, &[7; 8]);
        assert_eq!(
            StoreMeta::decode(&img, 8, 0),
            Some(StoreMeta::new(512, 256))
        );
        let word = BlockEntry {
            op: BlockOp::Free,
            class: 0,
        }
        .word();
        put_block(&mut img[512..768], 64, 3, 128, word);
        let log = scan_image(&img, 8, 0).unwrap();
        assert_eq!((log.log_off, log.log_cap), (512, 256));
        assert_eq!((log.generation, log.entries, log.used), (3, 2, 80));
        assert_eq!(log.allocator_entries, 1);
        assert!(!log.out_of_bounds);
        // No store at these offsets: no magic, or a block that runs past
        // the end of the image.
        assert_eq!(scan_image(&img, 0, 0), None);
        assert_eq!(scan_image(&img, 1008, 0), None);
        assert_eq!(scan_image(&img, u64::MAX, 0), None);
        // Nor one that sits in the region metadata.
        assert_eq!(scan_image(&img, 8, 64), None);
        // Nor a v2 block `{magic, obj_head, obj_count, log_off, log_cap}`,
        // whose object-list words would read as a plausible log area.
        put_words(
            &mut img,
            900,
            &[u64::from_le_bytes(*b"PSTOREV2"), 512, 256, 512, 256],
        );
        assert_eq!(scan_image(&img, 900, 0), None);
        // A second store block behind the log, naming the same area: a
        // log area below `data_start` is found, not walked.
        img.copy_within(8..32, 800);
        assert!(!scan_image(&img, 800, 512).unwrap().out_of_bounds);
        assert!(scan_image(&img, 800, 513).unwrap().out_of_bounds);
        // Likewise a log area that leaves the image, is misaligned, or
        // has no room for an entry.
        for (log_off, log_cap) in [(512, 4096), (520, 256), (512, 48)] {
            put_words(&mut img, 16, &[log_off, log_cap]);
            assert!(scan_image(&img, 8, 0).unwrap().out_of_bounds);
        }
    }
}
