//! Incremental checkpointing and replication of regions over dirty-line
//! deltas.
//!
//! Position independence is what makes replication *cheap to get right*:
//! an off-holder or RIV image is valid at any mapping address, so a
//! replica can be rebuilt from a byte-for-byte base snapshot plus the set
//! of cache lines whose durable contents changed — no swizzling pass, no
//! pointer fix-up, no knowledge of the data structures inside. This
//! module turns the [`crate::shadow`] tracker into exactly that engine:
//!
//! * **Delta stream** — a versioned, CRC-64-sealed record stream: one
//!   `BaseSnapshot` record (epoch 0), then `Delta` records, each carrying
//!   the 64 B lines dirtied since the previous durability point with a
//!   monotonic epoch number and a `prev_epoch` back-link (so coalesced
//!   epoch ranges still chain), closed by a `Seal` trailer record.
//!
//!   ```text
//!   stream  := header record*
//!   header  := magic:u64 "NVPIRPL1" | version:u32 | rid:u32 | size:u64
//!   record  := kind:u32 | flags:u32 | epoch:u64 | prev_epoch:u64
//!              | payload_len:u64 | crc64:u64 | payload
//!   base    := kind 1, payload = full region image   (epoch 0)
//!   delta   := kind 2, payload = nlines:u64 (line:u32 bytes:[u8;64])*
//!   seal    := kind 3, payload empty, epoch = final epoch
//!   ```
//!
//!   The CRC-64/XZ of each record covers the 32 header bytes before the
//!   `crc64` field plus the payload, so a torn append or rotted byte is
//!   caught per record.
//!
//! * **Capture** — [`on_durability_point`] runs at every region
//!   durability point ([`crate::Region::sync`],
//!   [`crate::Region::update_meta_slots`], `pstore` transaction commit)
//!   and drains the shadow tracker's replication dirty set; writers are
//!   blocked only for the line copy, never for the ship.
//!
//! * **Background replicator** — [`Replicator`] ships encoded deltas on a
//!   worker thread through a bounded queue with a policy-selectable
//!   backpressure response ([`Backpressure::Stall`] blocks the writer,
//!   [`Backpressure::Coalesce`] merges into the newest queued delta) and
//!   retry-with-backoff on transient sink I/O errors. Everything is
//!   counted in [`crate::metrics`].
//!
//! * **Apply & promotion** — [`apply_stream`] replays a stream in epoch
//!   order, rejecting gaps and CRC failures; [`promote`] applies a sealed
//!   stream to an image file and opens it with
//!   [`crate::Region::open_file`] at whatever address is free — the
//!   position-independence proof.

use crate::crc;
use crate::error::{NvError, Result};
use crate::metrics::{self, Counter};
use crate::region::Region;
use crate::shadow::{self, SHADOW_LINE};
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Magic opening a delta stream (`"NVPIRPL1"`).
pub const STREAM_MAGIC: u64 = u64::from_le_bytes(*b"NVPIRPL1");
/// Current stream format version.
pub const STREAM_VERSION: u32 = 1;
/// Encoded size of the stream header.
pub const STREAM_HEADER_LEN: usize = 24;
/// Encoded size of a record header (including the CRC field).
pub const RECORD_HEADER_LEN: usize = 40;
/// Encoded size of one delta line (index + bytes).
pub const DELTA_LINE_LEN: usize = 4 + SHADOW_LINE;

const KIND_BASE: u32 = 1;
const KIND_DELTA: u32 = 2;
const KIND_SEAL: u32 = 3;

/// One 64 B line of a delta: its index and its durable bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct DeltaLine {
    /// Line index (offset / [`SHADOW_LINE`]) within the region.
    pub line: u32,
    /// The line's durable contents.
    pub bytes: [u8; SHADOW_LINE],
}

impl std::fmt::Debug for DeltaLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeltaLine({})", self.line)
    }
}

/// The set of lines made durable between two durability points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// This delta's epoch (monotonically increasing, starting at 1).
    pub epoch: u64,
    /// The epoch this delta applies on top of. Consecutive captures have
    /// `prev_epoch == epoch - 1`; a coalesced delta spans a wider range
    /// but keeps the chain intact.
    pub prev_epoch: u64,
    /// Dirtied lines, ascending by index.
    pub lines: Vec<DeltaLine>,
}

impl Delta {
    /// Merges `newer` into `self` (coalescing backpressure): the union of
    /// the line sets with `newer`'s bytes winning, spanning
    /// `self.prev_epoch ..= newer.epoch`.
    pub fn merge(&mut self, newer: Delta) {
        debug_assert_eq!(newer.prev_epoch, self.epoch, "merge must chain");
        self.epoch = newer.epoch;
        for nl in newer.lines {
            match self.lines.binary_search_by_key(&nl.line, |l| l.line) {
                Ok(i) => self.lines[i] = nl,
                Err(i) => self.lines.insert(i, nl),
            }
        }
    }
}

/// A decoded stream record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Full region image at epoch 0.
    Base(Vec<u8>),
    /// Incremental delta.
    Delta(Delta),
    /// Stream trailer: the stream is complete up to `epoch`.
    Seal {
        /// Final epoch of the sealed stream.
        epoch: u64,
    },
}

/// Errors produced by the delta-stream decoder, replayer and replicator.
#[derive(Debug)]
pub enum ReplError {
    /// The stream ends mid-header or mid-record: a torn append. The
    /// offset is where the incomplete data starts.
    TornStream {
        /// Byte offset of the torn record.
        offset: usize,
    },
    /// The stream does not start with [`STREAM_MAGIC`].
    BadMagic,
    /// Unsupported stream version.
    BadVersion(u32),
    /// A record's CRC-64 does not match its contents.
    BadCrc {
        /// Byte offset of the failing record.
        offset: usize,
        /// Epoch claimed by the failing record.
        epoch: u64,
    },
    /// A delta's `prev_epoch` does not chain to the last applied epoch.
    EpochGap {
        /// The epoch the stream state was at.
        expected: u64,
        /// The `prev_epoch` the delta claimed.
        found: u64,
    },
    /// The first record is not a base snapshot (or a second one appears).
    MissingBase,
    /// The stream has no seal trailer and the caller required one.
    Unsealed,
    /// A record payload is malformed (bad length, line out of range,
    /// data after the seal, seal epoch mismatch).
    BadRecord {
        /// Byte offset of the offending record.
        offset: usize,
        /// What is wrong with it.
        detail: String,
    },
    /// Replicator sink failure that exhausted its retries.
    Io(std::io::Error),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::TornStream { offset } => {
                write!(f, "torn delta stream: truncated record at offset {offset}")
            }
            ReplError::BadMagic => write!(f, "not a delta stream (bad magic)"),
            ReplError::BadVersion(v) => write!(f, "unsupported delta-stream version {v}"),
            ReplError::BadCrc { offset, epoch } => {
                write!(f, "record crc mismatch at offset {offset} (epoch {epoch})")
            }
            ReplError::EpochGap { expected, found } => {
                write!(
                    f,
                    "epoch gap: delta chains to {found}, stream is at {expected}"
                )
            }
            ReplError::MissingBase => write!(f, "stream must start with exactly one base snapshot"),
            ReplError::Unsealed => write!(f, "stream has no seal trailer"),
            ReplError::BadRecord { offset, detail } => {
                write!(f, "bad record at offset {offset}: {detail}")
            }
            ReplError::Io(e) => write!(f, "replication i/o error: {e}"),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> ReplError {
        ReplError::Io(e)
    }
}

impl From<ReplError> for NvError {
    fn from(e: ReplError) -> NvError {
        match e {
            ReplError::Io(e) => NvError::Io(e),
            other => NvError::BadImage(format!("delta stream: {other}")),
        }
    }
}

// -- encoding ----------------------------------------------------------------

/// Encodes the stream header for a region of `size` bytes.
pub fn encode_header(rid: u32, size: u64) -> [u8; STREAM_HEADER_LEN] {
    let mut out = [0u8; STREAM_HEADER_LEN];
    out[0..8].copy_from_slice(&STREAM_MAGIC.to_le_bytes());
    out[8..12].copy_from_slice(&STREAM_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&rid.to_le_bytes());
    out[16..24].copy_from_slice(&size.to_le_bytes());
    out
}

fn encode_record(kind: u32, epoch: u64, prev_epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags, reserved
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&prev_epoch.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let crc = crc::crc64_update(crc::crc64_update(!0, &out), payload) ^ !0;
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes a base-snapshot record (epoch 0) from a full region image.
pub fn encode_base(image: &[u8]) -> Vec<u8> {
    encode_record(KIND_BASE, 0, 0, image)
}

/// Encodes a delta record.
pub fn encode_delta(d: &Delta) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + d.lines.len() * DELTA_LINE_LEN);
    payload.extend_from_slice(&(d.lines.len() as u64).to_le_bytes());
    for l in &d.lines {
        payload.extend_from_slice(&l.line.to_le_bytes());
        payload.extend_from_slice(&l.bytes);
    }
    encode_record(KIND_DELTA, d.epoch, d.prev_epoch, &payload)
}

/// Encodes the seal trailer closing a stream at `epoch`.
pub fn encode_seal(epoch: u64) -> Vec<u8> {
    encode_record(KIND_SEAL, epoch, epoch, &[])
}

// -- decoding ----------------------------------------------------------------

/// Identity fields of a decoded stream header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMeta {
    /// Format version.
    pub version: u32,
    /// Region ID the stream replicates.
    pub rid: u32,
    /// Region size in bytes.
    pub region_size: u64,
}

fn decode_stream_header(bytes: &[u8]) -> std::result::Result<StreamMeta, ReplError> {
    if bytes.len() < STREAM_HEADER_LEN {
        return Err(ReplError::TornStream { offset: 0 });
    }
    let word = |a: usize| u64::from_le_bytes(bytes[a..a + 8].try_into().unwrap());
    let half = |a: usize| u32::from_le_bytes(bytes[a..a + 4].try_into().unwrap());
    if word(0) != STREAM_MAGIC {
        return Err(ReplError::BadMagic);
    }
    let version = half(8);
    if version != STREAM_VERSION {
        return Err(ReplError::BadVersion(version));
    }
    Ok(StreamMeta {
        version,
        rid: half(12),
        region_size: word(16),
    })
}

/// One record pulled off the stream at `offset`: `(record, encoded_len)`.
fn decode_record_at(
    bytes: &[u8],
    offset: usize,
) -> std::result::Result<(Record, usize), ReplError> {
    let rest = &bytes[offset..];
    if rest.len() < RECORD_HEADER_LEN {
        return Err(ReplError::TornStream { offset });
    }
    let half = |a: usize| u32::from_le_bytes(rest[a..a + 4].try_into().unwrap());
    let word = |a: usize| u64::from_le_bytes(rest[a..a + 8].try_into().unwrap());
    let kind = half(0);
    let epoch = word(8);
    let prev_epoch = word(16);
    let payload_len = word(24) as usize;
    let want_crc = word(32);
    let Some(payload) = rest.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + payload_len) else {
        return Err(ReplError::TornStream { offset });
    };
    let got_crc = crc::crc64_update(crc::crc64_update(!0, &rest[..32]), payload) ^ !0;
    if got_crc != want_crc {
        return Err(ReplError::BadCrc { offset, epoch });
    }
    let total = RECORD_HEADER_LEN + payload_len;
    let bad = |detail: String| ReplError::BadRecord { offset, detail };
    let record = match kind {
        KIND_BASE => {
            if epoch != 0 || prev_epoch != 0 {
                return Err(bad(format!("base snapshot at nonzero epoch {epoch}")));
            }
            Record::Base(payload.to_vec())
        }
        KIND_DELTA => {
            if payload_len < 8 {
                return Err(bad("delta payload shorter than its count".into()));
            }
            let nlines = u64::from_le_bytes(payload[0..8].try_into().unwrap()) as usize;
            if payload_len != 8 + nlines * DELTA_LINE_LEN {
                return Err(bad(format!(
                    "delta claims {nlines} lines but payload is {payload_len} bytes"
                )));
            }
            if epoch == 0 || prev_epoch >= epoch {
                return Err(bad(format!(
                    "delta epochs must ascend (epoch {epoch}, prev {prev_epoch})"
                )));
            }
            let mut lines = Vec::with_capacity(nlines);
            for i in 0..nlines {
                let at = 8 + i * DELTA_LINE_LEN;
                let line = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
                let mut b = [0u8; SHADOW_LINE];
                b.copy_from_slice(&payload[at + 4..at + 4 + SHADOW_LINE]);
                lines.push(DeltaLine { line, bytes: b });
            }
            Record::Delta(Delta {
                epoch,
                prev_epoch,
                lines,
            })
        }
        KIND_SEAL => {
            if payload_len != 0 {
                return Err(bad("seal record carries a payload".into()));
            }
            Record::Seal { epoch }
        }
        other => return Err(bad(format!("unknown record kind {other}"))),
    };
    Ok((record, total))
}

/// Strictly decodes a whole stream: header, every record, CRCs. Does not
/// validate the epoch *chain* (that is [`apply_stream`]'s job) but does
/// reject torn tails, trailing garbage, and records after the seal.
///
/// # Errors
///
/// Any [`ReplError`]; truncation at any byte boundary yields
/// [`ReplError::TornStream`], never a panic.
pub fn decode_stream(bytes: &[u8]) -> std::result::Result<(StreamMeta, Vec<Record>), ReplError> {
    let meta = decode_stream_header(bytes)?;
    let mut records = Vec::new();
    let mut offset = STREAM_HEADER_LEN;
    let mut sealed = false;
    while offset < bytes.len() {
        if sealed {
            return Err(ReplError::BadRecord {
                offset,
                detail: "data after the seal trailer".into(),
            });
        }
        let (rec, len) = decode_record_at(bytes, offset)?;
        sealed = matches!(rec, Record::Seal { .. });
        records.push(rec);
        offset += len;
    }
    Ok((meta, records))
}

/// What [`apply_stream`] reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyReport {
    /// The epoch the replica is at after the replay.
    pub epoch: u64,
    /// Delta records applied.
    pub deltas_applied: u64,
    /// Total lines written by deltas.
    pub lines_applied: u64,
    /// Whether a valid seal trailer closed the stream.
    pub sealed: bool,
    /// Whether a torn tail record was discarded (only possible when the
    /// caller did not require a seal).
    pub tail_discarded: bool,
}

/// Replays a delta stream into a replica image: base snapshot first, then
/// every delta in epoch order (gaps and CRC failures rejected), stopping
/// at the seal.
///
/// With `require_seal`, an unsealed stream is an error — the promotion
/// rule. Without it (recovering from a primary that died mid-ship), a
/// *torn tail* record is discarded cleanly — the replica fully lacks that
/// epoch, it never partially applies — but damage anywhere before the
/// tail is still an error.
///
/// # Errors
///
/// Any [`ReplError`]. Failures bump the `repl_apply_failures` counter.
pub fn apply_stream(
    bytes: &[u8],
    require_seal: bool,
) -> std::result::Result<(Vec<u8>, ApplyReport), ReplError> {
    apply_stream_inner(bytes, require_seal).inspect_err(|_e| {
        metrics::incr(Counter::ReplApplyFailures);
    })
}

fn apply_stream_inner(
    bytes: &[u8],
    require_seal: bool,
) -> std::result::Result<(Vec<u8>, ApplyReport), ReplError> {
    let meta = decode_stream_header(bytes)?;
    let mut image: Option<Vec<u8>> = None;
    let mut report = ApplyReport {
        epoch: 0,
        deltas_applied: 0,
        lines_applied: 0,
        sealed: false,
        tail_discarded: false,
    };
    let mut offset = STREAM_HEADER_LEN;
    if offset >= bytes.len() {
        return Err(ReplError::MissingBase);
    }
    while offset < bytes.len() {
        let (rec, len) = match decode_record_at(bytes, offset) {
            Ok(ok) => ok,
            // A torn *tail* is a clean stop when no seal is required: the
            // interrupted epoch is fully absent from the replica.
            Err(ReplError::TornStream { .. }) if !require_seal && image.is_some() => {
                report.tail_discarded = true;
                break;
            }
            Err(e) => return Err(e),
        };
        match rec {
            Record::Base(img) => {
                if image.is_some() {
                    return Err(ReplError::MissingBase);
                }
                if img.len() as u64 != meta.region_size {
                    return Err(ReplError::BadRecord {
                        offset,
                        detail: format!(
                            "base snapshot is {} bytes, header says {}",
                            img.len(),
                            meta.region_size
                        ),
                    });
                }
                image = Some(img);
            }
            Record::Delta(d) => {
                let Some(img) = image.as_mut() else {
                    return Err(ReplError::MissingBase);
                };
                if d.prev_epoch != report.epoch {
                    return Err(ReplError::EpochGap {
                        expected: report.epoch,
                        found: d.prev_epoch,
                    });
                }
                for l in &d.lines {
                    let off = l.line as usize * SHADOW_LINE;
                    if off >= img.len() {
                        return Err(ReplError::BadRecord {
                            offset,
                            detail: format!("line {} is outside the region", l.line),
                        });
                    }
                    let take = SHADOW_LINE.min(img.len() - off);
                    img[off..off + take].copy_from_slice(&l.bytes[..take]);
                    report.lines_applied += 1;
                }
                report.epoch = d.epoch;
                report.deltas_applied += 1;
                metrics::incr(Counter::ReplDeltasApplied);
            }
            Record::Seal { epoch } => {
                if image.is_none() {
                    return Err(ReplError::MissingBase);
                }
                if epoch != report.epoch {
                    return Err(ReplError::BadRecord {
                        offset,
                        detail: format!("seal at epoch {epoch}, stream is at {}", report.epoch),
                    });
                }
                report.sealed = true;
                offset += len;
                if offset < bytes.len() {
                    return Err(ReplError::BadRecord {
                        offset,
                        detail: "data after the seal trailer".into(),
                    });
                }
                break;
            }
        }
        offset += len;
    }
    let Some(image) = image else {
        return Err(ReplError::MissingBase);
    };
    if require_seal && !report.sealed {
        return Err(ReplError::Unsealed);
    }
    Ok((image, report))
}

/// Applies the sealed stream at `stream`, writes the replica image to
/// `image_out`, and opens it as a region at whatever segment is free —
/// replica promotion. The opened replica reports
/// [`Region::was_dirty`] exactly as a crashed primary would, so recovery
/// layers (e.g. `pstore` undo-log rollback) run as usual.
///
/// # Errors
///
/// Stream decode/replay failures (as [`NvError::BadImage`]), I/O, and
/// anything [`Region::open_file`] can return.
pub fn promote<P: AsRef<Path>, Q: AsRef<Path>>(stream: P, image_out: Q) -> Result<Region> {
    let bytes = std::fs::read(stream)?;
    let (image, _report) = apply_stream(&bytes, true).map_err(NvError::from)?;
    std::fs::write(&image_out, &image)?;
    Region::open_file(image_out)
}

/// [`promote`], but the replica is guaranteed to map at a base address
/// different from `avoid` (the failed primary's base). Failover callers
/// use this so the promotion itself exercises position independence:
/// fat-table rebind and RIV translation must hold at the new address.
///
/// # Errors
///
/// As [`promote`] (see [`Region::open_file_avoiding`]).
pub fn promote_avoiding<P: AsRef<Path>, Q: AsRef<Path>>(
    stream: P,
    image_out: Q,
    avoid: usize,
) -> Result<Region> {
    let bytes = std::fs::read(stream)?;
    let (image, _report) = apply_stream(&bytes, true).map_err(NvError::from)?;
    std::fs::write(&image_out, &image)?;
    Region::open_file_avoiding(image_out, avoid)
}

// -- stream inspection (nvr_inspect) -----------------------------------------

/// Summary of one record for [`inspect_stream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSummary {
    /// Record kind: `"base"`, `"delta"`, or `"seal"`.
    pub kind: &'static str,
    /// Record epoch.
    pub epoch: u64,
    /// Chained-from epoch.
    pub prev_epoch: u64,
    /// Lines carried (deltas) or image bytes (base).
    pub lines: u64,
    /// Encoded payload size.
    pub payload_bytes: u64,
    /// Byte offset of the record in the stream.
    pub offset: usize,
}

/// Lenient dump of a delta stream for diagnostics: walks records until
/// the first problem, never fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDump {
    /// Header identity (when the header itself decodes).
    pub meta: Option<StreamMeta>,
    /// Every record up to the first problem.
    pub records: Vec<RecordSummary>,
    /// Whether a seal trailer was reached.
    pub sealed: bool,
    /// Epoch of the last intact delta (or seal).
    pub last_epoch: u64,
    /// The first decode problem, if any.
    pub problem: Option<String>,
    /// Total stream length in bytes.
    pub total_bytes: usize,
}

/// Walks a stream leniently, summarizing each record until the first
/// problem. Used by the `nvr_inspect repl` subcommand.
pub fn inspect_stream(bytes: &[u8]) -> StreamDump {
    let mut dump = StreamDump {
        meta: None,
        records: Vec::new(),
        sealed: false,
        last_epoch: 0,
        problem: None,
        total_bytes: bytes.len(),
    };
    match decode_stream_header(bytes) {
        Ok(meta) => dump.meta = Some(meta),
        Err(e) => {
            dump.problem = Some(e.to_string());
            return dump;
        }
    }
    let mut offset = STREAM_HEADER_LEN;
    while offset < bytes.len() {
        if dump.sealed {
            dump.problem = Some(format!("data after the seal trailer at offset {offset}"));
            break;
        }
        match decode_record_at(bytes, offset) {
            Ok((rec, len)) => {
                let summary = match &rec {
                    Record::Base(img) => RecordSummary {
                        kind: "base",
                        epoch: 0,
                        prev_epoch: 0,
                        lines: 0,
                        payload_bytes: img.len() as u64,
                        offset,
                    },
                    Record::Delta(d) => RecordSummary {
                        kind: "delta",
                        epoch: d.epoch,
                        prev_epoch: d.prev_epoch,
                        lines: d.lines.len() as u64,
                        payload_bytes: (8 + d.lines.len() * DELTA_LINE_LEN) as u64,
                        offset,
                    },
                    Record::Seal { epoch } => RecordSummary {
                        kind: "seal",
                        epoch: *epoch,
                        prev_epoch: *epoch,
                        lines: 0,
                        payload_bytes: 0,
                        offset,
                    },
                };
                match &rec {
                    Record::Delta(d) => dump.last_epoch = d.epoch,
                    Record::Seal { .. } => dump.sealed = true,
                    Record::Base(_) => {}
                }
                dump.records.push(summary);
                offset += len;
            }
            Err(e) => {
                dump.problem = Some(e.to_string());
                break;
            }
        }
    }
    dump
}

// -- capture -----------------------------------------------------------------

/// A replication source bound to a live, shadow-tracked region. Created
/// by [`Replicator::attach`]; owns the epoch counter and drains the
/// shadow tracker's replication dirty set.
#[derive(Debug)]
pub struct ReplSource {
    base: usize,
    rid: u32,
    size: usize,
    last_epoch: u64,
    detached: bool,
}

impl ReplSource {
    /// Binds a source to `region` and returns it together with the base
    /// snapshot (the region's durable view at epoch 0).
    ///
    /// # Errors
    ///
    /// [`NvError::ShadowNotEnabled`] unless
    /// [`Region::enable_shadow`] was called first.
    pub fn new(region: &Region) -> Result<(ReplSource, Vec<u8>)> {
        shadow::repl_attach(region.base())?;
        let image = shadow::persisted_view(region.base()).ok_or(NvError::ShadowNotEnabled {
            base: region.base(),
        })?;
        Ok((
            ReplSource {
                base: region.base(),
                rid: region.rid(),
                size: region.size(),
                last_epoch: 0,
                detached: false,
            },
            image,
        ))
    }

    /// The region ID this source replicates.
    pub fn rid(&self) -> u32 {
        self.rid
    }

    /// The region size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The epoch of the last captured delta (0 before the first).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Drains the dirty set into the next delta. `None` when nothing
    /// became durable since the last capture (or the region is gone).
    pub fn capture(&mut self) -> Option<Delta> {
        if self.detached {
            return None;
        }
        let drained = shadow::repl_drain(self.base)?;
        if drained.is_empty() {
            return None;
        }
        let epoch = self.last_epoch + 1;
        let prev_epoch = self.last_epoch;
        self.last_epoch = epoch;
        Some(Delta {
            epoch,
            prev_epoch,
            lines: drained
                .into_iter()
                .map(|(line, bytes)| DeltaLine { line, bytes })
                .collect(),
        })
    }

    fn detach(&mut self) {
        if !self.detached {
            shadow::repl_detach(self.base);
            self.detached = true;
        }
    }
}

impl Drop for ReplSource {
    fn drop(&mut self) {
        self.detach();
    }
}

// -- background replicator ---------------------------------------------------

/// What the replicator does when its bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// The writer blocks at the durability point until the queue drains —
    /// no epoch is ever merged, at the cost of stalling the hot path.
    Stall,
    /// The new delta is merged into the newest queued one
    /// ([`Delta::merge`]); the writer never blocks but the stream carries
    /// coarser epochs.
    Coalesce,
}

/// Tuning for a [`Replicator`].
#[derive(Debug, Clone)]
pub struct ReplicatorConfig {
    /// Maximum queued (unshipped) deltas before backpressure applies.
    pub queue_depth: usize,
    /// Backpressure response when the queue is full.
    pub backpressure: Backpressure,
    /// Transient sink I/O errors tolerated per record before the
    /// replicator gives up.
    pub max_retries: u32,
    /// Backoff before the first retry (doubled per subsequent retry,
    /// capped at [`ReplicatorConfig::retry_backoff_max`]).
    pub retry_backoff: Duration,
    /// Ceiling on the exponential retry backoff: no single wait between
    /// attempts exceeds this, however many attempts are configured.
    pub retry_backoff_max: Duration,
}

impl Default for ReplicatorConfig {
    fn default() -> ReplicatorConfig {
        ReplicatorConfig {
            queue_depth: 8,
            backpressure: Backpressure::Stall,
            max_retries: 4,
            retry_backoff: Duration::from_millis(1),
            retry_backoff_max: Duration::from_millis(100),
        }
    }
}

/// The capped exponential backoff policy shared by the replicator worker
/// and the region server's tenant retries: `base * 2^attempt`, saturating
/// at `max` (attempt 0 is the wait before the first retry).
pub fn capped_backoff(base: Duration, max: Duration, attempt: u32) -> Duration {
    let factor = 1u32.checked_shl(attempt.min(31)).unwrap_or(u32::MAX);
    base.saturating_mul(factor).min(max)
}

/// Destination of encoded stream bytes. Implemented for files; tests use
/// in-memory and fault-injecting sinks.
pub trait ReplSink: Send {
    /// Appends `bytes` at the end of the stream.
    ///
    /// # Errors
    ///
    /// I/O failure; the replicator retries with backoff.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
}

/// File-backed sink (append-only).
#[derive(Debug)]
struct FileSink {
    file: std::fs::File,
}

impl ReplSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)?;
        self.file.flush()
    }
}

/// In-memory sink sharing its buffer with the test that created it.
#[derive(Debug, Default)]
pub struct MemorySink {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemorySink {
    /// A fresh sink plus a handle to the bytes it accumulates.
    pub fn new() -> (MemorySink, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (MemorySink { buf: buf.clone() }, buf)
    }
}

impl ReplSink for MemorySink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        lock(&self.buf).extend_from_slice(bytes);
        Ok(())
    }
}

#[derive(Debug)]
struct QueueState {
    deque: VecDeque<Delta>,
    /// Epoch of the newest enqueued delta.
    emitted_epoch: u64,
    /// Epoch of the newest delta the worker shipped.
    shipped_epoch: u64,
    shutdown: bool,
    /// Set by [`Replicator::drop`] (never by `seal`): the stream is being
    /// abandoned, so a retry ladder in progress gives up immediately
    /// instead of sleeping out its remaining backoff.
    abort: bool,
    /// When set, the worker appends a seal trailer at this epoch after
    /// draining the queue, then exits.
    seal_epoch: Option<u64>,
    /// Permanent sink failure, recorded by the worker.
    failed: Option<String>,
}

#[derive(Debug)]
struct Shared {
    q: Mutex<QueueState>,
    space: Condvar,
    work: Condvar,
    cfg: ReplicatorConfig,
}

struct Session {
    base: usize,
    source: Mutex<ReplSource>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("base", &self.base).finish()
    }
}

/// Cheap gate consulted by every durability point.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static SESSIONS: Mutex<Vec<Arc<Session>>> = Mutex::new(Vec::new());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn session_for(base: usize) -> Option<Arc<Session>> {
    lock(&SESSIONS).iter().find(|s| s.base == base).cloned()
}

/// Captures and enqueues a delta for the region at `base`, if a
/// [`Replicator`] is attached to it. Called from every region durability
/// point ([`Region::sync`], [`Region::update_meta_slots`], `pstore`
/// transaction commit); a no-op (one relaxed load) otherwise.
pub fn on_durability_point(base: usize) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let Some(session) = session_for(base) else {
        return;
    };
    let delta = lock(&session.source).capture();
    if let Some(delta) = delta {
        enqueue(&session.shared, delta);
    }
}

/// Region-teardown hook: on a clean close the replica converges on the
/// final image (checkpoint + last capture); on a crash it simply detaches
/// and keeps lagging. Either way the session unregisters — the
/// [`Replicator`] handle stays usable for `seal`/`wait_idle`.
pub(crate) fn on_region_close(base: usize, clean: bool) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let Some(session) = session_for(base) else {
        return;
    };
    if clean {
        // The dirty-flag clear and final counter folds are untracked
        // stores; a checkpoint routes them into the repl dirty set.
        shadow::checkpoint(base);
        let delta = lock(&session.source).capture();
        if let Some(delta) = delta {
            enqueue(&session.shared, delta);
        }
    }
    lock(&session.source).detach();
    let mut sessions = lock(&SESSIONS);
    sessions.retain(|s| s.base != base);
    if sessions.is_empty() {
        ACTIVE.store(false, Ordering::Relaxed);
    }
}

fn enqueue(shared: &Arc<Shared>, delta: Delta) {
    metrics::incr(Counter::ReplDeltasEmitted);
    let mut q = lock(&shared.q);
    // Integrated lag: how many epochs the replica was behind when this
    // delta was produced.
    metrics::add(
        Counter::ReplLagEpochs,
        q.emitted_epoch.saturating_sub(q.shipped_epoch),
    );
    q.emitted_epoch = delta.epoch;
    if q.failed.is_some() {
        // Dead sink: drop the delta rather than blocking writers forever.
        return;
    }
    if q.deque.len() >= shared.cfg.queue_depth {
        match shared.cfg.backpressure {
            Backpressure::Coalesce => {
                metrics::incr(Counter::ReplDeltasCoalesced);
                let newest = q.deque.back_mut().expect("full queue is nonempty");
                newest.merge(delta);
                shared.work.notify_one();
                return;
            }
            Backpressure::Stall => {
                while q.deque.len() >= shared.cfg.queue_depth && q.failed.is_none() {
                    q = shared.space.wait(q).unwrap_or_else(|e| e.into_inner());
                }
                if q.failed.is_some() {
                    return;
                }
            }
        }
    }
    q.deque.push_back(delta);
    shared.work.notify_one();
}

/// Sleeps out one retry backoff, but wakes early (returning `true`) if
/// the replicator is dropped mid-wait. Waiting on the shared condvar —
/// rather than an uncancellable `thread::sleep` — is what keeps
/// `Replicator` teardown prompt during a retry ladder.
fn backoff_aborted(shared: &Shared, backoff: Duration) -> bool {
    let deadline = Instant::now() + backoff;
    let mut q = lock(&shared.q);
    loop {
        if q.abort {
            return true;
        }
        let now = Instant::now();
        let Some(left) = deadline
            .checked_duration_since(now)
            .filter(|d| !d.is_zero())
        else {
            return false;
        };
        q = shared
            .work
            .wait_timeout(q, left)
            .unwrap_or_else(|e| e.into_inner())
            .0;
    }
}

fn ship_with_retry(
    shared: &Shared,
    sink: &mut dyn ReplSink,
    bytes: &[u8],
) -> std::result::Result<(), String> {
    for attempt in 0..=shared.cfg.max_retries {
        match sink.append(bytes) {
            Ok(()) => {
                metrics::add(Counter::ReplBytesShipped, bytes.len() as u64);
                return Ok(());
            }
            Err(_) if attempt < shared.cfg.max_retries => {
                metrics::incr(Counter::ReplRetries);
                let wait = capped_backoff(
                    shared.cfg.retry_backoff,
                    shared.cfg.retry_backoff_max,
                    attempt,
                );
                if backoff_aborted(shared, wait) {
                    return Err("replicator dropped during retry backoff".to_string());
                }
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    unreachable!("loop returns on success or final error")
}

fn worker(shared: Arc<Shared>, mut sink: Box<dyn ReplSink>) {
    loop {
        let delta = {
            let mut q = lock(&shared.q);
            loop {
                if let Some(d) = q.deque.pop_front() {
                    break Some(d);
                }
                if q.shutdown {
                    break None;
                }
                q = shared.work.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.space.notify_all();
        let Some(delta) = delta else {
            break;
        };
        let epoch = delta.epoch;
        let bytes = encode_delta(&delta);
        match ship_with_retry(&shared, sink.as_mut(), &bytes) {
            Ok(()) => {
                metrics::incr(Counter::ReplDeltasShipped);
                let mut q = lock(&shared.q);
                q.shipped_epoch = epoch;
            }
            Err(msg) => {
                let mut q = lock(&shared.q);
                q.failed = Some(msg);
                q.deque.clear();
                shared.space.notify_all();
            }
        }
    }
    // Shutdown: append the seal trailer if one was requested and the
    // sink is still healthy. The queue is already drained.
    let seal_epoch = {
        let q = lock(&shared.q);
        if q.failed.is_some() {
            None
        } else {
            q.seal_epoch
        }
    };
    if let Some(epoch) = seal_epoch {
        let bytes = encode_seal(epoch);
        if let Err(msg) = ship_with_retry(&shared, sink.as_mut(), &bytes) {
            lock(&shared.q).failed = Some(msg);
        }
    }
}

/// A background replication pipeline for one region: capture at
/// durability points, bounded queue, worker thread shipping encoded
/// records into a [`ReplSink`]. See the module docs.
///
/// Dropping a `Replicator` without calling [`Replicator::seal`] leaves
/// the stream *unsealed* — deliberately indistinguishable from a primary
/// that died mid-ship.
#[derive(Debug)]
pub struct Replicator {
    base: usize,
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Replicator {
    /// Attaches a replicator writing the delta stream to `stream_path`
    /// (created/truncated). The stream header and base snapshot are
    /// written synchronously before this returns.
    ///
    /// # Errors
    ///
    /// [`NvError::ShadowNotEnabled`] without a prior
    /// [`Region::enable_shadow`]; I/O errors creating the stream.
    pub fn attach<P: AsRef<Path>>(
        region: &Region,
        stream_path: P,
        cfg: ReplicatorConfig,
    ) -> Result<Replicator> {
        let file = std::fs::File::create(stream_path)?;
        Self::attach_sink(region, Box::new(FileSink { file }), cfg)
    }

    /// Like [`Replicator::attach`], but shipping into an arbitrary sink.
    ///
    /// # Errors
    ///
    /// As [`Replicator::attach`].
    pub fn attach_sink(
        region: &Region,
        mut sink: Box<dyn ReplSink>,
        cfg: ReplicatorConfig,
    ) -> Result<Replicator> {
        let (source, base_image) = ReplSource::new(region)?;
        let shared = Arc::new(Shared {
            q: Mutex::new(QueueState {
                deque: VecDeque::new(),
                emitted_epoch: 0,
                shipped_epoch: 0,
                shutdown: false,
                abort: false,
                seal_epoch: None,
                failed: None,
            }),
            space: Condvar::new(),
            work: Condvar::new(),
            cfg,
        });
        // The header and base snapshot go out synchronously (with the
        // same retry policy as the worker) so a returned Replicator is
        // guaranteed to sit on a well-formed stream prefix.
        let mut opening = encode_header(source.rid(), source.size() as u64).to_vec();
        opening.extend_from_slice(&encode_base(&base_image));
        ship_with_retry(&shared, sink.as_mut(), &opening)
            .map_err(|msg| NvError::Io(std::io::Error::other(msg)))?;
        let base = region.base();
        {
            let mut sessions = lock(&SESSIONS);
            assert!(
                sessions.iter().all(|s| s.base != base),
                "a Replicator is already attached to this region"
            );
            sessions.push(Arc::new(Session {
                base,
                source: Mutex::new(source),
                shared: shared.clone(),
            }));
            ACTIVE.store(true, Ordering::Relaxed);
        }
        let worker_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("nvr-replicator".into())
            .spawn(move || worker(worker_shared, sink))
            .map_err(NvError::Io)?;
        Ok(Replicator {
            base,
            shared,
            handle: Some(handle),
        })
    }

    /// Forces a capture outside a region durability point (testing and
    /// checkpoint-style callers).
    pub fn capture_now(&self) {
        on_durability_point(self.base);
    }

    /// Epochs emitted but not yet shipped (instantaneous replica lag).
    pub fn lag_epochs(&self) -> u64 {
        let q = lock(&self.shared.q);
        q.emitted_epoch.saturating_sub(q.shipped_epoch)
    }

    /// The permanent sink failure, if the worker hit one.
    pub fn failure(&self) -> Option<String> {
        lock(&self.shared.q).failed.clone()
    }

    fn detach_session(&self) {
        let mut sessions = lock(&SESSIONS);
        sessions.retain(|s| s.base != self.base);
        if sessions.is_empty() {
            ACTIVE.store(false, Ordering::Relaxed);
        }
    }

    /// Final capture, queue drain, seal trailer, worker join. Returns the
    /// sealed stream's final epoch.
    ///
    /// # Errors
    ///
    /// [`NvError::Io`] when the sink failed permanently — the stream is
    /// then unsealed.
    pub fn seal(mut self) -> Result<u64> {
        // Ship whatever became durable since the last durability point.
        on_durability_point(self.base);
        let final_epoch = {
            let session = session_for(self.base);
            match &session {
                Some(s) => {
                    let mut src = lock(&s.source);
                    let e = src.last_epoch();
                    src.detach();
                    e
                }
                None => lock(&self.shared.q).emitted_epoch,
            }
        };
        self.detach_session();
        // Ask the worker to drain, append the trailer, and exit; joining
        // it guarantees the seal is on the sink before we return.
        {
            let mut q = lock(&self.shared.q);
            q.seal_epoch = Some(final_epoch);
            q.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        if let Some(msg) = self.failure() {
            return Err(NvError::Io(std::io::Error::other(format!(
                "replication sink failed permanently: {msg}"
            ))));
        }
        Ok(final_epoch)
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.detach_session();
        {
            let mut q = lock(&self.shared.q);
            q.shutdown = true;
            // Dropping abandons the stream, so a retry ladder in progress
            // may give up immediately; `seal` keeps `abort` clear because
            // a sealed stream must exhaust its retries before failing.
            q.abort = true;
        }
        self.shared.work.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Region;

    fn line(i: u32, fill: u8) -> DeltaLine {
        DeltaLine {
            line: i,
            bytes: [fill; SHADOW_LINE],
        }
    }

    fn small_stream() -> (Vec<u8>, Vec<u8>) {
        // A 4-line region: base of zeros, two deltas, seal.
        let size = 4 * SHADOW_LINE;
        let mut expect = vec![0u8; size];
        let mut stream = encode_header(7, size as u64).to_vec();
        stream.extend_from_slice(&encode_base(&vec![0u8; size]));
        let d1 = Delta {
            epoch: 1,
            prev_epoch: 0,
            lines: vec![line(0, 0xaa), line(2, 0xbb)],
        };
        let d2 = Delta {
            epoch: 2,
            prev_epoch: 1,
            lines: vec![line(2, 0xcc), line(3, 0xdd)],
        };
        for d in [&d1, &d2] {
            for l in &d.lines {
                let off = l.line as usize * SHADOW_LINE;
                expect[off..off + SHADOW_LINE].copy_from_slice(&l.bytes);
            }
            stream.extend_from_slice(&encode_delta(d));
        }
        stream.extend_from_slice(&encode_seal(2));
        (stream, expect)
    }

    #[test]
    fn roundtrip_applies_in_epoch_order() {
        let (stream, expect) = small_stream();
        let (meta, records) = decode_stream(&stream).unwrap();
        assert_eq!(meta.rid, 7);
        assert_eq!(records.len(), 4);
        let (image, report) = apply_stream(&stream, true).unwrap();
        assert_eq!(image, expect);
        assert!(report.sealed);
        assert_eq!(report.epoch, 2);
        assert_eq!(report.deltas_applied, 2);
        assert_eq!(report.lines_applied, 4);
        assert!(!report.tail_discarded);
    }

    #[test]
    fn truncation_at_every_boundary_is_a_clean_error() {
        let (stream, _) = small_stream();
        for cut in 0..stream.len() {
            let err = apply_stream(&stream[..cut], true).unwrap_err();
            assert!(
                matches!(
                    err,
                    ReplError::TornStream { .. } | ReplError::Unsealed | ReplError::MissingBase
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn torn_tail_without_seal_drops_whole_epoch() {
        let (stream, expect) = small_stream();
        // Strip the seal, then truncate into the last delta record.
        let unsealed = &stream[..stream.len() - RECORD_HEADER_LEN];
        let cut = unsealed.len() - 10;
        let (image, report) = apply_stream(&unsealed[..cut], false).unwrap();
        assert!(report.tail_discarded);
        assert!(!report.sealed);
        assert_eq!(report.epoch, 1, "epoch 2 must be fully absent");
        // Lines from epoch 1 applied; epoch-2 lines untouched.
        assert_eq!(&image[0..SHADOW_LINE], &expect[0..SHADOW_LINE]);
        assert_eq!(image[3 * SHADOW_LINE], 0, "no partial epoch-2 bytes");
    }

    #[test]
    fn corruption_and_gaps_are_rejected() {
        let (stream, _) = small_stream();
        // Flip one payload byte of the first delta: CRC failure.
        let mut rotted = stream.clone();
        let first_delta = STREAM_HEADER_LEN + RECORD_HEADER_LEN + 4 * SHADOW_LINE;
        rotted[first_delta + RECORD_HEADER_LEN + 20] ^= 0x01;
        assert!(matches!(
            apply_stream(&rotted, true).unwrap_err(),
            ReplError::BadCrc { .. }
        ));
        // Drop the first delta entirely: epoch gap.
        let d1_len = {
            let (_, len) = decode_record_at(&stream, first_delta).unwrap();
            len
        };
        let mut gapped = stream[..first_delta].to_vec();
        gapped.extend_from_slice(&stream[first_delta + d1_len..]);
        assert!(matches!(
            apply_stream(&gapped, true).unwrap_err(),
            ReplError::EpochGap {
                expected: 0,
                found: 1
            }
        ));
        // Unsealed stream fails promotion-strict apply.
        let unsealed = &stream[..stream.len() - RECORD_HEADER_LEN];
        assert!(matches!(
            apply_stream(unsealed, true).unwrap_err(),
            ReplError::Unsealed
        ));
        // Bad magic.
        let mut magicless = stream.clone();
        magicless[0] ^= 0xff;
        assert!(matches!(
            apply_stream(&magicless, true).unwrap_err(),
            ReplError::BadMagic
        ));
    }

    #[test]
    fn merge_unions_lines_newer_wins() {
        let mut older = Delta {
            epoch: 3,
            prev_epoch: 2,
            lines: vec![line(1, 0x11), line(5, 0x55)],
        };
        let newer = Delta {
            epoch: 4,
            prev_epoch: 3,
            lines: vec![line(5, 0x66), line(9, 0x99)],
        };
        older.merge(newer);
        assert_eq!(older.epoch, 4);
        assert_eq!(older.prev_epoch, 2);
        let idx: Vec<u32> = older.lines.iter().map(|l| l.line).collect();
        assert_eq!(idx, vec![1, 5, 9]);
        assert_eq!(older.lines[1].bytes[0], 0x66, "newer bytes win");
    }

    #[test]
    fn inspect_reports_records_and_problems() {
        let (stream, _) = small_stream();
        let dump = inspect_stream(&stream);
        assert!(dump.sealed);
        assert!(dump.problem.is_none());
        assert_eq!(dump.last_epoch, 2);
        let kinds: Vec<&str> = dump.records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec!["base", "delta", "delta", "seal"]);
        let torn = inspect_stream(&stream[..stream.len() - 3]);
        assert!(!torn.sealed);
        assert!(torn.problem.as_deref().unwrap().contains("torn"));
        assert_eq!(torn.records.len(), 3);
    }

    #[test]
    fn replicator_ships_region_deltas_end_to_end() {
        let region = Region::create_with_rid(61, 1 << 20).unwrap();
        region.enable_shadow().unwrap();
        let (sink, buf) = MemorySink::new();
        let repl =
            Replicator::attach_sink(&region, Box::new(sink), ReplicatorConfig::default()).unwrap();
        let root = region.alloc(256, 16).unwrap().as_ptr() as usize;
        for round in 0..3u8 {
            unsafe {
                std::ptr::write_bytes(root as *mut u8, 0x40 + round, 256);
            }
            crate::latency::clflush_range(root, 256);
            crate::latency::wbarrier();
            region.sync().unwrap();
        }
        let final_epoch = repl.seal().unwrap();
        assert!(final_epoch >= 3, "three syncs → at least three epochs");
        let stream = lock(&buf).clone();
        let (image, report) = apply_stream(&stream, true).unwrap();
        assert!(report.sealed);
        assert_eq!(image.len(), region.size());
        let off = root - region.base();
        assert_eq!(image[off], 0x42, "last round's bytes reached the replica");
        drop(region);
    }

    #[test]
    fn flaky_sink_is_retried_and_dead_sink_reported() {
        struct Flaky {
            fails_left: u32,
            inner: MemorySink,
        }
        impl ReplSink for Flaky {
            fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
                if self.fails_left > 0 {
                    self.fails_left -= 1;
                    return Err(std::io::Error::other("transient"));
                }
                self.inner.append(bytes)
            }
        }
        let region = Region::create_with_rid(62, 1 << 20).unwrap();
        region.enable_shadow().unwrap();
        let buf = Arc::new(Mutex::new(Vec::new()));
        let cfg = ReplicatorConfig {
            retry_backoff: Duration::from_micros(50),
            ..ReplicatorConfig::default()
        };
        let repl = Replicator::attach_sink(
            &region,
            Box::new(Flaky {
                fails_left: 2,
                inner: MemorySink { buf: buf.clone() },
            }),
            cfg,
        )
        .unwrap();
        let p = region.alloc(64, 16).unwrap().as_ptr() as usize;
        unsafe { std::ptr::write_bytes(p as *mut u8, 0x77, 64) };
        crate::latency::clflush_range(p, 64);
        crate::latency::wbarrier();
        region.sync().unwrap();
        repl.seal().unwrap();
        let stream = lock(&buf).clone();
        apply_stream(&stream, true).unwrap();
        drop(region);

        // A sink that never recovers: seal() must surface the failure.
        struct Dead;
        impl ReplSink for Dead {
            fn append(&mut self, _: &[u8]) -> std::io::Result<()> {
                Err(std::io::Error::other("gone"))
            }
        }
        let region = Region::create_with_rid(63, 1 << 20).unwrap();
        region.enable_shadow().unwrap();
        let cfg = ReplicatorConfig {
            max_retries: 1,
            retry_backoff: Duration::from_micros(10),
            ..ReplicatorConfig::default()
        };
        let err = Replicator::attach_sink(&region, Box::new(Dead), cfg);
        // attach itself ships the base snapshot, so the dead sink already
        // fails there — a typed error, not a hang.
        assert!(err.is_err());
        drop(region);
    }

    #[test]
    fn drop_during_retry_backoff_returns_promptly() {
        // A sink that accepts the opening (header + base) append, then
        // fails every subsequent one — pushing the worker into its retry
        // ladder with an hour-scale backoff. Drop must still return fast.
        struct FailAfterFirst {
            appends: usize,
        }
        impl ReplSink for FailAfterFirst {
            fn append(&mut self, _bytes: &[u8]) -> std::io::Result<()> {
                self.appends += 1;
                if self.appends == 1 {
                    Ok(())
                } else {
                    Err(std::io::Error::other("transient"))
                }
            }
        }
        let region = Region::create_with_rid(64, 1 << 20).unwrap();
        region.enable_shadow().unwrap();
        let cfg = ReplicatorConfig {
            max_retries: 8,
            retry_backoff: Duration::from_secs(3600),
            retry_backoff_max: Duration::from_secs(3600),
            ..ReplicatorConfig::default()
        };
        let repl = Replicator::attach_sink(&region, Box::new(FailAfterFirst { appends: 0 }), cfg)
            .expect("opening append succeeds");
        // Dirty a line and capture so the worker has a delta to ship; its
        // first append fails and it starts sleeping out the huge backoff.
        unsafe { std::ptr::write_volatile(region.base() as *mut u8, 0xAB) };
        crate::latency::clflush_range(region.base(), 1);
        repl.capture_now();
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        drop(repl);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "drop blocked {:?} — backoff wait was not cancelled",
            start.elapsed()
        );
        drop(region);
    }

    #[test]
    fn backoff_caps_at_configured_max() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(100);
        assert_eq!(capped_backoff(base, max, 0), Duration::from_millis(10));
        assert_eq!(capped_backoff(base, max, 1), Duration::from_millis(20));
        assert_eq!(capped_backoff(base, max, 3), Duration::from_millis(80));
        assert_eq!(capped_backoff(base, max, 4), max);
        assert_eq!(capped_backoff(base, max, 63), max);
    }

    #[test]
    fn coalesce_merges_under_full_queue() {
        // Exercise the queue policy directly: depth 1, slow consumer.
        let shared = Arc::new(Shared {
            q: Mutex::new(QueueState {
                deque: VecDeque::new(),
                emitted_epoch: 0,
                shipped_epoch: 0,
                shutdown: false,
                abort: false,
                seal_epoch: None,
                failed: None,
            }),
            space: Condvar::new(),
            work: Condvar::new(),
            cfg: ReplicatorConfig {
                queue_depth: 1,
                backpressure: Backpressure::Coalesce,
                ..ReplicatorConfig::default()
            },
        });
        enqueue(
            &shared,
            Delta {
                epoch: 1,
                prev_epoch: 0,
                lines: vec![line(0, 1)],
            },
        );
        enqueue(
            &shared,
            Delta {
                epoch: 2,
                prev_epoch: 1,
                lines: vec![line(1, 2)],
            },
        );
        let q = lock(&shared.q);
        assert_eq!(q.deque.len(), 1, "second delta merged, not queued");
        let d = &q.deque[0];
        assert_eq!(d.epoch, 2);
        assert_eq!(d.prev_epoch, 0);
        assert_eq!(d.lines.len(), 2);
    }
}
