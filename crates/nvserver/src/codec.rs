//! Versioned CRC-framed request/response codec.
//!
//! Every frame is `magic | version | kind | payload_len | crc64 |
//! payload`, little-endian, with the CRC-64/XZ taken over the pre-CRC
//! header words plus the payload, so a torn or bit-rotted frame is a
//! typed [`CodecError`], never garbage handed to the server. The codec
//! is deliberately dependency-free and byte-oriented (no alignment
//! assumptions) so the same bytes can later travel a socket unchanged.
//! An encoder writes the payload after the header's room in one buffer
//! and seals the header in place; the CRC streams over both halves, so
//! neither side copies a frame to checksum it.

use nvmsim::crc::crc64_update;

/// Frame magic: `NVPISRV1`.
pub const FRAME_MAGIC: u64 = u64::from_le_bytes(*b"NVPISRV1");
/// Codec version encoded in every frame. Version 2 added the
/// variable-length [`ReqOp::PrefixQuery`] opcode; v1 frames (which
/// cannot carry it) are rejected with [`CodecError::BadVersion`].
pub const CODEC_VERSION: u32 = 2;

/// Longest prefix a [`ReqOp::PrefixQuery`] may carry — the ART's
/// `pds::MAX_KEY`, since no longer prefix can match any indexed key.
pub const MAX_PREFIX: usize = 64;

const KIND_REQUEST: u32 = 1;
const KIND_RESPONSE: u32 = 2;
/// magic + version + kind + payload_len + crc64.
const HEADER_BYTES: usize = 8 + 4 + 4 + 8 + 8;

/// Request priority; admission control sheds strictly lower priorities
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Shed first.
    Low,
    /// The default.
    Normal,
    /// Shed last.
    High,
}

impl Priority {
    fn code(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    fn from_code(c: u8) -> Option<Priority> {
        match c {
            0 => Some(Priority::Low),
            1 => Some(Priority::Normal),
            2 => Some(Priority::High),
            _ => None,
        }
    }
}

/// One entry of a batched (transactional) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOp {
    /// `true` = insert the key, `false` = remove it.
    pub put: bool,
    /// The key operated on.
    pub key: u64,
}

/// The operation a request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqOp {
    /// Membership probe.
    Get {
        /// The key probed.
        key: u64,
    },
    /// Transactional insert.
    Put {
        /// The key inserted.
        key: u64,
    },
    /// Transactional remove.
    Delete {
        /// The key removed.
        key: u64,
    },
    /// A sequence of writes applied in order, each its own transaction.
    Batch {
        /// The writes, applied front to back.
        ops: Vec<BatchOp>,
    },
    /// Force-evict the tenant (close its region cleanly; the next
    /// request reopens it remapped at a different base).
    Evict,
    /// Suggestion lookup: all indexed keys starting with `prefix`,
    /// served from the tenant's persistent ART (codec v2+).
    PrefixQuery {
        /// Lowercase ASCII prefix, at most [`MAX_PREFIX`] bytes; empty
        /// scans the whole index (the server caps the reply).
        prefix: String,
    },
}

impl ReqOp {
    /// The op's wire code. Code 5 (the retired `Heal`) is never reused: a
    /// frame carrying it is refused as an unknown op.
    fn code(&self) -> u8 {
        match self {
            ReqOp::Get { .. } => 0,
            ReqOp::Put { .. } => 1,
            ReqOp::Delete { .. } => 2,
            ReqOp::Batch { .. } => 3,
            ReqOp::Evict => 4,
            ReqOp::PrefixQuery { .. } => 6,
        }
    }
}

/// One request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Target tenant.
    pub tenant: u32,
    /// Admission priority.
    pub priority: Priority,
    /// Per-request deadline in microseconds from submission; 0 inherits
    /// the server default.
    pub deadline_micros: u64,
    /// The operation.
    pub op: ReqOp,
}

/// Terminal disposition of a request. Every accepted request receives
/// exactly one of these — nothing is silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Executed.
    Ok,
    /// Shed by admission control; never executed.
    Overloaded,
    /// The deadline passed before execution started; not applied.
    DeadlineExceeded,
    /// The tenant id is not configured on this server.
    NoSuchTenant,
    /// The server is shutting down; not executed.
    Shutdown,
    /// Execution failed (a write error such as a full region or log, a
    /// tenant that failed to open or its audit, or a failed crash
    /// recovery); `detail` says why.
    Failed,
    /// The frame failed to decode; `detail` carries the codec error.
    Malformed,
}

impl Status {
    /// The status's wire code. Code 3 (the retired `Degraded`) is never
    /// reused: a frame carrying it is refused as an unknown status.
    fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::DeadlineExceeded => 2,
            Status::NoSuchTenant => 4,
            Status::Shutdown => 5,
            Status::Failed => 6,
            Status::Malformed => 7,
        }
    }

    fn from_code(c: u8) -> Option<Status> {
        match c {
            0 => Some(Status::Ok),
            1 => Some(Status::Overloaded),
            2 => Some(Status::DeadlineExceeded),
            4 => Some(Status::NoSuchTenant),
            5 => Some(Status::Shutdown),
            6 => Some(Status::Failed),
            7 => Some(Status::Malformed),
            _ => None,
        }
    }

    /// Short lowercase name for logs and failure messages.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::DeadlineExceeded => "deadline_exceeded",
            Status::NoSuchTenant => "no_such_tenant",
            Status::Shutdown => "shutdown",
            Status::Failed => "failed",
            Status::Malformed => "malformed",
        }
    }
}

/// Result of one [`BatchOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchResult {
    /// Whether the write changed the set (insert of an absent key,
    /// remove of a present one).
    pub applied: bool,
    /// Linearization stamp drawn after the entry's commit.
    pub stamp: u64,
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Correlation id echoed from the request.
    pub id: u64,
    /// Terminal disposition.
    pub status: Status,
    /// Get: membership. Put/Delete: whether the write changed the set.
    /// `None` for ops without a boolean result or non-`Ok` statuses.
    pub found: Option<bool>,
    /// Execution runs: 1, plus one per crash injected before a write
    /// (which then runs again); 0 when never executed.
    pub attempts: u32,
    /// Linearization stamp drawn after a committed write (`dlin`
    /// discipline); 0 for reads and unexecuted requests.
    pub stamp: u64,
    /// Per-entry results for `Batch` requests.
    pub batch: Vec<BatchResult>,
    /// Human-readable context for non-`Ok` statuses, and the matched
    /// words of a prefix query.
    pub detail: String,
}

impl Response {
    /// A response with `status` and `detail` and nothing else — the
    /// shape of every rejection.
    pub fn rejection(id: u64, status: Status, detail: impl Into<String>) -> Response {
        Response {
            id,
            status,
            found: None,
            attempts: 0,
            stamp: 0,
            batch: Vec::new(),
            detail: detail.into(),
        }
    }

    /// An `Ok` answer after one attempt that drew no stamp.
    pub(crate) fn ok(id: u64, found: Option<bool>, detail: String) -> Response {
        Response {
            id,
            status: Status::Ok,
            found,
            attempts: 1,
            stamp: 0,
            batch: Vec::new(),
            detail,
        }
    }
}

/// Decode failure. Every malformed frame is one of these — the codec
/// never panics and never returns partial values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the frame does.
    Truncated,
    /// The first eight bytes are not `NVPISRV1`.
    BadMagic,
    /// Unsupported codec version.
    BadVersion(u32),
    /// The frame kind is not request/response (or not the expected one).
    BadKind(u32),
    /// The CRC-64 over header+payload does not match.
    BadCrc,
    /// A payload field failed validation (named).
    BadField(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            CodecError::BadKind(k) => write!(f, "unexpected frame kind {k}"),
            CodecError::BadCrc => write!(f, "frame CRC mismatch"),
            CodecError::BadField(name) => write!(f, "bad frame field: {name}"),
        }
    }
}

impl std::error::Error for CodecError {}

// -- byte cursor --------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::BadField("trailing bytes"))
        }
    }
}

// -- framing ------------------------------------------------------------------

/// A frame buffer with `HEADER_BYTES` of header room; the payload is
/// appended after it and [`seal`] fills the header in place.
fn frame_buf(payload_len: usize) -> Vec<u8> {
    let mut f = Vec::with_capacity(HEADER_BYTES + payload_len);
    f.resize(HEADER_BYTES, 0);
    f
}

/// CRC-64/XZ over the pre-CRC header words, then the payload.
fn frame_crc(pre_crc: &[u8], payload: &[u8]) -> u64 {
    crc64_update(crc64_update(!0, pre_crc), payload) ^ !0
}

/// Writes the header of a [`frame_buf`] whose payload is complete.
fn seal(mut f: Vec<u8>, kind: u32) -> Vec<u8> {
    let payload_len = (f.len() - HEADER_BYTES) as u64;
    f[..8].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    f[8..12].copy_from_slice(&CODEC_VERSION.to_le_bytes());
    f[12..16].copy_from_slice(&kind.to_le_bytes());
    f[16..24].copy_from_slice(&payload_len.to_le_bytes());
    let (head, payload) = f.split_at(HEADER_BYTES);
    let crc = frame_crc(&head[..HEADER_BYTES - 8], payload);
    f[HEADER_BYTES - 8..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    f
}

fn deframe(buf: &[u8], want_kind: u32) -> Result<&[u8], CodecError> {
    let mut c = Cursor::new(buf);
    if c.u64()? != FRAME_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = c.u32()?;
    if version != CODEC_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let kind = c.u32()?;
    if kind != want_kind {
        return Err(CodecError::BadKind(kind));
    }
    let payload_len = c.u64()? as usize;
    let stored_crc = c.u64()?;
    let payload = c.take(payload_len)?;
    c.done()?;
    if frame_crc(&buf[..HEADER_BYTES - 8], payload) != stored_crc {
        return Err(CodecError::BadCrc);
    }
    Ok(payload)
}

// -- request ------------------------------------------------------------------

/// Encodes a request into one frame, built and sealed in one buffer.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let (key, ops, prefix): (u64, &[BatchOp], Option<&str>) = match &req.op {
        ReqOp::Get { key } | ReqOp::Put { key } | ReqOp::Delete { key } => (*key, &[], None),
        ReqOp::Batch { ops } => (0, ops, None),
        ReqOp::PrefixQuery { prefix } => (0, &[], Some(prefix)),
        ReqOp::Evict => (0, &[], None),
    };
    // 36 fixed bytes, 9 per batch entry, a length-prefixed prefix: the
    // exact size, so the frame never grows.
    let mut p = frame_buf(36 + 9 * ops.len() + prefix.map_or(0, |s| 2 + s.len()));
    p.extend_from_slice(&req.id.to_le_bytes());
    p.extend_from_slice(&req.tenant.to_le_bytes());
    p.push(req.priority.code());
    p.push(req.op.code());
    p.extend_from_slice(&0u16.to_le_bytes());
    p.extend_from_slice(&req.deadline_micros.to_le_bytes());
    p.extend_from_slice(&key.to_le_bytes());
    p.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        p.push(u8::from(op.put));
        p.extend_from_slice(&op.key.to_le_bytes());
    }
    if let Some(prefix) = prefix {
        p.extend_from_slice(&(prefix.len() as u16).to_le_bytes());
        p.extend_from_slice(prefix.as_bytes());
    }
    seal(p, KIND_REQUEST)
}

/// Decodes a request frame.
///
/// # Errors
///
/// [`CodecError`] on any framing or field problem.
pub fn decode_request(buf: &[u8]) -> Result<Request, CodecError> {
    let payload = deframe(buf, KIND_REQUEST)?;
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let tenant = c.u32()?;
    let priority = Priority::from_code(c.u8()?).ok_or(CodecError::BadField("priority"))?;
    let op_code = c.u8()?;
    if c.u16()? != 0 {
        return Err(CodecError::BadField("request padding"));
    }
    let deadline_micros = c.u64()?;
    let key = c.u64()?;
    let nbatch = c.u32()? as usize;
    let op = match op_code {
        0 => ReqOp::Get { key },
        1 => ReqOp::Put { key },
        2 => ReqOp::Delete { key },
        3 => {
            let mut ops = Vec::with_capacity(nbatch.min(1024));
            for _ in 0..nbatch {
                let put = match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(CodecError::BadField("batch op kind")),
                };
                let key = c.u64()?;
                ops.push(BatchOp { put, key });
            }
            ReqOp::Batch { ops }
        }
        4 => ReqOp::Evict,
        6 => {
            let plen = c.u16()? as usize;
            if plen > MAX_PREFIX {
                return Err(CodecError::BadField("prefix length"));
            }
            let prefix = String::from_utf8(c.take(plen)?.to_vec())
                .map_err(|_| CodecError::BadField("prefix utf-8"))?;
            ReqOp::PrefixQuery { prefix }
        }
        _ => return Err(CodecError::BadField("op code")),
    };
    if !matches!(op, ReqOp::Batch { .. }) && nbatch != 0 {
        return Err(CodecError::BadField("batch count on non-batch op"));
    }
    c.done()?;
    Ok(Request {
        id,
        tenant,
        priority,
        deadline_micros,
        op,
    })
}

// -- response -----------------------------------------------------------------

/// Encodes a response into one frame, built and sealed in one buffer.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    // 32 fixed bytes, 9 per batch result, the detail: the exact size.
    let mut p = frame_buf(32 + 9 * resp.batch.len() + resp.detail.len());
    p.extend_from_slice(&resp.id.to_le_bytes());
    p.push(resp.status.code());
    p.push(match resp.found {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    p.extend_from_slice(&0u16.to_le_bytes());
    p.extend_from_slice(&resp.attempts.to_le_bytes());
    p.extend_from_slice(&resp.stamp.to_le_bytes());
    p.extend_from_slice(&(resp.batch.len() as u32).to_le_bytes());
    p.extend_from_slice(&(resp.detail.len() as u32).to_le_bytes());
    for b in &resp.batch {
        p.push(u8::from(b.applied));
        p.extend_from_slice(&b.stamp.to_le_bytes());
    }
    p.extend_from_slice(resp.detail.as_bytes());
    seal(p, KIND_RESPONSE)
}

/// Decodes a response frame.
///
/// # Errors
///
/// [`CodecError`] on any framing or field problem.
pub fn decode_response(buf: &[u8]) -> Result<Response, CodecError> {
    let payload = deframe(buf, KIND_RESPONSE)?;
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let status = Status::from_code(c.u8()?).ok_or(CodecError::BadField("status"))?;
    let found = match c.u8()? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        _ => return Err(CodecError::BadField("found")),
    };
    if c.u16()? != 0 {
        return Err(CodecError::BadField("response padding"));
    }
    let attempts = c.u32()?;
    let stamp = c.u64()?;
    let nbatch = c.u32()? as usize;
    let detail_len = c.u32()? as usize;
    let mut batch = Vec::with_capacity(nbatch.min(1024));
    for _ in 0..nbatch {
        let applied = match c.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::BadField("batch result flag")),
        };
        let stamp = c.u64()?;
        batch.push(BatchResult { applied, stamp });
    }
    let detail = String::from_utf8(c.take(detail_len)?.to_vec())
        .map_err(|_| CodecError::BadField("detail utf-8"))?;
    c.done()?;
    Ok(Response {
        id,
        status,
        found,
        attempts,
        stamp,
        batch,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request {
                id: 1,
                tenant: 7,
                priority: Priority::Low,
                deadline_micros: 0,
                op: ReqOp::Get { key: 42 },
            },
            Request {
                id: 2,
                tenant: 0,
                priority: Priority::Normal,
                deadline_micros: 1_000_000,
                op: ReqOp::Put { key: u64::MAX },
            },
            Request {
                id: 3,
                tenant: 9,
                priority: Priority::High,
                deadline_micros: 5,
                op: ReqOp::Delete { key: 0 },
            },
            Request {
                id: 4,
                tenant: 3,
                priority: Priority::High,
                deadline_micros: 0,
                op: ReqOp::Batch {
                    ops: vec![
                        BatchOp { put: true, key: 1 },
                        BatchOp { put: false, key: 2 },
                        BatchOp { put: true, key: 3 },
                    ],
                },
            },
            Request {
                id: 5,
                tenant: 1,
                priority: Priority::Normal,
                deadline_micros: 0,
                op: ReqOp::Evict,
            },
            Request {
                id: 7,
                tenant: 2,
                priority: Priority::Normal,
                deadline_micros: 250,
                op: ReqOp::PrefixQuery {
                    prefix: "car".to_string(),
                },
            },
            Request {
                id: 8,
                tenant: 2,
                priority: Priority::Low,
                deadline_micros: 0,
                op: ReqOp::PrefixQuery {
                    prefix: String::new(),
                },
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response {
                id: 1,
                status: Status::Ok,
                found: Some(true),
                attempts: 1,
                stamp: 99,
                batch: Vec::new(),
                detail: String::new(),
            },
            Response {
                id: 3,
                status: Status::Ok,
                found: None,
                attempts: 2,
                stamp: 104,
                batch: vec![
                    BatchResult {
                        applied: true,
                        stamp: 103,
                    },
                    BatchResult {
                        applied: false,
                        stamp: 104,
                    },
                ],
                detail: String::new(),
            },
            Response::rejection(4, Status::Overloaded, "queue full"),
            Response::rejection(5, Status::Malformed, "frame CRC mismatch"),
        ]
    }

    /// The wire bytes of each `sample_requests()` frame, in order: every op
    /// code, a batch and both prefix shapes.
    const GOLDEN_REQUESTS: [&str; 7] = [
        "4e56504953525631020000000100000024000000000000005d68f7e0afe145860100000000000000070000000000000000000000000000002a0000000000000000000000",
        "4e5650495352563102000000010000002400000000000000739c573d7d6a6a2b0200000000000000000000000101000040420f0000000000ffffffffffffffff00000000",
        "4e5650495352563102000000010000002400000000000000b9ec50a5cecab7e2030000000000000009000000020200000500000000000000000000000000000000000000",
        "4e5650495352563102000000010000003f00000000000000494f57516ccbf10d040000000000000003000000020300000000000000000000000000000000000003000000010100000000000000000200000000000000010300000000000000",
        "4e56504953525631020000000100000024000000000000002d74861a0aaa437c050000000000000001000000010400000000000000000000000000000000000000000000",
        "4e5650495352563102000000010000002900000000000000851f278a639ca23f07000000000000000200000001060000fa000000000000000000000000000000000000000300636172",
        "4e5650495352563102000000010000002600000000000000a7e7e29d9c030c090800000000000000020000000006000000000000000000000000000000000000000000000000",
    ];

    /// The wire bytes of each `sample_responses()` frame, in order: a plain
    /// result, a batch and two rejections.
    const GOLDEN_RESPONSES: [&str; 4] = [
        "4e565049535256310200000002000000200000000000000080fa9b9f41cfb25d0100000000000000000200000100000063000000000000000000000000000000",
        "4e5650495352563102000000020000003200000000000000c897a0faf23d1d3f0300000000000000000000000200000068000000000000000200000000000000016700000000000000006800000000000000",
        "4e5650495352563102000000020000002a00000000000000c09ed4f104d4dec4040000000000000001000000000000000000000000000000000000000a00000071756575652066756c6c",
        "4e56504953525631020000000200000032000000000000004df733557188302405000000000000000700000000000000000000000000000000000000120000006672616d6520435243206d69736d61746368",
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn frames_match_the_committed_wire_bytes() {
        for (req, want) in sample_requests().iter().zip(GOLDEN_REQUESTS) {
            let bytes = encode_request(req);
            assert_eq!(hex(&bytes), want, "{req:?}");
            assert_eq!(&decode_request(&bytes).unwrap(), req);
        }
        for (resp, want) in sample_responses().iter().zip(GOLDEN_RESPONSES) {
            let bytes = encode_response(resp);
            assert_eq!(hex(&bytes), want, "{resp:?}");
            assert_eq!(&decode_response(&bytes).unwrap(), resp);
        }
        assert_eq!(sample_requests().len(), GOLDEN_REQUESTS.len());
        assert_eq!(sample_responses().len(), GOLDEN_RESPONSES.len());
    }

    #[test]
    fn request_roundtrip() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn truncation_at_every_length_is_a_clean_error() {
        // Both variable-length request shapes: a batch and a prefix query.
        for req in [&sample_requests()[3], &sample_requests()[5]] {
            let bytes = encode_request(req);
            for n in 0..bytes.len() {
                let err = decode_request(&bytes[..n]).unwrap_err();
                assert!(
                    matches!(err, CodecError::Truncated | CodecError::BadCrc),
                    "prefix {n}: {err:?}"
                );
            }
        }
        let resp = &sample_responses()[1];
        let bytes = encode_response(resp);
        for n in 0..bytes.len() {
            decode_response(&bytes[..n]).unwrap_err();
        }
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        let bytes = encode_request(&sample_requests()[1]);
        for byte in 0..bytes.len() {
            let mut broken = bytes.clone();
            broken[byte] ^= 0x40;
            assert!(
                decode_request(&broken).is_err(),
                "flip at byte {byte} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_request(&sample_requests()[0]);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn kind_confusion_rejected() {
        let req_bytes = encode_request(&sample_requests()[0]);
        assert_eq!(
            decode_response(&req_bytes).unwrap_err(),
            CodecError::BadKind(KIND_REQUEST)
        );
        let resp_bytes = encode_response(&sample_responses()[0]);
        assert_eq!(
            decode_request(&resp_bytes).unwrap_err(),
            CodecError::BadKind(KIND_RESPONSE)
        );
    }

    #[test]
    fn unknown_codes_rejected() {
        // Op code 7 does not exist and op code 5 (a stale `Heal`) is
        // retired: corrupt the encoded op byte and re-seal the frame so
        // only the field check can object.
        for op in [5, 7] {
            let mut bytes = encode_request(&sample_requests()[0]);
            let op_off = HEADER_BYTES + 8 + 4 + 1;
            bytes[op_off] = op;
            assert_eq!(
                decode_request(&seal(bytes, KIND_REQUEST)).unwrap_err(),
                CodecError::BadField("op code"),
                "op code {op}"
            );
        }
        // Status code 3 (a stale `Degraded`) is retired and 8 never
        // existed: the same corruption on the status byte.
        for status in [3, 8] {
            let mut bytes = encode_response(&sample_responses()[0]);
            bytes[HEADER_BYTES + 8] = status;
            assert_eq!(
                decode_response(&seal(bytes, KIND_RESPONSE)).unwrap_err(),
                CodecError::BadField("status"),
                "status code {status}"
            );
        }
    }

    #[test]
    fn oversized_or_non_utf8_prefixes_rejected() {
        let long = Request {
            id: 9,
            tenant: 2,
            priority: Priority::Normal,
            deadline_micros: 0,
            op: ReqOp::PrefixQuery {
                prefix: "z".repeat(MAX_PREFIX + 1),
            },
        };
        // The encoder happily writes it; the decoder must refuse.
        assert_eq!(
            decode_request(&encode_request(&long)).unwrap_err(),
            CodecError::BadField("prefix length")
        );

        let ok = Request {
            op: ReqOp::PrefixQuery {
                prefix: "ab".to_string(),
            },
            ..long
        };
        let mut bytes = encode_request(&ok);
        // Smash the first prefix byte to a lone UTF-8 continuation byte
        // and re-seal, so only the string check can object.
        let n = bytes.len();
        bytes[n - 2] = 0xFF;
        assert_eq!(
            decode_request(&seal(bytes, KIND_REQUEST)).unwrap_err(),
            CodecError::BadField("prefix utf-8")
        );
    }
}
