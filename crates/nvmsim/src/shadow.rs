//! Shadow tracking of cache-line persistence state, and fault injection.
//!
//! The simulator's mapped memory silently "persists" every store: a crash
//! ([`crate::Region::crash`]) tears the mapping down without discarding
//! written-but-unflushed data, so a missing `clflush_range`/`wbarrier` in a
//! persistence protocol is invisible to ordinary crash tests. This module
//! closes that gap with a *shadow memory* that mirrors what real hardware
//! would have made durable:
//!
//! * every instrumented store ([`track_store`]) marks its cache lines
//!   **dirty**;
//! * [`crate::latency::clflush_range`] moves covered dirty lines to
//!   **flushed-pending-fence**, staging the line's bytes at flush time;
//! * [`crate::latency::wbarrier`] commits pending lines into the
//!   **persisted** shadow image and marks them **clean**.
//!
//! A line re-dirtied after a flush but before the fence loses its staged
//! bytes — the model is deliberately conservative (ADR-style: nothing is
//! durable until an explicit flush *and* fence complete). Stores that are
//! never tracked (allocator internals, root-directory updates, anything
//! outside the protocol under test) keep the simulator's historical
//! behaviour of persisting silently; only instrumented protocols
//! participate in fault injection.
//!
//! On top of the tracker sit two fault-injection facilities:
//!
//! * [`capture_crash_image`] / [`crate::Region::crash_with_faults`]
//!   materialize a crash image where every non-clean line is **dropped**
//!   (reverted to its last-persisted bytes) or **torn** (each 8-byte word
//!   independently keeps either the old or the new value, decided by a
//!   seeded deterministic hash) — [`FaultPolicy`];
//! * [`FaultPlan`] is a deterministic crash-point scheduler: flushes and
//!   fences are numbered as *events*, and a plan captures a faulted image
//!   at the n-th event ([`FaultPlan::crash_at_nth_event`]), aborts the run
//!   there ([`FaultPlan::abort_at_nth_event`]), or captures at *every*
//!   event ([`FaultPlan::capture_all`]) so a harness can enumerate all
//!   crash points of a workload in one pass.
//!
//! Injected images carry a [`FaultStamp`] in the region header recording
//! what was done to them, which `nvr_inspect` reports.

use crate::latency::ARMED_SHADOW;
use crate::region::Region;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache-line size assumed by the tracker (matches `clflush_range`).
pub const SHADOW_LINE: usize = 64;

/// Typed failure of a shadow-tracker query that names a region by its
/// base address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowError {
    /// A region is mapped at `base` but [`crate::Region::enable_shadow`]
    /// was never called on it.
    ShadowNotEnabled {
        /// Base address of the untracked region.
        base: usize,
    },
    /// No open region is mapped at `base` at all.
    RegionUnknown {
        /// The offending base address.
        base: usize,
    },
}

impl std::fmt::Display for ShadowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShadowError::ShadowNotEnabled { base } => {
                write!(f, "shadow tracking not enabled for region at {base:#x}")
            }
            ShadowError::RegionUnknown { base } => {
                write!(f, "no open region mapped at {base:#x}")
            }
        }
    }
}

impl std::error::Error for ShadowError {}

impl From<ShadowError> for crate::NvError {
    fn from(e: ShadowError) -> crate::NvError {
        match e {
            ShadowError::ShadowNotEnabled { base } => crate::NvError::ShadowNotEnabled { base },
            ShadowError::RegionUnknown { base } => crate::NvError::RegionUnknown { base },
        }
    }
}

/// Classifies why `base` has no tracker: known-but-untracked region vs.
/// no region at all. A region is known when the NV-space tables map
/// `base` to a region id whose base it is.
fn not_tracked(base: usize) -> ShadowError {
    let space = crate::NvSpace::global();
    if space
        .try_rid_of_addr(base)
        .is_some_and(|rid| space.base_of_rid(rid) == base)
    {
        ShadowError::ShadowNotEnabled { base }
    } else {
        ShadowError::RegionUnknown { base }
    }
}

/// Magic identifying a valid [`FaultStamp`] in a region header
/// (`"NVPIFLT1"`).
pub const FAULT_STAMP_MAGIC: u64 = u64::from_le_bytes(*b"NVPIFLT1");

/// How unpersisted cache lines are mangled when a crash image is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Every dirty or flushed-pending-fence line reverts entirely to its
    /// last-persisted contents (the store never reached the device).
    DropUnflushed,
    /// Every dirty or flushed-pending-fence line is torn at 8-byte-word
    /// granularity: each word independently keeps the old or new value,
    /// decided by a deterministic hash of `seed`, so runs reproduce.
    TearWords {
        /// Seed for the per-word keep/revert decision.
        seed: u64,
    },
    /// Media decay rather than a persistence-protocol failure: every
    /// store persists (even unflushed ones, like the silent-persist
    /// baseline), then 1–3 bits are flipped in each of `lines`
    /// deterministically chosen cache lines of the image — anywhere,
    /// including header and metadata-slot lines. Composable with the
    /// [`FaultPlan`] scheduler like any other policy.
    BitRot {
        /// Number of distinct cache lines to corrupt (clamped to the
        /// image's line count).
        lines: u32,
        /// Seed for the line/bit choices, so runs reproduce.
        seed: u64,
    },
}

impl FaultPolicy {
    fn mode(&self) -> u64 {
        match self {
            FaultPolicy::DropUnflushed => 1,
            FaultPolicy::TearWords { .. } => 2,
            FaultPolicy::BitRot { .. } => 3,
        }
    }

    fn seed(&self) -> u64 {
        match self {
            FaultPolicy::DropUnflushed => 0,
            FaultPolicy::TearWords { seed } => *seed,
            FaultPolicy::BitRot { seed, .. } => *seed,
        }
    }
}

/// What a fault-injected crash actually did to the image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// The event number at which the image was captured (0 when the image
    /// was taken outside a [`FaultPlan`]).
    pub event: u64,
    /// Policy discriminant: 1 = drop, 2 = tear.
    pub mode: u64,
    /// The tear seed (0 for drop).
    pub seed: u64,
    /// Lines fully reverted to their last-persisted bytes.
    pub dropped_lines: u64,
    /// Lines where some words reverted and some survived.
    pub torn_lines: u64,
    /// Total 8-byte words reverted inside torn lines.
    pub torn_words: u64,
    /// Cache lines hit by bit-rot (BitRot policy only).
    pub rotted_lines: u64,
    /// Total bits flipped across rotted lines.
    pub flipped_bits: u64,
}

/// On-media record of the last injected crash, stored in the region
/// header. All-zero (in particular `magic == 0`) when no fault was ever
/// injected.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStamp {
    /// [`FAULT_STAMP_MAGIC`] when the stamp is valid.
    pub magic: u64,
    /// Policy discriminant: 0 = none, 1 = drop, 2 = tear.
    pub mode: u64,
    /// The tear seed (0 for drop).
    pub seed: u64,
    /// The event number of the captured crash point.
    pub event: u64,
    /// Lines fully reverted.
    pub dropped_lines: u64,
    /// Lines partially reverted.
    pub torn_lines: u64,
    /// Words reverted inside torn lines.
    pub torn_words: u64,
    /// Cache lines hit by bit-rot.
    pub rotted_lines: u64,
    /// Bits flipped across rotted lines.
    pub flipped_bits: u64,
}

impl FaultStamp {
    /// Builds the stamp persisted into an injected image.
    pub fn from_report(r: &FaultReport) -> FaultStamp {
        FaultStamp {
            magic: FAULT_STAMP_MAGIC,
            mode: r.mode,
            seed: r.seed,
            event: r.event,
            dropped_lines: r.dropped_lines,
            torn_lines: r.torn_lines,
            torn_words: r.torn_words,
            rotted_lines: r.rotted_lines,
            flipped_bits: r.flipped_bits,
        }
    }

    /// Parses a stamp from raw header bytes (little-endian u64 fields).
    /// Returns `None` unless the magic matches.
    pub fn parse(bytes: &[u8]) -> Option<FaultStamp> {
        if bytes.len() < std::mem::size_of::<FaultStamp>() {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
        if word(0) != FAULT_STAMP_MAGIC {
            return None;
        }
        Some(FaultStamp {
            magic: word(0),
            mode: word(1),
            seed: word(2),
            event: word(3),
            dropped_lines: word(4),
            torn_lines: word(5),
            torn_words: word(6),
            rotted_lines: word(7),
            flipped_bits: word(8),
        })
    }

    fn write_to(&self, out: &mut [u8]) {
        for (i, v) in [
            self.magic,
            self.mode,
            self.seed,
            self.event,
            self.dropped_lines,
            self.torn_lines,
            self.torn_words,
            self.rotted_lines,
            self.flipped_bits,
        ]
        .into_iter()
        .enumerate()
        {
            out[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// Panic payload thrown by [`FaultPlan::abort_at_nth_event`] when the
/// scheduled crash point is reached. Harnesses catch it with
/// `std::panic::catch_unwind` and downcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPointReached {
    /// The event number the run was aborted at.
    pub event: u64,
}

impl std::fmt::Display for CrashPointReached {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulated crash at persistence event {}", self.event)
    }
}

/// A crash image captured by a [`FaultPlan`].
pub struct CapturedCrash {
    /// The event number the image was captured at (the event itself has
    /// *not* taken effect in the image).
    pub event: u64,
    /// The full faulted region image, ready to be written to a file and
    /// reopened with [`crate::Region::open_file`].
    pub image: Vec<u8>,
    /// What the policy did to the image.
    pub report: FaultReport,
}

impl std::fmt::Debug for CapturedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CapturedCrash")
            .field("event", &self.event)
            .field("image_len", &self.image.len())
            .field("report", &self.report)
            .finish()
    }
}

const CLEAN: u8 = 0;
const DIRTY: u8 = 1;
const PENDING: u8 = 2;

#[derive(Debug)]
struct TrackState {
    /// Per-line persistence state (`CLEAN` / `DIRTY` / `PENDING`).
    lines: Vec<u8>,
    /// Bytes of each pending line as of its last flush.
    staged: HashMap<u32, [u8; SHADOW_LINE]>,
    /// Lines flushed since the last fence (may hold stale entries for
    /// lines re-dirtied in between; state decides at the fence).
    pending: Vec<u32>,
    /// The durable view: what the device would hold after a power cut.
    persisted: Vec<u8>,
}

#[derive(Debug)]
struct Tracker {
    rid: u32,
    base: usize,
    size: usize,
    stamp_off: usize,
    /// Persistence events (flushes of this region + fences) observed for
    /// this region, relative to the last [`reset_events_for`].
    events: AtomicU64,
    state: Mutex<TrackState>,
}

/// Whether any tracker is registered: the shadow bit of the armed word
/// the persistence points test (see [`crate::latency`]).
#[inline]
fn enabled() -> bool {
    crate::latency::armed() & ARMED_SHADOW != 0
}

static TRACKERS: Mutex<Vec<Arc<Tracker>>> = Mutex::new(Vec::new());
static PLAN: Mutex<Option<PlanState>> = Mutex::new(None);

#[derive(Debug)]
enum PlanMode {
    CaptureAll,
    AtNth { at: u64, abort: bool },
}

#[derive(Debug)]
struct PlanState {
    base: usize,
    policy: FaultPolicy,
    mode: PlanMode,
    fired: bool,
    crashes: Vec<CapturedCrash>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn tracker_covering(addr: usize) -> Option<Arc<Tracker>> {
    lock(&TRACKERS)
        .iter()
        .find(|t| addr >= t.base && addr < t.base + t.size)
        .cloned()
}

fn tracker_for_base(base: usize) -> Option<Arc<Tracker>> {
    lock(&TRACKERS).iter().find(|t| t.base == base).cloned()
}

/// Registers a tracker for `[base, base+size)` and checkpoints it (the
/// current memory contents count as persisted). Idempotent per base.
pub(crate) fn register(rid: u32, base: usize, size: usize, stamp_off: usize) {
    if tracker_for_base(base).is_some() {
        checkpoint(base);
        return;
    }
    let nlines = size.div_ceil(SHADOW_LINE);
    // SAFETY: the caller (Region) guarantees `[base, base+size)` is mapped.
    let persisted = unsafe { std::slice::from_raw_parts(base as *const u8, size) }.to_vec();
    let tracker = Arc::new(Tracker {
        rid,
        base,
        size,
        stamp_off,
        events: AtomicU64::new(0),
        state: Mutex::new(TrackState {
            lines: vec![CLEAN; nlines],
            staged: HashMap::new(),
            pending: Vec::new(),
            persisted,
        }),
    });
    let mut trackers = lock(&TRACKERS);
    trackers.push(tracker);
    crate::latency::arm(ARMED_SHADOW);
}

/// Removes the tracker of a region being torn down.
pub(crate) fn unregister_rid(rid: u32) {
    let mut trackers = lock(&TRACKERS);
    trackers.retain(|t| t.rid != rid);
    if trackers.is_empty() {
        crate::latency::disarm(ARMED_SHADOW);
    }
}

/// Whether a tracker is registered for the region mapped at `base`.
pub fn is_tracked(base: usize) -> bool {
    tracker_for_base(base).is_some()
}

/// Marks every line as clean and snapshots current memory as the
/// persisted view. Called after a full-image durability point
/// ([`crate::Region::sync`]).
pub(crate) fn checkpoint(base: usize) {
    let Some(t) = tracker_for_base(base) else {
        return;
    };
    let mut s = lock(&t.state);
    s.lines.fill(CLEAN);
    s.staged.clear();
    s.pending.clear();
    // SAFETY: the region is mapped while registered.
    let mem = unsafe { std::slice::from_raw_parts(t.base as *const u8, t.size) };
    s.persisted.copy_from_slice(mem);
}

/// Extends the tracker of the region at `base` to cover `new_size` bytes
/// after an in-place [`crate::Region::grow`]. The tracker's `size` is
/// immutable (the lock-free readers in `tracker_covering` rely on it), so
/// growth swaps in a replacement tracker carrying the old state: existing
/// line states, staged flushes, and the persisted prefix are preserved;
/// the new tail — freshly committed, zero-filled memory that is durable by
/// construction — joins as `CLEAN` with its bytes snapshotted as
/// persisted. A no-op when the region is untracked or not actually grown.
pub(crate) fn grow_region(base: usize, new_size: usize) {
    let mut trackers = lock(&TRACKERS);
    let Some(pos) = trackers.iter().position(|t| t.base == base) else {
        return;
    };
    let old = trackers[pos].clone();
    if new_size <= old.size {
        return;
    }
    let s = lock(&old.state);
    let nlines = new_size.div_ceil(SHADOW_LINE);
    let mut lines = s.lines.clone();
    lines.resize(nlines, CLEAN);
    let mut persisted = s.persisted.clone();
    // SAFETY: the caller (Region::grow) has committed `[base, base+new_size)`.
    let tail =
        unsafe { std::slice::from_raw_parts((base + old.size) as *const u8, new_size - old.size) };
    persisted.extend_from_slice(tail);
    let replacement = Arc::new(Tracker {
        rid: old.rid,
        base,
        size: new_size,
        stamp_off: old.stamp_off,
        events: AtomicU64::new(old.events.load(Ordering::Relaxed)),
        state: Mutex::new(TrackState {
            lines,
            staged: s.staged.clone(),
            pending: s.pending.clone(),
            persisted,
        }),
    });
    drop(s);
    trackers[pos] = replacement;
}

fn line_range(t: &Tracker, addr: usize, len: usize) -> std::ops::Range<usize> {
    let start = addr.max(t.base) - t.base;
    let end = (addr + len).min(t.base + t.size) - t.base;
    if start >= end {
        return 0..0;
    }
    (start / SHADOW_LINE)..((end - 1) / SHADOW_LINE + 1)
}

/// Records an instrumented store to `[addr, addr+len)`: the covered cache
/// lines become dirty (and lose any staged-but-unfenced flush). A no-op
/// unless tracking is enabled and `addr` falls in a tracked region.
#[inline]
pub fn track_store(addr: usize, len: usize) {
    if len != 0 && enabled() {
        track_store_enabled(addr, len);
    }
}

#[cold]
#[inline(never)]
fn track_store_enabled(addr: usize, len: usize) {
    let Some(t) = tracker_covering(addr) else {
        return;
    };
    let mut s = lock(&t.state);
    for line in line_range(&t, addr, len) {
        if s.lines[line] == PENDING {
            s.staged.remove(&(line as u32));
        }
        s.lines[line] = DIRTY;
    }
}

/// Flush hook (called from [`crate::latency::clflush_range`]): dirty
/// covered lines stage their current bytes and await the next fence.
/// Counts one persistence event.
pub(crate) fn on_flush(addr: usize, len: usize) {
    if len == 0 || !enabled() {
        return;
    }
    crate::metrics::incr(crate::metrics::Counter::ShadowFlushEvents);
    let Some(t) = tracker_covering(addr) else {
        return;
    };
    // A flush is an event of the region it lands in, and only that one.
    let n = t.events.fetch_add(1, Ordering::Relaxed) + 1;
    crate::sched::note_event(t.base, n, crate::sched::EventKind::Flush);
    run_plan(t.base, n);
    let mut s = lock(&t.state);
    for line in line_range(&t, addr, len) {
        if s.lines[line] == CLEAN {
            continue;
        }
        let off = line * SHADOW_LINE;
        let take = SHADOW_LINE.min(t.size - off);
        let mut bytes = [0u8; SHADOW_LINE];
        // SAFETY: the region is mapped while registered; `off + take`
        // stays inside it.
        unsafe {
            std::ptr::copy_nonoverlapping((t.base + off) as *const u8, bytes.as_mut_ptr(), take);
        }
        if s.lines[line] == DIRTY {
            s.pending.push(line as u32);
            s.lines[line] = PENDING;
        }
        s.staged.insert(line as u32, bytes);
    }
}

/// Fence hook (called from [`crate::latency::wbarrier`]): every line
/// flushed since the previous fence commits its staged bytes into the
/// persisted view. Counts one persistence event.
pub(crate) fn on_fence() {
    if !enabled() {
        return;
    }
    crate::metrics::incr(crate::metrics::Counter::ShadowFenceEvents);
    let trackers: Vec<Arc<Tracker>> = lock(&TRACKERS).clone();
    // A fence is ambient: it is an event of *every* tracked region. The
    // plan (if armed) sees its own region's event number, before the
    // commit below takes effect.
    for t in &trackers {
        let n = t.events.fetch_add(1, Ordering::Relaxed) + 1;
        crate::sched::note_event(t.base, n, crate::sched::EventKind::Fence);
        run_plan(t.base, n);
    }
    for t in trackers {
        let mut s = lock(&t.state);
        if s.pending.is_empty() {
            continue;
        }
        let pending = std::mem::take(&mut s.pending);
        let TrackState {
            lines,
            staged,
            persisted,
            ..
        } = &mut *s;
        for line in pending {
            let idx = line as usize;
            // Entries whose line was re-dirtied since the flush are stale:
            // their staged bytes were discarded by `track_store`.
            if lines[idx] != PENDING {
                continue;
            }
            if let Some(bytes) = staged.remove(&line) {
                let off = idx * SHADOW_LINE;
                let take = SHADOW_LINE.min(t.size - off);
                persisted[off..off + take].copy_from_slice(&bytes[..take]);
            }
            lines[idx] = CLEAN;
        }
    }
}

/// The number of persistence events observed for the region mapped at
/// `base`: flushes landing in that region plus every fence (fences are
/// ambient and count for each tracked region). Returns 0 when the region
/// is not tracked. Two concurrently shadowed regions keep independent
/// counts; [`FaultPlan`] event numbers refer to this counter of the
/// planned region.
pub fn event_count_for(base: usize) -> u64 {
    tracker_for_base(base).map_or(0, |t| t.events.load(Ordering::Relaxed))
}

/// Resets the per-region event counter of the region mapped at `base`
/// (typically right before arming a [`FaultPlan`] so event numbers are
/// workload-relative). A no-op when the region is not tracked.
pub fn reset_events_for(base: usize) {
    if let Some(t) = tracker_for_base(base) {
        t.events.store(0, Ordering::Relaxed);
    }
}

/// A copy of the persisted (durable) view of the region mapped at `base`,
/// or `None` if it is not tracked.
pub fn persisted_view(base: usize) -> Option<Vec<u8>> {
    let t = tracker_for_base(base)?;
    let s = lock(&t.state);
    Some(s.persisted.clone())
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Targeted bit-rot: flips 1–3 distinct bits (count and positions decided
/// deterministically by `seed`) inside `[off, off + len)` of `image`. The
/// range is clamped to the image; returns how many bits were flipped
/// (0 for an empty/out-of-range target).
pub fn corrupt_range(image: &mut [u8], off: usize, len: usize, seed: u64) -> u64 {
    let len = len.min(image.len().saturating_sub(off));
    if len == 0 {
        return 0;
    }
    let total_bits = (len as u64) * 8;
    let want = (1 + splitmix64(seed) % 3).min(total_bits);
    let mut chosen: Vec<u64> = Vec::with_capacity(want as usize);
    let mut counter = seed ^ 0x5EED_0B17_5EED_0B17;
    while (chosen.len() as u64) < want {
        counter = counter.wrapping_add(1);
        let pos = splitmix64(counter) % total_bits;
        if chosen.contains(&pos) {
            continue;
        }
        image[off + (pos / 8) as usize] ^= 1 << (pos % 8);
        chosen.push(pos);
    }
    chosen.len() as u64
}

/// Whole-line bit-rot: picks `lines` distinct cache lines of `image`
/// (clamped to the line count) deterministically from `seed` and runs
/// [`corrupt_range`] over each. Returns `(lines_rotted, bits_flipped)`.
pub fn corrupt_lines(image: &mut [u8], lines: u32, seed: u64) -> (u64, u64) {
    let nlines = image.len().div_ceil(SHADOW_LINE);
    if nlines == 0 {
        return (0, 0);
    }
    let want = (lines as usize).min(nlines);
    let mut chosen: Vec<usize> = Vec::with_capacity(want);
    let mut counter = seed;
    while chosen.len() < want {
        counter = counter.wrapping_add(1);
        let line = (splitmix64(counter) % nlines as u64) as usize;
        if chosen.contains(&line) {
            continue;
        }
        chosen.push(line);
    }
    let mut bits = 0u64;
    for (i, &line) in chosen.iter().enumerate() {
        let off = line * SHADOW_LINE;
        bits += corrupt_range(image, off, SHADOW_LINE, splitmix64(seed ^ (i as u64) << 17));
    }
    (chosen.len() as u64, bits)
}

/// Captures a crash image of the region mapped at `base` under `policy`:
/// clean lines keep current memory, non-clean lines are dropped or torn.
/// The image carries the dirty flag and a [`FaultStamp`].
///
/// # Errors
///
/// [`ShadowError::ShadowNotEnabled`] when the region is open but
/// untracked, [`ShadowError::RegionUnknown`] when nothing is mapped at
/// `base`.
pub fn capture_crash_image(
    base: usize,
    policy: FaultPolicy,
) -> Result<(Vec<u8>, FaultReport), ShadowError> {
    capture_at_event(base, policy, 0)
}

fn capture_at_event(
    base: usize,
    policy: FaultPolicy,
    event: u64,
) -> Result<(Vec<u8>, FaultReport), ShadowError> {
    let t = tracker_for_base(base).ok_or_else(|| not_tracked(base))?;
    let s = lock(&t.state);
    // SAFETY: the region is mapped while registered.
    let mut image = unsafe { std::slice::from_raw_parts(t.base as *const u8, t.size) }.to_vec();
    let mut report = FaultReport {
        event,
        mode: policy.mode(),
        seed: policy.seed(),
        ..FaultReport::default()
    };
    for (line, &st) in s.lines.iter().enumerate() {
        if st == CLEAN {
            continue;
        }
        let off = line * SHADOW_LINE;
        let take = SHADOW_LINE.min(t.size - off);
        match policy {
            FaultPolicy::DropUnflushed => {
                image[off..off + take].copy_from_slice(&s.persisted[off..off + take]);
                report.dropped_lines += 1;
            }
            FaultPolicy::TearWords { seed } => {
                let words = take / 8;
                let mut reverted = 0u64;
                for w in 0..words {
                    let coin = splitmix64(seed ^ ((line as u64) << 3 | w as u64));
                    if coin & 1 == 0 {
                        let wo = off + w * 8;
                        image[wo..wo + 8].copy_from_slice(&s.persisted[wo..wo + 8]);
                        reverted += 1;
                    }
                }
                if reverted == words as u64 {
                    report.dropped_lines += 1;
                } else if reverted > 0 {
                    report.torn_lines += 1;
                    report.torn_words += reverted;
                }
            }
            // Bit-rot keeps every store (media decay is orthogonal to the
            // persistence protocol); corruption is applied below.
            FaultPolicy::BitRot { .. } => {}
        }
    }
    if let FaultPolicy::BitRot { lines, seed } = policy {
        let (rotted, bits) = corrupt_lines(&mut image, lines, seed);
        report.rotted_lines = rotted;
        report.flipped_bits = bits;
    }
    // A crash image is dirty by definition (header flags, offset 24).
    image[24] |= 1;
    let stamp = FaultStamp::from_report(&report);
    stamp.write_to(&mut image[t.stamp_off..t.stamp_off + std::mem::size_of::<FaultStamp>()]);
    Ok((image, report))
}

fn run_plan(base: usize, n: u64) {
    let mut abort_event = None;
    {
        let mut plan = lock(&PLAN);
        if let Some(p) = plan.as_mut() {
            // Events are per-region: a flush or fence of another region
            // never advances this plan's crash clock.
            if p.base != base {
                return;
            }
            let capture = match p.mode {
                PlanMode::CaptureAll => true,
                PlanMode::AtNth { at, .. } => at == n && !p.fired,
            };
            if capture {
                if let Ok((image, report)) = capture_at_event(p.base, p.policy, n) {
                    p.crashes.push(CapturedCrash {
                        event: n,
                        image,
                        report,
                    });
                }
                if let PlanMode::AtNth { at, abort } = p.mode {
                    if at == n {
                        p.fired = true;
                        if abort {
                            abort_event = Some(n);
                        }
                    }
                }
            }
        }
    }
    if let Some(event) = abort_event {
        std::panic::panic_any(CrashPointReached { event });
    }
}

/// Deterministic crash-point scheduler. At most one plan is armed
/// process-wide; dropping the plan disarms it.
///
/// Events are numbered from 1 *per region* (relative to the planned
/// region's last [`reset_events_for`]): flushes landing in the region
/// plus every fence. The captured image at event `n` reflects events
/// `1..n` *minus* event `n` itself — the crash happens just before the
/// n-th flush or fence takes effect.
#[derive(Debug)]
pub struct FaultPlan {
    active: bool,
}

impl FaultPlan {
    fn arm(region: &Region, policy: FaultPolicy, mode: PlanMode) -> FaultPlan {
        assert!(
            is_tracked(region.base()),
            "enable_shadow() must be called on the region before arming a FaultPlan"
        );
        let mut plan = lock(&PLAN);
        assert!(plan.is_none(), "a FaultPlan is already armed");
        *plan = Some(PlanState {
            base: region.base(),
            policy,
            mode,
            fired: false,
            crashes: Vec::new(),
        });
        FaultPlan { active: true }
    }

    /// Captures a faulted crash image of `region` at the `n`-th
    /// persistence event (`n >= 1`); the run continues normally.
    pub fn crash_at_nth_event(region: &Region, policy: FaultPolicy, n: u64) -> FaultPlan {
        assert!(n >= 1, "events are numbered from 1");
        Self::arm(
            region,
            policy,
            PlanMode::AtNth {
                at: n,
                abort: false,
            },
        )
    }

    /// Like [`FaultPlan::crash_at_nth_event`], but additionally aborts
    /// the run by panicking with [`CrashPointReached`] after the capture,
    /// so the process-visible workload really stops at the crash point.
    pub fn abort_at_nth_event(region: &Region, policy: FaultPolicy, n: u64) -> FaultPlan {
        assert!(n >= 1, "events are numbered from 1");
        Self::arm(region, policy, PlanMode::AtNth { at: n, abort: true })
    }

    /// Captures a faulted crash image at *every* persistence event — one
    /// workload run enumerates all its crash points.
    pub fn capture_all(region: &Region, policy: FaultPolicy) -> FaultPlan {
        Self::arm(region, policy, PlanMode::CaptureAll)
    }

    /// Takes the crash captured so far, if any (single-crash plans).
    pub fn take_crash(&mut self) -> Option<CapturedCrash> {
        self.take_crashes().into_iter().next()
    }

    /// Takes every crash captured so far, oldest first.
    pub fn take_crashes(&mut self) -> Vec<CapturedCrash> {
        let mut plan = lock(&PLAN);
        match plan.as_mut() {
            Some(p) => std::mem::take(&mut p.crashes),
            None => Vec::new(),
        }
    }

    /// Disarms the plan and returns every captured crash.
    pub fn disarm(mut self) -> Vec<CapturedCrash> {
        let crashes = self.take_crashes();
        *lock(&PLAN) = None;
        self.active = false;
        crashes
    }
}

impl Drop for FaultPlan {
    fn drop(&mut self) {
        if self.active {
            *lock(&PLAN) = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency;

    // NOTE on test hygiene: the event counter and the fence hook are
    // process-global, and sibling tests in this binary issue flushes and
    // fences concurrently. Tests here therefore avoid asserting global
    // event counts or that a *pending* line stays unpersisted across
    // foreign fences; the serialized `tests/crash_matrix.rs` binary covers
    // those properties. Dirty-line behaviour is immune: only a flush of
    // the tracked address range can move a dirty line onward.

    fn stamp_off() -> usize {
        crate::region::RegionHeader::OFF_FAULT
    }

    #[test]
    fn untracked_stores_persist_silently() {
        let r = Region::create(1 << 20).unwrap();
        r.enable_shadow().unwrap();
        let p = r.alloc(64, 16).unwrap().as_ptr() as *mut u64;
        unsafe { p.write(0xAAAA) }; // not tracked
        let (image, report) = capture_crash_image(r.base(), FaultPolicy::DropUnflushed).unwrap();
        let off = p as usize - r.base();
        let got = u64::from_le_bytes(image[off..off + 8].try_into().unwrap());
        assert_eq!(got, 0xAAAA, "untracked store must survive the crash");
        assert_eq!(report.dropped_lines, 0);
        r.close().unwrap();
    }

    #[test]
    fn tracked_unflushed_store_is_dropped() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 16).unwrap().as_ptr() as *mut u64;
        unsafe { p.write(1) };
        r.enable_shadow().unwrap(); // checkpoint: value 1 is persisted
        unsafe { p.write(2) };
        track_store(p as usize, 8);
        let (image, report) = capture_crash_image(r.base(), FaultPolicy::DropUnflushed).unwrap();
        let off = p as usize - r.base();
        let got = u64::from_le_bytes(image[off..off + 8].try_into().unwrap());
        assert_eq!(got, 1, "unflushed tracked store must revert");
        assert!(report.dropped_lines >= 1);
        // The stamp is embedded and parses back.
        let stamp = FaultStamp::parse(&image[stamp_off()..]).unwrap();
        assert_eq!(stamp.mode, 1);
        assert_eq!(stamp.dropped_lines, report.dropped_lines);
        // The image is marked dirty.
        assert_eq!(image[24] & 1, 1);
        r.close().unwrap();
    }

    #[test]
    fn flushed_and_fenced_store_survives() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 16).unwrap().as_ptr() as *mut u64;
        unsafe { p.write(1) };
        r.enable_shadow().unwrap();
        unsafe { p.write(2) };
        track_store(p as usize, 8);
        latency::clflush_range(p as usize, 8);
        latency::wbarrier();
        let (image, report) = capture_crash_image(r.base(), FaultPolicy::DropUnflushed).unwrap();
        let off = p as usize - r.base();
        let got = u64::from_le_bytes(image[off..off + 8].try_into().unwrap());
        assert_eq!(got, 2, "flushed+fenced store is durable");
        assert_eq!(report.dropped_lines, 0);
        r.close().unwrap();
    }

    #[test]
    fn tear_policy_is_deterministic_and_word_granular() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(128, 16).unwrap().as_ptr() as *mut u64;
        for i in 0..16 {
            unsafe { p.add(i).write(100) };
        }
        r.enable_shadow().unwrap();
        for i in 0..16 {
            unsafe { p.add(i).write(200 + i as u64) };
        }
        track_store(p as usize, 128);
        let (img1, rep1) =
            capture_crash_image(r.base(), FaultPolicy::TearWords { seed: 7 }).unwrap();
        let (img2, rep2) =
            capture_crash_image(r.base(), FaultPolicy::TearWords { seed: 7 }).unwrap();
        assert_eq!(img1, img2, "same seed, same tear");
        assert_eq!(rep1, rep2);
        let off = p as usize - r.base();
        let mut old = 0;
        let mut new = 0;
        for i in 0..16 {
            let got = u64::from_le_bytes(img1[off + i * 8..off + i * 8 + 8].try_into().unwrap());
            if got == 100 {
                old += 1;
            } else if got == 200 + i as u64 {
                new += 1;
            } else {
                panic!("torn word has neither old nor new value: {got}");
            }
        }
        assert_eq!(old + new, 16, "every word is exactly old or new");
        let (img3, _) = capture_crash_image(r.base(), FaultPolicy::TearWords { seed: 8 }).unwrap();
        assert_ne!(img1, img3, "different seed, different tear");
        r.close().unwrap();
    }

    #[test]
    fn checkpoint_resets_tracking() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 16).unwrap().as_ptr() as *mut u64;
        r.enable_shadow().unwrap();
        unsafe { p.write(5) };
        track_store(p as usize, 8);
        checkpoint(r.base());
        let (image, report) = capture_crash_image(r.base(), FaultPolicy::DropUnflushed).unwrap();
        let off = p as usize - r.base();
        let got = u64::from_le_bytes(image[off..off + 8].try_into().unwrap());
        assert_eq!(got, 5, "checkpoint made the value durable");
        assert_eq!(report.dropped_lines, 0);
        r.close().unwrap();
    }

    #[test]
    fn persisted_view_matches_drop_image_payload() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 16).unwrap().as_ptr() as *mut u64;
        unsafe { p.write(3) };
        r.enable_shadow().unwrap();
        unsafe { p.write(4) };
        track_store(p as usize, 8);
        let view = persisted_view(r.base()).unwrap();
        let off = p as usize - r.base();
        assert_eq!(
            u64::from_le_bytes(view[off..off + 8].try_into().unwrap()),
            3
        );
        r.close().unwrap();
    }

    #[test]
    fn corrupt_range_is_deterministic_and_bounded() {
        let mut a = vec![0u8; 256];
        let mut b = vec![0u8; 256];
        let bits = corrupt_range(&mut a, 64, 64, 42);
        assert_eq!(bits, corrupt_range(&mut b, 64, 64, 42));
        assert_eq!(a, b, "same seed, same rot");
        assert!((1..=3).contains(&bits));
        // Only the targeted range was touched.
        assert!(a[..64].iter().all(|&x| x == 0));
        assert!(a[128..].iter().all(|&x| x == 0));
        let flipped: u32 = a[64..128].iter().map(|x| x.count_ones()).sum();
        assert_eq!(flipped as u64, bits, "distinct bit positions");
        // Out-of-range target is a no-op.
        assert_eq!(corrupt_range(&mut a, 300, 64, 1), 0);
    }

    #[test]
    fn corrupt_lines_hits_distinct_lines() {
        let mut img = vec![0u8; 1024];
        let (lines, bits) = corrupt_lines(&mut img, 4, 7);
        assert_eq!(lines, 4);
        assert!(bits >= 4);
        let dirty_lines = img
            .chunks(SHADOW_LINE)
            .filter(|c| c.iter().any(|&x| x != 0))
            .count();
        assert_eq!(dirty_lines as u64, lines);
        // Asking for more lines than exist clamps.
        let mut small = vec![0u8; 128];
        let (l2, _) = corrupt_lines(&mut small, 100, 7);
        assert_eq!(l2, 2);
    }

    #[test]
    fn bitrot_policy_keeps_stores_and_stamps_the_image() {
        let r = Region::create(1 << 20).unwrap();
        let p = r.alloc(64, 16).unwrap().as_ptr() as *mut u64;
        r.enable_shadow().unwrap();
        unsafe { p.write(9) }; // untracked and unflushed: bit-rot keeps it
        let policy = FaultPolicy::BitRot { lines: 3, seed: 11 };
        let (img1, rep1) = capture_crash_image(r.base(), policy).unwrap();
        let (img2, rep2) = capture_crash_image(r.base(), policy).unwrap();
        assert_eq!(img1, img2, "same seed, same rot");
        assert_eq!(rep1, rep2);
        assert_eq!(rep1.mode, 3);
        assert_eq!(rep1.rotted_lines, 3);
        assert!((3..=9).contains(&rep1.flipped_bits));
        assert_eq!(rep1.dropped_lines, 0, "bit-rot never drops stores");
        let stamp = FaultStamp::parse(&img1[stamp_off()..]).unwrap();
        assert_eq!(stamp.mode, 3);
        assert_eq!(stamp.rotted_lines, rep1.rotted_lines);
        assert_eq!(stamp.flipped_bits, rep1.flipped_bits);
        r.close().unwrap();
    }

    #[test]
    fn capture_errors_are_typed() {
        let r = Region::create(1 << 20).unwrap();
        let base = r.base();
        let err = capture_crash_image(base, FaultPolicy::DropUnflushed).unwrap_err();
        assert_eq!(err, ShadowError::ShadowNotEnabled { base });
        assert!(!err.to_string().is_empty());
        r.close().unwrap();
        let err = capture_crash_image(base, FaultPolicy::DropUnflushed).unwrap_err();
        assert_eq!(err, ShadowError::RegionUnknown { base });
        let nv: crate::NvError = err.into();
        assert!(matches!(nv, crate::NvError::RegionUnknown { .. }));
    }

    #[test]
    fn flushes_only_count_for_their_region() {
        let a = Region::create(1 << 20).unwrap();
        let b = Region::create(1 << 20).unwrap();
        a.enable_shadow().unwrap();
        b.enable_shadow().unwrap();
        let pa = a.alloc(256, 16).unwrap().as_ptr() as usize;
        let a0 = event_count_for(a.base());
        let b0 = event_count_for(b.base());
        for _ in 0..100 {
            track_store(pa, 64);
            latency::clflush_range(pa, 64);
        }
        assert!(event_count_for(a.base()) >= a0 + 100);
        // Concurrent sibling tests may fence (ambient events), but the
        // 100 flushes of region A must not land on region B's counter.
        assert!(
            event_count_for(b.base()) < b0 + 100,
            "a flush of region A counted as events of region B"
        );
        a.close().unwrap();
        b.close().unwrap();
    }

    #[test]
    fn teardown_unregisters_tracker() {
        let r = Region::create(1 << 20).unwrap();
        let base = r.base();
        r.enable_shadow().unwrap();
        assert!(is_tracked(base));
        r.close().unwrap();
        assert!(!is_tracked(base));
    }
}
