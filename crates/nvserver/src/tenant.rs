//! Per-tenant state: one region + object store + persistent ART per
//! tenant, a three-state lifecycle, and per-tenant metrics.
//!
//! The ART is the tenant's key set: a key is present exactly when the
//! leaf of its [`index_word`] has a non-zero count, which a Put keeps at
//! most 1. A Get is one [`PArt::contains`], an applied Put or Delete is
//! one undo transaction, and a prefix query walks the same tree.
//!
//! A tenant lives inside its shard's state and is touched only by the
//! thread holding the shard lock (the persistent structures hold raw
//! mapped pointers and are not `Send`); only the [`TenantSpec`],
//! [`TenantMetrics`], and snapshots are shared between threads.
//!
//! ## Lifecycle
//!
//! ```text
//! Closed ──open──▶ Healthy ──crash+recover──▶ Recovered
//! Healthy / Recovered ──evict──▶ Closed ──reopen──▶ Healthy
//! ```
//!
//! Every reopen — after an eviction or a crash — maps the image at a new
//! base. `Recovered` serves exactly like `Healthy` (it exists so
//! operators — and the chaos matrix — can see that a tenant came back
//! from a crash image rather than never having faulted).

use crate::codec::Priority;
use nvmsim::metrics::{self, Counter};
use nvmsim::shadow::FaultPolicy;
use nvmsim::Region;
use pds::{NodeArena, PArt};
use pi_core::{FatPtrCached, OffHolder, Riv};
use pstore::ObjectStore;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Root name under which every tenant's key set (an ART) is registered.
const IDX_ROOT: &str = "srv.idx";

/// Width of [`index_word`]: 26^14 > 2^64, so every `u64` key has a
/// distinct fixed-width word.
pub(crate) const IDX_WORD_LEN: usize = 14;

/// The ART word a `u64` key is indexed under: fixed-width base-26,
/// most-significant digit first, so numerically close keys share long
/// prefixes (the shape prefix queries exploit).
pub fn index_word(key: u64) -> String {
    word_str(&index_word_bytes(key)).to_string()
}

/// [`index_word`] on the stack.
fn index_word_bytes(key: u64) -> [u8; IDX_WORD_LEN] {
    let mut buf = [b'a'; IDX_WORD_LEN];
    let mut rem = key;
    for slot in buf.iter_mut().rev() {
        *slot = b'a' + (rem % 26) as u8;
        rem /= 26;
    }
    buf
}

/// An [`index_word_bytes`] buffer as the `&str` the ART takes.
fn word_str(word: &[u8; IDX_WORD_LEN]) -> &str {
    std::str::from_utf8(word).expect("ascii")
}

/// The key whose [`index_word`] is `word`, its inverse: `None` unless
/// `word` is 14 letters `a`–`z` whose base-26 value fits a `u64`.
pub fn key_of_word(word: &str) -> Option<u64> {
    let bytes = word.as_bytes();
    if bytes.len() != IDX_WORD_LEN {
        return None;
    }
    bytes.iter().try_fold(0u64, |key, &c| {
        let digit = c.checked_sub(b'a').filter(|&d| d < 26)?;
        key.checked_mul(26)?.checked_add(digit as u64)
    })
}

/// Pointer representation a tenant's persistent key set uses. Mixing
/// representations across tenants means one server run exercises every
/// paper format under remap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReprKind {
    /// Off-holder (offset-based) pointers.
    OffHolder,
    /// Region-ID-virtual-address pointers.
    Riv,
    /// Fat pointers with the seqlock-published lookup cache.
    FatCached,
}

impl ReprKind {
    /// Short lowercase name for reports and labels.
    pub fn name(self) -> &'static str {
        match self {
            ReprKind::OffHolder => "offholder",
            ReprKind::Riv => "riv",
            ReprKind::FatCached => "fatcached",
        }
    }
}

/// Static description of one tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant id (routes to shard `id % nshards`).
    pub id: u32,
    /// Pointer representation for the tenant's key set (its ART).
    pub repr: ReprKind,
    /// Default priority for admission decisions involving this tenant.
    pub priority: Priority,
    /// Whether shadow cache-line tracking is enabled (required for
    /// crash injection).
    pub shadowed: bool,
    /// Unused: a tenant keeps no hash set, so nothing has buckets. The
    /// field stays only because the pinned benchmark harness still sets
    /// it; it goes with that harness's next change.
    pub nbuckets: u64,
    /// Region size in bytes.
    pub region_size: usize,
    /// Undo-log capacity in bytes.
    pub log_cap: u64,
}

impl TenantSpec {
    /// A spec with serving defaults: normal priority, 512 KiB region,
    /// 32 KiB log, no shadow.
    pub fn new(id: u32, repr: ReprKind) -> TenantSpec {
        TenantSpec {
            id,
            repr,
            priority: Priority::Normal,
            shadowed: false,
            nbuckets: 64,
            region_size: 512 << 10,
            log_cap: 32 << 10,
        }
    }

    /// Enables shadow tracking, which makes the tenant crash-injectable.
    pub fn crashable(mut self) -> TenantSpec {
        self.shadowed = true;
        self
    }

    /// Sets the admission priority.
    pub fn with_priority(mut self, p: Priority) -> TenantSpec {
        self.priority = p;
        self
    }
}

/// Where a tenant is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// Not currently open (never opened, or evicted).
    Closed,
    /// Serving normally.
    Healthy,
    /// Serving normally after coming back from a crash image.
    Recovered,
}

impl TenantState {
    /// Stable numeric code (for the metrics atomic).
    pub fn code(self) -> u32 {
        match self {
            TenantState::Closed => 0,
            TenantState::Healthy => 1,
            TenantState::Recovered => 2,
        }
    }

    /// Decodes [`TenantState::code`].
    pub fn from_code(c: u32) -> Option<TenantState> {
        match c {
            0 => Some(TenantState::Closed),
            1 => Some(TenantState::Healthy),
            2 => Some(TenantState::Recovered),
            _ => None,
        }
    }

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TenantState::Closed => "closed",
            TenantState::Healthy => "healthy",
            TenantState::Recovered => "recovered",
        }
    }
}

/// Per-tenant counters, shared between serving threads (increments) and
/// observers (snapshots). All relaxed: these are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct TenantMetrics {
    /// Requests accepted for this tenant.
    pub requests: AtomicU64,
    /// Requests answered `Ok`.
    pub ok: AtomicU64,
    /// Requests answered `Overloaded` (rejected or shed).
    pub overloaded: AtomicU64,
    /// Requests answered `DeadlineExceeded`.
    pub deadline_exceeded: AtomicU64,
    /// Requests answered `Failed`.
    pub failed: AtomicU64,
    /// Times the tenant was evicted (closed by LRU pressure or request).
    pub evictions: AtomicU64,
    /// Reopens that mapped the region at a different base address.
    pub remaps: AtomicU64,
    /// Crash images injected against this tenant (each one recovered
    /// re-ran the write it interrupted).
    pub crashes: AtomicU64,
    /// `check_invariants` failures (must stay 0).
    pub invariant_failures: AtomicU64,
    /// Current [`TenantState::code`].
    pub state: AtomicU32,
}

/// Plain-value copy of [`TenantMetrics`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Requests accepted.
    pub requests: u64,
    /// `Ok` responses.
    pub ok: u64,
    /// `Overloaded` responses.
    pub overloaded: u64,
    /// `DeadlineExceeded` responses.
    pub deadline_exceeded: u64,
    /// `Failed` responses.
    pub failed: u64,
    /// Evictions.
    pub evictions: u64,
    /// Remapped reopens.
    pub remaps: u64,
    /// Injected crashes.
    pub crashes: u64,
    /// Invariant-check failures.
    pub invariant_failures: u64,
    /// State at snapshot time.
    pub state: TenantState,
}

impl TenantMetrics {
    /// Reads every counter (relaxed).
    pub fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            remaps: self.remaps.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            invariant_failures: self.invariant_failures.load(Ordering::Relaxed),
            state: TenantState::from_code(self.state.load(Ordering::Relaxed))
                .unwrap_or(TenantState::Closed),
        }
    }
}

/// The tenant's key set: a persistent ART over the representation its
/// spec names, holding [`index_word`] of every member.
enum TenantIndex {
    Off(PArt<OffHolder>),
    Riv(PArt<Riv>),
    Fat(PArt<FatPtrCached>),
}

/// Runs `$body` with `$a` bound to the ART whatever its representation.
macro_rules! with_art {
    ($idx:expr, $a:ident => $body:expr) => {
        match $idx {
            TenantIndex::Off($a) => $body,
            TenantIndex::Riv($a) => $body,
            TenantIndex::Fat($a) => $body,
        }
    };
}

impl TenantIndex {
    fn create(arena: NodeArena, kind: ReprKind) -> Result<TenantIndex, String> {
        Ok(match kind {
            ReprKind::OffHolder => {
                TenantIndex::Off(PArt::create_rooted(arena, IDX_ROOT).map_err(err)?)
            }
            ReprKind::Riv => TenantIndex::Riv(PArt::create_rooted(arena, IDX_ROOT).map_err(err)?),
            ReprKind::FatCached => {
                TenantIndex::Fat(PArt::create_rooted(arena, IDX_ROOT).map_err(err)?)
            }
        })
    }

    fn attach(arena: NodeArena, kind: ReprKind) -> Result<TenantIndex, String> {
        Ok(match kind {
            ReprKind::OffHolder => TenantIndex::Off(PArt::attach(arena, IDX_ROOT).map_err(err)?),
            ReprKind::Riv => TenantIndex::Riv(PArt::attach(arena, IDX_ROOT).map_err(err)?),
            ReprKind::FatCached => TenantIndex::Fat(PArt::attach(arena, IDX_ROOT).map_err(err)?),
        })
    }

    fn insert_tx(&mut self, store: &ObjectStore, word: &str) -> Result<u64, String> {
        with_art!(self, a => a.insert_tx(store, word).map_err(err))
    }

    fn remove_tx(&mut self, store: &ObjectStore, word: &str) -> Result<bool, String> {
        with_art!(self, a => a.remove_tx(store, word).map_err(err))
    }

    fn contains(&self, word: &str) -> bool {
        with_art!(self, a => a.contains(word))
    }

    fn prefix_scan_each(&self, prefix: &str, visit: impl FnMut(&str)) -> Result<usize, String> {
        with_art!(self, a => a.prefix_scan_each(prefix, visit).map_err(err))
    }

    fn check_invariants(&self) -> Result<(), String> {
        with_art!(self, a => a.check_invariants())
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One live tenant, owned by its shard's state.
pub(crate) struct Tenant {
    pub spec: TenantSpec,
    pub metrics: Arc<TenantMetrics>,
    path: PathBuf,
    region: Option<Region>,
    store: Option<ObjectStore>,
    idx: Option<TenantIndex>,
    state: TenantState,
    /// Every base the tenant's region was ever mapped at, in order.
    pub bases: Vec<usize>,
    /// LRU tick of the last request touching this tenant.
    pub last_used: u64,
    /// Writes attempted against this tenant (fault-plan ordinal).
    pub writes: u64,
}

impl Tenant {
    pub(crate) fn new(spec: TenantSpec, dir: &Path, metrics: Arc<TenantMetrics>) -> Tenant {
        let path = dir.join(format!("tenant-{}.nvr", spec.id));
        Tenant {
            spec,
            metrics,
            path,
            region: None,
            store: None,
            idx: None,
            state: TenantState::Closed,
            bases: Vec::new(),
            last_used: 0,
            writes: 0,
        }
    }

    pub(crate) fn is_open(&self) -> bool {
        self.region.is_some()
    }

    pub(crate) fn state(&self) -> TenantState {
        self.state
    }

    fn set_state(&mut self, s: TenantState) {
        self.state = s;
        self.metrics.state.store(s.code(), Ordering::Relaxed);
    }

    /// Attaches shadow tracking to the open region when the spec asks
    /// for it.
    fn attach_shadow(&self) -> Result<(), String> {
        if self.spec.shadowed {
            let region = self.region.as_ref().expect("open region");
            region.enable_shadow().map_err(err)?;
        }
        Ok(())
    }

    /// Opens the tenant: formats a fresh region on first open, otherwise
    /// reopens the backing file **avoiding the previous base** so every
    /// reopen is a remap. No-op when already open.
    pub(crate) fn ensure_open(&mut self) -> Result<(), String> {
        if self.is_open() {
            return Ok(());
        }
        if self.path.exists() {
            self.reopen()
        } else {
            self.format()
        }
    }

    fn format(&mut self) -> Result<(), String> {
        let region = Region::create_file(&self.path, self.spec.region_size).map_err(err)?;
        let store = ObjectStore::format_with_log(&region, self.spec.log_cap).map_err(err)?;
        let idx = TenantIndex::create(NodeArena::transactional(store.clone()), self.spec.repr)?;
        region.sync().map_err(err)?;
        self.bases.push(region.base());
        self.region = Some(region);
        self.store = Some(store);
        self.idx = Some(idx);
        self.set_state(TenantState::Healthy);
        self.attach_shadow()
    }

    fn reopen(&mut self) -> Result<(), String> {
        let avoid = self.bases.last().copied().unwrap_or(0);
        let region = Region::open_file_avoiding(&self.path, avoid).map_err(err)?;
        let store = ObjectStore::attach(&region).map_err(err)?;
        let rolled_back = store.recovered();
        let idx = TenantIndex::attach(NodeArena::transactional(store.clone()), self.spec.repr)?;
        let (base, was_dirty) = (region.base(), region.was_dirty());
        self.region = Some(region);
        self.store = Some(store);
        self.idx = Some(idx);
        self.audit("after reopen")?;
        if base != avoid {
            self.metrics.remaps.fetch_add(1, Ordering::Relaxed);
            metrics::incr(Counter::SrvRemapReopens);
        }
        let came_from_crash = was_dirty || rolled_back;
        self.bases.push(base);
        // A dirty image (crash teardown) or an actual rollback marks the
        // tenant `Recovered`; a clean eviction reopen stays `Healthy`.
        self.set_state(if came_from_crash {
            TenantState::Recovered
        } else {
            TenantState::Healthy
        });
        self.attach_shadow()
    }

    /// Closes the tenant cleanly (eviction): invariant check, clean
    /// region close. The next `ensure_open` remaps.
    pub(crate) fn evict(&mut self) -> Result<(), String> {
        if !self.is_open() {
            return Ok(());
        }
        self.audit("at eviction")?;
        self.idx = None;
        self.store = None;
        let region = self.region.take().expect("open region");
        region.close().map_err(err)?;
        self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Counter::SrvEvictions);
        self.set_state(TenantState::Closed);
        Ok(())
    }

    /// Injects a crash image under `policy` and recovers in place: the
    /// faulted image is reopened (remapped), undo recovery runs, and
    /// the tenant comes back `Recovered`.
    pub(crate) fn crash_and_recover(&mut self, policy: FaultPolicy) -> Result<(), String> {
        if !self.spec.shadowed {
            return Err("crash injection on an unshadowed tenant".to_string());
        }
        self.idx = None;
        self.store = None;
        let region = self.region.take().expect("open region");
        region.crash_with_faults(policy).map_err(err)?;
        self.metrics.crashes.fetch_add(1, Ordering::Relaxed);
        self.set_state(TenantState::Closed);
        self.reopen()
    }

    fn idx(&self) -> &TenantIndex {
        self.idx.as_ref().expect("open tenant")
    }

    /// Membership probe.
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.idx().contains(word_str(&index_word_bytes(key)))
    }

    /// All keys in ascending order (snapshot; used by reports and
    /// tests). A word no key encodes to — only a damaged image holds
    /// one — is left out.
    pub(crate) fn keys(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        self.idx()
            .prefix_scan_each("", |w| keys.extend(key_of_word(w)))
            .expect("an empty prefix is valid");
        keys
    }

    /// Transactional insert; `Ok(applied)` once committed. A present key
    /// begins no transaction, so every leaf's count stays at most 1.
    pub(crate) fn insert(&mut self, key: u64) -> Result<bool, String> {
        let word = index_word_bytes(key);
        let word = word_str(&word);
        if self.idx().contains(word) {
            return Ok(false);
        }
        let store = self.store.as_ref().expect("open tenant");
        let idx = self.idx.as_mut().expect("open tenant");
        let count = idx.insert_tx(store, word)?;
        debug_assert_eq!(count, 1, "a Put inserts only an absent key");
        Ok(true)
    }

    /// Transactional remove; `Ok(applied)` once committed. An absent key
    /// begins no transaction.
    pub(crate) fn remove(&mut self, key: u64) -> Result<bool, String> {
        let store = self.store.as_ref().expect("open tenant");
        let idx = self.idx.as_mut().expect("open tenant");
        idx.remove_tx(store, word_str(&index_word_bytes(key)))
    }

    /// Suggestion lookup: calls `visit` with every indexed word starting
    /// with `prefix`, in sorted order; returns how many there were.
    pub(crate) fn prefix_scan_each(
        &self,
        prefix: &str,
        visit: impl FnMut(&str),
    ) -> Result<usize, String> {
        self.idx().prefix_scan_each(prefix, visit)
    }

    /// Structure invariants of the open key set. A tenant that fails them
    /// does not stay open: the failure is counted and the handles are
    /// dropped without a clean close (the image file is the post-mortem),
    /// so nothing serves or walks the structure again — the next request
    /// reopens, re-checks and answers `Failed`.
    pub(crate) fn audit(&mut self, when: &str) -> Result<(), String> {
        let Some(Err(e)) = self.idx.as_ref().map(TenantIndex::check_invariants) else {
            return Ok(());
        };
        self.metrics
            .invariant_failures
            .fetch_add(1, Ordering::Relaxed);
        (self.idx, self.store) = (None, None);
        self.region.take().expect("open region").crash();
        self.set_state(TenantState::Closed);
        Err(format!("invariants violated {when}: {e}"))
    }

    /// Final teardown at server shutdown: like eviction but keeps the
    /// terminal state for the report.
    pub(crate) fn shutdown(&mut self) -> Result<(), String> {
        let prior = self.state;
        self.evict()?;
        // Preserve the ladder position in the report (evict set Closed).
        self.metrics.state.store(prior.code(), Ordering::Relaxed);
        self.state = prior;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_of_word_inverts_index_word_and_rejects_other_words() {
        let mut seeded = Vec::with_capacity(1000);
        let mut x = 0x5EED_0001u64;
        for _ in 0..1000 {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            seeded.push(z ^ (z >> 31));
        }
        for key in [0, 25, 26, u64::MAX].into_iter().chain(seeded) {
            assert_eq!(key_of_word(&index_word(key)), Some(key), "key {key}");
        }
        assert_eq!(index_word(25), "aaaaaaaaaaaaaz");
        assert_eq!(index_word(26), "aaaaaaaaaaaaba");
        let over = |word: &str| key_of_word(word).is_none();
        assert!(over(""), "empty");
        assert!(over("aaaaaaaaaaaaa"), "13 letters");
        assert!(over("aaaaaaaaaaaaaaa"), "15 letters");
        assert!(over("aaaaaaaaaaaaaA"), "upper case");
        assert!(over("aaaaaaaaaaaaa{"), "the byte after z");
        assert!(over("aaaaaaaaaaaaa`"), "the byte before a");
        assert!(over("aaaaaaaaaaaa\u{e9}"), "two-byte character");
        assert!(over("zzzzzzzzzzzzzz"), "26^14 - 1 does not fit a u64");
        let max = index_word(u64::MAX);
        let past_max = format!("{}{}", &max[..13], (max.as_bytes()[13] + 1) as char);
        assert!(over(&past_max), "u64::MAX + 1");
    }
}
