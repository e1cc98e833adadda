//! Per-tenant state: one region + object store + persistent hash set
//! per tenant, a three-state lifecycle, and per-tenant metrics.
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
use pds::{NodeArena, PArt, PHashSet};
use pi_core::{FatPtrCached, OffHolder, Riv};
use pstore::ObjectStore;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Root name under which every tenant's hash set is registered.
const SET_ROOT: &str = "srv.set";

/// Root name under which every tenant's suggestion index (ART) is
/// registered.
const IDX_ROOT: &str = "srv.idx";

/// Width of [`index_word`]: 26^14 > 2^64, so every `u64` key has a
/// distinct fixed-width word.
pub(crate) const IDX_WORD_LEN: usize = 14;

/// The ART word a `u64` key is indexed under: fixed-width base-26,
/// most-significant digit first, so numerically close keys share long
/// prefixes (the shape prefix queries exploit).
pub fn index_word(key: u64) -> String {
    String::from_utf8(index_word_bytes(key).to_vec()).expect("ascii")
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

/// Pointer representation a tenant's persistent set uses. Mixing
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
    /// Pointer representation for the tenant's set.
    pub repr: ReprKind,
    /// Default priority for admission decisions involving this tenant.
    pub priority: Priority,
    /// Whether shadow cache-line tracking is enabled (required for
    /// crash injection).
    pub shadowed: bool,
    /// Hash set bucket count.
    pub nbuckets: u64,
    /// Region size in bytes.
    pub region_size: usize,
    /// Undo-log capacity in bytes.
    pub log_cap: u64,
}

impl TenantSpec {
    /// A spec with serving defaults: normal priority, 512 KiB region,
    /// 32 KiB log, 64 buckets, no shadow.
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
    /// Write attempts retried after transient faults.
    pub retries: AtomicU64,
    /// Times the tenant was evicted (closed by LRU pressure or request).
    pub evictions: AtomicU64,
    /// Reopens that mapped the region at a different base address.
    pub remaps: AtomicU64,
    /// Crash images injected against this tenant.
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
    /// Retried write attempts.
    pub retries: u64,
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
            retries: self.retries.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            remaps: self.remaps.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            invariant_failures: self.invariant_failures.load(Ordering::Relaxed),
            state: TenantState::from_code(self.state.load(Ordering::Relaxed))
                .unwrap_or(TenantState::Closed),
        }
    }
}

/// The tenant's persistent set, dispatching over the pointer
/// representation chosen in its spec.
enum TenantSet {
    Off(PHashSet<OffHolder, 32>),
    Riv(PHashSet<Riv, 32>),
    Fat(PHashSet<FatPtrCached, 32>),
}

impl TenantSet {
    fn create(arena: NodeArena, nbuckets: u64, kind: ReprKind) -> Result<TenantSet, String> {
        Ok(match kind {
            ReprKind::OffHolder => {
                TenantSet::Off(PHashSet::create_rooted(arena, nbuckets, SET_ROOT).map_err(err)?)
            }
            ReprKind::Riv => {
                TenantSet::Riv(PHashSet::create_rooted(arena, nbuckets, SET_ROOT).map_err(err)?)
            }
            ReprKind::FatCached => {
                TenantSet::Fat(PHashSet::create_rooted(arena, nbuckets, SET_ROOT).map_err(err)?)
            }
        })
    }

    fn attach(arena: NodeArena, kind: ReprKind) -> Result<TenantSet, String> {
        Ok(match kind {
            ReprKind::OffHolder => TenantSet::Off(PHashSet::attach(arena, SET_ROOT).map_err(err)?),
            ReprKind::Riv => TenantSet::Riv(PHashSet::attach(arena, SET_ROOT).map_err(err)?),
            ReprKind::FatCached => TenantSet::Fat(PHashSet::attach(arena, SET_ROOT).map_err(err)?),
        })
    }

    fn insert_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool, String> {
        match self {
            TenantSet::Off(s) => s.insert_tx(store, key).map_err(err),
            TenantSet::Riv(s) => s.insert_tx(store, key).map_err(err),
            TenantSet::Fat(s) => s.insert_tx(store, key).map_err(err),
        }
    }

    fn remove_tx(&mut self, store: &ObjectStore, key: u64) -> Result<bool, String> {
        match self {
            TenantSet::Off(s) => s.remove_tx(store, key).map_err(err),
            TenantSet::Riv(s) => s.remove_tx(store, key).map_err(err),
            TenantSet::Fat(s) => s.remove_tx(store, key).map_err(err),
        }
    }

    fn contains(&self, key: u64) -> bool {
        match self {
            TenantSet::Off(s) => s.contains(key),
            TenantSet::Riv(s) => s.contains(key),
            TenantSet::Fat(s) => s.contains(key),
        }
    }

    fn keys(&self) -> Vec<u64> {
        match self {
            TenantSet::Off(s) => s.keys(),
            TenantSet::Riv(s) => s.keys(),
            TenantSet::Fat(s) => s.keys(),
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        match self {
            TenantSet::Off(s) => s.check_invariants(),
            TenantSet::Riv(s) => s.check_invariants(),
            TenantSet::Fat(s) => s.check_invariants(),
        }
    }
}

/// The tenant's suggestion index: a persistent ART over the same
/// representation as its set, holding [`index_word`] of every member.
enum TenantIndex {
    Off(PArt<OffHolder>),
    Riv(PArt<Riv>),
    Fat(PArt<FatPtrCached>),
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

    fn insert_tx(&mut self, store: &ObjectStore, word: &str) -> Result<(), String> {
        match self {
            TenantIndex::Off(a) => a.insert_tx(store, word).map(|_| ()).map_err(err),
            TenantIndex::Riv(a) => a.insert_tx(store, word).map(|_| ()).map_err(err),
            TenantIndex::Fat(a) => a.insert_tx(store, word).map(|_| ()).map_err(err),
        }
    }

    fn remove_tx(&mut self, store: &ObjectStore, word: &str) -> Result<(), String> {
        match self {
            TenantIndex::Off(a) => a.remove_tx(store, word).map(|_| ()).map_err(err),
            TenantIndex::Riv(a) => a.remove_tx(store, word).map(|_| ()).map_err(err),
            TenantIndex::Fat(a) => a.remove_tx(store, word).map(|_| ()).map_err(err),
        }
    }

    fn contains(&self, word: &str) -> bool {
        match self {
            TenantIndex::Off(a) => a.contains(word),
            TenantIndex::Riv(a) => a.contains(word),
            TenantIndex::Fat(a) => a.contains(word),
        }
    }

    fn prefix_scan_each(&self, prefix: &str, visit: impl FnMut(&str)) -> Result<usize, String> {
        match self {
            TenantIndex::Off(a) => a.prefix_scan_each(prefix, visit).map_err(err),
            TenantIndex::Riv(a) => a.prefix_scan_each(prefix, visit).map_err(err),
            TenantIndex::Fat(a) => a.prefix_scan_each(prefix, visit).map_err(err),
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        match self {
            TenantIndex::Off(a) => a.check_invariants(),
            TenantIndex::Riv(a) => a.check_invariants(),
            TenantIndex::Fat(a) => a.check_invariants(),
        }
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
    set: Option<TenantSet>,
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
            set: None,
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
        let set = TenantSet::create(
            NodeArena::transactional(store.clone()),
            self.spec.nbuckets,
            self.spec.repr,
        )?;
        let idx = TenantIndex::create(NodeArena::transactional(store.clone()), self.spec.repr)?;
        region.sync().map_err(err)?;
        self.bases.push(region.base());
        self.region = Some(region);
        self.store = Some(store);
        self.set = Some(set);
        self.idx = Some(idx);
        self.set_state(TenantState::Healthy);
        metrics::incr(Counter::RegionOpens);
        self.attach_shadow()
    }

    fn reopen(&mut self) -> Result<(), String> {
        let avoid = self.bases.last().copied().unwrap_or(0);
        let region = Region::open_file_avoiding(&self.path, avoid).map_err(err)?;
        let store = ObjectStore::attach(&region).map_err(err)?;
        let rolled_back = store.recovered();
        let set = TenantSet::attach(NodeArena::transactional(store.clone()), self.spec.repr)?;
        let idx = TenantIndex::attach(NodeArena::transactional(store.clone()), self.spec.repr)?;
        let (base, was_dirty) = (region.base(), region.was_dirty());
        self.region = Some(region);
        self.store = Some(store);
        self.set = Some(set);
        self.idx = Some(idx);
        self.audit("after reopen")?;
        if base != avoid {
            self.metrics.remaps.fetch_add(1, Ordering::Relaxed);
            metrics::incr(Counter::SrvRemapReopens);
        }
        let came_from_crash = was_dirty || rolled_back;
        self.bases.push(base);
        if came_from_crash {
            self.reconcile_index()?;
        }
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
        self.set = None;
        self.idx = None;
        self.store = None;
        let region = self.region.take().expect("open region");
        region.close().map_err(err)?;
        self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Counter::SrvEvictions);
        metrics::incr(Counter::RegionCloses);
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
        self.set = None;
        self.idx = None;
        self.store = None;
        let region = self.region.take().expect("open region");
        region.crash_with_faults(policy).map_err(err)?;
        self.metrics.crashes.fetch_add(1, Ordering::Relaxed);
        self.set_state(TenantState::Closed);
        self.reopen()
    }

    /// Membership probe.
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.set.as_ref().expect("open tenant").contains(key)
    }

    /// All keys (snapshot; used by reports and tests).
    pub(crate) fn keys(&self) -> Vec<u64> {
        self.set.as_ref().expect("open tenant").keys()
    }

    /// Transactional insert; `Ok(applied)` once committed. An applied
    /// insert also indexes the key's [`index_word`] in the tenant's ART
    /// (its own transaction; [`Tenant::reconcile_index`] repairs the
    /// between-transactions crash window on recovery).
    pub(crate) fn insert(&mut self, key: u64) -> Result<bool, String> {
        let store = self.store.as_ref().expect("open tenant");
        let applied = self
            .set
            .as_mut()
            .expect("open tenant")
            .insert_tx(store, key)?;
        if applied {
            let word = index_word_bytes(key);
            self.idx
                .as_mut()
                .expect("open tenant")
                .insert_tx(store, std::str::from_utf8(&word).expect("ascii"))?;
        }
        Ok(applied)
    }

    /// Transactional remove; `Ok(applied)` once committed. An applied
    /// remove also unindexes the key's [`index_word`].
    pub(crate) fn remove(&mut self, key: u64) -> Result<bool, String> {
        let store = self.store.as_ref().expect("open tenant");
        let applied = self
            .set
            .as_mut()
            .expect("open tenant")
            .remove_tx(store, key)?;
        if applied {
            let word = index_word_bytes(key);
            self.idx
                .as_mut()
                .expect("open tenant")
                .remove_tx(store, std::str::from_utf8(&word).expect("ascii"))?;
        }
        Ok(applied)
    }

    /// Suggestion lookup: calls `visit` with every indexed word starting
    /// with `prefix`, in sorted order; returns how many there were.
    pub(crate) fn prefix_scan_each(
        &self,
        prefix: &str,
        visit: impl FnMut(&str),
    ) -> Result<usize, String> {
        self.idx
            .as_ref()
            .expect("open tenant")
            .prefix_scan_each(prefix, visit)
    }

    /// Re-derives the suggestion index from the authoritative set after
    /// a crash: the set and index commit in separate transactions, so a
    /// crash between them leaves exactly one word missing or stale.
    fn reconcile_index(&mut self) -> Result<(), String> {
        let store = self.store.clone().expect("open tenant");
        let keys = self.set.as_ref().expect("open tenant").keys();
        let idx = self.idx.as_mut().expect("open tenant");
        let want: std::collections::BTreeSet<String> =
            keys.iter().map(|&k| index_word(k)).collect();
        let mut have = Vec::new();
        idx.prefix_scan_each("", |w| have.push(w.to_string()))?;
        for word in have {
            if !want.contains(&word) {
                idx.remove_tx(&store, &word)?;
            }
        }
        for word in &want {
            if !idx.contains(word) {
                idx.insert_tx(&store, word)?;
            }
        }
        Ok(())
    }

    /// Structure invariants of the open set and suggestion index. A
    /// tenant that fails them does not stay open: the failure is counted
    /// and the handles are dropped without a clean close (the image file
    /// is the post-mortem), so nothing serves or walks the structure
    /// again — the next request reopens, re-checks and answers `Failed`.
    pub(crate) fn audit(&mut self, when: &str) -> Result<(), String> {
        let (Some(set), Some(idx)) = (&self.set, &self.idx) else {
            return Ok(());
        };
        let Err(e) = set.check_invariants().and_then(|()| idx.check_invariants()) else {
            return Ok(());
        };
        self.metrics
            .invariant_failures
            .fetch_add(1, Ordering::Relaxed);
        (self.set, self.idx, self.store) = (None, None, None);
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
