//! The system under test: the **only** file that names product items.
//!
//! Everything the benchmark does to `nvm-pi` goes through the functions
//! and types here, which speak harness types (`Keys`, `Op`, `Req`) on the
//! outside and `nvm_pi::*` on the inside. A refactor of the product that
//! keeps this file compiling unchanged keeps the judge unchanged;
//! `benchmark/README.md` lists the public names it holds fixed.

use crate::gen::{Keys, Op, OpKind, Req, ReqKind};
use nvm_pi::nvmsim::{latency, metrics, registry};
use nvm_pi::nvserver::{codec, index_word as product_index_word, ServerHandle, Transport};
use nvm_pi::pds::{fill_payload, BstNode, HsNode, ListNode, TrieNode};
use nvm_pi::{
    FatPtr, FatPtrCached, FaultPolicy, LatencyModel, NodeArena, NormalPtr, NvSpace, ObjectStore,
    OffHolder, PArt, PBst, PHashSet, PList, PTrie, Priority, PtrRepr, Region, ReprKind, Riv,
    Server, ServerConfig, ServerFaultPlan, TenantSpec,
};
use std::hint::black_box;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Payload bytes per node, as in the paper's evaluation.
const PAYLOAD: usize = 32;

// -- representations and structures ------------------------------------------

/// The four pointer representations the benchmark compares. `Fat` is the
/// fat pointer with the lastID/lastAddr cache (`FatPtrCached`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Repr {
    Normal,
    OffHolder,
    Riv,
    Fat,
}

impl Repr {
    pub const ALL: [Repr; 4] = [Repr::Normal, Repr::OffHolder, Repr::Riv, Repr::Fat];
    /// Representations that survive a remap.
    pub const PI: [Repr; 3] = [Repr::OffHolder, Repr::Riv, Repr::Fat];

    pub fn name(self) -> &'static str {
        match self {
            Repr::Normal => "normal",
            Repr::OffHolder => "offholder",
            Repr::Riv => "riv",
            Repr::Fat => "fat",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Structure {
    List,
    Bst,
    HashSet,
    Trie,
    Art,
}

impl Structure {
    pub fn name(self) -> &'static str {
        match self {
            Structure::List => "list",
            Structure::Bst => "bst",
            Structure::HashSet => "hashset",
            Structure::Trie => "trie",
            Structure::Art => "art",
        }
    }

    /// Whether keys are words (trie, ART) rather than integers.
    pub fn wordy(self) -> bool {
        matches!(self, Structure::Trie | Structure::Art)
    }
}

/// Runs `$body` with `$R` bound to the pointer type of `$repr`.
macro_rules! with_repr {
    ($repr:expr, $R:ident => $body:expr) => {
        match $repr {
            Repr::Normal => {
                type $R = NormalPtr;
                $body
            }
            Repr::OffHolder => {
                type $R = OffHolder;
                $body
            }
            Repr::Riv => {
                type $R = Riv;
                $body
            }
            Repr::Fat => {
                type $R = FatPtrCached;
                $body
            }
        }
    };
}

// -- process-wide state -------------------------------------------------------

/// Installs latency model OFF: software cost is timed, device cost is
/// counted as flushed lines and fences. Returns the model's name for the
/// output header.
pub fn latency_off() -> &'static str {
    latency::set_model(LatencyModel::OFF);
    "OFF"
}

/// The persistence and allocation events counted between two points.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Events {
    pub flush_calls: u64,
    pub flushed_lines: u64,
    pub fences: u64,
    pub region_allocs: u64,
    pub region_frees: u64,
    pub tx_begins: u64,
    pub tx_commits: u64,
    pub tx_aborts: u64,
    pub undo_entries: u64,
    pub cas_retries: u64,
    pub recovery_lines: u64,
    pub translation_misses: u64,
    pub srv_shed: u64,
    pub srv_deadline_exceeded: u64,
    pub srv_retries: u64,
}

impl std::ops::AddAssign for Events {
    fn add_assign(&mut self, o: Events) {
        self.flush_calls += o.flush_calls;
        self.flushed_lines += o.flushed_lines;
        self.fences += o.fences;
        self.region_allocs += o.region_allocs;
        self.region_frees += o.region_frees;
        self.tx_begins += o.tx_begins;
        self.tx_commits += o.tx_commits;
        self.tx_aborts += o.tx_aborts;
        self.undo_entries += o.undo_entries;
        self.cas_retries += o.cas_retries;
        self.recovery_lines += o.recovery_lines;
        self.translation_misses += o.translation_misses;
        self.srv_shed += o.srv_shed;
        self.srv_deadline_exceeded += o.srv_deadline_exceeded;
        self.srv_retries += o.srv_retries;
    }
}

/// A reading of the product's counters, to take `events_since`.
#[derive(Clone, Copy)]
pub struct Counters(metrics::Snapshot);

impl Counters {
    pub fn read() -> Counters {
        Counters(metrics::snapshot())
    }
}

/// What happened since `earlier`.
pub fn events_since(earlier: &Counters) -> Events {
    use metrics::Counter as C;
    let d = metrics::snapshot().delta(&earlier.0);
    Events {
        flush_calls: d.get(C::ClflushCalls),
        flushed_lines: d.get(C::ClflushLines),
        fences: d.get(C::WbarrierCalls),
        region_allocs: d.get(C::RegionAllocs),
        region_frees: d.get(C::RegionFrees),
        tx_begins: d.get(C::TxBegins),
        tx_commits: d.get(C::TxCommits),
        tx_aborts: d.get(C::TxAborts),
        undo_entries: d.get(C::UndoEntries),
        cas_retries: d.get(C::LlallocCasRetries),
        recovery_lines: d.get(C::LlallocRecoveryLines),
        translation_misses: d.get(C::NvTranslationMisses),
        srv_shed: d.get(C::SrvShed),
        srv_deadline_exceeded: d.get(C::SrvDeadlineExceeded),
        srv_retries: d.get(C::SrvRetries),
    }
}

// -- walk cells: read-only structures, one region each -------------------------

trait Walk {
    /// Lookup structures: how many of `probes[range]` are present. The
    /// list: one full traversal's checksum (the arguments are unused).
    fn visit(&self, probes: &Keys, range: Range<usize>) -> u64;
    fn len(&self) -> u64;
    fn check(&self) -> Res<()>;
}

impl<R: PtrRepr> Walk for PList<R, PAYLOAD> {
    fn visit(&self, _: &Keys, _: Range<usize>) -> u64 {
        self.traverse()
    }
    fn len(&self) -> u64 {
        PList::len(self)
    }
    fn check(&self) -> Res<()> {
        self.check_invariants()
    }
}

impl<R: PtrRepr> Walk for PBst<R, PAYLOAD> {
    fn visit(&self, probes: &Keys, range: Range<usize>) -> u64 {
        probes.ints()[range]
            .iter()
            .filter(|&&k| self.contains(k))
            .count() as u64
    }
    fn len(&self) -> u64 {
        PBst::len(self)
    }
    fn check(&self) -> Res<()> {
        self.check_invariants()
    }
}

impl<R: PtrRepr> Walk for PHashSet<R, PAYLOAD> {
    fn visit(&self, probes: &Keys, range: Range<usize>) -> u64 {
        probes.ints()[range]
            .iter()
            .filter(|&&k| self.contains(k))
            .count() as u64
    }
    fn len(&self) -> u64 {
        PHashSet::len(self)
    }
    fn check(&self) -> Res<()> {
        self.check_invariants()
    }
}

impl<R: PtrRepr> Walk for PTrie<R, PAYLOAD> {
    fn visit(&self, probes: &Keys, range: Range<usize>) -> u64 {
        probes.words()[range]
            .iter()
            .filter(|w| self.contains(w))
            .count() as u64
    }
    fn len(&self) -> u64 {
        self.distinct_words()
    }
    fn check(&self) -> Res<()> {
        self.check_invariants()
    }
}

impl<R: PtrRepr> Walk for PArt<R> {
    fn visit(&self, probes: &Keys, range: Range<usize>) -> u64 {
        probes.words()[range]
            .iter()
            .filter(|w| self.contains(w))
            .count() as u64
    }
    fn len(&self) -> u64 {
        self.key_count()
    }
    fn check(&self) -> Res<()> {
        self.check_invariants()
    }
}

/// Region bytes for a non-transactional structure of `n` keys, with room
/// for the scatter pass's spare blocks.
fn walk_region_size(structure: Structure, n: usize) -> usize {
    let per_key = match structure {
        Structure::Trie => 8192,
        Structure::Art => 512,
        _ => 256,
    };
    (n * per_key).max(8 << 20)
}

/// One read-only structure under one representation, in its own
/// anonymous region, nodes placed by `NodeArena::scatter`.
pub struct WalkCell {
    pub structure: Structure,
    pub repr: Repr,
    region: Region,
    inner: Box<dyn Walk>,
}

impl WalkCell {
    pub fn build(structure: Structure, repr: Repr, keys: &Keys, seed: u64) -> Res<WalkCell> {
        let n = keys.len();
        let region = Region::create(walk_region_size(structure, n)).map_err(err)?;
        let arena = NodeArena::raw(region.clone());
        let spare = n + n / 4;
        let inner: Box<dyn Walk> = with_repr!(repr, R => match structure {
            Structure::List => {
                let mut l: PList<R, PAYLOAD> = PList::new(arena).map_err(err)?;
                l.arena()
                    .scatter(spare, std::mem::size_of::<ListNode<R, PAYLOAD>>(), seed)
                    .map_err(err)?;
                l.extend(keys.ints().iter().copied()).map_err(err)?;
                Box::new(l)
            }
            Structure::Bst => {
                let mut t: PBst<R, PAYLOAD> = PBst::new(arena).map_err(err)?;
                t.arena()
                    .scatter(spare, std::mem::size_of::<BstNode<R, PAYLOAD>>(), seed)
                    .map_err(err)?;
                t.extend(keys.ints().iter().copied()).map_err(err)?;
                Box::new(t)
            }
            Structure::HashSet => {
                let mut s: PHashSet<R, PAYLOAD> =
                    PHashSet::new(arena, (n as u64 / 8).max(8)).map_err(err)?;
                s.arena()
                    .scatter(spare, std::mem::size_of::<HsNode<R, PAYLOAD>>(), seed)
                    .map_err(err)?;
                s.extend(keys.ints().iter().copied()).map_err(err)?;
                Box::new(s)
            }
            Structure::Trie => {
                let mut t: PTrie<R, PAYLOAD> = PTrie::new(arena).map_err(err)?;
                // A trie of random words has close to one node per letter.
                let nodes = keys.words().iter().map(String::len).sum::<usize>();
                t.arena()
                    .scatter(nodes + nodes / 4, std::mem::size_of::<TrieNode<R, PAYLOAD>>(), seed)
                    .map_err(err)?;
                t.extend(keys.words().iter().map(String::as_str)).map_err(err)?;
                Box::new(t)
            }
            Structure::Art => {
                // ART nodes come in five sizes, so there is no one block
                // size to scatter; insertion order interleaves them.
                let mut a: PArt<R> = PArt::new(arena).map_err(err)?;
                a.extend(keys.words().iter().map(String::as_str)).map_err(err)?;
                Box::new(a)
            }
        });
        Ok(WalkCell {
            structure,
            repr,
            region,
            inner,
        })
    }

    #[inline]
    pub fn visit(&self, probes: &Keys, range: Range<usize>) -> u64 {
        self.inner.visit(probes, range)
    }

    pub fn len(&self) -> u64 {
        self.inner.len()
    }

    pub fn check(&self) -> Res<()> {
        self.inner.check()
    }

    pub fn live_bytes(&self) -> u64 {
        self.region.stats().live_bytes
    }

    pub fn close(self) -> Res<()> {
        drop(self.inner);
        self.region.close().map_err(err)
    }
}

/// The checksum `traverse` must return for a list built by pushing
/// `keys` to the front in order (so it is walked last-to-first).
pub fn list_checksum(keys: &[u64]) -> u64 {
    keys.iter().rev().fold(0u64, |sum, &k| {
        sum.wrapping_mul(31)
            .wrapping_add(k ^ fill_payload::<PAYLOAD>(k)[0] as u64)
    })
}

// -- tx cells: transactional sets, one or four regions -------------------------

trait TxOps {
    fn apply(&mut self, store: &ObjectStore, op: Op, keys: &Keys) -> Res<u64>;
    fn preload(&mut self, keys: &Keys, n: usize) -> Res<()>;
    /// Occurrences of key `i` (0 or 1 for sets).
    fn count(&self, keys: &Keys, i: usize) -> u64;
    fn len(&self) -> u64;
    fn check(&self) -> Res<()>;
}

macro_rules! int_set_tx_ops {
    ($ty:ident) => {
        impl<R: PtrRepr> TxOps for $ty<R, PAYLOAD> {
            #[inline]
            fn apply(&mut self, store: &ObjectStore, op: Op, keys: &Keys) -> Res<u64> {
                let k = keys.ints()[op.key as usize];
                Ok(match op.kind {
                    OpKind::Insert => self.insert_tx(store, k).map_err(err)? as u64,
                    OpKind::Remove => self.remove_tx(store, k).map_err(err)? as u64,
                    OpKind::Contains => self.contains(k) as u64,
                })
            }
            fn preload(&mut self, keys: &Keys, n: usize) -> Res<()> {
                self.extend(keys.ints()[..n].iter().copied()).map_err(err)
            }
            fn count(&self, keys: &Keys, i: usize) -> u64 {
                self.contains(keys.ints()[i]) as u64
            }
            fn len(&self) -> u64 {
                $ty::len(self)
            }
            fn check(&self) -> Res<()> {
                self.check_invariants()
            }
        }
    };
}
int_set_tx_ops!(PHashSet);
int_set_tx_ops!(PBst);

impl<R: PtrRepr> TxOps for PArt<R> {
    #[inline]
    fn apply(&mut self, store: &ObjectStore, op: Op, keys: &Keys) -> Res<u64> {
        let w = &keys.words()[op.key as usize];
        Ok(match op.kind {
            OpKind::Insert => self.insert_tx(store, w).map_err(err)?,
            OpKind::Remove => self.remove_tx(store, w).map_err(err)? as u64,
            OpKind::Contains => self.contains(w) as u64,
        })
    }
    fn preload(&mut self, keys: &Keys, n: usize) -> Res<()> {
        self.extend(keys.words()[..n].iter().map(String::as_str))
            .map_err(err)
    }
    fn count(&self, keys: &Keys, i: usize) -> u64 {
        PArt::count(self, &keys.words()[i])
    }
    fn len(&self) -> u64 {
        self.key_count()
    }
    fn check(&self) -> Res<()> {
        self.check_invariants()
    }
}

/// One transactional structure: nodes wrapped by `pstore` object headers,
/// placed round-robin over `regions.len()` regions at preload; every
/// transaction runs on the first region's store.
pub struct TxCell {
    pub structure: Structure,
    pub repr: Repr,
    regions: Vec<Region>,
    home: ObjectStore,
    inner: Box<dyn TxOps>,
}

impl TxCell {
    /// Creates `nregions` regions of `region_bytes`, formats a store in
    /// each, and preloads the first `preload` keys of `keys`.
    pub fn build(
        structure: Structure,
        repr: Repr,
        nregions: usize,
        region_bytes: usize,
        keys: &Keys,
        preload: usize,
    ) -> Res<TxCell> {
        let mut regions = Vec::new();
        let mut stores = Vec::new();
        for _ in 0..nregions {
            let r = Region::create(region_bytes).map_err(err)?;
            stores.push(ObjectStore::format(&r).map_err(err)?);
            regions.push(r);
        }
        let home = stores[0].clone();
        let arena = NodeArena::transactional_round_robin(stores);
        let mut inner: Box<dyn TxOps> = with_repr!(repr, R => match structure {
            Structure::HashSet => Box::new(
                PHashSet::<R, PAYLOAD>::new(arena, (preload as u64 / 4).max(8)).map_err(err)?,
            ),
            Structure::Bst => Box::new(PBst::<R, PAYLOAD>::new(arena).map_err(err)?),
            Structure::Art => Box::new(PArt::<R>::new(arena).map_err(err)?),
            other => return Err(format!("no transactional cell for {}", other.name())),
        });
        inner.preload(keys, preload)?;
        Ok(TxCell {
            structure,
            repr,
            regions,
            home,
            inner,
        })
    }

    pub fn nregions(&self) -> usize {
        self.regions.len()
    }

    /// Runs one op; returns what it reported (see `gen::Semantics`).
    #[inline]
    pub fn apply(&mut self, op: Op, keys: &Keys) -> Res<u64> {
        self.inner.apply(&self.home, op, keys)
    }

    pub fn count(&self, keys: &Keys, i: usize) -> u64 {
        self.inner.count(keys, i)
    }

    pub fn len(&self) -> u64 {
        self.inner.len()
    }

    pub fn check(&self) -> Res<()> {
        self.inner.check()
    }

    pub fn live_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.stats().live_bytes).sum()
    }

    /// The same transaction shapes on bare `pstore`, with none of the
    /// structure's own work: `commits` transactions that log `ranges`
    /// ranges in total and allocate `allocs` objects between them, then
    /// `aborts` transactions dropped with an empty log. Returns the time
    /// it took and the device traffic `pstore` itself caused.
    pub fn replay_pstore(
        &self,
        commits: u64,
        aborts: u64,
        ranges: u64,
        allocs: u64,
    ) -> Res<(Duration, Events)> {
        let store = &self.home;
        let scratch = store.alloc(SCRATCH_TYPE, 4096).map_err(err)?.as_ptr() as usize;
        // `Tx::alloc` logs up to three ranges of its own.
        let plain_ranges = ranges.saturating_sub(3 * allocs);
        let before = Counters::read();
        let t = Instant::now();
        let (mut r_done, mut a_done) = (0u64, 0u64);
        for i in 1..=commits {
            let mut tx = store.begin();
            while a_done * commits < allocs * i {
                black_box(tx.alloc(SCRATCH_TYPE, 56).map_err(err)?);
                a_done += 1;
            }
            while r_done * commits < plain_ranges * i {
                tx.add_range(scratch + (r_done as usize % 64) * 64, 8)
                    .map_err(err)?;
                r_done += 1;
            }
            tx.commit();
        }
        for _ in 0..aborts {
            drop(black_box(store.begin()));
        }
        Ok((t.elapsed(), events_since(&before)))
    }

    /// The same device traffic on bare `nvmsim`: the flush calls, lines,
    /// fences and allocations of `ev`, nothing else.
    pub fn replay_nvmsim(&self, ev: &Events) -> Res<Duration> {
        let region = &self.regions[0];
        let scratch = region.alloc(8192, 16).map_err(err)?.as_ptr() as usize;
        let per_call = (ev.flushed_lines.div_ceil(ev.flush_calls.max(1)) as usize).max(1);
        let t = Instant::now();
        for i in 0..ev.flush_calls {
            latency::clflush_range(scratch + (i as usize % 32) * 64, per_call * 64 - 63);
        }
        for _ in 0..ev.fences {
            latency::wbarrier();
        }
        for _ in 0..ev.region_allocs {
            black_box(region.alloc(120, 16).map_err(err)?);
        }
        Ok(t.elapsed())
    }

    pub fn close(self) -> Res<()> {
        drop(self.inner);
        drop(self.home);
        for r in self.regions {
            r.close().map_err(err)?;
        }
        Ok(())
    }
}

/// Object-store type number for the benchmark's own scratch objects.
const SCRATCH_TYPE: u32 = 0x4245_4e43; // "BENC"

// -- served tenants ------------------------------------------------------------

/// The word a key is indexed under in a tenant's suggestion index.
pub fn index_word(key: u64) -> String {
    product_index_word(key)
}

/// What the benchmark reads from a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub ok: bool,
    pub found: bool,
    /// Lines in the reply's detail (prefix matches plus a "more" line).
    pub lines: u16,
    pub detail: String,
}

/// A running server and a blocking client on its loopback transport.
pub struct Served {
    server: Option<Server>,
    handle: ServerHandle,
    next_id: u64,
}

fn repr_kind(repr: Repr) -> Res<ReprKind> {
    match repr {
        Repr::OffHolder => Ok(ReprKind::OffHolder),
        Repr::Riv => Ok(ReprKind::Riv),
        Repr::Fat => Ok(ReprKind::FatCached),
        Repr::Normal => Err("the server has no normal-pointer tenants".to_string()),
    }
}

impl Served {
    /// Starts a one-shard server over `tenants` (id, representation),
    /// each with a region of `region_bytes` under `dir`.
    pub fn start(
        dir: &Path,
        tenants: &[(u32, Repr)],
        region_bytes: usize,
        nbuckets: u64,
    ) -> Res<Served> {
        let mut cfg = ServerConfig::new(dir);
        cfg.shards = 1;
        let specs = tenants
            .iter()
            .map(|&(id, repr)| {
                let mut spec = TenantSpec::new(id, repr_kind(repr)?);
                spec.region_size = region_bytes;
                spec.nbuckets = nbuckets;
                Ok(spec)
            })
            .collect::<Res<Vec<_>>>()?;
        let server = Server::start(cfg, specs, ServerFaultPlan::none()).map_err(err)?;
        let handle = server.handle();
        Ok(Served {
            server: Some(server),
            handle,
            next_id: 1,
        })
    }

    /// Client half, step 1: the request frame for `req`.
    #[inline]
    pub fn encode(&mut self, req: &Req) -> Vec<u8> {
        let op = match req.kind {
            ReqKind::Get => codec::ReqOp::Get { key: req.key },
            ReqKind::Put => codec::ReqOp::Put { key: req.key },
            ReqKind::Delete => codec::ReqOp::Delete { key: req.key },
            ReqKind::Prefix => {
                let mut prefix = product_index_word(req.key);
                prefix.pop();
                codec::ReqOp::PrefixQuery { prefix }
            }
        };
        self.frame(req.tenant as u32, op)
    }

    fn frame(&mut self, tenant: u32, op: codec::ReqOp) -> Vec<u8> {
        let id = self.next_id;
        self.next_id += 1;
        codec::encode_request(&codec::Request {
            id,
            tenant,
            priority: Priority::Normal,
            deadline_micros: 0,
            op,
        })
    }

    /// Step 2: the loopback transport (server decode, queue, tenant op,
    /// server encode); blocks for the reply frame.
    #[inline]
    pub fn call(&self, frame: &[u8]) -> Vec<u8> {
        self.handle.call(frame)
    }

    /// Step 3: what the reply frame says.
    #[inline]
    pub fn decode(frame: &[u8]) -> Reply {
        match codec::decode_response(frame) {
            Ok(r) => Reply {
                ok: r.status == codec::Status::Ok,
                found: r.found.unwrap_or(false),
                lines: if r.detail.is_empty() {
                    0
                } else {
                    r.detail.bytes().filter(|&b| b == b'\n').count() as u16 + 1
                },
                detail: r.detail,
            },
            Err(e) => Reply {
                ok: false,
                found: false,
                lines: 0,
                detail: e.to_string(),
            },
        }
    }

    /// One blocking round trip, as `Client::request` does it.
    #[inline]
    pub fn request(&mut self, req: &Req) -> Reply {
        let frame = self.encode(req);
        Served::decode(&self.call(&frame))
    }

    /// Closes the tenant; its next request reopens it remapped.
    pub fn evict(&mut self, tenant: u32) -> Reply {
        let frame = self.frame(tenant, codec::ReqOp::Evict);
        Served::decode(&self.call(&frame))
    }

    /// Stops the server; returns each tenant's final keys (sorted) and
    /// the bases its region was mapped at.
    pub fn shutdown(mut self) -> Vec<(u32, Vec<u64>, Vec<usize>)> {
        let report = self.server.take().expect("running server").shutdown();
        report
            .tenants
            .into_iter()
            .map(|t| {
                let mut keys = t.keys;
                keys.sort_unstable();
                (t.id, keys, t.bases)
            })
            .collect()
    }
}

/// The same request applied directly to normal-pointer structures in
/// process: a hash set plus the suggestion index, as a tenant keeps them,
/// with no codec, queue or thread hand-off. What serving adds to a
/// request is its latency minus this.
pub struct DirectTenant {
    region: Region,
    store: ObjectStore,
    set: PHashSet<NormalPtr, PAYLOAD>,
    idx: PArt<NormalPtr>,
}

impl DirectTenant {
    pub fn create(region_bytes: usize, nbuckets: u64) -> Res<DirectTenant> {
        let region = Region::create(region_bytes).map_err(err)?;
        let store = ObjectStore::format(&region).map_err(err)?;
        let set = PHashSet::new(NodeArena::transactional(store.clone()), nbuckets).map_err(err)?;
        let idx = PArt::new(NodeArena::transactional(store.clone())).map_err(err)?;
        Ok(DirectTenant {
            region,
            store,
            set,
            idx,
        })
    }

    /// Returns (found-or-applied, prefix matches).
    #[inline]
    pub fn apply(&mut self, req: &Req) -> Res<(bool, usize)> {
        Ok(match req.kind {
            ReqKind::Get => (self.set.contains(req.key), 0),
            ReqKind::Put => {
                let applied = self.set.insert_tx(&self.store, req.key).map_err(err)?;
                if applied {
                    self.idx
                        .insert_tx(&self.store, &product_index_word(req.key))
                        .map_err(err)?;
                }
                (applied, 0)
            }
            ReqKind::Delete => {
                let applied = self.set.remove_tx(&self.store, req.key).map_err(err)?;
                if applied {
                    self.idx
                        .remove_tx(&self.store, &product_index_word(req.key))
                        .map_err(err)?;
                }
                (applied, 0)
            }
            ReqKind::Prefix => {
                let mut prefix = product_index_word(req.key);
                prefix.pop();
                let n = self.idx.prefix_scan(&prefix).map_err(err)?.len();
                (n > 0, n)
            }
        })
    }

    /// Reads the nodes a request on `key` will walk, set and index.
    pub fn touch(&self, key: u64) {
        std::hint::black_box(self.set.contains(key));
        std::hint::black_box(self.idx.contains(&product_index_word(key)));
    }

    pub fn keys(&self) -> Vec<u64> {
        let mut k = self.set.keys();
        k.sort_unstable();
        k
    }

    pub fn check(&self) -> Res<()> {
        self.set.check_invariants()?;
        self.idx.check_invariants()
    }

    pub fn close(self) -> Res<()> {
        let DirectTenant {
            region,
            store,
            set,
            idx,
        } = self;
        drop((set, idx, store));
        region.close().map_err(err)
    }
}

/// Allocator live bytes of a closed tenant image (opened and closed
/// again, remapped).
pub fn image_live_bytes(path: &Path) -> Res<u64> {
    let region = Region::open_file(path).map_err(err)?;
    let bytes = region.stats().live_bytes;
    region.close().map_err(err)?;
    Ok(bytes)
}

/// Where the server keeps tenant `id`'s image under its data directory.
pub fn tenant_image(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("tenant-{id}.nvr"))
}

// -- file-backed images and the reopen cycle -----------------------------------

const SET_ROOT: &str = "bench.set";
const ART_ROOT: &str = "bench.art";
const CELLS_ROOT: &str = "bench.cells";
/// Words an uncommitted transaction scribbles over before a crash.
pub const CRASH_RANGES: usize = 8;
const CELL_STRIDE: usize = 64;

trait ImageOps {
    fn set_contains(&self, key: u64) -> bool;
    fn art_contains(&self, word: &str) -> bool;
    fn insert(&mut self, store: &ObjectStore, key: u64, word: &str) -> Res<bool>;
    fn lens(&self) -> (u64, u64);
    fn check(&self) -> Res<()>;
}

struct ImageStructs<R: PtrRepr> {
    set: PHashSet<R, PAYLOAD>,
    art: PArt<R>,
}

impl<R: PtrRepr> ImageOps for ImageStructs<R> {
    fn set_contains(&self, key: u64) -> bool {
        self.set.contains(key)
    }
    fn art_contains(&self, word: &str) -> bool {
        self.art.contains(word)
    }
    fn insert(&mut self, store: &ObjectStore, key: u64, word: &str) -> Res<bool> {
        let fresh = self.set.insert_tx(store, key).map_err(err)?;
        self.art.insert_tx(store, word).map_err(err)?;
        Ok(fresh)
    }
    fn lens(&self) -> (u64, u64) {
        (self.set.len(), self.art.key_count())
    }
    fn check(&self) -> Res<()> {
        self.set.check_invariants()?;
        self.art.check_invariants()
    }
}

/// Creates a file-backed image holding a hash set of `ints`, an ART of
/// `words` and `CRASH_RANGES` marker cells, all under named roots.
/// Returns it open, with its allocator live bytes.
pub fn image_create(
    path: &Path,
    repr: Repr,
    bytes: usize,
    ints: &[u64],
    words: &[String],
) -> Res<(OpenImage, u64)> {
    let region = Region::create_file(path, bytes).map_err(err)?;
    let store = ObjectStore::format(&region).map_err(err)?;
    let inner: Box<dyn ImageOps> = with_repr!(repr, R => {
        let mut set: PHashSet<R, PAYLOAD> = PHashSet::create_rooted(
            NodeArena::transactional(store.clone()),
            (ints.len() as u64 / 4).max(8),
            SET_ROOT,
        )
        .map_err(err)?;
        set.extend(ints.iter().copied()).map_err(err)?;
        let mut art: PArt<R> =
            PArt::create_rooted(NodeArena::transactional(store.clone()), ART_ROOT).map_err(err)?;
        art.extend(words.iter().map(String::as_str)).map_err(err)?;
        Box::new(ImageStructs { set, art })
    });
    let cells = store
        .alloc(SCRATCH_TYPE, CRASH_RANGES * CELL_STRIDE)
        .map_err(err)?
        .as_ptr() as usize;
    for i in 0..CRASH_RANGES {
        // SAFETY: inside the object just allocated, 8-aligned.
        unsafe { ((cells + i * CELL_STRIDE) as *mut u64).write(marker(i)) };
    }
    region.set_root(CELLS_ROOT, cells).map_err(err)?;
    let live = region.stats().live_bytes;
    Ok((
        OpenImage {
            region,
            store,
            inner,
        },
        live,
    ))
}

fn marker(i: usize) -> u64 {
    0x6d61_726b_0000_0000 | i as u64
}

/// An image between `open` and `close`/`crash`.
pub struct OpenImage {
    region: Region,
    store: ObjectStore,
    inner: Box<dyn ImageOps>,
}

/// The timed steps of one reopen, each a layer boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenTimes {
    pub region_open: Duration,
    pub store_attach: Duration,
    pub structs_attach: Duration,
}

impl OpenImage {
    /// `Region::open_file_avoiding(prev_base)` → `ObjectStore::attach`
    /// → structure `attach`.
    pub fn open(path: &Path, repr: Repr, avoid_base: usize) -> Res<(OpenImage, OpenTimes)> {
        let t0 = Instant::now();
        let region = Region::open_file_avoiding(path, avoid_base).map_err(err)?;
        let t1 = Instant::now();
        let store = ObjectStore::attach(&region).map_err(err)?;
        let t2 = Instant::now();
        let inner: Box<dyn ImageOps> = with_repr!(repr, R => Box::new(ImageStructs::<R> {
            set: PHashSet::attach(NodeArena::transactional(store.clone()), SET_ROOT).map_err(err)?,
            art: PArt::attach(NodeArena::transactional(store.clone()), ART_ROOT).map_err(err)?,
        }));
        let t3 = Instant::now();
        let times = OpenTimes {
            region_open: t1 - t0,
            store_attach: t2 - t1,
            structs_attach: t3 - t2,
        };
        Ok((
            OpenImage {
                region,
                store,
                inner,
            },
            times,
        ))
    }

    pub fn base(&self) -> usize {
        self.region.base()
    }

    /// Whether the image was left by a crash rather than a clean close.
    pub fn was_dirty(&self) -> bool {
        self.region.was_dirty()
    }

    /// Undo entries the attach rolled back.
    pub fn rollback_entries(&self) -> u64 {
        self.store.recovery_stats().applied
    }

    #[inline]
    pub fn set_contains(&self, key: u64) -> bool {
        self.inner.set_contains(key)
    }

    #[inline]
    pub fn art_contains(&self, word: &str) -> bool {
        self.inner.art_contains(word)
    }

    /// One committed insert into both structures.
    pub fn insert(&mut self, key: u64, word: &str) -> Res<bool> {
        self.inner.insert(&self.store, key, word)
    }

    pub fn lens(&self) -> (u64, u64) {
        self.inner.lens()
    }

    pub fn check(&self) -> Res<()> {
        self.inner.check()
    }

    /// Whether every marker cell holds its original value (an
    /// uncommitted transaction that scribbled on them was rolled back).
    pub fn markers_intact(&self) -> bool {
        let Some(cells) = self.region.root(CELLS_ROOT) else {
            return false;
        };
        // SAFETY: the root names the marker object created with the image.
        (0..CRASH_RANGES)
            .all(|i| unsafe { ((cells + i * CELL_STRIDE) as *const u64).read() } == marker(i))
    }

    /// The full corruption walk over the mapped image; returns its time.
    pub fn verify(&self) -> Res<Duration> {
        let t = Instant::now();
        let report = self.region.verify().map_err(err)?;
        let took = t.elapsed();
        if report.healthy() {
            Ok(took)
        } else {
            Err(format!("verify found damage: {}", report.damage_summary()))
        }
    }

    /// Starts shadow tracking, so a later `crash` knows which lines were
    /// never flushed.
    pub fn enable_shadow(&self) -> Res<()> {
        self.region.enable_shadow().map_err(err)
    }

    /// Clean close; returns its time.
    pub fn close(self) -> Res<Duration> {
        let OpenImage {
            region,
            store,
            inner,
        } = self;
        drop((inner, store));
        let t = Instant::now();
        region.close().map_err(err)?;
        Ok(t.elapsed())
    }

    /// Leaves one uncommitted transaction with `CRASH_RANGES` logged and
    /// overwritten ranges, then takes a drop-unflushed crash image.
    pub fn crash(self) -> Res<()> {
        let OpenImage {
            region,
            store,
            inner,
        } = self;
        let cells = region.root(CELLS_ROOT).ok_or("marker cells missing")?;
        let mut tx = store.begin();
        for i in 0..CRASH_RANGES {
            // SAFETY: marker cell `i` of the object named by the root.
            unsafe {
                tx.set(
                    (cells + i * CELL_STRIDE) as *mut u64,
                    0xdead_0000 + i as u64,
                )
            }
            .map_err(err)?;
        }
        std::mem::forget(tx);
        drop((inner, store));
        region
            .crash_with_faults(FaultPolicy::DropUnflushed)
            .map(|_| ())
            .map_err(err)
    }
}

/// Times `Region::create_file` + `close` of an empty image.
pub fn time_region_create(path: &Path, bytes: usize) -> Res<Duration> {
    let t = Instant::now();
    let region = Region::create_file(path, bytes).map_err(err)?;
    let took = t.elapsed();
    region.close().map_err(err)?;
    Ok(took)
}

// -- layer probes: tight loops over one public function -------------------------

/// State the probes share: two regions (so cross-region paths exist), a
/// store, and a pointer ring per representation.
pub struct ProbeEnv {
    a: Region,
    b: Region,
    store: ObjectStore,
    slots_a: usize,
    slots_b: usize,
}

/// Pointer slots per ring: small enough to stay in L1.
const RING: usize = 256;
const SLOT: usize = 16;

impl ProbeEnv {
    pub fn new() -> Res<ProbeEnv> {
        let a = Region::create(32 << 20).map_err(err)?;
        let b = Region::create(8 << 20).map_err(err)?;
        let store = ObjectStore::format(&a).map_err(err)?;
        let slots_a = a.alloc(RING * SLOT, 16).map_err(err)?.as_ptr() as usize;
        let slots_b = b.alloc(RING * SLOT, 16).map_err(err)?.as_ptr() as usize;
        Ok(ProbeEnv {
            a,
            b,
            store,
            slots_a,
            slots_b,
        })
    }

    /// Links the ring: slot i points at slot i+1; with `cross`, odd slots
    /// live in the second region, so every hop changes region.
    fn link<R: PtrRepr>(&self, cross: bool) -> usize {
        let at = |i: usize| {
            let i = i % RING;
            if cross && i % 2 == 1 {
                self.slots_b + i * SLOT
            } else {
                self.slots_a + i * SLOT
            }
        };
        for i in 0..RING {
            // SAFETY: slots are 16-byte cells inside live allocations;
            // every representation is at most 16 bytes.
            unsafe { (*(at(i) as *mut R)).store(at(i + 1)) };
        }
        at(0)
    }

    /// `iters` dependent loads through representation `R`.
    fn chase<R: PtrRepr>(&self, cross: bool, iters: u64) -> Duration {
        let mut p = self.link::<R>(cross);
        let t = Instant::now();
        for _ in 0..iters {
            // SAFETY: every slot of the ring holds a pointer to a slot.
            p = unsafe { (*(p as *const R)).load() };
        }
        let took = t.elapsed();
        black_box(p);
        took
    }

    /// `iters` stores through representation `R` (targets in-region).
    fn stores<R: PtrRepr>(&self, iters: u64) -> Duration {
        let base = self.slots_a;
        let t = Instant::now();
        for i in 0..iters as usize {
            let slot = base + (i % RING) * SLOT;
            // SAFETY: as in `link`.
            unsafe { (*(slot as *mut R)).store(black_box(base + ((i + 7) % RING) * SLOT)) };
        }
        let took = t.elapsed();
        black_box(base);
        took
    }

    /// Runs the probe called `name` for `iters` iterations.
    pub fn run(&self, name: &str, iters: u64) -> Res<Duration> {
        let space = NvSpace::global();
        let rid = self.a.rid();
        let addr = self.slots_a;
        // Generic, so the probed call is inlined into the loop rather than
        // reached through a pointer.
        fn time_loop(iters: u64, mut f: impl FnMut(u64)) -> Duration {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed()
        }
        Ok(match name {
            "nvmsim.latency.clflush_ns" => time_loop(iters, |i| {
                latency::clflush_range(addr + (i as usize % RING) * SLOT, 8)
            }),
            "nvmsim.latency.wbarrier_ns" => time_loop(iters, |_| latency::wbarrier()),
            "nvmsim.nvspace.id2base_ns" => time_loop(iters, |_| {
                black_box(space.base_of_rid(black_box(rid)));
            }),
            "nvmsim.nvspace.addr2id_ns" => time_loop(iters, |i| {
                black_box(space.rid_of_addr(black_box(addr + (i as usize % RING) * SLOT)));
            }),
            "nvmsim.registry.fat_lookup_ns" => time_loop(iters, |_| {
                black_box(registry::fat_lookup(black_box(rid)));
            }),
            "nvmsim.registry.fat_cached_hit_ns" => time_loop(iters, |_| {
                black_box(registry::fat_lookup_cached(black_box(rid)));
            }),
            "nvmsim.llalloc.alloc_ns" | "nvmsim.llalloc.free_ns" => {
                let want_alloc = name.ends_with("alloc_ns");
                let t0 = Instant::now();
                let blocks: Vec<_> = (0..iters)
                    .map(|_| self.b.alloc(64, 16).map_err(err))
                    .collect::<Res<_>>()?;
                let t1 = Instant::now();
                for p in blocks {
                    // SAFETY: each block came from this region's alloc
                    // with this size and is freed once.
                    unsafe { self.b.dealloc(p, 64) };
                }
                if want_alloc {
                    t1 - t0
                } else {
                    t1.elapsed()
                }
            }
            "pi_core.normal.load_ns" => self.chase::<NormalPtr>(false, iters),
            "pi_core.offholder.load_ns" => self.chase::<OffHolder>(false, iters),
            "pi_core.riv.load_ns" => self.chase::<Riv>(false, iters),
            "pi_core.fatcached.load_ns" => self.chase::<FatPtrCached>(false, iters),
            "pi_core.fat.load_ns" => self.chase::<FatPtr>(false, iters),
            "pi_core.fatcached.miss_load_ns" => self.chase::<FatPtrCached>(true, iters),
            "pi_core.riv.xregion_load_ns" => self.chase::<Riv>(true, iters),
            "pi_core.offholder.store_ns" => self.stores::<OffHolder>(iters),
            "pi_core.riv.store_ns" => self.stores::<Riv>(iters),
            "pi_core.fatcached.store_ns" => self.stores::<FatPtrCached>(iters),
            "pstore.tx.empty_ns" => time_loop(iters, |_| self.store.begin().commit()),
            "pstore.tx.abort_empty_ns" => time_loop(iters, |_| drop(self.store.begin())),
            "pstore.tx.add_range_ns" | "pstore.tx.commit4_ns" => {
                // add_range: a 1-range transaction minus an empty one is
                // taken by the caller; here the whole transaction is timed.
                let ranges = if name.ends_with("commit4_ns") { 4 } else { 1 };
                let cells = self
                    .store
                    .alloc(SCRATCH_TYPE, 4 * 64)
                    .map_err(err)?
                    .as_ptr() as usize;
                let t = Instant::now();
                for _ in 0..iters {
                    let mut tx = self.store.begin();
                    for r in 0..ranges {
                        tx.add_range(cells + r * 64, 8).map_err(err)?;
                    }
                    tx.commit();
                }
                t.elapsed()
            }
            "pstore.tx.alloc_ns" => {
                let t = Instant::now();
                for _ in 0..iters {
                    let mut tx = self.store.begin();
                    black_box(tx.alloc(SCRATCH_TYPE, 56).map_err(err)?);
                    tx.commit();
                }
                t.elapsed()
            }
            "nvserver.codec.encode_request_ns" => {
                let req = probe_request();
                time_loop(iters, move |_| {
                    black_box(codec::encode_request(black_box(&req)));
                })
            }
            "nvserver.codec.decode_request_ns" => {
                let frame = codec::encode_request(&probe_request());
                time_loop(iters, move |_| {
                    black_box(codec::decode_request(black_box(&frame)).is_ok());
                })
            }
            "nvserver.codec.encode_response_ns" => {
                let resp = probe_response();
                time_loop(iters, move |_| {
                    black_box(codec::encode_response(black_box(&resp)));
                })
            }
            "nvserver.codec.decode_response_ns" => {
                let frame = codec::encode_response(&probe_response());
                time_loop(iters, move |_| {
                    black_box(codec::decode_response(black_box(&frame)).is_ok());
                })
            }
            other => return Err(format!("no probe named {other}")),
        })
    }

    pub fn close(self) -> Res<()> {
        let ProbeEnv { a, b, store, .. } = self;
        drop(store);
        a.close().map_err(err)?;
        b.close().map_err(err)
    }
}

fn probe_request() -> codec::Request {
    codec::Request {
        id: 42,
        tenant: 3,
        priority: Priority::Normal,
        deadline_micros: 0,
        op: codec::ReqOp::Get { key: 0x1234_5678 },
    }
}

fn probe_response() -> codec::Response {
    codec::Response {
        id: 42,
        status: codec::Status::Ok,
        found: Some(true),
        attempts: 1,
        stamp: 0,
        batch: Vec::new(),
        detail: String::new(),
    }
}
