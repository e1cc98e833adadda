//! Measurement harness: builds each data structure under a chosen pointer
//! representation and placement, and times the paper's operations
//! (traversal, random search, swizzle protocols, wordcount runs).
//!
//! Two methodological points:
//!
//! * Comparisons are **interleaved**: all representations' structures for
//!   one workload are built side by side, and timed repetitions alternate
//!   between them, so frequency drift or background noise hits every
//!   representation equally. Reported values are per-representation
//!   medians.
//! * Node placement is **scattered** (shuffled free lists, see
//!   [`NodeArena::scatter`]) so traversals are memory-latency-bound the
//!   way the paper's PMEP runs were, rather than stream-prefetched.

use crate::reprs::{RivHash, SegBasePtr};
use crate::workloads;
use nvmsim::Region;
use parking_lot::Mutex;
use pds::{NodeArena, PBst, PHashSet, PList, PTrie, WordCount};
use pi_core::{BasedPtr, FatPtr, FatPtrCached, NormalPtr, OffHolder, PtrRepr, Riv, SwizzledPtr};
use pstore::ObjectStore;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Pointer representations selectable at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReprKind {
    /// Absolute pointers (baseline; not position independent).
    Normal,
    /// The paper's off-holder (§4.2).
    OffHolder,
    /// The paper's RIV (§4.3).
    Riv,
    /// Fat pointer without the last-region cache.
    Fat,
    /// Fat pointer with the `lastID`/`lastAddr` cache.
    FatCached,
    /// MSVC-style based pointer (global base).
    Based,
    /// Pointer swizzling (offsets at rest, O(n) passes at load/store).
    Swizzled,
    /// Ablation: RIV format resolved through the fat hashtable.
    RivHash,
    /// Ablation: region-base-relative offset via address masking.
    SegBase,
}

impl ReprKind {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            ReprKind::Normal => NormalPtr::NAME,
            ReprKind::OffHolder => OffHolder::NAME,
            ReprKind::Riv => Riv::NAME,
            ReprKind::Fat => FatPtr::NAME,
            ReprKind::FatCached => FatPtrCached::NAME,
            ReprKind::Based => BasedPtr::NAME,
            ReprKind::Swizzled => SwizzledPtr::NAME,
            ReprKind::RivHash => RivHash::NAME,
            ReprKind::SegBase => SegBasePtr::NAME,
        }
    }

    /// Whether the representation supports cross-region structures.
    pub fn supports_multi_region(&self) -> bool {
        matches!(
            self,
            ReprKind::Normal
                | ReprKind::Riv
                | ReprKind::Fat
                | ReprKind::FatCached
                | ReprKind::RivHash
        )
    }
}

/// Benchmark configuration shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Elements per structure (the paper uses 10 000).
    pub n: usize,
    /// Timed repetitions per measurement (the paper uses 10).
    pub reps: usize,
    /// RNG seed.
    pub seed: u64,
    /// Random searches per search measurement.
    pub searches: usize,
}

impl Config {
    /// The paper's configuration: 10 000 elements, 10 repetitions.
    pub fn paper() -> Config {
        Config {
            n: workloads::PAPER_N,
            reps: 10,
            seed: 42,
            searches: workloads::PAPER_N,
        }
    }

    /// A scaled-down configuration for CI and `cargo bench` smoke runs.
    pub fn quick() -> Config {
        Config {
            n: 2_000,
            reps: 5,
            seed: 42,
            searches: 2_000,
        }
    }
}

/// Traversal and search times for one (structure, representation) pair,
/// in nanoseconds per full operation batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTimes {
    /// One full traversal of the structure.
    pub traverse_ns: f64,
    /// The whole batch of random searches.
    pub search_ns: f64,
}

// The based-pointer base is a process-global; serialize measurement groups
// that install it so parallel test threads cannot interleave.
static BASED_LOCK: Mutex<()> = Mutex::new(());

/// A set of regions (and optional stores) that a measurement runs in;
/// closed on drop. One `Env` can serve several structure instances (each
/// gets its own routing [`NodeArena`]) — sharing the same regions across
/// the representations under comparison removes physical-page-layout luck
/// from the comparison.
#[derive(Debug)]
pub struct Env {
    regions: Vec<Region>,
    stores: Option<Vec<ObjectStore>>,
}

impl Env {
    /// Creates `k` regions of `size` bytes; when `transactional`, each is
    /// formatted with an object store and nodes are wrapped.
    ///
    /// # Panics
    ///
    /// Panics on substrate failure — benchmarks have no graceful fallback.
    pub fn new(k: usize, size: usize, transactional: bool) -> Env {
        let regions: Vec<Region> = (0..k)
            .map(|_| Region::create(size).expect("bench region"))
            .collect();
        let stores = transactional.then(|| {
            regions
                .iter()
                .map(|r| ObjectStore::format(r).expect("bench store"))
                .collect()
        });
        Env { regions, stores }
    }

    /// A fresh allocation-routing handle over this environment's regions.
    pub fn arena(&self) -> NodeArena {
        match &self.stores {
            Some(stores) => NodeArena::transactional_round_robin(stores.clone()),
            None => NodeArena::raw_round_robin(self.regions.clone()),
        }
    }

    /// The home (first) region.
    pub fn home(&self) -> &Region {
        &self.regions[0]
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        for r in self.regions.drain(..) {
            let _ = r.close();
        }
    }
}

/// Times `f` over `reps` repetitions (after one warmup) and returns the
/// **median** nanoseconds per call. The returned checksums are black-boxed
/// so the measured work cannot be optimized away.
pub fn time_avg<F: FnMut() -> u64>(mut f: F, reps: usize) -> f64 {
    let mut sink = f(); // warmup
    let mut samples = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        sink = sink.wrapping_add(f());
        samples.push(t.elapsed().as_nanos() as f64);
    }
    std::hint::black_box(sink);
    median(samples)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn region_size(structure: &str) -> usize {
    match structure {
        "trie" => 60 << 20,
        // Shared by up to ~8 structure instances of <= ~3 MiB each.
        _ => 48 << 20,
    }
}

/// A timed operation: returns a checksum to defeat dead-code elimination.
type OpThunk = Box<dyn FnMut() -> u64>;

/// One buildable+timeable structure instance under some representation.
/// The regions it lives in are owned by the caller's [`Env`].
struct Probe {
    traverse: OpThunk,
    search: OpThunk,
}

/// Builds a probe for a non-swizzled representation inside `env`.
fn build_probe<R: PtrRepr, const P: usize>(structure: &str, cfg: &Config, env: &Env) -> Probe {
    let arena = env.arena();
    let home_base = env.home().base();
    let is_based = R::NAME == BasedPtr::NAME;
    if is_based {
        pi_core::based::set_base(home_base);
    }
    let keys = workloads::keys(cfg.n, cfg.seed);
    // Each probe's closures re-install the global base (one atomic store)
    // so interleaved measurements of different probes stay correct.
    let rebase = move || {
        if is_based {
            pi_core::based::set_base(home_base);
        }
    };
    let (traverse, search): (OpThunk, OpThunk) = match structure {
        "list" => {
            let mut l: PList<R, P> = PList::new(arena).expect("list");
            l.arena()
                .scatter(
                    cfg.n * 2,
                    std::mem::size_of::<pds::ListNode<R, P>>(),
                    cfg.seed,
                )
                .expect("scatter");
            l.extend(keys.iter().copied()).expect("populate");
            let searches = workloads::search_sample(&keys, (cfg.searches / 100).max(10), cfg.seed);
            let l = Rc::new(l);
            let l2 = l.clone();
            (
                Box::new(move || {
                    rebase();
                    l.traverse()
                }),
                Box::new(move || {
                    rebase();
                    searches.iter().filter(|&&k| l2.contains(k)).count() as u64
                }),
            )
        }
        "btree" => {
            let mut t: PBst<R, P> = PBst::new(arena).expect("bst");
            t.arena()
                .scatter(
                    cfg.n * 2,
                    std::mem::size_of::<pds::BstNode<R, P>>(),
                    cfg.seed,
                )
                .expect("scatter");
            t.extend(keys.iter().copied()).expect("populate");
            let searches = workloads::search_sample(&keys, cfg.searches, cfg.seed);
            let t = Rc::new(t);
            let t2 = t.clone();
            (
                Box::new(move || {
                    rebase();
                    t.traverse()
                }),
                Box::new(move || {
                    rebase();
                    searches.iter().filter(|&&k| t2.contains(k)).count() as u64
                }),
            )
        }
        "hashset" => {
            let mut s: PHashSet<R, P> =
                PHashSet::new(arena, (cfg.n as u64 / 8).max(8)).expect("hashset");
            s.arena()
                .scatter(
                    cfg.n * 2,
                    std::mem::size_of::<pds::HsNode<R, P>>(),
                    cfg.seed,
                )
                .expect("scatter");
            s.extend(keys.iter().copied()).expect("populate");
            let searches = workloads::search_sample(&keys, cfg.searches, cfg.seed);
            let s = Rc::new(s);
            let s2 = s.clone();
            (
                Box::new(move || {
                    rebase();
                    s.traverse()
                }),
                Box::new(move || {
                    rebase();
                    searches.iter().filter(|&&k| s2.contains(k)).count() as u64
                }),
            )
        }
        "trie" => {
            let vocab = workloads::vocabulary(cfg.n, cfg.seed);
            let mut t: PTrie<R, P> = PTrie::new(arena).expect("trie");
            t.arena()
                .scatter(
                    cfg.n * 2,
                    std::mem::size_of::<pds::TrieNode<R, P>>(),
                    cfg.seed,
                )
                .expect("scatter");
            t.extend(vocab.iter().map(|s| s.as_str()))
                .expect("populate");
            let idx = workloads::word_stream(cfg.searches, vocab.len(), cfg.seed);
            let sample: Vec<String> = idx.into_iter().map(|i| vocab[i].clone()).collect();
            let t = Rc::new(t);
            let t2 = t.clone();
            (
                Box::new(move || {
                    rebase();
                    t.traverse()
                }),
                Box::new(move || {
                    rebase();
                    sample.iter().filter(|w| t2.contains(w)).count() as u64
                }),
            )
        }
        other => panic!("unknown structure {other}"),
    };
    Probe { traverse, search }
}

/// Builds the swizzling-protocol probe inside `env`: each timed traversal
/// is the full load-use-store cycle (swizzle + use + unswizzle).
fn build_probe_swizzled<const P: usize>(structure: &str, cfg: &Config, env: &Env) -> Probe {
    let arena = env.arena();
    let keys = workloads::keys(cfg.n, cfg.seed);
    let (traverse, search): (OpThunk, OpThunk) = match structure {
        "list" => {
            let mut l: PList<SwizzledPtr, P> = PList::new(arena).expect("list");
            l.arena()
                .scatter(
                    cfg.n * 2,
                    std::mem::size_of::<pds::ListNode<SwizzledPtr, P>>(),
                    cfg.seed,
                )
                .expect("scatter");
            l.extend(keys.iter().copied()).expect("populate");
            let searches = workloads::search_sample(&keys, (cfg.searches / 100).max(10), cfg.seed);
            let l = Rc::new(RefCell::new(l));
            let l2 = l.clone();
            (
                Box::new(move || {
                    let mut l = l.borrow_mut();
                    l.swizzle();
                    let s = l.traverse();
                    l.unswizzle();
                    s
                }),
                Box::new(move || {
                    let mut l = l2.borrow_mut();
                    l.swizzle();
                    let s = searches.iter().filter(|&&k| l.contains(k)).count() as u64;
                    l.unswizzle();
                    s
                }),
            )
        }
        "btree" => {
            let mut t: PBst<SwizzledPtr, P> = PBst::new(arena).expect("bst");
            t.arena()
                .scatter(
                    cfg.n * 2,
                    std::mem::size_of::<pds::BstNode<SwizzledPtr, P>>(),
                    cfg.seed,
                )
                .expect("scatter");
            t.extend(keys.iter().copied()).expect("populate");
            let searches = workloads::search_sample(&keys, cfg.searches, cfg.seed);
            let t = Rc::new(RefCell::new(t));
            let t2 = t.clone();
            (
                Box::new(move || {
                    let mut t = t.borrow_mut();
                    t.swizzle();
                    let s = t.traverse();
                    t.unswizzle();
                    s
                }),
                Box::new(move || {
                    let mut t = t2.borrow_mut();
                    t.swizzle();
                    let s = searches.iter().filter(|&&k| t.contains(k)).count() as u64;
                    t.unswizzle();
                    s
                }),
            )
        }
        "hashset" => {
            let mut s: PHashSet<SwizzledPtr, P> =
                PHashSet::new(arena, (cfg.n as u64 / 8).max(8)).expect("hashset");
            s.arena()
                .scatter(
                    cfg.n * 2,
                    std::mem::size_of::<pds::HsNode<SwizzledPtr, P>>(),
                    cfg.seed,
                )
                .expect("scatter");
            s.extend(keys.iter().copied()).expect("populate");
            let searches = workloads::search_sample(&keys, cfg.searches, cfg.seed);
            let s = Rc::new(RefCell::new(s));
            let s2 = s.clone();
            (
                Box::new(move || {
                    let mut s = s.borrow_mut();
                    s.swizzle();
                    let r = s.traverse();
                    s.unswizzle();
                    r
                }),
                Box::new(move || {
                    let mut s = s2.borrow_mut();
                    s.swizzle();
                    let r = searches.iter().filter(|&&k| s.contains(k)).count() as u64;
                    s.unswizzle();
                    r
                }),
            )
        }
        "trie" => {
            let vocab = workloads::vocabulary(cfg.n, cfg.seed);
            let mut t: PTrie<SwizzledPtr, P> = PTrie::new(arena).expect("trie");
            t.arena()
                .scatter(
                    cfg.n * 2,
                    std::mem::size_of::<pds::TrieNode<SwizzledPtr, P>>(),
                    cfg.seed,
                )
                .expect("scatter");
            t.extend(vocab.iter().map(|s| s.as_str()))
                .expect("populate");
            let idx = workloads::word_stream(cfg.searches, vocab.len(), cfg.seed);
            let sample: Vec<String> = idx.into_iter().map(|i| vocab[i].clone()).collect();
            let t = Rc::new(RefCell::new(t));
            let t2 = t.clone();
            (
                Box::new(move || {
                    let mut t = t.borrow_mut();
                    t.swizzle();
                    let s = t.traverse();
                    t.unswizzle();
                    s
                }),
                Box::new(move || {
                    let mut t = t2.borrow_mut();
                    t.swizzle();
                    let s = sample.iter().filter(|w| t.contains(w)).count() as u64;
                    t.unswizzle();
                    s
                }),
            )
        }
        other => panic!("unknown structure {other}"),
    };
    Probe { traverse, search }
}

fn make_probe(structure: &str, kind: ReprKind, payload: usize, cfg: &Config, env: &Env) -> Probe {
    macro_rules! go {
        ($R:ty) => {
            match payload {
                32 => build_probe::<$R, 32>(structure, cfg, env),
                256 => build_probe::<$R, 256>(structure, cfg, env),
                other => panic!("unsupported payload {other}; use 32 or 256"),
            }
        };
    }
    match kind {
        ReprKind::Normal => go!(NormalPtr),
        ReprKind::OffHolder => go!(OffHolder),
        ReprKind::Riv => go!(Riv),
        ReprKind::Fat => go!(FatPtr),
        ReprKind::FatCached => go!(FatPtrCached),
        ReprKind::Based => go!(BasedPtr),
        ReprKind::RivHash => go!(RivHash),
        ReprKind::SegBase => go!(SegBasePtr),
        ReprKind::Swizzled => match payload {
            32 => build_probe_swizzled::<32>(structure, cfg, env),
            256 => build_probe_swizzled::<256>(structure, cfg, env),
            other => panic!("unsupported payload {other}; use 32 or 256"),
        },
    }
}

/// Environments for one comparison group. Small structures share one
/// environment (same regions for every representation — no per-instance
/// page luck); the trie is too large for several instances to share a
/// segment, so each probe gets its own.
fn group_envs(structure: &str, nkinds: usize, regions: usize, transactional: bool) -> Vec<Env> {
    if structure == "trie" {
        (0..nkinds)
            .map(|_| Env::new(regions, 60 << 20, transactional))
            .collect()
    } else {
        vec![Env::new(regions, region_size(structure), transactional)]
    }
}

/// Builds one structure per representation in `kinds` and measures them
/// with interleaved repetitions. Returns one [`OpTimes`] per kind, in
/// order. For [`ReprKind::Swizzled`], the "traverse" and "search" numbers
/// are full swizzle-use-unswizzle protocol cycles.
///
/// # Panics
///
/// Panics on unknown structures, unsupported payloads (use 32 or 256), or
/// substrate failures.
pub fn group_times(
    structure: &str,
    kinds: &[ReprKind],
    payload: usize,
    cfg: &Config,
    regions: usize,
    transactional: bool,
) -> Vec<(ReprKind, OpTimes)> {
    let _based_guard = BASED_LOCK.lock();
    // Three independent builds: each gets fresh segments and physical
    // pages, and the per-kind minimum of the medians cancels the
    // page-layout luck a single build is stuck with.
    let mut best: Vec<Option<OpTimes>> = vec![None; kinds.len()];
    for trial in 0..3 {
        let envs = group_envs(structure, kinds.len(), regions, transactional);
        let mut probes: Vec<Probe> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| make_probe(structure, k, payload, cfg, &envs[i % envs.len()]))
            .collect();
        let reps = cfg.reps.max(1);
        let mut sink = trial as u64;
        // Warmup round.
        for p in probes.iter_mut() {
            sink = sink.wrapping_add((p.traverse)()).wrapping_add((p.search)());
        }
        let mut tsamp = vec![Vec::with_capacity(reps); probes.len()];
        let mut ssamp = vec![Vec::with_capacity(reps); probes.len()];
        for _ in 0..reps {
            for (i, p) in probes.iter_mut().enumerate() {
                let t = Instant::now();
                sink = sink.wrapping_add((p.traverse)());
                tsamp[i].push(t.elapsed().as_nanos() as f64);
            }
            for (i, p) in probes.iter_mut().enumerate() {
                let t = Instant::now();
                sink = sink.wrapping_add((p.search)());
                ssamp[i].push(t.elapsed().as_nanos() as f64);
            }
        }
        std::hint::black_box(sink);
        for i in 0..probes.len() {
            let t = OpTimes {
                traverse_ns: median(tsamp[i].clone()),
                search_ns: median(ssamp[i].clone()),
            };
            best[i] = Some(match best[i] {
                None => t,
                Some(prev) => OpTimes {
                    traverse_ns: prev.traverse_ns.min(t.traverse_ns),
                    search_ns: prev.search_ns.min(t.search_ns),
                },
            });
        }
    }
    kinds
        .iter()
        .zip(best)
        .map(|(&k, t)| (k, t.expect("measured")))
        .collect()
}

/// Times one structure under one representation (convenience wrapper over
/// [`group_times`] — prefer the group form for comparisons).
///
/// # Panics
///
/// As [`group_times`].
pub fn structure_times(
    structure: &str,
    kind: ReprKind,
    payload: usize,
    cfg: &Config,
    regions: usize,
    transactional: bool,
) -> OpTimes {
    group_times(structure, &[kind], payload, cfg, regions, transactional)[0].1
}

// ---------------------------------------------------------------------------
// Swizzling k-traversal protocol (Table 1)
// ---------------------------------------------------------------------------

macro_rules! swizzled_protocol {
    ($build:expr, $cfg:expr, $k:expr, $structure:expr) => {{
        let env = Env::new(1, region_size($structure), false);
        let mut s = $build(env.arena(), $cfg);
        let k = $k;
        time_avg(
            || {
                s.swizzle();
                let mut sum = 0u64;
                for _ in 0..k {
                    sum = sum.wrapping_add(s.traverse());
                }
                s.unswizzle();
                sum
            },
            $cfg.reps,
        )
    }};
}

/// Times the exact swizzling protocol — swizzle + `k` traversals +
/// unswizzle — for one structure; Table 1 sweeps `k` over {1, 10, 100}.
///
/// # Panics
///
/// Panics on unknown structure names or substrate failures.
pub fn structure_times_swizzled(structure: &str, payload: usize, cfg: &Config, k: usize) -> f64 {
    assert!(
        payload == 32 || payload == 256,
        "unsupported payload {payload}"
    );
    macro_rules! by_structure {
        ($P:literal) => {
            match structure {
                "list" => swizzled_protocol!(
                    |arena, cfg: &Config| {
                        let mut l: PList<SwizzledPtr, $P> = PList::new(arena).expect("list");
                        l.arena()
                            .scatter(
                                cfg.n * 2,
                                std::mem::size_of::<pds::ListNode<SwizzledPtr, $P>>(),
                                cfg.seed,
                            )
                            .expect("scatter");
                        l.extend(workloads::keys(cfg.n, cfg.seed))
                            .expect("populate");
                        l
                    },
                    cfg,
                    k,
                    structure
                ),
                "btree" => swizzled_protocol!(
                    |arena, cfg: &Config| {
                        let mut t: PBst<SwizzledPtr, $P> = PBst::new(arena).expect("bst");
                        t.arena()
                            .scatter(
                                cfg.n * 2,
                                std::mem::size_of::<pds::BstNode<SwizzledPtr, $P>>(),
                                cfg.seed,
                            )
                            .expect("scatter");
                        t.extend(workloads::keys(cfg.n, cfg.seed))
                            .expect("populate");
                        t
                    },
                    cfg,
                    k,
                    structure
                ),
                "hashset" => swizzled_protocol!(
                    |arena, cfg: &Config| {
                        let mut s: PHashSet<SwizzledPtr, $P> =
                            PHashSet::new(arena, (cfg.n as u64 / 8).max(8)).expect("hashset");
                        s.arena()
                            .scatter(
                                cfg.n * 2,
                                std::mem::size_of::<pds::HsNode<SwizzledPtr, $P>>(),
                                cfg.seed,
                            )
                            .expect("scatter");
                        s.extend(workloads::keys(cfg.n, cfg.seed))
                            .expect("populate");
                        s
                    },
                    cfg,
                    k,
                    structure
                ),
                "trie" => swizzled_protocol!(
                    |arena, cfg: &Config| {
                        let mut t: PTrie<SwizzledPtr, $P> = PTrie::new(arena).expect("trie");
                        let vocab = workloads::vocabulary(cfg.n, cfg.seed);
                        t.arena()
                            .scatter(
                                cfg.n * 2,
                                std::mem::size_of::<pds::TrieNode<SwizzledPtr, $P>>(),
                                cfg.seed,
                            )
                            .expect("scatter");
                        t.extend(vocab.iter().map(|s| s.as_str()))
                            .expect("populate");
                        t
                    },
                    cfg,
                    k,
                    structure
                ),
                other => panic!("unknown structure {other}"),
            }
        };
    }
    match payload {
        32 => by_structure!(32),
        _ => by_structure!(256),
    }
}

/// TAB1 measurement point: builds a normal-pointer structure and a
/// swizzled twin **in the same environment**, and times — interleaved —
/// `k` consecutive plain traversals of the former against one full
/// swizzle + `k` traversals + unswizzle protocol cycle of the latter.
/// Returns `(protocol_ns, k_plain_traversals_ns)`.
///
/// # Panics
///
/// Panics on unknown structures or substrate failures.
pub fn tab1_point(structure: &str, cfg: &Config, k: usize) -> (f64, f64) {
    macro_rules! run {
        ($build_n:expr, $build_s:expr) => {{
            let env = Env::new(1, region_size(structure), false);
            let base_struct = $build_n(env.arena(), cfg);
            let mut swz_struct = $build_s(env.arena(), cfg);
            let reps = cfg.reps.max(1);
            let mut sink = base_struct.traverse();
            let mut base_samples = Vec::with_capacity(reps);
            let mut proto_samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                for _ in 0..k {
                    sink = sink.wrapping_add(base_struct.traverse());
                }
                base_samples.push(t.elapsed().as_nanos() as f64);
                let t = Instant::now();
                swz_struct.swizzle();
                for _ in 0..k {
                    sink = sink.wrapping_add(swz_struct.traverse());
                }
                swz_struct.unswizzle();
                proto_samples.push(t.elapsed().as_nanos() as f64);
            }
            std::hint::black_box(sink);
            (median(proto_samples), median(base_samples))
        }};
    }
    match structure {
        "list" => run!(
            |arena, cfg: &Config| {
                let mut l: PList<NormalPtr, 32> = PList::new(arena).expect("list");
                l.arena()
                    .scatter(
                        cfg.n * 2,
                        std::mem::size_of::<pds::ListNode<NormalPtr, 32>>(),
                        cfg.seed,
                    )
                    .expect("scatter");
                l.extend(workloads::keys(cfg.n, cfg.seed))
                    .expect("populate");
                l
            },
            |arena, cfg: &Config| {
                let mut l: PList<SwizzledPtr, 32> = PList::new(arena).expect("list");
                l.arena()
                    .scatter(
                        cfg.n * 2,
                        std::mem::size_of::<pds::ListNode<SwizzledPtr, 32>>(),
                        cfg.seed,
                    )
                    .expect("scatter");
                l.extend(workloads::keys(cfg.n, cfg.seed))
                    .expect("populate");
                l
            }
        ),
        "btree" => run!(
            |arena, cfg: &Config| {
                let mut t: PBst<NormalPtr, 32> = PBst::new(arena).expect("bst");
                t.arena()
                    .scatter(
                        cfg.n * 2,
                        std::mem::size_of::<pds::BstNode<NormalPtr, 32>>(),
                        cfg.seed,
                    )
                    .expect("scatter");
                t.extend(workloads::keys(cfg.n, cfg.seed))
                    .expect("populate");
                t
            },
            |arena, cfg: &Config| {
                let mut t: PBst<SwizzledPtr, 32> = PBst::new(arena).expect("bst");
                t.arena()
                    .scatter(
                        cfg.n * 2,
                        std::mem::size_of::<pds::BstNode<SwizzledPtr, 32>>(),
                        cfg.seed,
                    )
                    .expect("scatter");
                t.extend(workloads::keys(cfg.n, cfg.seed))
                    .expect("populate");
                t
            }
        ),
        "hashset" => run!(
            |arena, cfg: &Config| {
                let mut h: PHashSet<NormalPtr, 32> =
                    PHashSet::new(arena, (cfg.n as u64 / 8).max(8)).expect("hashset");
                h.arena()
                    .scatter(
                        cfg.n * 2,
                        std::mem::size_of::<pds::HsNode<NormalPtr, 32>>(),
                        cfg.seed,
                    )
                    .expect("scatter");
                h.extend(workloads::keys(cfg.n, cfg.seed))
                    .expect("populate");
                h
            },
            |arena, cfg: &Config| {
                let mut h: PHashSet<SwizzledPtr, 32> =
                    PHashSet::new(arena, (cfg.n as u64 / 8).max(8)).expect("hashset");
                h.arena()
                    .scatter(
                        cfg.n * 2,
                        std::mem::size_of::<pds::HsNode<SwizzledPtr, 32>>(),
                        cfg.seed,
                    )
                    .expect("scatter");
                h.extend(workloads::keys(cfg.n, cfg.seed))
                    .expect("populate");
                h
            }
        ),
        "trie" => run!(
            |arena, cfg: &Config| {
                let mut t: PTrie<NormalPtr, 32> = PTrie::new(arena).expect("trie");
                t.arena()
                    .scatter(
                        cfg.n * 2,
                        std::mem::size_of::<pds::TrieNode<NormalPtr, 32>>(),
                        cfg.seed,
                    )
                    .expect("scatter");
                let vocab = workloads::vocabulary(cfg.n, cfg.seed);
                t.extend(vocab.iter().map(|s| s.as_str()))
                    .expect("populate");
                t
            },
            |arena, cfg: &Config| {
                let mut t: PTrie<SwizzledPtr, 32> = PTrie::new(arena).expect("trie");
                t.arena()
                    .scatter(
                        cfg.n * 2,
                        std::mem::size_of::<pds::TrieNode<SwizzledPtr, 32>>(),
                        cfg.seed,
                    )
                    .expect("scatter");
                let vocab = workloads::vocabulary(cfg.n, cfg.seed);
                t.extend(vocab.iter().map(|s| s.as_str()))
                    .expect("populate");
                t
            }
        ),
        other => panic!("unknown structure {other}"),
    }
}

// ---------------------------------------------------------------------------
// Wordcount (Figure 15)
// ---------------------------------------------------------------------------

fn wordcount_impl<R: PtrRepr>(words: &[&str], reps: usize) -> f64 {
    let _based_guard = BASED_LOCK.lock();
    time_avg(
        || {
            let env = Env::new(1, 32 << 20, false);
            if R::NAME == BasedPtr::NAME {
                pi_core::based::set_base(env.home().base());
            }
            let mut wc: WordCount<R> = WordCount::new(env.arena()).expect("wordcount");
            wc.add_all(words.iter().copied()).expect("count");
            wc.distinct()
        },
        reps,
    )
}

/// Times a full wordcount run (build + count all words) under one
/// representation. Returns median nanoseconds per run.
///
/// # Panics
///
/// Panics for [`ReprKind::Swizzled`] (the paper does not evaluate
/// wordcount with swizzling) or on substrate failures.
pub fn wordcount_time(kind: ReprKind, words: &[&str], reps: usize) -> f64 {
    match kind {
        ReprKind::Normal => wordcount_impl::<NormalPtr>(words, reps),
        ReprKind::OffHolder => wordcount_impl::<OffHolder>(words, reps),
        ReprKind::Riv => wordcount_impl::<Riv>(words, reps),
        ReprKind::Fat => wordcount_impl::<FatPtr>(words, reps),
        ReprKind::FatCached => wordcount_impl::<FatPtrCached>(words, reps),
        ReprKind::Based => wordcount_impl::<BasedPtr>(words, reps),
        ReprKind::RivHash => wordcount_impl::<RivHash>(words, reps),
        ReprKind::SegBase => wordcount_impl::<SegBasePtr>(words, reps),
        ReprKind::Swizzled => panic!("wordcount is not defined for the swizzling repr"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            n: 200,
            reps: 2,
            seed: 1,
            searches: 100,
        }
    }

    #[test]
    fn structure_times_produce_positive_numbers() {
        for s in ["list", "btree", "hashset", "trie"] {
            let t = structure_times(s, ReprKind::Riv, 32, &tiny(), 1, false);
            assert!(t.traverse_ns > 0.0, "{s} traverse");
            assert!(t.search_ns > 0.0, "{s} search");
        }
    }

    #[test]
    fn group_times_covers_all_reprs() {
        let kinds = [
            ReprKind::Normal,
            ReprKind::OffHolder,
            ReprKind::Riv,
            ReprKind::Fat,
            ReprKind::FatCached,
            ReprKind::Based,
            ReprKind::Swizzled,
            ReprKind::RivHash,
            ReprKind::SegBase,
        ];
        let out = group_times("list", &kinds, 32, &tiny(), 1, false);
        assert_eq!(out.len(), kinds.len());
        for (kind, t) in out {
            assert!(t.traverse_ns > 0.0 && t.search_ns > 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn swizzled_protocol_scales_with_k() {
        let cfg = tiny();
        let t1 = structure_times_swizzled("list", 32, &cfg, 1);
        let t20 = structure_times_swizzled("list", 32, &cfg, 20);
        assert!(t20 > t1, "20 traversals must cost more than 1");
    }

    #[test]
    fn transactional_and_multi_region_paths_work() {
        let t = structure_times("btree", ReprKind::Riv, 32, &tiny(), 3, true);
        assert!(t.traverse_ns > 0.0);
    }

    #[test]
    fn payload_256_works() {
        let t = structure_times("list", ReprKind::OffHolder, 256, &tiny(), 1, false);
        assert!(t.traverse_ns > 0.0);
    }

    #[test]
    fn wordcount_runs_for_each_repr() {
        let vocab = workloads::vocabulary(200, 3);
        let stream = workloads::word_stream(2_000, vocab.len(), 3);
        let words = workloads::words(&vocab, &stream);
        for kind in [
            ReprKind::Normal,
            ReprKind::OffHolder,
            ReprKind::Riv,
            ReprKind::Fat,
        ] {
            assert!(wordcount_time(kind, &words, 1) > 0.0);
        }
    }

    #[test]
    fn multi_region_capability_flags() {
        assert!(ReprKind::Riv.supports_multi_region());
        assert!(ReprKind::Fat.supports_multi_region());
        assert!(!ReprKind::OffHolder.supports_multi_region());
        assert!(!ReprKind::Based.supports_multi_region());
        assert!(!ReprKind::Swizzled.supports_multi_region());
    }
}
