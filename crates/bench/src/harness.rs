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
//! * Node placement is **scattered** (freed blocks handed out shuffled, see
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

mod subject;
use subject::Subject;

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

/// Evaluates `$body` with `$R` naming the representation type of `$kind`.
macro_rules! by_repr {
    ($kind:expr, $R:ident => $body:expr) => {
        by_repr!(@arms $kind, $R, $body;
            Normal NormalPtr, OffHolder OffHolder, Riv Riv, Fat FatPtr,
            FatCached FatPtrCached, Based BasedPtr, Swizzled SwizzledPtr,
            RivHash RivHash, SegBase SegBasePtr)
    };
    (@arms $kind:expr, $R:ident, $body:expr; $($K:ident $T:ty),*) => {
        match $kind {
            $(ReprKind::$K => {
                type $R = $T;
                $body
            })*
        }
    };
}

impl ReprKind {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        by_repr!(self, R => R::NAME)
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

    /// A scaled-down configuration for CI smoke runs (`--quick`).
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
    /// formatted with an object store and nodes are placed through it.
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
pub fn time_median<F: FnMut() -> u64>(mut f: F, reps: usize) -> f64 {
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

/// Evaluates `$body` with `$S<R, P>` naming the structure called `$name`.
macro_rules! by_structure {
    ($name:expr, $S:ident => $body:expr) => {
        by_structure!(@arms $name, $S, $body;
            "list" PList, "btree" PBst, "hashset" PHashSet, "trie" PTrie)
    };
    (@arms $name:expr, $S:ident, $body:expr; $($n:literal $T:ident),*) => {
        match $name {
            $($n => {
                type $S<R, const P: usize> = $T<R, P>;
                $body
            })*
            other => panic!("unknown structure {other}"),
        }
    };
}

/// A timed operation: returns a checksum to defeat dead-code elimination.
type OpThunk = Box<dyn FnMut() -> u64>;

/// One built structure instance and its two timed operations. The
/// regions it lives in are owned by the caller's [`Env`].
struct Probe {
    traverse: OpThunk,
    search: OpThunk,
}

/// Builds a probe inside `env` whose operations run on the structure as
/// stored.
fn build_probe<S: Subject>(cfg: &Config, env: &Env) -> Probe {
    let home_base = env.home().base();
    let is_based = S::Repr::NAME == BasedPtr::NAME;
    // Each probe's closures re-install the global base (one atomic store)
    // so interleaved measurements of different probes stay correct.
    let rebase = move || {
        if is_based {
            pi_core::based::set_base(home_base);
        }
    };
    rebase();
    let s = Rc::new(S::build(env.arena(), cfg));
    let (s2, sample) = (s.clone(), S::sample(cfg));
    Probe {
        traverse: Box::new(move || {
            rebase();
            s.traverse()
        }),
        search: Box::new(move || {
            rebase();
            s2.hits(&sample)
        }),
    }
}

/// Builds the swizzling-protocol probe inside `env`: each timed operation
/// is the full load-use-store cycle (swizzle + use + unswizzle).
fn build_probe_swizzled<S: Subject>(cfg: &Config, env: &Env) -> Probe {
    fn cycle<S: Subject>(s: &RefCell<S>, op: impl FnOnce(&S) -> u64) -> u64 {
        let mut s = s.borrow_mut();
        s.swizzle();
        let sum = op(&s);
        s.unswizzle();
        sum
    }
    let s = Rc::new(RefCell::new(S::build(env.arena(), cfg)));
    let (s2, sample) = (s.clone(), S::sample(cfg));
    Probe {
        traverse: Box::new(move || cycle(&s, |s| s.traverse())),
        search: Box::new(move || cycle(&s2, |s| s.hits(&sample))),
    }
}

fn make_probe(structure: &str, kind: ReprKind, payload: usize, cfg: &Config, env: &Env) -> Probe {
    let build = by_structure!(structure, S => by_repr!(kind, R => match (payload, kind) {
        (32, ReprKind::Swizzled) => build_probe_swizzled::<S<R, 32>>,
        (256, ReprKind::Swizzled) => build_probe_swizzled::<S<R, 256>>,
        (32, _) => build_probe::<S<R, 32>>,
        (256, _) => build_probe::<S<R, 256>>,
        (other, _) => panic!("unsupported payload {other}; use 32 or 256"),
    }));
    build(cfg, env)
}

/// Environments for one comparison group. Small structures share one
/// environment (same regions for every representation — no per-instance
/// page luck); the trie is too large for several instances to share a
/// segment, so each probe gets its own.
fn group_envs(structure: &str, nkinds: usize, regions: usize, transactional: bool) -> Vec<Env> {
    let n = if structure == "trie" { nkinds } else { 1 };
    (0..n)
        .map(|_| Env::new(regions, region_size(structure), transactional))
        .collect()
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
    let unmeasured = OpTimes {
        traverse_ns: f64::INFINITY,
        search_ns: f64::INFINITY,
    };
    let mut best = vec![unmeasured; kinds.len()];
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
        for (best, (t, s)) in best.iter_mut().zip(tsamp.into_iter().zip(ssamp)) {
            best.traverse_ns = best.traverse_ns.min(median(t));
            best.search_ns = best.search_ns.min(median(s));
        }
    }
    kinds.iter().copied().zip(best).collect()
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
    fn run<N: Subject, S: Subject>(env: &Env, cfg: &Config, k: usize) -> (f64, f64) {
        let base = N::build(env.arena(), cfg);
        let mut swz = S::build(env.arena(), cfg);
        let reps = cfg.reps.max(1);
        let mut sink = base.traverse();
        let mut base_samples = Vec::with_capacity(reps);
        let mut proto_samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            for _ in 0..k {
                sink = sink.wrapping_add(base.traverse());
            }
            base_samples.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            swz.swizzle();
            for _ in 0..k {
                sink = sink.wrapping_add(swz.traverse());
            }
            swz.unswizzle();
            proto_samples.push(t.elapsed().as_nanos() as f64);
        }
        std::hint::black_box(sink);
        (median(proto_samples), median(base_samples))
    }
    let env = Env::new(1, region_size(structure), false);
    by_structure!(structure, S => run::<S<NormalPtr, 32>, S<SwizzledPtr, 32>>(&env, cfg, k))
}

// ---------------------------------------------------------------------------
// Wordcount (Figure 15)
// ---------------------------------------------------------------------------

fn wordcount_impl<R: PtrRepr>(words: &[&str], reps: usize) -> f64 {
    let _based_guard = BASED_LOCK.lock();
    time_median(
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
    assert!(
        kind != ReprKind::Swizzled,
        "wordcount is not defined for the swizzling repr"
    );
    by_repr!(kind, R => wordcount_impl::<R>(words, reps))
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

    const ALL_KINDS: [ReprKind; 9] = [
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

    #[test]
    fn group_times_covers_all_reprs() {
        let out = group_times("list", &ALL_KINDS, 32, &tiny(), 1, false);
        assert_eq!(out.len(), ALL_KINDS.len());
        for (kind, t) in out {
            assert!(t.traverse_ns > 0.0 && t.search_ns > 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn every_probe_agrees_with_normal() {
        let _based_guard = BASED_LOCK.lock();
        let cfg = tiny();
        for s in ["list", "btree", "hashset", "trie"] {
            let lookups = if s == "list" {
                (cfg.searches / 100).max(10)
            } else {
                cfg.searches
            } as u64;
            // Both payloads in a plain region, and one transactional
            // 3-region cell for the kinds that can link across regions.
            for (payload, regions, tx) in [(32, 1, false), (256, 1, false), (32, 3, true)] {
                let env = Env::new(regions, region_size(s), tx);
                let want = (make_probe(s, ReprKind::Normal, payload, &cfg, &env).traverse)();
                for kind in ALL_KINDS {
                    if regions > 1 && !kind.supports_multi_region() {
                        continue;
                    }
                    let mut p = make_probe(s, kind, payload, &cfg, &env);
                    // Twice: the swizzled probe's operations are whole
                    // swizzle -> use -> unswizzle cycles, and the second
                    // must find the structure as the first left it.
                    for cycle in 0..2 {
                        let cell = format!(
                            "{s} {} payload={payload} regions={regions} cycle={cycle}",
                            kind.name()
                        );
                        assert_eq!((p.traverse)(), want, "{cell}: checksum");
                        assert_eq!((p.search)(), lookups, "{cell}: every sampled key hits");
                    }
                }
            }
        }
    }

    #[test]
    fn swizzled_protocol_scales_with_k() {
        // Wall-clock beside the rest of the workspace: medians of 9
        // samples, comparison retried.
        let cfg = Config { reps: 9, ..tiny() };
        let mut seen = Vec::new();
        let ok = (0..5).any(|_| {
            seen.push((
                tab1_point("list", &cfg, 1).0,
                tab1_point("list", &cfg, 20).0,
            ));
            seen.last().is_some_and(|&(t1, t20)| t20 > t1)
        });
        assert!(
            ok,
            "20 traversals must cost more than 1; (t1, t20) seen: {seen:.0?}"
        );
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
