//! Subjects of the crash matrices, and the one committed-prefix
//! enumeration that drives them.
//!
//! A [`Subject`] is the test-side mirror of `bench::harness::Subject`: a
//! durable structure that can be created in a region, recovered from a
//! region image, driven one committed operation at a time, read back as a
//! canonical content vector (after its own `check_invariants`), and
//! modelled by a volatile oracle computed from the op list. It is
//! implemented once per structure, generic over the pointer
//! representation, and once for the raw undo log; `crash_matrix` and
//! `art_matrix` consume these impls.
//!
//! Every subject also names the blocks it reaches, so [`enumerate`] runs
//! a leak oracle on every image: the region's allocated blocks are
//! exactly those — no block a crash left allocated and unreachable, none
//! reachable and free.

use super::Matrix;
use nvm_pi::nvmsim::{dlin, latency, shadow};
use nvm_pi::pstore::{ObjectStore, UndoLog};
use nvm_pi::{
    FaultPlan, FaultPolicy, NodeArena, PArt, PBst, PHashSet, PList, PTrie, PtrRepr, Region,
};
use std::collections::BTreeSet;
use std::fmt::{Debug, Display};

/// One committed operation of a cell's workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op<K> {
    Insert(K),
    Remove(K),
}

impl<K: Copy> Op<K> {
    fn key(self) -> K {
        match self {
            Op::Insert(k) | Op::Remove(k) => k,
        }
    }
}

/// The distinct keys of `ops` in order of first use: the index space of
/// count-vector contents and of the dlin history.
fn keys_of<K: Copy + PartialEq>(ops: &[Op<K>]) -> Vec<K> {
    let mut keys = Vec::new();
    for op in ops {
        if !keys.contains(&op.key()) {
            keys.push(op.key());
        }
    }
    keys
}

/// Occurrences of `key` after `ops` (inserts minus removes).
fn occurrences<K: Copy + PartialEq>(ops: &[Op<K>], key: K) -> u64 {
    ops.iter().fold(0, |n, &op| match op {
        Op::Insert(k) if k == key => n + 1,
        Op::Remove(k) if k == key => n.saturating_sub(1),
        _ => n,
    })
}

/// Panics with `ctx` when a structure's own invariant check failed.
pub fn invariants<E: Display>(checked: Result<(), E>, ctx: &str) {
    checked.unwrap_or_else(|e| panic!("[{ctx}] invariants: {e}"));
}

/// A structure under test; see the module docs.
pub trait Subject: Sized {
    type Key: Copy + PartialEq + Debug;
    /// Formats whatever the subject needs in a fresh region.
    fn create(region: &Region) -> Self;
    /// Attaches to a reopened image, running recovery.
    fn attach(region: &Region) -> Self;
    /// Runs `op` as one committed transaction. Returns what the structure
    /// reported: the key's occurrence count after an insert, 1 or 0 for a
    /// remove that did or did not find its key.
    fn apply(&mut self, op: Op<Self::Key>) -> u64;
    /// Checks structural invariants (panicking with `ctx`) and returns
    /// the canonical content vector; `keys` is [`keys_of`] the workload.
    fn contents(&self, keys: &[Self::Key], ctx: &str) -> Vec<u64>;
    /// The oracle: [`Subject::contents`] after exactly `ops`. Workloads
    /// insert a key twice only into counting subjects (trie, ART).
    fn model(keys: &[Self::Key], ops: &[Op<Self::Key>]) -> Vec<u64>;
    /// Region offsets of every block the subject reaches: the
    /// structure's header, bucket array and nodes, and the blocks of the
    /// log it runs on.
    fn reachable_blocks(&self) -> Vec<u64>;
}

/// The leak oracle: `region`'s allocated blocks are exactly the blocks
/// `s` reaches.
pub fn check_no_leak<S: Subject>(s: &S, region: &Region, ctx: &str) {
    let mut reachable = s.reachable_blocks();
    reachable.sort_unstable();
    let mut live: Vec<u64> = region
        .live_blocks()
        .into_iter()
        .map(|(off, _)| off)
        .collect();
    live.sort_unstable();
    let missing = |from: &[u64], other: &[u64]| -> Vec<u64> {
        from.iter()
            .filter(|o| other.binary_search(o).is_err())
            .copied()
            .collect()
    };
    let (leaked, dangling) = (missing(&live, &reachable), missing(&reachable, &live));
    assert!(
        leaked.is_empty() && dangling.is_empty(),
        "[{ctx}] leak oracle: allocated and unreachable {leaked:#x?}, reachable and free {dangling:#x?}"
    );
}

/// Applies `ops[k]` and checks what the structure reported against the
/// oracle's view of the workload so far.
fn apply_checked<S: Subject>(s: &mut S, ops: &[Op<S::Key>], k: usize, ctx: &str) -> u64 {
    let got = s.apply(ops[k]);
    let expected = match ops[k] {
        Op::Insert(key) => occurrences(&ops[..=k], key),
        Op::Remove(key) => (occurrences(&ops[..k], key) > 0) as u64,
    };
    assert_eq!(got, expected, "[{ctx}] op {k} {:?} reported {got}", ops[k]);
    got
}

/// A pds structure with the undo-logged store its transactions run on.
/// (`s` is declared first: it must drop before the store.)
pub struct Tx<S> {
    pub s: S,
    pub store: ObjectStore,
}

impl<S> Tx<S> {
    const LOG_CAP: u64 = 32 << 10;

    /// `blocks` (addresses of the structure's blocks) as region offsets,
    /// with the store's metadata block and log area.
    fn with_store(&self, blocks: Vec<usize>) -> Vec<u64> {
        let region = self.store.region();
        let offsets = blocks.into_iter().map(|a| region.offset_of(a).unwrap());
        offsets.chain(self.store.own_blocks()).collect()
    }

    fn format(region: &Region, make: impl FnOnce(NodeArena) -> S) -> Tx<S> {
        let store = ObjectStore::format_with_log(region, Self::LOG_CAP).unwrap();
        let s = make(NodeArena::transactional(store.clone()));
        Tx { s, store }
    }

    fn recover(region: &Region, make: impl FnOnce(NodeArena) -> S) -> Tx<S> {
        let store = ObjectStore::attach(region).unwrap();
        let s = make(NodeArena::transactional(store.clone()));
        Tx { s, store }
    }
}

/// Sorted-set oracle (bst in-order keys, hashset sorted keys).
fn set_model(ops: &[Op<u64>]) -> Vec<u64> {
    let mut set = BTreeSet::new();
    for &op in ops {
        match op {
            Op::Insert(k) => set.insert(k),
            Op::Remove(k) => set.remove(&k),
        };
    }
    set.into_iter().collect()
}

/// Occurrence count per key, in `keys` order (trie and ART contents).
fn count_model<K: Copy + PartialEq>(keys: &[K], ops: &[Op<K>]) -> Vec<u64> {
    keys.iter().map(|&k| occurrences(ops, k)).collect()
}

impl<R: PtrRepr> Subject for Tx<PList<R, 32>> {
    type Key = u64;
    fn create(region: &Region) -> Self {
        Tx::format(region, |a| PList::create_rooted(a, "s").unwrap())
    }
    fn attach(region: &Region) -> Self {
        Tx::recover(region, |a| PList::attach(a, "s").unwrap())
    }
    fn apply(&mut self, op: Op<u64>) -> u64 {
        match op {
            Op::Insert(k) => self.s.push_front_tx(&self.store, k).map(|()| 1).unwrap(),
            Op::Remove(k) => self.s.remove_tx(&self.store, k).unwrap() as u64,
        }
    }
    fn contents(&self, _: &[u64], ctx: &str) -> Vec<u64> {
        invariants(self.s.check_invariants(), ctx);
        self.s.keys()
    }
    /// Front-order keys.
    fn model(_: &[u64], ops: &[Op<u64>]) -> Vec<u64> {
        let mut list = Vec::new();
        for &op in ops {
            match op {
                Op::Insert(k) => list.insert(0, k),
                Op::Remove(k) => list.retain(|&x| x != k),
            }
        }
        list
    }
    fn reachable_blocks(&self) -> Vec<u64> {
        self.with_store(self.s.blocks())
    }
}

impl<R: PtrRepr> Subject for Tx<PBst<R, 32>> {
    type Key = u64;
    fn create(region: &Region) -> Self {
        Tx::format(region, |a| PBst::create_rooted(a, "s").unwrap())
    }
    fn attach(region: &Region) -> Self {
        Tx::recover(region, |a| PBst::attach(a, "s").unwrap())
    }
    fn apply(&mut self, op: Op<u64>) -> u64 {
        match op {
            Op::Insert(k) => self.s.insert_tx(&self.store, k).unwrap() as u64,
            Op::Remove(k) => self.s.remove_tx(&self.store, k).unwrap() as u64,
        }
    }
    fn contents(&self, _: &[u64], ctx: &str) -> Vec<u64> {
        invariants(self.s.check_invariants(), ctx);
        self.s.keys_in_order()
    }
    fn model(_: &[u64], ops: &[Op<u64>]) -> Vec<u64> {
        set_model(ops)
    }
    fn reachable_blocks(&self) -> Vec<u64> {
        self.with_store(self.s.blocks())
    }
}

impl<R: PtrRepr> Subject for Tx<PHashSet<R, 32>> {
    type Key = u64;
    fn create(region: &Region) -> Self {
        Tx::format(region, |a| PHashSet::create_rooted(a, 8, "s").unwrap())
    }
    fn attach(region: &Region) -> Self {
        Tx::recover(region, |a| PHashSet::attach(a, "s").unwrap())
    }
    fn apply(&mut self, op: Op<u64>) -> u64 {
        match op {
            Op::Insert(k) => self.s.insert_tx(&self.store, k).unwrap() as u64,
            Op::Remove(k) => self.s.remove_tx(&self.store, k).unwrap() as u64,
        }
    }
    fn contents(&self, _: &[u64], ctx: &str) -> Vec<u64> {
        invariants(self.s.check_invariants(), ctx);
        let mut keys = self.s.keys();
        keys.sort_unstable();
        keys
    }
    fn model(_: &[u64], ops: &[Op<u64>]) -> Vec<u64> {
        set_model(ops)
    }
    fn reachable_blocks(&self) -> Vec<u64> {
        self.with_store(self.s.blocks())
    }
}

impl<R: PtrRepr> Subject for Tx<PTrie<R, 32>> {
    type Key = &'static str;
    fn create(region: &Region) -> Self {
        Tx::format(region, |a| PTrie::create_rooted(a, "s").unwrap())
    }
    fn attach(region: &Region) -> Self {
        Tx::recover(region, |a| PTrie::attach(a, "s").unwrap())
    }
    fn apply(&mut self, op: Op<&'static str>) -> u64 {
        match op {
            Op::Insert(w) => self.s.insert_tx(&self.store, w).unwrap(),
            Op::Remove(w) => self.s.remove_tx(&self.store, w).unwrap() as u64,
        }
    }
    /// Occurrence count per key, then the word total.
    fn contents(&self, keys: &[&'static str], ctx: &str) -> Vec<u64> {
        invariants(self.s.check_invariants(), ctx);
        let mut out: Vec<u64> = keys.iter().map(|w| self.s.count(w)).collect();
        out.push(self.s.word_count());
        out
    }
    fn model(keys: &[&'static str], ops: &[Op<&'static str>]) -> Vec<u64> {
        let mut counts = count_model(keys, ops);
        counts.push(counts.iter().sum());
        counts
    }
    fn reachable_blocks(&self) -> Vec<u64> {
        self.with_store(self.s.blocks())
    }
}

impl<R: PtrRepr> Subject for Tx<PArt<R>> {
    type Key = &'static str;
    fn create(region: &Region) -> Self {
        Tx::format(region, |a| PArt::create_rooted(a, "s").unwrap())
    }
    fn attach(region: &Region) -> Self {
        Tx::recover(region, |a| PArt::attach(a, "s").unwrap())
    }
    fn apply(&mut self, op: Op<&'static str>) -> u64 {
        match op {
            Op::Insert(k) => self.s.insert_tx(&self.store, k).unwrap(),
            Op::Remove(k) => self.s.remove_tx(&self.store, k).unwrap() as u64,
        }
    }
    /// Occurrence count per key, then the distinct-key total.
    fn contents(&self, keys: &[&'static str], ctx: &str) -> Vec<u64> {
        invariants(self.s.check_invariants(), ctx);
        let mut out: Vec<u64> = keys.iter().map(|k| self.s.count(k)).collect();
        out.push(self.s.key_count());
        // Exact membership, twice over: the full scan must list precisely
        // the keys the point lookups report present.
        let scanned = self
            .s
            .prefix_scan("")
            .unwrap_or_else(|e| panic!("[{ctx}] scan: {e}"));
        let mut present: Vec<String> = keys
            .iter()
            .zip(&out)
            .filter(|(_, &c)| c > 0)
            .map(|(k, _)| k.to_string())
            .collect();
        present.sort_unstable();
        assert_eq!(scanned, present, "[{ctx}] prefix_scan vs point lookups");
        out
    }
    fn model(keys: &[&'static str], ops: &[Op<&'static str>]) -> Vec<u64> {
        let mut counts = count_model(keys, ops);
        counts.push(counts.iter().filter(|&&c| c > 0).count() as u64);
        counts
    }
    fn reachable_blocks(&self) -> Vec<u64> {
        self.with_store(self.s.blocks())
    }
}

/// The raw undo log over a plain-cell workload: the one subject that
/// drives `UndoLog` without `Tx`. `Insert(k)` is transaction `k`: it
/// stores `1000 + k` into cell `k % CELLS` through raw
/// `append`/`barrier`/`truncate`.
pub struct RawLog {
    region: Region,
    log_off: u64,
    cells_off: u64,
}

impl RawLog {
    const CELLS: u64 = 4;
    const LOG_CAP: u64 = 8 << 10;

    fn log(&self) -> UndoLog {
        UndoLog::new(self.region.clone(), self.log_off, Self::LOG_CAP)
    }
}

impl Subject for RawLog {
    type Key = u64;
    fn create(region: &Region) -> Self {
        let log_off = region.alloc_off(Self::LOG_CAP as usize, 16).unwrap();
        let cells_off = region.alloc_off(Self::CELLS as usize * 8, 16).unwrap();
        region.set_root("raw.log", region.ptr_at(log_off)).unwrap();
        region
            .set_root("raw.cells", region.ptr_at(cells_off))
            .unwrap();
        let raw = RawLog {
            region: region.clone(),
            log_off,
            cells_off,
        };
        raw.log().format();
        raw
    }
    fn attach(region: &Region) -> Self {
        let raw = RawLog {
            region: region.clone(),
            log_off: region.root_off("raw.log").unwrap(),
            cells_off: region.root_off("raw.cells").unwrap(),
        };
        raw.log().recover();
        raw
    }
    fn apply(&mut self, op: Op<u64>) -> u64 {
        let Op::Insert(k) = op else {
            panic!("the raw-log workload only stores")
        };
        let addr = self.region.ptr_at(self.cells_off + 8 * (k % Self::CELLS));
        let log = self.log();
        log.append(addr, 8).unwrap();
        // `append` does not make the entry durable: the batch barrier is
        // the caller's, and must precede the store.
        log.barrier();
        // SAFETY: addr is a valid u64 cell inside the region.
        unsafe { (addr as *mut u64).write(1000 + k) };
        shadow::track_store(addr, 8);
        latency::clflush_range(addr, 8);
        latency::wbarrier();
        // The truncate fence is the commit point.
        log.truncate();
        1
    }
    fn contents(&self, _: &[u64], _: &str) -> Vec<u64> {
        (0..Self::CELLS)
            // SAFETY: the cells root points at CELLS u64 slots.
            .map(|i| unsafe { *(self.region.ptr_at(self.cells_off + 8 * i) as *const u64) })
            .collect()
    }
    fn model(_: &[u64], ops: &[Op<u64>]) -> Vec<u64> {
        let mut cells = vec![0; Self::CELLS as usize];
        for op in ops {
            cells[(op.key() % Self::CELLS) as usize] = 1000 + op.key();
        }
        cells
    }
    fn reachable_blocks(&self) -> Vec<u64> {
        vec![self.log_off, self.cells_off]
    }
}

/// insert 50, 30, 70, 60; remove 50 (two children, successor 60); remove 30.
pub const BST_OPS: [Op<u64>; 6] = [
    Op::Insert(50),
    Op::Insert(30),
    Op::Insert(70),
    Op::Insert(60),
    Op::Remove(50),
    Op::Remove(30),
];

/// insert cat, car, cat (a second occurrence); remove cat; insert do;
/// remove car.
pub const TRIE_OPS: [Op<&str>; 6] = [
    Op::Insert("cat"),
    Op::Insert("car"),
    Op::Insert("cat"),
    Op::Remove("cat"),
    Op::Insert("do"),
    Op::Remove("car"),
];

/// The committed-prefix enumeration — one cell of a crash matrix.
///
/// Runs `ops` on a fresh `S` (after `prelude`, applied and synced before
/// the enumerated window opens) under a [`FaultPlan`] that captures a
/// faulted image at *every* flush/fence event, then recovers every image
/// through a remapped reopen ([`super::Cell::recover`]) and compares it
/// with the oracle. A transaction is durable in the image of event `n`
/// iff its commit fence is an event `< n`; under
/// [`FaultPolicy::TearWords`] a *dirty* commit record may also tear ahead
/// of its fence — which is safe, because the commit record is ordered
/// after the data it covers is recoverable — so the recovered prefix may
/// be later than that conservative count, but never earlier, and never a
/// non-prefix state. With `dlin_check` (set-like workloads only: every
/// key reaches occurrence count at most 1) every image is also judged by
/// the durable-linearizability checker against the recorded stamp
/// history. Returns the number of crash points.
pub fn enumerate<S: Subject>(
    m: &Matrix,
    label: &str,
    policy: FaultPolicy,
    prelude: &[Op<S::Key>],
    ops: &[Op<S::Key>],
    dlin_check: bool,
) -> usize {
    let (skip, n_ops) = (prelude.len(), ops.len());
    let ops = [prelude, ops].concat();
    let keys = keys_of(&ops);
    let tag = format!("{label} {policy:?} {}", m.tag());
    let cell = m.cell(label);
    m.reseed_placement();
    let region = Region::create_file(cell.path("orig.nvr"), 512 << 10).unwrap();
    let mut s = S::create(&region);
    for k in 0..skip {
        apply_checked(&mut s, &ops, k, &tag);
    }
    region.sync().unwrap();
    region.enable_shadow().unwrap();
    shadow::reset_events_for(region.base());
    let plan = FaultPlan::capture_all(&region, policy);
    let mut commit_events = Vec::with_capacity(n_ops);
    let mut history = dlin::History {
        initial: (0..keys.len() as u64)
            .filter(|&i| occurrences(prelude, keys[i as usize]) > 0)
            .collect(),
        ops: Vec::new(),
    };
    for (k, &op) in ops.iter().enumerate().skip(skip) {
        let invoke_event = shadow::event_count_for(region.base());
        let got = apply_checked(&mut s, &ops, k, &tag);
        let stamp = dlin::next_stamp();
        let durable_event = shadow::event_count_for(region.base());
        commit_events.push(durable_event);
        history.ops.push(dlin::OpRecord {
            thread: 0,
            op: match op {
                Op::Insert(_) => dlin::SetOp::Insert,
                Op::Remove(_) => dlin::SetOp::Remove,
            },
            key: keys.iter().position(|&x| x == op.key()).unwrap() as u64,
            result: Some(got == 1), // set semantics: "was absent" / "was present"
            stamp,
            invoke_event,
            durable_event,
        });
    }
    let crashes = plan.disarm();
    let live_ctx = format!("{tag} live");
    assert_eq!(
        s.contents(&keys, &live_ctx),
        S::model(&keys, &ops),
        "[{live_ctx}] final uncrashed contents"
    );
    check_no_leak(&s, &region, &live_ctx);
    assert!(
        history.ops.windows(2).all(|w| w[0].stamp < w[1].stamp),
        "[{live_ctx}] linearization stamps must be strictly increasing"
    );
    drop(s);
    let mut prev = region.base();
    region.crash();

    assert!(
        commit_events.windows(2).all(|w| w[0] < w[1]),
        "[{tag}] commit events must be strictly increasing: {commit_events:?}"
    );
    assert!(
        crashes.len() * 6 >= 20 * n_ops,
        "[{tag}] expected >= 20 crash points per six transactions, got {}",
        crashes.len()
    );
    let distinct: BTreeSet<u64> = crashes.iter().map(|c| c.event).collect();
    assert_eq!(
        distinct.len(),
        crashes.len(),
        "[{tag}] crash events must be distinct"
    );

    let mut prefixes: BTreeSet<usize> = BTreeSet::new();
    for c in &crashes {
        let ctx = format!("{tag} event {}", c.event);
        let r2 = cell.recover(c, &mut prev, &ctx);
        let s2 = S::attach(&r2);
        let committed = commit_events.iter().filter(|&&e| e < c.event).count();
        let got = s2.contents(&keys, &ctx);
        check_no_leak(&s2, &r2, &ctx);
        let p = (committed..=n_ops)
            .find(|&p| S::model(&keys, &ops[..skip + p]) == got)
            .unwrap_or_else(|| {
                panic!(
                    "[{ctx}] recovered contents {got:?} are not a committed-prefix state at \
                     or after prefix {committed} (commit events {commit_events:?})"
                )
            });
        if matches!(policy, FaultPolicy::DropUnflushed) {
            assert_eq!(
                p, committed,
                "[{ctx}] without tearing, recovery must land exactly on the conservative prefix"
            );
        }
        if dlin_check {
            // Count-vector contents: index i is key i of the history.
            let recovered: Vec<u64> = (0..keys.len() as u64)
                .filter(|&i| got[i as usize] > 0)
                .collect();
            let rep = dlin::check(&history, c.event, &recovered);
            assert!(
                rep.ok(),
                "[{ctx}] durable-linearizability: {:?}",
                rep.violations
            );
        }
        prefixes.insert(p);
        drop(s2);
        r2.crash();
    }
    // Every intermediate committed prefix must be reachable as a
    // recovered crash state when nothing tears early (the final prefix
    // only exists uncrashed: the last event *is* the last commit's
    // fence). Tearing can only shift prefixes later.
    if matches!(policy, FaultPolicy::DropUnflushed) {
        assert_eq!(
            prefixes,
            (0..n_ops).collect::<BTreeSet<usize>>(),
            "[{tag}] all committed prefixes must appear among recovered states"
        );
    } else {
        assert!(
            prefixes.contains(&0) && prefixes.iter().all(|&p| p <= n_ops),
            "[{tag}] torn prefixes out of range: {prefixes:?}"
        );
    }
    let n = crashes.len();
    eprintln!("[{label} {policy:?}] enumerated {n} crash points, prefixes {prefixes:?}");
    n
}
