//! Seeded inputs and their volatile oracles.
//!
//! Every key universe, probe list and operation stream is generated from
//! `--seed` before the clock starts, together with the result each
//! operation must return — computed on `std` collections — so the timed
//! loops only compare a returned count with a precomputed one.

use std::collections::{BTreeSet, HashSet};

/// splitmix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for a named purpose under the same seed.
    pub fn fork(seed: u64, purpose: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A key universe: integers for list/bst/hashset, lowercase words for
/// trie/ART. Operations name keys by index into it.
#[derive(Debug, Clone)]
pub enum Keys {
    Ints(Vec<u64>),
    Words(Vec<String>),
}

impl Keys {
    pub fn len(&self) -> usize {
        match self {
            Keys::Ints(v) => v.len(),
            Keys::Words(v) => v.len(),
        }
    }

    pub fn ints(&self) -> &[u64] {
        match self {
            Keys::Ints(v) => v,
            Keys::Words(_) => panic!("integer keys expected"),
        }
    }

    pub fn words(&self) -> &[String] {
        match self {
            Keys::Words(v) => v,
            Keys::Ints(_) => panic!("word keys expected"),
        }
    }

    /// The first `n` keys, as a universe of their own.
    pub fn prefix(&self, n: usize) -> Keys {
        match self {
            Keys::Ints(v) => Keys::Ints(v[..n].to_vec()),
            Keys::Words(v) => Keys::Words(v[..n].to_vec()),
        }
    }

    /// The keys at `idx`, materialised in that order so a timed loop
    /// streams through them.
    pub fn gather(&self, idx: &[u32]) -> Keys {
        match self {
            Keys::Ints(v) => Keys::Ints(idx.iter().map(|&i| v[i as usize]).collect()),
            Keys::Words(v) => Keys::Words(idx.iter().map(|&i| v[i as usize].clone()).collect()),
        }
    }
}

/// `n` distinct non-zero integers.
pub fn distinct_ints(n: usize, rng: &mut Rng) -> Keys {
    let mut seen = HashSet::with_capacity(n * 2);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let k = rng.next_u64() | 1;
        if seen.insert(k) {
            out.push(k);
        }
    }
    Keys::Ints(out)
}

/// `n` distinct lowercase words of 5 to 8 letters.
pub fn distinct_words(n: usize, rng: &mut Rng) -> Keys {
    let mut seen = HashSet::with_capacity(n * 2);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = 5 + rng.below(4);
        let w: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        if seen.insert(w.clone()) {
            out.push(w);
        }
    }
    Keys::Words(out)
}

/// Lookups over a universe whose first `present` keys are in the
/// structure: 15 of 16 probes hit, the rest miss. `expect[b]` is the
/// number of hits batch `b` must report.
#[derive(Debug, Clone)]
pub struct Probes {
    pub keys: Keys,
    pub expect: Vec<u32>,
}

pub fn probes(
    universe: &Keys,
    present: usize,
    count: usize,
    batch: usize,
    rng: &mut Rng,
) -> Probes {
    assert!(count.is_multiple_of(batch) && present < universe.len());
    let absent = universe.len() - present;
    let idx: Vec<u32> = (0..count)
        .map(|_| {
            if rng.below(16) == 0 {
                (present + rng.below(absent)) as u32
            } else {
                rng.below(present) as u32
            }
        })
        .collect();
    let expect = idx
        .chunks(batch)
        .map(|c| c.iter().filter(|&&i| (i as usize) < present).count() as u32)
        .collect();
    Probes {
        keys: universe.gather(&idx),
        expect,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Remove,
    Contains,
}

/// One operation of a transactional stream: a kind and a key index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u32,
}

/// What a structure does with a repeated insert: a set ignores it (the
/// op reports 0), a multiset counts it (the op reports the new count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    Set,
    Multiset,
}

/// A transactional stream with the result every op must report.
#[derive(Debug, Clone)]
pub struct TxStream {
    pub ops: Vec<Op>,
    pub expect: Vec<u32>,
    universe: usize,
    preload: usize,
    sem: Semantics,
}

/// Applies `op` to the occupancy table and returns what it must report.
fn tx_step(occ: &mut [u32], op: Op, sem: Semantics) -> u32 {
    let c = &mut occ[op.key as usize];
    match (op.kind, sem) {
        (OpKind::Insert, Semantics::Set) => {
            let fresh = *c == 0;
            *c = 1;
            fresh as u32
        }
        (OpKind::Insert, Semantics::Multiset) => {
            *c += 1;
            *c
        }
        (OpKind::Remove, _) => {
            let had = *c > 0;
            *c -= had as u32;
            had as u32
        }
        (OpKind::Contains, _) => (*c > 0) as u32,
    }
}

impl TxStream {
    /// Occurrence count per key index after the first `n` ops.
    pub fn state_after(&self, n: usize) -> Vec<u32> {
        let mut occ = vec![0u32; self.universe];
        occ[..self.preload].fill(1);
        for &op in &self.ops[..n] {
            tx_step(&mut occ, op, self.sem);
        }
        occ
    }
}

/// 25 % insert / 25 % remove / 50 % contains, keys uniform over the
/// universe, whose first `preload` keys start present (once each).
pub fn tx_stream(
    universe: usize,
    preload: usize,
    count: usize,
    sem: Semantics,
    rng: &mut Rng,
) -> TxStream {
    let mut occ = vec![0u32; universe];
    occ[..preload].fill(1);
    let mut ops = Vec::with_capacity(count);
    let mut expect = Vec::with_capacity(count);
    for _ in 0..count {
        let key = rng.below(universe) as u32;
        let kind = match rng.below(4) {
            0 => OpKind::Insert,
            1 => OpKind::Remove,
            _ => OpKind::Contains,
        };
        let op = Op { kind, key };
        expect.push(tx_step(&mut occ, op, sem));
        ops.push(op);
    }
    TxStream {
        ops,
        expect,
        universe,
        preload,
        sem,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    Get,
    Put,
    Delete,
    Prefix,
}

/// One served request and what the reply must say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub tenant: u16,
    pub kind: ReqKind,
    pub key: u64,
    /// Get: found; Put/Delete: applied; Prefix: any match.
    pub found: bool,
    /// Prefix: lines the reply must carry (matches, capped, plus the
    /// "… N more" line when capped). 0 otherwise.
    pub lines: u16,
}

/// Keys sharing all but the last base-26 digit of their index word form
/// one prefix block; a prefix query names a block.
pub const PREFIX_BLOCK: u64 = 26;
/// The server caps a prefix reply at this many words.
pub const PREFIX_CAP: usize = 16;

/// Slots of one tenant in a window of the served stream: 24 Get, 8 Put,
/// 4 Delete, 4 PrefixQuery (60 / 20 / 10 / 10 %).
const WINDOW_SLOTS: [(ReqKind, usize); 4] = [
    (ReqKind::Get, 24),
    (ReqKind::Put, 8),
    (ReqKind::Delete, 4),
    (ReqKind::Prefix, 4),
];

/// The served stream with the reply every request must get.
#[derive(Debug, Clone)]
pub struct ReqStream {
    pub reqs: Vec<Req>,
    /// Requests of one window: `reqs` is a whole number of them.
    pub window: usize,
    tenants: u32,
    keyspace: u64,
}

/// Every tenant starts with the even keys: half the keyspace, so the
/// sets stay at steady size under the mix.
pub fn preloaded_keys(keyspace: u64) -> impl Iterator<Item = u64> {
    (0..keyspace).step_by(2)
}

impl ReqStream {
    /// Each tenant's key set after the first `n` requests.
    pub fn state_after(&self, n: usize) -> Vec<BTreeSet<u64>> {
        let mut sets: Vec<BTreeSet<u64>> = (0..self.tenants)
            .map(|_| preloaded_keys(self.keyspace).collect())
            .collect();
        for q in &self.reqs[..n] {
            let set = &mut sets[q.tenant as usize];
            match q.kind {
                ReqKind::Put => {
                    set.insert(q.key);
                }
                ReqKind::Delete => {
                    set.remove(&q.key);
                }
                ReqKind::Get | ReqKind::Prefix => {}
            }
        }
        sets
    }
}

/// `windows` windows of 40 requests per tenant, 60 % Get / 20 % Put /
/// 10 % Delete / 10 % PrefixQuery, keys uniform in `0..keyspace`, each
/// tenant preloaded with [`preloaded_keys`]. Every window holds the same
/// (tenant, kind) slots in the same seed-shuffled order, so two windows
/// differ in their keys only and their times can be compared.
pub fn req_stream(tenants: u32, keyspace: u64, windows: usize, rng: &mut Rng) -> ReqStream {
    let mut slots: Vec<(u16, ReqKind)> = (0..tenants as u16)
        .flat_map(|t| {
            WINDOW_SLOTS
                .iter()
                .flat_map(move |&(kind, n)| std::iter::repeat_n((t, kind), n))
        })
        .collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i + 1));
    }
    let mut sets: Vec<BTreeSet<u64>> = (0..tenants)
        .map(|_| preloaded_keys(keyspace).collect())
        .collect();
    let mut reqs = Vec::with_capacity(windows * slots.len());
    for _ in 0..windows {
        for &(tenant, kind) in &slots {
            let key = rng.below(keyspace as usize) as u64;
            let set = &mut sets[tenant as usize];
            let (found, lines) = match kind {
                ReqKind::Get => (set.contains(&key), 0),
                ReqKind::Put => (set.insert(key), 0),
                ReqKind::Delete => (set.remove(&key), 0),
                ReqKind::Prefix => {
                    let lo = key - key % PREFIX_BLOCK;
                    let matches = set.range(lo..lo + PREFIX_BLOCK).count();
                    let lines = matches.min(PREFIX_CAP) + (matches > PREFIX_CAP) as usize;
                    (matches > 0, lines as u16)
                }
            };
            reqs.push(Req {
                tenant,
                kind,
                key,
                found,
                lines,
            });
        }
    }
    ReqStream {
        reqs,
        window: slots.len(),
        tenants,
        keyspace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let make = |seed| {
            let mut r = Rng::fork(seed, "t");
            let ints = distinct_ints(100, &mut r);
            let words = distinct_words(100, &mut r);
            let p = probes(&ints, 80, 128, 64, &mut r);
            let tx = tx_stream(64, 32, 400, Semantics::Multiset, &mut r);
            let rq = req_stream(4, 128, 3, &mut r);
            (
                ints.ints().to_vec(),
                words.words().to_vec(),
                p.expect,
                tx.ops,
                tx.expect,
                rq.reqs,
            )
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
    }

    #[test]
    fn forks_of_one_seed_are_independent() {
        assert_ne!(Rng::fork(1, "a").next_u64(), Rng::fork(1, "b").next_u64());
    }

    #[test]
    fn probe_expectations_count_present_keys() {
        let mut r = Rng::new(3);
        let u = distinct_ints(64, &mut r);
        let p = probes(&u, 48, 256, 64, &mut r);
        let present: HashSet<u64> = u.ints()[..48].iter().copied().collect();
        for (b, chunk) in p.keys.ints().chunks(64).enumerate() {
            let hits = chunk.iter().filter(|k| present.contains(k)).count() as u32;
            assert_eq!(hits, p.expect[b]);
        }
        assert!(p.expect.iter().any(|&h| h < 64), "some probes must miss");
    }

    #[test]
    fn tx_oracle_matches_a_std_set_replay() {
        let mut r = Rng::new(11);
        let s = tx_stream(32, 16, 2000, Semantics::Set, &mut r);
        let mut set: HashSet<u32> = (0..16).collect();
        for (op, &want) in s.ops.iter().zip(&s.expect) {
            let got = match op.kind {
                OpKind::Insert => set.insert(op.key),
                OpKind::Remove => set.remove(&op.key),
                OpKind::Contains => set.contains(&op.key),
            };
            assert_eq!(got as u32, want);
        }
        let end = s.state_after(2000);
        assert_eq!(end.iter().filter(|&&c| c > 0).count(), set.len());
        assert_eq!(s.state_after(0).iter().sum::<u32>(), 16);
    }

    #[test]
    fn multiset_inserts_report_the_new_count() {
        let mut r = Rng::new(5);
        let s = tx_stream(4, 4, 400, Semantics::Multiset, &mut r);
        assert!(s
            .ops
            .iter()
            .zip(&s.expect)
            .any(|(o, &e)| o.kind == OpKind::Insert && e >= 2));
    }

    #[test]
    fn prefix_requests_carry_capped_line_counts() {
        let mut r = Rng::new(9);
        let s = req_stream(2, 256, 50, &mut r);
        let prefixes: Vec<&Req> = s
            .reqs
            .iter()
            .filter(|q| q.kind == ReqKind::Prefix)
            .collect();
        assert!(!prefixes.is_empty());
        assert!(prefixes.iter().all(|q| q.lines as usize <= PREFIX_CAP + 1));
        assert!(prefixes.iter().all(|q| q.found == (q.lines > 0)));
        assert_eq!(s.state_after(0)[0].len(), 128);
    }

    #[test]
    fn every_window_of_the_served_stream_holds_the_same_slots() {
        let mut r = Rng::new(11);
        let s = req_stream(3, 64, 5, &mut r);
        assert_eq!((s.window, s.reqs.len()), (120, 600));
        let slots =
            |w: &[Req]| -> Vec<(u16, ReqKind)> { w.iter().map(|q| (q.tenant, q.kind)).collect() };
        let first = slots(&s.reqs[..s.window]);
        assert!(s.reqs.chunks(s.window).all(|w| slots(w) == first));
        for t in 0..3 {
            let puts = first.iter().filter(|&&x| x == (t, ReqKind::Put)).count();
            let gets = first.iter().filter(|&&x| x == (t, ReqKind::Get)).count();
            assert_eq!((gets, puts), (24, 8));
        }
    }
}
