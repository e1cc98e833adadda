//! The four structures of the paper's Section 6.1, as the harness sees
//! them: one [`Subject`] impl each, covering every representation and
//! payload width. How a structure is built, where its nodes are placed
//! and what a search batch looks up are decided here and nowhere else.

use super::Config;
use crate::workloads;
use pds::{NodeArena, PBst, PHashSet, PList, PTrie};
use pi_core::{PtrRepr, SwizzledPtr};
use std::any::Any;

/// One of the paper's four structures under some representation and
/// payload: built scattered, walked, and probed with a sample of its own
/// population. Every measurement in `harness` is generic over this trait, so
/// what "the same structure at the same placement" means is written once
/// per structure. `traverse` and `hits` are the timed operations: every
/// impl marks them `#[inline]`, so a timed closure holds the structure's
/// own walk or lookup loop and nothing of the trait shows in its code.
pub(super) trait Subject: Sized + 'static {
    /// Representation of the structure's links.
    type Repr: PtrRepr;
    /// Lookup sample drawn from the population.
    type Sample: 'static;

    /// Builds the structure in `arena` with `cfg.n` elements at scattered
    /// placement.
    fn build(arena: NodeArena, cfg: &Config) -> Self;
    /// The lookups of one search measurement; all hit.
    fn sample(cfg: &Config) -> Self::Sample;
    /// One full traversal (the structure's inherent `traverse`); returns
    /// its checksum.
    fn traverse(&self) -> u64;
    /// Looks every sample element up; returns the number found.
    fn hits(&self, sample: &Self::Sample) -> u64;
    /// Converts the links to absolute pointers — a no-op unless
    /// [`Self::Repr`] is [`SwizzledPtr`].
    fn swizzle(&mut self);
    /// Converts the links back to offsets; the inverse of `swizzle`.
    fn unswizzle(&mut self);
}

/// The one placement decision: a structure's nodes are carved from `2n`
/// shuffled free blocks of its node type `N`.
fn scatter<N>(arena: &NodeArena, cfg: &Config) {
    arena
        .scatter(cfg.n * 2, std::mem::size_of::<N>(), cfg.seed)
        .expect("scatter");
}

/// The `swizzle`/`unswizzle` pair of a [`Subject`] impl for structure
/// `$T`: forwards to the inherent passes, which exist only on the
/// `SwizzledPtr` instantiation.
macro_rules! swizzle_pair {
    ($T:ident) => {
        fn swizzle(&mut self) {
            if let Some(s) = (self as &mut dyn Any).downcast_mut::<$T<SwizzledPtr, P>>() {
                s.swizzle();
            }
        }
        fn unswizzle(&mut self) {
            if let Some(s) = (self as &mut dyn Any).downcast_mut::<$T<SwizzledPtr, P>>() {
                s.unswizzle();
            }
        }
    };
}

/// `m` lookups drawn from the `u64` population of `cfg`.
fn key_sample(cfg: &Config, m: usize) -> Vec<u64> {
    workloads::search_sample(&workloads::keys(cfg.n, cfg.seed), m, cfg.seed)
}

impl<R: PtrRepr, const P: usize> Subject for PList<R, P> {
    type Repr = R;
    type Sample = Vec<u64>;
    fn build(arena: NodeArena, cfg: &Config) -> Self {
        let mut l = PList::new(arena).expect("list");
        scatter::<pds::ListNode<R, P>>(l.arena(), cfg);
        l.extend(workloads::keys(cfg.n, cfg.seed))
            .expect("populate");
        l
    }
    fn sample(cfg: &Config) -> Vec<u64> {
        // Linear search: a hundredth of the other structures' lookups.
        key_sample(cfg, (cfg.searches / 100).max(10))
    }
    #[inline]
    fn traverse(&self) -> u64 {
        self.traverse()
    }
    #[inline]
    fn hits(&self, sample: &Self::Sample) -> u64 {
        sample.iter().filter(|&&k| self.contains(k)).count() as u64
    }
    swizzle_pair!(PList);
}

impl<R: PtrRepr, const P: usize> Subject for PBst<R, P> {
    type Repr = R;
    type Sample = Vec<u64>;
    fn build(arena: NodeArena, cfg: &Config) -> Self {
        let mut t = PBst::new(arena).expect("bst");
        scatter::<pds::BstNode<R, P>>(t.arena(), cfg);
        t.extend(workloads::keys(cfg.n, cfg.seed))
            .expect("populate");
        t
    }
    fn sample(cfg: &Config) -> Vec<u64> {
        key_sample(cfg, cfg.searches)
    }
    #[inline]
    fn traverse(&self) -> u64 {
        self.traverse()
    }
    #[inline]
    fn hits(&self, sample: &Self::Sample) -> u64 {
        sample.iter().filter(|&&k| self.contains(k)).count() as u64
    }
    swizzle_pair!(PBst);
}

impl<R: PtrRepr, const P: usize> Subject for PHashSet<R, P> {
    type Repr = R;
    type Sample = Vec<u64>;
    fn build(arena: NodeArena, cfg: &Config) -> Self {
        let mut s = PHashSet::new(arena, (cfg.n as u64 / 8).max(8)).expect("hashset");
        scatter::<pds::HsNode<R, P>>(s.arena(), cfg);
        s.extend(workloads::keys(cfg.n, cfg.seed))
            .expect("populate");
        s
    }
    fn sample(cfg: &Config) -> Vec<u64> {
        key_sample(cfg, cfg.searches)
    }
    #[inline]
    fn traverse(&self) -> u64 {
        self.traverse()
    }
    #[inline]
    fn hits(&self, sample: &Self::Sample) -> u64 {
        sample.iter().filter(|&&k| self.contains(k)).count() as u64
    }
    swizzle_pair!(PHashSet);
}

impl<R: PtrRepr, const P: usize> Subject for PTrie<R, P> {
    type Repr = R;
    type Sample = Vec<String>;
    fn build(arena: NodeArena, cfg: &Config) -> Self {
        let mut t = PTrie::new(arena).expect("trie");
        scatter::<pds::TrieNode<R, P>>(t.arena(), cfg);
        let vocab = workloads::vocabulary(cfg.n, cfg.seed);
        t.extend(vocab.iter().map(|s| s.as_str()))
            .expect("populate");
        t
    }
    fn sample(cfg: &Config) -> Vec<String> {
        let vocab = workloads::vocabulary(cfg.n, cfg.seed);
        let idx = workloads::word_stream(cfg.searches, vocab.len(), cfg.seed);
        idx.into_iter().map(|i| vocab[i].clone()).collect()
    }
    #[inline]
    fn traverse(&self) -> u64 {
        self.traverse()
    }
    #[inline]
    fn hits(&self, sample: &Self::Sample) -> u64 {
        sample.iter().filter(|w| self.contains(w)).count() as u64
    }
    swizzle_pair!(PTrie);
}
