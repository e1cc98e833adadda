//! # pds — persistent dynamic data structures
//!
//! The four data structures of the paper's evaluation (Section 6.1) —
//! linked list, binary (search) tree, hash set, and trie — plus the
//! `wordcount` application of Section 6.3, all **generic over the pointer
//! representation** from `pi-core`. Instantiating one structure with each
//! representation is exactly how the paper compares off-holder, RIV, fat
//! pointers, based pointers, swizzling, and normal pointers on identical
//! workloads.
//!
//! Placement concerns (non-transactional vs. PMEM.IO-style transactional
//! allocation; single-region vs. round-robin multi-region) are captured by
//! [`NodeArena`].
//!
//! # One write path
//!
//! Each structure has one insertion body, generic over a crate-private
//! write context; the raw entry points (`insert`, `push_front`, `extend`)
//! and the transactional ones (`insert_tx`, `push_front_tx`) only choose
//! the context. In a transaction the body logs its write set and its
//! allocations as one undo batch, fences once, and flushes each fresh
//! node before the one link store that publishes it. Raw mode makes the
//! same stores and allocates the same blocks in the same order, with no
//! log, no flush and no crash atomicity.
//! Every `remove_tx` logs its slot and counters and frees what it unlinks
//! in one batch too; bst, hashset and list share one unlink tail.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use nvmsim::Region;
//! use pds::{NodeArena, PList};
//! use pi_core::OffHolder;
//!
//! let region = Region::create(1 << 20)?;
//! let mut list: PList<OffHolder, 32> = PList::new(NodeArena::raw(region.clone()))?;
//! list.extend(0..100)?;
//! assert_eq!(list.len(), 100);
//! assert!(list.contains(42));
//! region.close()?;
//! # Ok(())
//! # }
//! ```
//!
//! # One read path
//!
//! Each structure has one node walk, generic over how it reads a link:
//! along a chain (list, hash set) or depth first down a tree (bst,
//! wordcount, trie, ART). `check_invariants` and the other whole-structure
//! reads (`blocks`, `keys`, `height`, `stats`, ...) resolve each link
//! checked: it must decode and point at a whole node below the committed
//! end of an open region, or the walk stops with an `Err` naming it: a
//! rotted image is an error, not a fault. The swizzle passes convert each
//! link as they follow it. List and hash-set `traverse` walk with the plain
//! load, and a lookup runs the key descent its mutators run, loading each
//! link plainly where they load it at rest.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod art;
pub mod bst;
mod ctx;
pub mod error;
pub mod hashset;
pub mod list;
pub mod trie;
mod walk;
pub mod wordcount;

pub use arena::NodeArena;
pub use art::{
    inspect_index, ArtIndexReport, ArtStats, PArt, ART_KIND_NAMES, ART_ROOT_TAG, MAX_KEY,
};
pub use bst::{BstNode, PBst, BST_ROOT_TAG};
pub use error::{PdsError, Result};
pub use hashset::{HsNode, PHashSet, HASHSET_ROOT_TAG};
pub use list::{fill_payload, ListNode, PList, LIST_ROOT_TAG};
pub use trie::{PTrie, TrieNode, ALPHABET, TRIE_ROOT_TAG};
pub use wordcount::{WcNode, WordCount, MAX_WORD, WORDCOUNT_ROOT_TAG};
