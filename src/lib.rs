//! # nvm-pi — position-independent pointers for non-volatile memory
//!
//! A full reproduction, as a Rust library, of *"Efficient Support of
//! Position Independence on Non-Volatile Memory"* (Chen, Zhang, Budhiraja,
//! Shen, Wu — MICRO-50, 2017).
//!
//! When a pointer-based data structure persisted on NVM is mapped at a
//! different virtual address in a later run, ordinary absolute pointers
//! break (the paper's Figure 1). This crate provides the paper's two
//! **implicit self-contained** pointer representations that fix this with
//! (near-)zero space overhead and minimal time overhead:
//!
//! * [`OffHolder`] — stores the target's offset *from the pointer's own
//!   address*; intra-region, zero space overhead, one add to decode;
//! * [`Riv`] — packs the target's **Region ID in the Value** next to its
//!   offset; cross-region capable, decoded through two direct-mapped
//!   lookup tables with a handful of bit transformations and one load;
//!
//! plus every baseline the paper compares them with ([`FatPtr`],
//! [`FatPtrCached`], [`BasedPtr`], [`SwizzledPtr`], [`NormalPtr`]), a
//! simulated multi-region NVM substrate ([`nvmsim`]), a PMEM.IO-style
//! transactional object store ([`pstore`]), the four evaluation data
//! structures generic over representation ([`pds`]), and typed pointers
//! with the paper's `persistentI`/`persistentX` semantics
//! ([`PersistentI`], [`PersistentX`], [`pi_core::semantics`]).
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use nvm_pi::{NodeArena, OffHolder, PList, Region};
//!
//! // Build a persistent linked list with off-holder pointers...
//! let dir = std::env::temp_dir().join(format!("nvm-pi-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("list.nvr");
//! {
//!     let region = Region::create_file(&path, 1 << 20)?;
//!     let mut list: PList<OffHolder, 32> =
//!         PList::create_rooted(NodeArena::raw(region.clone()), "my-list")?;
//!     list.extend(0..100)?;
//!     region.close()?;
//! }
//! // ...and reopen it at a (random) different address: still intact.
//! let region = Region::open_file(&path)?;
//! let list: PList<OffHolder, 32> = PList::attach(NodeArena::raw(region.clone()), "my-list")?;
//! assert_eq!(list.len(), 100);
//! assert!(list.contains(42));
//! region.close()?;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(missing_docs)]

pub use nvmsim;
pub use nvserver;
pub use pds;
pub use pi_core;
pub use pstore;

pub use nvmsim::{
    CapturedCrash, CheckReport, CrashPointReached, ExactLayout, FaultPlan, FaultPolicy,
    FaultReport, FaultStamp, History, LatencyModel, Layout, NvError, NvSpace, OpRecord, Recorder,
    Region, SchedEvent, ScheduleAborted, Scheduler, SetOp, VerifyReport, Violation,
};
pub use nvserver::{
    Client, Priority, ReprKind, Server, ServerConfig, ServerFaultPlan, ServerReport, TenantSpec,
    TenantState,
};
pub use pds::{NodeArena, PArt, PBst, PHashSet, PList, PTrie, PdsError, WordCount};
pub use pi_core::{
    is_persistent, AtomicPPtr, BasedPtr, FatPtr, FatPtrCached, NormalPtr, NvRef, OffHolder, PPtr,
    PersistentI, PersistentX, PtrRepr, Riv, SwizzledPtr, TypeError,
};
pub use pstore::{ObjectStore, RecoveryStats, StoreError, Tx};
