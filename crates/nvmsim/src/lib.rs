//! # nvmsim — a simulated byte-addressable NVM substrate
//!
//! This crate provides the non-volatile-memory substrate that the
//! position-independent pointer representations of the `pi-core` crate run
//! on. It simulates the system assumed by *"Efficient Support of Position
//! Independence on Non-Volatile Memory"* (MICRO-50, 2017), Section 2:
//!
//! * NVM is **directly accessed** as main memory (no block I/O);
//! * it is organized into multiple **NVRegions**, each a contiguous chunk
//!   with a unique integer ID, named **NVRoots**, and its own allocator;
//! * an **NV space** — one reserved range of virtual addresses — holds all
//!   mapped regions plus the two direct-mapped lookup tables (**RID table**
//!   and **base table**) that make the paper's RIV pointer conversions a
//!   handful of bit transformations and one load.
//!
//! Durability is simulated with file-backed mappings: a region image is a
//! position-independent byte-for-byte snapshot that can be remapped at any
//! segment base in a later run. See `DESIGN.md` at the repository root for
//! the substitutions relative to the paper's hardware platform.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), nvmsim::NvError> {
//! use nvmsim::{NvSpace, Region};
//!
//! // Create a 1 MiB region, allocate in it, name a root.
//! let region = Region::create(1 << 20)?;
//! let node = region.alloc(64, 8)?;
//! region.set_root("head", node.as_ptr() as usize)?;
//!
//! // The paper's conversion functions: address -> region id -> base.
//! let space = NvSpace::global();
//! let rid = space.rid_of_addr(node.as_ptr() as usize);
//! assert_eq!(rid, region.rid());
//! assert_eq!(space.base_of_rid(rid), region.base());
//! region.close()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod crc;
pub mod dlin;
pub mod error;
pub mod inspect;
pub mod latency;
pub mod layout;
pub mod llalloc;
pub mod mem;
pub mod metrics;
pub mod nvspace;
pub mod region;
pub mod registry;
pub mod sched;
pub mod shadow;
pub mod undolog;
pub mod verify;

/// The little-endian `u64` at byte `off` of an image: how every on-media
/// format of this crate stores its words. Panics past the end of `bytes`
/// — callers bounds-check what an image told them first.
pub(crate) fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8-byte slice"))
}

pub use dlin::{CheckReport, History, OpRecord, Recorder, SetOp, Violation};
pub use error::{NvError, Result};
pub use latency::LatencyModel;
pub use layout::{ExactLayout, Layout};
pub use nvspace::NvSpace;
pub use region::Region;
pub use sched::{SchedEvent, ScheduleAborted, Scheduler};
pub use shadow::{
    CapturedCrash, CrashPointReached, FaultPlan, FaultPolicy, FaultReport, FaultStamp, ShadowError,
};
pub use undolog::LogSummary;
pub use verify::{RootIssue, SlotState, SlotStatus, VerifyReport};
