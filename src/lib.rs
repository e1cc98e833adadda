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
    CapturedCrash, CheckReport, CrashPointReached, FaultPlan, FaultPolicy, FaultReport, FaultStamp,
    History, LatencyModel, Layout, NvError, NvSpace, OpRecord, Recorder, Region, SchedEvent,
    ScheduleAborted, Scheduler, SetOp, VerifyReport, Violation,
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
#[cfg(test)]
/// The paper-exact Figure 7 model that the property tests hold the runtime
/// [`Layout`] to; it is test code, so the library does not ship it.
#[path = "../tests/util/exact_layout.rs"]
mod exact_layout;

/// The exact model's own checks against the paper's worked examples.
#[cfg(test)]
mod layout {
    mod tests {
        use crate::exact_layout::{bytes_for_bits, ceil_log2, Area, ExactLayout};

        #[test]
        fn helpers() {
            assert_eq!(bytes_for_bits(8), 1);
            assert_eq!(bytes_for_bits(9), 2);
            assert_eq!(bytes_for_bits(28), 4);
            assert_eq!(bytes_for_bits(32), 4);
            assert_eq!(bytes_for_bits(58), 8);
            assert_eq!(ceil_log2(1), 0);
            assert_eq!(ceil_log2(2), 1);
            assert_eq!(ceil_log2(3), 2);
            assert_eq!(ceil_log2(4), 2);
            assert_eq!(ceil_log2(8), 3);
        }

        #[test]
        fn paper_example_config_is_valid() {
            ExactLayout::PAPER_EXAMPLE.validate().unwrap();
            ExactLayout::PAPER_LARGE.validate().unwrap();
            // Half of the 2^28 segments carry the flag bit.
            assert_eq!(ExactLayout::PAPER_EXAMPLE.usable_segments(), 1 << 27);
        }

        #[test]
        fn paper_example_entry_strides() {
            let e = ExactLayout::PAPER_EXAMPLE;
            // l4 = 32 bits -> 4-byte rid entries; l2 = 28 -> 4-byte base entries.
            assert_eq!(e.rid_entry_shift(), 2);
            assert_eq!(e.base_entry_shift(), 2);
            assert_eq!(e.prefix(), 0xf000_0000_0000_0000);
        }

        #[test]
        fn paper_example_nvbase_extraction() {
            // The worked example: a region loaded at segment base
            // 0xfffffffd00000000 has nvbase 0xffffffd.
            let e = ExactLayout::PAPER_EXAMPLE;
            // (0xfffffffd00000000 >> 32) & 0x0fffffff = 0xffffffd.
            assert_eq!(e.nvbase_of(0xffff_fffd_0000_0000), 0xffffffd);
            assert_eq!(e.offset_of(0xffff_fffd_1234_5678), 0x1234_5678);
            assert_eq!(e.get_base(0xffff_fffd_1234_5678), 0xffff_fffd_0000_0000);
        }

        #[test]
        fn same_segment_addresses_share_rid_entry() {
            let e = ExactLayout::PAPER_EXAMPLE;
            let a1 = 0xffff_fffd_0000_0000u64;
            let a2 = 0xffff_fffd_1234_5678u64;
            assert_eq!(e.rid_entry_addr_for(a1), e.rid_entry_addr_for(a2));
        }

        #[test]
        fn base_entry_addr_has_flag_bit() {
            let e = ExactLayout::PAPER_EXAMPLE;
            let addr = e.base_entry_addr(8);
            // rid 8 strided by 4 bytes -> low bits 0x20; flag at bit 34.
            assert_eq!(addr & 0xffff_ffff, 0x20);
            assert_ne!(addr & (1u64 << 34), 0);
            assert_eq!(e.classify(addr), Some(Area::BaseTable));
        }

        #[test]
        fn areas_are_pairwise_disjoint_for_paper_configs() {
            for e in [ExactLayout::PAPER_EXAMPLE, ExactLayout::PAPER_LARGE] {
                let (_r_lo, r_hi) = e.area_span(Area::RidTable);
                let (b_lo, b_hi) = e.area_span(Area::BaseTable);
                let (d_lo, _d_hi) = e.area_span(Area::Data);
                assert!(r_hi <= b_lo, "rid table below base table");
                assert!(b_hi <= d_lo, "base table below data area");
            }
        }

        #[test]
        fn classify_matches_constructors() {
            let e = ExactLayout::PAPER_EXAMPLE;
            let nvb = e.first_usable_nvbase() | 5;
            assert_eq!(e.classify(e.data_addr(nvb, 1234)), Some(Area::Data));
            assert_eq!(e.classify(e.rid_entry_addr(nvb)), Some(Area::RidTable));
            assert_eq!(e.classify(e.base_entry_addr(77)), Some(Area::BaseTable));
            // A non-NV address classifies as None.
            assert_eq!(e.classify(0x0000_7fff_dead_beef), None);
        }

        #[test]
        fn exact_layout_rejects_violations() {
            // l1+l2+l3 != 64
            assert!(ExactLayout {
                l1: 4,
                l2: 28,
                l3: 30,
                l4: 32
            }
            .validate()
            .is_err());
            // l4 < l2
            assert!(ExactLayout {
                l1: 4,
                l2: 28,
                l3: 32,
                l4: 20
            }
            .validate()
            .is_err());
            // l4 + sb < l3 (flag bit below the nvbase section)
            assert!(ExactLayout {
                l1: 2,
                l2: 20,
                l3: 42,
                l4: 30
            }
            .validate()
            .is_err());
        }
    }
}
