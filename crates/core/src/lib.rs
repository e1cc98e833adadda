//! # pi-core — position-independent pointer representations for NVM
//!
//! This crate implements the primary contribution of *"Efficient Support
//! of Position Independence on Non-Volatile Memory"* (MICRO-50, 2017): the
//! concept of **implicit self-contained pointer representations** and its
//! two materializations, plus every baseline the paper compares against.
//!
//! | Representation | Type | Size | Scope | Dereference cost |
//! |---|---|---|---|---|
//! | Off-holder (§4.2) | [`OffHolder`] | 8 B | intra-region | one add |
//! | RIV (§4.3) | [`Riv`] | 8 B | cross-region | bit ops + 1 table load |
//! | Fat pointer | [`FatPtr`] | 16 B | cross-region | hashtable lookup |
//! | Fat + cache | [`FatPtrCached`] | 16 B | cross-region | cache probe or lookup |
//! | Based pointer | [`BasedPtr`] | 8 B | one region/process | one add (global base) |
//! | Swizzling | [`SwizzledPtr`] | 8 B | intra-region | direct (after O(n) pass) |
//! | Normal | [`NormalPtr`] | 8 B | not position independent | direct |
//!
//! All implement [`PtrRepr`], so data structures can be written once and
//! instantiated with any representation — which is exactly how the paper's
//! evaluation (and the `pds`/`bench` crates here) compares them.
//!
//! Typed pointers with the paper's `persistentI`/`persistentX` semantics
//! are in [`ptr`] and [`semantics`].
//!
//! ## Example: a position-independent cell
//!
//! ```
//! # fn main() -> Result<(), nvmsim::NvError> {
//! use nvmsim::Region;
//! use pi_core::{PtrRepr, Riv};
//!
//! let region = Region::create(1 << 20)?;
//! let value = region.alloc(8, 8)?.as_ptr() as *mut u64;
//! let cell = region.alloc(8, 8)?.as_ptr() as *mut Riv;
//! unsafe {
//!     value.write(42);
//!     (*cell).store(value as usize);
//!     assert_eq!(*((*cell).load() as *const u64), 42);
//! }
//! region.close()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atomic;
pub mod based;
pub mod fat;
pub mod off_holder;
pub mod ptr;
pub mod repr;
pub mod riv;
pub mod semantics;
pub mod swizzle;

pub use atomic::AtomicPPtr;
pub use based::BasedPtr;
pub use fat::{FatPtr, FatPtrCached};
/// The paper's §4.4 `persistent` modifier for volatile pointers, which
/// `nvmsim` also uses as its accessor for raw region memory;
/// [`Riv::from`] makes one position independent.
pub use nvmsim::nvref::{is_persistent, NvRef};
pub use off_holder::OffHolder;
pub use ptr::{PPtr, PersistentI, PersistentX};
pub use repr::{NormalPtr, PtrRepr};
pub use riv::Riv;
pub use semantics::TypeError;
pub use swizzle::SwizzledPtr;
