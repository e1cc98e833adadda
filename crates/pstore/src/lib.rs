//! # pstore — a transactional persistent object store
//!
//! An analogue of the PMEM.IO library the paper's Section 6.3 experiments
//! build on: undo-logged transactions with the ACID-style write-ahead
//! discipline, transactional allocation, and automatic crash recovery.
//! The "transactional" benchmark configurations allocate their
//! data-structure nodes through this store, reproducing the tracking
//! operations the paper identifies as the cost of transactional
//! semantics. PMEM.IO's per-item metadata is not reproduced: an object is
//! its allocator block, whose bitmap bit already records that it is live
//! (a 56-byte node fills a 64-byte block, PMEM.IO's items are 128 bytes).
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use nvmsim::Region;
//! use pstore::ObjectStore;
//!
//! let region = Region::create(1 << 20)?;
//! let store = ObjectStore::format(&region)?;
//! let obj = store.alloc(1, 32)?.as_ptr() as *mut u64;
//!
//! unsafe {
//!     obj.write(1);
//!     let mut tx = store.begin();
//!     tx.set(obj, 2)?;
//!     tx.commit(); // without this, the write would roll back
//!     assert_eq!(obj.read(), 2);
//! }
//! region.close()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod log;
pub mod store;
pub mod tx;

pub use error::{Result, StoreError};
pub use log::{RecoveryStats, UndoLog};
pub use store::{ObjectStore, DEFAULT_LOG_CAPACITY};
pub use tx::Tx;
