//! Error types for the NVM substrate.

use std::fmt;
use std::io;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, NvError>;

/// Errors produced by the simulated-NVM substrate.
///
/// Every public fallible operation in this crate returns [`NvError`]. The
/// variants are deliberately coarse: callers usually react to the *category*
/// (out of space, bad image, I/O) rather than to byte-level detail, which is
/// carried in the message payloads instead.
#[derive(Debug)]
pub enum NvError {
    /// The NV space has no free segment that satisfies the request.
    NoFreeSegment,
    /// A region ID outside the configured `[1, 2^L4)` range was requested,
    /// or the ID is already in use by an open region.
    InvalidRid {
        /// The offending region ID.
        rid: u32,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// The requested allocation cannot be satisfied by the region allocator.
    OutOfMemory {
        /// ID of the region that ran out of space.
        region: u32,
        /// Size of the failed request in bytes.
        requested: usize,
    },
    /// An address was expected to fall inside the NV space (or a particular
    /// region) but does not.
    AddressOutOfRange {
        /// The offending address.
        addr: usize,
    },
    /// A persisted region image failed validation (bad magic, version,
    /// truncated file, corrupt allocator metadata, ...).
    BadImage(String),
    /// The named root does not exist in the region.
    RootNotFound(String),
    /// The root directory of the region is full.
    RootDirectoryFull,
    /// A root name exceeds the fixed name capacity.
    RootNameTooLong(String),
    /// Layout parameters violate the constraints of Section 4.3 of the paper.
    BadLayout(String),
    /// An operation required an open region but the region was closed.
    RegionClosed {
        /// ID of the closed region.
        rid: u32,
    },
    /// Shadow persistence tracking was required (fault injection) but
    /// `enable_shadow` was never called on the region.
    ShadowNotEnabled {
        /// Base address of the untracked region.
        base: usize,
    },
    /// An operation named a region by base address but no open region is
    /// mapped there.
    RegionUnknown {
        /// The offending base address.
        base: usize,
    },
    /// A free named no allocated block of its size: the block's bitmap
    /// bit is already clear (a double free), or no block of that size
    /// starts at the offset.
    NotAllocated {
        /// Region offset of the refused free.
        off: u64,
    },
    /// Underlying OS-level failure (mmap, msync, file I/O).
    Io(io::Error),
}

impl fmt::Display for NvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvError::NoFreeSegment => write!(f, "no free NV segment available"),
            NvError::InvalidRid { rid, reason } => {
                write!(f, "invalid region id {rid}: {reason}")
            }
            NvError::OutOfMemory { region, requested } => {
                write!(f, "region {region} cannot allocate {requested} bytes")
            }
            NvError::AddressOutOfRange { addr } => {
                write!(f, "address {addr:#x} is outside the NV space")
            }
            NvError::BadImage(msg) => write!(f, "bad region image: {msg}"),
            NvError::RootNotFound(name) => write!(f, "root not found: {name}"),
            NvError::RootDirectoryFull => write!(f, "root directory is full"),
            NvError::RootNameTooLong(name) => write!(f, "root name too long: {name}"),
            NvError::BadLayout(msg) => write!(f, "bad NV-space layout: {msg}"),
            NvError::RegionClosed { rid } => write!(f, "region {rid} is closed"),
            NvError::ShadowNotEnabled { base } => {
                write!(f, "shadow tracking not enabled for region at {base:#x}")
            }
            NvError::RegionUnknown { base } => {
                write!(f, "no open region mapped at {base:#x}")
            }
            NvError::NotAllocated { off } => {
                write!(f, "no allocated block of that size at offset {off:#x}")
            }
            NvError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for NvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NvError {
    fn from(e: io::Error) -> Self {
        NvError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_ish() {
        let cases: Vec<NvError> = vec![
            NvError::NoFreeSegment,
            NvError::InvalidRid {
                rid: 3,
                reason: "already open",
            },
            NvError::OutOfMemory {
                region: 1,
                requested: 64,
            },
            NvError::AddressOutOfRange { addr: 0xdead },
            NvError::BadImage("truncated".into()),
            NvError::RootNotFound("head".into()),
            NvError::RootDirectoryFull,
            NvError::RootNameTooLong("x".repeat(99)),
            NvError::BadLayout("l4 < l2".into()),
            NvError::RegionClosed { rid: 7 },
            NvError::ShadowNotEnabled { base: 0x7000_0000 },
            NvError::RegionUnknown { base: 0x7000_0000 },
            NvError::NotAllocated { off: 0x4000 },
            NvError::Io(io::Error::other("boom")),
        ];
        for c in cases {
            let s = c.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "no trailing punctuation: {s}");
        }
    }

    #[test]
    fn io_error_converts_and_sources() {
        use std::error::Error as _;
        let e: NvError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, NvError::Io(_)));
        assert!(e.source().is_some());
        assert!(NvError::NoFreeSegment.source().is_none());
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", NvError::RootDirectoryFull).is_empty());
    }
}
