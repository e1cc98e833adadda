//! Error types for the transactional object store.

use nvmsim::NvError;
use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Errors produced by the object store.
#[derive(Debug)]
pub enum StoreError {
    /// The region holds no (valid) store — [`crate::ObjectStore::format`]
    /// has not been run.
    NotFormatted,
    /// The region already holds a store and would be clobbered by a format.
    AlreadyFormatted,
    /// The undo log cannot hold another entry.
    LogFull {
        /// Configured log capacity in bytes.
        capacity: u64,
        /// Size of the entry that did not fit.
        requested: u64,
    },
    /// Substrate-level failure.
    Nv(NvError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFormatted => write!(f, "region does not contain an object store"),
            StoreError::AlreadyFormatted => write!(f, "region already contains an object store"),
            StoreError::LogFull {
                capacity,
                requested,
            } => {
                write!(
                    f,
                    "undo log full (capacity {capacity}, entry of {requested} bytes)"
                )
            }
            StoreError::Nv(e) => write!(f, "nvm error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Nv(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NvError> for StoreError {
    fn from(e: NvError) -> Self {
        StoreError::Nv(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = StoreError::LogFull {
            capacity: 64,
            requested: 128,
        };
        assert!(e.to_string().contains("64"));
        assert!(e.source().is_none());
        let e: StoreError = NvError::NoFreeSegment.into();
        assert!(e.source().is_some());
        assert!(!StoreError::NotFormatted.to_string().is_empty());
        assert!(!StoreError::AlreadyFormatted.to_string().is_empty());
    }
}
