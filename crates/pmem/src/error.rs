//! Error type for the persistent object store.

use std::fmt;

/// Errors produced by pools, allocators and transactions.
#[derive(Debug)]
pub enum PmemError {
    /// The pool header's magic number did not match — not a pool, or corrupted.
    BadMagic,
    /// The pool header checksum did not validate.
    BadChecksum,
    /// The pool was created with a different layout name.
    LayoutMismatch {
        /// Layout recorded in the pool header.
        found: String,
        /// Layout the caller asked for.
        expected: String,
    },
    /// The pool file/backend is smaller than the minimum pool size.
    PoolTooSmall {
        /// Bytes available.
        bytes: u64,
        /// Minimum required.
        minimum: u64,
    },
    /// The persistent heap has no free block large enough.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Largest free block available.
        largest_free: u64,
    },
    /// An object identifier did not belong to this pool or was out of range.
    InvalidOid,
    /// Freeing an object that is not currently allocated (double free or
    /// corrupted heap).
    NotAllocated(u64),
    /// An access fell outside the pool.
    OutOfBounds {
        /// Offset of the access.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Pool size.
        pool_size: u64,
    },
    /// A transaction operation was attempted outside a transaction, or a
    /// nested transaction was started where that is not allowed.
    TransactionState(&'static str),
    /// The undo log area is full.
    LogFull,
    /// An undo-log entry is malformed: its count or length overruns the log
    /// area, or its range lies outside the pool heap. Recovery refuses to
    /// replay such a log, and a transaction refuses to log such a range.
    UndoLog(&'static str),
    /// A call of a backend whose host [`Crash`](crate::backend::Crash) died.
    InjectedCrash(&'static str),
    /// Underlying I/O error: a failed transfer of the device under a backend.
    Io(std::io::Error),
    /// The requested element count would overflow the addressable range.
    SizeOverflow,
    /// A checkpoint region operation failed (bad descriptor, no committed
    /// epoch, snapshot length mismatch, ...).
    Checkpoint(&'static str),
    /// A chunk-residency map operation failed (bad header, out-of-range tier,
    /// stale migration source, ...).
    Residency(&'static str),
    /// An object-store operation failed (bad descriptor, id beyond capacity,
    /// value longer than the slot, commit without a staged put, ...).
    ObjectStore(&'static str),
    /// A lookup named an object id with no committed version in the store's
    /// directory.
    NoSuchObject(u64),
    /// An in-place computation was refused: more inputs than a backend reads
    /// in one call, or an input range overlapping the output range.
    Apply(&'static str),
}

impl fmt::Display for PmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmemError::BadMagic => write!(f, "pool magic number mismatch"),
            PmemError::BadChecksum => write!(f, "pool header checksum mismatch"),
            PmemError::LayoutMismatch { found, expected } => {
                write!(f, "pool layout is '{found}', expected '{expected}'")
            }
            PmemError::PoolTooSmall { bytes, minimum } => {
                write!(f, "pool of {bytes} bytes is below the minimum {minimum}")
            }
            PmemError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "persistent heap exhausted: requested {requested}, largest free block {largest_free}"
            ),
            PmemError::InvalidOid => write!(f, "object id does not belong to this pool"),
            PmemError::NotAllocated(offset) => {
                write!(f, "offset {offset:#x} is not an allocated object")
            }
            PmemError::OutOfBounds {
                offset,
                len,
                pool_size,
            } => write!(
                f,
                "access of {len} bytes at {offset:#x} exceeds pool size {pool_size:#x}"
            ),
            PmemError::TransactionState(msg) => write!(f, "transaction state error: {msg}"),
            PmemError::LogFull => write!(f, "transaction undo log is full"),
            PmemError::UndoLog(msg) => write!(f, "undo log error: {msg}"),
            PmemError::InjectedCrash(point) => write!(f, "injected crash at {point}"),
            PmemError::Io(e) => write!(f, "I/O error: {e}"),
            PmemError::SizeOverflow => write!(f, "requested size overflows the pool address space"),
            PmemError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            PmemError::Residency(msg) => write!(f, "residency error: {msg}"),
            PmemError::ObjectStore(msg) => write!(f, "object store error: {msg}"),
            PmemError::NoSuchObject(id) => {
                write!(f, "object {id} has no committed version in this store")
            }
            PmemError::Apply(msg) => write!(f, "in-place computation refused: {msg}"),
        }
    }
}

impl std::error::Error for PmemError {}

impl From<std::io::Error> for PmemError {
    fn from(e: std::io::Error) -> Self {
        PmemError::Io(e)
    }
}

/// A device error under a pool backend surfaces as the backend's I/O error,
/// carrying the device's message.
impl From<cxl::CxlError> for PmemError {
    fn from(e: cxl::CxlError) -> Self {
        PmemError::Io(std::io::Error::other(e.to_string()))
    }
}

impl PmemError {
    /// Whether this error is a dead backend's crash sentinel.
    pub fn is_injected_crash(&self) -> bool {
        matches!(self, PmemError::InjectedCrash(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = PmemError::LayoutMismatch {
            found: "stream".into(),
            expected: "array".into(),
        };
        assert!(e.to_string().contains("stream"));
        assert!(e.to_string().contains("array"));
        assert!(PmemError::InjectedCrash("pre-commit").is_injected_crash());
        assert!(!PmemError::BadMagic.is_injected_crash());
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: PmemError = io.into();
        assert!(matches!(e, PmemError::Io(_)));
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn device_errors_convert_with_their_message() {
        let device = cxl::CxlError::OutOfBounds {
            dpa: 0x20,
            len: 64,
            capacity: 0x40,
        };
        let message = device.to_string();
        let e: PmemError = device.into();
        assert!(matches!(e, PmemError::Io(_)));
        assert_eq!(e.to_string(), format!("I/O error: {message}"));
    }
}
